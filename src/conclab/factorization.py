"""Factorization identities for concurrence evolution under local channels,
their evaluation on given scenarios, and seeded randomized verification
campaigns bucketed by the rank of the evolved state.

An identity is a cut plus a right-hand-side structure:

    product : one term multiplying the single-sided factor of every qubit
    sum     : one term per (block1 qubit, block2 qubit) pair

Each factor is the concurrence, on the identity's cut, of the state obtained
by sending the qubit's channel through a single side of the initial state
(by default the last qubit, matching the single-sided construction the
identities are stated with). The residual compares

    lhs * C(psi)^e   against   rhs-aggregated term products,

where e defaults to (factors per term - 1) so both sides carry the same
power of the initial entanglement. Term products aggregate either as a
plain sum ("sum", the form the identities are stated in) or as the
quadrature mean sqrt(sum of squares / n_terms) ("rms"), which is the form
the same-family scenarios actually satisfy; both are exposed so campaigns
can discriminate the conventions empirically.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelAssignment, apply, sample_channel, _canonical_family
from .concurrence import LEAK_TOL, Bipartition, cut_concurrence, parse_cut
from .errors import DimensionMismatchError
from .linalg import RANK_TOL, numerical_rank
from .states import parse_state

PRODUCT = "product"
SUM = "sum"
FORMS = (PRODUCT, SUM)

ANCHOR_LAST = "last"
ANCHOR_OWN = "own"


def default_cut(n_qubits):
    """The canonical cut {1..n-1}|{n}."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    return Bipartition(tuple(range(1, n_qubits)), (n_qubits,))


class FactorizationIdentity:
    """A cut together with the product or sum structure of its right-hand side."""

    __slots__ = ("form", "cut")

    def __init__(self, form, cut):
        form = str(form).lower()
        if form not in FORMS:
            raise ValueError(f"identity form must be one of {FORMS}, got {form!r}")
        if form == SUM and cut.n_qubits < 3:
            raise ValueError("sum identities are defined for three or more qubits")
        self.form = form
        self.cut = cut

    @property
    def n_qubits(self):
        return self.cut.n_qubits

    @property
    def rhs_terms(self):
        """Tuples of qubit indices whose factors multiply within one term."""
        if self.form == PRODUCT:
            return (tuple(range(1, self.n_qubits + 1)),)
        return tuple((i, j) for i in self.cut.block1 for j in self.cut.block2)

    @property
    def rank_ceiling(self):
        """Largest final-state rank the identity is claimed for."""
        return 2 if self.form == PRODUCT else 4

    @property
    def normalization_exponent(self):
        """Degree-matching default: factors per term minus one."""
        return len(self.rhs_terms[0]) - 1

    @property
    def name(self):
        return f"{self.form}-{self.cut.label}"

    def __repr__(self):
        return f"FactorizationIdentity({self.name!r})"

    def __eq__(self, other):
        return (isinstance(other, FactorizationIdentity)
                and self.form == other.form and self.cut == other.cut)

    def __hash__(self):
        return hash((self.form, self.cut))


def identity_for(form, n_qubits=None, cut=None):
    """Build an identity from a form name and either a cut or a qubit count."""
    if cut is None:
        if n_qubits is None:
            raise ValueError("need either a cut or a qubit count")
        cut = default_cut(n_qubits)
    elif isinstance(cut, str):
        cut = parse_cut(cut)
    return FactorizationIdentity(form, cut)


@dataclass(frozen=True)
class FactorReport:
    qubit: int
    anchor: int
    value: float
    rank: int


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    cut: str
    lhs: float
    rhs: float
    residual: float
    final_rank: int
    applicable: bool
    channels: tuple
    seed: int | None
    initial_concurrence: float
    exponent: int
    aggregation: str
    anchor: str
    factors: tuple
    relabeling: tuple | None = None


def _aggregate(products, aggregation):
    if aggregation == "sum":
        return float(sum(products))
    if aggregation == "rms":
        return float(np.sqrt(sum(p * p for p in products) / len(products)))
    raise ValueError(f"aggregation must be 'sum' or 'rms', got {aggregation!r}")


def evaluate_identity(identity, psi, channels, *, anchor=ANCHOR_LAST,
                      normalization_exponent=None, aggregation="sum",
                      seed=None, leak_tol=LEAK_TOL, rank_tol=RANK_TOL,
                      relabeling=None):
    """Evaluate one identity on a scenario (initial state + one channel per qubit).

    Returns an IdentityReport carrying both sides, the residual
    |lhs * C(psi)^e - rhs|, the final rank, and per-factor detail.
    """
    channels = tuple(channels)
    n = identity.n_qubits
    if psi.n_qubits != n:
        raise DimensionMismatchError(f"identity is on {n} qubits but state has {psi.n_qubits}")
    if len(channels) != n:
        raise DimensionMismatchError(f"need {n} channels, got {len(channels)}")
    rho0 = psi.to_density()
    final = apply(ChannelAssignment.many_sided(channels), rho0)
    return _evaluate(
        identity, rho0, final, cut_concurrence(rho0, identity.cut, leak_tol=leak_tol),
        channels, anchor=anchor, normalization_exponent=normalization_exponent,
        aggregation=aggregation, seed=seed, leak_tol=leak_tol, rank_tol=rank_tol,
        relabeling=relabeling)


def _evaluate(identity, rho0, final, initial_c, channels, *, anchor,
              normalization_exponent, aggregation, seed, leak_tol, rank_tol, relabeling):
    """evaluate_identity on a scenario whose initial density matrix `rho0`,
    many-sided final state `final` and initial cut concurrence `initial_c`
    are already known; a campaign computes them once and reuses them."""
    if anchor not in (ANCHOR_LAST, ANCHOR_OWN):
        raise ValueError(f"anchor must be '{ANCHOR_LAST}' or '{ANCHOR_OWN}', got {anchor!r}")
    n = identity.n_qubits
    cut = identity.cut
    lhs = cut_concurrence(final, cut, leak_tol=leak_tol)

    factors = []
    for q in range(1, n + 1):
        anchor_q = n if anchor == ANCHOR_LAST else q
        # same as single_sided(channels[q-1], anchor_q, psi), reusing rho0
        state_q = apply(ChannelAssignment(n, {anchor_q: channels[q - 1]}), rho0)
        factors.append(FactorReport(
            qubit=q,
            anchor=anchor_q,
            value=cut_concurrence(state_q, cut, leak_tol=leak_tol),
            rank=numerical_rank(state_q, rank_tol),
        ))

    products = [float(np.prod([factors[q - 1].value for q in term]))
                for term in identity.rhs_terms]
    rhs = _aggregate(products, aggregation)
    exponent = identity.normalization_exponent if normalization_exponent is None \
        else int(normalization_exponent)
    residual = abs(lhs * initial_c ** exponent - rhs)
    final_rank = numerical_rank(final, rank_tol)

    return IdentityReport(
        identity=identity.form,
        cut=cut.label,
        lhs=lhs,
        rhs=rhs,
        residual=float(residual),
        final_rank=final_rank,
        applicable=final_rank <= identity.rank_ceiling,
        channels=tuple(ch.params for ch in channels),
        seed=seed,
        initial_concurrence=initial_c,
        exponent=exponent,
        aggregation=aggregation,
        anchor=anchor,
        factors=tuple(factors),
        relabeling=tuple(relabeling) if relabeling is not None else None,
    )


def _suggested_identity(rank, n_qubits):
    """The identity the rank conditions suggest for a final rank (None above 4)."""
    if rank <= 2:
        return identity_for(PRODUCT, n_qubits)
    if rank <= 4 and n_qubits >= 3:
        return identity_for(SUM, n_qubits)
    return None


def classify_scenario(psi, channels, rank_tol=RANK_TOL):
    """Final rank and the identity the rank conditions suggest (None above 4)."""
    channels = tuple(channels)
    if len(channels) != psi.n_qubits:
        raise DimensionMismatchError(f"need {psi.n_qubits} channels, got {len(channels)}")
    final = apply(ChannelAssignment.many_sided(channels), psi.to_density())
    rank = numerical_rank(final, rank_tol)
    return rank, _suggested_identity(rank, psi.n_qubits)


def relabel_scenario(psi, channels, perm):
    """Relabel qubits of a scenario: new qubit k is old qubit perm[k], and
    each channel follows its qubit."""
    perm = tuple(int(q) for q in perm)
    channels = tuple(channels)
    return psi.permuted(perm), tuple(channels[q - 1] for q in perm)


@dataclass(frozen=True)
class CampaignConfig:
    """Seeded randomized verification run: which state, which channel family
    per qubit, how many samples, and how to evaluate the identity."""

    state: str
    channels: tuple
    samples: int
    tol: float = 1e-8
    seed: int = 0
    identity: str = "auto"          # "auto" | "product" | "sum"
    cut: str | None = None          # e.g. "12|34"; None means {1..n-1}|{n}
    normalization_exponent: int | None = None   # None means degree matching
    aggregation: str = "sum"
    anchor: str = ANCHOR_LAST
    rank_tol: float = RANK_TOL
    leak_tol: float = LEAK_TOL
    relabel: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(str(c) for c in self.channels))
        if self.samples < 0:
            raise ValueError(f"sample count must be nonnegative, got {self.samples}")
        if self.identity not in ("auto",) + FORMS:
            raise ValueError(f"identity must be 'auto', 'product', or 'sum', got {self.identity!r}")
        if self.aggregation not in ("sum", "rms"):
            raise ValueError(f"aggregation must be 'sum' or 'rms', got {self.aggregation!r}")
        for fam in self.channels:
            _canonical_family(fam)
        if self.relabel is not None:
            object.__setattr__(self, "relabel", tuple(int(q) for q in self.relabel))

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown campaign config fields: {sorted(extra)}")
        kwargs = dict(obj)
        if kwargs.get("normalization_exponent") == "auto":
            kwargs["normalization_exponent"] = None
        if "channels" in kwargs:
            kwargs["channels"] = tuple(kwargs["channels"])
        return cls(**kwargs)

    def to_json_dict(self):
        exp = self.normalization_exponent
        return {
            "state": self.state,
            "channels": list(self.channels),
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "identity": self.identity,
            "cut": self.cut,
            "normalization_exponent": "auto" if exp is None else exp,
            "aggregation": self.aggregation,
            "anchor": self.anchor,
            "rank_tol": self.rank_tol,
            "leak_tol": self.leak_tol,
            "relabel": list(self.relabel) if self.relabel is not None else None,
        }


@dataclass(frozen=True)
class SampleRow:
    seed: int
    rank: int
    lhs: float | None
    rhs: float | None
    residual: float | None
    passed: bool | None


@dataclass(frozen=True)
class BucketStats:
    samples: int
    evaluated: int
    passed: int
    max_residual: float | None
    failure_seeds: tuple


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    rows: tuple
    buckets: dict = field(compare=False)

    def to_csv(self):
        out = ["# " + json.dumps(self.config.to_json_dict(), sort_keys=True)]
        out.append("seed,rank,lhs,rhs,residual,pass")
        for r in self.rows:
            if r.residual is None:
                out.append(f"{r.seed},{r.rank},,,,")
            else:
                out.append(f"{r.seed},{r.rank},{r.lhs!r},{r.rhs!r},{r.residual!r},{int(r.passed)}")
        summary = {
            str(rank): {
                "samples": b.samples,
                "evaluated": b.evaluated,
                "passed": b.passed,
                "max_residual": b.max_residual,
                "failure_seeds": list(b.failure_seeds),
            }
            for rank, b in sorted(self.buckets.items())
        }
        out.append("# summary " + json.dumps(summary, sort_keys=True))
        return "\n".join(out) + "\n"


MAX_FAILURE_EXAMPLES = 10


def run_campaign(config):
    """Draw channels per sample (sample seed = base seed + index), classify the
    final rank, evaluate the configured or rank-suggested identity, and bucket
    the outcomes by rank. Deterministic for a fixed config.

    The initial state, its density matrix and its concurrence on each cut
    are built once per campaign, and each sample's many-sided final state
    serves both the classification and the evaluation.
    """
    psi = parse_state(config.state)
    n = psi.n_qubits
    if len(config.channels) != n:
        raise DimensionMismatchError(
            f"state {config.state!r} has {n} qubits but "
            f"{len(config.channels)} channel families were given")
    forced = None
    if config.identity != "auto":
        forced = identity_for(config.identity, n, config.cut)
        if forced.n_qubits != n:
            raise DimensionMismatchError(
                f"identity is on {forced.n_qubits} qubits but state has {n}")
    if config.relabel is not None:
        psi = psi.permuted(config.relabel)
    rho0 = psi.to_density()
    initial_c = {}  # cut -> C(psi) on that cut

    rows = []
    for i in range(config.samples):
        seed = config.seed + i
        rng = np.random.default_rng(seed)
        chans = tuple(sample_channel(fam, rng) for fam in config.channels)
        if config.relabel is not None:
            chans = tuple(chans[q - 1] for q in config.relabel)
        final = apply(ChannelAssignment.many_sided(chans), rho0)
        rank = numerical_rank(final, config.rank_tol)
        identity = forced if forced is not None else _suggested_identity(rank, n)
        if identity is None:
            rows.append(SampleRow(seed, rank, None, None, None, None))
            continue
        if identity.cut not in initial_c:
            initial_c[identity.cut] = cut_concurrence(rho0, identity.cut,
                                                      leak_tol=config.leak_tol)
        report = _evaluate(
            identity, rho0, final, initial_c[identity.cut], chans,
            anchor=config.anchor,
            normalization_exponent=config.normalization_exponent,
            aggregation=config.aggregation,
            seed=seed,
            leak_tol=config.leak_tol,
            rank_tol=config.rank_tol,
            relabeling=config.relabel,
        )
        rows.append(SampleRow(seed, rank, report.lhs, report.rhs,
                              report.residual, report.residual <= config.tol))

    buckets = {}
    for rank in sorted({r.rank for r in rows}):
        in_bucket = [r for r in rows if r.rank == rank]
        evaluated = [r for r in in_bucket if r.residual is not None]
        failures = sorted(r.seed for r in evaluated if not r.passed)
        buckets[rank] = BucketStats(
            samples=len(in_bucket),
            evaluated=len(evaluated),
            passed=sum(1 for r in evaluated if r.passed),
            max_residual=max((r.residual for r in evaluated), default=None),
            failure_seeds=tuple(failures[:MAX_FAILURE_EXAMPLES]),
        )
    return CampaignReport(config=config, rows=tuple(rows), buckets=buckets)
