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

Scenarios are evaluated as stacks that share one initial state: one
many-sided `evolve` gives every final state and `hermitian_spectra` its
rank, one single-sided `evolve` per anchor qubit gives the factor states,
and one kernel call gives lhs, every factor and C(psi). A campaign runs its
samples this way, grouped by the identity they evaluate, and
`evaluate_identity` is the one-sample case. Only the initial state is
validated: every evolved state is a convex mix of its Pauli conjugates (see
`conclab.concurrence`). `evaluate_identity` alone also validates the factor
states, to report their ranks; no campaign output reads them.
"""

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .channels import PauliChannel, _canonical_family, draw_params, evolve, pauli_superops
from .concurrence import Bipartition, cut_totals, parse_cut
from .errors import DimensionMismatchError
from .linalg import RANK_TOL, density_spectra, hermitian_spectra, spectral_ranks
from .states import parse_state

PRODUCT = "product"
SUM = "sum"
FORMS = (PRODUCT, SUM)

ANCHOR_LAST = "last"
ANCHOR_OWN = "own"

# Largest campaign: every sample keeps its CSV row (about 0.5 KB) in memory
# until the report is written.
MAX_SAMPLES = 1_000_000


def default_cut(n_qubits):
    """The canonical cut {1..n-1}|{n}."""
    if n_qubits < 2:
        raise ValueError(f"need at least two qubits, got {n_qubits}")
    return Bipartition(tuple(range(1, n_qubits)), (n_qubits,))


@dataclass(frozen=True)
class FactorizationIdentity:
    """A cut together with the product or sum structure of its right-hand side."""

    form: str
    cut: Bipartition

    def __post_init__(self):
        form = str(self.form).lower()
        if form not in FORMS:
            raise ValueError(f"identity form must be one of {FORMS}, got {form!r}")
        if form == SUM and self.cut.n_qubits < 3:
            raise ValueError("sum identities are defined for three or more qubits")
        object.__setattr__(self, "form", form)

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
    initial_concurrence: float
    exponent: int
    aggregation: str
    anchor: str
    factors: tuple


def _aggregate(products, aggregation):
    """Term products, one (S,) array per term, aggregated row by row in term order."""
    if aggregation == "sum":
        return sum(products)
    if aggregation == "rms":
        return np.sqrt(sum(p * p for p in products) / len(products))
    raise ValueError(f"aggregation must be 'sum' or 'rms', got {aggregation!r}")


def _final_states(rho0, superops, rank_tol):
    """Many-sided final states (S, d, d) of the validated initial density
    matrix rho0 (d, d) under S draws of per-qubit superoperators
    (S, n, 4, 4), and their ranks (S,). The finals are trusted, not
    checked: each is a convex mix of Pauli conjugates of rho0."""
    finals = evolve(rho0[None], {q: superops[:, q - 1] for q in range(1, superops.shape[1] + 1)})
    return finals, spectral_ranks(hermitian_spectra(finals), rank_tol)


@dataclass(frozen=True)
class _Evaluation:
    """One identity on a stack of S scenarios: (S,) arrays lhs, rhs and
    residual, (S, n) factor values, the (S, n, d, d) factor states (a view
    of the kernel's stack, unvalidated), each factor's anchor qubit."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    factors: np.ndarray
    factor_states: np.ndarray
    anchors: tuple
    initial_concurrence: float
    exponent: int


def _evaluate(identity, rho0, finals, superops, *, anchor, normalization_exponent,
              aggregation):
    """Evaluate an identity on S scenarios that share the initial density
    matrix rho0 (d, d), given their many-sided final states finals
    (S, d, d) and per-qubit superoperators superops (S, n, 4, 4). The factor
    states go to the kernel unvalidated (see `cut_totals`)."""
    if anchor not in (ANCHOR_LAST, ANCHOR_OWN):
        raise ValueError(f"anchor must be '{ANCHOR_LAST}' or '{ANCHOR_OWN}', got {anchor!r}")
    samples, n = superops.shape[:2]
    d = rho0.shape[-1]
    anchors = tuple(n if anchor == ANCHOR_LAST else q for q in range(1, n + 1))

    # one kernel stack: the final states, the (sample, qubit) factor states, rho0
    mats = np.empty((samples * (n + 1) + 1, d, d), dtype=complex)
    mats[:samples] = finals
    single = mats[samples:-1].reshape(samples, n, d, d)
    mats[-1] = rho0
    for anchor_q in sorted(set(anchors)):
        cols = [q for q in range(n) if anchors[q] == anchor_q]
        # channel of qubit q on the anchor qubit alone, for every sample at once
        states = evolve(rho0[None], {anchor_q: superops[:, cols].reshape(-1, 4, 4)})
        single[:, cols] = states.reshape(samples, len(cols), d, d)
    totals = cut_totals(mats, identity.cut)
    lhs = totals[:samples]
    factors = totals[samples:-1].reshape(samples, n)
    initial_c = float(totals[-1])

    products = [np.prod(factors[:, [q - 1 for q in term]], axis=1)
                for term in identity.rhs_terms]
    rhs = _aggregate(products, aggregation)
    exponent = identity.normalization_exponent if normalization_exponent is None \
        else int(normalization_exponent)
    try:
        scale = initial_c ** exponent
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"initial concurrence {initial_c!r} cannot take the normalization "
                         f"exponent {exponent}") from None
    return _Evaluation(lhs=lhs, rhs=rhs, residual=np.abs(lhs * scale - rhs), factors=factors,
                       factor_states=single, anchors=anchors,
                       initial_concurrence=initial_c, exponent=exponent)


def _superops(channels):
    """(1, n, 4, 4) superoperators of one PauliChannel per qubit, in qubit order."""
    for channel in channels:
        if not isinstance(channel, PauliChannel):
            raise ValueError(f"expected a PauliChannel, got {channel!r}")
    return np.array([[ch.superop for ch in channels]])


def evaluate_identity(identity, psi, channels, *, anchor=ANCHOR_LAST,
                      normalization_exponent=None, aggregation="sum",
                      rank_tol=RANK_TOL):
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
    superops = _superops(channels)
    rho0 = psi.to_density().mat
    finals, final_ranks = _final_states(rho0, superops, rank_tol)
    ev = _evaluate(identity, rho0, finals, superops, anchor=anchor,
                   normalization_exponent=normalization_exponent,
                   aggregation=aggregation)
    final_rank = int(final_ranks[0])
    factor_ranks = spectral_ranks(density_spectra(ev.factor_states[0]), rank_tol)
    return IdentityReport(
        identity=identity.form,
        cut=identity.cut.label,
        lhs=float(ev.lhs[0]),
        rhs=float(ev.rhs[0]),
        residual=float(ev.residual[0]),
        final_rank=final_rank,
        applicable=final_rank <= identity.rank_ceiling,
        channels=channels,
        initial_concurrence=ev.initial_concurrence,
        exponent=ev.exponent,
        aggregation=aggregation,
        anchor=anchor,
        factors=tuple(
            FactorReport(qubit=q, anchor=ev.anchors[q - 1], value=value, rank=rank)
            for q, value, rank in zip(range(1, n + 1), ev.factors[0].tolist(),
                                      factor_ranks.tolist())),
    )


def _suggested_identity(rank, cut):
    """The identity on the cut that the rank conditions suggest for a final
    rank (None above 4)."""
    if rank <= 2:
        return FactorizationIdentity(PRODUCT, cut)
    if rank <= 4 and cut.n_qubits >= 3:
        return FactorizationIdentity(SUM, cut)
    return None


def _require_int(name, value):
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
    relabel: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.state, str):
            raise ValueError(f"state must be a string, got {self.state!r}")
        if not isinstance(self.channels, (list, tuple)) \
                or not all(isinstance(c, str) for c in self.channels):
            raise ValueError(f"channels must be a list of channel family names, "
                             f"got {self.channels!r}")
        object.__setattr__(self, "channels", tuple(self.channels))
        for name in ("samples", "seed"):
            value = getattr(self, name)
            _require_int(name, value)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {self.samples}")
        for name in ("tol", "rank_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.normalization_exponent is not None:
            _require_int("normalization_exponent", self.normalization_exponent)
        if self.cut is not None and not isinstance(self.cut, str):
            raise ValueError(f"cut must be a string such as '12|34', got {self.cut!r}")
        if self.identity not in ("auto",) + FORMS:
            raise ValueError(f"identity must be 'auto', 'product', or 'sum', got {self.identity!r}")
        if self.aggregation not in ("sum", "rms"):
            raise ValueError(f"aggregation must be 'sum' or 'rms', got {self.aggregation!r}")
        if self.anchor not in (ANCHOR_LAST, ANCHOR_OWN):
            raise ValueError(f"anchor must be '{ANCHOR_LAST}' or '{ANCHOR_OWN}', got {self.anchor!r}")
        for fam in self.channels:
            _canonical_family(fam)
        if self.relabel is not None:
            if not isinstance(self.relabel, (list, tuple)):
                raise ValueError(f"relabel must be a list of qubits, got {self.relabel!r}")
            for q in self.relabel:
                _require_int("relabel entry", q)
            object.__setattr__(self, "relabel", tuple(int(q) for q in self.relabel))

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError(f"campaign config must be a JSON object, got {type(obj).__name__}")
        extra = set(obj) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown campaign config fields: {sorted(extra)}")
        missing = {"state", "channels", "samples"} - set(obj)
        if missing:
            raise ValueError(f"campaign config is missing fields: {sorted(missing)}")
        kwargs = dict(obj)
        if kwargs.get("normalization_exponent") == "auto":
            kwargs["normalization_exponent"] = None
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

# Samples stacked into one evaluation. It bounds a campaign's memory (a w4
# stack holds about 5 * _STACK * 36 4x4 blocks); rows do not depend on it.
_STACK = 64


def run_campaign(config):
    """Draw channels per sample (sample seed = base seed + index), classify the
    final rank, evaluate the configured or rank-suggested identity on the
    configured cut, and bucket the outcomes by rank. Deterministic for a fixed config.

    Up to _STACK samples run as one stack (see module docstring); the
    initial state and its density matrix are built once per campaign.
    """
    psi = parse_state(config.state)
    n = psi.n_qubits
    if len(config.channels) != n:
        raise DimensionMismatchError(
            f"state {config.state!r} has {n} qubits but "
            f"{len(config.channels)} channel families were given")
    if n < 2:
        raise ValueError(f"a campaign needs at least two qubits, state {config.state!r} has {n}")
    cut = default_cut(n) if config.cut is None else parse_cut(config.cut)
    forced = None if config.identity == "auto" else FactorizationIdentity(config.identity, cut)
    if cut.n_qubits != n:
        raise DimensionMismatchError(f"cut {cut.label} is on {cut.n_qubits} qubits but state has {n}")
    if config.relabel is not None:
        psi = psi.permuted(config.relabel)
    rho0 = psi.to_density().mat
    families = [_canonical_family(fam) for fam in config.channels]
    # new qubit k takes the channel drawn for old qubit relabel[k]
    order = [q - 1 for q in config.relabel] if config.relabel is not None else slice(None)

    rows = []
    for start in range(0, config.samples, _STACK):
        seeds = range(config.seed + start, config.seed + min(config.samples, start + _STACK))
        params = draw_params(families, [np.random.default_rng(seed) for seed in seeds])
        superops = pauli_superops(params[:, order])
        finals, ranks = _final_states(rho0, superops, config.rank_tol)
        ranks = ranks.tolist()
        by_rank = {r: forced if forced is not None else _suggested_identity(r, cut)
                   for r in set(ranks)}
        identities = [by_rank[r] for r in ranks]
        results = [(None, None, None)] * len(ranks)
        for identity in dict.fromkeys(identities):
            if identity is None:
                continue
            idx = [i for i, ident in enumerate(identities) if ident == identity]
            ev = _evaluate(identity, rho0, finals[idx], superops[idx],
                           anchor=config.anchor,
                           normalization_exponent=config.normalization_exponent,
                           aggregation=config.aggregation)
            for i, result in zip(idx, zip(ev.lhs.tolist(), ev.rhs.tolist(),
                                          ev.residual.tolist())):
                results[i] = result
        rows.extend(
            SampleRow(seed, rank, lhs, rhs, residual,
                      None if residual is None else residual <= config.tol)
            for seed, rank, (lhs, rhs, residual) in zip(seeds, ranks, results))

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
