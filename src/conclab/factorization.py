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

A factor whose anchor qubit stands alone on its side of the cut needs no
evolution. For a pure psi, a channel $ on that qubit and the cut's
generalized concurrence C, the one-sided law (Konrad et al., Nature Phys.
4, 99, 2008; Tiersch, de Melo and Buchleitner, PRL 101, 170502, 2008)

    C((1 (x) $) psi) = c($) * C(psi),   c($) = max(0, 2 max_k a_k^2 - 1),

holds for this kernel (`conclab.concurrence`), in four steps:

1. The anchor qubit is one whole side, so the pair (E_ab, E_cd) selects
   the basis states {a, b} x {c, d} with the anchor's {c, d} = {0, 1}: the
   block projector P_ab (x) 1 acts only on the other side, and it commutes
   with 1 (x) $.
2. So the block rho_II of the evolved state is the one-sided image of the
   sub-normalized two-qubit pure state P_ab psi, and C_mn is the Wootters
   concurrence of that image, read without normalizing it.
3. Wootters concurrence is homogeneous of degree 1 in the state, so
   Konrad's law for two qubits gives C_mn(final) = c($) * C_mn(psi) for
   every pair, with c($) the concurrence of (1 (x) $) phi+, the
   Bell-diagonal state with weights a_k^2.
4. The total adds the pair terms in quadrature, sqrt(sum of C_mn^2), so
   it scales by c($) too: total = c($) * C(psi).

Step 1 needs the anchor qubit alone on its side. On 12|34 the anchor
shares its side with another qubit, the projector there keeps two of that
side's four basis states and does not commute with a channel on the anchor
alone, and the law fails: C((1 (x) $) psi) exceeds c($) * C(psi) by up to
about 0.7 on random pure states.

Scenarios are evaluated as stacks that share one initial state and one
cut, fed only their (S, n, 4) channel parameters and the qubits whose
family moves entries: one many-sided `evolve` in the scenario's
`SupportPlan` gives every final state, the plan's support blocks give its
rank (`spectral_ranks` of `linalg.block_spectra`, at RANK_TOL), and one
kernel call gives lhs and C(psi) for every row, whichever identity the row
takes. Each factor whose anchor stands alone is C(psi) * c($) from the
parameters; each other factor (the cut 12|34, or `anchor="own"` on a
shared block) is read from one single-sided `evolve` per anchor qubit,
whose states join the same kernel call. rhs and residual then follow per identity on its rows. A
campaign makes one such evaluation per stack that holds an evaluated row,
and `evaluate_identity` is the one-row case. It also reports every
factor's rank, read the same way from the blocks of the plan that evolved
the factor state: the states the kernel measured are reused, and only the
closed-form factors' states are evolved for it, one `evolve` per anchor.
Campaigns read no factor rank. Only the initial state is validated; see
the trust contract in `conclab.concurrence`.
"""

import json
import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from .channels import PauliChannel, _canonical_family, draw_params, moving_qubits, support_plan
from .concurrence import Bipartition, cut_totals, parse_cut
from .errors import DimensionMismatchError
from .linalg import RANK_TOL, block_spectra, spectral_ranks
from .states import parse_state

PRODUCT = "product"
SUM = "sum"
FORMS = (PRODUCT, SUM)
# term products added, or their quadrature mean (see module docstring)
AGGREGATIONS = ("sum", "rms")
ANCHOR_LAST = "last"
ANCHOR_OWN = "own"
ANCHORS = (ANCHOR_LAST, ANCHOR_OWN)

# Largest campaign: every sample keeps its CSV row (about 0.5 KB) in memory
# until the report is written.
MAX_SAMPLES = 1_000_000


def _require_choice(name, value, choices):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _require_int(name, value):
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _require_choice("identity form", form, FORMS)
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


def _final_states(rho0, params, moving):
    """Many-sided final states (S, d, d) of the validated initial density
    matrix rho0 (d, d) under S draws of per-qubit Pauli parameters
    (S, n, 4), and their ranks (S,), read from the blocks of the plan that
    evolves them at RANK_TOL (read at each call); `moving` holds the qubits
    whose family moves entries. See the trust contract in
    `conclab.concurrence`."""
    plan = support_plan(rho0 != 0, moving)
    finals = plan.evolve(rho0[None], {q: params[:, q - 1] for q in range(1, params.shape[1] + 1)})
    return finals, spectral_ranks(block_spectra(finals, plan.blocks), RANK_TOL)


def _anchor_plan(rho0, anchor_q, moving):
    """The `SupportPlan` of rho0's factor states sent through qubit anchor_q
    alone, which moves entries when it is in `moving`."""
    return support_plan(rho0 != 0, moving & {anchor_q})


def _factor_states(rho0, params, anchors, moving):
    """Single-sided factor states (S, k, d, d) of the validated initial
    density matrix rho0 (d, d) under Pauli parameters params (S, k, 4):
    column j sends the channels params[:, j] through qubit anchors[j]
    alone, one `evolve` per anchor qubit in its `_anchor_plan`. `moving`
    holds the anchors that some column sends a moving family through.
    Unvalidated; see the trust contract in `conclab.concurrence`."""
    samples, k = params.shape[:2]
    d = rho0.shape[-1]
    states = np.empty((samples, k, d, d), dtype=complex)
    for anchor_q in sorted(set(anchors)):
        cols = [j for j in range(k) if anchors[j] == anchor_q]
        evolved = _anchor_plan(rho0, anchor_q, moving).evolve(
            rho0[None], {anchor_q: params[:, cols].reshape(-1, 4)})
        states[:, cols] = evolved.reshape(samples, len(cols), d, d)
    return states


def _moving_anchors(anchors, moving):
    """The anchor qubits through which factor states send a moving family:
    qubit q's channel goes through anchors[q - 1]."""
    return frozenset(anchors[q - 1] for q in moving)


@dataclass(frozen=True)
class _Evaluation:
    """Identities on a stack of S scenarios: (S,) arrays lhs, rhs, residual
    and exponent, (S, n) factor values, each factor's anchor qubit, and the
    states (S, m, d, d) of the m factors the kernel measured, whose 0-based
    indices are `measured`."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    exponents: np.ndarray
    factors: np.ndarray
    anchors: tuple
    initial_concurrence: float
    measured: list
    factor_states: np.ndarray


def _evaluate(identities, rho0, finals, params, moving, *, anchor, normalization_exponent,
              aggregation):
    """Evaluate identities[i] on scenario i of S scenarios that share the
    pure initial density matrix rho0 (d, d), given their many-sided final
    states finals (S, d, d), Pauli parameters params (S, n, 4) and the
    qubits `moving` whose family moves entries. Every
    identity is on the same cut, so one kernel call reads lhs, C(psi) and
    the factors it measures from their factor states; a factor whose anchor
    qubit stands alone on its side of the cut is C(psi) * max(0,
    2 max_k a_k^2 - 1) (see the module docstring). rhs and residual follow
    per identity, on its rows. `anchor` and `aggregation` must be valid
    choices. See the trust contract in `conclab.concurrence`."""
    samples, n = params.shape[:2]
    d = rho0.shape[-1]
    anchors = tuple(n if anchor == ANCHOR_LAST else q for q in range(1, n + 1))
    cut = identities[0].cut
    # an anchor alone on its side of the cut obeys the one-sided law
    lone = {block[0] for block in (cut.block1, cut.block2) if len(block) == 1}
    closed = [q for q in range(n) if anchors[q] in lone]
    measured = [q for q in range(n) if anchors[q] not in lone]

    # one kernel stack: the final states, the measured factor states, rho0
    states = _factor_states(rho0, params[:, measured], [anchors[q] for q in measured],
                            _moving_anchors(anchors, moving))
    totals = cut_totals(np.concatenate((finals, states.reshape(-1, d, d), rho0[None])), cut)
    lhs = totals[:samples]
    initial_c = float(totals[-1])
    factors = np.empty((samples, n))
    factors[:, measured] = totals[samples:-1].reshape(samples, len(measured))
    weights = np.square(params[:, closed])
    factors[:, closed] = initial_c * np.maximum(0.0, 2.0 * weights.max(axis=-1) - 1.0)

    rows_of = {}
    for i, identity in enumerate(identities):
        rows_of.setdefault(identity, []).append(i)
    rhs, residual = np.empty(samples), np.empty(samples)
    exponents = np.empty(samples, dtype=int)
    for identity, rows in rows_of.items():
        # term products, added or as their quadrature mean, in term order
        products = [np.prod(factors[rows][:, [q - 1 for q in term]], axis=1)
                    for term in identity.rhs_terms]
        rhs[rows] = np.sqrt(sum(p * p for p in products) / len(products)) \
            if aggregation == "rms" else sum(products)
        exponent = identity.normalization_exponent if normalization_exponent is None \
            else int(normalization_exponent)
        try:
            scale = initial_c ** exponent
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"initial concurrence {initial_c!r} cannot take the normalization "
                             f"exponent {exponent}") from None
        residual[rows] = np.abs(lhs[rows] * scale - rhs[rows])
        exponents[rows] = exponent
    return _Evaluation(lhs=lhs, rhs=rhs, residual=residual, exponents=exponents,
                       factors=factors, anchors=anchors, initial_concurrence=initial_c,
                       measured=measured, factor_states=states)


def evaluate_identity(identity, psi, channels, *, anchor=ANCHOR_LAST,
                      normalization_exponent=None, aggregation="sum"):
    """Evaluate one identity on a scenario (initial state + one channel per qubit).

    Returns an IdentityReport carrying both sides, the residual
    |lhs * C(psi)^e - rhs|, the final rank, and per-factor detail.
    """
    _require_choice("anchor", anchor, ANCHORS)
    _require_choice("aggregation", aggregation, AGGREGATIONS)
    channels = tuple(channels)
    n = identity.n_qubits
    if psi.n_qubits != n:
        raise DimensionMismatchError(f"identity is on {n} qubits but state has {psi.n_qubits}")
    if len(channels) != n:
        raise DimensionMismatchError(f"need {n} channels, got {len(channels)}")
    for channel in channels:
        if not isinstance(channel, PauliChannel):
            raise ValueError(f"expected a PauliChannel, got {channel!r}")
    params = np.array([[ch.a for ch in channels]])
    moving = moving_qubits((q, ch.family) for q, ch in enumerate(channels, start=1))
    rho0 = psi.to_density().mat
    finals, final_ranks = _final_states(rho0, params, moving)
    ev = _evaluate((identity,), rho0, finals, params, moving, anchor=anchor,
                   normalization_exponent=normalization_exponent,
                   aggregation=aggregation)
    final_rank = int(final_ranks[0])
    # each factor's rank from the blocks of the plan that evolves its state:
    # the states the kernel measured, and the others, evolved only for this
    factor_moving = _moving_anchors(ev.anchors, moving)
    closed = [q for q in range(n) if q not in ev.measured]
    states = np.empty((n, *rho0.shape), dtype=complex)
    states[ev.measured] = ev.factor_states[0]
    states[closed] = _factor_states(rho0, params[:, closed], [ev.anchors[q] for q in closed],
                                    factor_moving)[0]
    factor_ranks = []
    for state, anchor_q in zip(states, ev.anchors):
        blocks = _anchor_plan(rho0, anchor_q, factor_moving).blocks
        factor_ranks.append(int(spectral_ranks(block_spectra(state[None], blocks), RANK_TOL)[0]))
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
        exponent=int(ev.exponents[0]),
        aggregation=aggregation,
        anchor=anchor,
        factors=tuple(
            FactorReport(qubit=q, anchor=ev.anchors[q - 1], value=value, rank=rank)
            for q, value, rank in zip(range(1, n + 1), ev.factors[0].tolist(), factor_ranks)),
    )


def _suggested_identity(rank, cut):
    """The identity on the cut that the rank conditions suggest for a final
    rank (None above 4)."""
    if rank <= 2:
        return FactorizationIdentity(PRODUCT, cut)
    if rank <= 4 and cut.n_qubits >= 3:
        return FactorizationIdentity(SUM, cut)
    return None


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
        if isinstance(self.tol, bool) or not isinstance(self.tol, Real):
            raise ValueError(f"tol must be a number, got {self.tol!r}")
        if not 0 <= self.tol < math.inf:  # NaN fails too
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol!r}")
        if self.normalization_exponent is not None:
            _require_int("normalization_exponent", self.normalization_exponent)
        if self.cut is not None and not isinstance(self.cut, str):
            raise ValueError(f"cut must be a string such as '12|34', got {self.cut!r}")
        _require_choice("identity", self.identity, ("auto",) + FORMS)
        _require_choice("aggregation", self.aggregation, AGGREGATIONS)
        _require_choice("anchor", self.anchor, ANCHORS)
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
        """Every field, tuples as lists and a None exponent as "auto"."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in out.items():
            if isinstance(value, tuple):
                out[name] = list(value)
        if self.normalization_exponent is None:
            out["normalization_exponent"] = "auto"
        return out


@dataclass(frozen=True)
class SampleRow:
    index: int
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
    failure_indices: tuple


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    rows: tuple
    buckets: dict = field(compare=False)

    def to_csv(self):
        # the "seed" column and "failure_seeds" hold sample indices
        out = ["# " + json.dumps(self.config.to_json_dict(), sort_keys=True)]
        out.append("seed,rank,lhs,rhs,residual,pass")
        for r in self.rows:
            if r.residual is None:
                out.append(f"{r.index},{r.rank},,,,")
            else:
                out.append(f"{r.index},{r.rank},{r.lhs!r},{r.rhs!r},{r.residual!r},{int(r.passed)}")
        summary = {
            str(rank): {
                "samples": b.samples,
                "evaluated": b.evaluated,
                "passed": b.passed,
                "max_residual": b.max_residual,
                "failure_seeds": list(b.failure_indices),
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
    """Draw channels per sample, classify the final rank, evaluate the
    configured or rank-suggested identity on the configured cut, and bucket
    the outcomes by rank. Deterministic for a fixed config.

    Every sample is drawn from one generator, `default_rng(config.seed)`,
    which `draw_params` reads stack by stack: row i holds the i-th group of
    draws, one channel per qubit in order, and its CSV `seed` field is i.
    So rows do not depend on _STACK, the first N rows of a longer campaign
    are the N-sample campaign, and row i is the last row of the same config
    run with samples = i + 1. Different seeds give independent streams.

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
    order = [q - 1 for q in config.relabel] if config.relabel is not None else list(range(n))
    moving = moving_qubits((k, families[old]) for k, old in enumerate(order, start=1))

    rng = np.random.default_rng(config.seed)
    rows = []
    for start in range(0, config.samples, _STACK):
        indices = range(start, min(config.samples, start + _STACK))
        params = draw_params(families, rng, len(indices))[:, order]
        finals, ranks = _final_states(rho0, params, moving)
        ranks = ranks.tolist()
        by_rank = {r: forced if forced is not None else _suggested_identity(r, cut)
                   for r in set(ranks)}
        identities = [by_rank[r] for r in ranks]
        evaluated = [k for k, identity in enumerate(identities) if identity is not None]
        results = {}
        if evaluated:
            ev = _evaluate([identities[k] for k in evaluated], rho0, finals[evaluated],
                           params[evaluated], moving, anchor=config.anchor,
                           normalization_exponent=config.normalization_exponent,
                           aggregation=config.aggregation)
            results = dict(zip(evaluated, zip(ev.lhs.tolist(), ev.rhs.tolist(),
                                              ev.residual.tolist())))
        for k, (i, rank) in enumerate(zip(indices, ranks)):
            lhs, rhs, residual = results.get(k, (None, None, None))
            rows.append(SampleRow(i, rank, lhs, rhs, residual,
                                  None if residual is None else residual <= config.tol))

    buckets = {}
    for rank in sorted({r.rank for r in rows}):
        in_bucket = [r for r in rows if r.rank == rank]
        evaluated = [r for r in in_bucket if r.residual is not None]
        failures = sorted(r.index for r in evaluated if not r.passed)
        buckets[rank] = BucketStats(
            samples=len(in_bucket),
            evaluated=len(evaluated),
            passed=sum(1 for r in evaluated if r.passed),
            max_residual=max((r.residual for r in evaluated), default=None),
            failure_indices=tuple(failures[:MAX_FAILURE_EXAMPLES]),
        )
    return CampaignReport(config=config, rows=tuple(rows), buckets=buckets)
