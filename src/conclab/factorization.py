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

A scenario is compiled once (`_Scenario`, whose docstring lists what it
holds): every step that no draw changes, from validating the initial
state to pruning the kernel's generator pairs on each layout it reads
(`concurrence.cut_pairs`). Campaigns keep them, a few KB each, in
`_scenario`, an `lru_cache` keyed by the `CampaignConfig` fields that no
draw changes; seed, samples, tol, aggregation and the exponent are read
per request.

Scenarios are then evaluated as stacks fed only their (S, n, 4) channel
parameters: one many-sided `SupportPlan.evolve` in the scenario's plan
gives every final state as a row of its layout, the same plan's
`SupportPlan.spectra` gives its rank (`spectral_ranks` at RANK_TOL), and
one kernel call on the final rows (`live_totals`) gives lhs for every row,
whichever identity the row takes. Each factor whose anchor stands alone is
C(psi) * c($) from the parameters; each other factor (the cut 12|34, or
`anchor="own"` on a shared block) is read from one single-sided
`SupportPlan.evolve` per anchor qubit and one more kernel call. Every
factor row lies in one plan, `factor_plan`: rho0's pattern closed under
the moves of every anchor that carries a moving channel, which holds each
single-sided state (under "own", the final plan itself). rhs and residual
then follow per identity on its rows, with C(psi)^e read once per request
(`_Scenario.scales`), so a bad exponent fails before any stack. A campaign
makes one such evaluation per stack that holds an evaluated row, and
`evaluate_identity` is the one-row case, compiled without the cache. It
also reports every factor's rank, read by one `factor_plan.spectra` call;
campaigns read none. Only the initial state is validated; see the trust
contract in `conclab.concurrence`.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .channels import (
    PauliChannel,
    SupportPlan,
    _canonical_family,
    draw_params,
    moving_qubits,
    support_plan,
)
from .concurrence import Bipartition, cut_pairs, cut_totals, live_totals, parse_cut
from .errors import DimensionMismatchError, loads_json
from .linalg import RANK_TOL, spectral_ranks
from .states import parse_state

PRODUCT = "product"
SUM = "sum"
FORMS = (PRODUCT, SUM)
# term products added, or their quadrature mean (see module docstring)
AGGREGATIONS = ("sum", "rms")
ANCHOR_LAST = "last"
ANCHOR_OWN = "own"
ANCHORS = (ANCHOR_LAST, ANCHOR_OWN)

# Largest campaign: the report keeps five columns per sample (rank, evaluated
# mask, lhs, rhs and residual, about 33 B) in memory, and `to_csv` adds the
# CSV text it builds; evolved states live one stack at a time (`_STACK`).
MAX_SAMPLES = 1_000_000


def _require_choice(name, value, choices):
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _require_int(name, value):
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_exponent(value):
    """A normalization exponent override: an integer in the int64 range."""
    _require_int("normalization_exponent", value)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"normalization_exponent must lie in [-2**63, 2**63 - 1], got {value}")


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


def _suggested_identity(rank, cut):
    """The identity on the cut that the rank conditions suggest for a final
    rank (None above 4)."""
    if rank <= 2:
        return FactorizationIdentity(PRODUCT, cut)
    if rank <= 4 and cut.n_qubits >= 3:
        return FactorizationIdentity(SUM, cut)
    return None


@dataclass(frozen=True)
class _Evaluation:
    """Identities on a stack of S scenarios: (S,) arrays lhs, rhs and
    residual, (S, n) factor values, and the factor rows (S, m, F + 1) of
    the m factors the kernel measured (the scenario's `measured` columns)."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    factors: np.ndarray
    factor_states: np.ndarray


@dataclass(frozen=True, eq=False)
class _Scenario:
    """A scenario compiled once: every step of its evaluation that no draw
    changes (see module docstring). Fields:

    - `rho0`, the validated initial density matrix (d, d);
    - `families`, the canonical channel families in draw order, and
      `order`, the draw column each qubit takes (a relabel moves them);
    - `plan`, the `SupportPlan` of the final states (its `moving` holds the
      qubits whose family moves entries), and `factor_plan`, the plan of
      every factor state: rho0's pattern closed under the moves of each
      anchor that carries a moving channel (under "own" the final plan
      itself);
    - `identities`, the identities some rank takes, and `identity_of_rank`
      (d + 1,), the index into them of each final rank's identity, -1 for
      none;
    - `anchors`, each factor's anchor qubit, and `closed` and `measured`,
      the 0-based factor columns read from the one-sided law and by the
      kernel;
    - `initial_concurrence`, C(psi) on the cut;
    - `terms`, per identity, the (T, k) 0-based factor columns of its terms;
    - `live` and `factor_live`, the cut's generator pairs pruned on the
      layouts of `plan` and of factor rows (`cut_pairs`).
    """

    rho0: np.ndarray
    families: tuple
    order: tuple
    plan: SupportPlan
    factor_plan: SupportPlan
    identities: tuple
    identity_of_rank: np.ndarray
    anchors: tuple
    closed: list
    measured: list
    initial_concurrence: float
    terms: tuple
    live: tuple
    factor_live: tuple

    @classmethod
    def compile(cls, psi, families, cut, forced, anchor, order=None):
        """The scenario of the pure initial state psi on n qubits, whose
        density matrix is validated here, under channels of the canonical
        `families` (draw order) with qubit k taking draw column order[k]
        (default k), evaluated on the cut: the identity `forced`, or None
        for the one each final rank suggests, with factors sent through the
        `anchor` convention (a valid choice)."""
        n = psi.n_qubits
        order = tuple(range(n)) if order is None else tuple(order)
        rho0 = psi.to_density().mat
        pattern = rho0 != 0
        moving = moving_qubits((k, families[old]) for k, old in enumerate(order, start=1))
        anchors = tuple(n if anchor == ANCHOR_LAST else q for q in range(1, n + 1))
        # qubit q's channel goes through anchors[q - 1]
        factor_plan = support_plan(pattern, {anchors[q - 1] for q in moving})
        # an anchor alone on its side of the cut obeys the one-sided law
        lone = {block[0] for block in (cut.block1, cut.block2) if len(block) == 1}
        closed = [q for q in range(n) if anchors[q] in lone]
        measured = [q for q in range(n) if anchors[q] not in lone]
        by_rank = [forced if forced is not None else _suggested_identity(rank, cut)
                   for rank in range(len(rho0) + 1)]
        identities = tuple(dict.fromkeys(i for i in by_rank if i is not None))
        identity_of_rank = np.array([-1 if i is None else identities.index(i) for i in by_rank])
        identity_of_rank.setflags(write=False)
        plan = support_plan(pattern, moving)
        return cls(rho0=rho0, families=tuple(families), order=order, plan=plan,
                   factor_plan=factor_plan, identities=identities,
                   identity_of_rank=identity_of_rank, anchors=anchors, closed=closed,
                   measured=measured,
                   initial_concurrence=float(cut_totals(rho0[None], cut)[0]),
                   terms=tuple(np.array(identity.rhs_terms) - 1 for identity in identities),
                   live=cut_pairs(cut, plan.entries),
                   factor_live=cut_pairs(cut, factor_plan.entries))

    def final_states(self, params):
        """Many-sided final rows (S, E + 1) of the plan under S draws of
        per-qubit Pauli parameters (S, n, 4), and their ranks (S,), read by
        the plan's `spectra` at RANK_TOL (read at each call). See the trust
        contract in `conclab.concurrence`."""
        finals = self.plan.evolve(self.rho0[None],
                                  {q: params[:, q - 1] for q in range(1, params.shape[1] + 1)})
        return finals, spectral_ranks(self.plan.spectra(finals), RANK_TOL)

    def factor_states(self, params, columns):
        """Single-sided factor rows (S, k, F + 1), in the layout of the F
        entries of `factor_plan`, of the k factor columns `columns` (0-based
        qubits) under Pauli parameters params (S, n, 4):
        column j sends the channels params[:, columns[j]] through its
        anchor qubit alone, one `factor_plan.evolve` per anchor qubit.
        Unvalidated; see the trust contract in `conclab.concurrence`."""
        samples = len(params)
        states = np.empty((samples, len(columns), len(self.factor_plan.entries) + 1),
                          dtype=complex)
        for anchor_q in sorted({self.anchors[q] for q in columns}):
            cols = [j for j, q in enumerate(columns) if self.anchors[q] == anchor_q]
            drawn = params[:, [columns[j] for j in cols]].reshape(-1, 4)
            states[:, cols] = self.factor_plan.evolve(self.rho0[None], {anchor_q: drawn}) \
                .reshape(samples, len(cols), -1)
        return states

    def scales(self, normalization_exponent):
        """C(psi)^e per identity in `identities`: e is the override
        `normalization_exponent`, or each identity's degree-matching one for
        None. Raises ValueError where the power overflows or divides by
        zero, whatever rows a campaign draws."""
        initial_c = self.initial_concurrence
        scales = []
        for identity in self.identities:
            exponent = identity.normalization_exponent if normalization_exponent is None \
                else int(normalization_exponent)
            try:
                scales.append(initial_c ** exponent)
            except (OverflowError, ZeroDivisionError):
                raise ValueError(f"initial concurrence {initial_c!r} cannot take the "
                                 f"normalization exponent {exponent}") from None
        return scales

    def evaluate(self, which, finals, params, *, scales, aggregation):
        """Evaluate identities[which[i]] on row i of S rows, given their
        final rows finals (S, E + 1) and Pauli parameters params (S, n, 4).
        One kernel call on the final states reads lhs, and one on the
        measured factor states reads those factors; a factor whose anchor
        stands alone on its side of the cut is C(psi) * max(0,
        2 max_k a_k^2 - 1) (see the module docstring). rhs and residual
        follow per identity, on its rows: one gather gives every term's
        factors, and a cumsum adds the term products left to right. `scales`
        holds C(psi)^e per identity, as `scales` gives it; `aggregation`
        must be a valid choice. See the trust contract in `conclab.concurrence`."""
        samples, n = params.shape[:2]
        initial_c = self.initial_concurrence
        lhs = live_totals(finals, self.live)
        factors = np.empty((samples, n))
        states = self.factor_states(params, self.measured)
        if self.measured:
            factors[:, self.measured] = live_totals(
                states.reshape(samples * len(self.measured), -1), self.factor_live) \
                .reshape(samples, len(self.measured))
        weights = np.square(params[:, self.closed])
        factors[:, self.closed] = initial_c * np.maximum(0.0, 2.0 * weights.max(axis=-1) - 1.0)

        rhs, residual = np.empty(samples), np.empty(samples)
        for k, (terms, scale) in enumerate(zip(self.terms, scales)):
            rows = np.flatnonzero(which == k)
            if not len(rows):
                continue
            # term products (R, T), added or as their quadrature mean
            products = np.prod(factors[rows[:, None, None], terms], axis=-1)
            rhs[rows] = np.sqrt(np.cumsum(products * products, axis=-1)[:, -1] / len(terms)) \
                if aggregation == "rms" else np.cumsum(products, axis=-1)[:, -1]
            residual[rows] = np.abs(lhs[rows] * scale - rhs[rows])
        return _Evaluation(lhs=lhs, rhs=rhs, residual=residual, factors=factors,
                           factor_states=states)


def evaluate_identity(identity, psi, channels, *, anchor=ANCHOR_LAST,
                      normalization_exponent=None, aggregation="sum"):
    """Evaluate one identity on a scenario (initial state + one channel per qubit).

    Returns an IdentityReport carrying both sides, the residual
    |lhs * C(psi)^e - rhs|, the final rank, and per-factor detail.
    """
    _require_choice("anchor", anchor, ANCHORS)
    _require_choice("aggregation", aggregation, AGGREGATIONS)
    if normalization_exponent is not None:
        _require_exponent(normalization_exponent)
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
    scenario = _Scenario.compile(psi, [ch.family for ch in channels], identity.cut, identity,
                                 anchor)
    scales = scenario.scales(normalization_exponent)
    finals, final_ranks = scenario.final_states(params)
    ev = scenario.evaluate(np.zeros(1, dtype=np.intp), finals, params, scales=scales,
                           aggregation=aggregation)
    final_rank = int(final_ranks[0])
    # every factor's rank from one `factor_plan.spectra` call: on the states
    # the kernel measured, and the others, evolved only for this
    states = np.empty((n, len(scenario.factor_plan.entries) + 1), dtype=complex)
    states[scenario.measured] = ev.factor_states[0]
    states[scenario.closed] = scenario.factor_states(params, scenario.closed)[0]
    factor_ranks = spectral_ranks(scenario.factor_plan.spectra(states), RANK_TOL).tolist()
    return IdentityReport(
        identity=identity.form,
        cut=identity.cut.label,
        lhs=float(ev.lhs[0]),
        rhs=float(ev.rhs[0]),
        residual=float(ev.residual[0]),
        final_rank=final_rank,
        applicable=final_rank <= identity.rank_ceiling,
        channels=channels,
        initial_concurrence=scenario.initial_concurrence,
        exponent=int(identity.normalization_exponent if normalization_exponent is None
                     else normalization_exponent),
        aggregation=aggregation,
        anchor=anchor,
        factors=tuple(
            FactorReport(qubit=q, anchor=scenario.anchors[q - 1], value=value, rank=rank)
            for q, value, rank in zip(range(1, n + 1), ev.factors[0].tolist(), factor_ranks)),
    )


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
            _require_exponent(self.normalization_exponent)
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
            obj = loads_json(obj, "campaign config")
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


MAX_FAILURE_EXAMPLES = 10


@dataclass(frozen=True, eq=False)
class CampaignReport:
    """A campaign's per-sample columns, entry i for sample index i: `ranks`
    (int64) the final ranks, `evaluated` (bool) whether an identity was
    evaluated, and `lhs`, `rhs` and `residual` (float64), NaN where it was
    not."""

    config: CampaignConfig
    ranks: np.ndarray
    evaluated: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray

    @property
    def passed(self):
        """Evaluated samples whose residual is at most config.tol."""
        return self.evaluated & (self.residual <= self.config.tol)

    def summary(self):
        """The rank buckets of the CSV's `# summary` line, in ascending rank:
        {str(rank): {"samples", "evaluated", "passed", "max_residual" (None
        when nothing is evaluated), "failure_seeds" (the first
        MAX_FAILURE_EXAMPLES failing sample indices, ascending)}}."""
        passed = self.passed
        buckets = {}
        for rank in np.unique(self.ranks).tolist():
            in_bucket = self.ranks == rank
            done = in_bucket & self.evaluated
            buckets[str(rank)] = {
                "samples": int(np.count_nonzero(in_bucket)),
                "evaluated": int(np.count_nonzero(done)),
                "passed": int(np.count_nonzero(done & passed)),
                "max_residual": float(self.residual[done].max()) if done.any() else None,
                "failure_seeds": np.flatnonzero(done & ~passed)[:MAX_FAILURE_EXAMPLES].tolist(),
            }
        return buckets

    def to_csv(self):
        # the "seed" column and "failure_seeds" hold sample indices
        out = ["# " + json.dumps(self.config.to_json_dict(), sort_keys=True)]
        out.append("seed,rank,lhs,rhs,residual,pass")
        columns = (self.ranks, self.evaluated, self.lhs, self.rhs, self.residual, self.passed)
        for i, (rank, done, lhs, rhs, residual, passed) in enumerate(
                zip(*(column.tolist() for column in columns))):
            out.append(f"{i},{rank},{lhs!r},{rhs!r},{residual!r},{int(passed)}" if done
                       else f"{i},{rank},,,,")
        out.append("# summary " + json.dumps(self.summary(), sort_keys=True))
        return "\n".join(out) + "\n"


# Samples stacked into one evaluation. It bounds a campaign's memory: a stack
# holds _STACK final rows and up to n * _STACK factor rows of at most d * d + 1
# entries each (17 for w4), and the kernel's 4x4 blocks of their live pairs;
# rows do not depend on it.
_STACK = 64


@lru_cache(maxsize=256)
def _scenario(state, channels, cut, relabel, identity, anchor):
    """The compiled `_Scenario` of a campaign, keyed by the `CampaignConfig`
    fields that no draw changes: its state and channel families, cut,
    relabel, identity and anchor, as the config holds them (valid
    choices). At most 256 are kept, least recently used first out; a
    malformed scenario raises on every call, since exceptions are not
    cached."""
    psi = parse_state(state)
    n = psi.n_qubits
    if len(channels) != n:
        raise DimensionMismatchError(
            f"state {state!r} has {n} qubits but {len(channels)} channel families were given")
    if n < 2:
        raise ValueError(f"a campaign needs at least two qubits, state {state!r} has {n}")
    cut = default_cut(n) if cut is None else parse_cut(cut)
    forced = None if identity == "auto" else FactorizationIdentity(identity, cut)
    if cut.n_qubits != n:
        raise DimensionMismatchError(f"cut {cut.label} is on {cut.n_qubits} qubits but state has {n}")
    if relabel is not None:
        psi = psi.permuted(relabel)
    # new qubit k takes the channel drawn for old qubit relabel[k]
    order = None if relabel is None else [q - 1 for q in relabel]
    return _Scenario.compile(psi, [_canonical_family(fam) for fam in channels], cut, forced,
                             anchor, order)


def run_campaign(config):
    """Draw channels per sample, classify the final rank, and evaluate the
    configured or rank-suggested identity on the configured cut.
    Deterministic for a fixed config. Returns a `CampaignReport` of
    per-sample columns: `ranks`, the `evaluated` mask, and `lhs`, `rhs` and
    `residual` (NaN where nothing was evaluated); its `summary` buckets them
    by rank.

    Every sample is drawn from one generator, `default_rng(config.seed)`,
    which `draw_params` reads stack by stack: row i holds the i-th group of
    draws, one channel per qubit in order, and its CSV `seed` field is i.
    So rows do not depend on _STACK, the first N rows of a longer campaign
    are the N-sample campaign, and row i is the last row of the same config
    run with samples = i + 1. Different seeds give independent streams.

    The scenario is compiled once per process (`_scenario`); up to _STACK
    samples then run as one stack, which fills one slice of every column
    (see module docstring).
    """
    scenario = _scenario(config.state, config.channels, config.cut, config.relabel,
                         config.identity, config.anchor)
    scales = scenario.scales(config.normalization_exponent)
    rng = np.random.default_rng(config.seed)
    samples = config.samples
    ranks = np.empty(samples, dtype=np.int64)
    evaluated = np.zeros(samples, dtype=bool)
    lhs, rhs, residual = (np.full(samples, np.nan) for _ in range(3))
    for start in range(0, samples, _STACK):
        stop = min(samples, start + _STACK)
        params = draw_params(scenario.families, rng, stop - start)[:, scenario.order]
        finals, ranks[start:stop] = scenario.final_states(params)
        which = scenario.identity_of_rank[ranks[start:stop]]
        rows = np.flatnonzero(which >= 0)
        if len(rows):
            ev = scenario.evaluate(which[rows], finals[rows], params[rows], scales=scales,
                                   aggregation=config.aggregation)
            at = start + rows
            evaluated[at] = True
            lhs[at], rhs[at], residual[at] = ev.lhs, ev.rhs, ev.residual
    return CampaignReport(config=config, ranks=ranks, evaluated=evaluated, lhs=lhs, rhs=rhs,
                          residual=residual)
