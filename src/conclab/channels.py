"""Single-qubit Pauli channels and their action as local operations on
2-4 qubit density matrices.

A channel is a unit real 4-vector a = (a1, a2, a3, a4) over (I, sx, sy, sz):
rho -> sum_i a_i^2 sigma_i rho sigma_i. The flip families fix which Pauli
mixes with the identity:

    BF  : identity and sigma_x   (a3 = a4 = 0)
    PF  : identity and sigma_z   (a2 = a3 = 0)
    BPF : identity and sigma_y   (a2 = a4 = 0)

Local channels act on each qubit independently, so the n-qubit map is the
tensor product of the single-qubit ones and is applied one qubit at a time.
Let m be the bit of qubit q in a basis index (qubit 1 is the most
significant) and w_k = a_k^2. sigma_x and sigma_y flip the qubit's bit and
I and sigma_z keep it. Conjugating by sigma_z multiplies entry (r, c) by
(-1)^(r_q + c_q), and conjugating by sigma_y by the same sign after the
flip, since sigma_y = i sigma_x sigma_z. So with s = +1 where the qubit's
row and column bits agree and s = -1 where they differ,

    rho'[r, c] = (w0 + s w3) rho[r, c] + (w1 + s w2) rho[r ^ m, c ^ m].

The flipped entry has the same XOR r ^ c, and s depends only on that XOR.
So every "XOR class" {(r, r ^ x)} maps into itself, under every Pauli
channel on every qubit (the fact that keeps X states X-shaped: Yu and
Eberly, Quantum Inf. Comput. 7, 2007).

The same step fixes where an evolved state can be nonzero. Channels of the
BF, BPF and GeneralPauli families move entries: the flipped entry
(r ^ m, c ^ m) feeds (r, c). A PF channel has w1 = w2 = 0, so its move
coefficient is exactly 0 and it only scales each entry by w0 + s w3;
skipping its move term changes at most the sign of a zero. So if rho0 is
nonzero only on a pattern P, every state evolved from it, under any draws
of these families, is nonzero only on the closure of P under the
row-and-column bit flips of the moving qubits: each step maps the closure
into itself, and outside it every step maps zeros to zeros. Which qubits
move is read from the families, never from the drawn values, so no state's
layout depends on the draws it is stacked with. A state nonzero only on
the closure is block-diagonal over the closure's connected components,
which is where spectra and ranks are read.

A `SupportPlan` holds one closure: its entries, each qubit's coefficient
columns and partner positions, and its block partition, cached per
(pattern, moving qubits) by `support_plan`. It owns every state evolved in
it: `evolve` is the one channel-application path, and `spectra` reads the
spectra from the blocks (`linalg.block_spectra`). An evolved stack stays in
the plan's support layout (`linalg.layout_positions`): (S, E + 1) rows of
the closure's entries and one pad that holds +0.0. `evolve` gathers its
input into these rows once and reads every qubit's keep = w0 + s w3 and
move = w1 + s w2 per position with one gather from an (S, 4k) table. Each
moving qubit applies t = keep * t + move * t[partner] and each other qubit
t = keep * t; the pad has s = +1 and is its own partner, so it stays +0.0.
Unassigned qubits are left untouched. GHZ states fill 2 of the d XOR
classes, and W4 under PF on every qubit only its own 16 entries. Every step
is elementwise, so a state's values do not depend on the stack it shares.
`apply`, the one-matrix case, scatters its row into the dense matrix a user
sees.
"""

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatchError, NotNormalizedError, loads_json
from .linalg import DensityMatrix, block_partition, block_spectra, layout_positions, n_qubits_of

PARAM_NORM_TOL = 1e-12

# index into (I, sx, sy, sz) of the family's flip coordinate
FLIP_AXIS = {"BF": 1, "BPF": 2, "PF": 3}

# coordinates a family draws on: the identity and its flip axis, or all four
_FREE_COORDS = {"GeneralPauli": [0, 1, 2, 3], **{fam: [0, ax] for fam, ax in FLIP_AXIS.items()}}

FAMILIES = ("BF", "PF", "BPF", "GeneralPauli")


def _canonical_family(family):
    key = str(family).strip()
    for fam in FAMILIES:
        if key.upper() == fam.upper() or (fam == "GeneralPauli" and key.lower() == "general"):
            return fam
    raise ValueError(f"unknown channel family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class PauliChannel:
    """Single-qubit Pauli channel: a unit real 4-vector a over (I, sx, sy, sz),
    tagged with the family whose zero pattern it satisfies."""

    a: tuple
    family: str = "GeneralPauli"

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        if len(a) != 4:
            raise ValueError(f"expected 4 parameters, got {len(a)}")
        norm2 = sum(x * x for x in a)
        if not abs(norm2 - 1.0) <= PARAM_NORM_TOL:  # NaN fails too
            raise NotNormalizedError(f"sum a_i^2 = {norm2:.15g} deviates from 1 by > {PARAM_NORM_TOL:.1e}")
        family = _canonical_family(self.family)
        if family != "GeneralPauli":
            flip = FLIP_AXIS[family]
            for i in (1, 2, 3):
                if i != flip and a[i] != 0.0:
                    raise ValueError(f"{family} channel requires a{i + 1} = 0, got {a[i]!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "family", family)


def identity_channel():
    return PauliChannel((1.0, 0.0, 0.0, 0.0))


def flip_params(family, p):
    """Parameters (..., 4) of the family's channels at flip probabilities p
    (a number or an array): sqrt(1-p) on the identity and sqrt(p) on the
    family's flip coordinate."""
    family = _canonical_family(family)
    if family == "GeneralPauli":
        raise ValueError("a flip probability needs a BF, PF, or BPF family")
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    a = np.zeros(p.shape + (4,))
    a[..., 0] = np.sqrt(1.0 - p)
    a[..., FLIP_AXIS[family]] = np.sqrt(p)
    return a


def flip_channel(family, p):
    """Family channel with flip probability p: a = (sqrt(1-p), sqrt(p)) on the
    identity and the family's flip coordinate."""
    return PauliChannel(flip_params(family, p), family)


@lru_cache(maxsize=256)
def _draw_layout(families):
    """The Gaussians one row draws, and per width w of free coordinates (2
    or 4): the (m, w) Gaussian columns of the m families of that width, and
    the (m, w) entries of a flat (n * 4,) parameter row that they fill."""
    coords = [_FREE_COORDS[fam] for fam in families]
    starts = np.cumsum([0] + [len(c) for c in coords])
    return starts[-1], tuple(
        (np.array([range(starts[j], starts[j + 1]) for j in js]),
         np.array([[4 * j + c for c in coords[j]] for j in js]))
        for js in ([j for j, c in enumerate(coords) if len(c) == w] for w in (2, 4)) if js)


def draw_params(families, rng, samples):
    """Pauli parameters (samples, n, 4), uniform on the unit sphere of each
    family's free coordinates (2 for BF/PF/BPF, 4 for GeneralPauli) via
    normalized Gaussians. All Gaussians come from one
    `rng.standard_normal((samples, width))` call, read in row-major order:
    row i takes the next draws of the generator, one family after the other
    in order. So two calls for a and b samples give the same rows as one
    call for a + b, and row i equals n `sample_channel` calls made on the
    generator after the rows before it. The families of one width are
    normalized together, each by its own dot product. `families` are
    canonical names."""
    width, groups = _draw_layout(tuple(families))
    g = rng.standard_normal((samples, width))
    a = np.zeros((samples, len(families) * 4))
    for cols, targets in groups:
        # C-contiguous, as one family's columns are: the dot product's
        # summation order, and so its last bit, follows the memory layout
        x = g.take(cols, axis=1)
        # the Euclidean norm as a dot product, like np.linalg.norm
        a[:, targets] = x / np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
    return a.reshape(samples, len(families), 4)


def sample_channel(family, rng):
    """One channel drawn by `draw_params`."""
    family = _canonical_family(family)
    return PauliChannel(draw_params((family,), rng, 1)[0, 0], family)


def moving_qubits(assigned):
    """The qubits whose channel family moves entries, from (qubit, canonical
    family) pairs: BF, BPF and GeneralPauli move them, PF only scales them."""
    return frozenset(q for q, fam in assigned if fam != "PF")


@dataclass(frozen=True, eq=False)
class SupportPlan:
    """Where a stack evolved from one support pattern by local Pauli channels
    can be nonzero (see module docstring): the closure `entries` (E,), flat
    indices ascending, of the pattern under the row-and-column bit flips of
    the `moving` qubits, the support layout of its rows; `select[q - 1]`
    (2, E + 1), which of qubit q's coefficient columns (w0 + w3, w1 + w2,
    w0 - w3, w1 - w2) each position's keep and move read; per moving qubit,
    `partner[q]` (E + 1,), the position with q's bit flipped in both; and
    `blocks`, the closure's `block_partition` read at positions."""

    dim: int
    moving: frozenset
    entries: np.ndarray
    select: np.ndarray
    partner: dict
    blocks: tuple

    def evolve(self, mats, params):
        """Send a (B, d, d) stack of density matrices, nonzero only in the
        plan's closure, through local channels given as {qubit: (S, 4) Pauli
        parameters}, one support-layout step per qubit in qubit order (see
        module docstring). Every assigned qubit outside `moving` must carry
        a2 = a3 = 0 (PF or the identity). B and S broadcast, so one initial
        state can go through S channel draws. Returns the unvalidated
        (max(B, S), E + 1) rows in the plan's layout; see the trust contract
        in `conclab.concurrence`."""
        t = np.zeros((len(mats), len(self.entries) + 1), dtype=complex)
        t[:, :-1] = mats.reshape(len(mats), -1)[:, self.entries]
        qubits = sorted(params)
        if not qubits:
            return t
        w = np.square(np.concatenate([params[q] for q in qubits], axis=-1))
        w = w.reshape(len(w), len(qubits), 4)
        near, far = w[..., :2], w[..., :1:-1]  # (w0, w1) and (w3, w2)
        # each qubit's keep and move at s = +1, then at s = -1: (w0 + w3, w1 + w2,
        # w0 - w3, w1 - w2); complex, as each product with t casts them to it
        table = np.concatenate((near + far, near - far), axis=-1, dtype=complex).reshape(len(w), -1)
        slots = 4 * np.arange(len(qubits))[:, None, None]  # each qubit's four columns
        coefficients = table[:, self.select[[q - 1 for q in qubits]] + slots]
        for j, q in enumerate(qubits):
            keep, move = coefficients[:, j, 0], coefficients[:, j, 1]
            t = keep * t + move * t[:, self.partner[q]] if q in self.moving else keep * t
        return t

    def spectra(self, rows):
        """Unsorted eigenvalues (S, d) of (S, E + 1) rows this plan evolved,
        read from its blocks by `block_spectra`, unchecked."""
        return block_spectra(rows, self.blocks, self.dim)


@lru_cache(maxsize=256)
def _plan(pattern_bytes, dim, moving):
    n = n_qubits_of(dim)
    pattern = np.frombuffer(pattern_bytes, dtype=bool).reshape(dim, dim)
    rows, cols = np.nonzero(pattern)
    # every XOR of the moving qubits' bit masks: the flips the closure applies
    flips = np.zeros(1, dtype=np.intp)
    for q in sorted(moving):
        flips = np.concatenate((flips, flips ^ (1 << (n - q))))
    closed = np.zeros(dim * dim, dtype=bool)
    closed[(rows[:, None] ^ flips) * dim + (cols[:, None] ^ flips)] = True
    entries = np.flatnonzero(closed)
    at = layout_positions(entries, dim)
    r, c = entries // dim, entries % dim
    select = np.zeros((n, 2, len(entries) + 1), dtype=np.intp)
    partner = {}
    for q in range(1, n + 1):
        m = 1 << (n - q)
        select[q - 1, :, :-1] = 2 * ((r ^ c) & m != 0)
        if q in moving:
            partner[q] = np.append(at[(r ^ m) * dim + (c ^ m)], len(entries))
    select[:, 1] += 1
    blocks = tuple((size, at[index]) for size, index in block_partition(closed.reshape(dim, dim)))
    for a in (entries, select, *partner.values(), *(index for _, index in blocks)):
        a.setflags(write=False)
    return SupportPlan(dim, moving, entries, select, partner, blocks)


def support_plan(pattern, moving):
    """The cached `SupportPlan` of a (d, d) boolean support pattern (an
    initial state's nonzero entries) under channels on the qubits `moving`
    that move entries. At most 256 plans are kept, least recently used
    first out."""
    pattern = np.ascontiguousarray(pattern, dtype=bool)
    return _plan(pattern.tobytes(), pattern.shape[-1], frozenset(moving))


def apply(channels, rho):
    """Send a `DensityMatrix` through local channels given as {qubit:
    PauliChannel}, one qubit at a time in qubit order: the one-matrix case
    of `SupportPlan.evolve`. Unassigned qubits are left untouched. Returns
    the evolved state unvalidated, its spectrum read by the same plan's
    `spectra`: see the trust contract in `conclab.concurrence`."""
    n = rho.n_qubits
    for qubit, channel in channels.items():
        if isinstance(qubit, bool) or not isinstance(qubit, Integral) or not 1 <= qubit <= n:
            raise ValueError(f"qubit index {qubit!r} outside 1..{n}")
        if not isinstance(channel, PauliChannel):
            raise ValueError(f"qubit {qubit} needs a PauliChannel, got {channel!r}")
    params = {q: np.array([ch.a]) for q, ch in channels.items()}
    moving = moving_qubits((q, ch.family) for q, ch in channels.items())
    plan = support_plan(rho.mat != 0, moving)
    rows = plan.evolve(rho.mat[None], params)
    final = np.zeros(rho.mat.size, dtype=complex)
    final[plan.entries] = rows[0, :-1]
    return DensityMatrix._evolved(final.reshape(rho.mat.shape), np.sort(plan.spectra(rows)[0]))


def _json_real(value, what):
    """A real number from JSON: an int or a float, not a bool."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def channel_from_json(obj):
    """Build a channel from {"family": ..., "p": x} or {"family": ..., "a": [a1..a4]}."""
    if isinstance(obj, str):
        return parse_channel(obj)
    if not isinstance(obj, dict) or "family" not in obj:
        raise ValueError(f"cannot interpret {obj!r} as a channel; need a 'family' field")
    family = _canonical_family(obj["family"])
    if "a" in obj:
        a = obj["a"]
        if not isinstance(a, list):
            raise ValueError(f"channel parameters 'a' must be a list of numbers, got {a!r}")
        return PauliChannel([_json_real(x, "channel parameter") for x in a], family)
    if "p" in obj:
        return flip_channel(family, _json_real(obj["p"], "flip probability"))
    raise ValueError("channel object needs either 'p' or 'a'")


def parse_channel(token):
    """Parse one channel token: 'I', 'BF:p=0.2', 'PF:p=0.35', 'BPF:p=0.1',
    or a JSON object string."""
    token = token.strip()
    if token.startswith("{"):
        return channel_from_json(loads_json(token, "channel"))
    if token.upper() in ("I", "ID", "IDENTITY"):
        return identity_channel()
    name, _, args = token.partition(":")
    family = _canonical_family(name)
    if not args:
        raise ValueError(f"channel {family} needs a parameter, e.g. {family}:p=0.2")
    key, _, value = args.partition("=")
    if key.strip() != "p":
        raise ValueError(f"unknown channel parameter {key.strip()!r}")
    try:
        p = float(value)
    except ValueError:
        raise ValueError(f"channel {token!r} has p {value.strip()!r}, "
                         "which is not a number") from None
    return flip_channel(family, p)


def parse_channel_list(spec, n_qubits=None):
    """Parse a comma-separated channel list, one token per qubit in order;
    a token may be a JSON channel object, whose own commas do not split. An
    empty token is an error."""
    tokens = []
    for piece in str(spec).split(","):
        if tokens and sum(map(tokens[-1].count, "{[")) > sum(map(tokens[-1].count, "}]")):
            tokens[-1] += "," + piece  # inside an unclosed {...} or [...]
        else:
            tokens.append(piece)
    if not all(t.strip() for t in tokens):
        raise ValueError(f"channel list {spec!r} has an empty item")
    channels = tuple(parse_channel(t) for t in tokens)
    if n_qubits is not None and len(channels) != n_qubits:
        raise DimensionMismatchError(f"got {len(channels)} channels for {n_qubits} qubits")
    return channels
