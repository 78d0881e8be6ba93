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
which is where spectra and ranks are read (`linalg.block_spectra`).

A `SupportPlan` holds one closure: its entries, their signs s and partner
indices per qubit, and its block partition, cached per (pattern, moving
qubits) by `support_plan`. `evolve` gathers a (B, d, d) stack into the
support layout t[e, b] = rho_b[entry e], with the stack as the innermost
axis. Each moving qubit applies t = keep * t + move * t[partner] and each
other qubit t = keep * t, with keep = w0 + s w3 and move = w1 + s w2 read
per entry, and the result is scattered into zeros once. Unassigned qubits
are left untouched, and every entry outside the closure is exactly 0. GHZ
states fill 2 of the d XOR classes, and W4 under PF on every qubit only its
own 16 entries. Every step is elementwise, so a matrix's values do not
depend on the stack it shares. `apply` is the one-matrix case.
"""

import json
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatchError, NotNormalizedError
from .linalg import DensityMatrix, block_partition, n_qubits_of

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


def draw_params(families, rng, samples):
    """Pauli parameters (samples, n, 4), uniform on the unit sphere of each
    family's free coordinates (2 for BF/PF/BPF, 4 for GeneralPauli) via
    normalized Gaussians. All Gaussians come from one
    `rng.standard_normal((samples, width))` call, read in row-major order:
    row i takes the next draws of the generator, one family after the other
    in order. So two calls for a and b samples give the same rows as one
    call for a + b, and row i equals n `sample_channel` calls made on the
    generator after the rows before it. `families` are canonical names."""
    coords = [_FREE_COORDS[fam] for fam in families]
    width = sum(len(c) for c in coords)
    g = rng.standard_normal((samples, width))
    a = np.zeros((samples, len(coords), 4))
    start = 0
    for j, c in enumerate(coords):
        x = g[:, start:start + len(c)]
        start += len(c)
        # the Euclidean norm as a dot product, like np.linalg.norm
        a[:, j, c] = x / np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return a


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
    the `moving` qubits; per qubit q, `flipped[q]` (E,), 1 where q's row and
    column bits of an entry differ and 0 where they agree; per moving qubit,
    `partner[q]` (E,), the position in `entries` of the entry with q's bit
    flipped in both; and the `block_partition` of the closure, over which
    every such state is block-diagonal."""

    dim: int
    moving: frozenset
    entries: np.ndarray
    flipped: dict
    partner: dict
    blocks: tuple

    def evolve(self, mats, params):
        """`evolve` on a (B, d, d) stack whose nonzero entries lie in the
        plan's closure, with every assigned qubit outside `moving` carrying
        channels with a2 = a3 = 0 (PF or the identity)."""
        d = self.dim
        t = mats.reshape(-1, d * d).T[self.entries]  # (E, B)
        for q in sorted(params):
            w = np.square(params[q]).T
            # the coefficients at s = +1 and s = -1, read per entry
            keep = np.stack((w[0] + w[3], w[0] - w[3]))[self.flipped[q]]
            if q in self.moving:
                move = np.stack((w[1] + w[2], w[1] - w[2]))[self.flipped[q]]
                t = keep * t + move * t[self.partner[q]]
            else:
                t = keep * t
        out = np.zeros((t.shape[-1], d * d), dtype=complex)
        out.T[self.entries] = t
        return out.reshape(-1, d, d)


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
    r, c = entries // dim, entries % dim
    flipped, partner = {}, {}
    for q in range(1, n + 1):
        m = 1 << (n - q)
        flipped[q] = ((r ^ c) & m != 0).astype(np.intp)
        if q in moving:
            partner[q] = np.searchsorted(entries, (r ^ m) * dim + (c ^ m))
    for a in (entries, *flipped.values(), *partner.values()):
        a.setflags(write=False)
    return SupportPlan(dim, moving, entries, flipped, partner,
                       block_partition(closed.reshape(dim, dim)))


def support_plan(pattern, moving):
    """The cached `SupportPlan` of a (d, d) boolean support pattern (an
    initial state's nonzero entries) under channels on the qubits `moving`
    that move entries. At most 256 plans are kept, least recently used
    first out."""
    pattern = np.ascontiguousarray(pattern, dtype=bool)
    return _plan(pattern.tobytes(), pattern.shape[-1], frozenset(moving))


def evolve(mats, params, moving=None):
    """Send a (B, d, d) stack of density matrices through local channels,
    given as {qubit: (S, 4) Pauli parameters}, one support-layout step per
    qubit in qubit order (see module docstring). `moving` holds the assigned
    qubits whose family moves entries, read from the families and never from
    drawn values; the others must carry a2 = a3 = 0. None means every
    assigned qubit. B and S broadcast, so one initial state can go through
    S channel draws. Returns the unvalidated (max(B, S), d, d) stack; see
    the trust contract in `conclab.concurrence`."""
    d = mats.shape[-1]
    moving = frozenset(params) if moving is None else frozenset(moving) & frozenset(params)
    pattern = np.any(mats.reshape(-1, d, d) != 0, axis=0)
    return support_plan(pattern, moving).evolve(mats, params)


def apply(channels, rho):
    """Send a `DensityMatrix` through local channels given as {qubit:
    PauliChannel}, one qubit at a time in qubit order: the one-matrix case
    of `evolve`. Unassigned qubits are left untouched. Returns the evolved
    state unvalidated, its spectrum read from the blocks of its
    `SupportPlan`: see the trust contract in `conclab.concurrence`."""
    n = rho.n_qubits
    for qubit, channel in channels.items():
        if isinstance(qubit, bool) or not isinstance(qubit, Integral) or not 1 <= qubit <= n:
            raise ValueError(f"qubit index {qubit!r} outside 1..{n}")
        if not isinstance(channel, PauliChannel):
            raise ValueError(f"qubit {qubit} needs a PauliChannel, got {channel!r}")
    params = {q: np.array([ch.a]) for q, ch in channels.items()}
    moving = moving_qubits((q, ch.family) for q, ch in channels.items())
    plan = support_plan(rho.mat != 0, moving)
    return DensityMatrix._evolved(plan.evolve(rho.mat[None], params)[0], plan.blocks)


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
        return channel_from_json(json.loads(token))
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
