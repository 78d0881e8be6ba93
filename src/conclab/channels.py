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

`evolve` gathers a (B, d, d) stack of density matrices into the class
layout t[x, r, b] = rho_b[r, r ^ x] once, keeping only the classes that
some input matrix occupies (any entry != 0) and the stack as the innermost
axis. It applies the formula above as t = keep * t + move * t[:, r ^ m]
for each assigned qubit in turn, and scatters the result into zeros once.
Unassigned qubits are left untouched, and a class no input occupies stays
exactly 0. Each coefficient is a sum of two signed weights and every step
is elementwise, so a matrix's values do not depend on the stack it shares.
`apply` is the one-matrix case.
"""

import json
from dataclasses import dataclass
from functools import cache
from numbers import Integral, Real

import numpy as np

from .errors import DimensionMismatchError, NotNormalizedError
from .linalg import DensityMatrix, n_qubits_of

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


@cache
def _class_index(d):
    """Read-only (d, d) table of flat indices into a d x d matrix: row x
    holds the entries (r, r ^ x) of XOR class x in row order r."""
    rows = np.arange(d)
    index = rows * d + (rows ^ rows[:, None])
    index.setflags(write=False)
    return index


def evolve(mats, params):
    """Send a (B, d, d) stack of density matrices through local channels,
    given as {qubit: (S, 4) Pauli parameters}, one class-layout step per
    qubit in qubit order (see module docstring). B and S broadcast, so one
    initial state can go through S channel draws. Returns the unvalidated
    (max(B, S), d, d) stack; see the trust contract in `conclab.concurrence`."""
    d = mats.shape[-1]
    n = n_qubits_of(d)
    flat = mats.reshape(-1, d * d)
    index = _class_index(d)
    live = np.flatnonzero(np.any(flat != 0, axis=0)[index].any(axis=1))
    index = index[live]
    t = flat.T[index]  # (X, d, B) over the X live classes
    rows = np.arange(d)
    for q in sorted(params):
        m = 1 << (n - q)
        w = np.square(params[q]).T
        # s per class: -1 where the qubit's row and column bits differ
        sign = np.where(live & m, -1.0, 1.0)[:, None]
        keep = (w[0] + w[3] * sign)[:, None]  # (X, 1, S)
        move = (w[1] + w[2] * sign)[:, None]
        t = keep * t + move * t[:, rows ^ m]
    out = np.zeros((t.shape[-1], d * d), dtype=complex)
    out.T[index] = t
    return out.reshape(-1, d, d)


def apply(channels, rho):
    """Send a `DensityMatrix` through local channels given as {qubit:
    PauliChannel}, one qubit at a time in qubit order: the one-matrix case
    of `evolve`. Unassigned qubits are left untouched. Returns the evolved
    state unvalidated: see the trust contract in `conclab.concurrence`."""
    n = rho.n_qubits
    for qubit, channel in channels.items():
        if isinstance(qubit, bool) or not isinstance(qubit, Integral) or not 1 <= qubit <= n:
            raise ValueError(f"qubit index {qubit!r} outside 1..{n}")
        if not isinstance(channel, PauliChannel):
            raise ValueError(f"qubit {qubit} needs a PauliChannel, got {channel!r}")
    params = {q: np.array([ch.a]) for q, ch in channels.items()}
    return DensityMatrix._evolved(evolve(rho.mat[None], params)[0])


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
