"""Single-qubit Pauli channels and their embedding as local operations on
2-4 qubit density matrices via the operator-sum representation.

A channel is a list of Kraus operators K_i with sum_i K_i^dag K_i = I.
The Pauli parameterization uses K_i = a_i * sigma_i over (I, sx, sy, sz)
with sum a_i^2 = 1, which makes the completeness relation exact. The flip
families fix which Pauli mixes with the identity:

    BF  : identity and sigma_x   (a3 = a4 = 0)
    PF  : identity and sigma_z   (a2 = a3 = 0)
    BPF : identity and sigma_y   (a2 = a4 = 0)

Local channels act on each qubit independently, so the n-qubit map is the
tensor product of the single-qubit ones and is applied one qubit at a time.
Each channel carries its superoperator, the (4, 4) matrix

    S[(a, b), (c, d)] = sum_k K_k[a, c] * conj(K_k[b, d])     (sum_k K_k (x) K_k*)

so that rho'[a, b] = sum_{c, d} S[(a, b), (c, d)] rho[c, d] on the qubit's
row and column indices. For Pauli channels S = sum_k a_k^2 T_k with
T_k = sigma_k (x) sigma_k*, which is real with entries 0 and +-1, so a
whole (S, n, 4) array of parameters becomes superoperators in one matmul
(`pauli_superops`). Every entry of S sums exactly two of the a_k^2 with
signs, so no summation order can change it: a Pauli channel's superop
equals its `pauli_superops` bit for bit.

`evolve` views a (B, d, d) stack of density matrices as (B,) + (2,)*2n
tensors (row axes first, then column axes) and contracts an (S, 4, 4)
superoperator stack into the row and column axis of every assigned qubit
in turn, one stacked matmul per qubit; unassigned qubits are left
untouched. This costs one contraction per assigned qubit instead of a sum
over the k^n products of Kraus choices (Wood, Biamonte and Cory, "Tensor
networks and graphical calculus for open quantum systems", 2015). `apply`
is its one-matrix case.
"""

import json
from numbers import Real

import numpy as np

from .errors import DimensionMismatchError, NotNormalizedError
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, kron, n_qubits_of

COMPLETENESS_TOL = 1e-10
PARAM_NORM_TOL = 1e-12

PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)

# index into (I, sx, sy, sz) of the family's flip coordinate
FLIP_AXIS = {"BF": 1, "BPF": 2, "PF": 3}

# coordinates a family draws on: the identity and its flip axis, or all four
_FREE_COORDS = {"GeneralPauli": [0, 1, 2, 3], **{fam: [0, ax] for fam, ax in FLIP_AXIS.items()}}

# T_k = sigma_k (x) sigma_k*, the superoperator of the Kraus operator sigma_k,
# flattened to (4, 16); it is real
_PAULI_TRANSFER = np.array([kron(s, s.conj()).real.reshape(-1) for s in PAULIS])
_PAULI_TRANSFER.setflags(write=False)

FAMILIES = ("BF", "PF", "BPF", "GeneralPauli")


def _canonical_family(family):
    key = str(family).strip()
    for fam in FAMILIES:
        if key.upper() == fam.upper() or (fam == "GeneralPauli" and key.lower() == "general"):
            return fam
    raise ValueError(f"unknown channel family {family!r}; expected one of {FAMILIES}")


class PauliParams:
    """Real 4-vector (a1, a2, a3, a4) with unit Euclidean norm, optionally
    tagged with the flip family whose zero-pattern it must satisfy."""

    __slots__ = ("a", "family")

    def __init__(self, a, family=None):
        a = tuple(float(x) for x in a)
        if len(a) != 4:
            raise ValueError(f"expected 4 parameters, got {len(a)}")
        norm2 = sum(x * x for x in a)
        if not abs(norm2 - 1.0) <= PARAM_NORM_TOL:  # NaN fails too
            raise NotNormalizedError(f"sum a_i^2 = {norm2:.15g} deviates from 1 by > {PARAM_NORM_TOL:.1e}")
        if family is not None:
            family = _canonical_family(family)
            if family != "GeneralPauli":
                flip = FLIP_AXIS[family]
                for i in (1, 2, 3):
                    if i != flip and a[i] != 0.0:
                        raise ValueError(f"{family} channel requires a{i + 1} = 0, got {a[i]!r}")
        self.a = a
        self.family = family

    def __repr__(self):
        return f"PauliParams({self.a}, family={self.family!r})"

    def __eq__(self, other):
        return isinstance(other, PauliParams) and self.a == other.a and self.family == other.family

    def __hash__(self):
        return hash((self.a, self.family))


class KrausChannel:
    """Finite set of same-dimension Kraus operators satisfying completeness,
    with its (d^2, d^2) superoperator sum_k K_k (x) K_k* (see module docstring)."""

    __slots__ = ("kraus_ops", "label", "params", "superop")

    def __init__(self, kraus_ops, label="Custom", params=None):
        ops = tuple(np.array(k, dtype=complex) for k in kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for k in ops:
            if k.ndim != 2 or k.shape != (dim, dim):
                raise DimensionMismatchError("Kraus operators must be square and of equal dimension")
            k.setflags(write=False)
        stack = np.array(ops)
        total = np.einsum("kba,kbc->ac", stack.conj(), stack)
        err = float(np.max(np.abs(total - np.eye(dim))))
        if err > COMPLETENESS_TOL:
            raise NotNormalizedError(f"sum K_i^dag K_i deviates from identity by {err:.3e} > {COMPLETENESS_TOL:.1e}")
        self.kraus_ops = ops
        self.label = str(label)
        self.params = params
        self.superop = np.einsum("kac,kbd->abcd", stack, stack.conj()).reshape(dim * dim, -1)
        self.superop.setflags(write=False)

    @property
    def dim(self):
        return self.kraus_ops[0].shape[0]

    def __repr__(self):
        return f"KrausChannel(label={self.label!r}, n_ops={len(self.kraus_ops)})"


def pauli_channel(params):
    """Kraus set {a_i * sigma_i : a_i != 0} for unit-norm Pauli parameters."""
    if not isinstance(params, PauliParams):
        params = PauliParams(params)
    ops = [a * sigma for a, sigma in zip(params.a, PAULIS) if a != 0.0]
    return KrausChannel(ops, label=params.family or "GeneralPauli", params=params)


def identity_channel():
    return pauli_channel(PauliParams((1.0, 0.0, 0.0, 0.0)))


def pauli_superops(a):
    """Superoperators (..., 4, 4), complex, of the Pauli channels with
    parameters (..., 4): sum_k a_k^2 T_k."""
    a = np.asarray(a, dtype=float)
    return (np.square(a) @ _PAULI_TRANSFER).reshape(a.shape[:-1] + (4, 4)).astype(complex)


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
    return pauli_channel(PauliParams(flip_params(family, p), family=family))


def draw_params(families, rngs):
    """Pauli parameters (S, n, 4), uniform on the unit sphere of each
    family's free coordinates (2 for BF/PF/BPF, 4 for GeneralPauli) via
    normalized Gaussians. Row i takes all its draws from rngs[i], one
    family after the other in order; deterministic for given generator
    states. `families` are canonical names."""
    coords = [_FREE_COORDS[fam] for fam in families]
    width = sum(len(c) for c in coords)
    g = np.array([rng.standard_normal(width) for rng in rngs]).reshape(len(rngs), width)
    a = np.zeros((len(rngs), len(coords), 4))
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
    return pauli_channel(PauliParams(draw_params((family,), (rng,))[0, 0], family=family))


class ChannelAssignment:
    """Per-qubit channel table for an n-qubit system.

    Qubits without an entry receive the identity channel. Channels must be
    single-qubit; joint multi-qubit channels are out of scope.
    """

    __slots__ = ("n_qubits", "per_qubit")

    def __init__(self, n_qubits, per_qubit=()):
        n_qubits = int(n_qubits)
        if n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {n_qubits}")
        entries = dict(per_qubit)
        table = {}
        for qubit, channel in entries.items():
            qubit = int(qubit)
            if not 1 <= qubit <= n_qubits:
                raise ValueError(f"qubit index {qubit} outside 1..{n_qubits}")
            if channel.dim != 2:
                raise DimensionMismatchError("assignments take single-qubit channels only")
            if qubit in table:
                raise ValueError(f"duplicate assignment for qubit {qubit}")
            table[qubit] = channel
        self.n_qubits = n_qubits
        self.per_qubit = table

    @classmethod
    def many_sided(cls, channels):
        """One channel per qubit, in qubit order."""
        channels = tuple(channels)
        return cls(len(channels), {q: ch for q, ch in enumerate(channels, start=1)})


def evolve(mats, superops):
    """Send a (B, d, d) stack of density matrices through local channels,
    given as {qubit: (S, 4, 4) superoperator stack}, one stacked matmul per
    qubit in qubit order (see module docstring). B and S broadcast, so one
    initial state can go through S channel draws. Returns the unvalidated
    (max(B, S), d, d) stack."""
    d = mats.shape[-1]
    n = n_qubits_of(d)
    t = mats.reshape((-1,) + (2,) * (2 * n))
    for q in sorted(superops):
        axes = (q, n + q)
        front = np.moveaxis(t, axes, (1, 2))
        out = superops[q] @ front.reshape(front.shape[0], 4, -1)
        t = np.moveaxis(out.reshape(out.shape[:1] + front.shape[1:]), (1, 2), axes)
    return t.reshape(-1, d, d)


def apply(assignment, rho):
    """Apply the local channels of an assignment to a density matrix, one
    qubit at a time, in qubit order: the one-matrix case of `evolve`."""
    n = assignment.n_qubits
    if rho.n_qubits != n:
        raise DimensionMismatchError(
            f"state has {rho.n_qubits} qubits but assignment covers {n}")
    superops = {q: ch.superop[None] for q, ch in assignment.per_qubit.items()}
    return DensityMatrix(evolve(rho.mat[None], superops)[0])


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
        return pauli_channel(PauliParams([_json_real(x, "channel parameter") for x in a],
                                         family=family))
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
    return flip_channel(family, float(value))


def parse_channel_list(spec, n_qubits=None):
    """Parse a comma-separated channel list, one token per qubit in order;
    a token may be a JSON channel object, whose own commas do not split."""
    tokens = []
    for piece in str(spec).split(","):
        if tokens and sum(map(tokens[-1].count, "{[")) > sum(map(tokens[-1].count, "}]")):
            tokens[-1] += "," + piece  # inside an unclosed {...} or [...]
        else:
            tokens.append(piece)
    channels = tuple(parse_channel(t) for t in tokens if t.strip())
    if n_qubits is not None and len(channels) != n_qubits:
        raise DimensionMismatchError(f"got {len(channels)} channels for {n_qubits} qubits")
    return channels
