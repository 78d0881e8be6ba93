"""Canonical initial pure states and parsing of user-supplied state specs."""

import math
from numbers import Number, Real

import numpy as np

from .errors import NotNormalizedError, loads_json
from .linalg import DensityMatrix, n_qubits_of, permutation_indices

NORM_TOL = 1e-12


class PureState:
    """Unit-norm amplitude vector on n qubits (big-endian basis ordering)."""

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=complex).reshape(-1)
        n = n_qubits_of(amp.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: norm inf
            norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise NotNormalizedError(f"state norm {norm:.15g} deviates from 1 by > {NORM_TOL:.1e}")
        amp.setflags(write=False)
        self.amplitudes = amp
        self.n_qubits = n

    def to_density(self):
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def permuted(self, perm):
        src = permutation_indices(self.n_qubits, perm)
        return PureState(self.amplitudes[src])

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits})"


def bell(alpha):
    """alpha|00> + sqrt(1-alpha^2)|11>; alpha = 1/sqrt(2) is the Bell state."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    amp = np.zeros(4, dtype=complex)
    amp[0] = alpha
    amp[3] = math.sqrt(1.0 - alpha * alpha)
    return PureState(amp)


def ghz(n):
    """Equal superposition of |0...0> and |1...1> on n in {3, 4} qubits."""
    if n not in (3, 4):
        raise ValueError(f"ghz is defined for n in {{3, 4}}, got {n}")
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(amp)


def w(n):
    """Equal superposition of the n single-excitation basis states, n in {3, 4}."""
    if n not in (3, 4):
        raise ValueError(f"w is defined for n in {{3, 4}}, got {n}")
    amp = np.zeros(1 << n, dtype=complex)
    for k in range(n):
        amp[1 << k] = 1.0 / math.sqrt(n)
    return PureState(amp)


def random_pure(n, rng):
    """Haar-style sample: normalized complex Gaussian amplitudes."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(v / np.linalg.norm(v))


_NAMED = {
    "bell": lambda: bell(1.0 / math.sqrt(2.0)),
    "ghz3": lambda: ghz(3),
    "ghz4": lambda: ghz(4),
    "w3": lambda: w(3),
    "w4": lambda: w(4),
}


def _complex_entry(entry, what="amplitude"):
    """A JSON amplitude or matrix entry: a number, or an [re, im] pair of
    real numbers; a bool, a string or any other value raises ValueError."""
    try:
        if isinstance(entry, Number) and not isinstance(entry, bool):
            return complex(entry)
        if isinstance(entry, (list, tuple)) and len(entry) == 2 \
                and all(isinstance(x, Real) and not isinstance(x, bool) for x in entry):
            return complex(float(entry[0]), float(entry[1]))
    except OverflowError:
        pass
    raise ValueError(f"{what} entries must be numbers or [re, im] pairs, got {entry!r}")


def state_from_json(obj):
    """Build a PureState from a JSON value: a name, an amplitude list, or
    {"amplitudes": [...]} with entries as numbers or [re, im] pairs."""
    if isinstance(obj, str):
        return parse_state(obj)
    if isinstance(obj, dict):
        if "amplitudes" not in obj:
            raise ValueError("state object needs an 'amplitudes' field")
        obj = obj["amplitudes"]
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"cannot interpret {obj!r} as a state")
    return PureState([_complex_entry(e) for e in obj])


def parse_state(spec):
    """Parse a state spec: 'bell', 'ghz3', 'w3', 'ghz4', 'w4', 'bell:alpha=0.6',
    or a JSON amplitude list."""
    spec = spec.strip()
    if spec.startswith("[") or spec.startswith("{"):
        return state_from_json(loads_json(spec, "state"))
    name, _, args = spec.partition(":")
    name = name.lower()
    if name == "bell" and args:
        key, _, value = args.partition("=")
        if key.strip() != "alpha":
            raise ValueError(f"unknown bell parameter {key.strip()!r}")
        try:
            alpha = float(value)
        except ValueError:
            raise ValueError(f"state {spec!r} has alpha {value.strip()!r}, "
                             "which is not a number") from None
        return bell(alpha)
    if args:
        raise ValueError(f"state {name!r} takes no parameters")
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(f"unknown state {spec!r}; expected one of {sorted(_NAMED)}") from None
