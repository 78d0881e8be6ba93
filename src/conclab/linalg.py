"""Dense complex matrix primitives: Pauli constants, eigensolves, qubit
permutation indices, and density-matrix validation, of one matrix (the
`DensityMatrix` container) or of a (..., d, d) stack.

Each kind of state has one spectrum path. Inputs are validated, once, by
`density_spectra` inside `DensityMatrix`, the only raiser of
NotHermitianError and NotPSDError, which reads their spectra with one
`eigvalsh` call. Evolved states are trusted unchecked (see
`conclab.concurrence`), and the plan that evolved them reads their spectra
(`channels.SupportPlan.spectra`) with `block_spectra`: a stack that is
block-diagonal over the components of a known support pattern
(`block_partition`) gives its 1x1 blocks from the diagonal, each 2x2 block
[[a, z*], [z, b]], z below the diagonal, as (a + b)/2 +- sqrt(((a - b)/2)^2
+ |z|^2) (`_pair_eigenvalues`), and the larger blocks by one `eigvalsh` per
block size. Like `eigvalsh`, it reads the real diagonal and the lower
triangle. Every rank is `spectral_ranks` of such a spectrum.

All matrices are plain numpy arrays (complex128). Qubits are numbered 1..n,
big-endian: qubit 1 is the leftmost tensor factor, so basis index i has the
bit of qubit k at position n-k, and |011> has index 3 for n=3.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPermutationError,
    NotHermitianError,
    NotPSDError,
)

HERM_TOL = 1e-10      # max entrywise |M - M^dag| accepted as Hermitian
TRACE_TOL = 1e-10     # |tr(rho) - 1| accepted for density matrices
EIG_FLOOR = -1e-10    # most negative eigenvalue accepted for density matrices
RANK_TOL = 1e-10      # absolute eigenvalue threshold for numerical rank


def _frozen(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _dagger(m):
    """Conjugate transpose of a matrix or of every matrix in a (..., d, d) stack."""
    return np.swapaxes(m.conj(), -1, -2)


def n_qubits_of(dim):
    """Number of qubits for a power-of-two dimension."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise DimensionMismatchError(f"dimension {dim} is not a power of two")
    return n


def permutation_indices(n_qubits, perm):
    """Basis index map for a qubit relabeling.

    perm is a permutation of 1..n; output qubit k is input qubit perm[k].
    Returns src such that reordered[i] = original[src[i]] for state vectors.
    """
    perm = tuple(int(q) for q in perm)
    if sorted(perm) != list(range(1, n_qubits + 1)):
        raise InvalidPermutationError(f"{perm} is not a permutation of 1..{n_qubits}")
    dim = 1 << n_qubits
    idx = np.arange(dim)
    src = np.zeros(dim, dtype=np.intp)
    for k in range(n_qubits):
        # bit of output qubit k+1 comes from input qubit perm[k]
        out_shift = n_qubits - 1 - k
        in_shift = n_qubits - perm[k]
        src |= (((idx >> out_shift) & 1) << in_shift).astype(np.intp)
    return src


def _pair_eigenvalues(a, b, z):
    """Eigenvalues (low, high) of the Hermitian 2x2 matrices [[a, z*], [z, b]]
    given their real diagonals a, b and lower entries z, elementwise:
    (a + b)/2 -+ r with r = sqrt(h^2 + |z|^2) and h = |a - b|/2, read as
    min(a, b) - s and max(a, b) + s with s = r - h = |z|^2 / (r + h). No
    step cancels, so a diagonal block (z = 0) gives a and b exactly."""
    half = 0.5 * np.abs(a - b)
    # |z|^2 by correctly rounded operations only, so no SIMD path can make a
    # value depend on its position in the stack
    zz = z.real * z.real + z.imag * z.imag
    gap = np.sqrt(half * half + zz) + half
    shift = np.divide(zz, gap, out=np.zeros_like(zz), where=gap > 0)
    return np.minimum(a, b) - shift, np.maximum(a, b) + shift


def density_spectra(mats):
    """Validate a density matrix, or every matrix of a (..., d, d) stack: finite
    entries, Hermitian within HERM_TOL, unit trace within TRACE_TOL, lowest
    eigenvalue at least EIG_FLOOR. Returns the ascending spectra, (..., d),
    from one `eigvalsh` call.

    A failing stack raises the error class and message that its first
    failing matrix raises on its own (for Hermiticity, its worst matrix).
    """
    mats = np.asarray(mats)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise ValueError("density matrix has non-finite entries")
    n_qubits_of(mats.shape[-1])
    # huge finite entries overflow to inf here and fail the same checks
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.max(np.abs(mats - _dagger(mats)), initial=0.0))
        traces = np.trace(mats, axis1=-2, axis2=-1).reshape(-1)
        bad = np.flatnonzero(~(np.abs(traces - 1.0) <= TRACE_TOL))  # NaN fails too
    if err > HERM_TOL:
        raise NotHermitianError(f"density matrix is not Hermitian: residual {err:.3e} > {HERM_TOL:.1e}")
    if bad.size:
        tr = complex(traces[bad[0]])
        raise ValueError(f"density matrix trace {tr:.12g} deviates from 1 by > {TRACE_TOL:.1e}")
    eigs = np.linalg.eigvalsh(mats)
    lowest = eigs[..., 0].reshape(-1)
    bad = np.flatnonzero(lowest < EIG_FLOOR)
    if bad.size:
        raise NotPSDError(f"density matrix has eigenvalue {lowest[bad[0]]:.3e} < {EIG_FLOOR:.1e}")
    return eigs


def spectral_ranks(eigs, tol=RANK_TOL):
    """Count of eigenvalues strictly above tol (absolute; trace is 1) in each
    spectrum of a (..., d) stack."""
    return np.count_nonzero(np.asarray(eigs) > tol, axis=-1)


def block_partition(pattern):
    """The connected components of a (d, d) boolean support pattern, as the
    gathers `block_spectra` reads: basis states r and c are joined when the
    pattern holds (r, c) or (c, r). Every matrix whose nonzero entries lie in
    the pattern is block-diagonal over these components, so its spectrum is
    the union of its blocks' spectra and one 0 for each state the pattern
    does not touch, which the partition leaves out.

    Returns one (size, flat indices) item per component size, ascending;
    within a size the components run in order of their smallest state, and
    each lists its states ascending. The indices, into a flattened d x d
    matrix, are (K,) diagonal entries for K components of size 1, the (3, K)
    entries a, b and z (the lower one) of [[a, z*], [z, b]] for size 2, and
    (K, k, k) blocks for every larger size k."""
    pattern = np.asarray(pattern, dtype=bool)
    d = len(pattern)
    reach = pattern | pattern.T
    touched = reach.any(axis=1)
    reach |= np.eye(d, dtype=bool)
    while True:  # squaring doubles the path length each round
        wider = (reach.astype(np.intp) @ reach.astype(np.intp)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    by_size = {}
    for smallest in sorted(set(reach.argmax(axis=1)[touched].tolist())):
        members = np.flatnonzero(reach[smallest])
        by_size.setdefault(len(members), []).append(members)
    partition = []
    for size, blocks in sorted(by_size.items()):
        m = np.array(blocks)
        if size == 1:
            index = m[:, 0] * (d + 1)
        elif size == 2:
            index = np.array([m[:, 0] * (d + 1), m[:, 1] * (d + 1), m[:, 1] * d + m[:, 0]])
        else:
            index = m[:, :, None] * d + m[:, None, :]
        partition.append((size, _frozen(index)))
    return tuple(partition)


def layout_positions(entries, dim):
    """The position of each flat index of a d x d matrix in rows of the
    support layout `entries`: a stack stored as (B, E + 1) rows of the
    entries (flat indices ascending) its states can fill and one pad that
    holds +0.0, which every other index reads. A dense (B, d, d) stack read
    as (B, d * d) rows is the identity layout."""
    at = np.full(dim * dim, len(entries), dtype=np.intp)
    at[entries] = np.arange(len(entries))
    return at


def block_spectra(rows, partition, dim):
    """Eigenvalues (S, dim) of Hermitian matrices, block-diagonal over a
    `block_partition` read at positions of their (S, E) rows (flat indices
    of a dense stack), read without checks and not sorted: the 1x1 blocks
    from the diagonal, the 2x2 blocks in closed form (see module
    docstring), the blocks of each larger size from one `eigvalsh` call, in
    partition order, and then 0 for each state the partition leaves out.
    Every operation acts per matrix, so a spectrum does not depend on the
    stack."""
    flat = rows.reshape(len(rows), -1)
    eigs = np.zeros((len(rows), dim))
    start = 0
    for size, index in partition:
        if size == 1:
            parts = (flat[:, index].real,)
        elif size == 2:
            a, b, z = flat[:, index].swapaxes(0, 1)
            parts = _pair_eigenvalues(a.real, b.real, z)
        else:
            parts = (np.linalg.eigvalsh(flat[:, index]).reshape(len(rows), -1),)
        for part in parts:
            eigs[:, start:start + part.shape[1]] = part
            start += part.shape[1]
    return eigs


class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix on n qubits.

    Validated on construction by `density_spectra`; raises NotHermitianError /
    ValueError / NotPSDError when the tolerances (HERM_TOL, TRACE_TOL,
    EIG_FLOOR) are violated; `_evolved` keeps an evolved state unchecked.
    The eigenvalue spectrum is computed once and reused for rank.
    """

    __slots__ = ("mat", "n_qubits", "_eigs")

    def __init__(self, mat):
        mat = np.array(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
        eigs = density_spectra(mat)
        mat.setflags(write=False)
        self.mat = mat
        self.n_qubits = n_qubits_of(mat.shape[0])
        self._eigs = _frozen(eigs)

    @classmethod
    def _evolved(cls, mat, eigs):
        """A (d, d) state evolved from a validated one by local Pauli channels
        and its ascending spectrum, unchecked (trust contract above)."""
        self = cls.__new__(cls)
        self.mat = _frozen(mat)
        self._eigs = _frozen(eigs)
        self.n_qubits = n_qubits_of(mat.shape[0])
        return self

    @property
    def dim(self):
        return self.mat.shape[0]

    @property
    def eigenvalues(self):
        """Spectrum in ascending order."""
        return self._eigs

    @property
    def rank(self):
        """Count of eigenvalues strictly above RANK_TOL."""
        return int(spectral_ranks(self._eigs))

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits}, rank={self.rank})"
