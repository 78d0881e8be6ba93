"""Dense complex matrix primitives: Pauli constants, eigensolves, qubit
permutation indices, and density-matrix validation, of one matrix (the
`DensityMatrix` container) or of a (..., d, d) stack.

Only inputs are validated, once, by `density_spectra`, the only raiser of
NotHermitianError and NotPSDError. An evolved state is a convex mix of Pauli
conjugates of a validated one and is trusted (see `conclab.concurrence`);
where its rank is read, `hermitian_spectra` gives its spectrum unchecked.

`hermitian_spectra` reads X-shaped matrices, whose only nonzero entries sit
on the diagonal and the anti-diagonal, in closed form (Yu and Eberly,
Quantum Inf. Comput. 7, 2007). Such a matrix is the direct sum of its 2x2
halves on span{i, d-1-i}, [[a, z*], [z, b]] with z below the diagonal, whose
eigenvalues are (a + b)/2 +- sqrt(((a - b)/2)^2 + |z|^2). Like `eigvalsh`,
the closed form reads the real diagonal and the lower triangle.

All matrices are plain numpy arrays (complex128). Qubits are numbered 1..n,
big-endian: qubit 1 is the leftmost tensor factor, so basis index i has the
bit of qubit k at position n-k, and |011> has index 3 for n=3.
"""

from functools import lru_cache

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


IDENTITY_2 = _frozen(np.eye(2, dtype=complex))
SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))


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


@lru_cache(maxsize=None)
def _x_layout(dim):
    """Flat indices, in a dim x dim matrix, of the entries off the diagonal and
    the anti-diagonal, and of each 2x2 half {i, dim-1-i} (i < dim/2): its
    two diagonal entries and its lower anti-diagonal entry."""
    rows, cols = np.indices((dim, dim))
    off_x = np.flatnonzero((rows != cols) & (rows + cols != dim - 1))
    near = np.arange(dim // 2)
    far = dim - 1 - near
    layout = (off_x, near * (dim + 1), far * (dim + 1), far * dim + near)
    for a in layout:
        a.setflags(write=False)
    return layout


def hermitian_spectra(mats):
    """Ascending spectra (..., d) of a (..., d, d) stack of Hermitian matrices,
    as `eigvalsh` reads them, without checks. Each matrix whose entries off
    the diagonal and anti-diagonal are all exactly 0, in both triangles, is
    read in closed form (see module docstring); only the others reach one
    `eigvalsh` call, and a stack with no X-shaped matrix goes to it whole,
    uncopied.
    Every operation acts per matrix, so a matrix's spectrum does not depend
    on the stack it shares."""
    mats = np.asarray(mats)
    dim = mats.shape[-1]
    flat = mats.reshape(-1, dim * dim)
    off_x, near, far, anti = _x_layout(dim)
    x = ~np.take(flat, off_x, axis=1).any(axis=1)
    if dim < 2 or not x.any():
        return np.linalg.eigvalsh(mats)
    # the closed form of every matrix, overwritten where eigvalsh runs
    a, b, z = flat[:, near].real, flat[:, far].real, flat[:, anti]
    mean, half = 0.5 * (a + b), 0.5 * (a - b)
    # |z| by correctly rounded operations only, so no SIMD path can make a
    # value depend on its position in the stack
    radius = np.sqrt(half * half + (z.real * z.real + z.imag * z.imag))
    eigs = np.sort(np.concatenate((mean - radius, mean + radius), axis=1), axis=1)
    if not x.all():
        eigs[~x] = np.linalg.eigvalsh(flat[~x].reshape(-1, dim, dim))
    return eigs.reshape(mats.shape[:-1])


def density_spectra(mats):
    """Validate a density matrix, or every matrix of a (..., d, d) stack: finite
    entries, Hermitian within HERM_TOL, unit trace within TRACE_TOL, lowest
    eigenvalue at least EIG_FLOOR. Returns the ascending spectra, (..., d),
    from `hermitian_spectra`: closed form for X-shaped matrices, one eigvalsh
    call for the rest.

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
        bad = np.flatnonzero(np.abs(traces - 1.0) > TRACE_TOL)
    if err > HERM_TOL:
        raise NotHermitianError(f"density matrix is not Hermitian: residual {err:.3e} > {HERM_TOL:.1e}")
    if bad.size:
        tr = complex(traces[bad[0]])
        raise ValueError(f"density matrix trace {tr:.12g} deviates from 1 by > {TRACE_TOL:.1e}")
    # an entry of modulus above about 1e154, which no density matrix has,
    # overflows the closed form, whose lowest eigenvalue is then -inf
    with np.errstate(over="ignore", invalid="ignore"):
        eigs = hermitian_spectra(mats)
    lowest = eigs[..., 0].reshape(-1)
    bad = np.flatnonzero(lowest < EIG_FLOOR)
    if bad.size:
        raise NotPSDError(f"density matrix has eigenvalue {lowest[bad[0]]:.3e} < {EIG_FLOOR:.1e}")
    return eigs


def spectral_ranks(eigs, tol=RANK_TOL):
    """Count of eigenvalues strictly above tol (absolute; trace is 1) in each
    spectrum of a (..., d) stack."""
    return np.count_nonzero(np.asarray(eigs) > tol, axis=-1)


class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix on n qubits.

    Validated on construction by `density_spectra`; raises NotHermitianError /
    ValueError / NotPSDError when the tolerances (HERM_TOL, TRACE_TOL,
    EIG_FLOOR) are violated. The eigenvalue spectrum is computed once and
    reused for rank.
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

    @property
    def dim(self):
        return self.mat.shape[0]

    @property
    def eigenvalues(self):
        """Spectrum in ascending order."""
        return self._eigs

    @property
    def rank(self):
        return numerical_rank(self)

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits}, rank={self.rank})"


def numerical_rank(rho, tol=RANK_TOL):
    """Count of eigenvalues strictly above tol (absolute; trace is 1)."""
    return int(spectral_ranks(rho.eigenvalues, tol))
