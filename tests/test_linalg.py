import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab.errors import (
    DimensionMismatchError,
    InvalidPermutationError,
    NotHermitianError,
    NotPSDError,
)
from conclab.linalg import (
    IDENTITY_2,
    PSD_CLAMP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    hermitian_eig,
    kron,
    numerical_rank,
    permute_qubits,
    psd_sqrt,
)

from oracles import char_poly_roots_desc, random_hermitian, random_psd


def bell_density():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_y_pair(self):
        # expand by hand: anti-diagonal (-1, 1, 1, -1) reading from top-right
        expected = np.array([
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ], dtype=complex)
        assert np.allclose(kron(SIGMA_Y, SIGMA_Y), expected, atol=0)

    def test_sigma_x_sigma_z_on_00(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(kron(SIGMA_X, SIGMA_Z) @ ket00, ket10, atol=0)

    def test_block_dimensions(self):
        a = np.arange(9.0).reshape(3, 3)
        b = np.arange(4.0).reshape(2, 2)
        assert kron(a, b).shape == (6, 6)


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4), atol=0)

    def test_sigma_y_spectrum(self):
        w, _ = hermitian_eig(SIGMA_Y)
        assert np.allclose(w, [1.0, -1.0], atol=1e-15)

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eig(m)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_characteristic_polynomial(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            m = random_hermitian(d, rng)
            w, _ = hermitian_eig(m)
            assert np.allclose(w, char_poly_roots_desc(m), atol=1e-8)

    def test_reconstruction_many_sizes(self):
        rng = np.random.default_rng(42)
        for k in range(1000):
            d = int(rng.integers(2, 17))
            m = random_hermitian(d, rng)
            w, v = hermitian_eig(m)
            scale = 1.0 + np.max(np.abs(m))
            assert list(w) == sorted(w, reverse=True)
            assert np.max(np.abs(m - (v * w) @ v.conj().T)) <= 1e-9 * scale
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        m = np.diag([4.0, 0.0]).astype(complex)
        assert np.allclose(psd_sqrt(m), np.diag([2.0, 0.0]), atol=1e-14)

    def test_two_projector_mixture(self):
        # rho = (|00><00| + |11><11|)/2 has root (|00><00| + |11><11|)/sqrt(2)
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        expected = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex) / np.sqrt(2)
        assert np.allclose(psd_sqrt(rho), expected, atol=1e-14)

    def test_roundtrip_many(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 17))
            m = random_psd(d, rng)
            r = psd_sqrt(m)
            assert np.max(np.abs(r @ r - m)) <= 1e-8

    def test_clamps_small_negative(self):
        m = np.diag([1.0, -5e-9]).astype(complex)
        r = psd_sqrt(m)
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1e-6]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            psd_sqrt(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_stack_matches_per_matrix_loop(self):
        rng = np.random.default_rng(11)
        for shape in ((5,), (2, 3)):
            stack = np.array([random_psd(4, rng) for _ in range(int(np.prod(shape)))])
            stack = stack.reshape(shape + (4, 4))
            roots = psd_sqrt(stack)
            assert roots.shape == stack.shape
            for k in np.ndindex(shape):
                assert np.max(np.abs(roots[k] - psd_sqrt(stack[k]))) <= 1e-14

    @pytest.mark.parametrize("stacked", [False, True])
    def test_clamp_edge(self, stacked):
        def matrix(eig):
            m = np.diag([1.0, eig]).astype(complex)
            return np.array([np.eye(2, dtype=complex), m]) if stacked else m

        r = psd_sqrt(matrix(-PSD_CLAMP * (1 - 1e-3)))
        assert np.allclose(r[-1] if stacked else r, np.diag([1.0, 0.0]), atol=1e-12)
        with pytest.raises(NotPSDError):
            psd_sqrt(matrix(-PSD_CLAMP * (1 + 1e-3)))

    def test_stack_rejects_one_non_hermitian_matrix(self):
        stack = np.array([np.eye(2), [[1, 1], [0, 1]]], dtype=complex)
        with pytest.raises(NotHermitianError):
            psd_sqrt(stack)


class TestPermuteQubits:
    def test_identity_permutation(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.array_equal(permute_qubits(m, (1, 2, 3)), m)

    def test_swap_relabels_basis(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 1.0  # |01><01|
        swapped = permute_qubits(m, (2, 1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0  # |10><10|
        assert np.array_equal(swapped, expected)

    def test_ghz_invariant_under_any_permutation(self):
        from itertools import permutations

        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        for perm in permutations((1, 2, 3)):
            assert np.array_equal(permute_qubits(rho, perm), rho)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
    def test_involution_is_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        dim = 1 << n
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        perm = tuple(rng.permutation(n) + 1)
        inverse = tuple(int(np.argwhere(np.array(perm) == k)[0, 0]) + 1 for k in range(1, n + 1))
        assert np.array_equal(permute_qubits(permute_qubits(m, perm), inverse), m)

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatchError):
            permute_qubits(np.eye(3), (1, 2))

    def test_rejects_bad_permutation(self):
        with pytest.raises(InvalidPermutationError):
            permute_qubits(np.eye(4), (1, 1))


class TestDensityMatrix:
    def test_valid_bell(self):
        rho = bell_density()
        assert rho.n_qubits == 2
        assert abs(rho.mat.trace() - 1) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSDError):
            DensityMatrix(np.diag([1.1, -0.1]).astype(complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(3, dtype=complex) / 3)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3), rank=st.integers(1, 4))
    def test_random_mixtures_pass_invariants(self, seed, n, rank):
        from oracles import random_density

        rho = DensityMatrix(random_density(n, rank, np.random.default_rng(seed)))
        assert abs(rho.mat.trace().real - 1.0) <= 1e-9
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) <= 1e-9
        assert rho.eigenvalues[0] >= -1e-9


class TestNumericalRank:
    def test_pure_state_rank_one(self):
        assert numerical_rank(bell_density()) == 1

    def test_mixture_rank(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        assert rho.rank == 3

    def test_tolerance_knob(self):
        rho = DensityMatrix(np.diag([1.0 - 1e-6, 1e-6]).astype(complex))
        assert numerical_rank(rho) == 2
        assert numerical_rank(rho, tol=1e-3) == 1
