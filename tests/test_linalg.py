import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab import experiments, linalg
from conclab.channels import draw_params, moving_qubits, support_plan
from conclab.errors import (
    DimensionMismatchError,
    InvalidPermutationError,
    NotHermitianError,
    NotPSDError,
)
from conclab.linalg import (
    EIG_FLOOR,
    HERM_TOL,
    RANK_TOL,
    TRACE_TOL,
    DensityMatrix,
    block_partition,
    block_spectra,
    density_spectra,
    n_qubits_of,
    permutation_indices,
    spectral_ranks,
)

from conclab.experiments import CATALOGUE, figure1_scan
from conclab.factorization import _scenario
from conclab.states import parse_state
from oracles import dense_rows, psd_sqrt, random_psd, reorder_qubits


def bell_density():
    v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return DensityMatrix(np.outer(v, v.conj()))


class TestPsdSqrt:
    """The oracles' PSD root, which the dense and block oracles build on."""

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
        """The clamp sits at 0: an eigenvalue just below it gives a zero root
        eigenvalue, one just above gives its square root."""
        def root(eig):
            m = np.diag([1.0, eig]).astype(complex)
            r = psd_sqrt(np.array([np.eye(2, dtype=complex), m]) if stacked else m)
            return r[-1] if stacked else r

        tiny = 1e-20
        assert np.array_equal(root(-tiny), np.diag([1.0, 0.0]))
        assert np.allclose(root(tiny), np.diag([1.0, 1e-10]), rtol=0, atol=1e-24)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_clamp_edge_inside_a_stack_acts_as_alone(self, factor):
        """One block whose lowest eigenvalue sits at the interlacing bound
        EIG_FLOOR - 4 * HERM_TOL, times 1 +- 1e-3, among random PSD blocks
        clamps to the same root as on its own, and raises nothing."""
        rng = np.random.default_rng(19)
        low = (EIG_FLOOR - 4 * HERM_TOL) * factor
        edge = _rotated([0.4, 0.3, 0.3 - low, low], rng)
        stack = np.array([random_psd(4, rng) for _ in range(5)] + [edge]
                         + [random_psd(4, rng) for _ in range(3)])
        alone = psd_sqrt(edge)
        assert np.array_equal(psd_sqrt(stack)[5], alone)
        assert np.min(np.linalg.eigvalsh(alone)) >= -1e-15


class TestPermuteQubits:
    """`permutation_indices` against the index-loop reordering of the oracle."""

    def test_identity_permutation(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.array_equal(permutation_indices(3, (1, 2, 3)), np.arange(8))
        assert np.array_equal(reorder_qubits(m, (1, 2, 3)), m)

    def test_swap_relabels_basis(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 1.0  # |01><01|
        src = permutation_indices(2, (2, 1))
        swapped = m[np.ix_(src, src)]
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0  # |10><10|
        assert np.array_equal(swapped, expected)
        assert np.array_equal(reorder_qubits(m, (2, 1)), expected)

    def test_ghz_invariant_under_any_permutation(self):
        from itertools import permutations

        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        rho = np.outer(v, v.conj())
        for perm in permutations((1, 2, 3)):
            src = permutation_indices(3, perm)
            assert np.array_equal(rho[np.ix_(src, src)], rho)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
    def test_involution_is_exact(self, seed, n):
        rng = np.random.default_rng(seed)
        dim = 1 << n
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        perm = tuple(rng.permutation(n) + 1)
        inverse = tuple(int(np.argwhere(np.array(perm) == k)[0, 0]) + 1 for k in range(1, n + 1))
        src = permutation_indices(n, perm)
        back = permutation_indices(n, inverse)
        assert np.array_equal(m[np.ix_(src, src)], reorder_qubits(m, perm))
        assert np.array_equal(src[back], np.arange(dim))

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatchError):
            n_qubits_of(3)

    def test_rejects_bad_permutation(self):
        with pytest.raises(InvalidPermutationError):
            permutation_indices(2, (1, 1))


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

    def test_nan_trace_fails_the_trace_check(self):
        # finite entries whose trace overflows to inf + -inf = NaN: the
        # trace check, not the later spectrum check, must reject it
        m = np.diag([1e308, 1e308, -1e308, -1e308]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(np.trace(m))
        with pytest.raises(ValueError, match="^density matrix trace nan") as err:
            DensityMatrix(m)
        assert type(err.value) is ValueError

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


def _rotated(diag, rng):
    """A Hermitian matrix with the given spectrum in a random basis."""
    d = len(diag)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    m = u @ np.diag(np.asarray(diag, dtype=complex)) @ u.conj().T
    return (m + m.conj().T) / 2


def _x_rotated(diag, rng):
    """An X-shaped Hermitian matrix with the given spectrum: the eigenvalues
    (diag[i], diag[d-1-i]) in a random basis of each half {i, d-1-i}. Its
    entries off the diagonal and anti-diagonal are exactly 0."""
    d = len(diag)
    u = np.zeros((d, d), dtype=complex)
    for i in range(d // 2):
        half = [i, d - 1 - i]
        u[np.ix_(half, half)] = np.linalg.qr(rng.standard_normal((2, 2))
                                             + 1j * rng.standard_normal((2, 2)))[0]
    m = u @ np.diag(np.asarray(diag, dtype=complex)) @ u.conj().T
    return (m + m.conj().T) / 2



class TestDensitySpectra:
    """Stack validation raises what the single-matrix path raises for the
    one matrix that sits just past a threshold, and nothing just inside."""

    @staticmethod
    def stack_with(bad, rng, at=2, size=5):
        mats = [_rotated(rng.dirichlet(np.ones(4)), rng) for _ in range(size)]
        mats[at] = bad
        return np.array(mats)

    @staticmethod
    def past_hermitian(factor, rng):
        m = _rotated([0.4, 0.3, 0.2, 0.1], rng)
        m[0, 1] += HERM_TOL * factor
        return m

    @staticmethod
    def past_trace(factor, rng):
        return _rotated([0.4, 0.3, 0.2, 0.1 + TRACE_TOL * factor], rng)

    @staticmethod
    def past_floor(factor, rng):
        low = EIG_FLOOR * factor
        return np.diag([0.5, 0.3, 0.2 - low, low]).astype(complex)

    @staticmethod
    def past_floor_x(factor, rng):
        low = EIG_FLOOR * factor
        return _x_rotated([0.5, 0.3, 0.2 - low, low], rng)

    @staticmethod
    def past_floor_rotated(factor, rng):
        low = EIG_FLOOR * factor
        return _rotated([0.5, 0.3, 0.2 - low, low], rng)

    @pytest.mark.parametrize("make,error", [
        ("past_hermitian", NotHermitianError),
        ("past_trace", ValueError),
        ("past_floor", NotPSDError),
        ("past_floor_x", NotPSDError),
        ("past_floor_rotated", NotPSDError),
    ])
    def test_one_matrix_past_a_threshold(self, make, error):
        rng = np.random.default_rng(29)
        bad = getattr(self, make)(1 + 1e-2, rng)
        with pytest.raises(error) as alone:
            DensityMatrix(bad)
        with pytest.raises(error) as stacked:
            density_spectra(self.stack_with(bad, rng))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        ok = getattr(self, make)(1 - 1e-2, rng)
        eigs = density_spectra(self.stack_with(ok, rng))
        assert np.array_equal(eigs[2], DensityMatrix(ok).eigenvalues)

    def test_first_failing_matrix_is_reported(self):
        rng = np.random.default_rng(31)
        first = self.past_floor(2.0, rng)
        stack = self.stack_with(first, rng, at=1)
        stack[3] = self.past_floor(3.0, rng)
        with pytest.raises(NotPSDError) as alone:
            DensityMatrix(first)
        with pytest.raises(NotPSDError, match=f"^{re.escape(str(alone.value))}$"):
            density_spectra(stack)

    def test_spectra_equal_density_matrix_eigenvalues(self):
        from oracles import random_density

        rng = np.random.default_rng(37)
        mats = np.array([random_density(3, 1 + k % 8, rng) for k in range(12)])
        eigs = density_spectra(mats)
        for m, e in zip(mats, eigs):
            assert np.array_equal(DensityMatrix(m).eigenvalues, e)

    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_rank_edge_matches_numerical_rank(self, factor):
        rng = np.random.default_rng(41)
        mats = []
        for k in range(6):
            small = [RANK_TOL * factor] * (k % 3)
            big = rng.dirichlet(np.ones(4 - len(small))) * (1 - sum(small))
            mats.append(np.diag(np.concatenate([big, small])).astype(complex))
        ranks = spectral_ranks(density_spectra(np.array(mats)))
        assert ranks.tolist() == [DensityMatrix(m).rank for m in mats]
        expected = [4 if factor > 1 else 4 - k % 3 for k in range(6)]
        assert ranks.tolist() == expected


class TestNumericalRank:
    def test_pure_state_rank_one(self):
        assert bell_density().rank == 1

    def test_mixture_rank(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
        assert rho.rank == 3

    def test_tolerance_knob(self):
        rho = DensityMatrix(np.diag([1.0 - 1e-6, 1e-6]).astype(complex))
        assert rho.rank == 2
        assert spectral_ranks(rho.eigenvalues, tol=1e-3) == 1


def _off_x(d):
    i, j = np.indices((d, d))
    return (i != j) & (i + j != d - 1)


@pytest.fixture
def eigvalsh_stacks(monkeypatch):
    """(number of matrices, dimension) of every `eigvalsh` call made from
    `conclab.linalg`. Calls from anywhere else are not counted."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mats, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == linalg.__name__:
            shape = np.shape(mats)
            seen.append((int(np.prod(shape[:-2])), shape[-1]))
        return eigvalsh(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


class TestHermitianSpectra:
    """Input spectra: one `eigvalsh` call validates X-shaped, diagonal and
    rotated stacks, and a matrix's spectrum, rank and error do not depend on
    the stack it shares."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_x_states_match_eigvalsh(self, n, eigvalsh_stacks):
        """With a non-Hermitian error of HERM_TOL * (1 - 1e-3) on the upper
        anti-diagonal of every other state, which `eigvalsh` does not read."""
        rng = np.random.default_rng(50 + n)
        d = 1 << n
        mats = np.array([_x_rotated(rng.dirichlet(np.ones(d)), rng) for _ in range(50)])
        upper = np.arange(d // 2)
        mats[::2, upper, d - 1 - upper] += (np.exp(2j * np.pi * rng.random((25, d // 2)))
                                            * HERM_TOL * (1 - 1e-3))
        assert not np.any(mats[:, _off_x(d)])
        eigs = density_spectra(mats)
        assert eigvalsh_stacks == [(50, d)]
        assert np.array_equal(eigs, np.linalg.eigvalsh(mats))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_states_stay_ordered(self, n):
        rng = np.random.default_rng(60 + n)
        for k in range(50):
            diag = rng.dirichlet(np.ones(1 << n))
            diag[1:][rng.random((1 << n) - 1) < 0.3] = 0.0
            if k % 2:
                diag[-1] = diag[0]  # a tie across one half
            diag /= diag.sum()
            eigs = density_spectra(np.diag(diag).astype(complex))
            assert np.all(np.diff(eigs) >= 0)
            assert np.max(np.abs(eigs - np.sort(diag))) <= 1e-15

    def test_one_by_one(self):
        assert density_spectra(np.ones((3, 1, 1), dtype=complex)).tolist() == [[1.0]] * 3

    @pytest.mark.parametrize("shape", ["x", "rotated"])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_rank_edge(self, factor, shape):
        rng = np.random.default_rng(70)
        make = _x_rotated if shape == "x" else _rotated
        mats = []
        for k in range(8):
            small = [RANK_TOL * factor] * (k % 4)
            big = rng.dirichlet(np.ones(8 - len(small))) * (1 - sum(small))
            mats.append(make(np.concatenate([big, small]), rng))
        mats = np.array(mats)
        assert np.any(mats[:, _off_x(8)]) == (shape == "rotated")
        ranks = spectral_ranks(density_spectra(mats))
        assert ranks.tolist() == [DensityMatrix(m).rank for m in mats]
        assert ranks.tolist() == [8 if factor > 1 else 8 - k % 4 for k in range(8)]

    @pytest.mark.parametrize("triangle", ["upper", "lower"])
    def test_one_off_x_entry_reaches_eigvalsh(self, triangle, eigvalsh_stacks):
        rng = np.random.default_rng(90)
        for i, j in zip(*np.nonzero(_off_x(8))):
            if (i < j) != (triangle == "upper"):
                continue
            m = _x_rotated(rng.dirichlet(np.ones(8)), rng)
            m[i, j] = 0.5 * HERM_TOL
            assert np.array_equal(density_spectra(m), np.linalg.eigvalsh(m))
        assert eigvalsh_stacks == [(1, 8)] * 24

    def test_mixed_stack_equals_one_state_calls(self, eigvalsh_stacks):
        from oracles import random_density

        rng = np.random.default_rng(100)
        mats = []
        for k in range(12):
            if k % 3 == 0:
                mats.append(random_density(3, 1 + k % 8, rng))
            elif k % 3 == 1:
                mats.append(_x_rotated(rng.dirichlet(np.ones(8)), rng))
            else:
                mats.append(np.diag(rng.dirichlet(np.ones(8))).astype(complex))
        mats = np.array(mats)
        eigs = density_spectra(mats)
        assert eigvalsh_stacks == [(12, 8)]
        for m, e in zip(mats, eigs):
            assert np.array_equal(density_spectra(m), e)


# every catalogued scenario, and the rank-16 one the benchmark runs
EVOLVED = [entry[:2] for entry in CATALOGUE] + [("ghz4", ("GeneralPauli",) * 4)]


class TestSpectraTraffic:
    """Which evolved stacks reach `eigvalsh`, and at what size: final ranks
    are read from the support blocks, so only the W states', whose one
    block is larger than 2x2, make one call on that block."""

    @pytest.mark.parametrize("state, families", EVOLVED,
                             ids=["-".join((s, *f)) for s, f in EVOLVED])
    def test_final_states(self, state, families, eigvalsh_stacks):
        scenario = _scenario(state, families, None, None, "auto", "last")
        eigvalsh_stacks.clear()
        params = draw_params(families, np.random.default_rng(1900), 64)
        scenario.final_states(params)
        assert eigvalsh_stacks == {"w3": [(64, 3)], "w4": [(64, 4)]}.get(state, [])

    def test_figure1_scan(self, eigvalsh_stacks):
        # the only state validated is rho0, when the sweep compiles; no
        # evolved state reaches eigvalsh
        experiments._sweep.cache_clear()
        figure1_scan()
        assert eigvalsh_stacks == [(1, 8)]


class TestBlockRanks:
    """Final spectra and ranks read from the support blocks (`block_spectra`),
    against the full spectra."""

    @pytest.mark.parametrize("state, families", EVOLVED,
                             ids=["-".join((s, *f)) for s, f in EVOLVED])
    def test_equal_full_spectrum_ranks(self, state, families):
        rho0 = parse_state(state).to_density().mat
        moving = moving_qubits(enumerate(families, start=1))
        params = draw_params(families, np.random.default_rng(2300), 2000)
        rows, ranks = _scenario(state, families, None, None, "auto", "last").final_states(params)
        plan = support_plan(rho0 != 0, moving)
        finals = dense_rows(rows, plan.entries, plan.dim)
        full = np.linalg.eigvalsh(finals)
        assert np.array_equal(ranks, spectral_ranks(full))
        blocks = plan.blocks
        assert np.max(np.abs(np.sort(block_spectra(rows, blocks, plan.dim)) - full)) <= 1e-15

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("edge", [RANK_TOL, np.nextafter(RANK_TOL, 1.0)],
                             ids=["at", "above"])
    def test_rank_edge(self, size, edge):
        """A block eigenvalue at RANK_TOL is dropped and one just above it
        kept, as `spectral_ranks` counts `eigvalsh`'s spectra, for each block
        size: the diagonal, the 2x2 closed form and `eigvalsh` per size."""
        d, block, isolated = (4, [0, 3], 1) if size == 2 else (16, [1, 2, 4, 8][:size], 0)
        pattern = np.zeros((d, d), dtype=bool)
        pattern[np.ix_(block, block)] = True
        pattern[isolated, isolated] = True
        partition = block_partition(pattern)
        assert [k for k, _ in partition] == sorted({1, size})
        mats = []
        for j in range(size + 1):  # j of the block's eigenvalues at the edge
            diag = np.zeros(d)
            diag[block] = 0.25
            diag[block[:j]] = edge
            diag[isolated] = edge  # a 1x1 block
            mats.append(np.diag(diag).astype(complex))
        mats = np.array(mats)
        eigs = block_spectra(mats, partition, d)
        assert np.array_equal(np.sort(eigs), np.linalg.eigvalsh(mats))
        ranks = spectral_ranks(eigs)
        assert ranks.tolist() == spectral_ranks(np.linalg.eigvalsh(mats)).tolist()
        if edge > RANK_TOL:
            assert ranks.tolist() == [size + 1] * (size + 1)
        else:
            assert ranks[0] == size and ranks[-1] == 0

    def test_pair_eigenvalues_match_the_masked_division(self):
        """The 2x2 closed form floors its gap at the smallest subnormal
        instead of masking the division where the gap is 0, which it is
        only where |z|^2 is: on a seeded batch of random blocks, with equal
        diagonals, zero couplings and entries down to subnormals mixed in,
        both give the same bits."""
        rng = np.random.default_rng(2400)
        k = 4096
        a, b = rng.random(k) - 0.1, rng.random(k) - 0.1
        z = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) \
            * 10.0 ** rng.integers(-320, 1, k)
        scale = 10.0 ** rng.integers(-320, 1, k)
        a[1::4] *= scale[1::4]
        b[1::4] *= scale[1::4]
        b[::2] = a[::2]
        z[::8] = 0.0
        half = 0.5 * np.abs(a - b)
        zz = z.real * z.real + z.imag * z.imag
        gap = np.sqrt(half * half + zz) + half
        shift = np.divide(zz, gap, out=np.zeros_like(zz), where=gap > 0)
        want = (np.minimum(a, b) - shift, np.maximum(a, b) + shift)
        got = linalg._pair_eigenvalues(a, b, z)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert np.count_nonzero(gap == 0) >= k // 8
        assert np.count_nonzero((gap > 0) & (gap < 1e-300)) > 0

    def test_partition_of_w4_under_phase_flips(self):
        """One 4x4 block on the W4 support; the 12 states it leaves out hold
        eigenvalues 0."""
        partition = block_partition(parse_state("w4").to_density().mat != 0)
        assert [k for k, _ in partition] == [4]
        assert partition[0][1].tolist() == [[[r * 16 + c for c in (1, 2, 4, 8)]
                                             for r in (1, 2, 4, 8)]]

