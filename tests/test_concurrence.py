import sys
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab import concurrence
from conclab.channels import (
    FAMILIES,
    PauliChannel,
    apply,
    draw_params,
    flip_channel,
    flip_params,
    moving_qubits,
    sample_channel,
    support_plan,
)
from conclab.concurrence import (
    Bipartition,
    _pair_blocks,
    _pair_spectra,
    bipartite_concurrence,
    cut_concurrence,
    cut_totals,
    parse_cut,
    tau3,
    tau3_stack,
    wootters,
)
from conclab.errors import DimensionMismatchError
from conclab.experiments import CATALOGUE, _tau3_bpf3
from conclab.factorization import _factor_states, _final_states
from conclab.linalg import (
    EIG_FLOOR,
    HERM_TOL,
    TRACE_TOL,
    DensityMatrix,
    block_spectra,
    density_spectra,
)
from conclab.states import bell, ghz, parse_state, random_pure, w

from oracles import (
    all_cuts,
    bell_mixture_concurrence,
    dense_cut_concurrence,
    principal_block_indices,
    pure_cut_concurrence,
    random_density,
    random_unitary,
    rotation_generators,
    svd_block_spectra,
    wootters_charpoly,
)

SQ2 = 1 / np.sqrt(2)


def bell_mixture(x):
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    return DensityMatrix(x * np.outer(phi, phi) + (1 - x) * np.outer(psi, psi))


class TestGenerators:
    """The rotation generators of the dense reference formula, whose pair
    order the kernel's PairTerm labels follow."""

    def test_unique_two_dimensional_generator(self):
        gens = rotation_generators(2)
        assert len(gens) == 1
        assert np.array_equal(gens[0], np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("d,count", [(2, 1), (4, 6), (8, 28)])
    def test_counts(self, d, count):
        assert len(rotation_generators(d)) == d * (d - 1) // 2

    def test_antisymmetric_rank_two(self):
        for g in rotation_generators(4):
            assert np.array_equal(g, -g.T)
            assert np.linalg.matrix_rank(g) == 2

    def test_lexicographic_order(self):
        gens = rotation_generators(3)
        positions = [tuple(np.argwhere(g == 1.0)[0]) for g in gens]
        assert positions == [(0, 1), (0, 2), (1, 2)]


class TestWootters:
    def test_maximally_entangled(self):
        assert abs(wootters(bell(SQ2).to_density()) - 1.0) < 1e-12

    def test_product_state(self):
        assert wootters(bell(1.0).to_density()) == 0.0

    def test_two_bell_mixture(self):
        rho = bell_mixture(0.7)  # weights (0.7, 0.3)
        assert abs(wootters(rho) - 0.4) < 1e-12
        assert abs(wootters(rho) - bell_mixture_concurrence(0.7)) < 1e-12
        assert abs(wootters(rho) - wootters_charpoly(rho.mat)) < 1e-8

    def test_characteristic_polynomial_keeps_a_small_root(self):
        """(1 (x) $) phi+ is Bell-diagonal with weights a_k^2, concurrence
        max(0, 2 max_k a_k^2 - 1); these weights give the flip product a
        root of about 3e-7 and a constant coefficient of about 1e-15."""
        weights = np.array([0.00665, 0.00977, 0.983, 0.000557])
        weights /= weights.sum()
        rho = apply({2: PauliChannel(np.sqrt(weights))}, bell(SQ2).to_density())
        expected = max(0.0, 2.0 * weights.max() - 1.0)
        assert abs(wootters_charpoly(rho.mat) - expected) <= 1e-8
        assert abs(wootters(rho) - wootters_charpoly(rho.mat)) <= 1e-8

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = wootters(DensityMatrix(random_density(2, 4, rng)))
            assert 0.0 <= c <= 1.0

    def test_matches_characteristic_polynomial_on_low_rank(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            rho = DensityMatrix(random_density(2, 2, rng))
            assert abs(wootters(rho) - wootters_charpoly(rho.mat)) <= 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            rho = DensityMatrix(random_density(2, 3, rng))
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
            assert abs(wootters(rotated) - wootters(rho)) <= 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            wootters(ghz(3).to_density())


class TestBipartite:
    def test_reduces_to_wootters(self):
        rng = np.random.default_rng(43)
        cut = Bipartition((1,), (2,))
        for _ in range(50):
            rho = DensityMatrix(random_density(2, 2, rng))
            breakdown = bipartite_concurrence(rho, cut)
            assert len(breakdown.pairs) == 1
            assert abs(breakdown.total - wootters(rho)) <= 1e-10

    def test_ghz3_cut(self):
        total = bipartite_concurrence(ghz(3).to_density(), parse_cut("12|3")).total
        assert abs(total - 1.0) < 1e-10

    def test_w3_cut(self):
        total = bipartite_concurrence(w(3).to_density(), parse_cut("12|3")).total
        assert abs(total - 2 * np.sqrt(2) / 3) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.sampled_from([3, 4]))
    def test_pure_state_purity_oracle(self, seed, n):
        psi = random_pure(n, np.random.default_rng(seed))
        rho = psi.to_density()
        for block1, block2 in all_cuts(n):
            got = bipartite_concurrence(rho, Bipartition(block1, block2)).total
            assert abs(got - pure_cut_concurrence(psi.amplitudes, block1)) <= 1e-8

    def test_block_order_invariance(self):
        channels = [flip_channel("BF", p) for p in (0.15, 0.3, 0.45)]
        rho = apply(dict(enumerate(channels, start=1)), ghz(3).to_density())
        a = bipartite_concurrence(rho, Bipartition((1, 2), (3,))).total
        b = bipartite_concurrence(rho, Bipartition((2, 1), (3,))).total
        assert abs(a - b) <= 1e-10

    def test_total_recomputes_from_pairs(self):
        rho = apply(dict.fromkeys((1, 2, 3), flip_channel("BF", 0.2)), ghz(3).to_density())
        breakdown = bipartite_concurrence(rho, parse_cut("12|3"))
        total = np.sqrt(sum(p.value ** 2 for p in breakdown.pairs))
        assert abs(breakdown.total - total) <= 1e-12

    def test_pair_indices_are_lexicographic(self):
        breakdown = bipartite_concurrence(ghz(3).to_density(), parse_cut("12|3"))
        assert [(p.m, p.n) for p in breakdown.pairs] == [(m, 1) for m in range(1, 7)]

    def test_two_qubit_state_never_leaks(self):
        # one pair with exactly four l's: nothing lies beyond the top four
        rho = bell_mixture(0.8)
        for cut in (Bipartition((1,), (2,)), Bipartition((2,), (1,))):
            total = bipartite_concurrence(rho, cut).total
            assert abs(total - 0.6) <= 1e-12
            terms, _ = dense_cut_concurrence(rho.mat, cut.block1, cut.block2)
            assert [len(lam) for _, _, lam, _ in terms] == [4]

    def test_cut_state_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bipartite_concurrence(ghz(3).to_density(), parse_cut("12|34"))

    def test_cut_concurrence_dispatch(self):
        rho = bell_mixture(0.8)
        assert cut_concurrence(rho, Bipartition((1,), (2,))) == wootters(rho)


class TestTau3:
    def test_ghz3_is_maximal(self):
        assert abs(tau3(ghz(3).to_density()) - 1.0) < 1e-10

    def test_fully_mixed_vanishes(self):
        assert tau3(DensityMatrix(np.eye(8, dtype=complex) / 8)) == 0.0

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            tau3(bell(SQ2).to_density())

    def test_rms_of_the_three_cut_totals(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            rho = DensityMatrix(random_density(3, 3, rng))
            totals = [bipartite_concurrence(rho, parse_cut(label)).total
                      for label in ("12|3", "13|2", "23|1")]
            assert abs(tau3(rho) - np.sqrt(sum(t * t for t in totals) / 3)) <= 1e-14

    def test_symmetric_scenario_matches_single_cut(self):
        ch = flip_channel("BPF", 0.2)
        rho = apply({1: ch, 2: ch, 3: ch}, ghz(3).to_density())
        single = bipartite_concurrence(rho, parse_cut("12|3")).total
        assert abs(tau3(rho) - single) <= 1e-10


NAMED_STATES = {2: ("bell",), 3: ("ghz3", "w3"), 4: ("ghz4", "w4")}


def evolved_case(rng):
    """A random or catalogued 2-4 qubit state through one sampled channel of a
    random family per qubit, and a random cut with random block orders."""
    n = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        psi = random_pure(n, rng)
    else:
        psi = parse_state(str(rng.choice(NAMED_STATES[n])))
    channels = [sample_channel(str(f), rng) for f in rng.choice(FAMILIES, size=n)]
    rho = apply(dict(enumerate(channels, start=1)), psi.to_density())
    order = tuple(int(q) + 1 for q in rng.permutation(n))
    split = int(rng.integers(1, n))
    return rho, order[:split], order[split:]


class TestDenseOracle:
    """The principal-block kernel against the dense definition: full-dimension
    square root, Kronecker-built inversions, reordering by index loops."""

    def test_matches_dense_definition(self):
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(500):
            rho, block1, block2 = evolved_case(rng)
            got = bipartite_concurrence(rho, Bipartition(block1, block2))
            terms, total = dense_cut_concurrence(rho.mat, block1, block2)
            assert [(p.m, p.n) for p in got.pairs] == [(m, n) for m, n, _, _ in terms]
            for pair, (_, _, lam, value) in zip(got.pairs, terms):
                assert abs(pair.value - value) <= 1e-8
                # the dense spectrum beyond the top four is numerically empty
                assert np.max(lam[4:], initial=0.0) ** 2 <= 1e-8
            # the full-dimension root carries sqrt(eps) noise; the l's read
            # from the eigh factor agree with the rebuilt block root to 1e-12
            lam = svd_block_spectra(principal_blocks(rho.mat, block1, block2))
            assert np.max(np.abs(np.array([p.lambdas for p in got.pairs]) - lam)) <= 1e-12
            worst = max(worst, abs(got.total - total))
        assert worst <= 1e-8

    def test_sixty_digit_reference(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2004)
        flip = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        cases = 0
        while cases < 20:
            rho, block1, block2 = evolved_case(rng)
            if len(block1) + len(block2) == 4 and cases % 8:
                continue  # a few four-qubit cuts keep the reference fast
            cases += 1
            got = bipartite_concurrence(rho, Bipartition(block1, block2))
            reference = []
            with mp.workdps(60):
                for (m, n, idx), pair in zip(principal_block_indices(block1, block2), got.pairs):
                    assert (pair.m, pair.n) == (m, n)
                    block = mp.matrix([[complex(rho.mat[i, j]) for j in idx] for i in idx])
                    eigs = mp.eig(block * flip * block.conjugate() * flip,
                                  left=False, right=False)
                    lam = sorted((mp.sqrt(max(mp.mpf(0), mp.re(e))) for e in eigs), reverse=True)
                    value = max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])
                    assert max(abs(float(a - b)) for a, b in zip(lam, pair.lambdas)) <= 1e-12
                    assert abs(float(value - pair.value)) <= 1e-12
                    reference.append(value)
                total = mp.sqrt(sum(v * v for v in reference))
            assert abs(float(total - got.total)) <= 1e-12


def _edge_state(n, rng):
    """A state that `density_spectra` accepts at both edges: the triangle that
    eigvalsh reads has lowest eigenvalue EIG_FLOOR * (1 - 1e-3), and the other
    triangle carries a non-Hermitian error of modulus HERM_TOL * (1 - 1e-3)."""
    dim = 1 << n
    low = EIG_FLOOR * (1 - 1e-3)
    rank = int(rng.integers(1, dim))
    spectrum = np.zeros(dim)
    spectrum[0] = low
    spectrum[dim - rank:] = rng.dirichlet(np.ones(rank)) * (1 - low)
    u = random_unitary(dim, rng)
    h = (u * spectrum) @ u.conj().T
    h = (h + h.conj().T) / 2
    phases = np.exp(2j * np.pi * rng.random((dim, dim)))
    return h + np.triu(phases, 1) * HERM_TOL * (1 - 1e-3)


class TestValidatedBlocks:
    """Why the kernel checks nothing: every principal block of a validated
    state is Hermitian to HERM_TOL, and by Cauchy interlacing its eigenvalues,
    read from either triangle, stay at or above EIG_FLOOR - 4 * HERM_TOL."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_blocks_of_edge_states(self, n):
        rng = np.random.default_rng(1000 + n)
        mats = np.array([_edge_state(n, rng) for _ in range(40)])
        eigs = density_spectra(mats)
        assert np.all(eigs[:, 0] <= 0.99 * EIG_FLOOR)
        assert np.max(np.abs(mats - np.swapaxes(mats.conj(), -1, -2))) > 0.99 * HERM_TOL
        for order in permutations(range(1, n + 1)):
            for split in range(1, n):
                block1, block2 = order[:split], order[split:]
                for _, _, idx in principal_block_indices(block1, block2):
                    blocks = mats[:, idx][:, :, idx]
                    herm = np.max(np.abs(blocks - np.swapaxes(blocks.conj(), -1, -2)))
                    assert herm <= HERM_TOL
                    for uplo in "LU":
                        lowest = np.linalg.eigvalsh(blocks, UPLO=uplo)[:, 0]
                        assert np.min(lowest) >= EIG_FLOOR - 4 * HERM_TOL

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_dense_formula_on_edge_states(self, n):
        rng = np.random.default_rng(2000 + n)
        mats = np.array([_edge_state(n, rng) for _ in range(4)])
        density_spectra(mats)
        for block1, block2 in all_cuts(n):
            for cut in (Bipartition(block1, block2), Bipartition(block2[::-1], block1)):
                got = cut_totals(mats, cut)
                for k, m in enumerate(mats):
                    _, total = dense_cut_concurrence(m, cut.block1, cut.block2)
                    assert abs(got[k] - total) <= 1e-8


X_SHAPE = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


def principal_blocks(mat, block1, block2):
    """Every generator pair's 4x4 principal block of a cut, by the oracle's
    index sets."""
    indices = principal_block_indices(block1, block2)
    return np.array([mat[np.ix_(idx, idx)] for _, _, idx in indices])


def is_x(blocks):
    return ~np.any(blocks[..., ~X_SHAPE] != 0, axis=-1)


def has_live_y_pair(blocks):
    """Whether both states of a Y pair {0, 3} or {1, 2} of a block are live:
    their row or their column holds a nonzero entry."""
    nonzero = blocks != 0
    live = nonzero.any(axis=-1) | nonzero.any(axis=-2)
    return (live[..., 0] & live[..., 3]) | (live[..., 1] & live[..., 2])


@pytest.fixture
def eigh_blocks(monkeypatch):
    """The number of blocks of every `eigh` call the kernel makes: the first
    step of its general path. Calls from anywhere else are not counted."""
    seen = []
    eigh = np.linalg.eigh

    def counting(blocks, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == concurrence.__name__:
            seen.append(len(blocks))
        return eigh(blocks, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return seen


# the largest supports that hold one state of each Y pair {0, 3}, {1, 2}
ZERO_SUPPORTS = ([0, 1], [0, 2], [3, 1], [3, 2])


def zero_support_state(rng, support):
    """A two-qubit state supported on the basis states `support`, full rank
    there, with complex entries between them."""
    g = rng.standard_normal((len(support),) * 2) + 1j * rng.standard_normal((len(support),) * 2)
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_(support, support)] = g @ g.conj().T / np.linalg.norm(g) ** 2
    return rho


def random_x_state(rng):
    """A two-qubit state that is X-shaped: a random mixture of a random state
    on span{00, 11} and one on span{01, 10}, each of rank 1 or 2."""
    rho = np.zeros((4, 4), dtype=complex)
    weight = rng.random()
    for idx, share in (([0, 3], weight), ([1, 2], 1.0 - weight)):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g[:, 1] *= rng.integers(0, 2)
        half = g @ g.conj().T
        rho[np.ix_(idx, idx)] = share * half / np.trace(half).real
    return rho


def edge_x_state(rng, idx):
    """An X-shaped two-qubit state that `density_spectra` accepts at both
    edges: its half on the basis states `idx` has lowest eigenvalue
    EIG_FLOOR * (1 - 1e-3), and its upper anti-diagonal carries a
    non-Hermitian error of modulus HERM_TOL * (1 - 1e-3)."""
    low = EIG_FLOOR * (1 - 1e-3)
    rho = np.zeros((4, 4), dtype=complex)
    weight = 0.2 + 0.6 * rng.random()
    u = random_unitary(2, rng)
    rho[np.ix_(idx, idx)] = (u * [weight - low, low]) @ u.conj().T
    other = [k for k in range(4) if k not in idx]
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho[np.ix_(other, other)] = (1.0 - weight) * (g @ g.conj().T) / np.linalg.norm(g) ** 2
    rho = (rho + rho.conj().T) / 2
    rho[[0, 1], [3, 2]] += np.exp(2j * np.pi * rng.random(2)) * HERM_TOL * (1 - 1e-3)
    return rho


def assert_matches_block_and_dense_oracles(mat, block1, block2):
    """The kernel's l's against the root/flip/SVD oracle on the same blocks,
    and its terms and total against the dense definition, all within 1e-12.
    Returns the number of X-shaped blocks."""
    got = bipartite_concurrence(DensityMatrix(mat), Bipartition(block1, block2))
    blocks = principal_blocks(mat, block1, block2)
    lam = svd_block_spectra(blocks)
    values = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    terms, total = dense_cut_concurrence(mat, block1, block2)
    assert np.max(np.abs(np.array([p.lambdas for p in got.pairs]) - lam)) <= 1e-12
    assert np.max(np.abs(np.array([p.value for p in got.pairs]) - values)) <= 1e-12
    assert max(abs(p.value - term[3]) for p, term in zip(got.pairs, terms)) <= 1e-12
    assert abs(got.total - total) <= 1e-12
    return int(np.count_nonzero(is_x(blocks)))


class TestXBlocks:
    """X-shaped blocks (nonzero only on the diagonal and anti-diagonal) are
    read in closed form, every other block by the PSD root and the SVD; the
    choice is made per (state, pair)."""

    @pytest.mark.parametrize("k", range(len(CATALOGUE)),
                             ids=["-".join((s, *f)) for s, f, _ in CATALOGUE])
    def test_catalogue_states_match_oracles(self, k):
        state, families, _ = CATALOGUE[k]
        rng = np.random.default_rng(3000 + k)
        x_blocks = 0
        for _ in range(2):
            channels = {q: sample_channel(f, rng) for q, f in enumerate(families, start=1)}
            mat = apply(channels, parse_state(state).to_density()).mat
            for block1, block2 in all_cuts(len(families)):
                for cut in ((block1, block2), (block2[::-1], block1)):
                    x_blocks += assert_matches_block_and_dense_oracles(mat, *cut)
        assert x_blocks > 0

    def test_random_x_states_match_oracles(self):
        rng = np.random.default_rng(3100)
        for _ in range(200):
            mat = random_x_state(rng)
            for cut in (((1,), (2,)), ((2,), (1,))):
                assert assert_matches_block_and_dense_oracles(mat, *cut) == 1

    @pytest.mark.parametrize("idx", [[0, 3], [1, 2]], ids=["half-03", "half-12"])
    def test_x_states_at_the_validation_edges(self, idx):
        rng = np.random.default_rng(3200 + idx[0])
        mats = np.array([edge_x_state(rng, idx) for _ in range(40)])
        eigs = density_spectra(mats)
        assert np.all(eigs[:, 0] <= 0.99 * EIG_FLOOR)
        assert np.max(np.abs(mats - np.swapaxes(mats.conj(), -1, -2))) > 0.99 * HERM_TOL
        for mat in mats:
            for cut in (((1,), (2,)), ((2,), (1,))):
                assert assert_matches_block_and_dense_oracles(mat, *cut) == 1
            # the half with the negative eigenvalue is clamped: its lower l is 0
            pair = bipartite_concurrence(DensityMatrix(mat), parse_cut("1|2")).pairs[0]
            assert 0.0 in pair.lambdas

    def test_sixty_digit_reference(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3300)
        flip = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        ch = flip_channel("BPF", 0.2)
        mats = [random_x_state(rng) for _ in range(8)]
        mats += [bell_mixture(0.7).mat, apply({1: ch, 2: ch}, bell(SQ2).to_density()).mat]
        with mp.workdps(60):
            for mat in mats:
                pair = bipartite_concurrence(DensityMatrix(mat), parse_cut("1|2")).pairs[0]
                block = mp.matrix(mat.tolist())
                eigs = mp.eig(block * flip * block.conjugate() * flip, left=False, right=False)
                lam = sorted((mp.sqrt(max(mp.mpf(0), mp.re(e))) for e in eigs), reverse=True)
                value = max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])
                assert max(abs(float(a - b)) for a, b in zip(lam, pair.lambdas)) <= 1e-12
                assert abs(float(value - pair.value)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_diagonal_blocks_are_exactly_separable(self, n):
        rng = np.random.default_rng(3400 + n)
        for _ in range(10):
            diag = rng.random(1 << n) * rng.integers(0, 2, 1 << n)
            diag[0] += 1e-3
            mat = np.diag(diag / diag.sum()).astype(complex)
            for block1, block2 in all_cuts(n):
                got = bipartite_concurrence(DensityMatrix(mat), Bipartition(block1, block2))
                assert got.total == 0.0
                for pair, (_, _, idx) in zip(got.pairs, principal_block_indices(block1, block2)):
                    r = mat.real[idx, idx]
                    x, y = sorted((np.sqrt(r[0] * r[3]), np.sqrt(r[1] * r[2])), reverse=True)
                    assert pair.value == 0.0
                    assert pair.lambdas == (x, x, y, y)

    def test_general_path_runs_only_off_the_x(self, eigh_blocks):
        """A block goes through `eigh` exactly when one of its eight entries
        off the X is nonzero, even by less than HERM_TOL, and both states of
        a Y pair are live."""
        mat = random_x_state(np.random.default_rng(3500))
        wootters(DensityMatrix(mat))
        _tau3_bpf3(np.linspace(0.0, 0.5, 11), ghz(3).to_density().mat)
        assert eigh_blocks == []
        for i, j in zip(*np.nonzero(~X_SHAPE)):
            off = mat.copy()
            off[i, j] = 0.5 * HERM_TOL
            wootters(DensityMatrix(off))
        assert eigh_blocks == [1] * 8
        for support in ZERO_SUPPORTS:
            wootters(DensityMatrix(zero_support_state(np.random.default_rng(3501), support)))
        assert eigh_blocks == [1] * 8

    @pytest.mark.parametrize("support", ZERO_SUPPORTS + ([0], [1], [2], [3]),
                             ids=lambda s: "J" + "".join(map(str, s)))
    def test_blocks_without_a_live_y_pair_are_exactly_zero(self, support, eigh_blocks):
        """A block whose support holds at most one state of each Y pair has
        l's exactly (0, 0, 0, 0), whatever its entries off the X hold, and
        never reaches `eigh`."""
        rng = np.random.default_rng(3700 + sum(1 << k for k in support))
        for _ in range(20):
            mat = zero_support_state(rng, support)
            density_spectra(mat)
            assert not has_live_y_pair(mat)
            assert is_x(mat) == (len(support) == 1)
            for cut in (parse_cut("1|2"), parse_cut("2|1")):
                got = bipartite_concurrence(DensityMatrix(mat), cut)
                assert got.pairs[0].lambdas == (0.0, 0.0, 0.0, 0.0)
                assert got.pairs[0].value == 0.0
                assert got.total == 0.0
            assert wootters(DensityMatrix(mat)) == 0.0
        assert eigh_blocks == []

    @pytest.mark.parametrize("support", ZERO_SUPPORTS, ids=lambda s: "J" + "".join(map(str, s)))
    def test_an_entry_in_a_dead_row_or_column_sends_the_block_to_the_svd(self, support,
                                                                        eigh_blocks):
        """One entry of 0.5 * HERM_TOL between a dead state and a live one,
        in either triangle, makes the dead state live and its Y pair with
        it: the block goes through `eigh` and the SVD and matches both
        oracles. A stack of these and the zero-support states gives, bit for
        bit, the one-state l's and values."""
        rng = np.random.default_rng(3800 + sum(1 << k for k in support))
        mats = []
        for dead in sorted(set(range(4)) - set(support)):
            for live in support:
                if X_SHAPE[dead, live]:
                    continue
                base = zero_support_state(rng, support)
                for i, j in ((dead, live), (live, dead)):
                    mat = base.copy()
                    mat[i, j] = 0.5 * HERM_TOL
                    assert has_live_y_pair(mat)
                    del eigh_blocks[:]
                    assert_matches_block_and_dense_oracles(mat, (1,), (2,))
                    assert eigh_blocks == [1]
                    mats += [mat, base]
        assert len(mats) == 8
        mats = np.array(mats)
        flat = _pair_blocks((1,), (2,))[1]
        lam, values = _pair_spectra(mats, flat)
        assert np.all(lam[1::2] == 0.0)
        for k, mat in enumerate(mats):
            one_lam, one_values = _pair_spectra(mat[None], flat)
            assert np.array_equal(lam[k], one_lam[0])
            assert np.array_equal(values[k], one_values[0])

    def test_no_catalogued_block_reaches_the_svd(self, eigh_blocks):
        """Over two draws of every catalogued scenario and every cut in both
        block orders, no block enters the general path, and every block of a
        W state that is not X-shaped has no live Y pair and reports l's and
        C_mn exactly 0."""
        zero_support = 0
        for k, (state, families, _) in enumerate(CATALOGUE):
            rng = np.random.default_rng(3900 + k)
            for _ in range(2):
                channels = {q: sample_channel(f, rng) for q, f in enumerate(families, start=1)}
                mat = apply(channels, parse_state(state).to_density()).mat
                for block1, block2 in all_cuts(len(families)):
                    for cut in ((block1, block2), (block2[::-1], block1)):
                        pairs = bipartite_concurrence(DensityMatrix(mat), Bipartition(*cut)).pairs
                        blocks = principal_blocks(mat, *cut)
                        off_x = ~is_x(blocks)
                        assert not np.any(off_x & has_live_y_pair(blocks))
                        for pair in np.array(pairs)[off_x]:
                            assert pair.lambdas == (0.0, 0.0, 0.0, 0.0)
                            assert pair.value == 0.0
                        if state.startswith("w"):
                            zero_support += int(np.count_nonzero(off_x))
        assert eigh_blocks == []
        assert zero_support > 0

    def test_mixed_stack_equals_one_state_calls(self):
        """A stack in which the same pair is X-shaped in some draws and not in
        others gives, bit for bit, the one-state l's and values."""
        rng = np.random.default_rng(3600)
        ch = flip_channel("PF", 0.3)
        for n in (2, 3):
            mats = [apply({1: ch, 2: ch, 3: ch}, w(3).to_density()).mat] if n == 3 else []
            for k in range(8):
                mat = random_density(n, 1 + k % 4, rng)
                # pinching keeps a state a state: X-shaped for 2 qubits, diagonal for 3
                pinched = np.where(X_SHAPE, mat, 0.0) if n == 2 else np.diag(np.diag(mat))
                mats.append(mat if k % 2 else pinched)
            mats = np.array(mats)
            density_spectra(mats)
            for cut in (Bipartition((1,), tuple(range(2, n + 1))),
                        Bipartition(tuple(range(n, 1, -1)), (1,))):
                shapes = is_x(np.array([principal_blocks(m, cut.block1, cut.block2) for m in mats]))
                assert np.all(shapes.any(axis=0) & ~shapes.all(axis=0))
                flat = _pair_blocks(cut.block1, cut.block2)[1]
                lam, values = _pair_spectra(mats, flat)
                totals = cut_totals(mats, cut)
                for k, mat in enumerate(mats):
                    one_lam, one_values = _pair_spectra(mat[None], flat)
                    assert np.array_equal(lam[k], one_lam[0])
                    assert np.array_equal(values[k], one_values[0])
                    assert totals[k] == cut_concurrence(DensityMatrix(mat), cut)
            if n == 3:
                assert tau3_stack(mats).tolist() == [tau3(DensityMatrix(m)) for m in mats]


def edge_inputs():
    """States that `DensityMatrix` accepts at each validation edge: trace
    1 +- 0.99e-10, Hermiticity residual and lowest eigenvalue within 1e-3
    of HERM_TOL and EIG_FLOOR, on 2-4 qubits and on X-shaped halves."""
    rng = np.random.default_rng(3400)
    states = [np.diag([0.5 + sign * 0.99e-10, 0, 0, 0.5]).astype(complex) for sign in (1, -1)]
    states += [(1 + sign * 0.99e-10) * random_density(n, 1 + n, rng)
               for n in (2, 3, 4) for sign in (1, -1)]
    states += [_edge_state(n, rng) for n in (2, 3, 4)]
    states += [edge_x_state(rng, idx) for idx in ([0, 3], [1, 2])]
    return [DensityMatrix(m) for m in states]


def edge_channels(rng):
    """A channel of every family, and channels of every family whose weights
    sum to 1 +- 0.9e-12, inside PARAM_NORM_TOL."""
    channels = [flip_channel(fam, 0.3) for fam in FAMILIES[:3]]
    channels.append(sample_channel("GeneralPauli", rng))
    for sign in (1, -1):
        scale = np.sqrt(1 + sign * 0.9e-12)
        channels.append(PauliChannel((scale, 0.0, 0.0, 0.0)))
        channels += [PauliChannel(scale * flip_params(fam, 0.2), fam) for fam in FAMILIES[:3]]
        channels.append(PauliChannel(np.full(4, 0.5 * scale)))
    return channels


class TestApplyAtValidationEdges:
    """`apply` trusts what it evolves: on inputs at every validation edge and
    channels at the weight-norm edge it never raises, and its state reads
    its spectrum from the blocks of its support plan, bit for bit."""

    def test_evolved_states_are_not_revalidated(self):
        channels = edge_channels(np.random.default_rng(3401))
        trace_gap = 0.0
        for rho in edge_inputs():
            n = rho.n_qubits
            assignments = [{q: channels[(k + q) % len(channels)] for q in range(1, n + 1)}
                           for k in range(len(channels))]
            outs = [(a, rho, apply(a, rho)) for a in assignments]
            inner = apply({n: channels[-2]}, outs[-1][2])
            outs.append(({1: channels[-1]}, inner, apply({1: channels[-1]}, inner)))
            for assigned, before, out in outs:
                moving = moving_qubits((q, ch.family) for q, ch in assigned.items())
                plan = support_plan(before.mat != 0, moving)
                spectrum = np.sort(block_spectra(out.mat[None], plan.blocks)[0])
                assert np.array_equal(out.eigenvalues, spectrum)
                trace_gap = max(trace_gap, abs(out.mat.trace().real - 1.0))
        # some evolved state sits past the trace tolerance that its input met
        assert trace_gap > TRACE_TOL


class TestStackedKernel:
    """One kernel call over a stack gives, bit for bit, what the one-state
    calls give, whatever else shares the stack."""

    def test_cut_totals_equal_per_state_calls(self):
        rng = np.random.default_rng(2006)
        for n in (2, 3, 4):
            mats = np.array([random_density(n, 1 + k % 5, rng) for k in range(9)])
            for block1, block2 in (((1,), tuple(range(2, n + 1))),
                                   (tuple(range(n, 1, -1)), (1,))):
                cut = Bipartition(block1, block2)
                totals = cut_totals(mats, cut)
                for m, total in zip(mats, totals):
                    rho = DensityMatrix(m)
                    assert cut_concurrence(rho, cut) == total
                    assert bipartite_concurrence(rho, cut).total == total
                assert np.array_equal(cut_totals(mats[3:5], cut), totals[3:5])

    def test_breakdown_total_is_the_cut_total(self):
        """A breakdown's total is the kernel's cut total, bit for bit, on
        evolved states and every cut in both block orders: one helper adds
        the C_mn^2 in pair order for both."""
        rng = np.random.default_rng(2010)
        cases = 0
        for _ in range(300):
            rho, _, _ = evolved_case(rng)
            for block1, block2 in all_cuts(rho.n_qubits):
                for cut in (Bipartition(block1, block2), Bipartition(block2, block1)):
                    breakdown = bipartite_concurrence(rho, cut)
                    assert breakdown.total == cut_concurrence(rho, cut)
                    assert type(breakdown.total) is float
                    cases += 1
        assert cases > 1000

    def test_tau3_stack_equals_per_state_calls(self):
        rng = np.random.default_rng(2008)
        mats = np.array([random_density(3, 1 + k % 8, rng) for k in range(10)])
        values = tau3_stack(mats)
        assert values.tolist() == [tau3(DensityMatrix(m)) for m in mats]

    def test_tau3_is_the_rms_of_the_three_cut_totals(self):
        """tau3 adds each cut's C_mn^2 in pair order, as `cut_totals` does,
        so it is the rms of the three cut totals bit for bit."""
        rng = np.random.default_rng(2011)
        mats = []
        for _ in range(300):
            channels = [sample_channel(str(f), rng) for f in rng.choice(FAMILIES, size=3)]
            mats.append(apply(dict(enumerate(channels, start=1)),
                              random_pure(3, rng).to_density()).mat)
        mats = np.array(mats)
        t1, t2, t3 = (cut_totals(mats, parse_cut(label)) for label in ("12|3", "13|2", "23|1"))
        assert np.array_equal(tau3_stack(mats), np.sqrt((t1 * t1 + t2 * t2 + t3 * t3) / 3))

    def test_stack_guards(self):
        mats = np.array([ghz(3).to_density().mat] * 2)
        with pytest.raises(DimensionMismatchError):
            cut_totals(mats, parse_cut("12|34"))
        with pytest.raises(DimensionMismatchError):
            tau3_stack(np.array([bell(SQ2).to_density().mat]))


def _unpruned_totals(mats, gathers):
    """Every pair's C_mn from `_pair_spectra`, added as `_cut_total` adds
    them: the kernel without pair pruning."""
    return concurrence._cut_total(_pair_spectra(mats, gathers)[1])


def kernel_stacks(state, families, seed, samples=24):
    """Stacks of one catalogued scenario that mix supports: its final
    states, its factor states through the last qubit and through each
    qubit itself, and rho0, together and apart."""
    rho0 = parse_state(state).to_density().mat
    n = len(families)
    params = draw_params(families, np.random.default_rng(seed), samples)
    moving = moving_qubits(enumerate(families, start=1))
    finals = _final_states(rho0, params, moving)[0]
    d = len(rho0)
    factors = [_factor_states(rho0, params, anchors, frozenset(anchors[q - 1] for q in moving))
               .reshape(-1, d, d)
               for anchors in ((n,) * n, tuple(range(1, n + 1)))]
    every = np.concatenate((finals, *factors, rho0[None]))
    return every, (finals, *factors, rho0[None], every[::7])


class TestPairPruning:
    """`cut_totals` and `tau3_stack` run `_pair_spectra` only on the pairs
    that can carry concurrence in a stack's union support; their totals
    equal the unpruned kernel's bit for bit."""

    @pytest.mark.parametrize("state, families", [entry[:2] for entry in CATALOGUE],
                             ids=["-".join((e[0], *e[1])) for e in CATALOGUE])
    def test_pruned_totals_equal_every_pair_bitwise(self, state, families):
        every, parts = kernel_stacks(state, families, seed=2100)
        n = len(families)
        for block1, block2 in all_cuts(n):
            for cut in (Bipartition(block1, block2), Bipartition(block2, block1)):
                gathers = _pair_blocks(cut.block1, cut.block2)[1]
                for mats in (every, *parts):
                    got = cut_totals(mats, cut)
                    assert got.tobytes() == _unpruned_totals(mats, gathers).tobytes()
        if n == 3:
            for mats in (every, *parts):
                values = _pair_spectra(mats, concurrence._tau3_blocks())[1]
                t1, t2, t3 = concurrence._cut_total(values.reshape(len(mats), 3, -1)).T
                want = np.sqrt((t1 * t1 + t2 * t2 + t3 * t3) / 3.0)
                assert tau3_stack(mats).tobytes() == want.tobytes()

    def test_random_states_keep_every_pair(self):
        rng = np.random.default_rng(2101)
        for n in (2, 3, 4):
            mats = np.array([random_density(n, 1 + k % 3, rng) for k in range(5)])
            for block1, block2 in all_cuts(n):
                cut = Bipartition(block1, block2)
                gathers = _pair_blocks(block1, block2)[1]
                assert cut_totals(mats, cut).tobytes() == _unpruned_totals(mats, gathers).tobytes()

    def test_off_x_coupling_alone_keeps_a_pair(self):
        """Two-qubit states with r03 = r12 = 0 can still be entangled through
        their entries off the X, so those entries keep a pair live."""
        rng = np.random.default_rng(2103)
        mats = []
        for _ in range(200):
            v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            rho = v @ v.conj().T
            rho[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.0
            rho -= min(0.0, np.linalg.eigvalsh(rho)[0]) * 1.001 * np.eye(4)
            mats.append(rho / np.trace(rho).real)
        mats = np.array(mats)
        got = cut_totals(mats, parse_cut("1|2"))
        assert got.tobytes() == _unpruned_totals(mats, _pair_blocks((1,), (2,))[1]).tobytes()
        assert np.count_nonzero(got) > 10

    @pytest.mark.parametrize("state, families, cut, pairs", [
        ("w4", ("PF",) * 4, "123|4", [3]),
        ("w4", ("PF",) * 4, "12|34", [4]),
        ("ghz4", ("PF", "PF", "PF", "BF"), "12|34", [2]),
        ("ghz3", ("BPF",) * 3, "12|3", [2]),
    ])
    def test_evaluated_pairs(self, state, families, cut, pairs, monkeypatch):
        """Only the pairs whose blocks can couple reach `_pair_spectra`."""
        seen = []

        def counting(mats, gathers):
            seen.append(len(gathers[0]))
            return _pair_spectra(mats, gathers)

        monkeypatch.setattr(concurrence, "_pair_spectra", counting)
        cut_totals(kernel_stacks(state, families, seed=2102)[0], parse_cut(cut))
        assert seen == pairs

    def test_figure1_evaluates_six_of_eighteen_pairs(self, monkeypatch):
        seen = []

        def counting(mats, gathers):
            seen.append(len(gathers[0]))
            return _pair_spectra(mats, gathers)

        monkeypatch.setattr(concurrence, "_pair_spectra", counting)
        _tau3_bpf3(np.linspace(0.0, 0.5, 11), ghz(3).to_density().mat)
        assert seen == [6]

    def test_breakdown_keeps_every_pair(self, monkeypatch):
        """`--breakdown` prints every pair's l's, and a pruned pair's are not
        0: the maximally mixed state's blocks are diagonal, l's all 1/8."""
        rho = DensityMatrix(np.eye(8) / 8)
        breakdown = bipartite_concurrence(rho, parse_cut("12|3"))
        assert [p.lambdas for p in breakdown.pairs] == [(0.125,) * 4] * 6
        assert [p.value for p in breakdown.pairs] == [0.0] * 6
        monkeypatch.setattr(concurrence, "_pair_spectra", None)  # no pair is live
        assert cut_concurrence(rho, parse_cut("12|3")) == 0.0


class TestBipartitionParsing:
    def test_compact_and_comma_forms(self):
        assert parse_cut("12|3") == Bipartition((1, 2), (3,))
        assert parse_cut("1,2|3,4") == Bipartition((1, 2), (3, 4))

    def test_labels(self):
        assert parse_cut("12|34").label == "12|34"

    def test_dims(self):
        cut = parse_cut("123|4")
        assert cut.d1 == 8 and cut.d2 == 2

    def test_value_semantics(self):
        cut = Bipartition([1, 2], [3])
        assert cut.block1 == (1, 2) and cut.block2 == (3,)
        assert repr(cut) == "Bipartition('12|3')"
        assert cut == parse_cut("1,2|3") and hash(cut) == hash(parse_cut("12|3"))
        assert cut != Bipartition((2, 1), (3,))
        with pytest.raises(AttributeError):
            cut.block1 = (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_cut("12|2")
        with pytest.raises(ValueError):
            parse_cut("123")
        with pytest.raises(ValueError):
            Bipartition((), (1,))
