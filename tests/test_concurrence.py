import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab.channels import FAMILIES, ChannelAssignment, apply, flip_channel, sample_channel
from conclab.concurrence import (
    Bipartition,
    bipartite_concurrence,
    cut_concurrence,
    cut_totals,
    parse_cut,
    tau3,
    tau3_stack,
    wootters,
)
from conclab.errors import DimensionMismatchError
from conclab.linalg import DensityMatrix, kron
from conclab.states import bell, ghz, parse_state, random_pure, w

from oracles import (
    bell_mixture_concurrence,
    dense_cut_concurrence,
    principal_block_indices,
    pure_cut_concurrence,
    random_density,
    random_unitary,
    rotation_generators,
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
            u = kron(random_unitary(2, rng), random_unitary(2, rng))
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
        from oracles import all_cuts

        for block1, block2 in all_cuts(n):
            got = bipartite_concurrence(rho, Bipartition(block1, block2)).total
            assert abs(got - pure_cut_concurrence(psi.amplitudes, block1)) <= 1e-8

    def test_block_order_invariance(self):
        channels = [flip_channel("BF", p) for p in (0.15, 0.3, 0.45)]
        rho = apply(ChannelAssignment.many_sided(channels), ghz(3).to_density())
        a = bipartite_concurrence(rho, Bipartition((1, 2), (3,))).total
        b = bipartite_concurrence(rho, Bipartition((2, 1), (3,))).total
        assert abs(a - b) <= 1e-10

    def test_total_recomputes_from_pairs(self):
        rho = apply(ChannelAssignment.many_sided(
            [flip_channel("BF", 0.2)] * 3), ghz(3).to_density())
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
        rho = apply(ChannelAssignment.many_sided([ch] * 3), ghz(3).to_density())
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
    rho = apply(ChannelAssignment.many_sided(channels), psi.to_density())
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

    def test_tau3_stack_equals_per_state_calls(self):
        rng = np.random.default_rng(2008)
        mats = np.array([random_density(3, 1 + k % 8, rng) for k in range(10)])
        values = tau3_stack(mats)
        assert values.tolist() == [tau3(DensityMatrix(m)) for m in mats]

    def test_stack_guards(self):
        mats = np.array([ghz(3).to_density().mat] * 2)
        with pytest.raises(DimensionMismatchError):
            cut_totals(mats, parse_cut("12|34"))
        with pytest.raises(DimensionMismatchError):
            tau3_stack(np.array([bell(SQ2).to_density().mat]))


class TestBipartitionParsing:
    def test_compact_and_comma_forms(self):
        assert parse_cut("12|3") == Bipartition((1, 2), (3,))
        assert parse_cut("1,2|3,4") == Bipartition((1, 2), (3, 4))

    def test_labels(self):
        assert parse_cut("12|34").label == "12|34"

    def test_dims(self):
        cut = parse_cut("123|4")
        assert cut.d1 == 8 and cut.d2 == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_cut("12|2")
        with pytest.raises(ValueError):
            parse_cut("123")
        with pytest.raises(ValueError):
            Bipartition((), (1,))
