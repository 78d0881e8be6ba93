import json
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conclab import channels
from conclab.channels import (
    PauliChannel,
    apply,
    FAMILIES,
    channel_from_json,
    draw_params,
    flip_channel,
    flip_params,
    identity_channel,
    moving_qubits,
    parse_channel,
    parse_channel_list,
    sample_channel,
    support_plan,
)
from conclab.concurrence import wootters
from conclab.errors import DimensionMismatchError, NotNormalizedError
from conclab.linalg import DensityMatrix
from conclab.experiments import CATALOGUE
from conclab.states import bell, ghz, parse_state, random_pure, w

from oracles import (
    PAULIS,
    class_layout_evolve,
    dense_rows,
    kraus_sum_apply,
    kraus_superop,
    pauli_kraus,
    pauli_superops,
    random_density,
    superop_evolve,
)

SQ2 = 1 / np.sqrt(2)


class TestConstruction:
    def test_identity_case(self):
        ch = PauliChannel((1, 0, 0, 0))
        assert ch == identity_channel()
        assert ch.a == (1.0, 0.0, 0.0, 0.0) and ch.family == "GeneralPauli"
        assert np.array_equal(pauli_superops(ch.a), np.eye(4))
        rho = random_density(2, 3, np.random.default_rng(1))
        plan = support_plan(rho != 0, {2})
        out = dense_rows(plan.evolve(rho[None], {2: np.array([ch.a])}), plan.entries, plan.dim)
        assert np.array_equal(out[0], rho)

    def test_bit_flip_on_ground_state(self):
        ch = flip_channel("BF", 0.25)
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        out = apply({1: ch}, rho)
        assert np.allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-14)

    def test_bit_phase_flip_operators(self):
        p = 0.3
        ch = flip_channel("BPF", p)
        assert ch.family == "BPF"
        assert np.allclose(ch.a, (np.sqrt(1 - p), 0, np.sqrt(p), 0), atol=1e-15)

    def test_rejects_unnormalized_params(self):
        with pytest.raises(NotNormalizedError):
            PauliChannel((1.0, 0.1, 0, 0))

    def test_family_zero_pattern_enforced(self):
        with pytest.raises(ValueError):
            PauliChannel((SQ2, 0, SQ2, 0), family="BF")  # a3 must vanish for BF

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            flip_channel("XY", 0.2)

    def test_completeness_validated(self):
        # the Kraus set {0.5 I} is the vector (0.5, 0, 0, 0)
        with pytest.raises(NotNormalizedError):
            PauliChannel((0.5, 0, 0, 0))

    def test_completeness_of_flip_channels(self):
        for family in ("BF", "PF", "BPF"):
            ch = flip_channel(family, 0.37)
            total = sum(k.conj().T @ k for k in pauli_kraus(ch.a))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-10

    @pytest.mark.parametrize("a", [
        (float("nan"), 0, 0, 0), (float("inf"), 0, 0, 0), (1, 0, 0), (1, 0, 0, 0, 0),
    ], ids=["nan", "inf", "three", "five"])
    def test_rejects_malformed_vectors(self, a):
        with pytest.raises(ValueError):
            PauliChannel(a)

    def test_immutable_and_hashable(self):
        ch = flip_channel("PF", 0.2)
        with pytest.raises(AttributeError):
            ch.a = (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            ch.a[0] = 0
        assert ch == flip_channel("pf", 0.2) and hash(ch) == hash(flip_channel("PF", 0.2))


class TestApply:
    def test_empty_assignment_is_identity_map(self):
        rho = ghz(3).to_density()
        out = apply({}, rho)
        assert np.max(np.abs(out.mat - rho.mat)) <= 1e-14

    def test_bit_flip_on_bell_gives_two_bell_mixture(self):
        p = 0.2
        rho = apply({2: flip_channel("BF", p)}, bell(SQ2).to_density())
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        psi = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        expected = (1 - p) * np.outer(phi, phi) + p * np.outer(psi, psi)
        assert np.max(np.abs(rho.mat - expected)) <= 1e-14
        top = np.sort(rho.eigenvalues)[::-1]
        assert np.allclose(top[:2], [1 - p, p], atol=1e-12)

    def test_three_phase_flips_leave_rank_two(self):
        channels = [flip_channel("PF", p) for p in (0.1, 0.25, 0.4)]
        out = apply(dict(enumerate(channels, start=1)), ghz(3).to_density())
        assert out.rank == 2

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            apply({3: identity_channel()}, bell(SQ2).to_density())

    @pytest.mark.parametrize("channels", [
        {0: identity_channel()}, {1.5: identity_channel()}, {"1": identity_channel()},
        {True: identity_channel()}, {1: "BF:p=0.2"}, {1: np.eye(4)},
    ], ids=["qubit-0", "qubit-float", "qubit-string", "qubit-bool", "token", "matrix"])
    def test_rejects_bad_entries(self, channels):
        with pytest.raises(ValueError):
            apply(channels, bell(SQ2).to_density())

    def test_disjoint_assignments_commute(self):
        rho = ghz(3).to_density()
        a = flip_channel("BF", 0.2)
        b = flip_channel("BPF", 0.3)
        ab = apply({2: b}, apply({1: a}, rho))
        ba = apply({1: a}, apply({2: b}, rho))
        joint = apply({1: a, 2: b}, rho)
        assert np.max(np.abs(ab.mat - joint.mat)) <= 1e-10
        assert np.max(np.abs(ba.mat - joint.mat)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
    def test_cptp_contract_on_random_scenarios(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = random_pure(n, rng)
        channels = {q: sample_channel("GeneralPauli", rng) for q in range(1, n + 1)}
        out = apply(channels, psi.to_density())
        assert abs(out.mat.trace().real - 1.0) <= 1e-10
        assert np.max(np.abs(out.mat - out.mat.conj().T)) <= 1e-10
        assert out.eigenvalues[0] >= -1e-9


def amplitude_damping(gamma):
    """Kraus set of a non-unital channel: decay |1> -> |0> with probability gamma."""
    return [[[1, 0], [0, np.sqrt(1 - gamma)]], [[0, np.sqrt(gamma)], [0, 0]]]


QUBIT_SETS = [
    (1, (1,)),
    (2, (1, 2)), (2, (2,)),
    (3, (1, 2, 3)), (3, (2,)), (3, (1, 3)),
    (4, (1, 2, 3, 4)), (4, (2,)), (4, (3,)), (4, (1, 3, 4)), (4, ()),
]


class TestApplyMatchesKrausSum:
    """The per-qubit contraction against the operator sum over every product
    of Kraus choices, on random mixed states."""

    KINDS = FAMILIES

    @pytest.mark.parametrize("n, qubits", QUBIT_SETS)
    def test_matches_oracle(self, n, qubits):
        rng = np.random.default_rng([n, *qubits])
        for trial in range(2 * len(self.KINDS)):
            rho = DensityMatrix(random_density(n, int(rng.integers(1, (1 << n) + 1)), rng))
            channels = {q: sample_channel(self.KINDS[(trial + q) % len(self.KINDS)], rng)
                        for q in qubits}
            out = apply(channels, rho)
            lists = [pauli_kraus(channels[q].a) if q in channels else None
                     for q in range(1, n + 1)]
            assert np.max(np.abs(out.mat - kraus_sum_apply(lists, rho.mat))) <= 1e-14

    @pytest.mark.parametrize("n, qubits", QUBIT_SETS)
    def test_evolve_matches_oracle_non_unital(self, n, qubits):
        """The superoperator oracle against the operator sum. Amplitude
        damping is neither unital nor symmetric under swapping the
        superoperator's row and column pairs, so it guards the oracle's
        index order where Pauli channels cannot."""
        rng = np.random.default_rng([7, n, *qubits])
        for _ in range(4):
            rho = random_density(n, int(rng.integers(1, (1 << n) + 1)), rng)
            lists = [amplitude_damping(rng.random()) if q in qubits else None
                     for q in range(1, n + 1)]
            superops = {q: kraus_superop(lists[q - 1])[None] for q in qubits}
            out = superop_evolve(rho[None], superops)[0]
            assert np.max(np.abs(out - kraus_sum_apply(lists, rho))) <= 1e-14


class TestStackedEvolution:
    """`SupportPlan.evolve` on stacks of channel draws against `apply` one
    draw at a time."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_apply_per_draw_bitwise(self, n):
        rng = np.random.default_rng(100 + n)
        rho = DensityMatrix(random_density(n, 2, rng))
        families = [FAMILIES[(q + n) % len(FAMILIES)] for q in range(n)]
        params = draw_params(families, np.random.default_rng(n * 1000), 7)
        assigned = {q: params[:, q - 1] for q in range(1, n + 1)}
        plan = support_plan(rho.mat != 0, set(assigned))
        stack = dense_rows(plan.evolve(rho.mat[None], assigned), plan.entries, plan.dim)
        for i in range(len(params)):
            channels = {q: PauliChannel(a, f)
                        for q, (a, f) in enumerate(zip(params[i], families), start=1)}
            one = apply(channels, rho)
            assert np.array_equal(stack[i], one.mat)

    def test_stack_of_states_through_one_channel(self):
        rng = np.random.default_rng(5)
        mats = np.array([random_density(3, 3, rng) for _ in range(4)])
        channel = sample_channel("GeneralPauli", rng)
        plan = support_plan(np.any(mats != 0, axis=0), {2})
        out = dense_rows(plan.evolve(mats, {2: np.array([channel.a])}), plan.entries, plan.dim)
        for rho, got in zip(mats, out):
            expected = apply({2: channel}, DensityMatrix(rho))
            assert np.array_equal(got, expected.mat)

    def test_pauli_superops_match_kraus_superoperators_bitwise(self):
        # each entry sums two signed a_k^2, so the order of the sums is moot
        rng = np.random.default_rng(8)
        params = draw_params(FAMILIES * 25, rng, 1)[0]
        stacked = pauli_superops(params)
        for a, superop in zip(params, stacked):
            assert np.array_equal(pauli_superops(PauliChannel(a).a), superop)
            assert np.array_equal(kraus_superop(pauli_kraus(a)), superop)
            dense = sum(x * x * np.kron(s, s.conj()) for x, s in zip(a, PAULIS))
            assert np.array_equal(dense, superop)

    def test_flip_params_vectorize_flip_channel(self):
        ps = np.linspace(0.0, 1.0, 11)
        for family in ("BF", "PF", "BPF"):
            grid = flip_params(family, ps)
            for p, a in zip(ps, grid):
                assert flip_channel(family, p).a == tuple(a)
        with pytest.raises(ValueError):
            flip_params("BF", [0.2, 1.5])


# every qubit subset, the empty one included, of 1-4 qubits
SUBSETS = [(n, qubits) for n in (1, 2, 3, 4)
           for qubits in chain.from_iterable(combinations(range(1, n + 1), k)
                                             for k in range(n + 1))]


class TestClassLayout:
    """`SupportPlan.evolve` against the superoperator contraction and the
    operator sum, on stacks of states with different supports, and the XOR
    classes it leaves empty."""

    @pytest.mark.parametrize("n, qubits", SUBSETS)
    def test_matches_superop_and_kraus_oracles(self, n, qubits):
        rng = np.random.default_rng([11, n, *qubits])
        draws = 3
        mixed = tuple(FAMILIES[k] for k in rng.integers(0, len(FAMILIES), n))
        for families in [(fam,) * n for fam in FAMILIES] + [mixed]:
            params = draw_params(families, rng, draws)
            assigned = {q: params[:, q - 1] for q in qubits}
            superops = {q: pauli_superops(a) for q, a in assigned.items()}
            mats = np.array([random_density(n, int(rng.integers(1, (1 << n) + 1)), rng)
                             for _ in range(draws)])
            for stack in (mats[:1], mats):  # B = 1 and B = S
                plan = support_plan(np.any(stack != 0, axis=0), set(assigned))
                got = dense_rows(plan.evolve(stack, assigned), plan.entries, plan.dim)
                assert np.max(np.abs(got - superop_evolve(stack, superops))) <= 1e-15
                for i, out in enumerate(got):
                    lists = [pauli_kraus(params[i, q - 1]) if q in qubits else None
                             for q in range(1, n + 1)]
                    rho = stack[min(i, len(stack) - 1)]
                    assert np.max(np.abs(out - kraus_sum_apply(lists, rho))) <= 1e-15

    def test_empty_class_stays_exactly_zero(self):
        # ghz3 and its bit-flipped twin occupy the classes 0 and 7 only
        mats = np.array([ghz(3).to_density().mat,
                         apply({2: flip_channel("BF", 1.0)}, ghz(3).to_density()).mat])
        params = draw_params(("GeneralPauli",) * 3, np.random.default_rng(4), 2)
        plan = support_plan(np.any(mats != 0, axis=0), {1, 2, 3})
        out = dense_rows(plan.evolve(mats, {q: params[:, q - 1] for q in (1, 2, 3)}),
                         plan.entries, plan.dim)
        rows = np.arange(8)
        xor = rows[:, None] ^ rows
        assert np.all(out[:, (xor != 0) & (xor != 7)] == 0)
        assert np.all(out[:, xor == 7] != 0)

    def test_subnormal_class_is_evolved(self):
        # liveness is exact: a class whose only nonzero entry is the smallest
        # subnormal double still goes through the channel
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 3] = 5e-324
        plan = support_plan(rho != 0, {2})
        out = dense_rows(plan.evolve(rho[None], {2: flip_params("BF", [1.0])}), plan.entries,
                         plan.dim)[0]
        assert out[1, 2] == 5e-324 and out[0, 3] == 0

    def test_row_equals_its_own_evolve_bitwise(self):
        rng = np.random.default_rng(6)
        mats = np.array([ghz(3).to_density().mat, w(3).to_density().mat,
                         random_density(3, 2, rng)])
        params = draw_params(("BF", "GeneralPauli", "PF"), rng, 3)
        for assigned in ({q: params[:, q - 1] for q in (1, 2, 3)},
                         {q: params[:1, q - 1] for q in (1, 3)}):
            plan = support_plan(np.any(mats != 0, axis=0), set(assigned))
            stack = dense_rows(plan.evolve(mats, assigned), plan.entries, plan.dim)
            for i in range(len(mats)):
                row = {q: a[i:i + 1] if len(a) > 1 else a for q, a in assigned.items()}
                own = support_plan(mats[i] != 0, set(assigned))
                one = dense_rows(own.evolve(mats[i:i + 1], row), own.entries, own.dim)
                assert np.array_equal(stack[i], one[0])


# every catalogued scenario, and the rank-16 one the benchmark runs
SCENARIOS = [entry[:2] for entry in CATALOGUE] + [("ghz4", ("GeneralPauli",) * 4)]


def _assigned(params, qubits):
    return {q: params[:, q - 1] for q in qubits}


class TestSupportLayout:
    """`SupportPlan.evolve` on the support closure under the moving qubits' flips
    against the class layout (bit for bit) and the superoperator contraction
    (to 1e-15), and the plan it reads."""

    @pytest.mark.parametrize("state, families", SCENARIOS,
                             ids=["-".join((s, *f)) for s, f in SCENARIOS])
    def test_catalogue_matches_class_layout(self, state, families):
        rho0 = parse_state(state).to_density().mat
        n = len(families)
        params = draw_params(families, np.random.default_rng(2200), 32)
        assigned = _assigned(params, range(1, n + 1))
        plan = support_plan(rho0 != 0, moving_qubits(enumerate(families, start=1)))
        got = dense_rows(plan.evolve(rho0[None], assigned), plan.entries, plan.dim)
        assert np.array_equal(got, class_layout_evolve(rho0[None], assigned))
        superops = {q: pauli_superops(a) for q, a in assigned.items()}
        assert np.max(np.abs(got - superop_evolve(rho0[None], superops))) <= 1e-15

    def test_plan_sizes(self):
        """The entries each scenario can fill: w4 under PF^4 keeps its 16,
        ghz4 under general channels fills its two classes."""
        sizes = {}
        for state, families in SCENARIOS:
            rho0 = parse_state(state).to_density().mat
            plan = support_plan(rho0 != 0, moving_qubits(enumerate(families, start=1)))
            sizes["-".join((state, *families))] = len(plan.entries)
        assert sizes["w4-PF-PF-PF-PF"] == 16
        assert sizes["ghz4-GeneralPauli-GeneralPauli-GeneralPauli-GeneralPauli"] == 32
        assert sizes["ghz3-PF-PF-BF"] == 8
        assert sizes["w3-PF-PF-PF"] == 9

    @pytest.mark.parametrize("state", ["bell", "ghz3", "w3", "ghz4", "w4"])
    def test_identity_channels(self, state):
        """`I` is a GeneralPauli channel, so it counts as moving, and its
        zero flip weights leave every entry as it was."""
        rho = parse_state(state).to_density()
        n = rho.n_qubits
        for qubits in chain.from_iterable(combinations(range(1, n + 1), k)
                                          for k in range(n + 1)):
            identities = {q: identity_channel() for q in qubits}
            out = apply(identities, rho)
            params = {q: np.array([ch.a]) for q, ch in identities.items()}
            assert np.array_equal(out.mat, class_layout_evolve(rho.mat[None], params)[0])
            assert np.array_equal(out.mat, rho.mat)

    def test_partial_supports_match_class_layout(self):
        """JSON states on random subsets of the basis, under random families
        on random qubits: most supports are not closed under the moving
        flips, and the closure fills exactly what the oracles fill."""
        rng = np.random.default_rng(2201)
        grew = 0
        for trial in range(120):
            n = 2 + trial % 3
            d = 1 << n
            amps = np.zeros(d, dtype=complex)
            chosen = rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
            amps[chosen] = rng.standard_normal(len(chosen)) + 1j * rng.standard_normal(len(chosen))
            amps /= np.linalg.norm(amps)
            spec = json.dumps([[a.real, a.imag] for a in amps.tolist()])
            rho0 = parse_state(spec).to_density().mat
            families = tuple(FAMILIES[k] for k in rng.integers(0, len(FAMILIES), n))
            qubits = [q for q in range(1, n + 1) if rng.random() < 0.7]
            params = draw_params(families, rng, 4)
            assigned = _assigned(params, qubits)
            moving = moving_qubits(enumerate(families, start=1)) & set(assigned)
            plan = support_plan(rho0 != 0, moving)
            got = dense_rows(plan.evolve(rho0[None], assigned), plan.entries, plan.dim)
            assert np.array_equal(got, class_layout_evolve(rho0[None], assigned))
            superops = {q: pauli_superops(a) for q, a in assigned.items()}
            assert np.max(np.abs(got - superop_evolve(rho0[None], superops))) <= 1e-15
            grew += np.any((got != 0) & (rho0 == 0))
        assert grew > 30

    def test_plan_is_cached_and_bounded(self):
        pattern = ghz(3).to_density().mat != 0
        assert support_plan(pattern, {3}) is support_plan(pattern.copy(), frozenset({3}))
        assert support_plan(pattern, {3}) is not support_plan(pattern, {2, 3})
        assert 0 < channels._plan.cache_info().maxsize <= 1024


class TestSingleSided:
    """A channel on one qubit of a pure state, identity elsewhere."""

    def test_identity_channel_is_noop(self):
        psi = ghz(3)
        out = apply({2: identity_channel()}, psi.to_density())
        assert np.max(np.abs(out.mat - psi.to_density().mat)) <= 1e-14

    def test_phase_flip_on_ghz_has_rank_two(self):
        out = apply({3: flip_channel("PF", 0.3)}, ghz(3).to_density())
        assert out.rank == 2

    def test_bit_flip_on_bell_concurrence(self):
        for p in (0.1, 0.3, 0.45):
            out = apply({2: flip_channel("BF", p)}, bell(SQ2).to_density())
            assert abs(wootters(out) - abs(1 - 2 * p)) <= 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            apply({4: identity_channel()}, ghz(3).to_density())


class TestSampling:
    def test_same_seed_same_channel(self):
        a = sample_channel("BF", np.random.default_rng(11)).a
        b = sample_channel("BF", np.random.default_rng(11)).a
        assert a == b

    def test_flip_family_moment(self):
        # uniform on the circle: E[a1^2] = 1/2
        rng = np.random.default_rng(11)
        mean = np.mean([sample_channel("BF", rng).a[0] ** 2 for _ in range(10_000)])
        assert abs(mean - 0.5) < 0.02

    def test_general_family_moments(self):
        # uniform on the 3-sphere: E[a_i^2] = 1/4 for each coordinate
        rng = np.random.default_rng(13)
        acc = np.zeros(4)
        for _ in range(10_000):
            acc += np.array(sample_channel("GeneralPauli", rng).a) ** 2
        assert np.all(np.abs(acc / 10_000 - 0.25) < 0.02)

    def test_sampled_channels_complete(self):
        rng = np.random.default_rng(17)
        for family in ("BF", "PF", "BPF", "GeneralPauli"):
            for _ in range(50):
                ch = sample_channel(family, rng)
                total = sum(k.conj().T @ k for k in pauli_kraus(ch.a))
                assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_family_zero_pattern_respected(self):
        rng = np.random.default_rng(23)
        a = sample_channel("PF", rng).a
        assert a[1] == 0.0 and a[2] == 0.0

    @pytest.mark.parametrize("families", [
        ("BF",), ("PF",), ("BPF",), ("GeneralPauli",),
        ("BF", "PF", "BPF", "GeneralPauli"), ("GeneralPauli", "PF", "GeneralPauli"),
        ("BF", "GeneralPauli", "PF"),
    ])
    def test_campaign_draws_equal_sample_channel_bitwise(self, families):
        """Row i of a stack is what drawing one channel per family from the
        same generator gives after the rows before it, and what normalizing
        per-family Gaussians with np.linalg.norm gives."""
        stacked = draw_params(families, np.random.default_rng(40), 20)
        rng = np.random.default_rng(40)
        for row in stacked:
            channels = [sample_channel(f, rng) for f in families]
            assert [ch.a for ch in channels] == [tuple(a) for a in row]
        rng = np.random.default_rng(40)
        for row in stacked:
            for fam, a in zip(families, row):
                g = rng.standard_normal(4 if fam == "GeneralPauli" else 2)
                g = g / np.linalg.norm(g)
                expected = np.zeros(4)
                if fam == "GeneralPauli":
                    expected[:] = g
                else:
                    expected[0] = g[0]
                    expected[{"BF": 1, "BPF": 2, "PF": 3}[fam]] = g[1]
                assert np.array_equal(a, expected)

    def test_stacks_split_the_stream(self):
        """Consecutive stacks on one generator are the rows of one stack."""
        families = ("BF", "GeneralPauli", "PF")
        rng = np.random.default_rng(41)
        split = np.concatenate([draw_params(families, rng, k) for k in (64, 1, 35)])
        assert np.array_equal(split, draw_params(families, np.random.default_rng(41), 100))

    @pytest.mark.parametrize("base", [0, 7, 2**31 - 2])
    def test_adjacent_seeds_share_no_row(self, base):
        """Seeds b and b + 1 give independent streams: no (n, 4) row of one
        appears in the other."""
        families = ("BF", "PF", "GeneralPauli")
        rows = [{row.tobytes() for row in draw_params(families, np.random.default_rng(s), 1000)}
                for s in (base, base + 1)]
        assert len(rows[0]) == len(rows[1]) == 1000
        assert not rows[0] & rows[1]

    def test_stream_is_pinned(self):
        """The first draws of seed 0. If a numpy release changes the
        Generator stream, this fails, and so do the campaign golden files
        in tests/golden/: regenerate those with their tests/test_golden.py
        commands, then update these values."""
        got = [repr(x) for x in
               draw_params(("GeneralPauli",), np.random.default_rng(0), 2).ravel().tolist()]
        assert got == [
            "0.1865168763949313", "-0.19597346002732666", "0.950047103190218",
            "0.15561606441711276", "-0.3084949330512849", "0.20824457742971741",
            "0.7509807854934109", "0.5454291265347876",
        ], f"numpy {np.__version__} changed the Generator stream; see this test's docstring"


class TestParsing:
    def test_flip_token(self):
        ch = parse_channel("BF:p=0.2")
        assert ch.family == "BF"
        assert abs(ch.a[0] ** 2 - 0.8) < 1e-12

    def test_identity_token(self):
        assert parse_channel("I") == identity_channel()

    def test_channel_list_arity(self):
        channels = parse_channel_list("BF:p=0.2,PF:p=0.3,I", 3)
        assert [c.family for c in channels] == ["BF", "PF", "GeneralPauli"]
        with pytest.raises(DimensionMismatchError):
            parse_channel_list("BF:p=0.2", 2)

    def test_json_with_probability(self):
        ch = channel_from_json({"family": "PF", "p": 0.4})
        assert ch.family == "PF"

    def test_json_with_vector(self):
        ch = channel_from_json({"family": "general", "a": [0.5, 0.5, 0.5, 0.5]})
        assert ch == PauliChannel((0.5, 0.5, 0.5, 0.5))

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_channel("BF")
        with pytest.raises(ValueError):
            parse_channel("BF:q=0.2")
        with pytest.raises(ValueError):
            channel_from_json({"family": "BF"})

    def test_json_objects_in_a_list_keep_their_commas(self):
        channels = parse_channel_list(
            '{"family":"general","a":[0.5,0.5,0.5,0.5]},BF:p=0.3, {"family": "BPF", "p": 0.25}',
            3)
        assert [c.family for c in channels] == ["GeneralPauli", "BF", "BPF"]
        assert channels[0].a == (0.5, 0.5, 0.5, 0.5)
        assert channels[2] == flip_channel("BPF", 0.25)

    @pytest.mark.parametrize("obj", [
        {"family": "general", "a": 5},
        {"family": "general", "a": [None, 1, 0, 0]},
        {"family": "BF", "a": [True, 0, 0, 0]},
        {"family": "general", "a": ["0.5", 0.5, 0.5, 0.5]},
        {"family": "BF", "p": [0.2]},
        {"family": "BF", "p": None},
        {"family": "BF", "p": "0.2"},
        {"family": "BF", "p": False},
        {"family": "BF", "p": 10 ** 400},
        {"family": "general", "a": [float("nan"), 0, 0, 0]},
    ], ids=["a-number", "a-null", "a-bool", "a-string", "p-list", "p-null", "p-string",
            "p-bool", "p-overflow", "a-nan"])
    def test_json_parameter_types(self, obj):
        with pytest.raises(ValueError):
            channel_from_json(obj)
