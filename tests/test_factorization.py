import dataclasses
import json

import numpy as np
import pytest

from conclab import experiments, factorization, linalg
from conclab.channels import (
    FAMILIES,
    PauliChannel,
    SupportPlan,
    _canonical_family,
    apply,
    draw_params,
    evolve,
    flip_channel,
    identity_channel,
    moving_qubits,
    sample_channel,
)
from conclab.concurrence import Bipartition, cut_concurrence, cut_totals, parse_cut, tau3_stack
from conclab.errors import DimensionMismatchError
from conclab.experiments import CATALOGUE, REFINE_POINTS, figure1_scan
from conclab.factorization import (
    _STACK,
    MAX_SAMPLES,
    CampaignConfig,
    _evaluate,
    _factor_states,
    _final_states,
    default_cut,
    evaluate_identity,
    identity_for,
    run_campaign,
)
from conclab.linalg import RANK_TOL, density_spectra, spectral_ranks
from conclab.states import bell, ghz, parse_state, random_pure, w

from oracles import all_cuts, dense_cut_concurrence, pure_cut_concurrence

SQ2 = 1 / np.sqrt(2)


def sampled(families, seed):
    rng = np.random.default_rng(seed)
    return tuple(sample_channel(f, rng) for f in families)


def campaign_draws(config):
    """Each row's channels: the i-th group of `sample_channel` draws, one per
    qubit in order, on one `default_rng(config.seed)`."""
    rng = np.random.default_rng(config.seed)
    return [tuple(sample_channel(f, rng) for f in config.channels)
            for _ in range(config.samples)]


class TestIdentityStructure:
    def test_default_cuts(self):
        assert default_cut(2) == parse_cut("1|2")
        assert default_cut(3) == parse_cut("12|3")
        assert default_cut(4) == parse_cut("123|4")

    def test_product_terms(self):
        assert identity_for("product", 2).rhs_terms == ((1, 2),)
        assert identity_for("product", 3).rhs_terms == ((1, 2, 3),)
        assert identity_for("product", 4, "12|34").rhs_terms == ((1, 2, 3, 4),)

    def test_sum_terms_pair_blocks(self):
        assert identity_for("sum", 3).rhs_terms == ((1, 3), (2, 3))
        assert identity_for("sum", 4).rhs_terms == ((1, 4), (2, 4), (3, 4))
        assert identity_for("sum", 4, "12|34").rhs_terms == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_rank_ceilings(self):
        assert identity_for("product", 3).rank_ceiling == 2
        assert identity_for("sum", 3).rank_ceiling == 4

    def test_degree_matching_exponents(self):
        assert identity_for("product", 2).normalization_exponent == 1
        assert identity_for("product", 3).normalization_exponent == 2
        assert identity_for("product", 4).normalization_exponent == 3
        assert identity_for("sum", 3).normalization_exponent == 1
        assert identity_for("sum", 4, "12|34").normalization_exponent == 1

    def test_sum_needs_three_qubits(self):
        with pytest.raises(ValueError):
            identity_for("sum", 2)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            identity_for("ratio", 3)


class TestEvaluate:
    def test_bell_bit_flip_closed_form(self):
        # both factors |1-2p| = 0.6, so both sides are 0.36
        chans = [flip_channel("BF", 0.2), flip_channel("BF", 0.2)]
        rep = evaluate_identity(identity_for("product", 2), bell(SQ2), chans)
        assert abs(rep.lhs - 0.36) < 1e-12
        assert abs(rep.rhs - 0.36) < 1e-12
        assert rep.residual <= 1e-10
        assert rep.final_rank == 2
        assert rep.applicable

    def test_identity_channels_zero_residual(self):
        chans = [identity_channel(), identity_channel()]
        for alpha in (SQ2, 0.6):
            rep = evaluate_identity(identity_for("product", 2), bell(alpha), chans)
            assert rep.lhs == pytest.approx(rep.initial_concurrence, abs=1e-14)
            assert rep.residual <= 1e-12

    def test_ghz3_phase_flip_product(self):
        for seed in range(10):
            rep = evaluate_identity(identity_for("product", 3), ghz(3),
                                    sampled(["PF"] * 3, 300 + seed))
            assert rep.residual <= 1e-10
            assert rep.final_rank == 2

    @pytest.mark.parametrize("state,families,form", [
        ("ghz3", ["PF"] * 3, "product"),
        ("ghz3", ["BF"] * 3, "sum"),
        ("ghz3", ["PF", "PF", "BF"], "sum"),
        ("ghz3", ["PF", "PF", "BPF"], "sum"),
        ("w3", ["PF"] * 3, "sum"),
        ("ghz4", ["PF"] * 4, "product"),
        ("ghz4", ["PF", "PF", "PF", "BF"], "sum"),
        ("w4", ["PF"] * 4, "sum"),
    ])
    def test_rank_monotonicity_of_factors(self, state, families, form):
        psi = parse_state(state)
        for seed in range(5):
            rep = evaluate_identity(identity_for(form, psi.n_qubits), psi,
                                    sampled(families, 400 + seed))
            for f in rep.factors:
                assert f.rank <= rep.final_rank

    def test_exponent_irrelevant_for_maximal_states(self):
        chans = sampled(["PF"] * 4, 77)
        base = evaluate_identity(identity_for("product", 4), ghz(4), chans)
        for e in (0, 3, 5):
            rep = evaluate_identity(identity_for("product", 4), ghz(4), chans,
                                    normalization_exponent=e)
            assert abs(rep.residual - base.residual) <= 1e-12

    def test_anchor_conventions_agree_on_symmetric_state(self):
        chans = sampled(["PF", "PF", "BF"], 55)
        last = evaluate_identity(identity_for("sum", 3), ghz(3), chans, anchor="last")
        own = evaluate_identity(identity_for("sum", 3), ghz(3), chans, anchor="own")
        assert abs(last.rhs - own.rhs) <= 1e-10

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_identity(identity_for("product", 3), ghz(3),
                              [identity_channel()] * 2)
        with pytest.raises(DimensionMismatchError):
            evaluate_identity(identity_for("product", 2), ghz(3),
                              [identity_channel()] * 2)

    def test_report_records_parameters(self):
        chans = sampled(["BF", "BF"], 9)
        rep = evaluate_identity(identity_for("product", 2), bell(SQ2), chans)
        assert rep.channels == tuple(chans)
        assert rep.channels[0].family == "BF"
        assert rep.aggregation == "sum" and rep.anchor == "last"


class TestQuadratureRelations:
    """The same-family rank 3-4 scenarios satisfy the quadrature (rms)
    aggregation of the sum identity exactly; the plain sum does not."""

    def test_ghz3_three_bit_flips_rms(self):
        for seed in range(20):
            rep = evaluate_identity(identity_for("sum", 3), ghz(3),
                                    sampled(["BF"] * 3, 500 + seed), aggregation="rms")
            assert rep.final_rank <= 4
            assert rep.residual <= 1e-10

    def test_w3_three_phase_flips_rms(self):
        for seed in range(20):
            rep = evaluate_identity(identity_for("sum", 3), w(3),
                                    sampled(["PF"] * 3, 600 + seed), aggregation="rms")
            assert rep.final_rank == 3
            assert rep.residual <= 1e-10

    def test_w4_four_phase_flips_rms_tail_cut(self):
        for seed in range(5):
            rep = evaluate_identity(identity_for("sum", 4), w(4),
                                    sampled(["PF"] * 4, 700 + seed), aggregation="rms")
            assert rep.final_rank == 4
            assert rep.residual <= 1e-10

    def test_plain_sum_overshoots_on_same_scenarios(self):
        rep = evaluate_identity(identity_for("sum", 3), ghz(3),
                                sampled(["BF"] * 3, 501), aggregation="sum")
        assert rep.rhs > rep.lhs + 0.01

    def test_mixed_family_closed_form(self):
        # PF,PF,BF on ghz3: the evolved state is diagonal in the flip-parity
        # basis and the cut concurrence is max(0, (1-p3)(1 + x1 x2) - 1);
        # neither aggregation of single-sided products reproduces it.
        ps = (0.1, 0.2, 0.3)
        chans = [flip_channel("PF", ps[0]), flip_channel("PF", ps[1]), flip_channel("BF", ps[2])]
        rep = evaluate_identity(identity_for("sum", 3), ghz(3), chans)
        x1, x2 = 1 - 2 * ps[0], 1 - 2 * ps[1]
        expected_lhs = max(0.0, (1 - ps[2]) * (1 + x1 * x2) - 1)
        assert abs(rep.lhs - expected_lhs) <= 1e-12
        assert rep.final_rank == 4
        assert rep.residual > 0.1


class TestAutoIdentity:
    """Auto mode evaluates the identity the final rank suggests on the
    default cut: product up to rank 2, sum up to rank 4 on three or more
    qubits, and nothing above."""

    @pytest.mark.parametrize("state, families, seed, rank, form", [
        ("ghz3", ("BF",) * 3, 21, 4, "sum"),
        ("ghz4", ("PF",) * 4, 22, 2, "product"),
        ("ghz3", ("BPF",) * 3, 23, 8, None),
        ("bell", ("BF", "PF"), 24, 4, None),
    ], ids=["three-bit-flips-sum", "four-phase-flips-product", "rank-eight-nothing",
            "two-qubit-rank-four-nothing"])
    def test_rank_suggests_identity(self, state, families, seed, rank, form):
        config = CampaignConfig(state=state, channels=families, samples=1, seed=seed)
        (row,) = run_campaign(config).rows
        assert row.rank == rank
        if form is None:
            assert (row.lhs, row.rhs, row.residual, row.passed) == (None,) * 4
            return
        psi = parse_state(state)
        rep = evaluate_identity(identity_for(form, psi.n_qubits), psi, sampled(families, seed))
        assert (row.lhs, row.rhs, row.residual) == (rep.lhs, rep.rhs, rep.residual)


def assert_trusted(states, rho0):
    """An evolved stack that nothing validates is a convex mix of Pauli
    conjugates of the validated initial state rho0, so it must pass
    `density_spectra`, Hermitian to roundoff and with its lowest eigenvalue
    at or above rho0's."""
    eigs = density_spectra(states)
    assert np.min(eigs[..., 0]) >= rho0.eigenvalues[0] - 1e-14
    assert np.max(np.abs(states - np.swapaxes(states.conj(), -1, -2))) <= 1e-15
    return eigs


# every catalogued scenario, and the rank-16 one the benchmark runs
EVOLVED = [entry[:2] for entry in CATALOGUE] + [("ghz4", ("GeneralPauli",) * 4)]


class TestEvolvedStates:
    """No evolved stack is validated: campaigns read ranks from the bare
    spectra of their final states, and figure1 hands its grid to the kernel
    unchecked. Each stack must keep the trust contract of `assert_trusted`."""

    @pytest.mark.parametrize("state, families", EVOLVED,
                             ids=["-".join((s, *f)) for s, f in EVOLVED])
    def test_final_states_pass_validation(self, state, families):
        rho0 = parse_state(state).to_density()
        params = draw_params(families, np.random.default_rng(1900), 64)
        finals, ranks = _final_states(rho0.mat, params, moving_qubits(enumerate(families, 1)))
        assert finals.shape == (64, rho0.dim, rho0.dim)
        eigs = assert_trusted(finals, rho0)
        assert np.array_equal(ranks, spectral_ranks(eigs))

    @pytest.mark.parametrize("state, families", EVOLVED,
                             ids=["-".join((s, *f)) for s, f in EVOLVED])
    def test_apply_rank_equals_campaign_rank(self, state, families):
        """`apply`, behind `conclab evolve`, reads a final rank as campaigns
        do: from the blocks of the same support plan."""
        rho0 = parse_state(state).to_density()
        families = [_canonical_family(f) for f in families]
        params = draw_params(families, np.random.default_rng(2500), 500)
        ranks = _final_states(rho0.mat, params, moving_qubits(enumerate(families, 1)))[1]
        for row, rank in zip(params, ranks.tolist()):
            channels = {q: PauliChannel(a, fam) for q, (a, fam) in enumerate(zip(row, families), 1)}
            assert apply(channels, rho0).rank == rank

    def test_figure1_stacks_pass_validation(self, monkeypatch):
        stacks = []

        def recording(mats):
            stacks.append(mats)
            return tau3_stack(mats)

        monkeypatch.setattr(experiments, "tau3_stack", recording)
        figure1_scan()
        # the 101-point grid and one refinement round
        assert [len(mats) for mats in stacks] == [101, REFINE_POINTS]
        for mats in stacks:
            assert_trusted(mats, ghz(3).to_density())


def factor_case(state, families, anchor, relabel=False, cut=None):
    """`_evaluate` on 64 seeded draws of a catalogued scenario and the
    product identity of the cut, with the factor states of every column
    (one `evolve` per anchor), their totals on the cut (the evolve-plus-kernel
    oracle) and the columns whose anchor shares its side of the cut, which
    the kernel reads."""
    psi = parse_state(state)
    n = psi.n_qubits
    order = list(range(n))
    if relabel:
        perm = tuple(range(n, 0, -1))
        psi, order = psi.permuted(perm), [q - 1 for q in perm]
    rho0 = psi.to_density()
    families = [_canonical_family(f) for f in families]
    params = draw_params(families, np.random.default_rng(900), 64)[:, order]
    moving = moving_qubits((k, families[old]) for k, old in enumerate(order, start=1))
    finals = _final_states(rho0.mat, params, moving)[0]
    identity = identity_for("product", n, cut)
    ev = _evaluate([identity] * 64, rho0.mat, finals, params, moving, anchor=anchor,
                   normalization_exponent=None, aggregation="sum")
    states = _factor_states(rho0.mat, params, ev.anchors,
                            frozenset(ev.anchors[q - 1] for q in moving))
    assert states.shape == (64, n, 1 << n, 1 << n)
    oracle = cut_totals(states.reshape(-1, 1 << n, 1 << n), identity.cut).reshape(64, n)
    lone = {b[0] for b in (identity.cut.block1, identity.cut.block2) if len(b) == 1}
    measured = [q for q in range(n) if ev.anchors[q] not in lone]
    return rho0, ev, states, oracle, measured


FOUR_QUBIT = [entry[:2] for entry in CATALOGUE if len(entry[1]) == 4]


class TestFactorStates:
    """A factor whose anchor stands alone on its side of the cut is read
    from the one-sided law and must match the evolve-plus-kernel oracle;
    every other factor state is read by the kernel unvalidated and must
    keep the trust contract of `assert_trusted`."""

    @pytest.mark.parametrize("anchor, relabel", [("last", False), ("own", False),
                                                 ("last", True)],
                             ids=["last", "own", "relabel"])
    @pytest.mark.parametrize("state, families", [entry[:2] for entry in CATALOGUE],
                             ids=["-".join((s, *f)) for s, f, _ in CATALOGUE])
    def test_factor_states_pass_validation(self, state, families, anchor, relabel):
        rho0, ev, states, oracle, measured = factor_case(state, families, anchor, relabel)
        n = rho0.n_qubits
        closed = [q for q in range(n) if q not in measured]
        # on the default cut only "own" puts anchors on the shared block
        assert len(measured) == (n - 1 if anchor == "own" and n > 2 else 0)
        assert np.max(np.abs(ev.factors[:, closed] - oracle[:, closed])) <= 1e-13
        if measured:
            assert_trusted(states[:, measured], rho0)
            # the values the kernel read from these states, bit for bit
            assert np.array_equal(ev.factors[:, measured], oracle[:, measured])

    @pytest.mark.parametrize("anchor", ["last", "own"])
    @pytest.mark.parametrize("state, families", FOUR_QUBIT,
                             ids=["-".join((s, *f)) for s, f in FOUR_QUBIT])
    def test_factor_states_on_12_34_pass_validation(self, state, families, anchor):
        """No qubit stands alone on 12|34, so the kernel reads every factor."""
        rho0, ev, states, oracle, measured = factor_case(state, families, anchor, cut="12|34")
        assert measured == [0, 1, 2, 3]
        assert_trusted(states, rho0)
        assert np.array_equal(ev.factors, oracle)

    def test_only_the_initial_state_is_validated(self, monkeypatch):
        """A campaign and a verify each validate rho0 alone; final and
        factor ranks come from the unchecked spectra."""
        shapes = []

        def counted(mats):
            shapes.append(mats.shape)
            return density_spectra(mats)

        monkeypatch.setattr(linalg, "density_spectra", counted)
        config = CampaignConfig(state="w4", channels=("PF",) * 4, samples=25, seed=7)
        report = run_campaign(config)
        assert all(r.residual is not None for r in report.rows)
        assert shapes == [(16, 16)]
        rep = evaluate_identity(identity_for("sum", 4), w(4), sampled(config.channels, 7))
        assert shapes == [(16, 16)] * 2
        assert [f.rank for f in rep.factors] == [2, 2, 2, 2]

    @pytest.mark.parametrize("state, families, anchor, evolves", [
        ("w4", ("PF",) * 4, "own", [[1, 2, 3, 4], [1], [2], [3], [4]]),
        ("ghz4", ("PF", "PF", "PF", "BF"), "last", [[1, 2, 3, 4], [4]]),
    ], ids=["w4-own", "ghz4-pf3bf"])
    def test_verify_evolves_each_factor_state_once(self, state, families, anchor, evolves,
                                                   monkeypatch):
        """On 12|34 the kernel measures every factor, and `evaluate_identity`
        reads each factor's rank from the states the kernel measured: one
        `SupportPlan.evolve` for the final state and one per anchor qubit."""
        calls = []
        evolve_in_plan = SupportPlan.evolve

        def counted(plan, mats, params):
            calls.append(sorted(params))
            return evolve_in_plan(plan, mats, params)

        monkeypatch.setattr(SupportPlan, "evolve", counted)
        channels = [flip_channel(fam, p) for fam, p in zip(families, (0.1, 0.2, 0.3, 0.4))]
        evaluate_identity(identity_for("sum", 4, "12|34"), parse_state(state), channels,
                          anchor=anchor)
        assert calls == evolves

    @pytest.mark.parametrize("state, families, cut, anchor", [
        ("w4", ("PF",) * 4, "12|34", "own"),
        ("ghz4", ("PF", "PF", "PF", "BF"), "12|34", "last"),
        ("ghz4", ("PF", "PF", "PF", "BF"), None, "own"),
        ("ghz3", ("PF", "PF", "BPF"), None, "last"),
        ("w3", ("PF", "BF", "PF"), "2|13", "own"),
    ])
    def test_factor_ranks_equal_applied_factor_ranks(self, state, families, cut, anchor):
        """Measured and closed factors alike: each rank is the rank of the
        factor state that `apply` builds."""
        psi = parse_state(state)
        n = psi.n_qubits
        rho0 = psi.to_density()
        for seed in range(5):
            channels = sampled(families, 600 + seed)
            rep = evaluate_identity(identity_for("product", n, cut), psi, channels, anchor=anchor)
            assert [f.rank for f in rep.factors] == [
                apply({f.anchor: ch}, rho0).rank for f, ch in zip(rep.factors, channels)]

    def test_campaign_reads_no_factor_rank(self, monkeypatch):
        """A campaign reads one spectrum stack per evaluated stack: its final
        states'. Factor states go to the kernel and nowhere else."""
        shapes = []

        def counted(mats, partition):
            shapes.append(mats.shape)
            return linalg.block_spectra(mats, partition)

        monkeypatch.setattr(factorization, "block_spectra", counted)
        config = CampaignConfig(state="w4", channels=("PF",) * 4, cut="12|34", anchor="own",
                                samples=_STACK + 3, seed=7)
        assert all(r.residual is not None for r in run_campaign(config).rows)
        assert shapes == [(_STACK, 16, 16), (3, 16, 16)]


def channel_concurrence(params):
    """c($) = max(0, 2 max_k a_k^2 - 1) of Pauli channels with parameters
    (..., 4): the concurrence of the Bell-diagonal state (1 (x) $) phi+."""
    return np.maximum(0.0, 2.0 * np.max(np.square(params), axis=-1) - 1.0)


def law_case(n, qubit, family, seed, samples):
    """Random pure n-qubit states (samples, d, d), each sent through one
    drawn channel of the family on `qubit` alone, and the channels' (samples, 4)
    parameters."""
    rng = np.random.default_rng(seed)
    amps = [random_pure(n, rng).amplitudes for _ in range(samples)]
    rho0s = np.array([np.outer(a, a.conj()) for a in amps])
    params = draw_params([family], rng, samples)[:, 0]
    return amps, rho0s, evolve(rho0s, {qubit: params}), params


LONE_CUTS = [(b1, b2, q) for n in (2, 3, 4) for b1, b2 in all_cuts(n)
             for q in (b1 + b2) if (q,) in (b1, b2)]


class TestOneSidedLaw:
    """C((1 (x) $) psi) = c($) C(psi) for pure psi when the channel's qubit
    stands alone on its side of the cut (proof in the `factorization`
    docstring), and not on 12|34."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("block1, block2, qubit", LONE_CUTS,
                             ids=[f"{''.join(map(str, b1))}|{''.join(map(str, b2))}-q{q}"
                                  for b1, b2, q in LONE_CUTS])
    def test_law_on_every_lone_qubit_cut(self, block1, block2, qubit, family):
        n = len(block1 + block2)
        _, rho0s, finals, params = law_case(n, qubit, family, 4100 + 10 * n + qubit, 40)
        c = channel_concurrence(params)
        for cut in (Bipartition(block1, block2), Bipartition(block2, block1)):
            gap = cut_totals(finals, cut) - c * cut_totals(rho0s, cut)
            assert np.max(np.abs(gap)) <= 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    def test_law_matches_dense_and_purity_oracles(self, family):
        for n, block1, block2 in ((2, (1,), (2,)), (3, (1, 3), (2,)), (4, (4,), (1, 2, 3))):
            qubit = block2[0] if len(block2) == 1 else block1[0]
            amps, _, finals, params = law_case(n, qubit, family, 4200 + n, 3)
            # c($) is the concurrence of the channel's one-sided image of phi+
            bells = evolve(bell(SQ2).to_density().mat[None], {2: params})
            for amp, final, phi, c in zip(amps, finals, bells, channel_concurrence(params)):
                assert abs(dense_cut_concurrence(phi, (1,), (2,))[1] - c) <= 1e-13
                initial = pure_cut_concurrence(amp, block1)
                dense = dense_cut_concurrence(final, block1, block2)[1]
                assert abs(dense - c * initial) <= 1e-13

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cut", ["12|34", "34|12"])
    def test_law_fails_on_12_34(self, cut, family):
        """No qubit stands alone on 12|34: the gap lhs - c($) C(psi) stays
        nonnegative but is not 0, so the closed form must not serve it."""
        cut = parse_cut(cut)
        for qubit in (1, 2, 3, 4):
            _, rho0s, finals, params = law_case(4, qubit, family, 4300 + qubit, 60)
            gap = cut_totals(finals, cut) - channel_concurrence(params) * cut_totals(rho0s, cut)
            assert np.min(gap) >= -1e-13
            assert np.max(gap) > 1e-3


@pytest.mark.parametrize("choice", [{"anchor": "first"}, {"aggregation": "mean"}],
                         ids=["anchor", "aggregation"])
def test_evaluate_identity_rejects_unknown_choices(choice):
    """`evaluate_identity` checks its choices at entry, so a bad one fails
    before anything is evolved."""
    (name, value), = choice.items()
    with pytest.raises(ValueError, match=f"^{name} must be one of .*, got '{value}'$"):
        evaluate_identity(identity_for("sum", 3), ghz(3), sampled(("PF",) * 3, 1), **choice)


class TestRelabel:
    def test_relabeled_scenario_matches_direct_pattern(self):
        chans = (flip_channel("BF", 0.17), flip_channel("PF", 0.29), flip_channel("PF", 0.38))
        # new qubit k is old qubit perm[k], and each channel follows its qubit
        psi2, chans2 = ghz(3).permuted((3, 2, 1)), tuple(chans[q - 1] for q in (3, 2, 1))
        assert [c.family for c in chans2] == ["PF", "PF", "BF"]
        direct = evaluate_identity(
            identity_for("sum", 3), ghz(3),
            (flip_channel("PF", 0.38), flip_channel("PF", 0.29), flip_channel("BF", 0.17)))
        relabeled = evaluate_identity(identity_for("sum", 3), psi2, chans2)
        assert abs(direct.lhs - relabeled.lhs) <= 1e-12
        assert abs(direct.rhs - relabeled.rhs) <= 1e-12


class TestCampaign:
    def test_zero_samples_vacuous(self):
        config = CampaignConfig(state="bell", channels=("BF", "BF"), samples=0)
        report = run_campaign(config)
        assert report.rows == ()
        assert report.buckets == {}

    def test_bell_same_family_all_pass(self):
        config = CampaignConfig(state="bell", channels=("BF", "BF"), samples=100, seed=5)
        report = run_campaign(config)
        bucket = report.buckets[2]
        assert bucket.samples == bucket.evaluated == bucket.passed == 100
        assert bucket.max_residual <= 1e-8
        assert bucket.failure_indices == ()

    def test_deterministic_csv(self):
        config = CampaignConfig(state="ghz3", channels=("PF", "PF", "PF"), samples=25, seed=3)
        assert run_campaign(config).to_csv() == run_campaign(config).to_csv()

    def test_auto_skips_high_rank(self):
        config = CampaignConfig(state="ghz3", channels=("BPF", "BPF", "BPF"),
                                samples=10, seed=1)
        report = run_campaign(config)
        assert report.buckets[8].evaluated == 0
        assert all(r.residual is None for r in report.rows)

    def test_forced_identity_and_failure_examples(self):
        config = CampaignConfig(state="ghz3", channels=("BF", "BF", "BF"), samples=30,
                                seed=11, identity="sum")
        report = run_campaign(config)
        bucket = report.buckets[4]
        assert bucket.evaluated == bucket.samples
        assert bucket.passed == 0  # plain sum never matches
        assert len(bucket.failure_indices) == 10
        assert bucket.failure_indices == tuple(sorted(bucket.failure_indices))

    def test_rms_campaign_passes(self):
        config = CampaignConfig(state="w3", channels=("PF", "PF", "PF"), samples=30,
                                seed=13, identity="sum", aggregation="rms")
        report = run_campaign(config)
        assert report.buckets[3].passed == 30

    def test_arity_validation(self):
        config = CampaignConfig(state="ghz3", channels=("BF", "BF"), samples=1)
        with pytest.raises(DimensionMismatchError):
            run_campaign(config)

    def test_config_json_round_trip(self):
        config = CampaignConfig.from_json(json.dumps({
            "state": "ghz4", "channels": ["PF", "PF", "PF", "BF"], "samples": 5,
            "identity": "sum", "cut": "12|34", "normalization_exponent": "auto",
        }))
        assert config.cut == "12|34"
        assert config.normalization_exponent is None
        assert CampaignConfig.from_json(config.to_json_dict()) == config

    def test_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            CampaignConfig.from_json({"state": "bell", "channels": ["BF", "BF"],
                                      "samples": 1, "mode": "fast"})

    @pytest.mark.parametrize("field, value", [
        ("state", 5), ("channels", "BF,BF"), ("channels", ["BF", 2]), ("samples", "3"),
        ("samples", True), ("samples", 2.0), ("seed", 1.5), ("seed", False), ("tol", "x"),
        # leak_tol and rank_tol are no fields any more, so they are rejected as unknown
        ("tol", True), ("rank_tol", None), ("leak_tol", [1e-8]), ("cut", 12),
        ("normalization_exponent", "2"), ("normalization_exponent", True),
        ("relabel", 21), ("relabel", [2, 1.0]), ("relabel", [True, 2]),
    ])
    def test_config_rejects_wrong_types(self, field, value):
        fields = {"state": "bell", "channels": ["BF", "BF"], "samples": 3, field: value}
        with pytest.raises(ValueError, match=field.split("_")[0]):
            CampaignConfig.from_json(fields)

    def test_config_accepts_numpy_numbers(self):
        config = CampaignConfig(state="bell", channels=("BF", "BF"), samples=np.int64(2),
                                seed=np.int32(4), tol=np.float64(1e-8))
        assert len(run_campaign(config).rows) == 2

    def test_config_json_must_be_a_complete_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            CampaignConfig.from_json([{"state": "bell"}])
        with pytest.raises(ValueError, match="missing"):
            CampaignConfig.from_json({"state": "bell", "channels": ["BF", "BF"]})

    def test_config_rejects_unknown_anchor(self):
        # rank-16 rows never reach the evaluation, so only the config can catch it
        with pytest.raises(ValueError, match="anchor"):
            CampaignConfig(state="ghz4", channels=("general",) * 4, samples=3,
                           anchor="bogus")
        for anchor in ("last", "own"):
            assert CampaignConfig(state="bell", channels=("BF", "BF"), samples=1,
                                  anchor=anchor).anchor == anchor

    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("value", [0, 0.0, 5e-324])
    def test_config_accepts_tolerance_edges(self, field, value):
        config = CampaignConfig(state="bell", channels=("BF", "BF"), samples=1, **{field: value})
        assert getattr(config, field) == value
        assert len(run_campaign(config).rows) == 1

    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-300, -1])
    def test_config_rejects_bad_tolerances(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and nonnegative"):
            CampaignConfig(state="bell", channels=("BF", "BF"), samples=1, **{field: value})

    def test_config_rejects_nan_json_literal(self):
        text = '{"state": "bell", "channels": ["BF", "BF"], "samples": 1, "tol": NaN}'
        with pytest.raises(ValueError, match="^tol "):
            CampaignConfig.from_json(text)

    @pytest.mark.parametrize("field", ["seed", "samples"])
    def test_config_rejects_negative_counts(self, field):
        assert getattr(CampaignConfig(state="bell", channels=("BF", "BF"), samples=0, seed=0),
                       field) == 0
        fields = {"state": "bell", "channels": ("BF", "BF"), "samples": 0, field: -1}
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative"):
            CampaignConfig(**fields)

    def test_config_caps_samples(self):
        """Constructed only: no campaign near the cap is ever run."""
        fields = {"state": "bell", "channels": ("BF", "BF")}
        assert CampaignConfig(**fields, samples=MAX_SAMPLES).samples == MAX_SAMPLES == 1_000_000
        with pytest.raises(ValueError, match=f"^samples must be at most {MAX_SAMPLES}, got "
                                             f"{MAX_SAMPLES + 1}$"):
            CampaignConfig(**fields, samples=MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match="^samples must be at most"):
            CampaignConfig.from_json('{"state": "bell", "channels": ["BF", "BF"], '
                                     '"samples": 100000000000000000000}')

    def test_auto_identity_uses_the_configured_cut(self):
        base = CampaignConfig(state="w4", channels=("PF",) * 4, samples=3, cut="12|34")
        auto = run_campaign(base).rows
        forced = run_campaign(dataclasses.replace(base, identity="sum")).rows
        default = run_campaign(dataclasses.replace(base, cut=None)).rows
        assert [r.rank for r in auto] == [4, 4, 4]
        assert auto == forced
        assert all(a.lhs != d.lhs for a, d in zip(auto, default))

    def test_auto_identity_rejects_a_cut_of_the_wrong_size(self):
        with pytest.raises(DimensionMismatchError, match="12|3"):
            run_campaign(CampaignConfig(state="w4", channels=("PF",) * 4, samples=3,
                                        cut="12|3"))

    @pytest.mark.parametrize("config", [
        CampaignConfig(state="ghz3", channels=("PF", "PF", "BF"), samples=12, seed=21),
        CampaignConfig(state="ghz4", channels=("PF", "PF", "PF", "BF"), samples=6, seed=22,
                       identity="sum", cut="12|34"),
        CampaignConfig(state="w3", channels=("PF", "PF", "BF"), samples=8, seed=23,
                       identity="sum", relabel=(3, 1, 2), aggregation="rms"),
    ], ids=["auto", "sum-12|34", "relabel"])
    def test_rows_equal_evaluate_identity_bitwise(self, config):
        report = run_campaign(config)
        assert any(r.residual is not None for r in report.rows)
        psi0 = parse_state(config.state)
        for row, chans in zip(report.rows, campaign_draws(config), strict=True):
            psi = psi0
            if config.relabel is not None:
                psi = psi0.permuted(config.relabel)
                chans = tuple(chans[q - 1] for q in config.relabel)
            rank = apply(dict(enumerate(chans, start=1)), psi.to_density()).rank
            assert row.rank == rank
            form = config.identity
            if form == "auto":
                form = "product" if rank <= 2 \
                    else "sum" if rank <= 4 and psi.n_qubits >= 3 else None
            if form is None:
                assert row.residual is None
                continue
            identity = identity_for(form, psi.n_qubits, config.cut)
            rep = evaluate_identity(identity, psi, chans, aggregation=config.aggregation)
            assert (row.lhs, row.rhs, row.residual) == (rep.lhs, rep.rhs, rep.residual)

    @pytest.mark.parametrize("config", [
        CampaignConfig(state="w4", channels=("PF",) * 4, samples=10, seed=51,
                       identity="sum", aggregation="rms"),
        CampaignConfig(state="w4", channels=("PF",) * 4, samples=10, seed=52,
                       identity="sum", cut="12|34", aggregation="rms"),
        CampaignConfig(state="ghz4", channels=("PF", "PF", "PF", "BF"), samples=10, seed=53,
                       identity="sum", cut="12|34"),
        CampaignConfig(state="ghz3", channels=("PF", "PF", "BF"), samples=10, seed=54,
                       identity="sum", anchor="own"),
        CampaignConfig(state="w3", channels=("PF", "BF", "PF"), samples=10, seed=55,
                       identity="product", cut="2|13", relabel=(3, 1, 2)),
    ], ids=["w4-123|4", "w4-12|34", "ghz4-12|34", "ghz3-own", "w3-relabel-2|13"])
    def test_rows_match_evolved_factor_oracle(self, config):
        """Every factor evolved by `apply` and measured by `cut_concurrence`,
        whether or not the campaign read it from the one-sided law."""
        psi = parse_state(config.state)
        chans0 = campaign_draws(config)
        if config.relabel is not None:
            psi = psi.permuted(config.relabel)
            chans0 = [tuple(chans[q - 1] for q in config.relabel) for chans in chans0]
        identity = identity_for(config.identity, psi.n_qubits, config.cut)
        rho0 = psi.to_density()
        for row, chans in zip(run_campaign(config).rows, chans0):
            lhs = cut_concurrence(apply(dict(enumerate(chans, start=1)), rho0), identity.cut)
            factors = [cut_concurrence(apply({q if config.anchor == "own" else psi.n_qubits: ch},
                                             rho0), identity.cut)
                       for q, ch in enumerate(chans, start=1)]
            products = [np.prod([factors[q - 1] for q in term]) for term in identity.rhs_terms]
            rhs = np.sqrt(np.mean(np.square(products))) if config.aggregation == "rms" \
                else sum(products)
            assert abs(row.lhs - lhs) <= 1e-13
            assert abs(row.rhs - rhs) <= 1e-13

    @pytest.mark.parametrize("config", [
        CampaignConfig(state="ghz3", channels=("PF", "BF", "BPF"), samples=5, seed=31),
        CampaignConfig(state="w4", channels=("PF", "PF", "PF", "PF"), samples=3, seed=32,
                       identity="sum", relabel=(4, 3, 2, 1)),
    ])
    def test_rows_do_not_depend_on_sample_count(self, config):
        doubled = run_campaign(dataclasses.replace(config, samples=2 * config.samples))
        assert run_campaign(config).rows == doubled.rows[:config.samples]

    @pytest.mark.parametrize("samples", [25, _STACK + 3])
    def test_one_generator_per_campaign(self, samples, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counted(*args):
            built.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        config = CampaignConfig(state="ghz3", channels=("PF", "PF", "BF"), samples=samples,
                                seed=45)
        assert len(run_campaign(config).rows) == samples
        assert built == [(45,)]

    def test_adjacent_seeds_share_no_sample(self):
        """Campaigns at seeds b and b + 1 draw independent streams, so no
        evaluated lhs repeats between them."""
        base = CampaignConfig(state="bell", channels=("BF", "BF"), samples=200, seed=0)
        lhs = [{r.lhs for r in run_campaign(dataclasses.replace(base, seed=s)).rows}
               for s in (0, 1)]
        assert len(lhs[0]) == len(lhs[1]) == 200
        assert not lhs[0] & lhs[1]

    @pytest.mark.parametrize("config, rank_tol", [
        # a coarse rank tolerance spreads the rows over the product, sum and
        # unevaluated buckets, so the auto mode evaluates two identities
        (CampaignConfig(state="w3", channels=("PF", "BF", "PF"), samples=24, seed=41), 0.03),
        (CampaignConfig(state="ghz4", channels=("PF", "PF", "BF", "PF"), samples=10, seed=42,
                        anchor="own", aggregation="rms"), 0.02),
        (CampaignConfig(state="w4", channels=("PF", "PF", "PF", "PF"), samples=8, seed=43,
                        identity="sum", cut="12|34", relabel=(2, 4, 1, 3)), RANK_TOL),
        (CampaignConfig(state="ghz3", channels=("BF", "BF", "BF"), samples=_STACK + 3,
                        seed=44), 0.05),
    ], ids=["auto-three-buckets", "anchor-own", "relabel", "more-than-one-stack"])
    def test_rows_equal_one_sample_campaigns_bitwise(self, config, rank_tol, monkeypatch):
        """Rows do not depend on the stacking: one-sample stacks give the
        same rows, bit for bit."""
        monkeypatch.setattr(factorization, "RANK_TOL", rank_tol)
        report = run_campaign(config)
        assert len({r.rank for r in report.rows}) > 1 or config.identity != "auto"
        monkeypatch.setattr(factorization, "_STACK", 1)
        assert run_campaign(config).rows == report.rows

    @pytest.mark.parametrize("config", [
        CampaignConfig(state="w3", channels=("PF", "BF", "PF"), samples=_STACK + 3, seed=46),
        CampaignConfig(state="ghz4", channels=("PF", "PF", "PF", "BF"), samples=40, seed=47,
                       identity="sum", cut="12|34", anchor="own"),
        CampaignConfig(state="w4", channels=("PF", "BF", "PF", "PF"), samples=40, seed=48,
                       identity="sum", cut="12|34"),
    ], ids=["w3-auto", "ghz4-12|34-own", "w4-12|34"])
    def test_exact_zero_flip_rows_equal_one_sample_campaigns_bitwise(self, config, monkeypatch):
        """A BF draw with a2 = 0 exactly moves nothing, yet its qubit still
        counts as moving: the support plan comes from the families, so each
        row equals its one-sample campaign bit for bit."""
        bf = config.channels.index("BF")
        zeroed = []

        def exact_zero_flips(families, rng, samples):
            params = draw_params(families, rng, samples)
            rows = np.abs(params[:, bf, 1]) < 0.3  # a per-row rule: replays alike
            params[rows, bf] = (1.0, 0.0, 0.0, 0.0)
            zeroed.append(rows)
            return params

        monkeypatch.setattr(factorization, "draw_params", exact_zero_flips)
        report = run_campaign(config)
        rows = np.concatenate(zeroed)
        assert 0 < rows.sum() < len(rows)
        assert any(r.residual is not None for r, z in zip(report.rows, rows) if z)
        monkeypatch.setattr(factorization, "_STACK", 1)
        assert run_campaign(config).rows == report.rows

    @pytest.mark.parametrize("config, rank_tol", [
        (CampaignConfig(state="w3", channels=("PF", "BF", "PF"), samples=24, seed=41), 0.03),
        (CampaignConfig(state="ghz3", channels=("BF", "BF", "BF"), samples=_STACK + 3,
                        seed=44), 0.05),
        (CampaignConfig(state="w4", channels=("PF",) * 4, samples=_STACK + 3, seed=7,
                        aggregation="rms"), RANK_TOL),
        (CampaignConfig(state="ghz4", channels=("GeneralPauli",) * 4, samples=_STACK + 3,
                        seed=7), RANK_TOL),
    ], ids=["mixed-buckets", "mixed-two-stacks", "w4", "ghz4-general"])
    def test_one_kernel_call_per_evaluated_stack(self, config, rank_tol, monkeypatch):
        """Every evaluated row of a stack, whatever its identity, shares one
        `cut_totals` call with rho0; a stack without one makes none."""
        calls = []

        def counted(mats, cut):
            calls.append(len(mats))
            return cut_totals(mats, cut)

        monkeypatch.setattr(factorization, "cut_totals", counted)
        monkeypatch.setattr(factorization, "RANK_TOL", rank_tol)
        rows = run_campaign(config).rows
        stacks = [rows[start:start + _STACK] for start in range(0, len(rows), _STACK)]
        # the default cut puts every anchor alone on its side: no factor state
        evaluated = [sum(r.residual is not None for r in stack) for stack in stacks]
        assert calls == [count + 1 for count in evaluated if count]
        if config.state == "ghz4":
            assert calls == []
        elif config.state != "w4":
            # product (rank <= 2) and sum rows share the first stack's call
            forms = {r.rank <= 2 for r in stacks[0] if r.residual is not None}
            assert forms == {True, False}

    def test_zero_initial_concurrence_rejects_negative_exponent(self):
        config = CampaignConfig(state="bell:alpha=1", channels=("BF", "BF"), samples=2,
                                identity="product", normalization_exponent=-1)
        with pytest.raises(ValueError, match="exponent"):
            run_campaign(config)

    def test_cut_on_wrong_qubit_count(self):
        config = CampaignConfig(state="ghz4", channels=("PF",) * 4, samples=1,
                                identity="sum", cut="12|3")
        with pytest.raises(DimensionMismatchError):
            run_campaign(config)

    def test_csv_shape(self):
        config = CampaignConfig(state="bell", channels=("PF", "PF"), samples=4, seed=2)
        lines = run_campaign(config).to_csv().strip().split("\n")
        assert lines[0].startswith("# {")
        assert lines[1] == "seed,rank,lhs,rhs,residual,pass"
        assert len(lines) == 2 + 4 + 1
        assert lines[-1].startswith("# summary ")
        summary = json.loads(lines[-1].removeprefix("# summary "))
        assert summary["2"]["passed"] == 4
