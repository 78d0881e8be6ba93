"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see all
lines; failing criteria show their captured output by default).

Criteria are asserted exactly as stated, at their stated tolerances. Where a
clause does not hold for the faithfully implemented definitions, the test
fails and prints the measured values; the informational `note:` lines report
what the implementation does establish.
"""

import time

import numpy as np
import pytest

from conclab.channels import apply, sample_channel
from conclab.concurrence import Bipartition, bipartite_concurrence, parse_cut, wootters
from conclab.experiments import figure1_scan, rank_table
from conclab.factorization import (
    CampaignConfig,
    default_cut,
    evaluate_identity,
    identity_for,
    run_campaign,
)
from conclab.linalg import DensityMatrix
from conclab.states import bell, ghz, parse_state, random_pure, w

from oracles import all_cuts, dense_cut_concurrence, pure_cut_concurrence, random_density

SQ2 = 1 / np.sqrt(2)


def _finish(number, title, clauses):
    ok = all(flag for _, flag in clauses)
    print(f"\nACCEPTANCE CRITERION {number:02d} [{'PASS' if ok else 'FAIL'}] {title}")
    for text, flag in clauses:
        print(f"    [{'pass' if flag else 'FAIL'}] {text}")
    assert ok, f"criterion {number} failed: " + "; ".join(t for t, f in clauses if not f)


def _sampled(families, seed):
    rng = np.random.default_rng(seed)
    return tuple(sample_channel(f, rng) for f in families)


def _worst_residual(state, families, identity, n_draws, seed0, **kwargs):
    worst = 0.0
    for i in range(n_draws):
        rep = evaluate_identity(identity, state, _sampled(families, seed0 + i), **kwargs)
        worst = max(worst, rep.residual)
    return worst


def test_criterion_01_two_qubit_product_families():
    state = bell(SQ2)
    identity = identity_for("product", 2)
    clauses = []
    start = time.perf_counter()
    for k, family in enumerate(("BF", "PF", "BPF")):
        worst = _worst_residual(state, [family] * 2, identity, 1000, 10_000 * (k + 1))
        clauses.append((f"{family}x{family}: 1000/1000 residuals <= 1e-8 "
                        f"(worst {worst:.3e})", worst <= 1e-8))
    elapsed = time.perf_counter() - start
    clauses.append((f"sequential runtime {elapsed:.2f}s <= 5s", elapsed <= 5.0))
    _finish(1, "two-qubit product factorization across flip families", clauses)


def test_criterion_02_rank_table():
    clauses = []
    for row in rank_table():
        label = f"({row.state}, {'+'.join(row.families)}) -> {row.computed_rank} " \
                f"(claimed {row.claimed_rank})"
        clauses.append((label, row.match))
    _finish(2, "final ranks of all catalogued scenarios", clauses)


def test_criterion_03_three_qubit_identities():
    clauses = []
    worst = _worst_residual(ghz(3), ["PF"] * 3, identity_for("product", 3), 100, 31_000)
    clauses.append((f"product on ghz3 under PF^3: worst residual {worst:.3e} <= 1e-8",
                    worst <= 1e-8))
    sum_id = identity_for("sum", 3)
    scenarios = [
        (ghz(3), "ghz3", ["BF", "BF", "BF"], 32_000),
        (ghz(3), "ghz3", ["PF", "PF", "BF"], 33_000),
        (ghz(3), "ghz3", ["PF", "PF", "BPF"], 34_000),
        (w(3), "w3", ["PF", "PF", "PF"], 35_000),
    ]
    for state, name, families, seed0 in scenarios:
        worst = _worst_residual(state, families, sum_id, 100, seed0)
        rms = _worst_residual(state, families, sum_id, 100, seed0, aggregation="rms")
        clauses.append((f"sum on {name} under {'+'.join(families)}: worst residual "
                        f"{worst:.3e} <= 1e-8 (note: rms aggregation gives {rms:.3e})",
                        worst <= 1e-8))
    _finish(3, "three-qubit product and sum factorizations", clauses)


def test_criterion_04_four_qubit_identities():
    clauses = []
    for cut in ("123|4", "12|34"):
        worst = _worst_residual(ghz(4), ["PF"] * 4,
                                identity_for("product", 4, cut), 100, 41_000)
        clauses.append((f"product on ghz4 under PF^4, cut {cut}: worst residual "
                        f"{worst:.3e} <= 1e-8", worst <= 1e-8))
    scenarios = [
        (ghz(4), "ghz4", ["PF", "PF", "PF", "BF"], 42_000),
        (w(4), "w4", ["PF", "PF", "PF", "PF"], 43_000),
    ]
    for state, name, families, seed0 in scenarios:
        for cut in ("123|4", "12|34"):
            sum_id = identity_for("sum", 4, cut)
            worst = _worst_residual(state, families, sum_id, 100, seed0)
            rms = _worst_residual(state, families, sum_id, 100, seed0, aggregation="rms")
            clauses.append((f"sum on {name} under {'+'.join(families)}, cut {cut}: worst "
                            f"residual {worst:.3e} <= 1e-8 (note: rms gives {rms:.3e})",
                            worst <= 1e-8))
    _finish(4, "four-qubit product and sum factorizations", clauses)


def test_criterion_05_lower_bound_sweep():
    result = figure1_scan(101)
    clauses = []
    crossing = result.zero_crossing
    clauses.append((f"direct curve vanishes at p = {crossing:.4f}, required 0.31 +- 0.01",
                    abs(crossing - 0.31) <= 0.01))
    closed_ok = all(
        abs(prod - (1 - 2 * p) ** 3) <= 1e-10 and abs(summ - (1 - 2 * p) ** 2) <= 1e-10
        for p, _, prod, summ in result.rows)
    clauses.append(("closed-form columns match (1-2p)^3 and (1-2p)^2 within 1e-10", closed_ok))
    interior_positive = all(
        prod > 0.0 and summ > 0.0
        for p, _, prod, summ in result.rows if p < 0.5 - 1e-6)
    end_zero = result.rows[-1][2] == 0.0 and result.rows[-1][3] == 0.0
    clauses.append(("approximations reach 0 only at p = 0.5 +- 1e-6",
                    interior_positive and end_zero))
    _finish(5, "lower-bound sweep of ghz3 under identical BPF channels", clauses)


def test_criterion_06_measure_consistency():
    clauses = []
    rng = np.random.default_rng(61)
    cut12 = Bipartition((1,), (2,))
    worst = 0.0
    for _ in range(500):
        rho = DensityMatrix(random_density(2, 2, rng))
        worst = max(worst, abs(bipartite_concurrence(rho, cut12).total - wootters(rho)))
    clauses.append((f"500 rank<=2 states: |bipartite - wootters| worst {worst:.3e} <= 1e-8",
                    worst <= 1e-8))
    worst = 0.0
    rng = np.random.default_rng(62)
    for n in (3, 4):
        for _ in range(100):
            psi = random_pure(n, rng)
            rho = psi.to_density()
            for block1, block2 in all_cuts(n):
                got = bipartite_concurrence(rho, Bipartition(block1, block2)).total
                worst = max(worst, abs(got - pure_cut_concurrence(psi.amplitudes, block1)))
    clauses.append((f"200 pure 3/4-qubit states, every cut vs purity oracle: worst "
                    f"{worst:.3e} <= 1e-8", worst <= 1e-8))
    _finish(6, "generalized concurrence agrees with its independent oracles", clauses)


def test_criterion_07_four_eigenvalue_property():
    # The dense formula reads every pair's l's from all d singular values of
    # sqrt(rho) (L_m kron L_n) sqrt(rho)* in full dimension, so a fifth
    # nonzero l would show there. It is checked on the final states of the
    # campaign scenarios, on their cuts, and on the three 2|1 cuts of ghz3
    # under identical BPF. A fifth l needs a state of rank above four, so
    # the rank-8 BPF states carry the check; the campaign states have rank
    # at most four.
    scenarios = [
        ("bell", ("BF", "BF"), None, 71),
        ("bell", ("PF", "PF"), None, 72),
        ("bell", ("BPF", "BPF"), None, 73),
        ("ghz3", ("PF", "PF", "PF"), None, 74),
        ("ghz3", ("BF", "BF", "BF"), None, 75),
        ("w3", ("PF", "PF", "PF"), None, 76),
        ("ghz4", ("PF", "PF", "PF", "PF"), None, 77),
        ("ghz4", ("PF", "PF", "PF", "BF"), "12|34", 78),
        ("w4", ("PF", "PF", "PF", "PF"), None, 79),
    ]
    cases = []  # (density matrix, cut)
    for state, families, cut, seed in scenarios:
        psi = parse_state(state)
        cut = parse_cut(cut) if cut else default_cut(psi.n_qubits)
        for i in range(10):
            chans = _sampled(families, 100 * seed + i)
            cases.append((apply(dict(enumerate(chans, start=1)), psi.to_density()), cut))
    for i in range(10):
        ch = _sampled(["BPF"], 8000 + i)[0]
        rho = apply({1: ch, 2: ch, 3: ch}, ghz(3).to_density())
        cases += [(rho, cut) for cut in (parse_cut("12|3"), parse_cut("13|2"),
                                         parse_cut("23|1"))]
    pairs = 0
    all_d = True
    worst = 0.0
    for rho, cut in cases:
        terms, _ = dense_cut_concurrence(rho.mat, cut.block1, cut.block2)
        pairs += len(terms)
        all_d = all_d and all(len(lam) == rho.dim for _, _, lam, _ in terms)
        worst = max([worst] + [float(lam[4]) ** 2 for _, _, lam, _ in terms if len(lam) > 4])
    clauses = [
        (f"dense spectra of {pairs} pairs over {len(cases)} states hold all d l's", all_d),
        (f"largest fifth l^2 {worst:.3e} <= 1e-8", worst <= 1e-8),
    ]
    _finish(7, "at most four nonzero eigenvalues per pair inversion", clauses)


def test_criterion_08_cptp_contract():
    rng = np.random.default_rng(81)
    worst_trace = worst_herm = 0.0
    min_eig = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        psi = random_pure(n, rng)
        families = rng.choice(["BF", "PF", "BPF", "GeneralPauli"], size=n)
        channels = {q: sample_channel(fam, rng) for q, fam in enumerate(families, start=1)}
        out = apply(channels, psi.to_density())
        worst_trace = max(worst_trace, abs(out.mat.trace().real - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(out.mat - out.mat.conj().T))))
        min_eig = min(min_eig, float(out.eigenvalues[0]))
    clauses = [
        (f"trace preserved within 1e-10 (worst {worst_trace:.3e})", worst_trace <= 1e-10),
        (f"Hermiticity preserved within 1e-10 (worst {worst_herm:.3e})", worst_herm <= 1e-10),
        (f"eigenvalues above -1e-9 (worst {min_eig:.3e})", min_eig >= -1e-9),
    ]
    _finish(8, "channel applications are trace preserving and positive", clauses)


def test_criterion_09_nonmaximal_two_qubit():
    identity = identity_for("product", 2)
    clauses = []
    for alpha in (0.3, 0.6, 0.8):
        state = bell(alpha)
        by_exponent = {
            e: _worst_residual(state, ["BF", "BF"], identity, 100, 91_000,
                               normalization_exponent=e)
            for e in (0, 1, 2)
        }
        passing = sorted(e for e, worst in by_exponent.items() if worst <= 1e-8)
        detail = ", ".join(f"e={e}: {worst:.3e}" for e, worst in sorted(by_exponent.items()))
        clauses.append((f"alpha={alpha}: exponent e=1 residual <= 1e-8 "
                        f"({detail}; passing conventions: {passing})",
                        by_exponent[1] <= 1e-8))
    _finish(9, "degree-matched normalization for nonmaximal initial states", clauses)


def test_criterion_10_campaign_determinism(tmp_path):
    config = CampaignConfig(state="ghz3", channels=("PF", "PF", "BF"), samples=50,
                            seed=101, identity="sum")
    first = run_campaign(config).to_csv()
    second = run_campaign(config).to_csv()
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_a.write_text(first)
    path_b.write_text(second)
    identical = path_a.read_bytes() == path_b.read_bytes()
    clauses = [("rerun with identical config and seed produces a bitwise-identical CSV",
                identical and first == second)]
    _finish(10, "campaign reproducibility", clauses)
