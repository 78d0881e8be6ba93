import json

import numpy as np
import pytest

from conclab import experiments
from conclab.channels import apply, flip_channel
from conclab.concurrence import tau3
from conclab.experiments import (
    BISECT_TOL,
    CATALOGUE,
    GENERIC_PS,
    MAX_POINTS,
    VANISH_TOL,
    _tau3_bpf3,
    figure1_scan,
    rank_table,
    rank_table_csv,
)
from conclab.states import ghz


class TestSweepSpec:
    """The sweep's one grid shape: `points` evenly spaced p from 0 to 0.5."""

    def test_default_grid(self):
        grid = [row[0] for row in figure1_scan().rows]
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 0.5

    def test_uniform_points(self):
        grid = [row[0] for row in figure1_scan(11).rows]
        assert grid[1] == pytest.approx(0.05)
        assert grid == [0.5 * k / 10 for k in range(11)]

    def test_validation(self):
        for points in (1, 0, -3):
            with pytest.raises(ValueError, match="at least two grid points"):
                figure1_scan(points)

    def test_grid_cap_edges(self):
        assert MAX_POINTS == 10001
        result = figure1_scan(MAX_POINTS)
        assert len(result.rows) == MAX_POINTS
        assert result.rows[-1][0] == 0.5
        with pytest.raises(ValueError, match=f"at most {MAX_POINTS} grid points, got 10002"):
            figure1_scan(MAX_POINTS + 1)


@pytest.fixture(scope="module")
def result():
    return figure1_scan(26)


# The direct curve vanishes where the ghz3 state under BPF(p)^3 turns
# separable on its 2|1 cuts: the real root of 2p^3 - 4p^2 + 4p - 1.
P_STAR = float(next(r.real for r in np.roots([2, -4, 4, -1]) if abs(r.imag) < 1e-12))


class TestFigure1:
    def test_no_noise_endpoint(self, result):
        p, direct, prod, summ = result.rows[0]
        assert p == 0.0
        assert direct == pytest.approx(1.0, abs=1e-10)
        assert prod == 1.0 and summ == 1.0

    def test_full_noise_endpoint(self, result):
        p, direct, prod, summ = result.rows[-1]
        assert p == 0.5
        assert direct == pytest.approx(0.0, abs=1e-12)
        assert prod == 0.0 and summ == 0.0

    def test_closed_form_columns(self, result):
        for p, _, prod, summ in result.rows:
            assert prod == pytest.approx((1 - 2 * p) ** 3, abs=1e-10)
            assert summ == pytest.approx((1 - 2 * p) ** 2, abs=1e-10)

    def test_direct_curve_bounded_and_decreasing_to_zero(self, result):
        values = [r[1] for r in result.rows]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)
        assert values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_crossing_location(self, result):
        assert P_STAR == pytest.approx(0.3522011287389578, abs=1e-15)
        assert abs(result.zero_crossing - P_STAR) <= BISECT_TOL
        for points in (2, 6, 101):  # every grid brackets the crossing
            assert abs(figure1_scan(points).zero_crossing - P_STAR) <= BISECT_TOL

    @pytest.mark.parametrize("points", [2, 26, 101, 10001])
    def test_zero_crossing_brackets_the_vanishing_point(self, points):
        c = figure1_scan(points).zero_crossing
        before, after = _tau3_bpf3([c - BISECT_TOL / 2, c + BISECT_TOL / 2])
        assert before > VANISH_TOL >= after

    def test_default_grid_refines_in_one_round(self, monkeypatch):
        calls = []

        def counted(ps):
            calls.append(len(ps))
            return _tau3_bpf3(ps)

        monkeypatch.setattr(experiments, "_tau3_bpf3", counted)
        figure1_scan(101)
        assert calls == [101, experiments.REFINE_POINTS]

    def test_csv_shape_and_header(self, result):
        lines = result.to_csv().strip().split("\n")
        header = json.loads(lines[0].removeprefix("# "))
        assert header["scenario"] == "ghz3-bpf3"
        assert header["points"] == 26
        assert abs(header["zero_crossing"] - result.zero_crossing) < 1e-12
        assert lines[1] == "p,tau3_direct,product_form,sum_form"
        assert len(lines) == 2 + 26
        assert all(len(line.split(",")) == 4 for line in lines[2:])

    def test_csv_deterministic(self):
        assert figure1_scan(6).to_csv() == figure1_scan(6).to_csv()

    def test_rows_equal_point_by_point_bitwise(self, result):
        rho0 = ghz(3).to_density()
        for p, direct, _, _ in result.rows:
            assert _tau3_bpf3([p])[0] == direct
            channels = [flip_channel("BPF", p)] * 3
            assert tau3(apply(dict(enumerate(channels, start=1)), rho0)) == direct


class TestRankTable:
    def test_every_scenario_matches_claim(self):
        rows = rank_table()
        claimed = [(state, families) for state, families, rank in CATALOGUE if rank is not None]
        assert len(CATALOGUE) == 12
        assert [(row.state, row.families) for row in rows] == claimed
        assert len(rows) == 9
        for row in rows:
            assert row.match, f"{row.state} {row.families}: {row.computed_rank} != {row.claimed_rank}"

    def test_generic_parameters_are_distinct(self):
        assert len(set(GENERIC_PS)) == len(GENERIC_PS)

    def test_csv_format(self):
        lines = rank_table_csv(rank_table()).strip().split("\n")
        assert lines[0] == "state,families,computed_rank,claimed_rank,match"
        assert len(lines) == 10
        assert lines[1] == "ghz3,PF+PF+PF,2,2,1"
