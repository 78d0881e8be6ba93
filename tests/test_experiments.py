import json
import math

import pytest

from conclab.channels import apply, flip_channel
from conclab.concurrence import tau3
from conclab.experiments import (
    CATALOGUE,
    GENERIC_PS,
    SweepSpec,
    _tau3_bpf3,
    figure1_scan,
    rank_table,
    rank_table_csv,
)
from conclab.states import ghz


class TestSweepSpec:
    def test_default_grid(self):
        spec = SweepSpec()
        assert len(spec.p_grid) == 101
        assert spec.p_grid[0] == 0.0
        assert spec.p_grid[-1] == 0.5

    def test_uniform_points(self):
        spec = SweepSpec.uniform(11)
        assert spec.p_grid[1] == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(p_grid=(0.2, 0.1))
        with pytest.raises(ValueError):
            SweepSpec(p_grid=(0.0, 0.7))


@pytest.fixture(scope="module")
def result():
    return figure1_scan(SweepSpec.uniform(26))


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
        # the direct bound vanishes at p ~ 0.3522 for this scenario
        assert abs(result.zero_crossing - 0.3522) < 2e-3

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
        spec = SweepSpec.uniform(6)
        assert figure1_scan(spec).to_csv() == figure1_scan(spec).to_csv()

    def test_rows_equal_point_by_point_bitwise(self, result):
        rho0 = ghz(3).to_density()
        for p, direct, _, _ in result.rows:
            assert _tau3_bpf3([p], rho0.mat)[0] == direct
            channels = [flip_channel("BPF", p)] * 3
            assert tau3(apply(dict(enumerate(channels, start=1)), rho0)) == direct

    def test_no_crossing_reports_nan(self):
        result = figure1_scan(SweepSpec(p_grid=(0.0, 0.1, 0.2)))
        assert math.isnan(result.zero_crossing)


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
