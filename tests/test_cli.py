import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conclab.cli import cli_main


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_two_qubit_closed_form(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "product",
                       "--state", "bell", "--channels", "BF:p=0.2,BF:p=0.3")
    assert code == 0
    lines = out.strip().split("\n")
    headers = lines[1].split(",")
    values = lines[2].split(",")
    record = dict(zip(headers, values))
    assert float(record["residual"]) <= 1e-10
    assert abs(float(record["lhs"]) - 0.24) < 1e-12  # |1-0.4| * |1-0.6|
    assert record["final_rank"] == "2"


def test_verify_rms_aggregation(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "sum", "--state", "w3",
                       "--channels", "PF:p=0.1,PF:p=0.2,PF:p=0.3", "--aggregation", "rms")
    assert code == 0
    record = dict(zip(*[line.split(",") for line in out.strip().split("\n")[1:3]]))
    assert float(record["residual"]) <= 1e-10


def test_figure1_csv_shape(tmp_path, capsys):
    target = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "figure1", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().split("\n")
    data = [line for line in lines if not line.startswith("#")][1:]
    assert len(data) == 101
    assert all(len(row.split(",")) == 4 for row in data)


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_validation_error_exits_one(capsys):
    code, _, err = run(capsys, "evolve", "--state", "ghz9")
    assert code == 1
    assert "error" in err.lower()


def test_spectral_leak_exits_two(capsys):
    code, _, err = run(capsys, "concurrence", "--state", "ghz3", "--leak-tol=-1")
    assert code == 2
    assert "error" in err.lower()


def test_evolve_dump(capsys):
    code, out, _ = run(capsys, "evolve", "--state", "bell", "--channels", "BF:p=0.25,I")
    assert code == 0
    lines = out.strip().split("\n")
    header = json.loads(lines[0].removeprefix("# "))
    assert header["n_qubits"] == 2 and header["rank"] == 2
    assert abs(header["trace"] - 1.0) < 1e-12
    assert lines[1] == "i,j,re,im"
    assert len(lines) == 2 + 16


def test_concurrence_total(capsys):
    code, out, _ = run(capsys, "concurrence", "--state", "w3", "--cut", "12|3")
    assert code == 0
    label, value = out.strip().split(",")
    assert label == "total"
    assert abs(float(value) - 2 * np.sqrt(2) / 3) < 1e-10


def test_concurrence_breakdown_columns(capsys):
    code, out, _ = run(capsys, "concurrence", "--state", "ghz3", "--breakdown")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "m,n,lambda1,lambda2,lambda3,lambda4,c_mn"
    assert len(lines) == 2 + 6  # six generator pairs for the 4x2 cut


def test_concurrence_tau3(capsys):
    code, out, _ = run(capsys, "concurrence", "--state", "ghz3", "--tau3")
    assert code == 0
    assert abs(float(out.strip().split(",")[1]) - 1.0) < 1e-10


def test_concurrence_matrix_file(tmp_path, capsys):
    rho = [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"matrix": rho}))
    code, out, _ = run(capsys, "concurrence", "--matrix", str(path))
    assert code == 0
    assert abs(float(out.strip().split(",")[1]) - 1.0) < 1e-10


def test_campaign_from_config_file(tmp_path, capsys):
    config = {"state": "bell", "channels": ["BF", "BF"], "samples": 20, "seed": 4}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "campaign", "--config", str(path), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    summary = json.loads(lines[-1].removeprefix("# summary "))
    assert summary["2"]["passed"] == 20


def test_campaign_config_bad_anchor_exits_one(tmp_path, capsys):
    config = {"state": "ghz4", "channels": ["general"] * 4, "samples": 5, "anchor": "bogus"}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "anchor" in err
    assert len(err.strip().split("\n")) == 1
    assert "Traceback" not in err


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.strip().split("\n")) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text, needle", [
    ('{"state": "bell", "channels": ["BF", "BF"], "samples": "3"}', "samples"),
    ('{"state": "bell", "channels": ["BF", "BF"], "samples": 3, "seed": 1.5}', "seed"),
    ('{"state": "bell", "channels": ["BF", "BF"], "samples": 3, "tol": "x"}', "tol"),
    ('{"state": 5, "channels": ["BF", "BF"], "samples": 3}', "state"),
    ('[{"state": "bell", "channels": ["BF", "BF"], "samples": 3}]', "JSON object"),
    ('{"state": "bell", "channels": ["BF", "BF"], "samples": true}', "samples"),
    ('{"state": "ghz3", "channels": "BF,PF,PF", "samples": 3}', "channels"),
], ids=["samples-string", "seed-float", "tol-string", "state-number", "top-level-list",
        "samples-bool", "channels-string"])
def test_campaign_config_schema_exits_one(tmp_path, capsys, text, needle):
    path = tmp_path / "campaign.json"
    path.write_text(text)
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert_one_error_line(code, out, err)
    assert needle in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

_FIELDS = {
    "state": st.sampled_from(["bell", "ghz3", "w3", "ghz4", "bell:alpha=1", "bell:alpha=x",
                              "[1, 0]", "[1]", "[null, 1]", "[[1, 0], 0]", "nope"]) | _JSON,
    "channels": st.lists(st.sampled_from(["BF", "PF", "BPF", "general", "XY"]), max_size=5)
    | _JSON,
    "samples": st.integers(-1, 3) | _JSON,
    "seed": st.integers(-2, 5) | _JSON,
    "tol": st.sampled_from([1e-8, 0, -1.0]) | _JSON,
    "identity": st.sampled_from(["auto", "product", "sum"]) | _JSON,
    "cut": st.sampled_from(["12|3", "1|2", "12|34", "3|12", "1|1"]) | _JSON,
    "normalization_exponent": st.sampled_from(["auto", -1, 0, 2]) | _JSON,
    "aggregation": st.sampled_from(["sum", "rms"]) | _JSON,
    "anchor": st.sampled_from(["last", "own"]) | _JSON,
    "rank_tol": st.sampled_from([1e-10, 0.05]) | _JSON,
    "leak_tol": st.sampled_from([1e-8, -1.0]) | _JSON,
    "relabel": st.sampled_from([[2, 1], [3, 2, 1], [1, 1, 2]]) | _JSON,
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=st.fixed_dictionaries({}, optional=_FIELDS) | _JSON)
def test_campaign_config_fuzz_never_tracebacks(tmp_path, capsys, config):
    """Any config JSON ends in exit 0, 1 or 2; a failure is one error line."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error:") and len(err.strip().split("\n")) == 1


def test_campaign_flag_overrides(tmp_path, capsys):
    config = {"state": "bell", "channels": ["BF", "BF"], "samples": 5, "seed": 4}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "campaign", "--config", str(path), "--samples", "2")
    assert code == 0
    header = json.loads(out.strip().split("\n")[0].removeprefix("# "))
    assert header["samples"] == 2


def test_campaign_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("CONCLAB_SEED", "99")
    code, out, _ = run(capsys, "campaign", "--state", "bell", "--channels", "BF,BF",
                       "--samples", "1")
    assert code == 0
    header = json.loads(out.strip().split("\n")[0].removeprefix("# "))
    assert header["seed"] == 99


def test_campaign_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CONCLAB_SEED", "not-a-number")
    code, _, err = run(capsys, "campaign", "--state", "bell", "--channels", "BF,BF",
                       "--samples", "1")
    assert code == 1
    assert "CONCLAB_SEED" in err


def test_campaign_missing_fields(capsys):
    code, _, err = run(capsys, "campaign", "--state", "bell")
    assert code == 1
    assert "missing" in err


def test_concurrence_requires_a_source(capsys):
    code, _, err = run(capsys, "concurrence")
    assert code == 1
    assert "--state or --matrix" in err


def test_concurrence_rejects_channels_with_matrix(capsys, tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    code, _, err = run(capsys, "concurrence", "--matrix", str(path),
                       "--channels", "BF:p=0.1")
    assert code == 1
    assert "--matrix" in err
