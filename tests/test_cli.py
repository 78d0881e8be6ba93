import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conclab
from conclab import cli, linalg
from conclab.channels import _canonical_family, apply, draw_params, parse_channel_list
from conclab.cli import cli_main
from conclab.experiments import CATALOGUE
from conclab.factorization import CampaignConfig, run_campaign
from conclab.linalg import density_spectra
from conclab.states import parse_state


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


def test_figure1_points_above_cap_exit_one(tmp_path, capsys):
    target = tmp_path / "fig1.csv"
    assert_one_error_line(*run(capsys, "figure1", "--points", "10002", "--out", str(target)))
    assert not target.exists()


@pytest.mark.parametrize("samples", ["1000001", "100000000000000000000"])
@pytest.mark.parametrize("source", ["flag", "config", "sweep"])
def test_samples_above_cap_exit_one(tmp_path, capsys, source, samples):
    """Constructed only: no campaign near the cap is ever run."""
    if source == "config":
        path = tmp_path / "campaign.json"
        path.write_text(f'{{"state": "ghz3", "channels": ["PF", "PF", "PF"], "samples": {samples}}}')
        argv = ["campaign", "--config", str(path)]
    elif source == "flag":
        argv = ["campaign", "--state", "ghz3", "--channels", "PF,PF,PF", "--samples", samples]
    else:
        argv = ["sweep", "--samples", samples, "--out-dir", str(tmp_path / "results")]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: samples must be at most 1000000, got {samples}\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("cut, needle", [
    ("12|34|5", "'12|34|5' has more than one '|' separator"),
    ("a|b", "'a|b' has qubit 'a', which is not a number"),
    ("1,x|2,3,4", "'1,x|2,3,4' has qubit 'x', which is not a number"),
], ids=["two-separators", "letters", "comma-letter"])
@pytest.mark.parametrize("command", ["concurrence", "verify"])
def test_bad_cut_exits_one(capsys, command, cut, needle):
    argv = [command, "--state", "w4", "--cut", cut]
    if command == "verify":
        argv += ["--identity", "sum", "--channels", "PF:p=0.1,PF:p=0.2,PF:p=0.3,PF:p=0.4"]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: cut spec {needle}\n"


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--state", "bell", "--channels", "BF:p=0.1,,PF:p=0.2"],
     "channel list 'BF:p=0.1,,PF:p=0.2' has an empty item"),
    (["verify", "--identity", "product", "--state", "bell", "--channels", "BF:p=0.1, ,PF:p=0.2"],
     "channel list 'BF:p=0.1, ,PF:p=0.2' has an empty item"),
    (["campaign", "--state", "ghz3", "--channels", "PF,PF,PF", "--samples", "1",
      "--relabel", "2,1,"], "argument --relabel: '2,1,' has an empty item"),
    (["campaign", "--state", "bell", "--channels", "BF,,BF", "--samples", "1"],
     "argument --channels: 'BF,,BF' has an empty item"),
    (["concurrence", "--state", "w3", "--cut", "1,,2|3"], "cut spec '1,,2|3' has an empty item"),
    (["concurrence", "--state", "w3", "--cut", "1,2| ,3"], "cut spec '1,2| ,3' has an empty item"),
    (["evolve", "--state", "bell", "--channels", ""], "channel list '' has an empty item"),
    (["concurrence", "--state", "w3", "--channels", ""], "channel list '' has an empty item"),
    # rejected before the file is read, so it need not exist
    (["concurrence", "--matrix", "m.json", "--channels", ""],
     "--channels applies to --state, not --matrix"),
], ids=["evolve-channels", "verify-blank-channel", "relabel-trailing", "campaign-channels",
        "cut", "cut-blank", "evolve-empty-channels", "concurrence-empty-channels",
        "matrix-empty-channels"])
def test_empty_list_item_exits_one(capsys, argv, message):
    """An empty item in a comma-separated list is an error, not a shorter
    list; a usage error prints the usage line first."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("usage:")] \
        == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["--state", "ghz3", "--channels", "BF:p=,I,I"], "channel 'BF:p=' has p '', which is not a number"),
    (["--state", "ghz3", "--channels", "I,PF:p=0.1x,I"],
     "channel 'PF:p=0.1x' has p '0.1x', which is not a number"),
    (["--state", "bell:alpha=abc"], "state 'bell:alpha=abc' has alpha 'abc', which is not a number"),
    (["--state", "bell:alpha="], "state 'bell:alpha=' has alpha '', which is not a number"),
], ids=["empty-p", "bad-p", "bad-alpha", "empty-alpha"])
def test_bad_number_names_its_token(capsys, argv, message):
    code, out, err = run(capsys, "evolve", *argv)
    assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("argv", [
    ["concurrence", "--state", "ghz3"],
    ["verify", "--identity", "product", "--state", "bell", "--channels", "BF:p=0.2,BF:p=0.3"],
], ids=["concurrence", "verify"])
def test_leak_tol_flag_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--leak-tol=1e-8")
    assert code == 1
    assert out == ""
    assert "usage" in err.lower() and "--leak-tol" in err


def test_evolve_dump(capsys):
    code, out, _ = run(capsys, "evolve", "--state", "bell", "--channels", "BF:p=0.25,I")
    assert code == 0
    lines = out.strip().split("\n")
    header = json.loads(lines[0].removeprefix("# "))
    assert header["n_qubits"] == 2 and header["rank"] == 2
    assert abs(header["trace"] - 1.0) < 1e-12
    assert lines[1] == "i,j,re,im"
    assert len(lines) == 2 + 16


@pytest.mark.parametrize("state, channels", [
    ("bell", "BF:p=0.2,I"),
    ("ghz3", '{"family":"general","a":[0.5,0.5,0.5,0.5]},BF:p=0.3,BPF:p=0.25'),
], ids=["bell", "ghz3-general"])
def test_evolve_rows_are_plain_floats(capsys, state, channels):
    """Every data row parses with float() back to the matrix entry, bit for bit."""
    code, out, _ = run(capsys, "evolve", "--state", state, "--channels", channels)
    assert code == 0
    psi = parse_state(state)
    rho = apply(dict(enumerate(parse_channel_list(channels, psi.n_qubits), start=1)),
                psi.to_density())
    rows = out.strip().split("\n")[2:]
    assert len(rows) == rho.dim ** 2
    for row in rows:
        i, j, re_, im = row.split(",")
        z = rho.mat[int(i), int(j)]
        assert (float(re_), float(im)) == (z.real, z.imag)


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


@pytest.mark.parametrize("state", ["w3", "w4", "ghz3"])
def test_breakdown_total_is_the_concurrence_total(capsys, state):
    code, out, _ = run(capsys, "concurrence", "--state", state)
    assert code == 0
    total = out.strip().removeprefix("total,")
    code, out, _ = run(capsys, "concurrence", "--state", state, "--breakdown")
    assert code == 0
    header = json.loads(out.split("\n")[0].removeprefix("# "))
    assert repr(header["total"]) == total


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


def test_json_channel_objects_on_the_command_line(capsys):
    code, out, _ = run(capsys, "evolve", "--state", "ghz3", "--channels",
                       '{"family":"general","a":[0.5,0.5,0.5,0.5]},BF:p=0.3,BPF:p=0.25')
    assert code == 0
    assert len(out.strip().split("\n")) == 2 + 64


@pytest.mark.parametrize("channels", [
    '{"family":"general","a":5},BF:p=0.3,I',
    '{"family":"general","a":[null,1,0,0]},BF:p=0.3,I',
    '{"family":"BF","p":[0.2]},BF:p=0.3,I',
    '{"family":"BF","p":0.2,BF:p=0.3,I',
], ids=["a-number", "a-null", "p-list", "unclosed"])
def test_bad_json_channel_exits_one(capsys, channels):
    assert_one_error_line(*run(capsys, "evolve", "--state", "ghz3", "--channels", channels))


@pytest.mark.parametrize("matrix", [
    [[None, 0], [0, 1]],
    [1, 2],
    [[{"a": 1}, 0], [0, 1]],
    [[[1]]],
    [[True, 0], [0, False]],
    [["1", 0], [0, 0]],
    [[1, 0], [0]],
    [[[0.5, 0.0, 1.0], 0], [0, 0.5]],
    {"matrix": None},
], ids=["null", "flat", "dict", "nested", "bool", "string", "ragged", "triple", "no-matrix"])
def test_bad_matrix_file_exits_one(tmp_path, capsys, matrix):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(matrix))
    assert_one_error_line(*run(capsys, "concurrence", "--matrix", str(path)))


def test_matrix_entries_as_pairs(tmp_path, capsys):
    rho = [[0.5, 0, 0, [0.0, 0.5]], [0, 0, 0, 0], [0, 0, 0, 0], [[0.0, -0.5], 0, 0, 0.5]]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(rho))
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


def test_campaign_config_with_leak_tol_exits_one(tmp_path, capsys):
    config = {"state": "bell", "channels": ["BF", "BF"], "samples": 3, "leak_tol": 1e-8}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert_one_error_line(code, out, err)
    assert "unknown" in err and "leak_tol" in err


def test_campaign_flags_fill_config_fields(capsys):
    code, out, _ = run(capsys, "campaign", "--state", "ghz4", "--channels", "PF, PF,PF,BF",
                       "--samples", "2", "--tol", "1e-6", "--seed", "7", "--identity", "sum",
                       "--cut", "12|34", "--exponent", "1", "--aggregation", "rms",
                       "--anchor", "own", "--relabel", "2,1,4,3")
    assert code == 0
    header = json.loads(out.split("\n")[0].removeprefix("# "))
    assert header == CampaignConfig(
        state="ghz4", channels=("PF", "PF", "PF", "BF"), samples=2, tol=1e-6, seed=7,
        identity="sum", cut="12|34", normalization_exponent=1, aggregation="rms",
        anchor="own", relabel=(2, 1, 4, 3)).to_json_dict()


def test_campaign_bad_relabel_is_a_usage_error(capsys):
    code, out, err = run(capsys, "campaign", "--state", "bell", "--channels", "BF,BF",
                         "--samples", "1", "--relabel", "2,x")
    assert code == 1
    assert out == ""
    assert "--relabel" in err


def test_sweep_csvs_equal_run_campaign(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--samples", "3", "--seed", "5",
                       "--out-dir", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = {}
    for k, (state, families, _) in enumerate(CATALOGUE):
        for aggregation in ("sum", "rms"):
            config = CampaignConfig(state=state, channels=families, samples=3,
                                    seed=5 * len(CATALOGUE) + k, aggregation=aggregation)
            expected[f"{state}-{'-'.join(families)}-{aggregation}.csv"] = \
                run_campaign(config).to_csv()
    assert written == sorted(expected) and len(written) == 2 * len(CATALOGUE)
    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text
    lines = out.strip().split("\n")
    assert lines[0].split()[:2] == ["state", "channels"]
    assert len(lines) == 1 + 2 * len(CATALOGUE) + 1
    assert lines[-1] == f"per-sample CSVs in {tmp_path}/"


def test_sweep_scenarios_share_no_draws(tmp_path, capsys, monkeypatch):
    """Every catalogue entry draws its own stream: no channel parameter of
    one entry recurs in another, and both aggregations of an entry share
    all of theirs."""
    configs = []

    def recording(config):
        configs.append(config)
        return run_campaign(config)

    monkeypatch.setattr(cli, "run_campaign", recording)
    code, _, _ = run(capsys, "sweep", "--samples", "30", "--seed", "3",
                     "--out-dir", str(tmp_path))
    assert code == 0
    draws = {}
    for config in configs:
        families = [_canonical_family(f) for f in config.channels]
        params = draw_params(families, np.random.default_rng(config.seed), config.samples)
        draws.setdefault((config.state, config.channels), []).append(params)
    assert len(draws) == len(CATALOGUE)
    assert all(np.array_equal(a, b) for a, b in draws.values())
    # each entry's identity weights a_1, one per qubit and row
    weights = [set(a[..., 0].ravel().tolist()) for a, _ in draws.values()]
    for j, mine in enumerate(weights):
        for other in weights[j + 1:]:
            assert not mine & other


def test_sweep_csv_replays_through_campaign(tmp_path, capsys):
    """A sweep CSV's header is a campaign config: `campaign --config` on it
    writes the same bytes."""
    code, _, _ = run(capsys, "sweep", "--samples", "4", "--seed", "2",
                     "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("ghz3-PF-PF-BF-sum.csv", "w4-PF-PF-PF-PF-rms.csv"):
        text = (tmp_path / name).read_text()
        config = tmp_path / "config.json"
        config.write_text(text.split("\n")[0].removeprefix("# "))
        code, out, _ = run(capsys, "campaign", "--config", str(config))
        assert (code, out) == (0, text)


def test_sweep_negative_seed_names_the_given_value(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "--samples", "1", "--seed=-5",
                         "--out-dir", str(tmp_path / "out"))
    assert_one_error_line(code, out, err)
    assert err == "error: seed must be nonnegative, got -5\n"
    assert not (tmp_path / "out").exists()


class _ClosedStdout:
    """A stdout whose reader went away: every write raises BrokenPipeError.
    Its file descriptor is a real file, which the CLI may point elsewhere."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_one_quietly_after_every_csv(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(target.fileno()))
        code = cli_main(["sweep", "--samples", "2", "--out-dir", str(tmp_path / "csv")])
        # the descriptor now points at the null device, so the flush at exit succeeds
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert code == 1
    assert capsys.readouterr().err == ""
    assert len(list((tmp_path / "csv").iterdir())) == 2 * len(CATALOGUE)


def test_sweep_into_a_closed_pipe_writes_every_csv(tmp_path):
    """`conclab sweep | head -0`: the reader is gone before the table is
    printed, which happens after the last CSV."""
    env = dict(os.environ, PYTHONPATH=str(Path(conclab.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "conclab.cli", "sweep", "--samples", "1",
                               "--out-dir", str(tmp_path)], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert len(list(tmp_path.iterdir())) == 2 * len(CATALOGUE)


def test_unwritable_out_file_keeps_its_error_line(tmp_path, capsys):
    code, out, err = run(capsys, "rank-table", "--out", str(tmp_path))
    assert_one_error_line(code, out, err)
    assert str(tmp_path) in err


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
    # no fields any more: rejected
    "rank_tol": st.sampled_from([1e-10, 0.05]) | _JSON,
    "leak_tol": st.sampled_from([1e-8, -1.0]) | _JSON,
    "relabel": st.sampled_from([[2, 1], [3, 2, 1], [1, 1, 2]]) | _JSON,
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=st.fixed_dictionaries({}, optional=_FIELDS) | _JSON)
def test_campaign_config_fuzz_never_tracebacks(tmp_path, capsys, config):
    """Any config JSON ends in exit 0 or 1; a failure is one error line."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert code in (0, 1)
    if code:
        assert out == ""
        assert err.startswith("error:") and len(err.strip().split("\n")) == 1
    for removed in ("leak_tol", "rank_tol"):
        if isinstance(config, dict) and removed in config:
            assert code == 1 and removed in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ENTRY = (st.none() | st.booleans() | st.integers(-2, 2) | _FINITE
          | st.sampled_from([0.5, 0.25, 0.0]) | st.text(max_size=3)
          | st.lists(_FINITE | st.none() | st.booleans(), max_size=3)
          | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_VALID_MATRICES = st.sampled_from([
    [[1, 0], [0, 0]],
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]],
    [[0.25 if i == j else 0 for j in range(8)] for i in range(8)][:4],
    [[0.125 if i == j else 0 for j in range(8)] for i in range(8)],
])


@st.composite
def _matrix_json(draw):
    """A valid matrix with some entries replaced, a square matrix of finite
    floats, a ragged or nested list of entries, or any JSON value; bare or
    under a "matrix" key."""
    kind = draw(st.sampled_from(["edited", "square", "lists", "any"]))
    if kind == "square":
        dim = draw(st.sampled_from([2, 4]))
        obj = draw(st.lists(st.lists(_FINITE, min_size=dim, max_size=dim),
                            min_size=dim, max_size=dim))
    elif kind == "edited":
        obj = [list(row) for row in draw(_VALID_MATRICES)]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(obj) - 1))
            j = draw(st.integers(0, len(obj[i]) - 1))
            obj[i][j] = draw(_ENTRY)
    elif kind == "lists":
        obj = draw(st.lists(st.lists(_ENTRY, max_size=4) | _ENTRY, max_size=4))
    else:
        obj = draw(_JSON)
    return {"matrix": obj} if draw(st.booleans()) else obj


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(matrix=_matrix_json(),
       flags=st.sampled_from([[], ["--tau3"], ["--breakdown"], ["--cut", "2|1"]]))
def test_matrix_file_fuzz_never_tracebacks(tmp_path, capsys, matrix, flags):
    """Any --matrix JSON ends in exit 0 or 1; a failure is one error line."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run(capsys, "concurrence", "--matrix", str(path), *flags)
    assert code in (0, 1)
    if code:
        assert out == ""
        assert err.startswith("error:") and len(err.strip().split("\n")) == 1


_PARAM = (st.floats(-0.5, 1.5) | st.none() | st.booleans() | st.text(max_size=3)
          | st.lists(st.floats(0, 1) | st.none(), max_size=5))
_CHANNEL_OBJECT = st.fixed_dictionaries(
    {"family": st.sampled_from(["BF", "PF", "BPF", "general", "XY"]) | _JSON},
    optional={"p": _PARAM, "a": _PARAM | st.just([0.5, 0.5, 0.5, 0.5])},
).map(json.dumps)
_CHANNEL_TOKEN = (st.sampled_from(["I", "BF:p=0.2", "PF:p=0.35", "BPF:p=0.1", "BF:p=x",
                                   "general", "BF", "PF:q=0.1", "", " ", "{", "]"])
                  | _CHANNEL_OBJECT | st.text(max_size=4))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(tokens=st.lists(_CHANNEL_TOKEN, max_size=4))
def test_channels_fuzz_never_tracebacks(capsys, tokens):
    """Any --channels string ends in exit 0 or 1; a failure is one error line."""
    code, out, err = run(capsys, "evolve", "--state", "ghz3", "--channels=" + ",".join(tokens))
    assert code in (0, 1)
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


_BELL = ("--state", "bell", "--channels", "BF,BF")


@pytest.mark.parametrize("argv, field", [
    (("campaign", *_BELL, "--samples", "1", "--tol", "nan"), "tol"),
    (("campaign", *_BELL, "--samples", "1", "--tol", "inf"), "tol"),
    (("campaign", *_BELL, "--samples", "1", "--tol=-1e-300"), "tol"),
    (("campaign", *_BELL, "--samples", "1", "--seed", "-1"), "seed"),
    (("campaign", *_BELL, "--samples", "0", "--seed", "-3"), "seed"),
    (("sweep", "--samples", "1", "--tol", "-1"), "tol"),
    (("sweep", "--samples", "1", "--tol", "nan"), "tol"),
    (("sweep", "--samples", "1", "--seed", "-1"), "seed"),
], ids=["tol-nan", "tol-inf", "tol-negative", "seed-negative", "seed-no-samples",
        "sweep-tol-negative", "sweep-tol-nan", "sweep-seed-negative"])
def test_bad_tolerance_or_seed_exits_one(tmp_path, capsys, argv, field):
    if argv[0] == "sweep":
        argv += ("--out-dir", str(tmp_path / "out"))
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert f"error: {field} must be" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["campaign", "sweep"])
@pytest.mark.parametrize("value", ["-1e-300", "-1E-3", "-inf", "-.5e+2", "-2"])
def test_negative_tolerance_reaches_the_config_check(tmp_path, capsys, command, value):
    """argparse reads these as values, not as unknown options."""
    argv = [command, "--samples", "1", "--tol", value]
    argv += [*_BELL] if command == "campaign" else ["--out-dir", str(tmp_path / "out")]
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: tol must be")
    assert not (tmp_path / "out").exists()


def _cli_subprocess(*argv):
    """Run the CLI in a fresh interpreter: the only way to see what a user sees
    on stderr, warnings included."""
    env = dict(os.environ, PYTHONPATH=str(Path(conclab.__file__).resolve().parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "conclab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("kind, payload, needle", [
    ("matrix", [[1e308, 0], [0, 1e308]], "trace"),
    ("matrix", [[1e308, 1e308], [-1e308, 1]], "not Hermitian"),
    ("matrix", [[0.5, 1e200], [1e200, 0.5]],
     "error: density matrix has eigenvalue -1.000e+200 < -1.0e-10\n"),
    ("matrix", [[0.5, 1.7e308], [1.7e308, 0.5]],
     "error: density matrix has eigenvalue -1.700e+308 < -1.0e-10\n"),
    ("state", "[1e200, 1e200]", "norm"),
    ("matrix", np.diag([1e308, 1e308, -1e308, -1e308]).tolist(), "trace nan"),
], ids=["trace-overflow", "hermiticity-overflow", "spectrum-overflow", "spectrum-largest",
        "norm-overflow", "trace-nan"])
def test_huge_finite_input_gives_one_error_line(tmp_path, kind, payload, needle):
    if kind == "matrix":
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(payload))
        argv = ("concurrence", "--matrix", str(path))
    else:
        argv = ("evolve", "--state", payload)
    code, out, err = _cli_subprocess(*argv)
    assert_one_error_line(code, out, err)
    assert needle in err and "Warning" not in err


def test_nan_amplitude_fails_the_norm_check(capsys):
    code, out, err = run(capsys, "concurrence", "--state", "[NaN, 0, 0, 0]")
    assert_one_error_line(code, out, err)
    assert err.startswith("error: state norm nan deviates from 1")


@pytest.mark.parametrize("field, value", [
    ("tol", "NaN"), ("tol", "Infinity"), ("tol", "-1e-300"), ("seed", "-1"),
], ids=["tol-nan", "tol-inf", "tol-negative", "seed-negative"])
def test_bad_config_tolerance_or_seed_exits_one(tmp_path, capsys, field, value):
    path = tmp_path / "campaign.json"
    path.write_text('{"state": "bell", "channels": ["BF", "BF"], "samples": 1, '
                    f'"{field}": {value}}}')
    code, out, err = run(capsys, "campaign", "--config", str(path))
    assert_one_error_line(code, out, err)
    assert f"error: {field} must be" in err


@pytest.mark.parametrize("value", ["0", "5e-324"])
def test_tolerance_edges_run(tmp_path, capsys, value):
    code, out, _ = run(capsys, "campaign", *_BELL, "--samples", "1", "--tol", value)
    assert code == 0
    assert json.loads(out.split("\n")[0].removeprefix("# "))["tol"] == float(value)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"state": "bell", "channels": ["BF", "BF"], "samples": 1,
                                "tol": float(value), "seed": 0}))
    code, out, _ = run(capsys, "campaign", "--config", str(path))
    assert code == 0
    assert json.loads(out.split("\n")[0].removeprefix("# "))["tol"] == float(value)


def test_campaign_missing_fields(capsys):
    code, _, err = run(capsys, "campaign", "--state", "bell")
    assert code == 1
    assert "missing" in err


def test_concurrence_requires_a_source(capsys):
    code, _, err = run(capsys, "concurrence")
    assert code == 1
    assert "--state or --matrix" in err


@pytest.mark.parametrize("flag", [["--cut", "12|3"], ["--breakdown"]])
def test_concurrence_tau3_rejects_cut_and_breakdown(capsys, flag):
    code, out, err = run(capsys, "concurrence", "--state", "ghz3", "--tau3", *flag)
    assert_one_error_line(code, out, err)
    assert flag[0] in err


def test_concurrence_rejects_channels_with_matrix(capsys, tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    code, _, err = run(capsys, "concurrence", "--matrix", str(path),
                       "--channels", "BF:p=0.1")
    assert code == 1
    assert "--matrix" in err


W4_PF = "PF:p=0.1,PF:p=0.2,PF:p=0.3,PF:p=0.4"


@pytest.mark.parametrize("argv, inputs", [
    (["evolve", "--state", "ghz3", "--channels", "BF:p=0.2,PF:p=0.1,I"], 1),
    (["concurrence", "--state", "w4", "--channels", W4_PF], 1),
    (["concurrence", "--state", "w4", "--channels", W4_PF, "--breakdown"], 1),
    (["concurrence", "--state", "ghz3", "--channels", "BPF:p=0.1,BPF:p=0.2,BPF:p=0.3",
      "--tau3"], 1),
    (["concurrence", "--matrix", "RHO"], 1),
    (["verify", "--identity", "sum", "--state", "w4", "--channels", W4_PF], 1),
    (["verify", "--identity", "sum", "--state", "w4", "--channels", W4_PF,
      "--cut", "12|34", "--anchor", "own"], 1),
    (["campaign", "--state", "w4", "--channels", "PF,PF,PF,PF", "--samples", "70"], 1),
    (["figure1"], 1),
    (["rank-table"], sum(claimed is not None for _, _, claimed in CATALOGUE)),
], ids=["evolve", "concurrence", "breakdown", "tau3", "matrix", "verify", "verify-own",
        "campaign", "figure1", "rank-table"])
def test_each_input_state_is_validated_once(tmp_path, capsys, monkeypatch, argv, inputs):
    """Every CLI path validates its input states, one `density_spectra` call
    each, and trusts every state evolved from them unchecked."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]))
    shapes = []

    def counted(mats):
        shapes.append(mats.shape)
        return density_spectra(mats)

    monkeypatch.setattr(linalg, "density_spectra", counted)
    argv = [str(path) if a == "RHO" else a for a in argv]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert (code, err) == (0, "")
    assert len(shapes) == inputs
    assert all(len(shape) == 2 for shape in shapes)
