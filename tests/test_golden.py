"""Golden outputs: each file under tests/golden/ is regenerated through the CLI
and compared field by field. Headers, seeds, ranks, counts, pass flags and
labels must match exactly; floats within 1e-13, because their last bits
depend on the BLAS build. To refresh a file after an intended output change,
run the command of its entry below with `--out tests/golden/<name>`.
"""

import json
from pathlib import Path

import pytest

from conclab.cli import cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-13

CASES = {
    "campaign-w4-pf4-rms.csv": [
        "campaign", "--state", "w4", "--channels", "PF,PF,PF,PF", "--aggregation", "rms",
        "--samples", "25", "--seed", "7"],
    "campaign-ghz4-pf3bf-sum-12-34.csv": [
        "campaign", "--state", "ghz4", "--channels", "PF,PF,PF,BF", "--identity", "sum",
        "--cut", "12|34", "--samples", "25", "--seed", "7"],
    # the only golden that sends measured factor states through the kernel
    "campaign-w4-pf4-12-34-own.csv": [
        "campaign", "--state", "w4", "--channels", "PF,PF,PF,PF", "--cut", "12|34",
        "--anchor", "own", "--samples", "25", "--seed", "7"],
    # auto mode over two stacks, every row evaluated, failure_seeds capped at 10
    "campaign-ghz3-pf2bf-auto-70.csv": [
        "campaign", "--state", "ghz3", "--channels", "PF,PF,BF", "--samples", "70",
        "--seed", "0"],
    # the benchmark's ghz4 general^4 campaign across three stacks
    "campaign-ghz4-general4-130.csv": [
        "campaign", "--state", "ghz4", "--channels", "general,general,general,general",
        "--samples", "130", "--seed", "7"],
    # a relabel, so each stack gathers its drawn columns into qubit order,
    # over two stacks
    "campaign-ghz4-pf3bf-relabel-4123-70.csv": [
        "campaign", "--state", "ghz4", "--channels", "PF,PF,PF,BF", "--relabel", "4,1,2,3",
        "--samples", "70", "--seed", "7"],
    "evolve-ghz3-bf-pf-bpf.csv": [
        "evolve", "--state", "ghz3", "--channels", "BF:p=0.2,PF:p=0.1,BPF:p=0.3"],
    "figure1-26.csv": ["figure1", "--points", "26"],
    "rank-table.csv": ["rank-table"],
    "concurrence-w3-12-3-breakdown.csv": [
        "concurrence", "--state", "w3", "--cut", "12|3", "--breakdown"],
    "verify-w4-sum.csv": [
        "verify", "--identity", "sum", "--state", "w4",
        "--channels", "PF:p=0.1,PF:p=0.2,PF:p=0.3,PF:p=0.4"],
    # a final state whose rank is read from a 4x4 support block
    "evolve-w4-pf4.csv": [
        "evolve", "--state", "w4", "--channels", "PF:p=0.1,PF:p=0.2,PF:p=0.3,PF:p=0.4"],
    # every factor measured by the kernel, its rank read from its own plan
    "verify-w4-sum-12-34-own.csv": [
        "verify", "--identity", "sum", "--state", "w4",
        "--channels", "PF:p=0.1,PF:p=0.2,PF:p=0.3,PF:p=0.4", "--cut", "12|34", "--anchor", "own"],
}


def _same(got, want, where):
    """Recursive comparison of parsed values: floats to FLOAT_TOL, the rest exact."""
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _field(text):
    """A CSV field as an int, a float or, failing both, its text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(line):
    """A `# {...}` or `# summary {...}` header as JSON, a data line as fields."""
    if line.startswith("#"):
        label, _, payload = line.removeprefix("# ").partition("{")
        return [label, json.loads("{" + payload)]
    return [_field(text) for text in line.split(",")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(tmp_path, name):
    out = tmp_path / name
    assert cli_main([*CASES[name], "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8").splitlines()
    want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want), start=1):
        _same(_parse(g), _parse(w), f"{name}:{k}")
