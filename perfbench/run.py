"""conclab benchmark: seeded workloads through ``conclab.cli.cli_main``.

    python3 perfbench/run.py --workload campaign-w4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from a checkout of the repository; conclab is imported from its ``src``.
Every workload runs in fresh processes with BLAS threads pinned to 1: several
setup processes (import plus one warm-up request; the median is ``setup_s``)
and one measuring process. ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics from a traced replay; BENCHMARK.json
names both lists. Each run appends one record, with provenance, to ``--out``;
``compare.py`` compares two such files. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code is
1 when an output check fails and 2 when the run cannot start.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS
from worker import THREAD_ENV, scaled, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "conclab"
SETUP_RUNS = 5
# Worker time limits, so that a single-workload run ends within 180 s at
# --seconds 30 even when a worker hangs.
SETUP_TIMEOUT_S = 10
MEASURE_TIMEOUT_S = 60  # beyond --seconds


def declared_metrics():
    """(end-to-end, per-layer) metric lists as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def worker(mode, workload, seed, seconds=0.0, trace=0):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, **dict.fromkeys(THREAD_ENV, "1")}
    timeout = SETUP_TIMEOUT_S if mode == "setup" else seconds + MEASURE_TIMEOUT_S
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().split("\n")[-1])


def code_identity():
    """Git commit when the checkout is a git repository, and a digest of the
    package sources either way."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30, check=False)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def tail(latencies):
    """The highest percentile with at least ten requests beyond it: the
    eleventh-slowest latency. Returns (seconds, percentile)."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(workload, seed, seconds):
    setups = [worker("setup", workload.name, seed) for _ in range(SETUP_RUNS)]
    run = worker("measure", workload.name, seed, seconds, 0)
    raw = run["latencies_s"]
    latencies = scaled(raw, run["probes_s"])
    tail_s, tail_pct = tail(latencies)
    attempted = run["attempted"] + sum(s["attempted"] for s in setups)
    failed = run["failed"] + sum(s["failed"] for s in setups)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * speed_factor(s["probe_s"]) for s in setups),
                    "s"),
        "samples_per_s": (run["loop_rows"] / sum(latencies), "1/s"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "request_tail_ms": (1e3 * tail_s, "ms"),
        "failed_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    details = {"requests": len(latencies), "tail_percentile": tail_pct,
               "unscaled_p50_ms": 1e3 * statistics.median(raw),
               "unscaled_tail_ms": 1e3 * tail(raw)[0],
               "probe_median_ms": 1e3 * statistics.median(run["probes_s"]),
               "unscaled_setup_s": [s["setup_s"] for s in setups],
               "setup_probes_ms": [1e3 * s["probe_s"] for s in setups]}
    failures = run["failures"] + [f for s in setups for f in s["failures"]]
    return run, metrics, details, attempted, failed, failures


def per_layer(workload, seed, seconds):
    run = worker("measure", workload.name, seed, seconds, 1)
    details = {"requests_traced": run["requests_traced"]}
    return run, run["layers"], details, run["attempted"], run["failed"], run["failures"]


def run_one(workload, args, declared, out_path):
    measure = per_layer if args.trace else end_to_end
    run, metrics, details, attempted, failed, failures = measure(workload, args.seed, args.seconds)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "failures": failures, "details": details,
        "provenance": {**run["provenance"], **code_identity()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print("  " + "  ".join(f"{k}={v:.6g}" for k, v in details.items() if not isinstance(v, list)))
    print(f"  attempted {attempted}  failed {failed}")
    for failure in failures:
        print(f"  FAILED {failure}")

    emitted = {}
    for spec in declared:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} is measured in {unit}, declared in {spec['unit']}")
        emitted[spec["name"]] = {"value": value, "unit": unit}
    return failed == 0, attempted, failed, emitted


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.jsonl",
                        help="file that each run appends its record to")
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no conclab sources at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    end_to_end_specs, per_layer_specs = declared_metrics()
    declared = per_layer_specs if args.trace else end_to_end_specs

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, tried, bad, emitted = run_one(WORKLOADS[name], args, declared, args.out)
        correct, attempted, failed = correct and ok, attempted + tried, failed + bad
        if len(names) == 1:
            metrics = emitted
        else:
            metrics.update({f"{name}/{k}": v for k, v in emitted.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
