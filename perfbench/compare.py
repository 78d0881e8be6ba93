"""Summarize or compare benchmark result files written by run.py.

    python3 perfbench/compare.py RESULTS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload it prints each end-to-end metric's median and quartiles
over the runs in each file, with the spread (quartile distance over the
median). Given two files, it adds the change of the medians and a verdict
against the metric's bound in BENCHMARK.json: "worse" when the new median is
worse by more than the bound, "unresolved" when either file's spread is wider
than the bound, else "ok". Per-layer metrics from traced runs are compared
by their medians. Provenance fields that differ between the files are listed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNCOMPARED = ("git_commit", "source_sha256")  # expected to differ between commits


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_by_metric(records, workload, trace):
    out = {}
    for rec in records:
        if rec["workload"] == workload and rec["trace"] == trace:
            for name, metric in rec["metrics"].items():
                out.setdefault(name, []).append(metric["value"])
    return out


def spread(q):
    q1, median, q3 = q
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(spec, base_q, new_q):
    if spec is None or "bound" not in spec:
        return ""
    bound = spec["bound"]
    if spread(base_q) > bound or spread(new_q) > bound:
        return "unresolved"
    change = (new_q[1] - base_q[1]) / abs(base_q[1]) if base_q[1] else 0.0
    worse = change > bound if spec["better"] == "lower" else -change > bound
    return "worse" if worse else "ok"


def fmt(q):
    return f"{q[1]:12.6g} [{q[0]:.6g}, {q[2]:.6g}] ({100 * spread(q):.1f}%)"


def provenance_differences(base, new):
    def fields(records):
        seen = {}
        for rec in records:
            for key, value in rec.get("provenance", {}).items():
                if key not in UNCOMPARED:
                    seen.setdefault(key, set()).add(json.dumps(value, sort_keys=True))
        return seen

    a, b = fields(base), fields(new)
    return {key: (sorted(a.get(key, ())), sorted(b.get(key, ())))
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)}


def report(files, specs):
    runs = [load(path) for path in files]
    workloads = sorted({rec["workload"] for records in runs for rec in records})
    for workload in workloads:
        for trace, title in ((0, "end-to-end"), (1, "per-layer")):
            per_file = [values_by_metric(records, workload, trace) for records in runs]
            names = [n for n in per_file[0] if all(n in v for v in per_file)]
            if not names:
                continue
            counts = "/".join(str(len(v[names[0]])) for v in per_file)
            print(f"\n{workload}  {title}  (runs: {counts})")
            for name in names:
                qs = [quartiles(v[name]) for v in per_file]
                line = f"  {name:<44} " + "  ".join(fmt(q) for q in qs)
                if len(qs) == 2:
                    base, new = qs
                    change = (new[1] - base[1]) / abs(base[1]) if base[1] else 0.0
                    line += f"  delta {new[1] - base[1]:+.6g} ({100 * change:+.1f}%)"
                    if trace == 0:
                        line += f"  {verdict(specs.get(name), base, new)}"
                print(line)
    if len(runs) == 2:
        for key, (a, b) in provenance_differences(*runs).items():
            print(f"provenance differs: {key}: {a} vs {b}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="one or two result files")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one or two result files")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    report(args.files, specs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
