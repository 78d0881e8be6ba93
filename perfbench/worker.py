"""One workload in a fresh process, driven by run.py.

    worker.py setup   --workload W --seed N
    worker.py measure --workload W --seed N --seconds T --trace 0|1

``setup`` times ``import conclab`` plus one warm-up request. ``measure``
imports conclab, sends one warm-up request, then runs a closed loop with one
client: each request is a ``conclab.cli.cli_main`` call made in-process with
stdout and stderr captured, sent when the previous one has completed. With
``--trace 1`` the loop runs untraced for half of ``--seconds``, then the
tracer is installed once and the same requests are sent again. Each mode
prints one JSON object.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_REQUESTS = 11      # the tail latency needs ten requests beyond it
MAX_FAILURES_KEPT = 5  # failure messages carried into the result
SETUP_PROBES = 5       # speed probes after a setup, whose median scales it
# Probe time at the reference speed. Times are reported scaled to it, so
# they read as wall time on a machine where one probe round takes 0.125 ms.
# On a 2-CPU 2.0 GHz Xeon VM a round takes about 0.11 ms in fast phases and
# 0.19 ms in slow ones.
PROBE_ROUNDS = 24
PROBE_REF_S = PROBE_ROUNDS * 0.125e-3
# Request latency grows as the probe time to this power. On that VM the
# least-squares slope of a run's log median latency on its log median probe
# time, over ten 30 s runs per workload, was 0.92-0.95. Slopes fitted per
# request come out lower, 0.75-0.86, because the noise of a single probe
# flattens them.
PROBE_ELASTICITY = 0.9
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_cli():
    sys.path.insert(0, str(SRC))
    import conclab
    import conclab.cli

    if not Path(conclab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"conclab was imported from {conclab.__file__}, not from {SRC}")
    return conclab


def call(cli, argv):
    """One request through ``cli.cli_main``, looked up on each call so that a
    traced binding is seen; returns (exit code or exception text, stdout,
    stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.cli_main(argv)
        except Exception as exc:  # a traceback is a failed request, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Ledger:
    """Attempted and failed requests, campaign rows, and the first output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.rows = self.evaluated = 0
        self.failures = []
        self.first = None

    def record(self, argv, code, out, err):
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {err.strip()[-200:]}"]
        else:
            try:
                problems, evaluated = self.workload.check(argv, out)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                problems = [f"output does not parse: {exc!r}"]
        if self.first is None:
            self.first = (argv, out)
        if problems:
            self.fail(argv, problems)
        else:
            self.rows += self.workload.rows_per_request
            self.evaluated += evaluated

    def fail(self, argv, problems):
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(" ".join(argv) + ": " + "; ".join(problems[:3]))

    def repeat_first(self, cli):
        """Repeating a request must give identical bytes."""
        argv, out = self.first
        code, again, err, _ = call(cli, argv)
        self.attempted += 1
        if code != 0 or again != out:
            same = "identical" if again == out else "different"
            self.fail(argv, [f"repeat gave exit {code} and {same} output"])

    def to_json(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "rows": self.rows, "evaluated": self.evaluated}


class SpeedProbe:
    """A fixed numpy kernel, timed between requests.

    On a shared host the machine's speed drifts by up to 2x within seconds,
    and CPU time drifts with it. Dividing a request's latency by the probe
    time around it cancels most of that drift. Dense eigensolves and SVDs
    track conclab's requests more closely than pure-Python work does. The
    probe does not use conclab, so a change to the program cannot move it.
    """

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.h = self.a @ self.a.conj().T
        self.b = self.h[:8, :8].copy()
        self.linalg = numpy.linalg

    def seconds(self):
        start = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            self.linalg.svd(self.a, compute_uv=False)
            self.linalg.eigh(self.h)
            self.linalg.eigvalsh(self.b)
            (self.a @ self.a)[::2, ::2].conj()
        return time.perf_counter() - start


def closed_loop(cli, ledger, argvs, probe, seconds=None):
    """Send each request after the previous one completes, for `seconds` (and
    at least MIN_REQUESTS requests) or until `argvs` runs out, timing the
    speed probe before each request and after the last.
    Returns (latencies, probes, argvs sent)."""
    latencies, probes, sent = [], [], []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for argv in argvs:
        if deadline is not None and len(sent) >= MIN_REQUESTS and time.perf_counter() >= deadline:
            break
        probes.append(probe.seconds())
        code, out, err, elapsed = call(cli, argv)
        ledger.record(argv, code, out, err)
        latencies.append(elapsed)
        sent.append(argv)
    probes.append(probe.seconds())
    return latencies, probes, sent


def speed_factor(probe_s):
    """Multiplier that takes a time measured while the probe took `probe_s`
    to the reference speed."""
    return (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY


def scaled(latencies, probes):
    """Each latency scaled to the reference speed by the mean of the speed
    probes timed just before and just after it."""
    return [lat * speed_factor((probes[i] + probes[i + 1]) / 2)
            for i, lat in enumerate(latencies)]


def provenance(conclab):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "conclab": getattr(conclab, "__version__", None),
    }


def setup(workload, seed):
    start = time.perf_counter()
    conclab = import_cli()
    ledger = Ledger(workload)
    argv = next(workload.requests(seed))
    ledger.record(argv, *call(conclab.cli, argv)[:3])
    setup_s = time.perf_counter() - start
    probe = SpeedProbe()
    probes = [probe.seconds() for _ in range(SETUP_PROBES)]
    return {"setup_s": setup_s, "probe_s": statistics.median(probes), **ledger.to_json()}


def measure(workload, seed, seconds, trace):
    conclab = import_cli()
    cli = conclab.cli
    ledger = Ledger(workload)
    requests = workload.requests(seed)
    warm = next(requests)
    ledger.record(warm, *call(cli, warm)[:3])
    result = {"provenance": provenance(conclab)}
    probe = SpeedProbe()
    rows_before = ledger.rows
    if not trace:
        result["latencies_s"], result["probes_s"], _ = closed_loop(
            cli, ledger, requests, probe, seconds)
        result["loop_rows"] = ledger.rows - rows_before
    else:
        from tracer import Tracer

        untraced, untraced_probes, sent = closed_loop(cli, ledger, requests, probe, seconds / 2)
        tracer = Tracer()
        with tracer.installed():
            traced, traced_probes, _ = closed_loop(cli, ledger, sent, probe)
        if tracer.pair_mismatches:  # the traced pass fails as one check
            label, pairs, expected = tracer.pair_mismatches[0]
            ledger.fail(["bipartite_concurrence"], [
                f"{len(tracer.pair_mismatches)} calls gave the wrong number of pair terms,"
                f" first cut {label}: {pairs}, not {expected}"])
        layers = tracer.per_request(len(traced), speed_factor(statistics.median(traced_probes)))
        layers["factorization.evaluated_ratio"] = (
            ledger.evaluated / ledger.rows if ledger.rows else 0.0, "ratio")
        layers["trace.coverage"] = (tracer.layer_seconds() / sum(traced), "ratio")
        layers["trace.overhead"] = (sum(scaled(traced, traced_probes))
                                    / sum(scaled(untraced, untraced_probes)) - 1.0, "ratio")
        result["layers"] = layers
        result["requests_traced"] = len(traced)
    ledger.repeat_first(cli)
    result.update(ledger.to_json())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
