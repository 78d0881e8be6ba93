"""Per-request fixed cost of the campaign workloads, measured to weigh the
benchmark's request size.

    python3 perfbench/request_size.py --rounds 8

For each campaign workload it sends requests of 1, 10, 25 and 200 samples
through ``conclab.cli.cli_main`` in this process, with BLAS threads pinned to
1, and checks every output as the benchmark does. The sizes take turns round
by round, so that a drift of the machine's speed falls on all of them alike.
Latencies are scaled by the benchmark's speed probe. Each round's 1- and
200-sample requests give a line, latency = fixed + per_sample * samples; the
script prints the medians of both over the rounds, the median latency and
samples/s at each size, and the share of the fixed cost in a request of each
size. 200 samples is the default of ``scripts/run_campaigns.py``.
"""

import argparse
import os
import statistics
import sys

from workloads import WORKLOADS
from worker import THREAD_ENV

SIZES = (1, 10, 25, 200)
CAMPAIGNS = ("campaign-w4", "campaign-ghz4-general")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(THREAD_ENV, "1"))  # before numpy is imported
    from worker import Ledger, SpeedProbe, call, import_cli, scaled

    cli = import_cli().cli
    probe = SpeedProbe()
    failed = False
    for name in CAMPAIGNS:
        workload = WORKLOADS[name]
        ledger = Ledger(workload)
        requests = workload.requests(args.seed)
        warm = next(requests)
        ledger.record(warm, *call(cli, warm)[:3])
        latencies = {size: [] for size in SIZES}
        for _ in range(args.rounds):
            for size in SIZES:
                argv = next(requests)
                argv[argv.index("--samples") + 1] = str(size)
                before = probe.seconds()
                code, out, err, elapsed = call(cli, argv)
                ledger.record(argv, code, out, err)
                latencies[size] += scaled([elapsed], [before, probe.seconds()])
        lines = [(low, (high - low) / (SIZES[-1] - SIZES[0]))
                 for low, high in zip(latencies[SIZES[0]], latencies[SIZES[-1]])]
        fixed = statistics.median(low - per_sample * SIZES[0] for low, per_sample in lines)
        per_sample = statistics.median(per_sample for _, per_sample in lines)
        print(f"{name}: fixed {1e3 * fixed:.2f} ms/request, {1e3 * per_sample:.2f} ms/sample")
        for size in SIZES:
            median = statistics.median(latencies[size])
            share = fixed / (fixed + per_sample * size)
            print(f"  {size:>4} samples  {1e3 * median:9.2f} ms  {size / median:8.2f} samples/s"
                  f"  fixed share {100 * share:5.1f}%")
        for failure in ledger.failures:
            print(f"  FAILED {failure}")
        failed = failed or ledger.failed > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
