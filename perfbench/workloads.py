"""The benchmark's workloads: the argv of every request, drawn from the
workload seed, and the checks on each request's output.

The checks do not depend on the sampling scheme (which rows a campaign seed
produces), so a change to how samples are drawn does not read as a failure.
This module uses the standard library only: a setup process imports it
before it starts timing the import of conclab and numpy.
"""

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Campaign rows per request. scripts/run_campaigns.py sends 200, but a 30 s
# run then holds about 12-20 campaign-w4 requests, too few for a tail
# latency. perfbench/request_size.py measures what the smaller request costs
# in samples/s.
SAMPLES_PER_REQUEST = 25
SEED_RANGE = 2**31          # per-request campaign seeds are drawn below this
FIGURE1_POINTS = 101        # the CLI's default grid
FIGURE1_CROSSING = 0.35222  # zero crossing of the direct tau3 curve
BISECT_TOL = 1e-4           # p resolution of the program's crossing refinement
RESIDUAL_TOL = 1e-8         # the campaign's default pass tolerance
CLOSED_FORM_TOL = 1e-14     # product/sum columns against (1-2p)^3 and (1-2p)^2
DIRECT_AT_ZERO_TOL = 1e-12  # direct tau3 of the unevolved GHZ state against 1

CAMPAIGN_COLUMNS = "seed,rank,lhs,rhs,residual,pass"
FIGURE1_COLUMNS = "p,tau3_direct,product_form,sum_form"


@dataclass(frozen=True)
class Workload:
    """One set of requests: ``requests(seed)`` yields argv lists without end;
    ``check(argv, output)`` returns (problems, evaluated campaign rows)."""

    name: str
    rows_per_request: int
    requests: Callable
    check: Callable


def _header(lines, problems):
    if not lines or not lines[0].startswith("# "):
        problems.append("output does not start with a '# ' JSON header")
        return None
    try:
        header = json.loads(lines[0][2:])
    except ValueError as err:
        problems.append(f"header is not JSON: {err}")
        return None
    if not isinstance(header, dict):
        problems.append("header is not a JSON object")
        return None
    return header


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _campaign_rows(argv, text, problems):
    """Check the header echo, the column line, the summary and the row count;
    return the rows as dicts."""
    lines = text.rstrip("\n").split("\n")
    header = _header(lines, problems)
    if header is None:
        return []
    expected = {
        "state": _option(argv, "--state"),
        "channels": _option(argv, "--channels").split(","),
        "samples": int(_option(argv, "--samples")),
        "seed": int(_option(argv, "--seed")),
    }
    if "--aggregation" in argv:
        expected["aggregation"] = _option(argv, "--aggregation")
    for key, value in expected.items():
        if header.get(key) != value:
            problems.append(f"header {key}={header.get(key)!r} does not echo {value!r}")
    if len(lines) < 3 or lines[1] != CAMPAIGN_COLUMNS:
        problems.append("missing campaign column line")
        return []
    if not lines[-1].startswith("# summary "):
        problems.append("missing summary line")
    else:
        try:
            json.loads(lines[-1][len("# summary "):])
        except ValueError as err:
            problems.append(f"summary is not JSON: {err}")
    rows = [dict(zip(CAMPAIGN_COLUMNS.split(","), line.split(","))) for line in lines[2:-1]]
    if len(rows) != expected["samples"]:
        problems.append(f"{len(rows)} rows for {expected['samples']} samples")
    return rows


def _check_w4(argv, text):
    """Every row has rank 4, is evaluated, and passes at RESIDUAL_TOL."""
    problems = []
    rows = _campaign_rows(argv, text, problems)
    evaluated = 0
    for row in rows:
        if row.get("rank") != "4":
            problems.append(f"seed {row.get('seed')}: rank {row.get('rank')}, expected 4")
        if not row.get("residual"):
            problems.append(f"seed {row.get('seed')}: not evaluated")
            continue
        evaluated += 1
        if not all(math.isfinite(float(row[key])) for key in ("lhs", "rhs")):
            problems.append(f"seed {row.get('seed')}: lhs or rhs is not finite")
        if row.get("pass") != "1" or not float(row["residual"]) <= RESIDUAL_TOL:
            problems.append(f"seed {row.get('seed')}: residual {row['residual']} fails")
    return problems, evaluated


def _check_ghz4_general(argv, text):
    """Every row has rank 16 and empty identity fields."""
    problems = []
    rows = _campaign_rows(argv, text, problems)
    for row in rows:
        if row.get("rank") != "16":
            problems.append(f"seed {row.get('seed')}: rank {row.get('rank')}, expected 16")
        if any(row.get(key) for key in ("lhs", "rhs", "residual", "pass")):
            problems.append(f"seed {row.get('seed')}: identity fields are not empty")
    return problems, 0


def _check_figure1(argv, text):
    """The exact grid, the closed-form columns, tau3 = 1 at p = 0, and the
    zero crossing at FIGURE1_CROSSING within the bisection resolution."""
    problems = []
    lines = text.rstrip("\n").split("\n")
    header = _header(lines, problems)
    if header is None:
        return problems, 0
    points = int(_option(argv, "--points"))
    for key, value in (("points", points), ("p_min", 0.0), ("p_max", 0.5)):
        if header.get(key) != value:
            problems.append(f"header {key}={header.get(key)!r} does not echo {value!r}")
    crossing = header.get("zero_crossing")
    if not isinstance(crossing, float) or abs(crossing - FIGURE1_CROSSING) > BISECT_TOL:
        problems.append(f"zero crossing {crossing!r} is not {FIGURE1_CROSSING} +- {BISECT_TOL}")
    if len(lines) < 2 or lines[1] != FIGURE1_COLUMNS:
        problems.append("missing figure1 column line")
        return problems, 0
    rows = lines[2:]
    if len(rows) != points:
        problems.append(f"{len(rows)} rows for {points} points")
        return problems, 0
    for k, line in enumerate(rows):
        p, direct, product, summed = (float(x) for x in line.split(","))
        if p != 0.5 * k / (points - 1):
            problems.append(f"row {k}: p={p!r} is off the grid")
        if not math.isfinite(direct) or direct < 0.0:
            problems.append(f"row {k}: direct value {direct!r}")
        if abs(product - (1 - 2 * p) ** 3) > CLOSED_FORM_TOL:
            problems.append(f"row {k}: product form {product!r} != (1-2p)^3")
        if abs(summed - (1 - 2 * p) ** 2) > CLOSED_FORM_TOL:
            problems.append(f"row {k}: sum form {summed!r} != (1-2p)^2")
        if k == 0 and abs(direct - 1.0) > DIRECT_AT_ZERO_TOL:
            problems.append(f"direct value at p=0 is {direct!r}, not 1")
    return problems, 0


def _campaign_requests(state, channels, *extra):
    def requests(seed):
        rng = random.Random(seed)
        while True:
            yield ["campaign", "--state", state, "--channels", channels, *extra,
                   "--samples", str(SAMPLES_PER_REQUEST),
                   "--seed", str(rng.randrange(SEED_RANGE))]
    return requests


def _figure1_requests(seed):
    # The sweep is deterministic, so the seed is unused.
    while True:
        yield ["figure1", "--points", str(FIGURE1_POINTS)]


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign-w4", SAMPLES_PER_REQUEST,
                 _campaign_requests("w4", "PF,PF,PF,PF", "--aggregation", "rms"),
                 _check_w4),
        Workload("campaign-ghz4-general", SAMPLES_PER_REQUEST,
                 _campaign_requests("ghz4", "general,general,general,general"),
                 _check_ghz4_general),
        Workload("figure1", FIGURE1_POINTS, _figure1_requests, _check_figure1),
    )
}
