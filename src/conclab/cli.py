"""Command-line driver.

Subcommands: evolve, concurrence, verify, campaign, sweep, figure1,
rank-table. `sweep` runs a campaign on every catalogued scenario under both
aggregations, one CSV each, and prints a summary table. Exit codes: 0
success, 1 validation or usage error.
"""

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import fields

from .channels import apply, parse_channel_list
from .concurrence import bipartite_concurrence, cut_concurrence, parse_cut, tau3
from .experiments import CATALOGUE, figure1_scan, rank_table, rank_table_csv
from .factorization import (
    AGGREGATIONS,
    ANCHOR_LAST,
    ANCHORS,
    FORMS,
    CampaignConfig,
    default_cut,
    evaluate_identity,
    identity_for,
    run_campaign,
)
from .linalg import DensityMatrix
from .states import _complex_entry, parse_state


class _UsageError(Exception):
    pass


# Negative numbers as `float` reads them; argparse's own pattern takes only the
# -1 and -.5 forms and reads -1e-300, -1E-3 or -inf as an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_density(args):
    """State for `concurrence`: either an evolved named state or a matrix file."""
    if args.matrix:
        if args.channels is not None:
            raise ValueError("--channels applies to --state, not --matrix")
        with open(args.matrix, encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj.get("matrix")
        if not isinstance(obj, list) \
                or not all(isinstance(row, list) and len(row) == len(obj) for row in obj):
            raise ValueError("matrix file must hold a square JSON matrix or {'matrix': [...]}")
        return DensityMatrix([[_complex_entry(e, "matrix") for e in row] for row in obj])
    if not args.state:
        raise ValueError("need either --state or --matrix")
    return _evolved(args)


def _evolved(args):
    """The density matrix of --state, sent through --channels if given."""
    psi = parse_state(args.state)
    rho = psi.to_density()
    if args.channels is not None:
        channels = parse_channel_list(args.channels, psi.n_qubits)
        rho = apply(dict(enumerate(channels, start=1)), rho)
    return rho


def _cmd_evolve(args):
    rho = _evolved(args)
    header = {
        "state": args.state,
        "channels": args.channels,
        "n_qubits": rho.n_qubits,
        "rank": rho.rank,
        "trace": float(rho.mat.trace().real),
    }
    lines = ["# " + json.dumps(header, sort_keys=True), "i,j,re,im"]
    for i, row in enumerate(rho.mat.tolist()):
        for j, z in enumerate(row):
            lines.append(f"{i},{j},{z.real!r},{z.imag!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_concurrence(args):
    if args.tau3 and (args.cut or args.breakdown):
        raise ValueError("--tau3 takes neither --cut nor --breakdown")
    rho = _load_density(args)
    if args.tau3:
        _write(f"tau3,{tau3(rho)!r}\n", args.out)
        return 0
    cut = parse_cut(args.cut) if args.cut else default_cut(rho.n_qubits)
    if not args.breakdown:
        _write(f"total,{cut_concurrence(rho, cut)!r}\n", args.out)
        return 0
    breakdown = bipartite_concurrence(rho, cut)
    header = {"cut": cut.label, "total": breakdown.total}
    lines = ["# " + json.dumps(header, sort_keys=True),
             "m,n,lambda1,lambda2,lambda3,lambda4,c_mn"]
    for p in breakdown.pairs:
        lams = ",".join(repr(x) for x in p.lambdas)
        lines.append(f"{p.m},{p.n},{lams},{p.value!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args):
    psi = parse_state(args.state)
    channels = parse_channel_list(args.channels, psi.n_qubits)
    cut = parse_cut(args.cut) if args.cut else None
    identity = identity_for(args.identity, psi.n_qubits, cut)
    report = evaluate_identity(
        identity, psi, channels,
        anchor=args.anchor,
        normalization_exponent=args.exponent,
        aggregation=args.aggregation,
    )
    header = {"state": args.state, "channels": args.channels, "identity": report.identity,
              "cut": report.cut, "aggregation": report.aggregation, "anchor": report.anchor}
    lines = [
        "# " + json.dumps(header, sort_keys=True),
        "identity,cut,lhs,rhs,residual,final_rank,applicable,initial_concurrence,exponent",
        f"{report.identity},{report.cut},{report.lhs!r},{report.rhs!r},{report.residual!r},"
        f"{report.final_rank},{int(report.applicable)},{report.initial_concurrence!r},{report.exponent}",
        "factor_qubit,anchor,value,rank",
    ]
    for f in report.factors:
        lines.append(f"{f.qubit},{f.anchor},{f.value!r},{f.rank}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def item_list(text):
    """`campaign --channels`: comma-separated items, such as family names."""
    items = [t.strip() for t in text.split(",")]
    if "" in items:
        raise argparse.ArgumentTypeError(f"{text!r} has an empty item")
    return items


def qubit_list(text):
    """`campaign --relabel`: comma-separated qubit numbers."""
    return [int(t) for t in item_list(text)]


def _cmd_campaign(args):
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise ValueError(f"campaign config must be a JSON object, got {type(merged).__name__}")
    # flags override the config file; every flag's dest is a CampaignConfig field
    for field in fields(CampaignConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            merged[field.name] = value
    _write(run_campaign(CampaignConfig.from_json(merged)).to_csv(), args.out)
    return 0


def _cmd_sweep(args):
    # catalogue entry k runs at its own seed, so no two scenarios share draws;
    # both aggregations of an entry share them
    if args.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {args.seed}")
    configs = [CampaignConfig(state=state, channels=families, samples=args.samples,
                              tol=args.tol, seed=args.seed * len(CATALOGUE) + k,
                              aggregation=aggregation)
               for k, (state, families, _) in enumerate(CATALOGUE)
               for aggregation in AGGREGATIONS]
    os.makedirs(args.out_dir, exist_ok=True)
    print(f"{'state':<6} {'channels':<16} {'aggregation':<12} "
          f"{'rank buckets':<14} {'passed':<10} worst residual")
    for config in configs:
        report = run_campaign(config)
        name = f"{config.state}-{'-'.join(config.channels)}-{config.aggregation}.csv"
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        buckets = report.buckets.values()
        ranks = ",".join(str(r) for r in sorted(report.buckets))
        evaluated = sum(b.evaluated for b in buckets)
        passed = sum(b.passed for b in buckets)
        worst = max((b.max_residual for b in buckets if b.max_residual is not None),
                    default=float("nan"))
        print(f"{config.state:<6} {'+'.join(config.channels):<16} {config.aggregation:<12} "
              f"{ranks:<14} {passed}/{evaluated:<8} {worst:.3e}")
    print(f"per-sample CSVs in {args.out_dir}/")
    return 0


def _cmd_figure1(args):
    _write(figure1_scan(args.points).to_csv(), args.out)
    return 0


def _cmd_rank_table(args):
    _write(rank_table_csv(rank_table()), args.out)
    return 0


@functools.cache
def build_parser():
    """The `conclab` parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="conclab",
        description="Concurrence evolution of 2-4 qubit states in local Pauli "
                    "channels, with factorization-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_, out=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if out:
            p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("evolve", _cmd_evolve, "apply channels to a state and dump the density matrix")
    p.add_argument("--state", required=True, help="state name, e.g. ghz3 or bell:alpha=0.6")
    p.add_argument("--channels", help="comma-separated channel list, e.g. BF:p=0.2,PF:p=0.1,I")

    p = add("concurrence", _cmd_concurrence, "concurrence measures of a state or matrix")
    p.add_argument("--state", help="state name (with optional --channels evolution)")
    p.add_argument("--matrix", help="JSON file holding a density matrix")
    p.add_argument("--channels", help="channels to apply to --state before measuring")
    p.add_argument("--cut", help="bipartition such as 12|3 (default: last qubit alone)")
    p.add_argument("--tau3", action="store_true", help="three-qubit lower bound instead of one cut")
    p.add_argument("--breakdown", action="store_true", help="per generator pair CSV")

    p = add("verify", _cmd_verify, "evaluate one factorization identity on a scenario")
    p.add_argument("--identity", required=True, choices=FORMS)
    p.add_argument("--state", required=True)
    p.add_argument("--channels", required=True)
    p.add_argument("--cut", help="bipartition (default: last qubit alone)")
    p.add_argument("--anchor", choices=ANCHORS, default=ANCHOR_LAST)
    p.add_argument("--exponent", type=int, default=None,
                   help="override the degree-matching normalization exponent")
    p.add_argument("--aggregation", choices=AGGREGATIONS, default="sum")

    p = add("campaign", _cmd_campaign, "seeded randomized identity verification")
    p.add_argument("--config", help="JSON campaign config file")
    p.add_argument("--state")
    p.add_argument("--channels", type=item_list,
                   help="comma-separated channel families, e.g. BF,PF,PF")
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, help="seed of the campaign's random stream (default: 0)")
    p.add_argument("--identity", choices=("auto",) + FORMS)
    p.add_argument("--cut")
    p.add_argument("--exponent", type=int, dest="normalization_exponent")
    p.add_argument("--aggregation", choices=AGGREGATIONS)
    p.add_argument("--anchor", choices=ANCHORS)
    p.add_argument("--relabel", type=qubit_list, help="qubit relabeling such as 3,2,1")

    p = add("sweep", _cmd_sweep, "campaigns on every catalogued scenario, both aggregations",
            out=False)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0,
                   help="catalogue entry k runs at seed * (number of entries) + k")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out-dir", default="campaign_results", help="directory for the CSVs")

    p = add("figure1", _cmd_figure1, "lower-bound sweep of ghz3 under identical BPF(p)")
    p.add_argument("--points", type=int, default=101)

    add("rank-table", _cmd_rank_table, "computed vs claimed final ranks for catalogued scenarios")
    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
