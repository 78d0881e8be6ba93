"""Command-line driver.

Subcommands: evolve, concurrence, verify, campaign, figure1, rank-table.
Exit codes: 0 success, 1 validation/usage error, 2 violated numerical
assumption (spectral leak). CONCLAB_SEED sets the default campaign seed.
"""

import argparse
import json
import os
import sys

from .channels import ChannelAssignment, apply, parse_channel_list
from .concurrence import LEAK_TOL, bipartite_concurrence, cut_concurrence, parse_cut, tau3
from .errors import SpectralLeakError
from .experiments import SweepSpec, figure1_scan, rank_table, rank_table_csv
from .factorization import (
    CampaignConfig,
    default_cut,
    evaluate_identity,
    identity_for,
    run_campaign,
)
from .linalg import DensityMatrix
from .states import parse_state

SEED_ENV = "CONCLAB_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed():
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_density(args):
    """State for `concurrence`: either an evolved named state or a matrix file."""
    if args.matrix:
        if args.channels:
            raise ValueError("--channels applies to --state, not --matrix")
        with open(args.matrix, encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, dict):
            obj = obj.get("matrix")
        if not isinstance(obj, list):
            raise ValueError("matrix file must hold a JSON matrix or {'matrix': [...]}")
        rows = [[complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)
                 for e in row] for row in obj]
        return DensityMatrix(rows)
    if not args.state:
        raise ValueError("need either --state or --matrix")
    psi = parse_state(args.state)
    rho = psi.to_density()
    if args.channels:
        channels = parse_channel_list(args.channels, psi.n_qubits)
        rho = apply(ChannelAssignment.many_sided(channels), rho)
    return rho


def _cmd_evolve(args):
    psi = parse_state(args.state)
    rho = psi.to_density()
    if args.channels:
        channels = parse_channel_list(args.channels, psi.n_qubits)
        rho = apply(ChannelAssignment.many_sided(channels), rho)
    header = {
        "state": args.state,
        "channels": args.channels,
        "n_qubits": rho.n_qubits,
        "rank": rho.rank,
        "trace": float(rho.mat.trace().real),
    }
    lines = ["# " + json.dumps(header, sort_keys=True), "i,j,re,im"]
    for i in range(rho.dim):
        for j in range(rho.dim):
            z = rho.mat[i, j]
            lines.append(f"{i},{j},{z.real!r},{z.imag!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_concurrence(args):
    rho = _load_density(args)
    if args.tau3:
        value = tau3(rho, leak_tol=args.leak_tol)
        _write(f"tau3,{value!r}\n", args.out)
        return 0
    cut = parse_cut(args.cut) if args.cut else default_cut(rho.n_qubits)
    if not args.breakdown:
        _write(f"total,{cut_concurrence(rho, cut, leak_tol=args.leak_tol)!r}\n", args.out)
        return 0
    breakdown = bipartite_concurrence(rho, cut, leak_tol=args.leak_tol)
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
        leak_tol=args.leak_tol,
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


def _cmd_campaign(args):
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"campaign config must be a JSON object, got {type(loaded).__name__}")
        merged.update(loaded)
    if args.state is not None:
        merged["state"] = args.state
    if args.channels is not None:
        merged["channels"] = [t.strip() for t in args.channels.split(",") if t.strip()]
    if args.samples is not None:
        merged["samples"] = args.samples
    if args.tol is not None:
        merged["tol"] = args.tol
    if args.seed is not None:
        merged["seed"] = args.seed
    elif "seed" not in merged:
        merged["seed"] = _default_seed()
    if args.identity is not None:
        merged["identity"] = args.identity
    if args.cut is not None:
        merged["cut"] = args.cut
    if args.exponent is not None:
        merged["normalization_exponent"] = args.exponent
    if args.aggregation is not None:
        merged["aggregation"] = args.aggregation
    if args.anchor is not None:
        merged["anchor"] = args.anchor
    if args.relabel is not None:
        merged["relabel"] = [int(t) for t in args.relabel.split(",") if t.strip()]
    missing = {"state", "channels", "samples"} - set(merged)
    if missing:
        raise ValueError(f"campaign config is missing fields: {sorted(missing)}")
    config = CampaignConfig.from_json(merged)
    report = run_campaign(config)
    _write(report.to_csv(), args.out)
    return 0


def _cmd_figure1(args):
    spec = SweepSpec.uniform(points=args.points, scenario=args.scenario)
    result = figure1_scan(spec)
    _write(result.to_csv(), args.out)
    return 0


def _cmd_rank_table(args):
    _write(rank_table_csv(rank_table()), args.out)
    return 0


def build_parser():
    parser = _Parser(
        prog="conclab",
        description="Concurrence evolution of 2-4 qubit states in local Pauli "
                    "channels, with factorization-identity verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
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
    p.add_argument("--leak-tol", type=float, default=LEAK_TOL, dest="leak_tol")

    p = add("verify", _cmd_verify, "evaluate one factorization identity on a scenario")
    p.add_argument("--identity", required=True, choices=["product", "sum"])
    p.add_argument("--state", required=True)
    p.add_argument("--channels", required=True)
    p.add_argument("--cut", help="bipartition (default: last qubit alone)")
    p.add_argument("--anchor", choices=["last", "own"], default="last")
    p.add_argument("--exponent", type=int, default=None,
                   help="override the degree-matching normalization exponent")
    p.add_argument("--aggregation", choices=["sum", "rms"], default="sum")
    p.add_argument("--leak-tol", type=float, default=LEAK_TOL, dest="leak_tol")

    p = add("campaign", _cmd_campaign, "seeded randomized identity verification")
    p.add_argument("--config", help="JSON campaign config file")
    p.add_argument("--state")
    p.add_argument("--channels", help="comma-separated channel families, e.g. BF,PF,PF")
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int, help=f"base seed (default: ${SEED_ENV} or 0)")
    p.add_argument("--identity", choices=["auto", "product", "sum"])
    p.add_argument("--cut")
    p.add_argument("--exponent", type=int)
    p.add_argument("--aggregation", choices=["sum", "rms"])
    p.add_argument("--anchor", choices=["last", "own"])
    p.add_argument("--relabel", help="qubit relabeling such as 3,2,1")

    p = add("figure1", _cmd_figure1, "lower-bound sweep of ghz3 under identical BPF(p)")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--scenario", default="ghz3-bpf3")

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
    except SpectralLeakError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
