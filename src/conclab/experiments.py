"""Named reproduction scenarios: the catalogue of (state, channel family)
scenarios, the three-BPF lower-bound sweep and the rank table."""

import json
from dataclasses import dataclass

import numpy as np

from .channels import evolve, flip_params, pauli_superops
from .concurrence import tau3_stack
from .factorization import _final_states
from .states import parse_state

VANISH_TOL = 1e-6       # tau3 at or below this counts as vanished
BISECT_TOL = 1e-4       # p resolution of the zero-crossing refinement
REFINE_POINTS = 65      # points of one refinement round: six bisection steps
MAX_POINTS = 10001      # largest sweep grid; the grid runs as one stack

# Every (state, per-qubit family) scenario, with the final rank it is claimed
# to have for generic in-family channel parameters (None: no claim).
# `conclab sweep` runs a campaign on each; `rank_table` checks the claims.
CATALOGUE = (
    ("bell", ("BF", "BF"), None),
    ("bell", ("PF", "PF"), None),
    ("bell", ("BPF", "BPF"), None),
    ("ghz3", ("PF", "PF", "PF"), 2),
    ("ghz3", ("BF", "BF", "BF"), 4),
    ("ghz3", ("PF", "PF", "BF"), 4),
    ("ghz3", ("PF", "PF", "BPF"), 4),
    ("w3", ("PF", "PF", "PF"), 3),
    ("ghz4", ("PF", "PF", "PF", "PF"), 2),
    ("ghz4", ("PF", "PF", "PF", "BF"), 4),
    ("w4", ("PF", "PF", "PF", "PF"), 4),
    ("ghz3", ("BPF", "BPF", "BPF"), 8),
)


def _tau3_bpf3(ps, rho0):
    """tau3 (len(ps),) of the three-qubit initial density matrix `rho0`
    (8, 8), the GHZ state, after identical BPF(p) on every qubit, for every
    p of `ps`: one stacked evolution and kernel call; see the trust
    contract in `conclab.concurrence`."""
    superops = pauli_superops(flip_params("BPF", ps))
    return tau3_stack(evolve(rho0[None], dict.fromkeys((1, 2, 3), superops)))


@dataclass(frozen=True)
class Figure1Result:
    """Sweep rows (p, direct tau3, product-form and sum-form closed curves)
    plus the refined p at which the direct curve vanishes."""

    rows: tuple
    zero_crossing: float

    def to_csv(self):
        header = {"scenario": "ghz3-bpf3", "points": len(self.rows), "p_min": self.rows[0][0],
                  "p_max": self.rows[-1][0], "zero_crossing": self.zero_crossing}
        out = ["# " + json.dumps(header, sort_keys=True)]
        out.append("p,tau3_direct,product_form,sum_form")
        for p, direct, prod, summ in self.rows:
            out.append(f"{p!r},{direct!r},{prod!r},{summ!r}")
        return "\n".join(out) + "\n"


def figure1_scan(points=101):
    """Sweep ghz3 under identical BPF(p) on every qubit over `points` evenly
    spaced p from 0 to 0.5.

    Column 2 is the direct lower bound of the evolved (rank-8) state; columns
    3 and 4 are the closed-form curves (1-2p)^3 and (1-2p)^2 that the product
    and sum decompositions predict for identical channels. The direct curve
    is 1 at p = 0 and 0 at p = 0.5, so the grid always brackets where it first
    falls to VANISH_TOL. Rounds of REFINE_POINTS evenly spaced points, each
    one stacked call, narrow that bracket until it is at most BISECT_TOL
    wide. At most MAX_POINTS points: the whole grid is evolved as one stack.
    """
    if points < 2:
        raise ValueError(f"need at least two grid points, got {points}")
    if points > MAX_POINTS:
        raise ValueError(f"at most {MAX_POINTS} grid points, got {points}")
    grid = [0.5 * k / (points - 1) for k in range(points)]
    rho0 = parse_state("ghz3").to_density().mat
    direct = _tau3_bpf3(np.array(grid), rho0).tolist()
    rows = [(p, tau, float((1 - 2 * p) ** 3), float((1 - 2 * p) ** 2))
            for p, tau in zip(grid, direct)]

    ps, taus = grid, direct
    while True:
        k = next(i for i, tau in enumerate(taus) if tau <= VANISH_TOL)
        lo, hi = ps[k - 1], ps[k]
        if hi - lo <= BISECT_TOL:
            break
        ps = np.linspace(lo, hi, REFINE_POINTS)
        taus = _tau3_bpf3(ps, rho0)
    return Figure1Result(rows=tuple(rows), zero_crossing=float(0.5 * (lo + hi)))


# Fixed, pairwise-distinct generic flip probabilities (qubit k gets the k-th);
# distinct values keep the channels inequivalent so ranks are not accidentally
# degenerate.
GENERIC_PS = (0.13, 0.23, 0.31, 0.41)


@dataclass(frozen=True)
class RankRow:
    state: str
    families: tuple
    computed_rank: int
    claimed_rank: int

    @property
    def match(self):
        return self.computed_rank == self.claimed_rank


def rank_table():
    """Final rank of every catalogued scenario, read as campaigns read it, next to its claim."""
    rows = []
    for state_name, families, claimed in CATALOGUE:
        if claimed is None:
            continue
        rho0 = parse_state(state_name).to_density().mat
        params = [[flip_params(fam, p) for fam, p in zip(families, GENERIC_PS)]]
        _, ranks = _final_states(rho0, params)
        rows.append(RankRow(state_name, tuple(families), int(ranks[0]), claimed))
    return tuple(rows)


def rank_table_csv(rows):
    out = ["state,families,computed_rank,claimed_rank,match"]
    for r in rows:
        fams = "+".join(r.families)
        out.append(f"{r.state},{fams},{r.computed_rank},{r.claimed_rank},{int(r.match)}")
    return "\n".join(out) + "\n"
