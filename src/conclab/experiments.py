"""Named reproduction scenarios: the catalogue of (state, channel family)
scenarios, the three-BPF lower-bound sweep and the rank table."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelAssignment, apply, evolve, flip_channel, flip_params, pauli_superops
from .concurrence import tau3_stack
from .linalg import density_spectra, numerical_rank
from .states import parse_state

VANISH_TOL = 1e-6       # tau3 at or below this counts as vanished
BISECT_TOL = 1e-4       # p resolution of the zero-crossing refinement

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


def _grid(points):
    if points < 2:
        raise ValueError(f"need at least two grid points, got {points}")
    return tuple(0.5 * k / (points - 1) for k in range(points))


@dataclass(frozen=True)
class SweepSpec:
    """Flip-probability grid of the ghz3 BPF^3 sweep on p in [0, 0.5]."""

    p_grid: tuple = _grid(101)

    def __post_init__(self):
        grid = tuple(float(p) for p in self.p_grid)
        if list(grid) != sorted(grid):
            raise ValueError("p grid must be sorted ascending")
        if grid and (grid[0] < 0.0 or grid[-1] > 0.5):
            raise ValueError("p grid must lie within [0, 0.5]")
        object.__setattr__(self, "p_grid", grid)

    @classmethod
    def uniform(cls, points=101):
        return cls(p_grid=_grid(points))


def _tau3_bpf3(ps, rho0):
    """tau3 (len(ps),) of the three-qubit initial density matrix `rho0`
    (8, 8), the GHZ state, after identical BPF(p) on every qubit, for every
    p of `ps`: one stacked evolution, validation and kernel call."""
    superops = pauli_superops(flip_params("BPF", ps))
    mats = evolve(rho0[None], dict.fromkeys((1, 2, 3), superops))
    density_spectra(mats)
    return tau3_stack(mats)


@dataclass(frozen=True)
class Figure1Result:
    """Sweep rows (p, direct tau3, product-form and sum-form closed curves)
    plus the refined p at which the direct curve vanishes (NaN if it never does)."""

    spec: SweepSpec
    rows: tuple
    zero_crossing: float

    def to_csv(self):
        header = {
            "scenario": "ghz3-bpf3",
            "points": len(self.spec.p_grid),
            "p_min": self.spec.p_grid[0],
            "p_max": self.spec.p_grid[-1],
            "zero_crossing": None if math.isnan(self.zero_crossing) else self.zero_crossing,
        }
        out = ["# " + json.dumps(header, sort_keys=True)]
        out.append("p,tau3_direct,product_form,sum_form")
        for p, direct, prod, summ in self.rows:
            out.append(f"{p!r},{direct!r},{prod!r},{summ!r}")
        return "\n".join(out) + "\n"


def figure1_scan(spec=None):
    """Sweep ghz3 under identical BPF(p) on every qubit over the p grid.

    Column 2 is the direct lower bound of the evolved (rank-8) state; columns
    3 and 4 are the closed-form curves (1-2p)^3 and (1-2p)^2 that the product
    and sum decompositions predict for identical channels. The vanishing point
    of the direct curve is located by the first grid point at or below
    VANISH_TOL and refined by bisection to BISECT_TOL.
    """
    spec = spec or SweepSpec()
    rho0 = parse_state("ghz3").to_density().mat
    direct = _tau3_bpf3(np.array(spec.p_grid), rho0).tolist()
    rows = [(p, tau, float((1 - 2 * p) ** 3), float((1 - 2 * p) ** 2))
            for p, tau in zip(spec.p_grid, direct)]

    crossing = math.nan
    for k in range(1, len(rows)):
        if rows[k][1] <= VANISH_TOL < rows[k - 1][1]:
            lo, hi = rows[k - 1][0], rows[k][0]
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if _tau3_bpf3([mid], rho0)[0] > VANISH_TOL:
                    lo = mid
                else:
                    hi = mid
            crossing = 0.5 * (lo + hi)
            break
    return Figure1Result(spec=spec, rows=tuple(rows), zero_crossing=crossing)


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


def rank_table(p_values=GENERIC_PS):
    """Compute the final rank of every catalogued scenario next to its claim."""
    rows = []
    for state_name, families, claimed in CATALOGUE:
        if claimed is None:
            continue
        psi = parse_state(state_name)
        channels = [flip_channel(fam, p_values[k]) for k, fam in enumerate(families)]
        rho = apply(ChannelAssignment.many_sided(channels), psi.to_density())
        rows.append(RankRow(state_name, tuple(families), numerical_rank(rho), claimed))
    return tuple(rows)


def rank_table_csv(rows):
    out = ["state,families,computed_rank,claimed_rank,match"]
    for r in rows:
        fams = "+".join(r.families)
        out.append(f"{r.state},{fams},{r.computed_rank},{r.claimed_rank},{int(r.match)}")
    return "\n".join(out) + "\n"
