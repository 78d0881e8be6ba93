"""Dense (B, d, d) stacks handed to the concurrence kernel the way campaigns
hand it evolved states: as (B, E + 1) rows of a support layout, here the
stack's union support, with one pad that holds +0.0."""

import numpy as np

from conclab.concurrence import cut_pairs, live_tau3, live_totals, tau3_pairs
from conclab.linalg import layout_positions


def union_rows(mats):
    """The union support `entries` of a (B, d, d) stack, the flat indices
    nonzero in some state, and the stack's (B, E + 1) rows of that layout.
    A zero entry inside the support keeps its sign; one outside reads the
    pad."""
    flat = mats.reshape(len(mats), -1)
    entries = np.flatnonzero(flat.any(axis=0))
    rows = np.zeros((len(mats), len(entries) + 1), dtype=complex)
    rows[:, :-1] = flat[:, entries]
    return entries, rows


def layout_gathers(gathers, entries, dim):
    """Kernel gathers of flat indices of a dim x dim state, mapped to their
    positions in rows of the support layout `entries`."""
    at = layout_positions(entries, dim)
    return tuple(at[g] for g in gathers)


def stack_totals(mats, cut):
    """Concurrence across a cut of every state of a (B, d, d) stack, from
    one pruned kernel call on its union-support rows."""
    entries, rows = union_rows(mats)
    return live_totals(rows, cut_pairs(cut, entries))


def stack_tau3(mats):
    """tau3 of every state of a (B, 8, 8) stack, from one pruned kernel call
    on its union-support rows."""
    entries, rows = union_rows(mats)
    return live_tau3(rows, tau3_pairs(entries))
