"""Wootters concurrence, its bipartite generalization over SO(d1) x SO(d2)
state inversions, and the three-qubit lower bound built from the 2|1 cuts.

For a cut with block dimensions d1 x d2, every pair of rotation generators
(L_m, L_n) defines an inversion S = L_m (x) L_n and a term

    C_mn = max(0, l1 - l2 - l3 - l4)

where l1 >= l2 >= l3 >= l4 are the square roots of the eigenvalues of
rho @ (S rho* S). The total over all pairs is sqrt(sum of C_mn^2).

Every C_mn is the Wootters concurrence of a 4x4 principal block of rho
(Badziag et al. 2002; Mintert, Kus and Buchleitner 2004). The generator
L_m = E_ab is i*sigma_y on span{a, b} and zero elsewhere, so S is
-sigma_y (x) sigma_y on the four basis states I = {a, b} x {c, d} and zero
off them: S = V Y V^T with V the real d x 4 column selector of I and
Y = -sigma_y (x) sigma_y. The l's are the singular values of
A = sqrt(rho) S sqrt(rho)*, because A A^dag = sqrt(rho) (S rho* S)
sqrt(rho) shares its spectrum with rho (S rho* S). Write B = sqrt(rho) V,
the columns I of sqrt(rho); since sqrt(rho)* = sqrt(rho)^T, A = B Y B^T.
The polar decomposition B = W P has P = sqrt(B^dag B) = sqrt(rho_II), with
rho_II = V^T rho V the principal block, and W an isometry on the range of
P. Then A = W (P Y P*) W^T, and W, W^T act isometrically on the ranges
involved, so A has the singular values of sqrt(rho_II) Y sqrt(rho_II)*:
exactly four of them, and every eigenvalue beyond the top four is 0.

X-shaped blocks, whose only nonzero entries sit on the diagonal and the
anti-diagonal, have closed-form l's (Yu and Eberly, Quantum Inf. Comput. 7,
2007). Y maps |0> and |3> onto each other and |1> and |2> onto each other,
so it maps span{0, 3} and span{1, 2} onto themselves. An X block is the
direct sum of its 2x2 halves M = [[a, z], [z*, d]] on these spans: on
span{0, 3}, a = r00, d = r33, z = r03; on span{1, 2}, a = r11, d = r22,
z = r12. Its root and sqrt(rho_II) Y sqrt(rho_II)* are direct sums too, so
the l's split into two 2x2 problems. On either span, Y acts as +-sigma_x.
For PSD M, N = sqrt(M) sigma_x sqrt(M)* has |det N| = det M = ad - |z|^2
and ||N||_F^2 = tr(M sigma_x M* sigma_x) = 2 (ad + |z|^2). Its singular
values are therefore sqrt(ad) + |z| and sqrt(ad) - |z|. A diagonal block
has z = 0 and l's (x, x, y, y), so C_mn = max(0, x - ((x + y) + y)) = 0
exactly. Roundoff can leave M with a negative eigenvalue. The PSD root
then clamps M to lambda+ times its top eigenprojector, with
lambda+ = (a + d + g) / 2 and g = sqrt((a - d)^2 + 4 |z|^2). That clamped
matrix has l's 2 lambda+ |z| / g and 0. This case is exactly where
sqrt(ad) - |z| < 0, with a and d clipped at 0.

A block that is not X-shaped can still have l's that need no root. Let J
be its support: the states whose row or column holds a nonzero entry, and
P_J the projector on span J. Then rho_II = P_J rho_II P_J, and its PSD root,
built from the eigenvectors of nonzero eigenvalues, which lie in span J, is
supported on J too. When J holds at most one state of each Y pair {0, 3}
and {1, 2}, P_J Y P_J = 0, because Y maps each state onto its partner. So
sqrt(rho_II) Y sqrt(rho_II)* = sqrt(rho_II) (P_J Y P_J) sqrt(rho_II)* = 0,
and the l's are exactly (0, 0, 0, 0), whatever the entries on J hold. The
closed form above writes exactly these: in each half one of a, d is 0, and
so is z. The low-rank W states under phase flips, the only catalogued
scenarios with blocks that are not X-shaped, have only blocks of this kind,
so no catalogued block reaches the general path below.

The general path takes a block with a nonzero entry off the X and both
states of some Y pair live. With rho_II = V diag(w) V^dag from `eigh`, let
G = V sqrt(max(w, 0)), the clamp of roundoff at 0. Then sqrt(rho_II) =
V G^dag with V unitary, and sqrt(rho_II)* = sqrt(rho_II)^T = G* V^T, so
sqrt(rho_II) Y sqrt(rho_II)* = V (G^dag Y G*) V^T has the singular values
of G^dag Y G* and, Y being real, of its conjugate G^T Y G. Y is a signed
permutation, so G^T Y is a signed reversal of the columns of G^T, and the
product costs one 4x4 matmul per block, with no root rebuilt. Reading the
l's as singular values avoids taking square roots of near-zero
eigenvalues, which would inject noise of order sqrt(machine epsilon).

The kernel therefore takes a stack of states as (B, E) rows of a support
layout (`linalg.layout_positions`; a dense stack is the identity layout)
and reads the principal blocks of a cut at positions in them (the cut's
qubit reordering folded in, every entry outside the layout read at the
pad, +0.0 as a dense zero). It marks a (state, pair) as X-shaped when
the eight entries of its block off the diagonal and anti-diagonal are
exactly 0, and gives it the closed form. Only the other blocks, selected
with one boolean mask, are gathered whole; of these, only the ones with
both states of some Y pair live go through one batched `eigh` and one
batched SVD. Every decision is made per (state, pair), from that block
alone, or for a whole layout (below). `cut_totals` and `tau3_stack` serve
whole stacks; `cut_concurrence`, `bipartite_concurrence` and `tau3` are
their one-state cases, and `wootters` is the single-block case (cut 1|2).

Pair pruning. `cut_totals` and `tau3_stack` first read the stack's union
support, the entries nonzero in some state, and skip each pair whose block
there has no coupling entry (r30, r21 or an entry off the X) or no Y pair
with both states live. A skipped pair's C_mn is exactly +0.0 in every state
whose entries lie in that support, so the support may be any superset of
the stack's union support, such as the entries of a layout that holds it:
evolved rows are pruned once, on their layout (`cut_pairs`, `tau3_pairs`),
and read with `live_totals` and `live_tau3`. A
state's block holds a subset of the support's entries, so the block has
r30 = r21 = 0 (a nonzero r30 would make both 0 and 3 live, and likewise
r21 for 1 and 2), and either it is X-shaped or none of its Y pairs is
live; the SVD path runs only on blocks with a live Y pair, so either way
the block gets the closed form with z = 0 in both halves. Each half then gives hi = lo =
sqrt(max(a, 0) max(d, 0)) >= 0 and no clamp, so the l's are (x, x, y, y)
with x >= y >= 0, and C_mn = max(0, x - ((x + y) + y)). Rounding is
monotone, so (x + y) + y >= x, the difference is +0.0 or negative, and
C_mn = +0.0. The skipped pairs are written as +0.0, the live ones as
`_pair_spectra` gives them, so the (B, P) values and `_cut_total`'s
ordered sum are those of the unpruned kernel, bit for bit, whatever else
shares the stack and whichever superset the pairs were pruned on.
`bipartite_concurrence` keeps every pair: a breakdown prints each pair's
l's, and a skipped pair's (x, x, y, y) need not be 0.

X-shaped layouts. Pruning also notes whether a kept block holds an entry off
the X in the support. If none does, each such entry of a state in the
support reads +0.0 (a dense zero or the pad), so the per-state test would
mark no block: the kernel skips it for the same closed form, bit for bit.
All catalogued layouts and `figure1`'s are X-shaped so; random and user
states keep the test, and `bipartite_concurrence` and `wootters` always do.

Trust contract. The kernel trusts its input, dense or as rows of a layout
that holds every nonzero entry: a state rho0 that passed `density_spectra`,
or any state evolved from one by local Pauli channels, many-sided or
single-sided. Each channel's weights a_k^2 are nonnegative
and sum to 1 within 1e-12, so an evolved state is sum_P w_P P rho0 P over
Pauli strings P, with w_P >= 0 and sum_P w_P = 1: a convex mix of unitary
conjugates of rho0. It keeps rho0's trace and, to roundoff, its
Hermiticity, and by concavity of the lowest eigenvalue its eigenvalues sit
at or above lambda_min(rho0). A block's entries are the state's, so it is
Hermitian to HERM_TOL; by Cauchy interlacing its eigenvalues sit at or
above EIG_FLOOR - 4 * HERM_TOL, the 4 covering `eigh` reading a triangle
that the gather reordered. The same argument lets every other module hand
evolved rows to this kernel, and read their spectra and ranks from the
blocks of the plan that evolved them (`channels.SupportPlan.spectra`),
unchecked: only inputs are validated.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .linalg import layout_positions, n_qubits_of, permutation_indices


@dataclass(frozen=True)
class Bipartition:
    """Ordered split of qubits 1..n into two nonempty blocks, e.g. {1,2}|{3}."""

    block1: tuple
    block2: tuple

    def __post_init__(self):
        block1 = tuple(int(q) for q in self.block1)
        block2 = tuple(int(q) for q in self.block2)
        n = len(block1) + len(block2)
        if not block1 or not block2:
            raise ValueError("both blocks must be nonempty")
        if sorted(block1 + block2) != list(range(1, n + 1)):
            raise ValueError(f"blocks {block1}|{block2} must partition 1..{n}")
        object.__setattr__(self, "block1", block1)
        object.__setattr__(self, "block2", block2)

    @property
    def n_qubits(self):
        return len(self.block1) + len(self.block2)

    @property
    def d1(self):
        return 1 << len(self.block1)

    @property
    def d2(self):
        return 1 << len(self.block2)

    @property
    def label(self):
        return "".join(map(str, self.block1)) + "|" + "".join(map(str, self.block2))

    def __repr__(self):
        return f"Bipartition({self.label!r})"


def parse_cut(spec):
    """Parse '12|3' or '1,2|3' into a Bipartition."""
    text = str(spec).strip()
    if text.count("|") > 1:
        raise ValueError(f"cut spec {spec!r} has more than one '|' separator")
    left, sep, right = text.partition("|")
    if not sep:
        raise ValueError(f"cut spec {spec!r} needs a '|' separator")

    def block(part):
        if "," not in part:  # one digit per qubit; whitespace is skipped
            tokens = [tok for tok in part if not tok.isspace()]
        else:
            tokens = [tok.strip() for tok in part.split(",")]
            if "" in tokens:
                raise ValueError(f"cut spec {spec!r} has an empty item")
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"cut spec {spec!r} has qubit {tok!r}, which is not a number")
        return tuple(int(tok) for tok in tokens)

    return Bipartition(block(left), block(right))


@dataclass(frozen=True)
class PairTerm:
    """One generator pair's contribution: indices (1-based), the four l's, C_mn."""

    m: int
    n: int
    lambdas: tuple
    value: float

    def __repr__(self):
        return f"PairTerm(m={self.m}, n={self.n}, value={self.value:.6g})"


@dataclass(frozen=True)
class ConcurrenceBreakdown:
    """A cut's PairTerms, in pair order, and their total (see `_cut_total`)."""

    pairs: tuple
    total: float

    def __repr__(self):
        return f"ConcurrenceBreakdown(total={self.total:.6g}, pairs={len(self.pairs)})"


# M @ (sigma_y (x) sigma_y) == M[..., ::-1] * _FLIP_SIGNS; the overall sign of
# the block inversion changes no singular value
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS.setflags(write=False)

# flat indices, in a 4x4 block, of the eight entries off the diagonal and the
# anti-diagonal, and of the X entries r00, r11, r33, r22, r30, r21: the two
# halves' diagonals, then their lower anti-diagonal entries
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])
_X_ENTRIES = np.array([0, 5, 15, 10, 12, 9])
_OFF_X.setflags(write=False)
_X_ENTRIES.setflags(write=False)


def _gathers(flat):
    """The (P, 4, 4) flat indices of P principal blocks in a flattened
    state, with the (8, P) indices of each block's entries off its diagonal
    and anti-diagonal and the (6, P) indices of its X entries r00, r11,
    r33, r22, r30, r21 (the lower triangle `eigh` reads)."""
    cells = flat.reshape(len(flat), 16)
    gathers = (flat, cells[:, _OFF_X].T, cells[:, _X_ENTRIES].T)
    for a in gathers:
        a.setflags(write=False)
    return gathers


@lru_cache(maxsize=None)
def _pair_blocks(block1, block2):
    """Every generator pair's principal block of a cut: the (m, n) labels,
    1-based, of the generators E_ab (a < b) of each block in lexicographic
    order, and the `_gathers` of the blocks' entries in the flattened d x d
    unpermuted state.

    Pair (E_ab, E_cd) selects the basis states {a, b} x {c, d} of the order
    with block1's qubits first; `src` maps them back to the state's own
    order, so the reordering costs no matrix copy.
    """
    src = permutation_indices(len(block1) + len(block2), block1 + block2)
    d1, d2 = 1 << len(block1), 1 << len(block2)
    labels, index_sets = [], []
    for m, (a, b) in enumerate(combinations(range(d1), 2), start=1):
        for n, (c, d) in enumerate(combinations(range(d2), 2), start=1):
            labels.append((m, n))
            index_sets.append(src[[a * d2 + c, a * d2 + d, b * d2 + c, b * d2 + d]])
    idx = np.array(index_sets)
    return tuple(labels), _gathers(idx[:, :, None] * (d1 * d2) + idx[:, None, :])


def _x_spectra(entries):
    """The closed-form l's (B, P, 4), descending, of blocks read as X-shaped,
    from their X entries (see `_gathers`) gathered as (B, 6, P):
    sqrt(r00 r33) +- |r03| and sqrt(r11 r22) +- |r12|, the diagonal clipped
    at 0, or (2 lambda+ |z| / g, 0) where a 2x2 half has a negative
    eigenvalue for the PSD root to clamp (see the module docstring). They
    are exact for X-shaped blocks and ignore every other entry."""
    near, far, anti = entries[:, 0:2].real, entries[:, 2:4].real, entries[:, 4:6]
    # |z| by correctly rounded operations only, so no SIMD path can make a
    # value depend on its position in the stack
    mod = np.sqrt(anti.real * anti.real + anti.imag * anti.imag)
    mean = np.sqrt(np.maximum(near, 0.0) * np.maximum(far, 0.0))
    hi, lo = mean + mod, mean - mod
    clamped = lo < 0.0
    if clamped.any():
        a, d, z = near[clamped], far[clamped], mod[clamped]
        gap = np.sqrt((a - d) * (a - d) + 4.0 * z * z)
        hi[clamped] = z * np.maximum(a + d + gap, 0.0) / gap
        lo[clamped] = 0.0
    # each half has hi >= lo, so these comparisons sort the four l's
    inner_hi, inner_lo = np.minimum(hi[:, 0], hi[:, 1]), np.maximum(lo[:, 0], lo[:, 1])
    return np.stack((np.maximum(hi[:, 0], hi[:, 1]), np.maximum(inner_hi, inner_lo),
                     np.minimum(inner_hi, inner_lo), np.minimum(lo[:, 0], lo[:, 1])), axis=-1)


def _pair_spectra(rows, gathers):
    """The l's (B, P, 4), descending, and C_mn = max(0, l1 - l2 - l3 - l4)
    (B, P) of the principal blocks rho_II of (B, E) rows or a (B, d, d)
    stack, whose entries sit at the positions of `gathers`: the singular
    values of sqrt(rho_II) Y sqrt(rho_II)*. The closed form is evaluated
    for every block, exact for X-shaped blocks and for those with no live
    Y pair (l's exactly 0, see the module docstring), and overwritten from
    one `eigh` and one SVD of every other block, decided per (state, pair)
    from its own entries (a state is live when its row or its column holds
    a nonzero entry); no catalogued block is of that kind. Gathers with
    None for the entries off the X (`_live_pairs`) skip that test. Every
    array has the stack axis first and every operation acts per (state,
    pair), so a state's values do not depend on the stack it shares.
    """
    flat, off_x, x_entries = gathers
    states = rows.reshape(len(rows), -1)
    lam = _x_spectra(np.take(states, x_entries, axis=1))
    # entries are gathered as (B, k, P): reducing over a short middle axis
    # with the pairs contiguous is much cheaper than over a short last axis
    general = None if off_x is None else np.any(np.take(states, off_x, axis=1) != 0, axis=1)
    if general is not None and general.any():
        rows, pairs = np.nonzero(general)
        blocks = states[rows[:, None, None], flat[pairs]]
        # a state is live when its row or its column holds a nonzero entry;
        # a block with no live Y pair {0, 3} or {1, 2} has l's exactly 0
        nonzero = blocks != 0
        live = nonzero.any(axis=-1) | nonzero.any(axis=-2)
        paired = (live[:, 0] & live[:, 3]) | (live[:, 1] & live[:, 2])
        if paired.any():
            w, g = np.linalg.eigh(blocks[paired])
            g *= np.sqrt(np.maximum(w, 0.0))[..., None, :]
            flipped = np.swapaxes(g, -1, -2)[..., ::-1] * _FLIP_SIGNS
            lam[rows[paired], pairs[paired]] = np.linalg.svd(flipped @ g, compute_uv=False)
    return lam, np.maximum(0.0, lam[..., 0] - ((lam[..., 1] + lam[..., 2]) + lam[..., 3]))


def _live_pairs(gathers, entries, at):
    """The pairs that can carry concurrence in any state whose nonzero
    entries lie in `entries` (flat indices of a d x d state): those whose
    block there holds a nonzero coupling entry (r30, r21 or an entry off the
    X) and both states of some Y pair live. Returns the number of pairs P,
    their indices and their `_gathers` at positions `at` (d * d,) of each
    flat index in the rows read, None for the entries off the X if no kept
    block holds one. Every other pair's C_mn is exactly +0.0 in every such
    state (see the module docstring), so the entries may be any superset of
    a stack's union support."""
    flat, off_x, x_entries = gathers
    support = np.zeros(len(at), dtype=bool)
    support[entries] = True
    blocks = support[flat]
    live = blocks.any(axis=-1) | blocks.any(axis=-2)
    paired = (live[:, 0] & live[:, 3]) | (live[:, 1] & live[:, 2])
    coupled = support[off_x].any(axis=0) | support[x_entries[4:]].any(axis=0)
    pairs = np.flatnonzero(paired & coupled)
    off_x = at[off_x[:, pairs]] if support[off_x[:, pairs]].any() else None
    return len(flat), pairs, (at[flat[pairs]], off_x, at[x_entries[:, pairs]])


def _dense_pairs(gathers, mats):
    """`_live_pairs` on a (B, d, d) stack's union support: the identity layout."""
    flat = mats.reshape(len(mats), -1)
    return _live_pairs(gathers, np.flatnonzero(flat.any(axis=0)), np.arange(flat.shape[1]))


def _live_values(rows, live):
    """C_mn (B, P) of (B, E) rows, as `_pair_spectra` gives them, from one
    `_pair_spectra` call on the pairs of `_live_pairs` alone; every other
    pair is written as +0.0."""
    count, pairs, pruned = live
    values = np.zeros((len(rows), count))
    if len(pairs):
        values[:, pairs] = _pair_spectra(rows, pruned)[1]
    return values


def _check_qubits(cut, mats):
    n = n_qubits_of(mats.shape[-1])
    if cut.n_qubits != n:
        raise DimensionMismatchError(
            f"cut {cut.label} covers {cut.n_qubits} qubits but state has {n}")


def wootters(rho):
    """Two-qubit mixed-state concurrence: the single principal block of cut 1|2."""
    if rho.n_qubits != 2:
        raise DimensionMismatchError(f"Wootters concurrence needs 2 qubits, got {rho.n_qubits}")
    _, gathers = _pair_blocks((1,), (2,))
    return min(1.0, float(_pair_spectra(rho.mat[None], gathers)[1][0, 0]))


def _cut_total(values):
    """A cut's total sqrt(sum of C_mn^2) over the last axis of its C_mn
    values, added in pair order: every reader of a total gets these bits."""
    return np.sqrt(np.cumsum(values * values, axis=-1)[..., -1])


def cut_pairs(cut, entries):
    """The `_live_pairs` of a cut's generator pairs on the support layout
    `entries` of a state on the cut's qubits: what `live_totals` reads."""
    at = layout_positions(entries, 1 << cut.n_qubits)
    return _live_pairs(_pair_blocks(cut.block1, cut.block2)[1], entries, at)


def live_totals(rows, live):
    """Concurrence across a cut of every state of (B, E) rows of the layout
    `live` was pruned on (`cut_pairs`): the (B,) totals over the cut's
    generator pairs. Each state must have passed `density_spectra` or be
    evolved from one by local Pauli channels (see the trust contract in the
    module docstring)."""
    return _cut_total(_live_values(rows, live))


def cut_totals(mats, cut):
    """Concurrence across a cut of every state of a (B, d, d) stack:
    `live_totals` on the identity layout."""
    _check_qubits(cut, mats)
    return live_totals(mats, _dense_pairs(_pair_blocks(cut.block1, cut.block2)[1], mats))


def bipartite_concurrence(rho, cut):
    """Generalized concurrence of rho across a bipartition, one PairTerm per
    generator pair."""
    _check_qubits(cut, rho.mat)
    labels, gathers = _pair_blocks(cut.block1, cut.block2)
    lam, values = _pair_spectra(rho.mat[None], gathers)
    pairs = tuple(PairTerm(m, n, tuple(top), value)
                  for (m, n), top, value in zip(labels, lam[0].tolist(), values[0].tolist()))
    return ConcurrenceBreakdown(pairs, float(_cut_total(values)[0]))


def cut_concurrence(rho, cut):
    """Concurrence across a cut: the total over its generator pairs."""
    return float(cut_totals(rho.mat[None], cut)[0])


_TAU3_CUTS = (Bipartition((1, 2), (3,)), Bipartition((1, 3), (2,)), Bipartition((2, 3), (1,)))


@lru_cache(maxsize=None)
def _tau3_blocks():
    """The `_gathers` of the 18 principal blocks of the three 2|1 cuts."""
    return _gathers(np.concatenate([_pair_blocks(cut.block1, cut.block2)[1][0]
                                    for cut in _TAU3_CUTS]))


def tau3_pairs(entries):
    """The `_live_pairs` of the three 2|1 cuts' 18 pairs on the support
    layout `entries` of a 3-qubit state: what `live_tau3` reads."""
    return _live_pairs(_tau3_blocks(), entries, layout_positions(entries, 8))


def live_tau3(rows, live):
    """Root-mean-square of the three 2|1 bipartite concurrences of every
    3-qubit state of (B, E) rows of the layout `live` was pruned on
    (`tau3_pairs`), from one kernel call over the 18 pairs of the three
    cuts. Each cut's total is `_cut_total` over its 6 pairs, so tau3 is the
    rms of the three `cut_totals`, bit for bit."""
    t1, t2, t3 = _cut_total(_live_values(rows, live).reshape(len(rows), 3, -1)).T
    return np.sqrt((t1 * t1 + t2 * t2 + t3 * t3) / 3.0)


def tau3_stack(mats):
    """tau3 of every 3-qubit state of a (B, 8, 8) stack that `cut_totals`
    accepts: `live_tau3` on the identity layout."""
    _check_qubits(_TAU3_CUTS[0], mats)
    return live_tau3(mats, _dense_pairs(_tau3_blocks(), mats))


def tau3(rho):
    """Root-mean-square of the three 2|1 bipartite concurrences of a 3-qubit
    state: the one-state case of `tau3_stack`."""
    if rho.n_qubits != 3:
        raise DimensionMismatchError(f"tau3 needs 3 qubits, got {rho.n_qubits}")
    return float(tau3_stack(rho.mat[None])[0])
