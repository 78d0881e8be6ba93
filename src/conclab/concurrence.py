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

The kernel therefore takes a (B, d, d) stack of states, gathers the
(B, P, 4, 4) principal blocks of a cut with one fancy index (the cut's
qubit reordering folded into the index sets), takes one batched PSD square
root, and reads every pair's l's from one batched SVD. Y is a signed
permutation, so sqrt(rho_II) Y is a signed reversal of the columns of the
root, not a matmul. Reading the l's as singular values avoids taking
square roots of near-zero eigenvalues, which would inject noise of order
sqrt(machine epsilon). `cut_totals` and `tau3_stack` serve whole stacks;
`cut_concurrence`, `bipartite_concurrence` and `tau3` are their
one-state cases, and `wootters` is the single-block case (cut 1|2).

The kernel trusts its input, which has passed `density_spectra`. A block's
entries are the state's, so it is Hermitian to HERM_TOL; by Cauchy
interlacing its eigenvalues sit at or above EIG_FLOOR - 4 * HERM_TOL, the 4
covering `eigh` reading a triangle that the gather reordered.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError
from .linalg import n_qubits_of, permutation_indices, psd_sqrt


class Bipartition:
    """Ordered split of qubits 1..n into two nonempty blocks, e.g. {1,2}|{3}."""

    __slots__ = ("block1", "block2")

    def __init__(self, block1, block2):
        block1 = tuple(int(q) for q in block1)
        block2 = tuple(int(q) for q in block2)
        n = len(block1) + len(block2)
        if not block1 or not block2:
            raise ValueError("both blocks must be nonempty")
        if sorted(block1 + block2) != list(range(1, n + 1)):
            raise ValueError(f"blocks {block1}|{block2} must partition 1..{n}")
        self.block1 = block1
        self.block2 = block2

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

    def __eq__(self, other):
        return (isinstance(other, Bipartition)
                and self.block1 == other.block1 and self.block2 == other.block2)

    def __hash__(self):
        return hash((self.block1, self.block2))


def parse_cut(spec):
    """Parse '12|3' or '1,2|3' into a Bipartition."""
    text = str(spec).strip()
    left, sep, right = text.partition("|")
    if not sep:
        raise ValueError(f"cut spec {spec!r} needs a '|' separator")

    def block(part):
        part = part.strip()
        if "," in part:
            return tuple(int(tok) for tok in part.split(",") if tok.strip())
        return tuple(int(ch) for ch in part if not ch.isspace())

    return Bipartition(block(left), block(right))


class PairTerm:
    """One generator pair's contribution: indices (1-based), the four l's, C_mn."""

    __slots__ = ("m", "n", "lambdas", "value")

    def __init__(self, m, n, lambdas, value):
        self.m = m
        self.n = n
        self.lambdas = lambdas
        self.value = value

    def __repr__(self):
        return f"PairTerm(m={self.m}, n={self.n}, value={self.value:.6g})"


class ConcurrenceBreakdown:
    __slots__ = ("pairs", "total")

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        self.total = float(np.sqrt(sum(p.value * p.value for p in self.pairs)))

    def __repr__(self):
        return f"ConcurrenceBreakdown(total={self.total:.6g}, pairs={len(self.pairs)})"


# M @ (sigma_y (x) sigma_y) == M[..., ::-1] * _FLIP_SIGNS; the overall sign of
# the block inversion changes no singular value
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_FLIP_SIGNS.setflags(write=False)


@lru_cache(maxsize=None)
def _pair_blocks(block1, block2):
    """Every generator pair's principal block of a cut: the (m, n) labels,
    1-based, of the generators E_ab (a < b) of each block in lexicographic
    order, and the (P, 4, 4) indices
    of the blocks' entries in the flattened d x d unpermuted state.

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
    flat = idx[:, :, None] * (d1 * d2) + idx[:, None, :]
    flat.setflags(write=False)
    return tuple(labels), flat


def _pair_spectra(mats, flat):
    """The l's (B, P, 4), descending, and C_mn = max(0, l1 - l2 - l3 - l4)
    (B, P) of the principal blocks rho_II of a (B, d, d) stack, gathered by
    their flat indices (P, 4, 4): the singular values of
    sqrt(rho_II) Y sqrt(rho_II)*.

    Every array here is C-ordered with the stack axis first, so every
    reduction runs over one state's own row and a state's values do not
    depend on the stack it shares.
    """
    root = psd_sqrt(np.take(mats.reshape(len(mats), -1), flat, axis=1))
    flipped = root[..., ::-1] * _FLIP_SIGNS
    lam = np.linalg.svd(flipped @ np.conj(root, out=root), compute_uv=False)
    return lam, np.maximum(0.0, lam[..., 0] - ((lam[..., 1] + lam[..., 2]) + lam[..., 3]))


def _check_qubits(cut, mats):
    n = n_qubits_of(mats.shape[-1])
    if cut.n_qubits != n:
        raise DimensionMismatchError(
            f"cut {cut.label} covers {cut.n_qubits} qubits but state has {n}")


def wootters(rho):
    """Two-qubit mixed-state concurrence: the single principal block of cut 1|2."""
    if rho.n_qubits != 2:
        raise DimensionMismatchError(f"Wootters concurrence needs 2 qubits, got {rho.n_qubits}")
    _, flat = _pair_blocks((1,), (2,))
    return min(1.0, float(_pair_spectra(rho.mat[None], flat)[1][0, 0]))


def cut_totals(mats, cut):
    """Concurrence across a cut of every state of a (B, d, d) stack: the
    (B,) totals sqrt(sum of C_mn^2) over the cut's generator pairs, summed
    in pair order. The stack must have passed `density_spectra`."""
    _check_qubits(cut, mats)
    values = _pair_spectra(mats, _pair_blocks(cut.block1, cut.block2)[1])[1]
    return np.sqrt(np.cumsum(values * values, axis=-1)[..., -1])


def bipartite_concurrence(rho, cut):
    """Generalized concurrence of rho across a bipartition, one PairTerm per
    generator pair."""
    _check_qubits(cut, rho.mat)
    labels, flat = _pair_blocks(cut.block1, cut.block2)
    lam, values = _pair_spectra(rho.mat[None], flat)
    return ConcurrenceBreakdown(
        PairTerm(m, n, tuple(top), value)
        for (m, n), top, value in zip(labels, lam[0].tolist(), values[0].tolist()))


def cut_concurrence(rho, cut):
    """Concurrence across a cut: the total over its generator pairs."""
    return float(cut_totals(rho.mat[None], cut)[0])


_TAU3_CUTS = (Bipartition((1, 2), (3,)), Bipartition((1, 3), (2,)), Bipartition((2, 3), (1,)))


@lru_cache(maxsize=None)
def _tau3_blocks():
    """Flat indices of the 18 principal blocks of the three 2|1 cuts."""
    flat = np.concatenate([_pair_blocks(cut.block1, cut.block2)[1] for cut in _TAU3_CUTS])
    flat.setflags(write=False)
    return flat


def tau3_stack(mats):
    """Root-mean-square of the three 2|1 bipartite concurrences of every
    3-qubit state of a (B, 8, 8) stack that passed `density_spectra`, from
    one kernel call over the 18 pairs of the three cuts."""
    _check_qubits(_TAU3_CUTS[0], mats)
    values = _pair_spectra(mats, _tau3_blocks())[1]
    return np.sqrt(np.sum(values * values, axis=-1) / 3.0)


def tau3(rho):
    """Root-mean-square of the three 2|1 bipartite concurrences of a 3-qubit
    state: the one-state case of `tau3_stack`."""
    if rho.n_qubits != 3:
        raise DimensionMismatchError(f"tau3 needs 3 qubits, got {rho.n_qubits}")
    return float(tau3_stack(rho.mat[None])[0])
