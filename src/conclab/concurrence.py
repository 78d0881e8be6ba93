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

The kernel therefore gathers the (P, 4, 4) principal blocks of a cut with
one fancy index (the cut's qubit reordering folded into the index sets),
takes one batched PSD square root, and reads every pair's l's from one
batched SVD. Reading the l's as singular values avoids taking square
roots of near-zero eigenvalues, which would inject noise of order
sqrt(machine epsilon). `wootters` is the single-block case (cut 1|2).
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError, SpectralLeakError
from .linalg import SIGMA_Y, kron, permutation_indices, psd_sqrt

LEAK_TOL = 1e-8  # max allowed eigenvalue of rho @ rho_tilde beyond the top four


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


@lru_cache(maxsize=None)
def so_generators(d):
    """The d(d-1)/2 rotation generators E_ab (+1 at (a,b), -1 at (b,a), a < b)
    in lexicographic order."""
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            g = np.zeros((d, d))
            g[a, b] = 1.0
            g[b, a] = -1.0
            g.setflags(write=False)
            gens.append(g)
    return tuple(gens)


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


# sigma_y (x) sigma_y; the sign of the block inversion changes no singular value
_SPIN_FLIP = kron(SIGMA_Y, SIGMA_Y)
_SPIN_FLIP.setflags(write=False)


@lru_cache(maxsize=None)
def _pair_blocks(block1, block2):
    """Every generator pair's principal block of a cut: the (m, n) labels,
    1-based and lexicographic like so_generators, and (P, 4, 1) row and
    (P, 1, 4) column index arrays into the unpermuted state.

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
    idx.setflags(write=False)
    return tuple(labels), idx[:, :, None], idx[:, None, :]


def _pair_lambdas(mat, rows, cols):
    """Singular values (P, 4), descending, of sqrt(rho_II) Y sqrt(rho_II)*
    for the principal blocks rho_II = mat[rows, cols]."""
    root = psd_sqrt(mat[rows, cols])
    return np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)


def _pair_values(lam):
    """C_mn = max(0, l1 - l2 - l3 - l4) for every row of l's."""
    return np.maximum(0.0, lam[:, 0] - lam[:, 1:].sum(axis=1))


def _check_leak(cut, leak_tol):
    """The leak guard: every eigenvalue of rho @ rho_tilde beyond a pair's
    top four is exactly 0 (module docstring), so only a negative leak_tol
    on a cut with more than four basis states trips it."""
    if cut.d1 * cut.d2 > 4 and 0.0 > leak_tol:
        raise SpectralLeakError(
            f"pair (m=1, n=1) of cut {cut.label}: eigenvalue 0.000e+00 "
            f"beyond the top four exceeds {leak_tol:.1e}")


def wootters(rho):
    """Two-qubit mixed-state concurrence: the single principal block of cut 1|2."""
    if rho.n_qubits != 2:
        raise DimensionMismatchError(f"Wootters concurrence needs 2 qubits, got {rho.n_qubits}")
    _, rows, cols = _pair_blocks((1,), (2,))
    return min(1.0, float(_pair_values(_pair_lambdas(rho.mat, rows, cols))[0]))


def bipartite_concurrence(rho, cut, leak_tol=LEAK_TOL):
    """Generalized concurrence of rho across a bipartition, one PairTerm per
    generator pair. A SpectralLeakError means some discarded eigenvalue of
    rho @ rho_tilde exceeded leak_tol.
    """
    if cut.n_qubits != rho.n_qubits:
        raise DimensionMismatchError(
            f"cut {cut.label} covers {cut.n_qubits} qubits but state has {rho.n_qubits}")
    _check_leak(cut, leak_tol)
    labels, rows, cols = _pair_blocks(cut.block1, cut.block2)
    lam = _pair_lambdas(rho.mat, rows, cols)
    return ConcurrenceBreakdown(
        PairTerm(m, n, tuple(top), value)
        for (m, n), top, value in zip(labels, lam.tolist(), _pair_values(lam).tolist()))


def cut_concurrence(rho, cut, leak_tol=LEAK_TOL):
    """Concurrence across a cut: the total over its generator pairs."""
    return bipartite_concurrence(rho, cut, leak_tol=leak_tol).total


_TAU3_CUTS = (Bipartition((1, 2), (3,)), Bipartition((1, 3), (2,)), Bipartition((2, 3), (1,)))


@lru_cache(maxsize=None)
def _tau3_blocks():
    """Row and column index arrays of the three 2|1 cuts, stacked."""
    tables = [_pair_blocks(cut.block1, cut.block2) for cut in _TAU3_CUTS]
    return np.concatenate([t[1] for t in tables]), np.concatenate([t[2] for t in tables])


def tau3(rho, leak_tol=LEAK_TOL):
    """Root-mean-square of the three 2|1 bipartite concurrences of a 3-qubit
    state, from one kernel call over the 18 pairs of the three cuts."""
    if rho.n_qubits != 3:
        raise DimensionMismatchError(f"tau3 needs 3 qubits, got {rho.n_qubits}")
    _check_leak(_TAU3_CUTS[0], leak_tol)
    values = _pair_values(_pair_lambdas(rho.mat, *_tau3_blocks()))
    return float(np.sqrt(np.sum(values * values) / 3.0))
