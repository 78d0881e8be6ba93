"""Independent reference computations used to pin expected test values.

Everything here is deliberately implemented by a different route than the
package: characteristic polynomials by symbolic Laplace expansion, partial
traces and qubit reorderings by explicit index loops, pure-state cut
concurrences from reduced purity, the generalized concurrence by its
dense definition over Kronecker-built inversions, and local channels by
the operator sum over every product of per-qubit Kraus choices. None of
it calls into conclab.
"""

import numpy as np

# --- polynomials as ascending coefficient lists -----------------------------


def _padd(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _pmul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _pdet(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = [0j]
    for j, entry in enumerate(rows[0]):
        minor = [[r[k] for k in range(len(r)) if k != j] for r in rows[1:]]
        term = _pmul(entry, _pdet(minor))
        if j % 2:
            term = [-c for c in term]
        acc = _padd(acc, term)
    return acc


def char_poly_coeffs(m):
    """Coefficients of det(xI - M), ascending in x, by cofactor expansion.

    Exponential in the dimension; intended for d <= 4.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    rows = [[([-m[i, j], 1.0] if i == j else [-m[i, j]]) for j in range(d)] for i in range(d)]
    return _pdet(rows)


def char_poly_roots_desc(m):
    """Real parts of the characteristic roots, descending.

    Trailing coefficients at roundoff level are deflated into exact zero
    roots first; without that, a multiple root at zero splits into
    +-sqrt(noise) and ruins the comparison.
    """
    coeffs = char_poly_coeffs(m)
    scale = max(abs(c) for c in coeffs)
    zeros = 0
    while abs(coeffs[0]) <= 1e-12 * scale and len(coeffs) > 1:
        coeffs = coeffs[1:]
        zeros += 1
    roots = np.roots(np.array(coeffs[::-1], dtype=complex)) if len(coeffs) > 1 else np.array([])
    roots = np.concatenate([np.real(roots), np.zeros(zeros)])
    return np.sort(roots)[::-1]


# --- partial trace and pure-state concurrence --------------------------------


def partial_trace_keep(mat, n, keep):
    """Reduced matrix on the (1-based) `keep` qubits, by explicit index loops."""
    mat = np.asarray(mat, dtype=complex)
    keep0 = sorted(int(k) - 1 for k in keep)
    traced = [q for q in range(n) if q not in keep0]
    out_dim = 1 << len(keep0)
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(1 << n):
        ib = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        for j in range(1 << n):
            jb = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(ib[q] != jb[q] for q in traced):
                continue
            ii = 0
            jj = 0
            for q in keep0:
                ii = (ii << 1) | ib[q]
                jj = (jj << 1) | jb[q]
            out[ii, jj] += mat[i, j]
    return out


def pure_cut_concurrence(amplitudes, block1):
    """sqrt(2 (1 - tr(rho_red^2))) for a pure state and one side of a cut."""
    amp = np.asarray(amplitudes, dtype=complex)
    n = amp.shape[0].bit_length() - 1
    rho = np.outer(amp, amp.conj())
    red = partial_trace_keep(rho, n, block1)
    purity = float(np.real(np.trace(red @ red)))
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))


def all_cuts(n):
    """One representative per unordered bipartition of qubits 1..n."""
    from itertools import combinations

    qubits = tuple(range(1, n + 1))
    seen = set()
    cuts = []
    for r in range(1, n):
        for block1 in combinations(qubits, r):
            block2 = tuple(q for q in qubits if q not in block1)
            key = frozenset((frozenset(block1), frozenset(block2)))
            if key not in seen:
                seen.add(key)
                cuts.append((block1, block2))
    return cuts


# --- spin-flip concurrence by characteristic polynomial ----------------------

_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_YY = np.kron(_SY, _SY)


def wootters_charpoly(rho):
    """Two-qubit concurrence with eigenvalues taken from the characteristic
    polynomial of the (non-Hermitian) flip product."""
    rho = np.asarray(rho, dtype=complex)
    product = rho @ _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.clip(char_poly_roots_desc(product), 0.0, None))
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def bell_mixture_concurrence(x):
    """Concurrence of x|phi+><phi+| + (1-x)|psi+><psi+| is |2x - 1|."""
    return abs(2.0 * float(x) - 1.0)


# --- dense generalized concurrence --------------------------------------------


def _bits(i, n):
    """Bits of basis index i, qubit 1 first (big-endian)."""
    return [(i >> (n - 1 - q)) & 1 for q in range(n)]


def _index(bits):
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def reorder_qubits(mat, order):
    """The matrix in the basis whose k-th tensor factor is qubit order[k]
    (1-based), by explicit index loops."""
    mat = np.asarray(mat, dtype=complex)
    n = len(order)
    dim = 1 << n
    # new index i has bit k equal to the old bit of qubit order[k]
    src = []
    for i in range(dim):
        old = [0] * n
        for k, bit in enumerate(_bits(i, n)):
            old[order[k] - 1] = bit
        src.append(_index(old))
    out = np.empty_like(mat)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = mat[src[i], src[j]]
    return out


def _dense_sqrt(m):
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _pairs(d):
    """(a, b) with a < b, lexicographic."""
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def rotation_generators(d):
    """E_ab = |a><b| - |b><a| for a < b, lexicographic."""
    gens = []
    for a, b in _pairs(d):
        g = np.zeros((d, d))
        g[a, b] = 1.0
        g[b, a] = -1.0
        gens.append(g)
    return gens


def dense_cut_concurrence(mat, block1, block2):
    """Generalized concurrence across block1|block2 from its definition.

    Returns (terms, total): one (m, n, singular values, C_mn) per generator
    pair, 1-based and lexicographic, with the l's read as the singular
    values of sqrt(rho) (L_m kron L_n) sqrt(rho)* in full dimension.
    """
    block1, block2 = tuple(block1), tuple(block2)
    root = _dense_sqrt(reorder_qubits(mat, block1 + block2))
    root_conj = root.conj()
    terms = []
    for m, lm in enumerate(rotation_generators(1 << len(block1)), start=1):
        for n, ln in enumerate(rotation_generators(1 << len(block2)), start=1):
            lam = np.linalg.svd(root @ np.kron(lm, ln) @ root_conj, compute_uv=False)
            terms.append((m, n, lam, max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))))
    return terms, float(np.sqrt(sum(t[3] ** 2 for t in terms)))


def svd_block_spectra(blocks):
    """The four l's, descending, of every 4x4 principal block of a
    (..., 4, 4) stack: the singular values of sqrt(rho_II) Y sqrt(rho_II)*,
    the root's negative eigenvalues clamped at 0. This is the kernel's
    general path, applied to every block whatever its shape."""
    w, v = np.linalg.eigh(blocks)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)


def principal_block_indices(block1, block2):
    """(m, n, four basis indices of the unreordered state) per generator pair:
    the states {a, b} x {c, d} on which L_m kron L_n acts, for E_ab on block1
    and E_cd on block2."""
    block1, block2 = tuple(block1), tuple(block2)
    n = len(block1) + len(block2)

    def original(x, y):
        bits = [0] * n
        for q, bit in zip(block1 + block2, _bits(x, len(block1)) + _bits(y, len(block2))):
            bits[q - 1] = bit
        return _index(bits)

    out = []
    for m, (a, b) in enumerate(_pairs(1 << len(block1)), start=1):
        for k, (c, d) in enumerate(_pairs(1 << len(block2)), start=1):
            out.append((m, k, [original(a, c), original(a, d), original(b, c), original(b, d)]))
    return out


# --- local channels by the full operator sum -----------------------------------

_PAULIS = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex), _SY,
           np.array([[1, 0], [0, -1]], dtype=complex))


def pauli_kraus(a):
    """Kraus set {a_i sigma_i : a_i != 0} of the Pauli channel with
    parameters a over (I, sx, sy, sz)."""
    return [x * s for x, s in zip(a, _PAULIS) if x != 0.0]


def kraus_superop(kraus_ops):
    """(d^2, d^2) superoperator sum_k K_k (x) K_k*, acting on the row-major
    flattening of rho."""
    return sum(np.kron(k, np.conj(k)) for k in np.asarray(kraus_ops, dtype=complex))


def kraus_sum_apply(kraus_lists, mat):
    """sum over the Cartesian product of per-qubit Kraus choices of
    K rho K^dag, K the Kronecker product of the choices in qubit order.

    kraus_lists holds one sequence of 2x2 Kraus operators per qubit; None
    stands for the identity channel.
    """
    from itertools import product

    mat = np.asarray(mat, dtype=complex)
    choices = [[np.eye(2)] if ops is None else [np.asarray(k, dtype=complex) for k in ops]
               for ops in kraus_lists]
    out = np.zeros_like(mat)
    for combo in product(*choices):
        full = combo[0]
        for op in combo[1:]:
            full = np.kron(full, op)
        out += full @ mat @ full.conj().T
    return out


# --- random object generators -------------------------------------------------


def random_psd(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d


def random_state_vector(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(n, rank, rng):
    """Random mixture of `rank` Haar-style pure states on n qubits."""
    dim = 1 << n
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for wk in weights:
        v = random_state_vector(dim, rng)
        rho += wk * np.outer(v, v.conj())
    return rho


def random_unitary(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
