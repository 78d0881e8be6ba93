"""Independent reference computations used to pin expected test values.

Everything here is deliberately implemented by a different route than the
package: PSD square roots rebuilt from a clamped eigendecomposition (the
kernel never forms one), characteristic polynomials by Laplace expansion
and their roots, both at 60 digits in mpmath, partial traces and qubit
reorderings by explicit index loops, pure-state cut concurrences from
reduced purity, the generalized concurrence by its dense definition over
Kronecker-built inversions, and local channels by the operator sum over
every product of per-qubit Kraus choices, by superoperator contraction and
in the XOR-class layout. None of it calls into conclab.
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
    """Coefficients of det(xI - M), ascending in x, by cofactor expansion of
    a square mpmath matrix M, at the working precision.

    Exponential in the dimension; intended for d <= 4.
    """
    d = m.rows
    rows = [[([-m[i, j], 1] if i == j else [-m[i, j]]) for j in range(d)] for i in range(d)]
    return _pdet(rows)


def char_poly_roots_desc(m):
    """Real parts of the characteristic roots of a square mpmath matrix,
    descending: the coefficients by `char_poly_coeffs` and the roots as the
    companion matrix's eigenvalues, both at 60 digits.

    Trailing coefficients below 1e-45 of the largest are roundoff of the
    60-digit arithmetic and are deflated into exact zero roots first;
    without that, a multiple root at zero splits into +-sqrt(noise). A true
    small root, which float arithmetic would lose in roundoff, keeps its
    value.
    """
    import mpmath as mp

    with mp.workdps(60):
        coeffs = char_poly_coeffs(m)
        scale = max(abs(c) for c in coeffs)
        zeros = 0
        while len(coeffs) > 1 and abs(coeffs[0]) <= mp.mpf("1e-45") * scale:
            coeffs = coeffs[1:]
            zeros += 1
        k = len(coeffs) - 1
        companion = mp.zeros(k, k)
        for i in range(k):
            if i:
                companion[i, i - 1] = 1
            companion[i, k - 1] = -coeffs[i] / coeffs[k]
        roots = [mp.re(r) for r in mp.eig(companion, left=False, right=False)] if k else []
        return sorted(roots + [mp.mpf(0)] * zeros, reverse=True)


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
    polynomial of the (non-Hermitian) flip product, built from the float
    entries of rho at 60 digits."""
    import mpmath as mp

    with mp.workdps(60):
        r = mp.matrix(np.asarray(rho, dtype=complex).tolist())
        yy = mp.matrix(_YY.tolist())
        roots = char_poly_roots_desc(r * yy * r.conjugate() * yy)
        lam = [mp.sqrt(max(root, 0)) for root in roots]
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
    root = psd_sqrt(reorder_qubits(mat, block1 + block2))
    root_conj = root.conj()
    terms = []
    for m, lm in enumerate(rotation_generators(1 << len(block1)), start=1):
        for n, ln in enumerate(rotation_generators(1 << len(block2)), start=1):
            lam = np.linalg.svd(root @ np.kron(lm, ln) @ root_conj, compute_uv=False)
            terms.append((m, n, lam, max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))))
    return terms, float(np.sqrt(sum(t[3] ** 2 for t in terms)))


def psd_sqrt(m):
    """Hermitian PSD square root r with r @ r == m, of one matrix or of every
    matrix in a (..., d, d) stack, its negative eigenvalues clamped to 0."""
    w, v = np.linalg.eigh(m)
    vh = np.swapaxes(v.conj(), -1, -2)
    v *= np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return v @ vh


def svd_block_spectra(blocks):
    """The four l's, descending, of every 4x4 principal block of a
    (..., 4, 4) stack: the singular values of sqrt(rho_II) Y sqrt(rho_II)*,
    from the rebuilt root with its negative eigenvalues clamped at 0,
    applied to every block whatever its shape and support."""
    root = psd_sqrt(blocks)
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

PAULIS = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex), _SY,
          np.array([[1, 0], [0, -1]], dtype=complex))

# T_k = sigma_k (x) sigma_k*, the superoperator of the Kraus operator sigma_k,
# flattened to (4, 16); it is real
_PAULI_TRANSFER = np.array([np.kron(s, s.conj()).real.reshape(-1) for s in PAULIS])


def pauli_kraus(a):
    """Kraus set {a_i sigma_i : a_i != 0} of the Pauli channel with
    parameters a over (I, sx, sy, sz)."""
    return [x * s for x, s in zip(a, PAULIS) if x != 0.0]


def kraus_superop(kraus_ops):
    """(d^2, d^2) superoperator sum_k K_k (x) K_k*, acting on the row-major
    flattening of rho."""
    return sum(np.kron(k, np.conj(k)) for k in np.asarray(kraus_ops, dtype=complex))


def pauli_superops(a):
    """Superoperators (..., 4, 4), complex, of the Pauli channels with
    parameters (..., 4): sum_k a_k^2 T_k, entry S[(a, b), (c, d)] acting as
    rho'[a, b] = sum_{c, d} S[(a, b), (c, d)] rho[c, d] on one qubit's row
    and column indices."""
    a = np.asarray(a, dtype=float)
    return (np.square(a) @ _PAULI_TRANSFER).reshape(a.shape[:-1] + (4, 4)).astype(complex)


def superop_evolve(mats, superops):
    """(max(B, S), d, d) image of a (B, d, d) stack under {qubit: (S, 4, 4)
    superoperator stack}: the stack viewed as (B,) + (2,)*2n tensors, row
    axes first, and each superoperator contracted into its qubit's row and
    column axis in qubit order, one stacked matmul per qubit."""
    d = mats.shape[-1]
    n = d.bit_length() - 1
    t = mats.reshape((-1,) + (2,) * (2 * n))
    for q in sorted(superops):
        axes = (q, n + q)
        front = np.moveaxis(t, axes, (1, 2))
        out = superops[q] @ front.reshape(front.shape[0], 4, -1)
        t = np.moveaxis(out.reshape(out.shape[:1] + front.shape[1:]), (1, 2), axes)
    return t.reshape(-1, d, d)


def class_layout_evolve(mats, params):
    """(max(B, S), d, d) image of a (B, d, d) stack under {qubit: (S, 4)
    Pauli parameters}, in the XOR-class layout: every entry of every class
    {(r, r ^ x)} that some input occupies, gathered as t[x, r, b] =
    rho_b[r, r ^ x], each qubit q (bit mask m) applied as keep * t + move *
    t[:, r ^ m] with keep = w0 + s w3 and move = w1 + s w2 (s = -1 where
    the class has q's bit set), and the result scattered into zeros."""
    d = mats.shape[-1]
    n = d.bit_length() - 1
    flat = mats.reshape(-1, d * d)
    rows = np.arange(d)
    index = rows * d + (rows ^ rows[:, None])  # row x: the class x entries
    live = np.flatnonzero(np.any(flat != 0, axis=0)[index].any(axis=1))
    index = index[live]
    t = flat.T[index]
    for q in sorted(params):
        m = 1 << (n - q)
        w = np.square(params[q]).T
        sign = np.where(live & m, -1.0, 1.0)[:, None]
        keep = (w[0] + w[3] * sign)[:, None]
        move = (w[1] + w[2] * sign)[:, None]
        t = keep * t + move * t[:, rows ^ m]
    out = np.zeros((t.shape[-1], d * d), dtype=complex)
    out.T[index] = t
    return out.reshape(-1, d, d)


def dense_rows(rows, entries, dim):
    """The dense (..., d, d) states of (..., E + 1) rows of the support
    layout `entries` (flat indices; the last position is the pad): every
    position scattered into zeros at its entry. The pad must hold +0.0."""
    pad = rows[..., -1]
    assert not np.any(pad) and not np.any(np.signbit(pad.real) | np.signbit(pad.imag))
    out = np.zeros(rows.shape[:-1] + (dim * dim,), dtype=complex)
    out[..., entries] = rows[..., :-1]
    return out.reshape(rows.shape[:-1] + (dim, dim))


def term_rhs(factors, terms, aggregation):
    """rhs of one identity on factor values (S, n), term by term: each
    term's product over its 0-based factor columns, then Python's `sum` of
    the products (arrays, so no compensated float sum applies), or the
    square root of the sum of their squares over the number of terms."""
    products = [np.prod(factors[:, list(term)], axis=1) for term in terms]
    if aggregation == "rms":
        return np.sqrt(sum(p * p for p in products) / len(products))
    return sum(products)


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
