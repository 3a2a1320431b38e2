"""Shared construction helpers and independent oracles for the test suite."""

from fractions import Fraction

import numpy as np

from subspace_products import CatalogSpec, linearization, make_subspace, membership, vec
from subspace_products.catalog import KINDS
from subspace_products.core import (
    _basis_array,
    _gaussian_coefficients,
    _products,
    _subspace_from_stack,
    _vec_columns,
)
from subspace_products.geometry import ProductAnalysis, product_map_rank, sample_pair
from subspace_products.pencil import _PROBE_ALTERNATIONS


# Every catalog kind that exists at n >= 3 and needs no generator matrix.
SKETCH_KINDS = {
    kind: {"band_lower": {"p": 1}, "band_upper": {"q": 1}, "rank_cols": {"k": 2},
           "rank_rows": {"k": 2}}.get(kind, {})
    for kind in KINDS
    if kind not in ("krylov", "hurwitz_radon_2")
}


def cell(n, i, j, value=1.0):
    A = np.zeros((n, n), dtype=complex)
    A[i, j] = value
    return A


def catalog(kind, n, field="complex", **params):
    S, _ = make_subspace(CatalogSpec(kind=kind, n=n, field=field, **params))
    return S


def catalog_flags(kind, n, field="complex", **params):
    return make_subspace(CatalogSpec(kind=kind, n=n, field=field, **params))


def catalog_cells(kind, n, p=None, q=None, k=None):
    """Raw basis of a catalog kind built cell by cell, independent of the library.

    Cells are visited row by row; a symmetric kind adds the mirrored cell.
    """

    def units(keep, mirror=False):
        out = []
        for i in range(n):
            for j in range(n):
                if keep(i, j):
                    A = cell(n, i, j)
                    if mirror:
                        A[j, i] = 1.0
                    out.append(A)
        return out

    def shift_power(d, rows):
        """Ones at (i + d, i) for ``rows`` and (i, i + d) otherwise, over every valid i."""
        A = np.zeros((n, n), dtype=complex)
        for i in range(n - d):
            A[(i + d, i) if rows else (i, i + d)] = 1.0
        return A

    identity = [np.eye(n, dtype=complex)]
    if kind == "diagonal":
        return units(lambda i, j: i == j)
    if kind == "circulant":
        out = []
        for d in range(n):
            A = np.zeros((n, n), dtype=complex)
            for i in range(n):
                A[(i + d) % n, i] = 1.0
            out.append(A)
        return out
    if kind == "lower_triangular":
        return units(lambda i, j: i >= j)
    if kind == "upper_triangular":
        return units(lambda i, j: i <= j)
    if kind == "unit_upper_constant_diagonal":
        return identity + units(lambda i, j: i < j)
    if kind == "unit_lower_constant_diagonal":
        return identity + units(lambda i, j: i > j)
    if kind == "band_lower":
        return units(lambda i, j: 0 <= i - j <= p)
    if kind == "band_upper":
        return units(lambda i, j: 0 <= j - i <= q)
    if kind == "toeplitz_upper_triangular":
        return [shift_power(d, rows=False) for d in range(n)]
    if kind == "toeplitz_lower_triangular":
        return [shift_power(d, rows=True) for d in range(n)]
    if kind == "symmetric":
        return units(lambda i, j: i <= j, mirror=True)
    if kind == "persymmetric_constant_antidiagonal":
        exchange = np.zeros((n, n), dtype=complex)
        for i in range(n):
            exchange[i, n - 1 - i] = 1.0
        return [exchange] + units(lambda i, j: i <= j and i + j != n - 1, mirror=True)
    if kind == "rank_cols":
        return units(lambda i, j: j < k)
    if kind == "rank_rows":
        return units(lambda i, j: i < k)
    if kind == "hurwitz_radon_2":
        return identity + [np.array([[0, -1], [1, 0]], dtype=complex)]
    raise KeyError(kind)


def persym_generic_brute(d, rel_tol=1e-10):
    """Genericity of a diagonal for the symmetric x constant-antidiagonal pair,
    by the definition: nonzero entries and pairwise distinct antidiagonal
    products over j != k, k != n - 1 - j."""
    d = [float(x) for x in d]
    n = len(d)
    scale = max((abs(x) for x in d), default=0.0)
    if scale == 0.0 or any(abs(x) <= rel_tol * scale for x in d):
        return False
    prod = [d[j] * d[n - 1 - j] for j in range(n)]
    for j in range(n):
        for k in range(n):
            if k in (j, n - 1 - j):
                continue
            if abs(prod[j] - prod[k]) <= rel_tol * max(abs(prod[j]), abs(prod[k]), 1.0):
                return False
    return True


def exact_rank_fraction(A):
    """Row reduction over the rationals; exact rank for integer matrices."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(A)]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def brute_span_rank(mats, tol=1e-8):
    """Independent rank of a span: SVD of the vectorized stack."""
    V = np.column_stack([vec(np.asarray(M, dtype=complex)) for M in mats])
    s = np.linalg.svd(V, compute_uv=False)
    if s.size == 0 or s[0] < 1e-12:
        return 0
    return int(np.sum(s > tol * s[0]))


def brute_tangent_rank(basis1, basis2, V1, V2, tol=1e-8):
    """Rank of the span {V1 C} union {B V2}, independent of the library path."""
    return brute_span_rank([V1 @ C for C in basis2] + [B @ V2 for B in basis1], tol)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def crout_lu(A):
    """Elimination oracle: A = L U with L general lower and U unit upper.

    No pivoting; valid for strongly nonsingular A.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    L = np.zeros_like(A)
    U = np.eye(n, dtype=complex)
    for j in range(n):
        for i in range(j, n):
            L[i, j] = A[i, j] - L[i, :j] @ U[:j, j]
        for k in range(j + 1, n):
            U[j, k] = (A[j, k] - L[j, :j] @ U[:j, k]) / L[j, j]
    return L, U


def strongly_nonsingular(A, floor=1e-6):
    A = np.asarray(A)
    return all(
        abs(np.linalg.det(A[: m + 1, : m + 1])) > floor for m in range(A.shape[0])
    )


def membership_subspaces_equal(S1, S2):
    """Reference subspace equality: equal dimensions and mutual membership of
    the orthonormal basis matrices, one ``membership`` call per matrix."""
    if S1.n != S2.n or S1.field != S2.field or S1.dim != S2.dim:
        return False
    return all(membership(S2, B).inside for B in S1.basis_matrices()) and all(
        membership(S1, C).inside for C in S2.basis_matrices()
    )


def sequential_probe(S1, S2, budget=100, seed=0):
    """Reference zero-product probe: every start in turn, one alternation at a
    time, two SVDs per alternation.

    Returns the best value and its pair of members, the first start's on a
    tie.
    """
    T1 = _basis_array(S1)
    T2 = _basis_array(S2)
    best = (np.inf, None)
    for start in range(budget):
        c1 = _gaussian_coefficients(np.random.default_rng(seed + start), S1.dim, S1.field)
        c1 = c1 / np.linalg.norm(c1)
        prev = np.inf
        for _ in range(_PROBE_ALTERNATIONS):
            _, _, Vh2 = np.linalg.svd(_vec_columns(np.matmul(S1.element(c1), T2)), full_matrices=False)
            V2 = S2.element(Vh2[-1].conj())
            _, s1, Vh1 = np.linalg.svd(_vec_columns(np.matmul(T1, V2)), full_matrices=False)
            c1 = Vh1[-1].conj()
            val = float(s1[-1])
            if prev - val < 1e-15:
                break
            prev = val
        if val < best[0]:
            best = (val, (S1.element(c1), V2))
    return best


def sketch_first_flatness(S1, S2, trials=5, seed=0):
    """Reference flatness report: the linearization is spanned before any
    trial, by sampled products in blocks of d1 + d2 + 8, then n^2 + 8, each
    spanned by one SVD with singular vectors, or by every basis product when
    there are no more of them than a block would draw."""
    d1, d2 = S1.dim, S2.dim
    rng = np.random.default_rng(seed)
    P = np.zeros((0, S1.n, S1.n), dtype=S1.ortho_basis.dtype)
    for count in (d1 + d2 + 8, S1.n**2 + 8):
        if d1 * d2 <= count:
            lin = linearization(S1, S2)
            break
        C = _gaussian_coefficients(rng, (count - len(P), d1 + d2), S1.field)
        X = np.tensordot(C[:, :d1], _basis_array(S1), axes=1)
        Y = np.tensordot(C[:, d1:], _basis_array(S2), axes=1)
        P = np.concatenate([P, _products(X, Y)])
        lin = _subspace_from_stack(_vec_columns(P), S1.n, S1.field, tuple(P), S1.tols)
        if lin.dim <= len(P) - 8:
            break
    ranks = []

    def run_trial(t):
        s_t = seed + 2 * t
        r = product_map_rank(S1, S2, *sample_pair(S1, S2, s_t))
        ranks.append((s_t, r))
        return r

    flat = False
    for t in range(trials):
        flat = run_trial(t) == lin.dim or flat
    t = trials
    while not flat and t < trials + 25:
        max_rank = max(r for _, r in ranks)
        if sum(1 for _, r in ranks if r == max_rank) >= 3:
            break
        flat = run_trial(t) == lin.dim
        t += 1
    generic_rank = max(r for _, r in ranks)
    return ProductAnalysis(
        lin_dim=lin.dim,
        lin_basis_ref=lin,
        sampled_ranks=tuple(ranks),
        generic_rank=generic_rank,
        flat=generic_rank == lin.dim,
        trials=len(ranks),
        tol_used=S1.tol,
    )
