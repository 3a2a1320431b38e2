"""Shared construction helpers and independent oracles for the test suite."""

import importlib.util
import json
import pathlib
from fractions import Fraction

import numpy as np

from subspace_products import (
    CatalogSpec,
    NoFactorization,
    SingularWitness,
    curvature_measure,
    factor_via_inverse_closed,
    linearization,
    make_subspace,
    membership,
    random_element,
    random_unit_element,
    subspace_from_matrices,
    vec,
)
from subspace_products.catalog import KINDS
from subspace_products.core import (
    MatrixSubspace,
    _full_space,
    _gaussian_coefficients,
    _least_squares,
    _norm,
    _products,
    _projection,
    _svd,
    _vec_columns,
    rank_from_singular_values,
)
from subspace_products.geometry import (
    ProductAnalysis,
    _sketched_linearization,
    product_map_rank,
    sample_pair,
)
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


def bench_oracles():
    """The benchmark's package-independent oracles, ``bench/oracles.py``,
    loaded from their file as they stand."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def json_dumps_text(obj) -> str:
    """The text the canonical writer must match byte for byte: the standard
    library's indenting encoder, each array read as its nested lists of
    ``[re, im]`` pairs."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_pair_lists) + "\n"


def _pair_lists(obj):
    if isinstance(obj, np.ndarray):
        A = obj.astype(np.complex128)
        return np.stack([A.real, A.imag], -1).tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
    T1 = S1.basis_matrices()
    T2 = S2.basis_matrices()
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


def loop_factor(A, S1, S2, seed=0, count=25, first=False):
    """Reference ``factor_via_inverse_closed`` on a validated A that factors:
    the candidates built one ``S2.element`` at a time, the null basis members
    first; then, where the null space has more than one dimension, one unit
    Gaussian combination per draw, ``count`` in all but at least one draw.
    With ``first``, the reference of the first factor's side: candidates X
    in S1 with X A in S2, one ``S1.element`` at a time, giving (X^{-1}, X A)."""
    closed, other = (S1, S2) if first else (S2, S1)
    C = closed.basis_matrices()
    P = _vec_columns(_products(C, A) if first else _products(A, C))
    N = _svd(P - _projection(other, P), S1.tols).null
    cands = [closed.element(N[:, i]) for i in range(N.shape[1])]
    rng = np.random.default_rng(seed)
    for _ in range(max(count - N.shape[1], 1) if N.shape[1] > 1 else 0):
        c = _gaussian_coefficients(rng, N.shape[1], S1.field)
        cands.append(closed.element(N @ (c / np.linalg.norm(c))))
    sv = np.linalg.svd(np.array(cands), compute_uv=False)
    Y = cands[int(np.argmax(sv[:, -1] / sv[:, 0]))]
    Y = Y / np.linalg.norm(Y)
    return (np.linalg.inv(Y), Y @ A) if first else (A @ Y, np.linalg.inv(Y))


def respanning_direct_step(model, b, tol, seed=0):
    """Reference direct step of ``solve_bilinear`` on a target that one of
    its sides factors: each side spans both model bases with
    ``subspace_from_matrices``; the model pair is factored by
    ``factor_via_inverse_closed``, then the first factor's side by
    ``loop_factor``; z and w are read off the factors by ``_least_squares``
    on fresh SVDs of the model bases.  Returns (z, w, residual) of the first
    answer below ``tol``, else None."""
    A = np.tensordot(b, model.lin_basis, axes=1)
    A = A.real if model.field == "real" else np.asarray(A, dtype=np.complex128)
    for first in (False, True):
        S1 = subspace_from_matrices(model.basis1, field=model.field)
        S2 = subspace_from_matrices(model.basis2, field=model.field)
        try:
            V1, V2 = (loop_factor(A, S1, S2, seed, first=True) if first
                      else factor_via_inverse_closed(A, S1, S2, seed))
        except (NoFactorization, SingularWitness):
            continue
        z = _least_squares(_svd(_vec_columns(model.basis1), S1.tols), vec(V1)[:, None])[0][:, 0]
        w = _least_squares(_svd(_vec_columns(model.basis2), S1.tols), vec(V2)[:, None])[0][:, 0]
        nz = _norm(z)
        if nz <= 1e-300:
            continue
        z, w = z / nz, w * nz
        rnorm = _norm((np.asarray(model.M) @ w) @ z - b)
        if rnorm < tol:
            return z, w, rnorm
    return None


def _sampled_verdict(S1, S2, lin, trials, seed, point):
    """The trial loop of a flatness report against a given linearization:
    trials at the points ``point(S1, S2, seed + 2 t)`` until one has rank
    ``lin.dim`` or, from the ``trials``-th on, three agree on the maximal
    rank, and at most ``trials + 25`` in all."""
    ranks = []
    while len(ranks) < trials + 25:
        s_t = seed + 2 * len(ranks)
        ranks.append((s_t, product_map_rank(S1, S2, *point(S1, S2, s_t))))
        max_rank = max(r for _, r in ranks)
        if ranks[-1][1] == lin.dim:
            break
        if len(ranks) >= trials and sum(1 for _, r in ranks if r == max_rank) >= 3:
            break
    return ProductAnalysis(
        lin_dim=lin.dim,
        lin_basis_ref=lin,
        sampled_ranks=tuple(ranks),
        generic_rank=max_rank,
        flat=max_rank == lin.dim,
        trials=len(ranks),
        tol_used=S1.tol,
    )


def svd_span(P, S):
    """The span of the matrices P over the field of S, judged by its
    tolerances: the left singular vectors of one ``np.linalg.svd`` of the
    vectorized stack, with no full-rank certificate, QR or identity basis."""
    U, s, _ = np.linalg.svd(_vec_columns(P), full_matrices=False)
    r = rank_from_singular_values(s, S.tols)
    Q = np.array(U[:, :r].real if S.field == "real" else U[:, :r])
    return MatrixSubspace(
        n=S.n, field=S.field, raw_basis=P, dim=r, ortho_basis=Q, tols=S.tols
    )


def sketch_first_flatness(S1, S2, trials=5, seed=0):
    """Reference flatness report: the linearization is spanned before any
    trial, by sampled products in blocks of d1 + d2 + 8, then n^2 + 8, or by
    every basis product when there are no more of them than a block would
    draw, each spanned by :func:`svd_span`.  Trials sample the points of
    :func:`sample_pair` and stop at the first of rank ``lin_dim``."""
    d1, d2 = S1.dim, S2.dim
    rng = np.random.default_rng(seed)
    P = np.zeros((0, S1.n, S1.n), dtype=S1.ortho_basis.dtype)
    for count in (d1 + d2 + 8, S1.n**2 + 8):
        if d1 * d2 <= count:
            lin = svd_span(_products(S1.basis_matrices()[:, None], S2.basis_matrices()[None]), S1)
            break
        C = _gaussian_coefficients(rng, (count - len(P), d1 + d2), S1.field)
        X = np.tensordot(C[:, :d1], S1.basis_matrices(), axes=1)
        Y = np.tensordot(C[:, d1:], S2.basis_matrices(), axes=1)
        P = np.concatenate([P, _products(X, Y)])
        lin = svd_span(P, S1)
        if lin.dim <= len(P) - 8:
            break
    return _sampled_verdict(S1, S2, lin, trials, seed, sample_pair)


def gaussian_flatness(S1, S2, trials=5, seed=0):
    """Reference flatness verdict at plain Gaussian points: the enumerated
    linearization, and trials at ``random_element`` draws with seeds
    (seed + 2 t, seed + 2 t + 1)."""

    def gaussian_pair(S1, S2, s):
        return random_element(S1, s), random_element(S2, s + 1)

    return _sampled_verdict(S1, S2, linearization(S1, S2), trials, seed, gaussian_pair)


def reference_point(S, seed):
    """Reference generic point of one factor: the seeded Gaussian member X,
    moved to P + X / (2 ||X||_2) when ``membership`` finds I in S, with P
    the projection of I."""
    X = random_element(S, seed)
    I = np.eye(S.n)
    if not membership(S, I).inside:
        return X
    return S.project(I) + X / (2.0 * np.linalg.norm(X, 2))


def reference_flatness(S1, S2, trials=5, seed=0):
    """Reference flatness report with every trial point tested: each
    factor's identity by ``membership``, each trial's rank by the public
    ``product_map_rank``, which validates both points as members.  The
    linearization is the whole space when trial 0 has rank n^2, else the
    sketch from a generator seeded with ``seed``."""

    def point(S1, S2, s):
        return reference_point(S1, s), reference_point(S2, s + 1)

    if product_map_rank(S1, S2, *point(S1, S2, seed)) == S1.n**2:
        lin = _full_space(S1.n, S1.field, S1.tols)
    else:
        lin = _sketched_linearization(S1, S2, np.random.default_rng(seed))
    return _sampled_verdict(S1, S2, lin, trials, seed, point)


def reference_curvature(args, tols, S1, S2):
    """Reference handler of CLI ``curvature``: one public
    ``curvature_measure`` per direction, each spanning the tangent space and
    testing its directions for membership, and ``tangent_dim`` from
    ``product_map_rank``; the same base point and seeded directions."""
    V1, V2 = sample_pair(S1, S2, args.seed)
    norms = []
    for t in range(args.directions):
        s = args.seed + 1000 + 2 * t
        W1, W2 = random_unit_element(S1, s), random_unit_element(S2, s + 1)
        norms.append(curvature_measure(S1, S2, V1, V2, W1, W2).q_norm)
    return {
        "base_seed": args.seed,
        "tangent_dim": product_map_rank(S1, S2, V1, V2),
        "q_norms": norms,
        "max_q_norm": max(norms),
        "min_q_norm": min(norms),
        "directions": args.directions,
    }, True
