"""Structure constants of the product map and bilinear-system solving.

Fixing bases of the two factors and of the linearization turns the product
map into a bidegree (1, 1) polynomial map (z, w) -> M(z) w, where each
coefficient matrix M_r records how the basis products expand in the
linearization basis.  This module extracts those constants, solves M(z) w = b
by damped Gauss-Newton, and factors a matrix over an inverse-closed pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    COMPLEX,
    REAL,
    MatrixSubspace,
    Tolerances,
    _gaussian_coefficients,
    _products,
    _vec_columns,
    as_square_matrix,
    check_same_space,
    matrix_rank,
    rank_from_singular_values,
    vec,
)
from .errors import (
    BadParameters,
    NoFactorization,
    NotMember,
    RealFieldViolation,
    SingularWitness,
    SizeMismatch,
    UnsupportedDegree,
)
from .geometry import _linearization


@dataclass(frozen=True)
class BilinearModel:
    """Structure constants of a subspace product in fixed bases.

    ``M`` is an ``(l, j, kmj)`` array: ``M[r, s, t]`` (also ``M[r][s, t]``)
    is the coefficient of the r-th linearization basis matrix in the product
    of the s-th first-factor and t-th second-factor basis matrices, so every
    product reconstructs as ``sum_r (z^T M[r] w) lin_basis[r]``.
    """

    n: int
    field: str
    j: int
    kmj: int
    l: int
    M: np.ndarray
    basis1: tuple
    basis2: tuple
    lin_basis: tuple

    def matrix_at(self, z: np.ndarray) -> np.ndarray:
        """The l-by-(k-j) matrix M(z) whose r-th row is z^T M_r."""
        z = np.asarray(z).reshape(-1)
        if z.size != self.j:
            raise SizeMismatch(f"z has length {z.size}, expected {self.j}")
        return np.tensordot(z, self.M, axes=(0, 1))

    def apply(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Evaluate M(z) w, the coordinates of the product in the linearization."""
        w = np.asarray(w).reshape(-1)
        if w.size != self.kmj:
            raise SizeMismatch(f"w has length {w.size}, expected {self.kmj}")
        return self.matrix_at(z) @ w

    def product_from_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """Assemble sum_r coords[r] * lin_basis[r]."""
        coords = np.asarray(coords).reshape(-1)
        if coords.size != self.l:
            raise SizeMismatch(f"coords has length {coords.size}, expected {self.l}")
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        for c, W in zip(coords, self.lin_basis):
            out = out + c * W
        return out.real if self.field == REAL else out


@dataclass(frozen=True)
class SolveReport:
    """Best solution found for M(z) w = b over all restarts."""

    z: np.ndarray
    w: np.ndarray
    residual: float
    iterations: int
    restarts_used: int


def model_from_bases(
    basis1: Sequence,
    basis2: Sequence,
    lin_basis: Sequence,
    field: str = COMPLEX,
    tols: Optional[Tolerances] = None,
) -> BilinearModel:
    """Structure constants in user-supplied (possibly non-orthonormal) bases.

    Coefficients are least-squares expansions of each basis product in the
    given linearization basis; a product that falls outside that span raises
    NotMember.
    """
    tols = tols or Tolerances()
    b1 = [as_square_matrix(B, field=field, name=f"basis1[{i}]") for i, B in enumerate(basis1)]
    b2 = [as_square_matrix(B, field=field, name=f"basis2[{i}]") for i, B in enumerate(basis2)]
    lb = [as_square_matrix(B, field=field, name=f"lin_basis[{i}]") for i, B in enumerate(lin_basis)]
    if not b1 or not b2 or not lb:
        raise SizeMismatch("all three bases must be nonempty")
    n = b1[0].shape[0]
    for name, mats in (("basis1", b1), ("basis2", b2), ("lin_basis", lb)):
        for i, B in enumerate(mats):
            if B.shape[0] != n:
                raise SizeMismatch(f"{name}[{i}] has side {B.shape[0]}, expected {n}")
    j, kmj, l = len(b1), len(b2), len(lb)
    W = _vec_columns(lb)
    P = _vec_columns(_products(np.array(b1)[:, None], np.array(b2)[None]))
    coef, *_ = np.linalg.lstsq(W, P, rcond=None)
    resid = np.linalg.norm(W @ coef - P, axis=0)
    bad = np.flatnonzero(resid > tols.rel_rank_tol * np.maximum(1.0, np.linalg.norm(P, axis=0)))
    if bad.size:
        s, t = divmod(int(bad[0]), kmj)
        raise NotMember(
            f"product of basis1[{s}] and basis2[{t}] lies outside the "
            f"given linearization basis (residual {resid[bad[0]]:.3e})"
        )
    return BilinearModel(
        n=n, field=field, j=j, kmj=kmj, l=l,
        M=coef.reshape(l, j, kmj), basis1=tuple(b1), basis2=tuple(b2), lin_basis=tuple(lb),
    )


def extract_bilinear(S1: MatrixSubspace, S2: MatrixSubspace) -> BilinearModel:
    """Structure constants in the orthonormal bases of the pair.

    The linearization basis is orthonormal, so each coefficient is a plain
    Frobenius inner product of a basis product with a linearization basis
    matrix: all of them come from one product ``Q^H P`` of the orthonormal
    linearization basis ``Q`` with the basis products ``P`` that
    :func:`linearization` spans (first-factor index major).
    """
    check_same_space(S1, S2)
    lin, P = _linearization(S1, S2)
    j, kmj, l = S1.dim, S2.dim, lin.dim
    # With a zero factor the linearization spans one placeholder zero matrix.
    M = (lin.ortho_basis.conj().T @ P[:, : j * kmj]).reshape(l, j, kmj)
    return BilinearModel(
        n=S1.n, field=S1.field, j=j, kmj=kmj, l=l, M=M,
        basis1=tuple(S1.basis_matrices()), basis2=tuple(S2.basis_matrices()),
        lin_basis=tuple(lin.basis_matrices()),
    )


def solve_bilinear(
    model: BilinearModel,
    b: np.ndarray,
    restarts: int = 20,
    max_iter: int = 200,
    seed: int = 0,
    tol_solve: float = 1e-10,
) -> SolveReport:
    """Damped Gauss-Newton for M(z) w = b with multi-start.

    The scale gauge (s z, w / s) is fixed by renormalizing z to unit length
    after every accepted step.  Levenberg damping starts at 1e-3, divides by
    ten on accepted steps and multiplies by ten on rejections.  Always
    returns the best report found; callers judge the residual.
    """
    b = np.asarray(b).reshape(-1)
    if b.size != model.l:
        raise SizeMismatch(f"b has length {b.size}, expected {model.l}")
    real = model.field == REAL
    if real and np.iscomplexobj(b) and np.any(b.imag != 0):
        raise RealFieldViolation("right-hand side must be real for a real-field model")
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        # The zero right-hand side is solved exactly by the trivial pair.
        zdt = np.float64 if real else np.complex128
        return SolveReport(
            z=np.zeros(model.j, dtype=zdt), w=np.zeros(model.kmj, dtype=zdt),
            residual=0.0, iterations=0, restarts_used=0,
        )
    M = np.asarray(model.M)
    j, kmj = model.j, model.kmj

    def residual_vec(z, w):
        return (M @ w) @ z - b

    best = None
    restarts_used = 0
    for rs in range(restarts):
        restarts_used = rs + 1
        rng = np.random.default_rng(seed + rs)
        z = _gaussian_coefficients(rng, j, model.field)
        w = _gaussian_coefficients(rng, kmj, model.field)
        z = z / np.linalg.norm(z)
        lam = 1e-3
        r = residual_vec(z, w)
        rnorm = np.linalg.norm(r)
        iters = 0
        for it in range(max_iter):
            iters = it + 1
            # Partial derivatives of M(z) w: M w in z, M(z) in w.
            J = np.hstack([M @ w, np.tensordot(z, M, axes=(0, 1))])
            g = J.conj().T @ r
            H = J.conj().T @ J + lam * np.eye(j + kmj, dtype=J.dtype)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                break
            z_new, w_new = z - step[:j], w - step[j:]
            nz = np.linalg.norm(z_new)
            if nz > 1e-300:
                z_new, w_new = z_new / nz, w_new * nz
            r_new = residual_vec(z_new, w_new)
            rnorm_new = np.linalg.norm(r_new)
            if rnorm_new < rnorm:
                z, w, r, rnorm = z_new, w_new, r_new, rnorm_new
                lam = max(lam / 10.0, 1e-12)
            else:
                lam *= 10.0
                if lam > 1e10:
                    break
            if rnorm < tol_solve * (1.0 + nb):
                break
        if best is None or rnorm < best.residual:
            best = SolveReport(
                z=z, w=w, residual=float(rnorm), iterations=iters,
                restarts_used=restarts_used,
            )
        if best.residual < tol_solve * (1.0 + nb):
            break
    return best


def factor_via_inverse_closed(
    A,
    S1: MatrixSubspace,
    S2: MatrixSubspace,
    seed: int = 0,
    candidates: int = 25,
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor A = V1 V2 with V1 in S1 and V2 in S2, for inverse-closed S2.

    Finds a nonzero Y in S2 with A Y in S1 (the nullspace of the linear map
    Y -> (I - P_S1)(A Y) on S2), then returns (A Y, Y^{-1}).  The second
    factor stays in S2 exactly when S2 is inverse-closed, which the caller
    asserts; catalog constructors flag which structures guarantee it.

    Raises NoFactorization when the nullspace is empty and SingularWitness
    when every sampled nullspace member is numerically singular (e.g. A on
    the boundary of the product set).
    """
    check_same_space(S1, S2)
    Aa = as_square_matrix(A, field=S1.field if S1.field == REAL else None, name="A")
    if Aa.shape[0] != S1.n:
        raise SizeMismatch(f"A has side {Aa.shape[0]}, expected {S1.n}")
    mats2 = S2.basis_matrices()
    L = np.column_stack([vec(S1.project_out(Aa @ C)) for C in mats2])
    U, s, Vh = np.linalg.svd(L, full_matrices=True)
    rank = rank_from_singular_values(s, S1.tols)
    null_dim = S2.dim - rank
    if null_dim == 0:
        raise NoFactorization("no nonzero Y in S2 maps A into S1")
    N = Vh[rank:].conj().T  # (dim2, null_dim)

    cands = [S2.element(N[:, i]) for i in range(null_dim)]
    rng = np.random.default_rng(seed)
    for _ in range(max(0, candidates - null_dim)):
        c = _gaussian_coefficients(rng, null_dim, S1.field)
        cands.append(S2.element(N @ (c / np.linalg.norm(c))))

    def inv_quality(Y):
        sv = np.linalg.svd(Y, compute_uv=False)
        return sv[-1] / sv[0] if sv[0] > 0 else 0.0

    Y = max(cands, key=inv_quality)
    if matrix_rank(Y, S1.tols) < S1.n:
        raise SingularWitness(
            "all sampled nullspace members are numerically singular"
        )
    Y = Y / np.linalg.norm(Y)
    return Aa @ Y, np.linalg.inv(Y)


def nullstellensatz_degree_bound(D: int, n: int, k: int) -> int:
    """Degree bound for certificate polynomials: D^n for D >= 3, else 2^min(n, k)."""
    if int(D) != D or int(n) != n or int(k) != k:
        raise BadParameters("arguments must be integers")
    D, n, k = int(D), int(n), int(k)
    if n < 1 or k < 1:
        raise BadParameters("n and k must be at least 1")
    if D < 2:
        raise UnsupportedDegree("the bound is stated only for maximal degree >= 2")
    if D == 2:
        return 2 ** min(n, k)
    return D ** n
