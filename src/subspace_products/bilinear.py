"""Structure constants of the product map and bilinear-system solving.

Fixing bases of the two factors and of the linearization turns the product
map into a bidegree (1, 1) polynomial map (z, w) -> M(z) w, where each
coefficient matrix M_r records how the basis products expand in the
linearization basis.  This module extracts those constants, solves M(z) w = b
(directly by factoring the target when that solves it, else by damped
Gauss-Newton), and factors a matrix over an inverse-closed pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    COMPLEX,
    REAL,
    MatrixSubspace,
    Tolerances,
    _as_square_stack,
    _as_vectors,
    _basis_products,
    _check_int,
    _coordinates,
    _gaussian_coefficients,
    _inside,
    _least_squares,
    _members,
    _norm,
    _products,
    _projection,
    _rng,
    _subspace_from_stack,
    _svd,
    _vec_columns,
    _with_basis,
    check_field,
    check_same_space,
    rank_from_singular_values,
    vec,
)
from .errors import NoFactorization, NonFiniteInput, NotMember, SingularWitness, UnsupportedDegree

_log = logging.getLogger("subspace_products")

# Relative residual at which a Gauss-Newton restart counts as solved, and the
# members of the solution space tried as the invertible factor.
_SOLVE_TOL = 1e-10
_FACTOR_CANDIDATES = 25


@dataclass(frozen=True)
class BilinearModel:
    """Structure constants of a subspace product in fixed bases.

    ``M`` is an ``(l, j, kmj)`` array: ``M[r, s, t]`` (also ``M[r][s, t]``)
    is the coefficient of the r-th linearization basis matrix in the product
    of the s-th first-factor and t-th second-factor basis matrices, so every
    product reconstructs as ``sum_r (z^T M[r] w) lin_basis[r]``.  The bases
    are read-only (j, n, n), (kmj, n, n) and (l, n, n) arrays, or ``()``.
    A model is immutable, so the spans of ``basis1`` and ``basis2`` that
    :func:`solve_bilinear`'s direct step needs are made once, at its first
    use, and kept outside the fields.
    """

    n: int
    field: str
    j: int
    kmj: int
    l: int
    M: np.ndarray
    basis1: np.ndarray
    basis2: np.ndarray
    lin_basis: np.ndarray

    def __post_init__(self):
        for B in (self.basis1, self.basis2, self.lin_basis):
            if isinstance(B, np.ndarray):
                B.setflags(write=False)

    def matrix_at(self, z: np.ndarray) -> np.ndarray:
        """The l-by-(k-j) matrix M(z) whose r-th row is z^T M_r."""
        z = _as_vectors((z,), self.field, ("z",), self.j)[0]
        return np.tensordot(z, self.M, axes=(0, 1))

    def apply(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Evaluate M(z) w, the coordinates of the product in the linearization."""
        w = _as_vectors((w,), self.field, ("w",), self.kmj)[0]
        return self.matrix_at(z) @ w

    def product_from_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """Assemble sum_r coords[r] * lin_basis[r]."""
        coords = _as_vectors((coords,), self.field, ("coords",), self.l)[0]
        return _combine(coords, self.lin_basis, self.field)

    @cached_property
    def _spans(self):
        """The :func:`_subspace_from_stack` spans of ``basis1`` and ``basis2``."""
        return tuple(_subspace_from_stack(_as_square_stack(B, self.field), self.field, Tolerances())
                     for B in (self.basis1, self.basis2))


def _combine(coeffs: np.ndarray, mats: np.ndarray, field: str) -> np.ndarray:
    """The matrix sum_r coeffs[r] * mats[r], stored for ``field``."""
    out = np.tensordot(coeffs, mats, axes=1)
    return out.real if field == REAL else np.asarray(out, dtype=np.complex128)


@dataclass(frozen=True)
class SolveReport:
    """Best solution found for M(z) w = b over all restarts.

    ``stop`` says why the returned attempt ended: ``inverse_closed`` for the
    direct step (factoring the target, kept for its residual alone), else the
    Gauss-Newton restart's ``converged``, ``max_iter``, ``damping`` (damping
    above 1e10) or ``singular`` (unsolvable step).
    """

    z: np.ndarray
    w: np.ndarray
    residual: float
    iterations: int
    restarts_used: int
    stop: str = "converged"


def model_from_bases(
    basis1: Sequence,
    basis2: Sequence,
    lin_basis: Sequence,
    field: str = COMPLEX,
    tols: Optional[Tolerances] = None,
) -> BilinearModel:
    """Structure constants in user-supplied (possibly non-orthonormal) bases.

    Coefficients are least-squares expansions of each basis product within
    the numerical range of ``lin_basis``, one SVD judged by ``tols``; a
    product outside it raises NotMember exactly where :func:`membership` in
    ``subspace_from_matrices(lin_basis)`` says outside.  An unknown ``field``
    raises BadParameters.
    """
    check_field(field)
    tols = tols or Tolerances()
    b1 = _as_square_stack(basis1, field, "basis1")
    n = b1.shape[-1]
    b2 = _as_square_stack(basis2, field, "basis2", side=n)
    lb = _as_square_stack(lin_basis, field, "lin_basis", side=n)
    j, kmj, l = len(b1), len(b2), len(lb)
    P = _vec_columns(_products(b1[:, None], b2[None]))
    coef, resid = _least_squares(_svd(_vec_columns(lb), tols), P)
    bad = np.flatnonzero(~_inside(resid, _norm(P, axis=0), tols.rel_rank_tol))
    if bad.size:
        s, t = divmod(int(bad[0]), kmj)
        raise NotMember(
            f"product of basis1[{s}] and basis2[{t}] lies outside the "
            f"given linearization basis (residual {resid[bad[0]]:.3e})"
        )
    return BilinearModel(
        n=n, field=field, j=j, kmj=kmj, l=l,
        M=coef.reshape(l, j, kmj), basis1=b1, basis2=b2, lin_basis=lb,
    )


def extract_bilinear(S1: MatrixSubspace, S2: MatrixSubspace) -> BilinearModel:
    """Structure constants in the orthonormal bases of the pair.

    The linearization basis is orthonormal, so each coefficient is a plain
    Frobenius inner product of a basis product with a linearization basis
    matrix: all of them come from one product ``Q^H P`` of the orthonormal
    linearization basis ``Q`` with the vectorized basis products ``P``, the
    ``raw_basis`` of :func:`linearization` (first-factor index major), as
    the span kernel vectorized them to span the linearization, formed by
    :func:`~subspace_products.core._coordinates`.
    """
    lin, stack, _ = _subspace_from_stack(_basis_products(S1, S2), S1.field, S1.tols)
    n, j, kmj, l = S1.n, S1.dim, S2.dim, lin.dim
    # With a zero factor the linearization spans one placeholder zero matrix.
    M = _coordinates(lin, stack[:, : j * kmj])
    return BilinearModel(
        n=n, field=S1.field, j=j, kmj=kmj, l=l, M=M.reshape(l, j, kmj),
        basis1=S1.basis_matrices(), basis2=S2.basis_matrices(), lin_basis=lin.basis_matrices(),
    )


def solve_bilinear(
    model: BilinearModel,
    b: np.ndarray,
    restarts: int = 20,
    max_iter: int = 200,
    seed: int = 0,
) -> SolveReport:
    """Solve M(z) w = b: by one null-space step when that solves it, else by
    damped Gauss-Newton with multi-start.

    Direct step: when the model carries all three bases, the target
    ``A = sum_r b_r lin_basis[r]`` is factored over the model's pair as
    :func:`factor_via_inverse_closed` factors it, through an invertible
    member of the second factor's span and, if that fails, of the first's
    (``A = X^{-1} (X A)``); z and w are read off the factors by least
    squares within the model bases' numerical rank.  The first answer whose
    residual is below 1e-10 (1 + ||b||) is returned, with no iterations or
    restarts and ``stop`` ``inverse_closed``: the residual is the only judge
    of whether the pair factors the target.
    Otherwise Gauss-Newton runs as if the step had not been tried.

    Gauss-Newton: the scale gauge (s z, w / s) is fixed by renormalizing z to
    unit length after every accepted step (the direct answer is normalized the
    same way).  Levenberg damping starts at 1e-3, divides by ten on accepted
    steps and multiplies by ten on rejections.  Returns the best report found,
    whose residual callers judge; when no attempt has a finite residual (a
    target past about 1e154, whose squares overflow), raises NonFiniteInput.
    """
    _check_int("restarts", restarts, 1)
    _check_int("max_iter", max_iter, 1)
    _check_int("seed", seed, 0)
    b = _as_vectors((b,), model.field, ("b",), model.l)[0]
    nb = _norm(b)
    if nb == 0.0:
        # The zero right-hand side is solved exactly by the trivial pair.
        return SolveReport(
            z=np.zeros(model.j, dtype=b.dtype), w=np.zeros(model.kmj, dtype=b.dtype),
            residual=0.0, iterations=0, restarts_used=0,
        )
    M = np.asarray(model.M)
    j, kmj = model.j, model.kmj
    tol = _SOLVE_TOL * (1.0 + nb)

    def residual_vec(z, w):
        return (M @ w) @ z - b

    direct = _solve_inverse_closed(model, b, tol, seed)
    if direct is not None:
        return direct

    best = None
    restarts_used = 0
    # Past about 1e154 J^H J overflows: such attempts are judged after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for rs in range(restarts):
            restarts_used = rs + 1
            rng = _rng(seed + rs)
            z = _gaussian_coefficients(rng, j, model.field)
            w = _gaussian_coefficients(rng, kmj, model.field)
            z = z / np.linalg.norm(z)
            lam = 1e-3
            r = residual_vec(z, w)
            rnorm = np.linalg.norm(r)
            iters = 0
            stop = "max_iter"
            for it in range(max_iter):
                iters = it + 1
                # Partial derivatives of M(z) w: M w in z, M(z) in w.
                J = np.hstack([M @ w, np.tensordot(z, M, axes=(0, 1))])
                g = J.conj().T @ r
                H = J.conj().T @ J + lam * np.eye(j + kmj, dtype=J.dtype)
                try:
                    step = np.linalg.solve(H, g)
                except np.linalg.LinAlgError:
                    stop = "singular"
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
                        stop = "damping"
                        break
                if rnorm < tol:
                    stop = "converged"
                    break
            if best is None or rnorm < best.residual:
                best = SolveReport(
                    z=z, w=w, residual=float(rnorm), iterations=iters,
                    restarts_used=restarts_used, stop=stop,
                )
            if best.residual < tol:
                break
    if not np.isfinite(best.residual):
        raise NonFiniteInput("a matrix product overflowed to Inf or NaN")
    return best


def _solve_inverse_closed(
    model: BilinearModel, b: np.ndarray, tol: float, seed: int
) -> Optional[SolveReport]:
    """The direct step: the first answer with residual below ``tol`` from
    factoring the target over the model's pair, through an invertible member
    of the second factor's span, then of the first's; None when the model
    lacks a basis or neither side gives one.  Each model basis is spanned
    once per model; its one SVD also gives a factor's coordinates."""
    if not (len(model.basis1) and len(model.basis2) and len(model.lin_basis)):
        return None
    spans, tols = model._spans, Tolerances()
    A = _combine(b, model.lin_basis, model.field)
    for side, first in (("model pair", False), ("first-factor side", True)):
        try:
            factors = _factor(A, spans[0].subspace, spans[1].subspace, seed, first)
        except (NoFactorization, SingularWitness) as exc:
            _log.debug("direct step, %s: %s", side, exc)
            continue
        z, w = (_least_squares(span.svd or _svd(span.stack, tols), vec(V)[:, None])[0][:, 0]
                for span, V in zip(spans, factors))
        nz = _norm(z)
        if nz <= 1e-300:
            _log.debug("direct step, %s: the first factor has no coordinates", side)
            continue
        z, w = z / nz, w * nz
        rnorm = _norm((np.asarray(model.M) @ w) @ z - b)
        _log.debug("direct step, %s: residual %.3e, bound %.3e", side, rnorm, tol)
        if rnorm < tol:
            return SolveReport(z, w, residual=rnorm, iterations=0, restarts_used=0,
                               stop="inverse_closed")
    return None


def factor_via_inverse_closed(
    A, S1: MatrixSubspace, S2: MatrixSubspace, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor A = V1 V2 with V1 in S1 and V2 in S2, for inverse-closed S2.

    Finds a nonzero Y in S2 with A Y in S1 (the nullspace of the linear map
    Y -> (I - P_S1)(A Y) on S2, read from one SVD judged by ``S1.tols``),
    then returns (A Y, Y^{-1}).  The second factor stays in S2 exactly when
    S2 is inverse-closed, which the caller asserts (catalog constructors flag
    which structures guarantee it) or checks, as :func:`solve_bilinear` does
    by its residual.

    Raises NoFactorization when the nullspace is empty and SingularWitness
    when every sampled nullspace member is numerically singular (e.g. A on
    the boundary of the product set).
    """
    _check_int("seed", seed, 0)
    check_same_space(S1, S2)
    return _factor(A, S1, S2, seed, first=False)


def _factor(A, S1: MatrixSubspace, S2: MatrixSubspace, seed: int, first: bool):
    """:func:`factor_via_inverse_closed` on a checked pair, or with ``first``
    from the first factor's side: a nonzero X in S1 with X A in S2 (the
    nullspace of X -> (I - P_S2)(X A) on S1) gives (X^{-1}, X A), whose first
    factor stays in S1 exactly when S1 is inverse-closed."""
    Aa = _as_square_stack((A,), S1.field if S1.field == REAL else None, ("A",), S1.n)[0]
    # The columns of L are the vectorized A C (C A for the first factor) over
    # the basis C of the closed side, less their projections onto the other.
    closed, other = (S1, S2) if first else (S2, S1)
    P = _vec_columns(_with_basis(closed, Aa, left=not first))
    L = P - _projection(other, P)
    # L is n² by dim with dim <= n², so its null space is complete.
    N = _svd(L, S1.tols).null  # (dim, null_dim)
    null_dim = N.shape[1]
    if null_dim == 0:
        raise NoFactorization("no nonzero X in S1 maps A into S2" if first
                              else "no nonzero Y in S2 maps A into S1")

    # The candidates: the members with the null basis columns as
    # coefficients.  On a null line that is the one candidate: every
    # combination is a unit multiple of it, with its condition number.  A
    # larger null space adds unit Gaussian combinations of the columns, at
    # least one, since every null basis member can be singular where a
    # combination is not; they are drawn at once, each combination's real
    # parts before its imaginary parts, as one draw at a time would be.
    coef = N.T
    if null_dim > 1:
        count, rng = max(_FACTOR_CANDIDATES - null_dim, 1), _rng(seed)
        if S1.field == REAL:
            G = rng.standard_normal((count, null_dim))
        else:
            G = rng.standard_normal((count, 2, null_dim))
            G = G[:, 0] + 1j * G[:, 1]
        # Each row's norm as np.linalg.norm takes it: one dot per real part.
        parts = (G,) if S1.field == REAL else (G.real, G.imag)
        U = G / np.sqrt(sum(np.matmul(R[:, None], R[..., None])[:, 0, 0] for R in parts))[:, None]
        coef = np.concatenate([coef, np.matmul(N, U[..., None])[..., 0]])
    cands = _members(closed, coef)
    # The best-conditioned candidate, judged on one batched spectrum; every
    # candidate has unit Frobenius norm, so no largest singular value is zero.
    sv = np.linalg.svd(cands, compute_uv=False)
    conditioning = sv[:, -1] / sv[:, 0]
    best = int(np.argmax(conditioning))
    _log.debug(
        "factoring: null dimension %d, candidates judged %d, chosen sigma_min/sigma_max %.3e",
        null_dim, len(cands), conditioning[best],
    )
    if rank_from_singular_values(sv[best], S1.tols) < S1.n:
        raise SingularWitness("all sampled nullspace members are numerically singular")
    Y = cands[best] / np.linalg.norm(cands[best])
    if first:
        return np.linalg.inv(Y), _products(Y, Aa)[0]
    return _products(Aa, Y)[0], np.linalg.inv(Y)


def nullstellensatz_degree_bound(D: int, n: int, k: int) -> int:
    """Degree bound for certificate polynomials: D^n for D >= 3, else 2^min(n, k)."""
    D, n, k = _check_int("D", D, 0), _check_int("n", n, 1), _check_int("k", k, 1)
    if D < 2:
        raise UnsupportedDegree("the bound is stated only for maximal degree >= 2")
    if D == 2:
        return 2 ** min(n, k)
    return D ** n
