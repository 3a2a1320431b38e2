"""Matrix subspace primitives.

A matrix subspace of n-by-n matrices over the reals or the complex numbers is
stored as the raw spanning set plus an orthonormal basis of its vectorization.
Vectorization is column-major (Fortran order) throughout the package, so
structure constants and serialized bases are reproducible.

The inner product is the Frobenius (trace) inner product; over the reals its
real part, which for real matrices is the plain trace form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import linalg

from .errors import (
    BadParameters,
    EmptyInput,
    FieldMismatch,
    MixedSizes,
    NonFiniteInput,
    NotMember,
    RealFieldViolation,
    SingularTransform,
    SizeMismatch,
    ZeroSubspace,
)

_log = logging.getLogger("subspace_products")

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)


@dataclass(frozen=True)
class Tolerances:
    """Numerical rank thresholds.

    Singular values are kept when they exceed ``rel_rank_tol`` times the
    largest singular value; if the largest singular value is below
    ``abs_floor`` the rank is reported as zero.  A ``rel_rank_tol`` of 1 or
    more, or an infinite ``abs_floor``, would make every rank zero, so both
    are rejected.
    """

    rel_rank_tol: float = 1e-8
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_rank_tol < 1.0:
            raise BadParameters(f"rel_rank_tol must be in (0, 1), got {self.rel_rank_tol}")
        if not 0.0 < self.abs_floor < np.inf:
            raise BadParameters(f"abs_floor must be positive and finite, got {self.abs_floor}")


def vec(A: np.ndarray) -> np.ndarray:
    """Stack a matrix into a vector, column by column."""
    return np.asarray(A).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an n-by-n matrix."""
    return np.asarray(v).reshape((n, n), order="F")


def dtype_for(field: str):
    return np.float64 if field == REAL else np.complex128


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise BadParameters(f"unknown field {field!r}; expected 'real' or 'complex'")
    return field


def _check_count(name: str, value: int) -> None:
    """Reject a count (trials, restarts, budget, grid points, directions) below one."""
    if value < 1:
        raise BadParameters(f"{name} must be at least 1, got {value}")


def as_square_matrix(A, field: Optional[str] = None, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a square matrix.

    Rejects non-square shapes, NaN/Inf entries and, for ``field='real'``,
    nonzero imaginary parts.  Returns float64 or complex128 storage.
    """
    arr = np.asarray(A)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise SizeMismatch(f"{name} must be square and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or (
        np.iscomplexobj(arr) and not np.all(np.isfinite(arr.imag))
    ):
        raise NonFiniteInput(f"{name} contains NaN or Inf entries")
    if field == REAL:
        if np.iscomplexobj(arr) and np.any(arr.imag != 0):
            raise RealFieldViolation(f"{name} has nonzero imaginary entries over the real field")
        return np.array(arr.real, dtype=np.float64)
    if field == COMPLEX:
        return np.array(arr, dtype=np.complex128)
    if np.iscomplexobj(arr):
        return np.array(arr, dtype=np.complex128)
    return np.array(arr, dtype=np.float64)


def rank_from_singular_values(s: np.ndarray, tols: Tolerances) -> int:
    s = np.asarray(s)
    if s.size == 0 or s[0] < tols.abs_floor:
        return 0
    return int(np.sum(s > tols.rel_rank_tol * s[0]))


def _certified_full_rank(stack: np.ndarray, tols: Tolerances) -> bool:
    """True only if the (m, N) ``stack`` provably has rank m under ``tols``
    (so N >= m): :func:`rank_from_singular_values` would count m singular
    values.  False proves nothing; callers then compute the rank by an SVD.

    With A the stack divided by its largest |entry| (so its Gram matrix
    cannot overflow), s = trace(A A^H) = ||A||_F^2 and

        t = (2 rel_rank_tol)^2 + 4 (N + m + 2) eps,

    a Cholesky factorization that runs to completion on fl(A A^H) - t s I
    shows lambda_min(A A^H) > (2 rel_rank_tol)^2 s: the 4 (N + m + 2) eps
    term covers the rounding of the Gram product (gamma_N), of the trace
    and the shift, and of the factorization (gamma_{m+1}; S. M. Rump,
    Acta Numerica 19, 2010), with room for complex arithmetic.
    Then sigma_m > 2 rel_rank_tol ||A||_F >= 2 rel_rank_tol sigma_1, and
    sigma_m > sqrt(8 (m + 1) eps) sigma_1 > 5e-8 sigma_1 whatever the
    tolerance, far above the rounding of an SVD, so the computed singular
    values clear the cutoff too.  The floor gets the same factor of 2:
    ||stack||_F^2 >= 4 m abs_floor^2 gives sigma_1 >= 2 abs_floor.  A zero
    or non-finite largest entry gives False.
    """
    m, N = stack.shape
    with np.errstate(over="ignore"):
        scale = float(np.max(np.abs(stack), initial=0.0))
    if not 0.0 < scale < np.inf:
        return False
    A = stack / scale
    G = A @ A.conj().T
    s = float(np.trace(G).real)
    if math.sqrt(s) * scale < 2.0 * math.sqrt(m) * tols.abs_floor:
        return False
    t = (2.0 * tols.rel_rank_tol) ** 2 + 4.0 * (N + m + 2) * np.finfo(np.float64).eps
    G[np.diag_indices(m)] -= t * s
    # G.T (the conjugate of G, with the same eigenvalues) is Fortran-ordered,
    # so LAPACK factors it in place.
    potrf = linalg.get_lapack_funcs("potrf", (G,))
    if potrf(G.T, overwrite_a=True, clean=False)[1] != 0:
        return False
    _log.debug("full rank %d certified by Cholesky of the shifted Gram matrix", m)
    return True


def matrix_rank(M, tols: Optional[Tolerances] = None) -> int:
    """Numerical rank of a matrix: its singular values judged by ``tols``.

    An (m, N) matrix wider than tall (N > m) first tries
    :func:`_certified_full_rank`, one Gram product and one Cholesky, and a
    proof gives m; otherwise, and for square or tall matrices, one SVD
    decides, without singular vectors.
    """
    M = np.asarray(M)
    tols = tols or Tolerances()
    if M.shape[1] > M.shape[0] and _certified_full_rank(M, tols):
        return M.shape[0]
    return rank_from_singular_values(np.linalg.svd(M, compute_uv=False), tols)


class Membership(NamedTuple):
    inside: bool
    residual: float


@dataclass(frozen=True)
class MatrixSubspace:
    """A subspace of n-by-n matrices with an orthonormalized vector basis.

    Attributes
    ----------
    n : side length of the member matrices.
    field : 'real' or 'complex'.
    raw_basis : the spanning matrices as supplied (possibly dependent).
    dim : numerical rank of the vectorized spanning set.
    ortho_basis : (n*n, dim) array with orthonormal columns spanning the
        same space as the vectorized raw basis.
    tols : the rank thresholds used at construction and in membership tests.

    Instances are value objects: never mutate the stored arrays.
    """

    n: int
    field: str
    raw_basis: tuple
    dim: int
    ortho_basis: np.ndarray
    tols: Tolerances

    def __post_init__(self):
        self.ortho_basis.setflags(write=False)
        for B in self.raw_basis:
            B.setflags(write=False)

    @property
    def tol(self) -> float:
        """The relative rank threshold in force for this subspace."""
        return self.tols.rel_rank_tol

    def basis_matrices(self) -> list:
        """Orthonormal basis as matrices (columns of ``ortho_basis`` unstacked)."""
        return list(_basis_array(self))

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """The member with the given coefficients against the orthonormal basis."""
        return unvec(self.ortho_basis @ coeffs, self.n)

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """Expansion coefficients of the orthogonal projection of A."""
        c = self.ortho_basis.conj().T @ vec(A)
        return c.real if self.field == REAL else c

    def project(self, A: np.ndarray) -> np.ndarray:
        """Orthogonal projection of A onto the subspace."""
        return unvec(_projection(self, vec(A)), self.n)

    def project_out(self, A: np.ndarray) -> np.ndarray:
        """Component of A orthogonal to the subspace."""
        return np.asarray(A, dtype=self.ortho_basis.dtype) - self.project(A)


def _projection(S: MatrixSubspace, X: np.ndarray) -> np.ndarray:
    """The orthogonal projection onto S of each column of X (vectorized
    matrices); over the real field the coefficients keep their real part."""
    coef = S.ortho_basis.conj().T @ X
    if S.field == REAL:
        coef = coef.real
    return S.ortho_basis @ coef


def _basis_array(S: MatrixSubspace) -> np.ndarray:
    """The orthonormal basis of S as a (dim, n, n) array of matrices."""
    return np.moveaxis(S.ortho_basis.reshape(S.n, S.n, S.dim, order="F"), -1, 0)


def _vec_columns(mats) -> np.ndarray:
    """The vectorizations of n-by-n matrices as the columns of one array."""
    mats = np.asarray(mats)
    return np.reshape(mats, (len(mats), mats.shape[-1] ** 2), order="F").T


def _products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All products ``np.matmul(A, B)``, broadcast over the leading axes and
    flattened to a (count, n, n) array in C order of those axes.

    The factors are validated, so the products are not validated again; only
    an overflow is caught, so that it raises NonFiniteInput as it would for an
    input.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.matmul(A, B)
    if not np.all(np.isfinite(P)):
        raise NonFiniteInput("a matrix product overflowed to Inf or NaN")
    return P.reshape((-1,) + P.shape[-2:])


def _reduced_stack(stack: np.ndarray) -> np.ndarray:
    """A matrix with the singular values and left singular vectors of a
    validated (n*n, N) stack of vectorized members, at most n*n wide.

    A stack wider than tall is factored QR-first (Chan's R-SVD): with
    ``stack^T = Q R``, ``stack = R^T Q^T`` and ``Q^T`` has orthonormal rows,
    so the m-by-m ``R^T`` has the singular values and the left singular
    vectors of the stack, and the N-wide right singular vectors are never
    formed.  If ``R`` overflows (entries near the largest float), the stack
    itself is returned for the SVD, which scales its input first.
    """
    m, N = stack.shape
    if N > m:
        R = np.linalg.qr(stack.T, mode="r")
        if np.all(np.isfinite(R)):
            return R.T
    return stack


def _subspace_from_stack(
    stack: np.ndarray, n: int, field: str, raw_basis: tuple, tols: Tolerances
) -> MatrixSubspace:
    """The span of the columns of a validated (n*n, N) stack of vectorized
    members, with ``raw_basis`` the N members as matrices, from one SVD of
    the reduced stack (see :func:`_reduced_stack`)."""
    U, s, _ = np.linalg.svd(_reduced_stack(stack), full_matrices=False)
    dim = rank_from_singular_values(s, tols)
    Q = np.array(U[:, :dim])
    if field == REAL:
        Q = np.array(Q.real, dtype=np.float64)
    return MatrixSubspace(
        n=n, field=field, raw_basis=raw_basis, dim=dim, ortho_basis=Q, tols=tols
    )


def _full_space(
    n: int, field: str, tols: Tolerances, raw_basis: Optional[tuple] = None
) -> MatrixSubspace:
    """All n-by-n matrices, with the identity as ``ortho_basis`` (the
    vectorized matrix units).  ``raw_basis`` defaults to the n*n matrix
    units in column-major order, as views of the identity."""
    identity = np.eye(n * n, dtype=dtype_for(field))
    if raw_basis is None:
        raw_basis = tuple(identity.reshape(n * n, n, n).transpose(0, 2, 1))
    return MatrixSubspace(
        n=n, field=field, raw_basis=raw_basis, dim=n * n, ortho_basis=identity, tols=tols
    )


def _subspace_unless_full(
    stack: np.ndarray, n: int, field: str, raw_basis: tuple, tols: Tolerances
) -> MatrixSubspace:
    """:func:`_subspace_from_stack` for a stack that may span every n-by-n
    matrix, with the identity as ``ortho_basis`` when it does.  A stack at
    least n*n wide first tries :func:`_certified_full_rank`, one Gram
    product and one Cholesky; if that proves nothing, one SVD spans it.
    Either way a span of dim n*n is :func:`_full_space` over ``raw_basis``."""
    if stack.shape[1] >= n * n and _certified_full_rank(stack, tols):
        return _full_space(n, field, tols, raw_basis)
    S = _subspace_from_stack(stack, n, field, raw_basis, tols)
    return _full_space(n, field, tols, raw_basis) if S.dim == n * n else S


def subspace_from_matrices(
    mats: Sequence, field: str = COMPLEX, tols: Optional[Tolerances] = None
) -> MatrixSubspace:
    """Build the numerical span of a list of square matrices.

    The dimension is the numerical rank of the column-stacked vectorizations,
    decided by ``tols``.  A list of all-zero matrices yields the representable
    zero subspace (dim 0), which sampling and analysis operations reject.
    """
    check_field(field)
    tols = tols or Tolerances()
    if len(mats) == 0:
        raise EmptyInput("need at least one matrix to span a subspace")
    arrs = [as_square_matrix(M, field=field, name=f"mats[{i}]") for i, M in enumerate(mats)]
    n = arrs[0].shape[0]
    for i, M in enumerate(arrs):
        if M.shape[0] != n:
            raise MixedSizes(f"mats[{i}] has side {M.shape[0]}, expected {n}")
    return _subspace_from_stack(_vec_columns(arrs), n, field, tuple(arrs), tols)


def membership(S: MatrixSubspace, A) -> Membership:
    """Distance of A from S and the resulting inside/outside verdict.

    The residual is the Frobenius norm of A minus its orthogonal projection
    onto S; A is inside when the residual is below ``S.tol * max(1, ||A||_F)``.
    """
    arr = as_square_matrix(A, name="A")
    if arr.shape[0] != S.n:
        raise SizeMismatch(f"matrix side {arr.shape[0]} does not match subspace side {S.n}")
    v = vec(arr).astype(np.complex128)
    # BLAS nrm2 scales as it sums: squaring entries would overflow past 1e154.
    residual = float(linalg.norm(v - _projection(S, v), check_finite=False))
    scale = max(1.0, float(linalg.norm(v, check_finite=False)))
    return Membership(inside=residual < S.tol * scale, residual=residual)


def require_member(S: MatrixSubspace, A, name: str = "matrix") -> np.ndarray:
    """Return A validated as a member of S, raising NotMember otherwise."""
    arr = as_square_matrix(A, name=name)
    got = membership(S, arr)
    if not got.inside:
        raise NotMember(f"{name} is not in the subspace (residual {got.residual:.3e})")
    return arr.astype(dtype_for(S.field)) if S.field == COMPLEX else arr


def numerical_rank(vectors: Sequence, tols: Optional[Tolerances] = None) -> int:
    """Numerical rank of a set of equal-length vectors."""
    if len(vectors) == 0:
        raise EmptyInput("need at least one vector")
    arrs = [np.asarray(v).reshape(-1) for v in vectors]
    m = arrs[0].size
    for i, v in enumerate(arrs):
        if v.size != m:
            raise MixedSizes(f"vectors[{i}] has length {v.size}, expected {m}")
        if not np.all(np.isfinite(v.real)) or (
            np.iscomplexobj(v) and not np.all(np.isfinite(v.imag))
        ):
            raise NonFiniteInput(f"vectors[{i}] contains NaN or Inf")
    return matrix_rank(np.column_stack(arrs), tols)


def equivalence_transform(S: MatrixSubspace, X, Y) -> MatrixSubspace:
    """The subspace X S Y^{-1} for invertible X and Y.

    Dimension is preserved; minrank and factorizability are invariant under
    this operation.
    """
    Xa = as_square_matrix(X, field=S.field if S.field == REAL else None, name="X")
    Ya = as_square_matrix(Y, field=S.field if S.field == REAL else None, name="Y")
    if Xa.shape[0] != S.n or Ya.shape[0] != S.n:
        raise SizeMismatch("transform matrices must match the subspace side")
    for name, M in (("X", Xa), ("Y", Ya)):
        if matrix_rank(M, S.tols) < S.n:
            raise SingularTransform(f"{name} is numerically singular")
    # X B Y^{-1} computed by a solve against Y^T to avoid forming the inverse
    new_basis = [np.linalg.solve(Ya.T, (Xa @ B).T).T for B in S.raw_basis]
    return subspace_from_matrices(new_basis, field=S.field, tols=S.tols)


def _gaussian_coefficients(rng: np.random.Generator, size: int, field: str) -> np.ndarray:
    """I.i.d. standard normal coefficients; over the complex field the real
    parts are drawn first, then the imaginary parts."""
    c = rng.standard_normal(size)
    return c if field == REAL else c + 1j * rng.standard_normal(size)


def random_element(S: MatrixSubspace, seed: int) -> np.ndarray:
    """Seeded Gaussian element of S.

    Coefficients against the orthonormal basis are i.i.d. standard normal
    (independent real and imaginary parts over the complex field), so the
    draw is an isotropic Gaussian on the subspace and deterministic in the
    seed.  This is the package's realization of a generic point.
    """
    if S.dim == 0:
        raise ZeroSubspace("cannot sample from the zero subspace")
    return S.element(_gaussian_coefficients(np.random.default_rng(seed), S.dim, S.field))


def random_unit_element(S: MatrixSubspace, seed: int) -> np.ndarray:
    """Seeded Gaussian element scaled to unit Frobenius norm."""
    A = random_element(S, seed)
    return A / np.linalg.norm(A)


def check_same_space(S1: MatrixSubspace, S2: MatrixSubspace) -> None:
    if S1.n != S2.n:
        raise SizeMismatch(f"subspace sides differ: {S1.n} vs {S2.n}")
    if S1.field != S2.field:
        raise FieldMismatch(f"subspace fields differ: {S1.field} vs {S2.field}")


def subspace_sum(S1: MatrixSubspace, S2: MatrixSubspace) -> MatrixSubspace:
    """Span of the union of the two spanning sets."""
    check_same_space(S1, S2)
    return subspace_from_matrices(
        list(S1.raw_basis) + list(S2.raw_basis), field=S1.field, tols=S1.tols
    )


def subspaces_equal(S1: MatrixSubspace, S2: MatrixSubspace) -> bool:
    """Equal dimensions, and each orthonormal basis inside the other subspace.

    This is mutual :func:`membership` of the basis matrices, decided by one
    projection per side: every column of ``Q1 - Q2 (Q2^H Q1)`` (and of the
    reverse) must have norm below the tested subspace's ``tol``, the
    membership threshold of a unit-norm matrix.
    """
    if S1.n != S2.n or S1.field != S2.field or S1.dim != S2.dim:
        return False
    return all(
        bool(np.all(np.linalg.norm(Q - _projection(S, Q), axis=0) < S.tol))
        for S, Q in ((S2, S1.ortho_basis), (S1, S2.ortho_basis))
    )
