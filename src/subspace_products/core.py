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
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
# Matrices per block of the transposing copy in :func:`_vec_columns`, and
# columns per block of the residuals in :func:`_least_squares`.
_VEC_BLOCK = 128
# Sums of squares that :func:`_norm` takes as they are: inside it, no square
# overflowed, and squares that underflowed cannot move the sum.
_SQUARES_RANGE = (1e-280, 1e280)


@dataclass(frozen=True)
class Tolerances:
    """Numerical rank thresholds.

    Singular values are kept when they exceed ``rel_rank_tol`` times the
    largest singular value; if the largest singular value is below
    ``abs_floor`` the rank is reported as zero.  A ``rel_rank_tol`` of 1 or
    more, or an infinite ``abs_floor``, would make every rank zero, so both
    are rejected; so is a bool for either, as :func:`_check_int` rejects one
    for an integer (a ``rel_rank_tol`` of True or False is outside (0, 1)).
    """

    rel_rank_tol: float = 1e-8
    abs_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_rank_tol < 1.0:
            raise BadParameters(f"rel_rank_tol must be in (0, 1), got {self.rel_rank_tol}")
        if isinstance(self.abs_floor, (bool, np.bool_)) or not 0.0 < self.abs_floor < np.inf:
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


def _check_int(name: str, value, low: int) -> int:
    """The one rule for integer parameters (seeds, counts, sizes): a Python
    or numpy integer, not a bool, of at least ``low``, returned as an int;
    anything else raises BadParameters naming ``name`` and the value."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and value >= low:
        return int(value)
    if low == 0:
        raise BadParameters(f"{name} must be a nonnegative integer, got {value!r}")
    if integer:
        raise BadParameters(f"{name} must be at least {low}, got {value}")
    raise BadParameters(f"{name} must be an integer of at least {low}, got {value!r}")


def _label(name, i: int) -> str:
    """Member i of the input list ``name``, or the i-th of a tuple of names."""
    return name[i] if isinstance(name, tuple) else f"{name}[{i}]"


def _finite_of_field(arr: np.ndarray, field: Optional[str], name) -> np.ndarray:
    """The rules both input checks end with, naming the first member
    ``arr[i]`` that breaks one by :func:`_label`: NonFiniteInput for NaN or
    Inf, RealFieldViolation for a nonzero imaginary part over the real field."""
    axes = tuple(range(1, arr.ndim))
    finite = np.isfinite(arr)
    if not finite.all():
        first = _label(name, int(np.argmin(finite.all(axis=axes))))
        raise NonFiniteInput(f"{first} contains NaN or Inf entries")
    if field == REAL and np.iscomplexobj(arr):
        imaginary = (arr.imag != 0).any(axis=axes)
        if imaginary.any():
            first = _label(name, int(np.argmax(imaginary)))
            raise RealFieldViolation(f"{first} has nonzero imaginary entries over the real field")
        arr = arr.real
    complex_out = field == COMPLEX or (field is None and np.iscomplexobj(arr))
    return np.array(arr, dtype=np.complex128 if complex_out else np.float64)


def _as_square_stack(
    mats: Sequence, field: Optional[str] = None, name="mats", side: Optional[int] = None
) -> np.ndarray:
    """The one input check for matrices: a sequence of square matrices
    validated in one vectorized pass into a new (K, n, n) array, of the
    dtype of ``field``, or without one complex128 only if some input is
    complex.  Members are named ``name[i]``, or by a tuple ``name``; each
    error names the first member that breaks its rule: EmptyInput for no
    members, SizeMismatch for one not square or of side 0, MixedSizes (a
    SizeMismatch) for a side other than the first member's or ``side``,
    then the rules of :func:`_finite_of_field`."""
    if len(mats) == 0:
        raise EmptyInput(f"need at least one matrix in {name}")
    try:
        arr = np.asarray(mats)
        shaped = arr.ndim == 3 and arr.shape[1] == arr.shape[2] == (side or arr.shape[1]) > 0
    except ValueError:  # members of different shapes
        shaped = False
    if not shaped:
        # Only a bad shape gets here: name the first member that has one.
        n = side
        for i, shape in enumerate(map(np.shape, mats)):
            if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
                raise SizeMismatch(f"{_label(name, i)} must be square and nonempty, got shape {shape}")
            n = n or shape[0]
            if shape[0] != n:
                raise MixedSizes(f"{_label(name, i)} has side {shape[0]}, expected {n}")
    return _finite_of_field(arr, field, name)


def _as_vectors(vecs: Sequence, field=None, name="vectors", length=None) -> np.ndarray:
    """The one input check for coordinate vectors, named and typed as by
    :func:`_as_square_stack`: each member flattened, all of one length, the
    first member's or ``length`` (else MixedSizes naming the first other),
    then the rules of :func:`_finite_of_field`, into a new (K, length) array."""
    if len(vecs) == 0:
        raise EmptyInput("need at least one vector")
    flat = [np.asarray(v).reshape(-1) for v in vecs]
    m = flat[0].size if length is None else length
    for i, v in enumerate(flat):
        if v.size != m:
            raise MixedSizes(f"{_label(name, i)} has length {v.size}, expected {m}")
    return _finite_of_field(np.array(flat), field, name)


def as_square_matrix(A, field: Optional[str] = None, name: str = "matrix") -> np.ndarray:
    """Validate and normalize a square matrix: the one-member call of
    :func:`_as_square_stack`, with its rules and errors.

    Rejects non-square shapes, NaN/Inf entries and, for ``field='real'``,
    nonzero imaginary parts.  Returns float64 or complex128 storage.
    """
    return _as_square_stack((A,), field, (name,))[0]


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
    Acta Numerica 19, 2010), with room for complex arithmetic.  The bound
    holds for any Gram product and Cholesky in standard rounding: here
    numpy's ``A @ A.conj().T`` and ``np.linalg.cholesky``, which factors
    the Hermitian matrix of the computed lower triangle.
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
    # A.conj() of a real A is A itself, so numpy forms A A^T by one rank-N
    # update (syrk); A A^H of a complex A is a general product (gemm).
    G = A @ A.conj().T
    s = float(np.trace(G).real)
    if math.sqrt(s) * scale < 2.0 * math.sqrt(m) * tols.abs_floor:
        return False
    t = (2.0 * tols.rel_rank_tol) ** 2 + 4.0 * (N + m + 2) * np.finfo(np.float64).eps
    G[np.diag_indices(m)] -= t * s
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
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


def _ranks(stack: np.ndarray, tols: Tolerances) -> np.ndarray:
    """Numerical rank of each matrix of a (K, m, N) stack: one batched SVD
    without singular vectors, each row of singular values judged by
    :func:`rank_from_singular_values`, as :func:`matrix_rank` judges one."""
    singular_values = np.linalg.svd(stack, compute_uv=False)
    return np.array([rank_from_singular_values(s, tols) for s in singular_values])


_Svd = namedtuple("_Svd", "rank range s vh null")


def _svd(M: np.ndarray, tols: Tolerances) -> _Svd:
    """The one SVD with singular vectors, behind every range, null space and
    least-squares solve.  For an (m, N) matrix: the rank r, orthonormal
    columns of the range (m, r) and null space (N, N - r; m - r when N > m),
    and the kept singular values s (r,) with their right singular vectors vh."""
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    r = rank_from_singular_values(s, tols)
    return _Svd(r, U[:, :r], s[:r], Vh[:r], Vh[r:].conj().T)


def _norm(X: np.ndarray, axis: Optional[int] = None):
    """The Frobenius norm of X, or with ``axis=0`` that of each column of a 2-d
    X: the one norm of data a caller scales.

    A norm is the square root of a sum of squares (one BLAS dot for a whole
    array) when that sum lies in ``_SQUARES_RANGE``: then no square
    overflowed, and those that underflowed are below the sum's rounding.
    Otherwise it is the same sum over X divided by its largest absolute
    entry, times that entry.  So only a norm past the largest float
    overflows, not squares past 1e154, and entries whose squares underflow
    keep their norm.  NaN gives NaN, and Inf gives Inf."""
    # Neither np.vdot nor np.einsum warns when a square overflows; np.dot
    # and matmul do.
    if axis is None:
        sum_sq = np.vdot(X, X).real
        if _SQUARES_RANGE[0] < sum_sq < _SQUARES_RANGE[1]:
            return math.sqrt(sum_sq)
        peak = float(np.max(np.abs(X), initial=0.0))
        if not 0.0 < peak < math.inf:  # zero, Inf or NaN
            return peak
        X = X / peak
        return peak * math.sqrt(np.vdot(X, X).real)
    # The columns of X with a complex entry as its two parts side by side.
    parts = np.ascontiguousarray(X).view(np.float64)
    sum_sq = np.einsum("ij,ij->j", parts, parts)
    if np.iscomplexobj(X):
        sum_sq = sum_sq[0::2] + sum_sq[1::2]
    norms = np.sqrt(sum_sq)
    out_of_range = ~((_SQUARES_RANGE[0] < sum_sq) & (sum_sq < _SQUARES_RANGE[1]))
    if out_of_range.any():
        # A zero column is out of range too, and its norm is already 0.
        for k in np.flatnonzero(out_of_range & X.any(axis=0)):
            norms[k] = _norm(X[:, k])
    return norms


def _least_squares(d: _Svd, B: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Coordinates X of the columns of B against those of the matrix A whose
    :func:`_svd` is ``d``, within A's numerical range, and each column's
    residual ||A X - B||, taken before X is scaled.  The residuals are formed
    ``_VEC_BLOCK`` columns at a time, so no temporary the size of B is made."""
    C = d.range.conj().T @ B
    resid = np.concatenate([
        _norm(d.range @ C[:, k : k + _VEC_BLOCK] - B[:, k : k + _VEC_BLOCK], axis=0)
        for k in range(0, B.shape[1], _VEC_BLOCK)
    ])
    C /= d.s[:, None]
    return d.vh.conj().T @ C, resid


class Membership(NamedTuple):
    inside: bool
    residual: float


def _inside(residual, scale, tol: float):
    """The membership rule, elementwise: a matrix of norm ``scale`` whose
    residual from a subspace is below ``tol * max(1, scale)`` lies in it."""
    return residual < tol * np.maximum(1.0, scale)


@dataclass(frozen=True)
class MatrixSubspace:
    """A subspace of n-by-n matrices with an orthonormalized vector basis.

    Attributes
    ----------
    n : side length of the member matrices.
    field : 'real' or 'complex'.
    raw_basis : (K, n, n) array of the spanning matrices as supplied
        (possibly dependent), stored for ``field``.
    dim : numerical rank of the vectorized spanning set.
    ortho_basis : (n*n, dim) array with orthonormal columns spanning the
        same space as the vectorized raw basis.
    tols : the rank thresholds used at construction and in membership tests.

    Instances are value objects: never mutate the stored arrays.
    """

    n: int
    field: str
    raw_basis: np.ndarray
    dim: int
    ortho_basis: np.ndarray
    tols: Tolerances

    def __post_init__(self):
        self.ortho_basis.setflags(write=False)
        self.raw_basis.setflags(write=False)

    @property
    def tol(self) -> float:
        """The relative rank threshold in force for this subspace."""
        return self.tols.rel_rank_tol

    def basis_matrices(self) -> np.ndarray:
        """Orthonormal basis as a (dim, n, n) array of matrices (columns of
        ``ortho_basis`` unstacked)."""
        return np.moveaxis(self.ortho_basis.reshape(self.n, self.n, self.dim, order="F"), -1, 0)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """The member with the given coefficients against the orthonormal basis."""
        return unvec(self.ortho_basis @ coeffs, self.n)

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """Expansion coefficients of the orthogonal projection of A."""
        return _coordinates(self, vec(A))

    def project(self, A: np.ndarray) -> np.ndarray:
        """Orthogonal projection of A onto the subspace."""
        return unvec(_projection(self, vec(A)), self.n)

    def project_out(self, A: np.ndarray) -> np.ndarray:
        """Component of A orthogonal to the subspace."""
        return np.asarray(A, dtype=self.ortho_basis.dtype) - self.project(A)


def _members(S: MatrixSubspace, C: np.ndarray) -> np.ndarray:
    """The members with the coefficient rows of C, as a (b, n, n) array.

    One matrix-vector product per row, laid out as ``S.element`` lays out
    its result, so each member is bit-identical to ``S.element`` of its row.
    """
    n = S.n
    return np.matmul(S.ortho_basis, C[..., None]).reshape(len(C), n, n).transpose(0, 2, 1)


def _coordinates(S: MatrixSubspace, X: np.ndarray) -> np.ndarray:
    """``Q^H X``: the coordinates of each column of X (vectorized matrices)
    against the orthonormal basis Q of S, the one kernel that forms them;
    over the real field they keep their real part.

    Every span of all n-by-n matrices has the identity as Q (see
    :func:`_full_space`), so there ``Q^H X`` is ``X + 0.0``, cast to the
    dtype the product would have: that turns -0.0 into 0.0 as the product
    does, and no product is formed."""
    Q = S.ortho_basis
    C = np.add(X, 0.0, dtype=np.result_type(Q, X)) if S.dim == S.n * S.n else Q.conj().T @ X
    return C.real if S.field == REAL else C


def _projection(S: MatrixSubspace, X: np.ndarray) -> np.ndarray:
    """The orthogonal projection onto S of each column of X (vectorized
    matrices), ``Q`` times :func:`_coordinates`; over all n-by-n matrices,
    where ``Q`` is the identity, the coordinates themselves."""
    C = _coordinates(S, X)
    return C if S.dim == S.n * S.n else S.ortho_basis @ C


def _vec_columns(mats: np.ndarray) -> np.ndarray:
    """The (K, n, n) matrices vectorized as the columns of one array, copied
    ``_VEC_BLOCK`` at a time so that the transpose stays in cache: four times
    faster than one strided copy on 16,456 matrices of side 16."""
    K, n = len(mats), mats.shape[-1]
    out = np.empty((n, n, K), dtype=mats.dtype)
    for k in range(0, K, _VEC_BLOCK):
        out[..., k : k + _VEC_BLOCK] = mats[k : k + _VEC_BLOCK].transpose(2, 1, 0)
    return out.reshape(n * n, K)


def _products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All products ``np.matmul(A, B)``, broadcast over the leading axes and
    flattened to a (count, n, n) array in C order of those axes.

    The one kernel for products of matrices a caller scales: the factors are
    validated, so the products are not validated again; only an overflow is
    caught, so that it raises NonFiniteInput as it would for an input.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.matmul(A, B)
    if not np.isfinite(P).all():
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


def _full_space(
    n: int, field: str, tols: Tolerances, raw_basis: Optional[np.ndarray] = None
) -> MatrixSubspace:
    """All n-by-n matrices, with the identity as ``ortho_basis`` (the
    vectorized matrix units).  ``raw_basis`` defaults to the n*n matrix
    units in column-major order, as a view of the identity."""
    identity = np.eye(n * n, dtype=dtype_for(field))
    if raw_basis is None:
        raw_basis = identity.reshape(n * n, n, n).transpose(0, 2, 1)
    return MatrixSubspace(
        n=n, field=field, raw_basis=raw_basis, dim=n * n, ortho_basis=identity, tols=tols
    )


def _real_form(S: MatrixSubspace) -> Optional[MatrixSubspace]:
    """The real form of a complex S spanned by real matrices: S over the
    real field, when both ``raw_basis`` and ``ortho_basis`` of S have
    exactly zero imaginary parts; else (and for a real S) None.

    Its bases are copies of their real parts, so no SVD is needed: real
    orthonormal columns are orthonormal over either field, and the real
    span whose complexification is S is the real span of any real basis of
    S."""
    if S.field != COMPLEX or S.raw_basis.imag.any() or S.ortho_basis.imag.any():
        return None
    return MatrixSubspace(
        n=S.n, field=REAL, raw_basis=np.array(S.raw_basis.real), dim=S.dim,
        ortho_basis=np.array(S.ortho_basis.real), tols=S.tols,
    )


def _complexified(S: MatrixSubspace) -> MatrixSubspace:
    """The complex span of a real S, with its bases cast to complex128; a
    span of all n-by-n matrices is :func:`_full_space` over the cast
    ``raw_basis``, as every such span is."""
    raw = S.raw_basis.astype(np.complex128)
    if S.dim == S.n * S.n:
        return _full_space(S.n, COMPLEX, S.tols, raw)
    return MatrixSubspace(
        n=S.n, field=COMPLEX, raw_basis=raw, dim=S.dim,
        ortho_basis=S.ortho_basis.astype(np.complex128), tols=S.tols,
    )


_Span = namedtuple("_Span", "subspace stack svd")


def _subspace_from_stack(P: np.ndarray, field: str, tols: Tolerances) -> _Span:
    """The span of a (K, n, n) array P of validated members, stored for
    ``field``, which becomes its ``raw_basis``: the one span kernel.  The
    members are vectorized once into an (n*n, K) stack.  A stack at least
    n*n wide first tries :func:`_certified_full_rank`, one Gram product and
    one Cholesky; if that proves nothing, one SVD of the reduced stack (see
    :func:`_reduced_stack`) by :func:`_svd` spans it.  Either way a span of
    dim n*n is :func:`_full_space` over P, with the identity as
    ``ortho_basis``.

    Returns the span with the stack and, for callers that solve against the
    members, the stack's own :func:`_svd`: None when the certificate decided
    or the SVD ran on a QR-reduced stack."""
    n = P.shape[-1]
    stack = _vec_columns(P)
    if stack.shape[1] >= n * n and _certified_full_rank(stack, tols):
        return _Span(_full_space(n, field, tols, P), stack, None)
    reduced = _reduced_stack(stack)
    d = _svd(reduced, tols)
    d_stack = d if reduced is stack else None
    if d.rank == n * n:
        return _Span(_full_space(n, field, tols, P), stack, d_stack)
    Q = np.array(d.range.real if field == REAL else d.range)
    S = MatrixSubspace(n=n, field=field, raw_basis=P, dim=d.rank, ortho_basis=Q, tols=tols)
    return _Span(S, stack, d_stack)


def subspace_from_matrices(
    mats: Sequence, field: str = COMPLEX, tols: Optional[Tolerances] = None
) -> MatrixSubspace:
    """Build the numerical span of a list of square matrices.

    The dimension is the numerical rank of the column-stacked vectorizations,
    decided by ``tols``.  A list of all-zero matrices yields the representable
    zero subspace (dim 0), which sampling and analysis operations reject.
    """
    check_field(field)
    return _subspace_from_stack(_as_square_stack(mats, field), field, tols or Tolerances()).subspace


def membership(S: MatrixSubspace, A) -> Membership:
    """Distance of A from S and the resulting inside/outside verdict.

    The residual is the Frobenius norm of A minus its orthogonal projection
    onto S; A is inside when the residual is below ``S.tol * max(1, ||A||_F)``.
    """
    return _membership(S, _as_square_stack((A,), name=("A",), side=S.n)[0])


def _membership(S: MatrixSubspace, arr: np.ndarray) -> Membership:
    """:func:`membership` of a matrix already validated with side ``S.n``."""
    v = vec(arr).astype(np.complex128)
    residual, scale = _norm(v - _projection(S, v)), _norm(v)
    if scale == math.inf:
        # ||A||_F overflowed: decide on A over its largest absolute entry,
        # whose norm is finite and at least 1.
        peak = float(np.abs(v).max())
        got = _membership(S, arr / peak)
        return Membership(inside=got.inside, residual=got.residual * peak)
    return Membership(inside=bool(_inside(residual, scale, S.tol)), residual=residual)


def require_member(S: MatrixSubspace, A, name: str = "matrix") -> np.ndarray:
    """Return A validated once as a matrix of S's field and side, raising
    NotMember when it lies outside S."""
    arr = _as_square_stack((A,), S.field, (name,), side=S.n)[0]
    _member_residual(S, arr, name)
    return arr


def _member_residual(S: MatrixSubspace, arr: np.ndarray, name: str) -> float:
    """The :func:`membership` residual of a finite matrix ``arr`` of side
    ``S.n``, which must lie in S: else NotMember, naming it ``name``."""
    got = _membership(S, arr)
    if not got.inside:
        raise NotMember(f"{name} is not in the subspace (residual {got.residual:.3e})")
    return got.residual


def _identity_part(S: MatrixSubspace) -> Optional[np.ndarray]:
    """P, the projection of the identity onto S, when S contains I; else None.

    The one projection decides too: S contains I when the residual
    ||I - P||_F passes the rule of :func:`membership`."""
    I = np.eye(S.n)
    P = S.project(I)
    return P if _inside(_norm(I - P), _norm(I), S.tol) else None


def numerical_rank(vectors: Sequence, tols: Optional[Tolerances] = None) -> int:
    """Numerical rank of a set of equal-length vectors."""
    return matrix_rank(_as_vectors(vectors).T, tols)


def equivalence_transform(S: MatrixSubspace, X, Y) -> MatrixSubspace:
    """The subspace X S Y^{-1} for invertible X and Y.

    Dimension is preserved; minrank and factorizability are invariant under
    this operation.
    """
    Xa, Ya = _as_square_stack((X, Y), S.field if S.field == REAL else None, ("X", "Y"), S.n)
    for name, M in (("X", Xa), ("Y", Ya)):
        if matrix_rank(M, S.tols) < S.n:
            raise SingularTransform(f"{name} is numerically singular")
    # X B Y^{-1} computed by one solve against Y^T to avoid forming the inverse
    new_basis = np.linalg.solve(Ya.T, _products(Xa, S.raw_basis).transpose(0, 2, 1))
    return subspace_from_matrices(new_basis.transpose(0, 2, 1), field=S.field, tols=S.tols)


def _gaussian_coefficients(rng: np.random.Generator, size: int, field: str) -> np.ndarray:
    """I.i.d. standard normal coefficients; over the complex field the real
    parts are drawn first, then the imaginary parts."""
    c = rng.standard_normal(size)
    return c if field == REAL else c + 1j * rng.standard_normal(size)


def _rng(seed) -> np.random.Generator:
    """The generator behind every seeded draw: ``np.random.default_rng(seed)``
    for a seed that passes :func:`_check_int`."""
    return np.random.default_rng(_check_int("seed", seed, 0))


def random_element(S: MatrixSubspace, seed: int) -> np.ndarray:
    """Seeded Gaussian element of S.

    Coefficients against the orthonormal basis are i.i.d. standard normal
    (independent real and imaginary parts over the complex field), so the
    draw is an isotropic Gaussian on the subspace and deterministic in the
    seed.  This is the package's realization of a generic point.
    """
    rng = _rng(seed)
    if S.dim == 0:
        raise ZeroSubspace("cannot sample from the zero subspace")
    return S.element(_gaussian_coefficients(rng, S.dim, S.field))


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
        np.concatenate([S1.raw_basis, S2.raw_basis]), field=S1.field, tols=S1.tols
    )


def subspaces_equal(S1: MatrixSubspace, S2: MatrixSubspace) -> bool:
    """Equal dimensions, and each orthonormal basis inside the other subspace.

    This is mutual :func:`membership` of the basis matrices, decided by one
    projection per side: every column of ``Q1 - Q2 (Q2^H Q1)`` (and of the
    reverse) must pass the rule of :func:`_inside` for a unit-norm matrix
    against the tested subspace's ``tol``.
    """
    if S1.n != S2.n or S1.field != S2.field or S1.dim != S2.dim:
        return False
    return all(
        bool(np.all(_inside(np.linalg.norm(Q - _projection(S, Q), axis=0), 1.0, S.tol)))
        for S, Q in ((S2, S1.ortho_basis), (S1, S2.ortho_basis))
    )
