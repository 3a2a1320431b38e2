"""Constructors for the structured matrix subspaces used across the package.

Each constructor returns the subspace together with honesty-tested metadata
flags: whether inverses of invertible members stay inside the subspace, and
whether the identity is a member.
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
    as_square_matrix,
    check_field,
    dtype_for,
    membership,
    subspace_from_matrices,
)
from .errors import BadParameters

@dataclass(frozen=True)
class CatalogSpec:
    """A named structured subspace with its parameters.

    ``p``/``q`` are bandwidths, ``k`` the rank-structure width, ``matrix``
    and ``max_power`` configure the power-span kind.
    """

    kind: str
    n: int
    field: str = COMPLEX
    p: Optional[int] = None
    q: Optional[int] = None
    k: Optional[int] = None
    matrix: Optional[np.ndarray] = None
    max_power: Optional[int] = None


def _cell(n: int, i: int, j: int, dtype) -> np.ndarray:
    A = np.zeros((n, n), dtype=dtype)
    A[i, j] = 1.0
    return A


def _diagonal(n, dtype):
    return [_cell(n, i, i, dtype) for i in range(n)]


def _circulant(n, dtype):
    shift = np.zeros((n, n), dtype=dtype)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    return [np.linalg.matrix_power(shift, k) for k in range(n)]


def _lower_triangular(n, dtype):
    return [_cell(n, i, j, dtype) for i in range(n) for j in range(i + 1)]


def _upper_triangular(n, dtype):
    return [_cell(n, i, j, dtype) for i in range(n) for j in range(i, n)]


def _strict_upper(n, dtype):
    return [_cell(n, i, j, dtype) for i in range(n) for j in range(i + 1, n)]


def _unit_upper_constant_diagonal(n, dtype):
    return [np.eye(n, dtype=dtype)] + _strict_upper(n, dtype)


def _unit_lower_constant_diagonal(n, dtype):
    return [np.eye(n, dtype=dtype)] + [
        _cell(n, i, j, dtype) for i in range(n) for j in range(i)
    ]


def _band_lower(n, p, dtype):
    return [
        _cell(n, i, j, dtype) for i in range(n) for j in range(n) if 0 <= i - j <= p
    ]


def _band_upper(n, q, dtype):
    return [
        _cell(n, i, j, dtype) for i in range(n) for j in range(n) if 0 <= j - i <= q
    ]


def _toeplitz_upper_triangular(n, dtype):
    out = []
    for d in range(n):
        T = np.zeros((n, n), dtype=dtype)
        for i in range(n - d):
            T[i, i + d] = 1.0
        out.append(T)
    return out


def _toeplitz_lower_triangular(n, dtype):
    return [T.T.copy() for T in _toeplitz_upper_triangular(n, dtype)]


def _symmetric(n, dtype):
    out = []
    for i in range(n):
        for j in range(i, n):
            A = _cell(n, i, j, dtype)
            if i != j:
                A = A + _cell(n, j, i, dtype)
            out.append(A)
    return out


def _sym_constant_antidiagonal(n, dtype):
    # Symmetric matrices whose antidiagonal entries are all equal: the free
    # antidiagonal cells collapse onto the exchange matrix J.
    J = np.fliplr(np.eye(n)).astype(dtype)
    out = [J]
    for i in range(n):
        for j in range(i, n):
            if i + j == n - 1:
                continue
            A = _cell(n, i, j, dtype)
            if i != j:
                A = A + _cell(n, j, i, dtype)
            out.append(A)
    return out


def _rank_cols(n, k, dtype):
    return [_cell(n, i, j, dtype) for i in range(n) for j in range(k)]


def _rank_rows(n, k, dtype):
    return [_cell(n, i, j, dtype) for i in range(k) for j in range(n)]


def _hurwitz_radon_2(dtype):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=dtype)
    return [np.eye(2, dtype=dtype), rot]


def _in_range(attr: str, lo: int, hi: int):
    """Parameter check: ``lo <= spec.<attr> <= n + hi``."""
    hi_text = f"n{hi}" if hi else "n"

    def check(kind: str, spec: CatalogSpec) -> None:
        v = getattr(spec, attr)
        if v is None or not lo <= v <= spec.n + hi:
            raise BadParameters(f"{kind} needs {lo} <= {attr} <= {hi_text}, got {v}")

    return check


def _real_2x2(kind: str, spec: CatalogSpec) -> None:
    if spec.n != 2 or spec.field != REAL:
        raise BadParameters(f"{kind} is defined for n=2 over the real field")


# kind -> (builder(spec, dtype), inverse_closed: bool or rule(spec), parameter check or None).
# A band is inverse-closed only as the diagonal or the full triangle.
_KINDS = {
    "diagonal": (lambda s, dt: _diagonal(s.n, dt), True, None),
    "circulant": (lambda s, dt: _circulant(s.n, dt), True, None),
    "lower_triangular": (lambda s, dt: _lower_triangular(s.n, dt), True, None),
    "upper_triangular": (lambda s, dt: _upper_triangular(s.n, dt), True, None),
    "unit_upper_constant_diagonal": (
        lambda s, dt: _unit_upper_constant_diagonal(s.n, dt), True, None),
    "unit_lower_constant_diagonal": (
        lambda s, dt: _unit_lower_constant_diagonal(s.n, dt), True, None),
    "band_lower": (lambda s, dt: _band_lower(s.n, s.p, dt), lambda s: s.p in (0, s.n - 1),
                   _in_range("p", 0, -1)),
    "band_upper": (lambda s, dt: _band_upper(s.n, s.q, dt), lambda s: s.q in (0, s.n - 1),
                   _in_range("q", 0, -1)),
    "toeplitz_upper_triangular": (lambda s, dt: _toeplitz_upper_triangular(s.n, dt), True, None),
    "toeplitz_lower_triangular": (lambda s, dt: _toeplitz_lower_triangular(s.n, dt), True, None),
    "symmetric": (lambda s, dt: _symmetric(s.n, dt), True, None),
    "persymmetric_constant_antidiagonal": (
        lambda s, dt: _sym_constant_antidiagonal(s.n, dt), False, None),
    "rank_cols": (lambda s, dt: _rank_cols(s.n, s.k, dt), False, _in_range("k", 1, 0)),
    "rank_rows": (lambda s, dt: _rank_rows(s.n, s.k, dt), False, _in_range("k", 1, 0)),
    "hurwitz_radon_2": (lambda s, dt: _hurwitz_radon_2(dt), True, _real_2x2),
}
KINDS = tuple(_KINDS) + ("krylov",)


def _krylov(spec: CatalogSpec, dtype, tols: Tolerances) -> Tuple[list, bool]:
    """Powers I, A, A^2, ... of the generator up to ``max_power`` or until
    they saturate; the span is an algebra (hence inverse-closed) only when
    the powers saturated before the cap."""
    if spec.matrix is None:
        raise BadParameters("krylov needs a generator matrix")
    if spec.max_power is None or spec.max_power < 1:
        raise BadParameters(f"krylov needs max_power >= 1, got {spec.max_power}")
    n = spec.n
    A = as_square_matrix(spec.matrix, field=spec.field, name="matrix")
    if A.shape[0] != n:
        raise BadParameters(f"generator side {A.shape[0]} does not match n={n}")
    basis = [np.eye(n, dtype=dtype)]
    power = np.eye(n, dtype=dtype)
    for _ in range(spec.max_power):
        power = power @ A
        span_so_far = subspace_from_matrices(basis, field=spec.field, tols=tols)
        if membership(span_so_far, power).inside:
            return basis, True
        basis.append(power.copy())
    return basis, False


def make_subspace(
    spec: CatalogSpec, tols: Optional[Tolerances] = None
) -> Tuple[MatrixSubspace, dict]:
    """Construct the named subspace and its metadata flags.

    Returns ``(subspace, {"inverse_closed": bool, "contains_identity": bool})``.
    ``contains_identity`` is computed by an actual membership test;
    ``inverse_closed`` comes from the algebraic structure of the kind.
    """
    check_field(spec.field)
    tols = tols or Tolerances()
    n = spec.n
    if n < 1:
        raise BadParameters(f"n must be positive, got {n}")
    dtype = dtype_for(spec.field)
    if spec.kind == "krylov":
        basis, inverse_closed = _krylov(spec, dtype, tols)
    elif spec.kind in _KINDS:
        build, closed, check = _KINDS[spec.kind]
        if check is not None:
            check(spec.kind, spec)
        basis = build(spec, dtype)
        inverse_closed = closed(spec) if callable(closed) else closed
    else:
        raise BadParameters(f"unknown catalog kind {spec.kind!r}")

    S = subspace_from_matrices(basis, field=spec.field, tols=tols)
    flags = {
        "inverse_closed": inverse_closed,
        "contains_identity": membership(S, np.eye(n)).inside,
    }
    return S, flags


def persym_genericity_check(d: Sequence[float], rel_tol: float = 1e-10) -> bool:
    """Genericity of a diagonal for the symmetric x constant-antidiagonal pair.

    True iff every entry is nonzero and the antidiagonal products
    d_j * d_{n-j+1} are pairwise distinct over the index pairs j != k with
    k != n - j + 1, all within the given relative tolerance.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    scale = float(np.max(np.abs(d))) if n else 0.0
    if n == 0 or scale == 0.0:
        return False
    if np.any(np.abs(d) <= rel_tol * scale):
        return False
    prod = np.array([d[j] * d[n - 1 - j] for j in range(n)])
    for j in range(n):
        for k in range(n):
            if k == j or k == n - 1 - j:
                continue
            if abs(prod[j] - prod[k]) <= rel_tol * max(abs(prod[j]), abs(prod[k]), 1.0):
                return False
    return True
