"""Constructors for the structured matrix subspaces used across the package.

Every kind but ``krylov`` is a pattern on the cells of an n x n matrix: a
boolean rule on the row and column index grids picks the unit matrices
E_ij (E_ij + E_ji for the symmetric kinds), optionally after a leading
member (the identity for the unit-triangular kinds, the exchange matrix for
the constant-antidiagonal kind); the Toeplitz, circulant and 2 x 2
Hurwitz-Radon kinds are one array expression each.  ``make_subspace``
returns the subspace together with honesty-tested metadata flags: whether
inverses of invertible members stay inside the subspace, and whether the
identity is a member.
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
    _as_square_stack,
    _check_int,
    _identity_part,
    _products,
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


def _cells(keep: np.ndarray, dtype, mirror: bool = False, lead=None) -> np.ndarray:
    """The unit matrices E_ij of the cells kept by the boolean n x n mask, in
    row-major order, as a (count, n, n) array; E_ij + E_ji with ``mirror``
    (E_ii on the diagonal); after the matrix ``lead`` when one is given."""
    i, j = np.nonzero(keep)
    E = np.zeros((i.size,) + keep.shape, dtype=dtype)
    r = np.arange(i.size)
    E[r, i, j] = 1.0
    if mirror:
        E[r, j, i] = 1.0
    return E if lead is None else np.concatenate([lead[None], E])


def _at_most_n(attr: str, lo: int, hi: int):
    """Parameter check: ``spec.<attr>`` an integer of at least ``lo`` (by
    :func:`core._check_int`) and at most ``n + hi``."""

    def check(kind: str, spec: CatalogSpec) -> None:
        v = _check_int(attr, getattr(spec, attr), lo)
        if v > spec.n + hi:
            raise BadParameters(f"{kind} needs {lo} <= {attr} <= n{hi or ''}, got {v}")

    return check


def _real_2x2(kind: str, spec: CatalogSpec) -> None:
    if spec.n != 2 or spec.field != REAL:
        raise BadParameters(f"{kind} is defined for n=2 over the real field")


# kind -> (builder(spec, i, j, dtype), inverse_closed: bool or rule(spec),
# parameter check or None), where i, j are the row and column index grids.
# A band is inverse-closed only as the diagonal or the full triangle.
_KINDS = {
    "diagonal": (lambda s, i, j, dt: _cells(i == j, dt), True, None),
    "circulant": (
        lambda s, i, j, dt: [np.roll(np.eye(s.n, dtype=dt), d, axis=0) for d in range(s.n)],
        True, None),
    "lower_triangular": (lambda s, i, j, dt: _cells(j <= i, dt), True, None),
    "upper_triangular": (lambda s, i, j, dt: _cells(j >= i, dt), True, None),
    "unit_upper_constant_diagonal": (
        lambda s, i, j, dt: _cells(j > i, dt, lead=np.eye(s.n, dtype=dt)), True, None),
    "unit_lower_constant_diagonal": (
        lambda s, i, j, dt: _cells(j < i, dt, lead=np.eye(s.n, dtype=dt)), True, None),
    "band_lower": (lambda s, i, j, dt: _cells((j <= i) & (i - j <= s.p), dt),
                   lambda s: s.p in (0, s.n - 1), _at_most_n("p", 0, -1)),
    "band_upper": (lambda s, i, j, dt: _cells((j >= i) & (j - i <= s.q), dt),
                   lambda s: s.q in (0, s.n - 1), _at_most_n("q", 0, -1)),
    "toeplitz_upper_triangular": (
        lambda s, i, j, dt: [np.eye(s.n, k=d, dtype=dt) for d in range(s.n)], True, None),
    "toeplitz_lower_triangular": (
        lambda s, i, j, dt: [np.eye(s.n, k=-d, dtype=dt) for d in range(s.n)], True, None),
    "symmetric": (lambda s, i, j, dt: _cells(j >= i, dt, mirror=True), True, None),
    # Symmetric matrices whose antidiagonal entries are all equal: the free
    # antidiagonal cells collapse onto the exchange matrix J.
    "persymmetric_constant_antidiagonal": (
        lambda s, i, j, dt: _cells((j >= i) & (i + j != s.n - 1), dt, mirror=True,
                                   lead=np.fliplr(np.eye(s.n, dtype=dt))), False, None),
    "rank_cols": (lambda s, i, j, dt: _cells(j < s.k, dt), False, _at_most_n("k", 1, 0)),
    "rank_rows": (lambda s, i, j, dt: _cells(i < s.k, dt), False, _at_most_n("k", 1, 0)),
    "hurwitz_radon_2": (
        lambda s, i, j, dt: [np.eye(2, dtype=dt), np.array([[0.0, -1.0], [1.0, 0.0]], dtype=dt)],
        True, _real_2x2),
}
KINDS = tuple(_KINDS) + ("krylov",)


def _krylov(spec: CatalogSpec, dtype, tols: Tolerances) -> Tuple[list, bool]:
    """Powers I, A, A^2, ... of the generator up to ``max_power`` or until
    they saturate; the span is an algebra (hence inverse-closed) only when
    the powers saturated before the cap.  A power that overflows raises
    NonFiniteInput."""
    if spec.matrix is None:
        raise BadParameters("krylov needs a generator matrix")
    _check_int("max_power", spec.max_power, 1)
    n = spec.n
    A = _as_square_stack((spec.matrix,), spec.field, ("matrix",), side=n)[0]
    basis = [np.eye(n, dtype=dtype)]
    power = np.eye(n, dtype=dtype)
    for _ in range(spec.max_power):
        power = _products(power, A)[0]
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
    ``contains_identity`` is the membership rule on the projection of I
    (``core._identity_part``);
    ``inverse_closed`` comes from the algebraic structure of the kind.
    """
    check_field(spec.field)
    tols = tols or Tolerances()
    n = _check_int("n", spec.n, 1)
    dtype = dtype_for(spec.field)
    if spec.kind == "krylov":
        basis, inverse_closed = _krylov(spec, dtype, tols)
    elif spec.kind in _KINDS:
        build, closed, check = _KINDS[spec.kind]
        if check is not None:
            check(spec.kind, spec)
        basis = build(spec, *np.indices((n, n)), dtype)
        inverse_closed = closed(spec) if callable(closed) else closed
    else:
        raise BadParameters(f"unknown catalog kind {spec.kind!r}")

    S = subspace_from_matrices(basis, field=spec.field, tols=tols)
    flags = {
        "inverse_closed": inverse_closed,
        "contains_identity": _identity_part(S) is not None,
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
    prod = d * d[::-1]
    a = np.abs(prod)
    j, k = np.indices((n, n))
    close = np.abs(prod[j] - prod[k]) <= rel_tol * np.maximum(np.maximum(a[j], a[k]), 1.0)
    return not np.any(close & (k != j) & (k != n - 1 - j))
