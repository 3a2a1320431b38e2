"""Geometry of the set of products of two matrix subspaces.

The central objects are the bilinear product map (V1, V2) -> V1 V2 restricted
to a subspace pair, the linearization (smallest subspace containing all such
products), tangent spaces of the image, and a curvature measure whose
vanishing at a single generic point certifies that the closure of the product
set is flat, i.e. equals its linearization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    MatrixSubspace,
    _as_square_stack,
    _basis_products,
    _certified_full_rank,
    _check_int,
    _complexified,
    _full_space,
    _identity_part,
    _norm,
    _products,
    _real_form,
    _rng,
    _sampled_products,
    _subspace_from_stack,
    _vec_columns,
    _with_basis,
    check_same_space,
    matrix_rank,
    random_element,
    require_member,
    subspaces_equal,
)
from .errors import ZeroSubspace

_log = logging.getLogger("subspace_products")

# Extra samples allowed beyond the requested trials so a curved verdict is
# backed by at least three agreeing max-rank observations.
_CURVED_CONFIRMATIONS = 3
_MAX_EXTRA_TRIALS = 25
# Oversampling of the sketched linearization: a block of sampled products
# whose rank falls this far short of their number has stalled.
_SKETCH_OVERSAMPLING = 8


@dataclass(frozen=True)
class ProductAnalysis:
    """Sampled-rank report on the product set of a subspace pair.

    ``flat`` is true exactly when some sampled point attains the
    linearization dimension; a curved verdict is a sampled claim backed by
    at least three trials agreeing on the maximal observed rank.  The
    points are those of :func:`sample_pair`, near I in each factor that
    contains I; for a complex pair whose factors both have real bases,
    those of its real forms (see :func:`flatness_test`).
    ``sampled_ranks`` lists every trial as (seed, rank); it
    ends at the first of rank ``lin_dim``, so on a flat pair ``trials`` can
    fall below the number requested.

    ``lin_basis_ref`` is the linearization.  When trial 0 has rank n^2 it
    is the whole matrix space: its ``raw_basis`` holds the n^2 matrix units
    in column-major order.  Otherwise it is spanned by sampled products of
    Gaussian members, drawn in blocks until their rank stalls at least
    ``_SKETCH_OVERSAMPLING`` (8) below their number; its ``raw_basis``
    holds those products, not the basis products ``B_s C_t`` of
    :func:`linearization`, except when there are no more basis products
    than a block would draw and every one of them is used.  For a complex
    pair with real bases it is that of the real forms, complexified.
    """

    lin_dim: int
    lin_basis_ref: MatrixSubspace
    sampled_ranks: Tuple[Tuple[int, int], ...]
    generic_rank: int
    flat: bool
    trials: int
    tol_used: float

    def to_dict(self) -> dict:
        return {
            "lin_dim": self.lin_dim,
            "generic_rank": self.generic_rank,
            "flat": self.flat,
            "sampled_ranks": [[int(s), int(r)] for s, r in self.sampled_ranks],
            "trials": self.trials,
            "tol_used": self.tol_used,
        }


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature measure evaluated at one base point and direction pair.

    ``q_value`` is orthogonal to the tangent space at the base point;
    ``q_norm`` is its Frobenius norm, the extrinsic curvature of the
    geodesic through the base product with the corresponding speed vector.
    """

    base_point: Tuple[np.ndarray, np.ndarray]
    tangent_dim: int
    q_value: np.ndarray
    q_norm: float


def product_map(V1, V2) -> np.ndarray:
    """The matrix product V1 V2 of two validated square matrices of one
    side; a product that overflows raises NonFiniteInput, as a NaN or Inf
    entry of V1 or V2 does."""
    return _products(*_as_square_stack((V1, V2), name=("V1", "V2")))[0]


def linearization(S1: MatrixSubspace, S2: MatrixSubspace) -> MatrixSubspace:
    """Smallest subspace containing every product V1 V2.

    Computed as the span of all pairwise products of the orthonormal basis
    matrices of the factors; ``raw_basis[s * S2.dim + t]`` is the product of
    the s-th and t-th of them.  Like every span, one of all n-by-n matrices
    has the identity as ``ortho_basis``: the matrix units in column-major
    order.
    """
    return _subspace_from_stack(_basis_products(S1, S2), S1.field, S1.tols).subspace


def _sketched_linearization(
    S1: MatrixSubspace, S2: MatrixSubspace, rng: np.random.Generator
) -> MatrixSubspace:
    """The linearization, spanned by products X_i Y_i of Gaussian members
    instead of all S1.dim * S2.dim basis products.

    Generic points of an irreducible variety (here the closure of the
    product set) are linearly independent up to the dimension of its span,
    so a block of products whose rank stays at least ``_SKETCH_OVERSAMPLING``
    below their number has stalled at the full dimension.  The first block
    draws S1.dim + S2.dim + ``_SKETCH_OVERSAMPLING`` products.  If it has
    not stalled, a second block tops it up to n^2 + ``_SKETCH_OVERSAMPLING``,
    past the largest possible rank; the first block is spanned only when
    :func:`~subspace_products.core._certified_full_rank` does not prove it
    of full rank, which a block that has stalled never is.  When there are
    no more basis products than a block would draw, every basis product is
    used instead.  The one span kernel,
    :func:`~subspace_products.core._subspace_from_stack`, spans each block,
    so the span's ``raw_basis`` holds the products.
    """
    check_same_space(S1, S2)
    n, d1, d2 = S1.n, S1.dim, S2.dim
    first = d1 + d2 + _SKETCH_OVERSAMPLING
    top_up = n * n + _SKETCH_OVERSAMPLING
    if d1 * d2 <= first:
        P = _basis_products(S1, S2)
    else:
        P = _sampled_products(S1, S2, rng, first)
        # Each row of P.reshape is a product, vectorized by rows: a block
        # proven of full rank that way has not stalled and needs no span.
        proven = first < n * n and _certified_full_rank(P.reshape(first, n * n), S1.tols)
        lin = None if proven else _subspace_from_stack(P, S1.field, S1.tols).subspace
        _log.debug("sketch block: %d products, rank %d", first, first if proven else lin.dim)
        if not proven and lin.dim <= first - _SKETCH_OVERSAMPLING:
            return lin
        if d1 * d2 <= top_up:
            P = _basis_products(S1, S2)
        else:
            P = np.concatenate([P, _sampled_products(S1, S2, rng, top_up - first)])
    lin = _subspace_from_stack(P, S1.field, S1.tols).subspace
    _log.debug(
        "sketch span past n^2: %d products, rank %d, %s",
        len(P), lin.dim, "full" if lin.dim == n * n else "proper",
    )
    return lin


def _member_point(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> Tuple[np.ndarray, ...]:
    """The point (V1, V2), each validated once as a member of its factor."""
    check_same_space(S1, S2)
    return require_member(S1, V1, name="V1"), require_member(S2, V2, name="V2")


def _tangent_products(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> np.ndarray:
    """The products V1 C_t, then B_s V2, over the orthonormal basis matrices
    C_t of S2 and B_s of S1, at a member point (V1, V2)."""
    return np.concatenate([_with_basis(S2, V1, left=True), _with_basis(S1, V2, left=False)])


def _tangent_at(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2):
    """The point (V1, V2), each validated once as a member of its factor,
    and the span T of V1 S2 + S1 V2 there, spanned once: (point, T)."""
    point = _member_point(S1, S2, V1, V2)
    return point, _subspace_from_stack(_tangent_products(S1, S2, *point), S1.field, S1.tols).subspace


def _normal_part(T: MatrixSubspace, W1, W2, W1t, W2t) -> np.ndarray:
    """(I - P)(W1 W2t + W1t W2), with P the projection onto the tangent
    space T, for directions W1, W1t in S1 and W2, W2t in S2 given as
    validated matrices; they are not tested for membership again."""
    return T.project_out(_products(W1, W2t)[0] + _products(W1t, W2)[0])


def tangent_space(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> MatrixSubspace:
    """Span of V1 S2 + S1 V2 at a member point (V1, V2).

    Its dimension is the rank of the product map at the point.
    """
    return _tangent_at(S1, S2, V1, V2)[1]


def product_map_rank(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> int:
    """Rank of the product map at (V1, V2): the tangent space dimension.

    It is :func:`~subspace_products.core.matrix_rank` of the tangent stack,
    so a stack with more than n^2 columns first tries the full-rank
    certificate.  With n^2 columns or fewer the rank is below n^2, since
    (V1, -V2) is in the kernel of the tangent map.
    """
    P = _tangent_products(S1, S2, *_member_point(S1, S2, V1, V2))
    return matrix_rank(_vec_columns(P), S1.tols)


def curvature_measure(
    S1: MatrixSubspace, S2: MatrixSubspace, V1, V2, W1, W2
) -> CurvatureSample:
    """Twice the component of W1 W2 orthogonal to the tangent space at (V1, V2).

    It is :func:`second_fundamental_form` at equal arguments, bit for bit:
    W1 W2 + W1 W2 doubles exactly in floating point.
    """
    point, T = _tangent_at(S1, S2, V1, V2)
    W1a = require_member(S1, W1, name="W1")
    W2a = require_member(S2, W2, name="W2")
    q = _normal_part(T, W1a, W2a, W1a, W2a)
    return CurvatureSample(base_point=point, tangent_dim=T.dim, q_value=q, q_norm=_norm(q))


def second_fundamental_form(
    S1: MatrixSubspace, S2: MatrixSubspace, V1, V2, W1, W2, W1t, W2t
) -> np.ndarray:
    """Polarized curvature form: (I - P)(W1 W2t + W1t W2).

    Symmetric under swapping (W1, W2) with (W1t, W2t); at equal arguments it
    reproduces the curvature measure.
    """
    T = tangent_space(S1, S2, V1, V2)
    W1a = require_member(S1, W1, name="W1")
    W2a = require_member(S2, W2, name="W2")
    W1b = require_member(S1, W1t, name="W1t")
    W2b = require_member(S2, W2t, name="W2t")
    return _normal_part(T, W1a, W2a, W1b, W2b)


def _generic_point(S: MatrixSubspace, seed: int, P: Optional[np.ndarray]) -> np.ndarray:
    """The seeded Gaussian member X of S, shifted to P + X / (2 ||X||_2)
    when S contains the identity, with P from
    :func:`~subspace_products.core._identity_part`.

    The shifted point has singular values in [1/2, 3/2], so a generic rank
    survives the relative rank cutoff even where Gaussian members are
    ill-conditioned, as triangular ones are (condition number ~ 2^n).  It
    is still generic: a rank drops only on a proper algebraic set, which a
    random line through I meets in finitely many points.  ||X||_2 is the
    largest singular value, the one ``np.linalg.norm(X, 2)`` computes.
    Either point is a member of S by construction.
    """
    X = random_element(S, seed)
    if P is None:
        return X
    return P + X / (2.0 * np.linalg.svd(X, compute_uv=False)[0])


def sample_pair(S1: MatrixSubspace, S2: MatrixSubspace, seed: int):
    """Deterministic generic point of the pair, the one a flatness trial
    samples: seeds (seed, seed + 1).  A flatness trial on a complex pair
    whose factors both have real bases samples the point of its real forms
    instead (see :func:`flatness_test`); this function always samples in
    the pair's own field.

    Each factor is its seeded Gaussian member (:func:`random_element`),
    shifted toward the identity when the factor contains I (see
    :func:`_generic_point`); for isotropic directions use
    :func:`random_element` directly.  The seed is checked first, then the
    pair, as :func:`flatness_test` checks them.
    """
    _check_int("seed", seed, 0)
    check_same_space(S1, S2)
    return (
        _generic_point(S1, seed, _identity_part(S1)),
        _generic_point(S2, seed + 1, _identity_part(S2)),
    )


def flatness_test(
    S1: MatrixSubspace, S2: MatrixSubspace, trials: int = 5, seed: int = 0
) -> ProductAnalysis:
    """Sampled flatness verdict for the product set of (S1, S2).

    Sampling stops at the first trial whose rank reaches the linearization
    dimension ``lin_dim``, which proves flatness.  Otherwise the verdict is
    curved, and sampling continues past ``trials`` (at most 25 more)
    until three points agree on the maximal observed rank.  Trial t
    samples the point of :func:`sample_pair` at seed ``seed + 2 t`` (of the
    real forms for a complex pair with real bases; see below), so
    reports are reproducible: near I in a factor that contains I, at
    P + X / (2 ||X||_2), and at its Gaussian member X in any other factor.
    The pair is checked on entry; the trial points are members by
    construction, so no trial makes a membership test.

    The linearization is fixed after trial 0, whose tangent space
    V1 S2 + S1 V2 lies in it.  A rank of n^2 settles it as the whole matrix
    space, with the matrix units as basis, and no sketch is needed.
    Otherwise sampled products drawn from a generator of its own, seeded
    with ``seed``, span it, so the trial ranks do not depend on it (see
    :class:`ProductAnalysis`).

    A complex pair whose factors both have real bases (see
    :func:`~subspace_products.core._real_form`) is the complexification of
    its real forms, and is decided in them at the cost of the real field:
    each minor of the tangent stack is a polynomial with real coefficients,
    which vanishes on all real points only if it is zero, so the generic
    rank and the linearization dimension are those of the real forms.  Its
    trial points and sketch are those of the real forms, drawn with the
    same seeds: their coefficients are the real parts of the complex draws.
    ``lin_basis_ref`` is the real forms' linearization, complexified.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    if S1.dim == 0 or S2.dim == 0:
        raise ZeroSubspace("flatness analysis requires nonzero subspaces")
    check_same_space(S1, S2)
    R1 = _real_form(S1)
    R2 = _real_form(S2) if R1 is not None else None
    if R2 is None:
        return _sampled_flatness(S1, S2, trials, seed)
    _log.debug("S1 and S2 have real bases: the verdict is decided in their real forms")
    report = _sampled_flatness(R1, R2, trials, seed)
    return replace(report, lin_basis_ref=_complexified(report.lin_basis_ref))


def _sampled_flatness(
    S1: MatrixSubspace, S2: MatrixSubspace, trials: int, seed: int
) -> ProductAnalysis:
    """The trial loop and sketch of :func:`flatness_test`, for a checked pair."""
    # Each factor's identity test and P(I), once for every trial point.
    P1, P2 = _identity_part(S1), _identity_part(S2)
    for k, P in enumerate((P1, P2), 1):
        if P is not None:
            _log.debug("S%d contains I: its trial points are P(I) + X / (2 ||X||_2)", k)
    ranks = []
    for t in range(trials + _MAX_EXTRA_TRIALS):
        s_t = seed + 2 * t
        T = _tangent_products(S1, S2, _generic_point(S1, s_t, P1), _generic_point(S2, s_t + 1, P2))
        r = matrix_rank(_vec_columns(T), S1.tols)
        ranks.append((s_t, r))
        if t == 0:
            lin = (
                _full_space(S1.n, S1.field, S1.tols)
                if r == S1.n**2
                else _sketched_linearization(S1, S2, _rng(seed))
            )
        top = max(q for _, q in ranks)
        if r == lin.dim:
            stop = f"trial seed {s_t} reaches rank lin_dim = {lin.dim}"
            break
        if t + 1 >= trials and sum(q == top for _, q in ranks) >= _CURVED_CONFIRMATIONS:
            stop = f"{_CURVED_CONFIRMATIONS} trials agree on rank {top}"
            break
    else:
        stop = f"the cap of {len(ranks)} trials is reached"
    _log.debug("sampling stops: %s", stop)
    return ProductAnalysis(
        lin_dim=lin.dim,
        lin_basis_ref=lin,
        sampled_ranks=tuple(ranks),
        generic_rank=top,
        flat=top == lin.dim,
        trials=len(ranks),
        tol_used=S1.tol,
    )


def factorizability_check(
    W: MatrixSubspace,
    S1: MatrixSubspace,
    S2: MatrixSubspace,
    trials: int = 5,
    seed: int = 0,
):
    """Does the pair (S1, S2) factor W as the closure of its product set?

    True requires (a) the linearization of the products to equal W, (b) a
    flat verdict, and (c) the dimension window: both factor dimensions above
    one and below dim W.
    """
    _check_int("seed", seed, 0)
    check_same_space(S1, S2)
    check_same_space(W, S1)
    report = flatness_test(S1, S2, trials=trials, seed=seed)
    dims_ok = 1 < min(S1.dim, S2.dim) and max(S1.dim, S2.dim) < W.dim
    verdict = dims_ok and report.flat and subspaces_equal(report.lin_basis_ref, W)
    return verdict, report
