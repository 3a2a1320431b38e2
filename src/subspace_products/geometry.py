"""Geometry of the set of products of two matrix subspaces.

The central objects are the bilinear product map (V1, V2) -> V1 V2 restricted
to a subspace pair, the linearization (smallest subspace containing all such
products), tangent spaces of the image, and a curvature measure whose
vanishing at a single generic point certifies that the closure of the product
set is flat, i.e. equals its linearization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    MatrixSubspace,
    _basis_array,
    _check_count,
    _full_space,
    _gaussian_coefficients,
    _products,
    _subspace_from_stack,
    _subspace_unless_full,
    _vec_columns,
    as_square_matrix,
    check_same_space,
    dtype_for,
    matrix_rank,
    membership,
    random_element,
    require_member,
    subspaces_equal,
)
from .errors import FieldMismatch, SizeMismatch, ZeroSubspace

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
    contains I.  ``sampled_ranks`` lists every trial as (seed, rank); it
    ends at the first of rank n^2, so ``trials`` can fall below the number
    requested.

    ``lin_basis_ref`` is the linearization.  When a trial's rank is n^2 it
    is the whole matrix space: its ``raw_basis`` holds the n^2 matrix units
    in column-major order.  Otherwise it is spanned by sampled products of
    Gaussian members, drawn in blocks until their rank stalls at least
    ``_SKETCH_OVERSAMPLING`` (8) below their number; its ``raw_basis``
    holds those products, not the basis products ``B_s C_t`` of
    :func:`linearization`, except when there are no more basis products
    than a block would draw and every one of them is used.  Whenever it
    spans every n-by-n matrix, its ``ortho_basis`` is the identity.
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
    """The plain matrix product, with shape validation."""
    A = as_square_matrix(V1, name="V1")
    B = as_square_matrix(V2, name="V2")
    if A.shape != B.shape:
        raise SizeMismatch(f"factor shapes differ: {A.shape} vs {B.shape}")
    return A @ B


def _basis_products(S1: MatrixSubspace, S2: MatrixSubspace) -> np.ndarray:
    """The S1.dim * S2.dim products B_s C_t of the orthonormal basis matrices,
    as a (count, n, n) array in the order of :func:`linearization`'s
    ``raw_basis``; one zero matrix when either factor is zero."""
    check_same_space(S1, S2)
    P = _products(_basis_array(S1)[:, None], _basis_array(S2)[None])
    if not len(P):
        P = np.zeros((1, S1.n, S1.n), dtype=dtype_for(S1.field))
    return P


def _linearization(S1: MatrixSubspace, S2: MatrixSubspace) -> Tuple[MatrixSubspace, np.ndarray]:
    """The linearization and its (n*n, S1.dim * S2.dim) stack of vectorized
    basis products, in the order of its ``raw_basis``."""
    P = _basis_products(S1, S2)
    stack = _vec_columns(P)
    return _subspace_from_stack(stack, S1.n, S1.field, tuple(P), S1.tols), stack


def linearization(S1: MatrixSubspace, S2: MatrixSubspace) -> MatrixSubspace:
    """Smallest subspace containing every product V1 V2.

    Computed as the span of all pairwise products of the orthonormal basis
    matrices of the factors; ``raw_basis[s * S2.dim + t]`` is the product of
    the s-th and t-th of them.
    """
    return _linearization(S1, S2)[0]


def _sampled_products(
    S1: MatrixSubspace, S2: MatrixSubspace, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` products X_i Y_i of Gaussian members of S1 and S2."""
    d1 = S1.dim
    C = _gaussian_coefficients(rng, (count, d1 + S2.dim), S1.field)
    X = np.tensordot(C[:, :d1], _basis_array(S1), axes=1)
    Y = np.tensordot(C[:, d1:], _basis_array(S2), axes=1)
    return _products(X, Y)


def _sketched_linearization(
    S1: MatrixSubspace, S2: MatrixSubspace, rng: np.random.Generator
) -> MatrixSubspace:
    """The linearization, spanned by products X_i Y_i of Gaussian members
    instead of all S1.dim * S2.dim basis products.

    Generic points of an irreducible variety (here the closure of the
    product set) are linearly independent up to the dimension of its span,
    so a block of products whose rank stays at least ``_SKETCH_OVERSAMPLING``
    below their number has stalled at the full dimension.  The first block
    draws S1.dim + S2.dim + ``_SKETCH_OVERSAMPLING`` products and is spanned
    by :func:`~subspace_products.core._subspace_unless_full`, like every
    span here.  If it has not stalled, a second block tops it up to
    n^2 + ``_SKETCH_OVERSAMPLING``, past the largest possible rank.  When
    there are no more basis products than a block would draw, every basis
    product is used instead.  A span at least n^2 wide first tries the
    full-rank certificate, and otherwise one SVD spans it; a span of every
    n-by-n matrix gets the identity as ``ortho_basis`` (its ``raw_basis``
    still holds the products).
    """
    check_same_space(S1, S2)
    n, d1, d2 = S1.n, S1.dim, S2.dim
    first = d1 + d2 + _SKETCH_OVERSAMPLING
    top_up = n * n + _SKETCH_OVERSAMPLING
    if d1 * d2 <= first:
        P = _basis_products(S1, S2)
    else:
        P = _sampled_products(S1, S2, rng, first)
        lin = _subspace_unless_full(_vec_columns(P), n, S1.field, tuple(P), S1.tols)
        _log.debug("sketch block: %d products, rank %d", len(P), lin.dim)
        if lin.dim <= first - _SKETCH_OVERSAMPLING:
            return lin
        if d1 * d2 <= top_up:
            P = _basis_products(S1, S2)
        else:
            P = np.concatenate([P, _sampled_products(S1, S2, rng, top_up - first)])
    lin = _subspace_unless_full(_vec_columns(P), n, S1.field, tuple(P), S1.tols)
    _log.debug(
        "sketch span past n^2: %d products, rank %d, %s",
        len(P), lin.dim, "full" if lin.dim == n * n else "proper",
    )
    return lin


def _tangent_products(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> np.ndarray:
    """The products V1 C_t, then B_s V2, over the orthonormal basis matrices
    C_t of S2 and B_s of S1, at a validated member point (V1, V2)."""
    check_same_space(S1, S2)
    V1a = as_square_matrix(require_member(S1, V1, name="V1"), field=S1.field, name="V1")
    V2a = as_square_matrix(require_member(S2, V2, name="V2"), field=S1.field, name="V2")
    return np.concatenate(
        [_products(V1a, _basis_array(S2)), _products(_basis_array(S1), V2a)]
    )


def tangent_space(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> MatrixSubspace:
    """Span of V1 S2 + S1 V2 at a member point (V1, V2).

    Its dimension is the rank of the product map at the point.
    """
    P = _tangent_products(S1, S2, V1, V2)
    return _subspace_from_stack(_vec_columns(P), S1.n, S1.field, tuple(P), S1.tols)


def product_map_rank(S1: MatrixSubspace, S2: MatrixSubspace, V1, V2) -> int:
    """Rank of the product map at (V1, V2): the tangent space dimension.

    It is :func:`~subspace_products.core.matrix_rank` of the tangent stack,
    so a stack with more than n^2 columns first tries the full-rank
    certificate.  With n^2 columns or fewer the rank is below n^2, since
    (V1, -V2) is in the kernel of the tangent map.
    """
    return matrix_rank(_vec_columns(_tangent_products(S1, S2, V1, V2)), S1.tols)


def curvature_measure(
    S1: MatrixSubspace, S2: MatrixSubspace, V1, V2, W1, W2
) -> CurvatureSample:
    """Twice the component of W1 W2 orthogonal to the tangent space at (V1, V2)."""
    W1a = require_member(S1, W1, name="W1")
    W2a = require_member(S2, W2, name="W2")
    T = tangent_space(S1, S2, V1, V2)
    q = 2.0 * T.project_out(W1a @ W2a)
    return CurvatureSample(
        base_point=(as_square_matrix(V1), as_square_matrix(V2)),
        tangent_dim=T.dim,
        q_value=q,
        q_norm=float(np.linalg.norm(q)),
    )


def second_fundamental_form(
    S1: MatrixSubspace, S2: MatrixSubspace, V1, V2, W1, W2, W1t, W2t
) -> np.ndarray:
    """Polarized curvature form: (I - P)(W1 W2t + W1t W2).

    Symmetric under swapping (W1, W2) with (W1t, W2t); at equal arguments it
    reproduces the curvature measure.
    """
    W1a = require_member(S1, W1, name="W1")
    W2a = require_member(S2, W2, name="W2")
    W1b = require_member(S1, W1t, name="W1t")
    W2b = require_member(S2, W2t, name="W2t")
    T = tangent_space(S1, S2, V1, V2)
    return T.project_out(W1a @ W2b + W1b @ W2a)


def _contains_identity(S: MatrixSubspace) -> bool:
    return membership(S, np.eye(S.n)).inside


def _generic_point(S: MatrixSubspace, seed: int) -> np.ndarray:
    """The seeded Gaussian member X of S, shifted to P + X / (2 ||X||_2)
    when S contains the identity, with P the projection of I onto S.

    The shifted point has singular values in [1/2, 3/2], so a generic rank
    survives the relative rank cutoff even where Gaussian members are
    ill-conditioned, as triangular ones are (condition number ~ 2^n).  It
    is still generic: a rank drops only on a proper algebraic set, which a
    random line through I meets in finitely many points.
    """
    X = random_element(S, seed)
    if not _contains_identity(S):
        return X
    return S.project(np.eye(S.n)) + X / (2.0 * np.linalg.norm(X, 2))


def sample_pair(S1: MatrixSubspace, S2: MatrixSubspace, seed: int):
    """Deterministic generic point of the pair, the one a flatness trial
    samples: seeds (seed, seed + 1).

    Each factor is its seeded Gaussian member (:func:`random_element`),
    shifted toward the identity when the factor contains I (see
    :func:`_generic_point`); for isotropic directions use
    :func:`random_element` directly.
    """
    return _generic_point(S1, seed), _generic_point(S2, seed + 1)


def flatness_test(
    S1: MatrixSubspace, S2: MatrixSubspace, trials: int = 5, seed: int = 0
) -> ProductAnalysis:
    """Sampled flatness verdict for the product set of (S1, S2).

    One sampled point whose rank reaches the linearization dimension proves
    flatness.  Otherwise the verdict is curved, and sampling continues past
    ``trials`` (bounded) until at least three points agree on the maximal
    observed rank.  Per-trial seeds are ``seed + 2 t`` for the first factor
    and ``seed + 2 t + 1`` for the second, so reports are reproducible and
    individual points can be regenerated with :func:`sample_pair`: a
    factor that contains the identity is sampled near it, at
    P + X / (2 ||X||_2), and any other factor at its Gaussian member X.

    The first ``trials`` trials run before the linearization is spanned.
    Their tangent spaces V1 S2 + S1 V2 are spanned by products of members,
    so they lie in the linearization: a trial of rank n^2 settles it as the
    whole matrix space, with the matrix units as basis, and no product is
    spanned.  Since no rank exceeds n^2, sampling stops at that trial, and
    ``sampled_ranks`` ends with it.  Otherwise the linearization is spanned
    by sampled products drawn from a generator of its own, seeded with
    ``seed``, so the trial ranks do not depend on it (see
    :class:`ProductAnalysis`).
    """
    _check_count("trials", trials)
    if S1.dim == 0 or S2.dim == 0:
        raise ZeroSubspace("flatness analysis requires nonzero subspaces")
    ranks = []

    def run_trial(t: int) -> int:
        s_t = seed + 2 * t
        V1, V2 = sample_pair(S1, S2, s_t)
        r = product_map_rank(S1, S2, V1, V2)
        ranks.append((s_t, r))
        return r

    for k, S in enumerate((S1, S2), 1):
        if _contains_identity(S):
            _log.debug("S%d contains I: its trial points are P(I) + X / (2 ||X||_2)", k)
    full = S1.n**2
    for t in range(trials):
        if run_trial(t) == full:
            if t + 1 < trials:
                _log.debug(
                    "trial seed %d has rank n^2 = %d: the other %d trials are skipped",
                    ranks[-1][0], full, trials - t - 1,
                )
            break
    if ranks[-1][1] < full:
        lin = _sketched_linearization(S1, S2, np.random.default_rng(seed))
    else:
        _log.debug("trial seed %d has rank n^2 = %d: the linearization is M_n", ranks[-1][0], full)
        lin = _full_space(S1.n, S1.field, S1.tols)
    flat = any(r == lin.dim for _, r in ranks)
    t = trials
    while not flat and t < trials + _MAX_EXTRA_TRIALS:
        max_rank = max(r for _, r in ranks)
        if sum(1 for _, r in ranks if r == max_rank) >= _CURVED_CONFIRMATIONS:
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
    check_same_space(S1, S2)
    if W.n != S1.n:
        raise SizeMismatch(f"target side {W.n} does not match factors {S1.n}")
    if W.field != S1.field:
        raise FieldMismatch(f"target field {W.field} does not match factors {S1.field}")
    report = flatness_test(S1, S2, trials=trials, seed=seed)
    dims_ok = 1 < min(S1.dim, S2.dim) and max(S1.dim, S2.dim) < W.dim
    verdict = dims_ok and report.flat and subspaces_equal(report.lin_basis_ref, W)
    return verdict, report
