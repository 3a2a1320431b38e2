"""Geometry of the set of products of two matrix subspaces.

The central objects are the bilinear product map (V1, V2) -> V1 V2 restricted
to a subspace pair, the linearization (smallest subspace containing all such
products), tangent spaces of the image, and a curvature measure whose
vanishing at a single generic point certifies that the closure of the product
set is flat, i.e. equals its linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    MatrixSubspace,
    _basis_array,
    _products,
    _subspace_from_stack,
    _vec_columns,
    as_square_matrix,
    check_same_space,
    dtype_for,
    matrix_rank,
    random_element,
    require_member,
    subspaces_equal,
)
from .errors import FieldMismatch, SizeMismatch, ZeroSubspace

# Extra samples allowed beyond the requested trials so a curved verdict is
# backed by at least three agreeing max-rank observations.
_CURVED_CONFIRMATIONS = 3
_MAX_EXTRA_TRIALS = 25


@dataclass(frozen=True)
class ProductAnalysis:
    """Sampled-rank report on the product set of a subspace pair.

    ``flat`` is true exactly when some sampled point attains the
    linearization dimension; a curved verdict is a sampled claim backed by
    at least three trials agreeing on the maximal observed rank.
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


def _linearization(S1: MatrixSubspace, S2: MatrixSubspace) -> Tuple[MatrixSubspace, np.ndarray]:
    """The linearization and its (n*n, S1.dim * S2.dim) stack of vectorized
    basis products, in the order of its ``raw_basis``."""
    check_same_space(S1, S2)
    P = _products(_basis_array(S1)[:, None], _basis_array(S2)[None])
    if not len(P):
        P = np.zeros((1, S1.n, S1.n), dtype=dtype_for(S1.field))
    stack = _vec_columns(P)
    return _subspace_from_stack(stack, S1.n, S1.field, tuple(P), S1.tols), stack


def linearization(S1: MatrixSubspace, S2: MatrixSubspace) -> MatrixSubspace:
    """Smallest subspace containing every product V1 V2.

    Computed as the span of all pairwise products of the orthonormal basis
    matrices of the factors; ``raw_basis[s * S2.dim + t]`` is the product of
    the s-th and t-th of them.
    """
    return _linearization(S1, S2)[0]


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
    """Rank of the product map at (V1, V2): the tangent space dimension,
    from the singular values of the tangent stack alone."""
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


def sample_pair(S1: MatrixSubspace, S2: MatrixSubspace, seed: int):
    """Deterministic generic point of the pair: seeds (seed, seed + 1)."""
    return random_element(S1, seed), random_element(S2, seed + 1)


def flatness_test(
    S1: MatrixSubspace, S2: MatrixSubspace, trials: int = 5, seed: int = 0
) -> ProductAnalysis:
    """Sampled flatness verdict for the product set of (S1, S2).

    One sampled point whose rank reaches the linearization dimension proves
    flatness.  Otherwise the verdict is curved, and sampling continues past
    ``trials`` (bounded) until at least three points agree on the maximal
    observed rank.  Per-trial seeds are ``seed + 2 t`` for the first factor
    and ``seed + 2 t + 1`` for the second, so reports are reproducible and
    individual points can be regenerated with :func:`sample_pair`.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if S1.dim == 0 or S2.dim == 0:
        raise ZeroSubspace("flatness analysis requires nonzero subspaces")
    lin = linearization(S1, S2)
    ranks = []

    def run_trial(t: int) -> int:
        s_t = seed + 2 * t
        V1, V2 = sample_pair(S1, S2, s_t)
        r = product_map_rank(S1, S2, V1, V2)
        ranks.append((s_t, r))
        return r

    flat = False
    for t in range(trials):
        flat = run_trial(t) == lin.dim or flat
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
