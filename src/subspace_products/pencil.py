"""Two-dimensional normal forms, minrank, and closedness certificates.

A nonsingular two-dimensional subspace is equivalent to span{I, W1}; rank
questions about its elements then reduce to eigenvalue multiplicities of W1.
The generalized linear-fractional test decides when the product of two such
pencils closes up into a subspace of dimension at most three, with the
classical zero-product determinant identity for real symmetric pairs as the
special case (0, 0, 1, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from .core import (
    REAL,
    MatrixSubspace,
    Tolerances,
    _basis_array,
    _gaussian_coefficients,
    _vec_columns,
    as_square_matrix,
    check_same_space,
    matrix_rank,
    rank_from_singular_values,
    random_unit_element,
    vec,
)
from .errors import (
    ChainConditionViolated,
    NoInvertibleElementFound,
    NotSymmetric,
    SizeMismatch,
    WrongDimension,
    ZeroScalar,
    ZeroSubspace,
)

# Relative gap below which eigenvalues are merged before multiplicity counting.
_EIG_CLUSTER_RTOL = 1e-6


@dataclass(frozen=True)
class LftWitness:
    """Nontrivial constants (a, b, c, d) with X1 (c X2 - d I) = a X2 - b I.

    Normalized to unit Euclidean norm with the first significant entry made
    real and positive, so the witness is deterministic.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    residual: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])


@dataclass(frozen=True)
class MinrankReport:
    """Minimum rank over nonzero members, or an upper bound on it.

    ``certified`` is true only for the one-dimensional exact case and the
    two-dimensional eigenvalue-multiplicity method; the sampled method
    reports an upper bound.
    """

    value: int
    certified: bool
    witness: np.ndarray
    method: str  # dim1_exact | dim2_eigen | sampled_upper_bound


@dataclass(frozen=True)
class ClosednessCertificate:
    """Closedness evidence for a product set.

    ``ClosedByMinrankSum`` is a proof (certified minranks summing above n);
    ``ClosedByZeroProductProbe`` is probabilistic evidence that no zero
    divisor pair exists; ``Unknown`` asserts nothing.
    """

    status: str  # ClosedByMinrankSum | ClosedByZeroProductProbe | Unknown
    details: dict


def _candidates(S: MatrixSubspace, samples: int, seed: int):
    """Members to try in turn: the raw basis, the orthonormal basis, then
    ``samples`` seeded unit Gaussian members (seeds ``seed``, ``seed + 1``, ...)."""
    for B in S.raw_basis:
        yield B.astype(S.ortho_basis.dtype)
    yield from S.basis_matrices()
    for t in range(samples):
        yield random_unit_element(S, seed + t)


def _find_invertible_element(
    S: MatrixSubspace, max_tries: int = 50, seed: int = 0
) -> np.ndarray:
    for cand in _candidates(S, max_tries, seed):
        if matrix_rank(cand, S.tols) == S.n:
            return cand
    raise NoInvertibleElementFound(
        f"no invertible element found in {max_tries} samples; "
        "this does not prove the subspace is singular"
    )


def _deflate_identity(C: np.ndarray) -> np.ndarray:
    """Component of C orthogonal to the identity in the trace inner product."""
    n = C.shape[0]
    return C - (np.trace(C) / n) * np.eye(n, dtype=C.dtype)


def _normal_form(
    S: MatrixSubspace, left: bool, max_tries: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(W, Y) with Y an invertible element of S and Y^{-1} S (``left``) or
    S Y^{-1} equal to span{I, W}."""
    Y = _find_invertible_element(S, max_tries=max_tries, seed=seed)
    Yi = np.linalg.inv(Y)
    cands = [_deflate_identity(Yi @ B if left else B @ Yi) for B in S.basis_matrices()]
    return max(cands, key=np.linalg.norm), Y


def normalize_pencil(
    S: MatrixSubspace, max_tries: int = 50, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal form of a nonsingular 2-dimensional subspace: S Y^{-1} = span{I, W1}.

    Returns (W1, Y) where Y is an invertible element of S.
    """
    if S.dim != 2:
        raise WrongDimension(f"pencil normalization needs dim 2, got {S.dim}")
    return _normal_form(S, left=False, max_tries=max_tries, seed=seed)


def normalize_pair(
    S1: MatrixSubspace, S2: MatrixSubspace, max_tries: int = 50, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal-form generators (X1, X2) with X S1 = span{I, X1}, S2 Y^{-1} = span{I, X2}.

    The first factor is normalized from the left by the inverse of one of its
    invertible elements, the second from the right.
    """
    check_same_space(S1, S2)
    if S1.dim != 2:
        raise WrongDimension(f"pair normalization needs dim 2, got {S1.dim} on side 1")
    X1, _ = _normal_form(S1, left=True, max_tries=max_tries, seed=seed)
    X2, _ = normalize_pencil(S2, max_tries=max_tries, seed=seed)
    return X1, X2


def find_lft_witness(X1, X2, tols: Optional[Tolerances] = None) -> Optional[LftWitness]:
    """Generalized linear-fractional witness, or None when the pair is generic.

    A witness exists exactly when {I, X1, X2, X1 X2} are linearly dependent,
    i.e. when the stacked columns [-X2, I, X1 X2, -X1] have numerical rank at
    most three.  The returned quadruple is the corresponding null direction.
    """
    tols = tols or Tolerances()
    A = as_square_matrix(X1, name="X1")
    B = as_square_matrix(X2, name="X2")
    if A.shape != B.shape:
        raise SizeMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    n = A.shape[0]
    I = np.eye(n)
    K = np.column_stack([vec(-B), vec(I), vec(A @ B), vec(-A)]).astype(np.complex128)
    # Unit column scaling stabilizes the rank decision for badly scaled pairs.
    scales = np.linalg.norm(K, axis=0)
    scales[scales < tols.abs_floor] = 1.0
    Ks = K / scales
    _, s, Vh = np.linalg.svd(Ks, full_matrices=False)
    if rank_from_singular_values(s, tols) >= 4:
        return None
    coeffs = Vh[-1].conj() / scales
    coeffs = coeffs / np.linalg.norm(coeffs)
    sig = np.abs(coeffs)
    lead = int(np.argmax(sig > 1e-8 * sig.max()))
    coeffs = coeffs * (np.conj(coeffs[lead]) / abs(coeffs[lead]))
    if np.all(np.abs(coeffs.imag) < 1e-14):
        coeffs = coeffs.real.astype(np.complex128)
    a, b, c, d = (complex(x) for x in coeffs)
    residual = float(np.linalg.norm(A @ (c * B - d * I) - (a * B - b * I)))
    bound = tols.rel_rank_tol * (1.0 + np.linalg.norm(A)) * (1.0 + np.linalg.norm(B))
    if residual >= bound:
        # Rank test fired at the tolerance boundary but the relation fails.
        return None
    return LftWitness(a=a, b=b, c=c, d=d, residual=residual)


def craig_sakamoto_check(
    X1, X2, grid: int = 9, tols: Optional[Tolerances] = None
) -> Tuple[bool, bool]:
    """Zero-product test and determinant-identity test for real symmetric pairs.

    Returns (zero_product, det_identity).  The determinant identity
    det(I - t X1 - s X2) = det(I - t X1) det(I - s X2) is sampled on a
    grid-by-grid lattice over [-1, 1]^2 after scaling both matrices to unit
    Frobenius norm; the two booleans agree on every symmetric pair (that is
    the theorem, so a disagreement indicates a numerical failure).
    """
    tols = tols or Tolerances()
    A = as_square_matrix(X1, field=REAL, name="X1")
    B = as_square_matrix(X2, field=REAL, name="X2")
    if A.shape != B.shape:
        raise SizeMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    for name, M in (("X1", A), ("X2", B)):
        scale = max(1.0, np.linalg.norm(M))
        if np.linalg.norm(M - M.T) >= tols.rel_rank_tol * scale:
            raise NotSymmetric(f"{name} is not symmetric within tolerance")
    na, nb = float(np.linalg.norm(A)), float(np.linalg.norm(B))
    zero_product = float(np.linalg.norm(A @ B)) <= tols.rel_rank_tol * max(
        na * nb, tols.abs_floor
    )
    As = A / na if na > 0 else A
    Bs = B / nb if nb > 0 else B
    I = np.eye(A.shape[0])
    pts = np.linspace(-1.0, 1.0, grid)[:, None, None]
    det_a = np.linalg.det(I - pts * As)
    det_b = np.linalg.det(I - pts * Bs)
    lhs = np.linalg.det(I - pts[:, None] * As - pts[None, :] * Bs)  # [t, s]
    rhs = det_a[:, None] * det_b[None, :]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    det_identity = not np.any(np.abs(lhs - rhs) > 1e-8 * scale)
    return zero_product, det_identity


def _cluster_eigenvalues(ev: np.ndarray) -> list:
    """Merge eigenvalues with small relative gaps; returns cluster means."""
    scale = max(1.0, float(np.max(np.abs(ev))))
    thresh = _EIG_CLUSTER_RTOL * scale
    order = np.lexsort((ev.imag, ev.real))
    clusters = []
    for lam in ev[order]:
        for cl in clusters:
            if any(abs(lam - mu) < thresh for mu in cl):
                cl.append(lam)
                break
        else:
            clusters.append([lam])
    return [np.mean(cl) for cl in clusters]


def _minrank_dim2_eigen(S: MatrixSubspace, max_tries: int, seed: int) -> MinrankReport:
    n = S.n
    W1, Y = normalize_pencil(S, max_tries=max_tries, seed=seed)
    ev = np.linalg.eigvals(W1)
    scale = max(1.0, float(np.max(np.abs(ev))))
    best_gm = 0
    best_lam = None
    for lam in _cluster_eigenvalues(ev):
        if S.field == REAL and abs(lam.imag) > _EIG_CLUSTER_RTOL * scale:
            continue  # complex eigenvalues are unreachable with real coefficients
        lam_eff = lam.real if S.field == REAL else lam
        gm = n - matrix_rank(W1 - lam_eff * np.eye(n, dtype=W1.dtype), S.tols)
        if gm > best_gm:
            best_gm, best_lam = gm, lam_eff
    if best_gm == 0:
        witness = Y / np.linalg.norm(Y)
        return MinrankReport(value=n, certified=True, witness=witness, method="dim2_eigen")
    witness = (W1 - best_lam * np.eye(n, dtype=W1.dtype)) @ Y
    witness = witness / np.linalg.norm(witness)
    return MinrankReport(
        value=n - best_gm, certified=True, witness=witness, method="dim2_eigen"
    )


def _sigma_k(M: np.ndarray, k: int) -> float:
    """k-th largest singular value (1-based)."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[k - 1])


def _minrank_sampled(
    S: MatrixSubspace, samples: int, restarts: int, seed: int
) -> MinrankReport:
    """Uncertified upper bound by sampling plus local descent on sigma_{r+1}.

    The basis members are tried before the samples, so a rank-one basis
    member bounds the result by one.  The witness has unit norm.
    """
    best_rank = S.n + 1
    best_witness = None
    for V in _candidates(S, samples, seed):
        r = matrix_rank(V, S.tols)
        if 0 < r < best_rank:
            best_rank, best_witness = r, V / np.linalg.norm(V)
    d = S.dim
    real = S.field == REAL
    npar = d if real else 2 * d

    def unit_member(theta: np.ndarray) -> np.ndarray:
        """The unit-norm member for real parameters theta (real and
        imaginary coefficient parts over the complex field), or None near 0."""
        c = theta if real else theta[:d] + 1j * theta[d:]
        nc = np.linalg.norm(c)
        if nc < 1e-12:
            return None
        return S.element(c / nc)

    while best_rank > 1:
        target = best_rank - 1

        def objective(theta: np.ndarray) -> float:
            V = unit_member(theta)
            if V is None:
                return 1e6
            return _sigma_k(V, target + 1)

        improved = False
        for rs in range(restarts):
            rng = np.random.default_rng(seed + 10_000 + rs)
            theta0 = rng.standard_normal(npar)
            res = optimize.minimize(
                objective, theta0, method="Nelder-Mead",
                options={"maxiter": 400, "fatol": 1e-14, "xatol": 1e-10},
            )
            V = unit_member(res.x)
            if V is None:
                continue
            r = matrix_rank(V, S.tols)
            if 0 < r < best_rank:
                best_rank, best_witness = r, V
                improved = True
                break
        if not improved:
            break
    return MinrankReport(
        value=best_rank, certified=False, witness=best_witness, method="sampled_upper_bound"
    )


def minrank(
    S: MatrixSubspace,
    max_tries: int = 50,
    samples: int = 120,
    restarts: int = 6,
    seed: int = 0,
) -> MinrankReport:
    """Minimum rank over nonzero members of S.

    Exact and certified for dim 1, and for nonsingular dim 2 via the
    eigenvalue multiplicities of the pencil normal form (over the real field
    only real eigenvalues are admissible).  Any other case yields a sampled
    upper bound, explicitly uncertified.
    """
    if S.dim == 0:
        raise ZeroSubspace("minrank needs a nonzero subspace")
    if S.dim == 1:
        B = S.basis_matrices()[0]
        return MinrankReport(
            value=matrix_rank(B, S.tols), certified=True, witness=B, method="dim1_exact"
        )
    if S.dim == 2:
        try:
            return _minrank_dim2_eigen(S, max_tries=max_tries, seed=seed)
        except NoInvertibleElementFound:
            pass
    return _minrank_sampled(S, samples=samples, restarts=restarts, seed=seed)


def zero_product_probe(
    S1: MatrixSubspace,
    S2: MatrixSubspace,
    budget: int = 100,
    seed: int = 0,
    max_alternations: int = 60,
) -> Tuple[float, Tuple[np.ndarray, np.ndarray]]:
    """Heuristic minimum of ||V1 V2||_F over unit-norm members.

    For fixed V1 the map from second-factor coefficients to the vectorized
    product is linear, so its minimal right singular vector is the optimal
    unit second factor; alternating the roles descends monotonically.  The
    probe restarts from ``budget`` seeded Gaussian points and returns the
    best value and pair found.
    """
    check_same_space(S1, S2)
    if S1.dim == 0 or S2.dim == 0:
        raise ZeroSubspace("probe needs nonzero subspaces")
    T1 = _basis_array(S1)
    T2 = _basis_array(S2)

    best_val = np.inf
    best_pair = None
    for start in range(budget):
        c1 = _gaussian_coefficients(np.random.default_rng(seed + start), S1.dim, S1.field)
        c1 = c1 / np.linalg.norm(c1)
        prev = np.inf
        for _ in range(max_alternations):
            V1 = S1.element(c1)
            L2 = _vec_columns(np.matmul(V1, T2))
            _, s2, Vh2 = np.linalg.svd(L2, full_matrices=False)
            c2 = Vh2[-1].conj()
            V2 = S2.element(c2)
            L1 = _vec_columns(np.matmul(T1, V2))
            _, s1, Vh1 = np.linalg.svd(L1, full_matrices=False)
            c1 = Vh1[-1].conj()
            val = float(s1[-1])
            if prev - val < 1e-15:
                break
            prev = val
        V1 = S1.element(c1)
        if val < best_val:
            best_val = val
            best_pair = (V1, V2)
    return best_val, best_pair


def closedness_certificate(
    S1: MatrixSubspace,
    S2: MatrixSubspace,
    budget: int = 100,
    seed: int = 0,
    probe_threshold: float = 1e-6,
) -> ClosednessCertificate:
    """Closedness evidence for the product set of (S1, S2).

    Proof branch: certified minranks summing above n.  Evidence branch: the
    zero-product probe stayed above ``probe_threshold`` over its budget.
    ``Unknown`` does not assert non-closedness (products can be closed even
    with zero divisors present).
    """
    check_same_space(S1, S2)
    details: dict = {}
    reports = []
    for name, S in (("minrank1", S1), ("minrank2", S2)):
        if 1 <= S.dim <= 2:
            rep = minrank(S, seed=seed)
            reports.append(rep)
            details[name] = {"value": rep.value, "certified": rep.certified}
        else:
            reports.append(None)
    if (
        all(rep is not None and rep.certified for rep in reports)
        and reports[0].value + reports[1].value > S1.n
    ):
        return ClosednessCertificate(status="ClosedByMinrankSum", details=details)
    min_norm, _ = zero_product_probe(S1, S2, budget=budget, seed=seed)
    details["min_product_norm"] = min_norm
    details["budget"] = budget
    details["probe_threshold"] = probe_threshold
    if min_norm > probe_threshold:
        return ClosednessCertificate(status="ClosedByZeroProductProbe", details=details)
    return ClosednessCertificate(status="Unknown", details=details)


def chain_factor(t, X: Sequence, tols: Optional[Tolerances] = None) -> list:
    """Factor t I + sum(X_j) as (t I + X_1)(I + X_2 / t) ... (I + X_k / t).

    Requires t != 0 and X_j X_l = 0 for every j < l; the cross terms in the
    expanded product then cancel exactly.
    """
    tols = tols or Tolerances()
    t = complex(t)
    if t == 0:
        raise ZeroScalar("chain factorization needs a nonzero scalar")
    if len(X) == 0:
        raise SizeMismatch("need at least one chain block")
    mats = [as_square_matrix(M, name=f"X[{j}]") for j, M in enumerate(X)]
    n = mats[0].shape[0]
    for j, M in enumerate(mats):
        if M.shape[0] != n:
            raise SizeMismatch(f"X[{j}] has side {M.shape[0]}, expected {n}")
    for j in range(len(mats)):
        for l in range(j + 1, len(mats)):
            bound = tols.rel_rank_tol * max(
                np.linalg.norm(mats[j]) * np.linalg.norm(mats[l]), tols.abs_floor
            )
            if np.linalg.norm(mats[j] @ mats[l]) > bound:
                raise ChainConditionViolated(
                    f"X[{j}] X[{l}] is not numerically zero"
                )
    if t.imag == 0 and all(not np.iscomplexobj(M) for M in mats):
        t_eff: complex = t.real
        I = np.eye(n)
    else:
        t_eff = t
        I = np.eye(n, dtype=np.complex128)
        mats = [M.astype(np.complex128) for M in mats]
    factors = [t_eff * I + mats[0]]
    factors.extend(I + M / t_eff for M in mats[1:])
    return factors
