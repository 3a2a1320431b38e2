"""Two-dimensional normal forms, minrank, and closedness certificates.

A nonsingular two-dimensional subspace is equivalent to span{I, W1}; rank
questions about its elements then reduce to eigenvalue multiplicities of W1.
The generalized linear-fractional test decides when the product of two such
pencils closes up into a subspace of dimension at most three, with the
classical zero-product determinant identity for real symmetric pairs as the
special case (0, 0, 1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    REAL,
    MatrixSubspace,
    Tolerances,
    _as_square_stack,
    _check_int,
    _gaussian_coefficients,
    _members,
    _norm,
    _products,
    _ranks,
    _rng,
    _svd,
    check_same_space,
    dtype_for,
    matrix_rank,
    random_unit_element,
    vec,
)
from .errors import (
    ChainConditionViolated,
    NoInvertibleElementFound,
    NonFiniteInput,
    NotSymmetric,
    WrongDimension,
    ZeroScalar,
    ZeroSubspace,
)

# Relative gap below which eigenvalues are merged before multiplicity counting.
_EIG_CLUSTER_RTOL = 1e-6
# Search budgets: seeded members tried for an invertible one, sampled members
# and Nelder-Mead restarts of the minrank bound, alternations per probe start,
# and the probe minimum above which no zero-divisor pair is reported.
_INVERTIBLE_TRIES = 50
_MINRANK_SAMPLES = 120
_MINRANK_RESTARTS = 6
_PROBE_ALTERNATIONS = 60
_PROBE_THRESHOLD = 1e-6
# Entries of the product stack one block of probe starts may hold.
_PROBE_STACK_ENTRIES = 1 << 22


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
    yield from S.raw_basis.astype(dtype_for(S.field))
    yield from S.basis_matrices()
    for t in range(samples):
        yield random_unit_element(S, seed + t)


def _find_invertible_element(S: MatrixSubspace, seed: int = 0) -> np.ndarray:
    for cand in _candidates(S, _INVERTIBLE_TRIES, seed):
        if matrix_rank(cand, S.tols) == S.n:
            return cand
    raise NoInvertibleElementFound(
        f"no invertible element found in {_INVERTIBLE_TRIES} samples; "
        "this does not prove the subspace is singular"
    )


def _deflate_identity(C: np.ndarray) -> np.ndarray:
    """Component of C orthogonal to the identity in the trace inner product."""
    n = C.shape[0]
    return C - (np.trace(C) / n) * np.eye(n, dtype=C.dtype)


def _normal_form(S: MatrixSubspace, left: bool, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """(W, Y) with Y an invertible element of S and Y^{-1} S (``left``) or
    S Y^{-1} equal to span{I, W}: of the two basis members so moved and
    deflated of I, the larger by :func:`_norm`, the other being round-off.
    W has the scale of 1 / Y; :func:`_norm` tells the two apart where their
    squares underflow, so at any finite scale of S."""
    Y = _find_invertible_element(S, seed=seed)
    Yi = np.linalg.inv(Y)
    cands = [_deflate_identity(Yi @ B if left else B @ Yi) for B in S.basis_matrices()]
    return max(cands, key=_norm), Y


def normalize_pencil(S: MatrixSubspace, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Normal form of a nonsingular 2-dimensional subspace: S Y^{-1} = span{I, W1}.

    Returns (W1, Y) where Y is an invertible element of S.
    """
    _check_int("seed", seed, 0)
    if S.dim != 2:
        raise WrongDimension(f"pencil normalization needs dim 2, got {S.dim}")
    return _normal_form(S, left=False, seed=seed)


def normalize_pair(
    S1: MatrixSubspace, S2: MatrixSubspace, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Normal-form generators (X1, X2) with X S1 = span{I, X1}, S2 Y^{-1} = span{I, X2}.

    The first factor is normalized from the left by the inverse of one of its
    invertible elements, the second from the right.
    """
    _check_int("seed", seed, 0)
    check_same_space(S1, S2)
    if S1.dim != 2:
        raise WrongDimension(f"pair normalization needs dim 2, got {S1.dim} on side 1")
    X1, _ = _normal_form(S1, left=True, seed=seed)
    X2, _ = normalize_pencil(S2, seed=seed)
    return X1, X2


def find_lft_witness(X1, X2, tols: Optional[Tolerances] = None) -> Optional[LftWitness]:
    """Generalized linear-fractional witness, or None when the pair is generic.

    A witness exists exactly when {I, X1, X2, X1 X2} are linearly dependent,
    i.e. when the stacked columns [-X2, I, X1 X2, -X1] have numerical rank at
    most three.  The returned quadruple is the corresponding null direction.
    At n = 1 any four scalars are dependent: zero rows pad the stack to four,
    so a witness is always found.  A product X1 X2, or a column norm of the
    stack, past the largest float raises NonFiniteInput.
    """
    tols = tols or Tolerances()
    A, B = _as_square_stack((X1, X2), name=("X1", "X2"))
    n = A.shape[0]
    I = np.eye(n)
    K = np.column_stack([vec(-B), vec(I), vec(_products(A, B)[0]), vec(-A)]).astype(np.complex128)
    # Unit column scaling stabilizes the rank decision for badly scaled pairs.
    scales = _norm(K, axis=0)
    if not np.isfinite(scales).all():
        raise NonFiniteInput("a column norm of [-X2, I, X1 X2, -X1] overflowed to Inf")
    scales[scales < tols.abs_floor] = 1.0
    null = _svd(np.vstack([K / scales, np.zeros((max(0, 4 - n * n), 4))]), tols).null
    if null.shape[1] == 0:
        return None
    coeffs = null[:, -1] / scales
    coeffs = coeffs / np.linalg.norm(coeffs)
    sig = np.abs(coeffs)
    lead = int(np.argmax(sig > 1e-8 * sig.max()))
    coeffs = coeffs * (np.conj(coeffs[lead]) / abs(coeffs[lead]))
    if np.all(np.abs(coeffs.imag) < 1e-14):
        coeffs = coeffs.real.astype(np.complex128)
    a, b, c, d = (complex(x) for x in coeffs)
    residual = _norm(_products(A, c * B - d * I)[0] - (a * B - b * I))
    bound = tols.rel_rank_tol * (1.0 + _norm(A)) * (1.0 + _norm(B))
    if residual >= bound:
        # Rank test fired at the tolerance boundary but the relation fails.
        return None
    return LftWitness(a=a, b=b, c=c, d=d, residual=residual)


def _unit_copy(M: np.ndarray) -> Tuple[np.ndarray, float]:
    """A validated M divided by its :func:`_norm` (a zero M kept as it is), and the norm."""
    norm = _norm(M)
    return (M / norm if norm > 0 else M), norm


def _unit_bound(tols: Tolerances, floor: float, scale: float) -> float:
    """``rel_rank_tol * max(scale, floor)`` divided through by ``scale``.  A
    test ||F(X)|| <= rel_rank_tol max(scale, floor), with F(X) growing as
    ``scale`` does, is then made on unit-norm copies, whose products cannot
    overflow.  Infinite at scale 0, where a zero matrix passes every such
    test; a float scale overflows to inf and underflows to 0 silently."""
    return tols.rel_rank_tol * max(1.0, floor / scale) if scale > 0 else math.inf


def craig_sakamoto_check(
    X1, X2, grid: int = 9, tols: Optional[Tolerances] = None
) -> Tuple[bool, bool]:
    """Zero-product test and determinant-identity test for real symmetric pairs.

    Returns (zero_product, det_identity).  Every test is made on the copies
    of X1 and X2 scaled to unit Frobenius norm, with its bound divided
    through by the norms (see :func:`_unit_bound`), so it forms no product
    that can overflow and answers at any finite scale: X is symmetric when
    ||X - X^T|| < rel_rank_tol max(||X||, 1), and the product is zero when
    ||X1 X2|| <= rel_rank_tol max(||X1|| ||X2||, abs_floor).  The
    determinant identity det(I - t X1 - s X2) = det(I - t X1) det(I - s X2)
    is sampled on a grid-by-grid lattice over [-1, 1]^2; the two booleans
    agree on every symmetric pair (that is the theorem, so a disagreement
    indicates a numerical failure).
    """
    tols = tols or Tolerances()
    _check_int("grid", grid, 1)
    A, B = _as_square_stack((X1, X2), REAL, ("X1", "X2"))
    (As, na), (Bs, nb) = _unit_copy(A), _unit_copy(B)
    for name, U, norm in (("X1", As, na), ("X2", Bs, nb)):
        if np.linalg.norm(U - U.T) >= _unit_bound(tols, 1.0, norm):
            raise NotSymmetric(f"{name} is not symmetric within tolerance")
    zero_product = float(np.linalg.norm(As @ Bs)) <= _unit_bound(tols, tols.abs_floor, na * nb)
    I = np.eye(A.shape[0])
    pts = np.linspace(-1.0, 1.0, grid)[:, None, None]
    det_a = np.linalg.det(I - pts * As)
    det_b = np.linalg.det(I - pts * Bs)
    lhs = np.linalg.det(I - pts[:, None] * As - pts[None, :] * Bs)  # [t, s]
    rhs = det_a[:, None] * det_b[None, :]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    det_identity = not np.any(np.abs(lhs - rhs) > 1e-8 * scale)
    return zero_product, det_identity


def _cluster_eigenvalues(ev: np.ndarray, scale: float) -> list:
    """Merge eigenvalues with gaps small relative to ``scale``; returns cluster
    means, and a one-member cluster's own eigenvalue."""
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
    return [cl[0] if len(cl) == 1 else np.mean(cl) for cl in clusters]


def _minrank_dim2_eigen(S: MatrixSubspace, seed: int) -> MinrankReport:
    n = S.n
    W1, Y = normalize_pencil(S, seed=seed)
    ev = np.linalg.eigvals(W1)
    # W1 has the scale of 1 / Y: eigenvalue gaps and the ranks of W1 - lam I
    # are judged relative to ||W1||, so that no absolute floor decides them.
    unit = _norm(W1)
    clusters = _cluster_eigenvalues(ev, unit)
    if S.field == REAL:
        # complex eigenvalues are unreachable with real coefficients
        clusters = [lam.real for lam in clusters if abs(lam.imag) <= _EIG_CLUSTER_RTOL * unit]
    I = np.eye(n, dtype=W1.dtype)
    best_gm = 0
    if clusters:
        # Every shift ranked by one batched SVD; the first of maximal
        # multiplicity is kept.
        gms = n - _ranks((W1 - np.array(clusters)[:, None, None] * I) / unit, S.tols)
        k = int(np.argmax(gms))
        best_gm, best_lam = int(gms[k]), clusters[k]
    if best_gm == 0:
        return MinrankReport(value=n, certified=True, witness=Y / _norm(Y), method="dim2_eigen")
    witness = (W1 - best_lam * I) @ Y
    witness = witness / _norm(witness)
    return MinrankReport(
        value=n - best_gm, certified=True, witness=witness, method="dim2_eigen"
    )


def _minrank_sampled(S: MatrixSubspace, seed: int) -> MinrankReport:
    """Uncertified upper bound by sampling plus local descent on sigma_{r+1}.

    The basis members are tried before the samples, so a rank-one basis
    member bounds the result by one.  The first candidate of rank one ends
    the search, since no nonzero member has lower rank.  The witness has
    unit norm.
    """
    best_rank = S.n + 1
    best_witness = None
    for V in _candidates(S, _MINRANK_SAMPLES, seed):
        r = matrix_rank(V, S.tols)
        if 0 < r < best_rank:
            best_rank, best_witness = r, V / _norm(V)
            if r == 1:
                break
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
        # The package's one use of scipy.optimize: importing it here keeps its
        # import time and memory off every process that never descends.
        from scipy import optimize

        target = best_rank - 1

        def objective(theta: np.ndarray) -> float:
            V = unit_member(theta)
            if V is None:
                return 1e6
            return float(np.linalg.svd(V, compute_uv=False)[target])

        improved = False
        for rs in range(_MINRANK_RESTARTS):
            rng = _rng(seed + 10_000 + rs)
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


def minrank(S: MatrixSubspace, seed: int = 0) -> MinrankReport:
    """Minimum rank over nonzero members of S.

    Exact and certified for dim 1, and for nonsingular dim 2 via the
    eigenvalue multiplicities of the pencil normal form (over the real field
    only real eigenvalues are admissible).  Any other case yields a sampled
    upper bound, explicitly uncertified.
    """
    _check_int("seed", seed, 0)
    if S.dim == 0:
        raise ZeroSubspace("minrank needs a nonzero subspace")
    if S.dim == 1:
        B = S.basis_matrices()[0]
        return MinrankReport(
            value=matrix_rank(B, S.tols), certified=True, witness=B, method="dim1_exact"
        )
    if S.dim == 2:
        try:
            return _minrank_dim2_eigen(S, seed=seed)
        except NoInvertibleElementFound:
            pass
    return _minrank_sampled(S, seed=seed)


def _unit_coefficients(S: MatrixSubspace, seed: int) -> np.ndarray:
    """Seeded Gaussian coefficients against the orthonormal basis, unit norm."""
    c = _gaussian_coefficients(_rng(seed), S.dim, S.field)
    return c / np.linalg.norm(c)


def _smallest_singular(P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per stack of products ``P[s]`` (a (b, d, n, n) array), the smallest
    singular value of its vectorized columns and the coefficients of the
    matching unit combination."""
    b, d, n, _ = P.shape
    _, s, Vh = np.linalg.svd(P.transpose(0, 3, 2, 1).reshape(b, n * n, d), full_matrices=False)
    return s[:, -1], Vh[:, -1].conj()


def _probe_block(
    S1: MatrixSubspace, S2: MatrixSubspace, starts: range, seed: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate the given probe starts together, each until its value
    stops falling by 1e-15 or for ``_PROBE_ALTERNATIONS`` rounds.

    Returns each start's final value and its pair of members.
    """
    T1 = S1.basis_matrices()
    T2 = S2.basis_matrices()
    C1 = np.array([_unit_coefficients(S1, seed + start) for start in starts])
    val = np.full(len(C1), np.inf)
    V2 = np.empty((len(C1), S2.n, S2.n), dtype=dtype_for(S2.field))
    live = np.arange(len(C1))
    for _ in range(_PROBE_ALTERNATIONS):
        _, c2 = _smallest_singular(np.matmul(_members(S1, C1[live])[:, None], T2))
        V2[live] = _members(S2, c2)
        v, C1[live] = _smallest_singular(np.matmul(T1, V2[live][:, None]))
        falling = val[live] - v >= 1e-15
        val[live] = v
        live = live[falling]
        if live.size == 0:
            break
    return val, _members(S1, C1), V2


def zero_product_probe(
    S1: MatrixSubspace, S2: MatrixSubspace, budget: int = 100, seed: int = 0
) -> Tuple[float, Tuple[np.ndarray, np.ndarray]]:
    """Heuristic minimum of ||V1 V2||_F over unit-norm members.

    For fixed V1 the map from second-factor coefficients to the vectorized
    product is linear, so its minimal right singular vector is the optimal
    unit second factor; alternating the roles descends monotonically.  The
    probe restarts from at most ``budget`` seeded Gaussian points (start t
    draws with seed ``seed + t``) and returns the best value and pair found,
    the first start's on a tie.  Starts run together in blocks of doubling
    size (1, 2, 4, ...); the probe returns after the first block whose best
    value is below ``S1.tols.abs_floor``, since that minimum is round-off
    and more starts cannot change what it shows.
    """
    check_same_space(S1, S2)
    _check_int("budget", budget, 1)
    _check_int("seed", seed, 0)
    if S1.dim == 0 or S2.dim == 0:
        raise ZeroSubspace("probe needs nonzero subspaces")
    cap = max(1, _PROBE_STACK_ENTRIES // (S1.n ** 2 * max(S1.dim, S2.dim)))
    best_val = np.inf
    best_pair = None
    start, size = 0, 1
    while start < budget and best_val >= S1.tols.abs_floor:
        stop = start + min(size, cap, budget - start)
        val, V1, V2 = _probe_block(S1, S2, range(start, stop), seed)
        i = int(np.argmin(val))
        if val[i] < best_val:
            best_val = float(val[i])
            best_pair = (V1[i], V2[i])
        start, size = stop, 2 * size
    return best_val, best_pair


def closedness_certificate(
    S1: MatrixSubspace, S2: MatrixSubspace, budget: int = 100, seed: int = 0
) -> ClosednessCertificate:
    """Closedness evidence for the product set of (S1, S2).

    Proof branch: certified minranks summing above n.  Evidence branch: the
    zero-product probe's minimum over at most ``budget`` starts stayed above
    the fixed threshold 1e-6, recorded as ``details["probe_threshold"]``.
    ``Unknown`` does not assert non-closedness (products can be closed even
    with zero divisors present).  ``details["min_product_norm"]`` is the
    probe's minimum, reported as 0.0 when below ``S1.tols.abs_floor``.
    """
    check_same_space(S1, S2)
    _check_int("budget", budget, 1)
    _check_int("seed", seed, 0)
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
    # A minimum below the absolute floor is round-off, reported as exact zero.
    details["min_product_norm"] = min_norm if min_norm >= S1.tols.abs_floor else 0.0
    details["budget"] = budget
    details["probe_threshold"] = _PROBE_THRESHOLD
    if min_norm > _PROBE_THRESHOLD:
        return ClosednessCertificate(status="ClosedByZeroProductProbe", details=details)
    return ClosednessCertificate(status="Unknown", details=details)


def chain_factor(t, X: Sequence, tols: Optional[Tolerances] = None) -> list:
    """Factor t I + sum(X_j) as (t I + X_1)(I + X_2 / t) ... (I + X_k / t).

    Requires t != 0 and X_j X_l = 0 for every j < l; the cross terms in the
    expanded product then cancel exactly.  X_j X_l counts as zero when
    ||X_j X_l|| <= rel_rank_tol max(||X_j|| ||X_l||, abs_floor), tested on
    the unit-norm copies of the blocks (see :func:`_unit_bound`), so at any
    finite scale; ChainConditionViolated names the first pair, in the order
    (j, l), that is not.
    """
    tols = tols or Tolerances()
    t = complex(t)
    if t == 0:
        raise ZeroScalar("chain factorization needs a nonzero scalar")
    mats = _as_square_stack(X, name="X")
    n = mats.shape[-1]
    units = [_unit_copy(M) for M in mats]
    U, norms = np.array([u for u, _ in units]), [norm for _, norm in units]
    j, l = np.triu_indices(len(mats), 1)
    # The norms are Python floats: a product past the largest float is inf, silently.
    bound = [_unit_bound(tols, tols.abs_floor, norms[a] * norms[b]) for a, b in zip(j, l)]
    nonzero = np.linalg.norm(np.matmul(U[j], U[l]), axis=(1, 2)) > bound
    if nonzero.any():
        k = int(np.argmax(nonzero))
        raise ChainConditionViolated(f"X[{j[k]}] X[{l[k]}] is not numerically zero")
    if t.imag == 0 and not np.iscomplexobj(mats):
        t_eff: complex = t.real
        I = np.eye(n)
    else:
        t_eff = t
        I = np.eye(n, dtype=np.complex128)
    return [t_eff * I + mats[0], *(I + mats[1:] / t_eff)]
