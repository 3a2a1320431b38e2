"""Independent oracles for the benchmark's correctness checks.

Nothing here calls the package: every expected value comes from theory, an
exact computation, or a construction whose answer is known in advance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# 2**31 - 1, a Mersenne prime: residues fit in 31 bits, so the product of two
# residues fits in a signed 64-bit integer.
PRIME = 2_147_483_647


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int = PRIME) -> np.ndarray:
    """(A @ B) mod p for int64 residues, without int64 overflow.

    A is split into 16-bit halves so each partial product stays below 2**47
    and each dot product of up to 2**15 terms below 2**62.
    """
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    if A.shape[-1] > 2**15:
        raise ValueError("inner dimension too large for the split product")
    hi, lo = A >> 16, A & 0xFFFF
    return (((hi @ B) % p) * 65536 + (lo @ B)) % p


def rank_mod_p(M: np.ndarray, p: int = PRIME) -> int:
    """Exact rank of an integer matrix over the field of p elements."""
    R = np.array(M, dtype=np.int64) % p
    rows, cols = R.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(R[rank:, c])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            R[[rank, piv]] = R[[piv, rank]]
        inv = pow(int(R[rank, c]), p - 2, p)
        R[rank] = (R[rank] * inv) % p
        below = R[rank + 1:, c].copy()
        hit = np.nonzero(below)[0]
        if hit.size:
            # Row update r <- r - f * pivot_row, with f and the row both < p.
            f = below[hit][:, None]
            R[rank + 1 + hit] = (R[rank + 1 + hit] - (f * R[rank]) % p) % p
        rank += 1
    return rank


def rank_fraction(M) -> int:
    """Exact rank over the rationals by Fraction elimination (slow; tests only)."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(M)]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def integer_basis(mats) -> np.ndarray:
    """Stack integer-valued spanning matrices as an (m, n, n) int64 array.

    Raises ValueError when an entry is not an integer, since the modular
    oracle would then not speak about the same subspace.
    """
    arr = np.array([np.asarray(M) for M in mats])
    if np.any(arr.imag != 0) or np.any(arr.real != np.round(arr.real)):
        raise ValueError("basis is not integer-valued")
    return arr.real.astype(np.int64)


def tangent_rank_mod_p(basis1, basis2, rng: np.random.Generator, p: int = PRIME) -> int:
    """Rank mod p of the product map's tangent space at a random integer point.

    The point is V1 = sum a_s B_s, V2 = sum b_t C_t with a, b uniform in F_p.
    The rank at any point over F_p is at most the rank at that integer point
    over Q, which is at most the generic rank; so a value equal to the
    linearization dimension proves the pair flat.
    """
    B = integer_basis(basis1) % p
    C = integer_basis(basis2) % p
    n = B.shape[1]
    a = rng.integers(0, p, size=B.shape[0], dtype=np.int64)
    b = rng.integers(0, p, size=C.shape[0], dtype=np.int64)
    V1 = matmul_mod(a[None, :], B.reshape(B.shape[0], -1), p).reshape(n, n)
    V2 = matmul_mod(b[None, :], C.reshape(C.shape[0], -1), p).reshape(n, n)
    gens = [matmul_mod(V1, Ct, p) for Ct in C] + [matmul_mod(Bs, V2, p) for Bs in B]
    stack = np.stack([g.reshape(-1, order="F") for g in gens])
    return rank_mod_p(stack, p)


# Closed-form dimensions for the catalog pairs of the flatness ladder, as
# functions of (n, k).  "lin" is the linearization dimension, "rank" the
# generic rank of the product map; a pair is flat exactly when they agree.
PAIR_THEORY = {
    "lu": {"lin": lambda n, k: n * n, "rank": lambda n, k: n * n},
    "sym_persym": {"lin": lambda n, k: n * n, "rank": lambda n, k: n * n},
    "circ_diag": {"lin": lambda n, k: n * n, "rank": lambda n, k: 2 * n - 1},
    "cols_rows": {"lin": lambda n, k: n * n, "rank": lambda n, k: 2 * n * k - k * k},
    "rows_cols": {"lin": lambda n, k: k * k, "rank": lambda n, k: k * k},
}


def crout_lu(A: np.ndarray):
    """A = L U with L lower triangular and U unit upper triangular.

    No pivoting: valid for strongly nonsingular A, where the factors are
    unique.
    """
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    L = np.zeros_like(A)
    U = np.eye(n)
    for j in range(n):
        for i in range(j, n):
            L[i, j] = A[i, j] - L[i, :j] @ U[:j, j]
        for k in range(j + 1, n):
            U[j, k] = (A[j, k] - L[j, :j] @ U[:j, k]) / L[j, j]
    return L, U


def lu_pattern_error(V1, V2, tol: float = 1e-8) -> str:
    """Empty string when V1 is lower triangular and V2 upper triangular with a
    constant nonzero diagonal, else the reason."""
    V1, V2 = np.asarray(V1), np.asarray(V2)
    if np.linalg.norm(np.triu(V1, 1)) > tol * max(1.0, np.linalg.norm(V1)):
        return "V1 is not lower triangular"
    if np.linalg.norm(np.tril(V2, -1)) > tol * max(1.0, np.linalg.norm(V2)):
        return "V2 is not upper triangular"
    d = np.diag(V2)
    if d[0] == 0 or np.max(np.abs(d - d[0])) > tol * abs(d[0]):
        return "V2 has no constant nonzero diagonal"
    return ""


def symmetric_error(V1, V2, tol: float = 1e-8) -> str:
    """Empty string when V1 and V2 are symmetric, else the reason."""
    for name, V in (("V1", np.asarray(V1)), ("V2", np.asarray(V2))):
        if np.linalg.norm(V - V.T) > tol * max(1.0, np.linalg.norm(V)):
            return f"{name} is not symmetric"
    return ""


def check_lu_factors(A, V1, V2, tol: float = 1e-8) -> str:
    """Empty string when (V1, V2) is the LU pair of A, else the reason.

    V1 must be lower triangular, V2 upper triangular with a constant
    diagonal u, V1 V2 must reproduce A, and (V1 u, V2 / u) must equal the
    Crout factors of A.
    """
    err = lu_pattern_error(V1, V2, tol) or check_product(A, V1, V2, tol)
    if err:
        return err
    V1, V2 = np.asarray(V1), np.asarray(V2)
    u = V2[0, 0]
    L, U = crout_lu(A)
    if np.linalg.norm(V1 * u - L) > tol * max(1.0, np.linalg.norm(A)) * max(1.0, np.linalg.norm(L)):
        return "first factor differs from the Crout L"
    if np.linalg.norm(V2 / u - U) > tol * max(1.0, np.linalg.norm(U)):
        return "second factor differs from the Crout U"
    return ""


def check_symmetric_factors(A, V1, V2, tol: float = 1e-8) -> str:
    """Empty string when V1, V2 are symmetric and V1 V2 reproduces A."""
    return symmetric_error(V1, V2, tol) or check_product(A, V1, V2, tol)


def check_product(A, V1, V2, tol: float = 1e-8) -> str:
    """Empty string when the relative residual of V1 V2 against A is below tol."""
    A = np.asarray(A)
    res = float(np.linalg.norm(np.asarray(V1) @ np.asarray(V2) - A) / max(1.0, np.linalg.norm(A)))
    return "" if res <= tol else f"relative residual {res:.2e}"


def numerical_rank(M, rel_tol: float = 1e-8) -> int:
    s = np.linalg.svd(np.asarray(M), compute_uv=False)
    return int(np.sum(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0


def combine(coeffs, mats) -> np.ndarray:
    """sum_i coeffs[i] * mats[i], accumulated in complex and kept real when it is."""
    out = np.zeros(np.asarray(mats[0]).shape, dtype=np.complex128)
    for c, M in zip(coeffs, mats):
        out += c * np.asarray(M)
    return out.real if not np.any(out.imag) else out


# ---------------------------------------------------------------------------
# Constructions with answers known in advance
# ---------------------------------------------------------------------------


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random invertible matrix with singular values in [1, 2]."""
    s = 1.0 + rng.random(n)
    return random_orthogonal(rng, n) @ np.diag(s) @ random_orthogonal(rng, n)


def spread_values(rng: np.random.Generator, count: int, gap: float = 0.25) -> np.ndarray:
    """`count` distinct reals in [-2, 2] with pairwise gaps of at least 0.9 `gap`."""
    slots = rng.permutation(int(4.0 / gap))[:count]
    return -2.0 + gap * slots + 0.1 * gap * rng.random(count)


def lft_pencils(rng: np.random.Generator, n: int, related: bool):
    """Spanning matrices of two 2-dimensional subspaces S1, S2, and (X1, X2).

    S2 = span{Y, X2 Y}, so S2 Y^-1 = span{I, X2}; S1 = span{Z, Z X1}, so
    Z^-1 S1 = span{I, X1}.  When ``related``, X1 = (a X2 - b I)(c X2 - d I)^-1
    and a linear-fractional witness exists; otherwise X1 is independent of
    X2 and none does.
    """
    I = np.eye(n)
    X2 = rng.standard_normal((n, n)) / np.sqrt(n)
    if related:
        while True:
            a, b, c, d = rng.standard_normal(4)
            den = c * X2 - d * I
            if abs(a * d - b * c) > 0.3 and np.linalg.cond(den) < 50.0:
                break
        X1 = (a * X2 - b * I) @ np.linalg.inv(den)
    else:
        X1 = rng.standard_normal((n, n)) / np.sqrt(n)
    Y, Z = well_conditioned(rng, n), well_conditioned(rng, n)
    return [Z, Z @ X1], [Y, X2 @ Y], X1, X2


def cs_pair(rng: np.random.Generator, n: int, zero_product: bool):
    """Real symmetric pair; with ``zero_product`` a common eigenbasis with
    disjoint supports makes X1 X2 = 0 up to rounding."""
    Q = random_orthogonal(rng, n)
    if zero_product:
        split = int(rng.integers(1, n))
        d1 = np.concatenate([spread_values(rng, split), np.zeros(n - split)])
        d2 = np.concatenate([np.zeros(split), spread_values(rng, n - split)])
        X1, X2 = Q @ np.diag(d1) @ Q.T, Q @ np.diag(d2) @ Q.T
        # Exact symmetry; X1 X2 = Q diag(d1 d2) Q^T = 0 up to rounding.
        return (X1 + X1.T) / 2, (X2 + X2.T) / 2
    G1, G2 = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return (G1 + G1.T) / 2, (G2 + G2.T) / 2


def pencil_with_multiplicity(rng: np.random.Generator, n: int, m: int):
    """(X, minrank) where X has one eigenvalue of geometric multiplicity m and
    n - m further simple eigenvalues, all real; minrank of span{I, X} is n - m."""
    vals = spread_values(rng, n - m + 1)
    diag = np.concatenate([np.full(m, vals[0]), vals[1:]])
    P = well_conditioned(rng, n)
    return P @ np.diag(diag) @ np.linalg.inv(P), n - m
