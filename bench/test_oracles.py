"""Tests of the benchmark's oracles: each must agree with an exact or
hand-checked answer, and must reject a wrong result.

Run from the root of a checkout: python3 -m pytest -q bench/test_oracles.py
"""

import numpy as np
import pytest

import oracles as orc


def test_rank_mod_p_matches_fraction_elimination():
    rng = np.random.default_rng(0)
    for n in range(1, 5):
        for _ in range(20):
            r = int(rng.integers(1, n + 1))
            M = rng.integers(-3, 4, size=(n, r)) @ rng.integers(-3, 4, size=(r, n + 1))
            assert orc.rank_mod_p(M) == orc.rank_fraction(M)


def test_rank_mod_p_sees_dependence():
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert orc.rank_mod_p(M) == orc.rank_fraction(M) == 2


def test_matmul_mod_matches_python_integers():
    rng = np.random.default_rng(1)
    A = rng.integers(0, orc.PRIME, size=(5, 7))
    B = rng.integers(0, orc.PRIME, size=(7, 3))
    exact = [[sum(int(A[i, k]) * int(B[k, j]) for k in range(7)) % orc.PRIME
              for j in range(3)] for i in range(5)]
    assert orc.matmul_mod(A, B).tolist() == exact


def _cell(n, i, j):
    E = np.zeros((n, n))
    E[i, j] = 1.0
    return E


def test_tangent_rank_mod_p_on_small_pairs():
    n = 3
    lower = [_cell(n, i, j) for i in range(n) for j in range(i + 1)]
    unit_upper = [np.eye(n)] + [_cell(n, i, j) for i in range(n) for j in range(i + 1, n)]
    diagonal = [_cell(n, i, i) for i in range(n)]
    shift = np.roll(np.eye(n), 1, axis=0)
    circulant = [np.linalg.matrix_power(shift, k) for k in range(n)]
    rng = np.random.default_rng(2)
    assert orc.tangent_rank_mod_p(lower, unit_upper, rng) == n * n
    assert orc.tangent_rank_mod_p(circulant, diagonal, rng) == 2 * n - 1
    with pytest.raises(ValueError):
        orc.tangent_rank_mod_p([0.5 * M for M in lower], unit_upper, rng)


def test_crout_on_hand_checked_3x3():
    A = np.array([[2.0, 4.0, -2.0], [1.0, 5.0, 2.0], [3.0, 7.0, 1.0]])
    L, U = orc.crout_lu(A)
    np.testing.assert_allclose(L, [[2, 0, 0], [1, 3, 0], [3, 1, 3]])
    np.testing.assert_allclose(U, [[1, 2, -1], [0, 1, 1], [0, 0, 1]])


def test_lu_check_accepts_scaled_factors_and_rejects_wrong_ones():
    A = np.array([[2.0, 4.0, -2.0], [1.0, 5.0, 2.0], [3.0, 7.0, 1.0]])
    L, U = orc.crout_lu(A)
    assert orc.check_lu_factors(A, L / 3.0, 3.0 * U) == ""
    assert "lower" in orc.check_lu_factors(A, L + _cell(3, 0, 2), U)
    assert "diagonal" in orc.check_lu_factors(A, L, U + _cell(3, 1, 1))
    wrong = L.copy()
    wrong[2, 1] += 1e-3
    assert "residual" in orc.check_lu_factors(A, wrong, U)


def test_symmetric_check_rejects_asymmetry_and_residual():
    rng = np.random.default_rng(3)
    G1, G2 = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    V1, V2 = G1 + G1.T, G2 + G2.T
    A = V1 @ V2
    assert orc.check_symmetric_factors(A, V1, V2) == ""
    assert "symmetric" in orc.check_symmetric_factors(A, V1 + _cell(4, 0, 1), V2)
    assert "residual" in orc.check_symmetric_factors(A + 1e-3, V1, V2)


def test_constructions_have_their_known_answers():
    rng = np.random.default_rng(4)
    n = 6
    X1, X2 = orc.cs_pair(rng, n, zero_product=True)
    assert np.linalg.norm(X1 @ X2) < 1e-12 and np.linalg.norm(X1) > 0.1
    X, known = orc.pencil_with_multiplicity(rng, n, 3)
    ranks = sorted(orc.numerical_rank(X - lam * np.eye(n)) for lam in np.linalg.eigvals(X).real)
    assert known == 3 and ranks[0] == known
    for related in (True, False):
        m1, m2, Y1, Y2 = orc.lft_pencils(rng, n, related)
        K = np.column_stack([M.reshape(-1) for M in (np.eye(n), Y1, Y2, Y1 @ Y2)])
        assert (orc.numerical_rank(K) == 3) == related
