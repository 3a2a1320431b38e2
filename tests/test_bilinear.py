import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    NoFactorization,
    SingularWitness,
    SizeMismatch,
    UnsupportedDegree,
    extract_bilinear,
    factor_via_inverse_closed,
    membership,
    model_from_bases,
    nullstellensatz_degree_bound,
    solve_bilinear,
    subspace_from_matrices,
    vec,
)
from helpers import catalog, cell, crout_lu, random_complex, strongly_nonsingular


def lft_pair(seed, n=3):
    """A two-dimensional pair whose product closure is three dimensional."""
    rng = np.random.default_rng(seed)
    X2 = random_complex(rng, n)
    a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    X1 = (a * X2 - b * np.eye(n)) @ np.linalg.inv(c * X2 - d * np.eye(n))
    return X1, X2, (a, b, c, d)


class TestExtractBilinear:
    def test_diagonal_pair_structure(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        assert (model.j, model.kmj, model.l) == (2, 2, 2)
        # each coefficient matrix has exactly one nonzero cell: products of
        # diagonal cells stay supported on single diagonal positions
        for Mr in model.M:
            assert np.sum(np.abs(Mr) > 1e-12) == 1

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            dims = rng.integers(2, 4, size=2)
            S1 = subspace_from_matrices([random_complex(rng, 3) for _ in range(dims[0])])
            S2 = subspace_from_matrices([random_complex(rng, 3) for _ in range(dims[1])])
            model = extract_bilinear(S1, S2)
            for s in range(model.j):
                for t in range(model.kmj):
                    prod = model.basis1[s] @ model.basis2[t]
                    recon = model.product_from_coordinates(
                        [Mr[s, t] for Mr in model.M]
                    )
                    assert np.linalg.norm(prod - recon) < 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_constants_are_one_array_matching_inner_products(self, field):
        S1 = catalog("lower_triangular", 3, field=field)
        S2 = catalog("symmetric", 3, field=field)
        model = extract_bilinear(S1, S2)
        assert isinstance(model.M, np.ndarray)
        assert model.M.shape == (model.l, model.j, model.kmj) == (9, 6, 6)
        assert model.M.dtype == (np.float64 if field == "real" else np.complex128)
        # Reference: one Frobenius inner product per coefficient.
        for s, B in enumerate(model.basis1):
            for t, C in enumerate(model.basis2):
                for r, W in enumerate(model.lin_basis):
                    assert abs(model.M[r, s, t] - np.vdot(vec(W), vec(B @ C))) < 1e-13
        z = np.linspace(-1.0, 1.0, model.j)
        np.testing.assert_allclose(
            model.matrix_at(z), np.vstack([z @ Mr for Mr in model.M]), atol=1e-14
        )

    def test_zero_factor_gives_empty_model(self):
        Z = subspace_from_matrices([np.zeros((2, 2))])
        D = catalog("diagonal", 2)
        for S1, S2, dims in ((Z, D, (0, 2, 0)), (D, Z, (2, 0, 0))):
            model = extract_bilinear(S1, S2)
            assert (model.j, model.kmj, model.l) == dims
            assert model.M.shape == (0, model.j, model.kmj) and len(model.M) == 0
            assert model.lin_basis == ()
            assert len(model.basis1) == model.j and len(model.basis2) == model.kmj

    def test_model_matches_product_map(self):
        rng = np.random.default_rng(1)
        S1 = catalog("lower_triangular", 3)
        S2 = catalog("unit_upper_constant_diagonal", 3)
        model = extract_bilinear(S1, S2)
        for _ in range(5):
            z = rng.standard_normal(model.j) + 1j * rng.standard_normal(model.j)
            w = rng.standard_normal(model.kmj) + 1j * rng.standard_normal(model.kmj)
            V1 = sum(zs * B for zs, B in zip(z, model.basis1))
            V2 = sum(wt * C for wt, C in zip(w, model.basis2))
            recon = model.product_from_coordinates(model.apply(z, w))
            assert np.linalg.norm(recon - V1 @ V2) < 1e-10


class TestModelFromBases:
    def test_three_dimensional_closure_constants(self):
        X1, X2, (a, b, c, d) = lft_pair(seed=5)
        n = 3
        I = np.eye(n)
        alphas = (d / c, a / c, -b / c)
        model = model_from_bases([X1, I], [X2, I], [X1, X2, I])
        expected = [
            np.array([[alphas[0], 1.0], [0.0, 0.0]]),
            np.array([[alphas[1], 0.0], [1.0, 0.0]]),
            np.array([[alphas[2], 0.0], [0.0, 1.0]]),
        ]
        for Mr, Er in zip(model.M, expected):
            np.testing.assert_allclose(Mr, Er, atol=1e-9)

    def test_rows_of_coefficient_matrix(self):
        X1, X2, (a, b, c, d) = lft_pair(seed=6)
        I = np.eye(3)
        model = model_from_bases([X1, I], [X2, I], [X1, X2, I])
        rows = model.matrix_at(np.array([1.0, 0.0]))
        np.testing.assert_allclose(rows[:, 0], [d / c, a / c, -b / c], atol=1e-9)
        np.testing.assert_allclose(rows[:, 1], [1.0, 0.0, 0.0], atol=1e-9)

    def test_product_outside_span_rejected(self):
        from subspace_products import NotMember

        with pytest.raises(NotMember):
            model_from_bases([cell(2, 0, 0)], [cell(2, 0, 1)], [np.eye(2)])

    def test_first_product_outside_span_is_named(self):
        from subspace_products import NotMember

        # Products E01, E11, E11, 0: (0, 1) and (1, 0) both leave span{E01}.
        with pytest.raises(NotMember, match=r"basis1\[0\] and basis2\[1\]"):
            model_from_bases(
                [np.eye(2), cell(2, 1, 0)], [cell(2, 0, 1), cell(2, 1, 1)], [cell(2, 0, 1)]
            )


def test_solve_restarts_zero():
    model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
    with pytest.raises(BadParameters, match="restarts must be at least 1, got 0"):
        solve_bilinear(model, np.ones(model.l), restarts=0)

class TestMatrixAt:
    def test_zero_gives_zero(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        np.testing.assert_array_equal(model.matrix_at(np.zeros(2)), np.zeros((2, 2)))

    def test_additivity_exact(self):
        S1 = catalog("circulant", 3)
        S2 = catalog("diagonal", 3)
        model = extract_bilinear(S1, S2)
        rng = np.random.default_rng(2)
        z1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(
            model.matrix_at(z1 + z2),
            model.matrix_at(z1) + model.matrix_at(z2),
            rtol=1e-13,
            atol=1e-13,
        )

    def test_bidegree_scaling_exact(self):
        S1 = catalog("circulant", 3)
        S2 = catalog("diagonal", 3)
        model = extract_bilinear(S1, S2)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s, t = 1.5 - 0.5j, -0.25 + 2.0j
        np.testing.assert_allclose(
            model.apply(s * z, t * w), s * t * model.apply(z, w), rtol=1e-12
        )


class TestSolveBilinear:
    def test_planted_solution(self):
        rng = np.random.default_rng(4)
        S1 = catalog("lower_triangular", 3)
        S2 = catalog("unit_upper_constant_diagonal", 3)
        model = extract_bilinear(S1, S2)
        z0 = rng.standard_normal(model.j) + 1j * rng.standard_normal(model.j)
        w0 = rng.standard_normal(model.kmj) + 1j * rng.standard_normal(model.kmj)
        b = model.apply(z0, w0)
        rep = solve_bilinear(model, b, seed=0)
        assert rep.residual < 1e-8 * (1 + np.linalg.norm(b))

    def test_planted_recovery_rate(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            j, kmj, l = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(4, 13))
            M = tuple(
                rng.standard_normal((j, kmj)) + 1j * rng.standard_normal((j, kmj))
                for _ in range(l)
            )
            from subspace_products import BilinearModel

            model = BilinearModel(
                n=2, field="complex", j=j, kmj=kmj, l=l, M=M,
                basis1=(), basis2=(), lin_basis=(),
            )
            z0 = rng.standard_normal(j) + 1j * rng.standard_normal(j)
            w0 = rng.standard_normal(kmj) + 1j * rng.standard_normal(kmj)
            b = model.apply(z0, w0)
            rep = solve_bilinear(model, b, restarts=20, seed=seed)
            hits += rep.residual < 1e-8 * (1 + np.linalg.norm(b))
        assert hits >= 95

    def test_segre_obstruction(self):
        # the coordinates of a rank-one 2x2 matrix cannot approach (1,1,-1,1);
        # the exact distance is the second singular value, sqrt(2)
        M = tuple(
            np.array([[1.0 * (r == 0), 1.0 * (r == 1)], [1.0 * (r == 2), 1.0 * (r == 3)]])
            for r in range(4)
        )
        from subspace_products import BilinearModel

        model = BilinearModel(
            n=2, field="complex", j=2, kmj=2, l=4,
            M=tuple(Mr.astype(complex) for Mr in M), basis1=(), basis2=(), lin_basis=(),
        )
        rep = solve_bilinear(model, np.array([1.0, 1.0, -1.0, 1.0]), restarts=50, seed=0)
        assert rep.residual > 0.1
        assert rep.residual >= np.sqrt(2) - 1e-6

    def test_zero_rhs_trivial(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        rep = solve_bilinear(model, np.zeros(2))
        assert rep.residual == 0.0
        assert np.all(rep.z == 0) and np.all(rep.w == 0)

    def test_wrong_length_rejected(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        with pytest.raises(SizeMismatch):
            solve_bilinear(model, np.zeros(5))


class TestFactorViaInverseClosed:
    def test_lu_matches_elimination_oracle(self):
        L = catalog("lower_triangular", 4)
        U = catalog("unit_upper_constant_diagonal", 4)
        rng = np.random.default_rng(7)
        done = 0
        seed = 0
        while done < 5:
            seed += 1
            A = random_complex(rng, 4)
            if not strongly_nonsingular(A):
                continue
            done += 1
            V1, V2 = factor_via_inverse_closed(A, L, U, seed=seed)
            assert np.linalg.norm(A - V1 @ V2) < 1e-10 * np.linalg.norm(A)
            assert membership(L, V1).inside and membership(U, V2).inside
            diag = np.diag(V2)
            scale = diag.mean()
            Lc, Uc = crout_lu(A)
            np.testing.assert_allclose(V1 * scale, Lc, atol=1e-8 * np.linalg.norm(Lc))
            np.testing.assert_allclose(V2 / scale, Uc, atol=1e-8 * np.linalg.norm(Uc))

    def test_symmetric_pair_always_factors(self):
        S = catalog("symmetric", 3)
        rng = np.random.default_rng(8)
        for seed in range(5):
            A = random_complex(rng, 3)
            V1, V2 = factor_via_inverse_closed(A, S, S, seed=seed)
            assert np.linalg.norm(A - V1 @ V2) < 1e-9 * np.linalg.norm(A)
            assert membership(S, V1).inside and membership(S, V2).inside

    def test_nilpotent_boundary_case(self):
        L = catalog("lower_triangular", 2)
        U = catalog("unit_upper_constant_diagonal", 2)
        with pytest.raises((NoFactorization, SingularWitness)):
            factor_via_inverse_closed(cell(2, 0, 1), L, U, seed=0)


class TestDegreeBound:
    def test_cubic_branch(self):
        assert nullstellensatz_degree_bound(3, 2, 5) == 9

    def test_quadratic_branch(self):
        assert nullstellensatz_degree_bound(2, 5, 3) == 8
        assert nullstellensatz_degree_bound(2, 3, 7) == 8

    def test_degree_one_unsupported(self):
        with pytest.raises(UnsupportedDegree):
            nullstellensatz_degree_bound(1, 4, 4)

    def test_bad_counts(self):
        with pytest.raises(BadParameters):
            nullstellensatz_degree_bound(3, 0, 1)
