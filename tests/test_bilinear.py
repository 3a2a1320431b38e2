import dataclasses
import itertools
import logging
import re
import time
import tracemalloc

import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    BilinearModel,
    NoFactorization,
    NonFiniteInput,
    NotMember,
    SingularWitness,
    SizeMismatch,
    Tolerances,
    UnsupportedDegree,
    extract_bilinear,
    factor_via_inverse_closed,
    linearization,
    membership,
    model_from_bases,
    nullstellensatz_degree_bound,
    random_element,
    solve_bilinear,
    subspace_from_matrices,
    vec,
)
from subspace_products import bilinear, core
from subspace_products.serialization import model_from_obj, model_to_obj
from helpers import (
    catalog,
    catalog_flags,
    cell,
    crout_lu,
    loop_factor,
    random_complex,
    respanning_direct_step,
    strongly_nonsingular,
)


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
            assert model.lin_basis.shape == (0, 2, 2)
            assert len(model.basis1) == model.j and len(model.basis2) == model.kmj

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_linearization_reads_the_product_stack(self, field):
        # Over M_n the orthonormal basis is the identity: the coordinates are
        # the vectorized products, the bytes of the product Q^H P with Q = I.
        # Complex LU at n = 3 has -0.0 entries there, which Q^H P turns to 0.0.
        S1 = catalog("lower_triangular", 3, field)
        S2 = catalog("unit_upper_constant_diagonal", 3, field)
        lin = linearization(S1, S2)
        assert lin.dim == 9
        stack = bilinear._vec_columns(lin.raw_basis)
        model = extract_bilinear(S1, S2)
        want = (lin.ortho_basis.conj().T @ stack).reshape(model.M.shape)
        assert model.M.tobytes() == want.tobytes()
        negative_zeros = np.signbit(stack.view(np.float64)) & (stack.view(np.float64) == 0)
        assert negative_zeros.any() == (field == "complex")

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

    def test_unknown_field_rejected_up_front(self):
        I = np.eye(2)
        with pytest.raises(BadParameters, match="unknown field 'bogus'"):
            model_from_bases([I], [I], [I], field="bogus")

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_not_member_exactly_where_membership_says_outside(self, field):
        # The linearization basis has singular values 1, 0.5, 1e-6 and 1e-10:
        # the 1e-6 direction is kept and the 1e-10 one is dropped by the 1e-8
        # cutoff, as subspace_from_matrices drops it.
        n = 2
        rng = np.random.default_rng(12)
        U, _ = np.linalg.qr(rng.standard_normal((n * n, n * n)))
        V, _ = np.linalg.qr(rng.standard_normal((n * n, n * n)))
        if field == "complex":
            U = U * np.exp(1j * rng.uniform(0, 2 * np.pi, n * n))
        W = U @ np.diag([1.0, 0.5, 1e-6, 1e-10]) @ V.T
        lin_basis = [W[:, r].reshape(n, n, order="F") for r in range(n * n)]
        span = subspace_from_matrices(lin_basis, field=field)
        assert span.dim == 3
        u = [U[:, r].reshape(n, n, order="F") for r in range(n * n)]
        targets = [u[0], 3.0 * u[2], u[3], u[0] + 1e-9 * u[3], u[1] + 1e-7 * u[3],
                   2.0 * u[1] - u[2] + 5e-9 * u[3], 4.0 * u[0] + 3e-8 * u[3]]
        outside = [not membership(span, T).inside for T in targets]
        # The last target is inside only through the cutoff's max(1, ||T||_F).
        assert outside == [False, False, True, False, True, False, False]
        I = np.eye(n)
        for T, out in zip(targets, outside):
            if out:
                with pytest.raises(NotMember):
                    model_from_bases([I], [T], lin_basis, field=field)
            else:
                model = model_from_bases([I], [T], lin_basis, field=field)
                recon = model.product_from_coordinates(model.M[:, 0, 0])
                assert np.linalg.norm(recon - T) < 1e-8 * max(1.0, np.linalg.norm(T))
        with pytest.raises(NotMember, match=r"basis1\[0\] and basis2\[2\]"):
            model_from_bases([I], targets, lin_basis, field=field)

    def test_residual_equal_to_the_bound_is_outside(self):
        # The product E00 + t E01 with t = 2^-30 has residual t from
        # span{E00}, exactly the bound t max(1, ||P||_F) = t: not below it,
        # so membership says outside and so must model_from_bases.
        t = 2.0**-30
        tols = Tolerances(rel_rank_tol=t)
        I = np.eye(2)
        lin_basis, B = [cell(2, 0, 0).real], cell(2, 0, 0).real + t * cell(2, 0, 1).real
        got = membership(subspace_from_matrices(lin_basis, field="real", tols=tols), B)
        assert (got.inside, got.residual) == (False, t)
        with pytest.raises(NotMember, match=r"basis1\[0\] and basis2\[0\] .* \(residual 9\.313e-10\)"):
            model_from_bases([B], [I], lin_basis, field="real", tols=tols)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_orthonormal_bases_reproduce_every_product(self, field):
        # Random well-conditioned combinations of the unit cells of each basis.
        n = 6
        rng = np.random.default_rng(13)

        def mix(mats):
            d = len(mats)
            G = np.eye(d) + 0.2 * rng.standard_normal((d, d)) / np.sqrt(d)
            return list(np.tensordot(G, np.array(mats), axes=1))

        b1 = mix(catalog(LU[0], n, field).raw_basis)
        b2 = mix(catalog(LU[1], n, field).raw_basis)
        lin = mix([cell(n, i, j).real for j in range(n) for i in range(n)])
        model = model_from_bases(b1, b2, lin, field=field)
        recon = np.tensordot(model.M, np.array(lin), axes=(0, 0))
        for s, B in enumerate(b1):
            for t, C in enumerate(b2):
                assert np.linalg.norm(recon[s, t] - B @ C) <= 1e-12 * np.linalg.norm(B @ C)

    def test_peak_memory_is_bounded_by_the_product_stack(self):
        # Real LU at n = 16: the (n^2, K) stack of the K = 136 * 121 basis
        # products is 33.7 MB, and so is M.  The residuals are formed a
        # block of columns at a time, so no temporary of the stack's size
        # sits beside the stack and the coordinates: the peak is about 3.1
        # stacks (the stack, the coordinates before and after scaling),
        # where forming all residuals at once took 4.1.
        n = 16
        L, U = catalog(LU[0], n, "real"), catalog(LU[1], n, "real")
        cells = np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)
        stack_bytes = n * n * L.dim * U.dim * 8
        tracemalloc.start()
        try:
            model = model_from_bases(L.raw_basis, U.raw_basis, cells, field="real")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.M.nbytes == stack_bytes
        assert peak < 3.5 * stack_bytes


def test_solve_restarts_zero():
    model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
    with pytest.raises(BadParameters, match="restarts must be at least 1, got 0"):
        solve_bilinear(model, np.ones(model.l), restarts=0)


def test_solve_max_iter_zero():
    model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
    with pytest.raises(BadParameters, match="max_iter must be at least 1, got 0"):
        solve_bilinear(model, np.ones(model.l), max_iter=0)


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
        # Without bases there is no direct step: every restart ran Gauss-Newton.
        assert (rep.stop, rep.iterations, rep.restarts_used) == ("max_iter", 200, 38)

    def test_zero_rhs_trivial(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        rep = solve_bilinear(model, np.zeros(2))
        assert rep.residual == 0.0
        assert np.all(rep.z == 0) and np.all(rep.w == 0)

    @pytest.mark.parametrize("bases", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, bases, bad):
        model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
        if not bases:
            model = dataclasses.replace(model, basis1=(), basis2=(), lin_basis=())
        b = np.ones(model.l)
        b[1] = bad
        with pytest.raises(NonFiniteInput, match="^b contains NaN or Inf"):
            solve_bilinear(model, b)

    def test_wrong_length_rejected(self):
        D = catalog("diagonal", 2)
        model = extract_bilinear(D, D)
        with pytest.raises(SizeMismatch):
            solve_bilinear(model, np.zeros(5))


def coordinates(model, A):
    """Coordinates of A in the model's orthonormal linearization basis."""
    return np.array([np.vdot(W, A) for W in model.lin_basis])


def assert_factors(model, rep, A, b):
    """The report solves M(z) w = b, its factors rebuild A, and z has unit length."""
    assert rep.residual < 1e-10 * (1 + np.linalg.norm(b))
    V1 = np.tensordot(rep.z, np.array(model.basis1), axes=1)
    V2 = np.tensordot(rep.w, np.array(model.basis2), axes=1)
    assert np.linalg.norm(V1 @ V2 - A) < 1e-10 * np.linalg.norm(A)
    assert abs(np.linalg.norm(rep.z) - 1.0) < 1e-12


LU = ("lower_triangular", "unit_upper_constant_diagonal")


def first_factor_closed_case():
    """span{U0, R1, R2} is not inverse-closed; lower triangular is, so the
    direct step factors A from the first factor's side, A = X^{-1} (X A)."""
    n = 4
    rng = np.random.default_rng(3)
    L0 = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
    U0 = rng.standard_normal((n, n)) + n * np.eye(n)
    S2 = subspace_from_matrices([U0, rng.standard_normal((n, n)), rng.standard_normal((n, n))])
    assert not membership(S2, np.linalg.inv(U0)).inside
    model = extract_bilinear(catalog("lower_triangular", n), S2)
    A = L0 @ U0
    return model, A, coordinates(model, A)


def non_orthonormal_case():
    """model_from_bases keeps the given bases: z and w are read off by least
    squares on them."""
    n = 3
    rng = np.random.default_rng(9)
    lower = [B + 0.5 * catalog("lower_triangular", n).basis_matrices()[0]
             for B in catalog("lower_triangular", n).basis_matrices()]
    upper = [2.0 * C for C in catalog("unit_upper_constant_diagonal", n).basis_matrices()]
    model = model_from_bases(lower, upper, [cell(n, i, j) for j in range(n) for i in range(n)])
    A = random_complex(rng, n) + n * np.eye(n)
    return model, A, vec(A)


def shifted_case(kinds, n, field, seed=0):
    """The catalog pair's model and the target default_rng(seed) Gaussian + n I."""
    model = extract_bilinear(catalog(kinds[0], n, field), catalog(kinds[1], n, field))
    A = np.random.default_rng(seed).standard_normal((n, n)) + n * np.eye(n)
    return model, A, coordinates(model, A)


# Ten catalog kinds: seven flagged inverse-closed, three not (band_upper with
# q = 1 is closed only at n = 2).
SWEEP_KINDS = [
    ("lower_triangular", {}), ("upper_triangular", {}),
    ("unit_lower_constant_diagonal", {}), ("unit_upper_constant_diagonal", {}),
    ("symmetric", {}), ("persymmetric_constant_antidiagonal", {}), ("diagonal", {}),
    ("circulant", {}), ("rank_cols", {"k": 2}), ("band_upper", {"q": 1}),
]

DIRECT_CASES = {
    "lu-real": lambda: shifted_case(LU, 6, "real"),
    "symmetric": lambda: shifted_case(("symmetric", "symmetric"), 4, "complex", seed=2),
    "transposed": first_factor_closed_case,
    "non-orthonormal": non_orthonormal_case,
}


class TestSolveInverseClosed:
    """Pairs with an inverse-closed factor are solved by one null-space step."""

    # The targets on which Gauss-Newton stalls: plain Gaussian LU at n = 8,
    # and a shifted symmetric x symmetric target at n = 6.
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kinds, n, seed, shift", [
        pytest.param(LU, 8, 0, 0, id="lu8-seed0"),
        pytest.param(LU, 8, 1, 0, id="lu8-seed1"),
        pytest.param(LU, 8, 40, 0, id="lu8-seed40"),
        pytest.param(("symmetric", "symmetric"), 6, 37, 6, id="sym6-seed37"),
    ])
    def test_stalling_targets_solve_directly(self, field, kinds, n, seed, shift):
        model = extract_bilinear(catalog(kinds[0], n, field), catalog(kinds[1], n, field))
        A = np.random.default_rng(seed).standard_normal((n, n)) + shift * np.eye(n)
        b = coordinates(model, A)
        start = time.perf_counter()
        rep = solve_bilinear(model, b)
        elapsed = time.perf_counter() - start
        assert (rep.stop, rep.iterations, rep.restarts_used) == ("inverse_closed", 0, 0)
        assert_factors(model, rep, A, b)
        assert elapsed < 1.0

    @pytest.fixture(scope="class")
    def lu24(self):
        n = 24
        model = extract_bilinear(catalog(LU[0], n, "real"), catalog(LU[1], n, "real"))
        A = np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)
        return model, A, coordinates(model, A)

    # Ill-conditioned draws at n = 24: the direct step must not depend on
    # judging the factors inverse-closed.  One short restart keeps a fallback
    # to Gauss-Newton from stalling the run.
    @pytest.mark.parametrize("seed", range(5))
    def test_lu24_solves_directly_for_every_seed(self, lu24, seed):
        model, A, b = lu24
        rep = solve_bilinear(model, b, restarts=1, max_iter=20, seed=seed)
        assert rep.stop == "inverse_closed"
        assert_factors(model, rep, A, b)

    def test_model_orientation_is_tried_first(self, monkeypatch):
        # Real LU at n = 6, seed 0: the seeded random member of the second
        # factor is ill-conditioned, yet one factorization of A itself solves.
        n = 6
        L, U = catalog(LU[0], n, "real"), catalog(LU[1], n, "real")
        model = extract_bilinear(L, U)
        A = np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)
        b = coordinates(model, A)
        calls = []

        def spy(target, S1, S2, seed, first, factor=bilinear._factor):
            calls.append((target, first))
            return factor(target, S1, S2, seed, first)

        monkeypatch.setattr(bilinear, "_factor", spy)
        rep = solve_bilinear(model, b, seed=0)
        assert rep.stop == "inverse_closed"
        assert [first for _, first in calls] == [False]
        np.testing.assert_array_equal(calls[0][0], model.product_from_coordinates(b))
        assert_factors(model, rep, A, b)
        V1 = np.tensordot(rep.z, np.array(model.basis1), axes=1)
        V2 = np.tensordot(rep.w, np.array(model.basis2), axes=1)
        assert membership(L, V1).inside and membership(U, V2).inside

    def test_only_first_factor_closed(self):
        model, A, b = first_factor_closed_case()
        rep = solve_bilinear(model, b)
        assert rep.stop == "inverse_closed"
        assert_factors(model, rep, A, b)

    def test_non_orthonormal_model_bases(self):
        model, A, b = non_orthonormal_case()
        rep = solve_bilinear(model, b)
        assert rep.stop == "inverse_closed"
        assert_factors(model, rep, A, b)

    @pytest.mark.parametrize("case", sorted(DIRECT_CASES))
    def test_one_span_per_basis_equals_respanning(self, case):
        # Spanning each model basis once, and reading z and w from the same
        # SVD, gives the report of spanning both bases for each side and
        # solving against fresh SVDs, to the last bit.
        model, A, b = DIRECT_CASES[case]()
        rep = solve_bilinear(model, b)
        tol = bilinear._SOLVE_TOL * (1.0 + np.linalg.norm(b))
        z, w, residual = respanning_direct_step(model, b, tol)
        assert rep.stop == "inverse_closed"
        np.testing.assert_array_equal(rep.z, z)
        np.testing.assert_array_equal(rep.w, w)
        assert rep.residual == residual

    def test_one_svd_per_model_basis(self, monkeypatch):
        # Real LU at n = 4 (model bases of 10 and 7 members): one SVD spans
        # each basis and also gives its coordinates; one more is the null
        # space of the factoring.
        model, A, b = shifted_case(LU, 4, "real")
        shapes = []

        def spy(M, tols, svd=core._svd):
            shapes.append(M.shape)
            return svd(M, tols)

        monkeypatch.setattr(core, "_svd", spy)
        monkeypatch.setattr(bilinear, "_svd", spy)
        rep = solve_bilinear(model, b)
        assert rep.stop == "inverse_closed"
        assert shapes == [(16, 10), (16, 7), (16, 7)]

    def test_one_span_per_model_basis_from_the_first_factor_side(self, monkeypatch):
        # The second factor's side finds no answer and the first factor's
        # does; each model basis is still spanned once.
        model, A, b = first_factor_closed_case()
        spans = []

        def spy(P, field, tols, span=core._subspace_from_stack):
            spans.append(len(P))
            return span(P, field, tols)

        monkeypatch.setattr(core, "_subspace_from_stack", spy)
        monkeypatch.setattr(bilinear, "_subspace_from_stack", spy)
        rep = solve_bilinear(model, b)
        assert rep.stop == "inverse_closed"
        assert_factors(model, rep, A, b)
        assert spans == [model.j, model.kmj]

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("source", ["extract_bilinear", "model_from_bases", "model_from_obj"])
    def test_model_bases_are_spanned_once_per_model(self, source, field, monkeypatch):
        # A model is immutable: a second solve spans neither basis again and
        # returns the first solve's report to the last bit.
        model, A, b = shifted_case(LU, 4, field)
        if source == "model_from_bases":
            model = model_from_bases(model.basis1, model.basis2, model.lin_basis, field=field)
        elif source == "model_from_obj":
            model = model_from_obj(model_to_obj(model))
        first = solve_bilinear(model, b)
        spans = []

        def spy(P, field, tols, span=core._subspace_from_stack):
            spans.append(len(P))
            return span(P, field, tols)

        monkeypatch.setattr(core, "_subspace_from_stack", spy)
        monkeypatch.setattr(bilinear, "_subspace_from_stack", spy)
        again = solve_bilinear(model, b)
        assert spans == [] and first.stop == "inverse_closed"
        for f in dataclasses.fields(first):
            np.testing.assert_array_equal(getattr(again, f.name), getattr(first, f.name))
        # The spans are kept outside the model's fields and its file.
        assert [f.name for f in dataclasses.fields(model)] == [
            "n", "field", "j", "kmj", "l", "M", "basis1", "basis2", "lin_basis"]
        assert sorted(model_to_obj(model)) == sorted(model_to_obj(extract_bilinear(
            catalog(LU[0], 4, field), catalog(LU[1], 4, field))))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_either_closed_factor_answers_on_the_catalog(self, field, n):
        # Every ordered pair of SWEEP_KINDS in which a catalog flag makes one
        # factor inverse-closed, with a target that the pair factors.
        missed, tried = [], 0
        for (k1, p1), (k2, p2) in itertools.product(SWEEP_KINDS, repeat=2):
            (S1, f1), (S2, f2) = catalog_flags(k1, n, field, **p1), catalog_flags(k2, n, field, **p2)
            if not (f1["inverse_closed"] or f2["inverse_closed"]):
                continue
            tried += 1
            model = extract_bilinear(S1, S2)
            A = random_element(S1, 1) @ random_element(S2, 2)
            b = coordinates(model, A)
            rep = solve_bilinear(model, b, restarts=1, max_iter=1)
            if rep.stop != "inverse_closed":
                missed.append((k1, k2))
                continue
            assert_factors(model, rep, A, b)
        assert (tried, missed) == (91, [])

    def test_unfactorable_target_falls_back(self):
        # The exchange matrix has a zero leading minor: no LU factorization,
        # so the direct step fails and Gauss-Newton runs without raising.
        model = extract_bilinear(catalog(LU[0], 4), catalog(LU[1], 4))
        b = coordinates(model, np.fliplr(np.eye(4)))
        rep = solve_bilinear(model, b, restarts=2)
        assert rep.stop in ("converged", "max_iter", "damping", "singular")
        assert rep.iterations > 0 and rep.restarts_used >= 1
        assert rep.residual > 1e-3

    def test_same_seed_same_answer(self):
        model = extract_bilinear(catalog("symmetric", 4), catalog("symmetric", 4))
        b = coordinates(model, random_complex(np.random.default_rng(11), 4))
        first, again = solve_bilinear(model, b, seed=5), solve_bilinear(model, b, seed=5)
        assert first.stop == "inverse_closed"
        np.testing.assert_array_equal(first.z, again.z)
        np.testing.assert_array_equal(first.w, again.w)


class TestDirectStepEvents:
    """Factoring logs one event and the direct step one per side it tries;
    without a configured handler nothing is printed."""

    def messages(self, caplog, model, b):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="subspace_products"):
            rep = solve_bilinear(model, b, restarts=1, max_iter=5)
        assert all(r.name == "subspace_products" for r in caplog.records)
        return rep, [r.getMessage() for r in caplog.records]

    def test_solved_in_the_model_orientation(self, caplog, capsys):
        model, A, b = shifted_case(("symmetric", "symmetric"), 4, "real")
        rep, messages = self.messages(caplog, model, b)
        assert rep.stop == "inverse_closed"
        assert len(messages) == 2
        assert re.fullmatch(r"factoring: null dimension 4, candidates judged 25, "
                            r"chosen sigma_min/sigma_max \S+", messages[0])
        tol = bilinear._SOLVE_TOL * (1.0 + np.linalg.norm(b))
        assert messages[1] == f"direct step, model pair: residual {rep.residual:.3e}, bound {tol:.3e}"
        solve_bilinear(model, b)
        assert capsys.readouterr() == ("", "")

    def test_each_orientation_names_its_error(self, caplog):
        # The exchange matrix has a zero leading minor, so it has no LU
        # factorization: from both sides every null space member that
        # factoring judges is singular.
        model = extract_bilinear(catalog(LU[0], 4), catalog(LU[1], 4))
        rep, messages = self.messages(caplog, model, coordinates(model, np.fliplr(np.eye(4))))
        assert rep.stop != "inverse_closed"
        assert messages[1::2] == [
            "direct step, model pair: all sampled nullspace members are numerically singular",
            "direct step, first-factor side: all sampled nullspace members are numerically singular",
        ]
        for message in messages[::2]:
            got = re.fullmatch(r"factoring: null dimension 4, candidates judged 25, "
                               r"chosen sigma_min/sigma_max (\S+)", message)
            assert got and float(got.group(1)) < core.Tolerances().rel_rank_tol


class TestGaussNewtonUnchanged:
    """Where the direct step finds no answer, the report is the one that
    Gauss-Newton alone gives, to the last bit."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kinds, params", [
        (("rank_cols", "rank_rows"), {"k": 2}),
        (("circulant", "diagonal"), {}),
    ])
    def test_report_equals_gauss_newton_alone(self, monkeypatch, field, kinds, params):
        n = 6
        model = extract_bilinear(catalog(kinds[0], n, field, **params),
                                 catalog(kinds[1], n, field, **params))
        rng = np.random.default_rng(8)
        b = rng.standard_normal(model.l)
        if field == "complex":
            b = b + 1j * rng.standard_normal(model.l)
        rep = solve_bilinear(model, b, restarts=3, max_iter=60, seed=2)
        monkeypatch.setattr(bilinear, "_solve_inverse_closed", lambda *args: None)
        alone = solve_bilinear(model, b, restarts=3, max_iter=60, seed=2)
        assert rep.stop != "inverse_closed"
        np.testing.assert_array_equal(rep.z, alone.z)
        np.testing.assert_array_equal(rep.w, alone.w)
        assert (rep.residual, rep.iterations, rep.restarts_used, rep.stop) == (
            alone.residual, alone.iterations, alone.restarts_used, alone.stop)


class TestGaussNewtonStop:
    """Why the returned Gauss-Newton attempt ended."""

    def model(self, M):
        M = np.asarray(M, dtype=float)
        return BilinearModel(n=1, field="real", j=M.shape[1], kmj=M.shape[2], l=M.shape[0],
                             M=M, basis1=(), basis2=(), lin_basis=())

    def test_converged(self):
        rng = np.random.default_rng(5)
        model = self.model(rng.standard_normal((6, 2, 3)))
        rep = solve_bilinear(model, model.apply(rng.standard_normal(2), rng.standard_normal(3)))
        assert rep.stop == "converged" and rep.residual < 1e-10

    def test_damping(self):
        # z w = 1 and 0 = 1: every start reaches the least-squares minimum,
        # after which no step decreases the residual.
        rep = solve_bilinear(self.model([[[1.0]], [[0.0]]]), np.array([1.0, 1.0]), restarts=1)
        assert rep.stop == "damping" and rep.residual == pytest.approx(1.0)

    def test_max_iter(self):
        model = self.model(np.random.default_rng(6).standard_normal((6, 2, 3)))
        rep = solve_bilinear(model, np.ones(6), restarts=1, max_iter=1)
        assert (rep.stop, rep.iterations) == ("max_iter", 1)

    def test_singular(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rep = solve_bilinear(self.model([[[1.0]], [[0.0]]]), np.array([1.0, 1.0]), restarts=1)
        assert (rep.stop, rep.iterations) == ("singular", 1)


class TestNoLstsq:
    """Every least-squares solve reads the core SVD kernel, judged by
    Tolerances, so none of them reaches np.linalg.lstsq."""

    @pytest.fixture(autouse=True)
    def no_lstsq(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)

    @pytest.mark.parametrize("kinds", [LU, ("symmetric", "symmetric")])
    def test_model_from_bases(self, kinds):
        n = 4
        S1, S2 = catalog(kinds[0], n), catalog(kinds[1], n)
        cells = [cell(n, i, j) for j in range(n) for i in range(n)]
        model = model_from_bases(S1.raw_basis, S2.raw_basis, cells)
        for s, B in enumerate(S1.raw_basis):
            for t, C in enumerate(S2.raw_basis):
                recon = model.product_from_coordinates(model.M[:, s, t])
                assert np.linalg.norm(recon - B @ C) < 1e-12 * max(1.0, np.linalg.norm(B @ C))

    @pytest.mark.parametrize("kinds", [LU, ("symmetric", "symmetric")])
    def test_direct_step(self, kinds):
        n = 4
        model = extract_bilinear(catalog(kinds[0], n), catalog(kinds[1], n))
        A = random_complex(np.random.default_rng(14), n) + n * np.eye(n)
        b = coordinates(model, A)
        rep = solve_bilinear(model, b)
        assert rep.stop == "inverse_closed"
        assert_factors(model, rep, A, b)


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

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("first, second, n, null_dim", [
        (("lower_triangular", {}), ("unit_upper_constant_diagonal", {}), 6, 1),
        (("lower_triangular", {}), ("upper_triangular", {}), 6, 6),
        (("symmetric", {}), ("symmetric", {}), 6, 6),
        # As many null directions as candidates: one combination is still drawn.
        (("symmetric", {}), ("symmetric", {}), 25, 25),
    ], ids=["lu", "lower-upper", "symmetric", "symmetric-25"])
    def test_batched_candidates_equal_the_loop(self, field, first, second, n, null_dim):
        S1, S2 = catalog(first[0], n, field, **first[1]), catalog(second[0], n, field, **second[1])
        assert S1.dim + S2.dim - n * n == null_dim
        rng = np.random.default_rng(3)
        for seed in range(2):
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            if field == "complex":
                A = A + 1j * rng.standard_normal((n, n))
            V1, V2 = factor_via_inverse_closed(A, S1, S2, seed=seed)
            W1, W2 = loop_factor(A, S1, S2, seed=seed)
            np.testing.assert_array_equal(V1, W1)
            np.testing.assert_array_equal(V2, W2)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("first, second, null_dim", [
        ("unit_lower_constant_diagonal", "upper_triangular", 1),
        ("upper_triangular", "lower_triangular", 6),
        ("symmetric", "symmetric", 6),
    ], ids=["lu", "upper-lower", "symmetric"])
    def test_first_factor_side_equals_the_loop(self, field, first, second, null_dim):
        # The kernel from the first factor's side: X in S1 with X A in S2,
        # candidates batched as from the second factor's side.
        n = 6
        S1, S2 = catalog(first, n, field), catalog(second, n, field)
        assert S1.dim + S2.dim - n * n == null_dim
        rng = np.random.default_rng(3)
        for seed in range(2):
            A = rng.standard_normal((n, n)) + n * np.eye(n)
            if field == "complex":
                A = A + 1j * rng.standard_normal((n, n))
            V1, V2 = bilinear._factor(A, S1, S2, seed, first=True)
            W1, W2 = loop_factor(A, S1, S2, seed=seed, first=True)
            np.testing.assert_array_equal(V1, W1)
            np.testing.assert_array_equal(V2, W2)
            assert np.linalg.norm(A - V1 @ V2) < 1e-10 * np.linalg.norm(A)
            assert membership(S1, V1).inside and membership(S2, V2).inside

    @pytest.mark.parametrize("target", range(6))
    def test_large_null_space_still_draws_a_combination(self, target):
        # lower_triangular x M_7 has a 28-dimensional null space, more than the
        # 25 candidates, and every null basis member has rank one, so a
        # factor needs a drawn combination (A = I A always factors).
        L, M = catalog("lower_triangular", 7, "real"), catalog("rank_cols", 7, "real", k=7)
        A = np.random.default_rng(target).standard_normal((7, 7)) + 7 * np.eye(7)
        for seed in range(3):
            V1, V2 = factor_via_inverse_closed(A, L, M, seed=seed)
            assert np.linalg.norm(A - V1 @ V2) < 1e-12 * np.linalg.norm(A)
            assert membership(L, V1).inside

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_null_line_gives_one_candidate(self, caplog, field):
        # LU has a one-dimensional null space; every combination of its one
        # member is a unit multiple of it, so it is the only candidate.
        n = 6
        L, U = catalog(LU[0], n, field), catalog(LU[1], n, field)
        A = np.random.default_rng(4).standard_normal((n, n)) + n * np.eye(n)
        with caplog.at_level(logging.DEBUG, logger="subspace_products"):
            V1, V2 = factor_via_inverse_closed(A, L, U, seed=1)
        (message,) = [r.getMessage() for r in caplog.records]
        got = re.fullmatch(
            r"factoring: null dimension 1, candidates judged 1, chosen sigma_min/sigma_max (\S+)",
            message,
        )
        assert got
        # V2 is the inverse of the chosen candidate: the same condition number.
        assert float(got.group(1)) == pytest.approx(1.0 / np.linalg.cond(V2), rel=1e-3)
        assert np.linalg.norm(A - V1 @ V2) < 1e-12 * np.linalg.norm(A)
        assert membership(L, V1).inside and membership(U, V2).inside

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
