import json
import logging

import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    NonFiniteInput,
    NotMember,
    SizeMismatch,
    ZeroSubspace,
    curvature_measure,
    equivalence_transform,
    extract_bilinear,
    factorizability_check,
    flatness_test,
    linearization,
    membership,
    product_map,
    product_map_rank,
    random_element,
    sample_pair,
    second_fundamental_form,
    solve_bilinear,
    subspace_from_matrices,
    subspace_sum,
    subspaces_equal,
    tangent_space,
    vec,
)
from subspace_products import core, geometry
from subspace_products.cli import main
from subspace_products.core import _complexified, _real_form
from subspace_products.geometry import _identity_part, _sketched_linearization
from subspace_products.serialization import save_obj, subspace_to_obj
from helpers import (
    SKETCH_KINDS,
    brute_span_rank,
    brute_tangent_rank,
    catalog,
    cell,
    gaussian_flatness,
    reference_flatness,
    reference_point,
    sketch_first_flatness,
)


class TestProductMap:
    def test_identity(self):
        np.testing.assert_array_equal(product_map(np.eye(2), np.eye(2)), np.eye(2))

    def test_unit_cells(self):
        np.testing.assert_array_equal(
            product_map(cell(2, 0, 0), cell(2, 0, 1)), cell(2, 0, 1)
        )

    def test_bilinear_scaling_exact(self):
        rng = np.random.default_rng(0)
        V1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        V2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s, t = 0.37 - 1.2j, -2.5 + 0.1j
        np.testing.assert_allclose(
            product_map(s * V1, t * V2), s * t * product_map(V1, V2), rtol=1e-13
        )

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            product_map(np.eye(2), np.eye(3))


class TestLinearization:
    def test_diagonal_times_diagonal_stays_diagonal(self):
        D = catalog("diagonal", 3)
        assert linearization(D, D).dim == 3

    def test_circulant_times_diagonal_fills(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        lin = linearization(C, D)
        assert lin.dim == brute_span_rank(
            [B @ E for B in C.basis_matrices() for E in D.basis_matrices()]
        ) == 9

    def test_lu_pair_fills(self):
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        assert linearization(L, U).dim == 9

    def test_sampled_products_are_members(self):
        C = catalog("circulant", 4)
        D = catalog("diagonal", 4)
        lin = linearization(C, D)
        for seed in range(10):
            V1, V2 = sample_pair(C, D, seed)
            P = V1 @ V2
            assert membership(lin, P).residual < lin.tol * max(1, np.linalg.norm(P))

    def test_product_homogeneity(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        lin = linearization(C, D)
        rng = np.random.default_rng(1)
        V1, V2 = sample_pair(C, D, 3)
        for _ in range(5):
            t = rng.standard_normal() + 1j * rng.standard_normal()
            P = t * (V1 @ V2)
            assert membership(lin, P).residual < lin.tol * max(1, np.linalg.norm(P))


# The flatness_ladder pairs of the benchmark.
LADDER_PAIRS = [
    ("lower_triangular", "unit_upper_constant_diagonal", {}),
    ("symmetric", "persymmetric_constant_antidiagonal", {}),
    ("circulant", "diagonal", {}),
    ("rank_cols", "rank_rows", {"k": 2}),
    ("rank_rows", "rank_cols", {"k": 2}),
]


class TestBatchedProducts:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_linearization_raw_basis_order(self, field):
        S = catalog("symmetric", 4, field)
        T = catalog("persymmetric_constant_antidiagonal", 4, field)
        # With a zero factor the basis products are one zero matrix.
        Z = subspace_from_matrices([np.zeros((4, 4))], field=field)
        for S1, S2 in ((S, T), (Z, T), (S, Z)):
            lin = linearization(S1, S2)
            B, C = S1.basis_matrices(), S2.basis_matrices()
            want = [B[s] @ C[t] for s in range(S1.dim) for t in range(S2.dim)] or [np.zeros((4, 4))]
            assert len(lin.raw_basis) == len(want)
            assert lin.raw_basis.dtype == S1.ortho_basis.dtype
            for got, product in zip(lin.raw_basis, want):
                np.testing.assert_array_equal(got, product)

    def test_tangent_raw_basis_order(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        V1, V2 = sample_pair(C, D, 0)
        T = tangent_space(C, D, V1, V2)
        expected = [V1 @ M for M in D.basis_matrices()] + [M @ V2 for M in C.basis_matrices()]
        assert len(T.raw_basis) == len(expected)
        for got, want in zip(T.raw_basis, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind1,kind2,params", LADDER_PAIRS)
    def test_product_map_rank_is_tangent_dim(self, kind1, kind2, params):
        S1 = catalog(kind1, 8, "real", **params)
        S2 = catalog(kind2, 8, "real", **params)
        for seed in (0, 2):
            V1, V2 = sample_pair(S1, S2, seed)
            assert product_map_rank(S1, S2, V1, V2) == tangent_space(S1, S2, V1, V2).dim

    def test_zero_subspaces_have_zero_tangent_space(self):
        Z = subspace_from_matrices([np.zeros((3, 3))], field="real")
        O = np.zeros((3, 3))
        assert tangent_space(Z, Z, O, O).ortho_basis.shape == (9, 0)
        assert product_map_rank(Z, Z, O, O) == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_overflowing_product_raises_non_finite(self, field):
        # Products are linear in the point, so only a member near the float
        # maximum overflows: 1.5e308 * sqrt(2) in the second row of V1 C.
        L = catalog("lower_triangular", 2, field)
        C = subspace_from_matrices([np.array([[1.0, 0.0], [1.0, 0.0]])], field=field)
        V1 = 1.5e308 * np.array([[1.0, 0.0], [1.0, 1.0]])
        for fn in (tangent_space, product_map_rank):
            with pytest.raises(NonFiniteInput):
                fn(L, C, V1, C.raw_basis[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_huge_finite_point_keeps_its_rank(self):
        # The QR-first factor overflows here; the SVD, which scales, takes over.
        L = catalog("lower_triangular", 4, "real")
        U = catalog("unit_upper_constant_diagonal", 4, "real")
        V1, V2 = sample_pair(L, U, 0)
        V1 = V1 / np.abs(V1).max() * 1e308
        assert tangent_space(L, U, V1, V2).dim == product_map_rank(L, U, V1, V2) == 7

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_huge_point_is_a_member(self, field):
        # Only membership is checked: with the two factors 1e300 apart in
        # scale, the unequilibrated tangent columns lose rank to the cutoff.
        S = catalog("symmetric", 4, field)
        V1, V2 = sample_pair(S, S, 0)
        assert 0 < product_map_rank(S, S, 1e300 * V1, V2) <= 16


class TestSketchedLinearization:
    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_dim_matches_enumeration_on_catalog_pairs(self, n, field):
        subs = [catalog(kind, n, field, **params) for kind, params in SKETCH_KINDS.items()]
        for S1 in subs:
            for S2 in subs:
                want = linearization(S1, S2).dim
                for seed in range(3):
                    assert _sketched_linearization(S1, S2, np.random.default_rng(seed)).dim == want

    @pytest.mark.parametrize("kind1,kind2,params", LADDER_PAIRS)
    def test_dim_matches_enumeration_at_n16(self, kind1, kind2, params):
        S1 = catalog(kind1, 16, "real", **params)
        S2 = catalog(kind2, 16, "real", **params)
        sketch = _sketched_linearization(S1, S2, np.random.default_rng(0))
        assert sketch.dim == linearization(S1, S2).dim

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind1,kind2,params", LADDER_PAIRS)
    def test_report_basis_spans_the_linearization(self, kind1, kind2, params, field):
        S1 = catalog(kind1, 6, field, **params)
        S2 = catalog(kind2, 6, field, **params)
        report = flatness_test(S1, S2, seed=3)
        assert subspaces_equal(report.lin_basis_ref, linearization(S1, S2))

    def test_same_seed_same_basis(self):
        S1 = catalog("rank_cols", 8, "complex", k=2)
        S2 = catalog("rank_rows", 8, "complex", k=2)
        a = _sketched_linearization(S1, S2, np.random.default_rng(5))
        b = _sketched_linearization(S1, S2, np.random.default_rng(5))
        np.testing.assert_array_equal(a.ortho_basis, b.ortho_basis)
        np.testing.assert_array_equal(np.array(a.raw_basis), np.array(b.raw_basis))

    def test_first_block_stalls(self):
        # LU n = 6: 21 + 16 + 8 = 45 sampled products span all 36 dimensions.
        L = catalog("lower_triangular", 6, "real")
        U = catalog("unit_upper_constant_diagonal", 6, "real")
        lin = _sketched_linearization(L, U, np.random.default_rng(0))
        assert (len(lin.raw_basis), lin.dim) == (45, 36)

    def test_second_block_tops_up_past_n_squared(self):
        # 16 + 16 + 8 products do not stall below the 64 dimensions, so the
        # second block tops up to 64 + 8 of the 256 basis products.
        S1 = catalog("rank_cols", 8, "real", k=2)
        S2 = catalog("rank_rows", 8, "real", k=2)
        lin = _sketched_linearization(S1, S2, np.random.default_rng(0))
        assert (len(lin.raw_basis), lin.dim) == (72, 64)

    def test_few_basis_products_are_enumerated(self):
        # circulant x diagonal n = 8: 64 basis products, no more than 64 + 8.
        C = catalog("circulant", 8, "real")
        D = catalog("diagonal", 8, "real")
        lin = _sketched_linearization(C, D, np.random.default_rng(0))
        B, E = C.basis_matrices(), D.basis_matrices()
        assert len(lin.raw_basis) == 64
        np.testing.assert_array_equal(lin.raw_basis[9], B[1] @ E[1])


def assert_same_report(S1, S2, seed):
    got = flatness_test(S1, S2, seed=seed)
    want = sketch_first_flatness(S1, S2, seed=seed)
    assert got.to_dict() == want.to_dict()
    assert subspaces_equal(got.lin_basis_ref, want.lin_basis_ref)
    return got, want


def transported_lu(n):
    """Real LU moved by the orthogonal Q of ``default_rng(1)``: S1 = L Q^T
    and S2 = Q U.  Its product set is LU's, which is flat."""
    L = catalog("lower_triangular", n, "real")
    U = catalog("unit_upper_constant_diagonal", n, "real")
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
    return equivalence_transform(L, np.eye(n), Q), equivalence_transform(U, Q, np.eye(n))


def moved_by_complex(S1, S2):
    """The pair moved to (X S1, S2 X^{-1}) by the complex X = I + i G / ||G||,
    with G Gaussian from ``default_rng(2)``: its product set is X (S1 S2)
    X^{-1}, of the same dimensions, and neither factor has a real basis."""
    G = np.random.default_rng(2).standard_normal((S1.n, S1.n))
    X = np.eye(S1.n) + 1j * G / np.linalg.norm(G)
    return equivalence_transform(S1, X, np.eye(S1.n)), equivalence_transform(S2, np.eye(S1.n), X)


def spy_on_sketch(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return _sketched_linearization(*args)

    monkeypatch.setattr(geometry, "_sketched_linearization", spy)
    return calls


class TestTrialsBeforeSketch:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_reports_match_sketch_first_on_catalog_pairs(self, n, field):
        subs = [catalog(kind, n, field, **params) for kind, params in SKETCH_KINDS.items()]
        for S1 in subs:
            for S2 in subs:
                for seed in (0, 3):
                    assert_same_report(S1, S2, seed)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind1,kind2,params", LADDER_PAIRS)
    def test_reports_match_sketch_first_on_ladder_pairs(self, kind1, kind2, params, field):
        S1 = catalog(kind1, 8, field, **params)
        S2 = catalog(kind2, 8, field, **params)
        for seed in (0, 3):
            assert_same_report(S1, S2, seed)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind1,kind2,params", LADDER_PAIRS)
    def test_sketch_runs_only_when_no_trial_has_full_rank(
        self, kind1, kind2, params, field, monkeypatch
    ):
        calls = spy_on_sketch(monkeypatch)
        flatness_test(catalog(kind1, 8, field, **params), catalog(kind2, 8, field, **params))
        settled_by_trials = kind1 in ("lower_triangular", "symmetric")
        assert len(calls) == (0 if settled_by_trials else 1)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_space_basis_is_the_matrix_units(self, field):
        L = catalog("lower_triangular", 4, field)
        U = catalog("unit_upper_constant_diagonal", 4, field)
        lin = flatness_test(L, U).lin_basis_ref
        units = np.eye(16, dtype=L.ortho_basis.dtype)
        assert lin.dim == 16
        assert lin.ortho_basis.dtype == L.ortho_basis.dtype
        np.testing.assert_array_equal(lin.ortho_basis, units)
        assert len(lin.raw_basis) == 16
        for k, E in enumerate(lin.raw_basis):
            np.testing.assert_array_equal(E, cell(4, k % 4, k // 4))
            np.testing.assert_array_equal(vec(E), units[:, k])

    @pytest.mark.parametrize(
        "kind1,kind2,params,n",
        [("circulant", "diagonal", {}, 16), ("rank_cols", "rank_rows", {"k": 2}, 8)],
    )
    def test_span_past_n_squared_has_the_identity_basis(self, kind1, kind2, params, n):
        S1 = catalog(kind1, n, "real", **params)
        S2 = catalog(kind2, n, "real", **params)
        got, want = assert_same_report(S1, S2, 0)
        lin = got.lin_basis_ref
        assert lin.dim == n * n
        np.testing.assert_array_equal(lin.ortho_basis, np.eye(n * n))
        np.testing.assert_array_equal(
            np.array(lin.raw_basis), np.array(want.lin_basis_ref.raw_basis)
        )

    @pytest.mark.parametrize("field,n", [("real", 4), ("complex", 5)])
    def test_every_span_of_the_whole_space_has_the_identity_basis(self, field, n):
        subs = [catalog(kind, n, field, **params) for kind, params in SKETCH_KINDS.items()]
        identity = np.eye(n * n, dtype=subs[0].ortho_basis.dtype)
        full = 0
        for S1 in subs:
            for S2 in subs:
                lin = flatness_test(S1, S2, seed=3).lin_basis_ref
                if lin.dim == n * n:
                    full += 1
                    np.testing.assert_array_equal(lin.ortho_basis, identity)
        assert full > 0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_factorizability_verdicts_unchanged_for_lu(self, field):
        L = catalog("lower_triangular", 4, field)
        U = catalog("unit_upper_constant_diagonal", 4, field)
        full = subspace_from_matrices(
            [cell(4, i, j) for i in range(4) for j in range(4)], field=field
        )
        no_corner = subspace_from_matrices(
            [cell(4, i, j) for i in range(4) for j in range(4) if (i, j) != (0, 3)], field=field
        )
        want = sketch_first_flatness(L, U).lin_basis_ref
        for W, expected in ((full, True), (no_corner, False)):
            verdict, _ = factorizability_check(W, L, U)
            assert verdict is expected
            assert subspaces_equal(want, W) is expected

    def test_debug_log_names_the_deciding_path(self, caplog, capsys):
        L = catalog("lower_triangular", 4, "real")
        U = catalog("unit_upper_constant_diagonal", 4, "real")
        cols = catalog("rank_cols", 8, "real", k=2)
        rows = catalog("rank_rows", 8, "real", k=2)
        with caplog.at_level(logging.DEBUG, logger="subspace_products"):
            flatness_test(L, U, seed=0)
            flatness_test(cols, rows, seed=0)
            flatness_test(rows, cols, seed=0)
            flatness_test(*transported_lu(16), seed=0)
        assert [r.getMessage() for r in caplog.records] == [
            "S1 contains I: its trial points are P(I) + X / (2 ||X||_2)",
            "S2 contains I: its trial points are P(I) + X / (2 ||X||_2)",
            "full rank 16 certified by Cholesky of the shifted Gram matrix",
            "sampling stops: trial seed 0 reaches rank lin_dim = 16",
            # The first block of 40 products is proven of full rank, so it
            # is not spanned; the top-up of 72 is, past n^2 = 64.
            "full rank 40 certified by Cholesky of the shifted Gram matrix",
            "sketch block: 40 products, rank 40",
            "full rank 64 certified by Cholesky of the shifted Gram matrix",
            "sketch span past n^2: 72 products, rank 64, full",
            "sampling stops: 3 trials agree on rank 28",
            "sketch block: 40 products, rank 4",
            "sampling stops: trial seed 0 reaches rank lin_dim = 4",
            # Real LU moved by an orthogonal Q is flat, but neither factor
            # contains I, and its Gaussian points fall short of 256 (F1).
            "full rank 256 certified by Cholesky of the shifted Gram matrix",
            "sketch block: 265 products, rank 256",
            "sampling stops: the cap of 30 trials is reached",
        ]
        assert all(r.name == "subspace_products" for r in caplog.records)
        # Without a configured handler, debug events print nothing.
        flatness_test(L, U, seed=0)
        assert capsys.readouterr() == ("", "")


class TestOneSpanKernel:
    """Every span of all n-by-n matrices, whichever function builds it, has
    the identity (the column-major matrix units) as ``ortho_basis``."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_spans_of_dimension_n_squared_are_the_identity(self, field):
        subs = [catalog(kind, 4, field, **params) for kind, params in SKETCH_KINDS.items()]
        identity = np.eye(16, dtype=subs[0].ortho_basis.dtype)
        full = set()
        for S1 in subs:
            for S2 in subs:
                spans = {
                    "linearization": linearization(S1, S2),
                    "tangent_space": tangent_space(S1, S2, *sample_pair(S1, S2, 0)),
                    "subspace_sum": subspace_sum(S1, S2),
                }
                for name, S in spans.items():
                    if S.dim == 16:
                        full.add(name)
                        np.testing.assert_array_equal(S.ortho_basis, identity)
        assert full == {"linearization", "tangent_space", "subspace_sum"}

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_shuffled_matrix_units_span_by_the_identity(self, field):
        units = [cell(4, i, j) for j in range(4) for i in range(4)]
        order = np.random.default_rng(0).permutation(16)
        S = subspace_from_matrices([units[k] for k in order], field=field)
        assert S.dim == 16
        np.testing.assert_array_equal(S.ortho_basis, np.eye(16, dtype=S.ortho_basis.dtype))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_lu_curvature_is_exactly_zero(self, field):
        L = catalog("lower_triangular", 4, field)
        U = catalog("unit_upper_constant_diagonal", 4, field)
        V1, V2 = sample_pair(L, U, 0)
        for seed in (10, 12, 14):
            got = curvature_measure(
                L, U, V1, V2, random_element(L, seed), random_element(U, seed + 1)
            )
            assert got.tangent_dim == 16
            assert got.q_norm == 0.0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_lu_coordinates_are_the_column_major_entries(self, field):
        L = catalog("lower_triangular", 4, field)
        U = catalog("unit_upper_constant_diagonal", 4, field)
        model = extract_bilinear(L, U)
        A = random_element(subspace_sum(L, U), 5)
        assert model.l == 16
        np.testing.assert_array_equal(model.product_from_coordinates(vec(A)), A)


class TestTangentSpace:
    def test_lu_at_identity_full(self):
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        assert tangent_space(L, U, np.eye(3), np.eye(3)).dim == 9

    def test_rank_one_pair_generic_point(self):
        cols = catalog("rank_cols", 2, k=1)
        rows = catalog("rank_rows", 2, k=1)
        V1, V2 = sample_pair(cols, rows, 7)
        T = tangent_space(cols, rows, V1, V2)
        assert T.dim == 3  # 2nk - k^2 with n=2, k=1
        assert T.dim == brute_tangent_rank(
            cols.basis_matrices(), rows.basis_matrices(), V1, V2
        )

    def test_segre_tangent_dim(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        V1, V2 = sample_pair(C, D, 0)
        assert tangent_space(C, D, V1, V2).dim == 5  # 2n - 1

    def test_not_member_rejected(self):
        D = catalog("diagonal", 3)
        with pytest.raises(NotMember):
            tangent_space(D, D, cell(3, 0, 1), np.eye(3))

    def test_contained_in_linearization(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        lin = linearization(C, D)
        V1, V2 = sample_pair(C, D, 5)
        T = tangent_space(C, D, V1, V2)
        for B in T.basis_matrices():
            assert membership(lin, B).inside


class TestProductMapRank:
    def test_lu_identity(self):
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        assert product_map_rank(L, U, np.eye(3), np.eye(3)) == 9

    def test_zero_point(self):
        D = catalog("diagonal", 3)
        assert product_map_rank(D, D, np.zeros((3, 3)), np.zeros((3, 3))) == 0

    def test_bounded_by_dim_sum_minus_one(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        for seed in range(8):
            V1, V2 = sample_pair(C, D, seed)
            assert product_map_rank(C, D, V1, V2) <= C.dim + D.dim - 1

    def test_pointwise_rank_at_most_generic(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        report = flatness_test(C, D, trials=10, seed=0)
        for seed in range(10, 16):
            V1, V2 = sample_pair(C, D, seed)
            assert product_map_rank(C, D, V1, V2) <= report.generic_rank


class TestCurvature:
    def test_flat_lu_directions_vanish(self):
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        for seed in range(5):
            W1, W2 = sample_pair(L, U, 100 + seed)
            sample = curvature_measure(L, U, np.eye(3), np.eye(3), W1, W2)
            assert sample.q_norm < L.tol

    def test_base_direction_always_tangent(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        V1, V2 = sample_pair(C, D, 2)
        sample = curvature_measure(C, D, V1, V2, V1, V2)
        assert sample.q_norm < C.tol * np.linalg.norm(V1 @ V2)

    def test_rank_one_pair_has_curvature(self):
        cols = catalog("rank_cols", 2, k=1)
        rows = catalog("rank_rows", 2, k=1)
        V1, V2 = sample_pair(cols, rows, 7)
        sample = curvature_measure(cols, rows, V1, V2, cell(2, 1, 0), cell(2, 0, 1))
        assert sample.q_norm > 0.1

    def test_q_orthogonal_to_tangent(self):
        cols = catalog("rank_cols", 2, k=1)
        rows = catalog("rank_rows", 2, k=1)
        V1, V2 = sample_pair(cols, rows, 9)
        W1, W2 = sample_pair(cols, rows, 21)
        sample = curvature_measure(cols, rows, V1, V2, W1, W2)
        T = tangent_space(cols, rows, V1, V2)
        if sample.q_norm > 0:
            for B in T.basis_matrices():
                inner = abs(np.vdot(vec(B), vec(sample.q_value)))
                assert inner < T.tol * sample.q_norm


class TestSecondFundamentalForm:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kinds, n, params", [
        (("rank_cols", "rank_rows"), 2, {"k": 1}),
        (("circulant", "diagonal"), 4, {}),
        (("symmetric", "persymmetric_constant_antidiagonal"), 4, {}),
        (("upper_triangular", "upper_triangular"), 4, {}),
    ])
    def test_diagonal_equals_curvature(self, kinds, n, params, field):
        # W1 W2 + W1 W2 doubles exactly, so the two agree in every bit.
        S1, S2 = (catalog(kind, n, field, **params) for kind in kinds)
        V1, V2 = sample_pair(S1, S2, 3)
        W1, W2 = sample_pair(S1, S2, 17)
        sample = curvature_measure(S1, S2, V1, V2, W1, W2)
        form = second_fundamental_form(S1, S2, V1, V2, W1, W2, W1, W2)
        assert sample.tangent_dim == tangent_space(S1, S2, V1, V2).dim
        np.testing.assert_array_equal(form, sample.q_value)

    def test_flat_case_vanishes(self):
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        W1, W2 = sample_pair(L, U, 5)
        W1t, W2t = sample_pair(L, U, 31)
        form = second_fundamental_form(L, U, np.eye(3), np.eye(3), W1, W2, W1t, W2t)
        assert np.linalg.norm(form) < L.tol

    def test_swap_symmetry_exact(self):
        cols = catalog("rank_cols", 3, k=1)
        rows = catalog("rank_rows", 3, k=1)
        V1, V2 = sample_pair(cols, rows, 4)
        W1, W2 = sample_pair(cols, rows, 40)
        W1t, W2t = sample_pair(cols, rows, 60)
        a = second_fundamental_form(cols, rows, V1, V2, W1, W2, W1t, W2t)
        b = second_fundamental_form(cols, rows, V1, V2, W1t, W2t, W1, W2)
        np.testing.assert_array_equal(a, b)


class TestFlatness:
    def test_lu_flat(self):
        L = catalog("lower_triangular", 4)
        U = catalog("unit_upper_constant_diagonal", 4)
        report = flatness_test(L, U, trials=5, seed=0)
        assert report.flat
        assert report.generic_rank == report.lin_dim == 16

    def test_segre_curved(self):
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        report = flatness_test(C, D, trials=5, seed=0)
        assert not report.flat
        assert report.generic_rank == 5
        assert report.lin_dim == 9
        max_count = sum(1 for _, r in report.sampled_ranks if r == report.generic_rank)
        assert max_count >= 3

    def test_trials_zero(self):
        D = catalog("diagonal", 3)
        with pytest.raises(BadParameters, match="trials must be at least 1, got 0"):
            flatness_test(D, D, trials=0)

    def test_small_pencil_pair_flat(self):
        S1 = subspace_from_matrices([np.eye(2), cell(2, 0, 1)])
        S2 = subspace_from_matrices([np.eye(2), np.diag([1.0, 2.0])])
        report = flatness_test(S1, S2, trials=5, seed=0)
        assert report.flat and report.lin_dim == 3

    @pytest.mark.parametrize(
        "kind1,kind2,field,ranks",
        [
            ("lower_triangular", "unit_upper_constant_diagonal", "real", (64,)),
            ("lower_triangular", "unit_upper_constant_diagonal", "complex", (64,)),
            ("symmetric", "persymmetric_constant_antidiagonal", "real", (64,)),
            ("symmetric", "persymmetric_constant_antidiagonal", "complex", (64,)),
        ],
    )
    def test_sampled_ranks_pinned_at_n8(self, kind1, kind2, field, ranks):
        # Ranks at seed 0.  Each first factor contains I, so the trial point
        # is well conditioned; its rank is n^2 and sampling stops there.  At
        # plain Gaussian points LU ranked (64, 64, 63, 58, 64) over the reals
        # and (62, 64, 64, 61, 64) over the complex field.
        report = flatness_test(catalog(kind1, 8, field), catalog(kind2, 8, field), seed=0)
        assert report.sampled_ranks == tuple(zip(range(0, 10, 2), ranks))
        assert report.flat and report.lin_dim == 64

    @pytest.mark.parametrize(
        "kind1,kind2,field,ranks",
        [
            ("lower_triangular", "unit_upper_constant_diagonal", "real", (144,)),
            ("lower_triangular", "unit_upper_constant_diagonal", "complex", (144,)),
            ("symmetric", "persymmetric_constant_antidiagonal", "real", (144,)),
            ("symmetric", "persymmetric_constant_antidiagonal", "complex", (144,)),
        ],
    )
    def test_sampled_ranks_pinned_at_n12(self, kind1, kind2, field, ranks):
        # Ranks at seed 0, as at n = 8.  At plain Gaussian points LU ranked
        # (139, 144, 142, 134, 142) over the reals and (141, 143, 142, 143,
        # 142, 136, 144) over the complex field.
        report = flatness_test(catalog(kind1, 12, field), catalog(kind2, 12, field), seed=0)
        assert report.sampled_ranks == tuple(zip(range(0, 2 * len(ranks), 2), ranks))
        assert report.flat and report.lin_dim == 144

    def test_zero_subspace_rejected(self):
        Z = subspace_from_matrices([np.zeros((2, 2))])
        D = catalog("diagonal", 2)
        with pytest.raises(ZeroSubspace):
            flatness_test(Z, D)

    def test_flat_point_has_vanishing_q_curved_points_do_not(self):
        # flat side
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        report = flatness_test(L, U, trials=5, seed=0)
        flat_seed = next(s for s, r in report.sampled_ranks if r == report.lin_dim)
        V1, V2 = sample_pair(L, U, flat_seed)
        for t in range(20):
            W1, W2 = sample_pair(L, U, 500 + 2 * t)
            W1, W2 = W1 / np.linalg.norm(W1), W2 / np.linalg.norm(W2)
            assert curvature_measure(L, U, V1, V2, W1, W2).q_norm < L.tol
        # curved side
        C = catalog("circulant", 3)
        D = catalog("diagonal", 3)
        report = flatness_test(C, D, trials=5, seed=0)
        assert not report.flat
        for s, _ in report.sampled_ranks:
            V1, V2 = sample_pair(C, D, s)
            norms = []
            for t in range(20):
                W1, W2 = sample_pair(C, D, 700 + 2 * t)
                W1, W2 = W1 / np.linalg.norm(W1), W2 / np.linalg.norm(W2)
                norms.append(curvature_measure(C, D, V1, V2, W1, W2).q_norm)
            assert max(norms) > C.tol

    def test_open_dense_factoring_of_linearization(self):
        # Over the complex field a flat product set fills an open dense
        # subset of its linearization, so random coordinate vectors should
        # be reachable by the bilinear solver almost always.
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        model = extract_bilinear(L, U)
        rng = np.random.default_rng(42)
        hits = 0
        for seed in range(100):
            b = rng.standard_normal(model.l) + 1j * rng.standard_normal(model.l)
            rep = solve_bilinear(model, b, restarts=10, seed=seed)
            hits += rep.residual < 1e-6
        assert hits >= 95


class TestWellConditionedPoints:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind", ["lower_triangular", "unit_upper_constant_diagonal"])
    def test_point_near_identity_when_the_factor_contains_it(self, kind, field):
        S = catalog(kind, 16, field)
        for seed in range(3):
            V = sample_pair(S, S, seed)[0]
            assert membership(S, V).inside
            s = np.linalg.svd(V, compute_uv=False)
            assert 0.5 - 1e-12 <= s[-1] and s[0] <= 1.5 + 1e-12

    def test_gaussian_point_when_the_factor_lacks_the_identity(self):
        cols = catalog("rank_cols", 6, "real", k=2)
        rows = catalog("rank_rows", 6, "real", k=2)
        V1, V2 = sample_pair(cols, rows, 4)
        np.testing.assert_array_equal(V1, random_element(cols, 4))
        np.testing.assert_array_equal(V2, random_element(rows, 5))

    @pytest.mark.parametrize("field,n", [("real", 16), ("real", 24), ("real", 32),
                                         ("complex", 12), ("complex", 16)])
    def test_lu_flat_in_one_trial(self, field, n):
        # At plain Gaussian points real LU was called curved from n = 16.
        L = catalog("lower_triangular", n, field)
        U = catalog("unit_upper_constant_diagonal", n, field)
        report = flatness_test(L, U, trials=5, seed=0)
        assert report.flat and report.trials == 1
        assert report.sampled_ranks == ((0, n * n),)

    def test_verdicts_match_gaussian_points_on_catalog_pairs(self):
        subs = [catalog(kind, 6, "real", **params) for kind, params in SKETCH_KINDS.items()]
        for S1 in subs:
            for S2 in subs:
                got = flatness_test(S1, S2)
                want = gaussian_flatness(S1, S2)
                assert (got.lin_dim, got.generic_rank, got.flat) == (
                    want.lin_dim, want.generic_rank, want.flat
                )

    @pytest.mark.parametrize("trials", [1, 5])
    @pytest.mark.parametrize("kind1,kind2,params", [
        ("circulant", "diagonal", {}), ("rank_cols", "rank_rows", {"k": 2}),
    ])
    def test_curved_pairs_run_every_trial_and_confirm(self, kind1, kind2, params, trials):
        S1 = catalog(kind1, 6, "real", **params)
        S2 = catalog(kind2, 6, "real", **params)
        report = flatness_test(S1, S2, trials=trials, seed=0)
        assert not report.flat
        assert report.trials >= max(trials, 3)
        assert sum(r == report.generic_rank for _, r in report.sampled_ranks) >= 3

    @pytest.mark.parametrize("kind1,kind2", [("rank_cols", "rank_rows"), ("rank_rows", "rank_cols")])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_report_unchanged_without_the_identity(self, kind1, kind2, field):
        # Neither factor contains I and no trial reaches n^2: every trial runs
        # at its Gaussian point, as before.
        S1 = catalog(kind1, 6, field, k=2)
        S2 = catalog(kind2, 6, field, k=2)
        for seed in range(3):
            assert flatness_test(S1, S2, seed=seed).to_dict() == gaussian_flatness(
                S1, S2, seed=seed
            ).to_dict()


# Pairs whose flatness reports must equal the reference's bit for bit: every
# factor containing I or not, flat and curved, proper and full linearizations.
REFERENCE_PAIRS = [
    ("lower_triangular", "unit_upper_constant_diagonal", {}),
    ("upper_triangular", "upper_triangular", {}),
    ("symmetric", "persymmetric_constant_antidiagonal", {}),
    ("circulant", "diagonal", {}),
    ("toeplitz_upper_triangular", "unit_lower_constant_diagonal", {}),
    ("diagonal", "lower_triangular", {}),
    ("rank_cols", "rank_rows", {"k": 2}),
    ("band_upper", "band_lower", {"p": 1, "q": 1}),
]


class TestFlatnessWithoutMembershipTests:
    """``flatness_test`` checks the pair on entry and ranks its trial
    points, which are members by construction, without testing them again."""

    @pytest.mark.parametrize("case,n", [
        ("real", 6), ("complex", 4), ("complex", 5), ("complex moved", 5),
    ])
    @pytest.mark.parametrize("kind1,kind2,params", REFERENCE_PAIRS)
    def test_report_equals_the_tested_reference(self, kind1, kind2, params, case, n):
        field = case.split()[0]
        S1, S2 = catalog(kind1, n, field, **params), catalog(kind2, n, field, **params)
        if case == "complex moved":
            S1, S2 = moved_by_complex(S1, S2)
        for seed in (0, 3):
            got, want = flatness_test(S1, S2, seed=seed), reference_flatness(S1, S2, seed=seed)
            assert got.to_dict() == want.to_dict()
            lin = want.lin_basis_ref
            if case == "complex":
                # Real bases: the sketch is that of the real forms, complexified.
                R1, R2 = _real_form(S1), _real_form(S2)
                lin = _complexified(reference_flatness(R1, R2, seed=seed).lin_basis_ref)
            for a, b in ((got.lin_basis_ref.raw_basis, lin.raw_basis),
                         (got.lin_basis_ref.ortho_basis, lin.ortho_basis),
                         *zip(sample_pair(S1, S2, seed), (reference_point(S1, seed),
                                                          reference_point(S2, seed + 1)))):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_transported_lu_equals_the_tested_reference(self):
        S1, S2 = transported_lu(8)
        got, want = flatness_test(S1, S2), reference_flatness(S1, S2)
        assert got.to_dict() == want.to_dict()
        np.testing.assert_array_equal(got.lin_basis_ref.ortho_basis, want.lin_basis_ref.ortho_basis)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("kind1,kind2", [
        ("lower_triangular", "unit_upper_constant_diagonal"), ("circulant", "diagonal"),
    ])
    def test_no_membership_test_and_no_public_rank(self, kind1, kind2, field, monkeypatch):
        S1, S2 = catalog(kind1, 6, field), catalog(kind2, 6, field)
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((core, "_membership"), (core, "require_member"),
                             (geometry, "require_member"), (geometry, "product_map_rank")):
            spy(module, name)
        report = flatness_test(S1, S2)
        assert calls == []
        # The spies are live: the public rank tests both points.
        assert geometry.product_map_rank(S1, S2, *sample_pair(S1, S2, 0)) == report.sampled_ranks[0][1]
        assert calls == ["product_map_rank", "require_member", "_membership",
                         "require_member", "_membership"]

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_identity_part_decides_as_membership(self, field):
        subs = [catalog(kind, 4, field, **params) for kind, params in SKETCH_KINDS.items()]
        subs.append(catalog("krylov", 4, field, matrix=np.diag([1.0, 2.0, 3.0, 4.0]) + np.eye(4, k=1),
                            max_power=3))
        if field == "real":
            subs.append(catalog("hurwitz_radon_2", 2, field))
        # A span of I + eps E_01 and one other member holds I only within
        # round-off: at 1e-6 it does not, at 1e-12 it does.
        for eps in (1e-6, 1e-12):
            subs.append(subspace_from_matrices([np.eye(4) + eps * cell(4, 0, 1), cell(4, 2, 3)], field=field))
        found = []
        for S in subs:
            inside = membership(S, np.eye(S.n)).inside
            assert (_identity_part(S) is not None) == inside
            found.append(inside)
        assert found[-2:] == [False, True] and any(found[:-2]) and not all(found[:-2])


class TestRealFormsOfComplexPairs:
    """A complex pair whose factors both have real bases is decided in its
    real forms; every other complex pair keeps the complex trial loop."""

    EVENT = "S1 and S2 have real bases: the verdict is decided in their real forms"

    @staticmethod
    def loop_fields(monkeypatch):
        fields = []
        loop = geometry._sampled_flatness

        def spy(S1, S2, *args):
            fields.append((S1.field, S2.field))
            return loop(S1, S2, *args)

        monkeypatch.setattr(geometry, "_sampled_flatness", spy)
        return fields

    def test_real_form_and_back(self):
        S = catalog("upper_triangular", 4, "complex")
        R = _real_form(S)
        assert (R.field, R.dim, R.tols) == ("real", S.dim, S.tols)
        assert R.raw_basis.dtype == R.ortho_basis.dtype == np.float64
        assert subspaces_equal(R, catalog("upper_triangular", 4, "real"))
        back = _complexified(R)
        for a, b in ((back.raw_basis, S.raw_basis), (back.ortho_basis, S.ortho_basis)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert _real_form(catalog("upper_triangular", 4, "real")) is None
        assert _real_form(subspace_from_matrices([np.eye(2), 1j * cell(2, 0, 1)])) is None

    def test_complexified_full_space_has_the_identity_basis(self):
        full = _complexified(core._full_space(3, "real", core.Tolerances()))
        want = core._full_space(3, "complex", core.Tolerances())
        assert (full.field, full.dim) == ("complex", 9)
        for a, b in ((full.raw_basis, want.raw_basis), (full.ortho_basis, want.ortho_basis)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_real_forms_exactly_when_both_bases_are_real(self, monkeypatch, caplog):
        S1, S2 = catalog("circulant", 5, "complex"), catalog("diagonal", 5, "complex")
        M1, M2 = moved_by_complex(S1, S2)
        R1, R2 = catalog("circulant", 5, "real"), catalog("diagonal", 5, "real")
        fields = self.loop_fields(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="subspace_products"):
            for pair in ((S1, S2), (R1, R2), (M1, S2), (S1, M2), (M1, M2)):
                flatness_test(*pair)
        assert fields == [("real", "real")] * 2 + [("complex", "complex")] * 3
        assert [r.getMessage() for r in caplog.records].count(self.EVENT) == 1

    def test_events_are_those_of_the_real_forms(self, caplog):
        events = []
        for field in ("complex", "real"):
            L, U = catalog("lower_triangular", 4, field), catalog("unit_upper_constant_diagonal", 4, field)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="subspace_products"):
                flatness_test(L, U)
            events.append([r.getMessage() for r in caplog.records])
        assert events[0] == [self.EVENT] + events[1]

    def test_the_public_test_runs_once_per_call(self, monkeypatch):
        calls = []
        public = geometry.flatness_test

        def counted(*args, **kwargs):
            calls.append(1)
            return public(*args, **kwargs)

        monkeypatch.setattr(geometry, "flatness_test", counted)
        S1 = catalog("lower_triangular", 4, "complex")
        S2 = catalog("unit_upper_constant_diagonal", 4, "complex")
        W = subspace_from_matrices([cell(4, i, j) for i in range(4) for j in range(4)])
        report = geometry.flatness_test(S1, S2)
        assert len(calls) == 1 and report.trials == 1
        verdict, _ = geometry.factorizability_check(W, S1, S2)
        assert len(calls) == 2 and verdict

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind1,kind2,params", REFERENCE_PAIRS)
    def test_factorizability_verdicts_are_unchanged(self, kind1, kind2, params, n):
        # Verdicts as the complex trial loop reaches them, against the
        # enumerated linearization and against all n-by-n matrices.
        S1, S2 = catalog(kind1, n, "complex", **params), catalog(kind2, n, "complex", **params)
        full = subspace_from_matrices([cell(n, i, j) for i in range(n) for j in range(n)])
        want = reference_flatness(S1, S2)
        for W in (linearization(S1, S2), full):
            dims_ok = 1 < min(S1.dim, S2.dim) and max(S1.dim, S2.dim) < W.dim
            verdict, report = factorizability_check(W, S1, S2)
            assert report.to_dict() == want.to_dict()
            assert verdict == (dims_ok and want.flat and subspaces_equal(want.lin_basis_ref, W))


class TestStopAtLinDim:
    @pytest.mark.parametrize(
        "kind1,kind2,params,field,n,lin_dim",
        [
            ("rank_rows", "rank_cols", {"k": 2}, "real", 6, 4),
            ("rank_rows", "rank_cols", {"k": 2}, "complex", 6, 4),
            ("rank_rows", "rank_cols", {"k": 2}, "real", 8, 4),
            ("rank_rows", "rank_cols", {"k": 2}, "complex", 8, 4),
            ("diagonal", "lower_triangular", {}, "real", 6, 21),
            ("upper_triangular", "upper_triangular", {}, "real", 24, 300),
        ],
    )
    def test_flat_pair_with_a_proper_linearization_stops_at_trial_0(
        self, kind1, kind2, params, field, n, lin_dim
    ):
        S1 = catalog(kind1, n, field, **params)
        S2 = catalog(kind2, n, field, **params)
        report = flatness_test(S1, S2, trials=5, seed=0)
        assert report.flat and report.trials == 1
        assert report.sampled_ranks == ((0, lin_dim),)

    def test_reported_ranks_are_the_ranks_at_the_sampled_points(self):
        subs = [catalog(kind, 6, "real", **params) for kind, params in SKETCH_KINDS.items()]
        for S1 in subs:
            for S2 in subs:
                report = flatness_test(S1, S2)
                for s, r in report.sampled_ranks:
                    assert r == product_map_rank(S1, S2, *sample_pair(S1, S2, s))
                assert all(r != report.lin_dim for _, r in report.sampled_ranks[:-1])

    @pytest.mark.parametrize(
        "kind1,kind2,params,rank",
        [("circulant", "diagonal", {}, 15), ("rank_cols", "rank_rows", {"k": 2}, 28)],
    )
    def test_curved_reports_are_unchanged(self, kind1, kind2, params, rank):
        # Ranks at seed 0 as reported before sampling stopped at lin_dim.
        S1 = catalog(kind1, 8, "real", **params)
        S2 = catalog(kind2, 8, "real", **params)
        report = flatness_test(S1, S2, seed=0)
        assert report.sampled_ranks == tuple((s, rank) for s in range(0, 10, 2))
        assert (report.lin_dim, report.generic_rank, report.flat) == (64, rank, False)


class TestFactorizability:
    def test_lu_pair_factors_full_space(self):
        W = subspace_from_matrices(
            [cell(3, i, j) for i in range(3) for j in range(3)]
        )
        L = catalog("lower_triangular", 3)
        U = catalog("unit_upper_constant_diagonal", 3)
        verdict, report = factorizability_check(W, L, U, trials=5, seed=0)
        assert verdict and report.flat

    def test_symmetric_pair_factors_full_space(self):
        W = subspace_from_matrices(
            [cell(3, i, j) for i in range(3) for j in range(3)]
        )
        S = catalog("symmetric", 3)
        verdict, report = factorizability_check(W, S, S, trials=5, seed=0)
        assert verdict and report.flat

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_verdicts_on_the_full_space(self, n, field):
        # Verdicts as computed with the enumerated linearization.
        W = subspace_from_matrices(
            [cell(n, i, j) for i in range(n) for j in range(n)], field=field
        )
        pairs = LADDER_PAIRS + [
            ("symmetric", "symmetric", {}),
            ("toeplitz_upper_triangular", "toeplitz_lower_triangular", {}),
        ]
        verdicts = []
        for kind1, kind2, params in pairs:
            S1 = catalog(kind1, n, field, **params)
            S2 = catalog(kind2, n, field, **params)
            verdict, report = factorizability_check(W, S1, S2, seed=0)
            verdicts.append((verdict, report.flat, report.lin_dim))
        N = n * n
        assert verdicts == [
            (True, True, N), (True, True, N), (False, False, N), (False, False, N),
            (False, True, 4), (True, True, N), (False, False, N),
        ]

    def test_dimension_window_enforced(self):
        full = subspace_from_matrices(
            [cell(2, i, j) for i in range(2) for j in range(2)]
        )
        one = subspace_from_matrices([np.eye(2)])
        verdict, _ = factorizability_check(full, one, full, trials=3, seed=0)
        assert not verdict


class TestFullRankCertificate:
    """A rank that ``core._certified_full_rank`` proves is the rank the SVD
    gives, so every report is byte-identical with the certificate off, in
    core's spans and in the sketch's first block alike."""

    @staticmethod
    def reports(subs, pairs, tmp_path, capsys):
        files = {}
        for kind, S in subs.items():
            files[kind] = str(tmp_path / f"{kind}.json")
            save_obj(subspace_to_obj(S), files[kind])
        n, field = next((S.n, S.field) for S in subs.values())
        W = subspace_from_matrices([cell(n, i, j) for i in range(n) for j in range(n)], field=field)
        out = []
        for k1, k2 in pairs:
            S1, S2 = subs[k1], subs[k2]
            report = flatness_test(S1, S2, seed=3)
            lin = report.lin_basis_ref
            verdict, again = factorizability_check(W, S1, S2, seed=3)
            out += [
                json.dumps(report.to_dict()),
                lin.ortho_basis.tobytes() + b"".join(B.tobytes() for B in lin.raw_basis),
                (verdict, json.dumps(again.to_dict())),
            ]
            for argv in (
                ["flatness"], ["analyze", "--budget", "1"], ["curvature", "--directions", "2"]
            ):
                main([*argv, files[k1], files[k2], "--seed", "3"])
                out.append(capsys.readouterr().out)
        return out

    def assert_same_without_certificate(self, subs, pairs, tmp_path, capsys, monkeypatch):
        """Compare the reports with the certificate on and off; return what
        each call of the certificate proved."""
        proved = []

        def spy(stack, tols):
            proved.append(certify(stack, tols))
            return proved[-1]

        certify = core._certified_full_rank
        for module in (core, geometry):
            monkeypatch.setattr(module, "_certified_full_rank", spy)
        with_certificate = self.reports(subs, pairs, tmp_path, capsys)
        for module in (core, geometry):
            monkeypatch.setattr(module, "_certified_full_rank", lambda stack, tols: False)
        assert self.reports(subs, pairs, tmp_path, capsys) == with_certificate
        return proved

    def test_the_sketch_skips_the_span_of_a_proven_first_block(self, monkeypatch):
        # rank_cols x rank_rows at n = 8: the 40 products of the first
        # block are proven independent, so only the top-up of 72 is spanned.
        spans = []

        def spy(P, field, tols):
            spans.append(len(P))
            return span(P, field, tols)

        span = geometry._subspace_from_stack
        monkeypatch.setattr(geometry, "_subspace_from_stack", spy)
        S1 = catalog("rank_cols", 8, "real", k=2)
        S2 = catalog("rank_rows", 8, "real", k=2)
        lin = _sketched_linearization(S1, S2, np.random.default_rng(0))
        assert spans == [72] and lin.dim == 64
        # Reversed, the block stalls at rank 4: the proof fails, and it is
        # spanned and returned.
        spans.clear()
        assert _sketched_linearization(S2, S1, np.random.default_rng(0)).dim == 4
        assert spans == [40]

    def test_catalog_pairs(self, tmp_path, capsys, monkeypatch):
        subs = {kind: catalog(kind, 6, "real", **params) for kind, params in SKETCH_KINDS.items()}
        pairs = [(k1, k2) for k1 in subs for k2 in subs]
        assert len(pairs) == 196
        proved = self.assert_same_without_certificate(subs, pairs, tmp_path, capsys, monkeypatch)
        assert any(proved) and not all(proved)

    @pytest.mark.parametrize("field,n", [("real", 16), ("complex", 12)])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("lower_triangular", "unit_upper_constant_diagonal"),
            ("symmetric", "persymmetric_constant_antidiagonal"),
        ],
    )
    def test_flat_pairs_at_large_n(self, kinds, field, n, tmp_path, capsys, monkeypatch):
        subs = {kind: catalog(kind, n, field) for kind in kinds}
        proved = self.assert_same_without_certificate(subs, [kinds], tmp_path, capsys, monkeypatch)
        assert any(proved)
