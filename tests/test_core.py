import math
import re

import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    EmptyInput,
    FieldMismatch,
    MixedSizes,
    NonFiniteInput,
    NotMember,
    RealFieldViolation,
    SingularTransform,
    SizeMismatch,
    Tolerances,
    ZeroSubspace,
    equivalence_transform,
    extract_bilinear,
    factor_via_inverse_closed,
    flatness_test,
    membership,
    minrank,
    numerical_rank,
    random_element,
    solve_bilinear,
    subspace_from_matrices,
    subspace_sum,
    subspaces_equal,
    zero_product_probe,
)
from subspace_products import core
from subspace_products.core import (
    _certified_full_rank,
    _gaussian_coefficients,
    _least_squares,
    _norm,
    _products,
    _projection,
    _ranks,
    _reduced_stack,
    _subspace_from_stack,
    _svd,
    _vec_columns,
    _with_basis,
    matrix_rank,
    rank_from_singular_values,
    require_member,
)
from helpers import (
    SKETCH_KINDS,
    brute_span_rank,
    catalog,
    cell,
    exact_rank_fraction,
    membership_subspaces_equal,
)


def spelled_out_norm(Y):
    """``_norm`` of an array whose sum of squares is in range, spelled out:
    the square root of one dot of its entries in C order."""
    return math.sqrt(np.vdot(Y, Y).real)


def spelled_out_column_norms(Y):
    """``_norm(Y, axis=0)`` of a 2-d Y whose column sums of squares are in
    range, spelled out: one vectorized sum per column of the parts."""
    r = np.ascontiguousarray(Y).view(np.float64)
    squares = np.einsum("ij,ij->j", r, r)
    if np.iscomplexobj(Y):
        squares = squares[0::2] + squares[1::2]
    return np.sqrt(squares)


class TestSubspaceFromMatrices:
    def test_dependent_multiples_collapse(self):
        S = subspace_from_matrices([np.eye(2), 2 * np.eye(2)])
        assert S.dim == 1

    def test_one_dependency(self):
        e11, e12 = cell(2, 0, 0), cell(2, 0, 1)
        S = subspace_from_matrices([e11, e12, e11 + e12])
        assert S.dim == 2

    def test_random_complex_span_is_full(self):
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(10)]
        S = subspace_from_matrices(mats)
        assert S.dim == brute_span_rank(mats) == 9

    def test_ortho_basis_is_orthonormal(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((3, 3)) for _ in range(4)]
        S = subspace_from_matrices(mats, field="real")
        gram = S.ortho_basis.T @ S.ortho_basis
        np.testing.assert_allclose(gram, np.eye(S.dim), atol=S.tol)

    def test_raw_basis_members(self):
        rng = np.random.default_rng(2)
        mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(5)]
        S = subspace_from_matrices(mats)
        for M in mats:
            assert membership(S, M).inside

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            subspace_from_matrices([])

    def test_mixed_sizes(self):
        with pytest.raises(MixedSizes):
            subspace_from_matrices([np.eye(2), np.eye(3)])

    def test_real_field_violation(self):
        with pytest.raises(RealFieldViolation):
            subspace_from_matrices([np.eye(2) * 1j], field="real")

    def test_nan_rejected(self):
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            subspace_from_matrices([bad])

    def test_zero_subspace_representable(self):
        S = subspace_from_matrices([np.zeros((2, 2))])
        assert S.dim == 0
        with pytest.raises(ZeroSubspace):
            random_element(S, 0)

    def test_span_stable_under_reorthonormalization(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(5)]
        S = subspace_from_matrices(mats)
        S2 = subspace_from_matrices(S.basis_matrices())
        assert S2.dim == S.dim
        assert subspaces_equal(S, S2)


class TestMembership:
    def test_identity_in_symmetric(self):
        S = catalog("symmetric", 3)
        got = membership(S, np.eye(3))
        assert got.inside and got.residual < 1e-12

    def test_offdiagonal_outside_diagonal(self):
        S = catalog("diagonal", 2)
        got = membership(S, cell(2, 0, 1))
        assert not got.inside
        assert got.residual == pytest.approx(1.0, abs=1e-12)

    def test_e21_orthogonal_to_span_i_e12(self):
        S = subspace_from_matrices([np.eye(2), cell(2, 0, 1)])
        got = membership(S, cell(2, 1, 0))
        assert not got.inside
        assert got.residual == pytest.approx(1.0, abs=1e-12)

    def test_size_mismatch(self):
        S = catalog("diagonal", 2)
        with pytest.raises(SizeMismatch):
            membership(S, np.eye(3))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_huge_entries_do_not_overflow(self, field):
        # Squaring entries of 1e200 overflows; the norms must not.
        S = subspace_from_matrices([np.eye(2), np.ones((2, 2))], field=field)
        inside = membership(S, 1e200 * np.ones((2, 2)))
        assert inside.inside and np.isfinite(inside.residual)
        outside = membership(S, 1e200 * cell(2, 0, 1))
        assert not outside.inside
        assert outside.residual == pytest.approx(1e200 / np.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_norm_past_the_float_maximum(self, field):
        # ||A||_F = 3e308 overflows to inf, which would pass any residual;
        # the verdict is taken on A / 1.5e308 and the residual scaled back.
        S = catalog("lower_triangular", 2, field)
        outside = membership(S, 1.5e308 * np.ones((2, 2)))
        assert (outside.inside, outside.residual) == (False, 1.5e308)
        with pytest.raises(NotMember):
            require_member(S, 1.5e308 * np.ones((2, 2)))
        inside = membership(S, 1.5e308 * np.tril(np.ones((2, 2))))
        assert inside.inside and inside.residual < 1e-12 * 1.5e308

    def test_project_out_of_a_complex_matrix_keeps_its_imaginary_part(self):
        # Over the real field the projection of A is that of Re A, so with
        # Re A in S the orthogonal part is i Im A, complex as A is: the
        # residual of membership.
        rng = np.random.default_rng(5)
        S = catalog("lower_triangular", 4, "real")
        im = rng.standard_normal((4, 4))
        A = np.tril(rng.standard_normal((4, 4))) + 1j * im
        R = S.project_out(A)
        assert R.dtype == np.complex128
        np.testing.assert_allclose(R, 1j * im, atol=1e-12)
        assert _norm(R) == pytest.approx(membership(S, A).residual, rel=1e-12)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(4)
        S = catalog("lower_triangular", 4)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = S.project(A)
        assert membership(S, P).residual < S.tol


class TestProjectionKernel:
    """Every projection onto a subspace goes through ``_projection``, bit for
    bit the expressions each caller used to spell out."""

    @staticmethod
    def spelled_out(S, X):
        coef = S.ortho_basis.conj().T @ X
        if S.field == "real":
            coef = coef.real
        return S.ortho_basis @ coef

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_callers_match_their_expressions(self, field):
        rng = np.random.default_rng(12)
        S = catalog("lower_triangular", 4, field)
        T = catalog("symmetric", 4, field)
        Q = S.ortho_basis
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if field == "real":
            A = A.real
        np.testing.assert_array_equal(_projection(S, Q), self.spelled_out(S, Q))
        project = (Q @ S.coefficients(A)).reshape((4, 4), order="F")
        np.testing.assert_array_equal(S.project(A), project)
        np.testing.assert_array_equal(S.project_out(A), np.asarray(A, dtype=Q.dtype) - project)
        # membership on a complex matrix too, which a real subspace admits.
        for M in (A, A + 1j * rng.standard_normal((4, 4))):
            v = M.reshape(-1, order="F").astype(np.complex128)
            residual = spelled_out_norm(v - self.spelled_out(S, v))
            assert membership(S, M).residual == residual
        # subspaces_equal projects one orthonormal basis onto the other span.
        np.testing.assert_array_equal(
            T.ortho_basis - _projection(S, T.ortho_basis),
            T.ortho_basis - self.spelled_out(S, T.ortho_basis),
        )
        # factor_via_inverse_closed projects A C over the basis C of a
        # same-field subspace, without the real-part rule: a no-op there.
        P = _vec_columns(_products(A, T.basis_matrices()))
        np.testing.assert_array_equal(_projection(S, P), Q @ (Q.conj().T @ P))


def same_bits(got, want):
    """Equal dtypes and equal bits, so -0.0 is told from 0.0."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestFullSpaceCoordinates:
    """Over all n-by-n matrices the orthonormal basis is the identity, and
    ``_coordinates`` forms no product with it: coefficients, projections and
    membership read bit for bit what the identity product gave."""

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equal_to_the_identity_product(self, n, field):
        W = subspace_from_matrices([cell(n, i, j) for j in range(n) for i in range(n)], field=field)
        Q = W.ortho_basis
        assert W.dim == n * n and np.array_equal(Q, np.eye(n * n))
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, n))
        # -0.0 entries: in a column of negatives and in a mixed one.
        negative = -np.abs(X)
        negative[::2, 0] = -0.0
        mixed = X.copy()
        mixed[0, :] = -0.0
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Z[1, :] = complex(-0.0, -0.0)
        # Complex matrices against the real full space too.
        for A in (X, negative, mixed, Z, Z.real + 1j * -0.0 * Z.imag):
            v = A.reshape(-1, order="F")
            coef = Q.conj().T @ v
            if field == "real":
                coef = coef.real
            assert same_bits(W.coefficients(A), coef)
            assert same_bits(W.project(A), (Q @ coef).reshape((n, n), order="F"))
            w = v.astype(np.complex128)
            spelled = Q.conj().T @ w
            if field == "real":
                spelled = spelled.real
            residual = spelled_out_norm(w - Q @ spelled)
            got = membership(W, A)
            assert got.residual == residual
            assert got.inside is bool(residual < W.tol * max(1.0, np.linalg.norm(v)))
        # A complex matrix is a member of the real full space only when real.
        assert not membership(W, Z).inside if field == "real" else membership(W, Z).inside

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_extract_bilinear_takes_the_same_rule(self, field):
        # LU at n = 3 has the full space as its linearization: the structure
        # constants are the vectorized basis products, -0.0 read 0.0 (the
        # complex products hold -0.0 parts).
        S1, S2 = catalog("lower_triangular", 3, field), catalog("unit_upper_constant_diagonal", 3, field)
        model = extract_bilinear(S1, S2)
        assert model.l == 9
        P = _vec_columns(_products(S1.basis_matrices()[:, None], S2.basis_matrices()[None]))
        Q = np.eye(9, dtype=P.dtype)
        assert same_bits(model.M.reshape(9, -1), Q.conj().T @ P)


class TestNumericalRank:
    def test_independent(self):
        assert numerical_rank([(1, 0), (0, 1)]) == 2

    def test_dependent(self):
        assert numerical_rank([(1, 1), (2, 2)]) == 1

    def test_tiny_perturbation_below_tolerance(self):
        assert numerical_rank([(1, 0), (1, 1e-15)]) == 1

    def test_empty(self):
        with pytest.raises(EmptyInput):
            numerical_rank([])

    def test_matches_exact_rank_on_integer_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 8))
            A = rng.integers(-3, 4, size=(m, n * n))
            got = numerical_rank(list(A.astype(float)))
            assert got == exact_rank_fraction(A)


class TestMatrixRank:
    def test_ranks(self):
        assert matrix_rank(np.zeros((3, 3))) == 0
        assert matrix_rank(np.diag([1.0, 1e-3, 1e-10])) == 2
        assert matrix_rank(np.diag([1.0, 1e-3, 1e-10]), Tolerances(rel_rank_tol=1e-12)) == 3
        assert matrix_rank(cell(3, 0, 2)) == 1
        assert matrix_rank(np.eye(4)) == 4

    def test_below_absolute_floor_is_zero(self):
        assert matrix_rank(1e-13 * np.eye(2)) == 0

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_batched_ranks_are_those_of_matrix_rank(self, field):
        # Square members of full and lower rank, one below the absolute
        # floor, one with singular values either side of the relative cutoff,
        # and zero.
        stack = np.array([stack_with_singular_values(sigma, 5, field, seed=i)
                          for i, sigma in enumerate([
                              [1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.5, 1e-3, 0.0, 0.0],
                              [3.0, 0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0, 0.0],
                              [1.0, 1.0, 2e-8, 0.5e-8, 0.0], [0.0] * 5,
                          ])])
        tols = Tolerances()
        want = [matrix_rank(M, tols) for M in stack]
        assert want == [5, 3, 1, 0, 3, 0]
        assert _ranks(stack, tols).tolist() == want


def stack_with_singular_values(sigma, N, field, seed=0):
    """U diag(sigma) V^H with Haar-like U (m x m) and V (N x m)."""
    rng = np.random.default_rng(seed)
    m = len(sigma)
    U, _ = np.linalg.qr(_gaussian_coefficients(rng, (m, m), field))
    V, _ = np.linalg.qr(_gaussian_coefficients(rng, (N, m), field))
    return (U * sigma) @ V.conj().T


@pytest.mark.filterwarnings("error")
class TestCertifiedFullRank:
    M = 12

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("N", [M, M + 1, 2 * M])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("ratio", [1e-9, 1e-8, 2e-8, 1e-7, 1e-6, 1e-3, 3e-3])
    @pytest.mark.parametrize("tols", [Tolerances(), Tolerances(rel_rank_tol=1e-3)])
    def test_proves_only_the_rank_the_svd_gives(self, ratio, scale, N, field, tols):
        sigma = np.logspace(0.0, np.log10(ratio), self.M)
        stack = scale * stack_with_singular_values(sigma, N, field)
        proved = _certified_full_rank(stack, tols)
        if proved:
            assert matrix_rank(stack, tols) == self.M
        if ratio >= 1e-6 and ratio > 10 * tols.rel_rank_tol and scale >= 1.0:
            assert proved
        if scale < tols.abs_floor:
            assert not proved

    def test_below_the_floor_or_zero_proves_nothing(self):
        stack = stack_with_singular_values(np.ones(4), 8, "real")
        assert _certified_full_rank(stack, Tolerances())
        for tiny in (1e-13 * stack, np.zeros((4, 8))):
            assert matrix_rank(tiny) == 0
            assert not _certified_full_rank(tiny, Tolerances())

    def test_rank_deficient_and_tall_stacks_prove_nothing(self):
        sigma = np.array([1.0, 0.5, 0.0])
        assert not _certified_full_rank(stack_with_singular_values(sigma, 6, "real"), Tolerances())
        assert not _certified_full_rank(np.eye(4)[:, :3], Tolerances())


@pytest.mark.filterwarnings("error")
class TestMatrixRankWithCertificate:
    """``matrix_rank`` tries the full-rank certificate on wide matrices only
    and always gives the rank of the singular values."""

    def test_certificate_is_consulted_only_for_wide_matrices(self, monkeypatch):
        shapes = []

        def spy(stack, tols):
            shapes.append(stack.shape)
            return certify(stack, tols)

        certify = core._certified_full_rank
        monkeypatch.setattr(core, "_certified_full_rank", spy)
        rng = np.random.default_rng(0)
        for shape in [(4, 4), (4, 3), (1, 1), (4, 5), (4, 8), (1, 3)]:
            assert matrix_rank(rng.standard_normal(shape)) == min(shape)
        assert shapes == [(4, 5), (4, 8), (1, 3)]
        # The pencil routines ask only about square matrices.
        shapes.clear()
        for kind in ("diagonal", "upper_triangular", "circulant"):
            S = catalog(kind, 4, "real")
            minrank(S, seed=0)
            equivalence_transform(S, np.eye(4) + cell(4, 0, 3), np.eye(4) + cell(4, 2, 1))
        assert shapes == []

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("N", [12, 13, 24])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_rank_is_the_singular_value_rank(self, scale, N, field):
        for ratio in [1e-9, 1e-8, 2e-8, 1e-7, 1e-6, 1e-3, 3e-3]:
            sigma = np.logspace(0.0, np.log10(ratio), 12)
            stack = scale * stack_with_singular_values(sigma, N, field)
            for tols in (Tolerances(), Tolerances(rel_rank_tol=1e-3)):
                s = np.linalg.svd(stack, compute_uv=False)
                assert matrix_rank(stack, tols) == rank_from_singular_values(s, tols)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_numerical_rank_of_more_vectors_than_entries(self, field):
        rng = np.random.default_rng(1)
        spanning = _gaussian_coefficients(rng, (10, 4), field)
        assert numerical_rank(list(spanning)) == 4
        basis = _gaussian_coefficients(rng, (2, 4), field)
        plane = _gaussian_coefficients(rng, (10, 2), field) @ basis
        assert numerical_rank(list(plane)) == 2
        assert numerical_rank(list(1e-13 * spanning)) == 0
        assert numerical_rank([(1, 0), (0, 1), (1, 1)]) == 2
        assert numerical_rank([(1, 1), (2, 2), (3, 3)]) == 1


class TestSvdKernel:
    """``core._svd``, the one SVD with singular vectors, judged by Tolerances."""

    SIGMA = [1.0, 0.3, 1e-6, 1e-10, 0.0]  # rank 3 under the 1e-8 cutoff

    def matrix(self, shape, field):
        if shape == "wide":
            return stack_with_singular_values(self.SIGMA, 9, field)
        A = stack_with_singular_values(self.SIGMA, 9 if shape == "tall" else 5, field)
        return A.conj().T if shape == "tall" else A

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["tall", "square", "wide"])
    def test_rank_range_and_null_space(self, field, shape):
        A = self.matrix(shape, field)
        m, N = A.shape
        d = _svd(A, Tolerances())
        assert d.rank == 3
        np.testing.assert_allclose(d.s, self.SIGMA[:3], atol=1e-14)
        np.testing.assert_allclose(d.range.conj().T @ d.range, np.eye(3), atol=1e-14)
        assert np.linalg.norm(A - (d.range * d.s) @ d.vh) < 1e-9
        # The null space is complete unless A is wider than tall.
        assert d.null.shape == (N, N - 3 if N <= m else m - 3)
        np.testing.assert_allclose(d.null.conj().T @ d.null, np.eye(d.null.shape[1]), atol=1e-14)
        assert np.linalg.norm(A @ d.null) < 1e-9
        assert np.linalg.norm(d.vh @ d.null) < 1e-14

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["tall", "square", "wide"])
    def test_least_squares_within_the_numerical_range(self, field, shape):
        A = self.matrix(shape, field)
        rng = np.random.default_rng(3)
        B = _gaussian_coefficients(rng, (A.shape[0], 4), field)
        X, resid = _least_squares(_svd(A, Tolerances()), B)
        # numpy's pseudo-inverse applies the same relative cutoff.
        np.testing.assert_allclose(X, np.linalg.pinv(A, rcond=1e-8) @ B, rtol=1e-9, atol=1e-12)
        Q = _svd(A, Tolerances()).range
        np.testing.assert_allclose(resid, np.linalg.norm(B - Q @ (Q.conj().T @ B), axis=0))
        assert np.all(resid <= np.linalg.norm(B, axis=0))


class TestSubspaceFromStack:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("count", [0, 1, 128, 300])
    def test_blocked_vec_columns_is_the_strided_copy(self, count, dtype):
        # 300 = two full blocks of 128 and a partial one.
        rng = np.random.default_rng(count)
        P = rng.standard_normal((count, 3, 3)).astype(dtype)
        want = np.reshape(P, (count, 9), order="F").T
        got = _vec_columns(P)
        assert got.shape == (9, count) and got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "kinds,params,dim",
        [
            (("lower_triangular", "unit_upper_constant_diagonal"), {}, 36),
            (("symmetric", "persymmetric_constant_antidiagonal"), {}, 36),
            # 36 x 144 of rank 4: the certificate proves nothing, so the
            # QR-first SVD spans it.
            (("rank_rows", "rank_cols"), {"k": 2}, 4),
        ],
    )
    def test_qr_first_span_matches_direct_svd(self, kinds, params, dim, field):
        S1, S2 = (catalog(kind, 6, field, **params) for kind in kinds)
        P = _products(S1.basis_matrices()[:, None], S2.basis_matrices()[None])
        stack = _vec_columns(P)
        # Wide: the certificate first, then the QR-first path if it fails.
        assert stack.shape[1] > stack.shape[0]
        assert _certified_full_rank(stack, S1.tols) is (dim == 36)
        U, s, _ = np.linalg.svd(stack, full_matrices=False)
        assert rank_from_singular_values(s, S1.tols) == dim
        S = _subspace_from_stack(P, field, S1.tols).subspace
        assert S.dim == dim
        np.testing.assert_allclose(
            S.ortho_basis @ S.ortho_basis.conj().T,
            U[:, :dim] @ U[:, :dim].conj().T,
            atol=1e-12,
        )
        if dim == 36:
            np.testing.assert_array_equal(S.ortho_basis, np.eye(36, dtype=S1.ortho_basis.dtype))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_span_gets_the_identity_basis(self, field):
        S1, S2 = (catalog(kind, 4, field) for kind in ("circulant", "diagonal"))
        P = _products(S1.basis_matrices()[:, None], S2.basis_matrices()[None])
        P = np.concatenate([P, P])
        S = _subspace_from_stack(P, field, S1.tols).subspace
        assert S.dim == 16
        np.testing.assert_array_equal(S.ortho_basis, np.eye(16, dtype=S1.ortho_basis.dtype))
        assert len(S.raw_basis) == 32
        np.testing.assert_array_equal(S.raw_basis[5], P[5])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_proper_span_is_the_one_svd_span(self, field):
        S1, S2 = (catalog(kind, 4, field, k=1) for kind in ("rank_rows", "rank_cols"))
        P = _products(S1.basis_matrices()[:, None], S2.basis_matrices()[None])
        stack = _vec_columns(P)
        assert stack.shape[1] >= stack.shape[0]
        got = _subspace_from_stack(P, field, S1.tols).subspace
        want = _svd(_reduced_stack(stack), S1.tols)
        assert got.dim == want.rank == 1
        np.testing.assert_array_equal(
            got.ortho_basis, want.range.real if field == "real" else want.range
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_qr_falls_back_to_the_svd(self, monkeypatch):
        # Entries near the float maximum: Householder QR overflows R here
        # (with OpenBLAS), while the SVD, which scales its input, keeps
        # every singular value finite and decides the rank.  The full-rank
        # certificate, which scales first, would settle this stack before
        # the QR, so it is turned off.
        stack = 7e307 * np.random.default_rng(0).uniform(-1.0, 1.0, (4, 8))
        assert _certified_full_rank(stack, Tolerances())
        monkeypatch.setattr(core, "_certified_full_rank", lambda stack, tols: False)
        # The members whose vectorizations are the columns of the stack.
        P = stack.T.reshape(8, 2, 2).transpose(0, 2, 1)
        np.testing.assert_array_equal(_vec_columns(P), stack)
        S = _subspace_from_stack(P, "real", Tolerances()).subspace
        assert S.dim == 4
        np.testing.assert_array_equal(S.ortho_basis, np.eye(4))


class TestNormKernel:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_equals_the_spelled_out_sums(self, field):
        # Whole arrays of any layout, and columns: the square roots of their
        # sums of squares, bit for bit, and np.linalg.norm's to rounding.
        rng = np.random.default_rng(21)
        X = rng.standard_normal((9, 5))
        if field == "complex":
            X = X + 1j * rng.standard_normal((9, 5))
        for Y in (X, X.T, np.asfortranarray(X), X[::2, 1:]):
            assert _norm(Y) == spelled_out_norm(Y)
            assert _norm(Y) == pytest.approx(np.linalg.norm(Y), rel=1e-15)
            columns = _norm(Y, axis=0)
            assert columns.shape == (Y.shape[1],)
            np.testing.assert_array_equal(columns, spelled_out_column_norms(Y))
            np.testing.assert_allclose(columns, np.linalg.norm(Y, axis=0), rtol=1e-15)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_scales_as_it_sums(self, field):
        # Squaring entries of 1e200 overflows, and squaring entries of
        # 1e-200 underflows to 0; a norm below the largest float does
        # neither, and one above it is Inf.  NaN gives NaN, Inf gives Inf.
        X = np.ones((2, 2), dtype=core.dtype_for(field))
        column = np.ones((4, 2), dtype=core.dtype_for(field))
        assert _norm(1e200 * X) == 2e200
        np.testing.assert_array_equal(_norm(1e200 * X, axis=0), [np.sqrt(2) * 1e200] * 2)
        assert _norm(1e-200 * X) == 2e-200
        np.testing.assert_array_equal(_norm(1e-200 * column, axis=0), [2e-200] * 2)
        assert _norm(1.5e308 * X) == np.inf
        for bad, want in ((np.nan, np.nan), (np.inf, np.inf)):
            Y = X.copy()
            Y[1, 0] = bad
            assert _norm(Y) == pytest.approx(want, nan_ok=True)
            np.testing.assert_array_equal(_norm(Y, axis=0), [want, np.sqrt(2)])
        # Columns in range and out of it, a zero one too, in one array.
        mixed = np.stack([np.ones(4), np.full(4, 1e-200), np.full(4, 1e200), np.zeros(4)], axis=1)
        np.testing.assert_array_equal(
            _norm(mixed.astype(X.dtype), axis=0), [2.0, 2e-200, 2e200, 0.0])


class TestSubspacesEqual:
    """One projection per side decides what mutual membership of the basis
    matrices decides (``membership_subspaces_equal``)."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_agrees_with_membership_on_catalog_pairs(self, n, field):
        subs = [catalog(kind, n, field, **params) for kind, params in SKETCH_KINDS.items()]
        # The same spans through other bases: reversed orthonormal matrices.
        subs += [subspace_from_matrices(S.basis_matrices()[::-1], field=field) for S in subs]
        verdicts = set()
        for S1 in subs:
            for S2 in subs:
                got = subspaces_equal(S1, S2)
                assert got is membership_subspaces_equal(S1, S2)
                verdicts.add((got, S1.dim == S2.dim))
        # Equal and unequal verdicts, and different spans of equal dimension.
        assert verdicts == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("tilt", [1e-10, 3e-9, 7e-9, 1.2e-8, 3e-8, 1e-6])
    def test_agrees_across_the_membership_threshold(self, field, tilt):
        S = subspace_from_matrices([cell(3, 0, 0), cell(3, 0, 1)], field=field)
        T = subspace_from_matrices([cell(3, 0, 0), cell(3, 0, 1) + cell(3, 2, 1, tilt)], field=field)
        assert subspaces_equal(S, T) is membership_subspaces_equal(S, T) is (tilt < 1e-8)

    def test_full_space_with_itself(self):
        W = subspace_from_matrices([cell(5, i, j) for j in range(5) for i in range(5)])
        assert subspaces_equal(W, W) and membership_subspaces_equal(W, W)


class TestEquivalenceTransform:
    def test_identity_transform_preserves_span(self):
        S = subspace_from_matrices([np.eye(2), cell(2, 0, 1)])
        T = equivalence_transform(S, np.eye(2), np.eye(2))
        assert subspaces_equal(S, T)

    def test_diagonal_transform_dim_preserved(self):
        S = subspace_from_matrices([np.eye(2), cell(2, 0, 1)])
        T = equivalence_transform(S, np.diag([1.0, 2.0]), np.eye(2))
        assert T.dim == 2
        assert membership(T, np.diag([1.0, 2.0])).inside  # X I Y^-1
        assert membership(T, np.diag([1.0, 2.0]) @ cell(2, 0, 1)).inside

    def test_round_trip_recovers_members(self):
        rng = np.random.default_rng(6)
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        S = subspace_from_matrices(mats)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = equivalence_transform(S, X, Y)
        back = equivalence_transform(T, np.linalg.inv(X), np.linalg.inv(Y))
        for M in mats:
            assert membership(back, M).residual < 10 * S.tol * max(1, np.linalg.norm(M))

    def test_minrank_invariant(self):
        rng = np.random.default_rng(7)
        S = subspace_from_matrices([np.eye(3), rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))])
        base = minrank(S).value
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert minrank(equivalence_transform(S, X, Y)).value == base

    def test_singular_transform_rejected(self):
        S = catalog("diagonal", 2)
        with pytest.raises(SingularTransform):
            equivalence_transform(S, np.zeros((2, 2)), np.eye(2))


class TestRandomElement:
    def test_deterministic(self):
        S = catalog("symmetric", 3)
        np.testing.assert_array_equal(random_element(S, 11), random_element(S, 11))

    def test_member(self):
        S = catalog("circulant", 4)
        A = random_element(S, 5)
        assert membership(S, A).residual < S.tol * max(1, np.linalg.norm(A))

    def test_full_space_samples_are_invertible(self):
        rng = np.random.default_rng(8)
        full = subspace_from_matrices(
            [cell(2, i, j) for i in range(2) for j in range(2)]
        )
        for seed in range(1000):
            A = random_element(full, seed)
            s = np.linalg.svd(A, compute_uv=False)
            assert s[-1] > 1e-8 * s[0]


_LU_A = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])

# Public calls that draw with the given seed, from each module that draws.
_SEEDED_CALLS = {
    "random_element": lambda s: random_element(catalog("circulant", 3), s),
    "minrank": lambda s: minrank(catalog("circulant", 4, "real"), seed=s),
    "zero_product_probe": lambda s: zero_product_probe(
        catalog("diagonal", 3), catalog("diagonal", 3), seed=s),
    "flatness_test": lambda s: flatness_test(
        catalog("circulant", 3), catalog("diagonal", 3), seed=s),
    "factor_via_inverse_closed": lambda s: factor_via_inverse_closed(
        _LU_A, catalog("lower_triangular", 3, "real"),
        catalog("unit_upper_constant_diagonal", 3, "real"), seed=s),
    "solve_bilinear": lambda s: solve_bilinear(
        extract_bilinear(catalog("circulant", 3), catalog("diagonal", 3)), np.ones(9), seed=s),
}


class TestSeedRule:
    @pytest.mark.parametrize("seed", [-1, -7, 1.5])
    @pytest.mark.parametrize("call", list(_SEEDED_CALLS))
    def test_bad_seed_is_bad_parameters(self, call, seed):
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
            _SEEDED_CALLS[call](seed)

    @pytest.mark.parametrize("call", ["random_element", "minrank", "factor_via_inverse_closed"])
    def test_numpy_integer_seed_draws_as_the_int(self, call):
        want, got = _SEEDED_CALLS[call](3), _SEEDED_CALLS[call](np.int64(3))
        if call == "minrank":
            want, got = want.witness, got.witness
        np.testing.assert_array_equal(got, want)


class TestElement:
    def test_unit_coefficients_give_basis_matrices(self):
        S = catalog("circulant", 3)
        for i, B in enumerate(S.basis_matrices()):
            np.testing.assert_array_equal(S.element(np.eye(S.dim)[:, i]), B)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_element_draws_real_then_imaginary_parts(self, field):
        S = catalog("symmetric", 3, field=field)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(S.dim)
        if field == "complex":
            c = c + 1j * rng.standard_normal(S.dim)
        np.testing.assert_array_equal(random_element(S, 11), S.element(c))


class TestWithBasis:
    """``_with_basis`` forms V C_t or C_t V for every orthonormal basis matrix
    C_t, bit for bit the products of each member on its own."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("left", [True, False])
    def test_equals_the_per_member_products(self, left, full, field):
        rng = np.random.default_rng(17)
        if full:
            S = subspace_from_matrices(np.eye(16).reshape(16, 4, 4), field)
            assert S.dim == 16
        else:
            S = catalog("symmetric", 4, field)
        V = _gaussian_coefficients(rng, (3, 4, 4), field)
        B = S.basis_matrices()
        times = (lambda M, C: M @ C) if left else (lambda M, C: C @ M)
        got = _with_basis(S, V[0], left)
        assert got.shape == (S.dim, 4, 4)
        np.testing.assert_array_equal(got, [times(V[0], C) for C in B])
        got = _with_basis(S, V, left)
        assert got.shape == (3, S.dim, 4, 4)
        np.testing.assert_array_equal(got, [[times(M, C) for C in B] for M in V])

    @pytest.mark.parametrize("left", [True, False])
    def test_overflow_raises_non_finite(self, left):
        # The basis matrix has a column (a row) of 1/2s, so each entry of
        # V C (of C V) in it sums four halves of 1e308.
        M = np.zeros((4, 4))
        M[(slice(None), 0) if left else (0, slice(None))] = 1.0
        S = subspace_from_matrices([M], field="real")
        with pytest.raises(NonFiniteInput, match="^a matrix product overflowed to Inf or NaN$"):
            _with_basis(S, 1e308 * np.ones((4, 4)), left)


class TestSubspaceSum:
    def test_lower_plus_upper_constant_diagonal_fills(self):
        S1 = catalog("lower_triangular", 3)
        S2 = catalog("unit_upper_constant_diagonal", 3)
        assert subspace_sum(S1, S2).dim == 9

    def test_sum_with_self(self):
        S = catalog("symmetric", 3)
        assert subspace_sum(S, S).dim == S.dim

    def test_disjoint_supports(self):
        S1 = catalog("diagonal", 2)
        S2 = subspace_from_matrices([cell(2, 0, 1)])
        assert subspace_sum(S1, S2).dim == 3

    def test_field_mismatch(self):
        S1 = catalog("diagonal", 2)
        S2 = catalog("diagonal", 2, field="real")
        with pytest.raises(FieldMismatch):
            subspace_sum(S1, S2)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            subspace_sum(catalog("diagonal", 2), catalog("diagonal", 3))


def test_tolerances_must_be_positive():
    from subspace_products import BadParameters

    with pytest.raises(BadParameters):
        Tolerances(rel_rank_tol=0.0)
    with pytest.raises(BadParameters):
        Tolerances(abs_floor=-1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"rel_rank_tol": 1.0}, "rel_rank_tol must be in (0, 1), got 1.0"),
    ({"rel_rank_tol": 5.0}, "rel_rank_tol must be in (0, 1), got 5.0"),
    ({"rel_rank_tol": float("inf")}, "rel_rank_tol must be in (0, 1), got inf"),
    ({"rel_rank_tol": float("nan")}, "rel_rank_tol must be in (0, 1), got nan"),
    ({"abs_floor": float("inf")}, "abs_floor must be positive and finite, got inf"),
    ({"abs_floor": float("nan")}, "abs_floor must be positive and finite, got nan"),
    ({"abs_floor": 0.0}, "abs_floor must be positive and finite, got 0.0"),
    ({"abs_floor": True}, "abs_floor must be positive and finite, got True"),
    ({"abs_floor": np.True_}, "abs_floor must be positive and finite, got True"),
    ({"rel_rank_tol": np.True_}, "rel_rank_tol must be in (0, 1), got True"),
])
def test_tolerances_that_zero_every_rank_are_rejected(kwargs, message):
    """Every singular value is at most s_1, so a relative cutoff of 1 or more
    keeps none; an infinite floor treats every stack as zero.  A bool is no
    tolerance, as it is no integer to core._check_int."""
    from subspace_products import BadParameters

    with pytest.raises(BadParameters) as err:
        Tolerances(**kwargs)
    assert str(err.value) == message


def test_tolerances_just_inside_the_bounds_are_kept():
    assert matrix_rank(np.eye(3), Tolerances(rel_rank_tol=float(np.nextafter(1.0, 0.0)))) == 3
    floor = Tolerances(abs_floor=1e300)
    assert matrix_rank(np.eye(3) * 1e301, floor) == 3
    assert matrix_rank(np.eye(3) * 1e299, floor) == 0
