import numpy as np
import pytest
from scipy import linalg

from subspace_products import (
    EmptyInput,
    FieldMismatch,
    MixedSizes,
    NonFiniteInput,
    RealFieldViolation,
    SingularTransform,
    SizeMismatch,
    Tolerances,
    ZeroSubspace,
    equivalence_transform,
    membership,
    minrank,
    numerical_rank,
    random_element,
    subspace_from_matrices,
    subspace_sum,
    subspaces_equal,
)
from subspace_products import core
from subspace_products.core import (
    _basis_array,
    _certified_full_rank,
    _gaussian_coefficients,
    _products,
    _projection,
    _subspace_from_stack,
    _subspace_unless_full,
    _vec_columns,
    matrix_rank,
    rank_from_singular_values,
)
from helpers import (
    SKETCH_KINDS,
    brute_span_rank,
    catalog,
    cell,
    exact_rank_fraction,
    membership_subspaces_equal,
)


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
            residual = float(linalg.norm(v - self.spelled_out(S, v), check_finite=False))
            assert membership(S, M).residual == residual
        # subspaces_equal projects one orthonormal basis onto the other span.
        np.testing.assert_array_equal(
            T.ortho_basis - _projection(S, T.ortho_basis),
            T.ortho_basis - self.spelled_out(S, T.ortho_basis),
        )
        # factor_via_inverse_closed projects A C over the basis C of a
        # same-field subspace, without the real-part rule: a no-op there.
        P = _vec_columns(_products(A, _basis_array(T)))
        np.testing.assert_array_equal(_projection(S, P), Q @ (Q.conj().T @ P))


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


class TestSubspaceFromStack:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("lower_triangular", "unit_upper_constant_diagonal"),
            ("symmetric", "persymmetric_constant_antidiagonal"),
        ],
    )
    def test_qr_first_span_matches_direct_svd(self, kinds, field):
        S1, S2 = (catalog(kind, 6, field) for kind in kinds)
        P = _products(_basis_array(S1)[:, None], _basis_array(S2)[None])
        stack = _vec_columns(P)
        assert stack.shape[1] > stack.shape[0]  # wide: the QR-first path
        U, s, _ = np.linalg.svd(stack, full_matrices=False)
        dim = rank_from_singular_values(s, S1.tols)
        S = _subspace_from_stack(stack, 6, field, tuple(P), S1.tols)
        assert S.dim == dim
        np.testing.assert_allclose(
            S.ortho_basis @ S.ortho_basis.conj().T,
            U[:, :dim] @ U[:, :dim].conj().T,
            atol=1e-12,
        )


class TestSubspaceUnlessFull:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_full_span_gets_the_identity_basis(self, field):
        S1, S2 = (catalog(kind, 4, field) for kind in ("circulant", "diagonal"))
        P = np.concatenate([_products(_basis_array(S1)[:, None], _basis_array(S2)[None])] * 2)
        S = _subspace_unless_full(_vec_columns(P), 4, field, tuple(P), S1.tols)
        assert S.dim == 16
        np.testing.assert_array_equal(S.ortho_basis, np.eye(16, dtype=S1.ortho_basis.dtype))
        assert len(S.raw_basis) == 32
        np.testing.assert_array_equal(S.raw_basis[5], P[5])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_proper_span_is_the_one_svd_span(self, field):
        S1, S2 = (catalog(kind, 4, field, k=1) for kind in ("rank_rows", "rank_cols"))
        P = _products(_basis_array(S1)[:, None], _basis_array(S2)[None])
        stack = _vec_columns(P)
        assert stack.shape[1] >= stack.shape[0]
        got = _subspace_unless_full(stack, 4, field, tuple(P), S1.tols)
        want = _subspace_from_stack(stack, 4, field, tuple(P), S1.tols)
        assert got.dim == want.dim == 1
        np.testing.assert_array_equal(got.ortho_basis, want.ortho_basis)

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
        S = _subspace_unless_full(stack, 2, "real", (), Tolerances())
        assert S.dim == 4
        np.testing.assert_array_equal(S.ortho_basis, np.eye(4))


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
])
def test_tolerances_that_zero_every_rank_are_rejected(kwargs, message):
    """Every singular value is at most s_1, so a relative cutoff of 1 or more
    keeps none; an infinite floor treats every stack as zero."""
    from subspace_products import BadParameters

    with pytest.raises(BadParameters) as err:
        Tolerances(**kwargs)
    assert str(err.value) == message


def test_tolerances_just_inside_the_bounds_are_kept():
    assert matrix_rank(np.eye(3), Tolerances(rel_rank_tol=float(np.nextafter(1.0, 0.0)))) == 3
    floor = Tolerances(abs_floor=1e300)
    assert matrix_rank(np.eye(3) * 1e301, floor) == 3
    assert matrix_rank(np.eye(3) * 1e299, floor) == 0
