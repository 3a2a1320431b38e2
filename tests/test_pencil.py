import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    ChainConditionViolated,
    NoInvertibleElementFound,
    NotSymmetric,
    WrongDimension,
    ZeroScalar,
    ZeroSubspace,
    chain_factor,
    closedness_certificate,
    craig_sakamoto_check,
    find_lft_witness,
    flatness_test,
    membership,
    minrank,
    normalize_pair,
    normalize_pencil,
    numerical_rank,
    pencil,
    subspace_from_matrices,
    vec,
    zero_product_probe,
)
from subspace_products.core import _norm, matrix_rank
from helpers import catalog, cell, random_complex, sequential_probe


def spanIX(X, field="complex"):
    return subspace_from_matrices([np.eye(X.shape[0]), X], field=field)


class TestNormalizePencil:
    def test_already_normalized(self):
        S = spanIX(cell(2, 0, 1))
        W1, Y = normalize_pencil(S)
        Yi = np.linalg.inv(Y)
        T = subspace_from_matrices([B @ Yi for B in S.raw_basis])
        R = subspace_from_matrices([np.eye(2), W1])
        assert membership(T, np.eye(2)).inside
        assert membership(T, W1).inside
        assert membership(R, cell(2, 0, 1) @ Yi).inside

    def test_invertible_basis_element_is_picked(self):
        A = np.diag([1.0, 2.0]).astype(complex)
        B = cell(2, 1, 0)
        S = subspace_from_matrices([A, B])
        W1, Y = normalize_pencil(S)
        np.testing.assert_allclose(Y, A)  # raw basis candidates come first
        T = subspace_from_matrices([np.eye(2), W1])
        for M in S.raw_basis:
            P = M @ np.linalg.inv(Y)
            assert membership(T, P).residual < S.tol * max(1, np.linalg.norm(P))

    def test_singular_pencil_not_found(self):
        S = subspace_from_matrices([cell(2, 0, 0), cell(2, 0, 1)])
        with pytest.raises(NoInvertibleElementFound):
            normalize_pencil(S)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            normalize_pencil(catalog("diagonal", 3))

    def test_reconstruction_random_pairs(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            S = subspace_from_matrices(
                [random_complex(rng, 3), random_complex(rng, 3)]
            )
            W1, Y = normalize_pencil(S)
            Yi = np.linalg.inv(Y)
            T = subspace_from_matrices([np.eye(3), W1])
            for M in S.raw_basis:
                P = M @ Yi
                assert membership(T, P).residual < 10 * S.tol * max(1, np.linalg.norm(P))


class TestNormalizePair:
    def test_shifted_cells(self):
        S1 = spanIX(cell(2, 0, 1))
        S2 = spanIX(cell(2, 1, 0))
        X1, X2 = normalize_pair(S1, S2)
        # generators are defined up to an affine shift by I and scaling
        assert numerical_rank([vec(X1), vec(cell(2, 0, 1)), vec(np.eye(2))]) == 2
        assert numerical_rank([vec(X2), vec(cell(2, 1, 0)), vec(np.eye(2))]) == 2

    def test_first_factor_of_another_dimension(self):
        with pytest.raises(WrongDimension, match="^pair normalization needs dim 2, got 3 on side 1$"):
            normalize_pair(catalog("diagonal", 3), spanIX(cell(3, 0, 1)))

    def test_random_pair_reconstructs(self):
        rng = np.random.default_rng(1)
        S1 = subspace_from_matrices([random_complex(rng, 3), random_complex(rng, 3)])
        S2 = subspace_from_matrices([random_complex(rng, 3), random_complex(rng, 3)])
        X1, X2 = normalize_pair(S1, S2)
        T1 = subspace_from_matrices([np.eye(3), X1])
        T2 = subspace_from_matrices([np.eye(3), X2])
        # X S1 = span{I, X1} and S2 Y^-1 = span{I, X2} for the normalizers used,
        # so the spans have to be two dimensional and contain I
        assert T1.dim == T2.dim == 2
        assert membership(T1, np.eye(3)).inside and membership(T2, np.eye(3)).inside

    def test_singular_side_reported(self):
        S1 = subspace_from_matrices([cell(2, 0, 0), cell(2, 0, 1)])
        S2 = spanIX(cell(2, 1, 0))
        with pytest.raises(NoInvertibleElementFound):
            normalize_pair(S1, S2)


class TestLftWitness:
    def test_cell_times_diagonal(self):
        w = find_lft_witness(cell(2, 0, 1), np.diag([1.0, 2.0]))
        assert w is not None
        expected = np.array([0, 0, 1, 2]) / np.sqrt(5)
        np.testing.assert_allclose(w.as_vector(), expected, atol=1e-10)
        assert w.residual < 1e-10

    def test_zero_product_pair(self):
        # n = 3 keeps {I, X1, X2} independent, so the null direction is unique
        w = find_lft_witness(cell(3, 0, 0), cell(3, 2, 2))
        assert w is not None
        np.testing.assert_allclose(w.as_vector(), [0, 0, 1, 0], atol=1e-10)

    def test_random_pair_has_no_witness(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert find_lft_witness(random_complex(rng, 3), random_complex(rng, 3)) is None

    def test_rank_condition_matches_gram_determinant(self):
        rng = np.random.default_rng(3)
        for n in (2, 3):
            for trial in range(10):
                X2 = random_complex(rng, n)
                if trial % 2 == 0:
                    a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                    X1 = (a * X2 - b * np.eye(n)) @ np.linalg.inv(c * X2 - d * np.eye(n))
                else:
                    X1 = random_complex(rng, n)
                K = np.column_stack(
                    [vec(-X2), vec(np.eye(n)), vec(X1 @ X2), vec(-X1)]
                )
                K = K / np.linalg.norm(K, axis=0)
                gram_det = abs(np.linalg.det(K.conj().T @ K))
                w = find_lft_witness(X1, X2)
                if w is not None:
                    assert gram_det < 1e-12
                else:
                    assert gram_det > 1e-12

    @pytest.mark.parametrize("x1, x2", [
        (2.0, -3.0), (0.5, 0.5), (1 + 2j, 0.5 - 1j), (3j, 1e-3),
        (0.0, 0.0), (0.0, 5.0), (-4.0, 0.0),
    ])
    def test_scalars_always_have_a_witness(self, x1, x2):
        # At n = 1 any four scalars are dependent, so a witness always exists.
        X1, X2 = np.array([[x1]]), np.array([[x2]])
        w = find_lft_witness(X1, X2)
        assert w is not None
        assert w.residual < 1e-8 * (1 + abs(x1)) * (1 + abs(x2))
        assert abs(np.linalg.norm(w.as_vector()) - 1.0) < 1e-12
        assert abs(x1 * (w.c * x2 - w.d) - (w.a * x2 - w.b)) == pytest.approx(w.residual)

    def test_round_trip_with_flatness(self):
        rng = np.random.default_rng(4)
        n = 3
        X2 = random_complex(rng, n)
        a, b, c, d = 1.0, -0.5, 2.0, 0.25
        X1 = (a * X2 - b * np.eye(n)) @ np.linalg.inv(c * X2 - d * np.eye(n))
        assert find_lft_witness(X1, X2) is not None
        report = flatness_test(spanIX(X1), spanIX(X2), trials=5, seed=0)
        assert report.flat and report.lin_dim <= 3
        # and a generic pair stays curved with a four dimensional linearization
        Y1, Y2 = random_complex(rng, n), random_complex(rng, n)
        assert find_lft_witness(Y1, Y2) is None
        report = flatness_test(spanIX(Y1), spanIX(Y2), trials=5, seed=0)
        assert not report.flat
        assert report.lin_dim == 4 and report.generic_rank == 3


class TestCraigSakamoto:
    def test_orthogonal_supports(self):
        assert craig_sakamoto_check(cell(2, 0, 0).real, cell(2, 1, 1).real) == (True, True)

    def test_same_projector_fails_both(self):
        assert craig_sakamoto_check(cell(2, 0, 0).real, cell(2, 0, 0).real) == (False, False)

    def test_zero_matrix(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((3, 3))
        B = B + B.T
        assert craig_sakamoto_check(np.zeros((3, 3)), B) == (True, True)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            craig_sakamoto_check(cell(2, 0, 1).real, np.eye(2))

    def test_verdicts_past_the_float_maximum(self):
        # Each test is made on unit-norm copies, so the product 1e400 I is
        # never formed, and a zero product stays zero at the same scale.
        big = 1e200 * np.eye(2)
        assert craig_sakamoto_check(big, big) == (False, False)
        assert craig_sakamoto_check(1e200 * np.diag([1.0, 0.0]), 1e200 * np.diag([0.0, 1.0])) == (
            True, True)

    def test_booleans_agree_on_random_symmetric_pairs(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            A = rng.standard_normal((3, 3))
            A = A + A.T
            if trial % 2 == 0:
                Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                A = Q[:, :1] * rng.standard_normal() @ Q[:, :1].T
                B = Q[:, 1:] @ (lambda M: M + M.T)(rng.standard_normal((2, 2))) @ Q[:, 1:].T
            else:
                B = rng.standard_normal((3, 3))
                B = B + B.T
            zp, di = craig_sakamoto_check(A, B)
            assert zp == di

    def test_determinants_match_pointwise_reference(self):
        rng = np.random.default_rng(3)
        pts = np.linspace(-1.0, 1.0, 9)
        for trial in range(6):
            A, B = rng.standard_normal((2, 4, 4))
            A, B = A + A.T, B + B.T
            if trial % 2 == 0:  # zero product: the identity holds
                Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
                A, B = Q[:, :2] @ Q[:, :2].T, 3.0 * Q[:, 2:] @ Q[:, 2:].T
            As, Bs = A / np.linalg.norm(A), B / np.linalg.norm(B)
            I = np.eye(4)
            expected = all(
                abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
                for t in pts for s in pts
                for lhs, rhs in [(np.linalg.det(I - t * As - s * Bs),
                                  np.linalg.det(I - t * As) * np.linalg.det(I - s * Bs))]
            )
            assert craig_sakamoto_check(A, B)[1] == expected == (trial % 2 == 0)


class TestMinrank:
    def test_dim1_exact(self):
        rep = minrank(subspace_from_matrices([cell(2, 0, 0)]))
        assert rep.value == 1 and rep.certified and rep.method == "dim1_exact"

    def test_pencil_with_nilpotent_direction(self):
        rep = minrank(spanIX(cell(2, 0, 1)))
        assert rep.value == 1 and rep.certified and rep.method == "dim2_eigen"
        S = spanIX(cell(2, 0, 1))
        assert membership(S, rep.witness).inside
        assert np.linalg.matrix_rank(rep.witness) == 1

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e154, 1e200])
    def test_scaled_pencil_keeps_its_minrank(self, scale):
        # W1 = Y^{-1} B has the scale 1 / scale: its eigenvalue gaps and the
        # ranks of W1 - lam I are judged relative to ||W1||.
        S = subspace_from_matrices([scale * np.eye(2), scale * np.diag([1.0, 2.0])], field="real")
        rep = minrank(S)
        assert (rep.value, rep.certified, rep.method) == (1, True, "dim2_eigen")
        assert membership(S, rep.witness).inside
        assert np.linalg.matrix_rank(rep.witness) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e150, 1e154, 1e160, 1e200, 1e300])
    def test_scaled_rotation_pencil_keeps_its_certified_minrank(self, scale):
        # R has no real eigenvalue, so no nonzero real member of span{I, R}
        # is singular.  Past 1e154 the normal form's two candidates have
        # squares that underflow: the one chosen must still be the multiple
        # of R, not the round-off left of I.
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        S = subspace_from_matrices([scale * np.eye(2), scale * R], field="real")
        rep = minrank(S)
        assert (rep.value, rep.certified, rep.method) == (2, True, "dim2_eigen")
        assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12
        assert membership(S, rep.witness).inside
        for X in normalize_pair(S, S):
            cosine = abs(np.vdot(R, X / _norm(X))) / np.sqrt(2.0)
            assert abs(cosine - 1.0) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_sampled_witness_of_a_huge_span_has_unit_norm(self):
        S = subspace_from_matrices(
            [1e200 * np.eye(3), 1e200 * np.diag([1.0, 2.0, 3.0]), 1e200 * np.diag([1.0, 0.0, 0.0])],
            field="real",
        )
        rep = minrank(S)
        assert (rep.value, rep.method) == (1, "sampled_upper_bound")
        np.testing.assert_array_equal(rep.witness, np.diag([1.0, 0.0, 0.0]))

    def test_hurwitz_radon_full_rank_over_reals(self):
        S = catalog("hurwitz_radon_2", 2, field="real")
        rep = minrank(S)
        assert rep.value == 2 and rep.certified

    def test_same_pencil_over_complexes_drops(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = minrank(spanIX(rot.astype(complex)))
        assert rep.value == 1 and rep.certified  # I + i R is singular over C

    def test_multiplicity_detected(self):
        rng = np.random.default_rng(7)
        X = random_complex(rng, 4)
        D = np.diag([2.0, 2.0, 2.0, 5.0]).astype(complex)
        S = spanIX(X @ D @ np.linalg.inv(X))
        rep = minrank(S)
        assert rep.value == 1 and rep.certified
        assert membership(S, rep.witness).residual < 1e-6

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("diag", [
        [2.0, 2.0, 5.0, 5.0], [5.0, 5.0, 2.0, 2.0], [1.0, 3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0],
    ])
    def test_batched_shifts_keep_the_first_maximal_multiplicity(self, diag, field):
        # The reference ranks one shift at a time and keeps a shift only when
        # it beats every earlier one: the first of maximal multiplicity.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        S = spanIX(X @ np.diag(diag) @ np.linalg.inv(X), field)
        W1, Y = normalize_pencil(S, seed=0)
        unit = _norm(W1)
        best_gm, best_lam = 0, None
        for lam in pencil._cluster_eigenvalues(np.linalg.eigvals(W1), unit):
            lam = lam.real if field == "real" else lam
            gm = 4 - matrix_rank((W1 - lam * np.eye(4, dtype=W1.dtype)) / unit, S.tols)
            if gm > best_gm:
                best_gm, best_lam = gm, lam
        witness = (W1 - best_lam * np.eye(4, dtype=W1.dtype)) @ Y
        rep = minrank(S)
        assert (rep.value, rep.certified, rep.method) == (4 - best_gm, True, "dim2_eigen")
        np.testing.assert_array_equal(rep.witness, witness / _norm(witness))

    def test_clusters_in_sorted_order_one_member_ones_unaveraged(self):
        # Sorted by real part, then merged where gaps are below 1e-8 * scale.
        ev = np.array([0.7 - 0.25j, 2.0 + 0j, 2.0 + 1e-14j, 1.0 / 3.0 + 0.1j])
        got = pencil._cluster_eigenvalues(ev, 1.0)
        assert got == [ev[3], ev[0], np.mean(ev[1:3])]

    def test_sampled_upper_bound_three_dims(self):
        S = subspace_from_matrices([cell(2, 0, 0), cell(2, 0, 1), cell(2, 1, 1)])
        rep = minrank(S, seed=0)
        assert rep.method == "sampled_upper_bound" and not rep.certified
        assert rep.value == 1
        assert np.linalg.matrix_rank(rep.witness, tol=1e-6) == 1

    def test_sampled_tries_basis_members(self):
        # The last raw basis member, E_{0,n-1}, has rank one.
        S = catalog("toeplitz_upper_triangular", 6, field="real")
        rep = minrank(S)
        assert rep.method == "sampled_upper_bound" and rep.value == 1
        assert abs(np.linalg.norm(rep.witness) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(rep.witness, tol=1e-6) == 1

    def test_singular_dim2_falls_back(self):
        S = subspace_from_matrices([cell(2, 0, 0), cell(2, 0, 1)])
        rep = minrank(S)
        assert rep.method == "sampled_upper_bound" and rep.value == 1


class TestZeroProductProbe:
    def test_rank_pair_finds_zero_divisor(self):
        rows = catalog("rank_rows", 2, k=1)
        cols = catalog("rank_cols", 2, k=1)
        val, (V1, V2) = zero_product_probe(rows, cols, budget=20, seed=0)
        assert val < 1e-10
        assert abs(np.linalg.norm(V1) - 1) < 1e-10
        assert abs(np.linalg.norm(V2) - 1) < 1e-10

    def test_hurwitz_radon_floor(self):
        S = catalog("hurwitz_radon_2", 2, field="real")
        val, _ = zero_product_probe(S, S, budget=20, seed=0)
        assert val == pytest.approx(1 / np.sqrt(2), abs=1e-8)

    def test_identity_line(self):
        S = subspace_from_matrices([np.eye(2)])
        val, _ = zero_product_probe(S, S, budget=5, seed=0)
        assert val == pytest.approx(1 / np.sqrt(2), abs=1e-10)  # ||I/sqrt(2) I/sqrt(2)||

    def test_never_beats_brute_force_grid(self):
        rng = np.random.default_rng(8)
        for trial in range(3):
            S1 = subspace_from_matrices([random_complex(rng, 2), random_complex(rng, 2)])
            S2 = subspace_from_matrices([random_complex(rng, 2), random_complex(rng, 2)])
            val, _ = zero_product_probe(S1, S2, budget=30, seed=trial)
            grid_best = np.inf
            for s in range(500):
                g = np.random.default_rng(10_000 + s)
                c1 = g.standard_normal(2) + 1j * g.standard_normal(2)
                c2 = g.standard_normal(2) + 1j * g.standard_normal(2)
                V1 = sum(c / np.linalg.norm(c1) * B for c, B in zip(c1, S1.basis_matrices()))
                V2 = sum(c / np.linalg.norm(c2) * B for c, B in zip(c2, S2.basis_matrices()))
                grid_best = min(grid_best, np.linalg.norm(V1 @ V2))
            assert val <= grid_best + 1e-12


def _pairs_without_zero_divisors():
    """(S1, S2, probe seed): catalog pairs, then the random complex 2 x 2
    pairs of test_never_beats_brute_force_grid."""
    pairs = [
        (catalog("circulant", n, field), catalog("diagonal", n, field), 0)
        for n in (4, 6, 8)
        for field in ("real", "complex")
    ]
    hr = catalog("hurwitz_radon_2", 2, field="real")
    pairs.append((hr, hr, 0))
    pairs.append((catalog("toeplitz_upper_triangular", 3), catalog("toeplitz_lower_triangular", 3), 0))
    # At seed 2, starts 3 and 6 (one block) tie at the smallest value with
    # different members, so the first start must win inside a block.
    pairs.append((
        catalog("toeplitz_upper_triangular", 3, "real"),
        catalog("toeplitz_lower_triangular", 3, "real"),
        2,
    ))
    rng = np.random.default_rng(8)
    for trial in range(3):
        S1 = subspace_from_matrices([random_complex(rng, 2), random_complex(rng, 2)])
        S2 = subspace_from_matrices([random_complex(rng, 2), random_complex(rng, 2)])
        pairs.append((S1, S2, trial))
    return pairs


def _zero_divisor_pairs():
    return [
        (catalog("lower_triangular", 4), catalog("unit_upper_constant_diagonal", 4)),
        (catalog("lower_triangular", 6, "real"), catalog("unit_upper_constant_diagonal", 6, "real")),
        (catalog("rank_rows", 3, k=1), catalog("rank_cols", 3, k=1)),
    ]


class TestBatchedProbe:
    """The batched probe against the sequential reference in helpers."""

    @pytest.mark.parametrize("S1, S2, seed", _pairs_without_zero_divisors())
    def test_matches_sequential_reference(self, S1, S2, seed):
        ref_val, (R1, R2) = sequential_probe(S1, S2, budget=30, seed=seed)
        val, (V1, V2) = zero_product_probe(S1, S2, budget=30, seed=seed)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(V1, R1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V2, R2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("S1, S2", _zero_divisor_pairs())
    def test_zero_divisor_pairs_reach_round_off(self, S1, S2):
        val, (V1, V2) = zero_product_probe(S1, S2, budget=100, seed=0)
        assert val < S1.tols.abs_floor
        assert np.linalg.norm(V1 @ V2) < S1.tols.abs_floor
        assert abs(np.linalg.norm(V1) - 1) < 1e-12
        assert abs(np.linalg.norm(V2) - 1) < 1e-12
        assert membership(S1, V1).inside and membership(S2, V2).inside

    @pytest.mark.parametrize(
        "S1, S2",
        [(S1, S2) for S1, S2, _ in _pairs_without_zero_divisors() if S1.dim > 2]
        + _zero_divisor_pairs(),
    )
    def test_certificate_details_match_reference(self, S1, S2):
        ref_val, _ = sequential_probe(S1, S2, budget=40, seed=0)
        cert = closedness_certificate(S1, S2, budget=40, seed=0)
        expected = {
            "min_product_norm": ref_val if ref_val >= S1.tols.abs_floor else 0.0,
            "budget": 40,
            "probe_threshold": 1e-6,
        }
        assert cert.details == expected

    @staticmethod
    def spy_blocks(monkeypatch):
        """Record the starts of every block the probe runs."""
        blocks = []
        block = pencil._probe_block

        def spy(S1, S2, starts, seed):
            blocks.append(starts)
            return block(S1, S2, starts, seed)

        monkeypatch.setattr(pencil, "_probe_block", spy)
        return blocks

    def test_stops_after_first_round_off_zero(self, monkeypatch):
        blocks = self.spy_blocks(monkeypatch)
        L = catalog("lower_triangular", 6, "real")
        U = catalog("unit_upper_constant_diagonal", 6, "real")
        val, _ = zero_product_probe(L, U, budget=100, seed=0)
        assert val < L.tols.abs_floor
        assert blocks == [range(0, 1)]
        cert = closedness_certificate(L, U, budget=100, seed=0)
        assert cert.details["budget"] == 100
        assert cert.details["min_product_norm"] == 0.0

    def test_blocks_double_up_to_the_budget(self, monkeypatch):
        blocks = self.spy_blocks(monkeypatch)
        zero_product_probe(catalog("circulant", 4), catalog("diagonal", 4), budget=100, seed=0)
        assert [len(b) for b in blocks] == [1, 2, 4, 8, 16, 32, 37]
        assert blocks[0].start == 0 and blocks[-1].stop == 100

    def test_stack_cap_splits_blocks_without_changing_the_result(self, monkeypatch):
        S1, S2 = catalog("circulant", 6), catalog("diagonal", 6)
        expected = zero_product_probe(S1, S2, budget=20, seed=3)
        blocks = self.spy_blocks(monkeypatch)
        monkeypatch.setattr(pencil, "_PROBE_STACK_ENTRIES", 3 * 6 * 6 * 6)
        val, (V1, V2) = zero_product_probe(S1, S2, budget=20, seed=3)
        assert max(len(b) for b in blocks) == 3 and sum(len(b) for b in blocks) == 20
        assert val == expected[0]
        np.testing.assert_array_equal(V1, expected[1][0])
        np.testing.assert_array_equal(V2, expected[1][1])


class TestClosedness:
    def test_minrank_sum_branch(self):
        S = catalog("hurwitz_radon_2", 2, field="real")
        cert = closedness_certificate(S, S)
        assert cert.status == "ClosedByMinrankSum"
        assert cert.details["minrank1"]["value"] == 2

    def test_triangular_toeplitz_probe_branch(self):
        U = catalog("toeplitz_upper_triangular", 3)
        L = catalog("toeplitz_lower_triangular", 3)
        cert = closedness_certificate(U, L, budget=100, seed=0)
        assert cert.status == "ClosedByZeroProductProbe"
        assert cert.details["min_product_norm"] > 0.1

    def test_rank_pair_unknown(self):
        rows = catalog("rank_rows", 3, k=1)
        cols = catalog("rank_cols", 3, k=1)
        cert = closedness_certificate(rows, cols, budget=50, seed=0)
        assert cert.status == "Unknown"
        assert cert.details["min_product_norm"] < 1e-8


class TestCountsBelowOne:
    def test_closedness_budget_zero(self):
        # LU n = 4 has the zero divisors E11 E23 = 0, which a probe that never
        # ran would hide behind an infinite minimum.
        L = catalog("lower_triangular", 4)
        U = catalog("unit_upper_constant_diagonal", 4)
        with pytest.raises(BadParameters, match="budget must be at least 1, got 0"):
            closedness_certificate(L, U, budget=0)

    def test_closedness_budget_zero_on_the_proof_branch(self):
        S = catalog("hurwitz_radon_2", 2, field="real")
        with pytest.raises(BadParameters, match="budget must be at least 1, got -1"):
            closedness_certificate(S, S, budget=-1)

    def test_probe_budget_zero(self):
        D = catalog("diagonal", 3)
        with pytest.raises(BadParameters, match="budget must be at least 1, got 0"):
            zero_product_probe(D, D, budget=0)

    def test_craig_sakamoto_grid_zero(self):
        with pytest.raises(BadParameters, match="grid must be at least 1, got 0"):
            craig_sakamoto_check(cell(2, 0, 0).real, cell(2, 1, 1).real, grid=0)


class TestChainFactor:
    def test_two_blocks(self):
        factors = chain_factor(1.0, [cell(2, 0, 1), cell(2, 0, 0)])
        prod = factors[0] @ factors[1]
        np.testing.assert_allclose(
            prod, np.eye(2) + cell(2, 0, 0) + cell(2, 0, 1), atol=1e-14
        )

    def test_single_block_exact(self):
        factors = chain_factor(2.0, [cell(3, 0, 2)])
        assert len(factors) == 1
        np.testing.assert_array_equal(factors[0], 2 * np.eye(3) + cell(3, 0, 2))

    def test_order_violation(self):
        with pytest.raises(ChainConditionViolated):
            chain_factor(1.0, [cell(2, 0, 0), cell(2, 0, 1)])  # E11 E12 = E12 != 0

    def test_zero_scalar(self):
        with pytest.raises(ZeroScalar):
            chain_factor(0.0, [cell(2, 0, 1)])

    def test_first_nonzero_pair_is_named(self):
        # E12 E12 = 0, but E12 E22 = E12 for the pairs (0, 2) and (1, 2).
        with pytest.raises(ChainConditionViolated, match=r"^X\[0\] X\[2\] is not"):
            chain_factor(1.0, [cell(2, 0, 1), cell(2, 0, 1), cell(2, 1, 1)])

    def test_nonzero_product_past_the_float_maximum(self):
        big = 1e200 * np.eye(2)
        with pytest.raises(ChainConditionViolated, match=r"^X\[0\] X\[1\] is not numerically zero$"):
            chain_factor(1.0, [big, big])

    def test_block_upper_chains_reconstruct(self):
        # Strictly upper row blocks taken in descending row order satisfy
        # X_j X_l = 0 for j < l: the columns hit by X_j all lie strictly
        # below every row of the later blocks.
        rng = np.random.default_rng(9)
        for n, k in ((6, 3), (8, 5)):
            cuts = sorted(rng.choice(range(1, n - 1), size=k - 1, replace=False))
            bounds = [0] + list(cuts) + [n - 1]
            blocks = []
            for g in reversed(range(k)):
                lo, hi = bounds[g], bounds[g + 1]
                X = np.zeros((n, n))
                for i in range(lo, hi):
                    X[i, i + 1 :] = rng.standard_normal(n - i - 1)
                blocks.append(X)
            t = 1.7
            factors = chain_factor(t, blocks)
            prod = factors[0]
            for F in factors[1:]:
                prod = prod @ F
            target = t * np.eye(n) + sum(blocks)
            err = np.linalg.norm(prod - target) / np.linalg.norm(target)
            assert err < 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda Z: minrank(Z), "minrank needs a nonzero subspace"),
    (lambda Z: zero_product_probe(Z, catalog("diagonal", 2)), "probe needs nonzero subspaces"),
    (lambda Z: zero_product_probe(catalog("diagonal", 2), Z), "probe needs nonzero subspaces"),
], ids=["minrank", "probe-first", "probe-second"])
def test_zero_subspace_rejected(call, message):
    Z = subspace_from_matrices([np.zeros((2, 2))])
    with pytest.raises(ZeroSubspace, match=f"^{message}$"):
        call(Z)
