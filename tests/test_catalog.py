import numpy as np
import pytest

from subspace_products import (
    BadParameters,
    MixedSizes,
    membership,
    persym_genericity_check,
    product_map_rank,
    random_element,
)
from subspace_products.catalog import KINDS
from helpers import (
    brute_tangent_rank,
    catalog,
    catalog_cells,
    catalog_flags,
    persym_generic_brute,
)


DIM_CASES = [
    ("diagonal", 3, {}, 3),
    ("circulant", 3, {}, 3),
    ("circulant", 5, {}, 5),
    ("lower_triangular", 4, {}, 10),
    ("upper_triangular", 4, {}, 10),
    ("unit_upper_constant_diagonal", 4, {}, 7),
    ("unit_lower_constant_diagonal", 4, {}, 7),
    ("band_lower", 4, {"p": 1}, 7),
    ("band_upper", 5, {"q": 2}, 12),
    ("toeplitz_upper_triangular", 4, {}, 4),
    ("toeplitz_lower_triangular", 4, {}, 4),
    ("symmetric", 4, {}, 10),
    ("rank_cols", 4, {"k": 2}, 8),
    ("rank_rows", 5, {"k": 3}, 15),
]


@pytest.mark.parametrize("kind,n,params,expected", DIM_CASES)
def test_catalog_dimensions(kind, n, params, expected):
    assert catalog(kind, n, **params).dim == expected


def test_constant_antidiagonal_dimension():
    # symmetric with all antidiagonal entries equal: the ceil(n/2) free
    # antidiagonal cells of a symmetric matrix collapse to one direction
    for n in (3, 4, 5):
        expected = n * (n + 1) // 2 - (n + 1) // 2 + 1
        assert catalog("persymmetric_constant_antidiagonal", n).dim == expected


def test_hurwitz_radon_2():
    S, flags = catalog_flags("hurwitz_radon_2", 2, field="real")
    assert S.dim == 2 and flags["inverse_closed"] and flags["contains_identity"]
    with pytest.raises(BadParameters):
        catalog("hurwitz_radon_2", 3, field="real")
    with pytest.raises(BadParameters):
        catalog("hurwitz_radon_2", 2, field="complex")


# Catalog parameter of each parametrized kind and its valid range as a
# function of n.
_PARAMS = {
    "band_lower": ("p", lambda n: range(0, n)),
    "band_upper": ("q", lambda n: range(0, n)),
    "rank_cols": ("k", lambda n: range(1, n + 1)),
    "rank_rows": ("k", lambda n: range(1, n + 1)),
}


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "krylov"])
def test_raw_basis_pinned(kind):
    """Every member of every raw basis, in order, for n = 1..6 in both fields."""
    cases = 0
    for field in ("real", "complex"):
        dtype = np.float64 if field == "real" else np.complex128
        for n in range(1, 7):
            if kind == "hurwitz_radon_2" and (n, field) != (2, "real"):
                continue
            name, valid = _PARAMS.get(kind, (None, lambda n: [None]))
            for v in valid(n):
                params = {name: v} if name else {}
                got = catalog(kind, n, field=field, **params).raw_basis
                want = catalog_cells(kind, n, **params)
                assert len(got) == len(want), (field, n, params)
                for G, W in zip(got, want):
                    assert G.dtype == dtype
                    np.testing.assert_array_equal(G, W)
                cases += 1
    assert cases >= 1


class TestKrylov:
    def test_nilpotent_jordan_block(self):
        J = np.diag(np.ones(2), 1)  # 3x3 nilpotent
        S = catalog("krylov", 3, matrix=J, max_power=10)
        assert S.dim == 3

    def test_power_cap(self):
        J = np.diag(np.ones(2), 1)
        S, flags = catalog_flags("krylov", 3, matrix=J, max_power=1)
        assert S.dim == 2
        assert not flags["inverse_closed"]  # truncated before saturation

    def test_saturated_is_flagged_inverse_closed(self):
        J = np.diag(np.ones(2), 1)
        _, flags = catalog_flags("krylov", 3, matrix=J, max_power=10)
        assert flags["inverse_closed"]

    def test_generator_of_another_side(self):
        with pytest.raises(MixedSizes, match="^matrix has side 2, expected 3$"):
            catalog("krylov", 3, matrix=np.eye(2), max_power=2)

    def test_missing_generator(self):
        with pytest.raises(BadParameters):
            catalog("krylov", 3, max_power=3)


def test_unknown_kind():
    with pytest.raises(BadParameters):
        catalog("hankel", 3)


def test_bad_band_parameters():
    with pytest.raises(BadParameters):
        catalog("band_lower", 3, p=3)
    with pytest.raises(BadParameters):
        catalog("rank_cols", 3, k=0)


INVERSE_CLOSED_KINDS = [
    ("diagonal", 4, {}),
    ("circulant", 4, {}),
    ("lower_triangular", 4, {}),
    ("upper_triangular", 5, {}),
    ("unit_upper_constant_diagonal", 4, {}),
    ("unit_lower_constant_diagonal", 5, {}),
    ("toeplitz_upper_triangular", 5, {}),
    ("toeplitz_lower_triangular", 4, {}),
    ("symmetric", 4, {}),
]


@pytest.mark.parametrize("kind,n,params", INVERSE_CLOSED_KINDS)
def test_inverse_closed_flags_are_honest(kind, n, params):
    S, flags = catalog_flags(kind, n, **params)
    assert flags["inverse_closed"]
    count = 0
    seed = 0
    while count < 20:
        seed += 1
        A = random_element(S, seed)
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            continue
        count += 1
        inv = np.linalg.inv(A)
        assert membership(S, inv).residual < 1e-8 * max(1, np.linalg.norm(inv))


def test_identity_flags_are_honest():
    for kind, n, params in [
        ("diagonal", 3, {}),
        ("circulant", 4, {}),
        ("symmetric", 3, {}),
        ("rank_cols", 3, {"k": 2}),
        ("persymmetric_constant_antidiagonal", 3, {}),
        ("persymmetric_constant_antidiagonal", 4, {}),
    ]:
        S, flags = catalog_flags(kind, n, **params)
        assert flags["contains_identity"] == membership(S, np.eye(n)).inside


class TestPersymGenericity:
    def test_generic_triple(self):
        assert persym_genericity_check([1.0, 2.0, 5.0])  # products 5, 4, 5

    def test_coinciding_products(self):
        assert not persym_genericity_check([1.0, 2.0, 3.0, 6.0])  # 1*6 == 2*3

    def test_zero_entry(self):
        assert not persym_genericity_check([1.0, 0.0, 3.0])

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for t in range(600):
            n = int(rng.integers(0, 9))
            if t % 3 == 0:
                d = rng.standard_normal(n)
            else:
                # Small integers make coinciding products and zeros common.
                d = rng.integers(-4, 5, size=n).astype(float)
            if t % 3 == 2 and n:
                # Products near 1e-4 nudged apart by about 1e-11 are close
                # only through the floor of 1 in the relative tolerance.
                d = 1e-2 * d
                d[rng.integers(0, n)] += 1e-9
            verdicts.append(persym_genericity_check(d))
            assert verdicts[-1] == persym_generic_brute(d), d
        assert 0 < sum(verdicts) < len(verdicts)

    def test_rank_follows_genericity(self):
        sym3 = catalog("symmetric", 3)
        anti3 = catalog("persymmetric_constant_antidiagonal", 3)
        J3 = np.fliplr(np.eye(3))
        for n, d in ((3, (1.0, 2.0, 5.0)), (4, (1.0, 2.0, 5.0, 9.0)), (5, (1.0, 2.0, 5.0, 9.0, 13.0))):
            assert persym_genericity_check(d)
            sym = catalog("symmetric", n)
            anti = catalog("persymmetric_constant_antidiagonal", n)
            D = np.diag(d).astype(complex)
            J = np.fliplr(np.eye(n)).astype(complex)
            rank = product_map_rank(sym, anti, D, J)
            assert rank == n * n
            assert rank == brute_tangent_rank(
                sym.basis_matrices(), anti.basis_matrices(), D, J
            )
        bad = (1.0, 2.0, 3.0, 6.0)
        assert not persym_genericity_check(bad)
        sym4 = catalog("symmetric", 4)
        anti4 = catalog("persymmetric_constant_antidiagonal", 4)
        D = np.diag(bad).astype(complex)
        J4 = np.fliplr(np.eye(4)).astype(complex)
        assert product_map_rank(sym4, anti4, D, J4) < 16
