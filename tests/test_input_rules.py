"""The input rules every list of matrices meets, checked at every caller of
the one validation kernel, and the read-only (K, n, n) bases it yields; the
rule every seed and count meets, the one every coordinate vector meets, the
one every product of caller-scaled matrices meets, the one every norm of
caller-scaled data meets, and the one every pair of subspaces meets."""

import argparse
import inspect
import re
import warnings

import numpy as np
import pytest

import subspace_products
from subspace_products import (
    BadParameters,
    CatalogSpec,
    EmptyInput,
    FieldMismatch,
    MixedSizes,
    NonFiniteInput,
    NotMember,
    RealFieldViolation,
    SizeMismatch,
    ZeroSubspace,
    chain_factor,
    closedness_certificate,
    craig_sakamoto_check,
    curvature_measure,
    equivalence_transform,
    extract_bilinear,
    factor_via_inverse_closed,
    factorizability_check,
    find_lft_witness,
    flatness_test,
    linearization,
    make_subspace,
    membership,
    minrank,
    model_from_bases,
    normalize_pair,
    normalize_pencil,
    numerical_rank,
    product_map,
    product_map_rank,
    random_element,
    random_unit_element,
    sample_pair,
    second_fundamental_form,
    solve_bilinear,
    subspace_from_matrices,
    subspace_sum,
    tangent_space,
    zero_product_probe,
)
from subspace_products.cli import _check_options
from subspace_products.core import as_square_matrix
from subspace_products.serialization import model_from_obj, model_to_obj
from helpers import catalog

I2 = np.eye(2)
D = catalog("diagonal", 2, "real")

# caller -> (call on the list of inputs, the name of that list or the names
# of the inputs, whether the real field is in force).  A list caller gets
# four inputs; every other input is valid, I2, which is a member of D.
CALLERS = {
    "subspace_from_matrices": (lambda m: subspace_from_matrices(m, field="real"), "mats", True),
    "model_from_bases basis1": (lambda m: model_from_bases(m, [I2], [I2], "real"), "basis1", True),
    "model_from_bases basis2": (lambda m: model_from_bases([I2], m, [I2], "real"), "basis2", True),
    "model_from_bases lin_basis": (
        lambda m: model_from_bases([I2], [I2], m, "real"), "lin_basis", True),
    "chain_factor": (lambda m: chain_factor(1.0, m), "X", False),
    "product_map": (lambda m: product_map(*m), ("V1", "V2"), False),
    "find_lft_witness": (lambda m: find_lft_witness(*m), ("X1", "X2"), False),
    "craig_sakamoto_check": (lambda m: craig_sakamoto_check(*m), ("X1", "X2"), True),
    "equivalence_transform": (lambda m: equivalence_transform(D, *m), ("X", "Y"), True),
    "factor_via_inverse_closed": (lambda m: factor_via_inverse_closed(*m, D, D), ("A",), True),
    "membership": (lambda m: membership(D, *m), ("A",), False),
    "coefficients": (lambda m: D.coefficients(*m), ("A",), False),
    "project": (lambda m: D.project(*m), ("A",), False),
    "project_out": (lambda m: D.project_out(*m), ("A",), False),
    "tangent_space": (lambda m: tangent_space(D, D, *m), ("V1", "V2"), True),
    "product_map_rank": (lambda m: product_map_rank(D, D, *m), ("V1", "V2"), True),
    "curvature_measure": (
        lambda m: curvature_measure(D, D, *m), ("V1", "V2", "W1", "W2"), True),
    "second_fundamental_form": (
        lambda m: second_fundamental_form(D, D, *m), ("V1", "V2", "W1", "W2", "W1t", "W2t"), True),
    "as_square_matrix": (lambda m: as_square_matrix(*m, field="real"), ("matrix",), True),
}

# fault -> (the faulty input, the error it raises, the index it is put at).
FAULTS = {
    "non-square": (np.ones((2, 3)), SizeMismatch, 1),
    "nan": (np.array([[1.0, np.nan], [0.0, 1.0]]), NonFiniteInput, 2),
    "imaginary": (1j * I2, RealFieldViolation, 1),
    "side": (np.eye(3), MixedSizes, 1),
}


def _cases():
    for caller, (_, names, real) in CALLERS.items():
        for fault in FAULTS:
            if fault == "imaginary" and not real:
                continue
            if fault == "side" and caller == "as_square_matrix":
                continue  # one matrix and no subspace: no side to mismatch
            yield caller, fault


@pytest.mark.parametrize("caller,fault", list(_cases()))
def test_input_rules_name_the_first_offender(caller, fault):
    call, names, _ = CALLERS[caller]
    bad, error, index = FAULTS[fault]
    count = 4 if isinstance(names, str) else len(names)
    index = min(index, count - 1)
    # Every input from the index on is faulty, so only the first may be named.
    mats = [I2] * index + [bad] * (count - index)
    name = f"{names}[{index}]" if isinstance(names, str) else names[index]
    with pytest.raises(error, match=f"^{re.escape(name)} ") as raised:
        call(mats)
    assert raised.type is error


LIST_CALLERS = [caller for caller, (_, names, _) in CALLERS.items() if isinstance(names, str)]


@pytest.mark.parametrize("caller", LIST_CALLERS)
def test_empty_list_rejected(caller):
    with pytest.raises(EmptyInput):
        CALLERS[caller][0]([])


def test_mixed_sizes_is_a_size_mismatch():
    with pytest.raises(SizeMismatch, match=r"^basis1\[1\] has side 3, expected 2$"):
        model_from_bases([I2, np.eye(3)], [I2], [I2])
    with pytest.raises(SizeMismatch, match=r"^X\[1\] has side 3, expected 2$"):
        chain_factor(1.0, [I2, np.eye(3)])


def _assert_read_only_stack(B, count, n=2):
    assert isinstance(B, np.ndarray) and B.shape == (count, n, n)
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0, 0] = 5.0


def test_bases_are_read_only_arrays_apart_from_the_input():
    mats = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    stack = np.array(mats)
    from_list = subspace_from_matrices(mats, field="real")
    from_array = subspace_from_matrices(stack, field="real")
    model = model_from_bases(mats, mats, mats, field="real")
    stored = [from_list.raw_basis, from_array.raw_basis, model.basis1, model.basis2]
    stored.append(model.lin_basis)
    before = [B.copy() for B in stored]
    for B in stored:
        _assert_read_only_stack(B, 2)
    # Changing the caller's list, its matrices or its array leaves every basis as it was.
    mats[0][0, 0] = 7.0
    mats.append(np.eye(2))
    stack[1, 1, 1] = 7.0
    assert stack.flags.writeable
    for B, want in zip(stored, before):
        np.testing.assert_array_equal(B, want)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_derived_bases_are_read_only_arrays(field):
    L, U = catalog("lower_triangular", 3, field), catalog("unit_upper_constant_diagonal", 3, field)
    lin = linearization(L, U)
    _assert_read_only_stack(lin.raw_basis, L.dim * U.dim, 3)
    T = tangent_space(L, U, np.eye(3), np.eye(3))
    _assert_read_only_stack(T.raw_basis, L.dim + U.dim, 3)
    model = extract_bilinear(L, U)
    back = model_from_obj(model_to_obj(model))
    for m in (model, back):
        _assert_read_only_stack(m.basis1, L.dim, 3)
        _assert_read_only_stack(m.basis2, U.dim, 3)
        _assert_read_only_stack(m.lin_basis, lin.dim, 3)
    # The object form holds the model's own arrays; the reader copies them.
    for key in ("M", "basis1", "basis2", "lin_basis"):
        assert not np.shares_memory(getattr(back, key), getattr(model, key))


# Seeded calls, five of which draw nothing from the seed they are given: a
# one-dimensional minrank, two pencil normal forms whose first raw member is
# invertible, a zero right-hand side, a factor with no nonzero null direction.
D3 = catalog("diagonal", 3, "real")
IX = subspace_from_matrices([I2, np.diag([1.0], 1)], field="real")
MODEL = extract_bilinear(D3, D3)
SEEDED = {
    "random_element": lambda s: random_element(D3, s),
    "random_unit_element": lambda s: random_unit_element(D3, s),
    "sample_pair": lambda s: sample_pair(D3, D3, s),
    "flatness_test": lambda s: flatness_test(D3, D3, seed=s),
    "factorizability_check": lambda s: factorizability_check(D3, D3, D3, seed=s),
    "minrank": lambda s: minrank(catalog("diagonal", 1, "real"), seed=s),
    "normalize_pencil": lambda s: normalize_pencil(IX, seed=s),
    "normalize_pair": lambda s: normalize_pair(IX, IX, seed=s),
    "zero_product_probe": lambda s: zero_product_probe(D3, D3, seed=s),
    "closedness_certificate": lambda s: closedness_certificate(IX, IX, seed=s),
    "solve_bilinear": lambda s: solve_bilinear(MODEL, np.zeros(3), seed=s),
    "factor_via_inverse_closed": lambda s: factor_via_inverse_closed(np.ones((3, 3)), D3, D3, s),
}


# Every public function of two subspaces that checks the pair: a call on
# (S1, S2) with every other input valid for S1.  D3 contains I, so I of
# side S1.n is a valid point and direction.
def _at_identity(f, count):
    return lambda S1, S2: f(S1, S2, *[np.eye(S1.n)] * count)


PAIR_CALLERS = {
    "flatness_test": flatness_test,
    "factorizability_check": lambda S1, S2: factorizability_check(S1, S1, S2),
    "linearization": linearization,
    "extract_bilinear": extract_bilinear,
    "zero_product_probe": zero_product_probe,
    "closedness_certificate": closedness_certificate,
    "factor_via_inverse_closed": lambda S1, S2: factor_via_inverse_closed(np.eye(S1.n), S1, S2),
    "normalize_pair": normalize_pair,
    "sample_pair": lambda S1, S2: sample_pair(S1, S2, 0),
    "tangent_space": _at_identity(tangent_space, 2),
    "product_map_rank": _at_identity(product_map_rank, 2),
    "curvature_measure": _at_identity(curvature_measure, 4),
    "second_fundamental_form": _at_identity(second_fundamental_form, 6),
    "subspace_sum": subspace_sum,
}
# Two subspaces of other sides or fields are unequal by contract.
PAIR_EXCEPTIONS = {"subspaces_equal"}


@pytest.mark.parametrize("caller", list(PAIR_CALLERS))
def test_pair_of_other_sides_or_fields_is_rejected(caller):
    call = PAIR_CALLERS[caller]
    with pytest.raises(SizeMismatch, match=r"^subspace sides differ: 3 vs 4$"):
        call(D3, catalog("diagonal", 4, "real"))
    with pytest.raises(FieldMismatch, match=r"^subspace fields differ: real vs complex$"):
        call(D3, catalog("diagonal", 3, "complex"))


def test_every_public_function_of_two_subspaces_is_covered():
    public = {
        name for name, f in vars(subspace_products).items()
        if not name.startswith("_") and inspect.isfunction(f)
        and {"S1", "S2"} <= inspect.signature(f).parameters.keys()
    }
    assert public == set(PAIR_CALLERS) | PAIR_EXCEPTIONS


def test_sample_pair_checks_the_seed_before_the_pair():
    with pytest.raises(BadParameters, match=r"^seed must be a nonnegative integer, got -1$"):
        sample_pair(D3, catalog("diagonal", 4, "real"), -1)


def test_flatness_rejects_a_zero_factor_before_the_pair():
    Z4 = subspace_from_matrices([np.zeros((4, 4))], field="real")
    for S1, S2 in ((D3, Z4), (Z4, D3)):
        with pytest.raises(ZeroSubspace, match="^flatness analysis requires nonzero subspaces$"):
            flatness_test(S1, S2)


def test_every_public_function_with_a_seed_is_covered():
    public = {
        name for name, f in vars(subspace_products).items()
        if not name.startswith("_") and inspect.isfunction(f)
        and "seed" in inspect.signature(f).parameters
    }
    assert public == set(SEEDED)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
@pytest.mark.parametrize("call", list(SEEDED))
def test_bad_seed_is_rejected_whether_or_not_it_is_drawn(call, seed):
    message = f"seed must be a nonnegative integer, got {seed!r}"
    with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
        SEEDED[call](seed)


# count -> call with that count and every other input valid.
COUNTS = {
    "trials": lambda v: flatness_test(D3, D3, trials=v),
    "factorizability trials": lambda v: factorizability_check(D3, D3, D3, trials=v),
    "restarts": lambda v: solve_bilinear(MODEL, np.ones(3), restarts=v),
    "max_iter": lambda v: solve_bilinear(MODEL, np.ones(3), max_iter=v),
    "budget": lambda v: zero_product_probe(D3, D3, budget=v),
    "closedness budget": lambda v: closedness_certificate(D3, D3, budget=v),
    "grid": lambda v: craig_sakamoto_check(I2, I2, grid=v),
    "directions": lambda v: _check_options(argparse.Namespace(seed=0, trials=5, directions=v)),
}


@pytest.mark.parametrize("value, rule", [
    (0, "at least 1, got 0"),
    (2.5, "an integer of at least 1, got 2.5"),
    (True, "an integer of at least 1, got True"),
])
@pytest.mark.parametrize("count", list(COUNTS))
def test_count_is_a_positive_integer(count, value, rule):
    message = f"{count.split()[-1]} must be {rule}"
    with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
        COUNTS[count](value)


@pytest.mark.parametrize("kind, param, rule", [
    ("diagonal", "n", "an integer of at least 1"),
    ("band_lower", "p", "a nonnegative integer"),
    ("band_upper", "q", "a nonnegative integer"),
    ("rank_cols", "k", "an integer of at least 1"),
    ("rank_rows", "k", "an integer of at least 1"),
    ("krylov", "max_power", "an integer of at least 1"),
])
def test_catalog_parameter_is_an_integer(kind, param, rule):
    params = {"kind": kind, "n": 4, "field": "real", param: 2.5}
    if kind == "krylov":
        params["matrix"] = np.diag(np.ones(3), 1)
    message = f"{param} must be {rule}, got 2.5"
    with pytest.raises(BadParameters, match=f"^{re.escape(message)}$"):
        make_subspace(CatalogSpec(**params))


# vector -> (call on the faulty vector, whether the real field is in force).
# MODEL is a real model with j = kmj = l = 3; numerical_rank gets four
# members, each faulty from the index on, so that the first must be named.
ONES = np.ones(3)
VECTORS = {
    "b": (lambda v: solve_bilinear(MODEL, v), True),
    "z": (lambda v: MODEL.matrix_at(v), True),
    "z of apply": (lambda v: MODEL.apply(v, ONES), True),
    "w": (lambda v: MODEL.apply(ONES, v), True),
    "coords": (lambda v: MODEL.product_from_coordinates(v), True),
    "vectors": (lambda v: numerical_rank(v), False),
    "coeffs": (lambda v: D3.element(v), True),
}


def _faulty(fault):
    """A vector of length 4, or of length 3 with a NaN or 1j at index 2."""
    if fault == "length":
        return np.ones(4)
    v = np.ones(3, dtype=float if fault == "nan" else complex)
    v[2] = np.nan if fault == "nan" else 1j
    return v


VECTOR_FAULTS = {
    "length": (MixedSizes, "has length 4, expected 3"),
    "nan": (NonFiniteInput, "contains NaN or Inf entries"),
    "imaginary": (RealFieldViolation, "has nonzero imaginary entries over the real field"),
}


@pytest.mark.parametrize("vector, fault", [
    (vector, fault) for vector, (_, real) in VECTORS.items() for fault in VECTOR_FAULTS
    if real or fault != "imaginary"
])
def test_vector_rules_name_the_input(vector, fault):
    call, _ = VECTORS[vector]
    error, text = VECTOR_FAULTS[fault]
    name = vector.split()[0]
    if vector == "vectors":
        index = 1 if fault == "length" else 2
        name = f"vectors[{index}]"
        arg = [ONES] * index + [_faulty(fault)] * (4 - index)
    else:
        arg = _faulty(fault)
    with pytest.raises(error, match=f"^{re.escape(f'{name} {text}')}$") as raised:
        call(arg)
    assert raised.type is error


# Finite inputs whose product overflows: caller -> the call.  Each product
# is formed by core._products, so each raises the same NonFiniteInput.
BIG = 1e200
L3, U3 = catalog("lower_triangular", 3, "real"), catalog("upper_triangular", 3, "real")
W_LOWER, W_UPPER = BIG * np.tril(np.ones((3, 3))), BIG * np.triu(np.ones((3, 3)))
KRYLOV_GENERATOR = 1e120 * np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 0.0, 1.0]])
OVERFLOWS = {
    "product_map": lambda: product_map(BIG * I2, BIG * I2),
    "curvature_measure": lambda: curvature_measure(
        L3, U3, *sample_pair(L3, U3, 0), W_LOWER, W_UPPER),
    "second_fundamental_form": lambda: second_fundamental_form(
        L3, U3, *sample_pair(L3, U3, 0), W_LOWER, W_UPPER, W_LOWER, W_UPPER),
    "equivalence_transform": lambda: equivalence_transform(
        subspace_from_matrices([BIG * I2, BIG * np.diag([1.0], 1)], field="real"), BIG * I2, I2),
    "krylov": lambda: make_subspace(CatalogSpec(
        "krylov", 3, "real", matrix=KRYLOV_GENERATOR, max_power=3)),
    "find_lft_witness": lambda: find_lft_witness(BIG * I2, BIG * I2),
}


@pytest.mark.parametrize("call", list(OVERFLOWS))
def test_overflowing_product_of_finite_inputs_raises_non_finite(call):
    with pytest.raises(NonFiniteInput, match="^a matrix product overflowed to Inf or NaN$"):
        OVERFLOWS[call]()


# Caller-scaled data whose squares overflow past 1e154 though its norms are
# finite.  Each norm is taken by core._norm, which scales as it sums, so each
# answer is the one at scale 1, scaled.
X_UPPER = np.array([[2.0, 1.0], [0.0, 3.0]])


@pytest.mark.parametrize("scale1, X1, scale2, X2", [
    # X1 X2 = 1e145 X^3; the column -X1 has entries of 3e155.
    (1e155, X_UPPER, 1e-10, X_UPPER @ X_UPPER),
    (1e160, np.diag([1.0, 2.0]), 1e-160, np.diag([3.0, 4.0])),
])
def test_lft_stack_whose_squares_overflow_gets_a_witness(scale1, X1, scale2, X2):
    witness = find_lft_witness(scale1 * X1, scale2 * X2)
    norm1, norm2 = scale1 * np.linalg.norm(X1), scale2 * np.linalg.norm(X2)
    assert witness is not None
    assert witness.residual < 1e-8 * (1.0 + norm1) * (1.0 + norm2)


def test_column_norm_of_the_lft_stack_past_the_largest_float_raises_non_finite():
    # X1 X2 = 1.5e298 times the ones matrix is finite; the column -X2 has
    # norm 3e308.
    message = "a column norm of [-X2, I, X1 X2, -X1] overflowed to Inf"
    with pytest.raises(NonFiniteInput, match=f"^{re.escape(message)}$"):
        find_lft_witness(1e-10 * I2, 1.5e308 * np.ones((2, 2)))


@pytest.mark.parametrize("scale", [1.0, 1e100])
def test_product_outside_the_linearization_is_rejected_at_any_scale(scale):
    E00, E11 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    with pytest.raises(NotMember, match=r"^product of basis1\[0\] and basis2\[0\] lies outside"):
        model_from_bases([scale * E00], [scale * E00], [E11], field="real")


def _unit_target(kinds, **params):
    """The model of a real catalog pair at n = 3 and M(z) w at z, w drawn
    from seed 0."""
    model = extract_bilinear(*(catalog(kind, 3, "real", **params) for kind in kinds))
    rng = np.random.default_rng(0)
    return model, model.apply(rng.standard_normal(model.j), rng.standard_normal(model.kmj))


@pytest.mark.parametrize("kinds", [
    ("lower_triangular", "unit_upper_constant_diagonal"),
    ("symmetric", "persymmetric_constant_antidiagonal"),
    ("circulant", "diagonal"),
])
def test_direct_step_solves_a_target_whose_squares_overflow(kinds):
    model, b = _unit_target(kinds)
    rep = solve_bilinear(model, 1e200 * b)
    assert rep.stop == "inverse_closed"
    assert rep.residual < 1e-10 * (1.0 + 1e200 * np.linalg.norm(b))


def test_gauss_newton_with_no_finite_residual_raises_non_finite():
    # Rank-one factors admit no direct step, and at 1e200 J^H J overflows on
    # every restart; no RuntimeWarning escapes.
    model, b = _unit_target(("rank_cols", "rank_rows"), k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="^a matrix product overflowed to Inf or NaN$"):
            solve_bilinear(model, 1e200 * b, restarts=2, max_iter=20)


def test_curvature_norm_of_directions_whose_squares_overflow():
    S1, S2 = catalog("circulant", 4, "real"), catalog("diagonal", 4, "real")
    V1, V2 = sample_pair(S1, S2, 0)
    W1, W2 = random_element(S1, 5), random_element(S2, 6)
    unit = curvature_measure(S1, S2, V1, V2, W1, W2).q_norm
    assert unit > 0
    big = curvature_measure(S1, S2, V1, V2, 1e100 * W1, 1e100 * W2).q_norm
    assert big == pytest.approx(1e200 * unit, rel=1e-12)
