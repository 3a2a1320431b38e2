"""The input rules every list of matrices meets, checked at every caller of
the one validation kernel, and the read-only (K, n, n) bases it yields."""

import re

import numpy as np
import pytest

from subspace_products import (
    EmptyInput,
    MixedSizes,
    NonFiniteInput,
    RealFieldViolation,
    SizeMismatch,
    chain_factor,
    craig_sakamoto_check,
    curvature_measure,
    equivalence_transform,
    extract_bilinear,
    factor_via_inverse_closed,
    find_lft_witness,
    linearization,
    membership,
    model_from_bases,
    product_map,
    product_map_rank,
    second_fundamental_form,
    subspace_from_matrices,
    tangent_space,
)
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
