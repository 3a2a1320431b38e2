import json

import numpy as np
import pytest

from subspace_products import ParseError, extract_bilinear, solve_bilinear, subspaces_equal
from subspace_products.serialization import (
    dumps_canonical,
    load_subspace,
    matrix_from_obj,
    matrix_to_obj,
    model_from_obj,
    model_to_obj,
    save_obj,
    subspace_from_obj,
    subspace_to_obj,
    vector_from_obj,
    vector_to_obj,
)
from helpers import catalog, random_complex


class TestMatrixRoundTrip:
    def test_complex(self):
        rng = np.random.default_rng(0)
        A = random_complex(rng, 3)
        np.testing.assert_array_equal(matrix_from_obj(matrix_to_obj(A)), A)

    def test_real_stays_real(self):
        A = np.eye(3)
        back = matrix_from_obj(matrix_to_obj(A))
        assert not np.iscomplexobj(back)
        np.testing.assert_array_equal(back, A)

    def test_scalar_entries_accepted(self):
        A = matrix_from_obj({"n": 2, "entries": [[1, 0], [0, [0, 1]]]})
        assert A[1, 1] == 1j

    def test_bad_row_count(self):
        with pytest.raises(ParseError, match="entries"):
            matrix_from_obj({"n": 2, "entries": [[1, 0]]})

    def test_bad_pair(self):
        with pytest.raises(ParseError, match=r"entries\[0\]\[1\]"):
            matrix_from_obj({"n": 2, "entries": [[1, [2]], [0, 1]]})


class TestSubspaceRoundTrip:
    def test_round_trip_preserves_span(self, tmp_path):
        S = catalog("circulant", 4)
        path = tmp_path / "s.json"
        save_obj(subspace_to_obj(S), str(path))
        back = load_subspace(str(path))
        assert subspaces_equal(S, back)

    def test_real_field_round_trip(self):
        S = catalog("hurwitz_radon_2", 2, field="real")
        back = subspace_from_obj(subspace_to_obj(S))
        assert back.field == "real" and subspaces_equal(S, back)

    def test_bad_field_rejected(self):
        with pytest.raises(ParseError, match="field"):
            subspace_from_obj({"n": 2, "field": "rational", "basis": [[[1, 0], [0, 1]]]})


class TestVectorRoundTrip:
    def test_complex_vector(self):
        v = np.array([1 + 2j, -0.5, 3j])
        np.testing.assert_array_equal(vector_from_obj(vector_to_obj(v)), v)


class TestModelFile:
    def test_round_trip_solves_identically(self):
        S1 = catalog("circulant", 3)
        S2 = catalog("diagonal", 3)
        model = extract_bilinear(S1, S2)
        back = model_from_obj(model_to_obj(model))
        assert (back.j, back.kmj, back.l) == (model.j, model.kmj, model.l)
        for Mr, Br in zip(model.M, back.M):
            np.testing.assert_array_equal(Mr, Br)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(model.l) + 1j * rng.standard_normal(model.l)
        first = solve_bilinear(model, b, restarts=5, seed=0)
        second = solve_bilinear(back, b, restarts=5, seed=0)
        assert first.residual == second.residual

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_constants_array_round_trip(self, field):
        model = extract_bilinear(catalog("lower_triangular", 3, field=field),
                                 catalog("unit_upper_constant_diagonal", 3, field=field))
        back = model_from_obj(json.loads(dumps_canonical(model_to_obj(model))))
        assert isinstance(back.M, np.ndarray)
        assert back.M.shape == (model.l, model.j, model.kmj) == (9, 6, 4)
        assert back.M.dtype == model.M.dtype
        np.testing.assert_array_equal(back.M, model.M)

    def test_schema_fields(self):
        model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
        obj = model_to_obj(model)
        assert set(obj) == {"n", "field", "j", "kmj", "l", "M", "basis1", "basis2", "lin_basis"}
        assert len(obj["M"]) == obj["l"]
        text = dumps_canonical(obj)
        assert json.loads(text)["j"] == 2

    def test_missing_field_diagnosed(self):
        model = extract_bilinear(catalog("diagonal", 2), catalog("diagonal", 2))
        obj = model_to_obj(model)
        del obj["M"]
        with pytest.raises(ParseError, match="'M'"):
            model_from_obj(obj)
