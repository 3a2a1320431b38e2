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


def _model_obj(field="complex"):
    model = extract_bilinear(catalog("lower_triangular", 3, field=field),
                             catalog("unit_upper_constant_diagonal", 3, field=field))
    return json.loads(dumps_canonical(model_to_obj(model)))


class TestNonFiniteRejected:
    def test_vector(self):
        obj = json.loads('{"entries": [[NaN, 0.0], [1.0, 0.0]]}')
        with pytest.raises(ParseError, match=r"^r\.json\.entries\[0\]: expected a finite number"):
            vector_from_obj(obj, path="r.json")

    def test_matrix(self):
        obj = json.loads('{"n": 2, "entries": [[1, 0], [0, [0, Infinity]]]}')
        with pytest.raises(ParseError, match=r"^matrix\.entries\[1\]\[1\]: expected a finite"):
            matrix_from_obj(obj)

    def test_subspace(self):
        obj = json.loads('{"n": 1, "field": "real", "basis": [[[1]], [[-Infinity]]]}')
        with pytest.raises(ParseError, match=r"^subspace\.basis\[1\]\[0\]\[0\]: expected a finite"):
            subspace_from_obj(obj)

    def test_model(self):
        obj = _model_obj()
        obj["M"][2][1][0] = [0.0, float("nan")]
        with pytest.raises(ParseError, match=r"^model\.M\[2\]\[1\]\[0\]: expected a finite"):
            model_from_obj(obj)


class TestHugeIntegerRejected:
    # A 400-digit integer is valid JSON but too large for a float.
    HUGE = 10**400

    def test_vector(self):
        obj = {"entries": [[1.0, 0.0], [0, -self.HUGE]]}
        with pytest.raises(ParseError, match=r"^r\.json\.entries\[1\]: number too large for a float"):
            vector_from_obj(obj, path="r.json")

    def test_matrix(self):
        obj = {"n": 2, "entries": [[1, 0], [0, self.HUGE]]}
        with pytest.raises(ParseError, match=r"^matrix\.entries\[1\]\[1\]: number too large"):
            matrix_from_obj(obj)

    def test_subspace(self):
        obj = {"n": 1, "field": "real", "basis": [[[1]], [[self.HUGE]]]}
        with pytest.raises(ParseError, match=r"^subspace\.basis\[1\]\[0\]\[0\]: number too large"):
            subspace_from_obj(obj)

    def test_model(self):
        obj = _model_obj()
        obj["M"][2][1][0] = [0.0, self.HUGE]
        with pytest.raises(ParseError, match=r"^model\.M\[2\]\[1\]\[0\]: number too large"):
            model_from_obj(obj)


class TestModelReaderChecks:
    def test_real_field_rejects_imaginary_constant(self):
        obj = _model_obj("real")
        obj["M"][0][0][0] = [1.0, 0.5]
        with pytest.raises(ParseError, match=r"^model\.M\[0\]\[0\]\[0\]: nonzero imaginary"):
            model_from_obj(obj)

    @pytest.mark.parametrize("key,count", [("basis1", 6), ("basis2", 4), ("lin_basis", 9)])
    def test_basis_count_must_match(self, key, count):
        obj = _model_obj()
        obj[key]["basis"] = obj[key]["basis"][:2]
        with pytest.raises(ParseError, match=rf"^model\.{key}\.basis: expected {count} matrices"):
            model_from_obj(obj)

    @pytest.mark.parametrize("field,dtype", [("real", np.float64), ("complex", np.complex128)])
    def test_bases_take_the_field_dtype(self, field, dtype):
        back = model_from_obj(_model_obj(field))
        for basis in (back.basis1, back.basis2, back.lin_basis):
            assert {B.dtype for B in basis} == {np.dtype(dtype)}


class TestFormatPinned:
    """The exact bytes of each file format; a codec change must not move one."""

    def test_integer_matrix(self):
        assert dumps_canonical(matrix_to_obj(np.array([[1, 2], [-3, 0]]))) == INT_MATRIX

    def test_complex_matrix_keeps_signed_zeros(self):
        A = np.array([[complex(1.5, -0.0), complex(-0.0, 2.0)], [complex(0.0, -0.0), -1j]])
        assert dumps_canonical(matrix_to_obj(A)) == SIGNED_ZERO_MATRIX

    def test_vector(self):
        assert dumps_canonical(vector_to_obj(np.array([0.25, -1 + 0.5j]))) == VECTOR

    def test_subspace(self):
        assert dumps_canonical(subspace_to_obj(catalog("diagonal", 2))) == DIAGONAL_2



def json_dumps_text(obj) -> str:
    """The text the canonical writer must match byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestCanonicalWriter:
    """dumps_canonical writes exactly the bytes of the standard library's
    indenting encoder."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_model_file(self, field):
        obj = model_to_obj(
            extract_bilinear(
                catalog("lower_triangular", 4, field),
                catalog("unit_upper_constant_diagonal", 4, field),
            )
        )
        assert dumps_canonical(obj) == json_dumps_text(obj)

    def test_odd_values(self):
        obj = {
            "empty": [[], {}, [[]], [{}], {"x": []}],
            "non_finite": [float("nan"), float("inf"), -float("inf")],
            "pairs_with_non_finite": [[1.0, float("nan")], [float("-inf"), 2.0]],
            "signed_zeros": [[0.0, -0.0], [-0.0, 0.0]],
            "int_pairs": [[1, 2.0], [3, -4]],
            "bool_pair": [[True, 1.0]],
            "numpy_floats": [[np.float64(1.5), 0.0], [np.float64(-0.0), np.float64(2.0)]],
            "three": [[1.0, 2.0, 3.0]],
            "tuple_pairs": [(1.0, 2.0), (3.0, 4.0)],
            "mixed": [[1.0, 2.0], "x", [3.0, 4.0]],
            "extremes": [[1e300, -1e-300], [5e-324, 1.7976931348623157e308]],
            "nested": {"b": {"c": [[0.25, -0.5]]}, "a": None},
            "scalars": [0, -1, 2.5, True, False, None, "s"],
            "non-ASCII \u00e9": "\u00fc \u2713 \n\t\"",
            "\u00e0": 1,
            "Z": 0,
        }
        assert dumps_canonical(obj) == json_dumps_text(obj)

    @pytest.mark.parametrize(
        "obj", [[], {}, 1.0, float("nan"), "x", None, 7, [[1.0, 2.0]], [[[1.0, 2.0]]], {1: 2.0}],
    )
    def test_small_values(self, obj):
        assert dumps_canonical(obj) == json_dumps_text(obj)

INT_MATRIX = """\
{
  "entries": [
    [
      [
        1.0,
        0.0
      ],
      [
        2.0,
        0.0
      ]
    ],
    [
      [
        -3.0,
        0.0
      ],
      [
        0.0,
        0.0
      ]
    ]
  ],
  "n": 2
}
"""

SIGNED_ZERO_MATRIX = """\
{
  "entries": [
    [
      [
        1.5,
        -0.0
      ],
      [
        -0.0,
        2.0
      ]
    ],
    [
      [
        0.0,
        -0.0
      ],
      [
        -0.0,
        -1.0
      ]
    ]
  ],
  "n": 2
}
"""

VECTOR = """\
{
  "entries": [
    [
      0.25,
      0.0
    ],
    [
      -1.0,
      0.5
    ]
  ]
}
"""

DIAGONAL_2 = """\
{
  "basis": [
    [
      [
        [
          1.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    ],
    [
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      [
        [
          0.0,
          0.0
        ],
        [
          1.0,
          0.0
        ]
      ]
    ]
  ],
  "field": "complex",
  "n": 2
}
"""
