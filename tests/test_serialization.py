import json

import numpy as np
import pytest

from subspace_products import ParseError, extract_bilinear, solve_bilinear, subspaces_equal
from subspace_products import serialization
from subspace_products.cli import main
from subspace_products.serialization import (
    _from_pairs,
    dumps_canonical,
    load_json,
    load_matrix,
    load_subspace,
    load_vector,
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



def _pairs_json(A):
    """``[re, im]`` pairs of A as the JSON text of a file holds them."""
    return json.loads(json.dumps(np.stack([A.real, A.imag], -1).tolist()))


_RNG = np.random.default_rng(5)
_PAIRS_3x3 = _pairs_json(random_complex(_RNG, 3))
_REAL_PAIRS_3x3 = _pairs_json(_RNG.standard_normal((3, 3)) * [[1, -0.0, 0]])
_BASIS = _pairs_json(random_complex(_RNG, 2).reshape(1, 2, 2) * [[[1]], [[0.5]], [[-0.0]]])
_BIG = 2**53 + 1
_HUGE = 2**64 + 3

# (value, shape, route) triples: input the reader is given, valid and
# invalid, in every form a caller or a JSON file can produce, and the route
# that reads it (None: refused before either route runs).
READER_CASES = {
    "json_pairs": (_PAIRS_3x3, (3, 3), "fast"),
    "json_real_pairs": (_REAL_PAIRS_3x3, (3, 3), "fast"),
    "json_basis": (_BASIS, (None, 2, 2), "fast"),
    "json_vector": (_PAIRS_3x3[0], (None,), "fast"),
    "bare_numbers": ([[1, -0.0], [2.5, -3]], (2, 2), "fast"),
    "bare_vector": ([0.0, -0.0, 7], (None,), "fast"),
    "int_pairs": ([[[1, 0], [0, -2]], [[3, 4], [-0.0, 5]]], (2, 2), "fast"),
    "mixed_rows": ([[1, [2, 0]], [3, 4]], (2, 2), "walk"),
    "mixed_in_row": ([[[1.0, 0.0], 2.0]], (1, 2), "walk"),
    "bools": ([[True, False], [False, True]], (2, 2), "fast"),
    "bool_pairs": ([[True, 0.5], [False, True]], (2,), "fast"),
    "above_2_53": ([[_BIG, 0], [-_BIG, 0.5]], (2,), "fast"),
    "above_2_53_bare": ([[_BIG, 1], [2**60 + 1, -(2**62) - 3]], (2, 2), "fast"),
    "above_2_63": ([[2**63 + 5, -1], [0, 2**64 - 1]], (2,), "fast"),
    "above_2_64": ([[_HUGE, 0], [1, -_HUGE]], (2,), "fast"),
    "above_2_64_bare": ([[_HUGE, 1], [2, 3]], (2, 2), "fast"),
    "too_large": ([[1, 0], [0, -(10**400)]], (2,), "walk"),
    "too_large_bare": ([[10**400, 1], [2, 3]], (2, 2), "walk"),
    "nan_literal": (json.loads("[[NaN, 0], [1, 2]]"), (2,), "fast"),
    "infinity_literal": (json.loads("[[1, 0], [0, [0, Infinity]]]"), (2, 2), "walk"),
    "minus_infinity_bare": (json.loads("[[1, -Infinity], [2, 3]]"), (2, 2), "fast"),
    "string_entry": ([[1, "x"], [2, 3]], (2, 2), "walk"),
    "string_part": ([["1", 0], [2, 0]], (2,), "walk"),
    "none_entry": ([[1, None], [2, 3]], (2, 2), "walk"),
    "none_part": ([[1, None]], (1,), "walk"),
    "ragged_rows": ([[1, 2], [3]], (2, 2), "walk"),
    "ragged_pair": ([[1, 0], [2, 0, 0]], (2,), "walk"),
    "too_many_rows": ([[1, 2], [3, 4], [5, 6]], (2, 2), "walk"),
    "too_shallow": ([1, 2], (2, 2), "walk"),
    "too_deep": ([[[[1, 0]]]], (1, 1), "walk"),
    "pair_of_pairs": ([[[1, 0], [0, 1]]], (1,), "walk"),
    "tuple_rows": ([(1, 2), (3, 4)], (2, 2), "walk"),
    "tuple_outer": (((1, 0), (2, 0)), (2,), "walk"),
    "tuple_pairs": ([[(1, 0), (2, -0.0)]], (1, 2), "fast"),
    "numpy_float64": ([[np.float64(1.5), np.float64(-0.0)], [2.0, 3.0]], (2, 2), "walk"),
    "numpy_int64": ([[np.int64(1), 0], [2, 3]], (2, 2), "walk"),
    "numpy_float32_part": ([[np.float32(0.1), 0.0]], (1,), "walk"),
    "numpy_bool": ([[np.bool_(True), 0.0]], (1,), "walk"),
    "ndarray_row": ([np.array([1.0, 2.0]), [3.0, 4.0]], (2, 2), "walk"),
    "ndarray_pair": ([np.array([1.0, 0.0])], (1,), "walk"),
    "empty_axis": ([[[], []], [[], []]], (2, 2, 0), "fast"),
    "empty_leading": ([], (None,), None),
    "not_a_list": ({"re": 1}, (None,), None),
}


def _read(value, shape, field):
    """What ``_from_pairs`` makes of the input: the array's dtype, shape and
    bytes (signed zeros included), or the error's type and message."""
    try:
        A = _from_pairs(value, shape, "f.json.basis", field)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc).__name__, str(exc)
    return A.dtype, A.shape, A.tobytes()


@pytest.fixture
def collect_calls(monkeypatch):
    """Counts the calls of the entry-by-entry walk."""
    calls = []
    walk = serialization._collect

    def spy(*args):
        calls.append(args[2])
        return walk(*args)

    monkeypatch.setattr(serialization, "_collect", spy)
    return calls


class TestOneConversionReader:
    """The one-conversion route gives exactly what the entry-by-entry walk
    gives: the same array or the same diagnostic."""

    @pytest.mark.parametrize("field", [None, "real", "complex"])
    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_same_outcome_as_the_walk(self, monkeypatch, case, field):
        value, shape, _ = READER_CASES[case]
        got = _read(value, shape, field)
        monkeypatch.setattr(serialization, "_plain_pairs", lambda value, shape: None)
        assert got == _read(value, shape, field)

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_walk_runs_only_where_needed(self, collect_calls, case):
        value, shape, route = READER_CASES[case]
        _read(value, shape, None)
        assert bool(collect_calls) == (route == "walk")


class TestBenchmarkStyleFilesSkipTheWalk:
    """Subspace, matrix, vector and model files as the CLI benchmark writes
    them are read without the walk."""

    def test_no_walk(self, tmp_path, collect_calls):
        def put(name, obj):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        def pairs(A):
            return [[[float(A[i, j].real), float(A[i, j].imag)] for j in range(A.shape[1])]
                    for i in range(A.shape[0])]

        n = 6
        lower, upper = (catalog(kind, n, "real") for kind in
                        ("lower_triangular", "unit_upper_constant_diagonal"))
        files = [put(name, {"n": n, "field": "real", "basis": [pairs(M) for M in S.raw_basis]})
                 for name, S in (("lower", lower), ("upper", upper))]
        A = np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)
        matrix = put("A", {"n": n, "entries": pairs(A)})
        rhs = put("rhs", {"entries": [[float(x), 0.0] for x in np.arange(n * n) / 7]})
        model = str(tmp_path / "model.json")
        out = str(tmp_path / "out.json")
        assert main(["solve", *files, rhs, "--model-out", model, "--output", out]) == 0
        assert main(["factor", matrix, *files, "--output", out]) == 0
        assert load_subspace(files[0]).dim == 21 and load_matrix(matrix).shape == (n, n)
        assert load_vector(rhs).shape == (n * n,)
        assert model_from_obj(load_json(model), path=model).l == n * n
        assert collect_calls == []

    def test_spy_sees_the_walk(self, collect_calls):
        with pytest.raises(ParseError, match=r"^v\.entries\[1\]: expected \[re, im\] pair"):
            vector_from_obj({"entries": [[1.0, 0.0], "x"]}, path="v")
        assert collect_calls == ["v.entries"]


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
