"""JSON file formats for matrices, subspaces, vectors, and reports.

Matrix file:   {"n": int, "entries": [[ [re, im], ... ], ...]}  (row-major)
Subspace file: {"n": int, "field": "real"|"complex", "basis": [entries, ...]}
Vector file:   {"entries": [[re, im], ...]}

Readers reject malformed content with a field-path diagnostic in the error
message.  Writers emit exactly these shapes.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .core import (
    FIELDS,
    REAL,
    MatrixSubspace,
    Tolerances,
    subspace_from_matrices,
)
from .errors import ParseError


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ParseError(f"{path}: {msg}")


def _pair_to_scalar(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        f"expected [re, im] pair or number, got {value!r}",
    )
    re, im = value
    _require(isinstance(re, (int, float)), f"{path}[0]", "expected a number")
    _require(isinstance(im, (int, float)), f"{path}[1]", "expected a number")
    return complex(re, im)


def _scalar_to_pair(x) -> list:
    x = complex(x)
    return [x.real, x.imag]


def matrix_to_obj(A: np.ndarray) -> dict:
    A = np.asarray(A)
    n = A.shape[0]
    return {
        "n": n,
        "entries": [[_scalar_to_pair(A[i, j]) for j in range(n)] for i in range(n)],
    }


def matrix_from_obj(obj, path: str = "matrix", field: Optional[str] = None) -> np.ndarray:
    _require(isinstance(obj, dict), path, "expected an object")
    _require("n" in obj, path, "missing field 'n'")
    _require("entries" in obj, path, "missing field 'entries'")
    n = obj["n"]
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "expected a positive integer")
    rows = obj["entries"]
    _require(isinstance(rows, list) and len(rows) == n, f"{path}.entries", f"expected {n} rows")
    A = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        _require(
            isinstance(row, list) and len(row) == n,
            f"{path}.entries[{i}]",
            f"expected {n} entries",
        )
        for j, val in enumerate(row):
            A[i, j] = _pair_to_scalar(val, f"{path}.entries[{i}][{j}]")
    if field == REAL:
        _require(
            not np.any(A.imag != 0),
            f"{path}.entries",
            "nonzero imaginary entry in a real-field matrix",
        )
        return A.real.copy()
    if not np.any(A.imag != 0):
        return A.real.copy()
    return A


def subspace_to_obj(S: MatrixSubspace) -> dict:
    return {
        "n": S.n,
        "field": S.field,
        "basis": [matrix_to_obj(B)["entries"] for B in S.raw_basis],
    }


def subspace_from_obj(
    obj, path: str = "subspace", tols: Optional[Tolerances] = None
) -> MatrixSubspace:
    _require(isinstance(obj, dict), path, "expected an object")
    for key in ("n", "field", "basis"):
        _require(key in obj, path, f"missing field {key!r}")
    n = obj["n"]
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "expected a positive integer")
    field = obj["field"]
    _require(field in FIELDS, f"{path}.field", "expected 'real' or 'complex'")
    basis_objs = obj["basis"]
    _require(
        isinstance(basis_objs, list) and len(basis_objs) >= 1,
        f"{path}.basis",
        "expected a nonempty list of matrices",
    )
    mats = [
        matrix_from_obj({"n": n, "entries": entries}, path=f"{path}.basis[{i}]", field=field)
        for i, entries in enumerate(basis_objs)
    ]
    return subspace_from_matrices(mats, field=field, tols=tols)


def vector_to_obj(v: np.ndarray) -> dict:
    v = np.asarray(v).reshape(-1)
    return {"entries": [_scalar_to_pair(x) for x in v]}


def vector_from_obj(obj, path: str = "vector") -> np.ndarray:
    _require(isinstance(obj, dict), path, "expected an object")
    _require("entries" in obj, path, "missing field 'entries'")
    entries = obj["entries"]
    _require(isinstance(entries, list) and entries, f"{path}.entries", "expected a nonempty list")
    v = np.array([_pair_to_scalar(x, f"{path}.entries[{i}]") for i, x in enumerate(entries)])
    if not np.any(v.imag != 0):
        return v.real.copy()
    return v


def model_to_obj(model) -> dict:
    """Bilinear model file: structure constants plus the three embedded bases."""
    def embed(mats):
        return {
            "n": model.n,
            "field": model.field,
            "basis": [matrix_to_obj(B)["entries"] for B in mats],
        }

    return {
        "n": model.n,
        "field": model.field,
        "j": model.j,
        "kmj": model.kmj,
        "l": model.l,
        "M": [
            [[_scalar_to_pair(Mr[s, t]) for t in range(model.kmj)] for s in range(model.j)]
            for Mr in model.M
        ],
        "basis1": embed(model.basis1),
        "basis2": embed(model.basis2),
        "lin_basis": embed(model.lin_basis),
    }


def model_from_obj(obj, path: str = "model"):
    from .bilinear import BilinearModel

    _require(isinstance(obj, dict), path, "expected an object")
    for key in ("n", "field", "j", "kmj", "l", "M", "basis1", "basis2", "lin_basis"):
        _require(key in obj, path, f"missing field {key!r}")
    n, field = obj["n"], obj["field"]
    _require(isinstance(n, int) and n >= 1, f"{path}.n", "expected a positive integer")
    _require(field in FIELDS, f"{path}.field", "expected 'real' or 'complex'")
    j, kmj, l = obj["j"], obj["kmj"], obj["l"]
    for name, val in (("j", j), ("kmj", kmj), ("l", l)):
        _require(isinstance(val, int) and val >= 0, f"{path}.{name}", "expected a nonnegative integer")
    raw = obj["M"]
    _require(isinstance(raw, list) and len(raw) == l, f"{path}.M", f"expected {l} matrices")
    M = np.zeros((l, j, kmj), dtype=np.complex128)
    for r, rows in enumerate(raw):
        _require(isinstance(rows, list) and len(rows) == j, f"{path}.M[{r}]", f"expected {j} rows")
        for s, row in enumerate(rows):
            _require(
                isinstance(row, list) and len(row) == kmj,
                f"{path}.M[{r}][{s}]",
                f"expected {kmj} entries",
            )
            for t, val in enumerate(row):
                M[r, s, t] = _pair_to_scalar(val, f"{path}.M[{r}][{s}][{t}]")
    if field == REAL and not np.any(M.imag != 0):
        M = M.real.copy()

    def extract(key):
        sub = obj[key]
        _require(isinstance(sub, dict) and "basis" in sub, f"{path}.{key}", "expected an embedded subspace object")
        return tuple(
            matrix_from_obj({"n": n, "entries": entries}, path=f"{path}.{key}.basis[{i}]", field=field)
            for i, entries in enumerate(sub["basis"])
        )

    return BilinearModel(
        n=n, field=field, j=j, kmj=kmj, l=l, M=M,
        basis1=extract("basis1"), basis2=extract("basis2"), lin_basis=extract("lin_basis"),
    )


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_matrix(path: str, field: Optional[str] = None) -> np.ndarray:
    return matrix_from_obj(load_json(path), path=path, field=field)


def load_subspace(path: str, tols: Optional[Tolerances] = None) -> MatrixSubspace:
    return subspace_from_obj(load_json(path), path=path, tols=tols)


def load_vector(path: str) -> np.ndarray:
    return vector_from_obj(load_json(path), path=path)


def save_obj(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
