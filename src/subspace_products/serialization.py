"""JSON file formats for matrices, subspaces, vectors, and reports.

Matrix file:   {"n": int, "entries": [[ [re, im], ... ], ...]}  (row-major)
Subspace file: {"n": int, "field": "real"|"complex", "basis": [entries, ...]}
Vector file:   {"entries": [[re, im], ...]}

Every array in these files is nested lists of ``[re, im]`` pairs, written by
:func:`_to_pairs` and read by :func:`_from_pairs`.  Readers reject malformed
content with a field-path diagnostic in the error message.  Writers emit
exactly these shapes.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Optional

import numpy as np

from .core import (
    COMPLEX,
    FIELDS,
    REAL,
    MatrixSubspace,
    Tolerances,
    subspace_from_matrices,
)
from .errors import ParseError

_NUMBER = (int, float)
# The exact entry types the one-conversion read accepts; every other entry,
# numpy scalars and number subclasses included, takes the walk.
_PLAIN_NUMBERS = {int, float, bool}
# What the list at each nesting level holds, counted from the innermost.
_NOUNS = ("entries", "rows", "matrices")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ParseError(f"{path}: {msg}")


def _fields(obj, path: str, keys: tuple) -> list:
    """The values of ``keys`` in the JSON object ``obj``, all required."""
    _require(isinstance(obj, dict), path, "expected an object")
    for key in keys:
        _require(key in obj, path, f"missing field {key!r}")
    return [obj[key] for key in keys]


def _to_pairs(A) -> list:
    """Nested lists of ``[re, im]`` pairs, one per entry of A, as floats."""
    A = np.asarray(A, dtype=np.complex128)
    return np.stack([A.real, A.imag], -1).tolist()


def _entry_error(x, path: str) -> ParseError:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        return ParseError(f"{path}: expected [re, im] pair or number, got {x!r}")
    part = 0 if not isinstance(x[0], _NUMBER) else 1
    return ParseError(f"{path}[{part}]: expected a number")


def _collect(value, shape: tuple, path: str, out: list) -> None:
    """Check the nesting of ``value`` against ``shape`` and append its entries
    to ``out`` as ``(re, im)`` pairs in row-major order."""
    _require(
        isinstance(value, list) and len(value) == shape[0],
        path,
        f"expected {shape[0]} {_NOUNS[len(shape) - 1]}",
    )
    if len(shape) > 1:
        for i, sub in enumerate(value):
            _collect(sub, shape[1:], f"{path}[{i}]", out)
        return
    for i, x in enumerate(value):
        if isinstance(x, _NUMBER):
            out.append((x, 0.0))
        elif (isinstance(x, (list, tuple)) and len(x) == 2
              and isinstance(x[0], _NUMBER) and isinstance(x[1], _NUMBER)):
            out.append(x)
        else:
            raise _entry_error(x, f"{path}[{i}]")


def _plain_pairs(value, shape: tuple) -> Optional[np.ndarray]:
    """The float array of ``value``'s ``(re, im)`` pairs, shaped ``(*shape, 2)``,
    read in one conversion; or None, and :func:`_collect` reads it instead.

    It answers only where every list is a ``list`` of the expected length
    and the entries are all plain numbers or all ``[re, im]`` pairs of plain
    numbers, which the walk accepts too; each number then takes the same
    float64 conversion as in the walk's ``np.array`` call, so the array is
    the walk's.
    The checks run level by level in builtins, never per entry in Python.
    """
    level = [value]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    kinds = set(map(type, level))
    bare = kinds <= _PLAIN_NUMBERS
    if not bare:
        if not kinds <= {list, tuple} or set(map(len, level)) != {2}:
            return None
        level = list(chain.from_iterable(level))
        if not set(map(type, level)) <= _PLAIN_NUMBERS:
            return None
    try:
        A = np.array(level, dtype=np.float64)
    except OverflowError:
        return None
    if bare:
        A = np.stack([A, np.zeros_like(A)], -1)
    return A.reshape(*shape, 2)


def _overflows(pair) -> bool:
    """Whether a part of the ``(re, im)`` pair is an integer too large for a
    float."""
    try:
        complex(*pair)
    except OverflowError:
        return True
    return False


def _reject_first(bad: np.ndarray, path: str, msg: str) -> None:
    """Raise ParseError naming the first entry where ``bad`` holds."""
    if bad.any():
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ParseError(f"{path}{''.join(f'[{i}]' for i in index)}: {msg}")


def _from_pairs(value, shape: tuple, path: str, field: Optional[str] = None) -> np.ndarray:
    """Read nested lists of ``[re, im]`` pairs or bare real numbers of the
    given shape into one array.

    A leading length of ``None`` accepts any nonempty list.  With a field the
    result has that field's dtype, and the real field rejects any nonzero
    imaginary part; without one it is real unless some entry is imaginary.
    NaN and infinite entries, and integers too large for a float, are
    rejected, naming the first one.
    """
    if shape[0] is None:
        _require(
            isinstance(value, list) and len(value) >= 1,
            path,
            f"expected a nonempty list of {_NOUNS[len(shape) - 1]}",
        )
        shape = (len(value), *shape[1:])
    A = _plain_pairs(value, shape)
    if A is None:
        pairs = []
        _collect(value, shape, path, pairs)
        try:
            A = np.array(pairs, dtype=np.float64)
        except OverflowError:
            too_large = np.array([_overflows(pair) for pair in pairs]).reshape(shape)
            _reject_first(too_large, path, "number too large for a float")
            raise
    A = A.view(np.complex128).reshape(shape)
    _reject_first(~np.isfinite(A), path, "expected a finite number")
    if field == REAL:
        _reject_first(A.imag != 0, path, "nonzero imaginary entry over the real field")
        return A.real.copy()
    if field == COMPLEX or np.any(A.imag != 0):
        return A
    return A.real.copy()


def _check_side(n, path: str) -> None:
    # Not isinstance: JSON true and false load as bool, a subclass of int.
    _require(type(n) is int and n >= 1, path, "expected a positive integer")


def _check_field(field, path: str) -> None:
    _require(field in FIELDS, path, "expected 'real' or 'complex'")


def matrix_to_obj(A: np.ndarray) -> dict:
    A = np.asarray(A)
    return {"n": A.shape[0], "entries": _to_pairs(A)}


def matrix_from_obj(obj, path: str = "matrix", field: Optional[str] = None) -> np.ndarray:
    n, entries = _fields(obj, path, ("n", "entries"))
    _check_side(n, f"{path}.n")
    return _from_pairs(entries, (n, n), f"{path}.entries", field)


def _subspace_obj(n: int, field: str, mats) -> dict:
    return {"n": n, "field": field, "basis": _to_pairs(mats)}


def subspace_to_obj(S: MatrixSubspace) -> dict:
    return _subspace_obj(S.n, S.field, S.raw_basis)


def subspace_from_obj(
    obj, path: str = "subspace", tols: Optional[Tolerances] = None
) -> MatrixSubspace:
    n, field, basis = _fields(obj, path, ("n", "field", "basis"))
    _check_side(n, f"{path}.n")
    _check_field(field, f"{path}.field")
    mats = _from_pairs(basis, (None, n, n), f"{path}.basis", field)
    return subspace_from_matrices(mats, field=field, tols=tols)


def vector_to_obj(v: np.ndarray) -> dict:
    return {"entries": _to_pairs(np.asarray(v).reshape(-1))}


def vector_from_obj(obj, path: str = "vector") -> np.ndarray:
    (entries,) = _fields(obj, path, ("entries",))
    return _from_pairs(entries, (None,), f"{path}.entries")


def model_to_obj(model) -> dict:
    """Bilinear model file: structure constants plus the three embedded bases."""
    return {
        "n": model.n,
        "field": model.field,
        "j": model.j,
        "kmj": model.kmj,
        "l": model.l,
        "M": _to_pairs(model.M),
        "basis1": _subspace_obj(model.n, model.field, model.basis1),
        "basis2": _subspace_obj(model.n, model.field, model.basis2),
        "lin_basis": _subspace_obj(model.n, model.field, model.lin_basis),
    }


def model_from_obj(obj, path: str = "model"):
    from .bilinear import BilinearModel

    keys = ("n", "field", "j", "kmj", "l", "M", "basis1", "basis2", "lin_basis")
    n, field, j, kmj, l, M = _fields(obj, path, keys)[:6]
    _check_side(n, f"{path}.n")
    _check_field(field, f"{path}.field")
    for name, val in (("j", j), ("kmj", kmj), ("l", l)):
        _require(type(val) is int and val >= 0, f"{path}.{name}", "expected a nonnegative integer")
    M = _from_pairs(M, (l, j, kmj), f"{path}.M", field)

    def basis(key, count):
        sub = obj[key]
        _require(isinstance(sub, dict) and "basis" in sub, f"{path}.{key}", "expected an embedded subspace object")
        return _from_pairs(sub["basis"], (count, n, n), f"{path}.{key}.basis", field)

    return BilinearModel(
        n=n, field=field, j=j, kmj=kmj, l=l, M=M,
        basis1=basis("basis1", j), basis2=basis("basis2", kmj), lin_basis=basis("lin_basis", l),
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
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)``, whose
    indenting encoder runs in pure Python; :func:`_emit` writes the same
    bytes with one formatting call per list of ``[re, im]`` pairs.
    """
    return _emit(obj, "\n") + "\n"


def _emit(obj, newline: str) -> str:
    """JSON text of ``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)``
    writes it, nested where a line break reads ``newline``."""
    inner = newline + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (f"{json.dumps(key)}: {_emit(obj[key], inner)}" for key in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(obj) is list and obj:
        text = _float_pairs(obj, inner)
        if text is None:
            text = ("," + inner).join(_emit(item, inner) for item in obj)
        return "[" + inner + text + newline + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline)


def _float_pairs(items: list, newline: str) -> Optional[str]:
    """The items of a list of finite ``[re, im]`` float pairs, joined as
    :func:`_emit` joins them, or None for any other list."""
    if set(map(type, items)) != {list} or set(map(len, items)) != {2}:
        return None
    values = tuple(chain.from_iterable(items))
    if set(map(type, values)) != {float}:
        return None
    inner = newline + "  "
    pair = "[" + inner + "%r," + inner + "%r" + newline + "]"
    text = ("," + newline).join([pair] * len(items)) % values
    # repr writes NaN and infinities as nan and inf, where JSON has NaN and
    # Infinity; no finite float's repr holds an "n".
    return None if "n" in text else text
