"""JSON file formats for matrices, subspaces, vectors, and reports.

Matrix file:   {"n": int, "entries": [[ [re, im], ... ], ...]}  (row-major)
Subspace file: {"n": int, "field": "real"|"complex", "basis": [entries, ...]}
Vector file:   {"entries": [[re, im], ...]}

Every array in these files is nested lists of ``[re, im]`` pairs.  The
``*_to_obj`` functions hold the arrays themselves, uncopied; one streaming
writer (:func:`save_obj`, :func:`dumps_canonical`) spells each array as those
pair lists, one leading row at a time, so no file is ever built as nested
Python lists or one string.  :func:`_from_pairs` reads the pair lists, or an
array handed over in memory.  Readers reject malformed content with a
field-path diagnostic in the error message.
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


def _read_pairs(value, shape: tuple, path: str) -> np.ndarray:
    """The complex array of nested lists of ``[re, im]`` pairs or bare real
    numbers, checked against ``shape``; a leading length of ``None`` accepts
    any nonempty list."""
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
    return A.view(np.complex128).reshape(shape)


def _from_pairs(value, shape: tuple, path: str, field: Optional[str] = None) -> np.ndarray:
    """Read nested lists of ``[re, im]`` pairs or bare real numbers of the
    given shape into one array.

    A leading length of ``None`` accepts any nonempty list.  An array, as the
    ``*_to_obj`` functions hold it, is read as a copy of the same shape.
    With a field the result has that field's dtype, and the real field
    rejects any nonzero imaginary part; without one it is real unless some
    entry is imaginary.  NaN and infinite entries, and integers too large
    for a float, are rejected, naming the first one.
    """
    if isinstance(value, np.ndarray):
        _require(
            value.ndim == len(shape)
            and all(want in (None, got) for want, got in zip(shape, value.shape))
            and (shape[0] is not None or len(value) >= 1),
            path,
            f"expected an array of shape {tuple(shape)}",
        )
        A = value.astype(np.complex128)
    else:
        A = _read_pairs(value, shape, path)
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
    return {"n": A.shape[0], "entries": A}


def matrix_from_obj(obj, path: str = "matrix", field: Optional[str] = None) -> np.ndarray:
    n, entries = _fields(obj, path, ("n", "entries"))
    _check_side(n, f"{path}.n")
    return _from_pairs(entries, (n, n), f"{path}.entries", field)


def _subspace_obj(n: int, field: str, mats) -> dict:
    return {"n": n, "field": field, "basis": np.asarray(mats).reshape(-1, n, n)}


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
    return {"entries": np.asarray(v).reshape(-1)}


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
        "M": model.M,
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
    """Write :func:`dumps_canonical` text to ``path``, one piece at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_document(obj))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)``, with
    each array of ``obj`` spelled as its nested lists of ``[re, im]`` pairs.
    :func:`_chunks` writes it one leading row of an array at a time, so
    :func:`save_obj` never holds a whole file as Python lists or one string.
    """
    return "".join(_document(obj))


def _document(obj):
    yield from _chunks(obj, "\n")
    yield "\n"


def _chunks(obj, newline: str):
    """Pieces of the text of ``obj`` as :func:`dumps_canonical` writes it,
    nested where a line break reads ``newline``."""
    inner = newline + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        brackets, items = "{}", ((f"{json.dumps(key)}: ", obj[key]) for key in sorted(obj))
    elif type(obj) is list and obj:
        brackets, items = "[]", (("", item) for item in obj)
    elif isinstance(obj, np.ndarray):
        yield from _array_chunks(obj, newline)
        return
    else:
        yield json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline)
        return
    sep = brackets[0] + inner
    for prefix, item in items:
        yield sep + prefix
        yield from _chunks(item, inner)
        sep = "," + inner
    yield newline + brackets[1]


def _array_chunks(A: np.ndarray, newline: str):
    """The text of A's ``[re, im]`` pair lists, one piece per leading row."""
    if A.ndim < 2 or not len(A):
        # A vector (its rows are single entries), one pair, or no rows at all.
        yield _filled(_template(A.shape, newline), A)
        return
    inner = newline + "  "
    template = _template(A.shape[1:], inner)
    sep = "[" + inner
    for row in A:
        yield sep + _filled(template, row)
        sep = "," + inner
    yield newline + "]"


def _template(shape: tuple, newline: str) -> str:
    """The text of an array of ``shape`` as ``[re, im]`` pair lists, with
    ``%s`` for each number, real part first."""
    inner = newline + "  "
    if not shape:
        return f"[{inner}%s,{inner}%s{newline}]"
    if not shape[0]:
        return "[]"
    items = ("," + inner).join([_template(shape[1:], inner)] * shape[0])
    return f"[{inner}{items}{newline}]"


# json's spelling of the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _filled(template: str, A: np.ndarray) -> str:
    """``template`` filled with the real and imaginary parts of A in C order,
    each spelled as json spells it.  Only the distinct float64 bit patterns
    are spelled, so -0.0 stays apart from 0.0."""
    bits = np.ascontiguousarray(A, dtype=np.complex128).view(np.uint64).ravel()
    distinct, index = np.unique(bits, return_inverse=True)
    words = [_NON_FINITE.get(word, word) for word in map(repr, distinct.view(np.float64).tolist())]
    return template % tuple(np.array(words, dtype=object)[index].tolist())
