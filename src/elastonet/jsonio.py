"""Strict JSON reading helpers and the canonical writer.

All file formats in this package serialize complex numbers as two-element
``[re, im]`` arrays and are written with sorted keys, two-space indentation
and Python's shortest round-trip float repr, so identical data always
produces byte-identical files.
"""

import json
import math
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import SchemaError

INDENT = "  "

_float_repr = float.__repr__


def dumps_canonical(obj):
    """Serialize to the canonical byte-stable JSON form.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n"``, and so are the errors: ``ValueError`` for NaN
    or infinity, ``TypeError`` for what JSON cannot hold. A float64 ndarray
    is written as its ``tolist()``; any other ndarray is refused. Payloads are
    trees: a container that holds itself is not detected.

    Each rectangular block of floats (a float64 ndarray, or nested lists or
    tuples whose items are all floats) is written with one ``%``-template
    per shape and indent level, so no Python code runs per number.
    """
    out = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _encode(obj, level, out):
    # the order of json.encoder: bool before int, tuple like list
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, level, out)
    elif isinstance(obj, dict):
        _encode_dict(obj, level, out)
    elif isinstance(obj, np.ndarray) and obj.dtype == float:
        _encode_block(obj.ravel().tolist(), obj.shape, level, out, obj)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _float_text(value):
    text = _float_repr(value)
    if "n" in text:  # only "nan" and "inf" spell an n
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    return text


def _encode_list(seq, level, out):
    shape = _float_shape(seq)
    if shape is not None:
        flat = seq
        for _ in shape[1:]:
            flat = list(chain.from_iterable(flat))
        _encode_block(flat, shape, level, out)
        return
    if not seq:
        out.append("[]")
        return
    sep = ",\n" + INDENT * (level + 1)
    out.append("[" + sep[1:])
    for k, value in enumerate(seq):
        if k:
            out.append(sep)
        _encode(value, level + 1, out)
    out.append("\n" + INDENT * level + "]")


def _encode_dict(obj, level, out):
    if not obj:
        out.append("{}")
        return
    sep = ",\n" + INDENT * (level + 1)
    out.append("{" + sep[1:])
    for k, (key, value) in enumerate(sorted(obj.items())):
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _float_text(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        if k:
            out.append(sep)
        out.append(encode_basestring_ascii(key) + ": ")
        _encode(value, level + 1, out)
    out.append("\n" + INDENT * level + "}")


def _float_shape(seq):
    """Shape of a non-empty rectangular nesting of lists or tuples of floats,
    else None."""
    if not seq:
        return None
    first = seq[0]
    if isinstance(first, float):
        return (len(seq),) if all(map(isinstance, seq, repeat(float))) else None
    if not isinstance(first, (list, tuple)):
        return None
    inner = _float_shape(first)
    if inner is None:
        return None
    for row in seq[1:]:
        if not isinstance(row, (list, tuple)) or _float_shape(row) != inner:
            return None
    return (len(seq),) + inner


def _encode_block(flat, shape, level, out, block=None):
    """Write the floats ``flat`` (row-major) as a nested array of ``shape``,
    given also as the float64 ndarray ``block`` when the caller holds one;
    a bitwise symmetric block formats its upper triangle only (equal bits,
    equal text)."""
    if _bitwise_symmetric(flat, shape, block):
        upper, mirror = _triangle_gathers(shape)
        strings = mirror(tuple(map(_float_repr, upper(flat))))
    else:
        strings = tuple(map(_float_repr, flat))
    text = _block_template(shape, level) % strings
    if "n" in text:
        for value in flat:
            _float_text(value)  # raises at the first NaN or infinity
    out.append(text)


def _bitwise_symmetric(flat, shape, block=None):
    """Whether a non-empty block is square (n >= 2) in its two leading axes
    with equal bits across them; ``-0.0`` and ``0.0`` differ. The bits are
    read from ``block``, the block's float64 ndarray, when there is one."""
    if len(shape) < 2 or not shape[0] == shape[1] > 1 or not flat:
        return False
    if block is None:
        block = np.array(flat, dtype=float).reshape(shape)
    bits = block.view(np.uint64)
    return np.array_equal(bits, bits.swapaxes(0, 1))


@lru_cache(maxsize=1024)
def _triangle_gathers(shape):
    """Gathers for a symmetric block of ``shape``: ``upper`` picks its entries
    with row <= column, row-major; ``mirror`` spreads them over the block."""
    n = shape[0]
    index = np.arange(math.prod(shape)).reshape(n, n, -1)
    upper = index[np.triu_indices(n)].ravel()  # ascending
    # entry (i, j) mirrors (min(i, j), max(i, j)), the smaller flat index
    source = np.minimum(index, index.swapaxes(0, 1)).ravel()
    return itemgetter(*upper.tolist()), itemgetter(*np.searchsorted(upper, source).tolist())


@lru_cache(maxsize=1024)
def _block_template(shape, level):
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    sep = ",\n" + INDENT * (level + 1)
    item = _block_template(shape[1:], level + 1)
    return "[" + sep[1:] + sep.join([item] * shape[0]) + "\n" + INDENT * level + "]"


def complex_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_pairs(a):
    """Complex matrix as an array of ``[re, im]`` pairs, shape ``(rows, cols, 2)``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def check_fields(obj, path, required):
    """Validate that a JSON object has exactly the expected fields."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required:
            raise SchemaError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}: missing field")


def as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"{path}: must be finite")
    return v


def as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def as_bool(value, path):
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean")
    return value


def as_list(value, path, length=None):
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array")
    if length is not None and len(value) != length:
        raise SchemaError(f"{path}: expected {length} entries, got {len(value)}")
    return value


def as_vector(value, path, length=None):
    return np.array(
        [as_number(v, f"{path}[{k}]") for k, v in enumerate(as_list(value, path, length))],
        dtype=float,
    )


def as_matrix(value, path, shape=None):
    rows = as_list(value, path)
    if shape is not None and len(rows) != shape[0]:
        raise SchemaError(f"{path}: expected {shape[0]} rows, got {len(rows)}")
    width = shape[1] if shape is not None else (len(rows[0]) if rows else 0)
    data = [as_vector(row, f"{path}[{k}]", width) for k, row in enumerate(rows)]
    return np.array(data, dtype=float).reshape(len(rows), width)


def load_json(path_on_disk):
    try:
        with open(path_on_disk, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bad UTF-8 or an integer past Python's digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path_on_disk}: cannot parse JSON ({exc})") from exc


def write_json(path_on_disk, obj):
    with open(path_on_disk, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))
