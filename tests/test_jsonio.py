"""The canonical writer against ``json.dumps``: same bytes, same errors;
and its float formatter against ``float.__repr__``."""

import json
import math
import sys
from typing import NamedTuple

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastonet import jsonio, network_to_dict, random_network
from elastonet.cli import main
from elastonet.jsonio import dumps_canonical, matrix_pairs


def json_dumps(obj, default=None):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=default) + "\n"


def reference(obj):
    """``json.dumps`` with float ndarrays read as their ``tolist()``."""
    return json_dumps(obj, default=np.ndarray.tolist)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-5, 0.1]
)
SCALARS = (
    FINITE
    | FINITE.map(np.float64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text(max_size=6)
)
ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=FINITE,
)


def random_doubles(rng, shape):
    """Finite doubles from random bit patterns; a NaN or infinity reads -0.0."""
    a = rng.integers(0, 2**64, shape, dtype=np.uint64).view(float)
    a[~np.isfinite(a)] = -0.0
    return a


def large_block(seed, symmetric):
    """A block of shape (n, n, 2) whose floats to format, all of them or its
    upper triangle when it is bitwise symmetric, fill more than one chunk."""
    # n * (n + 1) floats of a symmetric block's upper triangle, else 2 * n * n
    n = math.isqrt(jsonio._CHUNK if symmetric else jsonio._CHUNK // 2) + 1
    a = random_doubles(np.random.default_rng(seed), (n, n, 2))
    if symmetric:
        upper = np.triu(np.ones((n, n), dtype=bool))[:, :, None]
        a = np.where(upper, a, a.swapaxes(0, 1))
    return a


# float blocks as arrays, nested lists, tuples and lists of np.float64
BLOCKS = (
    ARRAYS
    | ARRAYS.map(np.ndarray.tolist)
    | ARRAYS.map(lambda a: tuple(a.ravel().tolist()))
    | ARRAYS.map(lambda a: [np.float64(x) for x in a.ravel()])
)
LARGE = st.builds(large_block, st.integers(0, 2**32 - 1), st.booleans())
# strs that need escapes, and the writer's own placeholders
TEXTS = st.text(max_size=4) | st.sampled_from(['"', "\\", "\n\t", "\x00\x01", "%s", "é☃"])
SUBNORMALS = st.integers(1, 2**52 - 1).map(lambda m: float(np.uint64(m).view(float)))


# an integer too long to write: str() refuses it, and so does json.dumps
LONG_INT = 10**5000


def record_column(n, floats, faults, arrays, depth):
    """Columns of ``n`` items: floats (subnormals among them), np.float64,
    float lists and tuples of one length, ragged float lists, ints, bools,
    strs, None, a mixed column, float blocks of one shape (ndarrays among
    them if ``arrays``), and while ``depth`` lasts, records and lists of
    records. With ``faults``, an integer too long to write among the ints."""
    floats = floats | SUBNORMALS | SUBNORMALS.map(float.__neg__)
    ints = st.integers() | st.just(LONG_INT) if faults else st.integers()
    items = [floats, floats.map(np.float64), ints, st.booleans(), TEXTS,
             st.none(), floats | ints | st.booleans() | TEXTS | st.none()]
    lists = st.integers(0, 3).flatmap(
        lambda length: st.lists(st.lists(floats, min_size=length, max_size=length),
                                min_size=n, max_size=n))
    columns = (
        st.one_of([st.lists(item, min_size=n, max_size=n) for item in items])
        | lists
        | lists.map(lambda column: [tuple(row) for row in column])
        | st.lists(st.lists(floats, max_size=3), min_size=n, max_size=n)
        | block_columns(n, faults, arrays)
    )
    if depth:
        columns |= records(n, floats, faults, arrays, depth - 1) | st.integers(0, 3).flatmap(
            lambda length: records(n * length, floats, faults, arrays, depth - 1).map(
                lambda rows: [rows[k * length:(k + 1) * length] for k in range(n)]))
    return columns


@st.composite
def block_columns(draw, n, faults, arrays=True):
    """``n`` float blocks of one shape (k, k), (k, k, 2) or (k, k, 3), each
    an ndarray (if ``arrays``) or nested lists. Half are bitwise symmetric
    stacks; one block may break its mirror by a ``-0.0`` or an ulp and,
    with ``faults``, by a NaN or infinity in its lower triangle only."""
    k = draw(st.integers(1, 3))
    stack = draw(hnp.arrays(np.float64, (n, k, k) + draw(TAILS), elements=FINITE))
    if draw(st.booleans()):
        upper = np.triu(np.ones((k, k), dtype=bool)).reshape((1, k, k) + (1,) * (stack.ndim - 3))
        stack = np.where(upper, stack, stack.swapaxes(1, 2))
        if k > 1 and n and draw(st.booleans()):
            block = stack[draw(st.integers(0, n - 1))]
            i, j = sorted(draw(st.permutations(range(k)))[:2])
            rest = tuple(draw(st.integers(0, side - 1)) for side in block.shape[2:])
            faults = ["signed zero", "ulp"] + ["nan", "inf", "-inf"] * faults
            fault = draw(st.sampled_from(faults))
            if fault == "signed zero":
                block[(i, j) + rest], block[(j, i) + rest] = draw(st.permutations([0.0, -0.0]))
            elif fault == "ulp":
                block[(j, i) + rest] = np.nextafter(block[(i, j) + rest], np.inf)
            else:
                block[(j, i) + rest] = float(fault)
    forms = draw(st.sampled_from(["array", "lists", "mixed"] if arrays else ["lists"]))
    return [np.array(block) if forms == "array" or forms == "mixed" and draw(st.booleans())
            else block.tolist() for block in stack]


@st.composite
def records(draw, n, floats, faults, arrays, depth):
    """``n`` dicts that share one set of str keys."""
    keys = draw(st.lists(TEXTS, min_size=1, max_size=3, unique=True))
    columns = [draw(record_column(n, floats, faults, arrays, depth)) for _ in keys]
    return [dict(zip(keys, row)) for row in zip(*columns)]


@st.composite
def record_lists(draw, floats=FINITE, faults=False, arrays=True):
    """Lists of two to four dicts that share one set of str keys, or runs of
    such lists, one after another, so that the list splits into runs."""
    runs = draw(st.integers(1, 3))
    return [row for _ in range(runs)
            for row in draw(records(draw(st.integers(2 if runs == 1 else 1, 4)), floats,
                                    faults, arrays, 1))]


PAYLOADS = st.recursive(
    SCALARS | BLOCKS | record_lists(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=5), children, max_size=4)
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(PAYLOADS)
def test_same_bytes_as_json_dumps(payload):
    assert dumps_canonical(payload) == reference(payload)


# each with a block that spans formatting chunks, as an array or as lists
@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.tuples(PAYLOADS, LARGE | LARGE.map(np.ndarray.tolist), PAYLOADS).map(list))
def test_payloads_with_a_large_block_write_like_json_dumps(payload):
    assert dumps_canonical(payload) == reference(payload)


class KeyRefused(NamedTuple):
    """A payload whose first error is a key that is not a str: ``json.dumps``
    also writes int, float, bool and None keys, the writer refuses any key
    but a str, naming its type, before it sorts the keys."""

    payload: object
    name: str

    def error(self):
        return TypeError, f"keys must be str, not {self.name}"


@pytest.mark.parametrize("payload", [
    KeyRefused({2: "a", 10: "b"}, "int"),
    KeyRefused({1.5: 0, -0.0: 1}, "float"),
    KeyRefused({True: 1, False: 2}, "bool"),
    KeyRefused({None: []}, "NoneType"),
    {"é": "ü☃", "a": {}},
    [[1.0, 2.0], [3.0]],
    [[1.0, 2], [3.0, 4.0]],
    [[], []],
    np.zeros((2, 0, 3)),
    np.float64(2.5),
    np.array(-0.0),
    # ndarrays of other shapes split a list into runs
    [{"w": np.zeros(2)}, {"w": np.zeros(3)}, {"w": np.ones(3)}],
    [np.eye(2), np.eye(2).tolist(), -np.eye(2)],
])
def test_same_bytes_on_edge_cases(payload):
    if isinstance(payload, KeyRefused):
        assert raised(dumps_canonical, payload.payload) == payload.error()
    else:
        assert dumps_canonical(payload) == reference(payload)


def test_matrix_pairs_writes_as_the_pair_lists():
    a = np.array([[1.5 - 0.0j, -2.0 + 3e-300j], [-0.0 + 1j, 4.0]])
    pairs = [[[z.real, z.imag] for z in map(complex, row)] for row in a]
    assert matrix_pairs(a).shape == (2, 2, 2)
    assert dumps_canonical(matrix_pairs(a)) == reference(pairs)


def symmetric(block):
    """Whether the writer takes the mirror path on ``block``."""
    return jsonio._mirrored(np.asarray(block)[None])


def raised(fn, obj):
    with pytest.raises((ValueError, TypeError)) as info:
        fn(obj)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("payload", [
    float("nan"),
    [1.0, float("inf")],
    {"w": [[0.5, -float("inf")]]},
    [np.float64("nan")],
    {"a": [1, float("nan")]},
    KeyRefused({float("nan"): 1}, "float"),
    ["x", float("nan"), object()],
    [object(), float("nan")],
    np.int64(3),
    [np.int64(1)],
    {"a": np.bool_(True)},
    KeyRefused({1: 0, "b": 1}, "int"),
    KeyRefused({(1, 2): 0}, "tuple"),
    # the first error in document order: NaN in a row or a block, then a
    # key that is not a str or an integer too long to write, and the reverse
    [[0.5, float("nan")], {1: 0, "b": 1}],
    KeyRefused([{1: 0, "b": 1}, [0.5, float("nan")]], "int"),
    [[[0.5, 1.0], [1.0, -float("inf")]], 10**5000],
    [10**5000, float("nan")],
    {"a": float("nan"), "b": {1.5: 0, -float("inf"): 1}},
    # record lists: the first non-finite float in document order, across
    # rows and columns, and an integer too long to write before or after it
    [{"a": 1.0, "b": [0.5, 2.0]}, {"a": 2.0, "b": [float("inf"), float("nan")]}],
    [{"a": float("nan"), "b": [0.5]}, {"a": 2.0, "b": [-float("inf")]}],
    [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"a": np.float64("-inf"), "b": "z"}],
    [{"a": 1.0, "b": (0.5, float("nan"))}, {"a": 2.0, "b": (1.5, 2.5)}],
    [{"a": 10**5000, "b": 1.0}, {"a": 1, "b": float("nan")}],
    [{"a": 1, "b": float("nan")}, {"a": 10**5000, "b": 1.0}],
    [{"a": 1.0, "b": 1}, {"a": 2.0, "b": object()}, {"a": float("nan"), "b": 3}],
    [[{"a": float("nan")}, {"a": 1.0}], {"a": object()}],
    # nested columns: the first error in document order across records
    [{"a": {"b": [1.0, float("nan")]}, "c": 0}, {"a": {"b": [1.0, 2.0]}, "c": object()}],
    [{"a": [{"b": 1}, {"b": 10**5000}]}, {"a": [{"b": 2}, {"b": float("nan")}]}],
    [{"a": [{"b": 1}, {"b": float("inf")}]}, {"a": [{"b": 2}, {"b": 10**5000}]}],
    [{"a": "x", "b": float("nan")}, {"a": "y", "b": np.int64(1)}],
    [{"a": np.int64(1)}, {"a": np.int64(2)}],
    [{"a": np.arange(2)}, {"a": np.arange(2)}],
])
def test_same_error_as_json_dumps(payload):
    if isinstance(payload, KeyRefused):
        assert raised(dumps_canonical, payload.payload) == payload.error()
    else:
        assert raised(dumps_canonical, payload) == raised(json_dumps, payload)


NON_FINITE = FINITE | st.sampled_from([float("nan"), float("inf"), -float("inf")])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(record_lists(NON_FINITE, faults=True, arrays=False), min_size=1, max_size=3))
def test_record_lists_write_or_fail_like_json_dumps(payload):
    assert outcome(dumps_canonical, payload) == outcome(json_dumps, payload)


# a column of blocks is mirrored only when every block is bitwise symmetric
@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: block_columns(n, faults=True)))
def test_block_columns_write_or_fail_like_json_dumps(blocks):
    payload = [{"b": block, "x": 0.5} for block in blocks]
    assert outcome(dumps_canonical, payload) == outcome(reference, payload)
    assert outcome(dumps_canonical, blocks) == outcome(reference, blocks)


def spy_columns(monkeypatch):
    """The (entries, text, mirrored) of each column the writer emits."""
    seen = []

    def spy(column, sep, out, floats):
        seen.append((len(column.values), column.text, column.upper is not None))
        return emit(column, sep, out, floats)

    emit = jsonio._emit
    monkeypatch.setattr(jsonio, "_emit", spy)
    return seen


@pytest.mark.parametrize("records, by_column", [
    ([{"k": 1.0, "i": 0, "j": 1}, {"k": 2.5, "i": 1, "j": 2}], True),
    ([{"p": [0.5, 1.5], "m": np.float64(0.0), "t": True}, {"p": (1.0, 2.0), "m": 1.0, "t": False}],
     True),
    ([{"s": "a\n", "f": []}, {"s": "%s", "f": []}], True),
    ([{"a": 1.0}], False),  # one record
    ([{"a": 1.0}, {"b": 1.0}], False),  # other keys
    ([{}, {}], True),
    ([{1: 1.0}, {1: 2.0}], False),  # a key that is not a str, refused
    ([{"a": [1.0, 2.0]}, {"a": [3.0]}], False),  # ragged float lists
    ([{"a": 1}, {"a": True}], False),  # ints and bools mixed
    ([{"a": 1}, {"a": 1.0}], False),
    ([{"a": None}, {"a": None}], False),
    ([{"a": [1, 2]}, {"a": [3, 4]}], True),  # lists of ints, by index
    ([{"a": 10**5000}, {"a": 1}], False),  # an integer too long to write
])
def test_record_lists_are_written_by_column(records, by_column, monkeypatch):
    seen = spy_columns(monkeypatch)
    result = outcome(dumps_canonical, records)  # the long integer is walked to its error
    if any(not isinstance(key, str) for record in records for key in record):
        assert result == KeyRefused(records, "int").error()
    assert any(count == len(records) and text[0] == "{" for count, text, _ in seen) is by_column


@pytest.mark.parametrize("records, columns", [
    # nested records, lists of records and blocks of one shape
    ([{"n": [{"x": [0.5, 1.0], "t": True}] * 3, "r": {"a": 1.0, "s": "u"}}] * 4, [4]),
    ([{"w": np.eye(3)}, {"w": np.ones((3, 3))}], [2]),
    # a list that changes shape partway is written as runs; a run of one
    # record is walked
    ([{"n": [1.0]}, {"n": [2.0]}, {"n": [1.0, 2.0]}, {"n": [3.0, 4.0]}, {"m": 1}], [2, 2]),
    ([{"a": "x"}, {"a": 1.0}, {"a": 2.0}], [2]),
    ([{"n": [{"x": 1.0}]}, {"n": [{"x": 2.0}]}, {"n": [{"x": [2.0]}]}], [2]),
    ([{"k": [1.0, "s"]}, {"k": [2.0, "t"]}], [2]),  # a column per index
])
def test_record_runs_are_written_by_column(records, columns, monkeypatch):
    seen = spy_columns(monkeypatch)
    assert dumps_canonical(records) == reference(records)
    assert [count for count, text, _ in seen if text[0] == "{"] == columns


@pytest.mark.parametrize("mirrored", [False, True])
def test_first_error_across_a_large_block(mirrored):
    # a block checked as one array still fails in document order
    block = large_block(3, mirrored)
    block[-1, -1, 1] = np.nan
    for form in (np.asarray, np.ndarray.tolist):
        for payload, error in [([form(block), object()], ValueError),
                               ([object(), form(block)], TypeError)]:
            expected = raised(json_dumps, [x.tolist() if x is block else x for x in payload])
            assert expected[0] is error
            assert raised(dumps_canonical, payload) == expected


def chunk_boundary_payload(offset):
    """Scalars, a tuple and blocks with -0.0 mirrors placed so that the chunk
    boundary falls before, inside or after each of them."""
    sym = np.array([[[-0.0, 1.5], [0.25, -0.0]], [[0.25, -0.0], [1e16, -5e-324]]])
    assert symmetric(sym)
    lead = np.linspace(-1.0, 1.0, jsonio._CHUNK + offset)
    return [lead, np.float64(-0.0), (1e-4, -0.0, 5e-324), sym, np.float64(0.1),
            sym.tolist(), (9999999999999998.0,), sym]


@pytest.mark.parametrize("offset", range(-24, 2))
def test_chunk_boundaries_write_like_json_dumps(offset):
    payload = chunk_boundary_payload(offset)
    assert dumps_canonical(payload) == reference(payload)


def spy_float_texts(monkeypatch):
    """The length of each array the writer hands ``float_texts``."""
    calls = []

    def spy(values):
        calls.append(len(values))
        return float_texts(values)

    float_texts = jsonio.float_texts
    monkeypatch.setattr(jsonio, "float_texts", spy)
    return calls


@pytest.mark.parametrize("offset", range(-24, 2))
def test_a_document_formats_its_floats_in_one_pass(offset, monkeypatch):
    calls = spy_float_texts(monkeypatch)
    blocks = chunk_boundary_payload(offset)
    payload = [0.5, blocks, np.float64(-0.0), blocks, 7.0]
    assert dumps_canonical(payload) == reference(payload)
    assert len(calls) == 1 and calls[0] > 2 * jsonio._CHUNK


@pytest.mark.parametrize("payload", [
    [], "x", {"a": [1, "s", None, True]}, [[1, 2], [3, 4]], [{"a": []}, {"a": []}],
    np.empty((2, 0)),
])
def test_a_document_without_floats_formats_none(payload, monkeypatch):
    calls = spy_float_texts(monkeypatch)
    assert dumps_canonical(payload) == reference(payload)
    assert calls == []


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_deep_nesting_fails_like_json_dumps():
    # past the recursion limit in a column, the walk meets the error in
    # document order: a NaN before it comes first
    deep = nested(sys.getrecursionlimit() + 100)
    for payload in ([deep, deep], [{"a": 1.0, "b": deep}, {"a": 2.0, "b": deep}]):
        for fn in (dumps_canonical, json_dumps):
            with pytest.raises(RecursionError):
                fn(payload)
    payload = [{"a": float("nan"), "b": deep}, {"a": 1.0, "b": deep}]
    assert raised(dumps_canonical, payload) == raised(json_dumps, payload)


@pytest.mark.parametrize("array", [
    np.array([[1.0, np.nan]]),
    np.array([np.inf, 0.0]),
    np.arange(3),
    np.array([1 + 2j]),
    np.array([True]),
])
def test_arrays_fail_like_json_dumps(array):
    expected = raised(json_dumps, array.tolist() if array.dtype == float else array)
    assert raised(dumps_canonical, array) == expected


# square blocks: the writer formats the upper triangle of a block that is
# bitwise symmetric in its two leading axes and copies the lower half


def outcome(fn, obj):
    """The text ``fn(obj)`` writes, or the type and message it raises."""
    try:
        return fn(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# a block is written from an ndarray or from its nested lists
FORMS = st.sampled_from([np.asarray, np.ndarray.tolist])
TAILS = st.sampled_from([(), (2,), (3,)])


@st.composite
def symmetric_blocks(draw):
    """Blocks of shape (n, n), (n, n, 2) or (n, n, 3), n >= 2, whose lower
    half repeats the bits of the upper."""
    n = draw(st.integers(2, 5))
    tail = draw(TAILS)
    a = draw(hnp.arrays(np.float64, (n, n) + tail, elements=FINITE))
    upper = np.triu(np.ones((n, n), dtype=bool)).reshape((n, n) + (1,) * len(tail))
    return np.where(upper, a, a.swapaxes(0, 1))


@st.composite
def broken_mirrors(draw):
    """A symmetric block with one lower-triangle entry changed: a ``-0.0``
    against ``0.0``, one ulp off, or NaN or infinity in the lower half only."""
    a = draw(symmetric_blocks())
    i, j = sorted(draw(st.lists(st.integers(0, len(a) - 1), min_size=2, max_size=2,
                                unique=True)))
    rest = tuple(draw(st.integers(0, side - 1)) for side in a.shape[2:])
    upper, lower = (i, j) + rest, (j, i) + rest
    fault = draw(st.sampled_from(["signed zero", "ulp", "nan", "inf", "-inf"]))
    if fault == "signed zero":
        a[upper], a[lower] = draw(st.permutations([0.0, -0.0]))
    elif fault == "ulp":
        a[lower] = np.nextafter(a[upper], draw(st.sampled_from([np.inf, -np.inf])))
    else:
        a[lower] = float(fault)
    return a


@settings(derandomize=True, max_examples=80, deadline=None)
@given(symmetric_blocks(), FORMS)
def test_symmetric_blocks_write_like_json_dumps(block, form):
    assert symmetric(block)
    assert dumps_canonical(form(block)) == reference(form(block))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(broken_mirrors(), FORMS)
def test_broken_mirrors_write_or_fail_like_json_dumps(block, form):
    assert not symmetric(block)
    assert outcome(dumps_canonical, form(block)) == outcome(reference, form(block))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4))
    .filter(lambda shape: shape[0] != shape[1] or shape[0] == 1)
    .flatmap(lambda shape: TAILS.flatmap(
        lambda tail: hnp.arrays(np.float64, shape + tail, elements=FINITE))),
    FORMS,
)
def test_one_by_one_and_oblong_blocks_write_like_json_dumps(block, form):
    assert not symmetric(block)
    assert dumps_canonical(form(block)) == reference(form(block))


def test_symmetric_nan_fails_at_its_first_row_major_entry():
    block = np.zeros((3, 3, 2))
    block[2, 0, 1] = block[0, 2, 1] = np.inf
    block[1, 1, 0] = np.nan
    assert symmetric(block)
    for form in (np.asarray, np.ndarray.tolist):
        assert outcome(dumps_canonical, form(block)) == outcome(reference, form(block))


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [3.0, 4.0]],
    [[1.0, 2.0], [2.0, 4.0]],  # bitwise symmetric: written by its upper triangle
    [[1.0, 2.0], [2.0, np.nan]],
], ids=["asymmetric", "symmetric", "nan"])
@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_ndarray_subclass_writes_like_its_tolist(rows):
    # np.matrix keeps two axes under ravel() and indexing: the writer reads
    # the float64 data behind it, as json.dumps reads np.ndarray.tolist()
    matrix = np.matrix(rows)
    for payload in (matrix, {"m": [matrix, 0.5]}):
        assert outcome(dumps_canonical, payload) == outcome(reference, payload)


def mirror_cases():
    """(id, block, whether its bits are symmetric): square blocks the writer
    tests for symmetry."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4, 2))
    sym = a + a.swapaxes(0, 1)
    zero = sym.copy()
    zero[0, 2, 1], zero[2, 0, 1] = -0.0, 0.0
    nan, inf = sym.copy(), sym.copy()
    nan[1, 3, 0] = nan[3, 1, 0] = np.nan
    inf[2, 2, 1] = -np.inf
    return [("symmetric", sym, True), ("asymmetric", a, False),
            ("signed-zero-mirror", zero, False), ("nan", nan, True), ("infinity", inf, True)]


@pytest.mark.parametrize("block, mirrored", [
    pytest.param(block, mirrored, id=name) for name, block, mirrored in mirror_cases()
])
def test_ndarray_is_tested_for_symmetry_on_its_own_bits(block, mirrored, monkeypatch):
    # the ndarray and its nested lists write the same bytes, or fail alike
    expected = outcome(reference, block.tolist())
    assert outcome(dumps_canonical, block.tolist()) == expected
    seen = []

    def spy(stack):
        seen.append((stack, mirrored_stack(stack)))
        return seen[-1][1]

    mirrored_stack = jsonio._mirrored
    monkeypatch.setattr(jsonio, "_mirrored", spy)
    assert outcome(dumps_canonical, block) == expected
    assert len(seen) == 1 and np.shares_memory(seen[0][0], block)
    assert seen[0][1] is mirrored


def test_every_response_block_is_written_by_its_upper_triangle(tmp_path, monkeypatch):
    # respond's W is mirrored from its upper triangle (modal_sum); should
    # it stop being bitwise symmetric, or the entries stop being one
    # column, the writer's mirror path would go unused without failing
    # anything else
    seen = []

    def spy(stack):
        result = mirrored_stack(stack)
        seen.append((stack.shape, result))
        return result

    mirrored_stack = jsonio._mirrored
    monkeypatch.setattr(jsonio, "_mirrored", spy)
    net = random_network(7, 3, 3, 6, 0.5)
    net_file, out = tmp_path / "net.json", tmp_path / "out.json"
    jsonio.write_json(net_file, network_to_dict(net))
    seen.clear()
    argv = ["respond", str(net_file), "--omega", "0.1", "100", "12", "--scale", "log"]
    assert main(argv + ["-o", str(out)]) == 0
    entries = jsonio.load_json(out)
    assert sum("W" in entry for entry in entries) == 12
    # one stack of the 12 W, all mirrored
    assert [entry for entry in seen if entry[0][-3:] == (9, 9, 2)] == [((12, 9, 9, 2), True)]


def captured_payload(monkeypatch, argv):
    """The payload that ``main(argv)`` hands the writer."""
    payloads = []

    def spy(obj):
        payloads.append(obj)
        return dumps(obj)

    dumps = jsonio.dumps_canonical
    monkeypatch.setattr(jsonio, "dumps_canonical", spy)
    main(argv)
    monkeypatch.setattr(jsonio, "dumps_canonical", dumps)
    return payloads[-1]


@pytest.mark.parametrize("seed", [0, 4])
def test_residues_and_gadgets_are_written_as_columns(seed, tmp_path, monkeypatch):
    # a roundtrip output is mostly its residues and its gadgets: each list
    # is one column, the residues by their upper triangles
    net_file = tmp_path / "net.json"
    jsonio.write_json(net_file, network_to_dict(random_network(seed, 3, 3, 6, 0.5)))
    seen = spy_columns(monkeypatch)
    payload = captured_payload(monkeypatch, ["roundtrip", str(net_file), "-o", str(tmp_path / "o")])
    modes = len(payload["canonical"]["modes"])
    kinds = [c["kind"] for c in payload["network"]["components"]]
    gadgets = kinds.count("rank_one_gadget")
    assert modes > 1 and gadgets > 1
    assert kinds[-gadgets:] == ["rank_one_gadget"] * gadgets
    residues = [entry for entry in seen if '"R": ' in entry[1] and '"sigma": ' in entry[1]]
    assert residues == [(modes, residues[0][1], True)]
    assert [count for count, text, _ in seen if '"kind": ' in text] == [gadgets]


@pytest.mark.parametrize("argv, network", [
    (["roundtrip"], (0, 3, 6, 60, 0.5)),
    (["respond", "--omega", "0.1", "100", "50", "--scale", "log"], (5, 3, 8, 150, 0.5)),
])
def test_benchmark_size_outputs_write_like_json_dumps(argv, network, tmp_path, monkeypatch):
    # the payloads of the benchmark's roundtrip (90 gadgets) and sweep
    net_file = tmp_path / "net.json"
    jsonio.write_json(net_file, network_to_dict(random_network(*network)))
    payload = captured_payload(
        monkeypatch, [argv[0], str(net_file), *argv[1:], "-o", str(tmp_path / "out.json")])
    assert dumps_canonical(payload) == reference(payload)


# the formatter against float.__repr__, its oracle


def oracle_doubles():
    """Seeded doubles that reach every branch of the formatter: every
    subnormal with a significand below 2**17 (the JDK's Schubfach writes two
    digits where repr writes one), powers of two and of ten with their
    neighbours, integers around 2**53, the switches of notation at 1e16 and
    1e-4, and random bit patterns; each with both signs."""
    subnormals = np.arange(1, 2**17, dtype=np.uint64).view(float)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    neighbours = np.concatenate([np.nextafter(powers, -np.inf), powers,
                                 np.nextafter(powers, np.inf)])
    integers = np.arange(2**53 - 2000, 2**53 + 2000).astype(float)
    switches = (np.array([1e16, 1e-4]).view(np.int64)[:, None]
                + np.arange(-8, 9)).view(float).ravel()
    structured = np.concatenate([subnormals, neighbours, integers, switches, [0.0]])
    structured = structured[np.isfinite(structured)]
    rng = np.random.default_rng(28)
    return np.concatenate([structured, -structured, random_doubles(rng, 500_000)])


def test_float_texts_match_repr():
    values = oracle_doubles()
    assert len(values) > 750_000
    texts = jsonio.float_texts(values)
    expected = list(map(float.__repr__, values.tolist()))
    assert len(texts) == len(expected)
    mismatches = [(want, got) for want, got in zip(expected, texts) if want != got]
    assert mismatches[:5] == []


def test_float_texts_of_nan_and_infinities():
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 1.0])
    assert jsonio.float_texts(values) == list(map(float.__repr__, values.tolist()))
