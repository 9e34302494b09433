"""The canonical writer against ``json.dumps``: same bytes, same errors."""

import json

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# float blocks as arrays, nested lists, tuples and lists of np.float64
BLOCKS = (
    ARRAYS
    | ARRAYS.map(np.ndarray.tolist)
    | ARRAYS.map(lambda a: tuple(a.ravel().tolist()))
    | ARRAYS.map(lambda a: [np.float64(x) for x in a.ravel()])
)
PAYLOADS = st.recursive(
    SCALARS | BLOCKS,
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


@pytest.mark.parametrize("payload", [
    {2: "a", 10: "b"},
    {1.5: 0, -0.0: 1},
    {True: 1, False: 2},
    {None: []},
    {"é": "ü☃", "a": {}},
    [[1.0, 2.0], [3.0]],
    [[1.0, 2], [3.0, 4.0]],
    [[], []],
    np.zeros((2, 0, 3)),
    np.float64(2.5),
    np.array(-0.0),
])
def test_same_bytes_on_edge_cases(payload):
    assert dumps_canonical(payload) == reference(payload)


def test_matrix_pairs_writes_as_the_pair_lists():
    a = np.array([[1.5 - 0.0j, -2.0 + 3e-300j], [-0.0 + 1j, 4.0]])
    pairs = [[[z.real, z.imag] for z in map(complex, row)] for row in a]
    assert matrix_pairs(a).shape == (2, 2, 2)
    assert dumps_canonical(matrix_pairs(a)) == reference(pairs)


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
    {float("nan"): 1},
    ["x", float("nan"), object()],
    [object(), float("nan")],
    np.int64(3),
    [np.int64(1)],
    {"a": np.bool_(True)},
    {1: 0, "b": 1},
    {(1, 2): 0},
])
def test_same_error_as_json_dumps(payload):
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
