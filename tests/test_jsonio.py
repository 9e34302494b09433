"""The canonical writer against ``json.dumps``: same bytes, same errors;
and its float formatter against ``float.__repr__``."""

import json
import math

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


# each with a block that spans formatting chunks, as an array or as lists
@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.tuples(PAYLOADS, LARGE | LARGE.map(np.ndarray.tolist), PAYLOADS).map(list))
def test_payloads_with_a_large_block_write_like_json_dumps(payload):
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


def symmetric(block):
    """Whether the writer takes the mirror path on ``block``."""
    return jsonio._bitwise_symmetric(block.ravel().tolist(), block.shape)


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
    # the first error in document order: NaN in a row or a block, then
    # unsortable keys or an integer too long to write, and the reverse
    [[0.5, float("nan")], {1: 0, "b": 1}],
    [{1: 0, "b": 1}, [0.5, float("nan")]],
    [[[0.5, 1.0], [1.0, -float("inf")]], 10**5000],
    [10**5000, float("nan")],
    {"a": float("nan"), "b": {1.5: 0, -float("inf"): 1}},
])
def test_same_error_as_json_dumps(payload):
    assert raised(dumps_canonical, payload) == raised(json_dumps, payload)


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

    def spy(flat, shape, block=None):
        seen.append((block, bitwise_symmetric(flat, shape, block)))
        return seen[-1][1]

    bitwise_symmetric = jsonio._bitwise_symmetric
    monkeypatch.setattr(jsonio, "_bitwise_symmetric", spy)
    assert outcome(dumps_canonical, block) == expected
    assert len(seen) == 1 and seen[0][0] is block
    assert seen[0][1] is mirrored


def test_every_response_block_is_written_by_its_upper_triangle(tmp_path, monkeypatch):
    # evaluate_reduced averages W with its transpose; should it stop, the
    # writer's mirror path would go unused without failing anything else
    seen = []

    def spy(flat, shape, block=None):
        result = bitwise_symmetric(flat, shape, block)
        seen.append((shape, result))
        return result

    bitwise_symmetric = jsonio._bitwise_symmetric
    monkeypatch.setattr(jsonio, "_bitwise_symmetric", spy)
    net = random_network(7, 3, 3, 6, 0.5)
    net_file, out = tmp_path / "net.json", tmp_path / "out.json"
    jsonio.write_json(net_file, network_to_dict(net))
    seen.clear()
    argv = ["respond", str(net_file), "--omega", "0.1", "100", "12", "--scale", "log"]
    assert main(argv + ["-o", str(out)]) == 0
    blocks = [result for shape, result in seen if shape == (9, 9, 2)]
    entries = jsonio.load_json(out)
    assert len(blocks) == sum("W" in entry for entry in entries) == 12
    assert all(blocks)


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
