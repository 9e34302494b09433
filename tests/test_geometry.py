"""Convex-hull distances and the geometry contract of generalized networks."""

import itertools
import re
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elastonet import (
    GeneralizedNetwork,
    NetworkComponent,
    Node,
    RayleighParams,
    assemble,
    extract_canonical,
    random_network,
    synthesize,
)
from elastonet.errors import DimensionMismatch
from elastonet import geometry
from elastonet.geometry import balance_operator, cross, hull_distance

synthesize_module = import_module("elastonet.synthesize")
oracles = import_module("oracles")


def enumerated_hull_distance(x, points):
    """Oracle: the per-subset enumeration, one KKT solve per subset."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    best = np.sqrt(((pts - x) ** 2).sum(-1)).min()
    if best == 0.0:
        return 0.0
    for size in range(2, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            p = pts[list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * (p @ p.T)
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * (p @ x), [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            t = sol[:size]
            if t.min() < -1e-12:
                continue
            best = min(best, np.linalg.norm(p.T @ t - x))
    return float(best)


def assert_matches_oracle(x, points):
    got = hull_distance(x, points)
    want = enumerated_hull_distance(x, points)
    extent = 1.0 + np.abs(points).max() + np.abs(x).max()
    assert abs(got - want) <= 1e-12 * max(want, extent), (got, want)
    return got


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
TETRAHEDRON = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

CASES = {
    "2d inside": ([0.3, 0.6], SQUARE, 0.0),
    "2d on a vertex": ([1.0, 1.0], SQUARE, 0.0),
    "2d on an edge": ([0.5, 0.0], SQUARE, 0.0),
    "2d outside an edge": ([0.5, -2.0], SQUARE, 2.0),
    "2d outside a vertex": ([4.0, 5.0], SQUARE, 5.0),
    "3d inside": ([0.1, 0.2, 0.3], TETRAHEDRON, 0.0),
    "3d on a vertex": ([0.0, 0.0, 1.0], TETRAHEDRON, 0.0),
    "3d on an edge": ([0.5, 0.5, 0.0], TETRAHEDRON, 0.0),
    "3d outside the slanted face": ([1.0, 1.0, 1.0], TETRAHEDRON, 2.0 / np.sqrt(3.0)),
    "3d below a face": ([0.2, 0.2, -0.5], TETRAHEDRON, 0.5),
    "duplicate terminals": ([0.5, -1.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]], 1.0),
    "collinear, 2d": ([0.5, 1.0], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], 1.0),
    "collinear, 3d": ([1.5, 0.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], 2.0),
    "coplanar, 3d": ([0.5, 0.5, 3.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], 3.0),
    "one terminal, 2d": ([3.0, 4.0], [[0.0, 0.0]], 5.0),
    "one terminal, 3d": ([1.0, 2.0, 2.0], [[0.0, 0.0, 0.0]], 3.0),
    "two terminals, past an end": ([3.0, 0.0], [[0.0, 0.0], [1.0, 0.0]], 2.0),
    "two terminals, beside": ([0.5, 0.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 2.0),
}


class TestHullDistance:
    @pytest.mark.parametrize("name", CASES)
    def test_against_the_enumerator(self, name):
        x, points, exact = CASES[name]
        got = assert_matches_oracle(np.array(x), np.array(points))
        assert abs(got - exact) <= 1e-12 * (1.0 + exact)

    def test_random_point_sets(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for n in range(1, 8):
                points = rng.uniform(-1.0, 1.0, (n, d))
                for scale in (0.5, 2.0):
                    assert_matches_oracle(rng.uniform(-scale, scale, d), points)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hull_distance(np.zeros(3), np.zeros((4, 2)))


# terminal sets with affinely dependent subsets: exactly dependent (a zero
# pivot) on the axes, and dependent up to rounding when tilted
DEGENERATE = {
    "collinear triples, 2d": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.0, 2.0]],
    "collinear triples, tilted 2d": [[0.1, 0.3], [0.4, 0.9], [0.7, 1.5], [1.3, 0.2]],
    "collinear triples, 3d": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "coplanar quadruples, 3d": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [1.0, 1.0, 0.0], [0.5, 0.5, 1.0], [0.5, 0.5, -1.0]],
    "coplanar quadruples, tilted 3d": [[0.1, 0.2, 0.7], [0.6, 0.3, 0.1], [0.3, 0.6, 0.1],
                                       [0.2, 0.1, 0.7], [0.9, 0.9, 0.9]],
    "duplicated terminals, 3d": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_sets_match_the_enumerator(name):
    points = np.array(DEGENERATE[name])
    n, d = points.shape
    rng = np.random.default_rng(n + d)
    extent = np.abs(points).max()
    near = rng.uniform(-2.0, 3.0, (20, d))
    # far points: every KKT map is read far outside its terminals
    far = 1e3 * extent * rng.standard_normal((20, d))
    for x in np.concatenate([near, far, points + 1e-3]):
        assert_matches_oracle(x, points)


# (seed, terminals, interior) of random_network(seed, 3, ..., 0.5) inputs:
# the roundtrip workload's shape at seeds 1-5, and one 16-terminal input of
# the wide_synth shape
SYNTHESIZED = [(seed, 6, 60) for seed in range(1, 6)] + [(1, 16, 6)]


@pytest.mark.parametrize("seed, n_terminals, n_interior", SYNTHESIZED)
def test_synthesized_nodes_have_the_enumerators_verdicts(seed, n_terminals, n_interior):
    net = random_network(seed, 3, n_terminals, n_interior, 0.5)
    gn = synthesize(extract_canonical(assemble(net)), epsilon_hull=0.1)
    internal = np.concatenate([np.reshape(c.internal_positions, (-1, 3))
                               for c in gn.components])
    got = np.array([hull_distance(x, gn.terminals) for x in internal])
    want = np.array([enumerated_hull_distance(x, gn.terminals) for x in internal])
    # the contract's verdict, and the same test at tighter neighborhoods
    for epsilon in (gn.epsilon_hull, 1e-2, 1e-3):
        assert np.array_equal(got > epsilon + 1e-9, want > epsilon + 1e-9)
    assert np.abs(got - want).max() <= 1e-12


POINT_SETS = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-8, 8), min_size=d, max_size=d), min_size=1, max_size=6
    )
)


class TestHullDistanceProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(POINT_SETS, st.data())
    def test_convex_combinations_are_inside(self, points, data):
        points = np.array(points, dtype=float)
        weights = np.array(
            data.draw(st.lists(st.integers(0, 10), min_size=len(points),
                               max_size=len(points)).filter(any))
        )
        x = (weights / weights.sum()) @ points
        assert hull_distance(x, points) <= 1e-12 * (1.0 + np.abs(points).max())

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(POINT_SETS, st.data())
    def test_random_points_match_the_enumerator(self, points, data):
        points = np.array(points, dtype=float)
        d = points.shape[1]
        x = np.array(data.draw(st.lists(st.floats(-12.0, 12.0), min_size=d, max_size=d)))
        assert_matches_oracle(x, points)


class TestHullSystemsCache:
    """The KKT stacks are kept per terminal set; the distances do not change."""

    SETS = (
        np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0],
                  [1.0, 1.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]),
    )

    def points(self, d, seed):
        return np.random.default_rng(seed).uniform(-1.0, 3.0, (6, d))

    def test_alternating_sets_match_the_enumerator(self):
        geometry._hull_systems.cache_clear()
        warm = []
        for turn in range(4):
            for k, pts in enumerate(self.SETS):
                warm.append([assert_matches_oracle(x, pts)
                             for x in self.points(pts.shape[1], 10 * turn + k)])
        assert geometry._hull_systems.cache_info().currsize == 2
        # a cold cache gives the same bits
        for turn in range(4):
            for k, pts in enumerate(self.SETS):
                cold = []
                for x in self.points(pts.shape[1], 10 * turn + k):
                    geometry._hull_systems.cache_clear()
                    cold.append(hull_distance(x, pts))
                assert cold == warm[2 * turn + k]

    def test_set_changed_in_place_is_a_new_set(self):
        pts = self.SETS[0].copy()
        x = np.array([3.0, 3.0, 3.0])
        before = assert_matches_oracle(x, pts)
        pts[4] = [2.5, 2.5, 2.5]
        after = assert_matches_oracle(x, pts)
        assert after < before

    def test_cache_is_bounded(self):
        for seed in range(3 * geometry.HULL_CACHE_SIZE):
            pts = np.random.default_rng(seed).standard_normal((4, 2))
            assert_matches_oracle(np.array([5.0, 5.0]), pts)
            assert geometry._hull_systems.cache_info().currsize <= geometry.HULL_CACHE_SIZE


def looped_balance_operator(positions):
    """Oracle: the balance operator filled entry by entry."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, d = positions.shape
    B = np.zeros((d + (1 if d == 2 else 3), n * d))
    for i in range(n):
        for a in range(d):
            B[a, i * d + a] = 1.0
    for i, x in enumerate(positions):
        if d == 2:
            B[2, i * d + 0] = -x[1]
            B[2, i * d + 1] = x[0]
        else:
            B[3, i * d + 1] = -x[2]
            B[3, i * d + 2] = x[1]
            B[4, i * d + 0] = x[2]
            B[4, i * d + 2] = -x[0]
            B[5, i * d + 0] = -x[1]
            B[5, i * d + 1] = x[0]
    return B


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_balance_operator_equals_the_loop_bitwise(d, n):
    positions = np.random.default_rng(n + d).standard_normal((n, d))
    positions[0, 0] = 0.0  # its negation is -0.0 in both
    got, want = balance_operator(positions), looped_balance_operator(positions)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCross:
    @pytest.mark.parametrize(
        "shape_x,shape_f", [((3,), (3,)), ((8, 3), (8, 3)), ((8, 3), (3,)),
                            ((3,), (8, 3)), ((2, 5, 3), (5, 3))]
    )
    def test_equals_numpy_cross_bitwise(self, shape_x, shape_f):
        rng = np.random.default_rng(len(shape_x) + len(shape_f))
        x = rng.standard_normal(shape_x) * 1e3
        f = rng.standard_normal(shape_f)
        got, want = cross(x, f), np.cross(x, f)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_two_dimensions_is_the_scalar_torque(self):
        x = np.array([[1.0, 2.0], [-3.0, 0.5]])
        f = np.array([[0.25, -1.0], [2.0, 4.0]])
        assert cross(x, f).tolist() == [1.0 * -1.0 - 2.0 * 0.25, -3.0 * 4.0 - 0.5 * 2.0]
        assert cross(x[0], f[0]) == -1.5

    @pytest.mark.parametrize("shape_x,shape_f", [((3,), (2,)), ((4,), (4,))])
    def test_other_dimensions_rejected(self, shape_x, shape_f):
        with pytest.raises(DimensionMismatch):
            cross(np.ones(shape_x), np.ones(shape_f))

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_stack_sums_its_nodes_as_each_system_alone(self, d):
        # the result is C-ordered, so a sum over the nodes of a stack adds
        # them in the order a single system's sum does, pairwise for d = 2
        # at eight nodes and more, one by one for d = 3
        # the stack is a view whose node axis is outermost in memory
        rng = np.random.default_rng(d)
        x = rng.standard_normal((17, d)) * 10.0 ** rng.uniform(-6, 6, (17, d))
        f = rng.standard_normal((17, 9, d)) * 10.0 ** rng.uniform(-6, 6, (17, 9, d))
        stacked = cross(x, f.swapaxes(0, 1)[::2])
        assert stacked.flags.c_contiguous
        for k, system in enumerate(f.swapaxes(0, 1)[::2]):
            alone = np.atleast_1d(cross(x, system.copy())).reshape(17, -1).sum(axis=0)
            summed = stacked[k].sum(axis=0 if d == 3 else None)
            assert np.atleast_1d(summed).tobytes() == alone.tobytes()


def ragged_force_matrix(rng, n, d, m):
    """A (n*d, m) force matrix whose entries span twelve decades."""
    return rng.standard_normal((n * d, m)) * 10.0 ** rng.uniform(-6, 6, (n * d, m))


class TestBalanceVerdicts:
    """The stacked verdicts against one ``balance_check`` per system."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 3, 8, 17])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_check_balanced_equals_the_column_loop_bitwise(self, d, n, m):
        rng = np.random.default_rng(100 * d + 10 * n + m)
        positions = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
        F = ragged_force_matrix(rng, n, d, m)
        balanced = F - np.linalg.pinv(balance_operator(positions)) @ (
            balance_operator(positions) @ F)
        cases = [F, balanced, F[:, 0], balanced * 1e-9]
        for k in range(m):  # a column that is not a number, first or later
            bad = F.copy()
            bad[0, k] = np.nan
            cases.append(bad)
        nan_positions = positions.copy()
        nan_positions[-1, 0] = np.nan
        for tol in (1e-10, 1e-8):
            for case in cases:
                for where in (positions, nan_positions):
                    got = geometry.check_balanced(case, where, tol)
                    want = oracles.check_balanced_by_column(case, where, tol)
                    assert got[0] is want[0]
                    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_stack_of_systems_gets_each_verdict_alone(self, d):
        # each system has its own positions and threshold
        rng = np.random.default_rng(d)
        n, count = 11, 40
        positions = rng.standard_normal((count, n, d)) * 10.0 ** rng.uniform(-2, 2, (count, 1, 1))
        forces = ragged_force_matrix(rng, n, d, count).T.reshape(count, n, d)
        threshold = 10.0 ** rng.uniform(-12, 8, count)
        passed, residual = geometry.balance_verdicts(positions, forces, threshold)
        assert 0 < passed.sum() < count
        for k in range(count):
            ok, worst = oracles.balance_check(positions[k], forces[k], threshold[k])
            assert (bool(passed[k]), residual[k]) == (ok, worst)
            assert np.float64(residual[k]).tobytes() == np.float64(worst).tobytes()


TERMINALS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def network(*internal, forbidden=(), per_component=1):
    """A generalized network whose components place the given internal nodes."""
    components = []
    for start in range(0, len(internal), per_component):
        nodes = [Node(tuple(p), 0.0, True) for p in TERMINALS]
        nodes += [Node(p, 1.0, False) for p in internal[start:start + per_component]]
        components.append(
            NetworkComponent(
                kind="terminal_masses",
                nodes=tuple(nodes),
                n_terminals=len(TERMINALS),
                elements=(),
                rayleigh=RayleighParams(0.0, 0.0),
                dimension=2,
            )
        )
    return GeneralizedNetwork(
        TERMINALS, tuple(components), epsilon_hull=0.1,
        forbidden=np.array(forbidden).reshape(-1, 2), min_clearance=1e-3,
    )


def node_message(p, what):
    return re.escape(f"internal node {np.array(p)} {what}")


HULL = "lies outside the epsilon-neighborhood of the terminal hull"
FORBIDDEN = "violates a forbidden point"


class TestGeometryContract:
    def test_admissible_nodes_pass(self):
        gn = network((0.2, 0.2), (0.4, 0.1), (1.05, 0.0), forbidden=[(0.3, 0.3)])
        assert len(gn.components) == 3

    def test_forbidden_point_violation(self):
        with pytest.raises(ValueError, match=node_message((0.2, 0.3), FORBIDDEN)):
            network((0.1, 0.1), (0.2, 0.3), forbidden=[(0.2, 0.3 + 1e-4)])

    @pytest.mark.parametrize("per_component", [1, 2])
    def test_coincident_internal_nodes(self, per_component):
        with pytest.raises(ValueError, match="internal nodes of components must be distinct"):
            network((0.2, 0.2), (0.2, 0.2 + 1e-5), per_component=per_component)

    def test_hull_message_comes_first_for_one_node(self):
        # the node breaks both rules: the hull test is made first
        with pytest.raises(ValueError, match=node_message((5.0, 5.0), HULL)):
            network((0.1, 0.1), (5.0, 5.0), forbidden=[(5.0, 5.0)])

    def test_first_offending_node_in_component_order(self):
        with pytest.raises(ValueError, match=node_message((0.2, 0.2), FORBIDDEN)):
            network((0.2, 0.2), (5.0, 5.0), forbidden=[(0.2, 0.2)])
        with pytest.raises(ValueError, match=node_message((5.0, 5.0), HULL)):
            network((5.0, 5.0), (0.2, 0.2), forbidden=[(0.2, 0.2)])

    def test_node_rules_come_before_the_pairwise_rule(self):
        with pytest.raises(ValueError, match=node_message((0.2, 0.2), FORBIDDEN)):
            network((0.3, 0.3), (0.3, 0.3), (0.2, 0.2), forbidden=[(0.2, 0.2)])

    def test_one_hull_distance_call_per_internal_node(self, monkeypatch):
        # the benchmark's traced run wraps this name and reads each call
        calls = []

        def recording(x, points):
            calls.append((tuple(x), np.array(points)))
            return hull_distance(x, points)

        monkeypatch.setattr(synthesize_module, "hull_distance", recording)
        network((0.2, 0.2), (0.4, 0.1), (0.1, 0.5), per_component=2)
        assert [x for x, _ in calls] == [(0.2, 0.2), (0.4, 0.1), (0.1, 0.5)]
        assert all(np.array_equal(points, TERMINALS) for _, points in calls)
