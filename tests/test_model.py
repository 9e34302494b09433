"""Network model, assembly, random generation, JSON round trips."""

import json
import re
from importlib import import_module

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    DegenerateSpring,
    DimensionMismatch,
    ElastodynamicNetwork,
    GeneralizedNetwork,
    GenerationFailed,
    IdealElasticElement,
    NetworkComponent,
    Node,
    RayleighParams,
    SchemaError,
    Spring,
    SymMatrix,
    SystemMatrices,
    assemble,
    assemble_component,
    eliminate_massless,
    evaluate_reduced,
    extract_canonical,
    is_psd,
    network_from_dict,
    network_to_dict,
    random_network,
)
from elastonet.geometry import balance_verdicts
from elastonet.cli import main
from elastonet.model import STAMP_CHUNK, SpringColumns, assemble_elements

from conftest import axial_block, node_positions, scaled_network, synthesized
from oracles import (
    assemble_by_spring,
    assemble_union,
    network_from_dict_by_spring,
    node_major,
    random_network_by_pair,
)

oracles_module = import_module("oracles")
model_module = import_module("elastonet.model")


class TestTypes:
    def test_spring_validation(self):
        with pytest.raises(ValueError):
            Spring(1, 1, 1.0)
        with pytest.raises(ValueError):
            Spring(0, 1, 0.0)
        with pytest.raises(ValueError):
            Spring(0, 1, -2.0)

    def test_node_validation(self):
        with pytest.raises(ValueError):
            Node((0.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            Node((np.inf, 0.0), 1.0)

    def test_rayleigh_validation(self):
        with pytest.raises(ValueError):
            RayleighParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            RayleighParams(0.0, -0.1)

    def test_network_needs_terminal(self):
        with pytest.raises(ValueError):
            ElastodynamicNetwork(2, (Node((0.0, 0.0), 1.0, False),), ())

    def test_network_dimension(self):
        with pytest.raises(ValueError):
            ElastodynamicNetwork(4, (Node((0.0,) * 4, 0.0, True),), ())

    def test_spring_index_checked(self):
        nodes = (Node((0.0, 0.0), 0.0, True), Node((1.0, 0.0), 0.0, True))
        with pytest.raises(ValueError):
            ElastodynamicNetwork(2, nodes, (Spring(0, 5, 1.0),))

    def test_duplicate_springs_merge_by_addition(self):
        nodes = (Node((0.0, 0.0), 0.0, True), Node((1.0, 0.0), 0.0, True))
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0), Spring(1, 0, 2.5)))
        assert len(net.springs) == 1
        assert net.springs[0].stiffness == 3.5


def hand_built(order, n_terminals, d=2, node_masses=None):
    """A hand-built system: identity ``K`` of the given order, unit node
    masses unless given, and ``n_terminals`` terminals of dimension ``d``
    at the origin."""
    return SystemMatrices(
        K=SymMatrix(np.eye(order)),
        node_masses=np.ones(order // d) if node_masses is None else node_masses,
        dimension=d,
        rayleigh=RayleighParams(0.1, 0.1),
        terminal_positions=np.zeros((n_terminals, d)),
    )


class TestSystemMatricesOrder:
    """More terminal coordinates than ``K`` has rows is refused, and so are
    node masses that do not fill ``K`` or are not finite and nonnegative, so
    neither the response nor the extraction sees such a system."""

    @pytest.mark.parametrize("call", [
        lambda sys: evaluate_reduced(eliminate_massless(sys), 1j),
        lambda sys: extract_canonical(sys),
    ], ids=["evaluate_reduced", "extract_canonical"])
    # the order of K and the dimension
    @pytest.mark.parametrize("orders", [(4, 2), (2, 2), (6, 3)])
    def test_too_many_terminal_coordinates(self, call, orders):
        # the entry point takes a system whose terminals fill K exactly;
        # three terminals (3*d coordinates) exceed K, and the constructor
        # refuses them before the entry point is reached
        order, d = orders
        call(hand_built(order, n_terminals=order // d, d=d))
        message = rf"^{3 * d} terminal coordinates exceed the order of K \({order}\)$"
        with pytest.raises(DimensionMismatch, match=message):
            call(hand_built(order, n_terminals=3, d=d))

    @pytest.mark.parametrize("masses,message", [
        ([1.0], r"^node masses of shape \(1,\) in 2-d do not fill K of order 4$"),
        ([1.0, 1.0, 1.0], r"^node masses of shape \(3,\) in 2-d do not fill K of order 4$"),
        (np.ones((2, 1)), r"^node masses of shape \(2, 1\) in 2-d do not fill K of order 4$"),
        ([1.0, -0.5], r"^node masses must be finite and >= 0$"),
        ([np.nan, 1.0], r"^node masses must be finite and >= 0$"),
        ([1.0, np.inf], r"^node masses must be finite and >= 0$"),
    ], ids=["short", "long", "not a vector", "negative", "nan", "inf"])
    def test_node_masses_are_refused(self, masses, message):
        with pytest.raises(DimensionMismatch, match=message):
            hand_built(4, n_terminals=1, node_masses=masses)

    def test_node_masses_are_a_read_only_copy(self):
        given = np.array([2.0, 0.0])
        sys = hand_built(4, n_terminals=1, node_masses=given)
        given[0] = 5.0
        assert sys.node_masses.tolist() == [2.0, 0.0]
        with pytest.raises(ValueError, match="read-only"):
            sys.node_masses[0] = 1.0
        assert np.array_equal(sys.M.a, np.diag([2.0, 2.0, 0.0, 0.0]))

    def test_all_terminal_system_is_accepted(self):
        sys = hand_built(6, n_terminals=3)
        # K + lam*(0.1 K + 0.1 M) + lam^2 M at lam = 0.5, with no interior
        w = evaluate_reduced(eliminate_massless(sys), 0.5).W.a
        assert_allclose(w, 1.35 * np.eye(6), rtol=1e-15)


class TestAssemble:
    def test_single_spring_stiffness(self, single_spring_terminals):
        sys = assemble(single_spring_terminals)
        assert_allclose(sys.K.a, axial_block())
        assert_allclose(sys.M.a, np.zeros((4, 4)))
        assert_allclose(sys.C.a, np.zeros((4, 4)))

    def test_damping_combination_is_exact(self):
        nodes = (Node((0.0, 0.0), 1.0, True), Node((1.0, 0.0), 1.0, True))
        net = ElastodynamicNetwork(
            2, nodes, (Spring(0, 1, 1.0),), RayleighParams(2.0, 3.0)
        )
        sys = assemble(net)
        expected = 2.0 * axial_block() + 3.0 * np.eye(4)
        assert np.array_equal(sys.C.a, expected)

    def test_degenerate_spring_rejected(self):
        nodes = (Node((0.0, 0.0), 0.0, True), Node((0.0, 0.0), 0.0, False))
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))
        with pytest.raises(DegenerateSpring):
            assemble(net)

    def test_tiny_length_unit_is_not_degenerate(self):
        # spring (0, 6) is 4.1e-13 long at x1e-12, 40% of the network's extent
        net = random_network(5, 2, 3, 6, 0.5)
        tiny = scaled_network(net, 1e-12)
        assert len(extract_canonical(assemble(tiny)).modes) == len(
            extract_canonical(assemble(net)).modes
        )
        nodes = tiny.nodes + (Node(tiny.nodes[0].position, 0.0, False),)
        coincident = ElastodynamicNetwork(2, nodes, tiny.springs + (Spring(0, 9, 1.0),))
        with pytest.raises(DegenerateSpring, match=r"spring \(0, 9\)"):
            assemble(coincident)

    def test_terminal_coordinates_come_first(self):
        # interior node 0 before terminals 1 and 2: the node-major matrices
        # gathered as [terminal coordinates, interior coordinates]
        nodes = (
            Node((0.0, 0.0), 0.5, False),
            Node((1.0, 0.0), 2.0, True),
            Node((0.3, 0.7), 0.0, True),
        )
        springs = (Spring(0, 1, 1.0), Spring(1, 2, 0.7), Spring(2, 0, 1.9))
        net = ElastodynamicNetwork(2, nodes, springs)
        sys = assemble(net)
        K, M, b, i = node_major(net)
        assert (b, i) == ([2, 3, 4, 5], [0, 1])
        order = np.ix_(b + i, b + i)
        for got, want in ((sys.K.a, K[order]), (sys.M.a, M[order])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert sys.n_b == 4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stiffness_psd_with_rigid_body_null_space(self, seed):
        net = random_network(seed, 2 + seed % 2, 2, 3, 0.5)
        d = net.dimension
        sys = assemble(net)
        assert is_psd(sys.K, tol=1e-12)
        # uniform translations are annihilated to machine precision (the
        # matrix entries cancel pairwise; the float matvec reassociates them)
        scale = np.abs(sys.K.a).max()
        for axis in range(d):
            shift = np.zeros(d)
            shift[axis] = 1.0
            u = np.tile(shift, len(net.nodes))
            assert np.abs(sys.K.a @ u).max() <= 1e-14 * scale
        # linearized rotations are in the null space numerically
        pos = node_positions(net)
        if d == 2:
            rotations = [np.array([[0.0, -1.0], [1.0, 0.0]])]
        else:
            rotations = [np.zeros((3, 3)) for _ in range(3)]
            rotations[0][1, 2], rotations[0][2, 1] = -1.0, 1.0
            rotations[1][0, 2], rotations[1][2, 0] = 1.0, -1.0
            rotations[2][0, 1], rotations[2][1, 0] = -1.0, 1.0
        for r in rotations:
            u = (pos @ r.T).ravel()
            assert np.abs(sys.K.a @ u).max() <= 1e-10 * np.abs(sys.K.a).max()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_stiffness_columns_are_balanced_force_systems(self, seed):
        net = random_network(seed, 2, 3, 2, 1.0)
        sys = assemble(net)
        pos = node_positions(net)
        for col in sys.K.a.T:
            assert balance_verdicts(pos, col.reshape(-1, 2), 1e-10)[1] <= 1e-10

    def test_mass_matrix_repeats_node_masses(self):
        nodes = (Node((0.0, 0.0), 2.0, True), Node((1.0, 0.0), 0.5, False))
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))
        sys = assemble(net)
        assert sys.node_masses.tolist() == [2.0, 0.5]
        assert np.array_equal(sys.M.a, np.diag([2.0, 2.0, 0.5, 0.5]))


def loop_stiffness(nodes, elements, d):
    """Element-by-element stamping: the oracle of one-pass assembly."""
    positions = np.array([n.position for n in nodes], dtype=float)
    coords = np.arange(len(nodes) * d).reshape(-1, d)
    K = np.zeros((coords.size, coords.size))
    for el in elements:
        if isinstance(el, Spring):
            dx = positions[el.i] - positions[el.j]
            nvec = dx / np.linalg.norm(dx)
            axis = np.concatenate([nvec, -nvec])
            support, stamp = (el.i, el.j), el.stiffness * np.outer(axis, axis)
        else:
            support, stamp = el.support, np.outer(el.force_vector, el.force_vector)
        c = coords[list(support)].ravel()
        K[np.ix_(c, c)] += stamp
    return K


def assert_assembles_like_the_loop(nodes, elements, d):
    sys = assemble_elements(nodes, elements, d, RayleighParams())
    assert sys.K.a.tobytes() == loop_stiffness(nodes, elements, d).tobytes()
    assert sys.M.a.tobytes() == np.diag(np.repeat([n.mass for n in nodes], d)).tobytes()


class TestOnePassAssembly:
    """``K`` and ``M`` are bitwise those of element-by-element stamping."""

    @pytest.mark.parametrize("mass_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_networks(self, seed, d, mass_fraction):
        net = random_network(seed, d, 3, 6, mass_fraction)
        assert_assembles_like_the_loop(net.nodes, net.springs, d)

    @pytest.mark.parametrize("d", [2, 3])
    def test_synthesized_components_and_union(self, d, monkeypatch):
        gn = synthesized(extract_canonical(assemble(random_network(d, d, 3, 4, 0.5))), seed=d)
        # a springs component in the middle puts springs between ideal elements
        nt = len(gn.terminals)
        terminals = [Node(tuple(p), 0.3, True) for p in gn.terminals]
        inner = Node(tuple(gn.terminals.mean(axis=0)), 1.1, False)
        springs = NetworkComponent(
            "springs", (*terminals, inner), nt,
            tuple(Spring(k, nt, 0.7 + k) for k in range(nt)), gn.rayleigh, d,
        )
        half = len(gn.components) // 2
        gn = GeneralizedNetwork(
            gn.terminals, gn.components[:half] + (springs,) + gn.components[half:],
            epsilon_hull=gn.epsilon_hull,
        )
        for comp in gn.components:
            assert assemble_component(comp).K.a.tobytes() == loop_stiffness(
                comp.nodes, comp.elements, d
            ).tobytes()
        seen = []
        monkeypatch.setattr(oracles_module, "assemble_elements",
                            lambda *args: seen.append(args) or assemble_elements(*args))
        union = assemble_union(gn)
        nodes, elements = seen[0][0], seen[0][1]
        kinds = [isinstance(el, Spring) for el in elements]
        assert True in kinds and kinds[0] is kinds[-1] is False
        assert union.K.a.tobytes() == loop_stiffness(nodes, elements, d).tobytes()

    def test_empty_element_list(self):
        nodes = (Node((0.0, 0.0, 1.0), 2.0, True), Node((1.0, 0.0, 0.0), 0.0, False))
        assert_assembles_like_the_loop(nodes, (), 3)

    def test_more_springs_than_one_chunk_with_ideal_elements_between(self):
        net = random_network(4, 3, 4, 40, 0.5)
        springs = list(net.springs)
        assert len(springs) > STAMP_CHUNK + 2
        rng = np.random.default_rng(4)
        elements = list(springs)
        for at in (len(springs), STAMP_CHUNK + 1, STAMP_CHUNK, 100, 0):
            support = tuple(rng.choice(len(net.nodes), size=3, replace=False))
            elements.insert(at, IdealElasticElement(support, rng.standard_normal(9)))
        assert_assembles_like_the_loop(net.nodes, springs, 3)
        assert_assembles_like_the_loop(net.nodes, elements, 3)

    def test_first_degenerate_spring_is_named(self):
        nodes = tuple(
            Node(p, 0.0, k == 0)
            for k, p in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        )
        elements = (Spring(0, 1, 1.0), Spring(1, 3, 1.0), Spring(0, 2, 1.0))
        with pytest.raises(DegenerateSpring, match=r"^spring \(1, 3\) endpoints coincide"):
            assemble_elements(nodes, elements, 2, RayleighParams())
        with pytest.raises(DegenerateSpring, match=r"^spring \(0, 2\) endpoints coincide"):
            assemble_elements(nodes, elements[::2] + elements[1:2], 2, RayleighParams())


class TestRandomNetwork:
    def test_deterministic_for_fixed_seed(self):
        a = random_network(1, 2, 2, 3, 1.0)
        b = random_network(1, 2, 2, 3, 1.0)
        assert a == b
        assert all(n.mass > 0 for n in a.nodes if not n.is_terminal)

    def test_massless_count_is_exact(self):
        net = random_network(2, 2, 3, 4, 0.5)
        interior_masses = [n.mass for n in net.nodes if not n.is_terminal]
        assert sum(1 for m in interior_masses if m == 0.0) == 2

    def test_single_node_fails(self):
        with pytest.raises(GenerationFailed):
            random_network(1, 3, 1, 0, 1.0)
        # a one-node network itself is valid, only the generator refuses it
        net = ElastodynamicNetwork(3, (Node((0.5, 0.5, 0.5), 1.0, True),), ())
        assert len(net.nodes) == 1 and not net.springs

    def test_graph_is_connected(self):
        net = random_network(5, 2, 2, 5, 0.5)
        adjacency = {k: set() for k in range(len(net.nodes))}
        for s in net.springs:
            adjacency[s.i].add(s.j)
            adjacency[s.j].add(s.i)
        seen, stack = set(), [0]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            stack.extend(adjacency[k])
        assert seen == set(range(len(net.nodes)))

    def test_minimum_separation(self):
        net = random_network(6, 2, 3, 5, 0.5)
        pos = node_positions(net)
        for a in range(len(pos)):
            for b in range(a + 1, len(pos)):
                assert np.linalg.norm(pos[a] - pos[b]) >= 1e-3

    def test_explicit_rayleigh(self):
        net = random_network(7, 2, 2, 2, 1.0, alpha=0.5, beta=0.25)
        assert net.rayleigh == RayleighParams(0.5, 0.25)


def network_bits(net):
    """Everything ``net`` holds, floats as their bits."""
    positions = np.array([n.position for n in net.nodes])
    masses = np.array([n.mass for n in net.nodes])
    return (
        net.dimension,
        positions.shape, positions.tobytes(), masses.tobytes(),
        tuple(n.is_terminal for n in net.nodes),
        tuple((c.dtype.str, c.tobytes()) for c in net.spring_columns),
        np.array([net.rayleigh.alpha, net.rayleigh.beta]).tobytes(),
    )


def generated(generator, *args, **kwargs):
    """The bits of the network ``generator`` draws, or what it raises."""
    try:
        return network_bits(generator(*args, **kwargs))
    except GenerationFailed as exc:
        return GenerationFailed, str(exc)


class TestRandomNetworkStream:
    """The generator draws its stream in blocks; the pair-by-pair oracle
    draws the same stream one call at a time, so both give the same bits."""

    @pytest.mark.parametrize("size", [(1, 1), (3, 6), (6, 60), (8, 150)])
    @pytest.mark.parametrize("d", [2, 3])
    def test_same_bits_as_the_pair_by_pair_draws(self, size, d):
        for seed in (0, 1):
            for mass_fraction in (0.0, 0.5, 1.0):
                for rayleigh in ({}, {"alpha": 0.75, "beta": 1.25}):
                    args = (seed, d, *size, mass_fraction)
                    expected = generated(random_network_by_pair, *args, **rayleigh)
                    assert generated(random_network, *args, **rayleigh) == expected

    # nine nodes in the unit square: at 0.3 all four seeds place them after
    # rejected draws, at 0.35 seed 0 does and the others give up partway;
    # 2.0 exceeds the box's diagonal, so no second node is ever placed
    @pytest.mark.parametrize("separation", [0.3, 0.35, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_outcome_in_a_crowded_box(self, seed, separation, monkeypatch):
        monkeypatch.setattr(model_module, "MIN_NODE_SEPARATION", separation)
        expected = generated(random_network_by_pair, seed, 2, 3, 6, 0.5)
        assert generated(random_network, seed, 2, 3, 6, 0.5) == expected
        if separation > 2**0.5:
            assert expected == (
                GenerationFailed, "could not place 9 nodes at separation >= 2.0"
            )


class TestNetworkJson:
    def test_round_trip(self):
        net = random_network(8, 3, 2, 3, 0.5)
        obj = network_to_dict(net)
        back = network_from_dict(obj)
        assert back == net

    def test_unknown_field_names_path(self):
        obj = network_to_dict(random_network(9, 2, 2, 1, 1.0))
        obj["nodes"][1]["masss"] = 1.0
        with pytest.raises(SchemaError, match=r"nodes\[1\].masss"):
            network_from_dict(obj)

    def test_missing_field_names_path(self):
        obj = network_to_dict(random_network(9, 2, 2, 1, 1.0))
        del obj["rayleigh"]["beta"]
        with pytest.raises(SchemaError, match=r"rayleigh.beta"):
            network_from_dict(obj)

    def test_bad_value_reported_with_path(self):
        obj = network_to_dict(random_network(9, 2, 2, 1, 1.0))
        obj["springs"][0]["k"] = -1.0
        with pytest.raises(SchemaError, match=r"springs\[0\]"):
            network_from_dict(obj)

    def test_wrong_position_length(self):
        obj = network_to_dict(random_network(9, 2, 2, 1, 1.0))
        obj["nodes"][0]["position"] = [0.0, 1.0, 2.0]
        with pytest.raises(SchemaError, match=r"nodes\[0\].position"):
            network_from_dict(obj)


# (id, the bad spring made from a good row {i, j, k}, the error it raises);
# the message is formatted with the spring's path p and the row's i and j
BAD_SPRINGS = [
    ("missing-field", lambda r: {"i": r["i"], "j": r["j"]}, "{p}.k: missing field"),
    ("extra-field", lambda r: {**r, "c": 0.5}, "{p}.c: unknown field"),
    ("not-an-object", lambda r: [r["i"], r["j"], r["k"]], "{p}: expected an object, got list"),
    ("bool-index", lambda r: {**r, "i": True}, "{p}.i: expected an integer"),
    ("float-index", lambda r: {**r, "j": float(r["j"])}, "{p}.j: expected an integer"),
    ("str-index", lambda r: {**r, "i": str(r["i"])}, "{p}.i: expected an integer"),
    ("bool-stiffness", lambda r: {**r, "k": True}, "{p}.k: expected a number"),
    ("str-stiffness", lambda r: {**r, "k": "1.0"}, "{p}.k: expected a number"),
    ("zero-stiffness", lambda r: {**r, "k": 0}, "{p}: spring stiffness must be > 0, got 0.0"),
    ("negative-stiffness", lambda r: {**r, "k": -1.5},
     "{p}: spring stiffness must be > 0, got -1.5"),
    ("nan-stiffness", lambda r: {**r, "k": float("nan")}, "{p}.k: must be finite"),
    ("infinite-stiffness", lambda r: {**r, "k": float("inf")}, "{p}.k: must be finite"),
    ("stiffness-past-float-range", lambda r: {**r, "k": 10**400}, "{p}.k: must be finite"),
    ("coincident-ends", lambda r: {**r, "j": r["i"]},
     "{p}: spring endpoints coincide (node {i})"),
    ("index-out-of-range", lambda r: {**r, "j": 158},
     "network: spring ({i}, 158) references a missing node"),
    ("negative-index", lambda r: {**r, "i": -1},
     "network: spring (-1, {j}) references a missing node"),
]


@pytest.fixture(scope="module")
def sweep_sized():
    """A 158-node network as JSON text parses it: the size of a sweep input."""
    return json.loads(json.dumps(network_to_dict(random_network(3, 3, 8, 150, 0.5))))


class TestSpringColumns:
    """``network_from_dict`` checks the spring list column by column and reads
    a bad list again spring by spring: same springs, same errors as reading
    every spring by itself (``oracles.network_from_dict_by_spring``)."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("make, message", [
        pytest.param(make, message, id=name) for name, make, message in BAD_SPRINGS
    ])
    def test_bad_spring_fails_as_when_read_alone(
        self, sweep_sized, tmp_path, monkeypatch, capsys, where, make, message
    ):
        rows = sweep_sized["springs"]
        q = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
        text = json.dumps({**sweep_sized, "springs": [*rows[:q], make(rows[q]), *rows[q + 1:]]})
        expected = message.format(p=f"network.springs[{q}]", **rows[q])
        obj = json.loads(text)
        for read in (network_from_dict_by_spring, network_from_dict):
            with pytest.raises(SchemaError) as info:
                read(obj)
            assert str(info.value) == expected
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(text)
        assert main(["respond", "in.json", "--lam", "1,1", "-o", "out.json"]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_parallel_and_reversed_springs_merge_as_when_read_alone(self, sweep_sized):
        rows = sweep_sized["springs"]
        reversed_rows = [{"i": r["j"], "j": r["i"], "k": r["k"]} for r in rows[::3]]
        parallel = [{**r, "k": 0.25} for r in rows[::5]]
        obj = {**sweep_sized, "springs": [*reversed_rows, *rows, *parallel, *reversed_rows]}
        net = network_from_dict(obj)
        assert len(net.springs) == len(rows)
        assert net.springs == network_from_dict_by_spring(obj).springs
        assert all(s.i < s.j for s in net.springs)

    @pytest.mark.parametrize("k", [3, 2**1023 - 1, 2**1023, 2**1024 - 2**971])
    def test_integer_stiffness_reads_as_when_read_alone(self, sweep_sized, k):
        # from 2**1023 up an integer is read by itself; the largest here is
        # the largest finite float
        obj = {**sweep_sized, "springs": [{**sweep_sized["springs"][0], "k": k}]}
        net = network_from_dict(obj)
        assert net.springs == network_from_dict_by_spring(obj).springs
        assert net.springs[0].stiffness == float(k)

    def test_well_formed_springs_are_not_read_one_by_one(self, sweep_sized, monkeypatch):
        def one_by_one(raw, path):
            raise AssertionError(f"{path} read by itself")

        monkeypatch.setattr(import_module("elastonet.model"), "spring_from_dict", one_by_one)
        net = network_from_dict(sweep_sized)
        assert len(net.springs) == len(sweep_sized["springs"])


def with_reversed_and_parallel(obj):
    """``obj`` with every third spring appended reversed and every fifth
    appended twice in parallel: a tiny stiffness, then a large one, so
    the merged stiffness depends on the order of the additions."""
    rows = obj["springs"]
    reversed_rows = [{"i": r["j"], "j": r["i"], "k": r["k"]} for r in rows[::3]]
    parallel = [{**r, "k": r["k"] * 2.0**-53} for r in rows[::5]]
    parallel += [{**r, "k": 1e3 * r["k"]} for r in rows[::5]]
    return {**obj, "springs": [*rows, *reversed_rows, *parallel]}


def columns_inputs():
    """(id, network object): seeded networks in d = 2 and 3, and the sweep
    size with reversed and parallel springs appended."""
    cases = [
        (f"seed{seed}-d{d}", network_to_dict(random_network(seed, d, 3, 12, 0.5)))
        for seed in (0, 1, 2) for d in (2, 3)
    ]
    sweep = json.loads(json.dumps(network_to_dict(random_network(3, 3, 8, 150, 0.5))))
    return cases + [("sweep-reversed-parallel", with_reversed_and_parallel(sweep))]


BAD_NODES = [
    ("missing-field", lambda r: {"position": r["position"], "mass": r["mass"]},
     "{p}.terminal: missing field"),
    ("extra-field", lambda r: {**r, "color": "red"}, "{p}.color: unknown field"),
    ("renamed-field", lambda r: {"position": r["position"], "mass": r["mass"], "t": True},
     "{p}.t: unknown field"),
    ("not-an-object", lambda r: [r["position"], r["mass"], r["terminal"]],
     "{p}: expected an object, got list"),
    ("position-not-a-list", lambda r: {**r, "position": 1.0}, "{p}.position: expected an array"),
    ("short-position", lambda r: {**r, "position": r["position"][:2]},
     "{p}.position: expected 3 entries, got 2"),
    ("str-coordinate", lambda r: {**r, "position": ["0", *r["position"][1:]]},
     "{p}.position[0]: expected a number"),
    ("bool-coordinate", lambda r: {**r, "position": [*r["position"][:2], True]},
     "{p}.position[2]: expected a number"),
    ("nan-coordinate", lambda r: {**r, "position": [float("nan"), *r["position"][1:]]},
     "{p}.position[0]: must be finite"),
    ("coordinate-past-float-range", lambda r: {**r, "position": [*r["position"][:2], 10**400]},
     "{p}.position[2]: must be finite"),
    ("bool-mass", lambda r: {**r, "mass": False}, "{p}.mass: expected a number"),
    ("negative-mass", lambda r: {**r, "mass": -0.5},
     "{p}: node mass must be finite and >= 0, got -0.5"),
    ("infinite-mass", lambda r: {**r, "mass": float("inf")}, "{p}.mass: must be finite"),
    ("int-terminal", lambda r: {**r, "terminal": 1}, "{p}.terminal: expected a boolean"),
]


class TestNodeColumns:
    """``network_from_dict`` checks the node list column by column and reads
    a bad list again node by node: same nodes, bit for bit, and the same
    errors as reading every node by itself
    (``oracles.network_from_dict_by_spring``)."""

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("make, message", [
        pytest.param(make, message, id=name) for name, make, message in BAD_NODES
    ])
    def test_bad_node_fails_as_when_read_alone(self, sweep_sized, where, make, message):
        rows = sweep_sized["nodes"]
        q = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
        obj = {**sweep_sized, "nodes": [*rows[:q], make(rows[q]), *rows[q + 1:]]}
        expected = message.format(p=f"network.nodes[{q}]")
        for read in (network_from_dict_by_spring, network_from_dict):
            with pytest.raises(SchemaError) as info:
                read(obj)
            assert str(info.value) == expected

    @staticmethod
    def node_bits(net):
        return [(np.array(n.position).tobytes(), np.float64(n.mass).tobytes(), n.is_terminal)
                for n in net.nodes]

    @pytest.mark.parametrize("obj", [pytest.param(o, id=name) for name, o in columns_inputs()])
    def test_nodes_match_the_per_node_reader(self, obj):
        net = network_from_dict(obj)
        assert self.node_bits(net) == self.node_bits(network_from_dict_by_spring(obj))
        assert all(type(x) is float for n in net.nodes for x in (*n.position, n.mass))

    def test_integers_and_signed_zeros_read_as_when_read_alone(self, sweep_sized):
        rows = [
            {"position": [0, -0.0, 2**53 + 1], "mass": -0.0, "terminal": True},
            {"position": [1, 10**30, 3], "mass": 2, "terminal": False},
            *sweep_sized["nodes"][2:],
        ]
        obj = {**sweep_sized, "nodes": rows}
        net = network_from_dict(obj)
        assert self.node_bits(net) == self.node_bits(network_from_dict_by_spring(obj))
        assert net.nodes[0].position == (0.0, -0.0, float(2**53 + 1))
        assert np.signbit(net.nodes[0].mass)

    def test_well_formed_nodes_are_not_read_one_by_one(self, sweep_sized, monkeypatch):
        def one_by_one(raw, path, d):
            raise AssertionError(f"{path} read by itself")

        monkeypatch.setattr(import_module("elastonet.model"), "node_from_dict", one_by_one)
        net = network_from_dict(sweep_sized)
        assert len(net.nodes) == len(sweep_sized["nodes"])


class TestColumnsAgainstSprings:
    """The merged spring columns and their stamp are bitwise those of the
    per-spring merge and stamp (``oracles.merge_by_spring``,
    ``oracles.assemble_by_spring``)."""

    @pytest.mark.parametrize("obj", [pytest.param(o, id=name) for name, o in columns_inputs()])
    def test_merge_and_stamp_match_the_per_spring_oracles(self, obj):
        net, oracle = network_from_dict(obj), network_from_dict_by_spring(obj)
        i, j, k = net.spring_columns
        assert i.tolist() == [s.i for s in oracle.springs]
        assert j.tolist() == [s.j for s in oracle.springs]
        assert k.tobytes() == np.array([s.stiffness for s in oracle.springs]).tobytes()
        assert net.springs == oracle.springs
        assert np.array_equal(
            assemble(net).K.a.view(np.uint64), assemble_by_spring(oracle).view(np.uint64)
        )

    def test_parallel_stiffnesses_add_in_the_order_given(self):
        nodes = (Node((0.0, 0.0), 1.0, True), Node((1.0, 0.0), 0.0, False))
        order = [1.0, 2.0**-53, 2.0**-53]
        springs = [Spring(*ends, k) for ends, k in zip([(0, 1), (1, 0), (0, 1)], order)]
        net = ElastodynamicNetwork(2, nodes, springs)
        assert net.springs == (Spring(0, 1, (1.0 + 2.0**-53) + 2.0**-53),)
        assert net.springs[0].stiffness == 1.0 != 1.0 + (2.0**-53 + 2.0**-53)

    def test_columns_are_merged_read_only_arrays(self):
        net = random_network(4, 3, 3, 5, 0.5)
        assert isinstance(net.spring_columns, SpringColumns)
        for column in net.spring_columns:
            assert isinstance(column, np.ndarray) and not column.flags.writeable
        assert (net.spring_columns.i < net.spring_columns.j).all()

    def test_columns_and_springs_construct_the_same_network(self):
        net = random_network(5, 2, 2, 6, 0.5)
        i, j, k = (column.tolist() for column in net.spring_columns)
        pairs = list(zip(j, i, k)) + list(zip(i, j, k))  # reversed, then parallel
        cols = SpringColumns(*(list(c) for c in zip(*pairs)))
        springs = tuple(Spring(*p) for p in pairs)
        assert ElastodynamicNetwork(2, net.nodes, cols) == ElastodynamicNetwork(2, net.nodes, springs)

    @pytest.mark.parametrize("i, j, k, message", [
        ([0, 1], [1, 1], [1.0, 1.0], "spring endpoints coincide (node 1)"),
        ([0, 1], [1, 2], [1.0, -2.0], "spring stiffness must be > 0, got -2.0"),
        ([0, 1], [1, 2], [1.0, np.inf], "spring stiffness must be > 0, got inf"),
        ([0, 2], [1, 3], [1.0, 1.0], "spring (2, 3) references a missing node"),
        ([0, -1], [1, 2], [1.0, 1.0], "spring (-1, 2) references a missing node"),
        ([0, 10**30], [1, 2], [1.0, 1.0], f"spring ({10**30}, 2) references a missing node"),
    ])
    def test_bad_columns_fail_as_the_spring_objects_do(self, i, j, k, message):
        nodes = tuple(Node((float(q), 0.0), 1.0, q == 0) for q in range(3))
        with pytest.raises(ValueError) as info:
            ElastodynamicNetwork(2, nodes, SpringColumns(i, j, k))
        assert str(info.value) == message
        if k[1] > 0 and np.isfinite(k[1]) and i[1] != j[1]:  # a Spring can be made
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ElastodynamicNetwork(2, nodes, tuple(map(Spring, i, j, k)))

    def test_reading_assembling_and_writing_make_no_spring(self, monkeypatch):
        def no_spring(*args):
            raise AssertionError("a Spring was made")

        monkeypatch.setattr(import_module("elastonet.model"), "Spring", no_spring)
        net = random_network(6, 3, 4, 20, 0.5)
        back = network_from_dict(network_to_dict(net))
        assemble(back)
        assert "springs" not in vars(back) and back == net
