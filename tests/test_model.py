"""Network model, assembly, random generation, JSON round trips."""

from importlib import import_module

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    DegenerateSpring,
    ElastodynamicNetwork,
    GeneralizedNetwork,
    GenerationFailed,
    IdealElasticElement,
    NetworkComponent,
    Node,
    RayleighParams,
    SchemaError,
    Spring,
    assemble,
    assemble_component,
    extract_canonical,
    is_psd,
    network_from_dict,
    network_to_dict,
    random_network,
    synthesize,
)
from elastonet.geometry import balance_check
from elastonet.model import STAMP_CHUNK, assemble_elements

from conftest import axial_block, node_positions, scaled_network
from oracles import assemble_union

oracles_module = import_module("oracles")


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

    def test_partition_is_node_major(self):
        nodes = (
            Node((0.0, 0.0), 0.0, False),
            Node((1.0, 0.0), 0.0, True),
            Node((2.0, 0.0), 0.0, True),
        )
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))
        sys = assemble(net)
        assert sys.partition.boundary == (2, 3, 4, 5)
        assert sys.partition.interior == (0, 1)

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
            assert balance_check(pos, col.reshape(-1, 2), 1e-10)[1] <= 1e-10

    def test_mass_matrix_repeats_node_masses(self):
        nodes = (Node((0.0, 0.0), 2.0, True), Node((1.0, 0.0), 0.5, False))
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))
        sys = assemble(net)
        assert_allclose(sys.mass_vector(), [2.0, 2.0, 0.5, 0.5])


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
        gn = synthesize(extract_canonical(assemble(random_network(d, d, 3, 4, 0.5))), seed=d)
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
