import numpy as np
import pytest

from elastonet import (
    ElastodynamicNetwork,
    Node,
    Spring,
    SpringColumns,
    assemble,
    synthesize,
    verify_synthesis,
)
from elastonet.response import ROUNDTRIP_TOL
from elastonet.synthesize import _gadgets, _placement_constraints, _terminal_nodes


@pytest.fixture
def single_spring_terminals():
    """One unit spring between two massless terminals along x, d=2."""
    nodes = (
        Node((0.0, 0.0), 0.0, True),
        Node((1.0, 0.0), 0.0, True),
    )
    return ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))


@pytest.fixture
def collinear_chain():
    """Three collinear nodes, unit springs, massless interior middle node."""
    nodes = (
        Node((0.0, 0.0), 0.0, True),
        Node((1.0, 0.0), 0.0, False),
        Node((2.0, 0.0), 0.0, True),
    )
    return ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0), Spring(1, 2, 1.0)))


@pytest.fixture
def terminal_plus_mass():
    """One terminal and one massive interior node, k = m = 1, undamped."""
    nodes = (
        Node((0.0, 0.0), 0.0, True),
        Node((1.0, 0.0), 1.0, False),
    )
    return ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))


def axial_block(scale=1.0):
    """Stiffness pattern of a unit x-direction spring between two nodes."""
    return scale * np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [-1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )


def node_positions(net):
    """(N, d) positions of a network's nodes, in node order."""
    return np.array([n.position for n in net.nodes], dtype=float)


def scaled_network(net, factor):
    """The same network with every position multiplied by ``factor``."""
    nodes = tuple(
        Node(tuple(factor * np.array(n.position)), n.mass, n.is_terminal)
        for n in net.nodes
    )
    return ElastodynamicNetwork(net.dimension, nodes, net.springs, net.rayleigh)


def stiffened_network(net, stiffness, mass):
    """The same network with every spring stiffness multiplied by
    ``stiffness`` and every nodal mass by ``mass``."""
    nodes = tuple(Node(n.position, mass * n.mass, n.is_terminal) for n in net.nodes)
    springs = tuple(Spring(s.i, s.j, stiffness * s.stiffness) for s in net.springs)
    return ElastodynamicNetwork(net.dimension, nodes, springs, net.rayleigh)


def shuffled_nodes(net, seed):
    """The same network with its nodes in a random order drawn from
    ``seed``, so that the terminals need not come first."""
    perm = np.random.default_rng(seed).permutation(len(net.nodes))
    where = np.argsort(perm)  # old node k is new node where[k]
    i, j, k = net.spring_columns
    return ElastodynamicNetwork(
        net.dimension, tuple(net.nodes[q] for q in perm),
        SpringColumns(where[i], where[j], k), net.rayleigh,
    )


def synthesized(cr, **placement):
    """``synthesize(cr, **placement)``, asserted to realize ``cr`` within
    ``ROUNDTRIP_TOL`` at 50 non-resonant points drawn from its seed."""
    gn = synthesize(cr, **placement)
    assert verify_synthesis(gn, cr, 50, placement.get("seed", 0)) <= ROUNDTRIP_TOL
    return gn


def rank_one_gadget(terminals, f, sigma, rayleigh, seed=0, epsilon_hull=0.1, forbidden=(),
                    min_clearance=None):
    """The checked gadget ``_gadgets`` builds for the force ``f`` and
    ``sigma`` on massless ``terminals``, placed from ``seed`` under the
    constraints ``synthesize`` takes."""
    terminals = np.atleast_2d(np.asarray(terminals, dtype=float))
    forb, clearance = _placement_constraints(terminals, forbidden, min_clearance, epsilon_hull)
    (comp,) = _gadgets(
        terminals, _terminal_nodes(terminals, np.zeros(len(terminals))),
        np.asarray(f, dtype=float).reshape(1, -1), np.array([sigma], dtype=float), rayleigh,
        np.random.default_rng(seed), epsilon_hull, forb, clearance,
    )
    return comp


@pytest.fixture
def assembled_chain(collinear_chain):
    return assemble(collinear_chain)

