"""Reference constructions the tests compare the package against."""

from elastonet import ElastodynamicNetwork, IdealElasticElement, Node, SchemaError, Spring
from elastonet.model import (
    assemble_elements,
    node_from_dict,
    rayleigh_from_dict,
    spring_from_dict,
)


def assemble_union(gn):
    """Merge all components of a generalized network into one assembled system.

    Terminal masses add across components; internal nodes are stacked after
    the shared terminals. Evaluating the union's Schur complement and
    summing per-component responses must agree: that is the superposition
    principle.
    """
    nt = len(gn.terminals)
    terminal_mass = [0.0] * nt
    internals = []
    elements = []
    for comp in gn.components:
        shift = len(internals)  # component node k >= nt is union node k + shift
        for k, node in enumerate(comp.nodes[:nt]):
            terminal_mass[k] += node.mass
        internals.extend(comp.nodes[nt:])
        for el in comp.elements:
            if isinstance(el, Spring):
                i, j = (k if k < nt else k + shift for k in (el.i, el.j))
                elements.append(Spring(i, j, el.stiffness))
            else:
                support = tuple(k if k < nt else k + shift for k in el.support)
                elements.append(IdealElasticElement(support, el.force_vector))
    terminals = [Node(tuple(p), m, True) for p, m in zip(gn.terminals, terminal_mass)]
    return assemble_elements(terminals + internals, elements, gn.dimension, gn.rayleigh)


def network_from_dict_by_spring(obj, path="network"):
    """``network_from_dict`` on a well-formed network object whose springs
    are each read by ``spring_from_dict``: the reference for the package's
    column-by-column spring reader, errors and merge order included."""
    d = obj["dimension"]
    nodes = [node_from_dict(raw, f"{path}.nodes[{k}]", d) for k, raw in enumerate(obj["nodes"])]
    springs = [
        spring_from_dict(raw, f"{path}.springs[{k}]") for k, raw in enumerate(obj["springs"])
    ]
    ray = rayleigh_from_dict(obj["rayleigh"], f"{path}.rayleigh")
    try:
        return ElastodynamicNetwork(d, tuple(nodes), tuple(springs), ray)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
