"""Reference constructions the tests compare the package against."""

from elastonet import IdealElasticElement, Node, Spring
from elastonet.model import assemble_elements


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
