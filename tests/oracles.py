"""Reference constructions the tests compare the package against."""

from fractions import Fraction

import numpy as np

from elastonet import (
    ElastodynamicNetwork,
    IdealElasticElement,
    Node,
    SchemaError,
    SingularBlock,
    Spring,
    SymMatrix,
)
from elastonet.linalg import PINV_TOL
from elastonet.model import (
    assemble_elements,
    node_from_dict,
    rayleigh_from_dict,
    spring_directions,
    spring_from_dict,
)
from elastonet.response import ROUNDTRIP_TOL, canonical_responses


def schur_complement_by_index(a, boundary, interior, mode="inverse"):
    """The SVD Schur complement of a ``SymMatrix`` with its three blocks
    gathered by ``np.ix_`` from the index lists ``boundary`` and
    ``interior``, in any order: the reference for
    ``linalg.schur_complement`` on a boundary-first array."""
    b, i = list(boundary), list(interior)
    a_bb = a.a[np.ix_(b, b)]
    if not (b and i):
        return SymMatrix(a_bb)
    a_bi = a.a[np.ix_(b, i)]
    u, s, vh = np.linalg.svd(a.a[np.ix_(i, i)])
    keep = s > PINV_TOL * s[0]
    if mode == "inverse" and not keep.all():
        raise SingularBlock(
            f"interior block numerically singular: smallest singular value "
            f"{s[-1]:.3e} vs threshold {PINV_TOL * s[0]:.3e}",
            smallest_singular_value=s[-1],
        )
    r = int(keep.sum())
    inv = (vh[:r].conj().T * (1.0 / s[:r])) @ np.ascontiguousarray(u[:, :r].conj().T)
    x = a_bi @ inv @ a_bi.T
    return SymMatrix(a_bb - 0.5 * (x + x.T))


def node_major(net):
    """``(K, M, b, i)`` of ``net`` in node order, node ``k`` owning the
    coordinates ``k*d .. k*d + d - 1``: ``K`` stamped spring by spring
    (:func:`assemble_by_spring`), ``M`` the nodal masses repeated d times,
    and the terminal (``b``) and interior (``i``) coordinates as index
    lists, each in node order. The reference that the package's
    boundary-first layout is gathered from."""
    d = net.dimension
    coords = np.arange(len(net.nodes) * d).reshape(-1, d)
    terminal = np.array([node.is_terminal for node in net.nodes])
    M = np.diag(np.repeat([node.mass for node in net.nodes], d))
    b, i = (coords[side].ravel().tolist() for side in (terminal, ~terminal))
    return assemble_by_spring(net), M, b, i


def evaluate_response_by_index(net, lam, mode):
    """The direct response of a network as one expression in node order,
    ``K + lam*C + lam*lam*M`` of :func:`node_major`, then
    :func:`schur_complement_by_index`: the reference for
    ``response.evaluate_response`` of ``assemble(net)``."""
    lam = complex(lam)
    K, M, b, i = node_major(net)
    pencil = SymMatrix(K + lam * net.rayleigh.damping(K, M) + lam * lam * M)
    return schur_complement_by_index(pencil, b, i, mode)


def modal_by_system(red):
    """``(sigmas, V)`` of one reduced system by a two-dimensional ``eigh``:
    the reference for ``response.modal_stack``."""
    nb, inv_sqrt = red.n_b, 1.0 / np.sqrt(red.Mjj)
    normalized = SymMatrix(np.outer(inv_sqrt, inv_sqrt) * red.Ktilde.a[nb:, nb:])
    sigmas, u = np.linalg.eigh(normalized.a)
    return sigmas, red.Ktilde.a[:nb, nb:] @ (inv_sqrt[:, None] * u)


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


def merge_by_spring(springs, n_nodes):
    """Springs merged one by one in a dict keyed by their unordered pair:
    the reference for ``model.merge_springs``. A pair is stored as
    ``(min, max)`` in the order of its first occurrence and parallel
    stiffnesses add in the order given."""
    merged = {}
    for s in springs:
        if not (0 <= s.i < n_nodes) or not (0 <= s.j < n_nodes):
            raise ValueError(f"spring ({s.i}, {s.j}) references a missing node")
        key = (s.i, s.j) if s.i < s.j else (s.j, s.i)
        prev = merged.get(key)
        merged[key] = Spring(*key, s.stiffness if prev is None else prev.stiffness + s.stiffness)
    return tuple(merged.values())


def network_from_dict_by_spring(obj, path="network"):
    """``network_from_dict`` on a well-formed network object whose springs
    are each read by ``spring_from_dict`` and merged by ``merge_by_spring``:
    the reference for the package's column-by-column spring reader and
    merge, errors and merge order included."""
    d = obj["dimension"]
    nodes = [node_from_dict(raw, f"{path}.nodes[{k}]", d) for k, raw in enumerate(obj["nodes"])]
    springs = [
        spring_from_dict(raw, f"{path}.springs[{k}]") for k, raw in enumerate(obj["springs"])
    ]
    ray = rayleigh_from_dict(obj["rayleigh"], f"{path}.rayleigh")
    try:
        return ElastodynamicNetwork(d, tuple(nodes), merge_by_spring(springs, len(nodes)), ray)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def assemble_by_spring(net):
    """The stiffness matrix of ``net`` stamped from its ``Spring`` objects:
    three arrays gathered from ``net.springs``, then one ``np.add.at``
    that adds each spring's stamp in spring order. The reference for the
    column stamp of ``assemble``."""
    d = net.dimension
    positions = np.array([node.position for node in net.nodes], dtype=float)
    coords = np.arange(len(net.nodes) * d).reshape(-1, d)
    i = np.array([s.i for s in net.springs], dtype=int)
    j = np.array([s.j for s in net.springs], dtype=int)
    stiffness = np.array([s.stiffness for s in net.springs], dtype=float)
    nvec = spring_directions(positions, i, j)
    axis = np.concatenate([nvec, -nvec], axis=1)
    c = np.concatenate([coords[i], coords[j]], axis=1)
    index = c[:, :, None] * coords.size + c[:, None, :]
    stamp = stiffness[:, None, None] * (axis[:, :, None] * axis[:, None, :])
    K = np.zeros(coords.size * coords.size)
    np.add.at(K, index.ravel(), stamp.ravel())
    return K.reshape(coords.size, coords.size)


def reconstruction_error_by_point(net, cr, lams):
    """The extraction self-check point by point: at each of ``lams`` the
    pencil ``K + lam*C + lam*lam*M`` in node order (:func:`node_major`),
    its four blocks gathered by index and one LU solve, the pseudoinverse
    :func:`evaluate_response_by_index` where that fails or deviates. The
    reference for ``response._reconstruction_error`` of ``assemble(net)``."""
    K, M, b, i = node_major(net)
    C = net.rayleigh.damping(K, M)
    norms = [np.abs(x).max() for x in (K, C, M)]

    def gap(closed, direct, floor):
        return np.abs(closed - direct).max() / max(np.abs(direct).max(), floor, 1e-300)

    worst = 0.0
    for lam, closed in zip(lams, canonical_responses(cr, lams)):
        floor = 1e-4 * (norms[0] + norms[1] * abs(lam) + norms[2] * abs(lam) ** 2)
        try:
            with np.errstate(all="ignore"):
                a = K + lam * C + lam * lam * M
                x = np.linalg.solve(a[np.ix_(i, i)], a[np.ix_(i, b)])
                xb = a[np.ix_(b, i)] @ x
                direct = a[np.ix_(b, b)] - 0.5 * (xb + xb.T)
                err = gap(closed, direct, floor)
        except np.linalg.LinAlgError:
            err = np.inf
        if not err <= ROUNDTRIP_TOL:
            direct = evaluate_response_by_index(net, lam, "pseudoinverse").a
            err = gap(closed, direct, floor)
        worst = max(worst, err)
    return worst


def exact_response(net, lam):
    """The terminal response of ``net`` at a real ``lam > 0``, exactly.

    Everything is a ``Fraction`` of the float inputs. A spring adds
    ``k*dx*dx^T/(dx.dx)``, with no square root, and the pencil is
    ``(1 + alpha*lam)*K + (beta*lam + lam^2)*M``, which is PSD at a real
    ``lam > 0``. Gaussian elimination removes the interior coordinates one
    by one; a zero pivot of a PSD matrix has a zero row, so such a
    coordinate couples to nothing and is skipped. Returns the terminal
    block, in node order, rounded once to floats.
    """
    lam, d = Fraction(lam), net.dimension
    alpha, beta = Fraction(net.rayleigh.alpha), Fraction(net.rayleigh.beta)
    pos = [[Fraction(x) for x in node.position] for node in net.nodes]
    n = len(pos) * d
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j, k in zip(*(column.tolist() for column in net.spring_columns)):
        dx = [p - q for p, q in zip(pos[i], pos[j])]
        scale = (1 + alpha * lam) * Fraction(k) / sum(x * x for x in dx)
        for p, q, sign in ((i, i, 1), (j, j, 1), (i, j, -1), (j, i, -1)):
            for r in range(d):
                for c in range(d):
                    a[p * d + r][q * d + c] += sign * scale * dx[r] * dx[c]
    for k, node in enumerate(net.nodes):
        for r in range(k * d, k * d + d):
            a[r][r] += (beta * lam + lam * lam) * Fraction(node.mass)
    terminal = [k for k in range(n) if net.nodes[k // d].is_terminal]
    left = set(range(n))
    for p in (k for k in range(n) if not net.nodes[k // d].is_terminal):
        left.discard(p)
        if a[p][p] == 0:
            continue
        for r in left:
            if a[r][p]:
                f = a[r][p] / a[p][p]
                for c in left:
                    a[r][c] -= f * a[p][c]
    return np.array([[float(a[r][c]) for c in terminal] for r in terminal])
