"""Geometric mass-spring-damper network model and system-matrix assembly.

A network lives in d = 2 or 3 dimensions. Every node carries a position, a
nonnegative mass and a terminal flag; springs connect distinct nodes with a
positive axial stiffness. Damping is proportional: the damping matrix is
never stored but derived as ``C = alpha*K + beta*M`` from fixed nonnegative
constants (:meth:`RayleighParams.damping`), which models a dashpot in
parallel with every spring (constant ``alpha*k``) plus a viscous cavity
around every mass (constant ``beta*m``).

Degrees of freedom are ordered node-major, coordinate-minor: node 0 owns
rows/columns 0..d-1, node 1 owns d..2d-1, and so on. Every Schur partition
and residue reshaping in the package relies on this single convention.
"""

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import jsonio
from .errors import DegenerateSpring, DimensionMismatch, GenerationFailed, SchemaError
from .linalg import BlockPartition, SymMatrix

# Minimum pairwise node separation produced by the random generator.
MIN_NODE_SEPARATION = 1e-3

# Springs stamped per ``np.add.at`` call in assembly: bounds the memory of the
# stamp arrays (36 entries per spring in 3-d) without a call per spring.
STAMP_CHUNK = 256


@dataclass(frozen=True)
class Node:
    """A point mass (possibly zero) at a fixed position."""

    position: tuple
    mass: float = 0.0
    is_terminal: bool = False

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "is_terminal", bool(self.is_terminal))
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"non-finite node position {pos}")
        if not math.isfinite(self.mass) or self.mass < 0:
            raise ValueError(f"node mass must be finite and >= 0, got {self.mass}")


@dataclass(frozen=True)
class Spring:
    """Linear spring between nodes ``i`` and ``j`` with stiffness ``k > 0``."""

    i: int
    j: int
    stiffness: float

    def __post_init__(self):
        object.__setattr__(self, "stiffness", float(self.stiffness))
        if self.i == self.j:
            raise ValueError(f"spring endpoints coincide (node {self.i})")
        if not math.isfinite(self.stiffness) or self.stiffness <= 0:
            raise ValueError(f"spring stiffness must be > 0, got {self.stiffness}")


@dataclass(frozen=True)
class IdealElasticElement:
    """Rank-one elastic element: stiffness contribution ``f f^T``.

    ``support`` lists the node indices the force vector acts on, d
    consecutive entries of ``force_vector`` per support node. The force
    system must be balanced at the support positions, which the owning
    component verifies.
    """

    support: tuple
    force_vector: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))
        object.__setattr__(
            self, "force_vector", np.asarray(self.force_vector, dtype=float)
        )
        if not self.support:
            raise ValueError("ideal element needs at least one support node")
        if len(set(self.support)) != len(self.support):
            raise ValueError("ideal element support repeats a node")
        if self.force_vector.ndim != 1 or self.force_vector.size % len(self.support):
            raise ValueError(
                f"force vector of length {self.force_vector.size} does not split "
                f"over {len(self.support)} support nodes"
            )


@dataclass(frozen=True)
class RayleighParams:
    """Proportional-damping constants: C = alpha*K + beta*M."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if self.alpha < 0 or self.beta < 0 or not np.isfinite(self.alpha + self.beta):
            raise ValueError(f"alpha, beta must be finite and >= 0, got {self}")

    def damping(self, K, M):
        """``alpha*K + beta*M``."""
        return self.alpha * K + self.beta * M


@dataclass(frozen=True)
class ElastodynamicNetwork:
    """A damped mass-spring network with at least one terminal node.

    Duplicate springs on the same unordered node pair are merged at
    construction by summing their stiffnesses (parallel springs add). Every
    spring is stored as ``(min, max)`` of its endpoints, in the order of the
    first occurrence of its pair.
    """

    dimension: int
    nodes: tuple
    springs: tuple
    rayleigh: RayleighParams = field(default_factory=RayleighParams)

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        nodes = tuple(self.nodes)
        if not nodes:
            raise ValueError("network has no nodes")
        for k, node in enumerate(nodes):
            if len(node.position) != self.dimension:
                raise DimensionMismatch(
                    f"node {k} position has {len(node.position)} coordinates, "
                    f"network dimension is {self.dimension}"
                )
        if not any(n.is_terminal for n in nodes):
            raise ValueError("network needs at least one terminal node")
        merged = {}
        for s in self.springs:
            if not (0 <= s.i < len(nodes)) or not (0 <= s.j < len(nodes)):
                raise ValueError(f"spring ({s.i}, {s.j}) references a missing node")
            key = (s.i, s.j) if s.i < s.j else (s.j, s.i)
            prev = merged.get(key)
            merged[key] = s if prev is None else Spring(*key, prev.stiffness + s.stiffness)
        springs = tuple(
            s if (s.i, s.j) == key else Spring(*key, s.stiffness)
            for key, s in merged.items()
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "springs", springs)


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled stiffness and mass matrices plus bookkeeping.

    The damping matrix is not stored: :attr:`C` derives it from ``K``,
    ``M`` and the Rayleigh constants, so it is proportional by construction.
    ``partition`` splits the coordinate range into terminal (boundary) and
    interior coordinates, d consecutive entries per node. The Rayleigh
    constants, spatial dimension and terminal positions ride along because
    the pole-residue extraction needs all three and receives only this
    object.
    """

    K: SymMatrix
    M: SymMatrix
    partition: BlockPartition
    dimension: int
    rayleigh: RayleighParams
    terminal_positions: np.ndarray

    @property
    def order(self):
        return self.K.order

    @property
    def C(self):
        """The damping matrix ``alpha*K + beta*M``."""
        return SymMatrix(self.rayleigh.damping(self.K.a, self.M.a))

    def mass_vector(self):
        return np.diag(self.M.a).copy()


def spring_directions(positions, i, j):
    """Unit vectors along ``x_i - x_j`` for index arrays ``i`` and ``j``.

    A pair at most ``1e-12 * max|x|`` apart is coincident, whatever the
    length unit; the first such pair raises :class:`DegenerateSpring`.
    """
    dx = positions[i] - positions[j]
    # the same bits as np.linalg.norm of each row, which einsum and
    # norm(axis=1) are not
    length = np.sqrt(np.matmul(dx[:, None, :], dx[:, :, None])[:, 0, 0])
    bad = np.flatnonzero(length <= 1e-12 * np.abs(positions).max())
    if bad.size:
        k = bad[0]
        raise DegenerateSpring(
            f"spring ({i[k]}, {j[k]}) endpoints coincide (separation {length[k]:.3e})"
        )
    return dx / length[:, None]


def _stamp_springs(K, springs, positions, coords):
    """Add the springs' stamps to the flat ``K``, spring by spring."""
    i = np.array([s.i for s in springs])
    j = np.array([s.j for s in springs])
    stiffness = np.array([s.stiffness for s in springs])
    nvec = spring_directions(positions, i, j)
    axis = np.concatenate([nvec, -nvec], axis=1)
    c = np.concatenate([coords[i], coords[j]], axis=1)
    for start in range(0, len(springs), STAMP_CHUNK):
        part = slice(start, start + STAMP_CHUNK)
        index = c[part, :, None] * coords.size + c[part, None, :]
        ax = axis[part]
        stamp = stiffness[part, None, None] * (ax[:, :, None] * ax[:, None, :])
        np.add.at(K, index.ravel(), stamp.ravel())


def assemble_elements(nodes, elements, dimension, rayleigh):
    """Assemble the system matrices of nodes joined by stiffness elements.

    Each element adds a symmetric stamp to ``K``. A spring between nodes
    ``i, j`` with unit vector ``n`` along it adds ``k * n n^T`` on the (i,i)
    and (j,j) diagonal blocks and ``-k * n n^T`` on the off-diagonal ones;
    an ideal elastic element adds ``f f^T`` on the coordinates of its
    support. The mass matrix repeats each nodal mass d times on the
    diagonal; the damping matrix follows from both (:attr:`SystemMatrices.C`).
    The partition puts the coordinates of terminal nodes in the boundary,
    all others in the interior, each in node order.

    Runs of springs are stamped as arrays. ``np.add.at`` applies the
    updates one at a time in element order, so every entry of ``K`` is the
    same sum, in the same order, as stamping element by element.
    """
    d = dimension
    positions = np.array([node.position for node in nodes], dtype=float)
    coords = np.arange(len(nodes) * d).reshape(-1, d)  # row k: node k's coordinates
    K = np.zeros(coords.size * coords.size)
    for kind, run in groupby(elements, type):
        if kind is Spring:
            _stamp_springs(K, tuple(run), positions, coords)
            continue
        for el in run:
            c = coords[list(el.support)].ravel()
            stamp = np.outer(el.force_vector, el.force_vector)
            np.add.at(K, (c[:, None] * coords.size + c).ravel(), stamp.ravel())
    K = K.reshape(coords.size, coords.size)
    M = np.diag(np.repeat([node.mass for node in nodes], d))
    terminal = np.array([node.is_terminal for node in nodes])
    return SystemMatrices(
        K=SymMatrix(K),
        M=SymMatrix(M),
        partition=BlockPartition(
            coords[terminal].ravel().tolist(), coords[~terminal].ravel().tolist()
        ),
        dimension=d,
        rayleigh=rayleigh,
        terminal_positions=positions[terminal],
    )


def assemble(net):
    """Assemble the system matrices of a network (see :func:`assemble_elements`)."""
    return assemble_elements(net.nodes, net.springs, net.dimension, net.rayleigh)


def random_network(
    seed,
    d,
    n_terminals,
    n_interior,
    mass_fraction,
    alpha=None,
    beta=None,
):
    """Deterministic random test network.

    Positions are drawn in the unit box with pairwise separation at least
    ``MIN_NODE_SEPARATION``; the spring graph is a random spanning tree plus
    each other node pair with probability 0.3, so it is always connected.
    Exactly ``round(mass_fraction * n_interior)`` interior nodes receive a
    positive mass; each terminal is massive with probability one half. When
    ``alpha`` or ``beta`` is None it is drawn uniformly from [0, 2].

    A single-node request cannot carry any spring; it raises
    :class:`GenerationFailed`.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")
    if n_terminals < 1:
        raise ValueError("need at least one terminal node")
    if n_interior < 0:
        raise ValueError("n_interior must be >= 0")
    if not 0.0 <= mass_fraction <= 1.0:
        raise ValueError(f"mass_fraction must lie in [0, 1], got {mass_fraction}")
    n_total = n_terminals + n_interior
    if n_total < 2:
        raise GenerationFailed("a single-node network has no springs")
    rng = np.random.default_rng(seed)

    positions = []
    for _ in range(n_total):
        for _attempt in range(200):
            cand = rng.uniform(0.0, 1.0, size=d)
            if all(
                np.linalg.norm(cand - p) >= MIN_NODE_SEPARATION for p in positions
            ):
                positions.append(cand)
                break
        else:
            raise GenerationFailed(
                f"could not place {n_total} nodes at separation "
                f">= {MIN_NODE_SEPARATION}"
            )

    springs = []
    order = rng.permutation(n_total)
    for k in range(1, n_total):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        springs.append(Spring(a, b, rng.uniform(0.5, 2.0)))
    tree_pairs = {(min(s.i, s.j), max(s.i, s.j)) for s in springs}
    for a in range(n_total):
        for b in range(a + 1, n_total):
            if (a, b) not in tree_pairs and rng.random() < 0.3:
                springs.append(Spring(a, b, rng.uniform(0.5, 2.0)))

    n_massive = int(round(mass_fraction * n_interior))
    massive = set(
        int(i) for i in rng.choice(n_interior, size=n_massive, replace=False)
    ) if n_interior else set()
    nodes = []
    for k in range(n_terminals):
        mass = rng.uniform(0.5, 2.0) if rng.random() < 0.5 else 0.0
        nodes.append(Node(tuple(positions[k]), mass, True))
    for k in range(n_interior):
        mass = rng.uniform(0.5, 2.0) if k in massive else 0.0
        nodes.append(Node(tuple(positions[n_terminals + k]), mass, False))

    ray = RayleighParams(
        alpha if alpha is not None else rng.uniform(0.0, 2.0),
        beta if beta is not None else rng.uniform(0.0, 2.0),
    )
    return ElastodynamicNetwork(d, tuple(nodes), tuple(springs), ray)


# ---------------------------------------------------------------------------
# JSON form: {dimension, nodes[{position, mass, terminal}],
#             springs[{i, j, k}], rayleigh{alpha, beta}}
# The node, element and rayleigh codecs are shared with the generalized
# network form in :mod:`synthesize`.
# ---------------------------------------------------------------------------


def node_to_dict(node):
    return {
        "position": list(node.position),
        "mass": node.mass,
        "terminal": node.is_terminal,
    }


def node_from_dict(raw, path, d):
    jsonio.check_fields(raw, path, ("position", "mass", "terminal"))
    try:
        return Node(
            tuple(jsonio.as_vector(raw["position"], f"{path}.position", d)),
            jsonio.as_number(raw["mass"], f"{path}.mass"),
            jsonio.as_bool(raw["terminal"], f"{path}.terminal"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def element_to_dict(el):
    """A spring as ``{i, j, k}``, an ideal element as ``{support, f}``."""
    if isinstance(el, Spring):
        return {"i": el.i, "j": el.j, "k": el.stiffness}
    return {"support": list(el.support), "f": list(el.force_vector)}


def spring_from_dict(raw, path):
    jsonio.check_fields(raw, path, ("i", "j", "k"))
    try:
        return Spring(
            jsonio.as_int(raw["i"], f"{path}.i"),
            jsonio.as_int(raw["j"], f"{path}.j"),
            jsonio.as_number(raw["k"], f"{path}.k"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def element_from_dict(raw, path):
    if not (isinstance(raw, dict) and "support" in raw):
        return spring_from_dict(raw, path)
    jsonio.check_fields(raw, path, ("support", "f"))
    support = [
        jsonio.as_int(i, f"{path}.support[{q}]")
        for q, i in enumerate(jsonio.as_list(raw["support"], f"{path}.support"))
    ]
    force = jsonio.as_vector(raw["f"], f"{path}.f")
    try:
        return IdealElasticElement(tuple(support), force)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def rayleigh_to_dict(rayleigh):
    return {"alpha": rayleigh.alpha, "beta": rayleigh.beta}


def rayleigh_from_dict(raw, path):
    jsonio.check_fields(raw, path, ("alpha", "beta"))
    try:
        return RayleighParams(
            jsonio.as_number(raw["alpha"], f"{path}.alpha"),
            jsonio.as_number(raw["beta"], f"{path}.beta"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def network_to_dict(net):
    return {
        "dimension": net.dimension,
        "nodes": [node_to_dict(n) for n in net.nodes],
        "springs": [element_to_dict(s) for s in net.springs],
        "rayleigh": rayleigh_to_dict(net.rayleigh),
    }


def network_from_dict(obj, path="network"):
    jsonio.check_fields(obj, path, ("dimension", "nodes", "springs", "rayleigh"))
    d = jsonio.as_int(obj["dimension"], f"{path}.dimension")
    if d not in (2, 3):
        raise SchemaError(f"{path}.dimension: must be 2 or 3")
    nodes = [
        node_from_dict(raw, f"{path}.nodes[{k}]", d)
        for k, raw in enumerate(jsonio.as_list(obj["nodes"], f"{path}.nodes"))
    ]
    springs = [
        spring_from_dict(raw, f"{path}.springs[{k}]")
        for k, raw in enumerate(jsonio.as_list(obj["springs"], f"{path}.springs"))
    ]
    ray = rayleigh_from_dict(obj["rayleigh"], f"{path}.rayleigh")
    try:
        return ElastodynamicNetwork(d, tuple(nodes), tuple(springs), ray)
    except (ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
