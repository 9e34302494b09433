"""Geometric mass-spring-damper network model and system-matrix assembly.

A network lives in d = 2 or 3 dimensions. Every node carries a position, a
nonnegative mass and a terminal flag; springs connect distinct nodes with a
positive axial stiffness. Damping is proportional: the damping matrix is
never stored but derived as ``C = alpha*K + beta*M`` from fixed nonnegative
constants (:meth:`RayleighParams.damping`), which models a dashpot in
parallel with every spring (constant ``alpha*k``) plus a viscous cavity
around every mass (constant ``beta*m``).

Degrees of freedom are ordered boundary first: the coordinates of the
terminal nodes come first, then those of the interior nodes, each set in
node order with d consecutive coordinates per node. The terminal response is
the Schur complement of the interior block, so every Schur complement takes
its blocks as slices, and residues reshape in terminal order.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import jsonio
from .errors import DegenerateSpring, DimensionMismatch, GenerationFailed, SchemaError
from .linalg import SymMatrix

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


class SpringColumns(NamedTuple):
    """Springs as three columns: endpoints ``i`` and ``j``, stiffness ``k``."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray

    @classmethod
    def of(cls, springs):
        """The columns of a sequence of :class:`Spring`, in its order."""
        springs = tuple(springs)
        return cls(*(np.array([getattr(s, f) for s in springs]) for f in ("i", "j", "stiffness")))

    def __eq__(self, other):
        return isinstance(other, SpringColumns) and all(map(np.array_equal, self, other))


def merge_springs(springs, n_nodes):
    """Read-only columns of ``springs`` (:class:`SpringColumns` or
    :class:`Spring` objects), one spring per unordered node pair stored as
    ``(min, max)`` in the order of its first occurrence. Parallel
    stiffnesses add from zero in the order given: bitwise the running sum
    ``prev + k``, as ``0 + k`` is ``k``. The first bad spring raises."""
    i, j, k = springs if isinstance(springs, SpringColumns) else SpringColumns.of(springs)
    i, j, k = np.asarray(i), np.asarray(j), np.asarray(k, dtype=float)
    bad = np.flatnonzero((i == j) | ~(k > 0) | ~np.isfinite(k))
    if bad.size:
        Spring(i[bad[0]], j[bad[0]], k[bad[0]])  # raises its ValueError
    bad = np.flatnonzero((i < 0) | (i >= n_nodes) | (j < 0) | (j >= n_nodes))
    if bad.size:
        raise ValueError(f"spring ({i[bad[0]]}, {j[bad[0]]}) references a missing node")
    lo, hi = np.minimum(i, j).astype(np.intp), np.maximum(i, j).astype(np.intp)
    _, first, pair = np.unique(lo * n_nodes + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)  # the pairs in order of first occurrence
    # bincount adds the weights one by one in index order
    stiffness = np.bincount(np.argsort(order)[pair], k, order.size)
    columns = SpringColumns(lo[first[order]], hi[first[order]], stiffness)
    for column in columns:
        column.flags.writeable = False
    return columns


@dataclass(frozen=True)
class ElastodynamicNetwork:
    """A damped mass-spring network with at least one terminal node.

    The springs are given as :class:`Spring` objects or as
    :class:`SpringColumns`, and stored as merged read-only columns
    (:func:`merge_springs`): duplicate springs on the same unordered node
    pair add. :attr:`springs` lists them as :class:`Spring` objects.
    """

    dimension: int
    nodes: tuple
    spring_columns: SpringColumns
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
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "spring_columns", merge_springs(self.spring_columns, len(nodes)))

    @cached_property
    def springs(self):
        """The merged springs as :class:`Spring` objects, built when first read."""
        return tuple(map(Spring, *(column.tolist() for column in self.spring_columns)))


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled stiffness matrix and node masses plus bookkeeping.

    Masses are point masses, so the mass matrix is ``diag(m_i I_d)``:
    :attr:`node_masses` keeps one per node, terminal nodes first, read-only,
    and :attr:`M` and :attr:`C` derive the mass and the (proportional)
    damping matrix. The matrices are boundary first: the leading :attr:`n_b`
    coordinates are the terminals', d consecutive entries per node, and the
    rest interior. The Rayleigh constants, spatial dimension and terminal
    positions ride along because the pole-residue extraction needs all
    three and receives only this object.
    """

    K: SymMatrix
    node_masses: np.ndarray
    dimension: int
    rayleigh: RayleighParams
    terminal_positions: np.ndarray

    def __post_init__(self):
        masses = np.array(self.node_masses, dtype=float)
        if masses.ndim != 1 or masses.size * self.dimension != self.order:
            raise DimensionMismatch(
                f"node masses of shape {masses.shape} in {self.dimension}-d do "
                f"not fill K of order {self.order}"
            )
        if not (np.isfinite(masses) & (masses >= 0)).all():
            raise DimensionMismatch("node masses must be finite and >= 0")
        if self.n_b > self.order:
            raise DimensionMismatch(
                f"{self.n_b} terminal coordinates exceed the order of K ({self.order})"
            )
        masses.flags.writeable = False
        object.__setattr__(self, "node_masses", masses)

    @property
    def order(self):
        return self.K.order

    @property
    def n_b(self):
        """The number of terminal (boundary) coordinates."""
        return self.terminal_positions.size

    @property
    def M(self):
        """The mass matrix: each node's mass repeated d times on the diagonal."""
        return SymMatrix(np.diag(np.repeat(self.node_masses, self.dimension)), copy=False)

    @property
    def C(self):
        """The damping matrix ``alpha*K + beta*M``."""
        return SymMatrix(self.rayleigh.damping(self.K.a, self.M.a))


def _row_norms(dx):
    """The Euclidean norm of each row of ``dx``: the same bits as
    ``np.linalg.norm`` of the row, which einsum and norm(axis=1) are not."""
    return np.sqrt(np.matmul(dx[:, None, :], dx[:, :, None])[:, 0, 0])


def spring_directions(positions, i, j):
    """Unit vectors along ``x_i - x_j`` for index arrays ``i`` and ``j``.

    A pair at most ``1e-12 * max|x|`` apart is coincident, whatever the
    length unit; the first such pair raises :class:`DegenerateSpring`, as
    does first a pair whose separation ``x_i - x_j`` overflows. A length
    whose square overflows is taken as ``s * |dx / s|``, ``s = max|dx|``;
    every other length keeps its bits.
    """
    with np.errstate(over="ignore"):
        dx = positions[i] - positions[j]
        length = _row_norms(dx)
        far = np.flatnonzero(np.isinf(length))
        if far.size:
            scale = np.abs(dx[far]).max(axis=1)
            if np.isinf(scale).any():
                k = far[np.isinf(scale).argmax()]
                raise DegenerateSpring(f"spring ({i[k]}, {j[k]}) separation overflows")
            scaled = dx[far] / scale[:, None]
            norm = _row_norms(scaled)
            length[far] = scale * norm
    bad = np.flatnonzero(length <= 1e-12 * np.abs(positions).max())
    if bad.size:
        k = bad[0]
        raise DegenerateSpring(
            f"spring ({i[k]}, {j[k]}) endpoints coincide (separation {length[k]:.3e})"
        )
    unit = dx / length[:, None]
    if far.size:  # from the scaled rows: a length past the float range is inf
        unit[far] = scaled / norm[:, None]
    return unit


def _stamp_springs(K, springs, positions, coords):
    """Add the stamps of the :class:`SpringColumns` ``springs`` to the flat
    ``K``, spring by spring."""
    i, j, stiffness = springs
    nvec = spring_directions(positions, i, j)
    axis = np.concatenate([nvec, -nvec], axis=1)
    c = np.concatenate([coords[i], coords[j]], axis=1)
    for start in range(0, len(stiffness), STAMP_CHUNK):
        part = slice(start, start + STAMP_CHUNK)
        index = c[part, :, None] * coords.size + c[part, None, :]
        ax = axis[part]
        stamp = stiffness[part, None, None] * (ax[:, :, None] * ax[:, None, :])
        np.add.at(K, index.ravel(), stamp.ravel())


def assemble_elements(nodes, elements, dimension, rayleigh):
    """Assemble the system matrices of nodes joined by stiffness elements.

    Each element adds a symmetric stamp to ``K``; a :class:`SpringColumns`
    element stands for its springs in order. A spring between nodes ``i, j``
    with unit vector ``n`` along it adds ``k * n n^T`` on the (i,i) and (j,j)
    diagonal blocks and ``-k * n n^T`` on the off-diagonal ones; an ideal
    elastic element adds ``f f^T`` on the coordinates of its support. The
    node masses are kept as a vector; the mass and damping matrices follow
    (:attr:`SystemMatrices.M`, :attr:`SystemMatrices.C`).
    The coordinates of terminal nodes are numbered first, then those of
    the interior nodes, each in node order.

    Springs are stamped as columns. ``np.add.at`` applies the updates one
    at a time in element order, so every entry of ``K`` is the same sum, in
    the same order, as stamping element by element.
    """
    d = dimension
    positions = np.array([node.position for node in nodes], dtype=float)
    terminal = np.array([node.is_terminal for node in nodes])
    first = np.argsort(~terminal, kind="stable")  # terminals, then interior
    coords = np.empty((len(nodes), d), dtype=np.intp)  # row k: node k's coordinates
    coords[first] = np.arange(len(nodes) * d).reshape(-1, d)
    K = np.zeros(coords.size * coords.size)
    for kind, run in groupby(elements, type):
        if kind is Spring:
            run = (SpringColumns.of(run),)
        for el in run:
            if isinstance(el, SpringColumns):
                _stamp_springs(K, el, positions, coords)
                continue
            c = coords[list(el.support)].ravel()
            stamp = np.outer(el.force_vector, el.force_vector)
            np.add.at(K, (c[:, None] * coords.size + c).ravel(), stamp.ravel())
    return SystemMatrices(
        K=SymMatrix(K.reshape(coords.size, coords.size), copy=False),
        node_masses=[nodes[k].mass for k in first],
        dimension=d,
        rayleigh=rayleigh,
        terminal_positions=positions[terminal],
    )


def assemble(net):
    """Assemble the system matrices of a network (see :func:`assemble_elements`)."""
    return assemble_elements(net.nodes, (net.spring_columns,), net.dimension, net.rayleigh)


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

    positions = np.empty((n_total, d))
    for placed in range(n_total):
        for _attempt in range(200):
            cand = rng.uniform(0.0, 1.0, size=d)
            if (_row_norms(cand - positions[:placed]) >= MIN_NODE_SEPARATION).all():
                positions[placed] = cand
                break
        else:
            raise GenerationFailed(
                f"could not place {n_total} nodes at separation "
                f">= {MIN_NODE_SEPARATION}"
            )

    ends, stiffness = [], []
    order = rng.permutation(n_total)
    for k in range(1, n_total):
        ends.append((int(order[k]), int(order[rng.integers(0, k)])))
        stiffness.append(rng.uniform(0.5, 2.0))
    tree = np.array(ends)
    in_tree = np.zeros((n_total, n_total), dtype=bool)
    in_tree[tree.min(1), tree.max(1)] = True
    a, b = np.nonzero(np.triu(~in_tree, 1))  # the other pairs in row-major order
    a, b, extra = _extra_pairs(rng, a, b)
    i, j = np.concatenate([tree, np.stack([a, b], 1)]).T
    stiffness = np.concatenate([stiffness, extra])

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
    return ElastodynamicNetwork(d, tuple(nodes), SpringColumns(i, j, stiffness), ray)


def _extra_pairs(rng, a, b):
    """The pairs ``(a, b)`` that each take a spring with probability 0.3,
    and their stiffnesses, from the stream that draws, pair by pair, one
    ``rng.random()`` and for a pair taken one ``rng.uniform(0.5, 2.0)``
    (bitwise ``0.5 + 1.5 * rng.random()``).

    No pair takes more than two doubles, so the stream is drawn in one
    block of twice the pairs and walked; then the generator's state is
    restored and exactly the doubles used are drawn again, which leaves it
    as the pair-by-pair draws would (``bit_generator.advance`` would not:
    it drops the 32-bit half that ``rng.integers`` keeps buffered).

    A stiffness follows each draw below 0.3 that decides a pair, and a
    decision follows a stiffness, so a run of draws below 0.3 starts with a
    decision and alternates: a draw is a stiffness exactly when the run of
    draws below 0.3 just before it has odd length.
    """
    if not a.size:
        return a, b, np.empty(0)
    state = rng.bit_generator.state
    u = rng.random(2 * a.size)
    low = u < 0.3
    at = np.arange(u.size)
    run = at - np.maximum.accumulate(np.where(low, -1, at))  # draws below 0.3 ending here
    stiff = np.zeros(u.size, dtype=bool)
    stiff[1:] = run[:-1] % 2 == 1
    decision = np.flatnonzero(~stiff)[:a.size]
    taken = low[decision]
    rng.bit_generator.state = state
    rng.random(decision[-1] + 1 + taken[-1])
    return a[taken], b[taken], 0.5 + 1.5 * u[decision[taken] + 1]


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


NODE_FIELDS = ("position", "mass", "terminal")


def node_from_dict(raw, path, d):
    jsonio.check_fields(raw, path, NODE_FIELDS)
    try:
        return Node(
            tuple(jsonio.as_vector(raw["position"], f"{path}.position", d)),
            jsonio.as_number(raw["mass"], f"{path}.mass"),
            jsonio.as_bool(raw["terminal"], f"{path}.terminal"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _nodes_from_list(rows, path, d):
    """The nodes of a JSON node list, checked column by column; a list that
    fails a check is read node by node, naming the first bad one."""
    rows = jsonio.as_list(rows, path)
    try:  # KeyError: a field is missing; OverflowError: past the float range
        if {*map(type, rows)} <= {dict} and {*map(len, rows)} <= {3}:
            pos, mass, terminal = ([raw[key] for raw in rows] for key in NODE_FIELDS)
            lists = {*map(type, pos)} <= {list} and {*map(len, pos)} <= {d}
            if lists and {*map(type, terminal)} <= {bool}:
                coords = [x for row in pos for x in row]
                # a bool is not a number
                if {*map(type, coords), *map(type, mass)} <= {int, float}:
                    xyz, m = np.array(coords, dtype=float), np.array(mass, dtype=float)
                    if np.isfinite(xyz).all() and np.isfinite(m).all() and (m >= 0).all():
                        positions = map(tuple, xyz.reshape(-1, d).tolist())
                        return list(map(Node, positions, m.tolist(), terminal))
    except (KeyError, OverflowError):
        pass
    return [node_from_dict(raw, f"{path}[{k}]", d) for k, raw in enumerate(rows)]


def element_to_dict(el):
    """A spring as ``{i, j, k}``, an ideal element as ``{support, f}``."""
    if isinstance(el, Spring):
        return {"i": el.i, "j": el.j, "k": el.stiffness}
    return {"support": list(el.support), "f": el.force_vector.tolist()}


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


def _springs_from_list(rows, path):
    """The springs of a JSON spring list as :class:`SpringColumns`, checked
    column by column; a list that fails a check is read spring by spring,
    naming the first bad one."""
    rows = jsonio.as_list(rows, path)
    try:  # KeyError: a field is missing; OverflowError: past the intp or float range
        if {*map(type, rows)} <= {dict} and {*map(len, rows)} <= {3}:
            i, j, k = ([raw[key] for raw in rows] for key in "ijk")
            # a bool is neither an index nor a stiffness
            if {*map(type, i), *map(type, j)} <= {int} and {*map(type, k)} <= {int, float}:
                ends = np.array([i, j], dtype=np.intp).reshape(2, -1)
                k = np.array(k, dtype=float)
                if (ends[0] != ends[1]).all() and (k > 0).all() and np.isfinite(k).all():
                    return SpringColumns(*ends, k)
    except (KeyError, OverflowError):
        pass
    return [spring_from_dict(raw, f"{path}[{q}]") for q, raw in enumerate(rows)]


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
    i, j, k = (column.tolist() for column in net.spring_columns)
    return {
        "dimension": net.dimension,
        "nodes": [node_to_dict(n) for n in net.nodes],
        "springs": [{"i": a, "j": b, "k": s} for a, b, s in zip(i, j, k)],
        "rayleigh": rayleigh_to_dict(net.rayleigh),
    }


def network_from_dict(obj, path="network"):
    jsonio.check_fields(obj, path, ("dimension", "nodes", "springs", "rayleigh"))
    d = jsonio.as_int(obj["dimension"], f"{path}.dimension")
    if d not in (2, 3):
        raise SchemaError(f"{path}.dimension: must be 2 or 3")
    nodes = _nodes_from_list(obj["nodes"], f"{path}.nodes", d)
    springs = _springs_from_list(obj["springs"], f"{path}.springs")
    ray = rayleigh_from_dict(obj["rayleigh"], f"{path}.rayleigh")
    try:
        return ElastodynamicNetwork(d, tuple(nodes), springs, ray)
    except (ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
