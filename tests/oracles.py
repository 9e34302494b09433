"""Reference constructions the tests compare the package against."""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from elastonet import (
    AtResonance,
    DimensionMismatch,
    ElastodynamicNetwork,
    GenerationFailed,
    IdealElasticElement,
    Node,
    NotCharacterizable,
    PlacementFailed,
    SchemaError,
    Spring,
    SymMatrix,
    ZeroForce,
    check_balanced,
)
from elastonet import model
from elastonet.geometry import HULL_CACHE_SIZE, cross, project_balanced
from elastonet.linalg import EIGH_GUARD, PINV_TOL
from elastonet.model import (
    RayleighParams,
    SpringColumns,
    assemble_elements,
    node_from_dict,
    rayleigh_from_dict,
    spring_directions,
    spring_from_dict,
)
from elastonet.response import ROUNDTRIP_TOL, canonical_responses
from elastonet.synthesize import (
    PLACEMENT_DRAWS,
    RANK_TOL,
    NetworkComponent,
    _placement_constraints,
    _reduce_gadgets,
    _terminal_nodes,
)


def schur_complement_by_index(a, boundary, interior, mode="pseudoinverse"):
    """The SVD Schur complement of a ``SymMatrix`` with its three blocks
    gathered by ``np.ix_`` from the index lists ``boundary`` and
    ``interior``, in any order: the reference for
    ``linalg.schur_complement`` on a boundary-first array. With
    ``mode="inverse"`` an interior block that the pseudoinverse would
    truncate raises :class:`AtResonance`, the resonance rule ``smin <=
    PINV_TOL * smax`` of a direct solve."""
    b, i = list(boundary), list(interior)
    a_bb = a.a[np.ix_(b, b)]
    if not (b and i):
        return SymMatrix(a_bb)
    a_bi = a.a[np.ix_(b, i)]
    u, s, vh = np.linalg.svd(a.a[np.ix_(i, i)])
    keep = s > PINV_TOL * s[0]
    if mode == "inverse" and not keep.all():
        raise AtResonance(
            f"interior block numerically singular: smallest singular value "
            f"{s[-1]:.3e} vs threshold {PINV_TOL * s[0]:.3e}"
        )
    r = int(keep.sum())
    inv = (vh[:r].conj().T * (1.0 / s[:r])) @ np.ascontiguousarray(u[:, :r].conj().T)
    x = a_bi @ inv @ a_bi.T
    return SymMatrix(a_bb - 0.5 * (x + x.T))


def schur_complement_eigh_by_index(a, boundary, interior):
    """The ``eigh`` Schur complement of a real ``SymMatrix`` with its blocks
    gathered by ``np.ix_`` from the index lists ``boundary`` and
    ``interior``: the reference for ``linalg.schur_complement_eigh`` on a
    boundary-first array, deferring to :func:`schur_complement_by_index`
    where that kernel defers to the SVD."""
    b, i = list(boundary), list(interior)
    a_bb = a.a[np.ix_(b, b)]
    if not (b and i):
        return SymMatrix(a_bb)
    w, u = np.linalg.eigh(a.a[np.ix_(i, i)])
    mag = np.abs(w)
    keep = mag > PINV_TOL * mag.max()
    if not mag.max() or mag[keep].min() <= EIGH_GUARD * mag.max():
        return schur_complement_by_index(a, b, i)
    y = a.a[np.ix_(b, i)] @ u[:, keep]
    x = (y / w[keep]) @ y.T
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


def direct_response_by_index(net, lam):
    """The direct response of a network as one expression in node order,
    ``K + lam*C + lam*lam*M`` of :func:`node_major`, then
    :func:`schur_complement_by_index`: the reference for
    ``response._direct_response`` of ``assemble(net)``."""
    lam = complex(lam)
    K, M, b, i = node_major(net)
    pencil = SymMatrix(K + lam * net.rayleigh.damping(K, M) + lam * lam * M)
    return schur_complement_by_index(pencil, b, i)


def direct_response(sys, lam, mode="pseudoinverse"):
    """The direct response of an assembled system: the ``(n_b, n_b)``
    :func:`schur_complement_by_index` of the interior of ``K + lam*C +
    lam*lam*M``, with the bits of ``response._direct_response``; with
    ``mode="inverse"`` a numerically singular interior block raises
    :class:`AtResonance`."""
    lam = complex(lam)
    K, M = sys.K.a, sys.M.a
    pencil = SymMatrix(K + lam * sys.rayleigh.damping(K, M) + lam * lam * M)
    return schur_complement_by_index(pencil, range(sys.n_b), range(sys.n_b, sys.order), mode).a


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


def random_network_by_pair(
    seed,
    d,
    n_terminals,
    n_interior,
    mass_fraction,
    alpha=None,
    beta=None,
):
    """``random_network`` drawing its stream one call at a time: one
    ``np.linalg.norm`` per placed node in the separation test and one
    ``rng.random()`` per non-tree node pair. The reference for the
    generator, which draws the same stream in blocks."""
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
                np.linalg.norm(cand - p) >= model.MIN_NODE_SEPARATION for p in positions
            ):
                positions.append(cand)
                break
        else:
            raise GenerationFailed(
                f"could not place {n_total} nodes at separation "
                f">= {model.MIN_NODE_SEPARATION}"
            )

    ends, stiffness = [], []
    order = rng.permutation(n_total)
    for k in range(1, n_total):
        ends.append((int(order[k]), int(order[rng.integers(0, k)])))
        stiffness.append(rng.uniform(0.5, 2.0))
    tree_pairs = {(min(e), max(e)) for e in ends}
    for a in range(n_total):
        for b in range(a + 1, n_total):
            if (a, b) not in tree_pairs and rng.random() < 0.3:
                ends.append((a, b))
                stiffness.append(rng.uniform(0.5, 2.0))

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
    return ElastodynamicNetwork(d, tuple(nodes), SpringColumns(*zip(*ends), stiffness), ray)


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
    :func:`direct_response_by_index` where that fails or deviates. The
    full-pencil reference for ``response._reconstruction_error`` of
    ``assemble(net)``."""
    return full_pencil_check(*node_major(net), net.rayleigh, lams)(cr)


def reconstruction_error_massless_once(net, cr, lams):
    """The extraction self-check with the massless interior eliminated once
    (:func:`massless_once_check`): the reference for
    ``response._reconstruction_error`` of ``assemble(net)``."""
    return massless_once_check(net, lams)(cr)


def full_pencil_check(K, M, b, i, rayleigh, lams):
    """:func:`reconstruction_error_by_point` of node-order ``K`` and ``M``,
    any symmetric ``M``, with terminal coordinates ``b`` and interior ``i``,
    as a function of the form (:func:`_point_check`)."""
    C = rayleigh.damping(K, M)
    return _point_check((K, C, M), b, i, lams, (K, C, M), b, i)


def massless_once_check(net, lams):
    """The self-check of ``net`` with its massless interior eliminated once,
    as a function of the form. On :func:`node_major`, with ``X`` the
    terminal then the massive interior coordinates and ``L`` the massless
    ones, each an index list in node order, ``Khat = K_XX - (Y + Y^T)/2``
    with ``Y = K_XL K_LL^-1 K_LX`` by one LU solve; each point solves the
    massive interior of the pencil of ``Khat``, ``alpha*Khat + beta*M_XX``
    and ``M_XX``. Without a massless coordinate, or when that solve raises or
    ``Khat`` is not finite, it is :func:`full_pencil_check`."""
    K, M, b, i = node_major(net)
    massive = [c for c in i if M[c, c] != 0.0]
    massless = [c for c in i if M[c, c] == 0.0]
    x = b + massive
    if massless:
        try:
            with np.errstate(all="ignore"):
                y = K[np.ix_(x, massless)] @ np.linalg.solve(
                    K[np.ix_(massless, massless)], K[np.ix_(massless, x)]
                )
                khat = K[np.ix_(x, x)] - 0.5 * (y + y.T)
        except np.linalg.LinAlgError:
            khat = None
        if khat is not None and np.isfinite(khat).all():
            m_xx = M[np.ix_(x, x)]
            full = (K, net.rayleigh.damping(K, M), M)
            parts = (khat, net.rayleigh.damping(khat, m_xx), m_xx)
            local = list(range(len(x)))
            return _point_check(full, b, i, lams, parts, local[:len(b)], local[len(b):])
    return full_pencil_check(K, M, b, i, net.rayleigh, lams)


def _point_check(full, b, i, lams, parts, pb, pi):
    """The worst relative gap of a form from the direct response at
    ``lams``, as a function of the form. Each point's LU value comes from
    the pencil of ``parts`` (``K``, ``C``, ``M``) with boundary ``pb`` and
    interior ``pi``, solved once; where it fails or deviates, the
    pseudoinverse value of the pencil of ``full`` with boundary ``b`` and
    interior ``i`` counts, with the bits of
    :func:`direct_response_by_index`, computed once a point when a form
    first needs it. The floor is that of ``full``."""
    K, C, M = full
    norms = [np.abs(x).max() for x in full]
    floors = [1e-4 * (norms[0] + norms[1] * abs(lam) + norms[2] * abs(lam) ** 2) for lam in lams]
    direct = []
    for lam in lams:
        try:
            with np.errstate(all="ignore"):
                a = parts[0] + lam * parts[1] + lam * lam * parts[2]
                x = np.linalg.solve(a[np.ix_(pi, pi)], a[np.ix_(pi, pb)])
                xb = a[np.ix_(pb, pi)] @ x
                direct.append(a[np.ix_(pb, pb)] - 0.5 * (xb + xb.T))
        except np.linalg.LinAlgError:
            direct.append(None)
    pinv = {}

    def fallback(p):
        if p not in pinv:
            lam = complex(lams[p])
            pencil = SymMatrix(K + lam * C + lam * lam * M)
            pinv[p] = schur_complement_by_index(pencil, b, i).a
        return pinv[p]

    def gap(closed, value, floor):
        with np.errstate(all="ignore"):
            return np.abs(closed - value).max() / max(np.abs(value).max(), floor, 1e-300)

    def worst(cr):
        out = 0.0
        for p, closed in enumerate(canonical_responses(cr, lams)):
            err = np.inf if direct[p] is None else gap(closed, direct[p], floors[p])
            if not err <= ROUNDTRIP_TOL:
                err = gap(closed, fallback(p), floors[p])
            out = max(out, err)
        return out

    return worst


def static_response_by_mode(cr):
    """``W(0) = A - sum_j R_j / sigma_j`` one mode at a time, each term
    divided and checked in mode order: the reference for
    ``CanonicalResponse.static_response``."""
    w0 = cr.A.a.copy()
    for k, (sigma, r) in enumerate(zip(cr.sigmas.tolist(), cr.residues)):
        with np.errstate(all="ignore"):
            term = r / sigma
        if not np.isfinite(term).all():
            raise AtResonance(f"W(0) is undefined: mode {k} has sigma = "
                              f"{sigma:.6g}, a pole at lambda = 0")
        w0 = w0 - term
    return SymMatrix(w0)


def canonical_block_twin(cr, lams):
    """The pole-residue form at one block of points, ``(P, n, n)``, by the
    formula of ``response.modal_sum`` written out again: the residues'
    upper triangles gathered mode by mode, ``q_j = sigma_j + (alpha*sigma_j
    + beta)*lambda + lambda^2`` with ``lambda^2`` from its parts, one real
    GEMM per part of ``damp^2/q_j``, and the triangle written into W and its
    transpose. No point is checked. The reference for
    ``canonical_responses`` on a block: a GEMM's bits depend on its shape,
    so this one must be given the same block of points."""
    n = cr.order
    rows, cols = np.triu_indices(n)
    residues = np.array([r[rows, cols] for r in cr.residues]).reshape(-1, rows.size)
    lam = np.array([complex(x) for x in lams]).reshape(-1, 1)
    x, y = lam.real, lam.imag
    square = np.empty_like(lam)
    square.real, square.imag = x * x - y * y, x * y + y * x
    alpha, beta = cr.rayleigh.alpha, cr.rayleigh.beta
    damp, inertia = 1.0 + alpha * lam, beta * lam + square
    sigma = np.array(cr.sigmas.tolist())
    with np.errstate(all="ignore"):
        c = damp * damp / (sigma + (alpha * sigma + beta) * lam + square)
        upper = damp * cr.A.a[rows, cols] + inertia * np.diag(cr.Mbb)[rows, cols]
        upper.real -= np.ascontiguousarray(c.real) @ residues
        upper.imag -= np.ascontiguousarray(c.imag) @ residues
    w = np.empty((len(lam), n, n), dtype=complex)
    w[:, rows, cols] = upper
    w[:, cols, rows] = upper
    return w


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


def rank_one_response(f, sigma, rayleigh, lam):
    """Closed-form gadget response at one Laplace point:
    ``[(1+alpha*lam) - (1+alpha*lam)^2 sigma / q(lam)] f f^T``, the
    reference a gadget's own response is tested against."""
    lam = complex(lam)
    f = np.asarray(f, dtype=float).ravel()
    damp = 1.0 + rayleigh.alpha * lam
    q = sigma + (rayleigh.alpha * sigma + rayleigh.beta) * lam + lam * lam
    return SymMatrix((damp - damp * damp * sigma / q) * np.outer(f, f))


# ---------------------------------------------------------------------------
# The synthesis construction one gadget at a time: each block factored by its
# own eigh, each gadget drawn, balanced, checked and built by the calls
# below, in order. The reference for the stacked construction of
# ``synthesize``; ``construction_one_by_one`` runs it.
# ---------------------------------------------------------------------------


def total_torque(positions, forces):
    """``sum_i x_i x f_i`` of (n, d) positions and forces, as a 1-D array."""
    t = np.atleast_1d(cross(positions, forces))
    return t.reshape(len(positions), -1).sum(axis=0)


def balance_check(positions, forces, threshold):
    """``(passed, residual)`` of the equilibrium of a force system.

    ``positions`` is (n, d), ``forces`` is (n, d). ``residual`` is
    ``max(|sum f|_inf, |sum x_i x f_i|_inf)``. The force residual passes at
    ``threshold``. A torque is a force times a length, and so is its
    rounding: the torque residual passes at ``threshold * max(1, max|x|)``,
    with ``max|x|`` the largest coordinate magnitude of ``positions``. The
    verdict thus holds when the lengths grow, and up to unit lengths both
    residuals pass at ``threshold``.
    """
    positions = np.asarray(positions, dtype=float)
    forces = np.asarray(forces, dtype=float)
    if positions.shape != forces.shape:
        raise DimensionMismatch(
            f"positions {positions.shape} vs forces {forces.shape}"
        )
    fsum = forces.sum(axis=0)
    tsum = total_torque(positions, forces)
    force, torque = float(np.abs(fsum).max()), float(np.abs(tsum).max())
    length = max(1.0, float(np.abs(positions).max(initial=0.0)))
    return bool(force <= threshold and torque <= threshold * length), max(force, torque)




def check_balanced_by_column(F, positions, tol=1e-10):
    """``check_balanced`` with one :func:`balance_check` per column of
    ``F``: the reference for the package's stacked verdict."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, d = positions.shape
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    threshold = tol * (1.0 + np.abs(F).max())
    checks = [balance_check(positions, col.reshape(n, d), threshold) for col in F.T]
    return all(ok for ok, _ in checks), max(residual for _, residual in checks)


def _finite(name, values):
    """``values`` as a float array, refused up front (:class:`DimensionMismatch`
    naming the argument) unless every entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DimensionMismatch(f"{name} must be finite")
    return values


def _solve_couple(x1, x2, f_rem, tau, min_force):
    """Forces (g1 at x1, g2 at x2) cancelling net force f_rem and torque tau.

    ``tau`` is the torque of the full system once ``f_rem`` has been
    assigned to x1. The couple part is the minimum-norm solution of
    ``(x1 - x2) x h = -tau``; in three dimensions that requires the joining
    direction to be orthogonal to ``tau``. The null direction (equal and
    opposite forces along the joining line) is used to inflate ``|g|`` up to
    ``min_force`` without disturbing the balance.
    """
    w = x1 - x2
    wnorm2 = float(w @ w)
    if wnorm2 == 0.0:
        return None
    d = len(x1)
    if d == 2:
        h = (-float(tau[0]) / wnorm2) * np.array([-w[1], w[0]])
    else:
        if abs(float(w @ tau)) > 1e-9 * (np.linalg.norm(w) * np.linalg.norm(tau) + 1e-300):
            return None  # torque not cancellable along this joining direction
        h = cross(w, tau) / wnorm2
    g1 = f_rem + h
    g2 = -h
    g = np.concatenate([g1, g2])
    if min_force > 0.0 and np.linalg.norm(g) < min_force:
        t = (min_force + np.linalg.norm(h)) / np.sqrt(wnorm2)
        g = np.concatenate([g1 + t * w, g2 - t * w])
    return g


def _draw_point(rng, terminals, epsilon_hull, avoid, clearance, jitter_frac):
    """Random point within ``jitter_frac * epsilon_hull`` of the hull."""
    nt, d = terminals.shape
    weights = rng.dirichlet(np.ones(nt)) if nt > 1 else np.array([1.0])
    base = weights @ terminals
    direction = rng.standard_normal(d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return None
    radius = jitter_frac * epsilon_hull * rng.uniform(0.1, 1.0)
    point = base + (radius / norm) * direction
    if (np.linalg.norm(avoid - point, axis=1) < clearance).any():
        return None
    return point


def balance_forces(
    terminals,
    f,
    epsilon_hull=0.1,
    forbidden=(),
    seed=0,
    min_clearance=None,
    min_force=0.0,
):
    """Complete an arbitrary terminal force system to a balanced one.

    Places two new nodes near the convex hull of the terminals and returns
    ``(x1, x2, g)`` where ``g`` stacks the two balancing forces: the full
    system (``f`` at the terminals, ``g`` at the new nodes) has zero total
    force and torque. The two positions are drawn with the requested
    hull/forbidden clearances. ``min_force`` requests
    ``|g|`` at least that large, achieved by adding an equal-and-opposite
    force pair along the joining line, which never disturbs the balance.
    Terminals and forces that are not finite are refused up front.
    """
    terminals = np.atleast_2d(_finite("terminals", terminals))
    nt, d = terminals.shape
    fmat = _finite("f", f).reshape(nt, d)
    forb, clearance = _placement_constraints(
        terminals, forbidden, min_clearance, epsilon_hull
    )
    f_rem = -fmat.sum(axis=0)
    tau_terminals = total_torque(terminals, fmat)
    scale = 1.0 + np.abs(fmat).max()

    def residual_torque(x1):
        # the torque of the system once f_rem is assigned to x1
        return tau_terminals + np.atleast_1d(cross(x1, f_rem))

    rng = np.random.default_rng(seed)
    avoid = np.vstack([forb, terminals]) if forb.size else terminals
    for _ in range(PLACEMENT_DRAWS):
        jitter1 = 0.45 if d == 3 else 0.9
        x1 = _draw_point(rng, terminals, epsilon_hull, avoid, clearance, jitter1)
        if x1 is None:
            continue
        tau = residual_torque(x1)
        if d == 2:
            x2 = _draw_point(rng, terminals, epsilon_hull, avoid, clearance, 0.9)
            if x2 is None:
                continue
        else:
            tnorm = np.linalg.norm(tau)
            if tnorm > 1e-12 * scale:
                probe = rng.standard_normal(3)
                u = cross(tau, probe)
                if np.linalg.norm(u) < 1e-9 * tnorm:
                    continue
            else:
                u = rng.standard_normal(3)
                if np.linalg.norm(u) == 0.0:
                    continue
            u = u / np.linalg.norm(u)
            step = epsilon_hull * rng.uniform(0.1, 0.5)
            x2 = x1 - step * u
            if (np.linalg.norm(avoid - x2, axis=1) < clearance).any():
                continue
        separation = np.linalg.norm(x1 - x2)
        if separation < max(clearance, 0.02 * epsilon_hull):
            continue
        g = _solve_couple(x1, x2, f_rem, tau, min_force)
        if g is None:
            continue
        _assert_balanced(terminals, fmat, x1, x2, g, scale)
        return x1, x2, g
    raise PlacementFailed(
        f"no admissible balancing pair found in {PLACEMENT_DRAWS} draws "
        f"(epsilon_hull={epsilon_hull}, clearance={clearance:.3e})"
    )


def _assert_balanced(terminals, fmat, x1, x2, g, scale):
    d = terminals.shape[1]
    points = np.vstack([terminals, x1, x2])
    forces = np.vstack([fmat, g[:d], g[d:]])
    balanced, residual = balance_check(points, forces, 1e-10 * scale)
    if not balanced:
        raise PlacementFailed(
            f"balancing construction left residual {residual:.3e}"
        )


def _place_gadget(terminals, terminal_nodes, f, sigma, rayleigh, **placement):
    """One rank-one gadget component, not yet checked, on the shared
    massless ``terminal_nodes`` (None: built once placed)."""
    terminals = np.atleast_2d(_finite("terminals", terminals))
    nt, d = terminals.shape
    f, sigma = _finite("f", f).ravel(), float(_finite("sigma", sigma))
    if f.size != nt * d:
        raise ValueError(f"force vector length {f.size}, expected {nt * d}")
    fnorm = np.linalg.norm(f)
    if fnorm == 0.0:
        raise ZeroForce("rank-one gadget needs a nonzero force vector")
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    x1, x2, g = balance_forces(terminals, f, min_force=max(1e-2, 0.1 * fnorm), **placement)
    mass = float(g @ g) / float(sigma)
    if terminal_nodes is None:
        terminal_nodes = _terminal_nodes(terminals, np.zeros(nt))
    nodes = (*terminal_nodes, Node(tuple(x1), mass, False), Node(tuple(x2), mass, False))
    element = IdealElasticElement(
        support=tuple(range(nt + 2)), force_vector=np.concatenate([f, g])
    )
    return NetworkComponent(
        kind="rank_one_gadget",
        nodes=nodes,
        n_terminals=nt,
        elements=(element,),
        rayleigh=rayleigh,
        dimension=d,
    )



def _rank_one_factors(matrix, positions=None, what="", floor=0.0):
    """Spectral factorization of a PSD block into rank-one force vectors.

    Eigenvalues at or below ``RANK_TOL`` times the largest (or below the
    absolute ``floor``, which callers derive from the magnitudes whose
    cancellation produced the block) are treated as rank deficiency. With
    ``positions`` the factors are projected onto the balanced-force
    subspace: the block's columns are balanced, so its range lies in that
    subspace up to rounding, but eigenvectors of near-threshold eigenvalues
    amplify the rounding and need the projection to be usable as element
    force systems.
    """
    vals, vecs = np.linalg.eigh(matrix)
    top = max(float(vals[-1]), 0.0)
    cutoff = max(RANK_TOL * max(top, 1e-300), floor)
    factors = []
    for k in range(len(vals)):
        if vals[k] > cutoff:
            factors.append(np.sqrt(vals[k]) * vecs[:, k])
    if positions is not None:
        factors = project_balanced(factors, positions)
        for w in factors:
            ok, residual = check_balanced(w, positions, tol=1e-9)
            if not ok:
                raise NotCharacterizable(
                    f"{what} factor is not a balanced force system "
                    f"(residual {residual:.3e})"
                )
    return factors


def construction_one_by_one(cr, epsilon_hull=0.1, forbidden=(), seed=0, min_clearance=None):
    """``(static_factors, gadgets)`` of ``synthesize(cr, ...)`` built one
    at a time: the balanced factors of the static slice, and the
    ``(component, sigma)`` pairs of the rank-one gadgets, placed by
    :func:`_place_gadget` in order and reduced as one stack."""
    nt, d = cr.n_terminals, cr.dimension
    terminals = cr.terminal_positions
    user_forbidden, clearance = _placement_constraints(
        terminals, forbidden, min_clearance, epsilon_hull
    )
    rng = np.random.default_rng(seed)
    modes = list(zip(cr.sigmas.tolist(), cr.residues))
    static_scale = np.abs(cr.A.a).max() + sum(np.abs(r).max() / sigma for sigma, r in modes)
    static_factors = _rank_one_factors(
        static_response_by_mode(cr).a, terminals, what="static slice",
        floor=1e-12 * static_scale,
    )
    massless = _terminal_nodes(terminals, np.zeros(nt))
    factors = [(sigma, v) for sigma, r in modes for v in _rank_one_factors(r / sigma)]
    # each gadget keeps clear of the user's points and of the nodes placed
    # before it, which fill this array in order
    placed = np.empty((len(user_forbidden) + 2 * len(factors), d))
    placed[:len(user_forbidden)] = user_forbidden
    used = len(user_forbidden)
    gadgets = []
    try:
        for sigma, v in factors:
            gadget = _place_gadget(terminals, massless, v, sigma, cr.rayleigh,
                                   epsilon_hull=epsilon_hull, forbidden=placed[:used],
                                   seed=rng, min_clearance=clearance)
            gadgets.append((gadget, sigma))
            placed[used:used + 2] = gadget.internal_positions
            used += 2
    finally:  # also after a failed placement: a gadget placed before it fails first
        _reduce_gadgets(gadgets)
    return static_factors, gadgets


# The hull kernel as it was with its maps stored subset-major: rows of one
# subset together, an (R, 2d + 1) view of the output reduced row by row.
# ``geometry.hull_distance`` stores them coordinate-major and must give
# the same bits.


@lru_cache(maxsize=HULL_CACHE_SIZE)
def _row_major_hull_systems(shape, data):
    pts = np.frombuffer(data).reshape(shape)
    n, d = shape
    maps = [np.zeros((0, 2 * d + 1, d + 1))]
    for size in range(2, min(n, d + 1) + 1):
        p = pts[np.array(list(itertools.combinations(range(n), size)))]
        kkt = np.ones((len(p), size + 1, size + 1))
        kkt[:, :size, :size] = 2.0 * (p @ p.swapaxes(1, 2))
        kkt[:, size, size] = 0.0
        regular = np.linalg.slogdet(kkt)[0] != 0.0
        p, kkt = p[regular], kkt[regular]
        rhs = np.zeros((len(p), size + 1, d + 1))
        rhs[:, :size, :d], rhs[:, size, d] = 2.0 * p, 1.0
        t = np.linalg.solve(kkt, rhs)[:, :size]
        # 2d + 1 rows a subset: t padded with zeros to d + 1, then p^T t - x
        m = np.zeros((len(p), 2 * d + 1, d + 1))
        m[:, :size], m[:, d + 1:] = t, p.swapaxes(1, 2) @ t - np.eye(d, d + 1)
        maps.append(m)
    maps = np.concatenate(maps).reshape(-1, d + 1)
    maps.flags.writeable = False
    return maps


def row_major_hull_distance(x, points):
    """``hull_distance`` on subset-major maps."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if x.shape != (d,):
        raise DimensionMismatch(f"point has shape {x.shape}, hull points are {d}-dim")
    best = np.sqrt(((pts - x) ** 2).sum(-1)).min()
    if best == 0.0:
        return 0.0
    maps = _row_major_hull_systems(pts.shape, pts.tobytes())
    out = (maps @ np.concatenate([x, [1.0]])).reshape(-1, 2 * d + 1)
    feasible = out[:, :d + 1].min(axis=1) >= -1e-12
    cand = np.sqrt(np.square(out[feasible, d + 1:]).sum(axis=1))  # np.linalg.norm's sum
    return float(np.fmin.reduce(cand, initial=best))  # fmin skips NaN candidates
