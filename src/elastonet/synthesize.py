"""Build a network realizing an admissible pole-residue response.

The construction superposes three kinds of components that share terminal
nodes and only terminal nodes, so their responses add:

* one component of ideal rank-one elastic elements realizing the static
  slice ``(1 + alpha*lambda) * W(0)`` via the spectral factorization
  ``W(0) = sum_k w_k w_k^T`` (each factor is a balanced force system);
* one component of terminal masses realizing
  ``(beta*lambda + lambda^2) * diag(Mbb)``;
* per mode, one two-internal-node gadget per rank of the residue. A gadget
  supports an ideal element with force vector ``[f; g]`` where ``g``
  balances ``f``, and gives both internal nodes the mass ``m = |g|^2 /
  sigma``; its response is exactly

      [(1+alpha*lambda) - (1+alpha*lambda)^2 sigma / q(lambda)] f f^T,
      q(lambda) = sigma + (alpha*sigma+beta)*lambda + lambda^2,

  with zero static response.

Ideal elements stand in for static spring trusses: the element supported on
nodes with force vector ``f`` contributes the rank-one stiffness ``f f^T``.
Realizing one by literal springs is out of scope here.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jsonio
from .characterize import check_canonical
from .errors import (
    DimensionMismatch,
    NotCharacterizable,
    PlacementFailed,
    ReconstructionMismatch,
    SchemaError,
    ZeroForce,
)
from .geometry import (
    balance_check,
    check_balanced,
    cross,
    hull_diameter,
    hull_distance,
    project_balanced,
    total_torque,
)
from .linalg import SymMatrix
from .model import (
    IdealElasticElement,
    Node,
    RayleighParams,
    Spring,
    assemble_elements,
    element_from_dict,
    element_to_dict,
    node_from_dict,
    node_to_dict,
    rayleigh_from_dict,
    rayleigh_to_dict,
    spring_directions,
)
from .response import (
    ROUNDTRIP_TOL,
    ResponseSample,
    canonical_responses,
    eliminate_massless,
    evaluate_response,
    modal_response,
    modal_stack,
    sample_nonresonant,
    system_resonances,
)

COMPONENT_KINDS = ("springs", "ideal_elements", "terminal_masses", "rank_one_gadget")

# Relative eigenvalue cutoff when factoring PSD blocks into rank-one terms.
RANK_TOL = 1e-12

# Random draws of a balancing node pair before placement gives up.
PLACEMENT_DRAWS = 200


def default_min_clearance(terminals, epsilon_hull):
    """A millionth of the width of the region internal nodes may occupy."""
    return 1e-6 * (hull_diameter(terminals) + 2.0 * epsilon_hull)


def _distances(points, others):
    """(N, F) Euclidean distances between two point sets."""
    return np.linalg.norm(points[:, None, :] - others[None, :, :], axis=-1)


def _finite(name, values):
    """``values`` as a float array, refused up front (:class:`DimensionMismatch`
    naming the argument) unless every entry is finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DimensionMismatch(f"{name} must be finite")
    return values


def _placement_constraints(terminals, forbidden, min_clearance, epsilon_hull):
    """Forbidden points as a (k, d) array, and the clearance or its default."""
    d = terminals.shape[1]
    forb = (
        np.asarray(forbidden, dtype=float).reshape(-1, d)
        if np.size(forbidden)
        else np.zeros((0, d))
    )
    if min_clearance is None:
        return forb, default_min_clearance(terminals, epsilon_hull)
    return forb, float(min_clearance)


@dataclass(frozen=True)
class NetworkComponent:
    """One superposable piece of a generalized network.

    Nodes list every shared terminal first (in global order), then the
    component's own internal nodes. Element force systems are verified
    balanced at construction.
    """

    kind: str
    nodes: tuple
    n_terminals: int
    elements: tuple
    rayleigh: RayleighParams
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if not 1 <= self.n_terminals <= len(self.nodes):
            raise ValueError("component must include every terminal node")
        for k, node in enumerate(self.nodes):
            if node.is_terminal != (k < self.n_terminals):
                raise ValueError("terminal nodes must come first and be flagged")
        d = self.dimension
        positions = np.array([n.position for n in self.nodes])
        for el in self.elements:
            refs = (el.i, el.j) if isinstance(el, Spring) else el.support
            if min(refs) < 0 or max(refs) >= len(self.nodes):
                raise ValueError("element references a missing node")
            if isinstance(el, Spring):
                spring_directions(positions, np.array([el.i]), np.array([el.j]))
                continue
            if el.force_vector.size != len(el.support) * d:
                raise ValueError("ideal element force vector has the wrong length")
            balanced, residual = check_balanced(
                el.force_vector, positions[list(el.support)], tol=1e-8
            )
            if not balanced:
                raise ValueError(
                    f"ideal element force system is unbalanced (residual "
                    f"{residual:.3e})"
                )

    @property
    def internal_positions(self):
        return np.array([n.position for n in self.nodes[self.n_terminals:]]).reshape(
            -1, self.dimension
        )

    @cached_property
    def modal_form(self):
        """``(A, Mbb, sigmas, V)`` of the component assembled and reduced
        (:func:`eliminate_massless`), computed once for :func:`modal_form`.
        A gadget built here has it already, from :func:`_reduce_gadgets`."""
        red = eliminate_massless(assemble_component(self))
        return (red.Ktilde.a[:red.n_b, :red.n_b], red.Mbb, *red.modal)


def assemble_component(comp):
    """System matrices of one component (terminal coordinates first)."""
    return assemble_elements(comp.nodes, comp.elements, comp.dimension, comp.rayleigh)


@dataclass(frozen=True)
class GeneralizedNetwork:
    """Superposition of components sharing exactly the terminal nodes.

    Construction asserts the geometry contract: every internal node lies
    within ``epsilon_hull`` of the convex hull of the terminals, keeps
    ``min_clearance`` from every forbidden point, and internal nodes of all
    components are pairwise separated by ``min_clearance`` (components may
    share terminals only).
    """

    terminals: np.ndarray
    components: tuple
    epsilon_hull: float
    forbidden: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    min_clearance: float = None

    def __post_init__(self):
        terminals = np.atleast_2d(np.asarray(self.terminals, dtype=float))
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "components", tuple(self.components))
        if self.epsilon_hull <= 0:
            raise ValueError("epsilon_hull must be > 0")
        d = terminals.shape[1]
        forb, clearance = _placement_constraints(
            terminals, self.forbidden, self.min_clearance, self.epsilon_hull
        )
        object.__setattr__(self, "forbidden", forb)
        object.__setattr__(self, "min_clearance", clearance)
        internal = []
        for k, comp in enumerate(self.components):
            if comp.dimension != d or comp.n_terminals != len(terminals):
                raise ValueError(f"component {k} does not share the terminal set")
            shared = np.array([n.position for n in comp.nodes[: comp.n_terminals]])
            if not np.array_equal(shared, terminals):
                raise ValueError(f"component {k} terminal positions differ")
            if comp.rayleigh != self.components[0].rayleigh:
                raise ValueError("components must share the damping constants")
            internal.extend(comp.internal_positions)
        internal = np.reshape(internal, (-1, d))
        slack = 1e-9
        outside = np.array([hull_distance(p, terminals) for p in internal]) > (
            self.epsilon_hull + slack
        )
        too_close = clearance * (1.0 - 1e-9)
        forbidden_hit = (_distances(internal, forb) < too_close).any(axis=1)
        # the first offending node in component order; the hull test first
        bad = np.nonzero(outside | forbidden_hit)[0]
        if bad.size:
            p = internal[bad[0]]
            if outside[bad[0]]:
                raise ValueError(
                    f"internal node {p} lies outside the epsilon-neighborhood "
                    f"of the terminal hull"
                )
            raise ValueError(f"internal node {p} violates a forbidden point")
        if np.triu(_distances(internal, internal) < too_close, k=1).any():
            raise ValueError("internal nodes of components must be distinct")

    @property
    def dimension(self):
        return self.terminals.shape[1]

    @property
    def rayleigh(self):
        if self.components:
            return self.components[0].rayleigh
        return RayleighParams(0.0, 0.0)


def evaluate_generalized(gn, lam, mode="inverse"):
    """Response of the superposition, by direct Schur complements.

    The component responses (:func:`evaluate_response`) are added in
    component order; the first resonant component raises :class:`AtResonance`.
    This is the oracle that the network's :func:`modal_form` is tested against.
    """
    nb = gn.terminals.size
    total = np.zeros((nb, nb), dtype=complex)
    for comp in gn.components:
        total = total + evaluate_response(assemble_component(comp), lam, mode).W.a
    return ResponseSample(complex(lam), SymMatrix(total))


# ---------------------------------------------------------------------------
# Force balancing and gadget construction
# ---------------------------------------------------------------------------


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
    candidates=None,
):
    """Complete an arbitrary terminal force system to a balanced one.

    Places two new nodes near the convex hull of the terminals and returns
    ``(x1, x2, g)`` where ``g`` stacks the two balancing forces: the full
    system (``f`` at the terminals, ``g`` at the new nodes) has zero total
    force and torque. With ``candidates`` the two positions are taken as
    given (no placement constraints are applied); otherwise they are drawn
    with the requested hull/forbidden clearances. ``min_force`` requests
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

    if candidates is not None:
        x1 = np.asarray(candidates[0], dtype=float)
        x2 = np.asarray(candidates[1], dtype=float)
        g = _solve_couple(x1, x2, f_rem, residual_torque(x1), min_force)
        if g is None:
            raise PlacementFailed(
                "candidate nodes cannot balance the system (coincident, or "
                "joining direction not orthogonal to the residual torque)"
            )
        _assert_balanced(terminals, fmat, x1, x2, g, scale)
        return x1, x2, g

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


def rank_one_response(f, sigma, rayleigh, lam):
    """Closed-form gadget response at one Laplace point."""
    lam = complex(lam)
    f = np.asarray(f, dtype=float).ravel()
    damp = 1.0 + rayleigh.alpha * lam
    q = sigma + (rayleigh.alpha * sigma + rayleigh.beta) * lam + lam * lam
    return SymMatrix((damp - damp * damp * sigma / q) * np.outer(f, f))


def build_rank_one_gadget(
    terminals,
    f,
    sigma,
    rayleigh,
    epsilon_hull=0.1,
    forbidden=(),
    seed=0,
    min_clearance=None,
    candidates=None,
):
    """Two-internal-node component with response ``w(lambda) f f^T``.

    The internal nodes carry the balancing forces ``g`` of
    :func:`balance_forces` and both receive the mass ``m = |g|^2 / sigma``,
    which pins the gadget's resonances at the roots of
    ``sigma + (alpha*sigma + beta)*lambda + lambda^2`` and makes the static
    response vanish. The gadget's own modes are checked against that
    contract before returning (:func:`_reduce_gadgets`). Terminals, forces
    and ``sigma`` that are not finite are refused up front.
    """
    comp = _place_gadget(terminals, None, f, sigma, rayleigh, epsilon_hull=epsilon_hull,
                         forbidden=forbidden, seed=seed, min_clearance=min_clearance,
                         candidates=candidates)
    _reduce_gadgets([(comp, sigma)])
    return comp


def _terminal_nodes(terminals, masses):
    return tuple(Node(tuple(p), float(m), True) for p, m in zip(terminals, masses))


def _place_gadget(terminals, terminal_nodes, f, sigma, rayleigh, **placement):
    """The component of :func:`build_rank_one_gadget`, not yet checked, on
    the shared massless ``terminal_nodes`` (None: built once placed)."""
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


def _gadget_matrices(comps):
    """Force vectors ``[f; g]``, stiffnesses and internal masses of gadgets
    on one terminal set; ``K = 0 + [f; g][f; g]^T`` as assembly stamps it."""
    forces = np.array([comp.elements[0].force_vector for comp in comps])
    stiffness = np.zeros((len(comps), forces.shape[1], forces.shape[1]))
    stiffness += forces[:, :, None] * forces[:, None, :]
    return forces, stiffness, np.array([comp.nodes[-1].mass for comp in comps])


def _reduce_gadgets(gadgets):
    """Reduce ``(gadget, sigma)`` pairs as one stack and check each contract.

    A gadget's interior is all massive, so its reduction keeps K whole, and
    its interior block ``g g^T`` is PSD by construction. One
    :func:`modal_stack` gives the bits of :attr:`ReducedSystem.modal` and
    seeds each :attr:`NetworkComponent.modal_form`, read-only. The contract,
    which gives :func:`rank_one_response`: one coupled column, of modal
    stiffness sigma and equal to ``+-sqrt(sigma) f``. The first gadget to
    fail raises :class:`PlacementFailed` for the contract, or what its own
    reduction would for entries that are not finite.
    """
    if not gadgets:
        return
    comps, target = zip(*gadgets)
    d = comps[0].dimension
    nb = comps[0].n_terminals * d
    forces, K, mass = _gadget_matrices(comps)
    inv_sqrt = np.repeat(1.0 / np.sqrt(mass)[:, None], 2 * d, axis=1)
    sigmas, v = modal_stack(K, inv_sqrt, nb)
    count = len(sigmas)
    target = np.array(target[:count])
    column = np.sqrt(target)[:, None] * forces[:count, :nb]
    size = np.linalg.norm(column, axis=1)
    coupled = np.linalg.norm(v, axis=1) > 1e-9 * size[:, None]
    k = np.argmax(coupled, axis=1)[:, None]  # the first coupled column, else 0
    vk = np.take_along_axis(v, k[:, None], axis=2)[:, :, 0]
    gap = np.minimum(np.linalg.norm(vk - column, axis=1), np.linalg.norm(vk + column, axis=1))
    off = np.abs(np.take_along_axis(sigmas, k, axis=1)[:, 0] - target) > 1e-9 * target
    if ((coupled.sum(axis=1) != 1) | off | (gap > 1e-9 * size)).any():
        raise PlacementFailed("gadget response deviates from the closed form")
    if count < len(comps):
        raise DimensionMismatch("matrix entries must be finite")
    K.flags.writeable = sigmas.flags.writeable = v.flags.writeable = False
    terminal_mass = np.broadcast_to(0.0, nb)  # read-only
    for i, comp in enumerate(comps):
        vars(comp)["modal_form"] = K[i, :nb, :nb], terminal_mass, sigmas[i], v[i]


# ---------------------------------------------------------------------------
# Full synthesis
# ---------------------------------------------------------------------------


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


def synthesize(
    cr,
    epsilon_hull=0.1,
    forbidden=(),
    seed=0,
    min_clearance=None,
    check=True,
    report=None,
):
    """Construct a generalized network realizing an admissible response.

    Raises :class:`NotCharacterizable` when the admissibility check fails
    (including a terminal mass diagonal that is not constant within a
    node's coordinate block, which no isotropic nodal mass can realize) and
    :class:`PlacementFailed` when internal nodes cannot be placed. The
    check is ``report``, the :class:`CharacterizationReport` of ``cr``
    when the caller has one, else ``check_canonical(cr)``. With ``check``
    the construction is verified against the closed form at 50 random
    non-resonant points.
    """
    if report is None:
        report = check_canonical(cr)
    if not report.passed:
        raise NotCharacterizable(
            "response violates the admissibility conditions: "
            + ", ".join(report.failing())
        )
    # the terminal-mass isotropy warning is the only one check_canonical emits
    if report.warnings:
        raise NotCharacterizable(
            "terminal mass diagonal varies within a node's coordinate block; "
            "nodal masses act isotropically"
        )
    nt, d = cr.n_terminals, cr.dimension
    terminals = cr.terminal_positions
    user_forbidden, clearance = _placement_constraints(
        terminals, forbidden, min_clearance, epsilon_hull
    )
    rng = np.random.default_rng(seed)
    components = []

    w0 = cr.static_response()
    # the static slice is a difference of the canonical blocks; spectral
    # content below their joint rounding is cancellation noise
    static_scale = np.abs(cr.A.a).max() + sum(
        np.abs(m.R.a).max() / m.sigma for m in cr.modes
    )
    static_factors = _rank_one_factors(
        w0.a, terminals, what="static slice", floor=1e-12 * static_scale
    )
    def on_terminals(kind, nodes, elements):
        return NetworkComponent(
            kind=kind,
            nodes=nodes,
            n_terminals=nt,
            elements=elements,
            rayleigh=cr.rayleigh,
            dimension=d,
        )

    # the massless terminal nodes, built once and shared by the components
    massless = _terminal_nodes(terminals, np.zeros(nt))
    if static_factors:
        elements = tuple(
            IdealElasticElement(tuple(range(nt)), w) for w in static_factors
        )
        components.append(on_terminals("ideal_elements", massless, elements))

    node_masses = cr.Mbb[::d]
    if node_masses.max(initial=0.0) > 0.0:
        components.append(
            on_terminals("terminal_masses", _terminal_nodes(terminals, node_masses), ())
        )

    factors = [(m.sigma, v) for m in cr.modes for v in _rank_one_factors(m.R.a / m.sigma)]
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
    components.extend(gadget for gadget, _ in gadgets)

    gn = GeneralizedNetwork(
        terminals=terminals.copy(),
        components=tuple(components),
        epsilon_hull=epsilon_hull,
        forbidden=user_forbidden,
        min_clearance=clearance,
    )
    if check:
        worst = verify_synthesis(gn, cr, n_samples=50, seed=rng)
        if worst > ROUNDTRIP_TOL:
            raise ReconstructionMismatch(
                f"synthesized response deviates by {worst:.3e} relative "
                f"(threshold {ROUNDTRIP_TOL:.1e})"
            )
    return gn


def modal_form(gn):
    """``(A, Mbb, sigmas, V)`` of the network, for :func:`modal_response`.

    Each component's :attr:`NetworkComponent.modal_form` is read, so a
    gadget is not reduced again; the static blocks and terminal masses add
    and the modes join, in component order. No components give zero blocks
    and a ``(nb, 0)`` ``V``.
    """
    nb = gn.terminals.size
    empty = (np.zeros((nb, nb)), np.zeros(nb), np.zeros(0), np.zeros((nb, 0)))
    A, Mbb, sigmas, V = zip(empty, *(c.modal_form for c in gn.components))
    return sum(A), sum(Mbb), np.concatenate(sigmas), np.hstack(V)


def verify_synthesis(gn, cr, n_samples=50, seed=0):
    """Max relative deviation between the network and the closed form.

    The network side is :func:`modal_response` of the network's own
    :func:`modal_form`, never of ``cr``; the reference side is
    :func:`canonical_responses` of ``cr``. A deviation that is not finite
    counts as infinite.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    avoid = system_resonances(cr.rayleigh, [m.sigma for m in cr.modes])
    form = modal_form(gn)
    worst = 0.0
    points = sample_nonresonant(rng, avoid, n_samples)
    for lam, reference in zip(points, canonical_responses(cr, points)):
        with np.errstate(all="ignore"):
            gap = np.abs(modal_response(gn.rayleigh, *form, complex(lam)) - reference)
        deviation = gap.max() / max(np.abs(reference).max(), 1e-300)
        worst = max(worst, deviation if np.isfinite(deviation) else np.inf)
    return float(worst)


# ---------------------------------------------------------------------------
# JSON form: {terminals, components[{kind, nodes, elements, rayleigh}],
#             epsilon_hull}
# ---------------------------------------------------------------------------


def generalized_to_dict(gn):
    return {
        "terminals": gn.terminals.tolist(),
        "components": [
            {
                "kind": comp.kind,
                "nodes": [node_to_dict(n) for n in comp.nodes],
                "elements": [element_to_dict(el) for el in comp.elements],
                "rayleigh": rayleigh_to_dict(comp.rayleigh),
            }
            for comp in gn.components
        ],
        "epsilon_hull": gn.epsilon_hull,
    }


def generalized_from_dict(obj, path="generalized"):
    jsonio.check_fields(obj, path, ("terminals", "components", "epsilon_hull"))
    terminals = jsonio.as_matrix(obj["terminals"], f"{path}.terminals")
    d = terminals.shape[1]
    if d not in (2, 3):
        raise SchemaError(f"{path}.terminals: expected 2 or 3 coordinates per row")
    components = []
    try:
        for ci, raw in enumerate(jsonio.as_list(obj["components"], f"{path}.components")):
            p = f"{path}.components[{ci}]"
            jsonio.check_fields(raw, p, ("kind", "nodes", "elements", "rayleigh"))
            kind = raw["kind"]
            if kind not in COMPONENT_KINDS:
                raise SchemaError(f"{p}.kind: unknown component kind {kind!r}")
            nodes = [
                node_from_dict(nraw, f"{p}.nodes[{k}]", d)
                for k, nraw in enumerate(jsonio.as_list(raw["nodes"], f"{p}.nodes"))
            ]
            elements = [
                element_from_dict(eraw, f"{p}.elements[{k}]")
                for k, eraw in enumerate(jsonio.as_list(raw["elements"], f"{p}.elements"))
            ]
            components.append(
                NetworkComponent(
                    kind=kind,
                    nodes=tuple(nodes),
                    n_terminals=len(terminals),
                    elements=tuple(elements),
                    rayleigh=rayleigh_from_dict(raw["rayleigh"], f"{p}.rayleigh"),
                    dimension=d,
                )
            )
        return GeneralizedNetwork(
            terminals=terminals,
            components=tuple(components),
            epsilon_hull=jsonio.as_number(obj["epsilon_hull"], f"{path}.epsilon_hull"),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
