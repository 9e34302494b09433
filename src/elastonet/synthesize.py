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

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial

import numpy as np

from . import jsonio
from .characterize import check_canonical
from .errors import (
    DimensionMismatch,
    NotCharacterizable,
    PlacementFailed,
    SchemaError,
    ZeroForce,
)
from .geometry import (
    balance_verdicts,
    check_balanced,
    cross,
    cross_floats,
    hull_distance,
    project_balanced,
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
    ResponseSample,
    _direct_response,
    canonical_responses,
    eliminate_massless,
    modal_responses,
    modal_stack,
    sample_nonresonant,
    system_resonances,
)

COMPONENT_KINDS = ("springs", "ideal_elements", "terminal_masses", "rank_one_gadget")

# Relative eigenvalue cutoff when factoring PSD blocks into rank-one terms.
RANK_TOL = 1e-12

# Random draws of a balancing node pair before placement gives up.
PLACEMENT_DRAWS = 200

# check_balanced's tolerance for the force system of an ideal element.
ELEMENT_TOL = 1e-8


def _distances(points, others):
    """(N, F) Euclidean distances between two point sets, the squares added
    coordinate by coordinate, as ``np.linalg.norm`` adds them."""
    total = 0.0
    for k in range(points.shape[1]):
        total = total + np.square(points[:, None, k] - others[None, :, k])
    return np.sqrt(total)


def _too_close(point, avoid, clearance):
    """Is ``point`` nearer than ``clearance`` to a row of ``avoid``? The
    verdict of ``(_distances(point[None], avoid) < clearance).any()`` in one
    pass: a row sum of d terms adds them in coordinate order too."""
    return (np.sqrt(np.square(avoid - point).sum(axis=1)) < clearance).any()


def _placement_constraints(terminals, forbidden, min_clearance, epsilon_hull):
    """Forbidden points as a (k, d) array, and the clearance; by default a
    millionth of the width of the region internal nodes may occupy. A width
    that overflows is refused (:class:`PlacementFailed`): every draw would
    fall within an infinite clearance."""
    d = terminals.shape[1]
    forb = (
        np.asarray(forbidden, dtype=float).reshape(-1, d)
        if np.size(forbidden)
        else np.zeros((0, d))
    )
    if min_clearance is None:
        with np.errstate(over="ignore"):
            span = float(_distances(terminals, terminals).max(initial=0.0))
            width = span + 2.0 * epsilon_hull
        if not np.isfinite(width):
            raise PlacementFailed(
                f"the width of the terminal hull overflows (terminal span {span:.3e}, "
                f"epsilon_hull {epsilon_hull:.3e}); rescale the positions"
            )
        return forb, 1e-6 * width
    return forb, float(min_clearance)


@dataclass(frozen=True)
class NetworkComponent:
    """One superposable piece of a generalized network.

    Nodes list every shared terminal first (in global order), then the
    component's own internal nodes. Element force systems are verified
    balanced at construction (:func:`check_balanced` at ``ELEMENT_TOL``)
    unless ``balanced`` says the caller did so (:func:`_gadget_verdicts`,
    :func:`_check_static_factors`).
    ``positions``: the node positions, a read-only (n, d) array.
    """

    kind: str
    nodes: tuple
    n_terminals: int
    elements: tuple
    rayleigh: RayleighParams
    dimension: int
    positions: np.ndarray = field(init=False, repr=False, compare=False)
    balanced: InitVar[bool] = False

    def __post_init__(self, balanced):
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
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        for el in self.elements:
            refs = (el.i, el.j) if isinstance(el, Spring) else el.support
            if min(refs) < 0 or max(refs) >= len(self.nodes):
                raise ValueError("element references a missing node")
            if isinstance(el, Spring):
                spring_directions(positions, np.array([el.i]), np.array([el.j]))
                continue
            if el.force_vector.size != len(el.support) * d:
                raise ValueError("ideal element force vector has the wrong length")
            if balanced:
                continue
            passed, residual = check_balanced(
                el.force_vector, positions[list(el.support)], tol=ELEMENT_TOL
            )
            if not passed:
                raise _unbalanced_element(residual)

    @property
    def internal_positions(self):
        return self.positions[self.n_terminals:].reshape(-1, self.dimension)

    @cached_property
    def modal_form(self):
        """``(A, Mbb, sigmas, V)`` of the component assembled and reduced
        (:func:`eliminate_massless`), computed once for :func:`modal_form`.
        A gadget built here has it already, from :func:`_reduce_gadgets`."""
        red = eliminate_massless(assemble_component(self))
        return (red.Ktilde.a[:red.n_b, :red.n_b], red.Mbb, *red.modal)


def _unbalanced_element(residual):
    return ValueError(f"ideal element force system is unbalanced (residual {residual:.3e})")


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
        internal = [np.zeros((0, d))]
        for k, comp in enumerate(self.components):
            if comp.dimension != d or comp.n_terminals != len(terminals):
                raise ValueError(f"component {k} does not share the terminal set")
            if not np.array_equal(comp.positions[:comp.n_terminals], terminals):
                raise ValueError(f"component {k} terminal positions differ")
            if comp.rayleigh != self.components[0].rayleigh:
                raise ValueError("components must share the damping constants")
            internal.append(comp.internal_positions)
        internal = np.concatenate(internal)
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


def evaluate_generalized(gn, lam):
    """Response of the superposition, by direct Schur complements.

    The component responses (the pseudoinverse Schur complement of each
    component's pencil) are added in component order.
    This is the oracle that the network's :func:`modal_form` is tested against.
    """
    nb = gn.terminals.size
    total = np.zeros((nb, nb), dtype=complex)
    for comp in gn.components:
        total = total + _direct_response(assemble_component(comp), lam).a
    return ResponseSample(complex(lam), SymMatrix(total))


# ---------------------------------------------------------------------------
# Force balancing and gadget construction
# ---------------------------------------------------------------------------


def _norm(v):
    """``np.linalg.norm`` of a vector: the root of the ``dot`` it takes."""
    return math.sqrt(v.dot(v))


def _solve_couple(x1, x2, f_rem, tau, min_force):
    """Forces (g1 at x1, g2 at x2) cancelling net force f_rem and torque tau.

    ``tau`` is the torque of the full system once ``f_rem`` has been
    assigned to x1. The couple part is the minimum-norm solution of
    ``(x1 - x2) x h = -tau``; in three dimensions that requires the joining
    direction to be orthogonal to ``tau``. The null direction (equal and
    opposite forces along the joining line) is used to inflate ``|g|`` up to
    ``min_force`` without disturbing the balance. The products and norms
    are numpy's; the elementwise steps between them are Python floats.
    """
    w = x1 - x2
    wnorm2 = float(w @ w)
    if wnorm2 == 0.0:
        return None
    wl = w.tolist()
    if len(wl) == 2:
        c = -float(tau[0]) / wnorm2
        h = [c * -wl[1], c * wl[0]]
    else:
        if abs(float(w @ tau)) > 1e-9 * (_norm(w) * _norm(tau) + 1e-300):
            return None  # torque not cancellable along this joining direction
        h = [v / wnorm2 for v in cross_floats(wl, tau.tolist())]
    g1 = [a + b for a, b in zip(f_rem.tolist(), h)]
    g = np.array(g1 + [-b for b in h])
    if _norm(g) < min_force:
        t = (min_force + _norm(np.array(h))) / math.sqrt(wnorm2)
        g = np.array([a + t * c for a, c in zip(g1, wl)] + [-b - t * c for b, c in zip(h, wl)])
    return g


def _terminal_loads(terminals, fmats):
    """Net force negated, torque ((k, 1) for d=2) and ``1 + max|f|`` of each
    of a (k, nt, d) stack of terminal force systems."""
    tau = cross(terminals, fmats).sum(axis=1)
    if terminals.shape[1] == 2:
        tau = tau[:, None]
    return -fmats.sum(axis=1), tau, 1.0 + np.abs(fmats).max(axis=(1, 2))


def _balancing_pair(rng, terminals, avoid, clearance, epsilon_hull, f_rem, tau_t,
                    scale, min_force):
    """``(x1, x2, g)``: nodes drawn near the hull clear of ``avoid``, and the
    forces on them that balance terminal loads ``(f_rem, tau_t)``;
    :class:`PlacementFailed` if none can."""
    nt, d = terminals.shape
    ones = np.ones(nt)
    f_list, tau_list = f_rem.tolist(), tau_t.tolist()

    def draw(jitter_frac):
        # a random point within jitter_frac * epsilon_hull of the hull
        weights = rng.dirichlet(ones) if nt > 1 else np.array([1.0])
        base = weights @ terminals
        direction = rng.standard_normal(d)
        norm = _norm(direction)
        if norm == 0.0:
            return None
        radius = jitter_frac * epsilon_hull * rng.uniform(0.1, 1.0)
        point = base + (radius / norm) * direction
        return None if _too_close(point, avoid, clearance) else point

    for _ in range(PLACEMENT_DRAWS):
        x1 = draw(0.45 if d == 3 else 0.9)
        if x1 is None:
            continue
        # the torque of the system once f_rem is assigned to x1
        x1_list = x1.tolist()
        torque = [a + b for a, b in zip(tau_list, cross_floats(x1_list, f_list))]
        tau = np.array(torque)
        if d == 2:
            x2 = draw(0.9)
            if x2 is None:
                continue
        else:
            tnorm = _norm(tau)
            if tnorm > 1e-12 * scale:
                u = np.array(cross_floats(torque, rng.standard_normal(3).tolist()))
                unorm = _norm(u)
                if unorm < 1e-9 * tnorm:
                    continue
            else:
                u = rng.standard_normal(3)
                unorm = _norm(u)
                if unorm == 0.0:
                    continue
            step = epsilon_hull * rng.uniform(0.1, 0.5)
            x2 = np.array([a - step * (b / unorm) for a, b in zip(x1_list, u.tolist())])
            if _too_close(x2, avoid, clearance):
                continue
        if _norm(x1 - x2) < max(clearance, 0.02 * epsilon_hull):
            continue
        g = _solve_couple(x1, x2, f_rem, tau, min_force)
        if g is not None:
            return x1, x2, g
    raise PlacementFailed(
        f"no admissible balancing pair found in {PLACEMENT_DRAWS} draws "
        f"(epsilon_hull={epsilon_hull}, clearance={clearance:.3e})"
    )


def _gadget_verdicts(terminals, fmats, pairs, g, scale):
    """``(k, error)``: the first of a stack of completed force systems
    (``fmats[k]`` at the terminals, ``g[k]`` at ``pairs[k]``) to fail, and
    its error; ``(len(fmats), None)`` when all pass. Each system is judged
    at ``1e-10*scale[k]`` (:class:`PlacementFailed`), then by the element
    rule of :class:`NetworkComponent` (``ValueError``)."""
    count, nt, d = fmats.shape
    points = np.concatenate([np.broadcast_to(terminals, fmats.shape), pairs], axis=1)
    loads = np.concatenate([fmats, g.reshape(count, 2, d)], axis=1)
    element = ELEMENT_TOL * (1.0 + np.abs(loads).max(axis=(1, 2), initial=0.0))
    passed, residual = balance_verdicts(points, loads, np.stack([1e-10 * scale, element]))
    failed = ~passed.all(axis=0)
    if not failed.any():
        return count, None
    k = int(np.argmax(failed))
    if passed[0, k]:
        return k, _unbalanced_element(residual[k])
    return k, PlacementFailed(f"balancing construction left residual {residual[k]:.3e}")


def _terminal_nodes(terminals, masses):
    return tuple(Node(tuple(p), float(m), True) for p, m in zip(terminals, masses))


def _gadgets(terminals, terminal_nodes, forces, sigmas, rayleigh, rng, epsilon_hull,
             forbidden, clearance):
    """Checked rank-one gadgets, one per row of ``forces`` (of length
    ``terminals.size``), on the shared massless ``terminal_nodes``.

    The gadgets are placed in order, each clear of the terminals, of
    ``forbidden`` and of the nodes placed before it. Then the stack gets its
    balance verdicts (:func:`_gadget_verdicts`), its components and its
    contract (:func:`_reduce_gadgets`). Inputs that are not finite are
    refused up front; a zero force, a ``sigma <= 0`` or a failed placement
    ends the placement after the gadgets before it are checked, so the
    first failure in gadget order is raised.
    """
    count = len(forces)
    if count:
        for name, values in (("terminals", terminals), ("f", forces), ("sigma", sigmas)):
            if not np.isfinite(values).all():
                raise DimensionMismatch(f"{name} must be finite")
    nt, d = terminals.shape
    fmats = forces.reshape(count, nt, d)
    f_rem, tau_t, scale = _terminal_loads(terminals, fmats)
    # the terminals, the forbidden points, then each gadget's pair, in order
    avoid = np.concatenate([terminals, forbidden, np.empty((2 * count, d))])
    fixed = len(avoid) - 2 * count
    pairs = avoid[fixed:].reshape(count, 2, d)
    g = np.empty((count, 2 * d))
    placed = 0
    try:
        for k in range(count):
            fnorm = _norm(forces[k])
            if fnorm == 0.0:
                raise ZeroForce("rank-one gadget needs a nonzero force vector")
            if sigmas[k] <= 0.0:
                raise ValueError(f"sigma must be > 0, got {float(sigmas[k])}")
            x1, x2, g[k] = _balancing_pair(
                rng, terminals, avoid[:fixed + 2 * k], clearance, epsilon_hull,
                f_rem[k], tau_t[k], scale[k], max(1e-2, 0.1 * fnorm),
            )
            pairs[k] = x1, x2
            placed += 1
    finally:  # also after a failed placement: a gadget placed before it fails first
        passed, error = _gadget_verdicts(
            terminals, fmats[:placed], pairs[:placed], g[:placed], scale[:placed]
        )
        gadgets = []
        try:
            support = tuple(range(nt + 2))
            for k in range(passed):
                mass = float(g[k] @ g[k]) / float(sigmas[k])
                x1, x2 = pairs[k].tolist()
                nodes = (*terminal_nodes, Node(x1, mass, False), Node(x2, mass, False))
                element = IdealElasticElement(support, np.concatenate([forces[k], g[k]]))
                gadgets.append(NetworkComponent("rank_one_gadget", nodes, nt, (element,),
                                                rayleigh, d, balanced=True))
            if error:
                raise error
        finally:
            _reduce_gadgets(list(zip(gadgets, sigmas)))
    return gadgets


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
    which gives the closed-form response of the module docstring: one
    coupled column, of modal stiffness sigma and equal to ``+-sqrt(sigma)
    f``. The first gadget to fail raises :class:`PlacementFailed` for the
    contract, or what its own reduction would for entries that are not
    finite.
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


def _rank_one_factors(blocks, floors):
    """Rank-one factors ``sqrt(lambda) v`` of a (k, n, n) stack of PSD
    blocks by one stacked ``eigh``, as rows in block order, and the block of
    each. Eigenvalues at or below ``RANK_TOL`` times their block's largest,
    or its absolute ``floors`` entry (derived by callers from the magnitudes
    whose cancellation produced the block), are rank deficiency."""
    vals, vecs = np.linalg.eigh(blocks)
    top = np.maximum(vals[:, -1], 0.0)
    cutoff = np.maximum(RANK_TOL * np.maximum(top, 1e-300), floors)
    owner, k = np.nonzero(vals > cutoff[:, None])
    return owner, vecs[owner, :, k] * np.sqrt(vals[owner, k])[:, None]


def _check_static_factors(terminals, factors):
    """Refuse the first of the static slice's factors that is not a balanced
    force system (:class:`NotCharacterizable`). One stacked verdict judges
    each factor as ``check_balanced(w, terminals, tol=1e-9)`` would alone,
    at ``1e-9*(1 + max|w|)``."""
    if not len(factors):
        return
    stack = np.asarray(factors)
    passed, residual = balance_verdicts(
        terminals, stack.reshape(-1, *terminals.shape), 1e-9 * (1.0 + np.abs(stack).max(axis=1))
    )
    if not passed.all():
        raise NotCharacterizable(
            f"static slice factor is not a balanced force system "
            f"(residual {residual[np.argmin(passed)]:.3e})"
        )


def synthesize(
    cr,
    epsilon_hull=0.1,
    forbidden=(),
    seed=0,
    min_clearance=None,
    report=None,
):
    """Construct a generalized network realizing an admissible response.

    Raises :class:`NotCharacterizable` when the admissibility check fails
    (including a terminal mass diagonal that is not constant within a
    node's coordinate block, which no isotropic nodal mass can realize) and
    :class:`PlacementFailed` when internal nodes cannot be placed. The
    check is ``report``, the :class:`CharacterizationReport` of ``cr``
    when the caller has one, else ``check_canonical(cr)``. Each gadget's
    balance and closed-form contract are checked as it is built; the
    network as a whole is not compared with ``cr`` here, which is what
    :func:`verify_synthesis` does.
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

    w0, terms = cr.static_response(), cr.static_terms
    # the static slice is a difference of the canonical blocks; spectral
    # content below their joint rounding is cancellation noise. With every
    # sigma > 0, max|R_j / sigma_j| has the bits of max|R_j| / sigma_j
    static_scale = np.abs(cr.A.a).max() + sum(np.abs(terms).max(axis=(1, 2)))
    floors = np.r_[1e-12 * static_scale, np.zeros(len(cr.sigmas))]
    owner, factors = _rank_one_factors(np.concatenate([w0.a[None], terms]), floors)
    # the static factors are projected onto the balanced subspace: the
    # slice's columns are balanced, but eigenvectors of near-threshold
    # eigenvalues amplify the rounding
    static_factors = project_balanced(factors[owner == 0], terminals)
    _check_static_factors(terminals, static_factors)

    on_terminals = partial(NetworkComponent, n_terminals=nt, rayleigh=cr.rayleigh, dimension=d)
    # the massless terminal nodes, built once and shared by the components
    massless = _terminal_nodes(terminals, np.zeros(nt))
    if static_factors:
        elements = tuple(
            IdealElasticElement(tuple(range(nt)), w) for w in static_factors
        )
        # balanced: each factor passed its check above, at 1e-9 < ELEMENT_TOL
        components.append(
            on_terminals("ideal_elements", massless, elements=elements, balanced=True)
        )

    node_masses = cr.Mbb[::d]
    if node_masses.max(initial=0.0) > 0.0:
        components.append(
            on_terminals("terminal_masses", _terminal_nodes(terminals, node_masses), elements=())
        )

    gadget = owner > 0
    components.extend(_gadgets(
        terminals, massless, factors[gadget], cr.sigmas[owner[gadget] - 1], cr.rayleigh,
        rng, epsilon_hull, user_forbidden, clearance,
    ))

    return GeneralizedNetwork(
        terminals=terminals.copy(),
        components=tuple(components),
        epsilon_hull=epsilon_hull,
        forbidden=user_forbidden,
        min_clearance=clearance,
    )


def modal_form(gn):
    """``(A, Mbb, sigmas, V)`` of the network, for :func:`modal_responses`.

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

    The network side is :func:`modal_responses` of the network's own
    :func:`modal_form`, never of ``cr``; the reference side is
    :func:`canonical_responses` of ``cr``. A deviation that is not finite
    counts as infinite.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    avoid = system_resonances(cr.rayleigh, cr.sigmas)
    points = sample_nonresonant(rng, avoid, n_samples)
    references = canonical_responses(cr, points)
    worst = 0.0
    for _, _, network in modal_responses(gn.rayleigh, *modal_form(gn), points):
        for w, reference in zip(network, references):
            with np.errstate(all="ignore"):
                deviation = np.abs(w - reference).max() / max(np.abs(reference).max(), 1e-300)
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
