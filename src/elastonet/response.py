"""Terminal response evaluation and pole-residue extraction.

The displacement-to-force map at the terminals is the Schur complement of
the interior block of ``K + lambda*C + lambda^2*M``. For proportional
damping this map always collapses to the closed pole-residue form

    W(lambda) = (1+alpha*lambda)*A + (beta*lambda+lambda^2)*diag(Mbb)
                - sum_j (1+alpha*lambda)^2 * R_j / q_j(lambda),

    q_j(lambda) = sigma_j + (alpha*sigma_j+beta)*lambda + lambda^2,

which this module extracts constructively: eliminate massless interior
nodes statically (one Schur complement of the stiffness; the damping of
the reduced system is again ``alpha*K + beta*M``), mass-normalize the
remaining interior stiffness, eigendecompose, and cluster the rank-one
residues by eigenvalue.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsonio
from .errors import (
    AsymmetricMatrix,
    AtResonance,
    DimensionMismatch,
    ElastonetError,
    FloppyModeInconsistent,
    ReconstructionMismatch,
    SchemaError,
)
from .linalg import (
    PINV_TOL,
    SymMatrix,
    is_psd,
    schur_complement,
    schur_complement_eigh,
    schur_complement_lu,
)
from .model import RayleighParams, rayleigh_from_dict
from .resonances import resonances_of

# Defaults shared with the CLI flags.
FLOPPY_TOL = 1e-9
CLUSTER_TOL = 1e-8
RESONANCE_CLEARANCE = 1e-3
ROUNDTRIP_TOL = 1e-8

# Bytes of modal_sum's arrays for one block of points, so that their memory
# does not grow with the point count: 139 points at 90 modes and n = 18.
CANONICAL_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class ResponseSample:
    """Terminal response matrix at one Laplace parameter."""

    lam: complex
    W: SymMatrix


@dataclass(frozen=True)
class CanonicalResponse:
    """Pole-residue form of a proportionally damped terminal response.

    The modes are the ``(k,)`` modal stiffnesses ``sigmas`` and the ``(k, n,
    n)`` stack ``residues``, read-only C-ordered float64 (an array handed
    over is kept when its type fits), validated as :class:`SymMatrix`
    validates one matrix, a refused block named ``modes[k].R`` as in JSON.
    Only such structure is enforced here; admissibility (PSD-ness, pole
    locations, balanced static slice) is the characterizer's job, so
    hand-edited candidates can be represented and then rejected with a
    detailed report.
    """

    rayleigh: RayleighParams
    A: SymMatrix
    Mbb: np.ndarray
    sigmas: np.ndarray
    residues: np.ndarray
    terminal_positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Mbb", np.asarray(self.Mbb, dtype=float))
        object.__setattr__(
            self, "terminal_positions", np.asarray(self.terminal_positions, dtype=float)
        )
        n = self.A.order
        if self.A.field != "real":
            raise ValueError("static stiffness block A must be real")
        if self.Mbb.shape != (n,):
            raise ValueError(f"Mbb has shape {self.Mbb.shape}, expected ({n},)")
        if self.terminal_positions.ndim != 2 or (
            self.terminal_positions.shape[0] * self.terminal_positions.shape[1] != n
        ):
            raise ValueError(
                f"terminal positions {self.terminal_positions.shape} do not fill "
                f"order {n}"
            )
        if np.iscomplexobj(self.sigmas) or np.iscomplexobj(self.residues):
            raise ValueError("sigmas and residues must be real")
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        residues = np.asarray(self.residues, dtype=np.float64, order="C")
        if sigmas.ndim != 1 or residues.shape != (sigmas.size, n, n):
            raise ValueError(f"sigmas {sigmas.shape}, residues {residues.shape}, order {n}")
        finite = np.isfinite(sigmas) & np.isfinite(residues).all(axis=(1, 2))
        if not finite.all():
            raise DimensionMismatch(f"modes[{np.argmin(finite)}]: entries must be finite")
        bits = residues.view(np.int64)  # integers tell -0.0 from 0.0, which == does not
        uneven = np.nonzero((bits != bits.swapaxes(1, 2)).any(axis=(1, 2)))[0]
        residues = residues.copy() if uneven.size else residues
        for k in uneven:
            try:
                residues[k] = SymMatrix(residues[k]).a
            except AsymmetricMatrix as exc:
                raise AsymmetricMatrix(f"modes[{k}].R: {exc}") from exc
        sigmas.flags.writeable = residues.flags.writeable = False
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "residues", residues)

    @property
    def order(self):
        return self.A.order

    @property
    def dimension(self):
        return self.terminal_positions.shape[1]

    @property
    def n_terminals(self):
        return self.terminal_positions.shape[0]

    @property
    def modes(self):
        """The ``(sigma, R)`` pairs of the modes, read-only views."""
        return tuple(zip(self.sigmas, self.residues))

    @cached_property
    def static_terms(self):
        """The read-only ``(k, n, n)`` stack of ``R_j / sigma_j``, divided
        once; :class:`AtResonance` at the first mode whose term is not finite."""
        with np.errstate(all="ignore"):
            terms = self.residues / self.sigmas[:, None, None]
        finite = np.isfinite(terms).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise AtResonance(f"W(0) is undefined: mode {k} has sigma = "
                              f"{self.sigmas[k]:.6g}, a pole at lambda = 0")
        terms.flags.writeable = False
        return terms

    def static_response(self):
        """W(0) = A - sum_j R_j / sigma_j, subtracted in mode order;
        AtResonance if a term is not finite (:attr:`static_terms`)."""
        stack = np.concatenate([self.A.a[None], self.static_terms])
        return SymMatrix(np.subtract.reduce(stack), copy=False)

    @cached_property
    def residue_stack(self):
        """The read-only, C-ordered ``(k, n(n+1)/2)`` upper triangles of the
        residues, gathered once for :func:`modal_sum`."""
        rows, cols = np.triu_indices(self.order)
        stack = np.ascontiguousarray(self.residues[:, rows, cols])
        stack.flags.writeable = False
        return stack


@dataclass(frozen=True)
class ReducedSystem:
    """System over terminals plus massive interior, massless nodes removed.

    Its damping is ``alpha*Ktilde + beta*diag(Mbb, Mjj)`` and is not stored.
    """

    Ktilde: SymMatrix
    Mbb: np.ndarray
    Mjj: np.ndarray
    dimension: int
    rayleigh: RayleighParams
    terminal_positions: np.ndarray

    @property
    def n_b(self):
        return len(self.Mbb)

    @cached_property
    def modal(self):
        """:func:`modal_stack` of this one system, computed once and read-only."""
        sigmas, v = modal_stack(self.Ktilde.a[None], 1.0 / np.sqrt(self.Mjj)[None], self.n_b)
        if not len(sigmas):
            raise DimensionMismatch("matrix entries must be finite")
        sigmas.flags.writeable = v.flags.writeable = False
        return sigmas[0], v[0]


def modal_stack(K, inv_sqrt, nb):
    """``(sigmas, V)`` of a ``(k, n, n)`` stack ``K``, boundary first, and the
    ``(k, n - nb)`` interior ``Mjj^-1/2``: ``Mjj^-1/2 Kjj Mjj^-1/2 = U
    diag(sigmas) U^T`` ascending and ``V = K_bj Mjj^-1/2 U``, by one stacked
    ``eigh`` with the bits of one per system, up to the first system whose
    ``K`` or normalized block is not finite."""
    normalized = inv_sqrt[:, :, None] * inv_sqrt[:, None, :] * K[:, nb:, nb:]
    finite = np.isfinite(K).all(axis=(1, 2)) & np.isfinite(normalized).all(axis=(1, 2))
    count = len(K) if finite.all() else int(np.argmin(finite))
    sigmas, u = np.linalg.eigh(normalized[:count])
    return sigmas, K[:count, :nb, nb:] @ (inv_sqrt[:count, :, None] * u)


def _pencil(K, C, M, lam, out=None):
    """``K + lambda*C + lambda^2*M``, into ``out`` when given: IEEE addition
    commutes, so these are the bits of that expression."""
    out = np.multiply(C, lam, out=out)
    out += K
    out += (lam * lam) * M
    return out


def _direct_response(sys, lam):
    """The direct response of an assembled system at ``lam``: the
    pseudoinverse :func:`schur_complement` of ``K + lambda*C +
    lambda^2*M``. Massless interior nodes with floppy directions make the
    interior pencil singular at every lambda; the truncated directions
    carry no coupling to the terminals, so the response is unchanged."""
    K, M = sys.K.a, sys.M.a
    pencil = SymMatrix(_pencil(K, sys.rayleigh.damping(K, M), M, complex(lam)), copy=False)
    return schur_complement(pencil.a, sys.n_b)


def eliminate_massless(sys):
    """Statically eliminate massless interior nodes.

    Interior nodes split by exact ``mass == 0`` test into massive (J) and
    massless (L). ``K`` is permuted once to the order terminals, J, L,
    each in the system's order, and the massless block is removed by one
    pseudoinverse Schur complement. The massless rows of ``M`` are zero, so
    the same elimination applied to ``C = alpha*K + beta*M`` gives
    ``alpha*Ktilde + beta*diag(Mbb, Mjj)``: the reduced system stays
    proportionally damped and its damping need not be computed. The reduced
    interior stiffness block is asserted PSD; with positive masses that
    makes the reduced interior damping block PSD as well.
    """
    return _eliminate(sys)[0]


def _eliminate(sys):
    """:func:`eliminate_massless` of ``sys`` and the permuted ``K`` it was
    reduced from, for the extraction self-check."""
    nb, masses = sys.n_b, np.repeat(sys.node_masses, sys.dimension)
    interior = masses[nb:]
    massless = interior == 0.0
    order = np.concatenate([np.arange(nb), nb + np.argsort(massless, kind="stable")])
    nk = masses.size - np.count_nonzero(massless)
    gathered = sys.K.a[np.ix_(order, order)]
    ktilde = schur_complement_eigh(gathered, nk)
    block = ktilde.a[nb:, nb:]
    if block.size and not is_psd(SymMatrix(block), tol=1e-9):
        raise ElastonetError("reduced interior stiffness is not positive semidefinite")
    return ReducedSystem(
        Ktilde=ktilde,
        Mbb=masses[:nb],
        Mjj=interior[~massless],
        dimension=sys.dimension,
        rayleigh=sys.rayleigh,
        terminal_positions=sys.terminal_positions,
    ), gathered


def modal_sum(a, mbb, residues, damp, inertia, q):
    """``(P, n, n)`` ``W = damp*A + inertia*diag(Mbb) - sum_j (damp^2/q_j) R_j``
    from ``(P, 1)`` ``damp`` and ``inertia``, ``(P, k)`` ``q`` and the ``(k,
    n(n+1)/2)`` upper triangles of the ``R_j``: two real GEMMs, one per part
    of the coefficients, mirrored, so W is bitwise symmetric; its bits depend
    on the BLAS and on the block. At a root of a ``q_j`` W is not finite."""
    rows, cols = np.triu_indices(len(a))
    mirror = np.empty(a.shape, dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(rows.size)
    with np.errstate(all="ignore"):
        c = damp * damp / q
        w = damp * a[rows, cols] + inertia * np.diag(mbb)[rows, cols]
        w.real -= np.ascontiguousarray(c.real) @ residues
        w.imag -= np.ascontiguousarray(c.imag) @ residues
    return w[:, mirror]


def _factors(rayleigh, lams):
    """``(P, 1)`` columns ``lambda``, ``lambda^2``, ``1 + alpha*lambda`` and
    ``beta*lambda + lambda^2`` with CPython's moduli (numpy's complex product
    may fuse a multiply-add, so ``lambda^2`` is formed from its parts)."""
    lam = np.array(lams, dtype=complex).reshape(-1, 1)
    x, y = lam.real, lam.imag
    square = np.empty_like(lam)
    square.real, square.imag = x * x - y * y, x * y + y * x
    return lam, square, 1.0 + rayleigh.alpha * lam, rayleigh.beta * lam + square


def _blocks(lams, n, modes):
    """``lams`` as complex numbers, in blocks of :func:`modal_sum` arrays of at
    most ``CANONICAL_BLOCK_BYTES``."""
    lams = [complex(lam) for lam in lams]
    size = max(1, CANONICAL_BLOCK_BYTES // (16 * (n * n + n * (n + 1) + 3 * modes + 1)))
    for start in range(0, len(lams), size):
        yield lams[start:start + size]


def modal_responses(rayleigh, A, Mbb, sigmas, V, lams):
    """Responses from undamped modes, which Rayleigh damping keeps: static
    block ``A``, terminal masses ``Mbb``, residues ``v_j v_j^T`` of the
    columns of ``V``. Yields per block of ``lams`` (:func:`_blocks`) its
    points, its ``(P, k)`` ``|damp*sigma_j + inertia|`` and its Ws."""
    rows, cols = np.triu_indices(len(V))
    residues = np.ascontiguousarray((V[rows] * V[cols]).T)
    for points in _blocks(lams, len(A), len(sigmas)):
        _, _, damp, inertia = _factors(rayleigh, points)
        q = damp * sigmas + inertia
        yield points, np.abs(q), modal_sum(A, Mbb, residues, damp, inertia, q)


def reduced_responses(red, lams, tol):
    """Yield a reduced system's response at each of ``lams`` as a
    :class:`SymMatrix` (:func:`modal_responses` of :attr:`modal`), or the
    :class:`AtResonance` of a point where ``min |q_j| <= tol * max |q_j|``,
    the ``|q_j|`` being the singular values of the interior pencil."""
    nb = red.n_b
    blocks = modal_responses(red.rayleigh, red.Ktilde.a[:nb, :nb], red.Mbb, *red.modal, lams)
    for points, mag, w in blocks:
        lows, highs = mag.min(1, initial=np.inf), mag.max(1, initial=0.0)
        for lam, low, high, wp in zip(points, lows, highs, w):
            if low <= tol * high:
                yield AtResonance(f"lambda = {lam} is numerically a resonance of the reduced "
                                  f"system: min |q_j| = {low:.3e} <= {tol:.1e} * max |q_j|")
            else:
                yield SymMatrix(wp, copy=False)


def evaluate_reduced(red, lam, tol=PINV_TOL):
    """:func:`reduced_responses` at one point; :class:`AtResonance` there."""
    w = next(reduced_responses(red, [lam], tol))
    if isinstance(w, AtResonance):
        raise w
    return ResponseSample(complex(lam), w)


def system_resonances(rayleigh, sigmas):
    """Candidate resonances for modal stiffnesses ``sigmas``.

    Includes the roots of every ``q(lambda)``, with sigma clipped at zero,
    and always those of sigma = 0, which are 0 and -beta (floppy modes);
    and, when alpha > 0, the point ``-1/alpha`` where the spring-damper
    factor ``1 + alpha*lambda`` vanishes and massless interior blocks
    degenerate.
    """
    points = []
    for sigma in [*sigmas, 0.0]:
        points.extend(resonances_of(max(float(sigma), 0.0), rayleigh))
    if rayleigh.alpha > 0.0:
        points.append(complex(-1.0 / rayleigh.alpha))
    return points


def sample_nonresonant(rng, avoid, count):
    """Random complex Laplace points staying clear of the avoid set.

    Moduli are log-uniform in [0.1, 10]; points within
    ``RESONANCE_CLEARANCE`` of any avoided resonance are redrawn, up to
    10000 rejected draws in all.
    """
    avoid = np.asarray(list(avoid), dtype=complex)
    lo, hi = np.log(0.1), np.log(10.0)
    out = []
    rejected = 0
    while len(out) < count:
        lam = np.exp(rng.uniform(lo, hi)) * np.exp(2j * np.pi * rng.uniform())
        if avoid.size and np.abs(avoid - lam).min() < RESONANCE_CLEARANCE:
            rejected += 1
            if rejected > 10000:
                raise ElastonetError("could not sample non-resonant points")
            continue
        out.append(lam)
    return np.array(out, dtype=complex)


def _cluster_ascending(sigmas, tol):
    """Group indices of ascending ``sigmas``, each within a relative ``tol`` of
    its group's first member, so no group spans more than ``tol``."""
    groups = []
    for idx, s in enumerate(sigmas):
        if groups and (s - sigmas[groups[-1][0]]) <= tol * s:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def extract_canonical(
    sys,
    tol_floppy=FLOPPY_TOL,
    tol_cluster=CLUSTER_TOL,
    seed=0,
    check=True,
):
    """Extract the pole-residue form of an assembled system.

    Massless interior nodes are eliminated first; the massive interior
    stiffness is mass-normalized and eigendecomposed, giving modal
    stiffnesses ``sigma_i`` with coupling columns ``v_i``; zero-stiffness
    (floppy) interior modes must not couple to the terminals
    (:class:`FloppyModeInconsistent` otherwise) and are dropped; the
    remaining rank-one residues are clustered by relative eigenvalue gap
    ``tol_cluster`` so repeated modal stiffnesses share one residue.

    When ``check`` is set the result is validated against the direct Schur
    response at 20 random non-resonant points
    (:class:`ReconstructionMismatch` beyond ``ROUNDTRIP_TOL`` relative). The
    massless interior is eliminated from the check's pencils once, by one
    real LU of the stiffness, which is exact under Rayleigh damping
    (:func:`_reconstruction_error`).
    """
    red, gathered = _eliminate(sys)
    nb = red.n_b
    a_arr = red.Ktilde.a[:nb, :nb]
    # a boundary block below the rounding floor of the elimination is an
    # exact physical zero (mechanisms, single-terminal balance); snapping it
    # keeps pure noise out of the canonical data
    if a_arr.size and np.abs(a_arr).max() <= 1e-12 * np.abs(sys.K.a).max():
        a_arr = np.zeros_like(a_arr)
    a_block = SymMatrix(a_arr)
    sigmas, v = red.modal
    # mechanisms reduce Ktilde to pure rounding of an O(|K|) input, so the
    # coupling threshold keeps a floor tied to the full stiffness
    knorm = max(np.linalg.norm(red.Ktilde.a), 1e-6 * np.linalg.norm(sys.K.a))
    floppy = sigmas <= tol_floppy * sigmas.max(initial=0.0)
    for i in np.nonzero(floppy)[0]:
        coupling = np.linalg.norm(v[:, i])
        if coupling > tol_floppy * max(knorm, 1e-300):
            raise FloppyModeInconsistent(
                f"interior mode with stiffness {sigmas[i]:.3e} couples to the "
                f"terminals with norm {coupling:.3e} "
                f"(threshold {tol_floppy * knorm:.3e})"
            )
    live = np.nonzero(~floppy)[0]
    # every live mode's v_i v_i^T in one product, the residue stack itself
    # when no cluster merges modes; += 0.0 writes +0.0 where a product is
    # -0.0, as summing from zeros does
    outer = v.T[live, :, None] * v.T[live, None, :]
    outer += 0.0
    live_sigmas = sigmas[live]
    groups = _cluster_ascending(live_sigmas.tolist(), tol_cluster)
    if len(groups) < live.size:  # a cluster: mean stiffness, residues added in order
        live_sigmas = np.array([np.mean(live_sigmas[g]) for g in groups])
        outer = np.array([np.add.reduce(outer[g]) for g in groups])
    cr = CanonicalResponse(
        rayleigh=red.rayleigh,
        A=a_block,
        Mbb=red.Mbb.copy(),
        sigmas=live_sigmas,
        residues=outer,
        terminal_positions=red.terminal_positions,
    )
    if check and nb:
        rng = np.random.default_rng(seed)
        lams = sample_nonresonant(rng, system_resonances(red.rayleigh, sigmas), 20)
        worst = _reconstruction_error(sys, red, gathered, cr, lams)
        if worst > ROUNDTRIP_TOL:
            raise ReconstructionMismatch(
                f"pole-residue form deviates from the direct response by "
                f"{worst:.3e} relative (threshold {ROUNDTRIP_TOL:.1e})"
            )
    return cr


def _reconstruction_error(sys, red, gathered, cr, lams):
    """Worst relative deviation of ``cr`` from the direct response of ``sys``.

    The mass matrix is diagonal, so its massless rows are zero, and under
    Rayleigh damping the pencil's massless block and its coupling are ``(1
    + alpha*lambda)`` times those of ``K``: condensing them out of ``K``
    once (:func:`_condensed`) gives the pencil over the terminals and the
    massive interior exactly. At each of ``lams`` that pencil is formed in
    one buffer (:func:`_pencil`) and its massive interior solved by LU
    (:func:`schur_complement_lu`). A point whose solve fails, is not finite
    or deviates beyond ``ROUNDTRIP_TOL``, and every point when the
    condensation fails, is solved again by :func:`_direct_response`, and
    that value counts. Massless interior nodes with floppy directions make
    ``K_LL`` singular, and with it every whole pencil, so they take this
    path. The point floor reads ``max|K|``, ``max|C|`` and ``max|M|`` from
    ``K`` and the node masses: ``M`` is diagonal, so ``C`` is ``alpha*K``
    off the diagonal.
    """
    K, nb, ray = sys.K.a, sys.n_b, sys.rayleigh
    mags = np.abs(K)
    np.fill_diagonal(mags, 0.0)
    off, diag = mags.max(), K.diagonal()
    c_diag = ray.alpha * diag + ray.beta * np.repeat(sys.node_masses, sys.dimension)
    norms = [max(off, np.abs(diag).max()), max(ray.alpha * off, np.abs(c_diag).max()),
             sys.node_masses.max()]
    parts = _condensed(red, gathered)
    pencil = None if parts is None else np.empty(parts[0].shape, dtype=complex)
    worst = 0.0
    for lam, closed in zip(lams, canonical_responses(cr, lams)):
        # numerically-zero responses (mechanisms) are compared against
        # the pencil magnitude instead of their own rounding-level norm
        floor = 1e-4 * (norms[0] + norms[1] * abs(lam) + norms[2] * abs(lam) ** 2)
        err = np.inf
        if parts is not None:
            try:
                with np.errstate(all="ignore"):
                    direct = schur_complement_lu(_pencil(*parts, lam, pencil), nb)
                    err = _relative_gap(closed, direct, floor)  # NaN if not finite
            except np.linalg.LinAlgError:
                pass
        if not err <= ROUNDTRIP_TOL:
            err = _relative_gap(closed, _direct_response(sys, lam).a, floor)
        worst = max(worst, err)
    return worst


def _condensed(red, gathered):
    """``(Khat, alpha*Khat + beta*M_XX, M_XX)`` over the terminals and the
    massive interior ``X``, where ``Khat = K_XX - K_XL K_LL^-1 K_LX`` by one
    real LU of the massless block ``L`` of ``gathered``, the permuted ``K``
    that :func:`_eliminate` reduced to ``red`` (static condensation; R. J.
    Guyan, AIAA J. 3(2), 1965); with no massless coordinate ``Khat`` is
    ``K``. None when that LU raises or gives a ``Khat`` that is not finite."""
    masses = np.concatenate([red.Mbb, red.Mjj])
    try:
        with np.errstate(all="ignore"):
            khat = schur_complement_lu(gathered, masses.size)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(khat).all():
        return None
    m_xx = np.diag(masses)
    return khat, red.rayleigh.damping(khat, m_xx), m_xx


def _relative_gap(closed, direct, floor):
    return np.abs(closed - direct).max() / max(np.abs(direct).max(), floor, 1e-300)


def canonical_poles(cr, lams):
    """``(P, modes)`` bool: ``lams[p]`` is a pole of mode ``j``, that is
    ``|q_j(lambda)| <= 1e-12 * (1 + |lambda|^2)``."""
    return _poles(cr, [complex(lam) for lam in lams])[0]


def _poles(cr, lams):
    """:func:`canonical_poles`, ``q_j = sigma_j + (alpha*sigma_j + beta)*lambda
    + lambda^2`` with CPython's moduli, ``damp`` and ``inertia``."""
    lam, square, damp, inertia = _factors(cr.rayleigh, lams)
    guard = np.array([1e-12 * (1.0 + abs(x) ** 2) for x in lams]).reshape(-1, 1)
    with np.errstate(all="ignore"):
        q = cr.sigmas + (cr.rayleigh.alpha * cr.sigmas + cr.rayleigh.beta) * lam + square
        return np.hypot(q.real, q.imag) <= guard, q, damp, inertia


def canonical_responses(cr, lams):
    """Yield the ``(n, n)`` W of the pole-residue form at each of ``lams``,
    one :func:`modal_sum` of :attr:`CanonicalResponse.residue_stack` per
    block (:func:`_blocks`). The points before the first resonant one
    (:func:`canonical_poles`) or the first with an entry that is not finite
    are yielded; that point raises :class:`AtResonance`, naming its first
    resonant mode, or :class:`DimensionMismatch`."""
    for points in _blocks(lams, cr.order, len(cr.sigmas)):
        resonant, q, damp, inertia = _poles(cr, points)
        w = modal_sum(cr.A.a, cr.Mbb, cr.residue_stack, damp, inertia, q)
        with np.errstate(all="ignore"):
            finite = np.isfinite(np.abs(w)).all(axis=(1, 2))
        bad = np.nonzero(resonant.any(axis=1) | ~finite)[0]
        yield from w[:bad[0] if bad.size else len(points)]
        if bad.size and resonant[bad[0]].any():
            p, j = bad[0], np.argmax(resonant[bad[0]])
            raise AtResonance(
                f"lambda = {points[p]} is a pole: |q({cr.sigmas[j]:.6g})| = "
                f"{np.hypot(q[p, j].real, q[p, j].imag):.3e}"
            )
        if bad.size:
            raise DimensionMismatch("matrix entries must be finite")


def evaluate_canonical(cr, lam):
    """Evaluate the pole-residue form at one Laplace point
    (:func:`canonical_responses` of one point)."""
    lam = complex(lam)
    return ResponseSample(lam, SymMatrix(next(canonical_responses(cr, [lam]))))


# ---------------------------------------------------------------------------
# JSON form: {alpha, beta, A, Mbb, modes[{sigma, R}], terminals}
# ---------------------------------------------------------------------------


def canonical_to_dict(cr):
    return {
        "alpha": cr.rayleigh.alpha,
        "beta": cr.rayleigh.beta,
        "A": cr.A.a.tolist(),
        "Mbb": cr.Mbb.tolist(),
        "modes": [{"sigma": s, "R": r} for s, r in zip(cr.sigmas.tolist(), cr.residues.tolist())],
        "terminals": cr.terminal_positions.tolist(),
    }


def canonical_from_dict(obj):
    jsonio.check_fields(obj, "canonical", ("alpha", "beta", "A", "Mbb", "modes", "terminals"))
    terminals = jsonio.as_matrix(obj["terminals"], "canonical.terminals")
    if terminals.ndim != 2 or terminals.shape[1] not in (2, 3):
        raise SchemaError("canonical.terminals: expected rows of 2 or 3 coordinates")
    n = terminals.shape[0] * terminals.shape[1]
    try:
        a = SymMatrix(jsonio.as_matrix(obj["A"], "canonical.A", (n, n)))
    except AsymmetricMatrix as exc:
        raise SchemaError(f"canonical.A: {exc}") from exc
    sigmas, residues = [], []
    for k, raw in enumerate(jsonio.as_list(obj["modes"], "canonical.modes")):
        p = f"canonical.modes[{k}]"
        jsonio.check_fields(raw, p, ("sigma", "R"))
        sigmas.append(jsonio.as_number(raw["sigma"], f"{p}.sigma"))
        residues.append(jsonio.as_matrix(raw["R"], f"{p}.R", (n, n)))
    try:
        return CanonicalResponse(
            rayleigh=rayleigh_from_dict({"alpha": obj["alpha"], "beta": obj["beta"]}, "canonical"),
            A=a,
            Mbb=jsonio.as_vector(obj["Mbb"], "canonical.Mbb", n),
            sigmas=sigmas,
            residues=np.reshape(residues, (-1, n, n)),
            terminal_positions=terminals,
        )
    except AsymmetricMatrix as exc:  # the one refusal left, named modes[k].R
        raise SchemaError(f"canonical.{exc}") from exc
