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
    AtResonance,
    DimensionMismatch,
    ElastonetError,
    FloppyModeInconsistent,
    ReconstructionMismatch,
    SchemaError,
    SingularBlock,
)
from .linalg import (
    PINV_TOL,
    BlockPartition,
    SymMatrix,
    is_psd,
    schur_complement,
    schur_complement_lu,
)
from .model import RayleighParams
from .resonances import resonances_of

# Defaults shared with the CLI flags.
FLOPPY_TOL = 1e-9
CLUSTER_TOL = 1e-8
RESONANCE_CLEARANCE = 1e-3
ROUNDTRIP_TOL = 1e-8

# Bytes of one block of points in canonical_responses, so that its memory
# does not grow with the point count: 315 points at 90 modes and n = 18.
CANONICAL_BLOCK_BYTES = 1 << 21


@dataclass(frozen=True)
class ResponseSample:
    """Terminal response matrix at one Laplace parameter."""

    lam: complex
    W: SymMatrix


@dataclass(frozen=True)
class Mode:
    """One resonant term: modal stiffness ``sigma`` and PSD residue ``R``."""

    sigma: float
    R: SymMatrix


@dataclass(frozen=True)
class CanonicalResponse:
    """Pole-residue form of a proportionally damped terminal response.

    Only structural well-formedness is enforced here (shapes, real symmetric
    blocks); admissibility (PSD-ness, pole locations, balanced static slice)
    is the characterizer's job, so hand-edited candidates can be represented
    and then rejected with a detailed report.
    """

    rayleigh: RayleighParams
    A: SymMatrix
    Mbb: np.ndarray
    modes: tuple
    terminal_positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Mbb", np.asarray(self.Mbb, dtype=float))
        object.__setattr__(
            self, "terminal_positions", np.asarray(self.terminal_positions, dtype=float)
        )
        object.__setattr__(self, "modes", tuple(self.modes))
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
        for k, mode in enumerate(self.modes):
            if mode.R.order != n or mode.R.field != "real":
                raise ValueError(f"mode {k} residue must be real of order {n}")

    @property
    def order(self):
        return self.A.order

    @property
    def dimension(self):
        return self.terminal_positions.shape[1]

    @property
    def n_terminals(self):
        return self.terminal_positions.shape[0]

    def static_response(self):
        """W(0) = A - sum_j R_j / sigma_j; AtResonance if a term is not finite."""
        w0 = self.A.a.copy()
        for k, mode in enumerate(self.modes):
            with np.errstate(all="ignore"):
                term = mode.R.a / mode.sigma
            if not np.isfinite(term).all():
                raise AtResonance(f"W(0) is undefined: mode {k} has sigma = "
                                  f"{mode.sigma:.6g}, a pole at lambda = 0")
            w0 = w0 - term
        return SymMatrix(w0)


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
        """``(sigmas, V)``, computed once and read-only: ``Mjj^-1/2 Kjj Mjj^-1/2
        = U diag(sigmas) U^T`` ascending, and ``V = Ktilde_bj Mjj^-1/2 U``."""
        nb, inv_sqrt = self.n_b, 1.0 / np.sqrt(self.Mjj)
        normalized = SymMatrix(np.outer(inv_sqrt, inv_sqrt) * self.Ktilde.a[nb:, nb:])
        sigmas, u = np.linalg.eigh(normalized.a)
        v = self.Ktilde.a[:nb, nb:] @ (inv_sqrt[:, None] * u)
        sigmas.flags.writeable = v.flags.writeable = False
        return sigmas, v


def evaluate_response(sys, lam, mode="inverse"):
    """Terminal response W(lambda) of an assembled system.

    Forms ``K + lambda*C + lambda^2*M`` and takes the Schur complement of
    the interior block; a numerically singular block means ``lambda`` sits
    on a resonance (:class:`AtResonance`). ``mode="pseudoinverse"`` handles
    systems whose interior pencil is exactly singular at every lambda
    (massless interior nodes with floppy directions); the truncated
    directions carry no coupling to the terminals, so the response is
    unchanged.
    """
    lam = complex(lam)
    K, M = sys.K.a, sys.M.a
    pencil = SymMatrix(K + lam * sys.rayleigh.damping(K, M) + lam * lam * M)
    try:
        return ResponseSample(lam, schur_complement(pencil, sys.partition, mode))
    except SingularBlock as exc:
        raise AtResonance(
            f"lambda = {lam} is numerically a resonance: {exc}",
            singular_values=exc.smallest_singular_value,
        ) from exc


def eliminate_massless(sys):
    """Statically eliminate massless interior nodes.

    Interior coordinates split by exact ``mass == 0`` test into massive (J)
    and massless (L). The massless block is removed by one pseudoinverse
    Schur complement of ``K``. The massless rows of ``M`` are zero, so the
    same elimination applied to ``C = alpha*K + beta*M`` gives ``alpha*Ktilde
    + beta*diag(Mbb, Mjj)``: the reduced system stays proportionally damped
    and its damping need not be computed. The reduced interior stiffness
    block is asserted PSD; with positive masses that makes the reduced
    interior damping block PSD as well.
    """
    d = sys.dimension
    masses = sys.mass_vector()
    boundary = list(sys.partition.boundary)
    interior = list(sys.partition.interior)
    blocks = masses[interior].reshape(-1, d)
    if blocks.size and not np.all(blocks == blocks[:, :1]):
        raise ElastonetError(
            "interior mass entries differ within a node's coordinate block"
        )
    j_coords = [c for c in interior if masses[c] != 0.0]
    l_coords = [c for c in interior if masses[c] == 0.0]

    ktilde = schur_complement(
        sys.K, BlockPartition(boundary + j_coords, l_coords), mode="pseudoinverse"
    )
    block = ktilde.a[len(boundary):, len(boundary):]
    if block.size and not is_psd(SymMatrix(block), tol=1e-9):
        raise ElastonetError("reduced interior stiffness is not positive semidefinite")
    return ReducedSystem(
        Ktilde=ktilde,
        Mbb=masses[boundary],
        Mjj=masses[j_coords],
        dimension=d,
        rayleigh=sys.rayleigh,
        terminal_positions=sys.terminal_positions,
    )


def modal_response(rayleigh, A, Mbb, sigmas, V, lam):
    """The response of a proportionally damped system from its modes.

    ``W = damp*A + inertia*diag(Mbb) - sum_j damp^2/q_j v_j v_j^T``, with
    ``damp = 1 + alpha*lambda``, ``inertia = beta*lambda + lambda^2`` and
    ``q_j = damp*sigma_j + inertia``; ``A`` is the static terminal block,
    ``Mbb`` the terminal masses and ``v_j`` the columns of ``V``. Rayleigh
    damping keeps the undamped modes, so this one formula is the response
    of every network the package builds. Nothing here decides resonance:
    at a root of some ``q_j`` the result is not finite.
    """
    damp, inertia = 1.0 + rayleigh.alpha * lam, rayleigh.beta * lam + lam * lam
    q = damp * sigmas + inertia
    return damp * A + inertia * np.diag(Mbb) - (V * (damp * damp / q)) @ V.T


def evaluate_reduced(red, lam, tol=PINV_TOL):
    """Response of a reduced system from its modal decomposition :attr:`modal`.

    :func:`modal_response` of the reduced system; ``lambda`` is resonant
    (:class:`AtResonance`) when ``min |q_j| <= tol * max |q_j|``, the
    ``|q_j|`` being the singular values of the mass-normalized interior
    pencil.
    """
    lam = complex(lam)
    sigmas, v = red.modal
    ray = red.rayleigh
    mag = np.abs((1.0 + ray.alpha * lam) * sigmas + (ray.beta * lam + lam * lam))
    if mag.size and mag.min() <= tol * mag.max():
        raise AtResonance(
            f"lambda = {lam} is numerically a resonance of the reduced system: "
            f"min |q_j| = {mag.min():.3e} <= {tol:.1e} * max |q_j|",
            singular_values=mag.min(),
        )
    nb = red.n_b
    w = modal_response(ray, red.Ktilde.a[:nb, :nb], red.Mbb, sigmas, v, lam)
    return ResponseSample(lam, SymMatrix(w))


def system_resonances(rayleigh, sigmas):
    """Candidate resonances for modal stiffnesses ``sigmas``.

    Includes the roots of every ``q(lambda)`` (with sigma clipped at zero:
    floppy modes contribute the roots 0 and -beta) and, when alpha > 0, the
    point ``-1/alpha`` where the spring-damper factor ``1 + alpha*lambda``
    vanishes and massless interior blocks degenerate.
    """
    points = []
    for sigma in sigmas:
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
    (:class:`ReconstructionMismatch` beyond ``ROUNDTRIP_TOL`` relative).
    """
    red = eliminate_massless(sys)
    nb = red.n_b
    a_arr = red.Ktilde.a[:nb, :nb]
    # a boundary block below the rounding floor of the elimination is an
    # exact physical zero (mechanisms, single-terminal balance); snapping it
    # keeps pure noise out of the canonical data
    if a_arr.size and np.abs(a_arr).max() <= 1e-12 * np.abs(sys.K.a).max():
        a_arr = np.zeros_like(a_arr)
    a_block = SymMatrix(a_arr)
    modes = []
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
    for group in _cluster_ascending([float(sigmas[i]) for i in live], tol_cluster):
        members = [live[g] for g in group]
        sigma_j = float(np.mean([sigmas[i] for i in members]))
        r = np.zeros((nb, nb))
        for i in members:
            r += np.outer(v[:, i], v[:, i])
        modes.append(Mode(sigma_j, SymMatrix(r)))
    cr = CanonicalResponse(
        rayleigh=red.rayleigh,
        A=a_block,
        Mbb=red.Mbb.copy(),
        modes=tuple(modes),
        terminal_positions=red.terminal_positions,
    )
    if check and nb:
        rng = np.random.default_rng(seed)
        lams = sample_nonresonant(rng, system_resonances(red.rayleigh, sigmas), 20)
        worst = _reconstruction_error(sys, cr, lams)
        if worst > ROUNDTRIP_TOL:
            raise ReconstructionMismatch(
                f"pole-residue form deviates from the direct response by "
                f"{worst:.3e} relative (threshold {ROUNDTRIP_TOL:.1e})"
            )
    return cr


def _reconstruction_error(sys, cr, lams):
    """Worst relative deviation of ``cr`` from the direct response of ``sys``.

    The pencil at each of ``lams`` is solved by LU
    (:func:`schur_complement_lu`). A point whose solve fails, is not finite
    or deviates beyond ``ROUNDTRIP_TOL`` is evaluated again by the
    pseudoinverse :func:`evaluate_response`, and that value counts. Massless
    interior nodes with floppy directions make every pencil singular and
    take this path.
    """
    K, M = sys.K.a, sys.M.a
    C = sys.rayleigh.damping(K, M)
    norms = [np.abs(x).max() for x in (K, C, M)]
    worst = 0.0
    for lam, closed in zip(lams, canonical_responses(cr, lams)):
        # numerically-zero responses (mechanisms) are compared against
        # the pencil magnitude instead of their own rounding-level norm
        floor = 1e-4 * (norms[0] + norms[1] * abs(lam) + norms[2] * abs(lam) ** 2)
        try:
            with np.errstate(all="ignore"):
                direct = schur_complement_lu(K + lam * C + lam * lam * M, sys.partition)
                err = _relative_gap(closed, direct, floor)  # NaN if not finite
        except np.linalg.LinAlgError:
            err = np.inf
        if not err <= ROUNDTRIP_TOL:
            direct = evaluate_response(sys, lam, mode="pseudoinverse").W.a
            err = _relative_gap(closed, direct, floor)
        worst = max(worst, err)
    return worst


def _relative_gap(closed, direct, floor):
    return np.abs(closed - direct).max() / max(np.abs(direct).max(), floor, 1e-300)


def canonical_poles(cr, lams):
    """``(P, modes)`` bool: ``lams[p]`` is a pole of mode ``j``, that is
    ``|q_j(lambda)| <= 1e-12 * (1 + |lambda|^2)``."""
    return _poles(cr, [complex(lam) for lam in lams])[0]


def _poles(cr, lams):
    """:func:`canonical_poles`, ``q`` and the columns ``lambda``, ``lambda^2``."""
    lam = np.array(lams, dtype=complex).reshape(-1, 1)
    sigma = np.array([mode.sigma for mode in cr.modes])
    guard = np.array([1e-12 * (1.0 + abs(x) ** 2) for x in lams]).reshape(-1, 1)
    with np.errstate(all="ignore"):  # Python's complex arithmetic does not warn
        lam2 = _product(lam, lam)
        q = sigma + _product(cr.rayleigh.alpha * sigma + cr.rayleigh.beta, lam) + lam2
        return np.hypot(q.real, q.imag) <= guard, q, lam, lam2


def _product(a, b):
    """``a * b`` as CPython forms it, a real entering as ``x + 0j``; numpy's
    complex product fuses multiply-adds, so its last bit may differ."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _quotient(a, b):
    """``a / b`` as CPython forms it, by Smith's algorithm (R. L. Smith,
    "Algorithm 116: Complex division", CACM 5(8), 1962)."""
    (a_re, a_im), (b_re, b_im) = (a.real, a.imag), (b.real, b.imag)
    by_re = np.abs(b_re) >= np.abs(b_im)
    ratio = np.where(by_re, b_im / b_re, b_re / b_im)
    denom = np.where(by_re, b_re + b_im * ratio, b_re * ratio + b_im)
    return _complex(
        np.where(by_re, a_re + a_im * ratio, a_re * ratio + a_im) / denom,
        np.where(by_re, a_im - a_re * ratio, a_im * ratio - a_re) / denom,
    )


def _complex(re, im):
    """Parts to a complex array, bit for bit (``re + 1j*im`` can turn -0.0 into 0.0)."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def canonical_responses(cr, lams):
    """Yield the ``(n, n)`` W of the pole-residue form at each of ``lams``.

    Points go in blocks of at most ``CANONICAL_BLOCK_BYTES``. Each W has the
    bits of the one-point evaluation: products and quotients of complex
    scalars as CPython forms them, then the terms ``c_j R_j`` subtracted in
    mode order by one ``np.subtract.reduce``, over the upper triangle and
    mirrored (``A`` and ``R_j`` are bitwise symmetric). The points before the
    first resonant one (:func:`canonical_poles`) or the first with an entry
    that is not finite are yielded; that point raises :class:`AtResonance`,
    naming its first resonant mode, or :class:`DimensionMismatch`.
    """
    lams = [complex(lam) for lam in lams]
    n, alpha, beta = cr.order, cr.rayleigh.alpha, cr.rayleigh.beta
    upper = np.triu_indices(n)
    a, mbb = cr.A.a[upper], np.diag(cr.Mbb)[upper]
    residues = np.reshape([mode.R.a for mode in cr.modes], (-1, n, n))[:, upper[0], upper[1]]
    terms = np.empty((len(residues) + 1, a.size), dtype=complex)
    block = max(1, CANONICAL_BLOCK_BYTES // (16 * (n * n + len(residues) + 1)))
    for start in range(0, len(lams), block):
        points = lams[start:start + block]
        resonant, q, lam, lam2 = _poles(cr, points)
        w = np.empty((len(points), n, n), dtype=complex)
        with np.errstate(all="ignore"):
            damp = 1.0 + _product(alpha, lam)
            # a complex times a real array: the real's zero imaginary part
            # adds only zeros, so fused multiply-adds keep CPython's bits
            direct = damp * a + (_product(beta, lam) + lam2) * mbb
            for p, c in enumerate(_quotient(_product(damp, damp), q)):
                terms[0] = direct[p]
                np.multiply(c[:, None], residues, out=terms[1:])
                w[p][upper] = w[p].T[upper] = np.subtract.reduce(terms, axis=0)
            finite = np.isfinite(np.abs(w)).all(axis=(1, 2))
        bad = np.nonzero(resonant.any(axis=1) | ~finite)[0]
        yield from w[:bad[0] if bad.size else len(points)]
        if bad.size and resonant[bad[0]].any():
            p, j = bad[0], np.argmax(resonant[bad[0]])
            raise AtResonance(
                f"lambda = {points[p]} is a pole: |q({cr.modes[j].sigma:.6g})| = "
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
        "A": [list(row) for row in cr.A.a],
        "Mbb": list(cr.Mbb),
        "modes": [
            {"sigma": m.sigma, "R": [list(row) for row in m.R.a]} for m in cr.modes
        ],
        "terminals": [list(p) for p in cr.terminal_positions],
    }


def canonical_from_dict(obj, path="canonical"):
    jsonio.check_fields(obj, path, ("alpha", "beta", "A", "Mbb", "modes", "terminals"))
    terminals = jsonio.as_matrix(obj["terminals"], f"{path}.terminals")
    if terminals.ndim != 2 or terminals.shape[1] not in (2, 3):
        raise SchemaError(f"{path}.terminals: expected rows of 2 or 3 coordinates")
    n = terminals.shape[0] * terminals.shape[1]
    try:
        a = SymMatrix(jsonio.as_matrix(obj["A"], f"{path}.A", (n, n)))
        modes = []
        for k, raw in enumerate(jsonio.as_list(obj["modes"], f"{path}.modes")):
            p = f"{path}.modes[{k}]"
            jsonio.check_fields(raw, p, ("sigma", "R"))
            modes.append(
                Mode(
                    jsonio.as_number(raw["sigma"], f"{p}.sigma"),
                    SymMatrix(jsonio.as_matrix(raw["R"], f"{p}.R", (n, n))),
                )
            )
        ray = RayleighParams(
            jsonio.as_number(obj["alpha"], f"{path}.alpha"),
            jsonio.as_number(obj["beta"], f"{path}.beta"),
        )
        return CanonicalResponse(
            rayleigh=ray,
            A=a,
            Mbb=jsonio.as_vector(obj["Mbb"], f"{path}.Mbb", n),
            modes=tuple(modes),
            terminal_positions=terminals,
        )
    except (ValueError, ElastonetError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"{path}: {exc}") from exc
