"""Admissibility checks for candidate pole-residue responses.

A candidate is the response of some proportionally damped network iff every
residue is PSD with positive modal stiffness, the terminal mass block is
nonnegative diagonal, the instantaneous stiffness block is PSD, all poles
sit in the closed left half plane, and the static slice ``W(0)`` is PSD
with every column a balanced force system at the terminals. Passivity
(``omega * Im W(i omega)`` PSD for real omega) follows from those
conditions; it is sampled here anyway as a regression guard on the
numerical extraction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AtResonance
from .geometry import check_balanced
from .linalg import psd_check, psd_checks
from .resonances import resonances_of
from .response import canonical_poles, canonical_responses

PASSIVITY_GRID_POINTS = 41  # per sign, spanning omega in [1e-2, 1e2]
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    worst_violation: float
    witness: str


@dataclass(frozen=True)
class CharacterizationReport:
    """Per-condition outcome of the admissibility check."""

    conditions: dict
    warnings: tuple = ()

    @property
    def passed(self):
        return all(c.passed for c in self.conditions.values())

    def failing(self):
        return [n for n, c in self.conditions.items() if not c.passed]

    def to_dict(self):
        return {
            "pass": self.passed,
            "conditions": {
                name: {
                    "pass": c.passed,
                    "worst_violation": c.worst_violation,
                    "witness": c.witness,
                }
                for name, c in self.conditions.items()
            },
            "warnings": list(self.warnings),
        }


def passivity_margin(cr, omega):
    """Smallest eigenvalue of ``omega * Im W(i omega)``.

    Nonnegative for admissible responses at every real omega: damping can
    only consume energy.
    """
    return _dissipation(cr, [omega])[0][0]


def _dissipation(cr, omegas):
    """Smallest eigenvalue and largest entry modulus of the bitwise symmetric
    ``omega * Im W(i omega)`` at each omega; a pole raises :class:`AtResonance`."""
    omegas = np.asarray(omegas, dtype=float)
    images = [w.imag for w in canonical_responses(cr, [1j * float(x) for x in omegas])]
    dissipation = omegas[:, None, None] * np.reshape(images, (len(omegas), cr.order, cr.order))
    lows = [low for low, _ in psd_checks(dissipation)]
    return lows, np.abs(dissipation).max(axis=(1, 2), initial=0.0)


def check_canonical(cr, tol=DEFAULT_TOL):
    """Evaluate every admissibility condition on a candidate response.

    Never raises on a bad candidate: all failures are carried in the
    report. ``worst_violation`` is zero for a clean pass and otherwise the
    magnitude of the worst offence; ``witness`` names the offender.
    """
    conditions = {}

    sig = cr.sigmas.tolist()
    worst = 0.0
    witness = "no modes" if not sig else ""
    ok = True
    for k, (low, psd) in enumerate(psd_checks(cr.residues, tol=tol)):
        ok = ok and psd
        if low < -worst:
            worst = -low
            witness = f"mode {k} residue min eigenvalue {low:.3e}"
    conditions["R_psd"] = ConditionResult(ok, worst, witness or "all residues PSD")

    ok = all(s > 0.0 for s in sig)
    worst = max([0.0] + [-s for s in sig if s <= 0.0])
    conditions["sigma_positive"] = ConditionResult(
        ok, worst, f"min sigma = {min(sig):.6g}" if sig else "no modes"
    )

    low = float(cr.Mbb.min()) if cr.Mbb.size else 0.0
    conditions["M_diag_psd"] = ConditionResult(
        low >= -tol, max(0.0, -low), f"min terminal mass entry {low:.6g}"
    )

    low, psd = psd_check(cr.A, tol=tol)
    conditions["A_psd"] = ConditionResult(
        psd, max(0.0, -low), f"A min eigenvalue {low:.3e}"
    )

    worst_re = 0.0
    witness = "no poles" if not sig else ""
    for sigma in sig:
        re = max(float(r.real) for r in resonances_of(sigma, cr.rayleigh))
        if re > worst_re:
            worst_re = re
            witness = f"pole with Re = {re:.3e} from sigma = {sigma:.6g}"
    conditions["poles_left_half"] = ConditionResult(
        worst_re <= tol, max(0.0, worst_re), witness or "all poles in Re <= 0"
    )

    try:
        w0 = cr.static_response()
    except AtResonance as exc:  # a pole at lambda = 0 fails both
        conditions["static_psd"] = ConditionResult(False, 0.0, str(exc))
        conditions["static_balanced"] = conditions["static_psd"]
    else:
        low, psd = psd_check(w0, tol=tol)
        conditions["static_psd"] = ConditionResult(
            psd, max(0.0, -low), f"W(0) min eigenvalue {low:.3e}"
        )
        ok, residual = check_balanced(w0.a, cr.terminal_positions, tol=tol)
        conditions["static_balanced"] = ConditionResult(
            ok, residual, f"worst force/torque residual {residual:.3e}"
        )

    # the pass test is relative to the sampled matrix magnitude: at large
    # omega the PSD quantity is rounding in W(0) amplified by alpha*omega^2,
    # which an absolute threshold cannot absorb
    grid = np.logspace(-2.0, 2.0, PASSIVITY_GRID_POINTS)
    omegas = np.concatenate([-grid[::-1], grid])
    resonant = canonical_poles(cr, [1j * float(omega) for omega in omegas]).any(axis=1)
    worst_margin = np.inf
    worst_ratio = np.inf
    witness = ""
    for omega, margin, peak in zip(omegas[~resonant], *_dissipation(cr, omegas[~resonant])):
        ratio = margin / (1.0 + peak)
        if ratio < worst_ratio:
            worst_ratio = ratio
            worst_margin = margin
            witness = f"min eig(omega Im W) = {margin:.3e} at omega = {omega:.6g}"
    if resonant.any():
        witness += f" ({resonant.sum()} resonant grid points skipped)"
    conditions["passivity_sampled"] = ConditionResult(
        bool(worst_ratio >= -tol), max(0.0, -float(worst_margin)), witness
    )

    warnings = []
    if cr.Mbb.size:
        blocks = cr.Mbb.reshape(cr.n_terminals, cr.dimension)
        spread = np.abs(blocks - blocks[:, :1]).max()
        if spread > 1e-12 * (1.0 + np.abs(cr.Mbb).max()):
            warnings.append(
                "terminal mass diagonal varies within a node's coordinate "
                f"block (spread {spread:.3e}); such a response has no "
                "realization by isotropic nodal masses"
            )
    return CharacterizationReport(conditions, tuple(warnings))
