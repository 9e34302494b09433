"""Realizable resonance loci for fixed proportional-damping constants.

Every resonance of a proportionally damped network is a root of
``lambda^2 + (alpha*sigma + beta)*lambda + sigma`` for some interior modal
stiffness ``sigma > 0``. Sweeping sigma traces curves in the complex plane
whose shape depends only on (alpha, beta); ``locus`` returns the classical
piecewise description (the closure of the attainable set), while ``contains``
answers exact membership by solving for sigma and re-checking the roots.
"""

from dataclasses import dataclass

import numpy as np

from .model import RayleighParams


def resonances_of(sigma, rayleigh):
    """Both roots of ``lambda^2 + (alpha*sigma + beta)*lambda + sigma``.

    Returns ``(lambda_plus, lambda_minus)``. For ``sigma > 0`` the stable
    formula computes the larger-magnitude real root first and recovers the
    other from the product ``lambda_plus * lambda_minus = sigma``, avoiding
    cancellation when ``(alpha*sigma + beta)^2 >> 4 sigma``; ``sigma <= 0``
    (floppy modes, hand-edited candidates) takes the closed form. When
    ``b*b`` or ``4*sigma`` overflows, ``sqrt(|disc|) / 2`` is taken as
    ``sqrt(|h - r|) * sqrt(h + r)`` with ``h = b/2`` and ``r = sqrt(sigma)``.
    """
    sigma = float(sigma)
    b = rayleigh.alpha * sigma + rayleigh.beta
    disc = b * b - 4.0 * sigma
    if sigma <= 0:
        sq = np.sqrt(complex(disc))
        return complex((-b + sq) / 2.0), complex((-b - sq) / 2.0)
    if not np.isfinite(disc):
        h, r = b / 2.0, np.sqrt(sigma)
        half = np.sqrt(abs(h - r)) * np.sqrt(h + r)
        if h < r:
            return complex(-h, half), complex(-h, -half)
        lam_minus = -(h + half)
        return complex(sigma / lam_minus), complex(lam_minus)
    if disc >= 0.0:
        # sigma > 0 forces b > 0 here, so lam_minus < 0 and the division is safe
        lam_minus = -(b + np.sqrt(disc)) / 2.0
        lam_plus = sigma / lam_minus
        return complex(lam_plus), complex(lam_minus)
    im = np.sqrt(-disc) / 2.0
    return complex(-b / 2.0, im), complex(-b / 2.0, -im)


@dataclass(frozen=True)
class LocusPiece:
    """One curve of a resonance locus.

    ``kind`` is one of ``segment`` (real interval), ``ray`` (negative real
    axis), ``line`` (vertical line), ``circle`` or ``imaginary_axis``;
    ``params`` holds the defining constants (endpoints, center, radius...).
    """

    kind: str
    params: dict


@dataclass(frozen=True)
class LocusDescription:
    """Classified resonance locus for fixed (alpha, beta).

    The pieces record the classical closed-form description; the origin is
    never attainable (the root product equals sigma > 0). Exact membership,
    including the parts of the real axis the closed-form picture overstates,
    is decided by :func:`contains`.
    """

    case: str
    rayleigh: RayleighParams
    pieces: tuple


def classify(rayleigh):
    a, b = rayleigh.alpha, rayleigh.beta
    if a == 0.0 and b == 0.0:
        return "undamped"
    if a == 0.0:
        return "node_damping_only"
    if b == 0.0:
        return "dashpot_only"
    return "underdamped_mixed" if a * b < 1.0 else "overdamped_mixed"


def locus(rayleigh):
    """Piecewise description of the resonance locus for (alpha, beta)."""
    a, b = rayleigh.alpha, rayleigh.beta
    case = classify(rayleigh)
    if case == "undamped":
        pieces = (LocusPiece("imaginary_axis", {"origin_excluded": True}),)
    elif case == "node_damping_only":
        pieces = (
            LocusPiece("segment", {"start": -b, "end": 0.0, "end_open": True}),
            LocusPiece("line", {"re": -b / 2.0}),
        )
    elif case == "dashpot_only":
        pieces = (
            LocusPiece("ray", {"end": 0.0, "end_open": True}),
            LocusPiece(
                "circle",
                {"center": -1.0 / a, "radius": 1.0 / a, "origin_excluded": True},
            ),
        )
    elif case == "underdamped_mixed":
        pieces = (
            LocusPiece("ray", {"end": 0.0, "end_open": True}),
            LocusPiece(
                "circle",
                {
                    "center": -1.0 / a,
                    "radius": np.sqrt(1.0 - a * b) / a,
                    "origin_excluded": True,
                },
            ),
        )
    else:
        pieces = (LocusPiece("ray", {"end": 0.0, "end_open": True}),)
    return LocusDescription(case, rayleigh, pieces)


def contains(rayleigh, lam, tol=1e-9):
    """Exact locus membership: is ``lam`` a resonance for some sigma > 0?

    Returns ``(True, sigma)`` with the realizing modal stiffness, or
    ``(False, None)``. For an off-axis point the candidate is the conjugate
    root product ``|lam|^2``; for a real point it is the unique solution of
    the characteristic polynomial for sigma. Every candidate is verified by
    recomputing the roots.
    """
    lam = complex(lam)
    if lam == 0:
        return False, None
    scale = 1.0 + abs(lam)
    candidates = []
    denom = 1.0 + rayleigh.alpha * lam.real
    if abs(lam.imag) <= tol * scale and abs(denom) > 1e-300:
        candidates.append(-(lam.real**2 + rayleigh.beta * lam.real) / denom)
    candidates.append(abs(lam) ** 2)
    for sigma in candidates:
        if not np.isfinite(sigma) or sigma <= 0:
            continue
        roots = resonances_of(sigma, rayleigh)
        if min(abs(r - lam) for r in roots) <= tol * scale:
            return True, float(sigma)
    return False, None


def _piece_label(rayleigh, lam):
    case = classify(rayleigh)
    if case == "undamped":
        return "imaginary_axis"
    on_axis = abs(lam.imag) <= 1e-12 * (1.0 + abs(lam))
    if case == "node_damping_only":
        return "segment" if on_axis else "line"
    if case == "overdamped_mixed":
        return "ray"
    return "ray" if on_axis else "circle"


def locus_table(rayleigh, n_points):
    """Rows (re, im, sigma, piece_label) for CSV emission: the resonances of
    sigma log-spaced over [1e-2, 1e2], ``n_points`` rows in all."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    sigmas = np.logspace(-2.0, 2.0, (n_points + 1) // 2)
    rows = [
        {
            "re": lam.real,
            "im": lam.imag,
            "sigma": float(sigma),
            "piece_label": _piece_label(rayleigh, lam),
        }
        for sigma in sigmas
        for lam in resonances_of(sigma, rayleigh)
    ]
    return rows[:n_points]
