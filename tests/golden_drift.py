"""Compare two golden directories number by number.

Usage::

    PYTHONPATH=src python tests/golden_drift.py OLD_DIR NEW_DIR

A change of numerical method cannot keep the golden files byte-identical;
this script shows how far they moved. Byte-identical files are reported as
such. Every other file must be JSON of the same shape in both directories:
every key, string, boolean (``pass``, ``at_resonance``) and null equal, and
every number within ``BOUND`` of its old value, relative to the largest
entry modulus of the ``W`` matrix it belongs to (outside a ``W``, relative
to its own magnitude). A worst round-trip error ``max_rel_error`` is
rounding itself, so it may move freely as long as its old and new values
are both at most ``BOUND``. A file present in only one directory fails. Exit
codes are not stored in the golden files: ``tests/test_golden.py`` holds
them in ``CASES``, and its ``regenerate`` refuses any case whose exit code
differs.

A characterization report prints rounding-level numbers: a PSD condition's
smallest eigenvalue and ``worst_violation`` are often ``1e-16`` of the
matrix they test, which no change of rounding keeps. So the numbers of
the conditions in ``SCALED`` (each number in the witness text and the
``worst_violation``) are bounded by ``BOUND`` relative to the scale of the
matrix the condition tests: ``|A|``, ``max |R_j|`` or the largest ``|omega
Im W|`` on the passivity grid, each the largest entry modulus. ``W(0) = A -
sum_j R_j/sigma_j`` is rounded at the scale of its terms, which its own
``|W(0)|`` is not when the static response vanishes, so the static
conditions take ``max(|A|, max_j |R_j/sigma_j|)``. The scales are read from the old file's canonical form, or from
the golden input (``tests/test_golden.py::CASES``) when the file has none.
Such a witness's text outside its numbers must match exactly, every
number must keep its side of the condition's tolerance
(``|x| <= DEFAULT_TOL * max(1, scale)``, below it, or above it) and the
``pass`` flag must match.

Prints one line per file and exits 1 on any violation. Pytest does not
collect this file.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

from elastonet import assemble, canonical_from_dict, extract_canonical, network_from_dict
from elastonet.characterize import DEFAULT_TOL, PASSIVITY_GRID_POINTS, _dissipation
from elastonet.errors import AtResonance
from elastonet.response import canonical_poles

BOUND = 1e-12

# condition -> the matrix whose scale bounds its rounding-level numbers
SCALED = {
    "A_psd": "A",
    "R_psd": "R",
    "static_psd": "W(0) terms",
    "static_balanced": "W(0) terms",
    "passivity_sampled": "omega Im W",
}

# a number in a witness: a float as "%.3e" or "%.6g" writes it; integers
# (mode indices, counts, the 0 of "W(0)") are text
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


def _w_scale(w):
    """Largest entry modulus of a ``W`` written as rows of [re, im] pairs."""
    return float(np.hypot(*np.moveaxis(np.asarray(w, dtype=float), -1, 0)).max())


def _peak(a):
    return float(np.abs(a).max(initial=0.0))


def matrix_scales(cr):
    """Largest entry modulus of ``A``, every ``R_j``, the terms ``A`` and
    ``R_j/sigma_j`` of ``W(0)`` and ``omega Im W`` on the passivity grid of a
    ``CanonicalResponse``, by the matrix names of ``SCALED``; ``W(0) terms``
    is absent when a pole sits at 0."""
    scales = {"A": _peak(cr.A.a), "R": max([_peak(r) for r in cr.residues], default=0.0)}
    try:
        scales["W(0) terms"] = max(scales["A"], _peak(cr.static_terms))
    except AtResonance:
        pass
    grid = np.logspace(-2.0, 2.0, PASSIVITY_GRID_POINTS)
    omegas = np.concatenate([-grid[::-1], grid])
    resonant = canonical_poles(cr, [1j * float(omega) for omega in omegas]).any(axis=1)
    scales["omega Im W"] = float(max(_dissipation(cr, omegas[~resonant])[1], default=0.0))
    return scales


def _input_canonical(stem):
    """The canonical form of the golden input of case ``stem``, or None."""
    from test_golden import CASES  # imports this module

    build = CASES.get(stem, (None,))[0]
    obj = build() if build is not None else None
    if isinstance(obj, dict) and "nodes" in obj:
        return extract_canonical(assemble(network_from_dict(obj)), check=False)
    return canonical_from_dict(obj) if isinstance(obj, dict) and "modes" in obj else None


def condition_scales(stem, old):
    """``{condition: scale}`` for the conditions of ``SCALED`` in a golden
    object holding a characterization report; empty when it holds none."""
    if not (isinstance(old, dict) and ("conditions" in old or "characterization" in old)):
        return {}
    canonical = old.get("canonical")
    cr = canonical_from_dict(canonical) if canonical else _input_canonical(stem)
    if cr is None:
        return {}
    scales = matrix_scales(cr)
    return {name: scales[matrix] for name, matrix in SCALED.items() if matrix in scales}


def _side(x, line):
    """-1, 0 or 1: ``x`` below, within or above ``[-line, line]``."""
    return (x > line) - (x < -line)


def _rounding(old, new, path, scale, out):
    """Drift of one rounding-level number bounded against ``scale``; returns
    a mismatch when the number changes its side of the tolerance."""
    line = DEFAULT_TOL * max(1.0, scale)
    if _side(old, line) != _side(new, line):
        return f"{path}: {old!r} -> {new!r} crosses the tolerance {line:.3e}"
    out.append((abs(new - old) / scale if scale else float(new != old), path, new != old))
    return None


def _condition(old, new, path, scale, out):
    """A condition of ``SCALED``: same keys and ``pass`` flag, the same
    witness text outside its numbers, each number by :func:`_rounding`."""
    if not (isinstance(old, dict) and isinstance(new, dict)) or sorted(old) != sorted(new):
        return _walk(old, new, path, None, out)
    for key in sorted(old):
        a, b, where = old[key], new[key], f"{path}.{key}"
        if key == "witness" and isinstance(a, str) and isinstance(b, str):
            if NUMBER.split(a) != NUMBER.split(b):
                return f"{where}: {a!r} -> {b!r}"
            numbers = zip(NUMBER.findall(a), NUMBER.findall(b))
        elif key == "worst_violation" and {type(a), type(b)} <= {int, float}:
            numbers = [(a, b)]
        else:
            numbers = ()
            bad = _walk(a, b, where, None, out)
            if bad:
                return bad
        for x, y in numbers:
            bad = _rounding(float(x), float(y), where, scale, out)
            if bad:
                return bad
    return None


def _walk(old, new, path, scale, out, scaled=None):
    """Collect drifts into ``out``; returns the first structural mismatch or
    None. ``scaled`` maps a condition of ``SCALED`` to its matrix scale."""
    if old is None or isinstance(old, (bool, str)) or isinstance(new, bool):
        if old == new and type(old) is type(new):
            return None
        return f"{path}: {old!r} -> {new!r}"
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        ref = scale if scale is not None else abs(old)
        drift = abs(new - old) / ref if ref else float(new != old)
        if path.endswith(".max_rel_error") and new != old:
            drift = max(abs(old), abs(new))  # absolute: both at rounding level
        out.append((drift, path, new != old))
        return None
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            return f"{path}: keys {sorted(old)} -> {sorted(new)}"
        for key in sorted(old):
            where = f"{path}.{key}"
            if scaled and path.endswith(".conditions") and key in scaled:
                bad = _condition(old[key], new[key], where, scaled[key], out)
            else:
                sub = _w_scale(old[key]) if key == "W" else scale
                bad = _walk(old[key], new[key], where, sub, out, scaled)
            if bad:
                return bad
        return None
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path}: length {len(old)} -> {len(new)}"
        for k, (a, b) in enumerate(zip(old, new)):
            bad = _walk(a, b, f"{path}[{k}]", scale, out, scaled)
            if bad:
                return bad
        return None
    return f"{path}: {type(old).__name__} -> {type(new).__name__}"


def compare(old_dir, new_dir):
    """One report line per file and whether every file is within bounds."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.iterdir()})
    lines, ok = [], True
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: FAIL only in {'old' if a.exists() else 'new'}")
            ok = False
            continue
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
            continue
        try:
            old, new = json.loads(a.read_text()), json.loads(b.read_text())
        except ValueError:
            lines.append(f"{name}: FAIL differs and is not JSON")
            ok = False
            continue
        drifts = []
        scaled = condition_scales(Path(name).stem, old)
        bad = _walk(old, new, name, None, drifts, scaled)
        if bad:
            lines.append(f"{name}: FAIL structure or flag changed at {bad}")
            ok = False
            continue
        worst, where, _ = max(drifts)
        changed = sum(moved for _, _, moved in drifts)
        verdict = "ok" if worst <= BOUND else "FAIL"
        kind = "absolute" if where.endswith(".max_rel_error") else "relative"
        lines.append(
            f"{name}: {verdict} {changed} of {len(drifts)} numbers changed, worst "
            f"{worst:.2e} {kind} at {where}; keys and flags unchanged"
        )
        ok = ok and worst <= BOUND
    return lines, ok


def main(argv):
    if len(argv) != 2:
        print("usage: PYTHONPATH=src python tests/golden_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, ok = compare(*argv)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
