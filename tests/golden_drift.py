"""Compare two golden directories number by number.

Usage::

    python tests/golden_drift.py OLD_DIR NEW_DIR

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

Prints one line per file and exits 1 on any violation. Pytest does not
collect this file.
"""

import json
import sys
from pathlib import Path

import numpy as np

BOUND = 1e-12


def _w_scale(w):
    """Largest entry modulus of a ``W`` written as rows of [re, im] pairs."""
    return float(np.hypot(*np.moveaxis(np.asarray(w, dtype=float), -1, 0)).max())


def _walk(old, new, path, scale, out):
    """Collect drifts into ``out``; returns the first structural mismatch or None."""
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
            sub = _w_scale(old[key]) if key == "W" else scale
            bad = _walk(old[key], new[key], f"{path}.{key}", sub, out)
            if bad:
                return bad
        return None
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{path}: length {len(old)} -> {len(new)}"
        for k, (a, b) in enumerate(zip(old, new)):
            bad = _walk(a, b, f"{path}[{k}]", scale, out)
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
        bad = _walk(old, new, name, None, drifts)
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
        print("usage: python tests/golden_drift.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, ok = compare(*argv)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
