"""Geometric helpers: torque cross products, force-balance verdicts, hulls."""

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch


def cross(x, f):
    """Cross product as used in torque balances.

    Scalar ``x0*f1 - x1*f0`` for d=2, the usual 3-vector for d=3. The
    3-vector is written out as ``np.cross`` computes it, so the bits are the
    same, without that function's per-call axis handling (two single
    3-vectors as Python floats, which round alike). The result is C-ordered,
    so a stack sums its nodes in the order one system does.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    d = x.shape[-1]
    if f.shape[-1] != d:
        raise DimensionMismatch("position/force dimension mismatch")
    if d not in (2, 3):
        raise DimensionMismatch(f"cross product defined for d in (2, 3), got {d}")
    shape = np.broadcast_shapes(x.shape, f.shape)
    if d == 2:
        out = np.empty(shape[:-1])
        return np.subtract(x[..., 0] * f[..., 1], x[..., 1] * f[..., 0], out=out)
    if len(shape) == 1:
        return np.array(cross_floats(x.tolist(), f.tolist()))
    out = np.empty(shape)
    return np.subtract(x[..., _NEXT] * f[..., _LAST], x[..., _LAST] * f[..., _NEXT], out=out)


def cross_floats(x, f):
    """:func:`cross` of two vectors given as lists of floats, as a list (of
    one float for d=2), with its bits: Python floats round as numpy's
    elementwise operations do."""
    if len(x) == 2:
        return [x[0] * f[1] - x[1] * f[0]]
    (x0, x1, x2), (f0, f1, f2) = x, f
    return [x1 * f2 - x2 * f1, x2 * f0 - x0 * f2, x0 * f1 - x1 * f0]


# component k of a 3-vector cross product is x[k+1] f[k+2] - x[k+2] f[k+1]
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def balance_verdicts(positions, forces, threshold):
    """``(passed, residual)`` of the equilibrium of a stack of force systems.

    ``forces`` is (..., n, d), ``positions`` broadcasts against it and
    ``threshold`` against the leading shape. ``residual`` is ``max(|sum
    f|_inf, |sum x_i x f_i|_inf)``. The force residual passes at
    ``threshold``. A torque is a force times a length, and so is its
    rounding: the torque residual passes at ``threshold * max(1, max|x|)``,
    with ``max|x|`` the largest coordinate magnitude of the system's
    positions. Each verdict is the one its system would get alone; maxima
    keep the first operand unless the second is larger, as ``max`` does.
    """
    positions = np.asarray(positions, dtype=float)
    forces = np.ascontiguousarray(forces, dtype=float)
    if positions.shape[-2:] != forces.shape[-2:]:
        raise DimensionMismatch(
            f"positions {positions.shape} vs forces {forces.shape}"
        )
    torque = cross(positions, forces)
    force = np.abs(forces.sum(axis=-2)).max(axis=-1)
    if positions.shape[-1] == 2:
        torque = np.abs(torque.sum(axis=-1))
    else:
        torque = np.abs(torque.sum(axis=-2)).max(axis=-1)
    length = np.fmax(np.abs(positions).max(axis=(-2, -1), initial=0.0), 1.0)
    passed = (force <= threshold) & (torque <= threshold * length)
    return passed, np.where(torque > force, torque, force)


def check_balanced(F, positions, tol=1e-10):
    """Are all columns of ``F`` balanced force systems at ``positions``?

    ``F`` is a (n*d, m) matrix (or a single (n*d,) vector); each column is
    read node-major. Returns ``(passed, worst_residual)``: every column
    passes :func:`balance_verdicts` at ``tol * (1 + max|F|)``, so the test
    is insensitive to force and length units. The worst residual is taken
    as ``max`` takes it: NaN only when the first column's is.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, d = positions.shape
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.ndim != 2 or F.shape[0] != n * d:
        raise DimensionMismatch(
            f"force matrix has shape {F.shape}, expected ({n * d}, m)"
        )
    if F.shape[1] == 0:
        raise DimensionMismatch("force matrix must have at least one column")
    threshold = tol * (1.0 + np.abs(F).max())
    passed, residual = balance_verdicts(positions, F.T.reshape(-1, n, d), threshold)
    worst = residual[0] if np.isnan(residual[0]) else np.fmax.reduce(residual)
    return bool(passed.all()), float(worst)


def balance_operator(positions):
    """Matrix B with ``B f = 0`` iff the force system ``f`` is balanced.

    Rows are the d force-sum equations followed by the torque equations
    (one for d=2, three for d=3); ``f`` is read node-major.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n, d = positions.shape
    n_torque = 1 if d == 2 else 3
    B = np.zeros((d + n_torque, n * d))
    B[:d] = np.tile(np.eye(d), n)
    if d == 2:
        B[2, 0::2], B[2, 1::2] = -positions[:, 1], positions[:, 0]
    else:
        x0, x1, x2 = positions.T
        B[3, 1::3], B[3, 2::3] = -x2, x1
        B[4, 0::3], B[4, 2::3] = x2, -x0
        B[5, 0::3], B[5, 1::3] = -x1, x0
    return B


def project_balanced(forces, positions):
    """Orthogonal projections of force vectors onto the balanced subspace.

    ``B`` and its pseudoinverse are formed once for all of ``forces``; each
    vector is projected by its own matrix-vector products.
    """
    B = balance_operator(positions)
    B_pinv = np.linalg.pinv(B)
    return [f - B_pinv @ (B @ f) for f in forces]


# Point sets whose hull maps are kept, the least recently used dropped
# first. A synthesis asks for the distances of all its internal nodes to one
# set of terminals.
HULL_CACHE_SIZE = 4


@lru_cache(maxsize=HULL_CACHE_SIZE)
def _hull_systems(shape, data):
    """Affine maps of ``[x; 1]`` for the regular subsets of 2 to d+1 points.

    The point set is given by content, its shape and float64 bytes, so a set
    changed in place is a new key. A subset's KKT system projects ``x`` onto
    its affine hull in barycentric coordinates ``t``, ``sum(t) = 1``; its
    right-hand side ``[2 p x; 1]`` is linear in ``[x; 1]``, so the solutions
    for ``[2p; 0]`` and ``e_{s+1}`` give ``t`` as a map. An exactly zero
    pivot marks an affinely dependent subset, which the smaller subsets
    cover; ``slogdet`` runs the LU that ``solve`` would run.
    """
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
    # coordinate-major: the rows of each output coordinate of every subset
    # together, so a call's output is a (2d + 1, subsets) array
    maps = np.concatenate(maps).transpose(1, 0, 2).reshape(-1, d + 1)
    maps.flags.writeable = False
    return maps


def hull_distance(x, points):
    """Exact Euclidean distance from ``x`` to the convex hull of ``points``.

    Enumerates candidate supporting subsets of size at most d+1 (enough by
    Caratheodory) and keeps the best feasible affine projection. Each
    subset's projection is an affine map of ``x``, kept for the
    ``HULL_CACHE_SIZE`` point sets used last, so a call is one
    matrix-vector product followed by elementwise minima and sums over the
    rows of its coordinate-major output. Intended for the desk-scale point
    sets of this package, not large hulls.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if x.shape != (d,):
        raise DimensionMismatch(f"point has shape {x.shape}, hull points are {d}-dim")
    best = np.sqrt(((pts - x) ** 2).sum(-1)).min()
    if best == 0.0:
        return 0.0
    maps = _hull_systems(pts.shape, pts.tobytes())
    out = (maps @ np.concatenate([x, [1.0]])).reshape(2 * d + 1, -1)
    feasible = out[:d + 1].min(axis=0) >= -1e-12
    cand = np.sqrt(np.square(out[d + 1:]).sum(axis=0))  # np.linalg.norm's sum
    # fmin skips NaN candidates
    return float(np.fmin.reduce(cand, where=feasible, initial=best))
