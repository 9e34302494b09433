"""Dense symmetric-matrix utilities shared by the whole package.

Everything here is plain dense numpy: the networks this package targets are
desk scale (at most a few hundred nodes), so O(n^3) factorizations are cheap
and far easier to verify than sparse or iterative alternatives.
"""

import numpy as np

from .errors import AsymmetricMatrix, DimensionMismatch, SingularBlock

# Relative asymmetry accepted at construction before we refuse to repair.
SYMMETRY_TOL = 1e-12

# Default relative truncation threshold for pseudoinverse Schur complements.
PINV_TOL = 1e-10


class SymMatrix:
    """Square symmetric matrix over the reals or complexes.

    Symmetry is repaired by averaging with the transpose at construction;
    asymmetry beyond ``SYMMETRY_TOL`` times the largest entry magnitude is an
    error rather than something to silently fix.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.asarray(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if np.iscomplexobj(a):
            a = a.astype(np.complex128, copy=False)
        else:
            a = a.astype(np.float64, copy=False)
        self.a = symmetrized(a)
        self.a.flags.writeable = False

    @property
    def order(self):
        return self.a.shape[0]

    @property
    def field(self):
        return "complex" if np.iscomplexobj(self.a) else "real"

    def __array__(self, dtype=None, copy=None):
        return np.array(self.a, dtype=dtype) if dtype else np.asarray(self.a)

    def __repr__(self):
        return f"SymMatrix(order={self.order}, field={self.field})"


class BlockPartition:
    """Partition of the index range 0..n-1 into boundary and interior sets."""

    __slots__ = ("boundary", "interior")

    def __init__(self, boundary, interior):
        b = tuple(map(int, boundary))
        i = tuple(map(int, interior))
        if set(b) & set(i):
            raise DimensionMismatch("boundary and interior index sets overlap")
        if len(set(b)) != len(b) or len(set(i)) != len(i):
            raise DimensionMismatch("repeated index in partition")
        if b + i and min(b + i) < 0:
            raise DimensionMismatch("negative index in partition")
        self.boundary = b
        self.interior = i

    @property
    def order(self):
        return len(self.boundary) + len(self.interior)

    def check_covers(self, order):
        if set(self.boundary) | set(self.interior) != set(range(order)):
            raise DimensionMismatch(
                f"partition covers {self.order} indices, matrix has order {order}"
            )

    def __repr__(self):
        return f"BlockPartition(boundary={self.boundary}, interior={self.interior})"


def _sym_part(a):
    # (a + a.T)/2 is bitwise symmetric; used to kill rounding asymmetry in products
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def symmetrized(a):
    """``(a + a^T) / 2`` of a matrix, or of each matrix in a stack.

    The last two axes index the matrix. Every matrix must have finite
    entries (:class:`DimensionMismatch`) and an asymmetry of at most
    ``SYMMETRY_TOL`` times its own largest entry magnitude
    (:class:`AsymmetricMatrix`, with the numbers of the first offending
    matrix).
    """
    if a.size:
        scale = np.abs(a).max(axis=(-2, -1))  # NaN or inf here iff some entry is
        if not np.isfinite(scale).all():
            raise DimensionMismatch("matrix entries must be finite")
        gap = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
        over = np.ravel(gap > SYMMETRY_TOL * scale)
        if over.any():
            k = int(np.argmax(over))
            gap, scale = np.ravel(gap)[k], np.ravel(scale)[k]
            raise AsymmetricMatrix(
                f"asymmetry {gap:.3e} exceeds {SYMMETRY_TOL:.1e} * max|entry| = "
                f"{SYMMETRY_TOL * scale:.3e}"
            )
    return _sym_part(a)


def _indices(boundary, interior):
    return np.asarray(boundary, dtype=np.intp), np.asarray(interior, dtype=np.intp)


def _block(a, rows, cols):
    """The ``(rows, cols)`` block of every matrix in a stack.

    Gathered with ``np.ix_`` over all three axes: the block comes out
    C-contiguous, so every product of blocks is one BLAS call per matrix.
    """
    return a[np.ix_(np.arange(len(a)), rows, cols)]


def schur_complements(a, boundary, interior, mode="inverse", tol=PINV_TOL):
    """Schur complements of a stack of symmetric matrices over one partition.

    ``a`` has shape ``(G, n, n)``, every matrix bitwise symmetric, and
    ``boundary``/``interior`` split ``range(n)``. Returns the ``(G, nb, nb)``
    stack of ``A_BB - A_BI inv(A_II) A_IB``, bitwise symmetric; see
    :func:`schur_complement` for the two modes. Each interior block is
    inverted through its own SVD, so a matrix's complement does not depend
    on the rest of the stack. In inverse mode the first numerically
    singular block raises :class:`SingularBlock`, whose ``index`` is its
    position in the stack.
    """
    if mode not in ("inverse", "pseudoinverse"):
        raise ValueError(f"unknown mode {mode!r}")
    b, i = _indices(boundary, interior)
    a_bb = _block(a, b, b)
    if not (i.size and b.size):
        return a_bb
    a_bi = _block(a, b, i)
    u, s, vh = np.linalg.svd(_block(a, i, i))
    smax = s[:, 0]
    keep = s > tol * smax[:, None]  # a prefix: singular values descend
    if mode == "inverse" and not keep.all():
        # the smallest singular value of block k is at or below tol * smax
        k = int(np.argmin(keep[:, -1]))
        smin = s[k, -1]
        raise SingularBlock(
            f"interior block numerically singular: smallest singular value "
            f"{smin:.3e} vs threshold {tol * smax[k]:.3e}",
            smallest_singular_value=smin,
            index=k,
        )
    inv = np.empty_like(u)
    rank = keep.sum(axis=1)
    for r in np.unique(rank):
        sel = rank == r
        scaled = vh[sel, :r].conj().swapaxes(-1, -2) * (1.0 / s[sel, None, :r])
        u_h = np.ascontiguousarray(u[sel, :, :r].conj().swapaxes(-1, -2))
        inv[sel] = scaled @ u_h
    cross = _sym_part(a_bi @ inv @ a_bi.swapaxes(-1, -2))
    return a_bb - cross


def schur_complements_lu(a, boundary, interior):
    """Schur complements of a stack of symmetric matrices by LU solves.

    Takes the arguments of :func:`schur_complements` and returns the same
    bitwise symmetric ``(G, nb, nb)`` stack, ``A_BB - A_BI X``, where ``X``
    solves ``A_II X = A_IB`` through one stacked ``np.linalg.solve`` (LU
    with partial pivoting). An interior block with an exactly zero pivot
    makes the whole call raise ``np.linalg.LinAlgError``. A nearly singular
    block is not detected: its complement may be inaccurate or not finite,
    so a caller compares the result with an independent value.
    """
    b, i = _indices(boundary, interior)
    a_bb = _block(a, b, b)
    if not (i.size and b.size):
        return a_bb
    x = np.linalg.solve(_block(a, i, i), _block(a, i, b))
    return a_bb - _sym_part(_block(a, b, i) @ x)


def schur_complement(a, partition, mode="inverse"):
    """Schur complement of the interior block of a symmetric matrix.

    Returns ``S = A_BB - A_BI inv(A_II) A_IB`` where the interior inverse is
    either a true inverse (``mode="inverse"``, raising :class:`SingularBlock`
    when the block is numerically singular) or a Moore-Penrose pseudoinverse
    with singular values at or below ``PINV_TOL`` times the largest truncated
    (``mode="pseudoinverse"``). This is :func:`schur_complements` on a stack
    of one.

    Parameters
    ----------
    a : SymMatrix
    partition : BlockPartition
        Must cover exactly the index range of ``a``.
    mode : {"inverse", "pseudoinverse"}
    """
    partition.check_covers(a.order)
    s = schur_complements(a.a[None], partition.boundary, partition.interior, mode)
    return SymMatrix(s[0])


def psd_check(a, tol=PINV_TOL):
    """Smallest eigenvalue of a real symmetric matrix and its PSD verdict.

    Both come from one eigensolve. The verdict is ``min eig >= -tol *
    max(1, max eig)``, so that the zero matrix and tiny negative rounding
    both pass; an empty matrix gives ``(0.0, True)``.
    """
    arr = a.a if isinstance(a, SymMatrix) else _sym_part(np.asarray(a, dtype=float))
    if arr.size == 0:
        return 0.0, True
    w = np.linalg.eigvalsh(arr)
    return float(w[0]), bool(w[0] >= -tol * max(1.0, w[-1]))


def is_psd(a, tol=PINV_TOL):
    """True iff the real symmetric matrix is PSD up to a relative slack.

    See :func:`psd_check` for the test.
    """
    return psd_check(a, tol)[1]

