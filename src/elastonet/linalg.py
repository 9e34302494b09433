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

    def __init__(self, entries, tol=SYMMETRY_TOL):
        a = np.asarray(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if np.iscomplexobj(a):
            a = a.astype(np.complex128, copy=False)
        else:
            a = a.astype(np.float64, copy=False)
        if a.size:
            scale = np.abs(a).max()  # NaN or inf here iff some entry is
            if not np.isfinite(scale):
                raise DimensionMismatch("matrix entries must be finite")
            gap = np.abs(a - a.T).max()
            if gap > tol * scale:
                raise AsymmetricMatrix(
                    f"asymmetry {gap:.3e} exceeds {tol:.1e} * max|entry| = {tol * scale:.3e}"
                )
        self.a = 0.5 * (a + a.T)
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
    return 0.5 * (a + a.T)


def schur_complement(a, partition, mode="inverse", tol=PINV_TOL):
    """Schur complement of the interior block of a symmetric matrix.

    Returns ``S = A_BB - A_BI inv(A_II) A_IB`` where the interior inverse is
    either a true inverse (``mode="inverse"``, raising :class:`SingularBlock`
    when the block is numerically singular) or a Moore-Penrose pseudoinverse
    with singular values at or below ``tol`` times the largest truncated
    (``mode="pseudoinverse"``).

    Parameters
    ----------
    a : SymMatrix
    partition : BlockPartition
        Must cover exactly the index range of ``a``.
    mode : {"inverse", "pseudoinverse"}
    tol : float
        Relative singular-value threshold.
    """
    if mode not in ("inverse", "pseudoinverse"):
        raise ValueError(f"unknown mode {mode!r}")
    partition.check_covers(a.order)
    bb = np.ix_(partition.boundary, partition.boundary)
    if not partition.interior:
        return SymMatrix(a.a[bb])
    if not partition.boundary:
        return SymMatrix(np.zeros((0, 0), dtype=a.a.dtype))
    bi = np.ix_(partition.boundary, partition.interior)
    ii = np.ix_(partition.interior, partition.interior)
    a_ii = a.a[ii]
    u, s, vh = np.linalg.svd(a_ii)
    smax = s[0] if s.size else 0.0
    if mode == "inverse":
        smin = s[-1] if s.size else 0.0
        if smax == 0.0 or smin <= tol * smax:
            raise SingularBlock(
                f"interior block numerically singular: smallest singular value "
                f"{smin:.3e} vs threshold {tol * smax:.3e}",
                smallest_singular_value=smin,
            )
        keep = np.ones(s.size, dtype=bool)
    else:
        keep = s > tol * smax
    inv = (vh[keep].conj().T * (1.0 / s[keep])) @ u[:, keep].conj().T
    cross = _sym_part(a.a[bi] @ inv @ a.a[bi].T)
    return SymMatrix(a.a[bb] - cross)


def sym_eig(a):
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors orthonormal in the columns, so ``A = V diag(w) V.T``.
    """
    if a.field != "real":
        raise DimensionMismatch("sym_eig expects a real symmetric matrix")
    return np.linalg.eigh(a.a)


def is_psd(a, tol=PINV_TOL):
    """True iff the real symmetric matrix is PSD up to a relative slack.

    The test is ``min eig >= -tol * max(1, max eig)`` so that the zero matrix
    and tiny negative rounding both pass.
    """
    arr = a.a if isinstance(a, SymMatrix) else _sym_part(np.asarray(a, dtype=float))
    if arr.size == 0:
        return True
    w = np.linalg.eigvalsh(arr)
    return bool(w[0] >= -tol * max(1.0, w[-1]))


def min_eig(arr):
    """Smallest eigenvalue of a (numerically) symmetric real matrix."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(_sym_part(arr))[0])
