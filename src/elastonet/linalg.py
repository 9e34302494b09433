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

# Smallest kept |eigenvalue| of a block, relative to the largest, at or
# below which schur_complement_eigh defers to the SVD: the two kernels agree
# to about kappa*u (2e-12 at kappa = 1e4) only up to that condition, so the
# rank and refusal decisions of near-singular blocks stay the SVD's.
EIGH_GUARD = 1e-4

HALF_MAX = np.finfo(float).max / 2


class SymMatrix:
    """Square symmetric matrix over the reals or complexes.

    The entries are kept as a private read-only copy (``copy=False``: an
    array handed over is kept itself when its type fits). A bitwise symmetric
    matrix is stored as given; any other is repaired by averaging with its
    transpose (:func:`symmetrized`), and an asymmetry beyond
    ``SYMMETRY_TOL`` times the largest entry magnitude is an error rather
    than something to silently fix.
    """

    __slots__ = ("a",)

    def __init__(self, entries, copy=True):
        a = np.asarray(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        dtype = np.complex128 if np.iscomplexobj(a) else np.float64
        a = np.array(a, dtype=dtype, order="C", copy=copy or None)
        # |z| <= sqrt(2) * DBL_MAX/2 when no part exceeds DBL_MAX/2 (NaN
        # fails that too); past it |z| can overflow though both parts are finite
        parts = a.view(np.float64)
        small = -HALF_MAX <= parts.min(initial=0.0) and parts.max(initial=0.0) <= HALF_MAX
        if not small and not np.isfinite(np.abs(a) if dtype is np.complex128 else a).all():
            raise DimensionMismatch("matrix entries must be finite")
        # integers tell -0.0 from 0.0, which == does not; a complex entry
        # is compared as its two parts
        bits = a.view(np.int64).reshape(a.shape + (a.itemsize // 8,))
        if not np.array_equal(bits, bits.swapaxes(0, 1)):
            a = symmetrized(a)
        a.flags.writeable = False
        self.a = a

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


def _sym_part(a):
    # (a + a.T)/2 is bitwise symmetric; used to kill rounding asymmetry in products
    return 0.5 * (a + a.T)


def symmetrized(a):
    """``(a + a^T) / 2`` of a square matrix.

    The entries must be finite (:class:`DimensionMismatch`) and the
    asymmetry at most ``SYMMETRY_TOL`` times the largest entry magnitude
    (:class:`AsymmetricMatrix`).
    """
    scale = np.abs(a).max(initial=0.0)
    if not np.isfinite(scale):  # NaN or inf here iff some entry is
        raise DimensionMismatch("matrix entries must be finite")
    gap = np.abs(a - a.T).max(initial=0.0)
    if gap > SYMMETRY_TOL * scale:
        raise AsymmetricMatrix(
            f"asymmetry {gap:.3e} exceeds {SYMMETRY_TOL:.1e} * max|entry| = "
            f"{SYMMETRY_TOL * scale:.3e}"
        )
    return _sym_part(a)


def schur_complement(a, nb, mode="inverse"):
    """Schur complement of the interior block of a symmetric array.

    ``a`` is a finite 2-D array, bitwise symmetric and boundary first: its
    leading ``nb`` indices are the boundary.
    Returns ``S = A_BB - A_BI inv(A_II) A_IB`` where the interior inverse is
    either a true inverse (``mode="inverse"``, raising :class:`SingularBlock`
    when the block is numerically singular) or a Moore-Penrose pseudoinverse
    with singular values at or below ``PINV_TOL`` times the largest truncated
    (``mode="pseudoinverse"``). Both come from one SVD of the interior block.
    """
    if mode not in ("inverse", "pseudoinverse"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < nb < len(a):
        return SymMatrix(a[:nb, :nb])
    a_bi = a[:nb, nb:]
    u, s, vh = np.linalg.svd(a[nb:, nb:])
    keep = s > PINV_TOL * s[0]  # a prefix: singular values descend
    if mode == "inverse" and not keep.all():
        raise SingularBlock(
            f"interior block numerically singular: smallest singular value "
            f"{s[-1]:.3e} vs threshold {PINV_TOL * s[0]:.3e}",
            smallest_singular_value=s[-1],
        )
    r = int(keep.sum())
    inv = (vh[:r].conj().T * (1.0 / s[:r])) @ np.ascontiguousarray(u[:, :r].conj().T)
    return SymMatrix(a[:nb, :nb] - _sym_part(a_bi @ inv @ a_bi.T))


def schur_complement_eigh(a, nb):
    """Pseudoinverse Schur complement of a real symmetric array by one
    ``eigh``.

    ``a`` is as for :func:`schur_complement`. ``A_II = U diag(w) U^T``;
    eigenvalues with ``|w| <= PINV_TOL * max|w|`` are truncated, the rule
    :func:`schur_complement` applies to singular values, and ``S = A_BB -
    (Y / w) Y^T`` with ``Y = A_BI U`` over the kept ones. A block whose
    smallest kept ``|w|`` is at most ``EIGH_GUARD * max|w|``, or that is
    zero, gets :func:`schur_complement` in ``"pseudoinverse"`` mode instead,
    with its bits.
    """
    if not 0 < nb < len(a):
        return SymMatrix(a[:nb, :nb])
    w, u = np.linalg.eigh(a[nb:, nb:])
    mag = np.abs(w)
    top = mag.max()
    keep = mag > PINV_TOL * top
    if not top or mag[keep].min() <= EIGH_GUARD * top:
        return schur_complement(a, nb, "pseudoinverse")
    y = a[:nb, nb:] @ u[:, keep]
    return SymMatrix(a[:nb, :nb] - _sym_part((y / w[keep]) @ y.T), copy=False)


def schur_complement_lu(a, nb):
    """Schur complement of the interior block of a symmetric array by LU.

    ``a`` is as for :func:`schur_complement`. Returns the bitwise symmetric
    ``A_BB - A_BI X``, where ``X`` solves ``A_II X = A_IB`` by one
    ``np.linalg.solve`` (LU with partial pivoting).
    An exactly zero pivot raises ``np.linalg.LinAlgError``. A nearly
    singular block is not detected: its complement may be inaccurate or not
    finite, so a caller compares the result with an independent value.
    """
    if not 0 < nb < len(a):
        return a[:nb, :nb].copy()
    return a[:nb, :nb] - _sym_part(a[:nb, nb:] @ np.linalg.solve(a[nb:, nb:], a[nb:, :nb]))


def psd_check(a, tol=PINV_TOL):
    """Smallest eigenvalue of a real symmetric matrix and its PSD verdict.

    Both come from one eigensolve. The verdict is ``min eig >= -tol *
    max(1, max eig)``, so that the zero matrix and tiny negative rounding
    both pass; an empty matrix gives ``(0.0, True)``.
    """
    arr = a.a if isinstance(a, SymMatrix) else _sym_part(np.asarray(a, dtype=float))
    return psd_checks(arr[None], tol)[0]


def psd_checks(stack, tol=PINV_TOL):
    """:func:`psd_check` of each bitwise symmetric matrix of a ``(k, n, n)``
    stack by one stacked eigensolve, which has the bits of one per matrix."""
    if stack.size == 0:
        return [(0.0, True)] * len(stack)
    w = np.linalg.eigvalsh(stack)[:, [0, -1]]
    return [(float(lo), bool(lo >= -tol * max(1.0, hi))) for lo, hi in w]


def is_psd(a, tol=PINV_TOL):
    """True iff the real symmetric matrix is PSD up to a relative slack.

    See :func:`psd_check` for the test. A Cholesky factorization that
    completes certifies it: its factor is exact for ``A + E`` with ``|E| <=
    gamma_{n+1} |R^T| |R|`` (Higham 2002, section 10.1), which bounds ``min
    eig >= -n(n+1)u * max eig`` to first order, within the slack when
    ``n(n+1)eps <= tol``. Only a factorization that fails, or a slack too
    small for that bound, takes the eigensolve.
    """
    arr = a.a if isinstance(a, SymMatrix) else _sym_part(np.asarray(a, dtype=float))
    n = len(arr)
    if n and n * (n + 1) * np.finfo(float).eps <= tol:
        try:
            np.linalg.cholesky(arr)
            return True
        except np.linalg.LinAlgError:
            pass
    return psd_check(a, tol)[1]

