"""Schur complements, PSD tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    AsymmetricMatrix,
    BlockPartition,
    DimensionMismatch,
    SingularBlock,
    SymMatrix,
    is_psd,
    schur_complement,
)
from elastonet.linalg import schur_complements, schur_complements_lu, symmetrized


def random_spd(rng, n, shift=0.1):
    g = rng.standard_normal((n, n))
    return g.T @ g + shift * np.eye(n)


class TestSymMatrix:
    def test_symmetrizes_rounding_noise(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        m = SymMatrix(a)
        assert_allclose(m.a, m.a.T, rtol=0, atol=0)
        assert m.field == "real"

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(AsymmetricMatrix):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))

    def test_complex_field_tag(self):
        m = SymMatrix(np.array([[1j, 0.0], [0.0, 1j]]))
        assert m.field == "complex"
        assert m.order == 2

    def test_entries_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0


class TestBlockPartition:
    def test_overlap_rejected(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition([0, 1], [1, 2])

    def test_coverage_checked_at_use(self):
        a = SymMatrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            schur_complement(a, BlockPartition([0], [1]))


class TestSchurComplement:
    def test_two_by_two(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = schur_complement(a, BlockPartition([0], [1]))
        assert_allclose(s.a, [[1.5]])

    def test_identity_any_partition(self):
        a = SymMatrix(np.eye(5))
        s = schur_complement(a, BlockPartition([0, 2, 4], [1, 3]))
        assert_allclose(s.a, np.eye(3))

    def test_empty_interior_returns_boundary_block(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = schur_complement(a, BlockPartition([0, 1], []))
        assert_allclose(s.a, a.a)

    def test_chain_pseudoinverse_matches_series_stiffness(self, assembled_chain):
        # interior block of the chain stiffness is [[2, 0], [0, 0]]: the
        # transverse direction is a floppy zero that the pseudoinverse drops
        k = assembled_chain.K
        part = assembled_chain.partition
        assert_allclose(k.a[np.ix_(part.interior, part.interior)], [[2.0, 0.0], [0.0, 0.0]])
        s = schur_complement(k, part, mode="pseudoinverse")
        expected = 0.5 * np.array(
            [
                [1.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [-1.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert_allclose(s.a, expected, atol=1e-14)

    def test_pseudoinverse_agrees_with_equilibrium_oracle(self, assembled_chain):
        # independent oracle: impose boundary displacements, solve the
        # interior equilibrium in the least-squares sense, read the forces
        k = assembled_chain.K.a
        part = assembled_chain.partition
        b, i = list(part.boundary), list(part.interior)
        s = schur_complement(assembled_chain.K, part, mode="pseudoinverse")
        rng = np.random.default_rng(42)
        for _ in range(5):
            ub = rng.standard_normal(len(b))
            ui, *_ = np.linalg.lstsq(k[np.ix_(i, i)], -k[np.ix_(i, b)] @ ub, rcond=None)
            fb = k[np.ix_(b, b)] @ ub + k[np.ix_(b, i)] @ ui
            assert_allclose(fb, s.a @ ub, atol=1e-12)

    def test_singular_block_raises_with_value(self):
        a = SymMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        with pytest.raises(SingularBlock) as info:
            schur_complement(a, BlockPartition([0], [1, 2]))
        assert info.value.smallest_singular_value is not None
        # pseudoinverse mode handles the same block
        schur_complement(a, BlockPartition([0], [1, 2]), mode="pseudoinverse")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            schur_complement(SymMatrix(np.eye(2)), BlockPartition([0], [1]), mode="lu")


class TestSchurComplements:
    """The stacked kernel against its stack-of-one form, matrix by matrix."""

    @staticmethod
    def stack(rng, count, n, rank, complex_part=False):
        out = []
        for k in range(count):
            g = rng.standard_normal((n, rank[k] if np.ndim(rank) else rank))
            a = g @ g.T
            if complex_part:
                h = rng.standard_normal((n, 2))
                a = a + 1j * (h @ h.T)
            out.append(SymMatrix(a).a)
        return np.stack(out)

    @pytest.mark.parametrize("complex_part", [False, True])
    def test_mixed_ranks_equal_one_at_a_time_bitwise(self, complex_part):
        # pseudoinverse truncation at a different rank per matrix; full-rank
        # matrices in the same stack take the inverse-mode formula
        rng = np.random.default_rng(3)
        a = self.stack(rng, 6, 7, [7, 3, 5, 3, 7, 1], complex_part)
        part = BlockPartition([4, 0, 6], [1, 5, 2, 3])
        stacked = schur_complements(a, part.boundary, part.interior, "pseudoinverse")
        for k in range(len(a)):
            one = schur_complement(SymMatrix(a[k]), part, mode="pseudoinverse").a
            assert np.array_equal(stacked[k], one)

    def test_first_singular_matrix_is_named(self):
        rng = np.random.default_rng(4)
        a = self.stack(rng, 5, 6, [6, 6, 2, 6, 1])
        with pytest.raises(SingularBlock) as info:
            schur_complements(a, range(2), range(2, 6))
        assert info.value.index == 2
        with pytest.raises(SingularBlock) as alone:
            schur_complement(SymMatrix(a[2]), BlockPartition(range(2), range(2, 6)))
        assert str(info.value) == str(alone.value)
        assert info.value.smallest_singular_value == alone.value.smallest_singular_value

    def test_empty_blocks(self):
        a = np.stack([np.eye(3), 2.0 * np.eye(3)])
        assert np.array_equal(schur_complements(a, range(3), []), a)
        assert schur_complements(a, [], range(3)).shape == (2, 0, 0)

    @pytest.mark.parametrize("complex_part", [False, True])
    def test_lu_kernel_agrees_with_the_svd_kernel(self, complex_part):
        rng = np.random.default_rng(5)
        a = self.stack(rng, 4, 7, 7, complex_part)
        part = BlockPartition([4, 0, 6], [1, 5, 2, 3])
        lu = schur_complements_lu(a, part.boundary, part.interior)
        svd = schur_complements(a, part.boundary, part.interior)
        assert np.array_equal(lu, np.swapaxes(lu, -1, -2))
        assert_allclose(lu, svd, rtol=0, atol=1e-10 * np.abs(svd).max())

    def test_lu_kernel_raises_on_a_zero_pivot(self):
        a = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        with pytest.raises(np.linalg.LinAlgError):
            schur_complements_lu(a, [0], [1, 2])

    def test_lu_kernel_empty_blocks(self):
        a = np.stack([np.eye(3), 2.0 * np.eye(3)])
        assert np.array_equal(schur_complements_lu(a, range(3), []), a)
        assert schur_complements_lu(a, [], range(3)).shape == (2, 0, 0)

    def test_symmetrized_checks_every_matrix(self):
        a = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.1, 3.0]])])
        with pytest.raises(AsymmetricMatrix, match="asymmetry 1.000e-01"):
            symmetrized(a)
        a[1] = np.inf
        with pytest.raises(DimensionMismatch):
            symmetrized(a)


class TestIsPsd:
    def test_examples(self):
        assert is_psd(SymMatrix(np.diag([1.0, 0.0])), tol=1e-10)
        assert not is_psd(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert is_psd(SymMatrix(np.zeros((3, 3))))

    def test_small_negative_within_tol(self):
        assert is_psd(SymMatrix(np.diag([1.0, -1e-12])), tol=1e-10)
        assert not is_psd(SymMatrix(np.diag([1.0, -1e-6])), tol=1e-10)


# ---------------------------------------------------------------------------
# Schur complement identities (homogeneity, quadratic form, sign, nesting)
# ---------------------------------------------------------------------------


def random_complex_symmetric(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return SymMatrix((re + re.T) / 2 + 1j * (im + im.T) / 2)


def test_homogeneity():
    rng = np.random.default_rng(7)
    part = BlockPartition(range(3), range(3, 7))
    for _ in range(25):
        a = SymMatrix(random_spd(rng, 7) + 1j * 0.3 * random_spd(rng, 7))
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        s = schur_complement(a, part)
        s_scaled = schur_complement(SymMatrix(lam * a.a), part)
        assert np.abs(s_scaled.a - lam * s.a).max() <= 1e-10 * np.abs(lam * s.a).max()


def test_quadratic_form_identity():
    rng = np.random.default_rng(11)
    part = BlockPartition(range(2), range(2, 6))
    for _ in range(25):
        a = random_complex_symmetric(rng, 6)
        a = SymMatrix(a.a + 3.0 * np.eye(6))  # keep the interior block invertible
        s = schur_complement(a, part)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a_ii = a.a[2:, 2:]
        vi = -np.linalg.solve(a_ii, a.a[2:, :2] @ vb)
        v = np.concatenate([vb, vi])
        lhs = vb.conj() @ s.a @ vb
        rhs = v.conj() @ a.a @ v
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_sign_preservation_real_part():
    rng = np.random.default_rng(13)
    part = BlockPartition(range(2), range(2, 6))
    for _ in range(25):
        re = random_spd(rng, 6)
        im = rng.standard_normal((6, 6))
        a = SymMatrix(re + 0.5j * (im + im.T))
        s = schur_complement(a, part)
        assert np.linalg.eigvalsh((s.a.real + s.a.real.T) / 2).min() >= -1e-9


def test_sign_preservation_imag_part():
    rng = np.random.default_rng(17)
    part = BlockPartition(range(2), range(2, 6))
    for _ in range(25):
        im = random_spd(rng, 6)
        re = rng.standard_normal((6, 6))
        a = SymMatrix((re + re.T) / 2 + 1j * im)
        s = schur_complement(a, part)
        assert np.linalg.eigvalsh((s.a.imag + s.a.imag.T) / 2).min() >= -1e-9


def test_idempotent_nesting():
    rng = np.random.default_rng(19)
    for _ in range(25):
        a = SymMatrix(random_spd(rng, 8))
        one_stage = schur_complement(a, BlockPartition(range(3), range(3, 8)))
        stage1 = schur_complement(a, BlockPartition(range(6), range(6, 8)))
        stage2 = schur_complement(stage1, BlockPartition(range(3), range(3, 6)))
        assert np.abs(stage2.a - one_stage.a).max() <= 1e-10 * np.abs(one_stage.a).max()
