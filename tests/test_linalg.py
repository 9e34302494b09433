"""Symmetric matrices, Schur complements, PSD tests."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from elastonet import (
    AsymmetricMatrix,
    DimensionMismatch,
    SymMatrix,
    is_psd,
    linalg,
    network_to_dict,
    random_network,
    schur_complement,
)
from elastonet.cli import main as cli_main
from elastonet.linalg import PINV_TOL, schur_complement_lu, symmetrized

from oracles import schur_complement_by_index


def boundary_first(a, boundary, interior):
    """The array ``a`` gathered into the order ``boundary``, then
    ``interior``, by one ``np.ix_``, and the boundary count."""
    order = list(boundary) + list(interior)
    return a[np.ix_(order, order)], len(boundary)


def schur_of(a, boundary, interior):
    """``schur_complement`` of a ``SymMatrix`` under any partition: one
    gather by :func:`boundary_first`, then the kernel."""
    return schur_complement(*boundary_first(a.a, boundary, interior))


def random_spd(rng, n, shift=0.1):
    g = rng.standard_normal((n, n))
    return g.T @ g + shift * np.eye(n)


class TestSymMatrix:
    def test_symmetrizes_rounding_noise(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        m = SymMatrix(a)
        assert m.a.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert m.field == "real"
        z = a + 1j * np.array([[0.0, 1.0], [1.0 - 1e-15, 0.0]])
        assert SymMatrix(z).a.tobytes() == (0.5 * (z + z.T)).tobytes()

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(AsymmetricMatrix) as info:
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))
        assert str(info.value) == (
            "asymmetry 1.000e-01 exceeds 1.0e-12 * max|entry| = 3.000e-12"
        )

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


# finite doubles, weighted towards signed zeros, subnormals and the extremes
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(min_value=-1e308, max_value=1e308),
)


@st.composite
def bitwise_symmetric(draw):
    n = draw(st.integers(0, 5))
    parts = []
    for _ in range(draw(st.sampled_from([1, 2]))):  # one part real, two complex
        part = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                part[i, j] = part[j, i] = draw(ENTRIES)
        parts.append(part)
    return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]


class TestSymMatrixContract:
    """Bitwise symmetric matrices are stored as given; others as before."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(bitwise_symmetric())
    @example(np.array([[1e308, 0.0], [0.0, 1.0]]))  # a + a.T overflows
    @example(np.array([[-0.0, -0.0], [-0.0, 5e-324]]))
    @example(np.array([[1j, complex(-0.0, -1.0)], [complex(-0.0, -1.0), 2.0]]))
    def test_bitwise_symmetric_input_is_stored_bit_for_bit(self, a):
        m = SymMatrix(a)
        assert m.a.dtype == a.dtype
        assert m.a.tobytes() == a.tobytes()
        assert not m.a.flags.writeable
        assert a.flags.writeable
        assert not np.shares_memory(m.a, a)

    def test_signed_zero_pair_is_repaired_to_plus_zero(self):
        a = np.array([[1.0, 0.0], [-0.0, 1.0]])
        m = SymMatrix(a)
        assert m.a[0, 1] == 0.0
        assert not np.signbit(m.a).any()

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, np.nan]),
            np.array([[1.0, np.inf], [np.inf, 1.0]]),
            np.array([[1.0, -np.inf], [0.0, 1.0]]),
            np.array([[1.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 1.0]]),
            np.diag([complex(1.5e308, 1.5e308), 1.0]),  # finite parts, |z| = inf
        ],
    )
    def test_non_finite_entries_raise(self, a):
        with pytest.raises(DimensionMismatch, match="matrix entries must be finite"):
            SymMatrix(a)

    @pytest.mark.parametrize("z, finite", [
        (1.3e308 + 1.3e308j, False),  # |z| = 1.8e308 overflows
        (1e308 + 1e308j, True),  # |z| = 1.4e308, past DBL_MAX/2 in each part
        (1.7e308 + 0j, True),
        (8e307 + 8e307j, True),  # both parts under DBL_MAX/2: |z| is not taken
        (-5e307 - 1.7e308j, True),
    ])
    def test_complex_modulus_decides_finiteness(self, z, finite):
        a = np.diag([z, 1.0])
        if finite:
            assert SymMatrix(a).a[0, 0] == z
        else:
            with pytest.raises(DimensionMismatch, match="matrix entries must be finite"):
                SymMatrix(a)

    def test_no_copy_keeps_the_array_read_only(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        m = SymMatrix(a, copy=False)
        assert m.a is a and not a.flags.writeable
        b = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        assert not np.shares_memory(SymMatrix(b, copy=False).a, b)

    @pytest.mark.parametrize("noise", [0.0, 1e-14])
    def test_input_stays_writable_and_unaliased(self, noise):
        a = np.array([[1.0, 2.0], [2.0 + noise, 3.0]])
        m = SymMatrix(a)
        a[0, 0] = 7.0
        assert m.a[0, 0] == 1.0
        assert not np.shares_memory(m.a, a)

    def test_pipeline_builds_its_matrices_symmetric(self, tmp_path, monkeypatch):
        # every intermediate of these commands is built bitwise symmetric,
        # so none of them averages a matrix
        calls = []
        real = linalg.symmetrized

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "symmetrized", counting)
        net = tmp_path / "net.json"
        net.write_text(json.dumps(network_to_dict(random_network(3, 3, 3, 6, 0.5))))
        can, out = str(tmp_path / "can.json"), str(tmp_path / "out.json")
        for argv in (
            ["extract", str(net), "-o", can],
            ["characterize", str(net), "-o", out],
            ["characterize", can, "-o", out],
            ["synthesize", can, "-o", out],
            ["roundtrip", str(net), "-o", out],
        ):
            assert cli_main(argv) == 0
        assert calls == []


class TestSchurComplement:
    def test_two_by_two(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = schur_complement(a.a, 1)
        assert_allclose(s.a, [[1.5]])

    def test_identity_any_partition(self):
        a = SymMatrix(np.eye(5))
        s = schur_of(a, [0, 2, 4], [1, 3])
        assert_allclose(s.a, np.eye(3))

    def test_empty_interior_returns_boundary_block(self):
        a = SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = schur_complement(a.a, 2)
        assert_allclose(s.a, a.a)

    def test_chain_pseudoinverse_matches_series_stiffness(self, assembled_chain):
        # interior block of the chain stiffness is [[2, 0], [0, 0]]: the
        # transverse direction is a floppy zero that the pseudoinverse drops
        k, nb = assembled_chain.K, assembled_chain.n_b
        assert_allclose(k.a[nb:, nb:], [[2.0, 0.0], [0.0, 0.0]])
        s = schur_complement(k.a, nb)
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
        k, nb = assembled_chain.K.a, assembled_chain.n_b
        b, i = list(range(nb)), list(range(nb, len(k)))
        s = schur_complement(k, nb)
        rng = np.random.default_rng(42)
        for _ in range(5):
            ub = rng.standard_normal(len(b))
            ui, *_ = np.linalg.lstsq(k[np.ix_(i, i)], -k[np.ix_(i, b)] @ ub, rcond=None)
            fb = k[np.ix_(b, b)] @ ub + k[np.ix_(b, i)] @ ui
            assert_allclose(fb, s.a @ ub, atol=1e-12)

    def test_singular_block_is_truncated(self):
        # the interior block [[1, 1], [1, 1]] has rank one and no coupling
        a = SymMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        s = np.linalg.svd(a.a[1:, 1:])[1]
        assert s[-1] <= PINV_TOL * s[0]
        assert schur_complement(a.a, 1).a.tolist() == [[1.0]]


class TestSchurComplements:
    """The SVD kernel against numpy's pseudoinverse, and the LU kernel against
    the SVD kernel."""

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
    def test_mixed_ranks_match_the_pinv_formula(self, complex_part):
        # pinv cuts at s > rcond * s_max, as the kernel does, so each matrix
        # keeps the same rank in both
        rng = np.random.default_rng(3)
        a = self.stack(rng, 6, 7, [7, 3, 5, 3, 7, 1], complex_part)
        boundary, interior = [4, 0, 6], [1, 5, 2, 3]
        b, i = np.ix_(boundary, boundary), np.ix_(interior, interior)
        bi = np.ix_(boundary, interior)
        for m in a:
            expected = m[b] - m[bi] @ np.linalg.pinv(m[i], rcond=PINV_TOL) @ m[bi].T
            s = schur_of(SymMatrix(m), boundary, interior).a
            assert_allclose(s, expected, rtol=0, atol=1e-10 * np.abs(m).max())

    def test_empty_blocks(self):
        a = SymMatrix(2.0 * np.eye(3))
        assert np.array_equal(schur_complement(a.a, 3).a, a.a)
        assert schur_complement(a.a, 0).a.shape == (0, 0)

    @pytest.mark.parametrize("damped", [False, True])
    def test_lu_kernel_agrees_with_the_svd_kernel(self, damped):
        # K + lambda*C + lambda^2*M with SPD K and positive masses: away from
        # the real axis the interior block is well conditioned
        rng = np.random.default_rng(5)
        for lam in (0.7 + 1.3j, -0.2 + 2.5j, 3.0 - 0.4j, 1.5):
            k = random_spd(rng, 7)
            m = np.diag(rng.uniform(0.5, 2.0, 7))
            c = 0.3 * k + 0.8 * m if damped else np.zeros((7, 7))
            pencil = SymMatrix(k + lam * c + lam * lam * m).a
            a, nb = boundary_first(pencil, [4, 0, 6], [1, 5, 2, 3])
            lu = schur_complement_lu(a, nb)
            assert np.array_equal(lu, lu.T)
            svd = schur_complement(a, nb).a
            assert_allclose(lu, svd, rtol=0, atol=1e-10 * np.abs(svd).max())

    def test_lu_kernel_slices_have_the_bits_of_gathered_blocks(self):
        rng = np.random.default_rng(7)
        b, i = [4, 0, 6], [1, 5, 2, 3]
        k, m = random_spd(rng, 7), np.diag(rng.uniform(0.5, 2.0, 7))
        a = SymMatrix(k + (0.7 + 1.3j) * (0.3 * k + 0.8 * m) + (0.7 + 1.3j) ** 2 * m).a
        gathered, nb = boundary_first(a, b, i)
        # each block gathered on its own, the kernel before slicing
        x = a[np.ix_(b, i)] @ np.linalg.solve(a[np.ix_(i, i)], a[np.ix_(i, b)])
        want = a[np.ix_(b, b)] - 0.5 * (x + x.T)
        assert schur_complement_lu(gathered, nb).tobytes() == want.tobytes()

    def test_lu_kernel_raises_on_a_zero_pivot(self):
        a = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            schur_complement_lu(a, 1)
        # the same block with the zero pivot on the boundary solves
        assert schur_complement_lu(*boundary_first(a, [2], [0, 1])).tolist() == [[0.0]]

    def test_lu_kernel_empty_blocks(self):
        a = 2.0 * np.eye(3)
        assert np.array_equal(schur_complement_lu(a, 3), a)
        assert schur_complement_lu(a, 0).shape == (0, 0)

    def test_symmetrized_checks_the_matrix(self):
        a = np.array([[1.0, 2.0], [2.1, 3.0]])
        with pytest.raises(AsymmetricMatrix, match="asymmetry 1.000e-01"):
            symmetrized(a)
        a[1, 1] = np.inf
        with pytest.raises(DimensionMismatch):
            symmetrized(a)


class TestSchurKernelAgainstTheIndexGather:
    """The SVD kernel on a boundary-first array has the bits of the kernel
    that gathers its three blocks by index from any partition
    (``oracles.schur_complement_by_index``)."""

    # a full-rank interior block, where the pseudoinverse is the inverse,
    # and a rank-deficient one, where it truncates
    @pytest.mark.parametrize("scattered", [False, True])
    @pytest.mark.parametrize("interior", ["inverse", "pseudoinverse"])
    @pytest.mark.parametrize("complex_part", [False, True])
    def test_bitwise_equal(self, complex_part, interior, scattered):
        rng = np.random.default_rng(29)
        full = interior == "inverse"
        for n in (2, 3, 7, 12, 30, 61):
            for nb in sorted({1, n // 3, n - 1}):
                g = rng.standard_normal((n, n if full else max(1, n // 2)))
                a = g @ g.T + (0.1 * np.eye(n) if full else 0.0)
                if complex_part:
                    h = rng.standard_normal((n, n))
                    a = a + 1j * (h @ h.T)
                a = SymMatrix(a)
                order = rng.permutation(n) if scattered else np.arange(n)
                want = schur_complement_by_index(a, order[:nb], order[nb:]).a
                got = schur_of(a, order[:nb], order[nb:]).a
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def counting(monkeypatch, name):
    """Shapes of the arrays passed to ``np.linalg.<name>`` from now on."""
    calls, real = [], getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def with_interior(rng, block, nb):
    """A symmetric array whose trailing block is ``block``, with a random
    boundary block and coupling."""
    g = rng.standard_normal((nb, nb))
    a = np.zeros((nb + len(block),) * 2)
    a[:nb, :nb] = g @ g.T
    a[nb:, :nb] = rng.standard_normal((len(block), nb))
    a[:nb, nb:] = a[nb:, :nb].T
    a[nb:, nb:] = block
    return a


class TestEighSchurComplement:
    """``schur_complement_eigh`` against the SVD pseudoinverse complement."""

    @pytest.mark.parametrize("floppy", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_svd_on_well_conditioned_blocks(self, seed, floppy, monkeypatch):
        rng = np.random.default_rng(seed)
        n, nb = 12 + 8 * seed, 2 + seed
        a = random_spd(rng, n, shift=1.0)
        if floppy:  # an uncoupled zero direction, truncated by both
            a[-1], a[:, -1] = 0.0, 0.0
        w = np.abs(np.linalg.eigvalsh(a[nb:, nb:]))
        kept = w[w > PINV_TOL * w.max()]
        assert len(kept) == n - nb - floppy
        assert kept.min() > 10 * linalg.EIGH_GUARD * w.max()
        want = schur_complement(a, nb).a
        svds = counting(monkeypatch, "svd")
        got = linalg.schur_complement_eigh(a, nb).a
        assert svds == []
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert got.tobytes() == got.T.tobytes()

    @pytest.mark.parametrize("ratio", [linalg.EIGH_GUARD / 2, 1e-6, 1e-9])
    def test_a_block_at_the_guard_gets_the_svd_bits(self, ratio, monkeypatch):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        block = (q * np.geomspace(1.0, ratio, 9)) @ q.T
        a = symmetrized(with_interior(rng, block, 4))
        want = schur_complement(a, 4).a
        svds = counting(monkeypatch, "svd")
        got = linalg.schur_complement_eigh(a, 4).a
        assert svds == [(9, 9)]
        assert got.tobytes() == want.tobytes()

    def test_a_zero_block_gets_the_svd_bits(self):
        a = with_interior(np.random.default_rng(4), np.zeros((3, 3)), 2)
        want = schur_complement(a, 2).a
        assert linalg.schur_complement_eigh(a, 2).a.tobytes() == want.tobytes()
        assert np.array_equal(want, a[:2, :2])

    @pytest.mark.parametrize("nb", [0, 5])
    def test_no_interior_or_no_boundary(self, nb):
        a = random_spd(np.random.default_rng(5), 5)
        assert linalg.schur_complement_eigh(a, nb).a.tobytes() == a[:nb, :nb].tobytes()


class TestIsPsd:
    def test_examples(self):
        assert is_psd(SymMatrix(np.diag([1.0, 0.0])), tol=1e-10)
        assert not is_psd(SymMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
        assert is_psd(SymMatrix(np.zeros((3, 3))))

    def test_small_negative_within_tol(self):
        assert is_psd(SymMatrix(np.diag([1.0, -1e-12])), tol=1e-10)
        assert not is_psd(SymMatrix(np.diag([1.0, -1e-6])), tol=1e-10)

    def test_a_completed_cholesky_decides(self, monkeypatch):
        a = SymMatrix(random_spd(np.random.default_rng(0), 30))
        eigensolves = counting(monkeypatch, "eigvalsh")
        assert is_psd(a, tol=1e-9)
        assert eigensolves == []
        # 30 * 31 * eps = 2.1e-13: the factorization no longer certifies
        assert is_psd(a, tol=1e-13)
        assert eigensolves == [(1, 30, 30)]

    @pytest.mark.parametrize("tol", [1e-9, PINV_TOL, 1e-13])
    @pytest.mark.parametrize("shift", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_same_verdict_as_the_eigensolve(self, shift, tol):
        # the smallest eigenvalue sits at shift * tol * max eig
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        for top in (1e-3, 1.0, 1e3):
            w = np.linspace(0.0, top, 20)
            w[0] = shift * tol * max(1.0, top)
            a = SymMatrix((q * w) @ q.T)
            assert is_psd(a, tol) == linalg.psd_check(a, tol)[1]


# ---------------------------------------------------------------------------
# Schur complement identities (homogeneity, quadratic form, sign, nesting)
# ---------------------------------------------------------------------------


def random_complex_symmetric(rng, n):
    re = rng.standard_normal((n, n))
    im = rng.standard_normal((n, n))
    return SymMatrix((re + re.T) / 2 + 1j * (im + im.T) / 2)


def test_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = SymMatrix(random_spd(rng, 7) + 1j * 0.3 * random_spd(rng, 7))
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        s = schur_complement(a.a, 3)
        s_scaled = schur_complement(SymMatrix(lam * a.a).a, 3)
        assert np.abs(s_scaled.a - lam * s.a).max() <= 1e-10 * np.abs(lam * s.a).max()


def test_quadratic_form_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = random_complex_symmetric(rng, 6)
        a = SymMatrix(a.a + 3.0 * np.eye(6))  # keep the interior block invertible
        s = schur_complement(a.a, 2)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a_ii = a.a[2:, 2:]
        vi = -np.linalg.solve(a_ii, a.a[2:, :2] @ vb)
        v = np.concatenate([vb, vi])
        lhs = vb.conj() @ s.a @ vb
        rhs = v.conj() @ a.a @ v
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


def test_sign_preservation_real_part():
    rng = np.random.default_rng(13)
    for _ in range(25):
        re = random_spd(rng, 6)
        im = rng.standard_normal((6, 6))
        a = SymMatrix(re + 0.5j * (im + im.T))
        s = schur_complement(a.a, 2)
        assert np.linalg.eigvalsh((s.a.real + s.a.real.T) / 2).min() >= -1e-9


def test_sign_preservation_imag_part():
    rng = np.random.default_rng(17)
    for _ in range(25):
        im = random_spd(rng, 6)
        re = rng.standard_normal((6, 6))
        a = SymMatrix((re + re.T) / 2 + 1j * im)
        s = schur_complement(a.a, 2)
        assert np.linalg.eigvalsh((s.a.imag + s.a.imag.T) / 2).min() >= -1e-9


def test_idempotent_nesting():
    rng = np.random.default_rng(19)
    for _ in range(25):
        a = SymMatrix(random_spd(rng, 8))
        one_stage = schur_complement(a.a, 3)
        stage1 = schur_complement(a.a, 6)
        stage2 = schur_complement(stage1.a, 3)
        assert np.abs(stage2.a - one_stage.a).max() <= 1e-10 * np.abs(one_stage.a).max()
