"""Resonance roots, locus classification, membership, sampling."""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import RayleighParams, contains, locus, resonances_of
from elastonet.cli import main
from elastonet.resonances import classify, locus_table


def exact_roots(sigma, ray):
    """Both roots of ``lambda^2 + b*lambda + sigma`` (sigma > 0) as
    ``(re, im)`` Fraction pairs: ``b`` and the discriminant exact, its root
    to 2^-200 relative, the smaller real root by Vieta."""
    s = Fraction(sigma)
    b = Fraction(ray.alpha) * s + Fraction(ray.beta)
    disc = b * b - 4 * s
    mag = abs(disc)
    root = Fraction(isqrt(mag.numerator * mag.denominator * 4**200),
                    mag.denominator * 2**200)
    if disc < 0:
        return (-b / 2, root / 2), (-b / 2, -root / 2)
    minus = -(b + root) / 2
    return (s / minus, Fraction(0)), (minus, Fraction(0))


def assert_near_exact(root, exact, rtol=1e-15):
    gap = (Fraction(root.real) - exact[0]) ** 2 + (Fraction(root.imag) - exact[1]) ** 2
    assert gap <= Fraction(rtol) ** 2 * (exact[0] ** 2 + exact[1] ** 2), (root, exact)


class TestResonancesOf:
    @pytest.mark.parametrize("sigma, ray", [
        (1e308, RayleighParams(0.0, 0.0)),  # 4*sigma overflows, imaginary pair
        (1e308, RayleighParams(0.0, 1e150)),  # 4*sigma overflows, complex pair
        (1e308, RayleighParams(0.0, 1e160)),  # both overflow, real pair
        (0.01, RayleighParams(0.0, 1e200)),  # b*b overflows, real pair
        (0.01, RayleighParams(1e2, 1e300)),
    ])
    def test_overflowing_discriminant_keeps_finite_roots(self, sigma, ray):
        for root, exact in zip(resonances_of(sigma, ray), exact_roots(sigma, ray)):
            assert_near_exact(root, exact)

    @pytest.mark.parametrize("sigma, ray", [
        (1e308, RayleighParams(1e300, 0.0)),
        (1e308, RayleighParams(1e300, 1e308)),
        (1e200, RayleighParams(1e200, 1e300)),
        (1e10, RayleighParams(1e300, 1e-300)),
    ])
    def test_overflowing_b_keeps_the_small_root(self, sigma, ray):
        # b = alpha*sigma + beta overflows: the large root is -inf, the
        # small one about -1/alpha (the parent gave -0.0)
        plus, minus = resonances_of(sigma, ray)
        assert_near_exact(plus, exact_roots(sigma, ray)[0])
        assert minus == complex(-np.inf)

    def test_loci_with_an_overflowing_discriminant(self, tmp_path):
        out = tmp_path / "loci.csv"
        assert main(["loci", "--alpha", "0", "--beta", "1e200", "--points", "4",
                     "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        for k, (re, im, sigma, _) in enumerate(rows):
            exact = exact_roots(float(sigma), RayleighParams(0.0, 1e200))[k % 2]
            assert_near_exact(complex(float(re), float(im)), exact)

    def test_double_root(self):
        plus, minus = resonances_of(1.0, RayleighParams(0.0, 2.0))
        assert_allclose(plus, -1.0)
        assert_allclose(minus, -1.0)

    def test_complex_pair_on_half_beta_line(self):
        plus, minus = resonances_of(2.0, RayleighParams(0.0, 2.0))
        assert_allclose(plus, -1.0 + 1.0j)
        assert_allclose(minus, -1.0 - 1.0j)

    def test_dashpot_circle_point(self):
        plus, minus = resonances_of(1.0, RayleighParams(1.0, 0.0))
        assert_allclose(plus, (-1.0 + 1j * np.sqrt(3.0)) / 2.0)
        assert_allclose(abs(plus + 1.0), 1.0)
        assert_allclose(abs(minus + 1.0), 1.0)

    def test_nonpositive_sigma_gives_closed_form_roots(self):
        for ray in (RayleighParams(1.0, 1.0), RayleighParams(0.5, 0.0),
                    RayleighParams(0.0, 2.0), RayleighParams(0.0, 0.0)):
            for sigma in (0.0, -0.0, -1e-300, -0.5, -3.0):
                b = ray.alpha * sigma + ray.beta
                sq = np.sqrt(complex(b * b - 4.0 * sigma))
                roots = resonances_of(sigma, ray)
                assert roots == ((-b + sq) / 2.0, (-b - sq) / 2.0)
                if sigma <= -0.5:
                    assert roots[0].real > 0.0  # negative stiffness: unstable

    def test_root_identities_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ray = RayleighParams(rng.uniform(0, 3), rng.uniform(0, 3))
            sigma = 10.0 ** rng.uniform(-3, 3)
            plus, minus = resonances_of(sigma, ray)
            assert abs(plus * minus - sigma) <= 1e-12 * sigma
            b = ray.alpha * sigma + ray.beta
            assert abs(plus + minus + b) <= 1e-12 * max(b, 1.0)
            assert plus.real <= 0.0 and minus.real <= 0.0

    def test_stability_in_stiff_regime(self):
        # (alpha*sigma + beta)^2 >> 4 sigma: naive formula would cancel
        ray = RayleighParams(1.0, 0.0)
        sigma = 1e8
        plus, minus = resonances_of(sigma, ray)
        assert_allclose(plus * minus, sigma, rtol=1e-13)
        assert_allclose(plus, -1.0, rtol=1e-7)  # root near -1/alpha


class TestLocus:
    def test_classification_cases(self):
        assert classify(RayleighParams(0.0, 0.0)) == "undamped"
        assert classify(RayleighParams(0.0, 2.0)) == "node_damping_only"
        assert classify(RayleighParams(1.0, 0.0)) == "dashpot_only"
        assert classify(RayleighParams(0.5, 0.5)) == "underdamped_mixed"
        assert classify(RayleighParams(1.0, 2.0)) == "overdamped_mixed"
        assert classify(RayleighParams(2.0, 0.5)) == "overdamped_mixed"  # boundary

    def test_node_damping_pieces(self):
        desc = locus(RayleighParams(0.0, 2.0))
        kinds = [p.kind for p in desc.pieces]
        assert kinds == ["segment", "line"]
        assert desc.pieces[0].params["start"] == -2.0
        assert desc.pieces[1].params["re"] == -1.0

    def test_dashpot_pieces(self):
        desc = locus(RayleighParams(1.0, 0.0))
        kinds = [p.kind for p in desc.pieces]
        assert kinds == ["ray", "circle"]
        assert desc.pieces[1].params["center"] == -1.0
        assert desc.pieces[1].params["radius"] == 1.0
        assert desc.pieces[1].params["origin_excluded"]

    def test_underdamped_circle_radius(self):
        desc = locus(RayleighParams(0.5, 0.5))
        circle = desc.pieces[1]
        assert_allclose(circle.params["radius"], np.sqrt(3.0))

    def test_overdamped_is_real_ray_only(self):
        desc = locus(RayleighParams(1.0, 2.0))
        assert [p.kind for p in desc.pieces] == ["ray"]

    def test_undamped_axis(self):
        desc = locus(RayleighParams(0.0, 0.0))
        assert desc.pieces[0].kind == "imaginary_axis"


class TestContains:
    def test_half_beta_line_point(self):
        ok, sigma = contains(RayleighParams(0.0, 2.0), -1.0 + 5.0j)
        assert ok
        assert_allclose(sigma, 26.0)

    def test_overdamped_rejects_complex(self):
        ok, sigma = contains(RayleighParams(1.0, 2.0), -1.0 + 1.0j)
        assert not ok and sigma is None

    def test_origin_always_excluded(self):
        for ray in (RayleighParams(0, 0), RayleighParams(1, 0), RayleighParams(0.3, 2)):
            assert contains(ray, 0.0) == (False, None)

    def test_real_point_between_gap_rejected(self):
        # for alpha=1, beta=0 the real locus only fills Re < -1/alpha
        assert contains(RayleighParams(1.0, 0.0), -0.5 + 0.0j)[0] is False
        assert contains(RayleighParams(1.0, 0.0), -3.0 + 0.0j)[0] is True

    def test_roundtrip_recovers_sigma(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ray = RayleighParams(rng.uniform(0, 2), rng.uniform(0, 2))
            sigma = 10.0 ** rng.uniform(-2, 2)
            for root in resonances_of(sigma, ray):
                ok, found = contains(ray, root, tol=1e-9)
                assert ok
                assert abs(found - sigma) <= 1e-9 * sigma


def sample_locus(rayleigh, n_points):
    """The resonances of :func:`locus_table`'s rows."""
    return np.array([complex(r["re"], r["im"]) for r in locus_table(rayleigh, n_points)])


class TestSampleLocus:
    def test_point_count(self):
        pts = sample_locus(RayleighParams(1.0, 0.0), 4)
        assert len(pts) == 4

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            locus_table(RayleighParams(1.0, 0.0), 1)

    def test_dashpot_samples_on_ray_or_circle(self):
        pts = sample_locus(RayleighParams(1.0, 0.0), 100)
        for lam in pts:
            dist_ray = abs(lam.imag) if lam.real < 0 else abs(lam)
            dist_circle = abs(abs(lam + 1.0) - 1.0)
            assert min(dist_ray, dist_circle) <= 1e-10

    def test_undamped_samples_imaginary(self):
        pts = sample_locus(RayleighParams(0.0, 0.0), 30)
        assert np.abs(pts.real).max() == 0.0

    def test_all_samples_contained(self):
        for ray in (
            RayleighParams(0.0, 2.0),
            RayleighParams(1.0, 0.0),
            RayleighParams(0.5, 0.5),
            RayleighParams(1.5, 1.5),
        ):
            for lam in sample_locus(ray, 40):
                assert contains(ray, lam, tol=1e-10)[0]

    def test_table_labels(self):
        rows = locus_table(RayleighParams(0.0, 2.0), 50)
        labels = {r["piece_label"] for r in rows}
        assert labels <= {"segment", "line"}
        assert len(rows) == 50
        rows = locus_table(RayleighParams(1.0, 2.0), 20)
        assert all(r["im"] == 0.0 for r in rows)
        assert all(r["piece_label"] == "ray" for r in rows)

    @pytest.mark.parametrize("ray", [
        RayleighParams(0.0, 0.0),
        RayleighParams(0.0, 2.0),
        RayleighParams(1.0, 0.0),
        RayleighParams(0.5, 0.5),
        RayleighParams(1.5, 1.5),
    ])
    def test_every_label_is_a_piece_of_the_locus(self, ray):
        kinds = {piece.kind for piece in locus(ray).pieces}
        assert {r["piece_label"] for r in locus_table(ray, 41)} <= kinds
