"""Admissibility report, balance checks, passivity sampling."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    CanonicalResponse,
    DimensionMismatch,
    RayleighParams,
    SymMatrix,
    assemble,
    canonical_to_dict,
    check_balanced,
    check_canonical,
    extract_canonical,
    passivity_margin,
    random_network,
)
from elastonet.characterize import PASSIVITY_GRID_POINTS
from elastonet.cli import main
from elastonet.jsonio import write_json

from conftest import node_positions, scaled_network


def zero_sigma_response():
    """An extracted form whose first modal stiffness is set to exactly 0."""
    net = random_network(1, 2, 2, 2, 1.0, alpha=0.2, beta=0.1)
    cr = extract_canonical(assemble(net))
    return replace(cr, sigmas=np.r_[0.0, cr.sigmas[1:]])


class TestCheckBalanced:
    def test_opposite_axial_pair_balanced(self):
        positions = [[0.0, 0.0], [1.0, 0.0]]
        f = np.array([1.0, 0.0, -1.0, 0.0])
        ok, worst = check_balanced(f, positions)
        assert ok and worst <= 1e-15

    def test_force_couple_has_torque(self):
        positions = [[0.0, 0.0], [1.0, 0.0]]
        f = np.array([0.0, 1.0, 0.0, -1.0])
        ok, worst = check_balanced(f, positions)
        assert not ok
        assert_allclose(worst, 1.0)  # torque = 1*(-1) - 0 = -1

    def test_single_unopposed_force(self):
        ok, worst = check_balanced(np.array([1.0, 0.0]), [[0.0, 0.0]])
        assert not ok
        assert_allclose(worst, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_balanced(np.ones(3), [[0.0, 0.0]])

    @pytest.mark.parametrize("seed", [0, 4])
    def test_stiffness_columns_always_balanced(self, seed):
        net = random_network(seed, 3, 2, 3, 0.5)
        sys = assemble(net)
        ok, worst = check_balanced(sys.K.a, node_positions(net), tol=1e-10)
        assert ok, worst

    def test_torque_threshold_grows_with_length(self):
        # a unit force couple on an arm of 1e-9 L: its torque is 1e-9 L, a
        # relative imbalance that fails at every length L
        for length in (1.0, 1e3, 1e6):
            positions = [[0.0, 0.0], [length, 0.0], [length, 1e-9 * length]]
            couple = np.array([0.0, 0.0, 1.0, 0.0, -1.0, 0.0])
            ok, worst = check_balanced(couple, positions)
            assert not ok
            assert_allclose(worst, 1e-9 * length)

    @pytest.mark.parametrize("factor", [1.0, 1e3, 1e6])
    def test_stiffness_columns_balanced_at_every_length(self, factor):
        # stiffness does not change with the length unit, torques do
        net = scaled_network(random_network(4, 3, 2, 3, 0.5), factor)
        ok, worst = check_balanced(assemble(net).K.a, node_positions(net), tol=1e-10)
        assert ok, worst

    def test_residual_is_the_worst_force_or_torque_residual(self):
        positions = np.random.default_rng(3).uniform(-2.0, 5.0, (4, 3))
        F = np.random.default_rng(4).standard_normal((12, 5))
        expected = max(
            max(np.abs(f.sum(axis=0)).max(), np.abs(np.cross(positions, f).sum(axis=0)).max())
            for f in (col.reshape(4, 3) for col in F.T)
        )
        assert check_balanced(F, positions)[1] == expected


class TestLengthUnits:
    """A network in other length units keeps its admissibility decision."""

    @pytest.mark.parametrize("args", [(5, 2, 3, 6, 0.5), (4, 2, 3, 4, 0.5),
                                      (7, 3, 3, 5, 0.5)])
    @pytest.mark.parametrize("factor", [1.0, 1e3, 1e6])
    def test_extracted_form_passes_at_every_length(self, args, factor):
        cr = extract_canonical(assemble(scaled_network(random_network(*args), factor)))
        report = check_canonical(cr)
        assert report.passed, report.failing()

    def test_static_balance_witness_is_unchanged(self):
        # the residual reported is the worst one, whatever the threshold
        cr = extract_canonical(assemble(scaled_network(random_network(5, 2, 3, 6, 0.5), 1e6)))
        ok, residual = check_balanced(cr.static_response().a, cr.terminal_positions,
                                      tol=1e-9)
        condition = check_canonical(cr).conditions["static_balanced"]
        assert ok and condition.passed
        assert condition.worst_violation == residual
        assert condition.witness == f"worst force/torque residual {residual:.3e}"


def pure_mass_response(mass=1.3, beta=0.7):
    return CanonicalResponse(
        rayleigh=RayleighParams(0.0, beta),
        A=SymMatrix(np.zeros((2, 2))),
        Mbb=np.full(2, mass),
        sigmas=np.zeros(0),
        residues=np.zeros((0, 2, 2)),
        terminal_positions=np.array([[0.0, 0.0]]),
    )


class TestCheckCanonical:
    @pytest.mark.parametrize("seed", [0, 7, 12, 23])
    def test_extracted_forms_pass(self, seed):
        net = random_network(seed, 2 + seed % 2, 2 + seed % 3, 2 + seed % 5, 0.5)
        cr = extract_canonical(assemble(net))
        report = check_canonical(cr)
        assert report.passed, report.failing()

    def test_forward_soundness_100_networks(self):
        # extraction output of a physical network always passes the checker
        fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
        for seed in range(100):
            net = random_network(
                seed,
                2 + seed % 2,
                1 + seed % 4,
                2 + seed % 5,
                fractions[seed % 5],
            )
            cr = extract_canonical(assemble(net), seed=seed)
            report = check_canonical(cr)
            assert report.passed, (seed, report.failing())

    def test_one_eigensolve_per_matrix(self, monkeypatch):
        # one per residue, one for A, one for W(0), one per passivity point;
        # the residues and the passivity points each in one stacked call
        net = random_network(3, 3, 3, 4, 0.5)
        cr = extract_canonical(assemble(net))
        expected = check_canonical(cr).to_dict()
        calls = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = check_canonical(cr)
        assert report.to_dict() == expected
        assert "skipped" not in report.conditions["passivity_sampled"].witness
        assert sum(shape[0] for shape in calls) == len(cr.sigmas) + 2 + 2 * PASSIVITY_GRID_POINTS
        assert len(calls) == 4

    def test_negated_residue_fails_psd_and_passivity(self):
        net = random_network(1, 2, 2, 2, 1.0, alpha=0.2, beta=0.1)
        cr = extract_canonical(assemble(net))
        assert cr.sigmas.size
        flipped = replace(cr, residues=-cr.residues)
        report = check_canonical(flipped)
        assert not report.conditions["R_psd"].passed
        assert not report.conditions["passivity_sampled"].passed

    def test_pure_mass_network_passes(self):
        report = check_canonical(pure_mass_response())
        assert report.passed, report.failing()

    def test_negative_sigma_named(self):
        net = random_network(1, 2, 2, 2, 1.0)
        cr = extract_canonical(assemble(net))
        bad = replace(cr, sigmas=np.r_[-1.0, cr.sigmas[1:]])
        report = check_canonical(bad)
        assert not report.conditions["sigma_positive"].passed
        assert not report.conditions["poles_left_half"].passed

    def test_zero_sigma_fails_static_conditions_without_raising(self):
        # R_0 / 0 used to reach SymMatrix as inf and raise DimensionMismatch
        bad = zero_sigma_response()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_canonical(bad)
        for name in ("static_psd", "static_balanced"):
            cond = report.conditions[name]
            assert not cond.passed
            assert "W(0) is undefined" in cond.witness
            assert "pole at lambda = 0" in cond.witness
        assert not report.conditions["sigma_positive"].passed
        assert json.loads(json.dumps(report.to_dict(), allow_nan=False))

    def test_zero_sigma_cli_writes_report_and_exits_1(self, tmp_path, capsys):
        path, out = tmp_path / "canon.json", tmp_path / "report.json"
        write_json(path, canonical_to_dict(zero_sigma_response()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["characterize", str(path), "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert not report["conditions"]["static_psd"]["pass"]
        assert capsys.readouterr().err == ""

    def test_oversized_residue_breaks_static_psd(self):
        net = random_network(1, 2, 2, 2, 1.0)
        cr = extract_canonical(assemble(net))
        assert cr.sigmas.size
        inflated = replace(cr, residues=5.0 * cr.residues)
        report = check_canonical(inflated)
        assert not report.conditions["static_psd"].passed

    def test_negative_terminal_mass_named(self):
        cr = pure_mass_response()
        bad = replace(cr, Mbb=np.array([1.0, -1.0]))
        report = check_canonical(bad)
        assert not report.conditions["M_diag_psd"].passed

    def test_non_block_constant_mass_warns_but_passes(self):
        cr = pure_mass_response()
        odd = replace(cr, Mbb=np.array([1.0, 2.0]))
        report = check_canonical(odd)
        assert report.passed
        assert report.warnings

    def test_report_serialization(self):
        report = check_canonical(pure_mass_response())
        obj = report.to_dict()
        assert obj["pass"] is True
        assert set(obj["conditions"]) == {
            "R_psd",
            "sigma_positive",
            "M_diag_psd",
            "A_psd",
            "poles_left_half",
            "static_psd",
            "static_balanced",
            "passivity_sampled",
        }
        for entry in obj["conditions"].values():
            assert set(entry) == {"pass", "worst_violation", "witness"}


    @pytest.mark.parametrize("beta, skipped", [(0.0, 2), (0.5, 0)])
    def test_resonant_grid_points_are_skipped_and_counted(self, beta, skipped):
        # undamped, the mode at sigma = 1 has its poles at omega = +-1, two
        # points of the grid; damping moves them off the imaginary axis
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.0, beta),
            A=SymMatrix(np.zeros((2, 2))),
            Mbb=np.zeros(2),
            sigmas=[1.0],
            residues=[np.eye(2)],
            terminal_positions=np.array([[0.0, 0.0]]),
        )
        assert 1.0 in np.logspace(-2.0, 2.0, PASSIVITY_GRID_POINTS)
        condition = check_canonical(cr).conditions["passivity_sampled"]
        assert condition.passed
        assert condition.worst_violation == 0.0
        witness = condition.witness
        assert witness.endswith(f"({skipped} resonant grid points skipped)") == bool(skipped)
        assert ("skipped" in witness) == bool(skipped)


class TestPassivityMargin:
    def test_zero_frequency_margin_is_zero(self):
        net = random_network(2, 2, 2, 2, 1.0)
        cr = extract_canonical(assemble(net))
        assert passivity_margin(cr, 0.0) == 0.0

    def test_single_mode_scalar(self):
        # one rank-one mode with alpha=1, beta=1, sigma=2 at omega=1
        alpha, beta, sigma, omega = 1.0, 1.0, 2.0, 1.0
        cr = CanonicalResponse(
            rayleigh=RayleighParams(alpha, beta),
            A=SymMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]) / 2.0),
            Mbb=np.zeros(2),
            sigmas=[sigma],
            residues=[[[1.0, 0.0], [0.0, 0.0]]],
            terminal_positions=np.array([[0.0, 0.0]]),
        )
        lam = 1j * omega
        damp = 1.0 + alpha * lam
        q = sigma + (alpha * sigma + beta) * lam + lam * lam
        f = damp / sigma - damp * damp / q  # scalar mode response factor
        margin = passivity_margin(cr, omega)
        # direct complex evaluation: W(i*omega) = diag(f, 0) here
        assert margin >= 0.0
        assert_allclose(margin, min(omega * f.imag, 0.0), atol=1e-15)

    def test_pure_mass_margin_formula(self):
        mass, beta = 1.3, 0.7
        cr = pure_mass_response(mass, beta)
        for omega in (0.5, -2.0):
            # omega * Im[(beta*i*omega - omega^2) * m] = beta * omega^2 * m
            assert_allclose(passivity_margin(cr, omega), beta * omega**2 * mass)

    def test_sign_symmetry(self):
        net = random_network(5, 2, 2, 3, 0.5)
        cr = extract_canonical(assemble(net))
        for omega in (0.3, 1.7, 9.0):
            assert_allclose(
                passivity_margin(cr, omega), passivity_margin(cr, -omega), atol=1e-12
            )

    def test_negated_residue_goes_negative(self):
        net = random_network(1, 2, 2, 2, 1.0, alpha=0.2, beta=0.1)
        cr = extract_canonical(assemble(net))
        flipped = replace(cr, residues=-cr.residues)
        grid = np.logspace(-2, 2, 41)
        margins = [passivity_margin(flipped, w) for w in grid]
        assert min(margins) < 0.0
