"""Command-line interface: formats, exit codes, determinism."""

import json
import warnings
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from elastonet import (
    CanonicalResponse,
    ElastodynamicNetwork,
    RayleighParams,
    Spring,
    SymMatrix,
    assemble,
    canonical_to_dict,
    eliminate_massless,
    extract_canonical,
    network_to_dict,
    random_network,
    resonances_of,
)
from elastonet import linalg
import elastonet.cli as cli_module
from elastonet.cli import main
from elastonet.jsonio import write_json

from conftest import axial_block
from oracles import exact_response


@pytest.fixture
def net_file(tmp_path):
    net = random_network(7, 2, 2, 3, 0.5, alpha=0.4, beta=0.8)
    path = tmp_path / "net.json"
    write_json(path, network_to_dict(net))
    return str(path)


@pytest.fixture
def chain_file(tmp_path, collinear_chain):
    path = tmp_path / "chain.json"
    write_json(path, network_to_dict(collinear_chain))
    return str(path)


@pytest.fixture
def single_spring_file(tmp_path, single_spring_terminals):
    path = tmp_path / "spring.json"
    write_json(path, network_to_dict(single_spring_terminals))
    return str(path)


@pytest.fixture
def canonical_file(tmp_path, net_file):
    cr = extract_canonical(assemble(random_network(7, 2, 2, 3, 0.5, alpha=0.4, beta=0.8)))
    path = tmp_path / "canon.json"
    write_json(path, canonical_to_dict(cr))
    return str(path)


class TestRespond:
    def test_constant_sweep_without_interior(self, tmp_path, single_spring_file):
        out = tmp_path / "resp.json"
        code = main(
            ["respond", single_spring_file, "--omega", "1", "3", "3", "-o", str(out)]
        )
        assert code == 0
        entries = json.loads(out.read_text())
        assert len(entries) == 3
        first = np.array(entries[0]["W"])
        for e in entries[1:]:
            assert np.array_equal(np.array(e["W"]), first)

    def test_chain_static_point_is_series_matrix(self, tmp_path, chain_file):
        out = tmp_path / "resp.json"
        code = main(["respond", chain_file, "--lam", "0,0", "-o", str(out)])
        assert code == 0
        (entry,) = json.loads(out.read_text())
        w = np.array(entry["W"])[:, :, 0]  # real parts
        np.testing.assert_allclose(w, axial_block(0.5), atol=1e-12)

    def test_unknown_field_exits_2(self, tmp_path, net_file, capsys):
        obj = json.loads(open(net_file).read())
        obj["nodes"][0]["color"] = "red"
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        code = main(["respond", str(bad), "--lam", "0,1", "-o", str(tmp_path / "o")])
        assert code == 2
        assert "nodes[0].color" in capsys.readouterr().err

    def test_all_resonant_sweep_exits_3(self, tmp_path, terminal_plus_mass):
        from elastonet import network_to_dict

        path = tmp_path / "undamped.json"
        write_json(path, network_to_dict(terminal_plus_mass))
        out = tmp_path / "resp.json"
        # the only sweep point sits exactly on the sigma = 1 resonance
        code = main(["respond", str(path), "--lam", "0,1", "-o", str(out)])
        assert code == 3
        (entry,) = json.loads(out.read_text())
        assert entry["at_resonance"] is True
        assert "W" not in entry

    def test_jobs_is_a_usage_error(self, tmp_path, net_file, capsys):
        # --jobs was removed: argparse refuses it, and respond is silent
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["respond", net_file, "--omega", "0.5", "5", "8", "--scale", "log"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2", "-o", str(b)])
        assert exc.value.code == 2
        assert not b.exists()
        capsys.readouterr()
        assert main(argv + ["-o", str(a)]) == 0
        assert capsys.readouterr().err == ""

    def test_one_eigensolve_per_sweep(self, tmp_path, net_file, monkeypatch):
        # the massless block and the modal decomposition are each
        # eigensolved once, however many points
        net = cli_module.network_from_dict(json.loads(open(net_file).read()))
        sys = assemble(net)
        n_j = len(cli_module.eliminate_massless(sys).Mjj)
        n_l = sys.order - sys.n_b - n_j
        assert n_j and n_l
        calls = []
        real = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for count in ("1", "3", "40"):
            calls.clear()
            argv = ["respond", net_file, "--omega", "0.5", "5", count]
            assert main(argv + ["-o", str(tmp_path / "o.json")]) == 0
            assert calls == [(n_l, n_l), (1, n_j, n_j)], count  # a stack of one

    def test_no_svd_and_no_eigvalsh_at_474_dof(self, tmp_path, monkeypatch):
        # the massless block goes through one eigh and the reduced interior
        # stiffness is certified PSD by one Cholesky
        path = tmp_path / "net.json"
        write_json(path, network_to_dict(random_network(5, 3, 8, 150, 0.5)))
        calls = []
        for name in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
        argv = ["respond", str(path), "--omega", "0.1", "100", "3", "--scale", "log"]
        assert main(argv + ["-o", str(tmp_path / "o.json")]) == 0
        assert calls == []

    def test_near_singular_massless_block_is_refused_or_exact(self, tmp_path):
        # seed 1093's massless block has condition 4.7e16: an eigh
        # elimination without EIGH_GUARD answered 1.06e-7, 7.0e-8 and
        # 3.2e-8 off the exact response
        net = random_network(1093, 3, 3, 6, 0.5)
        path, out = tmp_path / "net.json", tmp_path / "o.json"
        write_json(path, network_to_dict(net))
        lams = (0.5, 1.0, 2.0)
        argv = ["respond", str(path), "-o", str(out)]
        code = main(argv + [x for lam in lams for x in ("--lam", f"{lam},0")])
        assert code in (0, 1)
        for lam, entry in zip(lams, json.loads(out.read_text()) if code == 0 else ()):
            exact = exact_response(net, lam)
            w = np.array(entry["W"])[..., 0]
            assert np.abs(w - exact).max() <= 1e-8 * np.abs(exact).max(), lam

    def test_missing_sweep_exits_2(self, net_file, tmp_path):
        assert main(["respond", net_file, "-o", str(tmp_path / "o")]) == 2


def respond_at(tmp_path, net, lams, *flags):
    """Exit code and entries of ``respond`` on ``net`` at the points ``lams``."""
    path, out = tmp_path / "net.json", tmp_path / "out.json"
    write_json(path, network_to_dict(net))
    points = [f"--lam={complex(lam).real!r},{complex(lam).imag!r}" for lam in lams]
    code = main(["respond", str(path), "-o", str(out), *flags, *points])
    return code, json.loads(out.read_text())


def modal_ratio(net, lam):
    """``min |q_j| / max |q_j|`` of the reduced system of ``net`` at ``lam``,
    the ratio that ``respond --tol`` is compared with."""
    red = eliminate_massless(assemble(net))
    ray = red.rayleigh
    mag = np.abs((1.0 + ray.alpha * lam) * red.modal[0] + (ray.beta * lam + lam * lam))
    return mag.min() / mag.max()


class TestRespondDecisions:
    """``respond`` evaluates a sweep in blocks; each point keeps its own
    resonance decision, ``min |q_j| <= tol * max |q_j|``."""

    NET = staticmethod(lambda: random_network(3, 3, 3, 6, 0.5, alpha=0.5, beta=0.8))

    def roots(self, net):
        red = eliminate_massless(assemble(net))
        return [resonances_of(float(sigma), red.rayleigh)[0] for sigma in red.modal[0]]

    def test_one_resonant_point_is_the_only_one_flagged(self, tmp_path):
        net = self.NET()
        lams = [0.3j, self.roots(net)[4], 1.1j, 2.0 + 0.5j]
        code, entries = respond_at(tmp_path, net, lams)
        assert code == 0
        assert [bool(e.get("at_resonance")) for e in entries] == [False, True, False, False]
        assert ["W" in e for e in entries] == [True, False, True, True]

    def test_an_all_resonant_sweep_exits_3(self, tmp_path):
        net = self.NET()
        code, entries = respond_at(tmp_path, net, self.roots(net)[2:5])
        assert code == cli_module.EXIT_ALL_RESONANT
        assert [e.get("at_resonance") for e in entries] == [True, True, True]

    def test_zero_damping_factor_leaves_the_terminal_masses(self, tmp_path):
        # 1 + alpha*lambda = 0 exactly at lambda = -1/alpha = -2: every
        # coefficient damp^2/q_j is 0 and W = (beta*lambda + lambda^2) diag(Mbb)
        net = self.NET()
        red = eliminate_massless(assemble(net))
        assert red.Mbb.any()
        code, (entry,) = respond_at(tmp_path, net, [-2.0])
        assert code == 0
        w = np.array(entry["W"])
        assert np.array_equal(w[..., 0], np.diag((0.8 * -2.0 + 4.0) * red.Mbb))
        assert not w[..., 1].any()

    def test_every_factor_vanishing_is_resonant(self, tmp_path):
        # with alpha*beta = 1 every q_j = damp*sigma_j + inertia is exactly 0
        # at lambda = -1/alpha: min |q_j| = 0 <= tol * max |q_j| = 0
        net = random_network(3, 3, 3, 6, 0.5, alpha=0.5, beta=2.0)
        code, entries = respond_at(tmp_path, net, [-2.0, -2.0 + 1e-3j])
        assert code == 0
        assert [e.get("at_resonance", False) for e in entries] == [True, False]

    def test_tol_moves_the_flag(self, tmp_path):
        net = self.NET()
        lam = self.roots(net)[3] + 1e-3j
        ratio = modal_ratio(net, lam)
        assert 0.0 < ratio < 1e-2
        flags = []
        for tol in (ratio / 2, ratio * 2, 0.0):
            code, (entry,) = respond_at(tmp_path, net, [lam], "--tol", repr(float(tol)))
            flags.append(entry.get("at_resonance", False))
            assert code == (3 if flags[-1] else 0)
        assert flags == [False, True, False]

    def test_no_point_is_averaged_with_its_transpose(self, tmp_path, monkeypatch):
        calls = []
        real = linalg.symmetrized

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(linalg, "symmetrized", counting)
        for d in (2, 3):
            net = random_network(4, d, 3, 6, 0.5)
            code, entries = respond_at(tmp_path, net, 1j * np.logspace(-1, 1, 5))
            assert code == 0 and all("W" in e for e in entries)
        assert calls == []


def first_spring_stiffened(seed, exponent):
    """``random_network(seed, 3, 3, 6, 0.5)`` with its first spring 10^exponent stiffer."""
    net = random_network(seed, 3, 3, 6, 0.5)
    first = net.springs[0]
    springs = (Spring(first.i, first.j, first.stiffness * 10.0 ** exponent), *net.springs[1:])
    return ElastodynamicNetwork(net.dimension, net.nodes, springs, net.rayleigh)


# ROADMAP O17's stiff-spring scan: a modal W that is not bitwise symmetric
# is averaged with its transpose and refused (AsymmetricMatrix) on seeds 2,
# 3 and 5 from 10^6, so these need the mirrored kernel
@pytest.mark.parametrize("seed,exponent", [
    (2, 6), (2, 8), (3, 6), (3, 8), (5, 6), (5, 8),
    pytest.param(1, 8, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="ROADMAP O17, O23: the massless elimination drops a soft "
               "direction, and respond answers 11% off")),
])
def test_stiff_spring_answers_within_ten_lu_errors(tmp_path, seed, exponent):
    net = first_spring_stiffened(seed, exponent)
    lams = (0.5, 1.0)
    code, entries = respond_at(tmp_path, net, lams)
    assert code == 0
    sys = assemble(net)
    for lam, entry in zip(lams, entries, strict=True):
        exact = exact_response(net, lam)
        lu = linalg.schur_complement_lu(evaluate_pencil(sys, lam), sys.n_b)
        # the LU error is the yardstick, so it must be small itself: an LU
        # that is silently wrong (nearly singular block) would accept anything
        assert np.abs(lu - exact).max() <= 1e-7 * np.abs(exact).max(), lam
        w = np.array(entry["W"])[..., 0] + 1j * np.array(entry["W"])[..., 1]
        assert np.abs(w - exact).max() <= 10 * np.abs(lu - exact).max(), lam


def evaluate_pencil(sys, lam):
    """``K + lambda*C + lambda^2*M`` of an assembled system."""
    K, M = sys.K.a, sys.M.a
    return K + lam * sys.rayleigh.damping(K, M) + lam * lam * M


class TestExtractAndCharacterize:
    def test_extract_then_characterize_passes(self, tmp_path, net_file):
        canon = tmp_path / "canon.json"
        assert main(["extract", net_file, "-o", str(canon)]) == 0
        report = tmp_path / "report.json"
        assert main(["characterize", str(canon), "-o", str(report)]) == 0
        obj = json.loads(report.read_text())
        assert obj["pass"] is True

    def test_characterize_accepts_network_directly(self, tmp_path, net_file):
        assert main(["characterize", net_file, "-o", str(tmp_path / "r.json")]) == 0

    def test_negative_sigma_fails_with_named_condition(self, tmp_path, canonical_file):
        obj = json.loads(open(canonical_file).read())
        assert obj["modes"], "fixture needs at least one mode"
        obj["modes"][0]["sigma"] = -1.0
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        report = tmp_path / "report.json"
        assert main(["characterize", str(bad), "-o", str(report)]) == 1
        rep = json.loads(report.read_text())
        assert rep["conditions"]["sigma_positive"]["pass"] is False

    def test_a_residue_that_overflows_exits_1(self, tmp_path, capsys):
        # finite on input, the form overflows on the passivity grid; a stacked
        # eigensolve of the non-finite W let an untyped LinAlgError escape
        obj = canonical_to_dict(extract_canonical(assemble(random_network(1, 2, 2, 2, 1.0))))
        obj["modes"][0]["R"][0][0] = 1e308
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json(bad, obj)
        assert main(["characterize", str(bad), "-o", str(report)]) == 1
        assert capsys.readouterr().err == "error: matrix entries must be finite\n"
        assert not report.exists()

    def test_a_pole_polynomial_that_overflows_is_reported(self, tmp_path, capsys):
        # |q| of sigma = 1.5e308 overflows although its parts are finite;
        # Python's abs raised an untyped OverflowError there
        net = random_network(1, 2, 2, 2, 1.0, alpha=1.0, beta=0.1)
        obj = canonical_to_dict(extract_canonical(assemble(net)))
        obj["modes"][0]["sigma"] = 1.5e308
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json(bad, obj)
        assert main(["characterize", str(bad), "-o", str(report)]) == 1
        assert capsys.readouterr().err == ""
        rep = json.loads(report.read_text())
        assert rep["conditions"]["static_balanced"]["pass"] is False
        assert rep["conditions"]["passivity_sampled"]["pass"] is True

    def test_non_psd_static_slice_fails(self, tmp_path, canonical_file):
        obj = json.loads(open(canonical_file).read())
        obj["modes"] = [
            {"sigma": m["sigma"], "R": (5.0 * np.array(m["R"])).tolist()}
            for m in obj["modes"]
        ]
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        report = tmp_path / "report.json"
        assert main(["characterize", str(bad), "-o", str(report)]) == 1
        rep = json.loads(report.read_text())
        assert rep["conditions"]["static_psd"]["pass"] is False


def canonical_3d():
    """The JSON form of ``random_network(1, 3, 3, 6, 0.5)``: three terminals
    in 3-D (order 9) and five modes."""
    return canonical_to_dict(extract_canonical(assemble(random_network(1, 3, 3, 6, 0.5))))


def shifted(*path):
    """An edit of a JSON form that adds 1e-3 to its entry at ``path``."""
    def edit(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] += 1e-3
    return edit


class TestCanonicalReaderRefusals:
    """What the canonical reader refuses exits 2 with one ``error:`` line
    naming the field."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda obj: obj.update(terminals=[t[:1] for t in obj["terminals"]]),
                         "canonical.terminals: expected rows of 2 or 3 coordinates",
                         id="one-coordinate"),
            pytest.param(lambda obj: obj.update(terminals=[t + [0.0] for t in obj["terminals"]]),
                         "canonical.terminals: expected rows of 2 or 3 coordinates",
                         id="four-coordinates"),
            pytest.param(lambda obj: obj.update(A=obj["A"][:-1]),
                         "canonical.A: expected 9 rows, got 8", id="A-row-short"),
            pytest.param(shifted("A", 0, 1), "canonical.A: asymmetry 1.000e-03 exceeds",
                         id="A-asymmetric"),
            pytest.param(shifted("modes", 1, "R", 0, 1),
                         "canonical.modes[1].R: asymmetry 1.000e-03 exceeds",
                         id="R-asymmetric"),
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, edit, message):
        obj = canonical_3d()
        edit(obj)
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json(bad, obj)
        assert main(["characterize", str(bad), "-o", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not report.exists()

    def test_a_rounding_level_asymmetry_is_repaired(self, tmp_path, capsys):
        obj = canonical_3d()
        row = obj["modes"][1]["R"][0]
        row[1] *= 1.0 + 1e-15
        assert row[1] != obj["modes"][1]["R"][1][0]
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        write_json(bad, obj)
        assert main(["characterize", str(bad), "-o", str(report)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["pass"] is True


class TestSynthesize:
    def test_roundtrip_canonical(self, tmp_path, canonical_file):
        out = tmp_path / "gen.json"
        code = main(["synthesize", canonical_file, "--seed", "5", "-o", str(out)])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["verification"]["max_rel_error"] <= 1e-8
        assert obj["verification"]["n_lambda_samples"] == 50
        assert {"terminals", "components", "epsilon_hull", "verification"} == set(obj)

    def test_zero_canonical_gives_empty_components(self, tmp_path):
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.3, 0.3),
            A=SymMatrix(np.zeros((4, 4))),
            Mbb=np.zeros(4),
            sigmas=np.zeros(0),
            residues=np.zeros((0, 4, 4)),
            terminal_positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        path = tmp_path / "zero.json"
        write_json(path, canonical_to_dict(cr))
        out = tmp_path / "gen.json"
        assert main(["synthesize", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["components"] == []

    def test_inadmissible_exits_5(self, tmp_path, canonical_file):
        obj = json.loads(open(canonical_file).read())
        obj["modes"][0]["R"] = (-np.array(obj["modes"][0]["R"])).tolist()
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        assert main(["synthesize", str(bad), "-o", str(tmp_path / "g")]) == 5

    def test_forbidden_points_respected(self, tmp_path, canonical_file):
        forb = tmp_path / "forbidden.json"
        write_json(forb, [[0.5, 0.5], [0.4, 0.6]])
        out = tmp_path / "gen.json"
        code = main(
            ["synthesize", canonical_file, "--forbidden", str(forb), "-o", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize("points", [[[]], [[], []], [[0.5, 0.5, 0.5]]])
    def test_a_forbidden_point_of_the_wrong_width_exits_2(
        self, tmp_path, canonical_file, points, capsys
    ):
        # [[]] holds one point with no coordinates, not an empty list of points
        forb = tmp_path / "forbidden.json"
        write_json(forb, points)
        out = tmp_path / "gen.json"
        code = main(["synthesize", canonical_file, "--forbidden", str(forb), "-o", str(out)])
        assert code == 2
        assert "forbidden: expected 2 coordinates per point" in capsys.readouterr().err
        assert not out.exists()

    def test_an_empty_forbidden_list_is_no_points(self, tmp_path, canonical_file):
        forb = tmp_path / "forbidden.json"
        write_json(forb, [])
        out, plain = tmp_path / "gen.json", tmp_path / "plain.json"
        assert main(["synthesize", canonical_file, "--forbidden", str(forb), "-o", str(out)]) == 0
        assert main(["synthesize", canonical_file, "-o", str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()


    @pytest.mark.parametrize("command", ["synthesize", "roundtrip"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exits_2(self, tmp_path, command, samples,
                                       canonical_file, net_file):
        # zero samples used to verify nothing and still report a pass
        src = canonical_file if command == "synthesize" else net_file
        out = tmp_path / "o.json"
        assert main([command, src, "--samples", samples, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "roundtrip"])
    def test_samples_above_cap_exits_2(self, tmp_path, command, canonical_file,
                                       net_file, capsys):
        src = canonical_file if command == "synthesize" else net_file
        out = tmp_path / "o.json"
        samples = str(cli_module.MAX_SWEEP_POINTS + 1)
        assert main([command, src, "--samples", samples, "-o", str(out)]) == 2
        assert "--samples must lie in [1, 100000]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "roundtrip"])
    @pytest.mark.parametrize("epsilon", ["0", "-0.1", "nan"])
    def test_nonpositive_epsilon_exits_2(self, tmp_path, command, epsilon,
                                         canonical_file, net_file, capsys):
        src = canonical_file if command == "synthesize" else net_file
        out = tmp_path / "o.json"
        assert main([command, src, "--epsilon", epsilon, "-o", str(out)]) == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestLoci:
    def test_csv_rows(self, tmp_path):
        out = tmp_path / "loci.csv"
        assert main(["loci", "--alpha", "1", "--beta", "0", "--points", "4",
                     "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,sigma,piece_label"
        assert len(lines) == 5

    def test_overdamped_rows_all_real(self, tmp_path):
        out = tmp_path / "loci.csv"
        assert main(["loci", "--alpha", "1", "--beta", "2", "--points", "100",
                     "-o", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[1]) == 0.0

    def test_node_damping_rows_on_known_pieces(self, tmp_path):
        out = tmp_path / "loci.csv"
        assert main(["loci", "--alpha", "0", "--beta", "2", "--points", "100",
                     "-o", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            re, im, sigma, label = line.split(",")
            re, im = float(re), float(im)
            if label == "segment":
                assert -2.0 <= re < 0.0 and im == 0.0
            else:
                assert label == "line"
                np.testing.assert_allclose(re, -1.0)

    @pytest.mark.parametrize("points", [
        "1" + "0" * 300, str(cli_module.MAX_SWEEP_POINTS + 1), "1",
    ], ids=["301 digits", "cap + 1", "one"])
    def test_points_outside_bounds_exit_2(self, tmp_path, points, capsys):
        # a 301-digit count used to escape main as an untyped ValueError
        out = tmp_path / "loci.csv"
        assert main(["loci", "--alpha", "1", "--beta", "0", "--points", points,
                     "-o", str(out)]) == 2
        assert "--points must lie in [2, 100000]" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_parameters_exit_2(self, tmp_path):
        # nan and inf used to escape main as a ValueError traceback
        for alpha, beta in [("-1", "0"), ("nan", "0"), ("inf", "0"),
                            ("0", "nan"), ("0", "inf"), ("0", "-inf")]:
            out = tmp_path / "x"
            assert main(["loci", f"--alpha={alpha}", f"--beta={beta}",
                         "-o", str(out)]) == 2, (alpha, beta)
            assert not out.exists()


class TestNumericArguments:
    @pytest.mark.parametrize("argv", [
        ["respond", "--lam", "0,1", "--tol", "nan"],
        ["respond", "--lam", "0,1", "--tol", "-1"],
        ["respond", "--lam", "0,1", "--tol", "inf"],
        ["respond", "--omega", "nan", "10", "5"],
        ["respond", "--omega", "1", "inf", "5"],
        ["respond", "--omega", "1", "10", "nan"],
        ["respond", "--omega", "1", "10", "2.7"],
        ["respond", "--omega", "1", "10", "1e300"],
        ["respond", "--lam", "nan,1"],
        ["respond", "--lam", "1,-inf"],
        ["extract", "--tol-floppy", "nan"],
        ["extract", "--tol-cluster", "-1"],
        ["characterize", "--tol", "nan"],
        ["roundtrip", "--tol", "nan"],
        ["roundtrip", "--tol=-1e-9"],
    ], ids=" ".join)
    def test_bad_value_exits_2_before_any_work(self, tmp_path, net_file, argv,
                                               capsys):
        out = tmp_path / "o.json"
        # main maps every ElastonetError to an exit code; any other
        # exception escapes and fails the row
        assert main([argv[0], net_file, *argv[1:], "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [
        "1" + "0" * 300, str(cli_module.MAX_SWEEP_POINTS + 1),
    ], ids=["301 digits", "cap + 1"])
    def test_count_above_cap_exits_2_without_allocating(
        self, tmp_path, net_file, count, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(np, "logspace", refuse)
        for scale in ("linear", "log"):
            out = tmp_path / "o.json"
            argv = ["respond", net_file, "--omega", "1", "10", count, "--scale", scale]
            assert main(argv + ["-o", str(out)]) == 2
            assert "COUNT must lie in [1, 100000]" in capsys.readouterr().err
            assert not out.exists()

    def test_count_at_cap_is_accepted(self):
        args = cli_module.build_parser().parse_args(
            ["respond", "net.json", "--omega", "1", "10",
             str(cli_module.MAX_SWEEP_POINTS)]
        )
        assert len(cli_module._sweep_points(args)) == cli_module.MAX_SWEEP_POINTS


def past_float_range(obj, *keys):
    """``obj`` as JSON bytes with the entry at ``keys`` set to the 401-digit
    integer ``10**400``, past the float range."""
    entry = obj
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = 10**400
    return json.dumps(obj).encode()


def network_dict():
    return network_to_dict(random_network(7, 2, 2, 3, 0.5, alpha=0.4, beta=0.8))


class TestErrorMapping:
    def test_floppy_inconsistency_exits_4(self, tmp_path, net_file, monkeypatch):
        # unreachable from a well-formed network file (PSD stiffness forces
        # zero coupling on floppy modes), so exercise the mapping directly
        import elastonet.cli as cli_mod
        from elastonet import FloppyModeInconsistent

        def boom(*args, **kwargs):
            raise FloppyModeInconsistent("zero-stiffness mode couples")

        monkeypatch.setattr(cli_mod, "extract_canonical", boom)
        assert main(["characterize", net_file, "-o", str(tmp_path / "r.json")]) == 4

    def test_a_terminal_span_that_overflows_exits_6(self, tmp_path, capsys):
        # terminals 1e300 apart: their span overflowed to an infinite
        # clearance, with numpy warnings, and every draw then failed
        cr = extract_canonical(assemble(random_network(1, 3, 3, 6, 0.5)))
        obj = canonical_to_dict(cr)
        obj["terminals"] = [[1e300 * x for x in row] for row in obj["terminals"]]
        path, out = tmp_path / "big.json", tmp_path / "g.json"
        write_json(path, obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synthesize", str(path), "-o", str(out)]) == 6
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("error: the width of the terminal hull overflows "
                              "(terminal span inf,")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_positions_past_the_squared_float_range(self, tmp_path, capsys):
        # positions x1e300: each squared spring length overflows, and the
        # lengths were inf, the springs dropped, with a numpy warning
        obj = network_to_dict(random_network(1, 3, 3, 6, 0.5))
        big = json.loads(json.dumps(obj))
        for node in big["nodes"]:
            node["position"] = [1e300 * x for x in node["position"]]
        argv = ["respond", "--omega", "0.1", "10", "5", "--scale", "log"]
        responses = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, network in [("net", obj), ("big", big)]:
                path, out = tmp_path / f"{name}.json", tmp_path / f"{name}_w.json"
                write_json(path, network)
                assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) == 0
                responses.append(np.array([e["W"] for e in json.loads(out.read_text())]))
            unscaled, scaled = responses
            assert np.abs(scaled - unscaled).max() <= 1e-12 * np.abs(unscaled).max()
            # the terminal hull's width still overflows for synthesis
            out = tmp_path / "rt.json"
            assert main(["roundtrip", str(tmp_path / "big.json"), "-o", str(out)]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: the width of the terminal hull overflows ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_placement_failure_exits_6(self, tmp_path, canonical_file, monkeypatch):
        import elastonet.cli as cli_mod
        from elastonet import PlacementFailed

        def boom(*args, **kwargs):
            raise PlacementFailed("no admissible pair")

        monkeypatch.setattr(cli_mod, "synthesize", boom)
        assert main(["synthesize", canonical_file, "-o", str(tmp_path / "g.json")]) == 6

    RESPOND = ["respond", "in.json", "--lam", "1,1", "-o", "out.json"]
    CHARACTERIZE = ["characterize", "in.json", "-o", "out.json"]

    @pytest.mark.parametrize(
        "content, argv",
        [
            pytest.param(b"[" * 100_000 + b"]" * 100_000, RESPOND, id="deep-array"),
            pytest.param(b"9" * 5000, RESPOND, id="integer-past-digit-limit"),
            pytest.param(b'{"nodes": "\xff"}', RESPOND, id="invalid-utf8"),
            pytest.param(None, ["loci", "--alpha", "1", "--beta", "1", "-o", "no/out.csv"],
                         id="output-in-missing-directory"),
            pytest.param(None, ["loci", "--alpha", "1", "--beta", "1", "-o", "dir"],
                         id="output-onto-directory"),
            pytest.param(None, ["loci", "--alpha", "1e308", "--beta", "1e308", "-o", "out.csv"],
                         id="damping-sum-overflows"),
            pytest.param(past_float_range(network_dict(), "springs", 2, "k"), RESPOND,
                         id="stiffness-past-float-range"),
            pytest.param(past_float_range(network_dict(), "nodes", 1, "mass"), RESPOND,
                         id="mass-past-float-range"),
            pytest.param(past_float_range(network_dict(), "rayleigh", "alpha"), RESPOND,
                         id="alpha-past-float-range"),
            pytest.param(
                past_float_range(
                    canonical_to_dict(extract_canonical(assemble(random_network(1, 2, 2, 2, 1.0)))),
                    "modes", 0, "R", 0, 1,
                ),
                CHARACTERIZE,
                id="residue-past-float-range",
            ),
        ],
    )
    def test_hostile_input_exits_2_writing_nothing(
        self, tmp_path, monkeypatch, capsys, content, argv
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        if content is not None:
            (tmp_path / "in.json").write_bytes(content)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before


class TestParserReuse:
    """The argument tree is built once per process and copied per call."""

    def test_each_call_copies_one_built_tree(self):
        a, b = cli_module.build_parser(), cli_module.build_parser()
        assert a is not b
        assert vars(a).keys() == vars(b).keys()
        assert all(vars(a)[key] is value for key, value in vars(b).items())

    def test_an_attribute_set_on_a_copy_stays_on_it(self, tmp_path, net_file):
        # perfbench's tracer sets `parse_args` on the parser it is handed
        parser = cli_module.build_parser()
        parser.parse_args = lambda *args, **kwargs: pytest.fail("the copy's parse_args ran")
        assert main(["extract", net_file, "-o", str(tmp_path / "c.json")]) == 0
        assert "parse_args" not in vars(cli_module.build_parser())

    def test_main_builds_one_parser_a_call(self, tmp_path, net_file, monkeypatch):
        calls = []
        real = cli_module.build_parser

        def counting():
            calls.append(None)
            return real()

        monkeypatch.setattr(cli_module, "build_parser", counting)
        for k in range(3):
            assert main(["extract", net_file, "-o", str(tmp_path / "c.json")]) == 0
            assert len(calls) == k + 1

    def test_reused_tree_writes_what_a_fresh_one_does(
        self, tmp_path, net_file, canonical_file, capsys
    ):
        out = str(tmp_path / "out")
        runs = [
            ["respond", net_file, "--lam", "1,1", "--lam", "0,2"],
            ["respond", net_file, "--omega", "0.1", "10", "5", "--scale", "log"],
            ["respond", net_file, "--lam", "0.5,0.5"],
            ["extract", net_file, "--seed", "4"],
            ["characterize", net_file],
            ["synthesize", canonical_file, "--samples", "7"],
            ["roundtrip", net_file, "--epsilon", "0.05"],
            ["loci", "--alpha", "0.3", "--beta", "0.2", "--points", "5"],
            ["respond", net_file, "--scale", "cubic"],
            ["extract", net_file],
        ]

        def outcome(argv):
            (tmp_path / "out").unlink(missing_ok=True)
            try:
                code = main(argv + ["-o", out])
            except SystemExit as exc:  # a usage error, from argparse
                code = ("exit", exc.code)
            data = (tmp_path / "out").read_bytes() if (tmp_path / "out").exists() else None
            return code, data, capsys.readouterr()

        fresh = []
        for argv in runs:
            cli_module._parser.cache_clear()
            fresh.append(outcome(argv))
        reused = [outcome(argv) for _ in range(2) for argv in runs]
        assert reused == fresh + fresh
        assert [code for code, _, _ in fresh] == [0] * 8 + [("exit", 2), 0]


class TestRoundtrip:
    def test_byte_identical_reruns(self, tmp_path, net_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["roundtrip", net_file, "--seed", "9", "-o", str(a)]) == 0
        assert main(["roundtrip", net_file, "--seed", "9", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, net_file, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["roundtrip", net_file, "--seed", "9", "-o", str(a)]) == 0
        monkeypatch.setenv("ELASTONET_SEED", "9")
        assert main(["roundtrip", net_file, "--seed", "123", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_characterizes_once(self, tmp_path, net_file, monkeypatch):
        # the roundtrip hands its report to synthesis instead of re-checking
        synth_module = import_module("elastonet.synthesize")
        calls = []
        for module in (cli_module, synth_module):
            real = module.check_canonical

            def counting(*args, _real=real, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "check_canonical", counting)
        assert main(["roundtrip", net_file, "-o", str(tmp_path / "rt.json")]) == 0
        assert len(calls) == 1

    def test_synthesis_accepts_what_characterization_passed(self, tmp_path):
        # in units of 3e5 the static slice passes static_balanced at
        # --tol 1e-6 but not at 1e-9; a second check at 1e-9 inside
        # synthesis used to reject it (exit 5, no output)
        net = random_network(4, 2, 3, 4, 0.5)
        nodes = tuple(
            replace(n, position=tuple(3e5 * x for x in n.position)) for n in net.nodes
        )
        net = ElastodynamicNetwork(net.dimension, nodes, net.springs, net.rayleigh)
        path, out = tmp_path / "big.json", tmp_path / "rt.json"
        write_json(path, network_to_dict(net))
        argv = ["roundtrip", str(path), "--tol", "1e-6", "--epsilon", "3e4"]
        assert main(argv + ["-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["pass"] is True
        assert obj["characterization"]["pass"] is True
        assert obj["verification"]["max_rel_error"] <= 1e-8

    def test_report_contents(self, tmp_path, net_file):
        out = tmp_path / "rt.json"
        assert main(["roundtrip", net_file, "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["pass"] is True
        assert obj["characterization"]["pass"] is True
        assert obj["verification"]["max_rel_error"] <= 1e-8


class TestNegativeSeed:
    """A negative seed is refused as a parse error, from the flag or the
    environment, before it reaches numpy's generator."""

    @pytest.mark.parametrize("command", ["extract", "characterize", "synthesize", "roundtrip"])
    @pytest.mark.parametrize("source", ["--seed", "ELASTONET_SEED"])
    def test_exits_2_naming_its_source(
        self, tmp_path, net_file, canonical_file, monkeypatch, capsys, command, source
    ):
        argv = [command, canonical_file if command == "synthesize" else net_file]
        if source == "--seed":
            argv += ["--seed", "-3"]
        else:
            monkeypatch.setenv("ELASTONET_SEED", "-3")
        out = tmp_path / "out.json"
        assert main(argv + ["-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {source}: must be >= 0, got -3\n"
        assert not out.exists()
