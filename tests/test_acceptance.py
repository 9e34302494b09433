"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np

from elastonet import (
    ElastodynamicNetwork,
    Node,
    RayleighParams,
    Spring,
    SymMatrix,
    assemble,
    assemble_component,
    canonical_to_dict,
    check_balanced,
    check_canonical,
    contains,
    eliminate_massless,
    evaluate_reduced,
    evaluate_response,
    extract_canonical,
    is_psd,
    network_to_dict,
    passivity_margin,
    random_network,
    resonances_of,
    sample_nonresonant,
    schur_complement,
    synthesize,
    system_resonances,
)
from elastonet.cli import main as cli_main
from elastonet.jsonio import write_json
from elastonet.resonances import classify

from conftest import rank_one_gadget
from oracles import assemble_union, rank_one_response

N_NETWORKS = 25


def _report(number, name, detail=""):
    print(f"ACCEPTANCE {number} ({name}): PASS {detail}".rstrip())


def acceptance_networks():
    """The 25 seeded networks used across the criteria.

    Dimension alternates between 2 and 3; 2-4 terminals; 2-6 interior nodes
    with both massless and massive members; alpha, beta drawn in [0, 2] by
    the generator.
    """
    nets = []
    fractions = (0.4, 0.5, 0.6)
    for seed in range(N_NETWORKS):
        nets.append(
            random_network(
                seed,
                2 + seed % 2,
                2 + seed % 3,
                2 + seed % 5,
                fractions[seed % 3],
            )
        )
    return nets


def nonresonant_points(sys, count, seed):
    red = eliminate_massless(sys)
    avoid = system_resonances(sys.rayleigh, red.modal[0])
    return sample_nonresonant(np.random.default_rng(seed), avoid, count)


def test_criterion_1_roundtrip_identity():
    started = time.monotonic()
    worst = 0.0
    for k, net in enumerate(acceptance_networks()):
        sys = assemble(net)
        cr = extract_canonical(sys, seed=k)
        report = check_canonical(cr)
        assert report.passed, (k, report.failing())
        gn = synthesize(cr, seed=1000 + k)
        # the union network as one system, independent of the per-component
        # superposition that evaluate_generalized computes
        union = assemble_union(gn)
        for lam in nonresonant_points(sys, 50, 2000 + k):
            original = evaluate_response(sys, lam, mode="pseudoinverse").W.a
            synthesized = evaluate_response(union, lam, mode="pseudoinverse").W.a
            scale = max(np.abs(original).max(), 1e-300)
            err = np.abs(synthesized - original).max() / scale
            assert err <= 1e-8, (k, lam, err)
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    _report(
        1,
        "round-trip identity",
        f"(25 networks, 50 points each, worst rel err {worst:.2e}, "
        f"{elapsed:.1f} s)",
    )


def test_criterion_2_massless_elimination_equivalence():
    worst = 0.0
    for k, net in enumerate(acceptance_networks()):
        sys = assemble(net)
        red = eliminate_massless(sys)
        for lam in nonresonant_points(sys, 20, 3000 + k):
            full = evaluate_response(sys, lam, mode="pseudoinverse").W.a
            reduced = evaluate_reduced(red, lam).W.a
            scale = max(np.abs(full).max(), 1e-300)
            err = np.abs(full - reduced).max() / scale
            assert err <= 1e-9, (k, lam, err)
            worst = max(worst, err)
    _report(2, "massless elimination equivalence", f"(worst rel err {worst:.2e})")


def test_criterion_3_rayleigh_structure_preservation():
    worst = 0.0
    for k, net in enumerate(acceptance_networks()):
        sys = assemble(net)
        red = eliminate_massless(sys)
        # eliminate the massless interior from the damping matrix itself
        masses, nb = np.repeat(sys.node_masses, sys.dimension), sys.n_b
        massive = [c for c in range(nb, sys.order) if masses[c] != 0.0]
        massless = [c for c in range(nb, sys.order) if masses[c] == 0.0]
        order = list(range(nb)) + massive + massless
        c = sys.C.a[np.ix_(order, order)]
        ctilde = schur_complement(c, nb + len(massive), "pseudoinverse")
        alpha, beta = net.rayleigh.alpha, net.rayleigh.beta
        expected = alpha * red.Ktilde.a + beta * np.diag(
            np.concatenate([red.Mbb, red.Mjj])
        )
        gap = np.abs(ctilde.a - expected).max()
        knorm = np.abs(red.Ktilde.a).max()
        assert gap <= 1e-10 * knorm, (k, gap, knorm)
        worst = max(worst, gap / knorm if knorm else 0.0)
    _report(3, "Rayleigh structure preservation", f"(worst rel gap {worst:.2e})")


def test_criterion_4_passivity_on_grid():
    grid = np.logspace(-2.0, 2.0, 41)
    omegas = np.concatenate([-grid[::-1], grid])
    assert len(omegas) == 82
    worst = np.inf
    for k, net in enumerate(acceptance_networks()):
        cr = extract_canonical(assemble(net), seed=k)
        for omega in omegas:
            margin = passivity_margin(cr, omega)
            assert margin >= -1e-9, (k, omega, margin)
            worst = min(worst, margin)
    _report(4, "sampled passivity", f"(82-point grid, worst margin {worst:.2e})")


def test_criterion_5_resonance_loci():
    rng = np.random.default_rng(55)
    for trial in range(1000):
        alpha = rng.uniform(0.0, 2.0) if rng.random() < 0.8 else 0.0
        beta = rng.uniform(0.0, 2.0) if rng.random() < 0.8 else 0.0
        sigma = 10.0 ** rng.uniform(-2.0, 2.0)
        ray = RayleighParams(alpha, beta)
        case = classify(ray)
        if alpha == 0.0 and beta == 0.0:
            assert case == "undamped"
        elif alpha == 0.0:
            assert case == "node_damping_only"
        elif beta == 0.0:
            assert case == "dashpot_only"
        elif alpha * beta < 1.0:
            assert case == "underdamped_mixed"
        else:
            assert case == "overdamped_mixed"
        for root in resonances_of(sigma, ray):
            ok, found = contains(ray, root, tol=1e-9)
            assert ok, (trial, ray, sigma, root)
            assert abs(found - sigma) <= 1e-6 * sigma
    _report(5, "resonance loci", "(1000 triples, membership tol 1e-9)")


def test_criterion_6_gadget_contract():
    rng = np.random.default_rng(66)
    for trial in range(50):
        d = 2 if trial % 2 else 3
        nt = int(rng.integers(1, 4))
        terminals = rng.uniform(0.0, 1.0, size=(nt, d))
        f = rng.standard_normal(nt * d)
        sigma = 10.0 ** rng.uniform(-1.5, 1.5)
        ray = RayleighParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        comp = rank_one_gadget(terminals, f, sigma, ray, seed=int(rng.integers(1 << 31)))
        sys = assemble_component(comp)
        w0 = evaluate_response(sys, 0.0, mode="pseudoinverse").W.a
        assert np.abs(w0).max() <= 1e-10, (trial, np.abs(w0).max())
        avoid = system_resonances(ray, [sigma])
        for lam in sample_nonresonant(rng, avoid, 5):
            direct = evaluate_response(sys, lam).W.a
            closed = rank_one_response(f, sigma, ray, lam).a
            scale = max(np.abs(closed).max(), 1e-300)
            assert np.abs(direct - closed).max() <= 1e-10 * scale, trial
        g = comp.elements[0].force_vector[nt * d:]
        mass = comp.nodes[-1].mass
        sigma_realized = float(g @ g) / mass
        assert abs(sigma_realized - sigma) <= 1e-12 * sigma
        for root in resonances_of(sigma, ray):
            q = sigma + (ray.alpha * sigma + ray.beta) * root + root * root
            assert abs(q) <= 1e-9 * max(1.0, sigma)
            assert root.real <= 0.0
    _report(6, "rank-one gadget contract", "(50 gadgets)")


def test_criterion_7_schur_appendix_properties():
    rng = np.random.default_rng(77)

    def spd(n, shift=0.1):
        g = rng.standard_normal((n, n))
        return g.T @ g + shift * np.eye(n)

    for _ in range(200):  # homogeneity
        a = SymMatrix(spd(7) + 1j * 0.4 * spd(7))
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        s = schur_complement(a.a, 3)
        s_scaled = schur_complement(SymMatrix(lam * a.a).a, 3)
        assert np.abs(s_scaled.a - lam * s.a).max() <= 1e-10 * np.abs(lam * s.a).max()
    for _ in range(200):  # quadratic form identity
        re = rng.standard_normal((7, 7))
        im = rng.standard_normal((7, 7))
        a = SymMatrix((re + re.T) / 2 + 1j * (im + im.T) / 2 + 4.0 * np.eye(7))
        s = schur_complement(a.a, 3)
        vb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vi = -np.linalg.solve(a.a[3:, 3:], a.a[3:, :3] @ vb)
        v = np.concatenate([vb, vi])
        lhs = vb.conj() @ s.a @ vb
        rhs = v.conj() @ a.a @ v
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)
    for _ in range(200):  # sign preservation, both parts
        im = rng.standard_normal((7, 7))
        a = SymMatrix(spd(7) + 0.5j * (im + im.T))
        s = schur_complement(a.a, 3).a
        assert np.linalg.eigvalsh((s.real + s.real.T) / 2).min() >= -1e-9
        re = rng.standard_normal((7, 7))
        a = SymMatrix((re + re.T) / 2 + 1j * spd(7))
        s = schur_complement(a.a, 3).a
        assert np.linalg.eigvalsh((s.imag + s.imag.T) / 2).min() >= -1e-9
    _report(7, "Schur complement identities", "(200 matrices per property)")


def test_criterion_8_static_slice_characterization():
    worst = 0.0
    nets = acceptance_networks()
    # include the floppy collinear chain explicitly
    chain = ElastodynamicNetwork(
        2,
        (
            Node((0.0, 0.0), 0.0, True),
            Node((1.0, 0.0), 0.0, False),
            Node((2.0, 0.0), 0.0, True),
        ),
        (Spring(0, 1, 1.0), Spring(1, 2, 1.0)),
        RayleighParams(0.5, 0.0),
    )
    for k, net in enumerate(nets + [chain]):
        cr = extract_canonical(assemble(net), seed=k)
        w0 = cr.static_response()
        assert is_psd(w0, tol=1e-9), k
        ok, residual = check_balanced(w0.a, cr.terminal_positions, tol=1e-10)
        assert ok, (k, residual)
        worst = max(worst, residual)
    _report(8, "static slice PSD and balanced", f"(worst residual {worst:.2e})")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    net = random_network(7, 2, 2, 3, 0.5, alpha=0.4, beta=0.8)
    net_path = tmp_path / "net.json"
    write_json(net_path, network_to_dict(net))

    # golden 1: respond on a valid network
    assert cli_main(["respond", str(net_path), "--omega", "0.1", "10", "5",
                     "-o", str(tmp_path / "r.json")]) == 0

    # golden 2: unknown field is a parse failure naming the path
    bad = json.loads(net_path.read_text())
    bad["springs"][0]["kk"] = 1.0
    bad_path = tmp_path / "bad_net.json"
    write_json(bad_path, bad)
    assert cli_main(["respond", str(bad_path), "--lam", "0,1",
                     "-o", str(tmp_path / "x.json")]) == 2

    # golden 3: canonical with sigma = -1 fails characterization
    cr = extract_canonical(assemble(net))
    canon = canonical_to_dict(cr)
    assert canon["modes"]
    broken = json.loads(json.dumps(canon))
    broken["modes"][0]["sigma"] = -1.0
    broken_path = tmp_path / "bad_canon.json"
    write_json(broken_path, broken)
    assert cli_main(["characterize", str(broken_path),
                     "-o", str(tmp_path / "rep.json")]) == 1

    # golden 4: roundtrip passes and is byte-identical across reruns
    a, b = tmp_path / "rt_a.json", tmp_path / "rt_b.json"
    assert cli_main(["roundtrip", str(net_path), "--seed", "9", "-o", str(a)]) == 0
    assert cli_main(["roundtrip", str(net_path), "--seed", "9", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # golden 5: inadmissible canonical is rejected by synthesize
    negated = json.loads(json.dumps(canon))
    negated["modes"][0]["R"] = (-np.array(negated["modes"][0]["R"])).tolist()
    negated_path = tmp_path / "neg_canon.json"
    write_json(negated_path, negated)
    assert cli_main(["synthesize", str(negated_path),
                     "-o", str(tmp_path / "g.json")]) == 5

    # golden 6: negative damping constants are an argument error
    assert cli_main(["loci", "--alpha", "-1", "--beta", "0",
                     "-o", str(tmp_path / "l.csv")]) == 2

    _report(9, "CLI determinism and exit codes", "(6 golden runs)")
