"""Response evaluation, massless elimination, pole-residue extraction."""

import hashlib
import importlib
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    AtResonance,
    CanonicalResponse,
    DimensionMismatch,
    ElastodynamicNetwork,
    ElastonetError,
    FloppyModeInconsistent,
    Mode,
    Node,
    RayleighParams,
    ReconstructionMismatch,
    SchemaError,
    Spring,
    SymMatrix,
    SystemMatrices,
    assemble,
    canonical_from_dict,
    canonical_poles,
    canonical_responses,
    canonical_to_dict,
    check_balanced,
    check_canonical,
    eliminate_massless,
    evaluate_canonical,
    evaluate_reduced,
    extract_canonical,
    is_psd,
    random_network,
    resonances_of,
    sample_nonresonant,
    synthesize,
    system_resonances,
    verify_synthesis,
)
from elastonet import response
from elastonet.response import RESONANCE_CLEARANCE, _cluster_ascending

from conftest import axial_block, shuffled_nodes
from oracles import (
    canonical_block_twin,
    direct_response,
    direct_response_by_index,
    exact_response,
    full_pencil_check,
    modal_by_system,
    node_major,
    reconstruction_error_by_point,
    reconstruction_error_massless_once,
    schur_complement_eigh_by_index,
    static_response_by_mode,
)


def scalar_response(k, m, alpha, beta, lam):
    """Single terminal + single massive interior node, axial closed form."""
    damp = 1.0 + alpha * lam
    return damp * k - (damp * k) ** 2 / (damp * k + (beta * lam + lam * lam) * m)


def respond(sys, lam):
    """The response ``respond`` answers with: :func:`evaluate_reduced` of
    the system's massless elimination."""
    return evaluate_reduced(eliminate_massless(sys), lam).W.a


class TestEvaluateResponse:
    """The response of small networks against their closed forms."""

    def test_no_interior_nodes_gives_full_pencil(self, single_spring_terminals):
        sys = assemble(single_spring_terminals)
        for lam in (0.0, 1.0 + 2.0j, -0.5j):
            w = respond(sys, lam)
            assert_allclose(w, axial_block(), atol=1e-15)

    def test_chain_static_pseudoinverse_is_series_spring(self, assembled_chain):
        w = respond(assembled_chain, 0.0)
        assert_allclose(w, axial_block(0.5), atol=1e-14)

    def test_single_mass_matches_scalar_formula(self, terminal_plus_mass):
        sys = assemble(terminal_plus_mass)
        lam = 0.5j
        w = respond(sys, lam)
        expected = scalar_response(1.0, 1.0, 0.0, 0.0, lam)
        assert_allclose(w[0, 0], expected)
        assert_allclose(expected, 1.0 - 1.0 / 0.75)
        assert_allclose(w[1, 1], 0.0, atol=1e-15)

    def test_resonance_raises(self, terminal_plus_mass):
        sys = assemble(terminal_plus_mass)
        with pytest.raises(AtResonance):
            respond(sys, 1.0j)  # sigma = 1 pole of the undamped system

    def test_damped_scalar_formula(self):
        nodes = (Node((0.0, 0.0), 0.0, True), Node((1.0, 0.0), 2.0, False))
        net = ElastodynamicNetwork(
            2, nodes, (Spring(0, 1, 1.5),), RayleighParams(0.3, 0.7)
        )
        sys = assemble(net)
        for lam in (0.2 + 0.9j, -0.1 + 2.0j):
            w = respond(sys, lam)
            assert_allclose(w[0, 0], scalar_response(1.5, 2.0, 0.3, 0.7, lam))


class TestEliminateMassless:
    def test_no_massless_interior_restricts_exactly(self):
        net = random_network(4, 2, 2, 2, 1.0)
        sys = assemble(net)
        red = eliminate_massless(sys)
        assert np.array_equal(red.Ktilde.a, sys.K.a)

    def test_chain_reduces_to_series_spring(self, assembled_chain):
        red = eliminate_massless(assembled_chain)
        assert len(red.Mjj) == 0
        assert_allclose(red.Ktilde.a, axial_block(0.5), atol=1e-14)

    def test_all_massless_network_response_scales_statically(self):
        base = random_network(10, 2, 2, 3, 0.0, alpha=0.8, beta=1.1)
        nodes = tuple(Node(n.position, 0.0, n.is_terminal) for n in base.nodes)
        net = ElastodynamicNetwork(2, nodes, base.springs, base.rayleigh)
        sys = assemble(net)
        red = eliminate_massless(sys)
        assert len(red.Mjj) == 0
        w_static = red.Ktilde.a
        for lam in (0.4 + 0.2j, 1.5j):
            w = evaluate_reduced(red, lam).W.a
            assert_allclose(w, (1.0 + 0.8 * lam) * w_static, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_reduction_matches_full_response(self, seed):
        net = random_network(seed, 2 + seed % 2, 2, 4, 0.5)
        sys = assemble(net)
        red = eliminate_massless(sys)
        avoid = system_resonances(net.rayleigh, red.modal[0])
        rng = np.random.default_rng(seed)
        for lam in sample_nonresonant(rng, avoid, 10):
            full = direct_response(sys, lam)
            reduced = evaluate_reduced(red, lam).W.a
            scale = max(np.abs(full).max(), 1e-300)
            assert np.abs(full - reduced).max() <= 1e-9 * scale

    def test_one_schur_complement(self, monkeypatch):
        # only K is eliminated, by one eigh complement; the reduced damping
        # follows from Ktilde and M
        sys = assemble(random_network(5, 2, 2, 4, 0.5))
        calls = []
        real = response.schur_complement_eigh

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(response, "schur_complement_eigh", counting)
        eliminate_massless(sys)
        assert calls == [sys.order]


def reduced_pencil_response(red, lam):
    """Direct Schur complement of a reduced system's interior pencil;
    :class:`AtResonance` where its interior block is numerically singular."""
    sys = SystemMatrices(
        K=red.Ktilde,
        node_masses=np.concatenate([red.Mbb, red.Mjj])[::red.dimension],
        dimension=red.dimension,
        rayleigh=red.rayleigh,
        terminal_positions=red.terminal_positions,
    )
    return direct_response(sys, lam, "inverse")


def chain_network(middle_mass):
    # a mechanism: the middle node is free to move transversally
    nodes = (
        Node((0.0, 0.0), 0.0, True),
        Node((1.0, 0.0), middle_mass, False),
        Node((2.0, 0.0), 0.0, True),
    )
    springs = (Spring(0, 1, 1.0), Spring(1, 2, 1.0))
    return ElastodynamicNetwork(2, nodes, springs, RayleighParams(0.5, 0.2))


MODAL_CASES = {
    "chain, massless middle": lambda: chain_network(0.0),
    "chain, massive middle": lambda: chain_network(1.0),
    "all-massive interior": lambda: random_network(21, 3, 3, 5, 1.0),
    "all-massless interior": lambda: random_network(22, 2, 3, 5, 0.0),
    "single terminal": lambda: random_network(23, 2, 1, 4, 0.5),
    "undamped": lambda: random_network(24, 2, 3, 4, 0.5, alpha=0.0, beta=0.0),
    "alpha*beta near 1": lambda: random_network(
        25, 2, 3, 4, 0.5, alpha=1.25, beta=0.8 - 1e-9
    ),
}


def is_resonant(evaluate, red, lam):
    try:
        evaluate(red, lam)
    except AtResonance:
        return True
    return False


class TestModalSweep:
    """``evaluate_reduced`` (modal) against direct Schur complements."""

    @pytest.mark.parametrize("name", MODAL_CASES)
    def test_matches_direct_schur(self, name):
        net = MODAL_CASES[name]()
        sys = assemble(net)
        red = eliminate_massless(sys)
        # real points against the rational-arithmetic response, which holds
        # on stiff networks where a truncated pseudoinverse does not
        for lam in (0.5, 1.0, 3.0):
            exact = exact_response(net, lam)
            modal = evaluate_reduced(red, lam).W.a
            assert np.abs(modal - exact).max() <= 1e-12 * np.abs(exact).max(), (name, lam)
        avoid = system_resonances(sys.rayleigh, red.modal[0])
        points = list(sample_nonresonant(np.random.default_rng(0), avoid, 12))
        if sys.rayleigh.alpha > 0.0:
            # where 1 + alpha*lambda nearly vanishes; with alpha*beta near 1
            # every q_j is small there too
            pole = -1.0 / sys.rayleigh.alpha
            points += [pole + 2e-3, pole + 2e-3j, pole + 0.05 - 0.05j]
        for lam in points:
            assert np.abs(np.asarray(avoid) - lam).min() >= RESONANCE_CLEARANCE
            modal = evaluate_reduced(red, lam).W.a
            for w in (reduced_pencil_response(red, lam), direct_response(sys, lam)):
                scale = max(np.abs(w).max(), 1e-300)
                assert np.abs(modal - w).max() <= 1e-9 * scale, (name, lam)

    @pytest.mark.parametrize(
        "name", [n for n in MODAL_CASES if "massless" not in n]
    )
    def test_resonance_decision_matches_direct(self, name):
        red = eliminate_massless(assemble(MODAL_CASES[name]()))
        assert len(red.Mjj)
        roots = [
            r for s in red.modal[0] for r in resonances_of(max(s, 0.0), red.rayleigh)
        ]
        alpha = red.rayleigh.alpha
        for root in roots:
            # with alpha*beta near 1 every q_j has a root next to -1/alpha,
            # where all |q_j| are about |1 - alpha*beta| at once: the ratio
            # there is rounding in both paths, so only the offsets count
            degenerate = alpha > 0.0 and abs(root + 1.0 / alpha) < 1e-6
            if not degenerate:
                assert is_resonant(evaluate_reduced, red, root)
                assert is_resonant(reduced_pencil_response, red, root)
            for lam in (root + 1e-3, root + 1e-3j):
                assert not is_resonant(evaluate_reduced, red, lam)
                assert not is_resonant(reduced_pencil_response, red, lam)

    def test_no_massive_interior_is_never_resonant(self):
        red = eliminate_massless(assemble(chain_network(0.0)))
        assert len(red.Mjj) == 0
        for lam in (0.0, -2.0, 1j, -0.1 + 0.3j):
            evaluate_reduced(red, lam, tol=1.0)

    def test_decomposition_is_cached_and_read_only(self):
        red = eliminate_massless(assemble(random_network(21, 3, 3, 5, 1.0)))
        assert red.modal is red.modal
        assert not any(a.flags.writeable for a in red.modal)

    # the relative rule min |q_j| <= tol * max |q_j| misses the roots next to
    # -1/alpha when alpha*beta is near 1: every |q_j| is about |1 -
    # alpha*beta| there, so the ratio at a root is rounding (ROADMAP O11)
    @pytest.mark.xfail(raises=AssertionError, strict=True)
    def test_every_root_is_a_resonance_near_critical_damping(self):
        net = random_network(25, 2, 3, 4, 0.5, alpha=1.25, beta=0.8 - 1e-9)
        red = eliminate_massless(assemble(net))
        missed = [
            root
            for sigma in red.modal[0]
            for root in resonances_of(float(sigma), red.rayleigh)
            if not is_resonant(evaluate_reduced, red, root)
        ]
        assert missed == []

    # the same rule invents resonances under mass contrast: tiny_mass's
    # sigmas span 0.026 to 3.4e10, so min |q_j| / max |q_j| is 5e-12 to
    # 7e-11 at real lambda from 0.1 to 2, though the modal W there is
    # within 1e-15 of the exact response (ROADMAP O11)
    @pytest.mark.xfail(raises=AtResonance, strict=True)
    def test_mass_contrast_is_not_a_resonance(self):
        net = tiny_mass()
        red = eliminate_massless(assemble(net))
        for lam in (0.5, 1.0):
            exact = exact_response(net, lam)
            w = evaluate_reduced(red, lam).W.a
            assert np.abs(w - exact).max() <= 1e-12 * np.abs(exact).max(), lam


class TestExtractCanonical:
    def test_single_mass_mode(self, terminal_plus_mass):
        cr = extract_canonical(assemble(terminal_plus_mass))
        n = np.array([-1.0, 0.0])  # unit vector from terminal to the mass
        block = np.outer(n, n)
        assert_allclose(cr.A.a, block, atol=1e-14)
        assert len(cr.modes) == 1
        assert_allclose(cr.modes[0].sigma, 1.0)
        assert_allclose(cr.modes[0].R.a, block, atol=1e-14)
        assert_allclose(cr.static_response().a, 0.0, atol=1e-14)
        assert_allclose(cr.Mbb, [0.0, 0.0])

    def test_all_terminal_network_has_no_modes(self):
        nodes = (Node((0.0, 0.0), 1.5, True), Node((1.0, 0.0), 2.5, True))
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 1, 2.0),))
        sys = assemble(net)
        cr = extract_canonical(sys)
        assert not cr.modes
        assert np.array_equal(cr.A.a, sys.K.a)
        assert_allclose(cr.Mbb, [1.5, 1.5, 2.5, 2.5])

    def test_chain_extraction_matches_elimination(self, assembled_chain):
        cr = extract_canonical(assembled_chain)
        assert not cr.modes  # massless middle node leaves no resonant mode
        assert_allclose(cr.A.a, axial_block(0.5), atol=1e-14)

    def test_floppy_mode_with_coupling_rejected(self):
        # interior stiffness block is zero but couples to the boundary:
        # impossible for a PSD stiffness, so extraction must refuse
        k = np.zeros((4, 4))
        k[:2, :2] = np.eye(2)
        k[:2, 2:] = np.eye(2)
        k[2:, :2] = np.eye(2)
        sys = SystemMatrices(
            K=SymMatrix(k),
            node_masses=[0.0, 1.0],
            dimension=2,
            rayleigh=RayleighParams(0.0, 0.0),
            terminal_positions=np.array([[0.0, 0.0]]),
        )
        with pytest.raises(FloppyModeInconsistent):
            extract_canonical(sys)

    def test_clusters_do_not_chain(self):
        # each gap is within tol, but a group may span no more than tol
        sigmas = [1.0, 1.0 + 0.9e-8, 1.0 + 1.8e-8, 1.0 + 2.7e-8]
        assert _cluster_ascending(sigmas, 1e-8) == [[0, 1], [2, 3]]

    def test_repeated_modal_stiffness_clusters_into_one_residue(self):
        # two identical springs orthogonal to each other at one massive node:
        # the interior stiffness is the identity, a doubly degenerate mode
        nodes = (
            Node((1.0, 0.0), 0.0, True),
            Node((0.0, 1.0), 0.0, True),
            Node((0.0, 0.0), 1.0, False),
        )
        net = ElastodynamicNetwork(2, nodes, (Spring(0, 2, 1.0), Spring(1, 2, 1.0)))
        cr = extract_canonical(assemble(net))
        assert len(cr.modes) == 1
        assert_allclose(cr.modes[0].sigma, 1.0)
        assert np.linalg.matrix_rank(cr.modes[0].R.a, tol=1e-10) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_residue_sums_its_members_in_order(self, seed):
        # three equal springs along a random orthonormal frame at one massive
        # node: a three-fold mode whose residue, summed from zeros in member
        # order, differs in its bits from the sum in another order
        frame, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
        centre = np.array([0.4, 0.5, 0.6])
        nodes = tuple(Node(tuple(centre + 0.3 * n), 0.0, True) for n in frame.T)
        nodes += (Node(tuple(centre), 1.0, False),)
        springs = tuple(Spring(k, 3, 1.5) for k in range(3))
        sys = assemble(ElastodynamicNetwork(3, nodes, springs, RayleighParams(0.1, 0.2)))
        sigmas, v = eliminate_massless(sys).modal
        r = np.zeros((9, 9))
        for i in range(3):
            r += np.outer(v[:, i], v[:, i])
        (mode,) = extract_canonical(sys).modes
        assert mode.sigma == float(np.mean(sigmas))
        assert mode.R.a.tobytes() == r.tobytes()

    @pytest.mark.parametrize("seed", [1, 5, 9, 14])
    def test_roundtrip_against_direct_response(self, seed):
        net = random_network(seed, 2 + (seed + 1) % 2, 2 + seed % 3, 2 + seed % 4, 0.5)
        sys = assemble(net)
        cr = extract_canonical(sys, seed=seed)
        red = eliminate_massless(sys)
        avoid = system_resonances(net.rayleigh, red.modal[0])
        rng = np.random.default_rng(100 + seed)
        for lam in sample_nonresonant(rng, avoid, 10):
            direct = direct_response(sys, lam)
            closed = evaluate_canonical(cr, lam).W.a
            scale = max(np.abs(direct).max(), 1e-300)
            assert np.abs(direct - closed).max() <= 1e-8 * scale

    @pytest.mark.parametrize("seed", [2, 6, 13])
    def test_extracted_form_structure(self, seed):
        net = random_network(seed, 3, 2, 3, 0.7)
        cr = extract_canonical(assemble(net))
        assert is_psd(cr.A, tol=1e-9)
        sigmas = [m.sigma for m in cr.modes]
        assert all(s > 0 for s in sigmas)
        assert sigmas == sorted(sigmas)
        assert len(set(sigmas)) == len(sigmas)
        for m in cr.modes:
            assert is_psd(m.R, tol=1e-9)
        poles = system_resonances(cr.rayleigh, sigmas)
        assert all(r.real <= 1e-12 for r in poles)
        # static slice is PSD with balanced columns
        w0 = cr.static_response()
        assert is_psd(w0, tol=1e-9)
        ok, residual = check_balanced(w0.a, cr.terminal_positions, tol=1e-10)
        assert ok, residual


def tiny_mass():
    """``random_network(4, 2, 3, 4, 0.5)`` with the mass of its first massive
    interior node set to 1e-10."""
    net = random_network(4, 2, 3, 4, 0.5)
    k = next(k for k, n in enumerate(net.nodes) if not n.is_terminal and n.mass)
    nodes = list(net.nodes)
    nodes[k] = replace(nodes[k], mass=1e-10)
    return replace(net, nodes=tuple(nodes))


def refused(case, error):
    """A network that extraction refuses today with ``error``: a seed of
    ``random_network(seed, 3, 3, 6, 0.5)`` or a function that builds it."""
    return pytest.param(
        case,
        marks=pytest.mark.xfail(raises=error, strict=True),
        id=getattr(case, "__name__", str(case)),
    )


# The floppy-mode tests are not scale-free, so these networks' near-floppy
# modes are refused (ROADMAP O14); each should extract once they are.
@pytest.mark.parametrize(
    "case",
    [
        refused(1093, ElastonetError),  # reduced interior stiffness not PSD
        refused(1196, FloppyModeInconsistent),
        refused(1922, FloppyModeInconsistent),
        refused(1965, FloppyModeInconsistent),
        refused(2301, FloppyModeInconsistent),
        refused(1269183695, ReconstructionMismatch),  # roundtrip benchmark warm-up
        refused(tiny_mass, FloppyModeInconsistent),
    ],
)
def test_near_floppy_network_extracts(case):
    net = case() if callable(case) else random_network(case, 3, 3, 6, 0.5)
    extract_canonical(assemble(net))


def count_fallbacks(monkeypatch):
    """Record the order of every SVD Schur complement of a complex pencil
    the extraction self-check makes; the elimination's, of the real ``K``,
    are not counted."""
    calls = []
    original = response.schur_complement

    def counting(a, nb):
        if np.iscomplexobj(a):
            calls.append(len(a))
        return original(a, nb)

    monkeypatch.setattr(response, "schur_complement", counting)
    return calls


def count_solves(monkeypatch):
    """Record ``(field, order, nb)`` of every LU Schur complement the
    extraction self-check makes."""
    solves = []
    original = response.schur_complement_lu

    def counting(a, nb):
        solves.append(("complex" if np.iscomplexobj(a) else "real", len(a), nb))
        return original(a, nb)

    monkeypatch.setattr(response, "schur_complement_lu", counting)
    return solves


class TestExtractionSelfCheck:
    """One LU solve per point, with the SVD pseudoinverse as its fallback."""

    def test_massive_network_takes_no_fallback(self, monkeypatch):
        calls = count_fallbacks(monkeypatch)
        sys = assemble(random_network(3, 3, 6, 60, 1.0))
        assert sys.order == 198
        extract_canonical(sys)
        assert calls == []

    def test_massless_floppy_node_passes_through_the_fallback(
        self, monkeypatch, assembled_chain
    ):
        # the middle node moves freely across the chain: its massless block
        # is singular, so its LU raises, and every point is evaluated by
        # the pseudoinverse of the whole pencil, which is singular too
        calls, solves = count_fallbacks(monkeypatch), count_solves(monkeypatch)
        cr = extract_canonical(assembled_chain)
        order, nb = assembled_chain.order, assembled_chain.n_b
        assert solves == [("real", order, nb)]
        assert calls == [order] * 20
        assert_allclose(cr.A.a, axial_block(0.5), atol=1e-14)

    def test_perturbed_residue_is_still_rejected(self, monkeypatch):
        # every residue of the extracted form 1e-6 relative too large: LU
        # and SVD both see it
        def perturbed(sigma, R):
            return Mode(sigma, SymMatrix(R.a * (1 + 1e-6)))

        calls = count_fallbacks(monkeypatch)
        monkeypatch.setattr(response, "Mode", perturbed)
        sys = assemble(random_network(3, 3, 4, 10, 1.0))
        with pytest.raises(ReconstructionMismatch, match="deviates from the direct"):
            extract_canonical(sys)
        assert calls == [sys.order] * 20

    # with a massless interior, condensed once, and without one
    @pytest.mark.parametrize("mass_fraction", [0.5, 1.0])
    def test_the_check_reads_neither_m_nor_c(self, monkeypatch, mass_fraction):
        # the point floor takes max|C| and max|M| from K and the node
        # masses; only a point that falls back builds the dense pencil
        sys = assemble(random_network(1, 3, 6, 60, mass_fraction))

        def refused(_):
            raise AssertionError("the dense M or C was read")

        for name in ("M", "C"):
            monkeypatch.setattr(SystemMatrices, name, property(refused))
        calls = count_fallbacks(monkeypatch)
        extract_canonical(sys)
        assert calls == []

    def test_a_massless_interior_is_eliminated_once(self, monkeypatch):
        # one real LU of the massless block, then each point solves only
        # the massive interior of the condensed pencil
        calls, solves = count_fallbacks(monkeypatch), count_solves(monkeypatch)
        sys = assemble(random_network(1, 3, 6, 60, 0.5))
        red = eliminate_massless(sys)
        nb, nx = red.n_b, red.n_b + len(red.Mjj)
        assert sys.order == 198 and nb < nx < sys.order
        extract_canonical(sys)
        assert solves == [("real", sys.order, nx)] + [("complex", nx, nb)] * 20
        assert calls == []

    def test_a_massless_block_that_overflows_takes_the_whole_pencil(self, monkeypatch):
        # a massless pivot of 1e-310 passes the LU but makes Khat infinite,
        # so every point is evaluated by the pseudoinverse of the whole
        # pencil; the elimination's pseudoinverse truncates the pivot
        k = np.eye(4)
        k[0, 2] = k[2, 0] = k[1, 3] = k[3, 1] = 0.5
        k[3, 3] = 1e-310
        sys = SystemMatrices(SymMatrix(k), np.zeros(2), 2,
                             RayleighParams(0.1, 0.0), np.zeros((1, 2)))
        calls, solves = count_fallbacks(monkeypatch), count_solves(monkeypatch)
        cr = extract_canonical(sys)
        assert solves == [("real", 4, 2)]
        assert calls == [4] * 20
        assert_allclose(cr.A.a, np.diag([0.75, 1.0]))

    def test_a_zero_pivot_sends_only_its_point_to_the_fallback(self, monkeypatch):
        # the seventh point's solve fails, on the whole pencil of a massive
        # network and on the condensed pencil of a half-massless one; that
        # point alone is solved again, through the whole pencil
        original = response.schur_complement_lu
        solves = []

        def failing_once(a, nb):
            if np.iscomplexobj(a):
                solves.append(len(a))
                if len(solves) == 7:
                    raise np.linalg.LinAlgError("Singular matrix")
            return original(a, nb)

        monkeypatch.setattr(response, "schur_complement_lu", failing_once)
        calls = count_fallbacks(monkeypatch)
        for mass_fraction in (1.0, 0.5):
            calls.clear()
            solves.clear()
            sys = assemble(random_network(3, 3, 6, 60, mass_fraction))
            red = eliminate_massless(sys)
            extract_canonical(sys)
            assert solves == [red.n_b + len(red.Mjj)] * 20
            assert calls == [sys.order]


def reversed_nodes(net):
    """The same network with its nodes in reverse order, so the terminal
    coordinates are not a leading range."""
    last = len(net.nodes) - 1
    springs = [Spring(last - s.i, last - s.j, s.stiffness) for s in net.springs]
    return ElastodynamicNetwork(net.dimension, net.nodes[::-1], springs, net.rayleigh)


def self_check_points(sys, seed=0):
    """The 20 points ``extract_canonical(sys, seed=seed)`` checks."""
    red = eliminate_massless(sys)
    avoid = system_resonances(red.rayleigh, red.modal[0])
    return sample_nonresonant(np.random.default_rng(seed), avoid, 20)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelsAgainstTheIndexGather:
    """Elimination, modal decomposition and direct response have the bits of
    the code that gathers blocks by index and decomposes one system at a
    time (``oracles``)."""

    @staticmethod
    def networks(d, mass_fraction):
        for seed in range(3):
            net = random_network(seed, d, 3, 12, mass_fraction)
            yield net
            yield reversed_nodes(net)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mass_fraction", [0.0, 0.5, 1.0])
    def test_elimination_and_modes(self, d, mass_fraction):
        for net in self.networks(d, mass_fraction):
            self.check_reduction(net)

    def test_elimination_and_modes_at_474_dof(self):
        net = random_network(5, 3, 8, 150, 0.5)
        assert assemble(net).order == 474
        self.check_reduction(net)

    @staticmethod
    def check_reduction(net):
        red = eliminate_massless(assemble(net))
        K, M, b, i = node_major(net)
        massive = [c for c in i if M[c, c] != 0.0]
        massless = [c for c in i if M[c, c] == 0.0]
        want = schur_complement_eigh_by_index(SymMatrix(K), b + massive, massless).a
        assert same_bits(red.Ktilde.a, want)
        for got, want in zip(red.modal, modal_by_system(red)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mass_fraction", [0.0, 0.5, 1.0])
    def test_direct_response(self, d, mass_fraction):
        for net in self.networks(d, mass_fraction):
            sys = assemble(net)
            for lam in [0.3, *sample_nonresonant(np.random.default_rng(d), [], 3)]:
                want = direct_response_by_index(net, lam).a
                assert same_bits(response._direct_response(sys, lam).a, want)


def self_check_error(sys, cr, lams):
    """``response._reconstruction_error`` of ``sys`` with its own elimination."""
    return response._reconstruction_error(sys, *response._eliminate(sys), cr, lams)


class TestSelfCheckAgainstThePointLoop:
    """The boundary-first pencils of the self-check have the bits of the
    node-major pencils gathered point by point
    (``oracles.reconstruction_error_massless_once``)."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mass_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_networks(self, d, mass_fraction, seed):
        net = random_network(seed, d, 4, 20, mass_fraction)
        for net in (net, reversed_nodes(net)):
            sys = assemble(net)
            cr = extract_canonical(sys, check=False)
            lams = self_check_points(sys)
            worst = self_check_error(sys, cr, lams)
            assert worst == reconstruction_error_massless_once(net, cr, lams)
            assert worst <= response.ROUNDTRIP_TOL

    # max|K|, max|C| and max|M| come from K and the node masses; the
    # hand-built K takes its largest entry off the diagonal, or on it with
    # a negative sign, so that no part of max|C| can be left out
    @pytest.mark.parametrize("case", ["network", "off-diagonal", "negative diagonal"])
    def test_point_floor_has_the_bits_of_the_dense_norms(self, monkeypatch, case):
        if case == "network":
            sys = assemble(random_network(2, 3, 4, 10, 0.5, alpha=0.3, beta=0.7))
        else:
            k = np.diag([-1.0 if case == "off-diagonal" else -4.0, 0.5, 2.0, 1.0])
            k[0, 2] = k[2, 0] = 3.0
            sys = SystemMatrices(SymMatrix(k), [0.0, 1.5], 2, RayleighParams(1.0, 0.1),
                                 np.zeros((1, 2)))
        floors = []
        gap = response._relative_gap

        def recording(closed, direct, floor):
            floors.append(floor)
            return gap(closed, direct, floor)

        monkeypatch.setattr(response, "_relative_gap", recording)
        lams = self_check_points(sys)
        self_check_error(sys, extract_canonical(sys, check=False), lams)
        norms = [np.abs(x.a).max() for x in (sys.K, sys.C, sys.M)]
        want = [1e-4 * (norms[0] + norms[1] * abs(lam) + norms[2] * abs(lam) ** 2)
                for lam in lams]
        assert set(floors) == set(want) and len(floors) >= len(lams)

    def test_every_point_falls_back_on_the_chain(self, monkeypatch, collinear_chain):
        sys = assemble(collinear_chain)
        calls = count_fallbacks(monkeypatch)
        cr = extract_canonical(sys, check=False)
        lams = self_check_points(sys)
        worst = self_check_error(sys, cr, lams)
        assert calls == [sys.order] * 20
        assert worst == reconstruction_error_massless_once(collinear_chain, cr, lams)
        assert worst == reconstruction_error_by_point(collinear_chain, cr, lams)


def scaled(x):
    return x * (1 + 1e-6)


def mutated_forms(cr):
    """``(row, form)`` pairs: sigma and R scaled by 1 + 1e-6 and the mode
    dropped, each at the lowest, the middle and the top mode, then A, Mbb,
    alpha and beta scaled."""
    k = len(cr.modes)
    for where, j in (("low", 0), ("mid", k // 2), ("top", k - 1)):
        sigma, r = cr.modes[j].sigma, cr.modes[j].R

        def with_mode(*mode):
            return replace(cr, modes=cr.modes[:j] + mode + cr.modes[j + 1:])

        yield f"sigma {where}", with_mode(Mode(scaled(sigma), r))
        yield f"R {where}", with_mode(Mode(sigma, SymMatrix(scaled(r.a))))
        yield f"drop {where}", with_mode()
    ray = cr.rayleigh
    yield "A", replace(cr, A=SymMatrix(scaled(cr.A.a)))
    yield "Mbb", replace(cr, Mbb=scaled(cr.Mbb))
    yield "alpha", replace(cr, rayleigh=RayleighParams(scaled(ray.alpha), ray.beta))
    yield "beta", replace(cr, rayleigh=RayleighParams(ray.alpha, scaled(ray.beta)))


def memoized_fallback(monkeypatch):
    """Keep the self-check's pseudoinverse values by the bytes of their
    pencil, so that a table of forms checked on one system solves each
    point's pencil once; the values are those of the uncached call."""
    memo = {}
    original = response.schur_complement

    def memoized(a, nb):
        key = (a.shape, nb, hashlib.sha256(a.tobytes()).digest())
        if key not in memo:
            memo[key] = original(a, nb)
        return memo[key]

    monkeypatch.setattr(response, "schur_complement", memoized)


class TestSelfCheckMutationTable:
    """The self-check rejects a slightly wrong form exactly when the
    full-pencil check (``oracles.full_pencil_check``) does. At 474 degrees
    of freedom only the rows next to the threshold run: each row far from
    it sends all 20 points to a 450-order SVD on both sides."""

    @staticmethod
    def rejections(sys, lams, forms, check):
        red, gathered = response._eliminate(sys)
        tol, out = response.ROUNDTRIP_TOL, {}
        for row, cr in forms:
            worst = response._reconstruction_error(sys, red, gathered, cr, lams)
            assert (worst > tol) == (check(cr) > tol), row
            out[row] = worst > tol
        return out

    @staticmethod
    def table(net, rows, monkeypatch):
        memoized_fallback(monkeypatch)
        sys = assemble(net)
        lams = self_check_points(sys)
        forms = [(row, cr) for row, cr in mutated_forms(extract_canonical(sys, check=False))
                 if row in rows]
        check = full_pencil_check(*node_major(net), net.rayleigh, lams)
        return TestSelfCheckMutationTable.rejections(sys, lams, forms, check)

    def test_198_dof(self, monkeypatch):
        rows = [f"{kind} {where}" for kind in ("sigma", "R", "drop")
                for where in ("low", "mid", "top")] + ["A", "Mbb", "alpha", "beta"]
        rejected = self.table(random_network(1, 3, 6, 60, 0.5), rows, monkeypatch)
        assert rejected.keys() == set(rows)
        assert rejected["sigma mid"] and not all(rejected.values())

    def test_474_dof_rows_next_to_the_threshold(self, monkeypatch):
        rows = ["sigma mid", "R mid", "sigma top", "R top"]
        rejected = self.table(random_network(11, 3, 8, 150, 0.5), rows, monkeypatch)
        assert rejected.keys() == set(rows)
        assert rejected["sigma mid"] and not all(rejected.values())


class TestEvaluateCanonical:
    def test_static_value(self, terminal_plus_mass):
        cr = extract_canonical(assemble(terminal_plus_mass))
        w0 = evaluate_canonical(cr, 0.0).W.a
        expected = cr.A.a - sum(m.R.a / m.sigma for m in cr.modes)
        assert_allclose(w0, expected, atol=1e-15)

    def test_massless_form_scales_statically(self):
        a = SymMatrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.6, 0.0),
            A=a,
            Mbb=np.zeros(2),
            modes=(),
            terminal_positions=np.array([[0.0, 0.0]]),
        )
        for lam in (0.0, 1.0j, 2.0 - 0.5j):
            w = evaluate_canonical(cr, lam).W.a
            assert_allclose(w, (1.0 + 0.6 * lam) * a.a)

    def test_pole_raises(self, terminal_plus_mass):
        cr = extract_canonical(assemble(terminal_plus_mass))
        with pytest.raises(AtResonance):
            evaluate_canonical(cr, 1.0j)


def looped_canonical(cr, lam, check=True):
    """Oracle: the per-mode loop, one ``(nb, nb)`` update per mode; without
    ``check`` W is returned as computed."""
    lam = complex(lam)
    damp = 1.0 + cr.rayleigh.alpha * lam
    w = damp * cr.A.a + (cr.rayleigh.beta * lam + lam * lam) * np.diag(cr.Mbb)
    guard = 1e-12 * (1.0 + abs(lam) ** 2)
    for mode in cr.modes:
        q = (
            mode.sigma
            + (cr.rayleigh.alpha * mode.sigma + cr.rayleigh.beta) * lam
            + lam * lam
        )
        if abs(q) <= guard:
            raise AtResonance(
                f"lambda = {lam} is a pole: |q({mode.sigma:.6g})| = {abs(q):.3e}"
            )
        with np.errstate(all="ignore"):
            w = w - (damp * damp / q) * mode.R.a
    return SymMatrix(w).a if check else w


def random_form(n_modes, sigmas=None, rayleigh=RayleighParams(0.3, 0.7), seed=0):
    """A canonical form on 4 terminals in 3-D with random PSD residues."""
    rng = np.random.default_rng(seed)
    n = 12
    if sigmas is None:
        sigmas = 10.0 ** rng.uniform(-3.0, 3.0, n_modes)
    a = rng.standard_normal((n, n))
    modes = []
    for sigma in sigmas:
        v = rng.standard_normal((n, 2))
        modes.append(Mode(float(sigma), SymMatrix(v @ v.T)))
    return CanonicalResponse(
        rayleigh=rayleigh,
        A=SymMatrix(a + a.T),
        Mbb=rng.uniform(0.0, 2.0, n),
        modes=tuple(modes),
        terminal_positions=rng.standard_normal((4, 3)),
    )


def raised(evaluate, cr, lam):
    with pytest.raises(AtResonance) as info:
        evaluate(cr, lam)
    return str(info.value)


def bits(w):
    """The raw bits of a float or complex array: -0.0 differs from 0.0."""
    return np.ascontiguousarray(w).view(np.int64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def yielded_then_raised(cr, lams):
    """The Ws :func:`canonical_responses` yields before it raises, and its text."""
    out = []
    with pytest.raises(AtResonance) as info:
        for w in canonical_responses(cr, lams):
            out.append(w)
    return out, str(info.value)


def sparse_form(n_modes, seed=0):
    """:func:`random_form` with zero entries in A, the masses and the
    residues, so that signed zeros reach W."""
    cr = random_form(n_modes, seed=seed)
    mask = np.kron(np.eye(4), np.ones((3, 3)))
    return replace(
        cr,
        A=SymMatrix(cr.A.a * mask),
        Mbb=np.where(np.arange(12) % 2, cr.Mbb, 0.0),
        modes=tuple(Mode(m.sigma, SymMatrix(m.R.a * mask)) for m in cr.modes),
    )


# Laplace points with both signs of zero parts, as 1j * -omega gives
SIGNED_POINTS = [0.0, 2.5j, -0.0, complex(-0.0, -0.0), 1j * -3.0, 1j * -0.01, -2.0 + 0.0j]


def inner_product_bound(cr, lam):
    """Entrywise bound on the gap between the kernel and :func:`looped_canonical`.

    Both paths form ``damp*A + inertia*diag(Mbb)`` with the same bits and
    the same ``q_j``; each forms ``c_j = damp^2/q_j`` within ``gamma_6`` of
    its value, and sums the ``k`` terms on top of the static part within
    ``gamma_(k+1)`` (a recursive sum and an inner product with one more
    subtraction, N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3). So the two differ by at most ``gamma_(2k+14)
    * (|damp||A| + |inertia| Mbb + sum_j |c_j||R_j|)``; the static part's
    magnitude counts because the last subtraction rounds relative to it."""
    lam = complex(lam)
    damp = 1.0 + cr.rayleigh.alpha * lam
    inertia = cr.rayleigh.beta * lam + lam * lam
    terms = abs(damp) * np.abs(cr.A.a) + abs(inertia) * np.diag(cr.Mbb)
    for mode in cr.modes:
        q = mode.sigma + (cr.rayleigh.alpha * mode.sigma + cr.rayleigh.beta) * lam + lam * lam
        terms = terms + abs(damp * damp / q) * np.abs(mode.R.a)
    m = 2 * len(cr.modes) + 14
    u = np.finfo(float).eps / 2
    return m * u / (1.0 - m * u) * terms


class TestStackedCanonicalSum:
    """:func:`canonical_responses` bitwise against its formula written out
    again on the same block of points (``oracles.canonical_block_twin``;
    the bitwise tests keep the names they had when the per-point loop was
    their reference), and within :func:`inner_product_bound` of the
    per-mode, per-point loop :func:`looped_canonical`."""

    # no mode, one, and many; the three middle counts were the edges of the
    # former mode stacks
    @pytest.mark.parametrize("n_modes", [0, 1, 31, 32, 33, 225])
    def test_equals_the_loop_bitwise(self, n_modes):
        lams = np.random.default_rng(1).standard_normal((12, 2)) @ [3.0, 3.0j]
        lams = [*lams, *SIGNED_POINTS]
        for cr in (random_form(n_modes, seed=n_modes), sparse_form(n_modes, seed=n_modes)):
            stacked = list(canonical_responses(cr, lams))
            assert len(stacked) == len(lams)
            assert same_bits(np.array(stacked), canonical_block_twin(cr, lams))
            for lam in lams:
                want = canonical_block_twin(cr, [lam])[0]
                assert same_bits(evaluate_canonical(cr, lam).W.a, want)

    @pytest.mark.parametrize("n_modes", [0, 1, 31, 32, 33, 225])
    def test_within_the_inner_product_bound_of_the_loop(self, n_modes):
        lams = np.random.default_rng(1).standard_normal((12, 2)) @ [3.0, 3.0j]
        lams = [*lams, *SIGNED_POINTS]
        for cr in (random_form(n_modes, seed=n_modes), sparse_form(n_modes, seed=n_modes)):
            for lam, w in zip(lams, canonical_responses(cr, lams), strict=True):
                gap = np.abs(w - looped_canonical(cr, lam))
                assert (gap <= inner_product_bound(cr, lam)).all(), lam

    def test_signed_zeros_reach_the_comparison(self):
        cr = sparse_form(5)
        w = np.array(list(canonical_responses(cr, SIGNED_POINTS)))
        assert (np.signbit(w.real) & (w.real == 0.0)).any()

    def test_block_edges(self, monkeypatch):
        # point counts around one and two blocks of the byte budget; each
        # block is compared with the twin of that same block
        blocks = []
        poles = response._poles

        def recording(cr, lams):
            blocks.append(len(lams))
            return poles(cr, lams)

        monkeypatch.setattr(response, "_poles", recording)
        cr = random_form(33, seed=4)
        rng = np.random.default_rng(3)
        lams = rng.uniform(0.1, 10.0, 2000) * np.exp(2j * np.pi * rng.uniform(size=2000))
        list(canonical_responses(cr, lams))
        size = blocks[0]
        assert 1 < size < 2000 and sum(blocks) == 2000
        for count in (1, size - 1, size, size + 1, 2 * size + 1):
            blocks.clear()
            stacked = np.array(list(canonical_responses(cr, lams[:count])))
            assert blocks == [size] * (count // size) + [count % size] * (count % size > 0)
            twins = [canonical_block_twin(cr, lams[k:min(k + size, count)])
                     for k in range(0, count, size)]
            assert same_bits(stacked, np.concatenate(twins))

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_resonant_point_raises_after_the_points_before_it(self, where):
        cr = random_form(20, seed=5)
        lams = list(np.random.default_rng(6).uniform(0.5, 2.0, 9) * 1j)
        k = {"first": 0, "middle": 4, "last": 8}[where]
        lams[k] = resonances_of(cr.modes[7].sigma, cr.rayleigh)[0]
        out, text = yielded_then_raised(cr, lams)
        assert text == raised(looped_canonical, cr, lams[k])
        assert "|q(" in text and len(out) == k
        # one block: the resonant point's row does not reach the others
        assert same_bits(np.array(out, dtype=complex).reshape(-1, 12, 12),
                         canonical_block_twin(cr, lams)[:k])
        assert not canonical_poles(cr, lams[:k]).any()
        assert canonical_poles(cr, lams)[k].nonzero()[0].tolist() == [7]

    def test_every_mode_resonant_names_the_first(self):
        # with alpha*beta = 1 every q_j vanishes at lambda = -1/alpha
        cr = random_form(40, sigmas=np.linspace(1.0, 4.0, 40),
                         rayleigh=RayleighParams(0.5, 2.0))
        text = raised(evaluate_canonical, cr, -2.0)
        assert text == raised(looped_canonical, cr, -2.0)
        assert "|q(1)|" in text

    def test_two_resonant_modes_in_two_stacks(self):
        sigmas = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, 70)
        sigmas[5] = sigmas[50] = 2.5
        cr = random_form(70, sigmas=sigmas)
        lam = resonances_of(2.5, cr.rayleigh)[0]
        text = raised(evaluate_canonical, cr, lam)
        assert text == raised(looped_canonical, cr, lam)
        assert "|q(2.5)|" in text

    def test_an_entry_that_overflows_is_refused(self):
        # the residue is finite, its term next to its pole is not
        cr = random_form(3, seed=7)
        r = cr.modes[1].R.a.copy()
        r[0, 0] = 1e308
        cr = replace(cr, modes=(cr.modes[0], Mode(cr.modes[1].sigma, SymMatrix(r)), cr.modes[2]))
        near = resonances_of(cr.modes[1].sigma, cr.rayleigh)[0] + 1e-8
        for evaluate in (evaluate_canonical, looped_canonical):
            with pytest.raises(DimensionMismatch, match="matrix entries must be finite"):
                evaluate(cr, near)
        lams = [0.3j, 0.4j, near, 2j]
        out = []
        with pytest.raises(DimensionMismatch):
            out.extend(canonical_responses(cr, lams))
        assert len(out) == 2


class TestResidueStack:
    """``CanonicalResponse.residue_stack``: the residues' upper triangles."""

    def test_read_only_and_gathered_once_per_form(self, monkeypatch):
        calls = []
        gather = CanonicalResponse.residue_stack.func

        def counting(cr):
            calls.append(cr)
            return gather(cr)

        prop = cached_property(counting)
        prop.__set_name__(CanonicalResponse, "residue_stack")
        monkeypatch.setattr(CanonicalResponse, "residue_stack", prop)
        cr = extract_canonical(assemble(random_network(1, 3, 3, 6, 0.5)))  # self-check
        report = check_canonical(cr)  # the passivity grid
        verify_synthesis(synthesize(cr, report=report), cr)  # the reference side
        for lam in (0.5j, 1.0 + 2.0j):
            evaluate_canonical(cr, lam)
        assert calls == [cr]
        stack = cr.residue_stack
        assert stack is cr.residue_stack
        assert not stack.flags.writeable and stack.flags.c_contiguous
        rows, cols = np.triu_indices(cr.order)
        assert same_bits(stack, np.array([mode.R.a[rows, cols] for mode in cr.modes]))

    def test_no_mode_gives_an_empty_stack(self):
        cr = random_form(0)
        assert cr.residue_stack.shape == (0, 78)


class TestStaticTerms:
    """``CanonicalResponse.static_terms`` against the per-mode loop
    (``oracles.static_response_by_mode``)."""

    @pytest.mark.parametrize("n_modes", [0, 1, 33, 225])
    def test_static_response_equals_the_loop_bitwise(self, n_modes):
        for cr in (random_form(n_modes, seed=n_modes), sparse_form(n_modes, seed=n_modes)):
            assert same_bits(cr.static_response().a, static_response_by_mode(cr).a)

    def test_largest_term_is_largest_residue_over_sigma_bitwise(self):
        # rounding is monotone for sigma > 0, so max|R/sigma| = max|R|/sigma
        sigmas = 10.0 ** np.random.default_rng(8).uniform(-250.0, 250.0, 400)
        for cr in (random_form(400, sigmas=sigmas, seed=8), sparse_form(225, seed=9)):
            got = np.abs(cr.static_terms).max(axis=(1, 2))
            want = np.array([np.abs(m.R.a).max() / m.sigma for m in cr.modes])
            assert same_bits(got, want)

    def test_read_only_and_computed_once(self, monkeypatch):
        calls = []
        divide = CanonicalResponse.static_terms.func

        def counting(cr):
            calls.append(cr)
            return divide(cr)

        prop = cached_property(counting)
        prop.__set_name__(CanonicalResponse, "static_terms")
        monkeypatch.setattr(CanonicalResponse, "static_terms", prop)
        cr = extract_canonical(assemble(random_network(1, 3, 3, 6, 0.5)))
        assert cr.static_terms is cr.static_terms
        assert not cr.static_terms.flags.writeable
        synthesize(cr)  # checks the form, then factors its static slice
        assert calls == [cr]

    @pytest.mark.parametrize("bad", [[0.0], [0.0, 0.0], [1e-310]])
    def test_the_first_term_that_is_not_finite_is_named(self, bad):
        # a zero sigma divides to inf or nan, a subnormal one overflows
        sigmas = np.linspace(1.0, 2.0, 6)
        sigmas[3:3 + len(bad)] = bad
        cr = random_form(6, sigmas=sigmas, seed=10)
        with pytest.raises(AtResonance) as info:
            cr.static_response()
        with pytest.raises(AtResonance) as want:
            static_response_by_mode(cr)
        assert str(info.value) == str(want.value)
        assert "mode 3 has sigma" in str(info.value)
        report = check_canonical(cr)
        assert report.conditions["static_psd"].witness == str(want.value)

    def test_synthesis_factors_the_loops_static_slice(self, monkeypatch):
        # the blocks and the static rank floor that synthesize factors are
        # those of the per-mode loop, bit for bit
        module = importlib.import_module("elastonet.synthesize")
        seen = []
        factor = module._rank_one_factors

        def recording(blocks, floors):
            seen.append((blocks, floors))
            return factor(blocks, floors)

        monkeypatch.setattr(module, "_rank_one_factors", recording)
        cr = extract_canonical(assemble(random_network(1, 3, 6, 60, 0.5)))
        synthesize(cr)
        (blocks, floors), = seen
        scale = np.abs(cr.A.a).max() + sum(np.abs(m.R.a).max() / m.sigma for m in cr.modes)
        want = [static_response_by_mode(cr).a] + [m.R.a / m.sigma for m in cr.modes]
        assert same_bits(blocks, np.array(want))
        assert same_bits(floors, np.r_[1e-12 * scale, np.zeros(len(cr.modes))])


class TestNonResonantSampling:
    def test_clearance_respected(self):
        rng = np.random.default_rng(0)
        avoid = [1.0j, -1.0j, -0.5 + 0.0j]
        pts = sample_nonresonant(rng, avoid, 50)
        for lam in pts:
            assert min(abs(lam - a) for a in avoid) >= 1e-3
            assert 0.1 <= abs(lam) <= 10.0

    def test_deterministic(self):
        a = sample_nonresonant(np.random.default_rng(5), [1.0j], 10)
        b = sample_nonresonant(np.random.default_rng(5), [1.0j], 10)
        assert np.array_equal(a, b)

    def test_accepted_points_are_not_charged_to_the_budget(self):
        # the budget counted every draw, so more than 10,001 points failed
        pts = sample_nonresonant(np.random.default_rng(0), [], 10_002)
        assert len(pts) == 10_002
        assert np.array_equal(pts[:20], sample_nonresonant(np.random.default_rng(0), [], 20))

    def test_an_avoid_set_holding_every_draw_raises(self):
        # the avoid set is the stream's own first draws: 10,000 rejections
        # are allowed, the 10,001st raises
        rng = np.random.default_rng(7)
        draws = [
            np.exp(rng.uniform(np.log(0.1), np.log(10.0)))
            * np.exp(2j * np.pi * rng.uniform())
            for _ in range(10_001)
        ]
        last = sample_nonresonant(np.random.default_rng(7), draws[:10_000], 1)
        assert last.tolist() == [draws[10_000]]
        with pytest.raises(ElastonetError, match="could not sample non-resonant"):
            sample_nonresonant(np.random.default_rng(7), draws, 1)


class TestAgainstExactResponse:
    """The response ``respond`` answers with (:func:`evaluate_reduced` of
    the massless elimination) and the tests' direct Schur oracle
    (``oracles.direct_response``) agree with the rational-arithmetic
    response (``oracles.exact_response``) to rounding at real ``lambda >
    0``, with the terminals leading and with the nodes shuffled."""

    @pytest.mark.parametrize(
        "mass_fraction,mode", [(0.5, "inverse"), (0.0, "pseudoinverse")]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_small_networks(self, seed, mass_fraction, mode):
        net = random_network(seed, 2, 3, 3, mass_fraction)
        for net in (net, shuffled_nodes(net, seed)):
            sys = assemble(net)
            assert sys.order == 12
            for lam in (0.5, 1.0, 3.0):
                exact = exact_response(net, lam)
                for got in (respond(sys, lam), direct_response(sys, lam, mode)):
                    assert np.abs(got - exact).max() <= 1e-12 * np.abs(exact).max(), lam


class TestSystemResonances:
    def test_floppy_mode_roots_are_zero_and_minus_beta(self):
        # the points the former sigma <= 0 branch listed, compared with ==;
        # the roots of sigma = 0 are always listed, after those of the modes
        for ray in (RayleighParams(0.0, 0.0), RayleighParams(0.7, 0.0),
                    RayleighParams(0.0, 1.3), RayleighParams(0.7, 1.3)):
            damper = [complex(-1.0 / ray.alpha)] if ray.alpha > 0.0 else []
            floppy = [0.0 + 0.0j, complex(-ray.beta)]
            assert system_resonances(ray, []) == floppy + damper
            for sigma in (0.0, -0.0, -1e-300, -2.5):
                assert system_resonances(ray, [sigma]) == floppy + floppy + damper
            roots = list(resonances_of(2.0, ray))
            assert system_resonances(ray, [2.0]) == roots + floppy + damper


class TestCanonicalJson:
    def test_round_trip(self):
        net = random_network(21, 2, 2, 3, 0.5)
        cr = extract_canonical(assemble(net))
        obj = canonical_to_dict(cr)
        back = canonical_from_dict(obj)
        assert_allclose(back.A.a, cr.A.a)
        assert_allclose(back.Mbb, cr.Mbb)
        assert len(back.modes) == len(cr.modes)
        for m1, m2 in zip(back.modes, cr.modes):
            assert m1.sigma == m2.sigma
            assert_allclose(m1.R.a, m2.R.a)
        assert_allclose(back.terminal_positions, cr.terminal_positions)
        assert back.rayleigh == cr.rayleigh

    def test_unknown_field(self):
        obj = canonical_to_dict(extract_canonical(assemble(random_network(3, 2, 2, 1, 1.0))))
        obj["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            canonical_from_dict(obj)

    def test_shape_mismatch(self):
        obj = canonical_to_dict(extract_canonical(assemble(random_network(3, 2, 2, 1, 1.0))))
        obj["Mbb"] = obj["Mbb"][:-1]
        with pytest.raises(SchemaError, match="Mbb"):
            canonical_from_dict(obj)

    def test_negative_sigma_is_representable(self):
        # hand-edited candidates must parse; the characterizer rejects them
        obj = canonical_to_dict(extract_canonical(assemble(random_network(16, 2, 2, 2, 1.0))))
        if obj["modes"]:
            obj["modes"][0]["sigma"] = -1.0
            cr = canonical_from_dict(obj)
            assert cr.modes[0].sigma == -1.0
