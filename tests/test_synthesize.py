"""Force balancing, rank-one gadgets, full synthesis, superposition."""

import json
import warnings
from collections import Counter
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elastonet import (
    AtResonance,
    CanonicalResponse,
    DimensionMismatch,
    ElastonetError,
    GeneralizedNetwork,
    IdealElasticElement,
    Mode,
    NotCharacterizable,
    PlacementFailed,
    RayleighParams,
    SymMatrix,
    ZeroForce,
    assemble,
    assemble_component,
    canonical_to_dict,
    eliminate_massless,
    evaluate_generalized,
    extract_canonical,
    generalized_from_dict,
    generalized_to_dict,
    network_to_dict,
    random_network,
    resonances_of,
    sample_nonresonant,
    synthesize,
    system_resonances,
    verify_synthesis,
)
from elastonet.cli import main
from elastonet.geometry import cross, hull_distance
from elastonet.jsonio import dumps_canonical, write_json
from elastonet.model import element_to_dict, node_to_dict
from elastonet.response import ROUNDTRIP_TOL, modal_responses
from elastonet.synthesize import modal_form

from conftest import rank_one_gadget, scaled_network, stiffened_network, synthesized
import oracles
from oracles import assemble_union, construction_one_by_one, direct_response, rank_one_response


def brute_force_balance_residual(points, forces):
    """Independent re-derivation of the balance equations, plain loops."""
    points = np.asarray(points, dtype=float)
    forces = np.asarray(forces, dtype=float)
    d = points.shape[1]
    force_sum = [0.0] * d
    for f in forces:
        for a in range(d):
            force_sum[a] += f[a]
    if d == 2:
        torque = [sum(x[0] * f[1] - x[1] * f[0] for x, f in zip(points, forces))]
    else:
        torque = [0.0, 0.0, 0.0]
        for x, f in zip(points, forces):
            torque[0] += x[1] * f[2] - x[2] * f[1]
            torque[1] += x[2] * f[0] - x[0] * f[2]
            torque[2] += x[0] * f[1] - x[1] * f[0]
    return max(max(abs(v) for v in force_sum), max(abs(v) for v in torque))


SYNTHESIZE = import_module("elastonet.synthesize")


def worked_couple():
    """One terminal at the origin pulled along +x, balanced by nodes on the
    y-axis: ``(x1, x2, g)`` of ``_solve_couple`` at the production floor
    ``max(1e-2, 0.1*|f|)``."""
    x1, x2 = np.array([0.0, 1.0]), np.array([0.0, 2.0])
    (f_rem,), (tau_t,), _ = SYNTHESIZE._terminal_loads(np.zeros((1, 2)), np.array([[[1.0, 0.0]]]))
    return x1, x2, SYNTHESIZE._solve_couple(x1, x2, f_rem, tau_t + cross(x1, f_rem), 0.1)


def balancing_pair(terminals, f, seed, min_force):
    """``(x1, x2, g)`` that ``_balancing_pair`` draws for the terminal loads
    of ``f`` under the default placement constraints, inflated to
    ``min_force``."""
    terminals = np.asarray(terminals, dtype=float)
    fmats = np.asarray(f, dtype=float).reshape(1, *terminals.shape)
    (f_rem,), (tau_t,), (scale,) = SYNTHESIZE._terminal_loads(terminals, fmats)
    _, clearance = SYNTHESIZE._placement_constraints(terminals, (), None, 0.1)
    return SYNTHESIZE._balancing_pair(np.random.default_rng(seed), terminals, terminals,
                                      clearance, 0.1, f_rem, tau_t, scale, min_force)


class TestBalanceForces:
    def test_worked_example(self):
        # nodes on the y-axis force the balancing pair (-2, 0), (1, 0), whose
        # norm needs no inflation; coincident nodes balance nothing
        x1, x2, g = worked_couple()
        assert_allclose(g, [-2.0, 0.0, 1.0, 0.0], atol=1e-15)
        assert SYNTHESIZE._solve_couple(x1, x1.copy(), np.zeros(2), np.zeros(1), 0.1) is None

    def test_already_balanced_yields_zero_completion(self):
        # before any inflation the completion of a balanced system is zero
        x1, x2, g = balancing_pair([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0, -1.0, 0.0], 3, 0.0)
        assert_allclose(g, np.zeros(4), atol=1e-12)

    def test_min_force_inflation_keeps_balance(self):
        terminals = [[0.0, 0.0], [1.0, 0.0]]
        f = np.array([1.0, 0.0, -1.0, 0.0])
        x1, x2, g = balancing_pair(terminals, f, 3, 0.5)
        assert np.linalg.norm(g) >= 0.5
        points = np.vstack([terminals, x1, x2])
        forces = np.vstack([np.asarray(f).reshape(2, 2), g[:2], g[2:]])
        assert brute_force_balance_residual(points, forces) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_three_terminals_3d_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        terminals = rng.uniform(0, 1, size=(3, 3))
        f = rng.standard_normal(9)
        comp = rank_one_gadget(terminals, f, 1.0, RayleighParams(0.0, 0.0), seed=seed + 100)
        forces = comp.elements[0].force_vector
        assert same_bits(forces[:9], f)
        assert brute_force_balance_residual(comp.positions, forces.reshape(5, 3)) <= 1e-10 * (
            1 + np.abs(forces).max()
        )

    def test_placement_respects_forbidden_points(self):
        terminals = np.array([[0.0, 0.0], [1.0, 0.0]])
        forbidden = np.array([[0.5, 0.0], [0.25, 0.05]])
        comp = rank_one_gadget(
            terminals,
            [0.3, 0.1, 0.2, -0.4],
            1.0,
            RayleighParams(0.0, 0.0),
            epsilon_hull=0.2,
            forbidden=forbidden,
            seed=5,
            min_clearance=0.02,
        )
        for p in comp.internal_positions:
            assert min(np.linalg.norm(p - q) for q in forbidden) >= 0.02


class TestRankOneGadget:
    def test_worked_example_mass(self, monkeypatch):
        # the worked example's pair placed as the gadget's: |g|^2 = 4 + 1 =
        # 5, so m = 5 / 5 = 1 on both internal nodes
        monkeypatch.setattr(SYNTHESIZE, "_balancing_pair", lambda *args: worked_couple())
        comp = rank_one_gadget([[0.0, 0.0]], [1.0, 0.0], 5.0, RayleighParams(0.0, 0.0))
        masses = [n.mass for n in comp.nodes if not n.is_terminal]
        assert_allclose(masses, [1.0, 1.0])

    def test_static_response_vanishes(self):
        comp = rank_one_gadget(
            [[0.0, 0.0], [1.0, 1.0]],
            [0.4, -0.3, 0.2, 0.1],
            sigma=2.5,
            rayleigh=RayleighParams(0.7, 0.4),
            seed=11,
        )
        w0 = direct_response(assemble_component(comp), 0.0)
        assert np.abs(w0).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_closed_form_at_random_points(self, seed):
        rng = np.random.default_rng(seed)
        d = 2 if seed % 2 else 3
        terminals = rng.uniform(0, 1, size=(2, d))
        f = rng.standard_normal(2 * d)
        sigma = 10.0 ** rng.uniform(-1, 1)
        ray = RayleighParams(rng.uniform(0, 2), rng.uniform(0, 2))
        comp = rank_one_gadget(terminals, f, sigma, ray, seed=seed)
        sys = assemble_component(comp)
        for _ in range(5):
            lam = rng.uniform(0.3, 3.0) * np.exp(2j * np.pi * rng.uniform())
            direct = direct_response(sys, lam)
            closed = rank_one_response(f, sigma, ray, lam).a
            assert np.abs(direct - closed).max() <= 1e-10 * max(
                np.abs(closed).max(), 1.0
            )

    def test_gadget_resonances_match_sigma(self):
        sigma, ray = 3.7, RayleighParams(0.5, 0.2)
        comp = rank_one_gadget([[0.0, 0.0]], [1.0, 2.0], sigma, ray, seed=2)
        g = comp.elements[0].force_vector[2:]
        mass = comp.nodes[-1].mass
        assert_allclose(float(g @ g) / mass, sigma, rtol=1e-12)
        for root in resonances_of(sigma, ray):
            assert root.real <= 0.0
            q = sigma + (ray.alpha * sigma + ray.beta) * root + root * root
            assert abs(q) <= 1e-9 * max(sigma, 1.0)

    @pytest.mark.parametrize(
        "fault", ["mass", "coupling column", "uncoupled mode", "interior stiffness"]
    )
    def test_broken_contract_raises(self, monkeypatch, fault):
        # the gadget's stacked matrices depart from its construction by
        # 1e-6; the last three faults each break one clause of the contract
        # alone: the coupled column, the coupling of a zero mode, or sigma
        real = SYNTHESIZE._gadget_matrices

        def broken(comps):
            forces, (K,), (mass,) = real(comps)
            nb = comps[0].n_terminals * comps[0].dimension
            g = comps[0].elements[0].force_vector[nb:]
            if fault == "mass":
                mass *= 1.0 + 1e-6
            elif fault == "coupling column":
                K[:nb, nb:] *= 1.0 + 1e-6
                K[nb:, :nb] *= 1.0 + 1e-6
            elif fault == "uncoupled mode":
                across = np.eye(len(g))[0] - g[0] * g / (g @ g)  # orthogonal to g
                K[0, nb:] += 1e-6 * np.abs(K).max() * across
                K[nb:, 0] = K[0, nb:]
            else:
                K[nb:, nb:] *= 1.0 + 1e-6
            return forces, K[None], np.array([mass])

        monkeypatch.setattr(SYNTHESIZE, "_gadget_matrices", broken)
        with pytest.raises(PlacementFailed, match="deviates from the closed form"):
            rank_one_gadget(
                [[0.0, 0.0], [1.0, 1.0]],
                [0.4, -0.3, 0.2, 0.1],
                sigma=2.5,
                rayleigh=RayleighParams(0.7, 0.4),
                seed=11,
            )

    def test_zero_force_rejected(self):
        with pytest.raises(ZeroForce):
            rank_one_gadget([[0.0, 0.0]], [0.0, 0.0], 1.0, RayleighParams(0.0, 0.0))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be > 0"):
            rank_one_gadget([[0.0, 0.0]], [1.0, 0.0], 0.0, RayleighParams(0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused_up_front(self, bad):
        # refused before any arithmetic: no numpy warning, and the error
        # names the argument instead of a late placement or mass failure
        terminals, f = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.ones(6)
        ray = RayleighParams(0.1, 0.1)

        def gadgets(terminals, f, sigma):
            SYNTHESIZE._gadgets(terminals, (), f[None], np.array([sigma]), ray, None, 0.1,
                                np.zeros((0, 2)), 1e-6)

        cases = [
            ("terminals", lambda: gadgets(np.array([[0.0, 0.0], [1.0, 0.0], [bad, 1.0]]), f, 1.0)),
            ("f", lambda: gadgets(terminals, np.r_[bad, f[1:]], 1.0)),
            ("f", lambda: gadgets(terminals, np.r_[f[:5], bad], 1.0)),
            ("sigma", lambda: gadgets(terminals, f, bad)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in cases:
                with pytest.raises(DimensionMismatch, match=f"^{name} must be finite$"):
                    call()


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def placed_gadgets(d, count, seed=0):
    """``(component, sigma)`` pairs of unchecked gadgets on 4 terminals,
    placed one at a time by the oracle."""
    rng = np.random.default_rng(seed)
    terminals = rng.uniform(0.0, 1.0, (4, d))
    ray = RayleighParams(0.3, 0.2)
    gadgets = []
    for k in range(count):
        sigma = 10.0 ** rng.uniform(-2.0, 2.0)
        f = rng.standard_normal(4 * d) * 10.0 ** rng.uniform(-1.0, 1.0)
        gadgets.append((oracles._place_gadget(terminals, None, f, sigma, ray, seed=k), sigma))
    return gadgets


def faulty_matrices(monkeypatch, faults):
    """Make ``_gadget_matrices`` break gadget ``k`` by ``faults[k]``."""
    module = import_module("elastonet.synthesize")
    real = module._gadget_matrices

    def broken(comps):
        forces, K, mass = real(comps)
        nb = comps[0].n_terminals * comps[0].dimension
        for k, fault in faults.items():
            if k >= len(comps):
                continue
            if fault == "contract":
                K[k, nb:, nb:] *= 1.0 + 1e-6
            else:
                K[k, 0, 0] = np.inf
        return forces, K, mass

    monkeypatch.setattr(module, "_gadget_matrices", broken)


class TestGadgetStack:
    """Gadgets reduced and checked as one stack against the generic path."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_the_generic_reduction_bitwise(self, d):
        gadgets = placed_gadgets(d, 40, seed=d)
        import_module("elastonet.synthesize")._reduce_gadgets(gadgets)
        for comp, _ in gadgets:
            stacked = vars(comp)["modal_form"]  # seeded, not computed here
            red = eliminate_massless(assemble_component(comp))
            nb = red.n_b
            generic = (red.Ktilde.a[:nb, :nb], red.Mbb, *red.modal)
            assert len(stacked) == len(generic) == 4
            for seeded, reduced in zip(stacked, generic):
                assert same_bits(seeded, reduced)
                assert not seeded.flags.writeable

    @pytest.mark.parametrize(
        "faults, error",
        [
            ({2: "contract", 3: "not finite"}, PlacementFailed),
            ({0: "contract", 1: "not finite"}, PlacementFailed),
            ({1: "not finite", 2: "contract"}, DimensionMismatch),
            ({1: "contract", 2: "not finite"}, PlacementFailed),
            ({0: "not finite", 2: "contract"}, DimensionMismatch),
        ],
    )
    def test_the_first_failing_gadget_wins(self, monkeypatch, faults, error):
        gadgets = placed_gadgets(3, 4)
        faulty_matrices(monkeypatch, faults)
        with pytest.raises(ElastonetError) as info:
            import_module("elastonet.synthesize")._reduce_gadgets(gadgets)
        assert type(info.value) is error
        assert str(info.value) == {
            PlacementFailed: "gadget response deviates from the closed form",
            DimensionMismatch: "matrix entries must be finite",
        }[error]

    @pytest.mark.parametrize("faults", [{}, {1: "contract"}, {1: "unbalanced"}])
    def test_the_gadgets_before_a_failed_placement_are_checked_first(
        self, monkeypatch, faults
    ):
        # the third gadget cannot be placed: the two placed before it get
        # their balance verdicts and their contract first
        module = import_module("elastonet.synthesize")
        real = module._balancing_pair
        placed = []

        def failing_third(*args, **kwargs):
            if len(placed) == 2:
                raise PlacementFailed("third placement fails")
            x1, x2, g = real(*args, **kwargs)
            if faults.get(len(placed)) == "unbalanced":
                g = g + 1e-3 * np.abs(g).max()
            placed.append(g)
            return x1, x2, g

        monkeypatch.setattr(module, "_balancing_pair", failing_third)
        faulty_matrices(monkeypatch, {k: v for k, v in faults.items() if v == "contract"})
        cr = extracted(3, d=3, nt=3)
        match = {
            "contract": "deviates from the closed form",
            "unbalanced": "balancing construction left residual",
        }.get(faults.get(1), "third placement")
        with pytest.raises(PlacementFailed, match=match):
            synthesize(cr, seed=3)
        assert len(placed) == 2


def extracted(seed, **kwargs):
    net = random_network(seed, kwargs.pop("d", 2), kwargs.pop("nt", 2),
                         kwargs.pop("ni", 3), kwargs.pop("mf", 0.5), **kwargs)
    return extract_canonical(assemble(net))


def forbidding(cr, seed):
    """The internal node positions of a plain synthesis of ``cr``, then the
    centroid of its terminals: forbidden points on which the first draws
    of a synthesis with the same seed land."""
    gn = synthesize(cr, seed=seed)
    inner = [c.internal_positions for c in gn.components]
    return np.vstack(inner + [cr.terminal_positions.mean(axis=0)])


def assert_same_construction(cr, **placement):
    """``synthesize(cr, **placement)`` builds, bit for bit, the static
    factors and gadgets of the one-by-one oracle."""
    gn = synthesize(cr, **placement)
    static, gadgets = construction_one_by_one(cr, **placement)
    ideal = [c for c in gn.components if c.kind == "ideal_elements"]
    assert len(ideal) == (1 if static else 0)
    for comp in ideal:
        assert len(comp.elements) == len(static)
        for el, w in zip(comp.elements, static):
            assert same_bits(el.force_vector, w)
    built = [c for c in gn.components if c.kind == "rank_one_gadget"]
    assert len(built) == len(gadgets) > 0
    for comp, (ref, _) in zip(built, gadgets):
        assert same_bits(comp.positions, np.array([n.position for n in ref.nodes]))
        assert same_bits(np.array([n.mass for n in comp.nodes]),
                         np.array([n.mass for n in ref.nodes]))
        assert same_bits(comp.elements[0].force_vector, ref.elements[0].force_vector)
        for stacked, one_by_one in zip(vars(comp)["modal_form"], vars(ref)["modal_form"]):
            assert same_bits(stacked, one_by_one)
    return gn


class TestStackedConstruction:
    """One stacked factorization, one placement loop and one balance verdict
    per gadget stack build what the per-gadget construction built."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("nt", [3, 9])
    @pytest.mark.parametrize("forbid", [False, True])
    def test_equals_the_one_by_one_oracle_bitwise(self, d, nt, forbid):
        # nine terminals put eleven nodes in a gadget's force system, so
        # the torque sums of d = 2 run pairwise, as a single system's do
        for seed in range(2):
            cr = extracted(seed, d=d, nt=nt, ni=6)
            forbidden = forbidding(cr, seed) if forbid else ()
            assert_same_construction(cr, seed=seed, forbidden=forbidden)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejected_draws_equal_the_oracle(self, monkeypatch, d):
        # a clearance of 0.04 rejects draws near the nodes already placed;
        # at 0.08 the placement gives up, with the oracle's error
        cr = extracted(1, d=d, nt=3, ni=6)
        real, rejected = oracles._draw_point, []

        def counting(*args):
            point = real(*args)
            rejected.append(point is None)
            return point

        monkeypatch.setattr(oracles, "_draw_point", counting)
        assert_same_construction(cr, seed=5, min_clearance=0.04)
        assert sum(rejected) > 0  # the oracle took its rejection branch
        with pytest.raises(PlacementFailed) as oracle:
            construction_one_by_one(cr, seed=5, min_clearance=0.08)
        with pytest.raises(PlacementFailed) as stacked:
            synthesize(cr, seed=5, min_clearance=0.08)
        assert str(stacked.value) == str(oracle.value)

    def test_factors_equal_one_eigh_per_block_bitwise(self):
        # blocks forty decades apart, each cut at its own largest eigenvalue
        # or floor: one at 1e-13 of its top falls below RANK_TOL, one at
        # 1e-11 stays, and a floor cuts a third
        module = import_module("elastonet.synthesize")
        rng = np.random.default_rng(0)
        blocks, floors = [], []
        for scale, floor in [(1e-20, 0.0), (1.0, 0.0), (1e20, 0.0), (1e3, 2.0), (1e-5, 0.0)]:
            q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            vals = scale * np.array([1.0, 0.5, 3.0, 1e-13, 1e-11, 0.0])
            blocks.append((q * vals) @ q.T)
            floors.append(floor * scale)
        blocks, floors = np.array(blocks), np.array(floors)
        owner, factors = module._rank_one_factors(blocks, floors)
        expected = [(j, w) for j, (b, floor) in enumerate(zip(blocks, floors))
                    for w in oracles._rank_one_factors(b, floor=floor)]
        assert owner.tolist() == [j for j, _ in expected]
        assert all(same_bits(got, w) for got, (_, w) in zip(factors, expected))
        assert 0 < len(expected) < 4 * len(blocks)

    def test_one_stacked_pass_of_each_kind(self, monkeypatch):
        module = import_module("elastonet.synthesize")
        calls = Counter()
        for name in ("_rank_one_factors", "_gadget_verdicts", "_reduce_gadgets"):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        gn = synthesize(extracted(2, d=3, nt=3, ni=6), seed=2)
        assert sum(c.kind == "rank_one_gadget" for c in gn.components) > 2
        assert calls == {"_rank_one_factors": 1, "_gadget_verdicts": 1, "_reduce_gadgets": 1}

    @pytest.mark.parametrize("d", [2, 3])
    def test_element_verdict_is_the_component_rule(self, d):
        # an imbalance of each size either passes both rules or raises the
        # component's own error; a placement verdict made lax by a huge
        # scale leaves the element verdict to fail on its own
        module = import_module("elastonet.synthesize")
        gadgets = [comp for comp, _ in placed_gadgets(d, 6, seed=d)]
        nt = gadgets[0].n_terminals
        terminals = gadgets[0].positions[:nt]
        nb = nt * d
        fmats = np.array([c.elements[0].force_vector[:nb] for c in gadgets]).reshape(-1, nt, d)
        pairs = np.array([c.positions[nt:] for c in gadgets])
        g = np.array([c.elements[0].force_vector[nb:] for c in gadgets])
        refused = []
        for k, size in enumerate([0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3]):
            bent = g.copy()
            bent[k, 0] += size * np.abs(g[k]).max()
            scale = np.full(len(gadgets), 1e300)
            passed, error = module._gadget_verdicts(terminals, fmats, pairs, bent, scale)
            comp = gadgets[k]
            element = IdealElasticElement(comp.elements[0].support,
                                          np.concatenate([fmats[k].ravel(), bent[k]]))
            try:
                replace(comp, elements=(element,))
            except ValueError as own:
                assert (passed, type(error), str(error)) == (k, ValueError, str(own))
                refused.append(size)
            else:
                assert (passed, error) == (len(gadgets), None)
        assert 0 < len(refused) < 6


class TestSynthesize:
    @pytest.mark.parametrize("d", [2, 3])
    def test_massless_terminal_nodes_are_built_once(self, d):
        gn = synthesized(extracted(3, d=d, nt=3), seed=3)
        massless = [c for c in gn.components if c.kind != "terminal_masses"]
        assert len(massless) > 2
        shared = massless[0].nodes[:3]
        assert all(c.nodes[k] is shared[k] for c in massless for k in range(3))

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_roundtrip_from_extraction(self, seed):
        cr = extracted(seed, d=2 + seed % 2)
        gn = synthesize(cr, seed=seed)
        assert verify_synthesis(gn, cr, n_samples=25, seed=seed + 1) <= 1e-8

    def test_massless_static_case_single_component(self):
        cr = extracted(10, mf=0.0)
        if any(n > 0 for n in cr.Mbb):
            cr = CanonicalResponse(
                rayleigh=cr.rayleigh,
                A=cr.A,
                Mbb=np.zeros_like(cr.Mbb),
                modes=cr.modes,
                terminal_positions=cr.terminal_positions,
            )
        assert not cr.modes
        gn = synthesized(cr, seed=1)
        assert len(gn.components) == 1
        assert gn.components[0].kind == "ideal_elements"
        lam = 0.3 + 0.8j
        w = evaluate_generalized(gn, lam).W.a
        expected = (1.0 + cr.rayleigh.alpha * lam) * cr.static_response().a
        assert np.abs(w - expected).max() <= 1e-10 * max(np.abs(expected).max(), 1.0)

    def test_zero_response_empty_network(self):
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.5, 0.5),
            A=SymMatrix(np.zeros((4, 4))),
            Mbb=np.zeros(4),
            modes=(),
            terminal_positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        gn = synthesized(cr, seed=0)
        assert not gn.components
        assert np.abs(evaluate_generalized(gn, 1.0j).W.a).max() == 0.0

    def test_inadmissible_rejected(self):
        cr = extracted(3)
        bad = CanonicalResponse(
            rayleigh=cr.rayleigh,
            A=cr.A,
            Mbb=cr.Mbb,
            modes=(Mode(-1.0, cr.modes[0].R),) if cr.modes else (),
            terminal_positions=cr.terminal_positions,
        )
        if bad.modes:
            with pytest.raises(NotCharacterizable):
                synthesize(bad, seed=0)

    def test_anisotropic_terminal_mass_rejected(self):
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.0, 0.5),
            A=SymMatrix(np.zeros((2, 2))),
            Mbb=np.array([1.0, 2.0]),
            modes=(),
            terminal_positions=np.array([[0.0, 0.0]]),
        )
        with pytest.raises(NotCharacterizable):
            synthesize(cr, seed=0)

    @pytest.mark.parametrize("args", [
        (5, 2, 3, 6, 0.5), (4, 2, 3, 4, 0.5), (7, 3, 3, 5, 0.5),
    ])
    def test_micrometre_network_places_its_nodes(self, args):
        # the default clearance scales with the network; an absolute floor
        # of 1e-6 exceeded the whole placement region at this size
        cr = extract_canonical(assemble(scaled_network(random_network(*args), 1e-6)))
        gn = synthesize(cr, epsilon_hull=1e-7, seed=0)
        assert verify_synthesis(gn, cr, n_samples=20, seed=1) <= 1e-8

    @pytest.mark.parametrize("args", [
        (5, 2, 3, 6, 0.5), (4, 2, 3, 4, 0.5), (7, 3, 3, 5, 0.5),
    ])
    @pytest.mark.parametrize("factor", [1e3, 1e6])
    def test_large_network_is_realized(self, args, factor):
        # torques grow with the lengths: the balance checks of placement and
        # of every element judge them at a threshold that grows as well
        cr = extract_canonical(assemble(scaled_network(random_network(*args), factor)))
        gn = synthesize(cr, epsilon_hull=0.1 * factor, seed=0)
        assert verify_synthesis(gn, cr, n_samples=20, seed=1) <= 1e-8

    def test_terminal_mass_component(self):
        cr = CanonicalResponse(
            rayleigh=RayleighParams(0.0, 0.8),
            A=SymMatrix(np.zeros((4, 4))),
            Mbb=np.array([1.5, 1.5, 0.0, 0.0]),
            modes=(),
            terminal_positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        gn = synthesized(cr, seed=0)
        assert [c.kind for c in gn.components] == ["terminal_masses"]
        lam = 0.2 + 1.1j
        w = evaluate_generalized(gn, lam).W.a
        expected = (0.8 * lam + lam * lam) * np.diag(cr.Mbb)
        assert_allclose(w, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [2, 7])
    def test_superposition_union_equals_component_sum(self, seed):
        cr = extracted(seed, ni=4)
        gn = synthesized(cr, seed=seed)
        union = assemble_union(gn)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            total = direct_response(union, lam)
            summed = evaluate_generalized(gn, lam).W.a
            assert np.abs(total - summed).max() <= 1e-10 * max(
                np.abs(total).max(), 1.0
            )

    @pytest.mark.parametrize("kind", ["ideal_elements", "rank_one_gadget", "springs"])
    def test_union_of_one_component_equals_component_bitwise(self, kind):
        from elastonet import NetworkComponent, Node, Spring

        cr = extracted(5, ni=4)
        gn = synthesized(cr, seed=5)
        if kind == "springs":
            terminals = [Node(tuple(p), 0.3, True) for p in gn.terminals]
            inner = Node(tuple(gn.terminals.mean(axis=0)), 1.1, False)
            springs = tuple(Spring(k, len(terminals), 0.7 + k) for k in range(len(terminals)))
            comp = NetworkComponent(
                "springs", (*terminals, inner), len(terminals), springs, gn.rayleigh,
                gn.dimension,
            )
        else:
            comp = next(c for c in gn.components if c.kind == kind)
        alone = GeneralizedNetwork(gn.terminals, (comp,), epsilon_hull=gn.epsilon_hull)
        union, single = assemble_union(alone), assemble_component(comp)
        for name in ("K", "C", "M"):
            assert np.array_equal(getattr(union, name).a, getattr(single, name).a)
        assert union.n_b == single.n_b
        assert np.array_equal(union.terminal_positions, single.terminal_positions)
        assert (union.dimension, union.rayleigh) == (single.dimension, single.rayleigh)

    def test_gadget_static_sum_vanishes(self):
        cr = extracted(6, ni=4, mf=1.0)
        gn = synthesized(cr, seed=6)
        gadgets = [c for c in gn.components if c.kind == "rank_one_gadget"]
        assert gadgets
        total = sum(direct_response(assemble_component(c), 0.0) for c in gadgets)
        assert np.abs(total).max() <= 1e-10

    def test_geometry_constraints_enforced(self):
        cr = extracted(8, ni=5, mf=1.0)
        eps = 0.25
        forbidden = cr.terminal_positions.mean(axis=0, keepdims=True)
        gn = synthesized(cr, epsilon_hull=eps, forbidden=forbidden, seed=8,
                        min_clearance=1e-3)
        count = 0
        for comp in gn.components:
            for p in comp.internal_positions:
                count += 1
                assert hull_distance(p, gn.terminals) <= eps + 1e-9
                assert np.linalg.norm(p - forbidden[0]) >= 1e-3 * (1 - 1e-9)
        assert count >= 2
        # internal nodes across all components are pairwise distinct
        internals = np.vstack(
            [c.internal_positions for c in gn.components if len(c.internal_positions)]
        )
        for a in range(len(internals)):
            for b in range(a + 1, len(internals)):
                assert np.linalg.norm(internals[a] - internals[b]) >= 1e-3 * (1 - 1e-9)


def springs_component(gn, mass):
    """Terminal springs to one interior node at the terminal centroid."""
    from elastonet import NetworkComponent, Node, Spring

    terminals = [Node(tuple(p), 0.0, True) for p in gn.terminals]
    inner = Node(tuple(gn.terminals.mean(axis=0)), mass, False)
    springs = tuple(Spring(k, len(terminals), 0.7 + k) for k in range(len(terminals)))
    return NetworkComponent(
        "springs", (*terminals, inner), len(terminals), springs, gn.rayleigh,
        gn.dimension,
    )


def with_components(gn, components):
    return GeneralizedNetwork(gn.terminals, components, epsilon_hull=gn.epsilon_hull)


def per_component(gn, lam, mode):
    """Reference: each component assembled and evaluated alone by the direct
    oracle in ``mode``, summed in order."""
    total = np.zeros((gn.terminals.size, gn.terminals.size), dtype=complex)
    for comp in gn.components:
        total = total + direct_response(assemble_component(comp), lam, mode)
    return total


class TestStackedEvaluation:
    """The direct oracle ``evaluate_generalized`` against per-component
    evaluation by the tests' direct oracle (``oracles.direct_response``)."""

    # at non-resonant points the oracle's inverse and pseudoinverse are the
    # same expression, so the sum has the bits of either
    @pytest.mark.parametrize("seed,d", [(1, 2), (3, 3)])
    @pytest.mark.parametrize("mode", ["inverse", "pseudoinverse"])
    def test_equals_per_component_sum_bitwise(self, seed, d, mode):
        cr = extracted(seed, d=d, nt=3)
        gn = synthesized(cr, seed=seed)
        # the springs component sits between two gadgets, so component order
        # differs from the order of the groups of equal matrix order
        comps = gn.components
        gn = with_components(gn, (*comps[:3], springs_component(gn, 1.3), *comps[3:]))
        assert comps[2].kind == comps[3].kind == "rank_one_gadget"
        kinds = {c.kind for c in gn.components}
        assert kinds == {"ideal_elements", "terminal_masses", "rank_one_gadget", "springs"}
        assert len({assemble_component(c).order for c in gn.components}) == 3
        for lam in (0.37 + 0.21j, -0.4 + 2.3j, 1.7, 3j):
            assert np.array_equal(
                evaluate_generalized(gn, lam).W.a, per_component(gn, lam, mode)
            )

    @pytest.mark.parametrize("mode", ["inverse", "pseudoinverse"])
    def test_empty_network_is_exactly_zero(self, mode):
        gn = with_components(synthesized(extracted(1, nt=3), seed=1), ())
        lam = 0.5 + 1.5j
        w = evaluate_generalized(gn, lam).W.a
        assert np.array_equal(w, np.zeros((6, 6), dtype=complex))
        assert np.array_equal(w, per_component(gn, lam, mode))

    def test_a_resonance_gives_the_truncated_sum(self):
        # at a root of one mode's q(lambda) the gadget of that mode has a
        # singular interior block: the sum takes its pseudoinverse value
        cr = extracted(3, d=3, nt=3)
        gn = synthesized(cr, seed=3)
        lam = resonances_of(cr.modes[-1].sigma, cr.rayleigh)[0]
        with pytest.raises(AtResonance):
            per_component(gn, lam, "inverse")
        w = evaluate_generalized(gn, lam).W.a
        assert np.array_equal(w, per_component(gn, lam, "pseudoinverse"))

    def test_pipeline_assembles_each_component_once(self, monkeypatch):
        # a gadget is reduced in the stack that checks its contract, and
        # verification reads its modal form; the other components are
        # assembled and reduced there, once each
        module = import_module("elastonet.synthesize")
        calls = Counter()
        real = module.assemble_component

        def counting(comp):
            calls[id(comp)] += 1
            return real(comp)

        monkeypatch.setattr(module, "assemble_component", counting)
        cr = extracted(3, d=3, nt=3)
        gn = synthesize(cr, seed=3)
        assert verify_synthesis(gn, cr, n_samples=10, seed=4) <= 1e-8
        assert {c.kind for c in gn.components} == {
            "ideal_elements", "terminal_masses", "rank_one_gadget"
        }
        assert calls == Counter(
            {id(c): 1 for c in gn.components if c.kind != "rank_one_gadget"}
        )

    def test_fewer_than_one_sample_rejected(self):
        cr = extracted(1, nt=3)
        gn = synthesized(cr, seed=1)
        with pytest.raises(ValueError, match="n_samples"):
            verify_synthesis(gn, cr, n_samples=0)


def synthesized_3d():
    """A canonical form and its network: static elements, terminal masses, gadgets."""
    cr = extracted(3, d=3, nt=3)
    return cr, synthesized(cr, seed=3)


def first(gn, kind):
    return next(k for k, c in enumerate(gn.components) if c.kind == kind)


def replaced(gn, k, comp):
    """``gn`` with component ``k`` replaced by ``comp``, or dropped for None."""
    comps = list(gn.components)
    comps[k:k + 1] = [] if comp is None else [comp]
    return with_components(gn, tuple(comps))


def heavier(comp, factor):
    """The component with every internal mass multiplied by ``factor``."""
    nodes = tuple(
        n if n.is_terminal else replace(n, mass=factor * n.mass) for n in comp.nodes
    )
    return replace(comp, nodes=nodes)


class TestVerificationDetects:
    """Verification reads the network's own modes, so a faulty network fails."""

    def test_gadget_mass_off_by_a_millionth(self):
        cr, gn = synthesized_3d()
        k = first(gn, "rank_one_gadget")
        bad = replaced(gn, k, heavier(gn.components[k], 1.0 + 1e-6))
        assert verify_synthesis(gn, cr) <= ROUNDTRIP_TOL
        assert verify_synthesis(bad, cr) > ROUNDTRIP_TOL

    def test_static_element_force_off_by_a_millionth(self):
        cr, gn = synthesized_3d()
        k = first(gn, "ideal_elements")
        comp = gn.components[k]
        el = comp.elements[0]
        stronger = replace(el, force_vector=(1.0 + 1e-6) * el.force_vector)
        bad = replaced(gn, k, replace(comp, elements=(stronger, *comp.elements[1:])))
        assert verify_synthesis(bad, cr) > ROUNDTRIP_TOL

    def test_dropped_gadget(self):
        cr, gn = synthesized_3d()
        bad = replaced(gn, first(gn, "rank_one_gadget"), None)
        assert verify_synthesis(bad, cr) > ROUNDTRIP_TOL

    def test_sample_at_a_gadget_pole_is_not_swallowed(self, monkeypatch):
        # the gadget's own poles moved off the canonical ones, so the
        # closed form is finite where the network's response is not
        module = import_module("elastonet.synthesize")
        cr, gn = synthesized_3d()
        k = first(gn, "rank_one_gadget")
        gadget = heavier(gn.components[k], 1.0 + 1e-6)
        sigma = eliminate_massless(assemble_component(gadget)).modal[0].max()
        root = resonances_of(sigma, cr.rayleigh)[0]
        monkeypatch.setattr(
            module, "sample_nonresonant", lambda rng, avoid, count: np.full(count, root)
        )
        assert verify_synthesis(replaced(gn, k, gadget), cr, n_samples=1) > 1e6

    def test_non_finite_deviation_counts_as_infinite(self, monkeypatch):
        module = import_module("elastonet.synthesize")
        cr, gn = synthesized_3d()

        # the network side of verification, every W not finite
        def not_finite(rayleigh, A, Mbb, sigmas, V, lams):
            for points, mag, w in modal_responses(rayleigh, A, Mbb, sigmas, V, lams):
                yield points, mag, np.full_like(w, np.nan)

        monkeypatch.setattr(module, "modal_responses", not_finite)
        assert verify_synthesis(gn, cr, n_samples=3) == np.inf


def network_case(name):
    if name == "empty":
        return with_components(synthesized_3d()[1], ())
    seed, d, nt = {"2d": (1, 2, 3), "3d": (3, 3, 3), "mechanism": (2, 2, 2),
                   "massless interior": (1, 2, 3), "massless mechanism": (2, 2, 2)}[name]
    gn = synthesized(extracted(seed, d=d, nt=nt), seed=seed)
    if name in ("2d", "3d"):
        return gn
    # two terminals in the plane leave the centroid node free to move across
    # their line: a floppy direction, massive or massless
    mass = 1.3 if name == "mechanism" else 0.0
    return with_components(gn, (*gn.components, springs_component(gn, mass)))


@pytest.mark.parametrize(
    "name", ["2d", "3d", "mechanism", "massless interior", "massless mechanism", "empty"]
)
def test_modal_form_matches_direct_oracle(name):
    gn = network_case(name)
    form = modal_form(gn)
    assert form[3].shape == (gn.terminals.size, len(form[2]))
    avoid = system_resonances(gn.rayleigh, form[2])
    points = sample_nonresonant(np.random.default_rng(0), avoid, 8)
    (_, _, block), = modal_responses(gn.rayleigh, *form, points)
    for lam, modal in zip(points, block, strict=True):
        direct = evaluate_generalized(gn, lam).W.a
        assert np.abs(modal - direct).max() <= 1e-12 * np.abs(direct).max(), lam


STIFF_OR_LIGHT = pytest.mark.parametrize("stiffness,mass", [(1e8, 1.0), (1.0, 1e-8)])


def kinds(components):
    return Counter(c["kind"] if isinstance(c, dict) else c.kind for c in components)


class TestStiffAndLightNetworks:
    """Springs x1e8 or masses x1e-8: the gadget contract compares each
    quantity with itself, so no absolute scale rejects the gadgets."""

    ARGS = (5, 2, 3, 6, 0.5)

    def network(self, stiffness, mass):
        return stiffened_network(random_network(*self.ARGS), stiffness, mass)

    def unit_kinds(self):
        cr = extract_canonical(assemble(random_network(*self.ARGS)))
        return kinds(synthesized(cr, seed=0).components)

    @STIFF_OR_LIGHT
    def test_synthesis_passes_its_check(self, stiffness, mass):
        cr = extract_canonical(assemble(self.network(stiffness, mass)))
        gn = synthesize(cr, seed=0)
        assert verify_synthesis(gn, cr, seed=1) <= 1e-12
        assert kinds(gn.components) == self.unit_kinds()

    @STIFF_OR_LIGHT
    def test_cli_roundtrip_passes(self, tmp_path, stiffness, mass):
        path, out = tmp_path / "net.json", tmp_path / "out.json"
        write_json(path, network_to_dict(self.network(stiffness, mass)))
        assert main(["roundtrip", str(path), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["verification"]["max_rel_error"] <= 1e-12
        assert kinds(payload["network"]["components"]) == self.unit_kinds()


class TestGeneralizedJson:
    def test_round_trip(self):
        cr = extracted(12, ni=3, mf=1.0)
        gn = synthesized(cr, seed=12)
        obj = generalized_to_dict(gn)
        back = generalized_from_dict(obj)
        assert generalized_to_dict(back) == obj
        lam = 0.4 + 0.9j
        assert_allclose(
            evaluate_generalized(back, lam).W.a,
            evaluate_generalized(gn, lam).W.a,
            atol=1e-14,
        )

    def test_unknown_component_kind(self):
        cr = extracted(12, ni=2, mf=1.0)
        gn = synthesized(cr, seed=12)
        obj = generalized_to_dict(gn)
        obj["components"][0]["kind"] = "wormhole"
        from elastonet import SchemaError

        with pytest.raises(SchemaError, match="kind"):
            generalized_from_dict(obj)


    @pytest.mark.parametrize(
        "element", [{"i": -1, "j": 0, "k": 1.0}, {"support": [], "f": []}]
    )
    def test_bad_element_is_a_schema_error(self, element):
        from elastonet import SchemaError

        gn = synthesized(extracted(12, ni=2, mf=1.0), seed=12)
        obj = generalized_to_dict(gn)
        obj["components"][0]["elements"] = [element]
        with pytest.raises(SchemaError):
            generalized_from_dict(obj)


def numbers(obj):
    """Every number in a tree of dicts and lists; booleans are not numbers."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from numbers(value)
    elif not isinstance(obj, (str, bool)) and obj is not None:
        yield obj


class TestDictsHoldPythonNumbers:
    """The dicts handed to the writer hold Python floats and ints, which its
    float blocks read fastest; numpy scalars print the same text."""

    def dicts(self):
        net = random_network(3, 3, 4, 12, 0.5)
        cr = extract_canonical(assemble(net))
        gn = synthesized(cr, seed=0)
        # the gadgets' ideal elements, then springs
        elements = [el for c in gn.components for el in c.elements] + list(net.springs)
        nodes = [node_to_dict(n) for c in gn.components for n in c.nodes]
        return cr, elements, (canonical_to_dict(cr), nodes, list(map(element_to_dict, elements)))

    def test_every_number_is_an_exact_float_or_int(self):
        for obj in self.dicts()[2]:
            types = {type(v) for v in numbers(obj)}
            assert float in types and types <= {float, int}

    def test_the_writer_gives_the_bytes_of_numpy_scalars(self):
        cr, raw, (canonical, nodes, elements) = self.dicts()
        old_canonical = {
            "alpha": cr.rayleigh.alpha,
            "beta": cr.rayleigh.beta,
            "A": [list(row) for row in cr.A.a],
            "Mbb": list(cr.Mbb),
            "modes": [{"sigma": m.sigma, "R": [list(row) for row in m.R.a]}
                      for m in cr.modes],
            "terminals": [list(p) for p in cr.terminal_positions],
        }
        old_elements = [
            {"i": el.i, "j": el.j, "k": el.stiffness} if hasattr(el, "stiffness")
            else {"support": list(el.support), "f": list(el.force_vector)}
            for el in raw
        ]
        for new, old in ((canonical, old_canonical), (elements, old_elements)):
            text = dumps_canonical(new)
            assert text == dumps_canonical(old)
            assert text == json.dumps(old, sort_keys=True, indent=2) + "\n"
        assert dumps_canonical(nodes) == json.dumps(nodes, sort_keys=True, indent=2) + "\n"


class TestComponentValidation:
    def test_springs_component_matches_network_assembly(self):
        from elastonet import ElastodynamicNetwork, NetworkComponent, Node, Spring

        nodes = (
            Node((0.0, 0.0), 0.0, True),
            Node((1.0, 0.5), 0.0, True),
            Node((0.4, 0.9), 1.2, False),
        )
        springs = (Spring(0, 2, 1.5), Spring(1, 2, 0.7))
        ray = RayleighParams(0.3, 0.6)
        comp = NetworkComponent(
            kind="springs",
            nodes=nodes,
            n_terminals=2,
            elements=springs,
            rayleigh=ray,
            dimension=2,
        )
        net = ElastodynamicNetwork(2, nodes, springs, ray)
        a, b = assemble_component(comp), assemble(net)
        assert np.array_equal(a.K.a, b.K.a)
        assert np.array_equal(a.C.a, b.C.a)
        assert np.array_equal(a.node_masses, b.node_masses)
        lam = 0.2 + 1.4j
        assert_allclose(
            direct_response(a, lam), direct_response(b, lam), atol=1e-15
        )

    def test_unbalanced_element_rejected(self):
        from elastonet import NetworkComponent, Node

        nodes = (Node((0.0, 0.0), 0.0, True), Node((1.0, 0.0), 1.0, False))
        el = IdealElasticElement((0, 1), np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="unbalanced"):
            NetworkComponent(
                kind="rank_one_gadget",
                nodes=nodes,
                n_terminals=1,
                elements=(el,),
                rayleigh=RayleighParams(0.0, 0.0),
                dimension=2,
            )

    def test_epsilon_hull_violation_rejected(self):
        from elastonet import NetworkComponent, Node

        terminals = np.array([[0.0, 0.0], [1.0, 0.0]])
        far = (5.0, 5.0)
        comp = NetworkComponent(
            kind="terminal_masses",
            nodes=(
                Node((0.0, 0.0), 0.0, True),
                Node((1.0, 0.0), 0.0, True),
                Node(far, 1.0, False),
            ),
            n_terminals=2,
            elements=(),
            rayleigh=RayleighParams(0.0, 0.0),
            dimension=2,
        )
        with pytest.raises(ValueError, match="epsilon"):
            GeneralizedNetwork(terminals, (comp,), epsilon_hull=0.1)
