"""Workloads of the elastonet benchmark: seeded inputs, the CLI op, checks.

Every workload cycles over ``N_NETWORKS`` inputs drawn with
``random_network(d=3, mass_fraction=0.5)`` from seeds derived from the
workload seed, so the same seed always gives the same files. The program
sees only those files: each op is one ``elastonet.cli.main(argv)`` call.

Why these three:

* ``roundtrip`` runs the whole pipeline (extract, characterize, synthesize,
  verify) on 66-node networks; verification dominates and per-network
  set-up matters most.
* ``sweep`` evaluates one 158-node network at 50 frequencies; the per-point
  Schur solves and the JSON encoding dominate, with no synthesis and no
  geometry.
* ``wide_synth`` realizes canonical forms of 16-terminal networks; the
  hull test of the ``GeneralizedNetwork`` validation inside ``synthesize``
  dominates, Schur work is tiny.

``BENCHMARK.json`` declares only ``roundtrip`` and ``sweep``: the time
budget of a full set of benchmark runs allows runs of 50 s for two
workloads, and shorter runs spread past their bound on a shared host.
``roundtrip`` reaches every layer ``wide_synth`` does (the hull test
included), and ``wide_synth`` stays runnable by name.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from elastonet import (
    assemble,
    canonical_to_dict,
    evaluate_canonical,
    evaluate_generalized,
    extract_canonical,
    generalized_from_dict,
    network_to_dict,
    random_network,
)
from elastonet.jsonio import write_json

N_NETWORKS = 4
# fixed here, not read from the program, so a change to the program cannot
# loosen what the benchmark accepts
CHECK_TOL = 1e-8
# the smallest error -log10 can report: rounding of one double
ERR_FLOOR = float(np.finfo(float).eps)
SWEEP_CHECK_STRIDE = 7
# Laplace points of the realization check: right of the imaginary axis,
# where no pole of a passive, proportionally damped response can lie
REALIZATION_POINTS = (0.05 + 0.5j, 0.2 + 2.0j, 1.0 + 0.3j, 0.02 + 5.0j)


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    subcommand: str
    n_terminals: int
    n_interior: int
    op_args: tuple
    n_networks: int = N_NETWORKS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "roundtrip", 0, "roundtrip", 6, 60,
            ("--samples", "50", "--epsilon", "0.1"),
        ),
        Workload(
            "sweep", 1, "respond", 8, 150,
            ("--omega", "0.1", "100", "50", "--scale", "log"),
        ),
        Workload(
            "wide_synth", 2, "synthesize", 16, 6,
            ("--samples", "50", "--epsilon", "0.1"),
        ),
    )
}

# one small network per workload: the warm-up op of every set-up, and the
# whole load of the self-test
TINY = {
    "roundtrip": Workload(
        "roundtrip", 0, "roundtrip", 3, 6,
        ("--samples", "5", "--epsilon", "0.1"), 1,
    ),
    "sweep": Workload(
        "sweep", 1, "respond", 3, 8,
        ("--omega", "0.1", "100", "8", "--scale", "log"), 1,
    ),
    "wide_synth": Workload(
        "wide_synth", 2, "synthesize", 5, 2,
        ("--samples", "5", "--epsilon", "0.1"), 1,
    ),
}


@dataclass(frozen=True)
class Input:
    """One generated input file and what its checks need."""

    path: str
    out_path: str
    reference: object  # canonical form of the input, extracted in set-up

    def argv(self, wl):
        return [wl.subcommand, self.path, *wl.op_args, "-o", self.out_path]


def make_inputs(wl, seed, workdir, tag="net"):
    """Write the workload's input files for ``seed``; same seed, same bytes."""
    seeds = np.random.default_rng([seed, wl.index]).integers(
        0, 2**31 - 1, size=wl.n_networks
    )
    inputs = []
    for k, s in enumerate(seeds):
        net = random_network(
            seed=int(s),
            d=3,
            n_terminals=wl.n_terminals,
            n_interior=wl.n_interior,
            mass_fraction=0.5,
        )
        path = os.path.join(workdir, f"{wl.name}_{tag}{k}.json")
        if wl.name == "wide_synth":
            reference = extract_canonical(assemble(net))
            write_json(path, canonical_to_dict(reference))
        else:
            write_json(path, network_to_dict(net))
            reference = extract_canonical(assemble(net), check=False)
        out_path = os.path.join(workdir, f"{wl.name}_{tag}{k}.out.json")
        inputs.append(Input(path, out_path, reference))
    return inputs


def check_output(wl, inp, rc, data, realized):
    """Check one op's exit code and output; returns (ok, worst_rel_err, why).

    For ``roundtrip`` and ``wide_synth`` the worst error is the larger of
    the program's own verification and the realization check. ``realized``
    maps an input and the digest of its output to the realization check,
    which is made once per distinct output.
    """
    if rc != 0:
        return False, None, f"exit code {rc}"
    try:
        out = json.loads(data)
    except ValueError as exc:
        return False, None, f"output is not JSON ({exc})"
    if wl.name == "sweep":
        return _check_sweep(wl, inp, out)
    if wl.name == "roundtrip" and out.get("pass") is not True:
        return False, None, "roundtrip reports pass = false"
    err = out.get("verification", {}).get("max_rel_error")
    if not isinstance(err, float) or not err <= CHECK_TOL:
        return False, err, f"verification max_rel_error {err!r} > {CHECK_TOL}"
    key = (inp.path, hashlib.sha256(data).digest())
    if key not in realized:
        realized[key] = _check_realization(inp.reference, out)
    real = realized[key]
    if not real <= CHECK_TOL:
        return False, real, f"realized network deviates from the input by {real:.3e}"
    return True, max(err, real), ""


def _check_realization(reference, out):
    """Worst relative deviation of the written network from the input form.

    The network is read back from the output and evaluated component by
    component at ``REALIZATION_POINTS``; the reference is the canonical
    form of the input, extracted in set-up. This does not rely on the
    program's own verification.
    """
    obj = out["network"] if "network" in out else {
        k: v for k, v in out.items() if k != "verification"
    }
    gn = generalized_from_dict(obj)
    worst = 0.0
    for lam in REALIZATION_POINTS:
        got = evaluate_generalized(gn, lam).W.a
        want = evaluate_canonical(reference, lam).W.a
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)
        worst = max(worst, float(rel))
    return worst


def _check_sweep(wl, inp, entries):
    """Compare W at every SWEEP_CHECK_STRIDE-th point with the canonical form.

    The canonical form was extracted in set-up, so this is an independent
    path from the Schur solves that ``respond`` makes.
    """
    count = int(wl.op_args[wl.op_args.index("--omega") + 3])
    if not isinstance(entries, list) or len(entries) != count:
        return False, None, f"expected {count} sweep entries"
    worst = 0.0
    for entry in entries[::SWEEP_CHECK_STRIDE]:
        if entry.get("at_resonance"):
            return False, None, f"unexpected resonance at {entry['lambda']}"
        lam = complex(*entry["lambda"])
        got = np.array([[complex(*v) for v in row] for row in entry["W"]])
        want = evaluate_canonical(inp.reference, lam).W.a
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)
        worst = max(worst, float(rel))
    if not worst <= CHECK_TOL:
        return False, worst, f"W deviates from the canonical form by {worst:.3e}"
    return True, worst, ""
