"""The benchmark's self-test, run as a tier-1 test.

``perfbench`` wraps names of the package (the ``cli`` imports, several
``synthesize`` attributes and the keyword arguments it reads from their
calls). Running its self-test here turns a rename of any of them into a
test failure instead of a failed benchmark run. The set-up of the
declared workloads also runs here, in process, on a few seeds, and so does
one traced op, whose span counts the per-layer metrics rest on.
"""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def perfbench_module(name):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.fixture(scope="module")
def workloads():
    return perfbench_module("workloads")


# the benchmark's set-up (inputs written, references extracted) runs
# outside its ops, so an exception there ends a run without a result
SETUP_SEEDS = {"sweep": (1, 2, 3), "roundtrip": (1, 2, 3, 4, 5)}


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name, seeds in SETUP_SEEDS.items() for seed in seeds
])
def test_benchmark_set_up_returns(workloads, name, seed, tmp_path):
    inputs = workloads.make_inputs(workloads.WORKLOADS[name], seed, str(tmp_path))
    warm = workloads.make_inputs(workloads.TINY[name], seed, str(tmp_path), tag="warm")
    assert len(inputs) == workloads.N_NETWORKS and len(warm) == 1
    for inp in inputs + warm:
        assert Path(inp.path).stat().st_size > 0 and inp.reference is not None


def test_traced_roundtrip_sees_every_hull_call_and_the_self_check(
    workloads, tmp_path, monkeypatch
):
    # the per-layer metrics read spans of wrapped names; a change that
    # bypasses a wrapped name would zero them without failing a run
    traced = perfbench_module("traced")
    tracers = []

    class Recording(traced.Tracer):
        def __init__(self):
            super().__init__()
            tracers.append(self)

    monkeypatch.setattr(traced, "Tracer", Recording)
    wl = workloads.TINY["roundtrip"]
    (inp,) = workloads.make_inputs(wl, 1, str(tmp_path))
    rc, metrics = traced.traced_op(inp.argv(wl), inp.reference)
    assert rc == 0
    hull_spans = tracers[0].totals()["geometry.hull_distance"][2]  # the op's tracer
    assert hull_spans == metrics["synthesize.internal_nodes"] > 0
    assert metrics["response.extract_canonical.selfcheck_s"] > 0
