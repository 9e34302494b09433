"""Seeded benchmark of the elastonet pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 50 --trace 0

A closed loop with one client: each op is one in-process
``elastonet.cli.main(argv)`` call on files generated from ``--seed``, and
the next op starts when the previous one has returned. The loop cycles over
the workload's networks and starts another op until ``--seconds`` have
passed, so a run overshoots its budget by at most one op. Every op's exit
code and output are checked outside the timed region (see
``workloads.check_output``), and every output must repeat byte for byte on
the same input.

``--trace 0`` prints the end-to-end metrics. Op time is declared as
``op_p50_ref``, the median op time in units of a fixed reference kernel
timed between ops (see ``make_reference``); the op times in seconds and the
throughput are printed beside it. ``--trace 1`` alternates
untraced cycles with traced ones (``traced.traced_op``) and prints the
per-layer metrics, each the median over the traced ops; every traced op
must write the same bytes as the untraced op on its input.

Human-readable lines, including provenance, come first; the last line of
standard output is the JSON result
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The exit code is 0 whenever a result was printed, and 2 when the program's
sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 5
BLAS_THREADS = 1
REF_ORDER = 200  # the dense eigenproblem of the reference kernel
REF_REPS = 6
REF_SMALL = 1200  # small solves of the reference kernel

END_TO_END_UNITS = {
    "op_p50_ref": "ref",
    "err_digits": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("roundtrip", "sweep", "wide_synth"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one small network per workload (self-test load)")
    return p.parse_args(argv)


def blas_threads(numpy):
    """Thread count OpenBLAS reports at run time, or None if none is found.

    Looks only in numpy's own bundled libraries (``numpy.libs``).
    """
    import ctypes

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit():
    """``git rev-parse HEAD`` of the checkout, or None if it is not a git tree.

    A git tree that only encloses the checkout does not count.
    """
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
    }


def make_reference(numpy):
    """Fixed numpy work, timed between ops; returns a function giving seconds.

    On a shared host the speed of a core drifts by tens of per cent over
    minutes, so op times in seconds from runs minutes apart differ by more
    than any useful bound. Divided by the time of this kernel, measured just
    before and just after the op, most of that drift cancels. Like the ops,
    the kernel mixes dense LAPACK work (a symmetric eigenproblem) with many
    small solves whose cost is mostly call overhead; mixed, it follows the
    ops' times better than either part alone. It calls only numpy, so no
    change to elastonet can move it.
    """
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((REF_ORDER, REF_ORDER))
    a = a @ a.T
    small = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             + 4 * n * numpy.eye(n) for n in (3, 6, 9, 12)]
    rhs = [rng.standard_normal(m.shape[0]) for m in small]

    def reference():
        t0 = perf_counter()
        for _ in range(REF_REPS):
            numpy.linalg.eigh(a)
        for k in range(REF_SMALL):
            numpy.abs(numpy.linalg.solve(small[k % 4], rhs[k % 4])).max()
        return perf_counter() - t0

    return reference


class Runner:
    """Runs and checks ops; keeps the first output digest of every input."""

    def __init__(self, wl, cli, workloads):
        self.wl, self.cli, self.w = wl, cli, workloads
        self.attempted = 0
        self.failures = []
        self.worst_err = 0.0
        self.digests = {}
        self.runs = {}
        self.realized = {}  # output digest -> realization check
        self.check_s = 0.0  # time spent checking outputs

    def _begin(self, inp):
        self.attempted += 1
        if os.path.exists(inp.out_path):
            os.remove(inp.out_path)

    def _fail(self, inp, why):
        self.failures.append(f"{os.path.basename(inp.path)}: {why}")

    def _finish(self, inp, rc, wl, warmup=False):
        """Check an op that has returned; the caller has stopped its clock."""
        t0 = perf_counter()
        try:
            return self._check(inp, rc, wl, warmup)
        finally:
            self.check_s += perf_counter() - t0

    def _check(self, inp, rc, wl, warmup):
        try:
            with open(inp.out_path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self._fail(inp, f"no output ({exc})")
            return False
        try:
            ok, err, why = self.w.check_output(wl, inp, rc, data, self.realized)
        except Exception:  # an output the checks cannot read is a failed op
            ok, err = False, None
            why = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if err is not None and not warmup:
            self.worst_err = max(self.worst_err, err)
        if not ok:
            self._fail(inp, why)
            return False
        sha = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(inp.path, sha)
        self.runs[inp.path] = self.runs.get(inp.path, 0) + 1
        if sha != first:
            self._fail(inp, "output differs from an earlier op on the same input")
            return False
        return True

    def op(self, inp, wl=None, warmup=False):
        """One untraced op; returns (seconds, ok).

        A warm-up op is checked, but its error stays out of ``worst_err``:
        set-up is not part of the measured load.
        """
        wl = wl or self.wl
        self._begin(inp)
        t0 = perf_counter()
        try:
            rc = self.cli.main(inp.argv(wl))
        except Exception:  # a crash is a failed op, not a failed benchmark
            dt = perf_counter() - t0
            self._fail(inp, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return dt, False
        dt = perf_counter() - t0
        return dt, self._finish(inp, rc, wl, warmup)

    def traced(self, inp, traced_op):
        """One traced op; returns its per-layer metrics, or None on failure."""
        self._begin(inp)
        try:
            rc, metrics = traced_op(inp.argv(self.wl), inp.reference)
        except Exception:
            self._fail(inp, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        return metrics if self._finish(inp, rc, self.wl) else None


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "elastonet" / "__init__.py").is_file():
        print(f"error: no elastonet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("ELASTONET_SEED", None)  # the ops pass their own seed
    sys.path.insert(0, str(ROOT / "src"))

    t0 = perf_counter()
    import numpy
    from elastonet import cli
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parents[2] != ROOT:
        print(f"error: imported elastonet from {cli.__file__}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, str(workdir), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, import_s):
    import numpy
    import traced
    import workloads
    from elastonet import cli

    tiny = workloads.TINY[args.workload]
    wl = tiny if args.tiny else workloads.WORKLOADS[args.workload]
    runner = Runner(wl, cli, workloads)

    # set-up: inputs (and for sweep/wide_synth the extraction), then one
    # warm-up op on a small network; repeated, the median reported
    setup_reps = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        inputs = workloads.make_inputs(wl, args.seed, workdir)
        warm = workloads.make_inputs(tiny, args.seed, workdir, tag="warm")[0]
        runner.op(warm, tiny, warmup=True)
        setup_reps.append(perf_counter() - t0)
    setup_s = import_s + median(setup_reps)
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ops cycle over the inputs until --seconds have passed, after at least
    # one full cycle (two with tracing: untraced and traced cycles alternate);
    # the reference kernel runs between any two ops
    reference = make_reference(numpy)
    times, ratios, refs, traced_metrics, traced_ratios = [], [], [], [], []
    n_ops = 0
    untraced_s = 0.0  # wall time of the untraced ops, checks left out
    loop_start = perf_counter()
    refs.append(reference())
    while n_ops < len(inputs) * (1 + args.trace) or (
        perf_counter() - loop_start < args.seconds
    ):
        inp = inputs[n_ops % len(inputs)]
        traced_cycle = args.trace and (n_ops // len(inputs)) % 2 == 1
        if traced_cycle:
            m = runner.traced(inp, traced.traced_op)
            if m is not None:
                traced_metrics.append(m)
        else:
            op_start, check_start = perf_counter(), runner.check_s
            dt, ok = runner.op(inp)
            times.append((dt, ok))
            untraced_s += perf_counter() - op_start - (runner.check_s - check_start)
        refs.append(reference())
        scale = 0.5 * (refs[-2] + refs[-1])
        if not traced_cycle:
            ratios.append(dt / scale)
        elif m is not None:
            traced_ratios.append(m["cli.main.s"] / scale)
        n_ops += 1
    cycles = n_ops / len(inputs)
    measured_s = perf_counter() - loop_start
    for inp in inputs:  # an input run once has not shown that it repeats
        if runner.runs.get(inp.path, 0) < 2:
            runner.op(inp)

    op_times = [dt for dt, _ in times]
    correct_ops = sum(ok for _, ok in times)
    p50 = median(op_times)
    err_digits = -math.log10(max(runner.worst_err, workloads.ERR_FLOOR))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "op_p50_ref": median(ratios),
        "err_digits": err_digits,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"provenance {json.dumps(provenance(args, numpy), sort_keys=True)}")
    print(f"workload {wl.name}: `elastonet {' '.join(inputs[0].argv(wl)[:1])} "
          f"<net> {' '.join(wl.op_args)}` on {len(inputs)} networks "
          f"({wl.n_terminals} terminals, {wl.n_interior} interior nodes), "
          f"{cycles:.2f} cycles in {measured_s:.2f} s")
    print(f"op_p50_s {p50:.6f} s (n = {len(op_times)} untraced ops: "
          f"{' '.join(f'{t:.3f}' for t in op_times)})")
    t = tail(op_times)
    print("op_tail_s " + (f"{t[1]:.6f} s (p{t[0]:.0f}, n = {len(op_times)})" if t else
                          f"undefined: n = {len(op_times)} < 11 untraced ops"))
    print(f"op_p50_ref {end_to_end['op_p50_ref']:.6f} ref (median over the "
          f"untraced ops of op time / mean time of the reference kernel just "
          f"before and after it; reference {REF_REPS} x eigh of a fixed "
          f"{REF_ORDER}x{REF_ORDER} matrix and {REF_SMALL} small solves, "
          f"median {median(refs):.4f} s "
          f"over {len(refs)} runs)")
    print(f"ops_per_s {correct_ops / untraced_s:.6f} 1/s "
          f"({correct_ops} correct ops / {untraced_s:.3f} s wall time of the "
          f"untraced ops, checks left out)")
    print(f"err_digits {err_digits:.4f} digits (worst relative error "
          f"{runner.worst_err:.3e} over the {runner.attempted - SETUP_REPS} "
          f"checked ops after set-up, program's verification and "
          f"benchmark's own check)")
    print(f"failed_frac {len(runner.failures) / runner.attempted:.6f} "
          f"({len(runner.failures)} / {runner.attempted} attempted)")
    print(f"setup_s {setup_s:.6f} s (import {import_s:.4f} s + median of "
          f"{SETUP_REPS} set-ups {[round(s, 4) for s in setup_reps]})")
    print(f"peak_rss_mb {peak_rss_mb:.2f} MB (peak of the whole process; "
          f"{setup_rss_mb:.2f} MB already at the end of set-up)")
    for why in runner.failures[:10]:
        print(f"FAILED {why}")

    if args.trace:
        units = traced.PER_LAYER_UNITS
        metrics = {name: median([m[name] for m in traced_metrics]) for name in units}
        if traced_ratios:  # both in reference units, so host drift cancels
            overhead = median(traced_ratios) / median(ratios) - 1.0
            metrics["trace.overhead_frac"] = overhead
        shares = {n[:-6]: v for n, v in metrics.items() if n.endswith(".share")}
        top = max(shares, key=shares.get)
        print(f"traced ops: {len(traced_metrics)}; largest self-time share "
              f"{top} {shares[top]:.3f} of cli.main.s {metrics['cli.main.s']:.4f} s")
        for name in sorted(metrics):
            print(f"  {name} {metrics[name]:.6g} {units[name]}")
    else:
        units = END_TO_END_UNITS
        metrics = end_to_end

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
