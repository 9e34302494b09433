"""Tiny-load self-test of the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs one op per workload on one small network, untraced and traced, and
checks that each result line is correct and names every metric declared in
``BENCHMARK.json`` (end-to-end without tracing, per-layer with it) with its
declared unit and a finite value. Exits 1 if any check fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # every workload run.py accepts, also the one BENCHMARK.json leaves out
    for workload in ("roundtrip", "sweep", "wide_synth"):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} failed ops")
            want = {m["name"]: m["unit"] for m in declared}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ by {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {entry.get('unit')!r} != {unit!r}")
                value = entry.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value!r}")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
