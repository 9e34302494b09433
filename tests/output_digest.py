"""Digest the CLI's outputs on a fixed set of networks.

Usage::

    PYTHONPATH=src python tests/output_digest.py OUT.json
    PYTHONPATH=/path/to/other/checkout/src python tests/output_digest.py OTHER.json
    PYTHONPATH=src python tests/output_digest.py --compare OTHER.json OUT.json

The package is imported from ``PYTHONPATH``, so this one script digests any
checkout. For each network it runs ``extract``, ``characterize``,
``respond``, ``synthesize`` (on the extracted form), ``synthesize
--forbidden`` (the same form, forbidding the internal node positions of the
plain synthesis and the centroid of the terminals, so that placement must
redraw) and ``roundtrip`` in process through ``elastonet.cli.main``, and
writes the exit code and the
sha256 of the output file of each run. Two checkouts whose files are equal
write byte-identical outputs on every run. ``--compare OLD.json NEW.json``
names every run whose exit code changed (or that only one digest holds),
counts the runs whose output changed, and exits 1 when an exit code
changed: a change of numerical method may move output bits but no exit
code. Run both with the same BLAS thread count (for example
``OPENBLAS_NUM_THREADS=1``).

The networks are ``random_network(s, d, 3, 6, mf)`` for s = 0..23, d = 2, 3
and mf = 0, 0.5, 1, the near-floppy networks of
``tests/test_response.py::test_near_floppy_network_extracts``, a network
file whose spring list repeats springs and reverses their ends,
``random_network(s, d, 3, 3, mf)`` for s = 0..4 with its nodes shuffled
(``conftest.shuffled_nodes(net, s)``), so that terminals follow interior
nodes, and the benchmark-size networks ``random_network(s, 3, 6, 60, 0.5)``
for s = 0..3 (the size of a benchmark roundtrip input, 90 or so gadgets a
synthesis) and ``random_network(s, 3, 16, 6, 0.5)`` for s = 0, 1 (16
terminals). The benchmark-size networks are also synthesized at
``--epsilon 0.02`` and ``--epsilon 2.0``, so that placement and the hull
test decide away from the default neighborhood. That makes 1,122 runs,
about 20 s on one core. The 158-node
``random_network(5, 3, 8, 150, 0.5)``, the size of a benchmark sweep input
(474 degrees of freedom, half its interior nodes massless), gets four more
runs: a ``respond`` sweep of 50 points, ``extract``, ``roundtrip``, and a
``respond`` sweep over ``--omega 1e-6 1e9 400 --scale log``, whose entries
of W fall on both sides of the float writer's switches of notation at 1e16
and 1e-4. Last, ``loci --alpha 0.05 --beta 0.5 --points 20000`` writes
60,000 floats of CSV through the same formatter. Pytest does not collect
this file.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from elastonet import network_to_dict, random_network
from elastonet.cli import main as cli_main
from elastonet.jsonio import write_json

from conftest import shuffled_nodes

NEAR_FLOPPY_SEEDS = (1093, 1196, 1922, 1965, 2301, 1269183695)

# the benchmark-size networks, synthesized at these --epsilon values too
BENCHMARK_SIZE = {f"random_network({s}, 3, 6, 60, 0.5)" for s in range(4)}
EPSILONS = ("0.02", "2.0")


def tiny_mass():
    """``random_network(4, 2, 3, 4, 0.5)`` with one interior mass set to 1e-10."""
    net = random_network(4, 2, 3, 4, 0.5)
    k = next(k for k, n in enumerate(net.nodes) if not n.is_terminal and n.mass)
    nodes = list(net.nodes)
    nodes[k] = replace(nodes[k], mass=1e-10)
    return replace(net, nodes=tuple(nodes))


def parallel_and_reversed():
    """``random_network(6, 3, 3, 6, 0.5)`` as a file whose spring list also
    holds every third spring again with its ends swapped and every fourth
    with its stiffness halved, so reading it merges parallel springs."""
    obj = network_to_dict(random_network(6, 3, 3, 6, 0.5))
    springs = obj["springs"]
    obj["springs"] = (
        [{"i": s["j"], "j": s["i"], "k": s["k"]} for s in springs[::3]]
        + springs
        + [{**s, "k": s["k"] / 2} for s in springs[::4]]
    )
    return obj


def networks():
    """``(name, network file object)`` pairs, in a fixed order."""
    for s in range(24):
        for d in (2, 3):
            for mf in (0.0, 0.5, 1.0):
                net = random_network(s, d, 3, 6, mf)
                yield f"random_network({s}, {d}, 3, 6, {mf})", network_to_dict(net)
    for s in NEAR_FLOPPY_SEEDS:
        yield f"random_network({s}, 3, 3, 6, 0.5)", network_to_dict(random_network(s, 3, 3, 6, 0.5))
    yield "tiny_mass", network_to_dict(tiny_mass())
    yield "parallel_and_reversed", parallel_and_reversed()
    for s in range(5):
        for d in (2, 3):
            for mf in (0.0, 0.5, 1.0):
                name = f"shuffled_nodes(random_network({s}, {d}, 3, 3, {mf}), {s})"
                yield name, network_to_dict(shuffled_nodes(random_network(s, d, 3, 3, mf), s))
    for s, nt, ni in [(s, 6, 60) for s in range(4)] + [(s, 16, 6) for s in range(2)]:
        yield f"random_network({s}, 3, {nt}, {ni}, 0.5)", network_to_dict(
            random_network(s, 3, nt, ni, 0.5)
        )


def forbidden_points(network_file):
    """The internal node positions of a synthesized network file, then the
    centroid of its terminals."""
    obj = json.loads(network_file.read_text())
    points = [
        node["position"]
        for comp in obj["components"]
        for node in comp["nodes"]
        if not node["terminal"]
    ]
    terminals = obj["terminals"]
    centroid = [sum(column) / len(terminals) for column in zip(*terminals)]
    return points + [centroid]


def run(argv, out):
    """Exit code of ``cli_main(argv + ["-o", out])`` and the sha256 of ``out``,
    None when the run wrote no file."""
    out.unlink(missing_ok=True)
    code = cli_main(argv + ["-o", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return {"exit": code, "sha256": digest}


def digest(workdir):
    results = {}
    for name, obj in networks():
        net_file, canonical = workdir / "net.json", workdir / "canonical.json"
        write_json(net_file, obj)
        net_file = str(net_file)
        runs = {"extract": run(["extract", net_file], canonical)}
        runs["characterize"] = run(["characterize", net_file], workdir / "report.json")
        runs["respond"] = run(
            ["respond", net_file, "--omega", "0.1", "10", "25", "--scale", "log"],
            workdir / "responses.json",
        )
        if canonical.exists():
            network = workdir / "network.json"
            runs["synthesize"] = run(["synthesize", str(canonical)], network)
            if network.exists():
                forbidden = workdir / "forbidden.json"
                write_json(forbidden, forbidden_points(network))
                runs["synthesize --forbidden"] = run(
                    ["synthesize", str(canonical), "--forbidden", str(forbidden)], network
                )
            if name in BENCHMARK_SIZE:
                for epsilon in EPSILONS:
                    runs[f"synthesize --epsilon {epsilon}"] = run(
                        ["synthesize", str(canonical), "--epsilon", epsilon], network
                    )
        runs["roundtrip"] = run(["roundtrip", net_file], workdir / "roundtrip.json")
        canonical.unlink(missing_ok=True)
        results[name] = runs
    net_file = workdir / "sweep.json"
    write_json(net_file, network_to_dict(random_network(5, 3, 8, 150, 0.5)))
    argv = ["respond", str(net_file), "--omega", "0.1", "100", "50", "--scale", "log"]
    results["random_network(5, 3, 8, 150, 0.5)"] = {
        "respond": run(argv, workdir / "responses.json"),
        "extract": run(["extract", str(net_file)], workdir / "canonical.json"),
        "roundtrip": run(["roundtrip", str(net_file)], workdir / "roundtrip.json"),
        "respond 1e-6..1e9": run(
            ["respond", str(net_file), "--omega", "1e-6", "1e9", "400", "--scale", "log"],
            workdir / "responses.json",
        ),
    }
    argv = ["loci", "--alpha", "0.05", "--beta", "0.5", "--points", "20000"]
    results["loci"] = {"loci --points 20000": run(argv, workdir / "loci.csv")}
    return results


def compare(old, new):
    """One line per run of two digests whose exit code changed, then a count
    of the runs and of the outputs that changed; and whether no exit code
    changed."""
    runs = sorted({(net, cmd) for d in (old, new) for net in d for cmd in d[net]})
    lines, outputs = [], 0
    for net, cmd in runs:
        a, b = (d.get(net, {}).get(cmd, {"exit": None}) for d in (old, new))
        if a["exit"] != b["exit"]:
            lines.append(f"{net} {cmd}: exit {a['exit']} -> {b['exit']}")
        elif a["sha256"] != b["sha256"]:
            outputs += 1
    exits = len(lines)
    lines.append(f"{len(runs)} runs: {exits} exit codes changed, {outputs} outputs changed")
    return lines, exits == 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        lines, same = compare(*(json.loads(Path(p).read_text()) for p in argv[1:]))
        print("\n".join(lines))
        return 0 if same else 1
    if len(argv) != 1:
        print("usage: python tests/output_digest.py OUT.json | --compare OLD.json NEW.json",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        results = digest(Path(tmp))
    Path(argv[0]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
