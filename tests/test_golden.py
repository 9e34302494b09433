"""Byte-exact golden outputs of the ``elastonet`` command.

Every case writes its input files from seeded ``random_network`` calls or
small hand-built networks, runs ``cli.main`` and compares the exit code,
the bytes of the output file and the text on stderr with the files in
``tests/golden``: ``<case>.out`` holds the output file (absent when the
command writes none), ``<case>.err`` holds stderr (absent when empty).

Regenerate the files after an intended output change with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from elastonet import (
    ElastodynamicNetwork,
    Node,
    RayleighParams,
    Spring,
    assemble,
    canonical_to_dict,
    extract_canonical,
    network_to_dict,
    random_network,
)
from elastonet.cli import main
from elastonet.jsonio import write_json

import golden_drift
import output_digest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _random(seed, d, mass_fraction=0.5):
    return random_network(seed, d, 2, 3, mass_fraction)


def _terminal_plus_mass():
    # undamped, sigma = 1: lambda = i is exactly resonant
    nodes = (Node((0.0, 0.0), 0.0, True), Node((1.0, 0.0), 1.0, False))
    return ElastodynamicNetwork(2, nodes, (Spring(0, 1, 1.0),))


def _collinear_chain():
    # a mechanism: the massless middle node floats transversally
    nodes = (
        Node((0.0, 0.0), 0.0, True),
        Node((1.0, 0.0), 0.0, False),
        Node((2.0, 0.0), 0.0, True),
    )
    return ElastodynamicNetwork(
        2, nodes, (Spring(0, 1, 1.0), Spring(1, 2, 1.0)), RayleighParams(0.5, 0.2)
    )


def _network(net):
    return lambda: network_to_dict(net)


def _canonical(net, edit=None):
    def build():
        obj = canonical_to_dict(extract_canonical(assemble(net)))
        if edit is not None:
            edit(obj)
        return obj

    return build


def _negative_sigma(obj):
    obj["modes"][0]["sigma"] = -1.0


def _negated_residue(obj):
    obj["modes"][0]["R"] = [[-v for v in row] for row in obj["modes"][0]["R"]]


def _unknown_field(obj):
    obj["nodes"][0]["color"] = "red"
    return obj


# name -> (input builder or None, argv after the input file, expected exit)
CASES = {
    "respond_d2_linear": (
        _network(_random(11, 2)), ["respond", "--omega", "0.5", "5", "4"], 0,
    ),
    "respond_d3_log": (
        _network(_random(12, 3)),
        ["respond", "--omega", "0.1", "10", "3", "--scale", "log"], 0,
    ),
    "respond_lam_resonant": (
        _network(_terminal_plus_mass()),
        ["respond", "--lam", "0,1", "--lam", "0.5,0.5"], 0,
    ),
    "extract": (_network(_random(13, 2)), ["extract", "--seed", "3"], 0),
    "characterize_network": (_network(_random(14, 3)), ["characterize"], 0),
    "characterize_negative_sigma": (
        _canonical(_random(15, 2), _negative_sigma), ["characterize"], 1,
    ),
    "synthesize_pass": (
        _canonical(_random(16, 2)), ["synthesize", "--seed", "5", "--samples", "20"], 0,
    ),
    "synthesize_inadmissible": (
        _canonical(_random(15, 2), _negated_residue), ["synthesize"], 5,
    ),
    "roundtrip_d2": (_network(_random(17, 2)), ["roundtrip", "--seed", "9"], 0),
    "roundtrip_d3": (
        _network(_random(18, 3)), ["roundtrip", "--seed", "2", "--samples", "20"], 0,
    ),
    "roundtrip_mechanism": (_network(_collinear_chain()), ["roundtrip"], 0),
    "roundtrip_all_massive": (
        _network(_random(19, 2, mass_fraction=1.0)), ["roundtrip", "--seed", "4"], 0,
    ),
    "loci_undamped": (None, ["loci", "--alpha", "0", "--beta", "0", "--points", "9"], 0),
    "loci_node_damping_only": (
        None, ["loci", "--alpha", "0", "--beta", "1.5", "--points", "9"], 0,
    ),
    "loci_dashpot_only": (
        None, ["loci", "--alpha", "0.7", "--beta", "0", "--points", "9"], 0,
    ),
    "loci_underdamped_mixed": (
        None, ["loci", "--alpha", "0.5", "--beta", "0.8", "--points", "9"], 0,
    ),
    "loci_overdamped_mixed": (
        None, ["loci", "--alpha", "1.5", "--beta", "2", "--points", "9"], 0,
    ),
    "schema_error": (
        lambda: _unknown_field(network_to_dict(_random(11, 2))),
        ["respond", "--lam", "0,1"], 2,
    ),
}


def run_case(name, workdir):
    """Run one case in ``workdir``; returns (exit, output bytes or None, stderr)."""
    build, args, _ = CASES[name]
    argv = [args[0]]
    if build is not None:
        path = Path(workdir) / f"{name}.in.json"
        write_json(path, build())
        argv.append(str(path))
    out = Path(workdir) / f"{name}.out"
    argv += args[1:] + ["-o", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, (out.read_bytes() if out.exists() else None), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("ELASTONET_SEED", raising=False)
    code, out, err = run_case(name, tmp_path)
    assert code == CASES[name][2]
    out_file, err_file = GOLDEN / f"{name}.out", GOLDEN / f"{name}.err"
    assert out == (out_file.read_bytes() if out_file.exists() else None)
    assert err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")


def test_golden_directory_has_no_stale_files():
    expected = {f"{name}.{ext}" for name in CASES for ext in ("out", "err")}
    assert {p.name for p in GOLDEN.iterdir()} <= expected


def _set_error(payload, value):
    payload["verification"]["max_rel_error"] = value


def _nudge_sigma(payload):
    payload["canonical"]["modes"][0]["sigma"] *= 1.0 + 2e-12


def _flip_pass(payload):
    payload["pass"] = False


# a worst round-trip error is rounding and may move while it stays at most
# BOUND; every other number and every flag is held as tightly as before
@pytest.mark.parametrize(
    "edit,ok",
    [
        (lambda p: _set_error(p, 4e-15), True),
        (lambda p: _set_error(p, 1e-12), True),
        (lambda p: _set_error(p, 2e-12), False),
        (_nudge_sigma, False),
        (_flip_pass, False),
    ],
    ids=["error 4e-15", "error 1e-12", "error 2e-12", "sigma moved", "pass flipped"],
)
def test_drift_bounds_max_rel_error_absolutely(tmp_path, edit, ok):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        shutil.copy(GOLDEN / "roundtrip_d2.out", d)
    payload = json.loads((new / "roundtrip_d2.out").read_text())
    edit(payload)
    write_json(new / "roundtrip_d2.out", payload)
    lines, passed = golden_drift.compare(old, new)
    assert passed is ok, lines


def _a_psd(payload, low):
    condition = payload["characterization"]["conditions"]["A_psd"]
    condition["witness"] = f"A min eigenvalue {low:.3e}"
    condition["worst_violation"] = max(0.0, -low)


def _a_psd_line():
    """The A_psd tolerance at the scale of roundtrip_d2's ``A``."""
    payload = json.loads((GOLDEN / "roundtrip_d2.out").read_text())
    scale = golden_drift.condition_scales("roundtrip_d2", payload)["A_psd"]
    return golden_drift.DEFAULT_TOL * max(1.0, scale)


def _rename_witness(payload):
    condition = payload["characterization"]["conditions"]["A_psd"]
    condition["witness"] = condition["witness"].replace("min", "smallest")


def _flip_a_psd(payload):
    payload["characterization"]["conditions"]["A_psd"]["pass"] = False


# a PSD witness is rounding of the matrix it tests: it may move within
# BOUND of that matrix's scale, but its text, its side of the condition's
# tolerance and its pass flag are held
@pytest.mark.parametrize(
    "edit_old,edit_new,ok",
    [
        (None, lambda p: _a_psd(p, -2.313e-16), True),
        (None, lambda p: _a_psd(p, 1.074e-18), True),
        (None, lambda p: _a_psd(p, -1e-11), False),
        (None, _rename_witness, False),
        (
            lambda p: _a_psd(p, -_a_psd_line() * (1.0 - 1e-9)),
            lambda p: _a_psd(p, -_a_psd_line() * (1.0 + 1e-9)),
            False,
        ),
        (None, _flip_a_psd, False),
    ],
    ids=["rounding", "rounding across zero", "beyond the scale", "text changed",
         "across the tolerance", "pass flipped"],
)
def test_drift_bounds_witnesses_by_matrix_scale(tmp_path, edit_old, edit_new, ok):
    old, new = tmp_path / "old", tmp_path / "new"
    for d, edit in ((old, edit_old), (new, edit_new)):
        d.mkdir()
        payload = json.loads((GOLDEN / "roundtrip_d2.out").read_text())
        if edit is not None:
            edit(payload)
        write_json(d / "roundtrip_d2.out", payload)
    lines, passed = golden_drift.compare(old, new)
    assert passed is ok, lines


def test_drift_reads_the_scale_from_the_golden_input(tmp_path):
    # a characterize report holds no canonical form: the scale of A comes
    # from the input the case builds
    old, new = tmp_path / "old", tmp_path / "new"
    name = "characterize_negative_sigma.out"
    for d, low in ((old, -4.306e-19), (new, -1.042e-16)):
        d.mkdir()
        payload = json.loads((GOLDEN / name).read_text())
        payload["conditions"]["A_psd"]["witness"] = f"A min eigenvalue {low:.3e}"
        payload["conditions"]["A_psd"]["worst_violation"] = -low
        write_json(d / name, payload)
    lines, passed = golden_drift.compare(old, new)
    assert passed, lines
    assert "worst 2.36e-16 relative" in lines[0], lines


# characterize_network's static response vanishes: |W(0)| is 5.2e-15, itself
# rounding, so the static witnesses are bounded by the scale of the terms
# A and R_j/sigma_j that W(0) is rounded at
@pytest.mark.parametrize("drift,ok", [(1e-14, True), (1e-11, False)],
                         ids=["rounding of the terms", "beyond the scale"])
def test_drift_bounds_static_witnesses_by_the_terms_of_w0(tmp_path, drift, ok):
    name = "characterize_network.out"
    payload = json.loads((GOLDEN / name).read_text())
    scale = golden_drift.condition_scales("characterize_network", payload)["static_psd"]
    assert scale > 1e14 * float(payload["conditions"]["static_psd"]["worst_violation"])
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        shutil.copy(GOLDEN / name, d)
    condition = payload["conditions"]["static_psd"]
    low = float(condition["witness"].split()[-1]) + drift * scale
    condition["witness"] = f"W(0) min eigenvalue {low:.3e}"
    condition["worst_violation"] = max(0.0, -low)
    write_json(new / name, payload)
    lines, passed = golden_drift.compare(old, new)
    assert passed is ok, lines


def test_digest_compare_names_changed_exit_codes(tmp_path, capsys):
    old = {
        "net a": {"respond": {"exit": 1, "sha256": None}, "extract": {"exit": 0, "sha256": "x"}},
        "net b": {"roundtrip": {"exit": 0, "sha256": "y"}},
    }
    new = json.loads(json.dumps(old))
    new["net a"]["extract"]["sha256"] = "z"
    assert output_digest.compare(old, new) == (
        ["3 runs: 0 exit codes changed, 1 outputs changed"], True
    )
    new["net a"]["respond"] = {"exit": 0, "sha256": "w"}
    del new["net b"]["roundtrip"]
    files = []
    for k, digest in enumerate((old, new)):
        files.append(tmp_path / f"{k}.json")
        files[-1].write_text(json.dumps(digest))
    assert output_digest.main(["--compare", *map(str, files)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "net a respond: exit 1 -> 0",
        "net b roundtrip: exit 0 -> None",
        "3 runs: 2 exit codes changed, 1 outputs changed",
    ]
    assert output_digest.main(["--compare", str(files[0]), str(files[0])]) == 0


def regenerate():
    os.environ.pop("ELASTONET_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            code, out, err = run_case(name, workdir)
            if code != CASES[name][2]:
                raise SystemExit(f"{name}: exit {code}, expected {CASES[name][2]}")
            if out is not None:
                (GOLDEN / f"{name}.out").write_bytes(out)
            if err:
                (GOLDEN / f"{name}.err").write_text(err, encoding="utf-8")
    sizes = sum(p.stat().st_size for p in GOLDEN.iterdir())
    print(json.dumps({"files": len(list(GOLDEN.iterdir())), "bytes": sizes}))


if __name__ == "__main__":
    sys.exit(regenerate())
