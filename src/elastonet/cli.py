"""Command-line front end.

Subcommands::

    respond       network.json -> responses.json (Laplace/frequency sweep)
    extract       network.json -> canonical.json (pole-residue form)
    characterize  network.json | canonical.json -> report.json
    synthesize    canonical.json -> generalized_network.json (+ verification)
    loci          (alpha, beta) -> loci.csv of realizable resonances
    roundtrip     extract + characterize + synthesize + compare in one pass

Exit codes: 0 success / checks pass, 1 checks fail, 2 bad argument or a
file that cannot be read, parsed or written, 3 all sweep points resonant, 4
inconsistent floppy mode, 5 response not admissible, 6 placement failed.

All outputs are canonical JSON (sorted keys, two-space indent, shortest
round-trip floats): identical inputs and seed give byte-identical files.
The environment variable ELASTONET_SEED overrides --seed everywhere.
"""

import argparse
import os
import sys

import numpy as np

from . import jsonio
from .characterize import DEFAULT_TOL, check_canonical
from .errors import (
    AtResonance,
    ElastonetError,
    FloppyModeInconsistent,
    NotCharacterizable,
    PlacementFailed,
    SchemaError,
)
from .model import RayleighParams, assemble, network_from_dict
from .resonances import locus_table
from .response import (
    CLUSTER_TOL,
    FLOPPY_TOL,
    ROUNDTRIP_TOL,
    canonical_from_dict,
    canonical_to_dict,
    eliminate_massless,
    evaluate_reduced,
    extract_canonical,
)
from .synthesize import generalized_to_dict, synthesize, verify_synthesis

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_ALL_RESONANT = 3
EXIT_FLOPPY = 4
EXIT_NOT_CHARACTERIZABLE = 5
EXIT_PLACEMENT = 6

# Largest point count of every flag (--omega COUNT, --samples, loci --points):
# a sweep's output is held in memory until written, 1.5 kB a point for two 2-D
# terminals and 47 kB for eight 3-D ones (0.15-4.7 GB here).
MAX_SWEEP_POINTS = 100_000


def _seed(args):
    env = os.environ.get("ELASTONET_SEED")
    source, seed = "--seed", args.seed
    if env is not None:
        try:
            source, seed = "ELASTONET_SEED", int(env)
        except ValueError as exc:
            raise SchemaError(f"ELASTONET_SEED: not an integer ({env!r})") from exc
    # numpy's generators take no negative seed
    if seed < 0:
        raise SchemaError(f"{source}: must be >= 0, got {seed}")
    return seed


def _write_text(args, text):
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"{args.output}: cannot write ({exc})") from exc
    else:
        sys.stdout.write(text)


def _write(args, payload):
    _write_text(args, jsonio.dumps_canonical(payload))


def _load_network(path):
    return network_from_dict(jsonio.load_json(path))


def _sweep_points(args):
    if args.lam:
        points = []
        for k, raw in enumerate(args.lam):
            try:
                re, im = (float(v) for v in raw.split(","))
            except ValueError as exc:
                raise SchemaError(f"--lam[{k}]: expected RE,IM, got {raw!r}") from exc
            if not np.isfinite([re, im]).all():
                raise SchemaError(f"--lam[{k}]: RE and IM must be finite")
            points.append(complex(re, im))
        return points
    if args.omega is None:
        raise SchemaError("respond needs either --omega START STOP COUNT or --lam")
    start, stop, count = args.omega
    try:
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise SchemaError(
            "--omega: START and STOP must be numbers, COUNT an integer"
        ) from exc
    if not np.isfinite([start, stop]).all():
        raise SchemaError("--omega: START and STOP must be finite")
    if not 1 <= count <= MAX_SWEEP_POINTS:
        raise SchemaError(f"--omega: COUNT must lie in [1, {MAX_SWEEP_POINTS}]")
    if args.scale == "log":
        if start <= 0 or stop <= 0:
            raise SchemaError("--omega: log scale needs positive START and STOP")
        omegas = np.logspace(np.log10(start), np.log10(stop), count)
    else:
        omegas = np.linspace(start, stop, count)
    return [1j * w for w in omegas]


def cmd_respond(args):
    _check_nonnegative(args, "--tol")
    points = _sweep_points(args)
    net = _load_network(args.input)
    red = eliminate_massless(assemble(net))

    def sample(lam):
        try:
            w = evaluate_reduced(red, lam, tol=args.tol).W.a
        except AtResonance:
            return {"lambda": jsonio.complex_pair(lam), "at_resonance": True}
        return {"lambda": jsonio.complex_pair(lam), "W": jsonio.matrix_pairs(w)}

    entries = [sample(lam) for lam in points]
    _write(args, entries)
    if all(e.get("at_resonance") for e in entries):
        return EXIT_ALL_RESONANT
    return 0


def cmd_extract(args):
    _check_nonnegative(args, "--tol-floppy", "--tol-cluster")
    net = _load_network(args.input)
    cr = extract_canonical(
        assemble(net),
        tol_floppy=args.tol_floppy,
        tol_cluster=args.tol_cluster,
        seed=_seed(args),
    )
    _write(args, canonical_to_dict(cr))
    return 0


def _load_canonical_or_network(path):
    obj = jsonio.load_json(path)
    if isinstance(obj, dict) and "nodes" in obj:
        return network_from_dict(obj), None
    return None, canonical_from_dict(obj)


def cmd_characterize(args):
    _check_nonnegative(args, "--tol")
    net, cr = _load_canonical_or_network(args.input)
    if cr is None:
        cr = extract_canonical(assemble(net), seed=_seed(args))
    report = check_canonical(cr, tol=args.tol)
    _write(args, report.to_dict())
    return 0 if report.passed else EXIT_CHECK_FAILED


def _load_forbidden(path, d):
    if path is None:
        return ()
    points = jsonio.as_matrix(jsonio.load_json(path), "forbidden")
    # an empty list is no points; an empty point, as in [[]], is refused
    if len(points) and points.shape[1] != d:
        raise SchemaError(f"forbidden: expected {d} coordinates per point")
    return points


def _check_nonnegative(args, *flags):
    # NaN fails every comparison, so this also rejects nan
    for flag in flags:
        if not 0.0 <= getattr(args, flag.lstrip("-").replace("-", "_")) < np.inf:
            raise SchemaError(f"{args.command}: {flag} must be finite and >= 0")


def _check_synthesis_args(args):
    # --samples 0 would verify nothing and still report a pass
    if not 1 <= args.samples <= MAX_SWEEP_POINTS:
        raise SchemaError(f"{args.command}: --samples must lie in [1, {MAX_SWEEP_POINTS}]")
    if not 0.0 < args.epsilon < np.inf:
        raise SchemaError(f"{args.command}: --epsilon must be finite and > 0")


def _synthesize_verified(args, cr, seed, report):
    """Realize ``cr``; returns (network, verification block, passed).

    ``report`` is the characterization of ``cr``, or None to make one.
    """
    gn = synthesize(
        cr,
        epsilon_hull=args.epsilon,
        forbidden=_load_forbidden(args.forbidden, cr.dimension),
        seed=seed,
        report=report,
    )
    worst = verify_synthesis(gn, cr, n_samples=args.samples, seed=seed + 1)
    verification = {"n_lambda_samples": args.samples, "max_rel_error": float(worst)}
    return gn, verification, bool(worst <= ROUNDTRIP_TOL)


def cmd_synthesize(args):
    _check_synthesis_args(args)
    cr = canonical_from_dict(jsonio.load_json(args.input))
    gn, verification, passed = _synthesize_verified(args, cr, _seed(args), None)
    payload = generalized_to_dict(gn)
    payload["verification"] = verification
    _write(args, payload)
    return 0 if passed else EXIT_CHECK_FAILED


def cmd_loci(args):
    _check_nonnegative(args, "--alpha", "--beta")
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise SchemaError(f"loci: --points must lie in [2, {MAX_SWEEP_POINTS}]")
    try:  # each constant is finite, their sum may not be
        rayleigh = RayleighParams(args.alpha, args.beta)
    except ValueError as exc:
        raise SchemaError(f"loci: {exc}") from exc
    rows = locus_table(rayleigh, args.points)
    values = np.array([(row["re"], row["im"], row["sigma"]) for row in rows])
    texts = jsonio.float_texts(values.ravel())
    lines = ["re,im,sigma,piece_label"]
    for k, row in enumerate(rows):
        lines.append(",".join(texts[3 * k:3 * k + 3]) + "," + row["piece_label"])
    _write_text(args, "\n".join(lines) + "\n")
    return 0


def cmd_roundtrip(args):
    _check_synthesis_args(args)
    _check_nonnegative(args, "--tol")
    net = _load_network(args.input)
    seed = _seed(args)
    cr = extract_canonical(assemble(net), seed=seed)
    report = check_canonical(cr, tol=args.tol)
    payload = {
        "canonical": canonical_to_dict(cr),
        "characterization": report.to_dict(),
    }
    passed = False
    if report.passed:
        gn, payload["verification"], passed = _synthesize_verified(
            args, cr, seed, report
        )
        payload["network"] = generalized_to_dict(gn)
    payload["pass"] = passed
    _write(args, payload)
    return 0 if passed else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elastonet",
        description=(
            "Frequency response, admissibility checking and synthesis of "
            "proportionally damped mass-spring networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag shared by several subcommands is declared once, on a parent
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", help="output file (default: stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[output])
    seeded.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed (default 0; ELASTONET_SEED overrides)",
    )
    condition = argparse.ArgumentParser(add_help=False)
    condition.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help=f"condition tolerance (default {DEFAULT_TOL})",
    )
    synthesis = argparse.ArgumentParser(add_help=False)
    synthesis.add_argument(
        "--epsilon",
        type=float,
        default=0.1,
        help="allowed distance of internal nodes from the terminal hull "
        "(default 0.1)",
    )
    synthesis.add_argument("--forbidden", help="JSON file with points internal nodes avoid")
    synthesis.add_argument(
        "--samples",
        type=int,
        default=50,
        help="number of verification points (default 50)",
    )

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("respond", cmd_respond, [output], "evaluate the terminal response on a sweep")
    p.add_argument("input", help="network JSON file")
    p.add_argument(
        "--omega",
        nargs=3,
        metavar=("START", "STOP", "COUNT"),
        help="frequency sweep; evaluates lambda = i*omega",
    )
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument(
        "--lam",
        action="append",
        metavar="RE,IM",
        help="explicit complex Laplace point (repeatable; overrides --omega)",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="a point is resonant when min |q_j| <= TOL * max |q_j| over the "
        "modal characteristic polynomials (default 1e-10)",
    )

    p = command("extract", cmd_extract, [seeded], "extract the pole-residue canonical form")
    p.add_argument("input", help="network JSON file")
    p.add_argument(
        "--tol-floppy",
        type=float,
        default=FLOPPY_TOL,
        help=f"relative zero-stiffness mode threshold (default {FLOPPY_TOL})",
    )
    p.add_argument(
        "--tol-cluster",
        type=float,
        default=CLUSTER_TOL,
        help=f"relative eigenvalue clustering tolerance (default {CLUSTER_TOL})",
    )

    p = command("characterize", cmd_characterize, [seeded, condition],
                "check admissibility of a network's response or a canonical form")
    p.add_argument("input", help="network or canonical JSON file")

    p = command("synthesize", cmd_synthesize, [seeded, synthesis],
                "build a network realizing a canonical form")
    p.add_argument("input", help="canonical JSON file")

    p = command("loci", cmd_loci, [output], "emit realizable resonance loci as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--points", type=int, default=100, help="points (default 100)")

    p = command("roundtrip", cmd_roundtrip, [seeded, synthesis, condition],
                "extract, check, synthesize and compare in one pass")
    p.add_argument("input", help="network JSON file")

    return parser


# first match wins: every error type is an ElastonetError
ERROR_EXITS = (
    (SchemaError, EXIT_PARSE),
    (FloppyModeInconsistent, EXIT_FLOPPY),
    (NotCharacterizable, EXIT_NOT_CHARACTERIZABLE),
    (PlacementFailed, EXIT_PLACEMENT),
    (ElastonetError, EXIT_CHECK_FAILED),
)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ElastonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
