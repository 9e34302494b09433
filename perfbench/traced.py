"""Traced run: the real ``elastonet.cli.main(argv)`` with spans on the layers.

``traced_op`` runs the same CLI call as an untraced op. For its duration
the names that ``elastonet.cli`` calls into the layers (``model``,
``response``, ``characterize``, ``synthesize``, ``jsonio``, ``cli``) are
replaced by wrappers that record a span around every call, and the
originals are put back in a ``finally`` block. The ``check_canonical`` that
``synthesize`` makes on its own is wrapped the same way, so it shows as a
span nested in ``synthesize.synthesize``. The root span ``cli.main`` covers
the whole call. The output file must equal the untraced op's byte for byte;
the caller checks that.

Two detail spans split the time of ``synthesize.synthesize`` without taking
from its self time: the ``GeneralizedNetwork`` validation (its
``__post_init__``) and each ``hull_distance`` call that validation makes.

What no wrapper can split is measured by probes: extra calls made after the
root span has closed, so they never inflate it. They are
``extract_canonical(check=False)`` (extraction core against self-check) and
``evaluate_canonical`` on the sweep points (the cost of the same sweep from
the pole-residue form).
"""

import inspect
import threading
import types
from contextlib import contextmanager
from importlib import import_module
from math import comb
from time import perf_counter

import numpy as np

from elastonet import characterize, cli, jsonio, response
from elastonet.errors import AtResonance

# the package re-exports the function `synthesize` under the module's name
synthesize = import_module("elastonet.synthesize")

LAYERS = ("cli", "jsonio", "model", "response", "characterize", "synthesize", "geometry")

# span name -> the name in `elastonet.cli` wrapped for the op; `cli.jsonio`
# is swapped for a copy of the module with JSONIO_NAMES wrapped, so only the
# CLI's own calls into `jsonio` are traced
CLI_NAMES = {
    "cli._write": "_write",
    "model.network_from_dict": "network_from_dict",
    "model.assemble": "assemble",
    "response.eliminate_massless": "eliminate_massless",
    "response.evaluate_reduced": "evaluate_reduced",
    "response.extract_canonical": "extract_canonical",
    "response.canonical_to_dict": "canonical_to_dict",
    "response.canonical_from_dict": "canonical_from_dict",
    "characterize.check_canonical": "check_canonical",
    "synthesize.synthesize": "synthesize",
    "synthesize.verify_synthesis": "verify_synthesis",
    "synthesize.generalized_to_dict": "generalized_to_dict",
}
JSONIO_NAMES = ("load_json", "dumps_canonical", "matrix_pairs")
# spans that do not count against their parent's self time
DETAIL = ("synthesize.GeneralizedNetwork", "geometry.hull_distance")

# every span the traced ops can record; each gets `<span>.s` (inclusive
# time per op) and `<span>.share` (self time over the root span)
SPANS = (
    "cli.main",
    "cli.parse_args",
    "cli._write",
    "jsonio.load_json",
    "jsonio.dumps_canonical",
    "jsonio.matrix_pairs",
    "model.network_from_dict",
    "model.assemble",
    "response.eliminate_massless",
    "response.evaluate_reduced",
    "response.extract_canonical",
    "response.canonical_to_dict",
    "response.canonical_from_dict",
    "characterize.check_canonical",
    "characterize.CharacterizationReport.to_dict",
    "synthesize.synthesize",
    "synthesize.verify_synthesis",
    "synthesize.generalized_to_dict",
)

# name -> unit of every per-layer metric
PER_LAYER_UNITS = {}
for _span in SPANS:
    PER_LAYER_UNITS[f"{_span}.s"] = "s"
    PER_LAYER_UNITS[f"{_span}.share"] = "frac"
PER_LAYER_UNITS.update(
    {
        "response.extract_canonical.core_s": "s",
        "response.extract_canonical.selfcheck_s": "s",
        "response.modes": "count",
        "response.evaluate_reduced.s_per_point": "s",
        "response.evaluate_reduced.points": "count",
        "response.at_resonance": "count",
        "response.evaluate_canonical.s_per_point": "s",
        "model.dof": "count",
        "characterize.check_canonical.grid_points": "count",
        "synthesize.GeneralizedNetwork.s": "s",
        "synthesize.construct_s": "s",
        "synthesize.components": "count",
        "synthesize.internal_nodes": "count",
        "synthesize.verify_synthesis.component_evals": "count",
        "synthesize.verify_synthesis.s_per_component_eval": "s",
        "geometry.hull_distance.s_per_call": "s",
        "geometry.hull_subsets": "count",
        "jsonio.bytes_out": "bytes",
        "trace.overhead_frac": "frac",
    }
)
PER_LAYER_UNITS.update({f"{layer}.errors": "count" for layer in LAYERS})


class Tracer:
    """In-memory spans: name, parent, start, end, and what the call raised.

    Each thread keeps its own stack of open spans, so a span opened in a
    worker thread (``respond --jobs``) has no parent and does not count
    against the self time of the span that started the pool. Nor do the
    ``DETAIL`` spans count against their parent's.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"name": name, "parent": stack[-1] if stack else None,
               "start": perf_counter(), "end": None, "raised": None}
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            yield
        except BaseException as exc:
            rec["raised"] = type(exc)
            raise
        finally:
            rec["end"] = perf_counter()
            stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn, seen=None):
        """``fn`` with a span; ``seen`` collects (bound arguments, result)."""
        sig = inspect.signature(fn) if seen is not None else None

        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if seen is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.append((bound, out))
            return out

        return traced

    def totals(self):
        """name -> [inclusive s, self s, calls, errors, AtResonance raised]."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None and rec["name"] not in DETAIL:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for rec, covered in zip(self.spans, child):
            t = out.setdefault(rec["name"], [0.0, 0.0, 0, 0, 0])
            dur = rec["end"] - rec["start"]
            t[0] += dur
            t[1] += dur - covered
            t[2] += 1
            if rec["raised"] is AtResonance:
                t[4] += 1  # a resonant sweep point is an outcome, not an error
            elif rec["raised"] is not None:
                t[3] += 1
        return out


# (owner, attribute, span name) of every other call wrapped for an op: the
# admissibility check `synthesize` makes itself, and the two detail spans
WRAPPED = (
    *((cli, attr, name) for name, attr in CLI_NAMES.items()),
    (synthesize, "check_canonical", "characterize.check_canonical"),
    (synthesize, "hull_distance", "geometry.hull_distance"),
    (synthesize.GeneralizedNetwork, "__post_init__", "synthesize.GeneralizedNetwork"),
    (characterize.CharacterizationReport, "to_dict",
     "characterize.CharacterizationReport.to_dict"),
)


@contextmanager
def _patched(tr, seen):
    """Wrap the layer calls of ``elastonet.cli`` for the duration of one op."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    saved += [(cli, "jsonio", cli.jsonio), (cli, "build_parser", cli.build_parser)]
    try:
        for (owner, attr, name), (_, _, fn) in zip(WRAPPED, saved):
            setattr(owner, attr, tr.wrap(name, fn, seen.get(name)))
        proxy = types.ModuleType(jsonio.__name__)
        proxy.__dict__.update(vars(jsonio))
        for attr in JSONIO_NAMES:
            name = f"jsonio.{attr}"
            setattr(proxy, attr, tr.wrap(name, getattr(jsonio, attr), seen.get(name)))
        cli.jsonio = proxy
        build = cli.build_parser

        def build_parser():
            parser = build()
            parser.parse_args = tr.wrap("cli.parse_args", parser.parse_args)
            return parser

        cli.build_parser = build_parser
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def _hull_subsets(calls):
    """Subsets the ``hull_distance`` calls enumerated, computed from their
    arguments: every subset of 2 to d+1 hull points, unless ``x`` is one."""
    total = 0
    for bound, _ in calls:
        x, pts = bound.arguments["x"], np.atleast_2d(bound.arguments["points"])
        n, d = pts.shape
        if np.sqrt(((pts - x) ** 2).sum(-1)).min() > 0.0:
            total += sum(comb(n, size) for size in range(2, min(n, d + 1) + 1))
    return total


def traced_op(argv, reference=None):
    """One traced op; returns (exit code, per-layer metrics of this op)."""
    tr = Tracer()
    # calls whose arguments or results the metrics and probes need
    seen = {name: [] for name in (
        "model.assemble", "response.evaluate_reduced", "response.extract_canonical",
        "response.canonical_from_dict", "synthesize.synthesize",
        "synthesize.verify_synthesis", "jsonio.dumps_canonical",
        "geometry.hull_distance",
    )}
    with _patched(tr, seen):
        with tr.span("cli.main"):
            rc = cli.main(argv)

    def last(name):
        return seen[name][-1] if seen[name] else (None, None)

    probe = Tracer()
    bound, cr = last("response.extract_canonical")
    if bound is not None:
        core = dict(bound.arguments, check=False)
        probe.call("response.extract_canonical.core", response.extract_canonical, **core)
    else:
        cr = last("response.canonical_from_dict")[1]
    gn = last("synthesize.synthesize")[1]
    points = [b.arguments["lam"] for b, _ in seen["response.evaluate_reduced"]]
    if reference is not None:
        for lam in points:
            probe.call("response.evaluate_canonical", response.evaluate_canonical,
                       reference, lam)

    sys_ = last("model.assemble")[1]
    verify = last("synthesize.verify_synthesis")[0]
    ctx = {
        "dof": sys_.order if sys_ is not None else 0,
        "points": len(points),
        "bytes_out": sum(len(text.encode("utf-8"))
                         for _, text in seen["jsonio.dumps_canonical"]),
        "samples": verify.arguments["n_samples"] if verify is not None else 0,
        "hull_subsets": _hull_subsets(seen["geometry.hull_distance"]),
    }
    return rc, _layer_metrics(tr, probe, ctx, cr, gn, reference)


def _layer_metrics(tr, probe, ctx, cr, gn, reference):
    spans, probes = tr.totals(), probe.totals()
    root = spans["cli.main"][0]
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in SPANS:
        inclusive, own = spans.get(name, (0.0, 0.0))[:2]
        m[f"{name}.s"] = inclusive
        m[f"{name}.share"] = own / root
    for name, t in list(spans.items()) + list(probes.items()):
        m[f"{name.split('.')[0]}.errors"] += t[3]

    def probed(name):
        return probes.get(name, (0.0,))[0]

    if "response.extract_canonical.core" in probes:
        core = probed("response.extract_canonical.core")
        m["response.extract_canonical.core_s"] = core
        m["response.extract_canonical.selfcheck_s"] = (
            spans["response.extract_canonical"][0] - core
        )
    form = cr if cr is not None else reference
    m["response.modes"] = len(form.modes) if form is not None else 0
    checks = spans.get("characterize.check_canonical", (0.0, 0.0, 0))[2]
    m["characterize.check_canonical.grid_points"] = (
        checks * 2 * characterize.PASSIVITY_GRID_POINTS
    )
    m["model.dof"] = ctx["dof"]
    m["jsonio.bytes_out"] = ctx["bytes_out"]

    evals = spans.get("response.evaluate_reduced")
    if evals:
        m["response.evaluate_reduced.points"] = ctx["points"]
        m["response.evaluate_reduced.s_per_point"] = evals[0] / evals[2]
        m["response.at_resonance"] = evals[4]
    canon = probes.get("response.evaluate_canonical")
    if canon:
        m["response.evaluate_canonical.s_per_point"] = canon[0] / canon[2]

    if gn is not None:
        validate = spans["synthesize.GeneralizedNetwork"][0]
        m["synthesize.GeneralizedNetwork.s"] = validate
        # self time of `synthesize` holds construction and validation; the
        # admissibility check it makes is a child span
        m["synthesize.construct_s"] = spans["synthesize.synthesize"][1] - validate
        m["synthesize.components"] = len(gn.components)
        m["synthesize.internal_nodes"] = sum(
            len(c.internal_positions) for c in gn.components
        )
        component_evals = ctx["samples"] * len(gn.components)
        m["synthesize.verify_synthesis.component_evals"] = component_evals
        m["synthesize.verify_synthesis.s_per_component_eval"] = (
            m["synthesize.verify_synthesis.s"] / max(component_evals, 1)
        )
        hull = spans.get("geometry.hull_distance")
        if hull:
            m["geometry.hull_distance.s_per_call"] = hull[0] / hull[2]
        m["geometry.hull_subsets"] = ctx["hull_subsets"]
    return m
