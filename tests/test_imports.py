"""Every module of the package uses each name it imports, raises every
error class it defines, writes JSON only through the canonical writer and
formats floats only through its vectorized formatter;
in synthesis only the direct oracle solves Schur complements,
``geometry.cross`` is the one cross product, only ``linalg`` repairs
symmetry or takes an SVD, the one ``np.ix_`` gather is the massless split
of ``eliminate_massless``, no module defines ``Mode`` or reads ``.modes``,
the network model takes no per-pair ``np.linalg.norm``, no module keeps a
block partition, only
``response`` builds a ``ReducedSystem``, one pencil helper and one
modal eigensolve remain, and the package's defaulted parameters stay
within their budget."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "elastonet"


def unused_imports(source):
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_reports_an_unused_import():
    source = "import os\nimport numpy as np\nfrom . import a, b\nprint(np.pi, b)\n"
    assert unused_imports(source) == ["a", "os"]


# __init__.py imports names only to re-export them
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unraised_errors(errors_source, sources):
    """Exception classes defined in ``errors_source`` that no ``raise`` in
    ``sources`` names."""
    defined = {
        node.name for node in ast.parse(errors_source).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(
                    n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)
                )
    return sorted(defined - raised)


def test_guard_reports_a_dead_error_class():
    errors = "class Used(Exception):\n    pass\n\n\nclass Dead(Used):\n    pass\n"
    source = "from .errors import Dead, Used\n\nraise Used('x')\nprint(Dead)\n"
    assert unraised_errors(errors, [source]) == ["Dead"]


def test_every_error_class_is_raised():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []


def json_writes(source):
    """Lines of ``source`` that call ``json.dump``/``json.dumps`` or import
    either from ``json``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(a.name in ("dump", "dumps") for a in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_reports_a_json_write():
    source = (
        "import json\nfrom json import dumps\njson.dumps({})\n"
        "json.load(fh)\nother.dumps(1)\njson.dump({}, fh)\n"
    )
    assert json_writes(source) == [2, 3, 6]


# jsonio.dumps_canonical is the one writer, so every output is canonical
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_json_write_outside_the_canonical_writer(module):
    assert json_writes((PACKAGE / module).read_text()) == []


def float_repr_uses(source):
    """Lines of ``source`` that read ``float.__repr__``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "__repr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "float"
    )


def test_guard_reports_a_float_repr():
    source = (
        "r = float.__repr__\nlist(map(float.__repr__, xs))\n"
        "int.__repr__(1)\nrepr(x)\nnp.float64.__repr__\n"
    )
    assert float_repr_uses(source) == [1, 2]


# jsonio.float_texts formats every float the package writes, JSON and CSV
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_float_repr(module):
    assert float_repr_uses((PACKAGE / module).read_text()) == []


def callers(source, name):
    """Top-level functions of ``source`` whose bodies call ``name``."""
    found = set()
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == name
                ):
                    found.add(fn.name)
    return sorted(found)


def test_guard_reports_every_caller():
    source = (
        "def a():\n    return f(1)\n\n\ndef b():\n    def inner():\n        f()\n"
        "    return inner\n\n\ndef c():\n    return g.f(), f\n"
    )
    assert callers(source, "f") == ["a", "b"]


# verification and the gadget check read modes; Schur solves stay in the oracle
def test_only_the_oracle_solves_schur_complements_in_synthesis():
    source = (PACKAGE / "synthesize.py").read_text()
    assert callers(source, "_direct_response") == ["evaluate_generalized"]


def calls_to(source, name):
    """Lines of ``source`` that call ``name``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_guard_reports_every_call():
    source = "f(1)\nx = f\nm.f(2)\ng(f)\nm.f\n"
    assert calls_to(source, "f") == [1, 3]


# a gadget seeds its modal form directly; reduction stays in one module
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_response_builds_a_reduced_system(module):
    calls = calls_to((PACKAGE / module).read_text(), "ReducedSystem")
    assert bool(calls) == (module == "response.py")


def numpy_cross_uses(source):
    """Lines of ``source`` that read ``np.cross``/``numpy.cross`` or import
    ``cross`` from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if any(a.name == "cross" for a in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "cross"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_reports_a_numpy_cross():
    source = (
        "import numpy as np\nfrom numpy import cross\nnp.cross(a, b)\n"
        "cross(a, b)\ngeometry.cross(a, b)\nf = numpy.cross\n"
    )
    assert numpy_cross_uses(source) == [2, 3, 6]


# np.cross spends most of a 3-vector call on axis handling
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_numpy_cross(module):
    assert numpy_cross_uses((PACKAGE / module).read_text()) == []


REPAIR_AND_SVD = ("symmetrized", "_sym_part", "svd")


def repair_or_svd_uses(source):
    """Lines of ``source`` that call ``symmetrized``, ``_sym_part`` or an
    ``svd``, or import one of them."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(a.name in REPAIR_AND_SVD for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in REPAIR_AND_SVD:
                lines.append(node.lineno)
    return sorted(lines)


def test_guard_reports_a_repair_or_svd():
    source = (
        "import numpy as np\nfrom numpy.linalg import svd\nfrom .linalg import _sym_part\n"
        "np.linalg.svd(a)\nlinalg.symmetrized(a)\n_sym_part(a)\n"
        "np.linalg.eigh(a)\nsvd_of(a)\nlinalg.SymMatrix(a)\n"
    )
    assert repair_or_svd_uses(source) == [2, 3, 4, 5, 6]


# one module owns symmetry repair and the SVD Schur kernel
@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linalg.py")
)
def test_only_linalg_repairs_symmetry_or_takes_an_svd(module):
    assert repair_or_svd_uses((PACKAGE / module).read_text()) == []


def ix_uses(source):
    """Lines of ``source`` that read ``np.ix_``/``numpy.ix_`` or import ``ix_``
    from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if any(a.name == "ix_" for a in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "ix_"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_reports_an_ix_gather():
    source = (
        "import numpy as np\nfrom numpy import ix_\na[np.ix_(b, b)]\n"
        "ix_(b, i)\na[b][:, i]\nf = numpy.ix_\n"
    )
    assert ix_uses(source) == [2, 3, 6]


# the Schur kernels in linalg take their blocks as slices of boundary-first
# arrays and gather nothing; the one gather outside them is response's
# massless split (pinned to its scope below)
IX_GATHERS = {"response.py": 1}


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linalg.py")
)
def test_only_linalg_gathers_blocks(module):
    assert len(ix_uses((PACKAGE / module).read_text())) == IX_GATHERS.get(module, 0)
    assert ix_uses((PACKAGE / "linalg.py").read_text()) == []


def mode_uses(source):
    """Lines of ``source`` that define ``Mode``, as a class or a name bound
    by assignment, or read an attribute ``modes``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "Mode"
        or isinstance(node, ast.Name) and node.id == "Mode" and isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Attribute) and node.attr == "modes"
    )


def test_guard_reports_a_mode_class_or_a_modes_read():
    source = (
        "class Mode:\n    pass\n\n\nMode = namedtuple('Mode', 'sigma R')\n"
        "len(cr.modes)\nprint(Mode, cr.sigmas)\ncr.modes_of(x)\n"
    )
    assert mode_uses(source) == [1, 5, 6]


# the pole-residue form is one sigma vector and one residue stack; its
# (sigma, R) pairs stay as a view for readers outside the package only
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_modes_are_read_as_stacks(module):
    assert mode_uses((PACKAGE / module).read_text()) == []


def norm_uses(source):
    """Lines of ``source`` that read ``np.linalg.norm``/``numpy.linalg.norm``
    or import ``norm`` from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if any(a.name == "norm" for a in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "norm"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_reports_a_linalg_norm():
    source = (
        "import numpy as np\nfrom numpy.linalg import norm\nnp.linalg.norm(a)\n"
        "norm(a)\nlinalg.norm(a)\nf = numpy.linalg.norm\n"
    )
    assert norm_uses(source) == [2, 3, 6]


# the generator tests a placement against all placed nodes, and stamping
# takes its spring lengths, by one row-norm product (model._row_norms), so
# no per-pair norm loop comes back
def test_no_linalg_norm_in_the_network_model():
    assert norm_uses((PACKAGE / "model.py").read_text()) == []


def scopes_calling(source, name):
    """Names of the top-level functions of ``source``, and of its methods as
    ``Class.method``, that call ``name``, bare or as an attribute."""
    tree = ast.parse(source)
    scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    scopes += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    ]
    return sorted(
        qualified for qualified, fn in scopes
        if any(
            isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(fn)
        )
    )


def test_guard_reports_every_calling_scope():
    source = (
        "def a():\n    return np.f(1)\n\n\nclass C:\n    def m(self):\n"
        "        return f()\n\n    def n(self):\n        return f\n\n\n"
        "def b():\n    return g(1)\n"
    )
    assert scopes_calling(source, "f") == ["C.m", "a"]


def package_scopes_calling(name):
    return [
        f"{path.name}:{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in scopes_calling(path.read_text(), name)
    ]


# assembly numbers terminal coordinates first, so the one permutation left
# is the massless split: terminals stay first, then massive interior
# coordinates, massless last. The coverage check of the old block
# partition went with it. The extraction keeps that gather for its
# self-check, so the scope is the helper behind eliminate_massless.
@pytest.mark.parametrize("name", ["ix_"])
def test_only_boundary_first_gathers_and_checks_a_partition(name):
    assert package_scopes_calling(name) == ["response.py:_eliminate"]
    assert package_scopes_calling("_eliminate") == [
        "response.py:eliminate_massless", "response.py:extract_canonical"
    ]


# the system matrices are boundary first by construction: no module keeps a
# block partition or gathers into boundary-first order
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_block_partition(module):
    text = (PACKAGE / module).read_text()
    assert not re.search(r"partition|boundary_first|check_covers", text, re.IGNORECASE)


# one modal kernel serves a reduced system (a stack of one) and the gadget
# stack; the others are the massless elimination's pseudoinverse and the
# rank-one factorization of a PSD block
def test_one_modal_eigensolve():
    assert package_scopes_calling("eigh") == [
        "linalg.py:schur_complement_eigh",
        "response.py:modal_stack",
        "synthesize.py:_rank_one_factors",
    ]


# one pencil helper; the self-check solves its condensed pencils in one
# buffer, and one direct Schur complement of the whole pencil serves the
# self-check's fallback and the superposition oracle
def test_one_pencil_helper():
    assert package_scopes_calling("_pencil") == [
        "response.py:_direct_response", "response.py:_reconstruction_error"
    ]
    assert package_scopes_calling("_direct_response") == [
        "response.py:_reconstruction_error", "synthesize.py:evaluate_generalized"
    ]


def defaulted_parameters(source):
    """Parameters with a default value in the functions and lambdas of
    ``source``, keyword-only ones included."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def package_defaults(*extra):
    """Defaulted parameters of the package, and of ``extra`` sources."""
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    return sum(map(defaulted_parameters, sources + list(extra)))


def test_guard_reports_an_extra_defaulted_parameter():
    source = "def f(a, b=1, *, c, d=2):\n    return lambda x=0: x\n"
    assert defaulted_parameters(source) == 3
    assert package_defaults("def knob(x, y=1):\n    return x + y\n") == package_defaults() + 1


# every defaulted parameter is a knob some caller may turn; a change that
# adds one raises this budget and says why in CHANGES.md
def test_defaulted_parameters_stay_within_budget():
    assert package_defaults() <= 34
