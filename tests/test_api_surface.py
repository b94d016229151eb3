"""The public surface of ``src/maxbv`` holds no name and no knob that only
tests use.

A public top-level function or class must be referenced from another
module under ``src/maxbv`` or from a ``perfbench`` file.  A package
``__init__.py`` does not count: its re-exports and ``__all__`` would keep a
test-only name public without any caller.  Names that serve only their own
module (result types, helpers of one estimator, subcommand handlers) are
listed below with the reason they stay public.  A helper that nothing outside the tests calls
belongs in the tests.

The same holds one level down: a public method or property of a public
class must be referenced by name from some ``src/maxbv`` or ``perfbench``
file outside its own ``def``.  Fields are left out of this scan on purpose:
a field name such as ``seed`` or ``n`` is shared by many types, so a
reference by name would not say which type's field was read.

Every name that a ``perfbench`` file imports from ``maxbv`` must exist:
``pytest perfbench`` does not import every benchmark file, so a deleted
name would otherwise break only the benchmark run.

Likewise a defaulted parameter of a public top-level function or of a
public class's classmethod or staticmethod (called as ``Class.method``),
and a defaulted field of a public frozen dataclass (a config object), must
be set, by keyword or by position, by some call in ``src/maxbv`` or
``perfbench``; a literal equal to the default does not set it.  One that no
such call sets is a constant, and there is no list of exemptions: a case
only tests reach is reached by monkeypatching a module constant.

The benchmark's tracer rebinds names by attribute (``KernelConfig.weights``,
``cli.write_result_csv``, ``experiments.run_experiment``), so installing it
in a child process must succeed.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import maxbv

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "maxbv").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

_RESULT = "result type returned by a public function of its module"
_HELPER = "helper of its own module's estimators, also a test oracle"

ALLOWED = {
    "cli.cmd_run": "subcommand handler, bound by main's argument parser",
    "cli.cmd_verify": "subcommand handler, bound by main's argument parser",
    "cli.cmd_report": "subcommand handler, bound by main's argument parser",
    "concentration.DoubleMaxSummary": _RESULT,
    "cylindrical.PolynomialOuter": "outer function of the catalog entries",
    "cylindrical.GaussianBumpOuter": "outer function of the catalog entries",
    "cylindrical.SigmoidProductOuter": "outer function of the catalog entries",
    "density.segment_max_density": _HELPER,
    "density.TVBoundRow": _RESULT,
    "density.AsymptoticGap": _RESULT,
    "experiments.Param": "parameter schema of the experiment registry",
    "experiments.OpSpec": "entry type of the experiment registry",
    "experiments.Criterion": "entry type of acceptance_criteria",
    "fluctuation.chi_square_sf": _HELPER,
    "fluctuation.ArgmaxHistogram": _RESULT,
    "malliavin.sigma_time": _HELPER,
    "malliavin.tie_exclusion_threshold": _HELPER,
    "malliavin.two_peak_path": _HELPER,
    "malliavin.separating_direction": _HELPER,
    "malliavin.ChainMaxEstimate": _RESULT,
    "malliavin.SplitKernel": "the split-point estimator behind two public routes",
    "sampling.stream_counts": "the substream plan of mc_collect",
}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names that ``tree`` refers to, leaving out the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _referenced_names(path: Path) -> set[str]:
    return _names(ast.parse(path.read_text()))


def _public_definitions(path: Path) -> list[str]:
    return [
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unreferenced_public_names(src=SRC) -> set[str]:
    """module.name of every public definition that no other src module and
    no perfbench file refers to; an ``__init__.py`` is not a referrer."""
    refs = {path: _referenced_names(path) for path in src + BENCH
            if path.name != "__init__.py"}
    out = set()
    for path in src:
        for name in _public_definitions(path):
            used = any(name in names for other, names in refs.items() if other != path)
            if not used:
                out.add(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_used_outside_the_tests():
    unlisted = sorted(unreferenced_public_names() - ALLOWED.keys())
    assert not unlisted, (
        f"public names referenced only by their own module or the tests: "
        f"{unlisted}; move test-only helpers into the tests, or list the "
        f"name in ALLOWED with the reason it stays public"
    )


def test_allowlist_has_no_stale_entries():
    stale = sorted(ALLOWED.keys() - unreferenced_public_names())
    assert not stale, f"ALLOWED names that are gone or now used elsewhere: {stale}"


def test_scan_flags_a_test_only_helper(tmp_path):
    # a module-level function that nothing in src or perfbench refers to
    extra = tmp_path / "orphan.py"
    extra.write_text("def only_tests_call_me():\n    return 1\n")
    assert unreferenced_public_names(SRC + [extra]) - unreferenced_public_names() == {
        "orphan.only_tests_call_me"
    }


def test_scan_ignores_a_re_export(tmp_path):
    # a function that only a package __init__ re-exports is still test-only
    orphan = tmp_path / "orphan.py"
    orphan.write_text("def only_exported():\n    return 1\n")
    init = tmp_path / "__init__.py"
    init.write_text(
        'from .orphan import only_exported\n\n__all__ = ["only_exported"]\n'
    )
    flagged = unreferenced_public_names(SRC + [orphan, init]) - unreferenced_public_names()
    assert flagged == {"orphan.only_exported"}


def unreferenced_public_methods(src=SRC) -> set[str]:
    """module.Class.method of every public method or property of a public
    top-level class that no src module and no perfbench file refers to
    outside the method's own ``def``; an ``__init__.py`` is not a
    referrer."""
    trees = {path: ast.parse(path.read_text()) for path in src + BENCH}
    refs = {path: _names(tree) for path, tree in trees.items()
            if path.name != "__init__.py"}
    out = set()
    for path in src:
        others = [names for other, names in refs.items() if other != path]
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if not any(fn.name in names
                           for names in [_names(trees[path], skip=fn), *others]):
                    out.add(f"{path.stem}.{cls.name}.{fn.name}")
    return out


def test_every_public_method_is_used_outside_the_tests():
    unused = sorted(unreferenced_public_methods())
    assert not unused, (
        f"public methods and properties that only the tests refer to: "
        f"{unused}; move them into the tests"
    )


def test_method_scan_flags_a_test_only_method(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "class Estimate:\n"
        "    def used(self):\n"
        "        return self.recursive()\n\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n\n"
        "    @property\n"
        "    def only_tests_read_me(self):\n"
        "        return 1\n\n"
        "    def _private(self):\n"
        "        return 2\n\n"
        "def run(e):\n"
        "    return e.used()\n"
    )
    # recursive is referenced from used; its own def does not count
    assert unreferenced_public_methods(SRC + [planted]) - unreferenced_public_methods() == {
        "planted.Estimate.only_tests_read_me"
    }
    planted.write_text(planted.read_text().replace("return self.recursive()\n\n    def rec",
                                                   "return 0\n\n    def rec"))
    assert unreferenced_public_methods(SRC + [planted]) - unreferenced_public_methods() == {
        "planted.Estimate.only_tests_read_me", "planted.Estimate.recursive"
    }


def missing_benchmark_imports(bench=BENCH) -> set[str]:
    """module.name of every name that a ``from maxbv.<module> import`` in a
    perfbench file asks for and that module does not have."""
    out = set()
    for path in bench:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("maxbv."):
                module = importlib.import_module(node.module)
                out |= {f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)}
    return out


def test_every_name_the_benchmark_imports_exists():
    missing = sorted(missing_benchmark_imports())
    assert not missing, f"perfbench imports names that maxbv no longer has: {missing}"


def test_benchmark_import_scan_flags_a_missing_name(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from maxbv.paths import split_tables, no_such_kernel\n")
    assert missing_benchmark_imports(BENCH + [planted]) == {"maxbv.paths.no_such_kernel"}


def test_benchmark_tracer_installs():
    # a src edit that removes a name the tracer binds would otherwise break
    # only the traced benchmark run
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench"))}
    proc = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer, install; install(Tracer())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from maxbv import *", namespace)
    assert all(namespace[name] is getattr(maxbv, name) for name in maxbv.__all__)
    # __all__ lists exactly what __init__ imports, plus the version
    init = ast.parse((ROOT / "src" / "maxbv" / "__init__.py").read_text())
    imported = {
        alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(maxbv.__all__) == imported | {"__version__"}


def _decorated(fn: ast.FunctionDef, name: str) -> bool:
    return any(getattr(d, "id", None) == name for d in fn.decorator_list)


def _defaulted_parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None, ast.expr]]:
    """(name, position, default) of each defaulted parameter; keyword-only
    ones have no position.  A classmethod's positions leave out ``cls``,
    which its callers do not pass."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if _decorated(fn, "classmethod"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, first + i, d) for i, (a, d) in enumerate(zip(positional[first:], args.defaults))]
    out += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(kw.arg == "frozen" and getattr(kw.value, "value", False) is True
                for kw in d.keywords)
        for d in cls.decorator_list
    )


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int, ast.expr]]:
    """(name, position, default) of each defaulted field of a dataclass: its
    constructor takes the fields in order."""
    fields = [node for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return [(f.target.id, i, f.value) for i, f in enumerate(fields) if f.value is not None]


def _is_default(arg: ast.expr, default: ast.expr) -> bool:
    """Whether ``arg`` is a literal equal to the literal ``default``."""
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except (ValueError, TypeError):
        return False


def _sets(call: ast.Call, param: str, position: int | None, default: ast.expr) -> bool:
    """Whether ``call`` may set ``param`` to other than its default: by
    keyword, through ``**``, or by a positional or starred argument that
    reaches its position.  A literal equal to the default does not set it."""
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == param:
            return not _is_default(kw.value, default)
    if position is None:
        return False
    for i, a in enumerate(call.args):
        if isinstance(a, ast.Starred):
            return True
        if i == position:
            return not _is_default(a, default)
    return False


def _knob_owners(tree: ast.Module):
    """(called name, defaulted parameters) of every public top-level
    function, public frozen dataclass, and classmethod or staticmethod of a
    public class; a method is called as ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, _defaulted_parameters(node)
        elif isinstance(node, ast.ClassDef):
            if _is_frozen_dataclass(node):
                yield node.name, _defaulted_fields(node)
            for fn in node.body:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and (_decorated(fn, "classmethod") or _decorated(fn, "staticmethod"))):
                    yield f"{node.name}.{fn.name}", _defaulted_parameters(fn)


def unset_knobs(src=SRC) -> set[str]:
    """module.name(param=) of every defaulted parameter of a public
    top-level function or of a public class's classmethod or staticmethod,
    and every defaulted field of a public frozen dataclass, that no call in
    src or perfbench sets to other than its default.  Functions are matched
    by the called name, bare or as an attribute; a dataclass is called by
    its class name, and a method as ``Class.method``."""
    calls = defaultdict(list)
    for path in src + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
                    if isinstance(func.value, ast.Name):
                        calls[f"{func.value.id}.{func.attr}"].append(node)
    out = set()
    for path in src:
        for name, knobs in _knob_owners(ast.parse(path.read_text())):
            for param, position, default in knobs:
                if not any(_sets(c, param, position, default) for c in calls[name]):
                    out.add(f"{path.stem}.{name}({param}=)")
    return out


def test_every_defaulted_parameter_is_set_outside_the_tests():
    unset = sorted(unset_knobs())
    assert not unset, (
        f"defaulted parameters that no call in src or perfbench sets: "
        f"{unset}; make them constants"
    )


def test_scan_flags_a_knob_no_caller_sets(tmp_path):
    extra = tmp_path / "knobs.py"
    extra.write_text(
        "def planted(samples, scale=1.0, *, bins=10, workers=1):\n"
        "    return samples\n\n"
        "def run(opts):\n"
        "    planted(100, 2.0, **opts)\n"
        "    planted(100, workers=2)\n"
        "    planted(100, 1.0, bins=10)\n"
    )
    # scale is set by position and workers by keyword; ** may set bins
    assert unset_knobs(SRC + [extra]) == unset_knobs()
    # a literal equal to the default sets nothing
    extra.write_text(extra.read_text().replace("2.0, **opts", "2.0"))
    assert unset_knobs(SRC + [extra]) - unset_knobs() == {"knobs.planted(bins=)"}
    extra.write_text(extra.read_text().replace("2.0", "1.0"))
    assert unset_knobs(SRC + [extra]) - unset_knobs() == {
        "knobs.planted(bins=)", "knobs.planted(scale=)"
    }


def test_scan_flags_a_config_field_no_caller_sets(tmp_path):
    extra = tmp_path / "configs.py"
    extra.write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\n"
        "class Planted:\n"
        "    samples: int\n"
        "    scale: float = 1.0\n"
        "    bins: int = 10\n"
        "    label: str = ''\n\n"
        "def run(opts):\n"
        "    Planted(100, 2.0, **opts)\n"
        "    Planted(100, label='x')\n"
    )
    # scale is set by position and label by keyword; ** may set bins
    assert unset_knobs(SRC + [extra]) == unset_knobs()
    extra.write_text(extra.read_text().replace("2.0, **opts", "2.0"))
    assert unset_knobs(SRC + [extra]) - unset_knobs() == {"configs.Planted(bins=)"}
    extra.write_text(extra.read_text().replace("label='x'", "label=''"))
    assert unset_knobs(SRC + [extra]) - unset_knobs() == {
        "configs.Planted(bins=)", "configs.Planted(label=)"
    }


def test_scan_flags_a_class_method_knob(tmp_path):
    extra = tmp_path / "methods.py"
    extra.write_text(
        "class Planted:\n"
        "    @classmethod\n"
        "    def make(cls, grid, value=1.0, label='unit'):\n"
        "        return cls()\n\n"
        "    @staticmethod\n"
        "    def weights(x, width=0.5):\n"
        "        return x\n\n"
        "def run(grid, x):\n"
        "    Planted.make(grid, 2.0)\n"
        "    Planted.make(grid, label='u')\n"
        "    Planted.weights(x, 0.25)\n"
    )
    # value is set by position (cls is not passed), label by keyword and
    # width by position
    assert unset_knobs(SRC + [extra]) == unset_knobs()
    # only Class.method calls count, and the defaults set nothing
    extra.write_text(
        extra.read_text()
        .replace("Planted.make(grid, 2.0)", "Planted.make(grid, 1.0, 'unit')")
        .replace("label='u'", "label='unit'")
        .replace("Planted.weights(x, 0.25)", "x.weights(x, 0.25)")
    )
    assert unset_knobs(SRC + [extra]) - unset_knobs() == {
        "methods.Planted.make(value=)", "methods.Planted.make(label=)",
        "methods.Planted.weights(width=)",
    }
