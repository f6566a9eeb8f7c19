"""Lints over the ktf_kit package: its imports, its caches and its module state."""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import ktf_kit


def _modules():
    """(name, module) for ktf_kit itself and each of its modules."""
    yield "__init__", ktf_kit
    for info in pkgutil.iter_modules(ktf_kit.__path__):
        yield info.name, importlib.import_module(f"ktf_kit.{info.name}")


def test_runtime_imports_numpy_only():
    code = ("import sys, ktf_kit, ktf_kit.cli\n"
            "print(*sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == ""


def _package_imports():
    """(module, enclosing function or None, source module, name) for every import
    from a ktf_kit module; an import in a function is listed under both scopes."""
    found = set()
    for path in Path(ktf_kit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = [(None, tree)] + [(f.name, f) for f in ast.walk(tree)
                                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope, root in scopes:
            for node in ast.walk(root):
                if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ktf_kit")):
                    source = (node.module or "").rsplit(".", 1)[-1]
                    found |= {(path.stem, scope, source, a.name) for a in node.names}
    return found


def test_no_private_names_across_modules():
    # a ktf_kit module imports no underscore name of another, nested imports
    # included; the one exception is the single Jint per h that zagier_hat shares
    found = {(m, source, name) for m, scope, source, name in _package_imports()
             if scope is None and name.startswith("_")}
    assert found == {("transforms", "ktf", "_jint_cache")}


def test_function_local_imports_are_allow_listed():
    # sibling imports sit at module level unless an import cycle forces them into
    # a function: zagier_hat's Jint comes from ktf, which imports transforms, and
    # must call j2it_values through ktf, where bench/tracer.py measures it
    found = {entry for entry in _package_imports() if entry[1] is not None}
    assert found == {("transforms", "zagier_hat", "ktf", "_jint_cache")}


def test_unbounded_caches_are_allow_listed():
    # a new cache anywhere in ktf_kit has to be bounded: memory must not grow
    # with the length of a c-series or with the level
    allowed = {
        ("arith", "divisors"), ("arith", "unit_group"), ("arith", "_unit_log_table"),
        ("characters", "_conductor_local"),
        ("equidist", "_gc_nodes"),
        ("expsums", "_local_component_cached"),
        ("specfun", "_leggauss"),
        ("transforms", "_half_line_nodes"), ("transforms", "get_pipeline"),
    }
    unbounded = set()
    for mod_name, module in _modules():
        unbounded |= {(mod_name, name) for name, f in vars(module).items()
                      if getattr(f, "__module__", None) == module.__name__
                      and callable(getattr(f, "cache_info", None))
                      and f.cache_info().maxsize is None}
    assert ("expsums", "_local_component_cached") in unbounded  # the lint sees the caches it lists
    assert unbounded <= allowed, sorted(unbounded - allowed)


def test_no_module_level_containers():
    # a memo kept in a module-level dict, list or set would escape the bounded-cache
    # lint above; module constants are tuples or immutable values
    found = {(mod_name, name) for mod_name, module in _modules()
             for name, value in vars(module).items()
             if not name.startswith("__") and isinstance(value, (dict, list, set))}
    assert found == set()


def test_tracer_boundaries_exist():
    # bench/tracer.py skips a boundary it cannot find and reports the per-layer
    # metrics on it as absent; a renamed or deleted function would do that silently
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(mod_name, attr) for mod_name, attr, _name, _counter in tracer.BOUNDARIES
               if not callable(getattr(importlib.import_module(f"ktf_kit.{mod_name}"), attr, None))]
    assert tracer.BOUNDARIES and missing == []


def test_kloosterman_local_calls_pass_salie_one_way():
    # functools.lru_cache keys f(.., False), f(.., salie=False) and f(..) apart, so
    # a call that passes the flag another way than the rest would keep its own
    # entries: the block and the scalar routes would stop sharing local factors
    ways = set()
    for path in Path(ktf_kit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "kloosterman_local":
                if any(kw.arg == "salie" for kw in node.keywords):
                    ways.add("keyword")
                else:
                    ways.add("positional" if len(node.args) == 6 else "omitted")
    assert len(ways) == 1, ways
