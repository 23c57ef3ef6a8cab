"""The benchmark's hook sites and calls must name things that exist in src/.

A renamed or deleted function silently drops its per-layer metrics: the
tracer records the site as missing and leaves the metric out, and only
``perfbench/smoke.py`` would notice.  A name, attribute or keyword that the
workloads use and src/ no longer has fails the benchmark itself.  The
tracer module is loaded from its file and only read; the workloads file is
only parsed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
SITES = [site for sites, _ in tracer.HOOKS.values() for site in sites]


@pytest.mark.parametrize("site", SITES)
def test_hook_site_resolves(site):
    owner, attr = tracer._resolve(site)
    assert owner is not None, f"{site}: module or class not found"
    assert callable(getattr(owner, attr, None)), f"{site}: no attribute {attr}"


# -- the workloads' calls into steklov_lab --------------------------------------

WORKLOADS = TRACER.parent / "workloads.py"


def _workload_api():
    """Imported steklov_lab names, module.attr uses and calls of workloads.py.

    Returns (imports, attrs, calls): imports maps each local name to
    (module path, attribute or None for a module), attrs lists the distinct
    (module name, attribute) uses, and calls holds (callee source, keyword
    names) for every call whose callee is one of those names.
    """
    tree = ast.parse(WORKLOADS.read_text())
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("steklov_lab"):
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                is_module = node.module == "steklov_lab" and importlib.util.find_spec(sub)
                imports[alias.asname or alias.name] = (
                    (sub, None) if is_module else (node.module, alias.name))
    modules = {name for name, (_, attr) in imports.items() if attr is None}

    def callee(func):
        if isinstance(func, ast.Name) and func.id in imports:
            return func.id
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            return f"{func.value.id}.{func.attr}"
        return None

    attrs = sorted({(n.value.id, n.attr) for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in modules})
    calls = [(callee(n.func), [kw.arg for kw in n.keywords if kw.arg])
             for n in ast.walk(tree) if isinstance(n, ast.Call) and callee(n.func)]
    return imports, attrs, calls


def _resolve_workload_name(imports, dotted):
    head, *rest = dotted.split(".")
    path, attr = imports[head]
    obj = importlib.import_module(path)
    for part in ([attr] if attr else []) + rest:
        obj = getattr(obj, part)
    return obj


def test_workload_calls_resolve():
    imports, attrs, calls = _workload_api()
    assert imports and attrs and calls
    for name in imports:
        _resolve_workload_name(imports, name)
    for module, attr in attrs:
        assert hasattr(_resolve_workload_name(imports, module), attr), f"{module}.{attr}"
    for name, keywords in calls:
        params = inspect.signature(_resolve_workload_name(imports, name)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in keywords:
            assert kw in params, f"{name}() takes no keyword {kw!r}"
