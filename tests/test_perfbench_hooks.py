"""The benchmark tracer's hook sites must name functions that exist in src/.

A renamed or deleted function silently drops its per-layer metrics: the
tracer records the site as missing and leaves the metric out, and only
``perfbench/smoke.py`` would notice.  The tracer module is loaded from its
file and only read.
"""

import importlib.util
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
