"""The BLAS thread pin, checked in fresh interpreters so this process keeps its own state."""

import json
import os
import subprocess
import sys

import pytest

import steklov_lab
from steklov_lab._blas import USER_VARS, blas_threads

SRC = os.path.dirname(os.path.dirname(os.path.abspath(steklov_lab.__file__)))

if None in blas_threads().values():
    pytest.skip("numpy or scipy without a bundled OpenBLAS", allow_module_level=True)


def _run(code, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in USER_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


MANIFEST = """
import json
import numpy, scipy.linalg
import steklov_lab.cli as cli
from steklov_lab._blas import blas_threads
print(json.dumps([blas_threads(), cli.RunManifest("sweep", {}).reproducible()["blas_threads"]]))
"""


def test_import_pins_one_thread_after_numpy_loaded():
    assert _run(MANIFEST) == [{"numpy": 1, "scipy": 1}] * 2


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_thread_variable_is_left_alone(var):
    assert _run(MANIFEST, **{var: "2"}) == [{"numpy": 2, "scipy": 2}] * 2


EIGENSOLVE_FIRST = """
import json, sys
import steklov_lab
assert "scipy.linalg" not in sys.modules
steklov_lab.steklov_spectrum(steklov_lab.CircleDomain(), steklov_lab.BoundaryDensity.uniform(1), 4)
from steklov_lab._blas import blas_threads
maps = []
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as fh:
        maps = sorted({ln.split()[-1] for ln in fh if "/libscipy_openblas-" in ln})
print(json.dumps([blas_threads(), maps, "scipy.linalg" in sys.modules]))
"""


@pytest.mark.parametrize("var, n", [(None, 1), ("OPENBLAS_NUM_THREADS", 2)])
def test_pin_holds_when_lapack_loads_after_the_package(var, n):
    # the eigensolve runs on numpy's pinned OpenBLAS and loads no scipy.linalg;
    # scipy's library stays the one _blas opened through ctypes, mapped once
    threads, maps, linalg = _run(EIGENSOLVE_FIRST, **({var: str(n)} if var else {}))
    assert threads == {"numpy": n, "scipy": n}
    assert not linalg
    if sys.platform.startswith("linux"):
        assert len(maps) == 1


def test_missing_libraries_are_skipped(tmp_path):
    code = """
import json
import steklov_lab._blas as b
import steklov_lab.cli as cli
b._LIBS = tuple((name, %r, pattern, suffix) for name, _, pattern, suffix in b._LIBS)
pinned = b.pin_blas_threads()
man = cli.RunManifest("sweep", {})
print(json.dumps([pinned, man.reproducible()["blas_threads"], len(man.hash)]))
"""
    assert _run(code % str(tmp_path)) == [{"numpy": None, "scipy": None}] * 2 + [16]
