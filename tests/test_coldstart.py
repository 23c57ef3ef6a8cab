"""Commands that run no eigensolve never load scipy.linalg, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys

import steklov_lab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(steklov_lab.__file__)))

COLD_START = """
import json, sys
import steklov_lab, steklov_lab.cli as cli
loaded = ["import" if "scipy.linalg" in sys.modules else None]
for argv in (
    ["closedform", "--out", "cf.json"],
    ["surface", "verify", "--which", "critical-catenoid", "--grid", "16,64", "--out", "sv.json"],
    ["dbar", "demo", "--nt", "16", "--ntheta", "16", "--out", "db.json"],
    ["export-obj", "--which", "critical-moebius", "--nt", "4", "--ntheta", "8", "--out", "m.obj"],
    ["spectrum", "--disk", "--modes", "4", "--out", "sp.json"],
):
    assert cli.dispatch(argv) == 0, argv
    loaded.append(argv[0] if "scipy.linalg" in sys.modules else None)
print(json.dumps(loaded))
"""


def test_only_an_eigensolve_loads_scipy_linalg(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [None] * 5 + ["spectrum"]
