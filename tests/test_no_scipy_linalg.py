"""No command and no benchmark round loads scipy.linalg, checked in fresh interpreters."""

import json
import os
import subprocess
import sys
from pathlib import Path

import steklov_lab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(steklov_lab.__file__)))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

EVERY_COMMAND = """
import json, sys
import steklov_lab, steklov_lab.cli as cli
loaded = ["import" if "scipy.linalg" in sys.modules else None]
for argv in (
    ["closedform", "--out", "cf.json"],
    ["surface", "verify", "--which", "critical-catenoid", "--grid", "16,64", "--out", "sv.json"],
    ["dbar", "demo", "--nt", "16", "--ntheta", "16", "--out", "db.json"],
    ["export-obj", "--which", "critical-moebius", "--nt", "4", "--ntheta", "8", "--out", "m.obj"],
    ["spectrum", "--disk", "--modes", "4", "--out", "sp.json"],
    ["maximize", "--disk", "--iters", "1", "--out", "mx.json"],
    ["sweep", "--k", "2", "--budget", "2", "--out", "sw.csv"],
):
    assert cli.dispatch(argv) == 0, argv
    loaded.append(argv[0] if "scipy.linalg" in sys.modules else None)
print(json.dumps(loaded))
"""

BENCHMARK_ROUNDS = """
import json, sys
import numpy as np
sys.path.insert(0, %r)
from workloads import WORKLOADS, References
loaded = []
for name in ("sweep", "spectrum"):
    workload = WORKLOADS[name]("tiny", References())
    for _, run in workload.round(np.random.default_rng(0), 0):
        run()
    loaded.append(name if "scipy.linalg" in sys.modules else None)
print(json.dumps(loaded))
"""


def _run(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_no_command_loads_scipy_linalg(tmp_path):
    assert _run(EVERY_COMMAND, tmp_path) == [None] * 8


def test_no_benchmark_round_loads_scipy_linalg(tmp_path):
    assert _run(BENCHMARK_ROUNDS % str(PERFBENCH), tmp_path) == [None, None]
