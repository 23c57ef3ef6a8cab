"""The benchmark's own checks, run by the suite on full-size rounds.

``perfbench/workloads.py`` holds the sigma_1 * L values that
``sweep --k 2,3 --budget 20`` reported when the benchmark was defined, and a
full-size benchmark round refuses a program that reports less; the tiny size
of ``perfbench/smoke.py`` does not check them.  This runs one full-size round
of the sweep workload, so the benchmark's own check decides, and one of the
surfaces workload, whose requests check the d-bar residual, the conformal
residual of a variation field and Q(Y, Y) = S(psi nu, psi nu) on the
64 x 256 grid.  The workloads module is loaded from its file and not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_keeps_the_benchmark_floor(tmp_path, monkeypatch):
    workloads = _load_workloads()
    monkeypatch.chdir(tmp_path)  # the dispatch writes sweep.csv and runs.jsonl
    sweep = workloads.Sweep("full", workloads.References())
    [(name, run)] = sweep.round(np.random.default_rng(0), 0)
    run()  # raises CheckFailed below the floor
    assert name == "sweep"
    assert set(sweep.values[-1]) == set(workloads.SWEEP_REFERENCE)


def test_surfaces_round_passes_the_benchmark_checks():
    workloads = _load_workloads()
    surfaces = workloads.Surfaces("full", workloads.References())
    requests = surfaces.round(np.random.default_rng(0), 0)
    assert [name for name, _ in requests] == [
        "dbar_solvable", "dbar_unsolvable", "conformal_variation", "index_identity",
        "energy_null", "verify_minimal"]
    for _, run in requests:
        run()  # raises CheckFailed on a wrong output
