"""Smoke test of the benchmark itself; exits non-zero on the first failed assertion.

    python3 perfbench/smoke.py

Runs every workload once at a tiny size, untraced and traced, and asserts
that every metric named in BENCHMARK.json is present with its unit, that the
summed self times of each traced workload fit inside its traced wall time,
that a perturbed closed-form reference is counted as a failure, and that the
benchmark refuses to report anything when the program's sources are absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "1",
           "--seconds", "1", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(*extra) -> dict:
    out = bench(*extra)
    assert out.returncode == 0, f"{extra} exited {out.returncode}: {out.stderr[-2000:]}"
    summary = json.loads(out.stdout.splitlines()[-1])
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"], summary.keys()
    return summary


def check_metrics(summary: dict, declared: list[dict], what: str) -> None:
    for m in declared:
        got = summary["metrics"].get(m["name"])
        assert got is not None, f"{what}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']} not a number"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        plain = result("--workload", name, "--trace", "0")
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
        check_metrics(plain, spec["end_to_end"], f"{name} untraced")

        traced = result("--workload", name, "--trace", "1")
        assert traced["correct"] and traced["failed"] == 0, traced
        check_metrics(traced, spec["per_layer"], f"{name} traced")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        for prefix in ("", "blas1."):
            self_total = sum(v for k, v in m.items()
                             if k.startswith(prefix) and k.endswith(".self_s")
                             and (prefix or not k.startswith("blas1.")))
            room = m[f"{prefix}trace.wall_s"] * m["trace.threads"]
            assert self_total <= room * (1 + 1e-9), \
                f"{name} {prefix or 'default'}: self times {self_total} exceed {room}"
        print(f"smoke: {name} ok ({plain['attempted']} requests untraced)")

    bad = result("--workload", "spectrum", "--trace", "0", "--perturb-reference", "1e-3")
    assert not bad["correct"] and bad["failed"] >= 1, bad
    print(f"smoke: perturbed reference counted as {bad['failed']} failed request(s)")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(SCRATCH, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    bare = bench("--workload", "sweep", "--trace", "0", cwd=SCRATCH)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    assert bare.returncode != 0 and not bare.stdout.strip(), (bare.returncode, bare.stdout)
    print(f"smoke: without the program's sources the benchmark exits {bare.returncode}")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
