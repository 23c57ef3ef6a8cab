"""Repeat the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/prove.py [--workloads sweep,spectrum,surfaces] [--seeds 10]
                               [--first-seed 1] [--traced] [--record FILE]

For every workload it runs ``run.py --trace 0`` once per seed and prints, per
end-to-end metric, the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``--traced`` adds one
``--trace 1`` run per workload.  ``--record`` writes every run's summary and
the spreads to a JSON file, which is how perfbench/results/baseline.json was
made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.monotonic() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.splitlines()
    env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), {})
    detail = next((json.loads(line[9:]) for line in lines if line.startswith("# detail ")), {})
    summary = json.loads(lines[-1])
    return summary, {"run_s": took, "env": env, "detail": detail}


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--record")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            summary, info = run(spec, workload, seed, 0)
            runs.append({"seed": seed, **summary, **info})
            vals = {k: round(v["value"], 6) for k, v in summary["metrics"].items()}
            print(f"{workload} seed {seed}: correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']} "
                  f"{vals} ({info['run_s']:.1f} s)", flush=True)
        stats = {}
        for name, bound in bounds.items():
            med, sp = spread([r["metrics"][name]["value"] for r in runs])
            stats[name] = {"median": med, "iqr_share": sp, "bound": bound,
                           "unit": runs[0]["metrics"][name]["unit"]}
            ok = name == "setup_s" or sp < bound / 3.0
            steady &= ok
            print(f"  {name:12s} median {med:12.6g}  spread {sp:7.4f}  bound {bound:5.3f}"
                  f"  {'ok' if ok else 'WIDE'}", flush=True)
        entry = {"end_to_end": stats, "runs": runs}
        if args.traced:
            summary, info = run(spec, workload, args.first_seed, 1)
            entry["traced"] = {**summary, **info}
            print(f"  traced: correct={summary['correct']} ({info['run_s']:.1f} s)", flush=True)
        record["workloads"][workload] = entry
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
