"""One benchmark process: import steklov_lab, warm up, run a workload, report.

Started by run.py in a scratch working directory with the environment it
chose.  steklov_lab is imported before anything else imports numpy, so a
thread or set-up choice the package makes at import applies as it would for
a user.  After the warm-up call the process prints ``READY`` (run.py times
set-up up to that line), then runs rounds of the workload until ``--seconds``
have passed, and writes one JSON result to ``--out``.

    python3 child.py --workload NAME --seed N --seconds S --out FILE
                     [--mode measure|setup] [--trace-file FILE]
                     [--size full|tiny] [--min-rounds N] [--perturb X]

A round starts only while a round of average length still fits in
``--seconds``, after at least ``--min-rounds`` rounds.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import steklov_lab  # noqa: E402,F401  (first import of numpy happens here)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, References  # noqa: E402


def blas_record() -> dict:
    """BLAS name and version that numpy and scipy were built against."""
    import scipy

    out = {"numpy": np.__version__, "scipy": scipy.__version__}
    for lib, mod in (("numpy", np), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[f"{lib}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):
            out[f"{lib}_blas"] = "unknown"
    return out


def run_rounds(workload, rng, seconds: float, min_rounds: int) -> dict:
    rounds, latencies, failures = [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    r = 0
    while r < min_rounds or time.perf_counter() + sum(rounds) / r <= t_end:
        requests = workload.round(rng, r)
        t_round = time.perf_counter()
        for label, fn in requests:
            attempted += 1
            t0 = time.perf_counter()
            try:
                fn()
            except Exception as exc:  # every failure is counted and reported
                failed += 1
                if len(failures) < 10:
                    failures.append(f"round {r} {label}: {type(exc).__name__}: {exc}")
            latencies.append((label, time.perf_counter() - t0))
        rounds.append(time.perf_counter() - t_round)
        r += 1
    return {"rounds": rounds, "latencies": latencies, "attempted": attempted,
            "failed": failed, "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("measure", "setup"), default="measure")
    ap.add_argument("--trace-file")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--perturb", type=float, default=0.0)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.size, References(args.perturb))
    result = {"workload": args.workload, "seed": args.seed}
    try:
        workload.warmup()
    except Exception:
        result["warmup_error"] = traceback.format_exc()
    print("READY", flush=True)
    result["env"] = blas_record()

    if args.mode == "measure" and "warmup_error" not in result:
        tracer = None
        if args.trace_file:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        rng = np.random.default_rng(args.seed)
        t0 = time.perf_counter()
        result.update(run_rounds(workload, rng, args.seconds, args.min_rounds))
        result["elapsed_s"] = time.perf_counter() - t0
        result["outputs"] = workload.summary()
        if tracer is not None:
            totals = tracer.layer_totals()
            for rec in totals.values():
                durations = rec.pop("durations")
                rec["p50_ms"] = 1e3 * float(np.median(durations)) if durations else 0.0
                rec["busy_s"] = float(sum(durations))
            result["layers"] = totals
            result["counts"] = dict(tracer.counts)
            result["missing_hooks"] = tracer.missing + [f"{n} counters" for n in sorted(tracer.broken)]
            result["broken_counters"] = sorted(tracer.broken)
            result["threads"] = tracer.threads
            tracer.write(args.trace_file)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
