"""Benchmark entry point: runs one workload in fresh processes and prints its metrics.

    python3 perfbench/run.py --workload sweep|spectrum|surfaces --seed N
                             --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a source checkout; the program is imported from
``src/``.  Each measured run happens in a child process (child.py) whose
environment has OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
STEKLOV_LAB_THREADS removed, so the program's own defaults apply.

``--trace 0`` reports the end-to-end metrics of an untraced run, spread over
two fresh processes: set-up time (the median over five processes of start,
import and one warm-up call), the mean wall time of the workload's fixed
request round over every round of the run, and the median over the two
processes of their peak resident memory.  The median and tail request latency
and the failure ratio are printed with the details.  ``--trace 1`` reports per-layer
metrics from a traced pass with the default thread environment and, side by
side, from a traced pass with OPENBLAS_NUM_THREADS=1, plus the tracing
overhead against an untraced pass of the same length.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Each run's full record, with the environment, is also written to
``.perfbench_out/results/``.  Exit code 2 means the program to measure was
not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "STEKLOV_LAB_THREADS")
# An untraced run splits its seconds over MEASURE_PROCESSES fresh processes, so
# one process stuck in a slow thread schedule cannot set the result; set-up is
# timed on those and on SETUP_PROBES more processes that only warm up.
MEASURE_PROCESSES = 2
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run ends well inside 180 s

# span names of tracer.HOOKS, in report order, with the layer metrics kept per span
SPANS = (
    "cli.dispatch", "cli.sweep_k",
    "maximizer.optimize_configuration", "maximizer.optimize_density",
    "maximizer.extremality_certificate",
    "dtn.steklov_spectrum", "dtn.solve_eigensystem",
    "basis.boundary_matrices", "basis.dirichlet_matrix", "basis.eval",
    "domain.heat_smooth", "domain.normalize",
    "closedform.critical_parameter", "closedform.annulus_spectrum",
    "surfaces.index_form_S", "surfaces.energy_form_Q",
    "surfaces.field_norm_sq_integral", "surfaces.verify_minimal_free_boundary",
    "dbar.solve_dbar", "dbar.DbarSolution.evaluate", "dbar.conformal_field_space",
    "dbar.build_conformal_variation", "dbar.verify_area_energy",
    "spectral1d.diff_matrix", "spectral1d.interp_matrix",
)


class ChildFailed(RuntimeError):
    pass


# -- environment record -------------------------------------------------------


def child_env(extra: dict | None = None) -> tuple[dict, dict]:
    """Environment for a child with the thread variables removed, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra or {})
    return env, {k: env[k] for k in THREAD_VARS if k in env}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the repository rooted at ROOT; None when ROOT is not a repository root."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_record() -> dict:
    """Line count and content digest of the program's Python sources."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def environment(child_record: dict, thread_env: dict) -> dict:
    rec = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "thread_env": thread_env,
    }
    rec.update({k: child_record.get(k) for k in ("numpy", "scipy", "numpy_blas", "scipy_blas")})
    rec.update(source_record())
    return rec


# -- child processes ----------------------------------------------------------


class Runner:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.n = 0

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def spawn(self, mode: str, seconds: float, env: dict, trace_file: str | None = None,
              min_rounds: int = 1) -> tuple[float, dict]:
        """Run one child to completion; returns (set-up seconds, its result)."""
        self.n += 1
        out = os.path.join(self.work, f"result-{self.n}.json")
        log = os.path.join(self.work, f"stderr-{self.n}.txt")
        cmd = [sys.executable, CHILD, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(seconds), "--out", out,
               "--mode", mode, "--size", self.args.size, "--min-rounds", str(min_rounds),
               "--perturb", str(self.args.perturb_reference)]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        with open(log, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                ready, _, _ = select.select([proc.stdout], [], [], self.remaining())
                line = proc.stdout.readline() if ready else ""
                setup = time.perf_counter() - t0
                proc.wait(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise ChildFailed(f"{mode} child passed the run deadline")
            finally:
                proc.stdout.close()
        if line.strip() != "READY" or proc.returncode != 0:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail}")
        with open(out) as fh:
            result = json.load(fh)
        if "warmup_error" in result:
            raise ChildFailed(f"warm-up failed: {result['warmup_error']}")
        return setup, result


# -- metrics ------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value.

    None when that percentile would not lie above the median.
    """
    n = len(latencies)
    if n <= 20:
        return None, None
    xs = sorted(latencies)
    return 100.0 * (n - 10) / n, xs[n - 11]


def mean_round(res: dict) -> float:
    return sum(res["rounds"]) / len(res["rounds"])


def end_to_end(setups: list[float], children: list[dict]) -> tuple[dict, dict]:
    lat = [t for res in children for _label, t in res["latencies"]]
    rounds = [t for res in children for t in res["rounds"]]
    pct, tail_s = tail(lat)
    by_label: dict[str, list[float]] = {}
    for res in children:
        for label, t in res["latencies"]:
            by_label.setdefault(label, []).append(t)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(rounds) / len(rounds), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in children), "MB"),
    }
    attempted = sum(res["attempted"] for res in children)
    failed = sum(res["failed"] for res in children)
    detail = {
        "setup_samples_s": setups,
        "round_walls_s": [res["rounds"] for res in children],
        "requests": len(lat),
        "fail_ratio": failed / max(attempted, 1),
        "p50_ms": 1e3 * statistics.median(lat),
        "tail_ms": None if tail_s is None else 1e3 * tail_s,
        "tail_percentile": pct,
        "p50_ms_by_request": {k: 1e3 * statistics.median(v) for k, v in sorted(by_label.items())},
        "outputs": children[-1].get("outputs", {}),
        "failures": [f for res in children for f in res["failures"]],
    }
    return metrics, detail


def layer_metrics(res: dict, prefix: str = "", self_only: bool = False) -> dict:
    """Per-layer metrics of one traced child, per round of the workload."""
    rounds = len(res["rounds"])
    layers, counts = res["layers"], res["counts"]
    counted = [name for name in layers if name not in res["broken_counters"]]
    m = {f"{prefix}trace.wall_s": (mean_round(res), "s")}
    for name in SPANS:
        if name not in layers:
            continue
        rec = layers[name]
        m[f"{prefix}{name}.self_s"] = (rec["self_s"] / rounds, "s")
        if not self_only:
            m[f"{prefix}{name}.calls"] = (rec["calls"] / rounds, "count")
            m[f"{prefix}{name}.failed"] = (rec["failed"] / rounds, "count")
    if self_only:
        return m

    def per_round(key):
        return counts.get(key, 0.0) / rounds

    m["trace.threads"] = (res["threads"], "count")
    if "cli.sweep_k" in layers:
        m["cli.sweep_k.busy_s"] = (layers["cli.sweep_k"]["busy_s"] / rounds, "s")
    if "maximizer.optimize_density" in counted:
        solves = per_round("maximizer.eigensolves")
        accepted = per_round("maximizer.accepted_steps")
        m["maximizer.eigensolves"] = (solves, "count")
        m["maximizer.accepted_steps"] = (accepted, "count")
        m["maximizer.accept_ratio"] = (accepted / solves if solves else 0.0, "ratio")
        m["maximizer.stalled"] = (per_round("maximizer.stalled"), "count")
        m["maximizer.budget_exhausted"] = (per_round("maximizer.budget_exhausted"), "count")
    if "dtn.solve_eigensystem" in counted:
        rec = layers["dtn.solve_eigensystem"]
        m["dtn.solve_eigensystem.p50_ms"] = (rec["p50_ms"], "ms")
        m["dtn.eigensolves_per_s"] = (rec["calls"] / res["elapsed_s"], "1/s")
        m["dtn.n_mean"] = (counts.get("dtn.n_total", 0.0) / rec["calls"] if rec["calls"] else 0.0,
                           "count")
        m["dtn.dropped_columns"] = (per_round("dtn.dropped_columns"), "count")
        m["dtn.flops_computed"] = (per_round("dtn.flops_computed"), "flop")
    if "basis.eval" in counted:
        m["basis.eval.points"] = (per_round("basis.eval.points"), "count")
    if "dbar.solve_dbar" in counted:
        m["dbar.solve_dbar.unsolvable"] = (per_round("dbar.solve_dbar.refused"), "count")
    return m


# -- the two kinds of run -------------------------------------------------------


def run_untraced(runner: Runner, seconds: float):
    env, threads = child_env()
    setups, children = [], []
    for _ in range(SETUP_PROBES):
        setup, _res = runner.spawn("setup", 0.0, env)
        setups.append(setup)
    for _ in range(MEASURE_PROCESSES):
        setup, res = runner.spawn("measure", seconds / MEASURE_PROCESSES, env)
        setups.append(setup)
        children.append(res)
    metrics, detail = end_to_end(setups, children)
    res = {"attempted": sum(r["attempted"] for r in children),
           "failed": sum(r["failed"] for r in children), "env": children[0]["env"]}
    return metrics, detail, res, {"default": threads}


def run_traced(runner: Runner, seconds: float):
    share = seconds / 3.0
    env, threads = child_env()
    env1, threads1 = child_env({"OPENBLAS_NUM_THREADS": "1"})
    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    name = runner.args.workload
    _, plain = runner.spawn("measure", share, env, min_rounds=2)
    _, traced = runner.spawn("measure", share, env, min_rounds=2,
                             trace_file=os.path.join(traces, f"{name}-default.jsonl"))
    _, traced1 = runner.spawn("measure", share, env1, min_rounds=2,
                              trace_file=os.path.join(traces, f"{name}-blas1.jsonl"))
    metrics = layer_metrics(traced)
    untraced_wall = mean_round(plain)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    metrics.update(layer_metrics(traced1, prefix="blas1.", self_only=True))
    missing = sorted(set(traced["missing_hooks"]) | set(traced1["missing_hooks"]))
    detail = {"missing_hooks": missing, "failures": traced["failures"] + traced1["failures"]
              + plain["failures"]}
    attempted = sum(r["attempted"] for r in (plain, traced, traced1))
    failed = sum(r["failed"] for r in (plain, traced, traced1))
    res = {"attempted": attempted, "failed": failed, "env": traced["env"]}
    return metrics, detail, res, {"default": threads, "blas1": threads1}


def print_layers_side_by_side(metrics: dict) -> None:
    print(f"# {'layer self time per round':44s} {'default':>12s} {'blas1':>12s}")
    for name in ("trace.wall",) + SPANS:
        key = f"{name}.self_s" if name != "trace.wall" else "trace.wall_s"
        if key in metrics:
            b = metrics.get(f"blas1.{key}", (float("nan"),))[0]
            print(f"# {key:44s} {metrics[key][0]:12.6f} {b:12.6f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "spectrum", "surfaces"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every request, for the smoke test")
    ap.add_argument("--perturb-reference", type=float, default=0.0,
                    help="shift the closed-form references, to show the checks can fail")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "steklov_lab", "__init__.py")):
        print(f"error: no steklov_lab sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics, detail, res, thread_env = run_traced(runner, args.seconds)
        else:
            metrics, detail, res, thread_env = run_untraced(runner, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    env = environment(res["env"], thread_env)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    if args.trace:
        print_layers_side_by_side(metrics)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    summary = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "time": time.time(), "env": env,
              "detail": detail, **summary}
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
