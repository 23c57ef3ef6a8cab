"""In-memory span tracer that wraps steklov_lab functions where callers look them up.

A hook replaces one module or class attribute with a wrapper that records a
span: name, start, end, parent and thread.  Each thread keeps its own stack of
open spans; the first span on a thread takes as parent the innermost open span
of the main thread, so the sweep's pool workers nest under the dispatch that
started them.  A layer's self time is its span minus the union of its child
spans, which handles children that overlap because they ran on several
threads.  Spans stay in memory until ``write`` is called at exit.

A hook whose target attribute no longer exists is recorded in ``missing`` and
its metrics are left out, never reported as zero; so are the counters of a
hook whose result no longer has the fields they read (``broken``).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

from steklov_lab.dbar import Unsolvable
from steklov_lab.maximizer import BudgetExhausted

# Exceptions the program raises on purpose for inputs it refuses; a span that
# ends in one of them is not counted as failed.
REFUSALS = (Unsolvable, BudgetExhausted)


def _accepted_steps(state) -> int:
    """Accepted ascent steps of an AscentState: trace rows minus level starts."""
    starts = sum(
        1 for i, row in enumerate(state.trace)
        if i == 0 or row[1] != state.trace[i - 1][1]
    )
    return len(state.trace) - starts


def eigensolve_flops(n: int, rank: int, pairs: int) -> float:
    """Computed floating point operations of one ``solve_eigensystem`` call.

    Cost model (dense LAPACK counts, lower-order terms dropped): pivoted
    Cholesky of B n^3/3, Cholesky of the kept block r^3/3, two triangular
    solves with r right-hand sides 2r^3, the explicit Q^T C Q 4r^3, the full
    symmetric eigendecomposition with vectors 9r^3, and per returned pair a
    back-transform (3r^2) plus a residual (4r^2).
    """
    r = float(rank)
    return n**3 / 3.0 + r**3 / 3.0 + 15.0 * r**3 + 7.0 * r * r * pairs


def _on_optimize_density(tr, result, args, kwargs):
    tr.count("maximizer.eigensolves", result.eigensolves)
    tr.count("maximizer.accepted_steps", _accepted_steps(result))
    tr.count("maximizer.stalled", int(result.stalled))
    tr.count("maximizer.budget_exhausted", int(result.budget_exhausted))


def _on_solve_eigensystem(tr, result, args, kwargs):
    n = int(np.shape(args[0])[0])
    md = result.metadata
    rank = md.get("rank", n)
    tr.count("dtn.n_total", n)
    tr.count("dtn.dropped_columns", md.get("dropped", n - rank))
    tr.count("dtn.flops_computed", eigensolve_flops(n, rank, len(result.eigenvalues)))


def _on_eval(tr, result, args, kwargs):
    tr.count("basis.eval.points", int(np.size(args[1])))


# span name -> (lookup sites "module:attr" or "module:Class.attr", on_return).
# The sites are the names through which the workloads' calls reach each
# function: the benchmark's own calls and the program's internal ones.
HOOKS = {
    "cli.dispatch": (["cli:dispatch"], None),
    "cli.sweep_k": (["cli:sweep_k"], None),
    "maximizer.optimize_configuration": (["maximizer:optimize_configuration"], None),
    "maximizer.optimize_density": (["maximizer:optimize_density"], _on_optimize_density),
    "maximizer.extremality_certificate": (["maximizer:extremality_certificate"], None),
    "dtn.steklov_spectrum": (["maximizer:steklov_spectrum", "dtn:steklov_spectrum"], None),
    "dtn.solve_eigensystem": (["dtn:solve_eigensystem"], _on_solve_eigensystem),
    "basis.boundary_matrices": (["dtn:boundary_matrices"], None),
    "basis.dirichlet_matrix": (["basis:dirichlet_matrix"], None),
    "basis.eval": (
        ["basis:HarmonicBasis.values_at", "basis:HarmonicBasis.dz_at"], _on_eval),
    "domain.heat_smooth": (["maximizer:heat_smooth"], None),
    "domain.normalize": (["maximizer:normalize"], None),
    "closedform.critical_parameter": (
        ["closedform:critical_parameter", "surfaces:critical_parameter"], None),
    "closedform.annulus_spectrum": (["closedform:annulus_spectrum"], None),
    "surfaces.index_form_S": (["surfaces:index_form_S", "dbar:index_form_S"], None),
    "surfaces.energy_form_Q": (["surfaces:energy_form_Q", "dbar:energy_form_Q"], None),
    "surfaces.field_norm_sq_integral": (["surfaces:field_norm_sq_integral"], None),
    "surfaces.verify_minimal_free_boundary": (["surfaces:verify_minimal_free_boundary"], None),
    "dbar.solve_dbar": (["dbar:solve_dbar"], None),
    "dbar.DbarSolution.evaluate": (["dbar:DbarSolution.evaluate"], None),
    "dbar.conformal_field_space": (["dbar:conformal_field_space"], None),
    "dbar.build_conformal_variation": (["dbar:build_conformal_variation"], None),
    "dbar.verify_area_energy": (["dbar:verify_area_energy"], None),
    "spectral1d.diff_matrix": (["dbar:diff_matrix", "surfaces:diff_matrix"], None),
    "spectral1d.interp_matrix": (["dbar:interp_matrix"], None),
}


def _resolve(site: str):
    """(owner object, attribute name) for a "module:attr" or "module:Class.attr" site."""
    mod_name, path = site.split(":")
    try:
        owner = importlib.import_module(f"steklov_lab.{mod_name}")
    except ImportError:
        return None, path
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, failed]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.broken: set[str] = set()  # span names whose counters failed to read a result
        self.live: set[str] = set()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        self._main = threading.main_thread().ident

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _open(self, name: str) -> tuple[int, list[int]]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        with self._lock:
            if stack is None:
                stack = self._stacks[ident] = []
                self._threads[ident] = len(self._threads)
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) or [None]
                parent = main[-1] if ident != self._main else None
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self._threads[ident], False])
        stack.append(sid)
        return sid, stack

    def _wrap(self, name, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, stack = tracer._open(name)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except REFUSALS:
                tracer.count(name + ".refused")
                raise
            except BaseException:
                failed = True
                raise
            finally:
                stack.pop()
                span = tracer.spans[sid]
                span[2] = time.perf_counter()
                span[5] = failed
            if on_return is not None:
                try:
                    on_return(tracer, result, args, kwargs)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # the result no longer has what a counter reads: report
                    # the counters as missing instead of breaking the run
                    tracer.broken.add(name)
            return result

        return wrapper

    def install(self) -> None:
        for name, (sites, on_return) in HOOKS.items():
            for site in sites:
                owner, attr = _resolve(site)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(site)
                    continue
                setattr(owner, attr, self._wrap(name, fn, on_return))
                self.live.add(name)

    # -- reporting ------------------------------------------------------------

    @property
    def threads(self) -> int:
        """Number of threads that recorded spans."""
        return len(self._threads)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, failed, self seconds, inclusive durations."""
        children = defaultdict(list)
        for sid, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(sid)
        out = {name: {"calls": 0, "failed": 0, "self_s": 0.0, "durations": []}
               for name in self.live}
        for sid, (name, start, end, _parent, _thread, failed) in enumerate(self.spans):
            if end is None:
                continue
            covered = 0.0
            cur_a = cur_b = None
            for a, b in sorted((max(self.spans[c][1], start), min(self.spans[c][2] or end, end))
                               for c in children.get(sid, ())):
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            rec = out[name]
            rec["calls"] += 1
            rec["failed"] += int(failed)
            rec["self_s"] += (end - start) - covered
            rec["durations"].append(end - start)
        return out

    def write(self, path: str) -> None:
        """Write one JSON span per line: name, start, end, parent, thread, failed."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
