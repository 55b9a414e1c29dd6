"""Spans around the package's public functions, from outside the package.

``Tracer.installed()`` wraps every public function of each layer module
and patches every module attribute through which a call to it resolves
(``dirapprox.universal.constrained_fit``, ``dirapprox.bohr.sup_norm_halfplane``,
the package namespace, ...), then restores the originals on exit.  Each
call records a span (name, start, end, parent); self time is a span's
duration minus the time covered by its child spans.  Observers read
counts off the results (Lawson iterations, stage outcomes, sample
counts) where the work happens.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("geometry", "fit", "laurent", "universal", "series", "bohr", "chordal", "cli")

# Metrics named after one function that delegates to public helpers of its
# own module: the group's self time sums all members, and its calls count
# entries into the group (a member called from inside another is not one).
GROUPS = {
    "fit.minimax_fit": ("fit.minimax_fit", "fit.minimax_fit_samples"),
    "series.sup_norm_halfplane": ("series.sup_norm_halfplane", "series.sup_norm_report"),
    "chordal.zeta_chordal_convergence_check": (
        "chordal.zeta_chordal_convergence_check",
        "chordal.chordal_convergence_check",
    ),
    "bohr.lift": ("bohr.lift", "bohr.factorize_to_multiindex"),
    "geometry.discretize": ("geometry.discretize", "geometry.contains"),
}

# function spans reported as <name>.self_s and/or <name>.calls
SELF_S = (
    "fit.project_weighted_l1", "fit.constrained_fit", "fit.minimax_fit",
    "universal.build_universal", "universal.verify_schedule",
    "laurent.laurent_decompose", "laurent.rational_dirichlet_fit",
    "series.sup_norm_halfplane", "series.estimate_abscissas", "series.evaluate_many",
    "bohr.polydisc_sup_estimate", "bohr.bohr_gap_report", "bohr.lift", "bohr.unlift",
    "chordal.zeta_chordal_convergence_check", "chordal.zeta_values", "chordal.chi_many",
    "cli.main", "geometry.discretize",
)
CALLS = (
    "fit.project_weighted_l1", "fit.constrained_fit", "fit.minimax_fit",
    "series.sup_norm_halfplane", "series.evaluate", "series.seminorm_sigma", "series.evaluate_many",
    "bohr.polydisc_sup_estimate", "geometry.discretize",
)


def _observe_fit(t, r):
    t.counts["fits"] += 1
    t.counts["lawson_iters"] += r.iterations
    t.counts["fits_converged"] += bool(r.converged)


def _observe_constrained(t, r):
    t.counts["constrained_iters"] += r.iterations
    if t.depth["universal.build_universal"]:
        t.counts["stage_fits"] += 1


def _observe_build(t, r):
    t.counts["stages"] += len(r.records)
    t.counts["stages_ok"] += sum(1 for rec in r.records if rec.converged)


def _observe_laurent(t, r):
    t.counts["decompositions"] += 1
    t.counts["contour_nodes"] += r.nodes_per_contour


def _observe_chordal(t, r):
    t.counts["grid_points"] += r.grid_points


def _observe_discretize(t, r):
    if not t.depth["geometry.discretize"]:  # outermost call of a union's recursion
        t.counts["samples"] += int(r.all_samples().size)


OBSERVERS = {
    "fit.minimax_fit_samples": _observe_fit,
    "fit.constrained_fit": _observe_constrained,
    "universal.build_universal": _observe_build,
    "laurent.laurent_decompose": _observe_laurent,
    "chordal.chordal_convergence_check": _observe_chordal,
    "geometry.discretize": _observe_discretize,
}


class Tracer:
    """In-memory spans: parallel lists of name, start, end and parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self.starts.append(time.perf_counter_ns())
        self._stack.append(i)
        self.depth[name] += 1
        try:
            yield
        finally:
            self.ends[i] = time.perf_counter_ns()
            self._stack.pop()
            self.depth[name] -= 1

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every resolution point of every public layer function."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dirapprox.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod in [m for n, m in sys.modules.items() if n == "dirapprox" or n.startswith("dirapprox.")]:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def mark(self) -> tuple[int, Counter]:
        return len(self.names), self.counts.copy()


def _totals(t: Tracer, lo: int, hi: int) -> dict[str, Counter]:
    """Sums over spans [lo, hi): self seconds and calls per function, self
    seconds and entries per group, and seconds covered by root spans."""
    child = Counter()
    for i in range(lo, hi):
        if t.parents[i] >= 0:
            child[t.parents[i]] += t.ends[i] - t.starts[i]
    group_of = {m: g for g, members in GROUPS.items() for m in members}
    tot = {k: Counter() for k in ("self_s", "calls", "group_self_s", "group_calls", "root_s")}
    for i in range(lo, hi):
        name, dur = t.names[i], t.ends[i] - t.starts[i]
        own = (dur - child[i]) * 1e-9
        tot["self_s"][name] += own
        tot["calls"][name] += 1
        if t.parents[i] < 0:
            tot["root_s"]["all"] += dur * 1e-9
        g = group_of.get(name)
        if g is not None:
            tot["group_self_s"][g] += own
            p = t.parents[i]
            while p >= 0 and group_of.get(t.names[p]) != g:
                p = t.parents[p]
            if p < 0:
                tot["group_calls"][g] += 1
    return tot


def layer_metrics(t: Tracer, setup_mark, iter_mark, iter_walls: list[float]) -> dict:
    """Per-layer values for one set-up plus one workload pass.

    Spans from the traced input build count once; spans from the traced
    passes are divided by the number of passes.
    """
    n = max(1, len(iter_walls))
    s_tot = _totals(t, setup_mark[0], iter_mark[0])
    i_tot = _totals(t, iter_mark[0], len(t.names))
    s_tot["counts"] = iter_mark[1] - setup_mark[1]
    i_tot["counts"] = t.counts - iter_mark[1]

    def per_pass(kind: str, key: str) -> float:
        return s_tot[kind][key] + i_tot[kind][key] / n

    def ratio(num: str, den: str) -> float:
        d = per_pass("counts", den)
        return per_pass("counts", num) / d if d else 0.0

    names = set(s_tot["self_s"]) | set(i_tot["self_s"])
    out = {f"{layer}.self_s": sum(per_pass("self_s", k) for k in names if k.startswith(layer + "."))
           for layer in LAYERS}
    for name in SELF_S:
        out[f"{name}.self_s"] = per_pass("group_self_s" if name in GROUPS else "self_s", name)
    for name in CALLS:
        out[f"{name}.calls"] = per_pass("group_calls" if name in GROUPS else "calls", name)
    out["fit.lawson_iters"] = per_pass("counts", "lawson_iters")
    out["fit.converged_ratio"] = ratio("fits_converged", "fits")
    out["fit.constrained_iters"] = per_pass("counts", "constrained_iters")
    out["universal.fits_per_stage"] = ratio("stage_fits", "stages")
    out["universal.stage_success_ratio"] = ratio("stages_ok", "stages")
    out["laurent.nodes_per_contour"] = ratio("contour_nodes", "decompositions")
    out["chordal.grid_points"] = per_pass("counts", "grid_points")
    out["geometry.samples"] = per_pass("counts", "samples")
    out["trace.unattributed_s"] = max(0.0, sum(iter_walls) - i_tot["root_s"]["all"]) / n
    return out
