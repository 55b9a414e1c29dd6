#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {fit,sup,small_calls} \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line is one JSON object
carrying every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
carries every per-layer metric instead.  The line before it is a report
with the environment, sample counts and the workload's quality figures.
See perfbench/README.md for what each metric means.

Times are CPU seconds (user + system, of this process and of the child
processes it waited for), not wall seconds: on a shared host, wall time
also counts the time other tenants hold the CPU.  BLAS runs on one thread
so that CPU time is the work done, not a worker's spin-wait.

On a shared host the speed of interpreter-bound work (starting Python,
importing modules, many tiny calls) drifts by 20-40 % over minutes,
more than that of array-bound work.  So an untraced run also times two
fixed reference jobs that run no package code, many times over: a child
that imports what a CLI call imports, less dirapprox, after every set-up probe and
every pass, and an in-process loop of tiny numpy calls before and after
every step marked ``calls``.  The CPU seconds of child processes and of
``calls`` steps are scaled by nominal / median job time of the run;
array-bound steps are not scaled.  A change to dirapprox moves a scaled
value by the same share as the raw one.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
CONFIRMATION_SEED = 2
WORKLOADS = ("fit", "sup", "small_calls")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = "1"

# what a CLI call imports, less dirapprox itself
CHILD_JOB = "import argparse, json, numpy, scipy.optimize"
# CPU seconds of the reference jobs on an idle 2-vCPU x86_64 host (Intel
# Xeon, Python 3.11, numpy 2.4); they only fix the scale of the values.
CHILD_NOMINAL_S = 0.80
CALLS_NOMINAL_S = 0.020

CLI_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import dirapprox.cli\n"
    "print(time.perf_counter() - t, len(sys.modules))\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def children_cpu() -> float:
    """CPU seconds of every child process waited for so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _run_child(cmd: list[str], timeout: float = 120.0) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run one child to its end; returns its wall seconds, CPU seconds and result."""
    t0, c0 = time.perf_counter(), children_cpu()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - t0, children_cpu() - c0, proc


@dataclass
class Reference:
    """CPU seconds of the reference jobs timed during one untraced run."""

    child: list = field(default_factory=list)
    calls: list = field(default_factory=list)

    def time_child(self) -> None:
        _, cpu, proc = _run_child([sys.executable, "-c", CHILD_JOB])
        if proc.returncode != 0:
            raise RuntimeError(f"reference child failed:\n{proc.stderr}")
        self.child.append(cpu)

    def time_calls(self) -> float:
        """Run the in-process job once; returns (and records) its CPU seconds."""
        import numpy as np

        tiny = np.linspace(-1.0, 1.0, 8)
        c0 = time.process_time()
        acc = 0
        for i in range(100_000):
            acc += i * i
        for _ in range(2_000):
            float(np.abs(tiny).sum())
            {k: [k] for k in range(8)}
        self.calls.append(time.process_time() - c0)
        return self.calls[-1]

    def scales(self) -> tuple[float, float]:
        """Factors for child-process CPU and for CPU of ``calls`` steps."""
        calls = CALLS_NOMINAL_S / statistics.median(self.calls) if self.calls else 1.0
        return CHILD_NOMINAL_S / statistics.median(self.child), calls


class Context:
    """What steps need besides their inputs: sizes, CLI access, a span hook."""

    def __init__(self, size: dict, cli_input: str, reference: Reference | None = None):
        self.size = size
        self.cli_input = cli_input
        self.reference = reference  # in untraced runs only
        self.cli_walls: list[float] = []
        self.cli_cpus: list[float] = []
        self.span = lambda name: contextlib.nullcontext()

    def cli(self, args: list[str]) -> tuple[int, str]:
        """One ``python -m dirapprox.cli`` call; its CPU time is a cold-start sample."""
        with self.span("cli.subprocess"):
            wall, cpu, proc = _run_child([sys.executable, "-m", "dirapprox.cli", *args], timeout=60.0)
        self.cli_walls.append(wall)
        self.cli_cpus.append(cpu)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
        return proc.returncode, proc.stdout


def environment() -> dict:
    import numpy

    def dist(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {}
    for pkg in ("numpy", "scipy"):  # wheels bundle OpenBLAS next to the package
        mod = sys.modules.get(pkg)
        libdir = Path(mod.__file__).parent.parent / f"{pkg}.libs" if mod else None
        for path in sorted(libdir.glob("*openblas*.so*")) if libdir and libdir.is_dir() else ():
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[path.name] = fn()
                    break
    return {
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": dist("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in (*THREAD_VARS, "DIRAPPROX_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "dirapprox": "installed" if dist("dirapprox") else "src",
        "machine": platform.machine(),
    }


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def iterate(steps, inputs, tally, ctx, budget: float, min_iterations: int, between=()):
    """Run whole passes over the steps until the time budget is spent.

    The ``between`` steps run before the first pass and after every pass,
    outside the pass timing but inside the budget, and so does the
    reference child.  The in-process reference job runs before and after
    every ``calls`` step (reference jobs only if ctx has a reference).
    Another pass starts only if the median pass so far, plus the between
    steps, still fits in the budget, and at least min_iterations passes
    run.  Returns one dict per pass: wall seconds, CPU seconds of this
    process in ``calls`` steps and elsewhere (reference jobs left out), of
    its CLI children, of its in-process (non-CLI) steps, and the package
    calls the jobs made.
    """
    from workloads import run_step

    ref = ctx.reference
    passes = []
    start = time.perf_counter()

    def run_between() -> float:
        t0 = time.perf_counter()
        for step in between:
            run_step(step, inputs, tally, ctx)
        if ref is not None:
            ref.time_child()
        return time.perf_counter() - t0

    between_s = run_between()
    while True:
        calls0, api_s, calls_s, job_s = tally.calls, 0.0, 0.0, 0.0
        t0, own0, child0 = time.perf_counter(), time.process_time(), children_cpu()
        for step in steps:
            if ref is not None and step.calls:
                job_s += ref.time_calls()
            s0 = time.process_time()
            run_step(step, inputs, tally, ctx)
            step_s = time.process_time() - s0
            if ref is not None and step.calls:
                job_s += ref.time_calls()
            if step.calls:
                calls_s += step_s
            if not step.cli:
                api_s += step_s
        own_s = time.process_time() - own0 - job_s
        passes.append({"wall_s": time.perf_counter() - t0, "calls_s": calls_s, "rest_s": own_s - calls_s,
                       "children_s": children_cpu() - child0, "api_s": api_s, "calls": tally.calls - calls0})
        between_s = max(between_s, run_between())
        elapsed = time.perf_counter() - start
        if len(passes) >= min_iterations and elapsed + statistics.median(p["wall_s"] for p in passes) \
                + between_s > budget:
            return passes


def setup_probe(args, import_s: float) -> int:
    """Child side of setup_s: the package is imported, now build the inputs."""
    t0 = time.perf_counter()
    from workloads import build_inputs

    build_inputs(args.workload, args.seed, "tiny" if args.tiny else "full")
    print(json.dumps({"import_s": import_s, "inputs_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args, repeats: int, reference: Reference) -> tuple[list[float], list[float], list[float]]:
    """Set-up probes in fresh interpreters, one after another, each
    followed by the reference child: their wall and CPU seconds and
    import times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    walls, cpus, imports = [], [], []
    for _ in range(repeats):
        wall, cpu, proc = _run_child(cmd)
        reference.time_child()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        walls.append(wall)
        cpus.append(cpu)
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, cpus, imports


def measure_cli_import(repeats: int) -> tuple[float, int]:
    times, modules = [], 0
    for _ in range(repeats):
        _, _, proc = _run_child([sys.executable, "-c", CLI_IMPORT_PROBE])
        if proc.returncode != 0:
            raise RuntimeError(f"CLI import probe failed:\n{proc.stderr}")
        seconds, modules = proc.stdout.split()
        times.append(float(seconds))
    return statistics.median(times), int(modules)


def select(declared: list[dict], values: dict) -> dict:
    """Exactly the declared metrics, in declared order, with their units."""
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def run(args, spec: dict) -> tuple[dict, dict]:
    import workloads
    from tracing import Tracer, layer_metrics

    size = workloads.SIZES["tiny" if args.tiny else "full"]
    reference = None if args.trace else Reference()
    if reference is not None:
        setup_walls, setup_cpus, import_walls = measure_setup(args, size["repeats"], reference)

    tracer = Tracer() if args.trace else None
    setup_mark = tracer.mark() if tracer else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        inputs = workloads.build_inputs(args.workload, args.seed, "tiny" if args.tiny else "full")
    WORKDIR.mkdir(exist_ok=True)
    cli_input = WORKDIR / "cli_input.json"
    cli_input.write_text(json.dumps(inputs["cli_doc"]))
    ctx = Context(size, str(cli_input), reference)
    steps = workloads.steps_for(args.workload, inputs)
    tally = workloads.Tally()

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": "tiny" if args.tiny else "full", "environment": environment()}
    if not args.trace:
        # cold start is measured on every workload; small_calls makes its
        # CLI calls inside the passes, the others between them
        probes = () if args.workload == "small_calls" else workloads.CLI_STEPS[:2]
        passes = iterate(steps, inputs, tally, ctx, args.seconds, size["min_iterations"], probes)
        child_f, calls_f = reference.scales()
        cpus = [p["rest_s"] + p["calls_s"] * calls_f + p["children_s"] * child_f for p in passes]
        rates = [p["calls"] / (p["api_s"] + p["calls_s"] * (calls_f - 1.0)) for p in passes if p["api_s"] > 0]
        values = {
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_cpus) * child_f,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cold_start_s": statistics.median(ctx.cli_cpus) * child_f,
            "calls_per_s": statistics.median(rates),
        }
        declared = spec["end_to_end"]
        report["samples"] = {"cpu_s": len(cpus), "setup_s": len(setup_cpus), "peak_rss_mb": 1,
                             "cold_start_s": len(ctx.cli_cpus), "calls_per_s": len(rates)}
        report["passes"] = passes
        report["cpus"] = {"setup_s": setup_cpus, "cold_start_s": ctx.cli_cpus}
        report["walls"] = {"setup_s": setup_walls, "cold_start_s": ctx.cli_walls}
        report["reference"] = {"child_s": reference.child, "child_scale": child_f,
                               "calls_s": reference.calls, "calls_scale": calls_f}
        report["import_s"] = statistics.median(import_walls)
    else:
        budget = args.seconds / 2.0
        base_walls = [p["wall_s"] for p in iterate(steps, inputs, tally, ctx, budget, 1)]
        iter_mark = tracer.mark()
        ctx.span = tracer.span
        with tracer.installed():
            traced_walls = [p["wall_s"] for p in iterate(steps, inputs, tally, ctx, budget, 1)]
        values = layer_metrics(tracer, setup_mark, iter_mark, traced_walls)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(base_walls)
        values["cli.import_s"], values["cli.import_modules"] = measure_cli_import(size["repeats"])
        declared = spec["per_layer"]
        report["walls"] = {"untraced_pass_s": base_walls, "traced_pass_s": traced_walls}
    err = workloads.fit_err_log10(tally.fit_errors)
    gap = max(tally.bohr_gaps) if tally.bohr_gaps else None
    values["fit.err_log10"] = 0.0 if err is None else err
    values["bohr.gap_max"] = 0.0 if gap is None else gap
    report["quality"] = {  # not gated: see perfbench/README.md
        "fit_err_log10": {"value": err, "unit": "log10", "better": "lower"},
        "bohr_gap_max": {"value": gap, "unit": "ratio", "better": "lower"},
        "failed_frac": {"value": tally.failed / max(1, tally.attempted), "unit": "ratio", "better": "lower"},
    }
    report["metrics"] = {m["name"]: {"unit": m["unit"], "better": m.get("better")} for m in declared}
    metrics = select(declared, values)
    return report, {"correct": tally.failed == 0 and tally.attempted > 0, "attempted": tally.attempted,
                    "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; confirmation seed {CONFIRMATION_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0, help="measurement budget per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run instead of end-to-end ones")
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check only")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "dirapprox" / "__init__.py").is_file():
        print(f"error: no package source under {SRC.relative_to(ROOT)}/dirapprox; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dirapprox

    import_s = time.perf_counter() - t0
    if Path(dirapprox.__file__).resolve().parent != (SRC / "dirapprox").resolve():
        print(f"error: imported dirapprox from {dirapprox.__file__}, not from the checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, import_s)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        report, result = run(args, spec)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
