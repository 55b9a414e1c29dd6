"""The three benchmark workloads: seeded inputs, jobs and output checks.

Each workload is a list of steps.  A step runs one or more package calls
on inputs built beforehand from the seed, then checks the outputs against
the acceptance tests' own thresholds.  A failed check (or an exception)
is tallied as a failed job; it never aborts or retries the run.

Package functions are always reached through their module attribute
(``dx.minimax_fit``, ``dcli.main``) at call time, so the tracer in
``tracing.py`` sees every call it patches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dirapprox as dx
import dirapprox.cli as dcli

# Run sizes.  "full" is what the benchmark measures; "tiny" takes the same
# code paths on small inputs and only serves the smoke check.
SIZES = {
    "full": {
        "fit_degrees": (10, 20, 30, 40, 50, 60),
        "rational_degrees": ((10, 10), (60, 60)),
        "ring_density": dx.SampleDensity(),
        "flat_s_steps": (1, 2),
        "bohr_degrees": (3, 5, 8, 12, 16, 17),
        "zeta_grid_per_unit": 2000.0,
        "abscissa_truncation": 100_000,
        "batch": 2000,
        "repeats": 3,
        "min_iterations": 2,
    },
    "tiny": {
        "fit_degrees": (10, 20),
        "rational_degrees": ((4, 4), (16, 16)),
        "ring_density": dx.SampleDensity(boundary_spacing=0.05, interior_spacing=0.25),
        "flat_s_steps": (1,),
        "bohr_degrees": (3, 8),
        "zeta_grid_per_unit": 50.0,
        "abscissa_truncation": 1_000,
        "batch": 20,
        "repeats": 1,
        "min_iterations": 1,
    },
}


@dataclass
class Tally:
    """Jobs attempted and failed, package calls made, and side data."""

    attempted: int = 0
    failed: int = 0
    calls: int = 0
    fit_errors: list = field(default_factory=list)
    bohr_gaps: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable  # run(inputs, tally, ctx) -> None
    cli: bool = False  # spends its time in CLI subprocesses
    calls: bool = False  # many tiny in-process calls: interpreter-bound, not array-bound


def run_step(step: Step, inputs: dict, tally: Tally, ctx) -> None:
    try:
        step.run(inputs, tally, ctx)
    except Exception:  # a crashing job is a failed job; the run goes on
        traceback.print_exc(file=sys.stderr)
        tally.check(False, f"{step.name} raised")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _random_poly(rng, n: int, sparse: bool = False) -> np.ndarray:
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if sparse:
        c[rng.random(n) < 0.25] = 0  # exercises index trimming
    return c


def cli_inputs(seed: int) -> dict:
    """One tiny polynomial plus evaluation points for the CLI calls."""
    rng = np.random.default_rng([seed, 4])
    n = int(rng.integers(3, 13))
    coeffs = _random_poly(rng, n)
    points = rng.uniform(-1.0, 2.0, 5) + 1j * rng.uniform(-10.0, 10.0, 5)
    return {
        "cli_doc": {
            "coefficients": [[c.real, c.imag] for c in coeffs],
            "points": [[z.real, z.imag] for z in points],
        },
        "cli_poly": dx.DirichletPolynomial(coeffs),
        "cli_points": points,
    }


def build_inputs(workload: str, seed: int, size: str) -> dict:
    """Everything the workload's jobs consume, generated from the seed."""
    sz = SIZES[size]
    inputs = cli_inputs(seed)
    if workload == "fit":
        rng = np.random.default_rng([seed, 1])
        inputs["disc"] = dx.discretize(dx.disc(-1.0, 0.5), dx.SampleDensity())
        inputs["ring"] = dx.discretize(dx.annulus(0.0, 1.0, 2.0), sz["ring_density"])
        inputs["probes"] = rng.uniform(1.05, 1.95, 100) * np.exp(2j * np.pi * rng.random(100))
        zero = dx.FamilyEntry(dx.TargetFunction.const(0.0), 1, 0.1, label="zero")
        inputs["families"] = (
            (
                "chained",
                dx.TargetFamily((
                    zero,
                    dx.FamilyEntry(lambda s: 0.3 * 2.0 ** (-s), 1, 1e-6, label="two-term"),
                    dx.FamilyEntry(lambda s: 0.3 * 2.0 ** (-s) + 0.25 * 3.0 ** (-s), 1, 1e-6,
                                   label="three-term"),
                )),
                None,
                3,
            ),
            (
                "flat-one-cap10",
                dx.TargetFamily((zero, dx.FamilyEntry(dx.TargetFunction.const(1.0), 1, 0.1, label="one"))),
                dx.UniversalOptions(budget=10.0),
                None,
            ),
            (
                "flat-s",
                dx.TargetFamily((zero, dx.FamilyEntry(dx.TargetFunction.identity(), 1, 0.1, label="s"))),
                dx.UniversalOptions(block_steps=sz["flat_s_steps"]),
                1,
            ),
        )
    elif workload == "sup":
        rng = np.random.default_rng([seed, 3])
        inputs["bohr_polys"] = [dx.DirichletPolynomial(_random_poly(rng, n)) for n in sz["bohr_degrees"]]
    elif workload == "small_calls":
        rng = np.random.default_rng([seed, 5])
        b = sz["batch"]
        inputs["lift_polys"] = [
            dx.DirichletPolynomial(_random_poly(rng, int(rng.integers(1, 41)), sparse=True))
            for _ in range(b)
        ]
        inputs["seminorm_cases"] = [
            (
                dx.DirichletPolynomial(_random_poly(rng, int(rng.integers(1, 61)))),
                float(rng.uniform(0.05, 3.0)),
                float(rng.uniform(0.0, 2.0)),
                rng.uniform(0.05, 3.0, 4) + 1j * rng.uniform(-20.0, 20.0, 4),
            )
            for _ in range(b)
        ]
        inputs["chi_triples"] = [tuple(_sphere_points(rng, 16) for _ in range(3)) for _ in range(b)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _sphere_points(rng, n: int):
    """Values with moduli e^-200 .. e^400, 8% of them tagged infinite."""
    scale = np.exp(rng.uniform(-200.0, 400.0, size=n))
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale, rng.random(n) < 0.08


# ---------------------------------------------------------------------------
# fit: acceptance 03 and 06 ...
# ---------------------------------------------------------------------------


def _minimax_ladder(inp, tally, ctx):
    g = dx.TargetFunction.exp()
    errs = [dx.minimax_fit(inp["disc"], g, n).minimax_error for n in ctx.size["fit_degrees"]]
    tally.calls += len(errs)
    tally.fit_errors += errs
    lo, hi = errs[0], errs[-1]
    tally.check(hi < 0.5 * lo and hi < 1e-2, f"minimax err(N={ctx.size['fit_degrees'][-1]}) {hi:.3e} "
                f"vs err(N={ctx.size['fit_degrees'][0]}) {lo:.3e}")


def _laurent_split(inp, tally, ctx):
    pieces = dx.laurent_decompose(inp["ring"], lambda s: s + 1.0 / s, [0.0])
    pts = inp["probes"]
    recon = float(np.abs(pieces.reconstruct(pts) - (pts + 1.0 / pts)).max())
    tally.calls += 2
    tally.check(recon <= 1e-8, f"Laurent reconstruction error {recon:.2e}")


def _rational_fits(inp, tally, ctx):
    def target(s):
        return np.exp(s) + np.exp(1.0 / s)

    errs = [dx.rational_dirichlet_fit(inp["ring"], target, [0.0], d)[1] for d in ctx.size["rational_degrees"]]
    tally.calls += len(errs)
    tally.fit_errors += errs
    tally.check(errs[-1] < 0.5 * errs[0], f"rational err {errs[0]:.4f} -> {errs[-1]:.4f}")


# ---------------------------------------------------------------------------
# ... and acceptance 05 and the demo script: universal schedules
# ---------------------------------------------------------------------------


def _universal_family(label, fam, options, must_complete):
    def run(inp, tally, ctx):
        sched = dx.build_universal(fam, options)
        report = dx.verify_schedule(sched, fam)
        tally.calls += 2
        done = [r for r in sched.records if r.converged]
        for k, rec in enumerate(done):
            entry, budget = report["entries"][k], report["budget"][k]
            tally.check(entry["pass"] and budget["within"],
                        f"{label}: completed stage {rec.label} fails verification")
        for rec in sched.records:
            if not rec.converged:  # a failure record must be an honest one
                tally.check(rec.cut == 0 and rec.sup_error > rec.tol,
                            f"{label}: failure record {rec.label} reports sup {rec.sup_error:.4f}")
        if must_complete is not None:
            tally.check(len(done) == must_complete,
                        f"{label}: {len(done)} stages completed, expected {must_complete}")
        if must_complete is not None and must_complete < len(fam):
            tally.check(len(sched.records) == must_complete + 1
                        and not sched.records[-1].converged,
                        f"{label}: stage after the last completed one is not a failure record")

    return run


# ---------------------------------------------------------------------------
# sup: acceptance 01, 08 and 09
# ---------------------------------------------------------------------------


def _bohr_gap(k):
    def run(inp, tally, ctx):
        rep = dx.bohr_gap_report(inp["bohr_polys"][k])
        tally.calls += 1
        tally.bohr_gaps.append(rep.relative_gap)
        tally.check(rep.within_tolerance and rep.relative_gap <= 0.02,
                    f"Bohr gap {rep.relative_gap:.4%} at N={inp['bohr_polys'][k].degree}")

    return run


def _zeta_check(inp, tally, ctx):
    rep = dx.zeta_chordal_convergence_check(
        (-5.0, 5.0), (10, 100, 1_000, 10_000), 0.1, grid_per_unit=ctx.size["zeta_grid_per_unit"])
    tally.calls += 1
    monotone = all(b <= a + 1e-15 for a, b in zip(rep.errors, rep.errors[1:]))
    tally.check(monotone and rep.n0 is not None and rep.n0_error <= 0.1,
                f"zeta column {rep.errors}, n0 {rep.n0}")


def _abscissas(inp, tally, ctx):
    m = ctx.size["abscissa_truncation"]
    rules = [
        ("all-ones", dx.CoefficientRule("all-ones"), m),
        ("alternating", dx.CoefficientRule("alternating"), m),
        ("explicit", dx.CoefficientRule("explicit-list", data=np.array([1.0, 2.0, 0.0, 4.0], dtype=complex)), m),
        ("linear growth", dx.CoefficientRule("named-custom", fn=lambda k: float(k), name="n"), max(100, m // 5)),
        ("inverse square", dx.CoefficientRule("named-custom", fn=lambda k: 1.0 / (k * k), name="1/n^2"), m),
    ]
    reports = [(name, dx.estimate_abscissas(rule, trunc)) for name, rule, trunc in rules]
    tally.calls += len(reports)
    ones = reports[0][1]
    tally.check(abs(ones.sigma_c_estimate - 1.0) <= 0.1, f"all-ones sigma_c {ones.sigma_c_estimate}")
    for name, rep in reports:
        tally.check(rep.ordering_holds(0.05), f"abscissa ordering for {name}")


# ---------------------------------------------------------------------------
# small_calls: acceptance 02, 07 and 10, CLI cold start
# ---------------------------------------------------------------------------


def _cli_eval(inp, tally, ctx):
    code, out = ctx.cli(["eval", "--input", ctx.cli_input])
    got = [complex(line) for line in out.split()] if code == 0 else []
    want = list(dx.evaluate_many(inp["cli_poly"], inp["cli_points"]))
    tally.check(code == 0 and got == want, f"CLI eval exit {code}, values {got} vs {want}")


def _cli_seminorm(inp, tally, ctx):
    code, out = ctx.cli(["seminorm", "--sigma", "0.5", "--input", ctx.cli_input])
    want = dx.seminorm_sigma(inp["cli_poly"], 0.5)
    tally.check(code == 0 and float(out) == want, f"CLI seminorm exit {code}, {out!r} vs {want!r}")


def _cli_shift(inp, tally, ctx):
    code, out = ctx.cli(["shift", "--sigma", "0.25", "--input", ctx.cli_input])
    got = [complex(re, im) for re, im in json.loads(out)["coefficients"]] if code == 0 else []
    want = list(dx.shift_by_delta(inp["cli_poly"], 0.25).coefficients)
    tally.check(code == 0 and got == want, f"CLI shift exit {code}")


def _lift_terms(q) -> dict:
    return {tuple(ix.exponents): c for ix, c in q.terms.items()}


def _cli_bohr_lift(inp, tally, ctx):
    code, out = ctx.cli(["bohr-lift", "--input", ctx.cli_input])
    got = {}
    if code == 0:
        doc = json.loads(out)
        got = {tuple(t["exponents"]): complex(*t["coefficient"]) for t in doc["terms"]}
    tally.check(code == 0 and got == _lift_terms(dx.lift(inp["cli_poly"])), f"CLI bohr-lift exit {code}")


CLI_STEPS = (
    Step("cli eval", _cli_eval, cli=True),
    Step("cli seminorm", _cli_seminorm, cli=True),
    Step("cli shift", _cli_shift, cli=True),
    Step("cli bohr-lift", _cli_bohr_lift, cli=True),
)


def _lift_round_trips(inp, tally, ctx):
    for p in inp["lift_polys"]:
        tally.check(dx.unlift(dx.lift(p)) == p, f"lift round trip at N={p.degree}")
    tally.calls += 2 * len(inp["lift_polys"])


def _seminorm_invariants(inp, tally, ctx):
    for p, sigma, delta, pts in inp["seminorm_cases"]:
        direct = dx.seminorm_sigma(p, sigma + delta)
        shift = abs(dx.seminorm_sigma(dx.shift_by_delta(p, delta), sigma) - direct) / direct
        mono = (direct - dx.seminorm_sigma(p, sigma)) / direct
        point = abs(dx.evaluate(p, pts[0])) / dx.seminorm_sigma(p, pts[0].real) - 1.0
        bounds = np.array([dx.seminorm_sigma(p, s.real) for s in pts])
        many = float((np.abs(dx.evaluate_many(p, pts)) / bounds - 1.0).max())
        tally.calls += 11
        tally.check(max(shift, mono, point, many) <= 1e-12,
                    f"seminorm defects shift {shift:.1e} mono {mono:.1e} point {max(point, many):.1e}")


def _chi_axioms(inp, tally, ctx):
    for (a, ai), (b, bi), (c, ci) in inp["chi_triples"]:
        ab = dx.chi_many(a, b, a_infinite=ai, b_infinite=bi)
        ba = dx.chi_many(b, a, a_infinite=bi, b_infinite=ai)
        ac = dx.chi_many(a, c, a_infinite=ai, b_infinite=ci)
        bc = dx.chi_many(b, c, a_infinite=bi, b_infinite=ci)
        tally.calls += 4
        sym = float(np.abs(ab - ba).max())
        lo = float(min(ab.min(), ac.min(), bc.min()))
        hi = float(max(ab.max(), ac.max(), bc.max()))
        tri = float((ac - ab - bc).max())
        tally.check(sym <= 1e-14 and lo >= 0.0 and hi <= 1.0 and tri <= 1e-14,
                    f"chi axioms: symmetry {sym:.1e}, range [{lo}, {hi}], triangle {tri:.1e}")


def _cli_main_in_process(inp, tally, ctx):
    """The CLI's own dispatch on a tiny input, without interpreter start-up."""
    for argv, want in (
        (["eval", "--input", ctx.cli_input], list(dx.evaluate_many(inp["cli_poly"], inp["cli_points"]))),
        (["seminorm", "--sigma", "0.5", "--input", ctx.cli_input], [dx.seminorm_sigma(inp["cli_poly"], 0.5)]),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dcli.main(argv)
        tally.calls += 1
        got = [complex(line) for line in buf.getvalue().split()]
        tally.check(code == 0 and got == want, f"in-process CLI {argv[0]} exit {code}")


STEPS = {
    "fit": lambda inp: [
        Step("minimax ladder", _minimax_ladder),
        Step("laurent split", _laurent_split),
        Step("rational fits", _rational_fits),
    ]
    + [Step(f"universal {label}", _universal_family(label, fam, opts, must)) for label, fam, opts, must in inp["families"]],
    "sup": lambda inp: [Step(f"bohr gap N={p.degree}", _bohr_gap(k)) for k, p in enumerate(inp["bohr_polys"])]
    + [Step("zeta chordal", _zeta_check), Step("abscissas", _abscissas)],
    "small_calls": lambda inp: [
        *CLI_STEPS,
        Step("lift round trips", _lift_round_trips, calls=True),
        Step("seminorm invariants", _seminorm_invariants, calls=True),
        Step("chi axioms", _chi_axioms, calls=True),
        Step("cli main in-process", _cli_main_in_process, calls=True),
    ],
}


def steps_for(workload: str, inputs: dict) -> list[Step]:
    return STEPS[workload](inputs)


def fit_err_log10(errors: list) -> float | None:
    """Mean log10 of the sampled sup errors (None when nothing was fitted)."""
    errs = [e for e in errors if e > 0]
    return sum(math.log10(e) for e in errs) / len(errs) if errs else None
