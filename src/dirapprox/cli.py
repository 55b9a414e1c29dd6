"""Batch command-line front-end with file-based JSON/CSV I/O.

One subcommand per module operation; inputs and outputs are files so
runs are reproducible and diffable.  Exit codes: 0 success, 2 invalid
input, 3 numerical failure (non-convergence), 4 resource limits; any
other exception is an internal error and exits 1 with a traceback.  JSON
artifacts are written with sorted keys and floats at 17 significant
digits, so identical configs and inputs give byte-identical outputs.

DIRAPPROX_THREADS caps the numeric stack's internal parallelism; it is
exported to the BLAS/OpenMP thread-count variables before any handler
imports numpy (this module loads none), and a variable already set wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys

from . import _wire
from .errors import (
    IllConditionedError,
    InvalidInputError,
    NumericalFailureError,
    PoleError,
    ResourceLimitError,
)

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap() -> None:
    cap = os.environ.get("DIRAPPROX_THREADS")
    if cap is None:
        return
    try:
        value = int(cap)
    except ValueError:
        raise InvalidInputError(f"DIRAPPROX_THREADS must be an integer, got {cap!r}")
    if value < 1:
        raise InvalidInputError(f"DIRAPPROX_THREADS must be >= 1, got {value}")
    for var in _THREAD_VARS:  # a more specific var set by the user wins
        os.environ.setdefault(var, str(value))


# ---------------------------------------------------------------------------
# canonical JSON / CSV emission
# ---------------------------------------------------------------------------


def _g17(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInputError("artifact contains a non-finite number")
    return format(float(x), ".17g")


def _canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or type(obj).__name__ == "bool_":
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _g17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        if any(not isinstance(k, str) for k, _ in items):
            raise InvalidInputError("artifact keys must be strings")
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)) or type(obj).__name__ == "ndarray":
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    raise InvalidInputError(f"cannot serialize {type(obj).__name__} into an artifact")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _emit(args, artifact: dict, summary: str) -> None:
    """Write the artifact to --output, or print it when no path was given."""
    text = _canonical_json(artifact) + "\n"
    if args.output:
        _write_text(args.output, text)
        print(summary)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _read_json(path: str | None) -> dict:
    if path is None:
        raise InvalidInputError("this subcommand needs --input")
    try:
        with open(path) as fh:
            return _wire.obj(json.load(fh), "input JSON")
    except FileNotFoundError:
        raise InvalidInputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"input is not valid JSON: {exc}")


def _poly_from(d: dict, key: str = "coefficients"):
    from .series import DirichletPolynomial

    return DirichletPolynomial.from_pairs(_wire.require(d, key))


def _fmt_complex(v: complex) -> str:
    if v.imag == 0:
        return _g17(v.real)
    return f"{_g17(v.real)}{'+' if v.imag >= 0 else '-'}{_g17(abs(v.imag))}j"


def _density_from(args):
    from .geometry import SampleDensity

    if getattr(args, "density", None) is None:
        return None
    d = float(args.density)
    return SampleDensity(boundary_spacing=d, interior_spacing=5.0 * d)


def _dset_from(d: dict, args):
    from .geometry import discretize, spec_from_json_dict

    return discretize(spec_from_json_dict(_wire.require(d, "set")), _density_from(args))


def _target_from(d: dict, key: str = "target"):
    from .fit import TargetFunction

    return TargetFunction.from_json_dict(_wire.require(d, key))


def _family_from(d: dict):
    from .fit import TargetFunction
    from .universal import FamilyEntry, TargetFamily

    entries = []
    for e in _wire.require(d, "family", _wire.array):
        target = TargetFunction.from_json_dict(_wire.require(e, "target"))
        derivs = _wire.array(e.get("derivative_targets", []), "derivative_targets")
        entries.append(
            FamilyEntry(
                target,
                compact_index=_wire.require(e, "compact_index", _wire.integer),
                tol=_wire.require(e, "tol", _wire.number),
                derivative_targets=tuple(TargetFunction.from_json_dict(t) for t in derivs),
                label=_wire.string(e.get("label", ""), "label"),
            )
        )
    return TargetFamily(tuple(entries))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    import numpy as np

    from .series import evaluate_many

    d = _read_json(args.input)
    p = _poly_from(d)
    points = np.array(_wire.require(d, "points", _wire.complexes))
    values = evaluate_many(p, points)
    for v in values:
        print(_fmt_complex(v))
    if args.output:
        _write_text(
            args.output,
            _canonical_json({"values": [[v.real, v.imag] for v in values]}) + "\n",
        )
    return 0


def _cmd_shift(args) -> int:
    from .series import shift_by_delta

    p = _poly_from(_read_json(args.input))
    shifted = shift_by_delta(p, float(args.sigma))
    _emit(args, {"coefficients": shifted.to_pairs()}, f"shifted degree-{p.degree} polynomial by {_g17(args.sigma)}")
    return 0


def _cmd_seminorm(args) -> int:
    from .series import seminorm_sigma

    p = _poly_from(_read_json(args.input))
    value = seminorm_sigma(p, float(args.sigma))
    print(_g17(value))
    if args.output:
        _write_text(
            args.output,
            _canonical_json({"sigma": float(args.sigma), "seminorm": value}) + "\n",
        )
    return 0


def _cmd_supnorm(args) -> int:
    import dataclasses

    from .series import sup_norm_report

    d = _read_json(args.input)
    p = _poly_from(d)
    if "plan" in d:  # refused, not ignored like other extra keys: the sweep it configured is gone
        raise InvalidInputError("supnorm input: the 'plan' key is no longer read; remove it")
    report = sup_norm_report(p, float(args.sigma))
    artifact = dataclasses.asdict(report)
    artifact["sigma0"] = float(args.sigma)
    _emit(args, artifact, f"sup estimate {_g17(report.value)} (upper bound {_g17(report.upper_bound)})")
    return 0


def _cmd_abscissa(args) -> int:
    from .series import CoefficientRule, estimate_abscissas

    d = _read_json(args.input)
    raw = _wire.require(d, "rule")
    kind = _wire.require(raw, "kind")
    if kind == "explicit-list":
        rule = CoefficientRule(kind, data=_wire.require(raw, "coefficients", _wire.complexes))
    elif kind in ("all-ones", "alternating"):
        rule = CoefficientRule(kind)
    else:
        raise InvalidInputError(f"rule kind {kind!r} is not file-representable")
    report = estimate_abscissas(rule, _wire.integer(d.get("truncation", 100_000), "truncation"))
    artifact = report.to_json_dict()
    artifact["ordering_holds"] = report.ordering_holds()
    _emit(
        args,
        artifact,
        f"sigma_c ~ {artifact['sigma_c_estimate']}, sigma_a ~ {artifact['sigma_a_estimate']}",
    )
    return 0


def _cmd_bohr_lift(args) -> int:
    from .bohr import lift

    p = _poly_from(_read_json(args.input))
    q = lift(p)
    terms = sorted(
        (list(idx.exponents), [c.real, c.imag]) for idx, c in q.terms.items()
    )
    artifact = {
        "variable_count": q.variable_count,
        "terms": [{"exponents": e, "coefficient": c} for e, c in terms],
        "source_degree": p.degree,
    }
    _emit(args, artifact, f"lifted to {q.variable_count} variables, {len(terms)} terms")
    return 0


def _cmd_bohr_check(args) -> int:
    import dataclasses

    from .bohr import bohr_gap_report

    p = _poly_from(_read_json(args.input))
    report = bohr_gap_report(p, tolerance=float(args.tol), seed=args.seed)
    artifact = dataclasses.asdict(report)
    artifact["within_tolerance"] = report.within_tolerance
    _emit(
        args,
        artifact,
        f"half-plane {_g17(report.halfplane_value)} vs polydisc {_g17(report.polydisc_value)}"
        f" (gap {_g17(report.relative_gap)})",
    )
    return 0 if report.within_tolerance else 3


def _cmd_fit(args) -> int:
    from .fit import minimax_fit

    d = _read_json(args.input)
    dset = _dset_from(d, args)
    result = minimax_fit(dset, _target_from(d), int(args.degree), target_error=args.tol)
    _emit(args, result.to_json_dict(), f"minimax error {_g17(result.minimax_error)} at degree {args.degree}")
    return 0 if result.converged else 3


def _cmd_fit_constrained(args) -> int:
    from .fit import constrained_fit

    d = _read_json(args.input)
    dset = _dset_from(d, args)
    base = _poly_from(d, "base")
    result = constrained_fit(
        dset,
        _target_from(d),
        base,
        float(args.sigma),
        float(args.eps),
        int(args.degree),
        target_error=args.tol,
    )
    _emit(
        args,
        result.to_json_dict(),
        f"minimax error {_g17(result.minimax_error)}, seminorm distance {_g17(result.constraint_value)}",
    )
    return 0 if result.converged else 3


def _cmd_laurent(args) -> int:
    from .laurent import laurent_decompose

    d = _read_json(args.input)
    dset = _dset_from(d, args)
    anchors = _wire.complexes(d.get("anchors", []), "anchors")
    pieces = laurent_decompose(
        dset, _target_from(d, "function"), anchors, residual_tol=float(args.tol)
    )
    artifact = {
        "residual": pieces.residual,
        "residual_tol": pieces.residual_tol,
        "warning": pieces.warning,
        "nodes_per_contour": pieces.nodes_per_contour,
        "far_probe": list(pieces.far_probe),
        "anchors": [[z.real, z.imag] for z in pieces.anchors],
        "outer_pieces": len(pieces.outer),
        "hole_pieces": len(pieces.holes),
    }
    _emit(args, artifact, f"reconstruction residual {_g17(pieces.residual)}")
    return 3 if pieces.warning else 0


def _cmd_rational_fit(args) -> int:
    from .laurent import rational_dirichlet_fit, rational_to_json_dict

    d = _read_json(args.input)
    dset = _dset_from(d, args)
    anchors = _wire.complexes(d.get("anchors", []), "anchors")
    degrees = _wire.require(d, "degrees", _wire.integers)
    r, err = rational_dirichlet_fit(
        dset,
        _target_from(d, "function"),
        anchors,
        degrees,
        residual_tol=float(args.tol),
    )
    _emit(args, {"rational": rational_to_json_dict(r), "sup_error": err}, f"sup error {_g17(err)}")
    return 0


def _cmd_universal_build(args) -> int:
    from .universal import UniversalOptions, build_universal

    d = _read_json(args.input)
    family = _family_from(d)
    opts = _wire.read_fields(UniversalOptions, d["options"], "universal options") if "options" in d else None
    schedule = build_universal(family, opts)
    for rec in schedule.records:
        status = "ok" if rec.converged else "FAILED"
        print(
            f"stage {rec.compact_index} [{rec.label}]: {status}, cut {rec.cut},"
            f" sup error {_g17(rec.sup_error)}"
        )
    _emit(args, schedule.to_json_dict(), f"schedule with cuts {list(schedule.cuts)}")
    complete = len(schedule.cuts) == len(family) and all(r.converged for r in schedule.records)
    return 0 if complete else 3


def _cmd_universal_verify(args) -> int:
    from .universal import UniversalSchedule, verify_schedule

    d = _read_json(args.input)
    schedule = UniversalSchedule.from_json_dict(_wire.require(d, "schedule"))
    family = _family_from(d)
    report = verify_schedule(schedule, family, tol_factor=float(args.tol))
    _emit(args, report, f"verification {'passed' if report['pass'] else 'FAILED'}")
    return 0 if report["pass"] else 3


def _cmd_chordal_check(args) -> int:
    from .chordal import zeta_chordal_convergence_check

    d = _read_json(args.input)
    interval = _wire.require(d, "interval", _wire.pair)
    ladder = _wire.require(d, "ladder", _wire.integers)
    if args.output is None:
        raise InvalidInputError("chordal-check needs --output for its JSON/CSV pair")
    kwargs = {"grid_tol": float(args.tol)}
    if args.density is not None:
        kwargs["grid_per_unit"] = float(args.density)
    report = zeta_chordal_convergence_check(interval, ladder, float(args.eps), **kwargs)
    _write_text(args.output, _canonical_json(report.to_json_dict()) + "\n")
    csv_path = os.path.splitext(args.output)[0] + ".csv"
    _write_text(csv_path, report.to_csv())
    if report.n0 is None:
        print(f"target {_g17(args.eps)} not reached up to N={report.searched_to}")
    else:
        print(f"N0 = {report.n0} ({report.n0_source}), sup error {_g17(report.n0_error)}")
    print(f"wrote {args.output} and {csv_path}")
    return 0 if report.n0 is not None else 3


def _cmd_convergence_study(args) -> int:
    from .fit import convergence_study

    d = _read_json(args.input)
    dset = _dset_from(d, args)
    degrees = _wire.require(d, "degrees", _wire.integers)
    rows = convergence_study(dset, _target_from(d), degrees, target_error=args.tol)
    csv = "N,minimax_error\n" + "".join(f"{n},{_g17(e)}\n" for n, e in rows)
    if args.output:
        _write_text(args.output, csv)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv)
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: building its 15 subparsers costs ~3 ms a call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirapprox",
        description="Dirichlet-polynomial approximation toolkit (file-based batch commands)",
        epilog="exit codes: 0 success, 1 internal error, 2 invalid input, 3 numerical failure, 4 resource limits",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_, *, degree=False, sigma=None, eps=False, tol=None, density=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", help="input JSON path")
        p.add_argument("--output", help="output artifact path")
        if degree:
            p.add_argument("--degree", type=int, required=True, help="Dirichlet degree N")
        if sigma is not None:
            required, help_sigma, default = sigma
            p.add_argument(
                "--sigma", type=float, required=required, default=default, help=help_sigma
            )
        if eps:
            p.add_argument("--eps", type=float, required=True, help="target tolerance")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol[0], help=tol[1])
        if density:
            p.add_argument("--density", type=float, help="boundary sample spacing")
        p.set_defaults(handler=handler.__name__)  # resolved at dispatch: see main
        return p

    add("eval", _cmd_eval, "evaluate a polynomial at points from the input JSON")
    add("shift", _cmd_shift, "translate a polynomial right by --sigma",
        sigma=(True, "shift amount", None))
    add("seminorm", _cmd_seminorm, "weighted coefficient norm at --sigma",
        sigma=(True, "seminorm weight exponent", None))
    add("supnorm", _cmd_supnorm,
        "lower bound on sup |P| over Re s >= sigma, and Σ|a_n| n^{-σ} (upper bound)",
        sigma=(False, "half-plane edge Re s = sigma", 0.0))
    add("abscissa", _cmd_abscissa, "convergence/absolute abscissa estimates for a coefficient rule")
    add("bohr-lift", _cmd_bohr_lift, "polynomial as a multi-variable polynomial over prime powers")
    bohr_check = add("bohr-check", _cmd_bohr_check, "compare half-plane and polydisc sup estimates",
                     tol=(0.02, "acceptable relative gap"))
    bohr_check.add_argument("--seed", type=int, default=0, help="seed for the polydisc sampling")
    add("fit", _cmd_fit, "discrete minimax fit on a compact set",
        degree=True, tol=(None, "stop once the sup error reaches this"), density=True)
    add("fit-constrained", _cmd_fit_constrained,
        "minimax fit subject to a seminorm budget around a base polynomial",
        degree=True, sigma=(True, "seminorm weight exponent", None), eps=True,
        tol=(None, "exit 0 only if the sup error reaches this"), density=True)
    add("laurent", _cmd_laurent, "additive splitting over the boundary curves of a holed set",
        tol=(1e-8, "reconstruction residual target"), density=True)
    add("rational-fit", _cmd_rational_fit, "rational Dirichlet approximation on a holed set",
        tol=(1e-8, "splitting residual target"), density=True)
    add("universal-build", _cmd_universal_build, "greedy block schedule for a target family")
    add("universal-verify", _cmd_universal_verify, "recheck a schedule on a denser grid",
        tol=(1.5, "tolerance widening factor"))
    add("chordal-check", _cmd_chordal_check, "chordal convergence of zeta partial sums",
        eps=True, tol=(1e-3, "sup-column grid stability tolerance"), density=True)
    add("convergence-study", _cmd_convergence_study, "minimax error per degree as CSV",
        tol=(None, "stop once the sup error reaches this"), density=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_thread_cap()
        # by name, so the cached parser holds no handler and a patched one is what runs
        return globals()[args.handler](args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailureError, IllConditionedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
