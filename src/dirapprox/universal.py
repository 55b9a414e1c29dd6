"""Greedy schedules of coefficient blocks whose partial sums visit targets.

One coefficient sequence is extended stage by stage.  Stage k fits the
family's k-th target on its rectangle K_m = [-m, 0] x [-m, m] by appending
a block of coefficients strictly beyond the previous cut; earlier
coefficients are never touched, so every earlier partial sum survives
verbatim.  Each block is built under a seminorm cap at the stage abscissa,
the finite bookkeeping surrogate for keeping the whole sequence summable
against n^{-sigma} for every sigma > 0.

Feasibility warning baked into the defaults: a block supported beyond the
cut has no constant term available, so flat targets get harder at every
stage.  Stages that cannot reach their tolerance within the degree ladder
produce a failure record and halt extension; the completed prefix is
returned for inspection rather than discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _wire
from .errors import InvalidInputError, integral
from .fit import FitOptions, TargetFunction, _target_values, constrained_fit
from .geometry import CompactSetSpec, SampleDensity, discretize, rectangle
from .series import DirichletPolynomial, _log_range, evaluate_many, seminorm_sigma

__all__ = [
    "FamilyEntry",
    "TargetFamily",
    "UniversalOptions",
    "StageRecord",
    "UniversalSchedule",
    "build_universal",
    "verify_schedule",
]

# Blocks are capped at +160 indices per stage: the reachable-error floors
# flatten long before that (doubling the block length buys a percent or
# two once the low frequencies are spoken for), so longer defaults only
# burn time.  Override via UniversalOptions.block_steps.
_BLOCK_STEPS = (1, 2, 5, 10, 20, 40, 80, 160)
_LADDER_SIGMAS = (1.0, 0.5, 0.25, 0.125, 0.0625)  # seminorm abscissas recorded per block
_GRID_REFINE = 2.0  # verify_schedule samples K_m this much denser than build_universal
_VERIFY_NOTE = (
    "finite-family report: the checks witness the enumerated targets on "
    "their rectangles only; no finite schedule certifies anything about "
    "targets outside the family"
)


def compact_rectangle(m: int) -> CompactSetSpec:
    """K_m = [-m, 0] x [-m, m] as a set spec."""
    if m < 1:
        raise InvalidInputError("compact index must be a positive integer")
    return rectangle(complex(-m, -m), complex(0, m))


def _label_for(target) -> str:
    if isinstance(target, TargetFunction):
        if target.kind == "named":
            if target.name == "constant":
                c = target.constant
                return f"constant {c.real:g}" if c.imag == 0 else f"constant {c:.6g}"
            if target.name == "polynomial":
                return f"polynomial deg {max(len(target.poly_coeffs) - 1, 0)}"
            return target.name
        return "sampled"
    name = getattr(target, "__name__", "")
    return name if name and name != "<lambda>" else "callable"


@dataclass(frozen=True)
class FamilyEntry:
    """One enumerated target: what to hit, on which K_m, and how closely.

    `derivative_targets` optionally carries the first- and second-derivative
    targets (in that order); verification then checks the exactly
    differentiated partial sums against them.  Orders beyond 2 are not
    supported — their sampled checks carry no information at these scales.
    """

    target: object
    compact_index: int
    tol: float
    derivative_targets: tuple = ()
    label: str = ""

    def __post_init__(self):
        if int(self.compact_index) != self.compact_index or self.compact_index < 1:
            raise InvalidInputError("compact index must be a positive integer")
        object.__setattr__(self, "compact_index", int(self.compact_index))
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise InvalidInputError("entry tolerance must be positive and finite")
        if isinstance(self.target, TargetFunction) and self.target.kind == "sampled":
            raise InvalidInputError(
                "family targets must be evaluable on fresh grids; "
                "sampled targets are tied to one discretization"
            )
        dt = tuple(self.derivative_targets)
        if len(dt) > 2:
            raise InvalidInputError("derivative targets are supported for orders 1 and 2 only")
        object.__setattr__(self, "derivative_targets", dt)
        if not self.label:
            object.__setattr__(self, "label", _label_for(self.target))


@dataclass(frozen=True)
class TargetFamily:
    entries: tuple[FamilyEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not all(isinstance(e, FamilyEntry) for e in entries):
            raise InvalidInputError("family entries must be FamilyEntry instances")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class UniversalOptions:
    """Build knobs.

    sigma/budget default per stage to 1/(m+1) and 4^{-m} for the entry's
    compact index m; explicit values override every stage.  The budget
    override is the documented escape hatch for flat targets whose default
    cap is infeasible (see build_universal's failure records).
    """

    sigma: float | None = None
    budget: float | None = None
    block_steps: tuple[int, ...] = _BLOCK_STEPS

    def __post_init__(self):
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError("sigma override must be positive and finite")
        if self.budget is not None and not (math.isfinite(self.budget) and self.budget > 0):
            raise InvalidInputError("budget override must be positive and finite")
        steps = tuple(integral(s, "block_steps") for s in self.block_steps)
        if not steps or any(s < 1 for s in steps) or any(b <= a for a, b in zip(steps, steps[1:])):
            raise InvalidInputError("block_steps must be strictly increasing positive integers")
        object.__setattr__(self, "block_steps", steps)


@dataclass(frozen=True)
class StageRecord:
    """Outcome of one stage: where it cut and what it achieved.

    cut == 0 marks a failed stage (nothing appended); sup_error and
    block_seminorm then describe the best rejected attempt.
    """

    label: str
    compact_index: int
    tol: float
    sigma: float
    budget: float
    cut: int
    block_length: int
    sup_error: float
    block_seminorm: float
    ladder: tuple[tuple[float, float], ...]
    converged: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return _wire.write_fields(self)

    @staticmethod
    def from_json_dict(d: dict) -> "StageRecord":
        """Strict inverse of to_json_dict; a field with a default may be absent."""
        return _wire.read_fields(StageRecord, d, "malformed stage record", written=True)


def _placed_block(coeffs: np.ndarray, prev: int) -> DirichletPolynomial:
    """The coefficients beyond cut `prev` at their own indices (zeros in front)."""
    out = np.array(coeffs, dtype=complex)
    out[:prev] = 0
    return DirichletPolynomial(out)


@dataclass(frozen=True)
class UniversalSchedule:
    """Coefficients built so far, the cuts, and per-stage records.

    cuts are strictly increasing partial-sum lengths; coefficients hold
    exactly the prefix up to the last cut.  Failed stages contribute a
    record but no cut.
    """

    coefficients: np.ndarray
    cuts: tuple[int, ...]
    records: tuple[StageRecord, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex).copy()
        if arr.ndim != 1:
            raise InvalidInputError("schedule coefficients must be one-dimensional")
        cuts = tuple(int(c) for c in self.cuts)
        if any(c < 1 for c in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise InvalidInputError("cuts must be strictly increasing positive integers")
        expected = cuts[-1] if cuts else 0
        if arr.size != expected:
            raise InvalidInputError(
                f"coefficients length {arr.size} does not match final cut {expected}"
            )
        records = tuple(self.records)
        if tuple(r.cut for r in records if r.converged) != cuts:
            raise InvalidInputError("records disagree with cuts about completed stages")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "records", records)

    def partial_sum(self, cut: int) -> DirichletPolynomial:
        if cut < 1 or cut > self.coefficients.size:
            raise InvalidInputError(f"cut {cut} outside the built range")
        return DirichletPolynomial(self.coefficients[:cut])

    def blocks(self) -> tuple[np.ndarray, ...]:
        out, prev = [], 0
        for cut in self.cuts:
            out.append(np.asarray(self.coefficients[prev:cut]))
            prev = cut
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "cuts": list(self.cuts),
            "records": [r.to_json_dict() for r in self.records],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "UniversalSchedule":
        what = "malformed schedule: "
        coeffs = _wire.complexes(_wire.require(d, "coefficients"), what + "coefficients")
        cuts = _wire.array(_wire.require(d, "cuts"), what + "cuts")
        records = _wire.array(_wire.require(d, "records"), what + "records")
        return UniversalSchedule(
            np.array(coeffs, dtype=complex),
            tuple(_wire.written_integer(c, what + "cuts") for c in cuts),
            tuple(StageRecord.from_json_dict(r) for r in records),
        )


def build_universal(
    targets: TargetFamily, options: UniversalOptions | None = None
) -> UniversalSchedule:
    """Extend one coefficient sequence through the family, stage by stage.

    Stage k discretizes K_m for the entry's compact index m and runs
    constrained_fit with f = the already-built prefix, sigma = 1/(m+1),
    seminorm cap 4^{-m} (or the options overrides), and the free block
    lo = previous cut + 1 .. previous cut + block length.  Block lengths
    walk options.block_steps until the fit converges at the entry
    tolerance; the first convergent length becomes the next cut.

    A stage that exhausts the ladder appends a failure record describing
    its best attempt, with the lower_bound of its largest-N fit and that N
    in its detail, and halts extension — the returned schedule keeps all
    completed stages.
    """
    opts = options or UniversalOptions()
    coeffs = np.zeros(0, dtype=complex)
    cuts: list[int] = []
    records: list[StageRecord] = []
    for entry in targets.entries:
        m = entry.compact_index
        sigma = opts.sigma if opts.sigma is not None else 1.0 / (m + 1)
        budget = opts.budget if opts.budget is not None else 4.0 ** (-m)
        dset = discretize(compact_rectangle(m))
        prev = cuts[-1] if cuts else 0
        # an empty prefix is the zero polynomial at n=1, and the free block
        # starts at lo = 1, so stage 1 may still use n=1
        prefix = DirichletPolynomial(coeffs if prev else np.zeros(1, dtype=complex))
        fit_opts = FitOptions(target_error=entry.tol)
        best = None
        for step in opts.block_steps:
            result = constrained_fit(
                dset, entry.target, prefix, sigma, budget, prev + step, fit_opts, lo=prev + 1
            )
            if best is None or result.converged or result.minimax_error < best.minimax_error:
                best = result
            if result.converged:
                break
        degree = best.polynomial.degree
        block = _placed_block(best.polynomial.coefficients, prev)
        records.append(
            StageRecord(
                label=entry.label,
                compact_index=m,
                tol=entry.tol,
                sigma=sigma,
                budget=budget,
                cut=degree if best.converged else 0,
                block_length=degree - prev,
                sup_error=float(best.minimax_error),
                block_seminorm=float(best.constraint_value),
                ladder=tuple((s, seminorm_sigma(block, s)) for s in _LADDER_SIGMAS),
                converged=best.converged,
                detail="" if best.converged else (
                    f"no block of length <= {opts.block_steps[-1]} reached "
                    f"tol {entry.tol:g} under seminorm cap {budget:g} at sigma {sigma:g}; "
                    f"sampled sup error >= {result.lower_bound:.4g} at N = {prev + step}"
                ),
            )
        )
        if not best.converged:
            break
        coeffs = np.array(best.polynomial.coefficients)
        cuts.append(degree)
    return UniversalSchedule(coeffs, tuple(cuts), tuple(records))


def _derivative(p: DirichletPolynomial, order: int) -> DirichletPolynomial:
    """Exact derivative: a_n -> a_n (-log n)^order."""
    return DirichletPolynomial(p.coefficients * (-_log_range(1, p.degree)) ** order)


def verify_schedule(
    sched: UniversalSchedule,
    targets: TargetFamily,
    *,
    tol_factor: float = 1.5,
) -> dict:
    """Re-check every cut against its target on a fresh, denser grid.

    Each completed stage is re-evaluated from raw coefficients (records are
    not trusted) on K_m discretized at twice the build density, and
    passes when its sup error — and, when supplied, the exactly
    differentiated partial sums against the entry's derivative targets —
    stays within tol_factor x tol.  Block seminorm caps are recomputed, and
    the cross-block seminorm totals are reported for the sigma ladder.
    Entries beyond the built cuts are reported as missing and fail.

    Returns a JSON-ready dict with a top-level "pass" boolean.
    """
    if not (math.isfinite(tol_factor) and tol_factor > 0):
        raise InvalidInputError("tol_factor must be finite and positive")
    if len(sched.cuts) > len(targets.entries):
        raise InvalidInputError(
            f"schedule has {len(sched.cuts)} cuts but the family has "
            f"{len(targets.entries)} entries"
        )
    completed = [r for r in sched.records if r.converged]
    for rec, entry in zip(completed, targets.entries):
        if rec.compact_index != entry.compact_index or rec.tol != entry.tol:
            raise InvalidInputError(
                f"stage record ({rec.compact_index}, tol {rec.tol:g}) does not "
                f"align with entry ({entry.compact_index}, tol {entry.tol:g})"
            )
    base = SampleDensity()
    fine = SampleDensity(
        boundary_spacing=base.boundary_spacing / _GRID_REFINE,
        interior_spacing=base.interior_spacing / _GRID_REFINE,
    )

    overall = True
    entries_report = []
    for k, entry in enumerate(targets.entries):
        missing = k >= len(sched.cuts)
        cut = err = None
        deriv_errors: dict[str, float] = {}
        if not missing:
            cut = sched.cuts[k]
            part = sched.partial_sum(cut)
            pts = discretize(compact_rectangle(entry.compact_index), fine).all_samples()
            err = float(np.abs(evaluate_many(part, pts) - _target_values(entry.target, pts)).max())
            for order, gd in enumerate(entry.derivative_targets, start=1):
                dpart = _derivative(part, order)
                deriv_errors[str(order)] = float(
                    np.abs(evaluate_many(dpart, pts) - _target_values(gd, pts)).max()
                )
        entry_pass = not missing and all(
            e <= tol_factor * entry.tol for e in (err, *deriv_errors.values())
        )
        overall = overall and entry_pass
        entries_report.append(
            {
                "index": k,
                "label": entry.label,
                "compact_index": entry.compact_index,
                "tol": entry.tol,
                "cut": cut,
                "sup_error": err,
                "derivative_errors": deriv_errors,
                "missing": missing,
                "pass": entry_pass,
            }
        )

    budget_report = []
    prev = 0
    for rec, cut in zip(completed, sched.cuts):
        value = seminorm_sigma(_placed_block(sched.coefficients[:cut], prev), rec.sigma)
        within = value <= rec.budget * (1.0 + 1e-12) + 1e-15
        overall = overall and within
        budget_report.append(
            {
                "cut": cut,
                "sigma": rec.sigma,
                "budget": rec.budget,
                "block_seminorm": value,
                "within": bool(within),
            }
        )
        prev = cut

    ladder_report = []
    for s in _LADDER_SIGMAS:
        # the blocks tile the coefficients, so their seminorms add up to this
        total = seminorm_sigma(DirichletPolynomial(sched.coefficients), s) if sched.cuts else 0.0
        finite = bool(np.isfinite(total))
        overall = overall and finite
        ladder_report.append({"sigma": s, "total": total, "finite": finite})

    return {
        "pass": bool(overall),
        "grid_refine": _GRID_REFINE,
        "tol_factor": tol_factor,
        "entries": entries_report,
        "budget": budget_report,
        "ladder": ladder_report,
        "note": _VERIFY_NOTE,
    }
