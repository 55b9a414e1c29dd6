"""Schedule construction: greedy blocks, bookkeeping, and re-verification.

Success-path oracles use targets that are exactly representable past the
current cut (each target extends the previous one by a fresh index), so
expected coefficients are known in closed form.  Flat targets document the
honest failure mode: once the first indices are spent, a block with no
constant term cannot reach a constant to desk tolerances under the default
seminorm caps.
"""

import math

import numpy as np
import pytest

from dirapprox.errors import InvalidInputError
from dirapprox.fit import TargetFunction
from dirapprox.universal import (
    FamilyEntry,
    StageRecord,
    TargetFamily,
    UniversalOptions,
    UniversalSchedule,
    build_universal,
    compact_rectangle,
    verify_schedule,
)

LN2 = math.log(2.0)


def chained_family() -> TargetFamily:
    """Targets 0, 0.3*2^-s, 0.3*2^-s + 0.25*3^-s: each stage needs one new index."""
    return TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
            FamilyEntry(lambda s: 0.3 * 2.0 ** (-s), 1, 1e-6, label="two-term"),
            FamilyEntry(
                lambda s: 0.3 * 2.0 ** (-s) + 0.25 * 3.0 ** (-s), 1, 1e-6, label="three-term"
            ),
        )
    )


# ---------------------------------------------------------------------------
# build_universal
# ---------------------------------------------------------------------------


def test_empty_family_gives_empty_schedule():
    sched = build_universal(TargetFamily(()))
    assert sched.coefficients.size == 0
    assert sched.cuts == ()
    assert sched.records == ()


def test_single_zero_target_gives_zero_block():
    fam = TargetFamily((FamilyEntry(TargetFunction.const(0.0), 1, 0.1),))
    sched = build_universal(fam)
    assert sched.cuts == (1,)
    assert np.array_equal(sched.coefficients, np.zeros(1, dtype=complex))
    rec = sched.records[0]
    assert rec.converged and rec.sup_error == 0.0 and rec.block_seminorm == 0.0


def test_chained_family_builds_with_increasing_cuts():
    sched = build_universal(chained_family())
    assert sched.cuts == (1, 2, 3)
    assert all(a < b for a, b in zip(sched.cuts, sched.cuts[1:]))
    # representable targets pin the coefficients exactly
    assert np.allclose(sched.coefficients, [0.0, 0.3, 0.25], atol=1e-9)
    for rec in sched.records:
        assert rec.converged
        assert rec.sup_error <= rec.tol
        assert rec.block_seminorm <= rec.budget + 1e-12
        assert rec.sigma == 0.5 and rec.budget == 0.25  # compact index 1 defaults


def test_prefix_immutable_as_stages_extend():
    fam = chained_family()
    two = build_universal(TargetFamily(fam.entries[:2]))
    three = build_universal(fam)
    assert np.array_equal(three.coefficients[: two.cuts[-1]], two.coefficients)


def test_build_is_deterministic():
    a = build_universal(chained_family())
    b = build_universal(chained_family())
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.cuts == b.cuts
    assert a.records == b.records


def test_flat_target_past_the_cut_fails_with_record():
    # once index 1 is spent, no block reaches the constant 1 on K_1 under
    # the default cap 0.25: the reachable floor sits around 0.7
    fam = TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
            FamilyEntry(TargetFunction.const(1.0), 1, 0.1),
        )
    )
    sched = build_universal(fam, UniversalOptions(block_steps=(1, 2, 5, 10)))
    assert sched.cuts == (1,)
    assert len(sched.records) == 2
    failure = sched.records[1]
    assert not failure.converged
    assert failure.cut == 0
    assert failure.sup_error > 0.3
    assert "tol" in failure.detail and failure.detail
    # ... and the lower bound at the ladder's largest N rules the cap out
    head, _, n = failure.detail.rpartition(" at N = ")
    assert n == "11" and 0.7 <= float(head.rpartition(">= ")[2]) <= failure.sup_error
    # the attempted block was still held inside the cap
    assert failure.block_seminorm <= failure.budget + 1e-9


def test_budget_override_makes_flat_target_reachable():
    fam = TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
            FamilyEntry(TargetFunction.const(1.0), 1, 0.1),
        )
    )
    opts = UniversalOptions(budget=10.0, block_steps=(1, 2, 5, 10, 20, 40))
    sched = build_universal(fam, opts)
    assert len(sched.cuts) == 2
    assert sched.records[1].converged
    assert sched.records[1].sup_error <= 0.1
    report = verify_schedule(sched, fam)
    assert report["pass"]


def test_stage_failure_halts_extension():
    fam = TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
            FamilyEntry(TargetFunction.const(1.0), 1, 0.1),
            FamilyEntry(lambda s: 0.3 * 2.0 ** (-s), 1, 1e-6),
        )
    )
    sched = build_universal(fam, UniversalOptions(block_steps=(1, 2, 5)))
    # the failing flat stage stops the build; the third entry is never tried
    assert len(sched.records) == 2
    assert sched.cuts == (1,)


# ---------------------------------------------------------------------------
# verify_schedule
# ---------------------------------------------------------------------------


def test_verify_chained_family_passes_on_denser_grid():
    fam = chained_family()
    sched = build_universal(fam)
    report = verify_schedule(sched, fam)
    assert report["pass"]
    assert all(e["pass"] and not e["missing"] for e in report["entries"])
    for e, rec in zip(report["entries"], sched.records):
        assert e["sup_error"] <= 1.5 * rec.tol
    assert all(b["within"] for b in report["budget"])
    assert all(l["finite"] for l in report["ladder"])
    assert "finite-family" in report["note"]


def test_verify_recomputes_each_block_seminorm_exactly():
    fam = chained_family()
    sched = build_universal(fam)
    report = verify_schedule(sched, fam)
    done = [r for r in sched.records if r.converged]
    assert len(done) == 3
    assert [b["block_seminorm"] for b in report["budget"]] == [r.block_seminorm for r in done]


def test_verify_zero_schedule_passes_with_error_zero():
    fam = TargetFamily((FamilyEntry(TargetFunction.const(0.0), 1, 0.1),))
    report = verify_schedule(build_universal(fam), fam)
    assert report["pass"]
    assert report["entries"][0]["sup_error"] == 0.0


def test_verify_flags_missing_stages():
    fam = TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
            FamilyEntry(TargetFunction.const(1.0), 1, 0.1),
        )
    )
    sched = build_universal(fam, UniversalOptions(block_steps=(1, 2)))
    report = verify_schedule(sched, fam)
    assert not report["pass"]
    assert report["entries"][1]["missing"]
    assert not report["entries"][1]["pass"]


def test_tampered_coefficient_fails_verification():
    fam = chained_family()
    sched = build_universal(fam)
    bumped = sched.coefficients.copy()
    bumped[1] += 10.0
    tampered = UniversalSchedule(bumped, sched.cuts, sched.records)
    report = verify_schedule(tampered, fam)
    assert not report["pass"]
    assert any(not e["pass"] for e in report["entries"])
    # the recomputed block seminorm now breaks its recorded cap too
    assert any(not b["within"] for b in report["budget"])


def test_verify_rejects_misaligned_inputs():
    fam = chained_family()
    sched = build_universal(fam)
    with pytest.raises(InvalidInputError):
        verify_schedule(sched, TargetFamily(fam.entries[:2]))
    relabeled = TargetFamily(
        (
            FamilyEntry(TargetFunction.const(0.0), 1, 0.2),  # tol differs from the build
            fam.entries[1],
            fam.entries[2],
        )
    )
    with pytest.raises(InvalidInputError):
        verify_schedule(sched, relabeled)


@pytest.mark.parametrize("tol_factor", [0.0, -1.0, math.nan, math.inf])
def test_verify_rejects_bad_tol_factor_before_any_check(tol_factor, monkeypatch):
    fam = TargetFamily((FamilyEntry(TargetFunction.const(0.0), 1, 0.1),))
    sched = build_universal(fam)

    def checked(*args, **kw):
        raise AssertionError("verification started")

    monkeypatch.setattr("dirapprox.universal.discretize", checked)
    with pytest.raises(InvalidInputError):
        verify_schedule(sched, fam, tol_factor=tol_factor)


def test_derivative_targets_checked_exactly():
    g = lambda s: 0.3 * 2.0 ** (-s)
    dg = lambda s: -0.3 * LN2 * 2.0 ** (-s)
    d2g = lambda s: 0.3 * LN2**2 * 2.0 ** (-s)
    fam = TargetFamily((FamilyEntry(g, 1, 1e-6, derivative_targets=(dg, d2g)),))
    sched = build_universal(fam)
    report = verify_schedule(sched, fam)
    assert report["pass"]
    errs = report["entries"][0]["derivative_errors"]
    assert errs["1"] <= 1e-9 and errs["2"] <= 1e-9

    wrong = TargetFamily(
        (FamilyEntry(g, 1, 1e-6, derivative_targets=(TargetFunction.const(0.0),)),)
    )
    assert not verify_schedule(sched, wrong)["pass"]


def test_ladder_totals_decrease_as_sigma_grows():
    sched = build_universal(chained_family())
    report = verify_schedule(sched, chained_family())
    ladder = report["ladder"]  # sigmas listed decreasing
    totals = [l["total"] for l in ladder]
    assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# structure, validation, round trips
# ---------------------------------------------------------------------------


def test_partial_sums_and_blocks_slice_the_coefficients():
    sched = build_universal(chained_family())
    assert np.array_equal(sched.partial_sum(2).coefficients, sched.coefficients[:2])
    blocks = sched.blocks()
    assert [b.size for b in blocks] == [1, 1, 1]
    assert np.array_equal(np.concatenate(blocks), sched.coefficients)
    with pytest.raises(InvalidInputError):
        sched.partial_sum(0)
    with pytest.raises(InvalidInputError):
        sched.partial_sum(99)


def test_schedule_json_round_trip():
    sched = build_universal(chained_family())
    clone = UniversalSchedule.from_json_dict(sched.to_json_dict())
    assert np.array_equal(clone.coefficients, sched.coefficients)
    assert clone.cuts == sched.cuts
    assert clone.records == sched.records


def test_family_entry_validation():
    with pytest.raises(InvalidInputError):
        FamilyEntry(TargetFunction.const(1.0), 0, 0.1)
    with pytest.raises(InvalidInputError):
        FamilyEntry(TargetFunction.const(1.0), 1, 0.0)
    with pytest.raises(InvalidInputError):
        FamilyEntry(TargetFunction.const(1.0), 1, 0.1, derivative_targets=(1, 2, 3))
    with pytest.raises(InvalidInputError):
        FamilyEntry(TargetFunction.sampled(np.ones(4)), 1, 0.1)


def test_schedule_invariants_validated():
    with pytest.raises(InvalidInputError):
        UniversalSchedule(np.zeros(2, dtype=complex), (2, 2))
    with pytest.raises(InvalidInputError):
        UniversalSchedule(np.zeros(3, dtype=complex), (2,))
    rec = build_universal(
        TargetFamily((FamilyEntry(TargetFunction.const(0.0), 1, 0.1),))
    ).records[0]
    with pytest.raises(InvalidInputError):
        UniversalSchedule(np.zeros(1, dtype=complex), (1,), (rec, rec))


def test_converged_records_must_name_their_cuts():
    sched = build_universal(TargetFamily((FamilyEntry(TargetFunction.const(0.0), 1, 0.1),)))
    assert sched.cuts == (1,) and sched.records[0].cut == 1
    doc = sched.to_json_dict()
    doc["records"][0]["cut"] = 7
    with pytest.raises(InvalidInputError, match="records disagree with cuts"):
        UniversalSchedule.from_json_dict(doc)


def test_options_validation():
    with pytest.raises(InvalidInputError):
        UniversalOptions(sigma=-1.0)
    with pytest.raises(InvalidInputError):
        UniversalOptions(budget=0.0)
    with pytest.raises(InvalidInputError):
        UniversalOptions(block_steps=(5, 5))
    for steps in ((1.9, 2.2), (1, True)):
        with pytest.raises(InvalidInputError, match="block_steps must be an integer"):
            UniversalOptions(block_steps=steps)
    assert UniversalOptions(block_steps=(1.0, 2)).block_steps == (1, 2)


def test_compact_rectangle_shape():
    spec = compact_rectangle(2)
    with pytest.raises(InvalidInputError):
        compact_rectangle(0)
    pts = __import__("dirapprox.geometry", fromlist=["discretize"]).discretize(spec).all_samples()
    assert pts.real.min() >= -2 - 1e-12 and pts.real.max() <= 1e-12
    assert abs(pts.imag).max() <= 2 + 1e-12
