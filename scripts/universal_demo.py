#!/usr/bin/env python3
"""Build one coefficient sequence serving several targets, then verify it.

Two runs.  First a chained family whose stages each need one fresh index,
which builds cleanly under the default per-block seminorm caps.  Then the
flat family (0, 1, s): under the default cap 4^{-m} the constant-1 stage
is infeasible — low-frequency mass on the unit rectangle cannot come from
indices n >= 2 that cheaply — so the build halts with a failure record.
A loosened --budget lets that stage through; the identity stage then hits
the floor of blocks that start past the cut, showing the cap is not the
only obstacle.  --block-steps shortens the block ladder of every run.
"""

from __future__ import annotations

import argparse

from dirapprox import (
    FamilyEntry,
    TargetFamily,
    TargetFunction,
    UniversalOptions,
    build_universal,
    verify_schedule,
)


def show(title: str, fam: TargetFamily, options: UniversalOptions) -> None:
    print(f"== {title} ==")
    sched = build_universal(fam, options)
    for rec in sched.records:
        state = "ok " if rec.converged else "FAIL"
        print(f"  [{state}] {rec.label or 'stage':<12} cut {rec.cut:>4} "
              f"block {rec.block_length:>4}  sup {rec.sup_error:.2e}  "
              f"seminorm {rec.block_seminorm:.4f} / cap {rec.budget:.4f} "
              f"at sigma {rec.sigma:g}")
    report = verify_schedule(sched, fam)
    print(f"  cuts {sched.cuts}  verify pass: {report['pass']}")
    for row in report["ladder"]:
        print(f"    seminorm total at sigma {row['sigma']:g}: "
              f"{row['total']:.4f} (finite: {row['finite']})")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=10.0,
                    help="loosened per-block seminorm cap for the flat family rerun")
    ap.add_argument("--block-steps", type=int, nargs="+",
                    default=list(UniversalOptions().block_steps),
                    help="block lengths each stage tries, ascending (default: %(default)s)")
    args = ap.parse_args()
    steps = tuple(args.block_steps)

    chained = TargetFamily((
        FamilyEntry(TargetFunction.const(0.0), 1, 0.1, label="zero"),
        FamilyEntry(lambda s: 0.3 * 2.0 ** (-s), 1, 1e-6, label="two-term"),
        FamilyEntry(lambda s: 0.3 * 2.0 ** (-s) + 0.25 * 3.0 ** (-s), 1,
                    1e-6, label="three-term"),
    ))
    show("chained family, default caps", chained, UniversalOptions(block_steps=steps))

    flat = TargetFamily((
        FamilyEntry(TargetFunction.const(0.0), 1, 0.1, label="zero"),
        FamilyEntry(TargetFunction.const(1.0), 1, 0.1, label="one"),
        FamilyEntry(TargetFunction.identity(), 1, 0.1, label="s"),
    ))
    show("flat family (0, 1, s), default caps", flat, UniversalOptions(block_steps=steps))
    show(f"flat family, cap loosened to {args.budget:g}", flat,
         UniversalOptions(budget=args.budget, block_steps=steps))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
