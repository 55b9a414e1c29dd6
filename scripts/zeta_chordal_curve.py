#!/usr/bin/env python3
"""Trace how zeta partial sums converge chordally on a sigma interval.

Prints the ladder of sampled sup chordal errors, the first qualifying
truncation N0, and optionally writes the ladder as CSV.  Left of the
divergence abscissa the partial sums run off to the point at infinity,
which is exactly where the limit lives — so the chordal error still
drops, which is the whole point of measuring on the sphere.
"""

from __future__ import annotations

import argparse

from dirapprox import zeta_chordal_convergence_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=-5.0)
    ap.add_argument("--hi", type=float, default=5.0)
    ap.add_argument("--ladder", type=int, nargs="+",
                    default=[10, 100, 1_000, 10_000])
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--csv", help="write the ladder column to this path")
    args = ap.parse_args()

    rep = zeta_chordal_convergence_check(
        (args.lo, args.hi), tuple(args.ladder), args.eps)

    print(f"interval [{args.lo:g}, {args.hi:g}]  target eps {args.eps:g}")
    print(f"grid: {rep.grid_points} points at {rep.grid_per_unit:g}/unit "
          f"(refinement converged: {rep.grid_converged})")
    print(f"{'N':>10} {'sup chordal error':>18}")
    for n, e in zip(rep.ladder, rep.errors):
        print(f"{n:>10} {e:>18.6f}")
    if rep.n0 is not None:
        print(f"N0 = {rep.n0} (via {rep.n0_source}) with sup error "
              f"{rep.n0_error:.6f}")
    else:
        print(f"no qualifying N found up to {rep.searched_to}")
    if rep.band is not None:
        print(f"band {rep.band['interval']}: qualification widened to "
              f"{rep.band['tolerance_factor']:g} x eps over "
              f"{rep.band['points']} grid points")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rep.to_csv())
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
