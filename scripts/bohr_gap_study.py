#!/usr/bin/env python3
"""Measure the half-plane vs polydisc sup gap as polynomial length grows.

For each length N, draws random unit-scale Dirichlet polynomials, computes
the polydisc sup estimate of the lift and |P(it)| at its Kronecker witness
t, and prints the worst relative gap per length.  The witness's prime
phases approximate the best torus point, so the gap measures how well a
real point of the line Re s = 0 reproduces it; it grows with the number
of primes.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from dirapprox import DirichletPolynomial, bohr_gap_report, lift


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lengths", type=int, nargs="+",
                    default=[2, 4, 8, 12, 16, 20])
    ap.add_argument("--trials", type=int, default=10, help="polynomials per length")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'N':>4} {'vars':>5} {'worst gap':>10} {'mean gap':>10} "
          f"{'halfplane':>10} {'polydisc':>10} {'sec':>6}")
    for n in args.lengths:
        t0 = time.perf_counter()
        gaps, last = [], None
        for _ in range(args.trials):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            rep = bohr_gap_report(DirichletPolynomial(c))
            gaps.append(rep.relative_gap)
            last = rep
        k = lift(DirichletPolynomial(np.ones(n))).variable_count
        print(f"{n:>4} {k:>5} {max(gaps):>10.2e} {np.mean(gaps):>10.2e} "
              f"{last.halfplane_value:>10.4f} {last.polydisc_value:>10.4f} "
              f"{time.perf_counter() - t0:>6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
