"""Riemann-sphere (chordal) metric and chi-uniform convergence checks.

chi(a, b) = |a-b| / (sqrt(1+|a|^2) sqrt(1+|b|^2)) for finite points, with
the one-point compactification handled by an explicit infinity tag:
chi(a, inf) = 1/sqrt(1+|a|^2) and chi(inf, inf) = 0.  The convergence
checker measures sup-over-a-grid chordal error between partial sums of a
non-negative Dirichlet series and its limit function, which is finite
right of the divergence abscissa and the infinity tag at or left of it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError
from .series import _exp_basis, _grid_sums

__all__ = [
    "SpherePoint",
    "INFINITY",
    "chi",
    "chi_many",
    "chi_uniform_error",
    "zeta_values",
    "ConvergenceReport",
    "chordal_convergence_check",
    "zeta_chordal_convergence_check",
]

# spherical inversion z -> 1/z is a chi-isometry; route pairs of huge
# moduli through it so |a-b| cannot overflow before the quotient tames it
_INVERSION_CUTOFF = 1e150

_MAX_GRID_DOUBLINGS = 4  # sigma-grid doublings in chordal_convergence_check
_BAND_FACTOR = 2.0  # tolerance widening inside its band
_INDEX_CHUNK = 1024  # indices per _PartialSums kernel call


@dataclass(frozen=True)
class SpherePoint:
    """A point of C u {inf}: a finite complex value or the infinity tag (None)."""

    value: complex | None = None

    def __post_init__(self):
        if self.value is not None:
            v = complex(self.value)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidInputError(
                    "finite sphere points need finite components; use INFINITY for the tag"
                )
            object.__setattr__(self, "value", v)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @staticmethod
    def of(x) -> "SpherePoint":
        """Coerce: SpherePoint passes through; infinite floats map to the tag."""
        if isinstance(x, SpherePoint):
            return x
        if x is None:
            return INFINITY
        v = complex(x)
        if math.isnan(v.real) or math.isnan(v.imag):
            raise InvalidInputError("nan is not a point of the sphere")
        if math.isinf(v.real) or math.isinf(v.imag):
            return INFINITY
        return SpherePoint(v)


INFINITY = SpherePoint(None)


def chi(a, b) -> float:
    """Chordal distance on C u {inf}; always in [0, 1]."""
    return chi_uniform_error([a], [b])


def chi_many(
    a: np.ndarray,
    b: np.ndarray,
    *,
    a_infinite: np.ndarray | None = None,
    b_infinite: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized chi; entries under an infinity mask ignore the value array.

    Real input is measured in real arithmetic, which gives the same values
    as its complex embedding without the complex moduli.
    """
    av, bv = np.asarray(a), np.asarray(b)
    dtype = np.result_type(av, bv, 1.0)
    av, bv = av.astype(dtype, copy=False), bv.astype(dtype, copy=False)
    if av.shape != bv.shape:
        raise InvalidInputError("chi_many needs aligned arrays")
    ainf = np.zeros(av.shape, dtype=bool) if a_infinite is None else np.asarray(a_infinite, bool)
    binf = np.zeros(bv.shape, dtype=bool) if b_infinite is None else np.asarray(b_infinite, bool)
    if ainf.shape != av.shape or binf.shape != bv.shape:
        raise InvalidInputError("infinity masks must match the value arrays")
    fin = ~(ainf | binf)
    fa, fb = av[fin], bv[fin]
    if np.any(np.isnan(fa)) or np.any(np.isnan(fb)):
        raise InvalidInputError("nan is not a point of the sphere")
    # each modulus and hypot only where its entry is used
    ma, mb = np.abs(fa), np.abs(fb)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(fa - fb) / (np.hypot(1.0, ma) * np.hypot(1.0, mb))
        big = (ma > _INVERSION_CUTOFF) & (mb > _INVERSION_CUTOFF)
        if np.any(big):
            ia, ib = 1.0 / fa[big], 1.0 / fb[big]
            d[big] = np.abs(ia - ib) / (np.hypot(1.0, np.abs(ia)) * np.hypot(1.0, np.abs(ib)))
    out = np.zeros(av.shape, dtype=float)  # 0 where both are the tag
    out[fin] = d
    only_a = ainf & ~binf
    only_b = binf & ~ainf
    out[only_a] = 1.0 / np.hypot(1.0, np.abs(bv[only_a]))
    out[only_b] = 1.0 / np.hypot(1.0, np.abs(av[only_b]))
    return np.minimum(out, 1.0)


def chi_uniform_error(f_values: Sequence, g_values: Sequence) -> float:
    """max over aligned pairs of chi; the sup metric for sphere-valued data."""
    f = [SpherePoint.of(x) for x in f_values]
    g = [SpherePoint.of(y) for y in g_values]
    if len(f) != len(g):
        raise InvalidInputError(f"value lists differ in length: {len(f)} vs {len(g)}")

    def values(points):  # the tag's value is ignored under its mask
        return np.array([0j if p.is_infinity else p.value for p in points], dtype=complex)

    def tags(points):
        return np.array([p.is_infinity for p in points], dtype=bool)

    err = chi_many(values(f), values(g), a_infinite=tags(f), b_infinite=tags(g))
    return float(err.max(initial=0.0))


# ---------------------------------------------------------------------------
# zeta on (1, inf): Euler-Maclaurin summation
# ---------------------------------------------------------------------------

# B_2k / (2k)! for k = 1..7
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30_240, -1 / 1_209_600, 1 / 47_900_160,
              -691 / 1_307_674_368_000, 1 / 74_724_249_600)


def zeta_values(sigmas: np.ndarray, *, terms: int = 20) -> np.ndarray:
    """zeta(sigma) for real sigma > 1, by Euler-Maclaurin summation at M = terms.

    sum_{n<M} n^{-sigma} + M^{1-sigma}/(sigma-1) + M^{-sigma}/2
    + sum_{k=1..7} B_2k/(2k)! sigma(sigma+1)...(sigma+2k-2) M^{-sigma-2k+1}.
    Every even derivative of x^{-sigma} is positive, so the remainder
    lies between 0 and the first omitted term, B_16/16! sigma(sigma+1)
    ...(sigma+14) M^{-sigma-15}: below 1e-21 for every sigma > 1 at the
    default M = 20, so the error is rounding, a few 1e-16 relative.
    """
    s = np.asarray(sigmas, dtype=float)
    if s.size == 0:
        return np.zeros(0)
    if np.any(s <= 1.0) or not np.all(np.isfinite(s)):
        raise InvalidInputError("zeta oracle is defined for finite sigma > 1")
    if terms < 2:
        raise InvalidInputError("zeta oracle needs at least 2 terms")
    flat = s.ravel()
    total = np.zeros(flat.size)
    chunk = max(64, 2_000_000 // flat.size)
    for lo in range(1, terms, chunk):
        total += _exp_basis(flat, lo, min(lo + chunk - 1, terms - 1)).sum(axis=1)
    m = float(terms)
    power = _exp_basis(flat, terms, terms)[:, 0]  # M^{-sigma}
    total += power * m / (flat - 1.0) + power / 2.0
    rising = flat.copy()  # sigma(sigma+1)...(sigma+2k-2)
    power = power / m
    for k, coeff in enumerate(_EM_COEFFS):
        total += coeff * rising * power
        rising *= (flat + 2 * k + 1) * (flat + 2 * k + 2)
        power /= m * m
    return total.reshape(s.shape)


# ---------------------------------------------------------------------------
# convergence checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    """Ladder error column plus the first index reaching the target.

    n0 is the first ladder entry within target_eps, else the smallest
    index found by searching past the ladder (n0_source tells which), else
    None with searched_to showing how far the search went.
    """

    interval: tuple[float, float]
    target_eps: float
    ladder: tuple[int, ...]
    errors: tuple[float, ...]
    n0: int | None
    n0_error: float | None
    n0_source: str | None
    grid_per_unit: float
    grid_points: int
    grid_converged: bool
    searched_to: int
    band: dict | None = None

    def to_csv(self) -> str:
        lines = ["N,chi_sup_error"]
        lines += [f"{n},{e:.17g}" for n, e in zip(self.ladder, self.errors)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "interval": [self.interval[0], self.interval[1]],
            "target_eps": self.target_eps,
            "ladder": list(self.ladder),
            "errors": list(self.errors),
            "n0": self.n0,
            "n0_error": self.n0_error,
            "n0_source": self.n0_source,
            "grid_per_unit": self.grid_per_unit,
            "grid_points": self.grid_points,
            "grid_converged": self.grid_converged,
            "searched_to": self.searched_to,
            "band": self.band,
        }


def _coefficient_block(rule: Callable, lo: int, hi: int) -> np.ndarray:
    """a_n for n in [lo, hi], validated non-negative and finite."""
    ns = np.arange(lo, hi + 1, dtype=float)
    a = np.asarray(rule(ns), dtype=float)
    if a.shape != ns.shape:
        raise InvalidInputError("coefficient rule must return one value per index")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise InvalidInputError("coefficient rule must be non-negative and finite")
    return a


class _PartialSums:
    """Accumulates S_N(sigma) = sum_{n<=N} a_n n^{-sigma} on sigma = x0 + j dx, j < m."""

    def __init__(self, x0: float, dx: float, m: int, rule: Callable):
        self.grid = (x0, dx, m)
        self.rule = rule
        self.values = np.zeros(m)
        self.upto = 0

    def extend(self, n_target: int) -> None:
        while self.upto < n_target:
            hi = min(self.upto + _INDEX_CHUNK, n_target)
            a = _coefficient_block(self.rule, self.upto + 1, hi)
            with np.errstate(over="ignore"):  # divergent region saturates gracefully
                self.values += _grid_sums(a, *self.grid, lo=self.upto + 1)
            self.upto = hi

    def copy(self) -> "_PartialSums":
        twin = copy.copy(self)
        twin.values = self.values.copy()
        return twin


def chordal_convergence_check(
    rule: Callable,
    divergence_abscissa: float,
    limit: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    n_ladder: Sequence[int],
    target_eps: float,
    *,
    grid_per_unit: float = 2000.0,
    grid_tol: float = 1e-3,
    search_cap: int = 10_000_000,
    band: tuple[float, float] | None = None,
) -> ConvergenceReport:
    """Sup-chordal error of partial sums against the series limit on a real interval.

    The limit is `limit(sigma)` right of the divergence abscissa and the
    infinity tag at or left of it.  The sigma grid starts at grid_per_unit
    points per unit and doubles, at most _MAX_GRID_DOUBLINGS times, until
    the ladder's sup column moves less than grid_tol.  Every error is a
    sampled sup over that grid, so it bounds the sup over the interval
    from below; nothing here is certified.  If no ladder entry reaches
    target_eps, the search continues past the ladder on geometric (x1.08)
    checkpoints and bisects the bracket of the first qualifying one.  The
    coefficients are non-negative, so every point's chordal error is
    non-increasing in N and a searched n0 is the smallest qualifying
    index: n0 qualifies on the grid and n0 - 1 does not, hence (up to
    rounding) no smaller index meets the target on the whole interval
    either.  N qualifies when every grid point is within its own
    tolerance: target_eps, or _BAND_FACTOR * target_eps at the finite
    points of an optional band (the limit is steepest there).  The
    reported error column is always the plain sup.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidInputError("interval must be finite with lo < hi")
    ladder = tuple(int(n) for n in n_ladder)
    if not ladder:
        raise InvalidInputError("ladder must be non-empty")
    if any(n < 1 for n in ladder) or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InvalidInputError("ladder must be strictly increasing positive integers")
    if not (math.isfinite(target_eps) and target_eps > 0):
        raise InvalidInputError("target_eps must be positive")
    if not all(math.isfinite(x) and x > 0 for x in (grid_per_unit, grid_tol)):
        raise InvalidInputError("grid parameters must be finite and positive")
    _coefficient_block(rule, 1, 64)  # spot-validate the rule up front

    def measure(sums: _PartialSums) -> tuple[float, bool]:
        """Sup of chi(S_N, limit) over the grid, and whether N qualifies."""
        err = chi_many(sums.values, limit_vals, b_infinite=~finite_mask)
        return float(err.max(initial=0.0)), bool(np.all(err <= tolerance))

    density = float(grid_per_unit)
    prev_errors: list[float] | None = None
    grid_converged = False
    for _ in range(_MAX_GRID_DOUBLINGS + 1):
        used_density = density
        npts = int(round((hi - lo) * density)) + 1
        grid = np.linspace(lo, hi, npts)
        step = (hi - lo) / max(1, npts - 1)  # linspace's own step
        finite_mask = grid > divergence_abscissa
        finite_limit = np.asarray(limit(grid[finite_mask]) if np.any(finite_mask) else [])
        limit_vals = np.zeros(npts, dtype=np.result_type(finite_limit, 1.0))  # 0 under the tag
        limit_vals[finite_mask] = finite_limit
        band_mask = np.zeros(npts, dtype=bool) if band is None else (grid > band[0]) & (grid <= band[1])
        tolerance = np.where(band_mask & finite_mask, _BAND_FACTOR * target_eps, target_eps)
        sums = _PartialSums(lo, step, npts, rule)
        column: list[tuple[float, bool]] = []
        for n in ladder:
            sums.extend(n)
            column.append(measure(sums))
        errors = [sup for sup, _ in column]
        if prev_errors is not None:
            if max(abs(a - b) for a, b in zip(errors, prev_errors)) < grid_tol:
                grid_converged = True
                break
        prev_errors = errors
        density *= 2.0

    n0 = None
    n0_error = None
    n0_source = None
    searched_to = ladder[-1]
    for n, (sup, ok) in zip(ladder, column):
        if ok:
            n0, n0_error, n0_source = n, sup, "ladder"
            break
    if n0 is None:
        # geometric checkpoints past the ladder, then a bisection of the
        # first qualifying bracket (below.upto, n0]; a_n >= 0 makes every
        # region sup non-increasing in N
        n_prev = ladder[-1]
        while n_prev < search_cap:
            n_next = min(search_cap, max(n_prev + 1, int(n_prev * 1.08)))
            below = sums.copy()
            sums.extend(n_next)
            searched_to = n_next
            sup, ok = measure(sums)
            if ok:
                n0, n0_error, n0_source = n_next, sup, "search"
                while n0 - below.upto > 1:
                    trial = below.copy()
                    trial.extend((below.upto + n0) // 2)
                    trial_sup, trial_ok = measure(trial)
                    if trial_ok:
                        n0, n0_error = trial.upto, trial_sup
                    else:
                        below = trial
                break
            n_prev = n_next

    band_report = None
    if band is not None:
        band_report = {
            "interval": [band[0], band[1]],
            "tolerance_factor": _BAND_FACTOR,
            "points": int(np.count_nonzero(band_mask)),
            "note": (
                "the limit is steepest just right of the divergence abscissa; "
                "qualification there is widened to tolerance_factor * target_eps"
            ),
        }
    return ConvergenceReport(
        interval=(lo, hi),
        target_eps=float(target_eps),
        ladder=ladder,
        errors=tuple(errors),
        n0=n0,
        n0_error=n0_error,
        n0_source=n0_source,
        grid_per_unit=used_density,
        grid_points=int(grid.size),
        grid_converged=grid_converged,
        searched_to=int(searched_to),
        band=band_report,
    )


def zeta_chordal_convergence_check(
    interval: tuple[float, float],
    n_ladder: Sequence[int],
    target_eps: float,
    *,
    grid_per_unit: float = 2000.0,
    grid_tol: float = 1e-3,
    search_cap: int = 10_000_000,
) -> ConvergenceReport:
    """Partial sums of sum n^{-sigma} against zeta right of 1, infinity at or left of 1."""
    return chordal_convergence_check(
        lambda ns: np.ones_like(ns),
        1.0,
        zeta_values,
        interval,
        n_ladder,
        target_eps,
        grid_per_unit=grid_per_unit,
        grid_tol=grid_tol,
        search_cap=search_cap,
        band=(1.0, 1.05),
    )
