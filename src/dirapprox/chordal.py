"""Riemann-sphere (chordal) metric and chi-uniform convergence checks.

chi(a, b) = |a-b| / (sqrt(1+|a|^2) sqrt(1+|b|^2)) for finite points.  The
point at infinity is IEEE inf: a value with an infinite component is that
point, chi(a, inf) = 1/sqrt(1+|a|^2) and chi(inf, inf) = 0, and nan is
rejected.  The convergence checker measures sup-over-a-grid chordal error
between partial sums of a non-negative Dirichlet series and its limit
function, which is inf at or left of the divergence abscissa.  Partial
sums grow by GEMM blocks, one multiply-add per grid point and index,
except over runs of equal coefficients, which Euler-Maclaurin sums in
closed form at a cost independent of the run's length (zeta's all-ones
rule is one such run).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, integral
from .series import _exp_basis, _grid_sums

__all__ = [
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
# chi_many skips the quotient at infinite entries once they are most of
# an array this long; below it the mask work costs more than it saves
_SKIP_TAGGED_MIN = 1024

_MAX_GRID_DOUBLINGS = 4  # sigma-grid doublings in chordal_convergence_check
_BAND_FACTOR = 2.0  # tolerance widening inside its band
_INDEX_CHUNK = 1024  # indices per _PartialSums kernel call
_SEARCH_CAP = 10_000_000  # largest N the search past the ladder tries
_ZETA_TERMS = 20  # zeta_values' Euler-Maclaurin cut M


def chi(a, b) -> float:
    """Chordal distance on C u {inf}; always in [0, 1]."""
    return chi_uniform_error([a], [b])


def _infinity_tags(v: np.ndarray, mask) -> np.ndarray | None:
    """Where v is the point at infinity: an infinite component, or set in
    mask.  None stands for nowhere: no mask and every value finite.

    nan is rejected wherever it is not tagged.
    """
    tags = None
    if mask is not None:
        tags = np.asarray(mask, dtype=bool)
        if tags.shape != v.shape:
            raise InvalidInputError("infinity masks must match the value arrays")
    if np.count_nonzero(np.isfinite(v)) < v.size:
        inf = np.isinf(v)
        tags = inf if tags is None else tags | inf
        if (np.isnan(v) & ~tags).any():
            raise InvalidInputError("nan is not a point of the sphere")
    return tags


def _scaled_chi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chi = |q a - q b| / (min(sa, sb) hypot(1/sa, |a|/sa) hypot(1/sb, |b|/sb))
    with sa = max(1, |Re a|, |Im a|), sb likewise and q = 1/max(sa, sb):
    no factor overflows.  Scaling by products rounds real input and its
    complex embedding alike."""
    sa = np.maximum(1.0, np.maximum(np.abs(a.real), np.abs(a.imag)))
    sb = np.maximum(1.0, np.maximum(np.abs(b.real), np.abs(b.imag)))
    ra, rb = 1.0 / sa, 1.0 / sb
    q = np.minimum(ra, rb)
    return np.abs(a * q - b * q) / (
        np.minimum(sa, sb) * np.hypot(ra, np.abs(a * ra)) * np.hypot(rb, np.abs(b * rb))
    )


def chi_many(
    a: np.ndarray,
    b: np.ndarray,
    *,
    a_infinite: np.ndarray | None = None,
    b_infinite: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized chi.  An entry is infinity where it has an infinite
    component or its mask is set; a masked entry's value is ignored.

    Finite pairs take the plain quotient |a-b| / (hypot(1,|a|) hypot(1,|b|)),
    clamped to 1 against rounding, except in two regimes where it fails:
    both moduli above _INVERSION_CUTOFF, where |a-b| may overflow, go
    through the chi-isometry z -> 1/z; and a hypot product that overflows
    (one modulus overflowing, or the product of two finite ones) is
    redone with the components scaled.  Real input is measured in real
    arithmetic, which gives the same values as its complex embedding
    without the complex moduli.  Where infinite entries are most of a long
    array, the quotient is taken on the finite pairs only, with the same
    bits.
    """
    av, bv = np.asarray(a), np.asarray(b)
    dtype = np.result_type(av, bv, 1.0)
    if av.dtype != dtype:
        av = av.astype(dtype)
    if bv.dtype != dtype:
        bv = bv.astype(dtype)
    if av.shape != bv.shape:
        raise InvalidInputError(f"chi needs aligned values, got shapes {av.shape} and {bv.shape}")
    ainf, binf = _infinity_tags(av, a_infinite), _infinity_tags(bv, b_infinite)
    x, y, keep = av, bv, None
    if av.size >= _SKIP_TAGGED_MIN and (ainf is not None or binf is not None):
        tags = binf if ainf is None else ainf if binf is None else ainf | binf
        if 2 * np.count_nonzero(tags) > tags.size:  # mostly infinity: measure the rest only
            keep = ~tags
            x, y = av[keep], bv[keep]
    # one pass over every entry of x, y; tagged ones are overwritten at the
    # end.  On a few entries, count_nonzero tests a mask for a third of
    # the cost of .any().
    with np.errstate(over="ignore", invalid="ignore"):
        ma, mb = np.abs(x), np.abs(y)
        ha, hb = np.hypot(1.0, ma), np.hypot(1.0, mb)
        den = ha * hb
        d = np.divide(np.abs(x - y), den, out=np.empty(x.shape))  # an array at 0-d too
        big = np.minimum(ma, mb) > _INVERSION_CUTOFF
        if np.count_nonzero(big):
            ia, ib = 1.0 / x[big], 1.0 / y[big]
            d[big] = np.abs(ia - ib) / (np.hypot(1.0, np.abs(ia)) * np.hypot(1.0, np.abs(ib)))
        lost = np.isinf(den)
        if np.count_nonzero(lost):
            lost &= ~big
            for tags in (ainf, binf) if keep is None else ():
                if tags is not None:
                    lost &= ~tags
            d[lost] = _scaled_chi(x[lost], y[lost])
    np.minimum(d, 1.0, out=d)
    # chi(inf, x) = 1/hypot(1, |x|) at a finite x, and chi(inf, inf) = 0
    if keep is not None:
        out = np.empty(av.shape)
        out[keep] = d
        with np.errstate(invalid="ignore"):  # a masked entry's value may be nan
            if ainf is not None:
                out[ainf] = 1.0 / np.hypot(1.0, np.abs(bv[ainf]))
            if binf is not None:
                out[binf] = 1.0 / np.hypot(1.0, np.abs(av[binf]))
        if ainf is not None and binf is not None:
            out[ainf & binf] = 0.0
        return out
    if ainf is not None:
        np.copyto(d, 1.0 / hb, where=ainf)
    if binf is not None:
        np.copyto(d, 1.0 / ha, where=binf)
        if ainf is not None:
            np.copyto(d, 0.0, where=ainf & binf)
    return d


def chi_uniform_error(f_values: Sequence, g_values: Sequence) -> float:
    """max over aligned pairs of chi; the sup metric for sphere-valued data."""
    err = chi_many(np.asarray(f_values, dtype=complex), np.asarray(g_values, dtype=complex))
    return float(err.max(initial=0.0))


# ---------------------------------------------------------------------------
# zeta on (1, inf): Euler-Maclaurin summation
# ---------------------------------------------------------------------------

# B_2k / (2k)! for k = 1..7
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30_240, -1 / 1_209_600, 1 / 47_900_160,
              -691 / 1_307_674_368_000, 1 / 74_724_249_600)


def _em_correction(sigma: np.ndarray, x: float, power: np.ndarray) -> np.ndarray:
    """sum_{k=1..7} B_2k/(2k)! sigma(sigma+1)...(sigma+2k-2) x^{-sigma-2k+1},
    given power = x^{-sigma}.

    Horner in 1/x^2 from k = 7 inwards; each step multiplies in the next
    two factors of the rising factorial, so no factorial array is stored.
    """
    inv2 = 1.0 / (x * x)
    h = np.full(sigma.shape, _EM_COEFFS[-1])
    for k in range(len(_EM_COEFFS) - 1, 0, -1):  # coefficient k of 1..7
        h *= sigma + (2 * k - 1)
        h *= sigma + 2 * k
        h *= inv2
        h += _EM_COEFFS[k - 1]
    h *= sigma
    h *= power
    h /= x
    return h


def zeta_values(sigmas: np.ndarray) -> np.ndarray:
    """zeta(sigma) for real sigma > 1, by Euler-Maclaurin summation at M = _ZETA_TERMS.

    sum_{n<M} n^{-sigma} + M^{1-sigma}/(sigma-1) + M^{-sigma}/2
    + sum_{k=1..7} B_2k/(2k)! sigma(sigma+1)...(sigma+2k-2) M^{-sigma-2k+1}.
    Every even derivative of x^{-sigma} is positive, so the remainder
    lies between 0 and the first omitted term, B_16/16! sigma(sigma+1)
    ...(sigma+14) M^{-sigma-15}: below 1e-21 for every sigma > 1 at
    M = 20, so the error is rounding, a few 1e-16 relative.
    """
    s = np.asarray(sigmas, dtype=float)
    if s.size == 0:
        return np.zeros(0)
    if np.any(s <= 1.0) or not np.all(np.isfinite(s)):
        raise InvalidInputError("zeta oracle is defined for finite sigma > 1")
    flat = s.ravel()
    total = np.zeros(flat.size)
    chunk = max(64, 2_000_000 // flat.size)
    for lo in range(1, _ZETA_TERMS, chunk):
        total += _exp_basis(flat, lo, min(lo + chunk - 1, _ZETA_TERMS - 1)).sum(axis=1)
    m = float(_ZETA_TERMS)
    power = _exp_basis(flat, _ZETA_TERMS, _ZETA_TERMS)[:, 0]  # M^{-sigma}
    total += power * m / (flat - 1.0) + power / 2.0
    total += _em_correction(flat, m, power)
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


def _em_from(sigma_min: float) -> int:
    """First index the closed form may sum, on a grid whose least sigma is sigma_min.

    After the seven corrections, the Euler-Maclaurin remainder of
    sum_{m=a}^{n} m^{-sigma} is at most rho(sigma) int_a^n x^{-sigma} dx
    with rho = 2 zeta(14) |sigma(sigma+1)...(sigma+13)| / (2 pi a)^14
    (the periodic Bernoulli function is at most |B_14| in size, and
    x >= a), and that integral is at most the sum itself.  Left of the
    pole the factors |sigma + j| grow with -sigma; a = 20 + 2 ceil(-sigma_min)
    grows with them, so that no factor exceeds 13/(40 pi) of 2 pi a.  A
    scan of sigma in [sigma_min, 1], for sigma_min down to -200, gives
    rho <= 2.6e-16, and rho <= 1.1e-17 on [1, 2]: the closed form moves
    c * sum, hence S_N, by a rounding-level share.  Right of 2, rho grows
    but the run is tiny: its absolute remainder is at most
    rho(sigma) a^{1-sigma} / (sigma - 1) <= 5.4e-19 (scanned to sigma = 300),
    and chi moves by at most the absolute error.
    """
    return 20 + 2 * max(0, math.ceil(-sigma_min))


class _PartialSums:
    """Accumulates S_N(sigma) = sum_{n<=N} a_n n^{-sigma} on the grid sigma
    (evenly spaced by dx, so sigma_j = sigma_0 + j dx).

    extend validates the rule on every index it adds, in _INDEX_CHUNK
    blocks.  A run of at least two equal coefficients c at indices from
    em_from on, running to the end of its block (and on across blocks and
    calls), adds c sum_{m=r}^{n} m^{-sigma} in closed form, by
    Euler-Maclaurin: the integral a^{1-sigma} expm1((1-sigma) log(n/a))
    / (1-sigma) (log(n/a) at sigma = 1, so it is stable at the pole), the
    endpoint terms and the seven corrections of _em_correction, in O(grid)
    work whatever the run's length.  Every other index goes through
    _grid_sums' GEMM blocks, so a rule without equal neighbours keeps the
    GEMM sums exactly.  A run's end is kept in `end`: extending the same
    run pays for one new endpoint, and copy() carries it along.  A zero
    run adds nothing, and a run whose sum overflows adds inf, as the GEMM
    blocks saturate.  `known` holds the latest stretch [start, stop] of
    equal coefficients c validated so far, shared by copies and windows:
    a block inside it is filled with c rather than read from the rule
    again, so the bisection's trials and the whole grid's catch-up past
    the ladder (_search) read each index of a constant tail once.
    """

    def __init__(self, sigma: np.ndarray, dx: float, rule: Callable):
        self.sigma = sigma
        self.grid = (float(sigma[0]), dx, sigma.size)
        self.rule = rule
        self.values = np.zeros(sigma.size)
        self.upto = 0
        self.last = None  # a_upto
        self.em_from = _em_from(float(sigma.min()))
        # the last closed-form run (c, x, x^{-sigma}, T(x)), ending at x
        self.end: tuple | None = None
        self.known = [1, 0, None]  # a_n = c validated on [start, stop]; empty

    def _endpoint(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """x^{-sigma} and T(x) = x^{-sigma}/2 - correction(x), so that
        sum_{m=x+1}^{n} m^{-sigma} = integral_x^n + T(n) - T(x)."""
        power = np.exp(self.sigma * -math.log(x))
        return power, power / 2.0 - _em_correction(self.sigma, x, power)

    def _open(self, c: float, r: int) -> tuple:
        """A run of c from index r: T(r) - r^{-sigma} counts the term at r."""
        if c == 0.0:
            return (c, r, None, None)
        power, t = self._endpoint(r)
        return (c, r, power, t - power)

    def _close(self, run: tuple, n: int) -> None:
        """Add the run (c, x, x^{-sigma}, T) up to n and keep its end."""
        c, x, power, t = run
        if c == 0.0:
            self.end = (c, n, None, None)
            return
        end_power, end_t = self._endpoint(n)
        slope = 1.0 - self.sigma
        span = math.log1p((n - x) / x)  # log(n/x)
        total = np.divide(np.expm1(slope * span), slope, out=np.full(slope.shape, span), where=slope != 0.0)
        total *= x * power
        with np.errstate(invalid="ignore"):
            total += end_t - t
        np.copyto(total, np.inf, where=np.isnan(total))  # inf - inf: the sum overflowed
        total *= c
        self.values += total
        self.end = (c, n, end_power, end_t)

    def _note(self, start: int, stop: int, c: float) -> None:
        """Record a_n = c on [start, stop]: `known` grows where the two meet
        and gives way to a stretch that ends later."""
        known = self.known
        if c == known[2] and known[0] <= start <= known[1] + 1:
            known[1] = max(known[1], stop)
        elif stop > known[1]:
            known[:] = [start, stop, c]

    def extend(self, n_target: int) -> None:
        cached = self.end if self.end is not None and self.end[1] == self.upto else None
        run = cached  # open: its indices up to upto are not in values yet
        with np.errstate(over="ignore"):  # divergent region saturates gracefully
            while self.upto < n_target:
                lo, hi = self.upto + 1, min(self.upto + _INDEX_CHUNK, n_target)
                k_start, k_stop, k_c = self.known
                if k_start <= lo and hi <= k_stop:
                    a = np.full(hi - lo + 1, k_c)
                else:
                    a = _coefficient_block(self.rule, lo, hi)
                j = 0  # leading entries that continue the open run
                if run is not None:
                    same = a == run[0]
                    if same.all():
                        self._note(lo, hi, run[0])
                        self.upto, self.last = hi, run[0]
                        continue
                    j = int(np.argmin(same))
                    if run is not cached or lo + j - 1 > run[1]:  # else it has nothing to add
                        self._close(run, lo + j - 1)
                    run = None
                c = float(a[-1])
                differ = np.flatnonzero(a[j:] != c)
                tail = lo + j + (int(differ[-1]) + 1 if differ.size else 0)  # a_n = c on [tail, hi]
                self._note(tail, hi, c)
                r = max(tail, self.em_from)
                if r < hi or (r == hi and (a[r - lo - 1] if r > lo else self.last) == c):
                    run = self._open(c, r)
                    gemm_hi = r - 1
                else:
                    gemm_hi = hi
                if gemm_hi >= lo + j:
                    self.values += _grid_sums(a[j : gemm_hi - lo + 1], *self.grid, lo=lo + j)
                self.upto, self.last = hi, c
            if run is not None and (run is not cached or self.upto > run[1]):
                self._close(run, self.upto)

    def copy(self) -> "_PartialSums":
        twin = copy.copy(self)
        twin.values = self.values.copy()
        return twin

    def window(self, lo: int, hi: int) -> "_PartialSums":
        """The same sums on the evenly spaced sub-grid sigma[lo:hi].

        values and the cached run end are sliced; upto, last and em_from
        are kept, so extend adds the same indices in the same way as on
        the whole grid.
        """
        part = copy.copy(self)
        part.sigma = self.sigma[lo:hi]
        part.grid = (float(part.sigma[0]), self.grid[1], hi - lo)
        part.values = self.values[lo:hi].copy()
        if self.end is not None and self.end[2] is not None:
            c, x, power, t = self.end
            part.end = (c, x, power[lo:hi], t[lo:hi])
        return part


def _search(
    sums: _PartialSums, err: np.ndarray, limit_vals: np.ndarray, tolerance: np.ndarray
) -> tuple[int | None, float | None, int]:
    """(n0, n0_error, searched_to) past the ladder's end, where sums stand
    and err is their chordal error at each grid point.

    A point within its tolerance stays within it as N grows (a_n >= 0), so
    only the window [first, last] of the points that miss it decides n0:
    geometric (x1.08) checkpoints up to _SEARCH_CAP extend and measure that
    window alone, and the bisection of the first qualifying bracket runs
    on it too.  The whole grid is then extended once to the window's n0,
    takes the window's values there and is measured once; should rounding
    make a point outside the window miss, the window widens to the points
    that miss and the search goes on from n0.
    """
    searched_to = sums.upto
    miss = np.flatnonzero(~(err <= tolerance))
    while True:
        lo, hi = int(miss[0]), int(miss[-1]) + 1
        window = sums.window(lo, hi)

        def qualifies(part: _PartialSums) -> bool:
            return bool(np.all(chi_many(part.values, limit_vals[lo:hi]) <= tolerance[lo:hi]))

        found = None
        while found is None and window.upto < _SEARCH_CAP:
            below = window.copy()
            window.extend(min(_SEARCH_CAP, max(window.upto + 1, int(window.upto * 1.08))))
            searched_to = window.upto
            if qualifies(window):
                found = window
                while found.upto - below.upto > 1:
                    trial = below.copy()
                    trial.extend((below.upto + found.upto) // 2)
                    if qualifies(trial):
                        found = trial
                    else:
                        below = trial
        if found is None:
            return None, None, searched_to
        sums.extend(found.upto)
        sums.values[lo:hi] = found.values
        err = chi_many(sums.values, limit_vals)
        miss = np.flatnonzero(~(err <= tolerance))
        if miss.size == 0:
            return found.upto, float(err.max(initial=0.0)), searched_to


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
    band: tuple[float, float] | None = None,
) -> ConvergenceReport:
    """Sup-chordal error of partial sums against the series limit on a real interval.

    The limit is `limit(sigma)` right of the divergence abscissa and inf
    at or left of it; an infinite limit value is the point at infinity.  The sigma grid starts at grid_per_unit
    points per unit and doubles, at most _MAX_GRID_DOUBLINGS times, until
    the ladder's sup column moves less than grid_tol.  Every error is a
    sampled sup over that grid, so it bounds the sup over the interval
    from below; nothing here is certified.  If no ladder entry reaches
    target_eps, the search continues past the ladder on geometric (x1.08)
    checkpoints up to _SEARCH_CAP and bisects the bracket of the first
    qualifying one.  The coefficients are non-negative, so every point's
    chordal error is non-increasing in N and a searched n0 is the smallest
    qualifying index: n0 qualifies on the grid and n0 - 1 does not, hence
    (up to rounding) no smaller index meets the target on the whole
    interval either.  For the same reason a point that qualifies at the
    ladder's end stays qualified, so the checkpoints and the bisection
    extend and measure only the window of grid points that miss there
    (_search): for zeta on [-5, 5] at 0.1, 16 of 40,001 points.  The whole
    grid is extended and measured once more, at n0, and n0_error is its
    sup; that catch-up, like the bisection's trials, fills the blocks
    inside the stretch of equal coefficients the window has read
    without reading the rule again.  Indices past the ladder summed in
    closed form give the window the whole grid's bits; through GEMM
    blocks it may round apart from the whole grid in the last bits, as
    BLAS rounds a block product by its row count.  N qualifies when
    every grid point is within its own tolerance: target_eps, or
    _BAND_FACTOR * target_eps at the finite points of an optional band
    (the limit is steepest there).  The reported error column is always
    the plain sup.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidInputError("interval must be finite with lo < hi")
    ladder = tuple(integral(n, "ladder entry") for n in n_ladder)
    if not ladder:
        raise InvalidInputError("ladder must be non-empty")
    if any(n < 1 for n in ladder) or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InvalidInputError("ladder must be strictly increasing positive integers")
    if not (math.isfinite(target_eps) and target_eps > 0):
        raise InvalidInputError("target_eps must be positive")
    if not all(math.isfinite(x) and x > 0 for x in (grid_per_unit, grid_tol)):
        raise InvalidInputError("grid parameters must be finite and positive")
    _coefficient_block(rule, 1, 64)  # spot-validate the rule up front

    density = float(grid_per_unit)
    prev_errors: list[float] | None = None
    grid_converged = False
    for _ in range(_MAX_GRID_DOUBLINGS + 1):
        used_density = density
        npts = int(round((hi - lo) * density)) + 1
        grid = np.linspace(lo, hi, npts)
        step = (hi - lo) / max(1, npts - 1)  # linspace's own step
        right = grid > divergence_abscissa
        right_limit = np.asarray(limit(grid[right]) if np.any(right) else [])
        limit_vals = np.full(npts, np.inf, dtype=np.result_type(right_limit, 1.0))
        limit_vals[right] = right_limit
        band_mask = np.zeros(npts, dtype=bool) if band is None else (grid > band[0]) & (grid <= band[1])
        tolerance = np.where(band_mask & np.isfinite(limit_vals), _BAND_FACTOR * target_eps, target_eps)
        sums = _PartialSums(grid, step, rule)
        column: list[tuple[float, bool]] = []
        for n in ladder:
            sums.extend(n)
            err = chi_many(sums.values, limit_vals)
            column.append((float(err.max(initial=0.0)), bool(np.all(err <= tolerance))))
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
        n0, n0_error, searched_to = _search(sums, err, limit_vals, tolerance)
        n0_source = None if n0 is None else "search"

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
        band=(1.0, 1.05),
    )
