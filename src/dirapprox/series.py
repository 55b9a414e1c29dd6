"""Dirichlet polynomials: evaluation, shifts, seminorms, sup norms, abscissas.

A Dirichlet polynomial is a finite sum P(s) = sum_{n=1}^{N} a_n n^{-s}.
Coefficients are stored densely for n = 1..N; the length N is a storage
bound, not a minimality claim (trailing zeros are allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _wire
from .errors import InvalidInputError, integral

__all__ = [
    "DirichletPolynomial",
    "CoefficientRule",
    "AbscissaReport",
    "SupNormPlan",
    "SupNormReport",
    "evaluate",
    "evaluate_many",
    "shift_by_delta",
    "seminorm_sigma",
    "sup_norm_report",
    "estimate_abscissas",
]


def _require_finite_point(s: complex) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InvalidInputError(f"evaluation point must be finite, got {s!r}")
    return s


@dataclass(frozen=True)
class DirichletPolynomial:
    """Coefficient vector (a_1, ..., a_N) of sum a_n n^{-s}."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coefficients, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("coefficient list must hold at least a_1")
        if not np.isfinite(arr).all():
            raise InvalidInputError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def degree(self) -> int:
        return int(self.coefficients.size)

    def coefficient(self, n: int) -> complex:
        """a_n, with a_n = 0 for n beyond the stored degree."""
        if n < 1:
            raise InvalidInputError("coefficient index starts at n=1")
        if n > self.degree:
            return 0.0 + 0.0j
        return complex(self.coefficients[n - 1])

    def trimmed(self) -> np.ndarray:
        """Coefficients with trailing zeros removed (at least a_1 kept)."""
        nz = np.nonzero(self.coefficients)[0]
        end = int(nz[-1]) + 1 if nz.size else 1
        return np.asarray(self.coefficients[:end])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return np.array_equal(self.trimmed(), other.trimmed())

    def __hash__(self):
        return hash(self.trimmed().tobytes())

    def __call__(self, s: complex) -> complex:
        return evaluate(self, s)

    def __mul__(self, other) -> "DirichletPolynomial":
        """Dirichlet convolution: (p*q)_n = sum_{d | n} p_d q_{n/d}."""
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        out = np.zeros(self.degree * other.degree, dtype=complex)
        for m in range(1, self.degree + 1):
            a = self.coefficients[m - 1]
            if a != 0:
                out[m - 1 :: m][: other.degree] += a * other.coefficients
        return DirichletPolynomial(out)

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence[float]]) -> "DirichletPolynomial":
        """Build from JSON-style [[re, im], ...] coefficient pairs."""
        return DirichletPolynomial(np.array(_wire.complexes(pairs, "coefficients"), dtype=complex))

    def to_pairs(self) -> list[list[float]]:
        return [[float(c.real), float(c.imag)] for c in self.coefficients]


_LOG_TABLE_CAP = 1 << 16  # entries of the shared log n table: 512 kB
_log_table = np.zeros(0)  # log n for n = 1..size, grown by doubling up to the cap


def _log_range(lo: int, hi: int) -> np.ndarray:
    """log n for n = lo..hi, read-only.

    A slice of one shared table while hi is within _LOG_TABLE_CAP,
    computed directly beyond it; np.log is elementwise, so both give the
    same bits.
    """
    global _log_table
    if hi > _LOG_TABLE_CAP:
        logs = np.log(np.arange(lo, hi + 1, dtype=float))
        logs.flags.writeable = False
        return logs
    if hi > _log_table.size:
        size = min(_LOG_TABLE_CAP, max(hi, 2 * _log_table.size, 64))
        _log_table = np.log(np.arange(1, size + 1, dtype=float))
        _log_table.flags.writeable = False
    return _log_table[lo - 1 : hi]


def _exp_basis(x, lo: int, hi: int) -> np.ndarray:
    """exp(-x log n) for n = lo..hi, shape x.shape + (hi - lo + 1,).

    Real for real x, complex for complex x.  No errstate guard, which
    would add ~40% to small calls: callers that can overflow set their own.
    """
    t = np.multiply.outer(-np.asarray(x), _log_range(lo, hi))
    return np.exp(t, out=t)


_GRID_BLOCK = 256  # in-block powers per row of _grid_sums' second table
_GRID_SPAN = 350.0  # in-block powers stay below e^350 in modulus


def _grid_sums(c: np.ndarray, x0, dx, m: int, lo: int = 1) -> np.ndarray:
    """sum_n c_n n^{-(x0 + j dx)} over n = lo..lo+len(c)-1, for j = 0..m-1.

    With j = bJ + a + i for i = -a..J-1-a, n^{-(x0 + j dx)} =
    n^{-(x0 + (bJ + a) dx)} n^{-i dx}, so the grid is a B x w table of block anchors (times c) multiplied by
    a w x J table of in-block powers: (B + J) w exponentials and one GEMM
    instead of m w exponentials.  Each block is anchored at its point of
    largest real part (a = J - 1 when Re dx > 0, else a = 0), so every
    in-block power has modulus >= 1 and a product overflows only where its
    term does; J is capped so that those powers stay below e^_GRID_SPAN.
    Both tables come from _exp_basis; each product differs from the direct
    term by the rounding of two exponents, a few |x log n| ulps.
    """
    hi = lo + c.size - 1
    rise = abs(complex(dx).real) * math.log(hi)  # log of the largest ratio per grid step
    J = min(m, _GRID_BLOCK, int(_GRID_SPAN / rise) + 1 if rise > 0 else m)
    a = J - 1 if complex(dx).real > 0 else 0
    inblock = _exp_basis(dx * np.arange(-a, J - a), lo, hi).T
    starts = _exp_basis(x0 + a * dx + J * dx * np.arange(-(-m // J)), lo, hi) * c
    return (starts @ inblock).ravel()[:m]


def evaluate(p: DirichletPolynomial, s: complex) -> complex:
    """P(s) = sum_n a_n exp(-s log n)."""
    s = _require_finite_point(s)
    return complex((p.coefficients * _exp_basis(s, 1, p.degree)).sum())


def evaluate_many(p: DirichletPolynomial, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an array of finite points."""
    pts = np.asarray(points, dtype=complex)
    if not np.isfinite(pts).all():
        raise InvalidInputError("evaluation points must be finite")
    flat = pts.ravel()
    # exp(-s log n) laid out points x indices; chunk to bound memory
    out = np.zeros(flat.shape, dtype=complex)
    step = max(1, 2_000_000 // max(1, p.degree))
    for lo in range(0, flat.size, step):
        # row-wise pairwise sum rather than a matvec, and a_n * e_n in the
        # scalar evaluate()'s operand order (FMA rounds a*e and e*a
        # differently), so each point gets bit-identical arithmetic
        out[lo : lo + step] = (p.coefficients * _exp_basis(flat[lo : lo + step], 1, p.degree)).sum(axis=1)
    return out.reshape(pts.shape)


def shift_by_delta(p: DirichletPolynomial, delta: float) -> DirichletPolynomial:
    """Polynomial of s -> P(s + delta); coefficient map a_n -> a_n n^{-delta}."""
    if not math.isfinite(delta):
        raise InvalidInputError("shift delta must be finite")
    return DirichletPolynomial(p.coefficients * _exp_basis(delta, 1, p.degree))


def seminorm_sigma(p: DirichletPolynomial, sigma: float) -> float:
    """Weighted coefficient norm sum |a_n| n^{-sigma}."""
    if not math.isfinite(sigma):
        raise InvalidInputError("sigma must be finite")
    return float((np.abs(p.coefficients) * _exp_basis(sigma, 1, p.degree)).sum())


# ---------------------------------------------------------------------------
# sup norm on a right half plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupNormPlan:
    """Sampling plan for the half-plane sup norm.

    A Dirichlet polynomial is bounded and analytic on Re s >= sigma0, so
    by Phragmen-Lindelof its sup there equals its sup on the line
    Re s = sigma0, where the modulus of every basis term is largest.
    The line is sampled in double precision at edge_points equispaced
    heights t in [0, height].  Samples can miss the top of a peak, so two
    close peaks may be ranked in the wrong order: the highest local
    maxima, not the highest samples, are polished by parabolic
    refinement.
    """

    height: float = 2.0 * math.pi / math.log(2.0) * 16.0
    edge_points: int = 200_000

    def __post_init__(self):
        if not (math.isfinite(self.height) and self.height > 0):
            raise InvalidInputError(f"sup-norm plan height must be finite and positive, got {self.height!r}")
        object.__setattr__(self, "edge_points", integral(self.edge_points, "edge_points"))
        if self.edge_points < 1:
            raise InvalidInputError(f"sup-norm plan needs edge_points >= 1, got {self.edge_points!r}")


@dataclass(frozen=True)
class SupNormReport:
    """Bracket of sup |P| over {Re s >= sigma0}.

    value: max of |P| at real points of the line Re s = sigma0 (a lower
    bound); upper_bound: sum |a_n| n^{-sigma0} (an upper bound on the
    whole half plane).
    """

    value: float
    upper_bound: float


def _edge_sweep_max(p: DirichletPolynomial, sigma0: float, height: float, m: int) -> float:
    """Max of |P| along Re s = sigma0, t in [0, height].

    Each block of 131,072 samples of the uniform t grid is one
    _grid_sums product in complex128, accurate to a few |t log n| ulps.
    The sampling error is larger: a peak's top can fall between two
    samples, which can rank two close peaks in the wrong order.  So
    each block keeps its highest local maxima (not its highest samples,
    which are neighbours on one peak), and the best candidates are
    polished by vectorized parabolic refinement.
    """
    damped = p.coefficients * _exp_basis(sigma0, 1, p.degree)
    dt = height / max(1, m - 1)

    block_len = 131_072
    cand_t: list[np.ndarray] = []
    cand_v: list[np.ndarray] = []
    per_block_keep = 8
    for lo in range(0, m, block_len):
        size = min(block_len, m - lo)
        vals = np.abs(_grid_sums(p.coefficients, complex(sigma0, lo * dt), 1j * dt, size))
        peak = np.ones(size, dtype=bool)  # local maxima; each end has one neighbour
        peak[1:] = vals[1:] >= vals[:-1]
        peak[:-1] &= vals[:-1] >= vals[1:]
        peaks = np.flatnonzero(peak)
        keep = min(per_block_keep, peaks.size)
        idx = peaks[np.argpartition(vals[peaks], -keep)[-keep:]]
        cand_t.append((lo + idx) * dt)
        cand_v.append(vals[idx])

    ts = np.concatenate(cand_t)
    vs = np.concatenate(cand_v)
    order = np.argsort(vs)[-256:]
    ts = ts[order]

    def amp(tvec: np.ndarray) -> np.ndarray:
        return np.abs(_exp_basis(1j * tvec, 1, p.degree) @ damped)

    # vectorized parabolic refinement of all candidates at once
    h = np.full(ts.shape, dt)
    t = ts.copy()
    for _ in range(30):
        fm, f0, fp = amp(t - h), amp(t), amp(t + h)
        denom = fm - 2.0 * f0 + fp
        shift = np.where(denom < -1e-300, 0.5 * h * (fm - fp) / np.minimum(denom, -1e-300), 0.0)
        t = t + np.clip(shift, -h, h)
        h *= 0.5
    return float(amp(t).max(initial=0.0))


def sup_norm_report(
    p: DirichletPolynomial, sigma0: float, plan: SupNormPlan | None = None
) -> SupNormReport:
    """Lower and upper bounds for sup |P| over {Re s >= sigma0}.

    The value is clamped to the upper bound.  The clamp only absorbs
    rounding: |P| on the line never exceeds sum |a_n| n^{-sigma0} in
    exact arithmetic, but where it reaches the bound (for a monomial, at
    every t) the computed modulus can round above it.
    """
    plan = plan or SupNormPlan()
    if not math.isfinite(sigma0):
        raise InvalidInputError("sigma0 must be finite")
    upper = seminorm_sigma(p, sigma0)
    return SupNormReport(
        value=min(_edge_sweep_max(p, sigma0, plan.height, plan.edge_points), upper),
        upper_bound=upper,
    )


# ---------------------------------------------------------------------------
# coefficient rules and abscissa estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientRule:
    """Finite window onto the coefficients of a Dirichlet series.

    Kinds: "explicit-list" (finitely supported), "all-ones", "alternating"
    (a_n = (-1)^n), and "named-custom" backed by a callable n -> a_n.
    """

    kind: str
    data: np.ndarray | None = None
    fn: Callable[[int], complex] | None = None
    name: str = ""

    _KINDS = ("explicit-list", "all-ones", "alternating", "named-custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidInputError(f"unknown coefficient rule kind {self.kind!r}")
        if self.kind == "explicit-list":
            arr = np.asarray(self.data, dtype=complex)
            if arr.ndim != 1 or arr.size < 1:
                raise InvalidInputError("explicit-list rule needs >= 1 coefficient")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, "data", arr)
        elif self.kind == "named-custom" and self.fn is None:
            raise InvalidInputError("named-custom rule needs a coefficient callable")

    @property
    def finitely_supported(self) -> bool:
        return self.kind == "explicit-list"

    def coefficients(self, count: int) -> np.ndarray:
        """First `count` coefficients a_1..a_count."""
        if self.kind == "explicit-list":
            out = np.zeros(count, dtype=complex)
            take = min(count, self.data.size)
            out[:take] = self.data[:take]
            return out
        if self.kind == "all-ones":
            return np.ones(count, dtype=complex)
        if self.kind == "alternating":
            return ((-1.0) ** np.arange(1, count + 1)).astype(complex)
        return np.fromiter((self.fn(k) for k in range(1, count + 1)), complex, count)


@dataclass(frozen=True)
class AbscissaReport:
    """Estimated convergence / absolute-convergence abscissas.

    The uniform-convergence abscissa is only bracketed: it always lies
    between the plain and the absolute abscissa.  An abscissa may be
    -inf (a finitely supported rule converges everywhere); JSON has no
    infinity, so to_json_dict writes "neg_inf" / "pos_inf".
    """

    sigma_c_estimate: float
    sigma_a_estimate: float
    sigma_u_bracket: tuple[float, float]
    truncation_used: int

    ORDERING_TOL = 0.05

    def ordering_holds(self, tol: float | None = None) -> bool:
        """c <= lo <= hi <= a <= c + 1, each up to tol."""
        t = self.ORDERING_TOL if tol is None else tol
        c, a = self.sigma_c_estimate, self.sigma_a_estimate
        lo, hi = self.sigma_u_bracket
        return c <= lo + t and lo <= hi + t and hi <= a + t and a <= c + 1.0 + t

    def to_json_dict(self) -> dict:
        def extended(x: float):
            return float(x) if math.isfinite(x) else ("pos_inf" if x > 0 else "neg_inf")

        return {
            "sigma_c_estimate": extended(self.sigma_c_estimate),
            "sigma_a_estimate": extended(self.sigma_a_estimate),
            "sigma_u_bracket": [extended(x) for x in self.sigma_u_bracket],
            "truncation_used": self.truncation_used,
        }


def _dyadic_slope(block_values: np.ndarray, block_ends: np.ndarray) -> float:
    """LSQ slope of log(values) against log(block end) over a dyadic ladder."""
    mask = block_values > 0
    if mask.sum() < 2:
        return 0.0
    x = np.log(block_ends[mask].astype(float))
    y = np.log(block_values[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def estimate_abscissas(rule: CoefficientRule, truncation: int) -> AbscissaReport:
    """Cahen-style regression estimates from a coefficient window.

    Fits the growth exponent of max |S_m| over dyadic blocks (plain
    partial sums S_m = sum_{n<=m} a_n) and of sum |a_n|.  Block maxima
    rather than endpoint values keep oscillating partial sums (which may
    vanish at block ends) from derailing the fit.
    """
    truncation = integral(truncation, "truncation")
    if truncation < 100:
        raise InvalidInputError("abscissa estimation needs truncation >= 100")
    coeffs = rule.coefficients(truncation)
    if rule.finitely_supported or not np.any(np.abs(coeffs) > 0):
        return AbscissaReport(-math.inf, -math.inf, (-math.inf, -math.inf), truncation)
    partial = np.cumsum(coeffs)
    partial_abs = np.cumsum(np.abs(coeffs))

    ends = []
    m = truncation
    while m >= 16:
        ends.append(m)
        m //= 2
    ends = np.array(sorted(ends))
    starts = np.concatenate([[0], ends[:-1]])

    block_max = np.array(
        [np.max(np.abs(partial[lo:hi])) for lo, hi in zip(starts, ends)]
    )
    abs_at_end = partial_abs[ends - 1]

    sigma_c = _dyadic_slope(block_max, ends)
    sigma_a = _dyadic_slope(abs_at_end, ends)

    # project onto the admissible ordering: c <= a <= c + 1
    sigma_a = max(sigma_a, sigma_c)
    sigma_c = max(sigma_c, sigma_a - 1.0)

    return AbscissaReport(
        sigma_c_estimate=sigma_c,
        sigma_a_estimate=sigma_a,
        sigma_u_bracket=(sigma_c, sigma_a),
        truncation_used=truncation,
    )
