"""Discrete Chebyshev fitting of Dirichlet polynomials on compact sets.

minimax_fit solves min_a max_i |sum_n a_n n^{-s_i} - g(s_i)| by Lawson
iteratively-reweighted least squares, whose weights also certify a lower
bound on that minimum; constrained_fit adds the weighted coefficient-norm
constraint ||h - f||_sigma <= eps, solved by ADMM with its own dual
certificate when the ball binds.  All errors and bounds are of sampled
sups over the discretized set, never certified continuous sups.

The rows follow the target.  For a target holomorphic on the set's
interior and continuous on the set (the Mergelyan setting), the residual
is holomorphic there too, so by the maximum modulus principle its sup
over the set is its sup over the boundary: the boundary samples dominate
the interior ones, up to how finely they sample the boundary.  So every
design, target value, certificate and error is taken on the rows the
target's premise allows (provenance "premise"):
  - named targets are entire and use the boundary samples ("entire");
  - sampled targets carry no analytic structure and use every sample
    ("sampled");
  - a callable cannot be proved holomorphic, so its boundary fit is
    checked on a thinned probe of a few dozen interior samples, which must
    stay within the boundary error plus _NOISE max|y| ("checked"); when
    they do not, it is fitted again as the sampled target of its values on
    every sample ("check failed").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import _wire
from .errors import IllConditionedError, InvalidInputError, integral
from .geometry import DiscretizedSet, max_real_part
from .series import DirichletPolynomial, _exp_basis, evaluate_many, seminorm_sigma

__all__ = [
    "TargetFunction",
    "FitOptions",
    "FitResult",
    "minimax_fit",
    "constrained_fit",
    "convergence_study",
    "project_weighted_l1",
]


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetFunction:
    """Fit target: a named entire function or values tied to a sample set.

    Named ids: "exp", "identity", "constant" (uses .constant),
    "polynomial" (coefficients in s, ascending).  Sampled targets carry
    exactly one value per sample of the set they were built against.
    """

    kind: str  # "named" | "sampled"
    name: str = ""
    constant: complex = 0j
    poly_coeffs: tuple[complex, ...] = ()
    values: np.ndarray | None = None

    _NAMES = ("exp", "identity", "constant", "polynomial")

    def __post_init__(self):
        if self.kind == "named":
            if self.name not in self._NAMES:
                raise InvalidInputError(f"unknown target name {self.name!r}")
        elif self.kind == "sampled":
            vals = np.asarray(self.values, dtype=complex)
            if vals.ndim != 1 or vals.size == 0:
                raise InvalidInputError("sampled target needs a 1-d value array")
            object.__setattr__(self, "values", vals)
        else:
            raise InvalidInputError(f"unknown target kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def exp() -> "TargetFunction":
        return TargetFunction("named", name="exp")

    @staticmethod
    def identity() -> "TargetFunction":
        return TargetFunction("named", name="identity")

    @staticmethod
    def const(c: complex) -> "TargetFunction":
        return TargetFunction("named", name="constant", constant=complex(c))

    @staticmethod
    def polynomial(coeffs: Sequence[complex]) -> "TargetFunction":
        return TargetFunction("named", name="polynomial", poly_coeffs=tuple(complex(c) for c in coeffs))

    @staticmethod
    def sampled(values: np.ndarray) -> "TargetFunction":
        return TargetFunction("sampled", values=np.asarray(values, dtype=complex))

    # -- evaluation ------------------------------------------------------------

    def values_on(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        if self.kind == "sampled":
            if self.values.size != pts.size:
                raise InvalidInputError(
                    f"sampled target has {self.values.size} values for {pts.size} samples"
                )
            return self.values
        if self.name == "exp":
            return np.exp(pts)
        if self.name == "identity":
            return pts.copy()
        if self.name == "constant":
            return np.full(pts.shape, self.constant, dtype=complex)
        return np.polyval(list(reversed(self.poly_coeffs)) or [0], pts)

    def to_json_dict(self) -> dict:
        if self.kind == "sampled":
            return {"kind": "sampled", "values": [[v.real, v.imag] for v in self.values]}
        out = {"kind": "named", "name": self.name}
        if self.name == "constant":
            out["constant"] = [self.constant.real, self.constant.imag]
        if self.name == "polynomial":
            out["poly_coeffs"] = [[c.real, c.imag] for c in self.poly_coeffs]
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "TargetFunction":
        kind = _wire.require(d, "kind")
        if kind == "sampled":
            return TargetFunction.sampled(np.array(_wire.require(d, "values", _wire.complexes)))
        name = _wire.require(d, "name")
        if name == "constant":
            return TargetFunction(kind, name, constant=_wire.require(d, "constant", _wire.complex_number))
        if name == "polynomial":
            coeffs = _wire.require(d, "poly_coeffs", _wire.complexes)
            return TargetFunction(kind, name, poly_coeffs=tuple(coeffs))
        return TargetFunction(kind, name=name)


def _target_values(g, points: np.ndarray) -> np.ndarray:
    """Accepts a TargetFunction or a plain vectorized callable."""
    if isinstance(g, TargetFunction):
        vals = g.values_on(points)
    elif callable(g):
        vals = np.asarray(g(points), dtype=complex)
    else:
        raise InvalidInputError(f"cannot evaluate target of type {type(g).__name__}")
    if not np.all(np.isfinite(vals)):
        raise InvalidInputError("target is not finite on all samples")
    return vals


# ---------------------------------------------------------------------------
# results and options
# ---------------------------------------------------------------------------


_RANK_CUT = 1e-13  # Lawson keeps singular directions above this times the largest
_GAP = 1.01  # a solver settles once its best error is within this factor of its bound
_NOISE = 1e-13  # ... or below this times max|y|, where both are rounding noise
_RHO = 0.01  # ADMM penalty on the ball copy z2 = c; the sup copy z1 = B c has penalty 1
_ADMM_STEPS = 5000  # cap on ADMM steps
_CHECK_EVERY = 10  # ADMM checks its best feasible point and its bound this often
_PROBES = 32  # at most this many interior samples check a callable's boundary fit


@dataclass(frozen=True)
class FitOptions:
    """max_iterations (an integer >= 0) caps Lawson's reweightings, summed
    over a callable's boundary solve and its refit when the check fails;
    the ball route of constrained_fit takes at most 5,000 ADMM steps.
    Lawson in minimax_fit and ADMM stop once the sup error is <=
    target_error, and converged then means the error got there.
    """

    max_iterations: int = 200
    target_error: float | None = None
    allow_right_of_zero: bool = False  # geometry waiver for constrained_fit

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", integral(self.max_iterations, "max_iterations"))
        if self.max_iterations < 0:
            raise InvalidInputError(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        if self.target_error is not None and not (math.isfinite(self.target_error) and self.target_error >= 0):
            raise InvalidInputError(f"target_error must be finite and >= 0, got {self.target_error!r}")


@dataclass(frozen=True)
class FitResult:
    """A fit, its sampled sup error and a lower bound on the best one.

    minimax_error is the sup error over the rows the target's premise
    allows (provenance "rows" and "premise"; see the module docstring):
    the boundary samples for named targets and for callables that pass
    their check, every sample otherwise.  For a residual holomorphic
    inside the set, the boundary sup dominates every interior sample by
    the maximum modulus principle.  lower_bound comes from the Lawson
    solve on those rows: it bounds from below the sup error over those
    rows, and so over every sample, of every coefficient vector whose
    design-matrix image lies in the rank-r range of those rows'
    column-scaled design (provenance "rank"), up to rounding; the
    directions cut from that range have singular values below 1e-13 of
    the largest.  iterations sums the reweightings of a boundary solve and
    of the refit after a failed check.  minimax_fit's `converged` means
    minimax_error <= 1.01 * lower_bound, or, when a target_error is given,
    minimax_error <= target_error.  On its ball route constrained_fit
    reports the larger of that bound and the ADMM certificate, which
    holds for every coefficient vector in the ball and comes from the
    same rows (rank describes its Lawson stage); its `converged` means
    feasible and, when given, within target_error, and a fit its rule_out
    gave up on (provenance "ruled_out") never is.
    """

    polynomial: DirichletPolynomial
    minimax_error: float
    lower_bound: float
    constraint_value: float | None
    iterations: int
    converged: bool
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.polynomial.to_pairs(),
            "minimax_error": self.minimax_error,
            "lower_bound": self.lower_bound,
            "constraint_value": self.constraint_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# Lawson kernel
# ---------------------------------------------------------------------------


def _lawson(
    A: np.ndarray,
    y: np.ndarray,
    opts: FitOptions,
    stop_at: float | None = None,
    give_up: float | None = None,
) -> tuple[np.ndarray, float, float, int, int, bool]:
    """Lawson IRLS for min_c sup_i |A c - y| on an orthonormal basis.

    A's columns are scaled by powers of two, B = A / scale, in place and
    exactly; A is restored before the iteration.  The SVD of B's
    triangular factor gives the r = #{S_k > _RANK_CUT S_0} leading
    coefficient directions V_r, and Q R_Q = B V_r S_r^{-1} is an
    orthonormal basis of their image, so coordinates d stand for the
    coefficients X d with X = V_r S_r^{-1} R_Q^{-1} / scale.  From the
    least-squares seed d = Q^H y, each reweighting w <- w |y - Q d|
    solves an r x r weighted Gram over the live rows, w_i > 1e-24.
    Errors are those of the coefficients themselves, max |y - A X d|.

    After each solve, mu = w (y - Q d), projected onto range(Q)^perp,
    certifies |mu^H y| / ||mu||_1 as a lower bound on the error of every
    d': |mu^H y| = |mu^H (y - Q d')| <= ||mu||_1 ||y - Q d'||_inf (Lawson
    1961; Nakatsukasa & Trefethen 2020).  The bound reported pairs the
    best mu with the best residual, which keeps it below the best error
    under rounding too.  Lawson settles once the best error is within
    _GAP of the bound or at most the rounding floor _NOISE max|y|; it
    also stops at `stop_at` or after opts.max_iterations reweightings,
    and, given `give_up`, once the bound exceeds it while r is A's column
    count: the bound then covers every coefficient vector, so no fit on
    these rows gets within `give_up`.

    Returns the best coefficients, their error on A's rows, the bound,
    the reweightings used, r and whether it settled.
    """
    m, n = A.shape
    if not np.all(np.isfinite(A)):
        raise IllConditionedError(
            "design matrix overflows (samples too deep in the left half-plane)",
            diagnostic={"degree": n, "samples": m, "iteration": 0},
        )
    floor = _NOISE * float(np.abs(y).max())
    scale = np.ldexp(1.0, np.frexp(np.abs(A).max(axis=0))[1])  # 0 -> 1
    A /= scale
    try:
        S, Vh = np.linalg.svd(np.linalg.qr(A, mode="r"), full_matrices=False)[1:]
        rank = int(np.count_nonzero(S > _RANK_CUT * S[0]))
        X = Vh[:rank].conj().T / S[:rank]
        Q, RQ = np.linalg.qr(A @ X)
        X = np.linalg.solve(RQ.T, X.T).T / scale[:, None]  # d -> coefficients X d
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"factorization of the design matrix failed: {exc}",
            diagnostic={"degree": n, "samples": m, "iteration": 0},
        ) from exc
    finally:
        A *= scale

    w = np.full(m, 1.0 / m)
    d = Q.conj().T @ y
    best_err, bound, top, cert = math.inf, 0.0, 0.0, None
    iterations = 0
    while True:
        c = X @ d
        r = y - A @ c
        err = float(np.abs(r).max())
        if err < best_err:
            best_err, best_c, best_r = err, c, r
        rq = y - Q @ d
        mu = w * rq
        mu -= Q @ (Q.conj().T @ mu)
        l1 = float(np.abs(mu).sum())
        b = float(abs(np.vdot(mu, rq))) / l1 if l1 > 0 else 0.0
        if b > top:
            top, cert, cert_l1 = b, mu, l1
        if cert is not None:
            bound = float(abs(np.vdot(cert, best_r))) / cert_l1
        settled = best_err <= max(_GAP * bound, floor)
        reached = stop_at is not None and best_err <= stop_at
        if settled or reached or _rules_out(bound, rank, n, give_up) or iterations == opts.max_iterations:
            break
        w *= np.abs(rq)
        total = w.sum()
        if not math.isfinite(total) or total <= 0:
            break
        w /= total
        live = w > 1e-24
        Ql, wl, yl = (Q, w, y) if live.all() else (Q[live], w[live], y[live])
        WQh = Ql.conj().T * wl  # (W Q)^H over the live rows
        try:
            d = np.linalg.solve(WQh @ Ql, WQh @ yl)
        except np.linalg.LinAlgError:
            break  # the weights sit on fewer than r rows
        if not np.all(np.isfinite(d)):
            break
        iterations += 1
    return best_c, best_err, bound, iterations, rank, best_err <= max(_GAP * bound, floor)


def _rules_out(bound: float, rank: int, columns: int, give_up: float | None) -> bool:
    """Whether a Lawson bound of full rank proves every fit worse than give_up."""
    return give_up is not None and rank == columns and bound > give_up


def minimax_fit_samples(
    points: np.ndarray,
    values: np.ndarray,
    degree: int,
    options: FitOptions | None = None,
) -> FitResult:
    """minimax_fit on a bare point cloud with precomputed target values,
    solved and measured on every point.

    Used directly when the sample set is not a DiscretizedSet (e.g. the
    1/(s-z) image of one).
    """
    return _fit_samples(points, values, degree, options)[0]


def _fit_samples(
    points: np.ndarray,
    values: np.ndarray,
    degree: int,
    options: FitOptions | None,
) -> tuple[FitResult, np.ndarray]:
    """minimax_fit_samples, and the design n^{-s_i} (samples x degree) it
    solved on, for callers that evaluate the fit on the same samples."""
    opts = options or FitOptions()
    degree = integral(degree, "degree")
    if degree < 1:
        raise InvalidInputError("degree must be >= 1")
    points = np.asarray(points, dtype=complex).ravel()
    if points.size == 0:
        raise InvalidInputError("sample set is empty")
    gvals = np.asarray(values, dtype=complex).ravel()
    if gvals.shape != points.shape:
        raise InvalidInputError("one target value per sample point required")
    if not np.all(np.isfinite(gvals)):
        raise InvalidInputError("target is not finite on all samples")

    with np.errstate(over="ignore"):  # overflow checked by the solver
        A = _exp_basis(points, 1, degree)
    c, err, bound, iters, rank, settled = _lawson(A, gvals, opts, stop_at=opts.target_error)
    return FitResult(
        polynomial=DirichletPolynomial(c),
        minimax_error=err,
        lower_bound=bound,
        constraint_value=None,
        iterations=iters,
        converged=settled if opts.target_error is None else err <= opts.target_error,
        provenance={
            "method": "lawson-irls",
            "column_normalized": True,
            "rank": rank,
            "rows": int(points.size),
        },
    ), A


def _on_rows(
    dset: DiscretizedSet,
    g,
    opts: FitOptions,
    solve: Callable[[np.ndarray, np.ndarray, FitOptions], FitResult],
) -> FitResult:
    """solve(points, target values, opts) on the rows g's premise allows.

    Named targets use the boundary samples and sampled targets every
    sample.  A callable's boundary fit is checked on every
    (interior count // _PROBES + 1)-th interior sample; when the residual
    there exceeds the boundary error plus _NOISE max|y|, g is solved again
    on every sample, with the reweightings of opts.max_iterations the
    boundary solve left.  Records the premise in provenance.
    """
    if isinstance(g, TargetFunction):
        premise = "sampled" if g.kind == "sampled" else "entire"
    else:
        premise = "checked"
    points = dset.all_samples() if premise == "sampled" else dset.boundary_samples
    if points.size == 0:
        raise InvalidInputError("discretized set has no samples")
    y = _target_values(g, points)
    result = solve(points, y, opts)
    inner = dset.interior_samples
    if premise == "checked" and inner.size:
        probe = inner[:: inner.size // _PROBES + 1]
        off = float(np.abs(evaluate_many(result.polynomial, probe) - _target_values(g, probe)).max())
        if off > result.minimax_error + _NOISE * float(np.abs(y).max()):
            points, spent = dset.all_samples(), min(result.iterations, opts.max_iterations)
            left = replace(opts, max_iterations=opts.max_iterations - spent)
            again = solve(points, _target_values(g, points), left)
            result, premise = replace(again, iterations=spent + again.iterations), "check failed"
    result.provenance["premise"] = premise
    return result


def minimax_fit(
    dset: DiscretizedSet,
    g,
    degree: int,
    options: FitOptions | None = None,
) -> FitResult:
    """Best sampled-sup fit of a degree-`degree` Dirichlet polynomial to g,
    over every coefficient a_1..a_degree, on the rows g's premise allows
    (see the module docstring)."""
    def solve(points: np.ndarray, y: np.ndarray, opts: FitOptions) -> FitResult:
        return _fit_samples(points, y, degree, opts)[0]

    return _on_rows(dset, g, options or FitOptions(), solve)


# ---------------------------------------------------------------------------
# weighted-l1 ball projection (seminorm ball)
# ---------------------------------------------------------------------------


def project_weighted_l1(v: np.ndarray, weights: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {d : sum_n weights_n |d_n| <= radius}.

    Phase-preserving soft threshold d_n = e^{i arg v_n} max(|v_n| -
    lam*w_n, 0), with lam exact (Duchi, Shalev-Shwartz, Singer & Chandra
    2008; Condat 2016): order the breakpoints t_n = |v_n|/w_n descending
    (ties by index) and take
    lam_k = (sum_{j<=k} w_j |v_j| - radius) / sum_{j<=k} w_j^2
    for the largest k with lam_k < t_k.  Entries of zero weight are not
    shrunk; radius 0 zeroes every entry of positive weight.
    """
    if radius < 0:
        raise InvalidInputError("projection radius must be >= 0")
    v = np.asarray(v, dtype=complex)
    w = np.asarray(weights, dtype=float)
    mags = np.abs(v)
    if float(np.sum(w * mags)) <= radius:
        return v.copy()
    pos = w > 0
    if radius == 0:
        return np.where(pos, 0, v)
    phases = np.where(mags > 0, v / np.where(mags > 0, mags, 1.0), 0)
    wp, mp = w[pos], mags[pos]
    t = mp / wp
    order = np.argsort(-t, kind="stable")
    ws = wp[order]
    lams = (np.cumsum(ws * mp[order]) - radius) / np.cumsum(ws * ws)
    # k = 1 qualifies whenever radius/w_1 is not lost to rounding in t_1
    ks = np.flatnonzero(lams < t[order])
    lam = lams[ks[-1] if ks.size else 0]
    return phases * np.maximum(mags - lam * w, 0.0)


# ---------------------------------------------------------------------------
# constrained fit
# ---------------------------------------------------------------------------


def _admm_ball(
    A: np.ndarray, y: np.ndarray, u: np.ndarray, eps: float, stop_at: float | None, give_up: float | None
):
    """min_d max_i |A d - y|_i  s.t.  sum_n u_n |d_n| <= eps, by scaled ADMM.

    Works on the unit-sup-column design B = A / s (s_n = max_i |A_in|,
    c = s d, ball weights u / s) with y and eps divided by max|y|, and
    splits off z1 = B c for the sup term and z2 = c for the ball (Boyd,
    Parikh, Chu, Peleato & Eckstein 2011), with penalties 1 and _RHO:
    z1 = w - P(w - y) for w = B c + v1 and P the projection onto the unit
    l1 ball (the prox of the sup norm), z2 = the projection of c + v2 onto
    the ball, and c = (B^H B + _RHO)^{-1} (B^H (z1 - v1) + _RHO (z2 - v2))
    from one eigendecomposition B^H B = V diag(S^2) V^H.  Starting from
    z1 = y makes the first c-step a ridge fit.

    Every _CHECK_EVERY steps it keeps the best z2, feasible by
    construction, and mu = v1 certifies, for every feasible c,
      err >= (|mu^H y| - eps max_n |(B^H mu)_n| / (u_n / s_n)) / ||mu||_1
    by Hoelder on mu^H y = mu^H (y - B c) + (B^H mu)^H c, over all columns.
    It stops once the best error is within _GAP of the best bound, below
    _NOISE or `stop_at`, once the bound exceeds `give_up` (no feasible c
    gets within it; -inf stops at the first check), or after _ADMM_STEPS
    steps.  Returns the best d, its
    error, the bound and the steps taken.
    """
    s = np.abs(A).max(axis=0)
    s[s == 0] = 1.0
    B = A / s
    top = float(np.abs(y).max())
    y, eps, us = y / top, eps / top, u / s
    goal = _NOISE if stop_at is None else max(_NOISE, stop_at / top)
    BH = B.conj().T
    S2, V = np.linalg.eigh(BH @ B)
    M = (V / (S2 + _RHO)) @ V.conj().T  # (B^H B + _RHO)^{-1}
    K = M @ BH
    ones = np.ones(y.size)
    z1, v1 = y, np.zeros_like(y)
    z2 = v2 = np.zeros(B.shape[1], dtype=complex)
    best, best_err, bound = z2, 1.0, 0.0  # the error of d = 0
    for steps in range(1, _ADMM_STEPS + 1):
        c = K @ (z1 - v1) + _RHO * (M @ (z2 - v2))
        Bc = B @ c
        w = Bc + v1
        z1 = w - project_weighted_l1(w - y, ones, 1.0)
        z2 = project_weighted_l1(c + v2, us, eps)
        v1 = v1 + Bc - z1
        v2 = v2 + c - z2
        if steps % _CHECK_EVERY:
            continue
        err = float(np.abs(B @ z2 - y).max())
        if err < best_err:
            best, best_err = z2, err
        l1 = float(np.abs(v1).sum())
        if l1 > 0:
            worst = float((np.abs(BH @ v1) / us).max())
            bound = max(bound, (abs(np.vdot(v1, y)) - eps * worst) / l1)
        if best_err <= max(_GAP * bound, goal) or (give_up is not None and bound * top > give_up):
            break
    return best * (top / s), best_err * top, bound * top, steps


def constrained_fit(
    dset: DiscretizedSet,
    g,
    f: DirichletPolynomial,
    sigma: float,
    eps: float,
    degree: int,
    options: FitOptions | None = None,
    *,
    lo: int = 1,
    rule_out: bool = False,
) -> FitResult:
    """min sampled-sup |h - g| over h subject to ||h - f||_sigma <= eps.

    Strategy: write h = f + d and fit the deviation d on the free block of
    indices lo..degree; f is reproduced exactly below lo.  When the
    unconstrained fit already sits inside the ball it is returned as-is
    (identical to minimax_fit on that block).  Otherwise one ADMM loop
    (_admm_ball) solves the ball-constrained minimax problem and
    certifies a lower bound on it over every coefficient of the block;
    low-index deviations are expensive against the weight n^{-sigma},
    which pins h near f there and pushes the fit into the tail, mirroring
    how such approximants are built.  Both solvers, the certificates and
    the reported error use the rows g's premise allows (see the module
    docstring).

    With `rule_out` and a target_error, both solvers give up once a
    certificate proves the target out of reach: Lawson once its bound
    exceeds target_error at full rank (it then covers every coefficient
    vector of the block), ADMM once its certificate does, or at its first
    check when Lawson already has, since only a feasible point is then
    wanted of it.  The constrained minimum is at least the unconstrained
    one, so either proves that no feasible h gets within target_error.
    The result is still feasible and not converged, reports that bound,
    and records "ruled_out" in its provenance.  Without the flag (the
    default) both solvers run as far as they otherwise would and
    provenance has no "ruled_out".
    """
    opts = options or FitOptions()
    if not (math.isfinite(eps) and eps > 0 and math.isfinite(sigma) and sigma > 0):
        raise InvalidInputError(
            f"constrained fit needs finite eps > 0 and sigma > 0, got eps={eps!r}, sigma={sigma!r}"
        )
    degree, lo = integral(degree, "degree"), integral(lo, "lo")
    if degree < f.degree:
        raise InvalidInputError("degree must be at least the degree of f")
    if not 1 <= lo <= degree:
        raise InvalidInputError(f"first free index must lie in 1..{degree}, got {lo!r}")
    waived = opts.allow_right_of_zero
    if not waived and max_real_part(dset.spec) > 1e-12:
        raise InvalidInputError(
            "set must lie in the closed left half-plane (or pass allow_right_of_zero)"
        )
    fpad = np.zeros(degree, dtype=complex)
    fpad[: f.degree] = f.coefficients
    u = _exp_basis(sigma, 1, degree)[lo - 1 :]
    give_up = opts.target_error if rule_out else None

    def solve(points: np.ndarray, gvals: np.ndarray, opts: FitOptions) -> FitResult:
        with np.errstate(over="ignore"):  # overflow checked by the solver
            A_full = _exp_basis(points, 1, degree)
        dvals = gvals - A_full @ fpad  # target for the deviation d = h - f
        # the free columns as a copy, since _lawson scales its design in place
        A = np.asfortranarray(A_full[:, lo - 1 :])

        # unconstrained shortcut; exact minimax_fit behavior when the ball
        # never binds
        d, _, bound, iters, rank, _ = _lawson(A, dvals, opts, give_up=give_up)
        ruled_out = _rules_out(bound, rank, A.shape[1], give_up)
        route = "unconstrained"
        if float(np.sum(u * np.abs(d))) > eps:
            # once Lawson has ruled the target out, ADMM is only asked for a
            # feasible point: it gives up at its first check
            quit_at = -math.inf if ruled_out else give_up
            d, _, cert, iters = _admm_ball(A, dvals, u, eps, opts.target_error, quit_at)
            ruled_out = ruled_out or (give_up is not None and bool(cert > give_up))
            bound, route = max(bound, cert), "lawson+admm"
        dfull = np.zeros(degree, dtype=complex)
        dfull[lo - 1 :] = d
        constraint_value = seminorm_sigma(DirichletPolynomial(dfull), sigma)
        exact = float(np.abs(A_full @ (fpad + dfull) - gvals).max())
        feasible = constraint_value <= eps * (1 + 1e-12)
        hit_target = opts.target_error is None or exact <= opts.target_error
        provenance = {
            "method": "lawson-irls+seminorm-ball",
            "route": route,
            "rank": rank,
            "sigma": sigma,
            "eps": eps,
            "geometry_waiver": waived,
            "rows": int(points.size),
            "support": "all" if lo == 1 else f"{degree - lo + 1} of {degree}",
        }
        if rule_out:
            provenance["ruled_out"] = ruled_out
        return FitResult(
            polynomial=DirichletPolynomial(fpad + dfull),
            minimax_error=exact,
            lower_bound=bound,
            constraint_value=constraint_value,
            iterations=iters,
            converged=bool(feasible and hit_target and not ruled_out),
            provenance=provenance,
        )

    return _on_rows(dset, g, opts, solve)


# ---------------------------------------------------------------------------
# degree sweeps
# ---------------------------------------------------------------------------


def convergence_study(
    dset: DiscretizedSet,
    g,
    degrees: Sequence[int],
    options: FitOptions | None = None,
) -> list[tuple[int, float]]:
    """(N, minimax_error) rows over an ascending degree ladder, one
    minimax_fit per N.

    Nested bases make the true minimax errors non-increasing, but each
    fit searches only its design's rank-r range, which need not contain
    the smaller degree's; the best smaller-degree solution is carried
    forward and whichever is better is reported at each N.
    """
    degrees = [integral(n, "degree") for n in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise InvalidInputError("degrees must be strictly ascending")
    rows: list[tuple[int, float]] = []
    carried: np.ndarray | None = None
    carried_err = math.inf
    for n in degrees:
        res = minimax_fit(dset, g, n, options)
        err, coeffs = res.minimax_error, res.polynomial.coefficients
        if carried is not None and carried_err < err:
            padded = np.zeros(n, dtype=complex)
            padded[: carried.size] = carried
            err, coeffs = carried_err, padded
        rows.append((n, err))
        carried, carried_err = coeffs, err
    return rows
