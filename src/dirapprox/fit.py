"""Discrete Chebyshev fitting of Dirichlet polynomials on compact sets.

minimax_fit solves min_a max_i |sum_n a_n n^{-s_i} - g(s_i)| by Lawson
iteratively-reweighted least squares; constrained_fit adds the weighted
coefficient-norm constraint ||h - f||_sigma <= eps on top of the same
kernel.  All errors are sampled sups over the discretized set, never
certified continuous sups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import IllConditionedError, InvalidInputError
from .geometry import DiscretizedSet, max_real_part
from .series import DirichletPolynomial, _exp_basis, seminorm_sigma

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
        try:
            if d["kind"] == "sampled":
                return TargetFunction.sampled(np.array([complex(re, im) for re, im in d["values"]]))
            name = d["name"]
            if name == "constant":
                return TargetFunction.const(complex(*d["constant"]))
            if name == "polynomial":
                return TargetFunction.polynomial([complex(re, im) for re, im in d["poly_coeffs"]])
            return TargetFunction("named", name=name)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed target description: {exc}") from exc


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


_RIDGE = 1e-12  # Tikhonov term of the Lawson normal equations
_SUP_TOL = 1e-10  # change in sup error between iterations that counts as settled


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    # minimax_fit: Lawson stops once the sup error is <= this, and converged
    # means it got there; constrained_fit: converged needs err <= this
    target_error: float | None = None
    allow_right_of_zero: bool = False  # geometry waiver for constrained_fit


@dataclass(frozen=True)
class FitResult:
    polynomial: DirichletPolynomial
    minimax_error: float
    constraint_value: float | None
    iterations: int
    converged: bool
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.polynomial.to_pairs(),
            "minimax_error": self.minimax_error,
            "constraint_value": self.constraint_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# Lawson kernel
# ---------------------------------------------------------------------------


def _normal_equations(B: np.ndarray, w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^H W B + _RIDGE*I and B^H W y over the live rows, w_i > 1e-24.

    w sums to 1 and |B_ij| <= 1, so the rows left out move each entry of
    B^H W B by less than m * 1e-24 (and of B^H W y by that times max|y|):
    for m <= 1e6, six orders below the ridge.  IRLS drives hundreds
    of weights to zero or into the subnormal range, where arithmetic is
    slow.  At most two B-sized temporaries live here, as many as the
    plain B^H (W B) product makes, and they are freed on return.
    """
    live = w > 1e-24
    if not live.all():
        B, w, y = B[live], w[live], y[live]
    WBh = B.conj()  # conj(W B), whose transpose is (W B)^H
    WBh *= w[:, None]
    G = WBh.T @ B
    G.flat[:: G.shape[0] + 1] += _RIDGE
    return G, WBh.T @ y


def _lawson(
    A: np.ndarray,
    y: np.ndarray,
    opts: FitOptions,
    stop_at: float | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """IRLS for min_c sup_i |A c - y|: weights grow with residual size.

    Columns are sup-normalized internally (near-collinear n^{-s} columns
    make the raw normal equations hopeless beyond N ~ 30).  Returns the
    best iterate by sup error, its error, iterations used, and whether
    the sup error stabilized below _SUP_TOL between iterations or
    the best sup error reached `stop_at`, which ends the iteration.
    """
    m, n = A.shape
    if not np.all(np.isfinite(A)):
        raise IllConditionedError(
            "design matrix overflows (samples too deep in the left half-plane)",
            diagnostic={"degree": n, "samples": m, "iteration": 0},
        )
    scale = np.abs(A).max(axis=0)
    scale[scale == 0] = 1.0
    B = A / scale[None, :]

    w = np.full(m, 1.0 / m)
    best_c = np.zeros(n, dtype=complex)
    best_err = float(np.abs(B @ best_c - y).max()) if m else 0.0
    # SVD least squares seeds the race: on exactly representable targets
    # it lands at machine precision where the ridge leaves ~1e-10 behind
    try:
        c0 = np.linalg.lstsq(B, y, rcond=None)[0]
        if np.all(np.isfinite(c0)):
            e0 = float(np.abs(B @ c0 - y).max())
            if e0 < best_err:
                best_c, best_err = c0, e0
    except np.linalg.LinAlgError:
        pass  # the ridge path below raises with a diagnostic if it also fails
    if stop_at is not None and best_err <= stop_at:
        return best_c / scale, best_err, 0, True
    prev_err = math.inf
    converged = False
    iterations = 0
    for it in range(1, opts.max_iterations + 1):
        iterations = it
        G, rhs = _normal_equations(B, w, y)
        try:
            c = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedError(
                "weighted normal equations are singular beyond the ridge",
                diagnostic={"degree": n, "samples": m, "iteration": it},
            ) from exc
        if not np.all(np.isfinite(c)):
            raise IllConditionedError(
                "non-finite solution from normal equations",
                diagnostic={"degree": n, "samples": m, "iteration": it},
            )
        r = np.abs(B @ c - y)
        err = float(r.max()) if m else 0.0
        if err < best_err:
            best_err, best_c = err, c
        if (stop_at is not None and best_err <= stop_at) or abs(prev_err - err) < _SUP_TOL:
            converged = True
            break
        prev_err = err
        w = w * np.maximum(r, 1e-300)
        total = w.sum()
        if not math.isfinite(total) or total <= 0:
            break
        w /= total
    return best_c / scale, best_err, iterations, converged


def minimax_fit_samples(
    points: np.ndarray,
    values: np.ndarray,
    degree: int,
    options: FitOptions | None = None,
    support: np.ndarray | None = None,
) -> FitResult:
    """minimax_fit on a bare point cloud with precomputed target values.

    Used directly when the sample set is not a DiscretizedSet (e.g. the
    1/(s-z) image of one).
    """
    opts = options or FitOptions()
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
        A_full = _exp_basis(points, 1, degree)
    if support is not None:
        support = np.asarray(support, dtype=bool)
        if support.shape != (degree,):
            raise InvalidInputError("support mask must have one entry per coefficient")
        if not support.any():
            raise InvalidInputError("support mask excludes every coefficient")
    A = A_full if support is None else A_full[:, support]

    c, err, iters, conv = _lawson(A, gvals, opts, stop_at=opts.target_error)
    coeffs = np.zeros(degree, dtype=complex)
    if support is not None:
        coeffs[support] = c
    else:
        coeffs = c
    p = DirichletPolynomial(coeffs)
    exact = float(np.abs(A_full @ p.coefficients - gvals).max())
    if opts.target_error is not None:
        conv = exact <= opts.target_error
    return FitResult(
        polynomial=p,
        minimax_error=exact,
        constraint_value=None,
        iterations=iters,
        converged=conv,
        provenance={
            "method": "lawson-irls",
            "column_normalized": True,
            "ridge": _RIDGE,
            "samples": int(points.size),
            "support": "all" if support is None else f"{int(support.sum())} of {degree}",
        },
    )


def minimax_fit(
    dset: DiscretizedSet,
    g,
    degree: int,
    options: FitOptions | None = None,
    support: np.ndarray | None = None,
) -> FitResult:
    """Best sampled-sup fit of a degree-`degree` Dirichlet polynomial to g.

    `support`, if given, is a boolean mask over coefficient indices
    1..degree restricting which basis elements may be used.
    """
    points = dset.all_samples()
    if points.size == 0:
        raise InvalidInputError("discretized set has no samples")
    return minimax_fit_samples(points, _target_values(g, points), degree, options, support)


# ---------------------------------------------------------------------------
# weighted-l1 ball projection (seminorm ball)
# ---------------------------------------------------------------------------


def project_weighted_l1(v: np.ndarray, weights: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {d : sum_n weights_n |d_n| <= radius}.

    Phase-preserving soft threshold d_n = e^{i arg v_n} max(|v_n| -
    lam*w_n, 0), with lam exact in O(N log N) (Duchi, Shalev-Shwartz,
    Singer & Chandra 2008; Condat 2016): sort the breakpoints
    t_n = |v_n|/w_n in descending order and take
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


def _spectral_norm_sq(B: np.ndarray, iters: int = 30) -> float:
    """Largest squared singular value by power iteration."""
    v = np.ones(B.shape[1], dtype=complex) / math.sqrt(B.shape[1])
    lam = 1.0
    for _ in range(iters):
        w = B.conj().T @ (B @ v)
        lam = float(np.linalg.norm(w))
        if lam == 0:
            return 1.0
        v = w / lam
    return lam


def _fista_ball(
    A: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    eps: float,
    d0: np.ndarray,
    iters: int,
) -> np.ndarray:
    """min_d sum_i w_i |A d - y|_i^2  s.t.  sum_n u_n |d_n| <= eps.

    Accelerated projected proximal gradient; the projection keeps every
    iterate exactly feasible.  The problem is reparameterized to
    unit-sup columns (g_n = s_n d_n with s_n = max_i |A_in|), without
    which the n^{-s} dynamic range makes the Lipschitz step vanish.
    """
    s = np.abs(A).max(axis=0)
    s[s == 0] = 1.0
    us = u / s
    sw = np.sqrt(w)
    B = (A / s[None, :]) * sw[:, None]
    yb = y * sw
    BH = B.conj().T
    L = 2.0 * _spectral_norm_sq(B) * 1.02
    g = project_weighted_l1(d0 * s, us, eps)
    z = g.copy()
    t = 1.0
    for _ in range(iters):
        grad = 2.0 * (BH @ (B @ z - yb))
        g_new = project_weighted_l1(z - grad / L, us, eps)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = g_new + ((t - 1.0) / t_new) * (g_new - g)
        g, t = g_new, t_new
    return g / s


def constrained_fit(
    dset: DiscretizedSet,
    g,
    f: DirichletPolynomial,
    sigma: float,
    eps: float,
    degree: int,
    options: FitOptions | None = None,
    support: np.ndarray | None = None,
) -> FitResult:
    """min sampled-sup |h - g| over h subject to ||h - f||_sigma <= eps.

    Strategy: write h = f + d and fit the deviation d.  When the
    unconstrained fit already sits inside the ball it is returned as-is
    (identical to minimax_fit).  Otherwise each Lawson reweighting step
    solves its weighted least-squares subproblem under the ball
    constraint by accelerated projected proximal gradient, so every
    iterate is exactly feasible; low-index deviations are expensive
    against the weight n^{-sigma}, which pins h near f there and pushes
    the fit into the tail, mirroring how such approximants are built.

    `support`, if given, is a boolean mask over indices 1..degree
    restricting where the deviation d may be nonzero; f is reproduced
    exactly everywhere else.
    """
    opts = options or FitOptions()
    if eps <= 0 or sigma <= 0:
        raise InvalidInputError("constrained fit needs eps > 0 and sigma > 0")
    if degree < f.degree:
        raise InvalidInputError("degree must be at least the degree of f")
    waived = opts.allow_right_of_zero
    if not waived and max_real_part(dset.spec) > 1e-12:
        raise InvalidInputError(
            "set must lie in the closed left half-plane (or pass allow_right_of_zero)"
        )

    points = dset.all_samples()
    if points.size == 0:
        raise InvalidInputError("discretized set has no samples")
    gvals = _target_values(g, points)
    fpad = np.zeros(degree, dtype=complex)
    fpad[: f.degree] = f.coefficients
    with np.errstate(over="ignore"):  # overflow checked by the solver
        A_full = _exp_basis(points, 1, degree)
    dvals = gvals - A_full @ fpad  # target for the deviation d = h - f
    u_full = _exp_basis(sigma, 1, degree)
    if support is not None:
        support = np.asarray(support, dtype=bool)
        if support.shape != (degree,):
            raise InvalidInputError("support mask must have one entry per coefficient")
        if not support.any():
            raise InvalidInputError("support mask excludes every coefficient")
        A, u = A_full[:, support], u_full[support]
    else:
        A, u = A_full, u_full

    def embed(dcoef: np.ndarray) -> np.ndarray:
        if support is None:
            return dcoef
        full = np.zeros(degree, dtype=complex)
        full[support] = dcoef
        return full

    def sup_of(dcoef: np.ndarray) -> float:
        return float(np.abs(A @ dcoef - dvals).max())

    total_iters = 0

    # unconstrained shortcut; exact minimax_fit behavior when the ball
    # never binds
    c, err, iters, _ = _lawson(A, dvals, opts)
    total_iters += iters
    if float(np.sum(u * np.abs(c))) <= eps:
        d, route = c, "unconstrained"
    else:
        route = "lawson+projected-gradient"
        w = np.full(points.size, 1.0 / points.size)
        d = np.zeros(A.shape[1], dtype=complex)
        best_d, best_err = d, sup_of(d)
        stall = 0
        for outer in range(opts.max_iterations):
            total_iters += 1
            inner = 400 if outer == 0 else 120  # warm starts need fewer steps
            d = _fista_ball(A, dvals, w, u, eps, d, inner)
            r = np.abs(A @ d - dvals)
            e = float(r.max())
            if e < best_err - _SUP_TOL:
                best_err, best_d, stall = e, d.copy(), 0
            else:
                stall += 1
                if stall >= 8:
                    break
            w = w * np.maximum(r, 1e-300)
            w /= w.sum()
        d = best_d
    dfull = embed(d)
    h = DirichletPolynomial(fpad + dfull)
    constraint_value = seminorm_sigma(DirichletPolynomial(dfull), sigma)
    exact = float(np.abs(A_full @ (fpad + dfull) - gvals).max())
    feasible = constraint_value <= eps * (1 + 1e-12)
    hit_target = opts.target_error is None or exact <= opts.target_error
    return FitResult(
        polynomial=h,
        minimax_error=exact,
        constraint_value=constraint_value,
        iterations=total_iters,
        converged=bool(feasible and hit_target),
        provenance={
            "method": "lawson-irls+seminorm-ball",
            "route": route,
            "sigma": sigma,
            "eps": eps,
            "geometry_waiver": waived,
            "samples": int(points.size),
            "support": "all" if support is None else f"{int(support.sum())} of {degree}",
        },
    )


# ---------------------------------------------------------------------------
# degree sweeps
# ---------------------------------------------------------------------------


def convergence_study(
    dset: DiscretizedSet,
    g,
    degrees: Sequence[int],
    options: FitOptions | None = None,
) -> list[tuple[int, float]]:
    """(N, minimax_error) rows over an ascending degree ladder.

    Nested bases make the true minimax errors non-increasing; the IRLS
    solver is kept honest by carrying the best smaller-degree solution
    forward and reporting whichever is better at each N.
    """
    degrees = [int(n) for n in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise InvalidInputError("degrees must be strictly ascending")
    points = dset.all_samples()
    gvals = _target_values(g, points)
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
