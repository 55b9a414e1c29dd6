"""Prime-power dictionary between Dirichlet polynomials and polydisc polynomials.

Each integer n = p_1^{a_1} ... p_k^{a_k} corresponds to the monomial
z^a; under z_j = p_j^{-s} a Dirichlet polynomial of degree N becomes a
polynomial in k = pi(N) variables, and the half-plane sup norm equals
the sup over the closed unit polydisc.  This module implements the
dictionary exactly and the norm identity as a pair of sampled
lower-bound estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    InvalidInputError,
    NeedsLargerTableError,
    OutOfRangeError,
    ResourceLimitError,
)
from .series import DirichletPolynomial, SupNormPlan, sup_norm_halfplane

__all__ = [
    "PrimeTable",
    "MultiIndex",
    "LiftedPolynomial",
    "PolydiscPlan",
    "BohrGapReport",
    "factorize_to_multiindex",
    "lift",
    "unlift",
    "evaluate_lifted",
    "polydisc_sup_estimate",
    "bohr_gap_report",
]


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_TABLE_CACHE: dict[int, "PrimeTable"] = {}
_MAX_DEGREE = 1_000_000  # largest n that unlift places: its coefficient array has n entries


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes, complete up to `bound`."""

    primes: tuple[int, ...]
    bound: int

    @staticmethod
    def up_to(bound: int) -> "PrimeTable":
        if bound < 1:
            raise InvalidInputError("prime table bound must be >= 1")
        cached = _TABLE_CACHE.get(bound)
        if cached is not None:
            return cached
        if bound < 2:
            table = PrimeTable((), bound)
        else:
            sieve = np.ones(bound + 1, dtype=bool)
            sieve[:2] = False
            for p in range(2, int(math.isqrt(bound)) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = False
            table = PrimeTable(tuple(int(p) for p in np.nonzero(sieve)[0]), bound)
        _TABLE_CACHE[bound] = table
        return table

    def count(self) -> int:
        return len(self.primes)


# ---------------------------------------------------------------------------
# multi-indices and lifted polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple (a_1..a_k) with trailing zeros trimmed."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise InvalidInputError("multi-index entries must be >= 0")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)

    def __len__(self):
        return len(self.exponents)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        a, b = self.exponents, other.exponents
        if len(a) < len(b):
            a, b = b, a
        return MultiIndex(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def prime_power(self, table: PrimeTable) -> int:
        """The integer p^alpha encoded by this index."""
        if len(self.exponents) > table.count():
            raise NeedsLargerTableError(
                f"index uses {len(self.exponents)} primes, table has {table.count()}"
            )
        n = 1
        for p, a in zip(table.primes, self.exponents):
            n *= p**a
        return n


def factorize_to_multiindex(n: int, table: PrimeTable) -> MultiIndex:
    """Exponent vector of n over the table's primes; exact factorization."""
    if n < 1:
        raise InvalidInputError("can only factorize integers n >= 1")
    exps = []
    rest = int(n)
    for p in table.primes:
        if rest == 1:
            break
        a = 0
        while rest % p == 0:
            rest //= p
            a += 1
        exps.append(a)
    if rest != 1:
        raise NeedsLargerTableError(
            f"n={n} has a prime factor beyond table bound {table.bound}"
        )
    return MultiIndex(tuple(exps))


@dataclass(frozen=True)
class LiftedPolynomial:
    """Polynomial sum_alpha c_alpha z^alpha on k variables.

    Terms hold exactly the nonzero coefficients of the source Dirichlet
    polynomial, keyed by the exponent vector of n over the first k primes.
    """

    terms: Mapping[MultiIndex, complex]
    variable_count: int

    def __post_init__(self):
        clean = {}
        for idx, c in self.terms.items():
            if not isinstance(idx, MultiIndex):
                idx = MultiIndex(tuple(idx))
            c = complex(c)
            if len(idx) > self.variable_count:
                raise InvalidInputError(
                    f"term {idx.exponents} exceeds variable count {self.variable_count}"
                )
            if c != 0:
                clean[idx] = c
        object.__setattr__(self, "terms", clean)

    def __eq__(self, other):
        if not isinstance(other, LiftedPolynomial):
            return NotImplemented
        return self.terms == other.terms  # variable counts may differ by padding

    def __mul__(self, other: "LiftedPolynomial") -> "LiftedPolynomial":
        out: dict[MultiIndex, complex] = {}
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                key = ia + ib
                out[key] = out.get(key, 0) + ca * cb
        return LiftedPolynomial(out, max(self.variable_count, other.variable_count))

    def exponent_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(T x k integer exponent matrix, length-T coefficient vector), sorted keys."""
        keys = sorted(self.terms, key=lambda ix: (len(ix), ix.exponents))
        k = self.variable_count
        E = np.zeros((len(keys), k), dtype=np.intp)
        c = np.zeros(len(keys), dtype=complex)
        for t, ix in enumerate(keys):
            E[t, : len(ix)] = ix.exponents
            c[t] = self.terms[ix]
        return E, c


def lift(p: DirichletPolynomial) -> LiftedPolynomial:
    """Monomial dictionary image of p; k = number of primes <= degree."""
    table = PrimeTable.up_to(max(p.degree, 1))
    terms: dict[MultiIndex, complex] = {}
    for n in range(1, p.degree + 1):
        c = p.coefficients[n - 1]
        if c != 0:
            terms[factorize_to_multiindex(n, table)] = complex(c)
    return LiftedPolynomial(terms, table.count())


def unlift(q: LiftedPolynomial) -> DirichletPolynomial:
    """Inverse dictionary: coefficient of alpha lands at n = p^alpha (n <= 10^6)."""
    need = max((len(ix) for ix in q.terms), default=0)
    # enough primes for the longest index: p_k <= ~k(ln k + ln ln k) for k>=6
    bound = 50 if need < 10 else int(need * (math.log(need) + math.log(math.log(need))) * 1.2) + 10
    table = PrimeTable.up_to(bound)
    entries = {}
    degree = 1
    for ix, c in q.terms.items():
        n = ix.prime_power(table)
        if n > _MAX_DEGREE:
            raise OutOfRangeError(
                f"term {ix.exponents} encodes n={n} beyond the supported degree {_MAX_DEGREE}"
            )
        entries[n] = entries.get(n, 0) + c
        degree = max(degree, n)
    coeffs = np.zeros(degree, dtype=complex)
    for n, c in entries.items():
        coeffs[n - 1] = c
    return DirichletPolynomial(coeffs)


def _monomials(E: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Monomials z^{E_t} at the B points z (B x k), as a T x B array.

    Each variable's powers z_j^1 .. z_j^{max E[:, j]} come from repeated
    multiplication, and each term multiplies only the powers of the
    variables it uses: exact integer powers, with 0^0 = 1.
    """
    powers = [
        np.cumprod(np.broadcast_to(z[:, j], (top, z.shape[0])), axis=0)
        for j, top in enumerate(E.max(axis=0, initial=0))
    ]
    M = np.ones((E.shape[0], z.shape[0]), dtype=complex)
    for t, e in enumerate(E):
        used = np.flatnonzero(e)
        if used.size:
            M[t] = powers[used[0]][e[used[0]] - 1]
            for j in used[1:]:
                M[t] *= powers[j][e[j] - 1]
    return M


def evaluate_lifted(q: LiftedPolynomial, z: Iterable[complex]) -> complex:
    """Value of q at a point of C^k (exact integer powers; 0^0 = 1)."""
    zv = np.asarray(list(z), dtype=complex)
    if zv.size != q.variable_count:
        raise InvalidInputError(
            f"point has {zv.size} coordinates, polynomial expects {q.variable_count}"
        )
    E, c = q.exponent_matrix()
    return complex(c @ _monomials(E, zv[None, :])[:, 0])


# ---------------------------------------------------------------------------
# polydisc sup estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolydiscPlan:
    """Torus sampling plan.

    For k <= 3 variables a tensor grid of `angles` per axis, doubled up
    to max_refinements times until the best value moves by less than
    0.1 %, with each grid's best point polished; beyond that, mc_samples
    seeded Monte-Carlo angles with the polish_starts best candidates
    polished (0: no polish).  Hard cap at max_vars.

    Either way the torus is evaluated in blocks of a few MB, whatever the
    plan's size: _GRID_BLOCK_VALUES grid values or _MC_BLOCK random points.
    A random point costs k (cos, sin) pairs, since its prime-power
    monomials are products of powers of z_j = e^{i theta_j}.  The block
    sizes change no result: the random stream, the candidates polished
    and the grid maximum are those of one whole pass (for the grid, up to
    the GEMV caveat of _torus_grid_argmax).
    """

    angles: int = 64
    max_vars: int = 8
    mc_samples: int = 120_000
    polish_starts: int = 16
    max_refinements: int = 2
    seed: int = 0

    def validated(self) -> "PolydiscPlan":
        if self.angles < 2:
            raise InvalidInputError(f"polydisc plan needs angles >= 2, got {self.angles!r}")
        if self.mc_samples < 1:
            raise InvalidInputError(f"polydisc plan needs mc_samples >= 1, got {self.mc_samples!r}")
        if self.polish_starts < 0:
            raise InvalidInputError(f"polydisc plan needs polish_starts >= 0, got {self.polish_starts!r}")
        if self.max_refinements < 0:
            raise InvalidInputError(f"polydisc plan needs max_refinements >= 0, got {self.max_refinements!r}")
        if self.seed < 0:
            raise InvalidInputError(f"polydisc plan needs seed >= 0, got {self.seed!r}")
        return self


_TENSOR_MAX_VARS = 3  # beyond this many variables the torus is sampled at random
_REFINE_TOL = 1e-3  # relative change that ends the tensor grid's refinement
_GRID_BLOCK_VALUES = 1 << 18  # grid values per block of the k <= 3 tensor grid
_MC_BLOCK = 8192  # random torus points drawn and evaluated per block
_POLISH_STEPS = 50  # Newton-ascent trials per torus polish


def _torus_values(E: np.ndarray, c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """|q| at torus points exp(i theta); thetas is (B x k).

    Each point costs k (cos, sin) pairs: its monomials are products of the
    prime powers z_j^a (_monomials), not T complex exponentials.
    """
    z = np.empty(thetas.shape, dtype=complex)
    np.cos(thetas, out=z.real)
    np.sin(thetas, out=z.imag)
    return np.abs(c @ _monomials(E, z))


def _grid_tables(E: np.ndarray, c: np.ndarray, theta1: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U_1 * c, R) for the tensor grid theta1 x theta^(k-1).

    exp(i theta_a . E_t) factors over the axes, so with per-axis tables
    U_j = exp(i theta (x) E[:, j]) (rows x T) and R the row-wise Khatri-Rao
    product of U_2..U_k, the grid is |(U_1 * c) @ R^T|: one GEMM whose rows
    run along axis 1 and whose columns run over axes 2..k in C order.
    """
    R = np.ones((1, c.size), dtype=complex)
    for j in range(1, E.shape[1]):
        Uj = np.exp(1j * np.multiply.outer(theta, E[:, j]))
        R = (R[:, None, :] * Uj[None, :, :]).reshape(-1, c.size)
    return np.exp(1j * np.multiply.outer(theta1, E[:, 0])) * c, R


def _torus_grid_values(E: np.ndarray, c: np.ndarray, theta1: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """|q| on the tensor grid theta1 x theta^(k-1), shape (len(theta1),) + (m,) * (k-1), in one GEMM."""
    A, R = _grid_tables(E, c, theta1, theta)
    return np.abs(A @ R.T).reshape((theta1.size,) + (theta.size,) * (E.shape[1] - 1))


def _torus_grid_argmax(E: np.ndarray, c: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Max of |q| on the grid theta^k and its angles, over blocks of the one GEMM.

    R is built once; each block is 16i axis-1 rows times a slice of 16j
    rows of R (grid columns), ~_GRID_BLOCK_VALUES values in all.  In
    OpenBLAS such a block reproduces the whole GEMM's values
    (_torus_grid_values) bit for bit, since its columns keep their place in
    the kernel's column tiles.  A slice that starts off those tiles can
    differ by an ulp, and so can a block of one row or one column (only
    for odd m), which goes through GEMV.  Ties go to the first point in
    C order, as np.argmax over the whole grid would.
    """
    A, R = _grid_tables(E, c, theta, theta)
    rows = 16 * max(1, _GRID_BLOCK_VALUES // (16 * len(R)))
    cols = 16 * max(1, _GRID_BLOCK_VALUES // (16 * rows))
    best, arg = -1.0, 0
    for r0 in range(0, len(A), rows):
        for c0 in range(0, len(R), cols):
            vals = np.abs(A[r0 : r0 + rows] @ R[c0 : c0 + cols].T)
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            flat = (r0 + i) * len(R) + c0 + j
            if vals[i, j] > best or (vals[i, j] == best and flat < arg):
                best, arg = float(vals[i, j]), flat
    return best, theta[np.array(np.unravel_index(arg, (theta.size,) * E.shape[1]))]


def _polish_on_torus(E: np.ndarray, c: np.ndarray, theta0: np.ndarray) -> float:
    """Local max of |q(e^{i theta})| by damped-Newton (Levenberg) ascent on F = |f|^2.

    With a_t = c_t e^{i E_t.theta} and f = sum_t a_t: grad f = i a E,
    d^2 f = -E^T diag(a) E, grad F = 2 Re(conj(f) grad f) and hess F =
    2 Re(conj(f) d^2 f + grad f grad f^H).  A step divides grad F by
    |eigenvalue| + mu along each eigenvector of hess F, so it always ascends
    and leaves saddles; it is kept only if |f| rises, and mu shrinks after a
    kept step and grows after a rejected one.
    """
    theta = np.asarray(theta0, dtype=float)
    a = c * np.exp(1j * (E @ theta))
    lam = 1e-3
    for _ in range(_POLISH_STEPS):
        f = a.sum()
        df = 1j * (a @ E)
        grad = 2.0 * np.real(np.conj(f) * df)
        w, V = np.linalg.eigh(2.0 * np.real(np.conj(f) * -((E.T * a) @ E) + np.outer(df, np.conj(df))))
        step = V @ ((V.T @ grad) / (np.abs(w) + lam * max(np.abs(w).max(), abs(f) ** 2, 1e-300)))
        if grad @ step <= 1e-16 * abs(f) ** 2:  # any gain would be lost to rounding
            break
        a_trial = c * np.exp(1j * (E @ (theta + step)))
        if abs(a_trial.sum()) > abs(f):
            theta, a, lam = theta + step, a_trial, max(0.1 * lam, 1e-12)
        else:
            lam *= 10.0
    return float(abs(a.sum()))


def polydisc_sup_estimate(q: LiftedPolynomial, plan: PolydiscPlan | None = None) -> float:
    """Lower-bound estimate of sup over the closed unit polydisc.

    Sampling is restricted to the distinguished boundary torus |z_j| = 1
    (the maximum principle puts the sup there), and the best samples are
    polished to a local maximum by damped-Newton ascent in the angles.
    Every value returned is |q| at a point of the torus.
    """
    if plan is None:
        plan = PolydiscPlan()
    plan = plan.validated()
    k = q.variable_count
    if not q.terms:
        return 0.0
    E, c = q.exponent_matrix()
    if k == 0 or np.all(E == 0):
        return float(abs(np.sum(c)))
    if k > plan.max_vars:
        raise ResourceLimitError(
            f"{k} variables exceeds plan cap {plan.max_vars}; raise max_vars knowingly"
        )

    if k <= _TENSOR_MAX_VARS:
        best = 0.0
        m = plan.angles
        prev = -1.0
        for _ in range(plan.max_refinements + 1):
            theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
            value, theta_max = _torus_grid_argmax(E, c, theta)
            best = max(best, value, _polish_on_torus(E, c, theta_max))
            if prev >= 0 and abs(best - prev) <= _REFINE_TOL * max(best, 1e-30):
                break
            prev = best
            m *= 2
        return best

    # each block keeps its best candidates; consecutive draws from one
    # generator are the stream of a single (mc_samples, k) draw
    rng = np.random.default_rng(plan.seed)
    keep = max(plan.polish_starts, 1)
    kept_vals, kept_thetas = [], []
    for start in range(0, plan.mc_samples, _MC_BLOCK):
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=(min(_MC_BLOCK, plan.mc_samples - start), k))
        vals = _torus_values(E, c, thetas)
        kth = max(vals.size - keep, 0)  # every value tied with or above the keep-th largest
        top = np.flatnonzero(vals >= np.partition(vals, kth)[kth])
        top = top[np.argsort(-vals[top], kind="stable")[:keep]]
        kept_vals.append(vals[top])
        kept_thetas.append(thetas[top])
    vals, thetas = np.concatenate(kept_vals), np.concatenate(kept_thetas)
    order = np.argsort(-vals, kind="stable")
    best = float(vals[order[0]])
    for i in order[: plan.polish_starts]:
        best = max(best, _polish_on_torus(E, c, thetas[i]))
    return best


# ---------------------------------------------------------------------------
# norm identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrGapReport:
    halfplane_value: float
    polydisc_value: float
    relative_gap: float
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return self.relative_gap <= self.tolerance


def _gap_halfplane_plan(k: int) -> SupNormPlan:
    """Sweep length scaled to variable count.

    The boundary line fills the k-torus of prime phases at rate
    ~T^{1/(k-1)} per coordinate, so high k needs a long sweep to come
    within a couple of percent of the sup; low k converges fast.
    """
    height = {0: 200.0, 1: 200.0, 2: 2e4, 3: 1e5, 4: 2e5, 5: 2e6, 6: 6.5e6, 7: 1.2e7}.get(k, 3.2e7)
    dt = 0.5 if height <= 2e6 else 1.0
    return SupNormPlan(height=height, edge_points=int(height / dt) + 1)


def bohr_gap_report(
    p: DirichletPolynomial,
    tolerance: float = 0.02,
    halfplane_plan: SupNormPlan | None = None,
    polydisc_plan: PolydiscPlan | None = None,
) -> BohrGapReport:
    """Numerical check of the half-plane / polydisc sup identity.

    Both sides are sampled lower bounds, so the gap measures estimator
    quality, not the identity itself; tolerance is a knob (default 2%).
    The tolerance and the polydisc plan are checked before either side runs.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidInputError(f"gap tolerance must be finite and >= 0, got {tolerance!r}")
    polydisc_plan = (polydisc_plan or PolydiscPlan()).validated()
    q = lift(p)
    hp = sup_norm_halfplane(p, 0.0, halfplane_plan or _gap_halfplane_plan(q.variable_count))
    pd = polydisc_sup_estimate(q, polydisc_plan)
    scale = max(hp, pd, 1e-300)
    return BohrGapReport(hp, pd, abs(hp - pd) / scale, tolerance)
