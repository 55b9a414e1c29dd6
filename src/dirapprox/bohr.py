"""Prime-power dictionary between Dirichlet polynomials and polydisc polynomials.

Each integer n = p_1^{a_1} ... p_k^{a_k} corresponds to the monomial
z^a; under z_j = p_j^{-s} a Dirichlet polynomial of degree N becomes a
polynomial in k = pi(N) variables, and the half-plane sup norm equals
the sup over the closed unit polydisc.  This module implements the
dictionary exactly and checks the norm identity from both sides: a
sampled and polished estimate of the sup over the torus, and |P| at an
explicit real point of the line Re s = 0 whose prime phases p^{-it}
approximate the best torus point (a Kronecker witness, found by lattice
reduction).  Both are values of |P| or of its lift, so both are lower
bounds.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    NeedsLargerTableError,
    OutOfRangeError,
    ResourceLimitError,
    integral,
)
from .series import DirichletPolynomial

__all__ = [
    "PrimeTable",
    "MultiIndex",
    "LiftedPolynomial",
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

_MAX_DEGREE = 1_000_000  # largest n that unlift places: its coefficient array has n entries

# Every prime up to _sieved, ascending: one table, grown by doubling up to
# _SIEVE_CAP and sliced for each bound.  Bounds beyond the cap are sieved
# per call.  The tables of bounds up to _SMALL_BOUND (every lift of degree
# <= 64) are also kept whole, since slicing costs more than the lookup.
_SIEVE_CAP = 1 << 20
_SMALL_BOUND = 64
_primes: tuple[int, ...] = ()
_sieved = 0
_TABLE_CACHE: dict[int, "PrimeTable"] = {}


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes up to bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return ()
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(bound)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(np.flatnonzero(sieve).tolist())


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes, complete up to `bound`."""

    primes: tuple[int, ...]
    bound: int

    @staticmethod
    def up_to(bound: int) -> "PrimeTable":
        global _primes, _sieved
        if bound < 1:
            raise InvalidInputError("prime table bound must be >= 1")
        table = _TABLE_CACHE.get(bound)
        if table is not None:
            return table
        if bound > _SIEVE_CAP:
            return PrimeTable(_sieve(bound), bound)
        if bound > _sieved:
            _sieved = min(_SIEVE_CAP, max(bound, 2 * _sieved, _SMALL_BOUND))
            _primes = _sieve(_sieved)
        table = PrimeTable(_primes[: bisect.bisect_right(_primes, bound)], bound)
        if bound <= _SMALL_BOUND:
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
    # the dataclass hash, computed once: lift and unlift hash each index
    # several times
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise InvalidInputError("multi-index entries must be >= 0")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "_hash", hash((exps,)))

    def __hash__(self):
        return self._hash

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


# n <-> MultiIndex memo read by lift and unlift.  factorize_to_multiindex
# fills it for n <= _FACTOR_MEMO_MAX_N only, so it never holds more than
# that many n, whatever the degrees lifted.  An index does not depend on
# the table that factored it: every table lists the first primes in order.
_INDEX_OF: dict[int, "MultiIndex"] = {}
_N_OF: dict["MultiIndex", int] = {}
_FACTOR_MEMO_MAX_N = 1 << 16


def factorize_to_multiindex(n: int, table: PrimeTable) -> MultiIndex:
    """Exponent vector of n over the table's primes; exact factorization."""
    if n < 1:
        raise InvalidInputError("can only factorize integers n >= 1")
    n_int = int(n)
    idx = _INDEX_OF.get(n_int)
    if idx is None:
        exps = []
        rest = n_int
        for p in table.primes:
            if rest == 1:
                break
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            exps.append(a)
        if rest == 1:
            idx = MultiIndex(tuple(exps))
            if n_int <= _FACTOR_MEMO_MAX_N:
                _INDEX_OF[n_int] = idx
                _N_OF[idx] = n_int
    if idx is None or len(idx.exponents) > len(table.primes):
        raise NeedsLargerTableError(
            f"n={n} has a prime factor beyond table bound {table.bound}"
        )
    return idx


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
            if len(idx.exponents) > self.variable_count:
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
    nz = np.flatnonzero(p.coefficients)
    terms = {
        factorize_to_multiindex(n, table): c
        for n, c in zip((nz + 1).tolist(), p.coefficients[nz].tolist())
    }
    return LiftedPolynomial(terms, table.count())


def unlift(q: LiftedPolynomial) -> DirichletPolynomial:
    """Inverse dictionary: coefficient of alpha lands at n = p^alpha (n <= 10^6).

    Factorization is unique, so distinct indices land on distinct n.
    """
    ns = []
    table = None
    for ix in q.terms:
        n = _N_OF.get(ix)
        if n is None:
            if table is None:
                need = max(len(t) for t in q.terms)
                # enough primes for the longest index: p_k <= ~k(ln k + ln ln k) for k>=6
                bound = 50 if need < 10 else int(need * (math.log(need) + math.log(math.log(need))) * 1.2) + 10
                table = PrimeTable.up_to(bound)
            n = ix.prime_power(table)
            if n > _MAX_DEGREE:
                raise OutOfRangeError(
                    f"term {ix.exponents} encodes n={n} beyond the supported degree {_MAX_DEGREE}"
                )
        ns.append(n)
    coeffs = np.zeros(max(ns, default=1), dtype=complex)
    coeffs[np.array(ns, dtype=np.intp) - 1] = list(q.terms.values())
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


# One draw of _SAMPLES angle vectors from default_rng(seed), at every k.
# A sample costs k (cos, sin) pairs, since its prime-power monomials are
# products of powers of z_j = e^{i theta_j}, so the draw takes a few MB
# whatever the polynomial.
_SAMPLES = 8192  # random torus points drawn by one estimate
_POLISH_STARTS = 16  # best samples polished to a local maximum
_POLISH_STEPS = 50  # Newton-ascent trials per torus polish
_MAX_VARS = 8  # torus estimates refuse lifts with more variables


def _torus_values(E: np.ndarray, c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """|q| at torus points exp(i theta); thetas is (B x k).

    Each point costs k (cos, sin) pairs: its monomials are products of the
    prime powers z_j^a (_monomials), not T complex exponentials.
    """
    z = np.empty(thetas.shape, dtype=complex)
    np.cos(thetas, out=z.real)
    np.sin(thetas, out=z.imag)
    return np.abs(c @ _monomials(E, z))


def _polish_on_torus(E: np.ndarray, c: np.ndarray, theta0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of |q(e^{i theta})| from each start theta0[s] (S x k), and their angles.

    Damped-Newton (Levenberg) ascent on F = |f|^2: with a_t = c_t
    e^{i E_t.theta} and f = sum_t a_t, grad f = i a E, d^2 f = -E^T
    diag(a) E, grad F = 2 Re(conj(f) grad f) and hess F = 2 Re(conj(f)
    d^2 f + grad f grad f^H).  A step divides grad F by |eigenvalue| + mu
    along each eigenvector of hess F, so it always ascends and leaves
    saddles; it is kept only if |f| rises, and mu shrinks after a kept step
    and grows after a rejected one.  The starts step together, one stacked
    eigh per step, each with its own mu; a start stops when no gain is left
    above rounding, and leaves the batch with its angles and value frozen,
    so each start takes exactly the steps it would take alone.
    """
    Ef = E.astype(float)
    theta_out = np.array(theta0, dtype=float)
    value_out = np.empty(theta_out.shape[0])
    ids = np.arange(theta_out.shape[0])  # the starts still stepping, and their state below
    theta = theta_out.copy()
    a = c * np.exp(1j * (theta @ Ef.T))
    lam = np.full(ids.size, 1e-3)
    for _ in range(_POLISH_STEPS):
        f = a.sum(axis=1)
        fc = np.conj(f)[:, None]
        df = 1j * (a @ Ef)
        grad = 2.0 * np.real(fc * df)
        hess = fc[:, :, None] * -((a[:, None, :] * Ef.T) @ Ef) + df[:, :, None] * np.conj(df)[:, None, :]
        w, V = np.linalg.eigh(2.0 * np.real(hess))
        f2 = np.abs(f) ** 2
        damp = lam * np.maximum(np.maximum(np.abs(w).max(axis=1), f2), 1e-300)
        step = (V @ ((grad[:, None, :] @ V)[:, 0] / (np.abs(w) + damp[:, None]))[:, :, None])[:, :, 0]
        go = ~((grad * step).sum(axis=1) <= 1e-16 * f2)  # else any gain would be lost to rounding
        if not go.all():
            stop = ~go
            theta_out[ids[stop]] = theta[stop]
            value_out[ids[stop]] = np.abs(f[stop])
            ids, theta, a, lam, step, f = ids[go], theta[go], a[go], lam[go], step[go], f[go]
            if not ids.size:
                break
        moved = theta + step
        a_trial = c * np.exp(1j * (moved @ Ef.T))
        up = np.abs(a_trial.sum(axis=1)) > np.abs(f)
        theta[up] = moved[up]
        a[up] = a_trial[up]
        lam = np.where(up, np.maximum(0.1 * lam, 1e-12), 10.0 * lam)
    theta_out[ids] = theta
    value_out[ids] = np.abs(a.sum(axis=1))
    return value_out, theta_out


def _top_indices(vals: np.ndarray, m: int) -> np.ndarray:
    """np.argsort(-vals, kind="stable")[:m], ties included, for 0 < m <= vals.size.

    Only the values at or above the m-th largest are stable-sorted.
    """
    cut = np.partition(vals, vals.size - m)[vals.size - m]
    idx = np.flatnonzero(vals >= cut)
    return idx[np.argsort(-vals[idx], kind="stable")[:m]]


def polydisc_sup_estimate(q: LiftedPolynomial, seed: int = 0) -> float:
    """Lower-bound estimate of sup over the closed unit polydisc.

    Sampling is restricted to the distinguished boundary torus |z_j| = 1
    (the maximum principle puts the sup there): one draw of 8192 angle
    vectors from default_rng(seed), whose 16 best are polished to a local
    maximum by damped-Newton ascent in the angles.  The seed moves the
    estimate at every k; for k <= 3 the polished maxima agree to
    rounding.  Every value returned is |q| at a point of the torus.  A
    lift of more than 8 variables is refused.
    """
    return _polydisc_best(q, seed)[0]


def _polydisc_best(q: LiftedPolynomial, seed: int) -> tuple[float, np.ndarray]:
    """polydisc_sup_estimate's value and the torus angles where |q| takes it.

    The seed and the variable cap are checked before any sampling.
    """
    seed = integral(seed, "seed")
    if seed < 0:
        raise InvalidInputError(f"polydisc seed must be >= 0, got {seed!r}")
    k = q.variable_count
    if not q.terms:
        return 0.0, np.zeros(k)
    E, c = q.exponent_matrix()
    if k == 0 or np.all(E == 0):
        return float(abs(np.sum(c))), np.zeros(k)
    if k > _MAX_VARS:
        raise ResourceLimitError(f"{k} variables exceeds the torus estimate's cap of {_MAX_VARS}")

    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=(_SAMPLES, k))
    vals = _torus_values(E, c, thetas)
    top = _top_indices(vals, _POLISH_STARTS)
    values, polished = _polish_on_torus(E, c, thetas[top])
    j = int(np.argmax(values))  # the first of equal maxima, as a sequential scan keeps it
    if values[j] > vals[top[0]]:
        return float(values[j]), polished[j]
    return float(vals[top[0]]), thetas[top[0]]


# ---------------------------------------------------------------------------
# Kronecker witnesses
# ---------------------------------------------------------------------------

_WITNESS_DIGITS = 80  # decimal precision of log n, 2 pi and t log n
_WITNESS_T_DIGITS = 40  # significant digits of the reported t
_WITNESS_PENALTY = 10**-26  # weight of m_a in the closest-vector problem; |t| grows like its inverse
_WITNESS_SCALE = 2**128  # the lattice is this scaling of its real basis, rounded to integers
_PENALTY_ENTRY = int(_WITNESS_PENALTY * _WITNESS_SCALE)  # the scaled penalty, first entry of the lattice's first row
_LN_MEMO_SIZE = 1024  # log n kept at _WITNESS_DIGITS digits, least recently used dropped first
_LATTICE_MEMO_CAP = 64  # reduced witness lattices kept, one per prime set (about 11 kB at 8 primes), oldest dropped first
_LATTICES: dict[tuple[int, ...], tuple] = {}


def _lll(b: list[list[int]]) -> tuple[tuple, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """LLL reduction (delta = 0.99) of the independent integer rows b, in exact integers.

    Cohen's integral LLL (A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7): Gram-Schmidt is kept as the integers d_i
    (Gram determinant of rows 1..i) and lam[i][j] = d_j mu_ij, extended
    one row at a time and updated in place by each reduction and swap.
    Returns (rows, d, lam), 1-based (index 0 unused), as tuples: _babai
    reads them and the lattice memo keeps them.
    """
    n = len(b)
    b = [None] + [list(row) for row in b]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]
    d[1] = _dot(b[1], b[1])
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = _dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        _size_reduce(b[k], lam[k], b, lam, d, k - 1)
        if 100 * d[k] * d[k - 2] < 99 * d[k - 1] ** 2 - 100 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            B = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k] * lam[i][k - 1] - mu * t) // d[k - 1]
                lam[i][k - 1] = (B * t + mu * lam[i][k]) // d[k]
            d[k - 1] = B
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                _size_reduce(b[k], lam[k], b, lam, d, l)
            k += 1
    return (None, *map(tuple, b[1:])), tuple(d), tuple(map(tuple, lam))


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(x, y))


def _size_reduce(v: list[int], lv: list[int], b: Sequence, lam: Sequence, d: Sequence[int], l: int) -> None:
    """v -= round(mu_vl) b_l in place, with lv = (d_j mu_vj)_j updated to match."""
    if 2 * abs(lv[l]) > d[l]:
        q = (2 * lv[l] + d[l]) // (2 * d[l])
        v[:] = [x - q * y for x, y in zip(v, b[l])]
        lv[l] -= q * d[l]
        for i in range(1, l):
            lv[i] -= q * lam[l][i]


def _babai(lattice: tuple, target: list[int]) -> list[int]:
    """target minus a lattice vector near it (Babai's nearest plane on _lll's reduced lattice).

    The target's Gram-Schmidt coefficients come from the same integer
    recurrence as a new row of _lll; nearest-plane rounding is then size
    reduction of the target against rows n, ..., 1.  The lattice is only
    read.
    """
    b, d, lam = lattice
    n = len(b) - 1
    w = list(target)
    lw = [0] * (n + 1)
    for j in range(1, n + 1):
        u = _dot(w, b[j])
        for i in range(1, j):
            u = (d[i] * u - lw[i] * lam[j][i]) // d[i - 1]
        lw[j] = u
    for l in range(n, 0, -1):
        _size_reduce(w, lw, b, lam, d, l)
    return w


def _context():
    """A fresh decimal context at _WITNESS_DIGITS digits, whatever the caller's context."""
    from decimal import Context  # here, not at the top: lift and unlift never need decimal

    return Context(prec=_WITNESS_DIGITS)


@functools.cache
def _two_pi():
    """2 pi as a Decimal at _WITNESS_DIGITS digits, built on first use.

    By Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239).
    """
    from decimal import Decimal, localcontext

    def atan_inv(x: int) -> Decimal:
        total = power = Decimal(1) / x
        n, sign, last = 1, 1, None
        while total != last:
            last = total
            power /= x * x
            n, sign = n + 2, -sign
            total += sign * power / n
        return total

    with localcontext(_context()):
        return 2 * (16 * atan_inv(5) - 4 * atan_inv(239))


@functools.lru_cache(maxsize=_LN_MEMO_SIZE)
def _ln(n: int):
    """log n as a Decimal at _WITNESS_DIGITS digits (correctly rounded)."""
    from decimal import Decimal

    return Decimal(n).ln(_context())


def _witness_lattice(used: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The ratios r_j = log p_j / log p_a of the used primes (p_a = used[0]) and their reduced witness lattice.

    The basis rows are (penalty, r_j S rounded) and S e_j for each j > a,
    S = _WITNESS_SCALE, all scaled to integers; the lattice is _lll of
    them.  Both depend on the used primes alone, so they are worked out
    once per prime set and kept in _LATTICES, at most _LATTICE_MEMO_CAP
    prime sets, the oldest dropped first; the kept tuples are only read.
    """
    hit = _LATTICES.get(used)
    if hit is None:
        from decimal import localcontext

        S = _WITNESS_SCALE
        with localcontext(_context()):
            ratios = tuple(_ln(p) / _ln(used[0]) for p in used[1:])
            basis = [[_PENALTY_ENTRY] + [int((r * S).to_integral_value()) for r in ratios]]
        basis += [[S if i == j else 0 for i in range(len(used))] for j in range(1, len(used))]
        hit = ratios, _lll(basis)
        if len(_LATTICES) >= _LATTICE_MEMO_CAP:
            del _LATTICES[next(iter(_LATTICES))]
        _LATTICES[used] = hit
    return hit


def _kronecker_witness(coeffs: np.ndarray, primes: Sequence[int], theta: np.ndarray) -> tuple[float, str]:
    """|P(it)| at a real t whose prime phases p_j^{-it} approximate e^{i theta_j}, and t.

    P(it) equals the lift at z_j = e^{i theta_j} when t log p_j + theta_j
    = 2 pi m_j for integers m_j.  Eliminating t through the first prime
    p_a that a nonzero term uses, t = (2 pi m_a - theta_a) / log p_a, and
    every other used prime needs m_a r_j - m_j ~ -(theta_j - theta_a r_j)
    / 2 pi with r_j = log p_j / log p_a.  That is a closest-vector problem
    in the lattice of (penalty * m_a, m_a r_j - m_j), solved by LLL and
    Babai's nearest plane on the basis scaled by _WITNESS_SCALE; the
    penalty keeps |m_a|, and so |t|, bounded.  Kronecker's theorem makes
    the approximation as good as the penalty allows.  Primes that no
    term uses leave P unchanged and are left out; with at most one used
    prime no lattice is needed.  The reduced lattice depends on the used
    primes alone (_witness_lattice); only the target depends on theta.

    t is rounded to _WITNESS_T_DIGITS significant digits and returned as
    that exact decimal string; the value is |P| at that t, from the
    phases t log n mod 2 pi worked out at _WITNESS_DIGITS digits.
    """
    from decimal import Context, Decimal, localcontext

    idx = np.flatnonzero(coeffs)
    ns = [int(i) + 1 for i in idx]
    used = [j for j, p in enumerate(primes) if any(n % p == 0 for n in ns)]
    two_pi = _two_pi()
    with localcontext(_context()):
        t = Decimal(0)
        if used:
            turns = [Decimal(float(theta[j])) / two_pi for j in used]
            m_a = 0
            if len(used) > 1:
                ratios, lattice = _witness_lattice(tuple(primes[j] for j in used))
                S = _WITNESS_SCALE
                target = [0] + [int((-(u - turns[0] * r) * S).to_integral_value()) for u, r in zip(turns[1:], ratios)]
                m_a = -_babai(lattice, target)[0] // _PENALTY_ENTRY
            t = (m_a - turns[0]) * two_pi / _ln(primes[used[0]])
        t = Context(prec=_WITNESS_T_DIGITS).plus(t)
        phases = []
        for n in ns:
            x = t * _ln(n)
            phases.append(float(x - (x / two_pi).to_integral_value() * two_pi))
    return float(abs(np.sum(coeffs[idx] * np.exp(-1j * np.array(phases))))), format(t, "f")


# ---------------------------------------------------------------------------
# norm identity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BohrGapReport:
    """The two sides of the half-plane / polydisc sup identity at Re s = 0.

    halfplane_value: |P(i witness_t)|, at the real point witness_t (an
    exact decimal string); polydisc_value: the torus estimate.  Both are
    lower bounds on the common sup.
    """

    halfplane_value: float
    polydisc_value: float
    relative_gap: float
    tolerance: float
    witness_t: str

    @property
    def within_tolerance(self) -> bool:
        return self.relative_gap <= self.tolerance


def bohr_gap_report(
    p: DirichletPolynomial,
    tolerance: float = 0.02,
    seed: int = 0,
) -> BohrGapReport:
    """Numerical check of the half-plane / polydisc sup identity.

    The polydisc side is the torus estimate; the half-plane side is |P|
    at the Kronecker witness of the best torus point, an explicit real
    point of the line Re s = 0.  Both are lower bounds, so the gap
    measures how well the witness reproduces the torus point, not the
    identity itself; tolerance is a knob (default 2%).  The tolerance,
    the seed of the torus draw and the variable cap are checked before
    any sampling.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidInputError(f"gap tolerance must be finite and >= 0, got {tolerance!r}")
    q = lift(p)
    pd, theta = _polydisc_best(q, seed)
    hp, t = _kronecker_witness(p.coefficients, PrimeTable.up_to(max(p.degree, 1)).primes, theta)
    scale = max(hp, pd, 1e-300)
    return BohrGapReport(hp, pd, abs(hp - pd) / scale, tolerance, t)
