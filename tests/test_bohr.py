import bisect
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirapprox import bohr
from dirapprox.bohr import (
    LiftedPolynomial,
    MultiIndex,
    PrimeTable,
    _torus_values,
    bohr_gap_report,
    evaluate_lifted,
    factorize_to_multiindex,
    lift,
    polydisc_sup_estimate,
    unlift,
)
from dirapprox.errors import (
    InvalidInputError,
    NeedsLargerTableError,
    OutOfRangeError,
    ResourceLimitError,
)
from dirapprox.series import DirichletPolynomial, evaluate


def poly(*coeffs):
    return DirichletPolynomial(np.array(coeffs, dtype=complex))


# --- prime table / factorization -------------------------------------------


def test_prime_table_contents():
    t = PrimeTable.up_to(20)
    assert t.primes == (2, 3, 5, 7, 11, 13, 17, 19)
    assert PrimeTable.up_to(1).primes == ()


@pytest.fixture
def fresh_prime_table(monkeypatch):
    monkeypatch.setattr(bohr, "_primes", ())
    monkeypatch.setattr(bohr, "_sieved", 0)
    monkeypatch.setattr(bohr, "_TABLE_CACHE", {})


def test_prime_tables_match_a_fresh_sieve_at_every_bound(fresh_prime_table):
    def sieve(bound):
        flags = [True] * (bound + 1)
        flags[:2] = [False] * min(2, bound + 1)
        for p in range(2, int(bound**0.5) + 1):
            if flags[p]:
                flags[p * p :: p] = [False] * len(flags[p * p :: p])
        return [p for p, f in enumerate(flags) if f]

    primes = sieve(5000)
    # ascending bounds grow the shared table step by step; then every
    # bound is served again from the grown table
    for _ in range(2):
        for bound in range(1, 5001):
            table = PrimeTable.up_to(bound)
            assert table.bound == bound
            assert table.primes == tuple(primes[: bisect.bisect_right(primes, bound)])
    assert bohr._sieved < 2 * 5000


def test_lifts_of_many_degrees_share_one_prime_table(fresh_prime_table, empty_factor_memo):
    # a table per bound held 2,262 primes for each of these 100 degrees
    # (9.6 MB); slices of one table share the prime objects
    polys = []
    for n in range(20_000, 20_100):
        c = np.zeros(n, dtype=complex)
        c[:2] = 1.0, 2.0
        polys.append(DirichletPolynomial(c))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in polys:
            assert lift(p).variable_count >= 2262
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_factorize_basics():
    t = PrimeTable.up_to(20)
    assert factorize_to_multiindex(1, t).exponents == ()
    assert factorize_to_multiindex(12, t).exponents == (2, 1)
    assert factorize_to_multiindex(6, t).exponents == (1, 1)


def test_factorize_reconstructs_n():
    t = PrimeTable.up_to(200)
    for n in range(1, 200):
        assert factorize_to_multiindex(n, t).prime_power(t) == n


def test_factorize_needs_larger_table():
    t = PrimeTable.up_to(20)
    with pytest.raises(NeedsLargerTableError):
        factorize_to_multiindex(23, t)
    with pytest.raises(NeedsLargerTableError):
        factorize_to_multiindex(2 * 23, t)


@pytest.fixture
def empty_factor_memo(monkeypatch):
    monkeypatch.setattr(bohr, "_INDEX_OF", {})
    monkeypatch.setattr(bohr, "_N_OF", {})


def test_factor_memo_matches_trial_division(empty_factor_memo):
    # the memo lift and unlift read holds each n's plain trial-division
    # index, whichever table filled it, and maps the index back to n
    tables = PrimeTable.up_to(5000), PrimeTable.up_to(7919)
    for n in range(1, 5001):
        exps, rest = [], n
        for p in tables[0].primes:
            if rest == 1:
                break
            a = 0
            while rest % p == 0:
                rest, a = rest // p, a + 1
            exps.append(a)
        want = MultiIndex(tuple(exps))
        assert factorize_to_multiindex(n, tables[n % 2]) == want
        assert bohr._INDEX_OF[n] == want and bohr._N_OF[want] == n
        assert factorize_to_multiindex(n, tables[1 - n % 2]) is bohr._INDEX_OF[n]


def test_factor_memo_hit_still_needs_a_large_enough_table(empty_factor_memo):
    assert factorize_to_multiindex(46, PrimeTable.up_to(23)).exponents == (1, 0, 0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(NeedsLargerTableError):
        factorize_to_multiindex(46, PrimeTable.up_to(20))


def test_sparse_lift_of_degree_a_million_stays_within_the_memo_cap():
    c = np.zeros(1_000_000, dtype=complex)
    c[[0, 999_982, 999_999]] = 1.0, 2j, -3.0  # n = 1, the prime 999,983 and 10^6
    p = DirichletPolynomial(c)
    q = lift(p)
    assert len(q.terms) == 3 and unlift(q) == p
    cap = bohr._FACTOR_MEMO_MAX_N
    assert len(bohr._INDEX_OF) <= cap and len(bohr._N_OF) <= cap
    assert max(bohr._INDEX_OF) <= cap and max(bohr._N_OF.values()) <= cap


def test_round_trip_keeps_every_coefficient_bit():
    p = poly(1 - 0j, 0, complex(-0.0, 2), -0.5, 0, complex(3, -0.0))
    assert unlift(lift(p)).coefficients.tobytes() == p.coefficients.tobytes()


def test_multiindex_hash_equality_and_repr_are_the_dataclass_ones():
    ix = MultiIndex((2, 0, 1, 0))
    assert hash(ix) == hash(((2, 0, 1),))
    assert repr(ix) == "MultiIndex(exponents=(2, 0, 1))"
    assert ix == MultiIndex((2, 0, 1)) and ix != MultiIndex((2,))
    assert {ix: 1}[MultiIndex([2, 0, 1])] == 1


def test_multiindex_trims_and_validates():
    assert MultiIndex((1, 0, 0)).exponents == (1,)
    with pytest.raises(InvalidInputError):
        MultiIndex((-1,))


# --- lift / unlift -----------------------------------------------------------


def test_lift_constant():
    q = lift(poly(3 - 1j))
    assert q.terms == {MultiIndex(()): 3 - 1j}
    assert q.variable_count == 0


def test_lift_all_ones_degree_six():
    q = lift(DirichletPolynomial(np.ones(6, dtype=complex)))
    want = {
        MultiIndex(()): 1,
        MultiIndex((1,)): 1,
        MultiIndex((0, 1)): 1,
        MultiIndex((2,)): 1,
        MultiIndex((0, 0, 1)): 1,
        MultiIndex((1, 1)): 1,
    }
    assert q.terms == want
    assert q.variable_count == 3


def test_unlift_basics():
    assert unlift(LiftedPolynomial({MultiIndex(()): 2j}, 0)) == poly(2j)
    q = LiftedPolynomial({MultiIndex((1, 1)): 5}, 2)
    assert unlift(q) == poly(0, 0, 0, 0, 0, 5)


def test_unlift_overflow_guard():
    q = LiftedPolynomial({MultiIndex((64,)): 1}, 1)  # 2^64
    with pytest.raises(OutOfRangeError):
        unlift(q)


def test_round_trip_hundred_random():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[rng.random(n) < 0.3] = 0  # keep sparse cases in the mix
        p = DirichletPolynomial(c)
        assert unlift(lift(p)) == p


def test_lift_unlift_identity_on_lifted_side():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q = lift(DirichletPolynomial(c))
        assert lift(unlift(q)) == q


def _lift_reference(p):
    """lift's earlier body: every n through factorize_to_multiindex, every term through __post_init__."""
    table = PrimeTable.up_to(max(p.degree, 1))
    nz = np.flatnonzero(p.coefficients)
    terms = {
        factorize_to_multiindex(n, table): c
        for n, c in zip((nz + 1).tolist(), p.coefficients[nz].tolist())
    }
    return LiftedPolynomial(terms, table.count())


def _same_lift(got, want):
    return (
        got.variable_count == want.variable_count
        and list(got.terms) == list(want.terms)  # same keys in the same order
        and all(type(c) is complex for c in got.terms.values())
        and np.array(list(got.terms.values()), dtype=complex).tobytes()
        == np.array(list(want.terms.values()), dtype=complex).tobytes()
    )


def _lift_cases():
    rng = np.random.default_rng(31)
    cases = [poly(3 - 1j), poly(0), poly(complex(-0.0, 0.0), 0, 1), poly(1 - 0j, 0, complex(-0.0, 2), -0.5, 0, complex(3, -0.0))]
    for _ in range(200):
        n = int(rng.integers(1, 61))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[rng.random(n) < 0.4] = 0
        cases.append(DirichletPolynomial(c))
    sparse = np.zeros(70_001, dtype=complex)  # n beyond the factor memo
    sparse[[0, 65_535, 65_537, 70_000]] = 1.0, -2j, 0.5, 3.0
    cases.append(DirichletPolynomial(sparse))
    return cases


@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_lift_keeps_the_terms_of_its_reference(memo, monkeypatch):
    if memo == "cold":
        monkeypatch.setattr(bohr, "_INDEX_OF", {})
        monkeypatch.setattr(bohr, "_N_OF", {})
    for p in _lift_cases():
        got = lift(p)
        assert _same_lift(got, _lift_reference(p)), p.degree
        assert got == LiftedPolynomial(dict(got.terms), got.variable_count)


def test_lift_never_runs_post_init(monkeypatch):
    def refused(self):
        raise AssertionError("lift re-validated its own terms")

    monkeypatch.setattr(LiftedPolynomial, "__post_init__", refused)
    for p in _lift_cases()[:20]:
        q = lift(p)
        assert q.variable_count == PrimeTable.up_to(p.degree).count()
    with pytest.raises(AssertionError):  # the public constructor still runs it
        LiftedPolynomial({MultiIndex((1,)): 1}, 1)


def test_public_constructor_keeps_every_check():
    q = LiftedPolynomial({(1, 0): 2, MultiIndex((0, 1)): 0, (): 1.5}, 2)
    assert q.terms == {MultiIndex((1,)): 2, MultiIndex(()): 1.5}
    assert all(type(k) is MultiIndex for k in q.terms) and all(type(c) is complex for c in q.terms.values())
    with pytest.raises(InvalidInputError, match="exceeds variable count"):
        LiftedPolynomial({(0, 0, 1): 1}, 2)
    with pytest.raises(InvalidInputError):
        LiftedPolynomial({(-1,): 1}, 1)


def test_multiplicativity_of_lift():
    rng = np.random.default_rng(7)
    for _ in range(20):
        na, nb = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        pa = DirichletPolynomial(rng.standard_normal(na) + 1j * rng.standard_normal(na))
        pb = DirichletPolynomial(rng.standard_normal(nb) + 1j * rng.standard_normal(nb))
        lhs = lift(pa * pb)
        rhs = lift(pa) * lift(pb)
        assert set(lhs.terms) == set(rhs.terms)
        for k in lhs.terms:
            assert lhs.terms[k] == pytest.approx(rhs.terms[k], abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_lift_preserves_values_under_prime_substitution(seed):
    # substituting z_j = p_j^{-s} into the lifted polynomial recovers P(s)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    p = DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    q = lift(p)
    s = complex(rng.uniform(-1, 2), rng.uniform(-5, 5))
    t = PrimeTable.up_to(max(n, 2))
    z = [complex(pp) ** (-s) for pp in t.primes[: q.variable_count]]
    lhs, rhs = evaluate_lifted(q, z), evaluate(p, s)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# 1 + 2 z1 + 3 z2 + 4 z1^2 + 5 z1 z2 - i z1^3 z3
HAND_TERMS = {(): 1, (1,): 2, (0, 1): 3, (2,): 4, (1, 1): 5, (3, 0, 1): -1j}


def test_evaluate_lifted_takes_zero_to_the_power_zero_as_one():
    q = LiftedPolynomial({MultiIndex(e): c for e, c in HAND_TERMS.items()}, 3)
    b = 0.5 + 0.25j
    assert evaluate_lifted(q, [0, b, 7 - 1j]) == 1 + 3 * b
    assert evaluate_lifted(q, [0, 0, 0]) == 1


def test_evaluate_lifted_off_the_torus_matches_the_hand_expansion():
    q = LiftedPolynomial({MultiIndex(e): c for e, c in HAND_TERMS.items()}, 3)
    a, b, d = 1.5 - 0.5j, 0.3 + 2j, -0.2 + 0.7j
    want = 1 + 2 * a + 3 * b + 4 * a * a + 5 * a * b - 1j * a * a * a * d
    assert evaluate_lifted(q, [a, b, d]) == pytest.approx(want, rel=1e-14)


# --- polydisc sup ------------------------------------------------------------


def test_polydisc_sup_constant():
    assert polydisc_sup_estimate(lift(poly(2 - 2j))) == pytest.approx(abs(2 - 2j))


def test_polydisc_sup_one_plus_z1():
    v = polydisc_sup_estimate(lift(poly(1, 1)))
    assert 2 - 1e-3 < v <= 2 + 1e-9


def test_polydisc_sup_matches_dense_grid_for_small_k():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5, 6):  # k = 1, 2, 2, 3, 3
        q = lift(DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        E, c = q.exponent_matrix()
        k = E.shape[1]
        theta = np.linspace(0.0, 2.0 * np.pi, 256 if k <= 2 else 96, endpoint=False)
        rest = np.array(list(itertools.product(theta, repeat=k - 1))).reshape(theta.size ** (k - 1), k - 1)
        dense = max(  # one axis-1 slice of the grid at a time
            _torus_values(E, c, np.column_stack([np.full(len(rest), t1), rest])).max() for t1 in theta
        )
        v = polydisc_sup_estimate(q)
        assert dense * (1 - 1e-12) <= v <= np.abs(c).sum() * (1 + 1e-12)


@pytest.mark.parametrize("n", [17, 32, 64])  # k = 7, 11, 18; exponents up to 6
def test_torus_values_match_the_exponential_sum(n):
    rng = np.random.default_rng(n)
    E, c = lift(DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))).exponent_matrix()
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(500, E.shape[1]))
    want = np.abs(np.exp(1j * thetas @ E.T) @ c)
    np.testing.assert_allclose(_torus_values(E, c, thetas), want, rtol=0, atol=1e-13 * np.abs(c).sum())


@pytest.mark.parametrize("n", [17, 5])  # k = 7, 3
def test_torus_estimate_memory_is_bounded(n):
    rng = np.random.default_rng(n)
    q = lift(DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    tracemalloc.start()
    try:
        polydisc_sup_estimate(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_torus_polish_reaches_the_aligned_maximum():
    # prime-indexed terms have independent phases, so sup |q| = sum |c_t|, and
    # every other critical point is a saddle the ascent must not stop at;
    # a_13 = 0 leaves the sixth variable unused (a zero row of the Hessian)
    rng = np.random.default_rng(5)
    a = np.zeros(13, dtype=complex)
    a[[0, 1, 2, 4, 6, 10]] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    E, c = lift(DirichletPolynomial(a)).exponent_matrix()
    assert E.shape == (6, 6) and not E[:, 5].any()
    for value, theta in zip(*bohr._polish_on_torus(E, c, rng.uniform(0.0, 2.0 * np.pi, size=(8, 6)))):
        assert value == pytest.approx(np.abs(c).sum(), rel=1e-14)
        assert _torus_values(E, c, theta[None, :])[0] == pytest.approx(value, rel=1e-14)
    assert bohr._polish_on_torus(E, 0 * c, np.zeros((1, 6)))[0][0] == 0.0


def polish_one_start(E, c, theta0):
    """The polish one start at a time: (value, angles, steps taken), the batched polish's reference."""
    theta = np.asarray(theta0, dtype=float)
    a = c * np.exp(1j * (E @ theta))
    lam = 1e-3
    for steps in range(bohr._POLISH_STEPS):
        f = a.sum()
        df = 1j * (a @ E)
        grad = 2.0 * np.real(np.conj(f) * df)
        w, V = np.linalg.eigh(2.0 * np.real(np.conj(f) * -((E.T * a) @ E) + np.outer(df, np.conj(df))))
        step = V @ ((V.T @ grad) / (np.abs(w) + lam * max(np.abs(w).max(), abs(f) ** 2, 1e-300)))
        if grad @ step <= 1e-16 * abs(f) ** 2:
            return float(abs(f)), theta, steps
        a_trial = c * np.exp(1j * (E @ (theta + step)))
        if abs(a_trial.sum()) > abs(f):
            theta, a, lam = theta + step, a_trial, max(0.1 * lam, 1e-12)
        else:
            lam *= 10.0
    return float(abs(a.sum())), theta, bohr._POLISH_STEPS


def aligned_case():
    """test_torus_polish_reaches_the_aligned_maximum's polynomial and starts."""
    rng = np.random.default_rng(5)
    a = np.zeros(13, dtype=complex)
    a[[0, 1, 2, 4, 6, 10]] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    E, c = lift(DirichletPolynomial(a)).exponent_matrix()
    return E, c, rng.uniform(0.0, 2.0 * np.pi, size=(8, 6))


def benchmark_cases():
    """The benchmark's six Bohr-gap polynomials on seeds 1 and 2, each with its 16 best torus samples."""
    for seed in (1, 2):
        rng = np.random.default_rng([seed, 3])
        for n in (3, 5, 8, 12, 16, 17):
            E, c = lift(DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))).exponent_matrix()
            thetas = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(8192, E.shape[1]))
            yield E, c, thetas[np.argsort(-_torus_values(E, c, thetas), kind="stable")[:16]]


def test_batched_polish_matches_the_polish_of_each_start_alone():
    steps = []
    for E, c, starts in [aligned_case(), *benchmark_cases()]:
        values, thetas = bohr._polish_on_torus(E, c, starts)
        for value, theta, start in zip(values, thetas, starts):
            want, _, n = polish_one_start(E, c, start)
            steps.append(n)
            assert value == pytest.approx(want, rel=1e-14, abs=0)
            assert _torus_values(E, c, theta[None, :])[0] == pytest.approx(value, rel=1e-14)
    assert min(steps) <= 3 and max(steps) >= 10  # the starts stop at different steps


def test_a_start_that_stops_never_moves_again():
    # the aligned maximum stops at once, beside starts that take several
    # steps: its angles and value leave the batch untouched
    E, c, starts = aligned_case()
    top = np.zeros(6)
    top[:5] = np.angle(c[0]) - np.angle(c[1:])  # every prime term in phase with the constant
    assert polish_one_start(E, c, top)[2] == 0
    values, thetas = bohr._polish_on_torus(E, c, np.vstack([starts[:3], top, starts[3:]]))
    assert thetas[3].tobytes() == top.tobytes()
    assert values[3] == pytest.approx(abs((c * np.exp(1j * (top @ E.T))).sum()), rel=1e-15)
    assert all(polish_one_start(E, c, s)[2] > 0 for s in starts)
    assert not (thetas[[0, 1, 2, 4]] == starts[:4]).all(axis=1).any()


@pytest.mark.parametrize("m", [1, 2, 16, 299, 8191, 8192])
def test_top_selection_is_the_head_of_the_stable_order(m):
    # few distinct values, so most cuts fall inside a run of ties
    rng = np.random.default_rng(m)
    for vals in (rng.integers(0, 7, 8192).astype(float), rng.uniform(size=8192), np.ones(8192)):
        assert np.array_equal(bohr._top_indices(vals, m), np.argsort(-vals, kind="stable")[:m])
    small = rng.integers(0, 3, 40).astype(float)
    for k in range(1, 41):
        assert np.array_equal(bohr._top_indices(small, k), np.argsort(-small, kind="stable")[:k])


@pytest.mark.parametrize("starts", [1, 16, 8192])
def test_polish_starts_are_the_best_samples_in_stable_order(starts, monkeypatch):
    q = lift(DirichletPolynomial(np.arange(1.0, 4.0) + 0.5j))  # k = 2
    E, c = q.exponent_matrix()
    seen = []

    def spy(E, c, theta0):
        seen.append(theta0.copy())
        return polish(E, c, theta0)

    polish = bohr._polish_on_torus
    monkeypatch.setattr(bohr, "_polish_on_torus", spy)
    monkeypatch.setattr(bohr, "_POLISH_STARTS", starts)
    value = polydisc_sup_estimate(q, seed=4)
    thetas = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, size=(8192, 2))
    vals = _torus_values(E, c, thetas)
    (theta0,) = seen
    assert np.array_equal(theta0, thetas[np.argsort(-vals, kind="stable")[:starts]])
    assert value == pytest.approx(np.abs(c).sum(), rel=1e-14)


def test_polydisc_aligned_maximum_at_every_k():
    # all-ones: the maximum N sits at theta = 0, which no sample hits exactly,
    # so the polish has to reach it, for k = 0..8
    for n in range(1, 23):
        q = lift(DirichletPolynomial(np.ones(n, dtype=complex)))
        for seed in (0, 7):
            assert polydisc_sup_estimate(q, seed=seed) == pytest.approx(n, rel=1e-14)


# the seed is the torus plan's one setting; numpy would take None (fresh
# entropy) or a list as a seed, so both are refused here
@pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": "0"}, {"seed": None},
                                 {"seed": [0]}])
def test_polydisc_plan_rejects_bad_fields(bad, monkeypatch):
    forbid_sampling(monkeypatch)
    p = DirichletPolynomial(np.ones(7, dtype=complex))
    with pytest.raises(InvalidInputError, match="seed"):
        polydisc_sup_estimate(lift(p), **bad)
    with pytest.raises(InvalidInputError, match="seed"):
        bohr_gap_report(p, **bad)


def forbid_sampling(monkeypatch):
    """Make the torus sampling and the witness raise if they run."""
    def ran(*args, **kw):
        raise AssertionError("the torus was sampled or a witness was sought")

    for name in ("_torus_values", "_kronecker_witness"):
        monkeypatch.setattr(bohr, name, ran)


@pytest.mark.parametrize(
    "kwargs",
    [{"tolerance": -1.0}, {"tolerance": float("nan")}, {"tolerance": float("inf")}],
)
def test_gap_report_rejects_bad_input_before_the_sweep(kwargs, monkeypatch):
    forbid_sampling(monkeypatch)
    with pytest.raises(InvalidInputError):
        bohr_gap_report(DirichletPolynomial(np.ones(7, dtype=complex)), **kwargs)


def test_gap_report_checks_the_variable_cap_before_any_sampling(monkeypatch):
    forbid_sampling(monkeypatch)
    with pytest.raises(ResourceLimitError, match="9 variables"):
        bohr_gap_report(DirichletPolynomial(np.ones(23, dtype=complex)))  # nine primes <= 23


def test_polydisc_variable_cap(monkeypatch):
    # the cap is a cost cap: past the witness's 8 variables the torus
    # estimate still runs, and one prime past the cap it refuses before
    # any sampling
    assert polydisc_sup_estimate(lift(DirichletPolynomial(np.ones(23, dtype=complex)))) == pytest.approx(
        23.0, rel=1e-14)  # nine primes <= 23
    n = PrimeTable.up_to(1000).primes[bohr._MAX_VARS]  # the first N with one prime too many
    forbid_sampling(monkeypatch)
    with pytest.raises(ResourceLimitError, match=f"{bohr._MAX_VARS + 1} variables"):
        polydisc_sup_estimate(lift(DirichletPolynomial(np.ones(n, dtype=complex))))


def test_norm_identity_small_cases():
    rng = np.random.default_rng(2)
    for _ in range(4):
        n = int(rng.integers(1, 7))
        p = DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rep = bohr_gap_report(p)
        assert rep.relative_gap <= rep.tolerance


# --- Kronecker witnesses -----------------------------------------------------


def gram_schmidt(rows):
    """Exact Gram-Schmidt (mu, squared norms) of integer rows, in Fractions."""
    star, mu = [], []
    for b in rows:
        v = [Fraction(x) for x in b]
        mu.append([])
        for s in star:
            m = sum(x * y for x, y in zip(b, s)) / sum(y * y for y in s)
            mu[-1].append(m)
            v = [x - m * y for x, y in zip(v, s)]
        star.append(v)
    return mu, [sum(x * x for x in s) for s in star]


def test_lll_and_babai_meet_their_exact_conditions():
    # witness-shaped lattices: a penalized row of scaled log ratios over S e_j
    rng = random.Random(8)
    S = 2**64
    for dim in (2, 4, 7):
        basis = [[int(S * 1e-12)] + [rng.randrange(S) for _ in range(dim - 1)]]
        basis += [[S if i == j else 0 for i in range(dim)] for j in range(1, dim)]
        rows = bohr._lll(basis)[0][1:]
        mu, norms = gram_schmidt(rows)
        for i in range(dim):
            assert all(abs(m) <= 0.5 for m in mu[i])  # size-reduced
            if i:
                assert norms[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * norms[i - 1]  # Lovasz
        assert np.prod([float(n) for n in norms]) == pytest.approx(float(S) ** (2 * dim - 2) * int(S * 1e-12) ** 2)
        target = [rng.randrange(-S, S) for _ in range(dim)]
        w = bohr._babai(bohr._lll(basis), target)
        mu_w, _ = gram_schmidt([*rows, w])
        assert all(abs(m) <= 0.5 for m in mu_w[-1])  # nearest plane: w is reduced against every row
        lattice_vector = [x - y for x, y in zip(target, w)]
        # in the basis's own coordinates: the first entry fixes m_1, the rest are multiples of S
        m1, rest = divmod(lattice_vector[0], basis[0][0])
        assert rest == 0
        assert all((v - m1 * b) % S == 0 for v, b in zip(lattice_vector[1:], basis[0][1:]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 11, 13, 17, 19])  # k = 0..8
def test_witness_value_is_recomputed_from_its_decimal_t(n):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(500 + n)
    for zeros in (0.0, 0.4):  # some primes go unused; below, 2 goes unused
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a[rng.random(n) < zeros] = 0
        if zeros and n >= 3:
            a[1::2] = 0
        rep = bohr_gap_report(DirichletPolynomial(a))
        with mpmath.workdps(50):
            t = mpmath.mpf(rep.witness_t)
            value = abs(mpmath.fsum(mpmath.mpc(c) * mpmath.expj(-t * mpmath.log(k + 1)) for k, c in enumerate(a)))
        assert float(value) == pytest.approx(rep.halfplane_value, rel=1e-12, abs=1e-300)
        assert rep.halfplane_value <= rep.polydisc_value * (1 + 1e-12)
        assert rep.relative_gap <= 1e-4


@pytest.fixture
def empty_lattice_memo(monkeypatch):
    monkeypatch.setattr(bohr, "_LATTICES", {})


def witness_basis(used):
    """The witness lattice's basis, built from 80-digit logs as _kronecker_witness describes it."""
    from decimal import Context, Decimal

    ctx, S = Context(prec=80), 2**128
    ratios = [ctx.divide(Decimal(p).ln(ctx), Decimal(used[0]).ln(ctx)) for p in used[1:]]
    basis = [[int(1e-26 * S)] + [int(ctx.to_integral_value(ctx.multiply(r, S))) for r in ratios]]
    return basis + [[S if i == j else 0 for i in range(len(used))] for j in range(1, len(used))]


SPARSE_PRIME_SETS = [(3, 5), (2, 7, 13), (5, 11, 17, 19), (3, 7, 11, 13, 23), (2, 3, 29, 31, 37, 41)]


def test_lattice_memo_is_a_fresh_reduction_of_each_prime_set(empty_lattice_memo):
    primes = PrimeTable.up_to(19).primes
    for used in [primes[:k] for k in range(2, 9)] + SPARSE_PRIME_SETS:
        fresh = bohr._lll(witness_basis(used))
        ratios, lattice = bohr._witness_lattice(used)
        assert lattice == fresh and bohr._LATTICES[used] == (ratios, fresh)
        assert bohr._witness_lattice(used)[1] is lattice  # a hit returns the kept lattice
        assert [float(r) for r in ratios] == pytest.approx([np.log(p) / np.log(used[0]) for p in used[1:]], rel=1e-15)


def test_lattice_memo_stays_at_its_cap(empty_lattice_memo, monkeypatch):
    monkeypatch.setattr(bohr, "_LATTICE_MEMO_CAP", 3)
    theta = np.linspace(0.5, 2.5, 8)
    for used in SPARSE_PRIME_SETS:
        c = np.zeros(max(used), dtype=complex)
        c[0] = 1.0
        c[[p - 1 for p in used]] = 1.0 + 0.5j
        primes = PrimeTable.up_to(c.size).primes
        bohr._kronecker_witness(c, primes, np.resize(theta, len(primes)))
        assert len(bohr._LATTICES) <= 3
    assert list(bohr._LATTICES) == SPARSE_PRIME_SETS[-3:]  # the oldest sets went first


def test_babai_leaves_the_kept_lattice_unchanged(empty_lattice_memo):
    import copy

    used = PrimeTable.up_to(19).primes
    lattice = bohr._witness_lattice(used)[1]
    before = copy.deepcopy(lattice)
    rng = random.Random(3)
    target = [rng.randrange(-(2**128), 2**128) for _ in used]
    w = bohr._babai(lattice, target)
    assert bohr._babai(lattice, target) == w and w != target
    assert bohr._LATTICES[used][1] == before == bohr._lll(witness_basis(used))
