import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirapprox import series
from dirapprox.errors import IllConditionedError, InvalidInputError
from dirapprox.series import (
    AbscissaReport,
    CoefficientRule,
    DirichletPolynomial,
    SupNormPlan,
    _exp_basis,
    _grid_sums,
    _log_range,
    estimate_abscissas,
    evaluate,
    evaluate_many,
    seminorm_sigma,
    shift_by_delta,
    sup_norm_report,
)

# frozen with mpmath (dps=40): sum_{n<=100} n^-2
PARTIAL_BASEL_100 = 1.634983900184892865077169


def poly(*coeffs):
    return DirichletPolynomial(np.array(coeffs, dtype=complex))


finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=24)


# --- evaluate -------------------------------------------------------------


def test_constant_polynomial_is_constant():
    p = poly(3.5 - 1j)
    for s in (0.0, 2.0 + 5j, -7.0 + 0.3j):
        assert evaluate(p, s) == 3.5 - 1j


def test_single_term_two_to_minus_s():
    assert evaluate(poly(0, 1), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_partial_basel_sum_matches_frozen_oracle():
    p = DirichletPolynomial(np.ones(100, dtype=complex))
    assert evaluate(p, 2.0) == pytest.approx(PARTIAL_BASEL_100, abs=1e-9)


def test_nonfinite_point_rejected():
    p = poly(1, 1)
    with pytest.raises(InvalidInputError):
        evaluate(p, complex(float("nan"), 0))
    with pytest.raises(InvalidInputError):
        evaluate(p, complex(1, float("inf")))


def test_evaluate_many_matches_scalar_loop():
    rng = np.random.default_rng(7)
    p = DirichletPolynomial(rng.standard_normal(17) + 1j * rng.standard_normal(17))
    pts = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    got = evaluate_many(p, pts)
    want = np.array([[evaluate(p, z) for z in row] for row in pts])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_evaluate_many_is_bit_identical_to_scalar():
    rng = np.random.default_rng(11)
    for degree in range(1, 201):
        p = DirichletPolynomial(rng.standard_normal(degree) + 1j * rng.standard_normal(degree))
        pts = rng.uniform(-3, 3, 10) + 1j * rng.uniform(-40, 40, 10)
        got = evaluate_many(p, pts)
        want = np.array([evaluate(p, z) for z in pts])
        np.testing.assert_array_equal(got, want, err_msg=f"degree {degree}")


@pytest.mark.parametrize(
    "x",
    [0.7, -1.25, 0.3 - 2.0j, np.array([0.5, -0.25, 2.0]), np.array([[0.5 + 1j, -2j], [3.0, 1e-3j]])],
)
def test_exp_basis_contract(x):
    xa = np.asarray(x)
    out = _exp_basis(x, 2, 40)
    assert out.shape == xa.shape + (39,)
    assert out.dtype == (np.complex128 if np.iscomplexobj(xa) else np.float64)
    ns = np.arange(2, 41, dtype=float)
    want = ns ** -xa[..., None]
    # the roundings of log n and of x log n are scaled by |x log n|: the
    # relative error is about (|x| log n + 2) * 2^-52, 1e-15 until |x| log n ~ 2.5
    tol = np.maximum(1e-15, (np.abs(xa)[..., None] * np.log(ns) + 2) * 2.0**-52)
    assert np.all(np.abs(out - want) <= tol * np.abs(want))


def test_log_range_has_the_bits_of_direct_logs(monkeypatch):
    # slices of the shared table while it grows, direct logs above its cap
    monkeypatch.setattr(series, "_log_table", np.zeros(0))
    monkeypatch.setattr(series, "_LOG_TABLE_CAP", 1000)
    for lo, hi in ((1, 1), (3, 10), (1, 64), (50, 200), (7, 129), (1, 1000), (900, 1000), (999, 1500), (1, 3000), (5, 4)):
        got = _log_range(lo, hi)
        assert got.tobytes() == np.log(np.arange(lo, hi + 1, dtype=float)).tobytes(), (lo, hi)
        assert not got.flags.writeable
        assert series._log_table.size <= 1000
    assert series._log_table.size == 1000


def test_log_range_at_the_default_cap():
    cap = series._LOG_TABLE_CAP
    for lo, hi in ((cap - 5, cap), (cap - 5, cap + 5), (1, cap)):
        got = _log_range(lo, hi)
        assert got.tobytes() == np.log(np.arange(lo, hi + 1, dtype=float)).tobytes(), (lo, hi)
        assert not got.flags.writeable


@given(coeff_lists, coeff_lists, finite_complex, finite_complex, finite_complex)
def test_linearity(ca, cb, alpha, beta, s):
    n = max(len(ca), len(cb))
    a = np.zeros(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    a[: len(ca)] = ca
    b[: len(cb)] = cb
    assume(abs(s) < 6)  # keep n^{-s} in a sane dynamic range
    combo = DirichletPolynomial(alpha * a + beta * b)
    lhs = evaluate(combo, s)
    rhs = alpha * evaluate(DirichletPolynomial(a), s) + beta * evaluate(
        DirichletPolynomial(b), s
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


# --- shift ----------------------------------------------------------------


def test_shift_two_to_minus_s_by_one():
    q = shift_by_delta(poly(0, 1), 1.0)
    np.testing.assert_allclose(q.coefficients, [0, 0.5])


def test_shift_zero_is_identity():
    p = poly(1, -2j, 0, 4)
    assert shift_by_delta(p, 0.0) == p


def test_shift_a3_by_two():
    q = shift_by_delta(poly(0, 0, 9), 2.0)
    np.testing.assert_allclose(q.coefficients, [0, 0, 1])


@given(coeff_lists, st.floats(-2, 2), finite_complex)
def test_shift_identity(coeffs, delta, s):
    assume(abs(s) < 5)
    p = DirichletPolynomial(np.array(coeffs, dtype=complex))
    lhs = evaluate(shift_by_delta(p, delta), s)
    rhs = evaluate(p, s + delta)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# --- seminorm ---------------------------------------------------------------


def test_seminorm_spec_example():
    assert seminorm_sigma(poly(0, 1, 0, 0, 3), 1.0) == pytest.approx(1.1, abs=1e-15)


def test_seminorm_of_constant_is_modulus():
    assert seminorm_sigma(poly(-3 + 4j), 17.3) == pytest.approx(5.0)


def test_seminorm_matches_frozen_oracle():
    rng = np.random.default_rng(20260814)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    # frozen with mpmath (dps=40) from the same seed
    assert seminorm_sigma(DirichletPolynomial(c), 0.7) == pytest.approx(
        4.850650553572184243036849, abs=1e-12
    )


@given(coeff_lists, st.floats(-3, 3), st.floats(0, 3))
def test_seminorm_monotone_in_sigma(coeffs, sigma, bump):
    p = DirichletPolynomial(np.array(coeffs, dtype=complex))
    assert seminorm_sigma(p, sigma + bump) <= seminorm_sigma(p, sigma) + 1e-12


@given(
    coeff_lists,
    st.floats(-1, 2),
    st.floats(0, 4),
    st.floats(-50, 50),
)
def test_seminorm_dominates_on_halfplane(coeffs, sigma, depth, t):
    # |P(s)| <= sum |a_n| n^{-Re s} <= seminorm at sigma whenever Re s >= sigma
    p = DirichletPolynomial(np.array(coeffs, dtype=complex))
    s = complex(sigma + depth, t)
    assert abs(evaluate(p, s)) <= seminorm_sigma(p, sigma) + 1e-12


# --- sup norm ---------------------------------------------------------------

@pytest.mark.parametrize("width", [1, 12])  # width 1: a one-index extend, as when the n0 bisection closes
@pytest.mark.parametrize("x0, dx", [(-0.5, 1e-4), (0.25 - 1j, 1e-5 + 5e-5j)])
def test_grid_sums_matches_direct_basis_rows(x0, dx, width):
    rng = np.random.default_rng(width)
    c = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    for m in (1, 255, 256, 257, 131_072):
        x = x0 + np.arange(m) * dx
        for lo in (1, 7, 9001):
            rows = _exp_basis(x, lo, lo + width - 1)
            got = _grid_sums(c, x0, dx, m, lo)
            assert got.shape == (m,)
            # each factored term rounds like a direct one, up to a few |x log n| ulps
            err = np.abs(got - rows @ c) / (np.abs(rows) @ np.abs(c))
            assert err.max() <= 1e-13, (m, lo)


def test_grid_sums_overflow_only_where_the_sum_does():
    # sum_{n<=1000} n^{-x} on x = -120 .. 0: a factor of a product may not
    # overflow before the product, so the sum is finite wherever the
    # log-sum-exp reference is, up to a few |x log n| ulps
    dx = 120 / 2000
    x = -120.0 + np.arange(2001) * dx
    with np.errstate(over="ignore"):
        got = _grid_sums(np.ones(1000), -120.0, dx, x.size)
    t = -x[:, None] * np.log(np.arange(1, 1001.0))
    top = t.max(axis=1)
    ref = top + np.log(np.exp(t - top[:, None]).sum(axis=1))
    edge = math.log(np.finfo(float).max)
    finite, infinite = ref < edge - 1e-9, ref > edge + 1e-9
    assert 1500 < finite.sum() and 200 < infinite.sum()
    assert np.isfinite(got[finite]).all() and np.isinf(got[infinite]).all()
    assert np.abs(np.log(got[finite]) - ref[finite]).max() <= 1e-12


FAST_PLAN = SupNormPlan(edge_points=20_000)


def test_sup_norm_constant():
    assert sup_norm_report(poly(2 - 2j), 0.0, FAST_PLAN).value == pytest.approx(
        abs(2 - 2j), abs=1e-9
    )


def test_sup_norm_single_frequency():
    v = sup_norm_report(poly(0, 1), 0.0, FAST_PLAN).value
    assert 1 - 1e-3 < v <= 1 + 1e-12


def test_sup_norm_two_terms():
    v = sup_norm_report(poly(1, 1), 0.0, FAST_PLAN).value
    assert 2 - 1e-2 < v <= 2 + 1e-12


def test_sup_norm_is_lower_bound_of_seminorm_bound():
    rng = np.random.default_rng(3)
    p = DirichletPolynomial(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    rep = sup_norm_report(p, 0.5, FAST_PLAN)
    assert rep.value <= seminorm_sigma(p, 0.5) + 1e-12
    assert rep.upper_bound >= rep.value
    assert rep.upper_bound == seminorm_sigma(p, 0.5)


@pytest.mark.parametrize("sigma0", [-0.5, 0.0, 0.7])
def test_sup_norm_value_never_exceeds_the_upper_bound_on_monomials(sigma0):
    # |c n^{-s}| = |c| n^{-sigma0} at every point of the line: the sweep
    # ties everywhere and must still report a bracket
    for n in range(1, 13):
        c = np.zeros(n, dtype=complex)
        c[-1] = (0.6 - 1.3j) * n
        rep = sup_norm_report(DirichletPolynomial(c), sigma0, FAST_PLAN)
        assert rep.upper_bound * (1 - 1e-12) <= rep.value <= rep.upper_bound, n


def test_sup_norm_empty_plan_rejected():
    for bad in (
        {"edge_points": 0},
        {"edge_points": -5},
        {"edge_points": 2.5},
        {"edge_points": True},
        {"height": 0.0},
        {"height": -1.0},
        {"height": math.inf},
        {"height": math.nan},
    ):
        with pytest.raises(InvalidInputError):
            SupNormPlan(**bad)


@pytest.mark.parametrize("seed", range(4))
def test_sup_norm_value_dominates_a_2d_grid(seed):
    # the half-plane sup is the sup on the line Re s = sigma0
    # (Phragmen-Lindelof), so a brute-force grid over the box
    # [sigma0, sigma0 + 2] x [0, height] must not beat the line sweep
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    p = DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sigma0 = (-0.25, 0.0, 0.5, 1.0)[seed]
    value = sup_norm_report(p, sigma0, FAST_PLAN).value
    sigmas = np.linspace(sigma0, sigma0 + 2.0, 41)
    ts = np.linspace(0.0, FAST_PLAN.height, 4001)
    grid = np.abs(evaluate_many(p, sigmas[:, None] + 1j * ts[None, :]))
    assert value >= grid.max() * (1 - 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_sup_norm_upper_bound_holds_off_the_swept_window(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 25))
    p = DirichletPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sigma0 = (-0.25, 0.0, 0.5, 1.0)[seed]
    rep = sup_norm_report(p, sigma0, FAST_PLAN)
    assert rep.upper_bound == seminorm_sigma(p, sigma0)
    depth = rng.exponential(1.0, 500)
    t = rng.uniform(FAST_PLAN.height, 1e6, 500) * rng.choice([-1.0, 1.0], 500)
    moduli = np.abs(evaluate_many(p, sigma0 + depth + 1j * t))
    assert np.all(moduli <= rep.upper_bound * (1 + 1e-12))


def test_sup_norm_finds_the_higher_of_two_close_peaks():
    # the line's two top peaks, at t ~ 27.83 and t ~ 52.51, differ by
    # 1.4e-4 relative, which a single-precision sweep swaps; both
    # must reach the full-precision polish
    rng = np.random.default_rng(20261018)
    for _ in range(49):
        n = int(rng.integers(1, 41))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert n == 30
    value = sup_norm_report(DirichletPolynomial(c), -0.25).value
    # the line max, 28.582348017330848, from float64 samples at 400k points, polished
    assert value >= 28.582348017 * (1 - 1e-9)


@pytest.mark.parametrize("sigma0", [0.0, 0.25])
def test_sup_norm_value_reaches_the_kronecker_witness(sigma0):
    # test_01's draw: at N = 18 (k = 7) the edge sweep alone read up to a
    # third below |P| at the Kronecker witness (11.49 against 17.29 at
    # sigma0 = 0); the value is the larger of the two, still a value of |P|
    from dirapprox.bohr import bohr_gap_report

    rng = np.random.default_rng(424242)
    draws = []
    for _ in range(50):
        n = int(rng.integers(1, 21))
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        if n == 18:
            draws.append(DirichletPolynomial(c))
    assert len(draws) == 2
    plan = SupNormPlan()
    for p in draws:
        rep = sup_norm_report(p, sigma0)
        sweep = series._edge_sweep_max(p, sigma0, plan.height, plan.edge_points)
        witness = bohr_gap_report(shift_by_delta(p, sigma0)).halfplane_value
        assert sweep <= rep.value <= rep.upper_bound
        assert rep.value >= witness > 1.1 * sweep


def test_sup_norm_refuses_an_upper_bound_that_overflows(monkeypatch):
    # 22^300 overflows: sum |a_n| n^{-sigma0} is not a double, and |P| on
    # the line reaches it, so no bracket can be reported; the sampling
    # would read 0.0 there
    from dirapprox import bohr

    def ran(*args, **kw):
        raise AssertionError("the line or the torus was sampled")

    monkeypatch.setattr(series, "_edge_sweep_max", ran)
    monkeypatch.setattr(bohr, "bohr_gap_report", ran)
    p = DirichletPolynomial(np.arange(1.0, 23.0) + 0.5j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="sigma0 = -300.0"):
            sup_norm_report(p, -300.0, FAST_PLAN)


def _sparse_overflow_case(a22=1e-300):
    """a_1 = 1 and a_22 = a22 with zeros between: n^300 overflows from n = 11 on."""
    a = np.zeros(22, dtype=complex)
    a[0], a[21] = 1.0, a22
    return DirichletPolynomial(a)


def test_tiny_coefficients_tame_factors_that_overflow():
    # 0 * inf at n = 11..21 made the seminorm nan and the shift invalid;
    # the true values are finite: 1 + 1e-300 * 22^300 = 5.33e102
    p = _sparse_overflow_case()
    with mpmath.workdps(40):
        want = float(1 + mpmath.mpf(1e-300) * mpmath.mpf(22) ** 300)
    tol = 4 * np.finfo(float).eps * (1.0 + 300.0 * math.log(22.0))  # the exponent's rounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = seminorm_sigma(p, -300.0)
        shifted = shift_by_delta(p, -300.0).coefficients
        rep = sup_norm_report(p, -300.0)
    assert norm == pytest.approx(want, rel=tol, abs=0)
    assert shifted[0] == 1.0 and not shifted[1:21].any()
    assert shifted[21] == pytest.approx(want - 1.0, rel=tol, abs=0)
    # |1 + c 22^{-it}| reaches 1 + c where 22^{-it} = 1
    assert rep.upper_bound == norm and rep.value == pytest.approx(want, rel=tol, abs=0)
    phase = 0.6 + 0.8j
    turned = shift_by_delta(_sparse_overflow_case(1e-300 * phase), -300.0).coefficients[21]
    assert turned == pytest.approx((want - 1.0) * phase, rel=tol, abs=0)


def test_edge_sweep_where_zero_coefficients_meet_overflowing_factors():
    # past the 8-variable witness (N = 30 has 10 primes) the edge sweep
    # decides the value; sweeping the raw a_n at real part -210 made
    # 0 * inf = nan at the zeros, and the value read 0.0
    a = np.zeros(30, dtype=complex)
    a[0], a[29] = 1.0, 1e-300
    with mpmath.workdps(40):
        want = float(1 + mpmath.mpf(1e-300) * mpmath.mpf(30) ** 210)
    tol = 4 * np.finfo(float).eps * (1.0 + 210.0 * math.log(30.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = sup_norm_report(DirichletPolynomial(a), -210.0, FAST_PLAN)
    assert rep.upper_bound == pytest.approx(want, rel=tol, abs=0)
    assert rep.value == pytest.approx(want, rel=tol, abs=0)


def test_weighted_terms_keep_their_bits_where_every_factor_is_finite():
    # the overflow path takes the plain product wherever n^{-sigma} is
    # finite, so the scalar test that picks it moves no bits
    rng = np.random.default_rng(7)
    c = rng.standard_normal(40) * 1e-250 + 1j * rng.standard_normal(40) * 1e-250
    for sigma in (-150.0, -190.0, -193.0):  # past -700 / log 40 = -189.8; 40^193 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            factor = _exp_basis(sigma, 1, 40)
            product = c * factor
        finite = np.isfinite(factor)
        weighted = series._weighted(c, sigma)
        assert weighted[finite].tobytes() == product[finite].tobytes()
        assert np.isfinite(weighted).all() and finite.sum() == (40 if sigma > -193.0 else 39)


def test_sup_norm_witness_is_never_below_the_sweep():
    # the value is the Kronecker witness alone up to 8 variables (N <= 22);
    # the edge sweep it replaces stays the reference, on dense, sparse,
    # positive-real and random-phase draws
    rng = np.random.default_rng(20261020)
    plan, eps = SupNormPlan(), 4 * np.finfo(float).eps
    for n in range(1, 23):
        dense = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sparse = dense * (rng.uniform(size=n) < 0.4)
        sparse[-1] = 1.0
        for c in (dense, sparse, rng.uniform(0.1, 1.0, n), np.exp(2j * np.pi * rng.uniform(size=n))):
            p = DirichletPolynomial(c)
            sigma0 = (-0.25, 0.0, 0.25, 0.5, 1.0)[n % 5]
            rep = sup_norm_report(p, sigma0)
            sweep = series._edge_sweep_max(p, sigma0, plan.height, plan.edge_points)
            assert sweep <= rep.value * (1 + eps) and rep.value <= rep.upper_bound


def test_nonconstant_polynomial_blows_up_on_negative_axis():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c /= np.max(np.abs(c))
        idx = rng.integers(1, 8)
        if c[idx] == 0:
            c[idx] = 1.0
        p = DirichletPolynomial(c)
        assert abs(evaluate(p, -40.0)) > 1e6 * (1 + abs(c[0]))


# --- abscissas --------------------------------------------------------------


def test_all_ones_abscissas():
    rep = estimate_abscissas(CoefficientRule("all-ones"), 10_000)
    assert rep.sigma_c_estimate == pytest.approx(1.0, abs=0.1)
    assert rep.sigma_a_estimate == pytest.approx(1.0, abs=0.1)
    assert rep.ordering_holds()


def test_alternating_abscissas():
    rep = estimate_abscissas(CoefficientRule("alternating"), 10_000)
    assert rep.sigma_c_estimate == pytest.approx(0.0, abs=0.1)
    assert rep.sigma_a_estimate == pytest.approx(1.0, abs=0.1)
    assert rep.ordering_holds()


def test_finitely_supported_rule_gives_sentinels():
    rule = CoefficientRule("explicit-list", data=np.array([1, 0, 2j]))
    rep = estimate_abscissas(rule, 500)
    assert rep.sigma_c_estimate == rep.sigma_a_estimate == -math.inf
    assert rep.sigma_u_bracket == (-math.inf, -math.inf)
    assert rep.ordering_holds()
    assert rep.to_json_dict()["sigma_u_bracket"] == ["neg_inf", "neg_inf"]
    zeros = CoefficientRule("named-custom", fn=lambda n: 0.0, name="zero")
    assert estimate_abscissas(zeros, 500) == rep


def test_ordering_with_infinite_estimates():
    inf = math.inf
    assert AbscissaReport(inf, inf, (inf, inf), 100).ordering_holds()
    assert AbscissaReport(0.0, 0.5, (0.0, 0.5), 100).ordering_holds()
    assert not AbscissaReport(-inf, 0.5, (-inf, 0.5), 100).ordering_holds()  # a > c + 1
    assert not AbscissaReport(0.5, -inf, (0.5, -inf), 100).ordering_holds()  # a < c
    assert not AbscissaReport(-inf, inf, (-inf, inf), 100).ordering_holds()
    assert AbscissaReport(inf, inf, (inf, inf), 100).to_json_dict()["sigma_c_estimate"] == "pos_inf"


def test_named_custom_rule():
    rule = CoefficientRule("named-custom", fn=lambda n: 1.0 / n, name="harmonic")
    rep = estimate_abscissas(rule, 4096)
    # sum n^{-1-s} has sigma_c = 0, but H_M ~ ln M biases the slope fit
    # by ~1/ln M, so only a loose window is meaningful at this truncation
    assert rep.sigma_c_estimate == pytest.approx(0.0, abs=0.25)
    assert rep.ordering_holds()


@pytest.mark.parametrize(
    "fn", [lambda k: 1.0 / (k * k), lambda k: (-1) ** k * k**3, lambda k: complex(k, -0.5 / k), lambda k: type(k) is int]
)
def test_named_custom_coefficients_convert_like_complex(fn):
    # float, int and complex values; the callable receives Python ints
    got = CoefficientRule("named-custom", fn=fn).coefficients(500)
    want = np.array([complex(fn(k)) for k in range(1, 501)], dtype=complex)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


def test_truncation_floor_enforced():
    with pytest.raises(InvalidInputError):
        estimate_abscissas(CoefficientRule("all-ones"), 99)
    for bad in (150.5, True):
        with pytest.raises(InvalidInputError, match="integer"):
            estimate_abscissas(CoefficientRule("all-ones"), bad)
    assert estimate_abscissas(CoefficientRule("all-ones"), 150.0).truncation_used == 150


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_report_ordering_on_random_rules(seed):
    rng = np.random.default_rng(seed)
    kind = rng.choice(["all-ones", "alternating", "named-custom"])
    if kind == "named-custom":
        alpha = float(rng.uniform(-1.5, 1.5))
        rule = CoefficientRule("named-custom", fn=lambda n: n**alpha, name="power")
    else:
        rule = CoefficientRule(kind)
    rep = estimate_abscissas(rule, 2048)
    assert isinstance(rep, AbscissaReport)
    assert rep.ordering_holds()


def test_json_round_trip_of_report():
    rep = estimate_abscissas(CoefficientRule("all-ones"), 1024)
    d = rep.to_json_dict()
    assert set(d) == {
        "sigma_c_estimate",
        "sigma_a_estimate",
        "sigma_u_bracket",
        "truncation_used",
    }


# --- polynomial container ----------------------------------------------------


def test_trailing_zeros_do_not_affect_equality():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(1, 2, 0, 0) != poly(1, 2, 3)


def test_coefficients_are_read_only():
    p = poly(1, 2)
    with pytest.raises(ValueError):
        p.coefficients[0] = 5


def test_pairs_round_trip():
    p = poly(1 + 2j, -0.5)
    assert DirichletPolynomial.from_pairs(p.to_pairs()) == p
