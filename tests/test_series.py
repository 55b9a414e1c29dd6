import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirapprox import series
from dirapprox.errors import InvalidInputError
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
