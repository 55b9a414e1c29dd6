"""Chordal metric and chi-uniform convergence checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from dirapprox import chordal
from dirapprox.chordal import (
    ConvergenceReport,
    _scaled_chi,
    chi,
    chi_many,
    chi_uniform_error,
    chordal_convergence_check,
    zeta_chordal_convergence_check,
    zeta_values,
)
from dirapprox.errors import InvalidInputError
from dirapprox.fit import minimax_fit
from dirapprox.geometry import disc, discretize
from dirapprox.series import evaluate_many


# ---------------------------------------------------------------------------
# scalar metric
# ---------------------------------------------------------------------------

_finite = st.builds(
    complex,
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_point = st.one_of(st.just(math.inf), _finite)


class TestChi:
    def test_identical_points_are_at_distance_zero(self):
        for a in (0, 1.5, 3 + 4j, -2j, 1e140, math.inf):
            assert chi(a, a) == 0.0

    def test_origin_to_infinity_is_one(self):
        assert chi(0, math.inf) == 1.0
        assert chi(math.inf, 0) == 1.0

    def test_antipodal_unit_points(self):
        assert abs(chi(1, -1) - 1.0) <= 1e-15
        assert abs(chi(1j, -1j) - 1.0) <= 1e-15

    def test_known_finite_value(self):
        expected = 4.0 / (math.hypot(1, 3) * math.hypot(1, 7))
        assert abs(chi(3, 7) - expected) <= 1e-16

    def test_distance_to_infinity_formula(self):
        for a in (0.5, -2 + 1j, 30):
            assert abs(chi(a, math.inf) - 1.0 / math.hypot(1, abs(a))) <= 1e-16

    def test_infinite_floats_coerce_to_the_tag(self):
        # every infinity, of either sign or component, is the one point at infinity
        for inf in (math.inf, -math.inf, complex(0, math.inf), complex(-math.inf, 2)):
            assert chi(inf, 0) == 1.0
            assert chi(inf, math.inf) == 0.0

    def test_nan_rejected(self):
        for nan in (math.nan, complex(0, math.nan)):
            with pytest.raises(InvalidInputError):
                chi(nan, 0)
            with pytest.raises(InvalidInputError):
                chi(math.inf, nan)

    def test_any_infinite_component_is_the_point_at_infinity(self):
        # an infinite component wins over a nan in the other one
        assert chi(complex(math.inf, math.nan), 0) == 1.0
        assert chi(complex(math.nan, -math.inf), math.inf) == 0.0

    def test_huge_moduli_route_through_inversion(self):
        # both points near the pole: the chordal distance is tiny, not inf
        assert chi(1e300, -1e300) == pytest.approx(2e-300, rel=1e-12)
        assert chi(1e200, 1e200 * (1 + 1e-10)) <= 1e-209
        assert 0.0 <= chi(-1e308, 1e308) <= 1.0

    def test_real_input_matches_its_complex_embedding_exactly(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=200) * 10.0 ** rng.uniform(-3, 300, 200)
        b = np.concatenate([-a[:50], a[50:100] * (1 + 1e-9), rng.normal(size=100)])
        ainf, binf = rng.random(200) < 0.2, rng.random(200) < 0.2
        got = chi_many(a, b, a_infinite=ainf, b_infinite=binf)
        want = chi_many(a.astype(complex), b.astype(complex), a_infinite=ainf, b_infinite=binf)
        assert got.tobytes() == want.tobytes()

    @given(_point, _point)
    @settings(max_examples=300, deadline=None)
    def test_symmetry_exact(self, a, b):
        assert chi(a, b) == chi(b, a)

    @given(_point, _point)
    @settings(max_examples=300, deadline=None)
    def test_bounded_in_unit_interval(self, a, b):
        d = chi(a, b)
        assert 0.0 <= d <= 1.0

    @given(_point, _point, _point)
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert chi(a, c) <= chi(a, b) + chi(b, c) + 1e-14

    @given(_finite, _finite)
    @settings(max_examples=300, deadline=None)
    def test_dominated_by_euclidean_distance(self, a, b):
        assert chi(a, b) <= abs(a - b) * (1 + 1e-12) + 1e-300


# ---------------------------------------------------------------------------
# vectorized metric
# ---------------------------------------------------------------------------


def _gathered_chi(a, b, ainf, binf):
    """chi_many's reference: the finite pairs gathered, measured and
    scattered back, then the tagged ones filled."""
    fin = ~(ainf | binf)
    x, y = a[fin], b[fin]
    mx, my = np.abs(x), np.abs(y)
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.hypot(1.0, mx) * np.hypot(1.0, my)
        d = np.abs(x - y) / den
        big = (mx > 1e150) & (my > 1e150)
        ix, iy = 1.0 / x[big], 1.0 / y[big]
        d[big] = np.abs(ix - iy) / (np.hypot(1.0, np.abs(ix)) * np.hypot(1.0, np.abs(iy)))
        lost = np.isinf(den) & ~big
        d[lost] = _scaled_chi(x[lost], y[lost])
    out = np.zeros(a.shape)
    out[fin] = np.minimum(d, 1.0)
    for tags, other_tags, other in ((ainf, binf, b), (binf, ainf, a)):
        one = tags & ~other_tags
        out[one] = 1.0 / np.hypot(1.0, np.abs(other[one]))
    return out


class TestChiMany:
    def test_matches_scalar_pairwise(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=200) * 10 + 1j * rng.normal(size=200)
        b = rng.normal(size=200) + 1j * rng.normal(size=200) * 5
        ainf = rng.random(200) < 0.15
        binf = rng.random(200) < 0.15
        got = chi_many(a, b, a_infinite=ainf, b_infinite=binf)
        for k in range(200):
            pa = math.inf if ainf[k] else a[k]
            pb = math.inf if binf[k] else b[k]
            assert abs(got[k] - chi(pa, pb)) <= 1e-14

    def test_infinite_values_need_no_mask(self):
        # an inf value is infinity with or without a mask, never a nan distance
        a = np.array([np.inf, -np.inf, np.inf, 3.0, complex(0, -np.inf)])
        b = np.array([0.0, 2.0, -np.inf, np.inf, 1 + 1j])
        got = chi_many(a, b)
        want = [1.0, 1.0 / math.hypot(1, 2), 0.0, 1.0 / math.hypot(1, 3), 1.0 / math.hypot(1, abs(1 + 1j))]
        assert got.tolist() == want
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=100), rng.normal(size=100)
        ainf, binf = rng.random(100) < 0.3, rng.random(100) < 0.3
        masked = chi_many(a, b, a_infinite=ainf, b_infinite=binf)
        assert chi_many(np.where(ainf, np.inf, a), np.where(binf, -np.inf, b)).tobytes() == masked.tobytes()

    def test_huge_pairs_vectorized(self):
        a = np.array([1e300, 1e200, 5.0])
        b = np.array([-1e300, 1e200 * (1 + 1e-10), 5.0])
        got = chi_many(a, b)
        assert got[0] == pytest.approx(2e-300, rel=1e-12)
        assert got[1] <= 1e-209
        assert got[2] == 0.0

    def test_one_overflowing_modulus_gives_the_limit_not_nan(self):
        # |a| overflows to inf while a itself is finite
        a = np.array([1.5e308 + 1.5e308j, 2.0, 1.2e308 + 1.7e308j, -1.7e308 + 0j, 3.0])
        b = np.array([2.0, -1.5e308 + 1.5e308j, 0.5j, 0.0, 4.0])
        got = chi_many(a, b)
        want = [1 / math.sqrt(5), 1 / math.sqrt(5), 1 / math.sqrt(1.25), 1.0, 1 / (math.hypot(1, 3) * math.hypot(1, 4))]
        np.testing.assert_allclose(got, want, rtol=1e-15)
        assert chi(1.5e308 + 1.5e308j, 2) == got[0]
        assert chi_many(a.real, b.real).tobytes() == chi_many(a.real.astype(complex), b.real.astype(complex)).tobytes()

    def test_byte_identical_to_the_plain_quotient_without_overflow(self):
        # entries with both moduli <= 1e150 (and pairs of huge moduli,
        # inverted) keep the plain quotient's bits
        rng = np.random.default_rng(11)
        n = 4000
        scale = np.where(rng.random(n) < 0.1, 10.0 ** rng.uniform(151, 300, n), 10.0 ** rng.uniform(-5, 149, n))
        a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
        b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.where(scale > 1e150, scale, 1.0)
        for x, y in ((a, b), (a.real, b.real)):
            mx, my = np.abs(x), np.abs(y)
            both = (mx > 1e150) & (my > 1e150)
            with np.errstate(over="ignore"):
                want = np.abs(x - y) / (np.hypot(1.0, mx) * np.hypot(1.0, my))
            ix, iy = 1.0 / x[both], 1.0 / y[both]
            want[both] = np.abs(ix - iy) / (np.hypot(1.0, np.abs(ix)) * np.hypot(1.0, np.abs(iy)))
            assert both.sum() > 100
            assert chi_many(x, y).tobytes() == np.minimum(want, 1.0).tobytes()

    def test_overflowing_hypot_product_against_mpmath(self):
        # one modulus overflows or the product of two finite ones does,
        # while the pair is not both above the inversion cutoff
        pairs = [(1e308, 10), (1.7e308, 0.5), (1e200, 1e120), (-1e250, 3e100 + 4e100j),
                 (1.5e308 + 1.5e308j, 2e5), (2e160j, -1e149)]
        with mpmath.workdps(50):
            for x, y in pairs:
                mx, my = mpmath.mpc(x), mpmath.mpc(y)
                want = abs(mx - my) / (mpmath.sqrt(1 + abs(mx) ** 2) * mpmath.sqrt(1 + abs(my) ** 2))
                assert chi(x, y) == pytest.approx(float(want), rel=1e-14, abs=0), (x, y)
        assert chi(1e308, 10) == pytest.approx(0.0995037190209989, rel=1e-15)
        assert chi(1.7e308, 0.5) == pytest.approx(0.894427190999916, rel=1e-15)
        assert chi(1e200, 1e120) == pytest.approx(1e-120, rel=1e-15)
        a = np.array([x.real for x, _ in pairs[:4]])
        b = np.array([complex(y).real for _, y in pairs[:4]])
        assert chi_many(a, b).tobytes() == chi_many(a.astype(complex), b.astype(complex)).tobytes()

    def test_one_pass_matches_gather_and_scatter(self):
        # the finite pairs gathered, measured and scattered back, then the
        # tagged ones filled: the same bits as measuring every entry at once
        reference = _gathered_chi
        rng = np.random.default_rng(12)
        for n in (1, 5, 16, 300):
            for _ in range(20):
                scale = np.exp(rng.uniform(-200.0, 709.0, (2, n)))
                a, b = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * scale
                ainf, binf = rng.random(n) < 0.1, rng.random(n) < 0.1
                a[ainf & (rng.random(n) < 0.5)] = complex(np.nan, 1.0)  # masked, so ignored
                b[rng.random(n) < 0.05] = np.inf  # infinity without a mask
                binf_all = binf | np.isinf(b)
                for x, y in ((a, b), (a.real.copy(), b.real.copy())):
                    got = chi_many(x, y, a_infinite=ainf, b_infinite=binf)
                    assert got.tobytes() == reference(x, y, ainf, binf_all).tobytes()
                got = chi_many(b, a, a_infinite=binf, b_infinite=ainf)
                assert got.tobytes() == reference(b, a, binf_all, ainf).tobytes()

    @pytest.mark.parametrize("layout", ["run", "scattered"])
    def test_mostly_infinite_long_arrays_keep_the_single_pass_bits(self, layout):
        # past _SKIP_TAGGED_MIN entries, tags covering most of the array
        # send only the finite pairs through the quotient
        rng = np.random.default_rng(13)
        n = 4 * chordal._SKIP_TAGGED_MIN
        scale = np.exp(rng.uniform(-200.0, 709.0, (2, n)))
        a, b = (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * scale
        if layout == "run":  # zeta's limit: infinity left of the pole
            binf = np.arange(n) < 0.6 * n
        else:
            binf = rng.random(n) < 0.6
        ainf = rng.random(n) < 0.05
        a[ainf & (rng.random(n) < 0.5)] = complex(np.nan, 1.0)  # masked, so ignored
        b[binf & (rng.random(n) < 0.5)] = np.inf
        assert 2 * np.count_nonzero(ainf | binf) > n
        for x, y in ((a, b), (a.real.copy(), b.real.copy())):
            got = chi_many(x, y, a_infinite=ainf, b_infinite=binf)
            assert got.tobytes() == _gathered_chi(x, y, ainf, binf | np.isinf(y)).tobytes()
            got = chi_many(y, x, a_infinite=binf, b_infinite=ainf)
            assert got.tobytes() == _gathered_chi(y, x, binf | np.isinf(y), ainf).tobytes()
        real = rng.uniform(0.0, 50.0, n)  # no mask: the infinite values tag themselves
        lim = np.where(binf, np.inf, real[::-1])
        assert chi_many(real, lim).tobytes() == _gathered_chi(real, lim, np.zeros(n, bool), binf).tobytes()

    def test_zero_dimensional_input(self):
        got = chi_many(np.float64(1.0), np.float64(3.0))
        assert got.shape == () and got == chi(1, 3)
        assert chi_many(np.array(2.0), np.array(np.inf)) == 1 / math.hypot(1, 2)

    def test_masked_entries_ignore_values(self):
        a = np.array([complex(np.nan, 0), 2.0])
        got = chi_many(a, np.zeros(2), a_infinite=np.array([True, False]))
        assert got[0] == 1.0
        assert got[1] == pytest.approx(2.0 / math.hypot(1, 2), abs=1e-16)

    def test_shape_and_mask_validation(self):
        with pytest.raises(InvalidInputError):
            chi_many(np.zeros(3), np.zeros(4))
        with pytest.raises(InvalidInputError):
            chi_many(np.zeros(3), np.zeros(3), a_infinite=np.zeros(2, bool))
        with pytest.raises(InvalidInputError):
            chi_many(np.array([np.nan]), np.zeros(1))
        with pytest.raises(InvalidInputError):  # nan is rejected opposite infinity too
            chi_many(np.array([np.nan]), np.zeros(1), b_infinite=np.array([True]))


class TestChiUniformError:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            chi_uniform_error([0, 1], [0])

    def test_identical_lists_have_zero_error(self):
        vals = [0, 1 + 2j, math.inf, -5]
        assert chi_uniform_error(vals, vals) == 0.0
        assert chi_uniform_error([], []) == 0.0

    def test_is_the_max_of_pairwise_distances(self):
        f = [0, 3, math.inf]
        g = [1, 3, 2j]
        expected = max(chi(0, 1), chi(3, 3), chi(math.inf, 2j))
        assert chi_uniform_error(f, g) == expected

    def test_never_exceeds_euclidean_sup_error(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=50) + 1j * rng.normal(size=50)
        g = f + rng.normal(size=50, scale=0.3)
        assert chi_uniform_error(f, g) <= float(np.max(np.abs(f - g))) + 1e-15

    def test_bounded_by_minimax_fit_error(self):
        # a sup-norm fit is at least as good in the chordal metric
        dset = discretize(disc(0.5 + 0j, 0.3))
        pts = dset.all_samples()
        result = minimax_fit(dset, lambda s: np.exp(-0.7 * s), 6)
        fitted = evaluate_many(result.polynomial, pts)
        target = np.exp(-0.7 * pts)
        err = chi_uniform_error(fitted.tolist(), target.tolist())
        assert err <= result.minimax_error + 1e-12


# ---------------------------------------------------------------------------
# zeta oracle
# ---------------------------------------------------------------------------


class TestZetaValues:
    def test_against_mpmath(self):
        sig = np.array([1.01, 1.05, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
        got = zeta_values(sig)
        ref = np.array([float(mpmath.zeta(s)) for s in sig])
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize(
        "sig", [1.0 + 10.0 ** np.linspace(-6.0, 0.0, 40), np.linspace(2.0, 60.0, 59)]
    )
    def test_relative_error_is_rounding_level(self, sig):
        got = zeta_values(sig)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.zeta(mpmath.mpf(float(s)))) for s in sig])
        assert np.max(np.abs(got - ref) / ref) <= 1e-15

    def test_against_plain_truncated_sum(self):
        # second route: one million explicit terms plus the integral tail
        def plain(s, m=10**6):
            total = 0.0
            for lo in range(1, m + 1, 250_000):
                ns = np.arange(lo, min(lo + 250_000, m + 1), dtype=float)
                total += float(np.sum(ns**-s))
            return total + m ** (1 - s) / (s - 1)

        for s in (1.05, 1.3, 2.0, 4.0):
            assert abs(zeta_values(np.array([s]))[0] - plain(s)) <= 1e-6

    def test_monotone_decreasing(self):
        sig = np.linspace(1.05, 8.0, 50)
        vals = zeta_values(sig)
        assert np.all(np.diff(vals) < 0)

    def test_shape_preserved_and_empty_ok(self):
        assert zeta_values(np.zeros(0)).shape == (0,)
        out = zeta_values(np.array([[2.0, 3.0], [4.0, 5.0]]))
        assert out.shape == (2, 2)

    def test_domain_validation(self):
        with pytest.raises(InvalidInputError):
            zeta_values(np.array([1.0]))
        with pytest.raises(InvalidInputError):
            zeta_values(np.array([0.5, 2.0]))
        with pytest.raises(InvalidInputError):
            zeta_values(np.array([np.inf]))


# ---------------------------------------------------------------------------
# convergence checks
# ---------------------------------------------------------------------------


def _harmonic_threshold(eps: float) -> int:
    """Smallest N with chi(H_N, infinity) <= eps, summed longhand."""
    h, n = 0.0, 0
    while True:
        n += 1
        h += 1.0 / n
        if 1.0 / math.hypot(1.0, h) <= eps:
            return n


class TestZetaChordalCheck:
    def test_convergent_interval_column_strictly_decreases(self):
        report = zeta_chordal_convergence_check((2.0, 3.0), (10, 100, 1000), 0.01)
        assert report.errors[0] > report.errors[1] > report.errors[2]
        assert report.n0 == 100 and report.n0_source == "ladder"
        assert report.grid_converged

    def test_convergent_interval_against_plain_oracle(self):
        # sup binds at the left endpoint; recompute it there with the
        # million-term zeta and longhand partial sums
        report = zeta_chordal_convergence_check((2.0, 3.0), (10, 100, 1000), 0.01)
        z2 = 0.0
        for lo in range(1, 10**6 + 1, 250_000):
            ns = np.arange(lo, min(lo + 250_000, 10**6 + 1), dtype=float)
            z2 += float(np.sum(ns**-2.0))
        z2 += 10 ** (6 * (1 - 2.0)) / (2.0 - 1.0)
        for n, err in zip(report.ladder, report.errors):
            s = float(np.sum(np.arange(1, n + 1, dtype=float) ** -2.0))
            expected = abs(s - z2) / (math.hypot(1, s) * math.hypot(1, z2))
            assert abs(err - expected) <= 1e-9

    def test_report_reconstructs_from_grid_metadata(self):
        report = zeta_chordal_convergence_check((2.0, 3.0), (10, 100, 1000), 0.01)
        grid = np.linspace(*report.interval, report.grid_points)
        zv = zeta_values(grid)
        for n, err in zip(report.ladder, report.errors):
            ns = np.arange(1, n + 1, dtype=float)
            s = np.exp(-grid[:, None] * np.log(ns)[None, :]).sum(axis=1)
            sup = float(np.max(np.abs(s - zv) / (np.hypot(1, s) * np.hypot(1, zv))))
            assert abs(err - sup) <= 1e-10

    def test_divergent_interval_is_the_reciprocal_hypot_of_the_endpoint_sum(self):
        # on [-5, 0] every partial sum is smallest at sigma = 0 where it
        # equals N, so the sup chordal error is exactly 1/sqrt(1+N^2)
        ladder = (10, 100, 1000)
        report = zeta_chordal_convergence_check((-5.0, 0.0), ladder, 0.1)
        for n, err in zip(ladder, report.errors):
            assert abs(err - 1.0 / math.hypot(1.0, n)) <= 1e-12
        assert report.errors[0] > report.errors[1] > report.errors[2]
        assert report.n0 == 10 and report.n0_source == "ladder"

    def test_search_past_the_ladder_finds_the_minimal_index(self):
        report = zeta_chordal_convergence_check((-2.0, 2.0), (10, 100), 0.13)
        assert report.n0 == _harmonic_threshold(0.13)
        assert report.n0_source == "search"
        assert report.n0_error <= 0.13
        assert report.searched_to >= report.n0
        # the straddling interval records the band just right of the pole
        assert report.band is not None and report.band["points"] > 0

    def test_mixed_interval_errors_are_set_by_the_pole_point(self):
        # with sigma = 1 on the grid the sup equals chi(H_N, infinity)
        report = zeta_chordal_convergence_check((-2.0, 2.0), (10, 100), 0.13)
        h10 = sum(1.0 / k for k in range(1, 11))
        h100 = sum(1.0 / k for k in range(1, 101))
        assert abs(report.errors[0] - 1.0 / math.hypot(1.0, h10)) <= 1e-12
        assert abs(report.errors[1] - 1.0 / math.hypot(1.0, h100)) <= 1e-12

    def test_deterministic(self):
        a = zeta_chordal_convergence_check((2.0, 3.0), (10, 100), 0.01)
        b = zeta_chordal_convergence_check((2.0, 3.0), (10, 100), 0.01)
        assert a == b

    def test_csv_shape(self):
        report = zeta_chordal_convergence_check((2.0, 3.0), (10, 100), 0.01)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "N,chi_sup_error"
        assert len(lines) == 3
        for line, (n, err) in zip(lines[1:], zip(report.ladder, report.errors)):
            ns, es = line.split(",")
            assert int(ns) == n
            assert float(es) == err

    def test_json_summary_round_trips(self):
        report = zeta_chordal_convergence_check((-2.0, 2.0), (10, 100), 0.13)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        back = json.loads(blob)
        assert back["n0"] == report.n0
        assert back["errors"] == list(report.errors)
        assert back["band"]["interval"] == [1.0, 1.05]
        assert back["grid_converged"] is True

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 2.0), (10,), 0.01)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (), 0.01)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (10, 10), 0.01)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (100, 10), 0.01)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (0, 10), 0.01)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (10,), 0.0)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (10,), 0.01, grid_per_unit=0)
        with pytest.raises(InvalidInputError):
            zeta_chordal_convergence_check((2.0, 3.0), (10,), 0.01, grid_tol=-1)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                zeta_chordal_convergence_check((2.0, 3.0), (10,), 0.01, grid_per_unit=bad)
            with pytest.raises(InvalidInputError):
                zeta_chordal_convergence_check((2.0, 3.0), (10,), 0.01, grid_tol=bad)
        # int() would run the ladder (10, 100) and read True as 1
        for ladder in ((10.7, 100), (True, 100)):
            with pytest.raises(InvalidInputError, match="integer"):
                zeta_chordal_convergence_check((2.0, 3.0), ladder, 0.01)

    def test_search_cap_reached_reports_failure(self, monkeypatch):
        monkeypatch.setattr(chordal, "_SEARCH_CAP", 500)
        report = zeta_chordal_convergence_check((-2.0, 2.0), (10,), 1e-3)
        assert report.n0 is None and report.n0_error is None
        assert report.n0_source is None
        assert report.searched_to == 500


class TestGenericRuleCheck:
    def test_shifted_zeta_rule(self):
        # a_n = 1/n gives sum n^{-(sigma+1)}: limit zeta(sigma+1), abscissa 0
        report = chordal_convergence_check(
            lambda ns: 1.0 / ns,
            0.0,
            lambda s: zeta_values(s + 1.0),
            (0.5, 1.5),
            (10, 100),
            0.05,
            grid_per_unit=500.0,
        )
        grid = np.linspace(0.5, 1.5, report.grid_points)
        zv = zeta_values(grid + 1.0)
        ns = np.arange(1.0, 101.0)
        s100 = np.exp(-grid[:, None] * np.log(ns)[None, :]) @ (1.0 / ns)
        sup = float(np.max(np.abs(s100 - zv) / (np.hypot(1, s100) * np.hypot(1, zv))))
        assert abs(report.errors[1] - sup) <= 1e-12
        assert report.errors[0] > report.errors[1]

    def test_divergent_region_of_the_rule(self):
        report = chordal_convergence_check(
            lambda ns: 1.0 / ns,
            0.0,
            lambda s: zeta_values(s + 1.0),
            (-0.5, -0.1),
            (10, 100),
            0.9,
            grid_per_unit=500.0,
        )
        # every grid point diverges: error is 1/hypot(1, min partial sum)
        grid = np.linspace(-0.5, -0.1, report.grid_points)
        ns = np.arange(1.0, 11.0)
        s10 = np.exp(-grid[:, None] * np.log(ns)[None, :]) @ (1.0 / ns)
        assert abs(report.errors[0] - 1.0 / math.hypot(1.0, float(s10.min()))) <= 1e-12

    def test_ladder_first_semantics(self):
        # on [-1, 0] the sup error is 1/hypot(1, N): N=3 misses 0.3 and
        # N=4 would already qualify, but the report sticks to the ladder
        report = zeta_chordal_convergence_check((-1.0, 0.0), (3, 1000), 0.3)
        assert report.n0 == 1000 and report.n0_source == "ladder"
        assert 1.0 / math.hypot(1.0, 4.0) <= 0.3

    def test_negative_coefficients_rejected_up_front(self):
        with pytest.raises(InvalidInputError):
            chordal_convergence_check(
                lambda ns: -np.ones_like(ns),
                1.0,
                zeta_values,
                (2.0, 3.0),
                (10,),
                0.1,
            )

    def test_wrong_shape_rule_rejected(self):
        with pytest.raises(InvalidInputError):
            chordal_convergence_check(
                lambda ns: np.ones(3),
                1.0,
                zeta_values,
                (2.0, 3.0),
                (10,),
                0.1,
            )

    def test_infinite_limit_values_are_the_point_at_infinity(self, monkeypatch):
        # zeta's limit written out as inf at and left of its pole, with no
        # divergence abscissa, gives the zeta check's report: an inf limit
        # value must not make the errors nan and send the search to its cap
        def limit(s):
            pole = s <= 1.0
            return np.where(pole, np.inf, zeta_values(np.where(pole, 2.0, s)))

        monkeypatch.setattr(chordal, "_SEARCH_CAP", 5_000)
        kw = {"grid_per_unit": 25.0}
        got = chordal_convergence_check(lambda ns: np.ones_like(ns), -math.inf, limit, (-2.0, 2.0),
                                        (10, 100), 0.13, band=(1.0, 1.05), **kw)
        assert all(math.isfinite(e) for e in got.errors)
        assert got.n0 == _harmonic_threshold(0.13)
        want = zeta_chordal_convergence_check((-2.0, 2.0), (10, 100), 0.13, **kw)
        assert got.to_json_dict() == want.to_json_dict()

    def test_no_band_for_generic_rules(self):
        report = chordal_convergence_check(
            lambda ns: 1.0 / ns,
            0.0,
            lambda s: zeta_values(s + 1.0),
            (1.5, 2.0),
            (10,),
            0.5,
            grid_per_unit=200.0,
        )
        assert report.band is None


# ---------------------------------------------------------------------------
# the search past the ladder
# ---------------------------------------------------------------------------


def _checkpoints(start: int, stop: int) -> list[int]:
    """The search's geometric checkpoints from `start` to the first one >= stop."""
    out = [start]
    while out[-1] < stop:
        out.append(max(out[-1] + 1, int(out[-1] * 1.08)))
    return out


def _longhand_measure(rule, abscissa, limit, grid, n_max, band):
    """q(N), N = 1..n_max, from cumulative sums: N qualifies iff q(N) <= eps."""
    ns = np.arange(1, n_max + 1, dtype=float)
    sums = np.cumsum(rule(ns)[None, :] * np.exp(-np.outer(grid, np.log(ns))), axis=1)
    fin = grid > abscissa
    lim = limit(grid[fin])[:, None]
    f = sums[fin]
    fin_err = np.abs(f - lim) / (np.hypot(1.0, f) * np.hypot(1.0, lim))
    inf_err = 1.0 / np.hypot(1.0, sums[~fin])
    if band is None:
        return np.vstack([inf_err, fin_err]).max(axis=0)
    in_band = (grid[fin] > band[0]) & (grid[fin] <= band[1])
    core = np.vstack([inf_err, fin_err[~in_band]]).max(axis=0)
    return np.maximum(core, fin_err[in_band].max(axis=0) / 2.0)  # the band's factor 2


_INV = (lambda ns: 1.0 / ns, 0.0, lambda s: zeta_values(s + 1.0))
_SEARCH_CASES = {
    # the zeta band; the pole point sigma = 1 sets the sup
    "zeta-band": ((lambda ns: np.ones_like(ns), 1.0, zeta_values), (-2.0, 2.0), (1.0, 1.05), 25.0),
    # convergent everywhere, no band: the left endpoint sets the sup
    "inverse-plain": (_INV, (0.5, 1.5), None, 20.0),
    # a band over the steep left end, wide enough that it binds
    "inverse-band": (_INV, (0.5, 1.5), (0.4, 0.7), 20.0),
}


class TestSearchPastTheLadder:
    @pytest.mark.parametrize("case", sorted(_SEARCH_CASES))
    def test_n0_matches_a_longhand_sequential_reference(self, case):
        (rule, abscissa, limit), interval, band, density = _SEARCH_CASES[case]
        ladder = (10, 100)

        def check(eps):
            return chordal_convergence_check(rule, abscissa, limit, interval, ladder, eps,
                                             grid_per_unit=density, band=band)

        grid = np.linspace(*interval, check(0.5).grid_points)
        q = _longhand_measure(rule, abscissa, limit, grid, 2000, band)
        assert np.all(np.diff(q) < 0)  # strictly decreasing: no ties to break
        cps = _checkpoints(ladder[-1], 1000)
        a, b = cps[-3], cps[-2]  # a bracket (a, b] well past the ladder
        epsilons = {
            "bracket start": math.sqrt(q[a - 1] * q[a]),  # n0 = a + 1
            "checkpoint": math.sqrt(q[b - 2] * q[b - 1]),  # n0 = b
            "interior": math.sqrt(q[a + 2] * q[a + 3]),  # n0 = a + 4
            "earlier": 0.5 * (q[cps[3] + 5] + q[cps[3] + 6]),  # n0 = cps[3] + 7
        }
        found = {}
        for label, eps in epsilons.items():
            report = check(eps)
            reference = int(np.argmax(q <= eps)) + 1
            assert report.n0 == reference, label
            assert report.n0_source == "search"
            assert q[report.n0 - 1] <= eps < q[report.n0 - 2]  # n0 - 1 does not qualify
            assert report.n0_error <= report.errors[-1]
            found[label] = report.n0
        assert found["bracket start"] == a + 1 and found["checkpoint"] == b

    def test_bisection_bounds_the_region_sup_passes(self, monkeypatch):
        from dirapprox import chordal

        calls = []
        real = chordal.chi_many

        def counted(*args, **kwargs):  # one chordal measurement per pass
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(chordal, "chi_many", counted)
        ladder, density = (10, 100), 25.0
        report = zeta_chordal_convergence_check((-2.0, 2.0), ladder, 0.13, grid_per_unit=density)
        assert report.n0 == _harmonic_threshold(0.13)
        levels = round(math.log2(report.grid_per_unit / density)) + 1
        cps = _checkpoints(ladder[-1], report.searched_to)
        assert cps[-1] == report.searched_to
        bracket = cps[-1] - cps[-2]
        budget = (len(cps) - 1) + math.ceil(math.log2(bracket)) + 1
        assert len(calls) - levels * len(ladder) <= budget
        # a rescan of the bracket index by index would need more passes
        assert report.n0 - cps[-2] > math.ceil(math.log2(bracket)) + 1


# ---------------------------------------------------------------------------
# the search on the window of points that miss at the ladder's end
# ---------------------------------------------------------------------------


def full_grid_search(sums, err, limit_vals, tolerance):
    """The search past the ladder with every pass on the whole grid: the
    windowed search's reference, (n0, n0_error, searched_to)."""

    def measure(part):
        e = chordal.chi_many(part.values, limit_vals)
        return float(e.max(initial=0.0)), bool(np.all(e <= tolerance))

    n0 = n0_error = None
    n_prev = searched_to = sums.upto
    while n_prev < chordal._SEARCH_CAP:
        n_next = min(chordal._SEARCH_CAP, max(n_prev + 1, int(n_prev * 1.08)))
        below = sums.copy()
        sums.extend(n_next)
        searched_to = n_next
        sup, ok = measure(sums)
        if ok:
            n0, n0_error = n_next, sup
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
    return n0, n0_error, searched_to


def _tail_limit(s):
    """Limit of sum a_n n^-s with a_n = 1/n below 300 and 2.5 from 300 on."""
    ns = np.arange(1.0, 300.0)
    head = np.exp(-np.outer(s, np.log(ns)))
    return head @ (1.0 / ns) + 2.5 * (zeta_values(s) - head.sum(axis=1))


_ZETA = (lambda ns: np.ones_like(ns), 1.0, zeta_values)
_BENCH_LADDER = (10, 100, 1000, 10_000)
# (rule, abscissa, limit), interval, ladder, eps, density, band; every index
# past these ladders is summed in closed form
_WINDOW_CASES = {
    "zeta 0.1": (_ZETA, (-5.0, 5.0), _BENCH_LADDER, 0.1, 2000.0, (1.0, 1.05)),
    "zeta 0.07": (_ZETA, (-5.0, 5.0), _BENCH_LADDER, 0.07, 2000.0, (1.0, 1.05)),
    "zeta 0.05 to the cap": (_ZETA, (-5.0, 5.0), _BENCH_LADDER, 0.05, 2000.0, (1.0, 1.05)),
    "zeta [-60, 2]": (_ZETA, (-60.0, 2.0), (10, 150), 0.15, 50.0, (1.0, 1.05)),
    "zeta [0.999, 1.001]": (_ZETA, (0.999, 1.001), (10, 100), 0.1, 1e6, (1.0, 1.05)),
    "zeta [-120, 0]": (_ZETA, (-120.0, 0.0), (10, 300), 1e-3, 20.0, (1.0, 1.05)),
    # the band's qualified points split the misses in two: [0.725, 1] and [1.05, 1.18]
    "zeta two clusters": (_ZETA, (-2.0, 2.0), (10, 100), 0.1, 100.0, (1.0, 1.05)),
    "constant tail": ((lambda ns: np.where(ns < 300, 1.0 / ns, 2.5), 1.0, _tail_limit),
                      (-3.0, 3.0), (10, 300), 0.05, 100.0, None),
}


def _run_case(case):
    (rule, abscissa, limit), interval, ladder, eps, density, band = case
    return chordal_convergence_check(rule, abscissa, limit, interval, ladder, eps,
                                     grid_per_unit=density, band=band)


class TestWindowSearch:
    @pytest.mark.parametrize("name", list(_WINDOW_CASES))
    def test_reports_match_the_full_grid_search_byte_for_byte(self, name, monkeypatch):
        got = _run_case(_WINDOW_CASES[name])
        assert got.n0_source == ("search" if got.n0 is not None else None)
        monkeypatch.setattr(chordal, "_search", full_grid_search)
        want = _run_case(_WINDOW_CASES[name])
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        if name == "zeta 0.1":
            assert got.n0 == 11_762 and got.searched_to == 12_597
        if name == "zeta 0.05 to the cap":
            assert got.n0 is None and got.searched_to == chordal._SEARCH_CAP

    def test_rules_through_the_gemm_blocks_agree_to_rounding(self, monkeypatch):
        # 1/sqrt(n) has no equal neighbours: the window's GEMM blocks have
        # fewer rows than the whole grid's, so BLAS may round them apart
        def check():
            return chordal_convergence_check(lambda ns: ns**-0.5, 0.5, lambda s: zeta_values(s + 0.5),
                                             (1.0, 2.0), (10, 100), 0.01, grid_per_unit=200.0)

        got = check()
        monkeypatch.setattr(chordal, "_search", full_grid_search)
        want = check()
        assert (got.n0, got.searched_to, got.n0_source) == (want.n0, want.searched_to, "search")
        assert got.n0_error == pytest.approx(want.n0_error, rel=1e-13, abs=0)

    def test_a_miss_outside_the_window_continues_the_search(self, monkeypatch):
        # rounding that made a point outside the window miss at the window's
        # n0: that n0 is not reported, the window widens and the search goes on
        real_search, real_chi = chordal._search, chordal.chi_many
        state = {"searching": False, "tampered": 0}

        def search(*args):
            state["searching"] = True
            return real_search(*args)

        def chi(a, b, **kw):
            err = real_chi(a, b, **kw)
            if state["searching"] and err.size == 801 and not state["tampered"]:
                state["tampered"] += 1
                err[0] = 1.0  # sigma = -2, far from the misses near the pole
            return err

        case = _WINDOW_CASES["zeta two clusters"]
        want = _run_case(case)
        monkeypatch.setattr(chordal, "_search", search)
        monkeypatch.setattr(chordal, "chi_many", chi)
        got = _run_case(case)
        assert state["tampered"] == 1
        assert got.grid_points == 801 and got.n0_source == "search"
        assert got.n0 == want.n0 + 1  # the point's own window qualifies at once
        assert got.searched_to > want.searched_to
        assert got.n0_error <= 0.1

    def test_only_the_final_pass_past_the_ladder_covers_the_whole_grid(self, monkeypatch):
        # work, not wall time: the benchmark's zeta check measures the whole
        # grid once per ladder entry and grid, and once more at n0; every
        # extension past the ladder but the last is on the window
        full_measures, extends, window = [], [], []
        real_chi, real_extend, real_search = chordal.chi_many, chordal._PartialSums.extend, chordal._search

        def chi(a, b, **kw):
            full_measures.append(np.size(a) == 40_001)
            return real_chi(a, b, **kw)

        def extend(self, n_target):
            extends.append((self.values.size, self.upto))
            return real_extend(self, n_target)

        def search(sums, err, limit_vals, tolerance):
            miss = np.flatnonzero(~(err <= tolerance))
            window.append(int(miss[-1] - miss[0] + 1))
            return real_search(sums, err, limit_vals, tolerance)

        monkeypatch.setattr(chordal, "chi_many", chi)
        monkeypatch.setattr(chordal._PartialSums, "extend", extend)
        monkeypatch.setattr(chordal, "_search", search)
        report = zeta_chordal_convergence_check((-5.0, 5.0), _BENCH_LADDER, 0.1)
        assert report.n0 == 11_762 and report.grid_points == 40_001
        grids = round(math.log2(report.grid_per_unit / 2000.0)) + 1
        assert sum(full_measures) <= len(_BENCH_LADDER) * grids + 1
        assert window == [16]  # the misses in [0.996, 1.0]
        past = [size for size, upto in extends if upto >= _BENCH_LADDER[-1]]
        assert past[-1] == 40_001
        assert len(past) > 10 and max(past[:-1]) <= window[0]

    def test_window_extends_like_the_whole_grid(self):
        # a window's sums are the whole grid's, sliced, after the same
        # extensions, including a run continued from the cached end
        grid, sums = _partial_sums((-5.0, 5.0), 2001, (10, 100))
        part = sums.window(990, 1010)
        assert part.upto == sums.upto and part.em_from == sums.em_from
        for n in (3000, 3001, 50_000):
            sums.extend(n)
            part.extend(n)
            assert part.values.tobytes() == sums.values[990:1010].tobytes()
        assert part.end[2].tobytes() == sums.end[2][990:1010].tobytes()

    @pytest.mark.parametrize("name", ["zeta 0.07", "constant tail"])
    def test_each_index_past_the_ladder_is_read_from_the_rule_once(self, name):
        # the bisection's trials and the whole grid's catch-up fill their
        # blocks from the stretch of equal coefficients the window has read
        (rule, abscissa, limit), *rest = _WINDOW_CASES[name]
        reads = []

        def counted(ns):
            reads.append((int(ns[0]), int(ns[-1])))
            return rule(ns)

        report = _run_case(((counted, abscissa, limit), *rest))
        assert report.n0_source == "search"
        ladder_end = rest[1][-1]
        times = np.zeros(report.searched_to + 2, dtype=int)
        for lo, hi in reads:
            if hi > ladder_end:
                times[max(lo, ladder_end + 1)] += 1
                times[hi + 1] -= 1
        times = np.cumsum(times)[ladder_end + 1 : report.searched_to + 1]
        assert times.min() == 1 and times.max() == 1

    def test_a_known_stretch_keeps_the_bits_of_a_fresh_walk(self):
        # a_n = 1 up to 7,000, then 2: a twin that fills its blocks from the
        # stretch another walk has read sums them as a walk of its own,
        # up to the change of value and past it
        rule = lambda ns: np.where(ns <= 7000, 1.0, 2.0)  # noqa: E731
        _, sums = _partial_sums((-5.0, 5.0), 2001, (10, 1000), rule)
        twin, late = sums.copy(), sums.copy()
        sums.extend(6500)
        assert sums.known == [1, 6500, 1.0]
        _, fresh = _partial_sums((-5.0, 5.0), 2001, (10, 1000), rule)
        reads = []
        twin.rule = lambda ns: (reads.append(ns.size), rule(ns))[1]
        for n in (4000, 9000):
            twin.extend(n)
            fresh.extend(n)
            assert twin.values.tobytes() == fresh.values.tobytes()
        # the blocks [1001, 4000], [4001, 5024] and [5025, 6048] were filled
        assert reads == [1024, 1024, 904]
        assert sums.known == [7001, 9000, 2.0]  # shared by the copies
        late.extend(9000)  # reads the blocks before the stretch again
        _, direct = _partial_sums((-5.0, 5.0), 2001, (10, 1000, 9000), rule)
        assert late.values.tobytes() == direct.values.tobytes()


# ---------------------------------------------------------------------------
# closed-form sums over runs of equal coefficients
# ---------------------------------------------------------------------------

_ONES = lambda ns: np.ones_like(ns)  # noqa: E731


def _partial_sums(interval, points, ladder, rule=_ONES):
    """The check's accumulator on an evenly spaced grid, extended along a ladder."""
    grid = np.linspace(*interval, points)
    sums = chordal._PartialSums(grid, (interval[1] - interval[0]) / (points - 1), rule)
    for n in ladder:
        sums.extend(n)
    return grid, sums


@pytest.fixture
def gemm_only(monkeypatch):
    """Every index through _grid_sums, as before the closed form existed."""
    def switch():
        monkeypatch.setattr(chordal, "_em_from", lambda sigma_min: 1 << 62)
    return switch


@pytest.fixture
def gemm_indices(monkeypatch):
    """The indices each grid (keyed by its size) sends through _grid_sums."""
    seen = {}
    real = chordal._grid_sums

    def counted(c, x0, dx, m, lo=1):
        seen.setdefault(m, set()).update(range(lo, lo + c.size))
        return real(c, x0, dx, m, lo=lo)

    monkeypatch.setattr(chordal, "_grid_sums", counted)
    return seen


_EDGE_GRIDS = [(-5.0, 5.0), (-60.0, 2.0), (0.999, 1.001), (-120.0, 0.0)]


class TestClosedFormRuns:
    @pytest.mark.parametrize("interval", _EDGE_GRIDS)
    def test_partial_sums_against_mpmath(self, interval):
        # S_N = zeta(s) - zeta(s, N + 1), or H_N at s = 1, at the grid's own
        # floats; the ladder opens the run inside a block, continues it one
        # index at a time and across many blocks
        n = 3000
        grid, sums = _partial_sums(interval, 2001, (10, 57, 1024, 1500, 1501, n))
        assert not np.isnan(sums.values).any()
        picks = sorted(set(range(0, grid.size, 40)) | set(np.flatnonzero(grid == 1.0).tolist()))
        with mpmath.workdps(30):
            for i in picks:
                s = mpmath.mpf(float(grid[i]))
                ref = mpmath.harmonic(n) if s == 1 else mpmath.zeta(s) - mpmath.zeta(s, n + 1)
                got = sums.values[i]
                if ref > 1.8e308:
                    assert got == np.inf, grid[i]
                elif ref < 1e307:  # exponents (1 - sigma) log(n/a) and -sigma log n are good to an ulp
                    tol = 8 * np.finfo(float).eps * (1.0 + (1.0 + abs(grid[i])) * math.log(n))
                    assert abs(got - ref) <= tol * ref, grid[i]
        if interval == (-120.0, 0.0):
            assert np.isinf(sums.values).any() and np.isfinite(sums.values).any()

    @pytest.mark.parametrize("interval, eps, density", [
        ((-5.0, 5.0), 0.1, 2000.0), ((-60.0, 2.0), 0.15, 50.0),
        ((0.999, 1.001), 0.3, 1e6), ((-120.0, 0.0), 0.01, 20.0),
    ])
    def test_check_errors_match_the_gemm_path(self, gemm_only, interval, eps, density):
        def check():
            return zeta_chordal_convergence_check(interval, (10, 100, 1000), eps, grid_per_unit=density)

        got = check()
        gemm_only()
        want = check()
        assert all(math.isfinite(e) for e in got.errors)
        assert max(abs(a - b) for a, b in zip(got.errors, want.errors)) <= 1e-15
        same = ("n0", "n0_source", "searched_to", "grid_points", "grid_converged", "grid_per_unit", "band")
        assert {k: got.to_json_dict()[k] for k in same} == {k: want.to_json_dict()[k] for k in same}
        assert abs(got.n0_error - want.n0_error) <= 1e-15

    @pytest.mark.parametrize("tail", [2.5, 0.0])
    def test_constant_tail_after_a_varying_head(self, gemm_only, gemm_indices, tail):
        def rule(ns):
            return np.where(ns < 300, 1.0 / ns, tail)

        ladder = (10, 250, 700, 1500, 1501, 4000)
        grid, got = _partial_sums((-3.0, 3.0), 601, ladder, rule)
        assert max(gemm_indices[601]) == 299  # the run from 300 on is summed in closed form
        if tail == 0.0:  # a zero run adds nothing
            _, head = _partial_sums((-3.0, 3.0), 601, (10, 250, 299), rule)
            assert got.values.tobytes() == head.values.tobytes()
        gemm_only()
        _, want = _partial_sums((-3.0, 3.0), 601, ladder, rule)
        tol = 8 * np.finfo(float).eps * (1.0 + (1.0 + np.abs(grid)) * math.log(4000))
        assert np.all(np.abs(got.values - want.values) <= tol * want.values)

    def test_rules_without_equal_neighbours_keep_the_gemm_bytes(self, gemm_only, gemm_indices):
        rule, abscissa, limit = _INV

        def check():
            return chordal_convergence_check(rule, abscissa, limit, (0.5, 1.5), (10, 100), 0.02,
                                             grid_per_unit=200.0)

        got = check()
        assert got.n0_source == "search"
        assert max(max(ix) for ix in gemm_indices.values()) == got.searched_to
        gemm_only()
        assert json.dumps(got.to_json_dict()) == json.dumps(check().to_json_dict())

    @pytest.mark.parametrize("ladder", [(10, 100, 1000, 10_000), (29, 30, 31, 32), (5, 3000)])
    def test_only_indices_below_em_from_reach_the_gemm(self, gemm_indices, ladder):
        # the benchmark's zeta check (and other ladders): before the closed
        # form, every index each pass added went through _grid_sums
        report = zeta_chordal_convergence_check((-5.0, 5.0), ladder, 0.1)
        assert report.n0 == 11_762 and report.grid_points == 40_001
        assert chordal._em_from(-5.0) == 30
        assert sorted(gemm_indices) == [20_001, 40_001]
        for indices in gemm_indices.values():
            assert max(indices) < 30

    def test_em_from_grows_with_the_grid_left_end(self):
        assert [chordal._em_from(s) for s in (5.0, 0.0, -0.5, -5.0, -60.0)] == [20, 20, 22, 30, 140]

    def test_deep_search_reaches_the_harmonic_threshold(self):
        # about 900,000 indices on 16,001 points: a GEMM pass per checkpoint
        # would take seconds
        report = zeta_chordal_convergence_check((-2.0, 2.0), (10, 100), 0.07)
        assert report.n0 == _harmonic_threshold(0.07) == 867_574
        assert report.n0_source == "search"
