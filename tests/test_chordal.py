"""Chordal metric and chi-uniform convergence checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from dirapprox.chordal import (
    INFINITY,
    ConvergenceReport,
    SpherePoint,
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
_point = st.one_of(st.just(INFINITY), _finite.map(SpherePoint))


class TestChi:
    def test_identical_points_are_at_distance_zero(self):
        for a in (0, 1.5, 3 + 4j, -2j, 1e140, INFINITY):
            assert chi(a, a) == 0.0

    def test_origin_to_infinity_is_one(self):
        assert chi(0, INFINITY) == 1.0
        assert chi(INFINITY, 0) == 1.0

    def test_antipodal_unit_points(self):
        assert abs(chi(1, -1) - 1.0) <= 1e-15
        assert abs(chi(1j, -1j) - 1.0) <= 1e-15

    def test_known_finite_value(self):
        expected = 4.0 / (math.hypot(1, 3) * math.hypot(1, 7))
        assert abs(chi(3, 7) - expected) <= 1e-16

    def test_distance_to_infinity_formula(self):
        for a in (0.5, -2 + 1j, 30):
            assert abs(chi(a, INFINITY) - 1.0 / math.hypot(1, abs(a))) <= 1e-16

    def test_infinite_floats_coerce_to_the_tag(self):
        assert chi(float("inf"), 0) == 1.0
        assert chi(complex(0, math.inf), INFINITY) == 0.0
        assert SpherePoint.of(float("-inf")).is_infinity

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            chi(float("nan"), 0)
        with pytest.raises(InvalidInputError):
            SpherePoint(complex(math.nan, 0))

    def test_explicit_sphere_point_requires_finite_components(self):
        with pytest.raises(InvalidInputError):
            SpherePoint(complex(math.inf, 0))

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


class TestChiMany:
    def test_matches_scalar_pairwise(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=200) * 10 + 1j * rng.normal(size=200)
        b = rng.normal(size=200) + 1j * rng.normal(size=200) * 5
        ainf = rng.random(200) < 0.15
        binf = rng.random(200) < 0.15
        got = chi_many(a, b, a_infinite=ainf, b_infinite=binf)
        for k in range(200):
            pa = INFINITY if ainf[k] else a[k]
            pb = INFINITY if binf[k] else b[k]
            assert abs(got[k] - chi(pa, pb)) <= 1e-14

    def test_huge_pairs_vectorized(self):
        a = np.array([1e300, 1e200, 5.0])
        b = np.array([-1e300, 1e200 * (1 + 1e-10), 5.0])
        got = chi_many(a, b)
        assert got[0] == pytest.approx(2e-300, rel=1e-12)
        assert got[1] <= 1e-209
        assert got[2] == 0.0

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


class TestChiUniformError:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidInputError):
            chi_uniform_error([0, 1], [0])

    def test_identical_lists_have_zero_error(self):
        vals = [0, 1 + 2j, INFINITY, -5]
        assert chi_uniform_error(vals, vals) == 0.0
        assert chi_uniform_error([], []) == 0.0

    def test_is_the_max_of_pairwise_distances(self):
        f = [0, 3, INFINITY]
        g = [1, 3, 2j]
        expected = max(chi(0, 1), chi(3, 3), chi(INFINITY, 2j))
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
        with pytest.raises(InvalidInputError):
            zeta_values(np.array([2.0]), terms=1)


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

    def test_search_cap_reached_reports_failure(self):
        report = zeta_chordal_convergence_check(
            (-2.0, 2.0), (10,), 1e-3, search_cap=500
        )
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
