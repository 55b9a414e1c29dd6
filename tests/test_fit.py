import json
import math

import numpy as np
import pytest

from dirapprox import fit, geometry
from dirapprox.cli import main as cli_main
from dirapprox.errors import IllConditionedError, InvalidInputError
from dirapprox.fit import (
    FitOptions,
    TargetFunction,
    constrained_fit,
    convergence_study,
    minimax_fit,
    minimax_fit_samples,
    project_weighted_l1,
)
from dirapprox.geometry import (
    DiscretizedSet,
    SampleDensity,
    annulus,
    disc,
    discretize,
    rectangle,
    translate,
)
from dirapprox.laurent import rational_dirichlet_fit
from dirapprox.series import DirichletPolynomial, _exp_basis, evaluate_many, seminorm_sigma
from dirapprox.universal import FamilyEntry, TargetFamily, UniversalOptions, build_universal

DISC = discretize(disc(-1, 0.5), SampleDensity(0.02, 0.06))
DISC_DEFAULT = discretize(disc(-1, 0.5), SampleDensity())
BOX = discretize(translate(rectangle(-1 - 1j, 0 + 1j), -0.5), SampleDensity(0.05, 0.1))


def poly(*coeffs):
    return DirichletPolynomial(np.array(coeffs, dtype=complex))


@pytest.fixture(autouse=True)
def every_fit_is_bounded_below(monkeypatch):
    """Each FitResult made by a test here has lower_bound <= minimax_error."""
    made = []

    class Recorded(fit.FitResult):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(fit, "FitResult", Recorded)
    yield
    for r in made:
        assert 0 <= r.lower_bound <= r.minimax_error


# --- targets ------------------------------------------------------------------


def test_target_kinds_evaluate():
    pts = np.array([0.0, 1.0 + 1j])
    assert np.allclose(TargetFunction.exp().values_on(pts), np.exp(pts))
    assert np.allclose(TargetFunction.identity().values_on(pts), pts)
    assert np.allclose(TargetFunction.const(2j).values_on(pts), [2j, 2j])
    q = TargetFunction.polynomial([1, 0, 1])  # 1 + s^2
    assert np.allclose(q.values_on(pts), 1 + pts**2)


def test_sampled_target_needs_alignment():
    t = TargetFunction.sampled(np.ones(5))
    with pytest.raises(InvalidInputError):
        t.values_on(np.zeros(7, dtype=complex))


def test_target_json_round_trip():
    for t in (
        TargetFunction.exp(),
        TargetFunction.const(1 - 2j),
        TargetFunction.polynomial([0, 1j]),
        TargetFunction.sampled(np.array([1.0, 2.0 + 1j])),
    ):
        back = TargetFunction.from_json_dict(t.to_json_dict())
        assert back.kind == t.kind and back.name == t.name


@pytest.mark.parametrize("name", ["exp", "constant", "polynomial"])
def test_target_json_unknown_kind_rejected(name):
    # the kind is checked, not read as "anything but sampled is named"
    doc = {"kind": "bogus", "name": name, "constant": [1, 0], "poly_coeffs": [[0, 1]]}
    with pytest.raises(InvalidInputError, match="unknown target kind 'bogus'"):
        TargetFunction.from_json_dict(doc)


# --- minimax_fit ----------------------------------------------------------------


def test_constant_target_recovered_exactly():
    r = minimax_fit(DISC, TargetFunction.const(3 - 1j), 4)
    assert r.minimax_error <= 1e-10
    assert r.converged and r.iterations == 0  # settled at rounding level
    assert r.polynomial.coefficient(1) == pytest.approx(3 - 1j, abs=1e-8)


def test_basis_element_recovered():
    r = minimax_fit(DISC, lambda s: 2.0 ** (-s), 3)
    assert r.minimax_error <= 1e-8
    assert r.polynomial.coefficient(2) == pytest.approx(1.0, abs=1e-6)
    assert abs(r.polynomial.coefficient(1)) <= 1e-6


def test_exp_error_halves_from_ten_to_sixty():
    e10 = minimax_fit(DISC, TargetFunction.exp(), 10).minimax_error
    e60 = minimax_fit(DISC, TargetFunction.exp(), 60).minimax_error
    assert e60 < 0.5 * e10


def test_reported_error_is_faithful():
    r = minimax_fit(DISC, TargetFunction.exp(), 25)
    pts = DISC.all_samples()
    resid = np.abs(evaluate_many(r.polynomial, pts) - np.exp(pts))
    assert abs(resid.max() - r.minimax_error) <= 1e-10


def test_scale_equivariance():
    c = 0.7 - 2.2j
    base = minimax_fit(DISC, TargetFunction.exp(), 15)
    scaled = minimax_fit(DISC, lambda s: c * np.exp(s), 15)
    assert scaled.minimax_error == pytest.approx(abs(c) * base.minimax_error, rel=1e-4, abs=1e-9)
    np.testing.assert_allclose(
        scaled.polynomial.coefficients, c * base.polynomial.coefficients, atol=1e-5
    )


def test_nonevaluable_target_rejected():
    with pytest.raises(InvalidInputError):
        minimax_fit(DISC, lambda s: np.full(s.shape, np.nan), 5)


def test_overflowing_design_raises_ill_conditioned():
    far = discretize(disc(-600, 0.5), SampleDensity(0.3, 0.6))
    with pytest.raises(IllConditionedError) as exc_info:
        minimax_fit(far, TargetFunction.const(1), 8)
    assert "degree" in exc_info.value.diagnostic


def test_target_error_stops_lawson_and_sets_converged():
    plain = minimax_fit(DISC, TargetFunction.exp(), 5)
    loose = minimax_fit(DISC, TargetFunction.exp(), 5, FitOptions(target_error=1e-2))
    assert loose.converged and loose.minimax_error <= 1e-2
    assert loose.iterations < plain.iterations
    tight = minimax_fit(DISC, TargetFunction.exp(), 5, FitOptions(target_error=1e-12))
    assert not tight.converged
    assert tight.minimax_error == plain.minimax_error


def test_constant_fit_on_a_circle_meets_its_known_minimax():
    # the best constant for values on a circle of radius rho, sampled at
    # angles no half-turn apart, is its centre, with error exactly rho; the
    # samples crowd to one side, so the least-squares seed is off centre
    rho, m = 0.75, 40
    for seed in range(3):
        jitter = np.random.default_rng(seed).uniform(0.0, 0.9, m)
        theta = 2 * np.pi * (np.arange(m) + jitter) / m
        theta += 0.8 * np.sin(theta)
        values = (0.5 - 2j) + rho * np.exp(1j * theta)
        r = minimax_fit_samples(-1 + 0.1 * np.exp(1j * theta), values, 1)
        assert r.lower_bound <= rho <= r.minimax_error <= 1.01 * r.lower_bound
        assert r.converged and r.iterations > 0


def test_converged_and_exit_code_survive_row_permutations(tmp_path, monkeypatch):
    # reordering the samples changes only the rounding of every solve; a
    # named target reads the boundary samples, so those are reordered too
    pts, bnd = DISC_DEFAULT.all_samples(), DISC_DEFAULT.boundary_samples
    src = tmp_path / "in.json"
    src.write_text(json.dumps({
        "set": {"kind": "disc", "center": [-1, 0], "radius": 0.5},
        "target": {"kind": "named", "name": "exp"},
    }))
    orders = [np.arange(pts.size)] + [
        np.random.default_rng(seed).permutation(pts.size) for seed in range(1, 6)
    ]
    boundary_orders = [np.arange(bnd.size)] + [
        np.random.default_rng(seed).permutation(bnd.size) for seed in range(1, 6)
    ]

    for n in (10, 20, 30, 40, 50, 60):
        fits, codes = [], []
        for order, border in zip(orders, boundary_orders):
            permuted = DiscretizedSet(DISC_DEFAULT.spec, DISC_DEFAULT.interior_samples, bnd[border])
            fits.append(minimax_fit_samples(pts[order], np.exp(pts[order]), n))
            fits.append(minimax_fit(permuted, TargetFunction.exp(), n))
            patches = [(DiscretizedSet, "all_samples", lambda self, o=order: pts[o]),
                       (geometry, "discretize", lambda spec, density=None, d=permuted: d)]
            for owner, name, value in patches:
                with monkeypatch.context() as m:
                    m.setattr(owner, name, value)
                    codes.append(cli_main(["fit", "--input", str(src), "--degree", str(n),
                                           "--output", str(tmp_path / "fit.json")]))
        assert {f.converged for f in fits} == {True} and set(codes) == {0}
        errs = [f.minimax_error for f in fits]
        assert max(errs) <= 1.01 * min(errs)


def test_lawson_restores_the_design_and_reports_its_coefficients_error():
    pts, y = DISC.all_samples(), np.exp(DISC.all_samples())
    A = _exp_basis(pts, 1, 30)
    before = A.copy()
    c, err, bound, *_ = fit._lawson(A, y, FitOptions())
    assert np.array_equal(A.view(np.float64), before.view(np.float64))
    assert err == float(np.abs(y - A @ c).max())
    assert 0 < bound <= err <= 1.01 * bound


# --- the rows follow the target -------------------------------------------------


def _error_on_every_sample(r, y, pts):
    """max |A c - y| over all samples, for the fit's coefficients c."""
    return float(np.abs(y - _exp_basis(pts, 1, r.polynomial.degree) @ r.polynomial.coefficients).max())


def _spiked_exp(dset, k=158, height=0.01):
    """exp on the set's samples, plus a spike at its k-th interior sample."""
    y = np.exp(dset.all_samples())
    y[dset.boundary_samples.size + k] += height
    return TargetFunction.sampled(y)


def _zero_on_the_boundary(dset):
    """0 on the set's boundary samples, e^{ik} at its k-th interior one."""
    y = np.zeros(dset.all_samples().size, dtype=complex)
    y[dset.boundary_samples.size :] = np.exp(1j * np.arange(dset.interior_samples.size))
    return TargetFunction.sampled(y)


def _bump(s):
    """1 at the centre of disc(-1, 0.5), e^{-12.5} on its circle: not holomorphic."""
    return np.exp(-50 * np.abs(s + 1) ** 2)


def test_holomorphic_fit_is_solved_on_the_boundary_and_measured_on_every_sample():
    pts = DISC_DEFAULT.all_samples()
    for n in (10, 30):
        r = minimax_fit(DISC_DEFAULT, TargetFunction.exp(), n)
        assert r.provenance["rows"] == DISC_DEFAULT.boundary_samples.size < pts.size
        assert r.provenance["premise"] == "entire" and r.converged
        assert r.minimax_error == _error_on_every_sample(r, np.exp(pts), pts)


K1 = discretize(rectangle(-1 - 1j, 1j), SampleDensity())
RING = discretize(annulus(0.0, 1.0, 2.0), SampleDensity())


def test_named_target_errors_are_their_all_sample_errors():
    # the maximum modulus principle at work: the boundary sup of each fit
    # is its sup over every sample, to the bit
    for dset, degrees in ((DISC_DEFAULT, (10, 20, 30, 40, 50, 60)), (RING, (10, 60))):
        pts = dset.all_samples()
        for n in degrees:
            r = minimax_fit(dset, TargetFunction.exp(), n)
            assert r.minimax_error == _error_on_every_sample(r, np.exp(pts), pts)
    # K_1's universal rungs for the targets 1 and s, on and off the ball
    pts, opts = K1.all_samples(), FitOptions(target_error=0.1)
    for target in (TargetFunction.const(1), TargetFunction.identity()):
        for eps in (0.25, 10.0):
            for n in (2, 6):
                r = constrained_fit(K1, target, poly(0), 0.5, eps, n, opts, lo=2)
                assert r.provenance["rows"] == K1.boundary_samples.size
                assert r.minimax_error == _error_on_every_sample(r, target.values_on(pts), pts)


@pytest.mark.parametrize("dset, make, degrees", [
    (DISC_DEFAULT, _spiked_exp, (5, 10)),
    (DISC, _zero_on_the_boundary, (3, 8)),
])
def test_sampled_targets_are_solved_on_every_sample(dset, make, degrees):
    # targets without analytic structure: the all-row solve, in one pass
    pts = dset.all_samples()
    target = make(dset)
    for n in degrees:
        r = minimax_fit(dset, target, n)
        every = minimax_fit_samples(pts, target.values, n)
        assert r.provenance["premise"] == "sampled" and r.provenance["rows"] == pts.size
        assert r.polynomial.coefficients.tobytes() == every.polynomial.coefficients.tobytes()
        assert (r.minimax_error, r.lower_bound, r.converged, r.iterations) == (
            every.minimax_error, every.lower_bound, every.converged, every.iterations,
        )
        assert r.converged
        assert r.minimax_error == _error_on_every_sample(r, target.values, pts)


def test_a_callable_that_fails_the_check_gets_the_all_row_solve():
    # the bump fits the boundary to rounding level and is 1 off inside
    pts = DISC_DEFAULT.all_samples()
    r = minimax_fit(DISC_DEFAULT, _bump, 10)
    every = minimax_fit_samples(pts, _bump(pts), 10)
    assert r.provenance["premise"] == "check failed" and r.provenance["rows"] == pts.size
    assert r.polynomial.coefficients.tobytes() == every.polynomial.coefficients.tobytes()
    assert r.minimax_error == every.minimax_error == pytest.approx(0.50199, abs=1e-5)
    assert r.iterations >= every.iterations
    # a holomorphic callable passes: its boundary fit is the named target's
    named = minimax_fit(DISC_DEFAULT, TargetFunction.exp(), 10)
    checked = minimax_fit(DISC_DEFAULT, np.exp, 10)
    assert checked.provenance["premise"] == "checked"
    assert checked.polynomial.coefficients.tobytes() == named.polynomial.coefficients.tobytes()


@pytest.mark.parametrize("target", ["exp", "spike"])
def test_bound_holds_for_perturbed_coefficients_on_every_sample(target):
    # the bound of a boundary-row solve bounds the error on all rows of
    # every coefficient vector (near the fit, where its rank-r range is
    # all that matters)
    pts = DISC_DEFAULT.all_samples()
    g = TargetFunction.exp() if target == "exp" else _spiked_exp(DISC_DEFAULT)
    y = g.values_on(pts)
    r = minimax_fit(DISC_DEFAULT, g, 8)
    A, c = _exp_basis(pts, 1, 8), r.polynomial.coefficients
    rng = np.random.default_rng(11)
    for size in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        for _ in range(20):
            dc = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            dc *= size * r.minimax_error / float(np.abs(A @ dc).max())
            assert r.lower_bound <= float(np.abs(A @ (c + dc) - y).max())


def test_bare_clouds_solve_on_all_rows_in_one_round():
    pts = DISC.all_samples()
    r = minimax_fit_samples(pts, np.exp(pts), 12)
    assert r.provenance["rows"] == pts.size and "premise" not in r.provenance
    # a bare cloud is a sampled target on a set
    s = minimax_fit(DISC, TargetFunction.sampled(np.exp(pts)), 12)
    assert s.polynomial.coefficients.tobytes() == r.polynomial.coefficients.tobytes()


def test_max_iterations_caps_the_reweightings_of_both_rounds():
    # the boundary solve and the refit after a failed check share the cap
    pts = DISC_DEFAULT.all_samples()
    bumped = lambda s: np.exp(s) + _bump(s)
    first = minimax_fit(DISC_DEFAULT, bumped, 10)
    every = minimax_fit_samples(pts, bumped(pts), 10)
    spent = first.iterations - every.iterations
    assert first.provenance["premise"] == "check failed" and spent > 0
    for cap in range(spent + 4):
        r = minimax_fit(DISC_DEFAULT, bumped, 10, FitOptions(max_iterations=cap))
        assert r.iterations <= cap and r.provenance["premise"] == "check failed"
        assert r.minimax_error == _error_on_every_sample(r, bumped(pts), pts)
        assert 0 <= r.lower_bound <= r.minimax_error


def test_no_design_row_is_an_interior_sample(monkeypatch):
    # each design is built on boundary samples, or on their images
    # 1/(s - 0) for the ring's hole piece, never on an interior sample
    # (some grid points of the interior lie on the boundary too)
    designs, touched = [], []
    basis = fit._exp_basis

    def spy(x, lo, hi):
        designs.append(np.ravel(x))
        return basis(x, lo, hi)

    def exp_seen(s):
        touched.append(np.ravel(s))
        return np.exp(s)

    monkeypatch.setattr(fit, "_exp_basis", spy)
    family = TargetFamily((
        FamilyEntry(TargetFunction.const(0.0), 1, 0.1),
        FamilyEntry(TargetFunction.const(1.0), 1, 0.1),
        FamilyEntry(TargetFunction.identity(), 1, 0.1),
    ))
    runs = [
        (DISC_DEFAULT, lambda: minimax_fit(DISC_DEFAULT, TargetFunction.exp(), 20)),
        (DISC_DEFAULT, lambda: minimax_fit(DISC_DEFAULT, exp_seen, 20)),
        (BOX, lambda: constrained_fit(BOX, TargetFunction.const(1), poly(0), 0.5, 0.25, 6, lo=2)),
        (BOX, lambda: constrained_fit(BOX, exp_seen, poly(0), 0.5, 0.25, 6, lo=2)),
        (K1, lambda: build_universal(family, UniversalOptions(block_steps=(1, 2, 5)))),
        (RING, lambda: rational_dirichlet_fit(RING, lambda s: np.exp(s) + np.exp(1 / s), [0.0], (10, 10))),
    ]
    for dset, run in runs:
        designs.clear()
        touched.clear()
        result = run()
        if hasattr(result, "provenance"):
            assert result.provenance["premise"] in ("entire", "checked")
        bnd = dset.boundary_samples
        rows = np.concatenate([x for x in designs if np.iscomplexobj(x)])
        allowed = np.concatenate([bnd, 1 / bnd]) if dset is RING else bnd
        assert rows.size and np.isin(rows, allowed).all()
        # a callable is read on the boundary and on a few dozen interior probes
        if touched:
            seen = np.concatenate(touched)
            assert 0 < np.count_nonzero(~np.isin(seen, bnd)) <= 40
            assert np.isin(seen, np.concatenate([bnd, dset.interior_samples])).all()


# --- convergence_study ---------------------------------------------------------


def test_study_zero_target():
    rows = convergence_study(DISC, TargetFunction.const(0), [1, 5])
    assert all(err <= 1e-12 for _, err in rows)


def test_study_membership_case():
    g = poly(1, 0, 0, 2j, 0.5)
    rows = convergence_study(DISC, lambda s: evaluate_many(g, s), [5, 10])
    assert all(err <= 1e-8 for _, err in rows)


def test_study_monotone_for_exp():
    rows = convergence_study(DISC, TargetFunction.exp(), [10, 20, 40, 60])
    errs = [e for _, e in rows]
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


def test_study_requires_ascending_degrees():
    with pytest.raises(InvalidInputError):
        convergence_study(DISC, TargetFunction.exp(), [10, 10])


@pytest.mark.parametrize("bad", [[2.7, 3], [True, 3], [2, "3"]])
def test_study_rejects_non_integral_degrees(bad):
    with pytest.raises(InvalidInputError):
        convergence_study(DISC, TargetFunction.exp(), bad)


def test_study_accepts_integral_floats():
    rows = convergence_study(DISC, TargetFunction.exp(), [3.0, np.int64(5)])
    assert rows == convergence_study(DISC, TargetFunction.exp(), [3, 5])
    assert [type(n) for n, _ in rows] == [int, int]


# --- weighted-l1 projection ------------------------------------------------------


def test_projection_inside_ball_is_identity():
    v = np.array([0.1, -0.2j, 0.05])
    w = np.ones(3)
    np.testing.assert_array_equal(project_weighted_l1(v, w, 1.0), v)


def test_projection_lands_on_sphere_and_keeps_phases():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    w = np.exp(-np.log(np.arange(1, 21)))
    out = project_weighted_l1(v, w, 0.3)
    assert float(np.sum(w * np.abs(out))) == pytest.approx(0.3, abs=1e-9)
    nz = np.abs(out) > 0
    phase_diff = np.angle(out[nz]) - np.angle(v[nz])
    assert np.max(np.abs(phase_diff)) <= 1e-12


def test_projection_is_euclidean_optimal_against_random_feasible():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    w = rng.uniform(0.2, 2.0, 12)
    out = project_weighted_l1(v, w, 0.7)
    d_opt = np.linalg.norm(out - v)
    for _ in range(200):
        cand = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        semi = float(np.sum(w * np.abs(cand)))
        cand *= 0.7 / max(semi, 0.7)  # force into the ball
        assert np.linalg.norm(cand - v) >= d_opt - 1e-9


def _bisection_threshold(v, w, radius):
    """The projection's threshold lambda by bisection on the constraint
    value, as it was once computed (valid for positive weights)."""
    mags = np.abs(v)

    def constraint(lam):
        return float(np.sum(w * np.maximum(mags - lam * w, 0.0)))

    lo, hi = 0.0, float((mags / np.maximum(w, 1e-300)).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if constraint(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return hi


def test_projection_radius_zero_gives_zeros():
    v = np.array([1 + 1j, -2.0, 0.5j])
    np.testing.assert_array_equal(project_weighted_l1(v, np.array([1.0, 0.5, 2.0]), 0.0), 0)


def test_projection_leaves_zero_weight_entries_alone():
    v = np.array([3.0, 1j, -2.0, 0.5])
    w = np.array([1.0, 0.0, 1.0, 0.0])
    with np.errstate(all="raise"):
        out = project_weighted_l1(v, w, 1.0)
        at_zero = project_weighted_l1(v, w, 0.0)
    np.testing.assert_array_equal(out[w == 0], v[w == 0])
    np.testing.assert_allclose(out[w > 0], [1.0, 0.0], atol=1e-15)  # lam = 2
    np.testing.assert_array_equal(at_zero, [0, 1j, 0, 0.5])


def test_projection_tied_breakpoints():
    with np.errstate(all="raise"):
        # three-way tie above the threshold: lam = (9 - 3) / 3 = 2
        out = project_weighted_l1(np.array([3.0, 3.0, 3.0, 1.0]), np.ones(4), 3.0)
        np.testing.assert_allclose(out, [1, 1, 1, 0], rtol=1e-15)
        # the tied entries sit exactly at the threshold lam = 1
        out = project_weighted_l1(np.array([2.0, 2.0, 1.0, 1.0]), np.ones(4), 2.0)
        np.testing.assert_allclose(out, [1, 1, 0, 0], rtol=1e-15, atol=1e-15)
        # equal ratios |v|/w from different weights
        out = project_weighted_l1(np.array([2.0, 4.0j]), np.array([1.0, 2.0]), 5.0)
        np.testing.assert_allclose(out, [1.0, 2.0j], rtol=1e-15)


def test_projection_zero_entries_and_empty_input():
    with np.errstate(all="raise"):
        out = project_weighted_l1(np.array([0.0, 1.0, 0.0, 2.0j]), np.ones(4), 1.0)
        np.testing.assert_allclose(out, [0, 0, 0, 1j], atol=1e-15)
        assert project_weighted_l1(np.zeros(0, dtype=complex), np.zeros(0), 1.0).size == 0


def _sorted_projection(v, w, radius):
    """The projection with every breakpoint sorted, as it was once computed."""
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
    ks = np.flatnonzero(lams < t[order])
    lam = lams[ks[-1] if ks.size else 0]
    return phases * np.maximum(mags - lam * w, 0.0)


@pytest.mark.parametrize("seed", range(12))
def test_projection_by_selection_matches_the_full_sort_bytewise(seed):
    # the projection sorts every breakpoint; these inputs once checked a
    # partial selection of them against the full sort, and keep its bytes:
    # sizes on both sides of 1,024 entries, ties, zero entries, zero
    # weights, near-equal moduli, radii from tiny to nearly the total
    rng = np.random.default_rng(seed)
    for trial in range(25):
        n = int(rng.choice([1, 7, 900, 1024, 1461, 3000]))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kind = (seed + trial) % 4
        if kind == 1:
            v = np.round(2 * v) / 2
        elif kind == 2:
            v = np.exp(1j * rng.uniform(0, 2 * math.pi, n)) * (1 + 1e-15 * rng.integers(0, 3, n))
        v[rng.random(n) < 0.1] = 0
        w = np.ones(n) if trial % 2 else np.exp(rng.uniform(-3, 1, n))
        if kind == 3:
            w[rng.random(n) < 0.2] = 0
        total = float(np.sum(w * np.abs(v)))
        radius = total * float(rng.choice([1e-6, rng.uniform(0, 0.1), rng.uniform(0, 1), 0.999]))
        got = project_weighted_l1(v, w, radius)
        assert got.tobytes() == _sorted_projection(v, w, radius).tobytes()


def test_projection_by_selection_on_tied_and_rounding_level_breakpoints():
    rng = np.random.default_rng(0)
    # equal breakpoints |v|/w from different weights, exact in powers of two
    for _ in range(40):
        w = 2.0 ** rng.integers(-3, 3, 1500)
        v = w * (np.round(2 * rng.standard_normal(1500)) + 1j * np.round(2 * rng.standard_normal(1500))) / 2
        radius = float(np.sum(w * np.abs(v))) * rng.uniform(0, 0.2)
        assert project_weighted_l1(v, w, radius).tobytes() == _sorted_projection(v, w, radius).tobytes()
    # a radius at the rounding level of a breakpoint: lam_k < t_k fails at
    # some k = 32 * 2^i (where a selection doubling from 32 would stop) and
    # holds again for a later k, which the full sort takes
    ends = [32 * 2**i - 1 for i in range(6)]
    for trial in range(3000):
        v = np.exp(1j * rng.uniform(0, 2 * math.pi, 2000))
        big = int(rng.integers(1, 40))
        v[:big] *= 2
        m = np.abs(v)
        order = np.argsort(-m, kind="stable")
        radius = float(np.sum(m[order[:big]] - m[order[big:]].max())) * (1 + rng.uniform(-1e-13, 1e-13))
        lams = (np.cumsum(m[order]) - radius) / np.arange(1, 2001)
        holds = np.flatnonzero(lams < m[order])
        if holds.size and any(e < holds[-1] and lams[e] >= m[order][e] for e in ends):
            break
    else:
        pytest.fail("no rounding-level case drawn")
    w = np.ones(2000)
    assert project_weighted_l1(v, w, radius).tobytes() == _sorted_projection(v, w, radius).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_projection_matches_bisection_and_kkt(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v[rng.random(n) < 0.1] = 0
    w = np.exp(rng.uniform(-3, 1, n))
    total = float(np.sum(w * np.abs(v)))
    if total == 0:
        v[0], total = 1.0, float(w[0])
    radius = float(rng.uniform(0.05, 0.95)) * total
    out = project_weighted_l1(v, w, radius)
    lam_ref = _bisection_threshold(v, w, radius)
    mags, dmags = np.abs(v), np.abs(out)
    supp = dmags > 0
    assert float(np.sum(w * dmags)) <= radius * (1 + 1e-12)
    # the threshold read off the result agrees with bisection
    lam = float(np.sum(w[supp] * (mags[supp] - dmags[supp])) / np.sum(w[supp] ** 2))
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    # KKT: shrink by lam * w on the support, below the threshold off it
    scale = float(mags.max())
    np.testing.assert_allclose(mags[supp] - dmags[supp], lam_ref * w[supp], rtol=0, atol=1e-13 * scale)
    assert np.all(mags[~supp] <= lam_ref * w[~supp] * (1 + 1e-12))


# --- constrained_fit -------------------------------------------------------------


def test_inactive_constraint_matches_minimax():
    plain = minimax_fit(BOX, TargetFunction.exp(), 20)
    con = constrained_fit(BOX, TargetFunction.exp(), poly(0), 1.0, 1e6, 20)
    assert abs(con.minimax_error - plain.minimax_error) <= 1e-8
    assert con.provenance["route"] == "unconstrained"


def test_target_equal_to_f_gives_f_back():
    f = poly(0.5, 1, 0, 2)
    con = constrained_fit(BOX, lambda s: evaluate_many(f, s), f, 1.0, 0.25, 8)
    assert con.minimax_error <= 1e-8
    assert con.constraint_value <= 1e-8
    assert con.converged


def test_binding_constraint_is_respected_exactly():
    f = poly(0, 1)
    r = constrained_fit(
        BOX, TargetFunction.const(1), f, 1.0, 0.5, 60, FitOptions(max_iterations=30)
    )
    h_minus_f = r.polynomial.coefficients.copy()
    h_minus_f[1] -= 1
    assert seminorm_sigma(DirichletPolynomial(h_minus_f), 1.0) <= 0.5 * (1 + 1e-12)
    assert r.constraint_value <= 0.5 * (1 + 1e-12)


def test_infeasible_at_degree_reports_unconverged():
    # degree 1 cannot express the oscillation of the target at all
    r = constrained_fit(
        BOX,
        TargetFunction.const(1),
        poly(0, 1),
        1.0,
        0.5,
        2,
        FitOptions(target_error=0.1, max_iterations=20),
    )
    assert not r.converged
    assert r.minimax_error > 0.1


def test_ball_route_bound_holds_across_the_ball():
    # the constant 1 from n = 2..6 under sum |a_n| n^{-1/2} <= 0.25: the
    # ball binds, and the ADMM certificate bounds the sampled error of the
    # fit and of random coefficient vectors projected into the ball
    r = constrained_fit(BOX, TargetFunction.const(1), poly(0), 0.5, 0.25, 6, lo=2)
    assert r.provenance["route"] == "lawson+admm" and r.converged
    assert 0.6 <= r.lower_bound <= r.minimax_error <= 1.01 * r.lower_bound
    A, u = _exp_basis(BOX.all_samples(), 2, 6), _exp_basis(0.5, 2, 6)
    rng = np.random.default_rng(7)
    for scale in (0.1, 1.0, 10.0):
        for _ in range(20):
            v = scale * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
            d = project_weighted_l1(v, u, 0.25)
            assert r.lower_bound <= float(np.abs(A @ d - 1).max())


def test_target_error_stops_the_ball_route():
    args = (BOX, TargetFunction.const(1), poly(0), 0.5, 0.25, 6)
    plain = constrained_fit(*args, lo=2)
    loose = constrained_fit(*args, FitOptions(target_error=0.7), lo=2)
    assert loose.provenance["route"] == "lawson+admm"
    assert loose.converged and loose.minimax_error <= 0.7
    assert loose.iterations < plain.iterations
    tight = constrained_fit(*args, FitOptions(target_error=0.1), lo=2)
    assert not tight.converged and tight.lower_bound > 0.1


def test_flat_stage_is_certified_out_of_reach():
    # the universal stage "one" of the flat family (0, 1, s) at N = 3: the
    # constant 1 on K_1 from n = 2, 3 under sum |a_n| n^{-1/2} <= 0.25
    k1 = discretize(rectangle(-1 - 1j, 1j), SampleDensity())
    r = constrained_fit(
        k1, TargetFunction.const(1), poly(0), 0.5, 0.25, 3, FitOptions(target_error=0.1), lo=2
    )
    assert r.provenance["route"] == "lawson+admm" and not r.converged
    assert r.lower_bound >= 0.7



@pytest.mark.parametrize(
    "target, eps, degree, route",
    [
        (TargetFunction.const(1), 10.0, 3, "unconstrained"),  # Lawson's bound rules it out
        (TargetFunction.identity(), 0.25, 2, "lawson+admm"),  # ... then ADMM finds a feasible point
        (TargetFunction.const(1), 0.25, 18, "lawson+admm"),  # rank 12 of 17: only ADMM's certificate
    ],
)
def test_ruled_out_fit_is_feasible_and_its_bound_holds_across_the_ball(target, eps, degree, route):
    opts = FitOptions(target_error=0.1)
    r = constrained_fit(K1, target, poly(0), 0.5, eps, degree, opts, lo=2, rule_out=True)
    assert r.provenance["route"] == route and r.provenance["ruled_out"] is True
    assert r.constraint_value <= eps * (1 + 1e-12) and not r.converged
    assert r.lower_bound > 0.1
    # it stopped early: the same fit without the rule runs on
    full = constrained_fit(K1, target, poly(0), 0.5, eps, degree, opts, lo=2)
    assert r.iterations < full.iterations and not full.converged
    A, u = _exp_basis(K1.all_samples(), 2, degree), _exp_basis(0.5, 2, degree)
    g = target.values_on(K1.all_samples())
    rng = np.random.default_rng(11)
    for k in range(200):
        v = 10.0 ** (k % 4 - 2) * (rng.standard_normal(degree - 1) + 1j * rng.standard_normal(degree - 1))
        d = project_weighted_l1(v, u, eps)
        assert r.lower_bound <= float(np.abs(A @ d - g).max())


def test_a_lawson_rule_out_stops_admm_at_its_first_check():
    # test_05's stage "one" at N = 2: Lawson rules the target out at full
    # rank, so ADMM is asked only for a feasible point
    opts = FitOptions(target_error=0.1)
    args = (K1, TargetFunction.const(1), poly(0), 0.5)
    lawson = constrained_fit(*args, 1e6, 2, opts, lo=2, rule_out=True)
    assert lawson.provenance["route"] == "unconstrained" and lawson.provenance["ruled_out"]
    r = constrained_fit(*args, 0.25, 2, opts, lo=2, rule_out=True)
    assert r.provenance["route"] == "lawson+admm" and r.provenance["ruled_out"]
    assert r.iterations <= fit._CHECK_EVERY
    assert r.constraint_value <= 0.25 * (1 + 1e-12) and not r.converged
    assert r.lower_bound >= lawson.lower_bound > 0.1


def test_rule_out_needs_a_target_and_is_recorded_only_when_asked():
    args = (K1, TargetFunction.const(1), poly(0), 0.5, 10.0, 3)
    plain = constrained_fit(*args, lo=2)
    assert "ruled_out" not in plain.provenance
    # without a target_error there is nothing to rule out: the same fit
    asked = constrained_fit(*args, lo=2, rule_out=True)
    assert asked.provenance.pop("ruled_out") is False
    assert json.dumps(asked.to_json_dict()) == json.dumps(plain.to_json_dict())
    # a reachable target is never ruled out
    loose = constrained_fit(*args, FitOptions(target_error=0.5), lo=2, rule_out=True)
    assert loose.converged and loose.provenance["ruled_out"] is False


def test_lawson_bound_below_full_rank_never_rules_out():
    # a duplicated column leaves rank 3 of 4 columns: the bound covers only
    # the rank-3 range, so it must not stop the solve whatever it reads
    pts = BOX.all_samples()
    A = _exp_basis(pts, 1, 4)
    A[:, 3] = A[:, 2]
    y = np.ones(pts.size, dtype=complex)
    plain = fit._lawson(A.copy(), y, FitOptions())
    given = fit._lawson(A.copy(), y, FitOptions(), give_up=0.0)
    assert plain[4] == 3 and plain[2] > 0.0
    assert [np.asarray(a).tobytes() for a in plain] == [np.asarray(a).tobytes() for a in given]
    assert not fit._rules_out(given[2], given[4], A.shape[1], 0.0)


def test_free_block_leaves_f_below_lo():
    # only n = 4..6 may move: 4^{-s} is reached there, and a_1..a_3 stay f's
    f = poly(0.5, 1, 0.25)
    target = lambda s: evaluate_many(f, s) + 4.0 ** (-s)
    r = constrained_fit(BOX, target, f, 1.0, 10.0, 6, lo=4)
    assert np.array_equal(r.polynomial.coefficients[:3], f.coefficients)
    assert r.minimax_error <= 1e-8
    assert r.provenance["support"] == "3 of 6"
    for lo in (0, 7):
        with pytest.raises(InvalidInputError, match="first free index"):
            constrained_fit(BOX, target, f, 1.0, 10.0, 6, lo=lo)


def test_geometry_guard_and_waiver():
    right = discretize(rectangle(0.5 - 1j, 1.5 + 1j), SampleDensity(0.2, 0.4))
    with pytest.raises(InvalidInputError):
        constrained_fit(right, TargetFunction.const(1), poly(1), 1.0, 0.5, 4)
    r = constrained_fit(
        right,
        TargetFunction.const(1),
        poly(1),
        1.0,
        0.5,
        4,
        FitOptions(allow_right_of_zero=True),
    )
    assert r.provenance["geometry_waiver"] is True


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidInputError):
        constrained_fit(BOX, TargetFunction.const(1), poly(1), -1.0, 0.5, 4)
    with pytest.raises(InvalidInputError):
        constrained_fit(BOX, TargetFunction.const(1), poly(1), 1.0, 0.0, 4)
    with pytest.raises(InvalidInputError):
        constrained_fit(BOX, TargetFunction.const(1), poly(1, 2, 3), 1.0, 0.5, 2)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            constrained_fit(BOX, TargetFunction.const(1), poly(1), bad, 0.5, 4)
        with pytest.raises(InvalidInputError):
            constrained_fit(BOX, TargetFunction.const(1), poly(1), 1.0, bad, 4)
    # degrees and the first free index are integers: no truncation, no booleans
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidInputError, match="degree"):
            minimax_fit(DISC, TargetFunction.exp(), bad)
        with pytest.raises(InvalidInputError, match="degree"):
            minimax_fit_samples(DISC.all_samples(), np.exp(DISC.all_samples()), bad)
    with pytest.raises(InvalidInputError, match="degree"):
        constrained_fit(BOX, TargetFunction.const(1), poly(1), 1.0, 0.5, 3.5)
    with pytest.raises(InvalidInputError, match="lo"):
        constrained_fit(BOX, TargetFunction.const(1), poly(1), 1.0, 0.5, 4, lo=1.5)
    assert minimax_fit(DISC, TargetFunction.exp(), 3.0).polynomial.degree == 3
    assert constrained_fit(BOX, TargetFunction.const(1), poly(1), 1.0, 0.5, 3.0, lo=2.0).polynomial.degree == 3


@pytest.mark.parametrize("bad", [{"target_error": math.nan}, {"target_error": math.inf},
                                 {"target_error": -1.0}, {"max_iterations": -1},
                                 {"max_iterations": 2.5}, {"max_iterations": True}])
def test_fit_options_rejects_bad_fields(bad):
    (field,) = bad
    with pytest.raises(InvalidInputError, match=field):
        FitOptions(**bad)
    assert FitOptions(target_error=0.0, max_iterations=0).max_iterations == 0
    assert type(FitOptions(max_iterations=3.0).max_iterations) is int
