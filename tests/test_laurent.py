"""Cauchy splitting and rational Dirichlet fits on holed domains."""

import math

import numpy as np
import pytest

from dirapprox import laurent as laurent_mod
from dirapprox.errors import InvalidAnchorError, InvalidInputError, PoleError
from dirapprox.geometry import (
    SampleDensity,
    annulus,
    disc,
    discretize,
    jordan_polygon,
    quadrature_contours,
    rectangle,
    union_of_disjoint,
)
from dirapprox.laurent import (
    CauchyPiece,
    LaurentPieces,
    RationalDirichletFunction,
    evaluate_piece,
    evaluate_rational,
    laurent_decompose,
    rational_dirichlet_fit,
    rational_from_json_dict,
    rational_to_json_dict,
)
from dirapprox.series import DirichletPolynomial, evaluate


@pytest.fixture(scope="module")
def ring():
    return discretize(annulus(0, 1.0, 2.0))


def ring_points(n, seed=7):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(1.0, 4.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


# ---------------------------------------------------------------------------
# decomposition against closed forms
# ---------------------------------------------------------------------------


def test_split_of_s_plus_inverse(ring):
    pieces = laurent_decompose(ring, lambda s: s + 1 / s, [0.0])
    pts = ring_points(100)
    assert pieces.residual <= 1e-8
    assert not pieces.warning
    assert np.abs(pieces.f0(pts) - pts).max() <= 1e-8
    assert np.abs(pieces.hole_piece(0, pts) - 1 / pts).max() <= 1e-8


def test_split_of_pure_inverse(ring):
    pieces = laurent_decompose(ring, lambda s: 1 / s, [0.0])
    pts = ring_points(50)
    assert np.abs(pieces.f0(pts)).max() <= 1e-8
    assert np.abs(pieces.hole_piece(0, pts) - 1 / pts).max() <= 1e-8


def test_exponential_of_inverse_against_series(ring):
    # truncated series of exp(1/s): hole part is every negative power
    pieces = laurent_decompose(ring, lambda s: np.exp(1 / s), [0.0])
    pts = ring_points(60)
    oracle = sum(pts ** -float(m) / math.factorial(m) for m in range(1, 31))
    assert np.abs(pieces.f0(pts) - 1.0).max() <= 1e-6
    assert np.abs(pieces.hole_piece(0, pts) - oracle).max() <= 1e-6


def test_reconstruction_at_random_points(ring):
    pieces = laurent_decompose(ring, lambda s: np.exp(s) + np.exp(1 / s), [0.0])
    pts = ring_points(100, seed=11)
    truth = np.exp(pts) + np.exp(1 / pts)
    assert np.abs(pieces.reconstruct(pts) - truth).max() <= 1e-8


def test_hole_pieces_vanish_at_infinity(ring):
    pieces = laurent_decompose(ring, lambda s: np.exp(s) + np.exp(1 / s), [0.0])
    assert all(v <= 1e-4 for v in pieces.far_probe)
    far = complex(evaluate_piece(pieces.holes[0], 1e6 * (0.6 + 0.8j)))
    assert abs(far) <= 1e-4


def test_piece_at_its_own_nodes_returns_the_stored_datum(ring):
    # the circle repeats its seam node at index 0 and m; the hit takes the
    # datum of the last equal node there.  The piece is built by hand so
    # that the seam data differ, as rounding makes them at some node counts
    contour = ring.spec.loops[0].contour(64)
    nodes = contour.points
    values = nodes + 1 / nodes
    values[-1] += 1e-12
    piece = CauchyPiece(contour, values, values.copy())
    assert nodes[0] == nodes[-1] and piece.values[0] != piece.values[-1]
    expected = piece.values.copy()
    expected[0] = piece.values[-1]
    got = evaluate_piece(piece, nodes)
    assert np.array_equal(got, expected)
    # hits mixed with ordinary targets in one chunk leave the others finite
    mixed = evaluate_piece(piece, np.concatenate([nodes[5:9], ring_points(4)]))
    assert np.array_equal(mixed[:4], piece.values[5:9])
    assert np.all(np.isfinite(mixed))


def test_nearby_singularity_forces_doubling(ring):
    # pole just beyond the outer circle: 512 nodes are not enough
    pieces = laurent_decompose(ring, lambda s: 1 / (s - 2.05) + 1 / s, [0.0])
    assert pieces.nodes_per_contour > 512
    assert pieces.residual <= 1e-8


def test_pole_near_a_polygon_edge_forces_doubling():
    # pole 0.05 below the triangle's bottom edge: the ladder goes past 512
    dset = discretize(jordan_polygon([0, 2, 1 + 1.5j]))
    pieces = laurent_decompose(dset, lambda s: 1 / (s - (1 - 0.05j)), [])
    assert pieces.nodes_per_contour > 512
    assert pieces.residual <= 1e-8 and not pieces.warning


def test_a_round_that_repeats_the_last_contours_is_skipped(monkeypatch):
    # a rectangle's contours at 16 and 32 nodes are the same 50 points: the
    # 32-node round is skipped, and the ladder ends where it did, with the
    # pieces and residual of that round built directly
    dset = discretize(rectangle(-1 - 1j, 1 + 1j), SampleDensity(0.05, 0.2))
    f = lambda s: 1 / (s - 1.05)  # pole 0.05 right of the right edge
    sizes = {n: [c.points.size for c in quadrature_contours(dset.spec, n)] for n in (16, 32)}
    assert sizes == {16: [50], 32: [50]}
    built = []
    build = laurent_mod._build_pieces

    def counted(loops, *args):
        built.append(loops[0].points.size)
        return build(loops, *args)

    monkeypatch.setattr(laurent_mod, "_build_pieces", counted)
    pieces = laurent_decompose(dset, f, [])
    assert built == [50, 98, 146, 290, 530, 1058]  # 16, 64, ..., 1024 nodes: six builds, not seven
    assert pieces.nodes_per_contour == 1024
    outer, _ = build(quadrature_contours(dset.spec, 1024), f, [])
    assert [p.values.tobytes() for p in pieces.outer] == [p.values.tobytes() for p in outer]
    probes = dset.all_samples()
    assert pieces.residual == laurent_mod._residual(outer, probes, f(probes))


@pytest.mark.parametrize("spec, f, anchors", [
    (annulus(0, 1.0, 2.0), lambda s: np.exp(s) + np.exp(1 / s), [0.0]),
    (rectangle(-2 - 1j, -0.5 + 1j), np.exp, []),
    (jordan_polygon([0, 2, 1 + 1.5j]), lambda s: s * s, []),
    (union_of_disjoint([rectangle(-4 - 1j, -2 + 1j), annulus(2, 0.5, 1.0)]),
     lambda s: np.exp(s) + 1 / (s - 2), [2.0]),
], ids=["ring", "rectangle", "triangle", "union"])
def test_smooth_input_stops_early_at_the_rounding_floor(spec, f, anchors):
    # the trapezoid and Gauss rules converge geometrically on analytic data:
    # the ladder stops long before 512 nodes, at the rounding floor
    dset = discretize(spec)
    pieces = laurent_decompose(dset, f, anchors)
    scale = max(1.0, float(np.abs(f(dset.all_samples())).max()))
    assert pieces.nodes_per_contour <= 128
    assert pieces.residual <= 1e-13 * scale and not pieces.warning


def test_nonholomorphic_input_sets_warning(ring):
    pieces = laurent_decompose(ring, lambda s: np.abs(s) ** 2 + 0j, [0.0])
    assert pieces.warning
    assert pieces.residual > 1e-8


def test_disc_split_is_the_function_itself():
    dset = discretize(disc(0, 1.0))
    pieces = laurent_decompose(dset, np.exp, [])
    assert pieces.holes == ()
    pts = 0.5 * ring_points(40) / 2  # radius <= 0.5
    assert np.abs(pieces.f0(pts) - np.exp(pts)).max() <= 1e-10


def test_union_of_discs_reconstructs():
    spec = union_of_disjoint([disc(-2.5, 1.0), disc(2.5, 1.0)])
    dset = discretize(spec)
    pieces = laurent_decompose(dset, np.exp, [])
    assert len(pieces.outer) == 2
    pts = np.concatenate([-2.5 + 0.6 * ring_points(30) / 2, 2.5 + 0.6 * ring_points(30, seed=9) / 2])
    assert np.abs(pieces.reconstruct(pts) - np.exp(pts)).max() <= 1e-8


def test_union_with_an_annulus_beside_a_disc_reconstructs():
    # the annulus's outer piece is 1/(2 - s) beyond its circle, where the disc sits
    spec = union_of_disjoint([disc(-3, 0.5), annulus(2, 0.5, 1.0)])
    dset = discretize(spec, SampleDensity(0.02, 0.1))
    pieces = laurent_decompose(dset, lambda s: np.exp(s) + 1 / (s - 2), [2.0])
    assert pieces.residual <= 1e-10 and not pieces.warning


def test_union_with_a_disc_inside_an_annulus_hole_reconstructs():
    # the hole piece is evaluated inside its own hole, on the inner disc
    spec = union_of_disjoint([annulus(0, 1, 2), disc(0, 0.3)])
    dset = discretize(spec, SampleDensity(0.02, 0.1))
    pieces = laurent_decompose(dset, lambda s: np.exp(s) + 1 / (s - 0.6), [0.6])
    assert pieces.residual <= 1e-10 and not pieces.warning


@pytest.mark.parametrize("spec, f, anchors", [
    (rectangle(-2 - 1j, -0.5 + 1j), np.exp, []),
    (jordan_polygon([0, 2, 1 + 1.5j]), lambda s: s * s, []),
    (union_of_disjoint([rectangle(-4 - 1j, -2 + 1j), annulus(2, 0.5, 1.0)]),
     lambda s: np.exp(s) + 1 / (s - 2), [2.0]),
], ids=["rectangle", "triangle", "rectangle-and-annulus"])
def test_polygon_split_reconstructs_up_to_the_corners(spec, f, anchors):
    # the boundary samples include the corners, where the loop winds only
    # a quarter (or a fraction) of a turn: the set's side is still the
    # compensated form's side
    pieces = laurent_decompose(discretize(spec), f, anchors)
    assert pieces.residual <= 1e-12 and not pieces.warning


# ---------------------------------------------------------------------------
# anchor validation
# ---------------------------------------------------------------------------


def test_anchor_outside_hole_rejected(ring):
    with pytest.raises(InvalidAnchorError):
        laurent_decompose(ring, lambda s: 1 / s, [1.5])


def test_anchor_on_hole_boundary_rejected(ring):
    with pytest.raises(InvalidAnchorError):
        laurent_decompose(ring, lambda s: 1 / s, [1.0])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_bad_residual_tol_rejected_before_any_quadrature(ring, tol, monkeypatch):
    def built(*args, **kw):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(laurent_mod, "_build_pieces", built)
    with pytest.raises(InvalidInputError):
        laurent_decompose(ring, lambda s: 1 / s, [0.0], residual_tol=tol)


def test_anchor_count_must_match_holes(ring):
    with pytest.raises(InvalidAnchorError):
        laurent_decompose(ring, lambda s: 1 / s, [])
    with pytest.raises(InvalidAnchorError):
        laurent_decompose(ring, lambda s: 1 / s, [0.0, 0.1])
    with pytest.raises(InvalidAnchorError):
        laurent_decompose(discretize(disc(0, 1.0)), np.exp, [0.0])


# ---------------------------------------------------------------------------
# rational evaluation
# ---------------------------------------------------------------------------


def test_empty_parts_is_plain_polynomial():
    p0 = DirichletPolynomial([1.0, -0.5, 0.25])
    r = RationalDirichletFunction(p0)
    for s in (0.3 + 0.4j, -1.0, 2.0 - 1.0j):
        assert evaluate_rational(r, s) == evaluate(p0, s)


def test_single_part_at_unit_point():
    coeffs = [0.0, 0.5, -0.25, 0.125]
    r = RationalDirichletFunction(DirichletPolynomial([0.0]), ((0j, DirichletPolynomial(coeffs)),))
    # s = 1 puts the part at w = 1, i.e. the n^{-1} weighting
    expected = sum(c / (n + 1) for n, c in enumerate(coeffs))
    assert abs(evaluate_rational(r, 1.0) - expected) <= 1e-15


def test_rational_matches_termwise_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p0 = DirichletPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        c1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z1, z2 = 0.0 + 0.0j, 1.0 + 1.0j
        r = RationalDirichletFunction(p0, ((z1, DirichletPolynomial(c1)), (z2, DirichletPolynomial(c2))))
        s = complex(rng.standard_normal() + 3.0, rng.standard_normal())
        direct = sum(a * (n + 1) ** -s for n, a in enumerate(p0.coefficients))
        direct += sum(a * (n + 1) ** (-1.0 / (s - z1)) for n, a in enumerate(c1))
        direct += sum(a * (n + 1) ** (-1.0 / (s - z2)) for n, a in enumerate(c2))
        assert abs(evaluate_rational(r, s) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_rational_evaluates_arrays_pointwise():
    p0 = DirichletPolynomial([1.0, -0.5j, 0.25])
    r = RationalDirichletFunction(p0, ((0j, DirichletPolynomial([0.0, 0.5, -0.25])),
                                       (1 + 1j, DirichletPolynomial([0.0, 1j]))))
    pts = np.array([[0.3 + 0.4j, -1.0], [2.0 - 1.0j, 3.0j]])
    got = evaluate_rational(r, pts)
    assert got.shape == pts.shape
    assert got.tolist() == [[evaluate_rational(r, s) for s in row] for row in pts]
    assert r(pts).tolist() == got.tolist()
    assert isinstance(evaluate_rational(r, 2.0), complex)


def test_evaluation_at_anchor_is_a_pole():
    r = RationalDirichletFunction(DirichletPolynomial([1.0]), ((0.5 + 0j, DirichletPolynomial([0, 1.0])),))
    with pytest.raises(PoleError):
        evaluate_rational(r, 0.5)
    with pytest.raises(PoleError):
        evaluate_rational(r, np.array([1.0, 0.5]))


def test_duplicate_anchors_rejected():
    with pytest.raises(InvalidInputError):
        RationalDirichletFunction(
            DirichletPolynomial([1.0]),
            ((0j, DirichletPolynomial([0, 1.0])), (0j, DirichletPolynomial([0, 2.0]))),
        )


# ---------------------------------------------------------------------------
# rational fits
# ---------------------------------------------------------------------------


def test_fit_recovers_member_of_the_class(ring):
    truth = RationalDirichletFunction(
        DirichletPolynomial([0.3, 0.7]), ((0j, DirichletPolynomial([0.0, 0.4, -0.2])),)
    )

    def f(s):
        s = np.asarray(s, dtype=complex)
        return 0.3 + 0.7 * 2.0 ** -s + 0.4 * 2.0 ** (-1 / s) - 0.2 * 3.0 ** (-1 / s)

    fitted, err = rational_dirichlet_fit(ring, f, [0.0], (2, 3))
    assert err <= 1e-6
    assert abs(fitted.parts[0][1].coefficients[0]) == 0.0


def test_fit_of_pure_inverse(ring):
    fitted, err = rational_dirichlet_fit(ring, lambda s: 1 / s, [0.0], (1, 60))
    assert err <= 1e-6


def test_fit_error_halves_with_degree(ring):
    target = lambda s: np.exp(s) + np.exp(1 / s)
    _, e_low = rational_dirichlet_fit(ring, target, [0.0], (10, 10))
    _, e_high = rational_dirichlet_fit(ring, target, [0.0], (60, 60))
    assert e_high < 0.5 * e_low


def test_fit_error_accounting(ring):
    # sampled sup of the assembly is bounded by the per-piece fit errors
    # plus the reconstruction residual; the piece fits are re-run here
    # (the solver is deterministic) to obtain their individual errors,
    # on the boundary samples the fit solves on
    from dirapprox.fit import _fit_samples

    target = lambda s: np.exp(s) + np.exp(1 / s)
    pieces = laurent_decompose(ring, target, [0.0])
    fitted, err = rational_dirichlet_fit(ring, target, [0.0], (20, 20))
    assert not pieces.warning
    samples = ring.boundary_samples

    hole_fit = _fit_samples(1 / samples, evaluate_piece(pieces.holes[0], samples), 20)[0]
    relocated = hole_fit.polynomial.coefficients[0]
    outer_fit = _fit_samples(samples, pieces.f0(samples) + relocated, 20)[0]
    assert err <= outer_fit.minimax_error + hole_fit.minimax_error + pieces.residual + 1e-10


def test_reported_sup_error_is_reproducible(ring):
    target = lambda s: np.exp(s) + np.exp(1 / s)
    fitted, err = rational_dirichlet_fit(ring, target, [0.0], (12, 12))
    samples = ring.all_samples()[::7]
    recomputed = max(
        abs(evaluate_rational(fitted, complex(s)) - complex(np.exp(s) + np.exp(1 / s))) for s in samples
    )
    assert recomputed <= err + 1e-10


@pytest.mark.parametrize("degrees", [(10, 10), (60, 60)])
@pytest.mark.parametrize("density", [SampleDensity(), SampleDensity(0.05, 0.25)], ids=["default", "coarse"])
def test_reported_sup_error_is_evaluate_rationals_to_the_bit(degrees, density):
    # the error is summed from the piece fits' own designs, in
    # evaluate_rational's order, so it is that evaluation's error exactly
    dset = discretize(annulus(0.0, 1.0, 2.0), density)
    target = lambda s: np.exp(s) + np.exp(1 / s)
    fitted, err = rational_dirichlet_fit(dset, target, [0.0], degrees)
    samples = dset.all_samples()
    assert err == float(np.abs(evaluate_rational(fitted, samples) - target(samples)).max())


def test_degree_list_validation(ring):
    with pytest.raises(InvalidInputError):
        rational_dirichlet_fit(ring, lambda s: 1 / s, [0.0], (10,))
    with pytest.raises(InvalidInputError):
        rational_dirichlet_fit(ring, lambda s: 1 / s, [0.0], (10, 1))
    for bad in [(2.7, 3), (True, 3), (3, 2.5)]:  # int() would truncate these
        with pytest.raises(InvalidInputError):
            rational_dirichlet_fit(ring, lambda s: 1 / s, [0.0], bad)


def test_integral_float_degrees_are_accepted(ring):
    f = lambda s: s + 1 / s
    r, err = rational_dirichlet_fit(ring, f, [0.0], (3.0, 3.0))
    assert (r, err) == rational_dirichlet_fit(ring, f, [0.0], (3, 3))


def test_json_round_trip():
    r = RationalDirichletFunction(
        DirichletPolynomial([1.0, 2.0 + 1.0j]),
        ((0.5j, DirichletPolynomial([0.0, -1.0])), (2.0 + 0j, DirichletPolynomial([0.0, 0.25j, 1.0]))),
    )
    back = rational_from_json_dict(rational_to_json_dict(r))
    assert back.p0 == r.p0
    assert back.parts == r.parts
    with pytest.raises(InvalidInputError):
        rational_from_json_dict({"p0": [[1.0, 0.0]]})
