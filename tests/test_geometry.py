import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirapprox.errors import InvalidInputError
from dirapprox.geometry import (
    SampleDensity,
    annulus,
    contains,
    contour_integral,
    disc,
    discretize,
    jordan_polygon,
    max_real_part,
    quadrature_contours,
    rectangle,
    spec_from_json_dict,
    spec_to_json_dict,
    translate,
    union_of_disjoint,
)

COARSE = SampleDensity(boundary_spacing=0.05, interior_spacing=0.15)


def all_specs():
    return [
        disc(-1 + 0.5j, 0.75),
        rectangle(-1 - 1j, 0 + 1j),
        annulus(0.5j, 0.5, 1.25),
        jordan_polygon([0, 2, 2 + 1j, 1 + 0.3j, 1j]),
        union_of_disjoint([disc(0, 0.5), disc(4, 0.5)]),
    ]


# --- constructors -----------------------------------------------------------


def test_invalid_geometry_rejected():
    with pytest.raises(InvalidInputError):
        disc(0, -1)
    with pytest.raises(InvalidInputError):
        rectangle(1 + 1j, 0)
    with pytest.raises(InvalidInputError):
        annulus(0, 2, 1)
    with pytest.raises(InvalidInputError):
        jordan_polygon([0, 1])
    with pytest.raises(InvalidInputError):
        jordan_polygon([0, 1, 1 + 1j, 1j, 0.5 - 0.5j + 0.5j * 1j])  # still simple? force a bowtie below
    with pytest.raises(InvalidInputError):
        jordan_polygon([0, 1 + 1j, 1, 1j])  # bowtie


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("center, radius", [(complex(INF, 0), 1), (complex(0, NAN), 1)])
def test_disc_rejects_non_finite_geometry(center, radius):
    with pytest.raises(InvalidInputError):
        disc(center, radius)


@pytest.mark.parametrize("lo, hi", [(complex(-INF, -1), 1j), (-1 - 1j, complex(0, INF))])
def test_rectangle_rejects_non_finite_corners(lo, hi):
    with pytest.raises(InvalidInputError):
        rectangle(lo, hi)


@pytest.mark.parametrize("center, r_inner, r_outer", [(0, 1, INF), (complex(INF, 0), 1, 2)])
def test_annulus_rejects_non_finite_geometry(center, r_inner, r_outer):
    with pytest.raises(InvalidInputError):
        annulus(center, r_inner, r_outer)


@pytest.mark.parametrize("bad", [complex(INF, 0), complex(0, NAN)])
def test_polygon_rejects_non_finite_vertices(bad):
    with pytest.raises(InvalidInputError):
        jordan_polygon([bad, 1, 1j])


def test_union_screens_overlap_and_nesting():
    with pytest.raises(InvalidInputError):
        union_of_disjoint([disc(0, 1), disc(1, 1)])
    with pytest.raises(InvalidInputError):
        union_of_disjoint([disc(0, 2), disc(0.2, 0.3)])
    with pytest.raises(InvalidInputError):
        # the disc's center sits in the hole but its rim crosses the inner circle
        union_of_disjoint([annulus(0, 1, 2), disc(-0.5, 0.6)])
    with pytest.raises(InvalidInputError):
        union_of_disjoint([rectangle(0, 1 + 1j), rectangle(1 + 1e-10, 2 + 1j)])
    with pytest.raises(InvalidInputError):
        union_of_disjoint([jordan_polygon([0, 2, 1 + 2j]), jordan_polygon([1 + 1j, 3 + 1j, 3 + 3j])])
    u = union_of_disjoint([disc(0, 1), rectangle(3 - 1j, 4 + 1j)])
    assert len(u.members) == 2
    assert len(union_of_disjoint([annulus(0, 1, 2), disc(0, 0.5)]).members) == 2  # in the hole
    assert len(union_of_disjoint([rectangle(0, 1 + 1j), rectangle(1 + 1e-8, 2 + 1j)]).members) == 2


def test_polygon_stored_counterclockwise():
    p = jordan_polygon([0, 1j, 1 + 1j, 1])  # given clockwise
    vs = p.loops[0].corners
    area2 = sum(
        vs[i].real * vs[(i + 1) % 4].imag - vs[(i + 1) % 4].real * vs[i].imag
        for i in range(4)
    )
    assert area2 > 0


# --- discretize -------------------------------------------------------------


def test_disc_boundary_sample_count():
    ds = discretize(disc(-1, 0.5), SampleDensity(boundary_spacing=0.01))
    assert len(ds.boundary_samples) >= 314


def test_rectangle_boundary_traces_perimeter():
    r = rectangle(-1 - 1j, 0 + 1j)
    ds = discretize(r, COARSE)
    b = ds.boundary_samples
    on_edge = (
        np.isclose(b.real, -1)
        | np.isclose(b.real, 0)
        | np.isclose(b.imag, -1)
        | np.isclose(b.imag, 1)
    )
    assert on_edge.all()
    # all four edges show up
    assert np.isclose(b.real, -1).any() and np.isclose(b.real, 0).any()
    assert np.isclose(b.imag, -1).any() and np.isclose(b.imag, 1).any()


@pytest.mark.parametrize("spec", [
    rectangle(-1 - 1j, 0 + 1j),  # K_1
    rectangle(-3 - 3j, 0 + 3j),  # K_3
    rectangle(-2 - 1j, -0.5 + 1j),
    jordan_polygon([0, 2, 1 + 1.5j]),
    jordan_polygon([0, 2, 2 + 1j, 1 + 0.3j, 1j]),
], ids=["K1", "K3", "rectangle", "triangle", "pentagon"])
@pytest.mark.parametrize("m", [16, 600, 1234])
def test_polyline_points_match_the_per_sample_formula_bytewise(spec, m):
    loop = spec.loops[0]
    pts = []
    for a, b in loop.edges:
        k = max(1, int(round(m * abs(b - a) / loop.perimeter)))
        pts.extend(a + t * (b - a) for t in np.arange(k) / k)
    assert loop.points(m).tobytes() == np.array(pts, dtype=complex).tobytes()


def test_annulus_two_contours_opposite_orientation():
    contours = quadrature_contours(annulus(0, 1, 2), 512)
    assert len(contours) == 2
    assert sorted(c.orientation for c in contours) == [-1, 1]
    roles = {c.role for c in contours}
    assert roles == {"outer", "hole"}


@pytest.mark.parametrize("spec", all_specs())
def test_membership_of_every_sample(spec):
    ds = discretize(spec, COARSE)
    assert contains(spec, ds.all_samples(), tol=1e-12).all()


@pytest.mark.parametrize("spec", all_specs())
def test_contours_closed_with_positive_weight(spec):
    contours = quadrature_contours(spec, 512)
    assert len(contours) >= 1
    for c in contours:
        assert c.points[0] == c.points[-1]
        assert c.total_weight > 0


def test_cauchy_two_pi_i_default_density():
    cases = [
        (disc(-1, 0.5), -1 + 0.1j),
        (rectangle(-1 - 1j, 0 + 1j), -0.4 - 0.2j),
        (annulus(0, 1, 2), 1.5),
        (jordan_polygon([0, 2, 2 + 1j, 1j]), 1 + 0.5j),
    ]
    for spec, c in cases:
        contours = quadrature_contours(spec, 512)
        total = sum(contour_integral(ct, lambda z: 1.0 / (z - c)) for ct in contours)
        assert abs(total - 2j * cmath.pi) < 1e-8


def test_rectangle_tolerance_is_euclidean_at_the_corners():
    r, tol = rectangle(-1 - 1j, 0 + 1j), 1e-6
    corner = 0 + 1j
    assert not contains(r, corner + 0.9 * tol * (1 + 1j), tol=tol)
    assert contains(r, corner + 0.7 * tol * (1 + 1j), tol=tol)


def _winding_inside_all_points(vertices, z, tol):
    """Membership with every point's edge distance computed (reference)."""
    a = np.asarray(vertices, dtype=complex)
    b = np.roll(a, -1)
    ab = b - a
    t = np.clip(((z[:, None] - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
    dist = np.abs(z[:, None] - (a + t * ab)).min(axis=1)
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    y = z.imag[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    inside = np.sum(((ay > y) != (by > y)) & (z.real[:, None] < xint), axis=1) % 2 == 1
    return inside | (dist <= tol) if tol >= 0 else inside & (dist >= -tol)


@pytest.mark.parametrize("spec", [
    rectangle(-1 - 1j, 0 + 1j),
    rectangle(-3 - 3j, 0 + 3j),
    jordan_polygon([0, 2, 2 + 1j, 1 + 0.3j, 1j]),
    jordan_polygon([0.1, 1.7 - 0.4j, 2.3 + 1.1j, 0.4 + 2j, -0.6 + 0.9j]),
])
@pytest.mark.parametrize("tol", [1e-12, -1e-9])
def test_polygon_membership_matches_the_all_points_formula(spec, tol):
    loop = spec.loops[0]
    rng = np.random.default_rng(7)
    on_edges = np.concatenate([a + rng.random(200) * (b - a) for a, b in loop.edges] + [np.array(loop.corners)])
    jitter = 1e-6 * (rng.standard_normal(on_edges.size) + 1j * rng.standard_normal(on_edges.size))
    offsets = (0, 1e-13, -1e-13j, 5e-10 * (1 + 1j), -2e-9, 3e-9j, jitter)
    z = np.concatenate([on_edges + offset for offset in offsets])
    got = contains(spec, z, tol=tol)
    assert (got == _winding_inside_all_points(loop.corners, z, tol)).all()


def annulus_and_polygon():
    return union_of_disjoint([annulus(0, 1, 2), jordan_polygon([3, 5, 5 + 1j, 3 + 1j])])


def test_quadrature_contours_follow_the_loops_in_order():
    contours = quadrature_contours(annulus_and_polygon(), 64)
    assert [c.role for c in contours] == ["outer", "hole", "outer"]
    assert [c.orientation for c in contours] == [1, -1, 1]
    # the hole runs clockwise: its winding number about the center is -1
    assert abs(contour_integral(contours[1], lambda z: 1.0 / z) + 2j * cmath.pi) < 1e-12


def test_union_extent_and_translation_agree_with_members():
    u = annulus_and_polygon()
    assert max_real_part(u) == max(max_real_part(m) for m in u.members) == 5.0
    moved = translate(u, -2 + 1j)
    assert moved.members == tuple(translate(m, -2 + 1j) for m in u.members)
    assert max_real_part(moved) == 3.0


def test_interior_points_excluded_by_annulus_hole():
    ds = discretize(annulus(0, 1, 2), COARSE)
    assert (np.abs(ds.interior_samples) >= 1 - 1e-9).all()


# --- translate / extent -------------------------------------------------------


@pytest.mark.parametrize("spec", all_specs())
def test_translate_action_composes(spec):
    u, v = 1.5 - 2j, -0.25 + 1j
    assert translate(translate(spec, u), v) == translate(spec, u + v)
    assert translate(spec, 0) == spec


def test_translate_moves_max_real_part():
    spec = disc(0, 1)
    assert max_real_part(translate(spec, -3)) == pytest.approx(-2)


def test_max_real_part_examples():
    assert max_real_part(disc(-1, 0.5)) == pytest.approx(-0.5)
    for m in (1, 2, 3):
        assert max_real_part(rectangle(complex(-m, -m), complex(0, m))) == 0.0


def test_max_real_part_polygon_matches_dense_sampling():
    p = jordan_polygon([0, 1 - 1j, 2 + 0.5j, 0.5 + 2j])
    ds = discretize(p, SampleDensity(boundary_spacing=0.002, interior_spacing=0.5))
    sampled = ds.boundary_samples.real.max()
    assert abs(max_real_part(p) - sampled) <= 0.002


def test_translate_into_left_halfplane():
    spec = rectangle(-1 - 1j, 0 + 1j)
    moved = translate(spec, complex(-0.5, 0))
    assert max_real_part(moved) < 0
    ds = discretize(moved, COARSE)
    assert ds.boundary_samples.real.max() < 0


# --- serialization -------------------------------------------------------------


@pytest.mark.parametrize("spec", all_specs())
def test_json_round_trip(spec):
    assert spec_from_json_dict(spec_to_json_dict(spec)) == spec


def test_malformed_json_rejected():
    with pytest.raises(InvalidInputError):
        spec_from_json_dict({"kind": "disc", "radius": 1.0})
    with pytest.raises(InvalidInputError):
        spec_from_json_dict({"kind": "blob"})


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "disc", "center": [-1], "radius": 0.5},
        {"kind": "annulus", "center": [True, 0], "r_inner": 1, "r_outer": 2},
    ],
)
def test_json_points_must_be_two_numbers(bad):
    with pytest.raises(InvalidInputError):
        spec_from_json_dict(bad)


@pytest.mark.parametrize("spacing", [math.nan, math.inf])
def test_sample_density_needs_finite_positive_spacings(spacing):
    with pytest.raises(InvalidInputError):
        SampleDensity(boundary_spacing=spacing)
    with pytest.raises(InvalidInputError):
        SampleDensity(interior_spacing=spacing)


def test_csv_export_has_all_roles():
    csv = discretize(disc(0, 1), COARSE).to_csv()
    assert csv.splitlines()[0] == "role,re,im,weight_re,weight_im"
    assert "interior," in csv and "boundary," in csv


# --- randomized membership consistency -----------------------------------------


@given(
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.floats(0.1, 1.5),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_disc_membership_agrees_with_distance(cx, cy, r, seed):
    spec = disc(complex(cx, cy), r)
    rng = np.random.default_rng(seed)
    pts = complex(cx, cy) + (rng.standard_normal(50) + 1j * rng.standard_normal(50)) * r
    got = contains(spec, pts, tol=0)
    want = np.abs(pts - complex(cx, cy)) <= r
    assert (got == want).all()
