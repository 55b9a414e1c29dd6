"""Declarative plane geometry: compact sets as oriented boundary loops.

A set is a disc, rectangle, annulus, simple polygon, or a disjoint union
of those; each piece is stored as its boundary loops, outer first (a
counterclockwise circle or polyline), then one clockwise circle per hole.
Samples (`discretize`), membership, extents, translation and the Cauchy
quadrature contours (`quadrature_contours`) all derive from the loops.
"""

from __future__ import annotations

import cmath
import functools
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _wire
from .errors import InvalidInputError

__all__ = [
    "CompactSetSpec",
    "Loop",
    "SampleDensity",
    "Contour",
    "DiscretizedSet",
    "disc",
    "rectangle",
    "annulus",
    "jordan_polygon",
    "union_of_disjoint",
    "discretize",
    "quadrature_contours",
    "translate",
    "max_real_part",
    "contains",
    "contour_integral",
    "spec_to_json_dict",
    "spec_from_json_dict",
]

_KINDS = ("disc", "rectangle", "annulus", "jordan_polygon", "union-of-disjoint")
_GAUSS_ORDER = 12  # Gauss-Legendre nodes per polyline quadrature panel


@dataclass(frozen=True)
class Loop:
    """One closed boundary curve: a circle, or a polyline through `corners`.

    Polyline corners run counterclockwise and do not repeat the first.
    `orientation` is +1 for an outer boundary and -1 for a hole, whose
    quadrature runs clockwise; only circles are holes.
    """

    center: complex = 0j
    radius: float = 0.0
    corners: tuple[complex, ...] = ()
    orientation: int = 1

    @property
    def edges(self) -> list[tuple[complex, complex]]:
        """(start, end) of each polyline edge, closing back to the first corner."""
        return list(zip(self.corners, self.corners[1:] + self.corners[:1]))

    @property
    def perimeter(self) -> float:
        if not self.corners:
            return 2 * math.pi * self.radius
        return sum(abs(b - a) for a, b in self.edges)

    def bounding_box(self) -> tuple[complex, complex]:
        if self.corners:
            c = np.array(self.corners)
            return complex(c.real.min(), c.imag.min()), complex(c.real.max(), c.imag.max())
        return self.center - self.radius * (1 + 1j), self.center + self.radius * (1 + 1j)

    def points(self, m: int) -> np.ndarray:
        """About m samples, counterclockwise from angle 0 or the first corner."""
        if not self.corners:
            th = 2 * math.pi * np.arange(m) / m
            return self.center + self.radius * np.exp(1j * th)
        total, pts = self.perimeter, []
        for a, b in self.edges:
            k = max(1, int(round(m * abs(b - a) / total)))
            pts.append(a + (np.arange(k) / k) * (b - a))
        return np.concatenate(pts)

    def contains(self, z: np.ndarray, tol: float) -> np.ndarray:
        """Whether z is on the set's side of this loop, with `tol` of slack."""
        if self.corners:
            return _winding_inside(self.corners, z, tol)
        r = np.abs(z - self.center)
        return r <= self.radius + tol if self.orientation > 0 else r >= self.radius - tol

    def translate(self, offset: complex) -> "Loop":
        if self.corners:
            return replace(self, corners=tuple(v + offset for v in self.corners))
        return replace(self, center=self.center + offset)

    def contour(self, nodes: int) -> "Contour":
        """Closed quadrature loop with about `nodes` points.

        A circle gets the closed trapezoid rule (spectral) on
        max(16, nodes) points; a polyline gets composite order-12
        Gauss-Legendre panels of length perimeter / (nodes // 12).
        """
        if not self.corners:
            m = max(16, nodes)
            th = 2 * math.pi * np.arange(m + 1) / m
            if self.orientation < 0:
                th = -th
            e = np.exp(1j * th)
            pts = self.center + self.radius * e
            pts[-1] = pts[0]
            # dz = i r e^{i theta} dtheta, halved at the seam
            w = (2 * math.pi / m) * 1j * self.radius * e * self.orientation
            w[0] *= 0.5
            w[-1] *= 0.5
            return Contour(pts, w, self)
        x, wx = _gauss_legendre()
        panel = self.perimeter / max(1, nodes // _GAUSS_ORDER)
        c = self.corners
        pts, wts = [[c[0]]], [[0j]]  # zero-weight anchors close the loop
        for a, b in self.edges:
            panels = max(1, math.ceil(abs(b - a) / panel))
            for k in range(panels):
                za = a + (b - a) * k / panels
                zb = a + (b - a) * (k + 1) / panels
                mid, half = 0.5 * (za + zb), 0.5 * (zb - za)
                pts.append(mid + half * x)
                wts.append(half * wx)
        return Contour(np.concatenate(pts + [[c[0]]]), np.concatenate(wts + [[0j]]), self)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and (complex) weights of the order-_GAUSS_ORDER rule on [-1, 1],
    read-only since every contour shares them."""
    x, wx = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    wx = wx.astype(complex)
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


@dataclass(frozen=True)
class CompactSetSpec:
    """A single piece as its boundary `loops` (outer first), or a union of `members`."""

    kind: str
    loops: tuple[Loop, ...] = ()
    members: tuple["CompactSetSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"unknown set kind {self.kind!r}")


def _check_finite(what: str, *values: complex) -> None:
    if not all(cmath.isfinite(v) for v in values):
        raise InvalidInputError(f"{what} must be finite")


def disc(center: complex, radius: float) -> CompactSetSpec:
    c = complex(center)
    _check_finite("disc center and radius", c, radius)
    if not radius > 0:
        raise InvalidInputError("disc radius must be positive and finite")
    return CompactSetSpec("disc", (Loop(c, float(radius)),))


def rectangle(corner_lo: complex, corner_hi: complex) -> CompactSetSpec:
    lo, hi = complex(corner_lo), complex(corner_hi)
    _check_finite("rectangle corners", lo, hi)
    if not (lo.real < hi.real and lo.imag < hi.imag):
        raise InvalidInputError("rectangle corners must satisfy lo < hi componentwise")
    corners = (lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag))
    return CompactSetSpec("rectangle", (Loop(corners=corners),))


def annulus(center: complex, r_inner: float, r_outer: float) -> CompactSetSpec:
    c = complex(center)
    _check_finite("annulus center and radii", c, r_inner, r_outer)
    if not (0 < r_inner < r_outer):
        raise InvalidInputError("annulus needs 0 < r_inner < r_outer")
    return CompactSetSpec("annulus", (Loop(c, float(r_outer)), Loop(c, float(r_inner), orientation=-1)))


def _segments_properly_intersect(a, b, c, d) -> bool:
    def orient(p, q, r):
        v = (q.real - p.real) * (r.imag - p.imag) - (q.imag - p.imag) * (r.real - p.real)
        return 0 if abs(v) < 1e-14 else (1 if v > 0 else -1)

    return orient(a, b, c) != orient(a, b, d) and orient(c, d, a) != orient(c, d, b)


def jordan_polygon(vertices: Sequence[complex]) -> CompactSetSpec:
    vs = tuple(complex(v) for v in vertices)
    _check_finite("polygon vertices", *vs)
    if len(vs) < 3:
        raise InvalidInputError("polygon needs at least 3 vertices")
    n = len(vs)
    for i in range(n):
        if abs(vs[i] - vs[(i + 1) % n]) < 1e-14:
            raise InvalidInputError("polygon has a zero-length edge")
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex, skip
            c, d = vs[j], vs[(j + 1) % n]
            if _segments_properly_intersect(a, b, c, d):
                raise InvalidInputError("polygon is self-intersecting")
    # store with positive (counterclockwise) orientation
    area2 = sum(
        vs[i].real * vs[(i + 1) % n].imag - vs[(i + 1) % n].real * vs[i].imag
        for i in range(n)
    )
    if abs(area2) < 1e-14:
        raise InvalidInputError("polygon has vanishing area")
    if area2 < 0:
        vs = tuple(reversed(vs))
    return CompactSetSpec("jordan_polygon", (Loop(corners=vs),))


def union_of_disjoint(members: Iterable[CompactSetSpec]) -> CompactSetSpec:
    ms = tuple(members)
    if not ms:
        raise InvalidInputError("union needs at least one member")
    if any(m.kind == "union-of-disjoint" for m in ms):
        raise InvalidInputError("nested unions are not supported; flatten first")
    # members whose boundaries stay apart are disjoint unless one lies
    # inside the other, which a point of its outer loop then shows
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if min(_loop_distance(p, q) for p in ms[i].loops for q in ms[j].loops) < 1e-9:
                raise InvalidInputError("union members touch or overlap")
            if contains(ms[j], ms[i].loops[0].points(1)[0], tol=-1e-9) or contains(
                ms[i], ms[j].loops[0].points(1)[0], tol=-1e-9
            ):
                raise InvalidInputError("union members are nested")
    return CompactSetSpec("union-of-disjoint", members=ms)


def _loop_distance(p: Loop, q: Loop) -> float:
    """Least distance between two boundary curves; 0 when they meet."""
    if p.corners and not q.corners:
        p, q = q, p
    if not q.corners:  # two circles
        d = abs(p.center - q.center)
        return max(d - p.radius - q.radius, abs(p.radius - q.radius) - d, 0.0)
    qa, qb = np.array(q.corners), np.array(q.corners[1:] + q.corners[:1])
    if not p.corners:  # a circle against each edge: nearest and farthest edge points
        near = _segment_distances(np.array([p.center]), qa, qb)[0]
        far = np.maximum(np.abs(qa - p.center), np.abs(qb - p.center))
        return float(np.maximum(np.maximum(near - p.radius, p.radius - far), 0.0).min())
    if any(_segments_properly_intersect(a, b, c, d) for a, b in p.edges for c, d in q.edges):
        return 0.0
    # edges that do not cross are nearest at an endpoint of one of them
    pa, pb = np.array(p.corners), np.array(p.corners[1:] + p.corners[:1])
    return float(min(_segment_distances(pa, qa, qb).min(), _segment_distances(qa, pa, pb).min()))


def _pieces(spec: CompactSetSpec) -> tuple[CompactSetSpec, ...]:
    """The single pieces making up `spec`: its union members, or itself."""
    return spec.members or (spec,)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _segment_distances(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point z_i to each segment [a_j, b_j], shape (len(z), len(a))."""
    ab = b - a
    t = np.clip(
        ((z[:, None] - a[None, :]) * np.conj(ab[None, :])).real / (np.abs(ab) ** 2)[None, :],
        0.0,
        1.0,
    )
    return np.abs(z[:, None] - (a[None, :] + t * ab[None, :]))


def _winding_inside(vertices: tuple[complex, ...], z: np.ndarray, tol: float) -> np.ndarray:
    """Point-in-polygon with `tol` fuzz outward (negative tol shrinks)."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    a = np.asarray(vertices, dtype=complex)
    b = np.roll(a, -1)
    # crossing-number parity
    x, y = zs.real, zs.imag
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    cond = (ay[None, :] > y[:, None]) != (by[None, :] > y[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax[None, :] + (y[:, None] - ay[None, :]) * (bx - ax)[None, :] / (by - ay)[None, :]
    crossings = np.sum(cond & (x[:, None] < xint), axis=1)
    inside = (crossings % 2) == 1
    # the fuzz can only admit parity-outside points (tol >= 0) or reject
    # parity-inside ones (tol < 0): edge distances are needed for those alone
    out = inside.copy()
    pick = ~inside if tol >= 0 else inside
    dist = _segment_distances(zs[pick], a, b).min(axis=1)
    out[pick] = dist <= tol if tol >= 0 else dist >= -tol
    return out


def contains(spec: CompactSetSpec, z: complex | np.ndarray, tol: float = 1e-12):
    """Membership in the closed set, with `tol` of outward (Euclidean) slack."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.zeros(zs.shape, dtype=bool)
    for piece in _pieces(spec):
        out |= np.logical_and.reduce([loop.contains(zs, tol) for loop in piece.loops])
    return bool(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleDensity:
    """Target spacings of the boundary and interior samples."""

    boundary_spacing: float = 0.01
    interior_spacing: float = 0.05

    def __post_init__(self):
        if not (0 < self.boundary_spacing < math.inf and 0 < self.interior_spacing < math.inf):
            raise InvalidInputError("sampling density must be positive and finite")


@dataclass(frozen=True)
class Contour:
    """Closed quadrature loop of `loop` with complex line-integral weights.

    points[0] == points[-1]; integral of f is sum(weights * f(points)).
    Endpoint duplicates may carry zero weight (Gauss panels put no nodes
    at the vertices).
    """

    points: np.ndarray
    weights: np.ndarray
    loop: Loop

    def __post_init__(self):
        if abs(self.points[0] - self.points[-1]) > 1e-12:
            raise InvalidInputError("contour must close (first == last point)")
        if float(np.sum(np.abs(self.weights))) <= 0:
            raise InvalidInputError("contour must carry positive total weight")

    @property
    def orientation(self) -> int:  # +1 counterclockwise (outer), -1 clockwise (hole)
        return self.loop.orientation

    @property
    def role(self) -> str:
        return "outer" if self.orientation > 0 else "hole"

    @property
    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.weights)))


def contour_integral(contour: Contour, f: Callable[[np.ndarray], np.ndarray] | np.ndarray) -> complex:
    vals = f(contour.points) if callable(f) else np.asarray(f)
    return complex(np.sum(contour.weights * vals))


def quadrature_contours(spec: CompactSetSpec, nodes: int) -> list[Contour]:
    """One closed quadrature contour per boundary loop, ~`nodes` points each."""
    return [loop.contour(nodes) for piece in _pieces(spec) for loop in piece.loops]


@dataclass(frozen=True)
class DiscretizedSet:
    spec: CompactSetSpec
    interior_samples: np.ndarray
    boundary_samples: np.ndarray

    def all_samples(self) -> np.ndarray:
        """Every sample, boundary samples first: the first
        boundary_samples.size entries are the boundary, in their order.
        Fits of holomorphic targets read the boundary samples alone, whose
        sup of a holomorphic residual dominates the interior ones (maximum
        modulus); sampled targets and failed checks use every sample."""
        return np.concatenate([self.boundary_samples, self.interior_samples])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("role,re,im,weight_re,weight_im\n")
        for z in self.interior_samples:
            buf.write(f"interior,{z.real:.17g},{z.imag:.17g},,\n")
        for z in self.boundary_samples:
            buf.write(f"boundary,{z.real:.17g},{z.imag:.17g},,\n")
        return buf.getvalue()


def _interior_grid(spec: CompactSetSpec, lo: complex, hi: complex, spacing: float) -> np.ndarray:
    nx = max(2, int(math.ceil((hi.real - lo.real) / spacing)) + 1)
    ny = max(2, int(math.ceil((hi.imag - lo.imag) / spacing)) + 1)
    xs = np.linspace(lo.real, hi.real, nx)
    ys = np.linspace(lo.imag, hi.imag, ny)
    grid = (xs[:, None] + 1j * ys[None, :]).ravel()
    return grid[contains(spec, grid, tol=1e-12)]


def discretize(spec: CompactSetSpec, density: SampleDensity | None = None) -> DiscretizedSet:
    """Samples on every boundary loop at spacing ≤ requested, grid interior."""
    d = density or SampleDensity()
    boundary, interior = [], []
    for piece in _pieces(spec):
        for loop in piece.loops:
            boundary.append(loop.points(max(16, math.ceil(loop.perimeter / d.boundary_spacing))))
        interior.append(_interior_grid(piece, *piece.loops[0].bounding_box(), d.interior_spacing))
    return DiscretizedSet(spec, np.concatenate(interior), np.concatenate(boundary))


# ---------------------------------------------------------------------------
# rigid motions and extents
# ---------------------------------------------------------------------------


def translate(spec: CompactSetSpec, offset: complex) -> CompactSetSpec:
    o = complex(offset)
    return replace(
        spec,
        loops=tuple(loop.translate(o) for loop in spec.loops),
        members=tuple(translate(m, o) for m in spec.members),
    )


def max_real_part(spec: CompactSetSpec) -> float:
    """Exact: the right edge of each loop's bounding box (a polyline peaks at a corner)."""
    return max(loop.bounding_box()[1].real for piece in _pieces(spec) for loop in piece.loops)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def _c2p(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def spec_to_json_dict(spec: CompactSetSpec) -> dict:
    out: dict = {"kind": spec.kind}
    loop = spec.loops[0] if spec.loops else None
    if spec.kind == "union-of-disjoint":
        out["members"] = [spec_to_json_dict(m) for m in spec.members]
    elif spec.kind == "jordan_polygon":
        out["vertices"] = [_c2p(v) for v in loop.corners]
    elif spec.kind == "rectangle":
        out |= {"corner_lo": _c2p(loop.corners[0]), "corner_hi": _c2p(loop.corners[2])}
    elif spec.kind == "annulus":
        out |= {"center": _c2p(loop.center), "r_inner": spec.loops[1].radius, "r_outer": loop.radius}
    else:
        out |= {"center": _c2p(loop.center), "radius": loop.radius}
    return out


def spec_from_json_dict(d: dict) -> CompactSetSpec:
    kind = _wire.require(d, "kind")

    def field(key: str, read=_wire.complex_number):
        return _wire.require(d, key, read)

    if kind == "disc":
        return disc(field("center"), field("radius", _wire.number))
    if kind == "rectangle":
        return rectangle(field("corner_lo"), field("corner_hi"))
    if kind == "annulus":
        return annulus(field("center"), field("r_inner", _wire.number), field("r_outer", _wire.number))
    if kind == "jordan_polygon":
        return jordan_polygon(field("vertices", _wire.complexes))
    if kind == "union-of-disjoint":
        return union_of_disjoint(spec_from_json_dict(m) for m in field("members", _wire.array))
    raise InvalidInputError(f"unknown set kind {kind!r}")
