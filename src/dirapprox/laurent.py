"""Cauchy-integral splitting on holed compacta and rational Dirichlet fits.

A function holomorphic on a neighborhood of a compact set whose
complement has bounded components splits as f = f_0 + sum_j f_j: f_0 is
holomorphic across the outer boundary, each f_j is holomorphic outside
the j-th hole and vanishes at infinity.  The split is computed by
quadrature of the Cauchy integral over one closed loop per boundary
curve.  Each hole piece, read through w = 1/(s - z_j) with z_j a point
inside its hole, lives on a compact set again and can be fed to the
discrete minimax fitter; reassembling the fitted pieces gives

    R(s) = P_0(s) + P_1(1/(s - z_1)) + ... + P_n(1/(s - z_n)).

The quadrature resolves the data adaptively.  On analytic data the
trapezoid rule on a circle and Gauss panels on a polyline converge
geometrically in the node count (Trefethen & Weideman, SIAM Review
2014), so `laurent_decompose` starts at 16 nodes per loop and doubles up
to 8,192: below 512 nodes a round stops the ladder only at the rounding
floor, from 512 on the residual target and a stalled doubling stop it
too.  Smooth data on the annulus, rectangles, triangles and unions end
at 16 to 64 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _wire
from .errors import InvalidAnchorError, InvalidInputError, PoleError, integral
from .fit import _fit_samples, _target_values
from .geometry import Contour, DiscretizedSet, quadrature_contours
from .series import DirichletPolynomial, evaluate_many

_FAR_DIRECTION = 0.6 + 0.8j  # unit vector for the vanishing-at-infinity probe
_EVAL_CHUNK = 256
_START_NODES = 16  # quadrature nodes per loop in the first round
_FULL_NODES = 512  # from here on any stop rule applies; below it only the floor
_MAX_DOUBLINGS = 9  # node doublings per loop: 16 * 2^9 = 8192 at most
_SCREEN_PROBES = 256  # about this many probes screen each round below _FULL_NODES


# ---------------------------------------------------------------------------
# pieces: contour-sample Cauchy data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CauchyPiece:
    """Contour-sample Cauchy data for one split component.

    `values` holds the piece's own boundary values on `contour.points`,
    seen from the set's side of the loop; evaluation on that side
    re-applies the Cauchy kernel quadrature in compensated
    (barycentric-ratio) form, which keeps its accuracy arbitrarily close
    to the curve instead of degrading like the plain kernel.  Hole pieces
    (anchor set) evaluate through u = 1/(s-anchor), where the data becomes
    interior Cauchy data; subtracting the value at u = 0 makes the piece
    vanish at infinity identically.  `loop_values` holds f itself on the
    loop: on the far side (an outer loop's exterior, a hole's interior,
    where another union member can sit) the piece is the plain Cauchy
    integral of that data.
    """

    contour: Contour
    values: np.ndarray
    loop_values: np.ndarray
    anchor: complex | None = None  # None marks the outer piece

    def __call__(self, s):
        return evaluate_piece(self, s)


def _cauchy_sum(
    nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, targets: np.ndarray, *, compensated: bool
) -> np.ndarray:
    """Cauchy quadrature sum(w v/(node-t)) of the node data, chunked.

    Plain, the sum over 2*pi*i is the Cauchy integral itself: the loop's
    own split piece wherever t lies off the loop's closure (the stored
    weights carry the boundary orientation, holes clockwise, so the same
    formula yields f_0 on outer loops and f_j on hole loops).  Compensated,
    it is divided by sum(w/(node-t)) instead: the barycentric interpolant
    of the data, accurate up to and on the curve, but only where the loop
    winds around t (on the curve, at a corner too).  The caller chooses by
    geometry.  A node hit returns the datum.
    """
    out = np.empty(targets.size, dtype=complex)
    wv = weights * values
    for start in range(0, targets.size, _EVAL_CHUNK):
        t = targets[start : start + _EVAL_CHUNK]
        diff = nodes[None, :] - t[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            inv = np.divide(1.0, diff, out=diff)  # a node hit poisons its row
            block = inv @ wv
            block /= (inv @ weights) if compensated else 2j * math.pi
        for row in np.flatnonzero(~np.isfinite(block)):
            hits = np.flatnonzero(nodes == t[row])
            if hits.size:  # the last equal node, as on a seam repeated at 0 and m
                block[row] = values[hits[-1]]
        out[start : start + _EVAL_CHUNK] = block
    return out


def evaluate_piece(piece: CauchyPiece, s) -> complex | np.ndarray:
    """The piece at s (scalar or array): the compensated sum on the set's
    side of its loop, the plain sum of f's loop data beyond it."""
    pts = np.atleast_1d(np.asarray(s, dtype=complex))
    near = piece.contour.loop.contains(pts, 1e-9)
    z, w, t = piece.contour.points, piece.contour.weights, pts[near]
    vals = np.empty(pts.shape, dtype=complex)
    vals[~near] = _cauchy_sum(z, w, piece.loop_values, pts[~near], compensated=False)
    if piece.anchor is None:
        vals[near] = _cauchy_sum(z, w, piece.values, t, compensated=True)
    else:
        # v = 1/(zeta-a) maps the hole boundary to a loop around 0; the
        # stored clockwise traverse comes out counterclockwise there.  The
        # anchor itself lies beyond the loop, so u stays finite.
        a = piece.anchor
        v = 1.0 / (z - a)
        wv = -w / (z - a) ** 2
        at_zero = _cauchy_sum(v, wv, piece.values, np.zeros(1, dtype=complex), compensated=True)
        vals[near] = _cauchy_sum(v, wv, piece.values, 1.0 / (t - a), compensated=True) - at_zero[0]
    return vals if np.ndim(s) else complex(vals[0])


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentPieces:
    """Split f = f_0 + sum_j f_j with per-piece contour-sample data.

    `residual` is the reconstruction error max|f - sum of pieces| over
    the probe points (the discretization's own samples); `warning` is
    set when it exceeds `residual_tol`.  `nodes_per_contour` is the
    node count the ladder of `laurent_decompose` settled on: a power of
    two from 16 to 8,192.  A circle's contour holds that many nodes plus
    the repeated seam; a polyline's holds whole 12-point Gauss panels,
    at least one per edge (50 nodes for a rectangle at 16 and at 32).  `far_probe[j]` is
    |f_j| at anchor_j + 1e6 * unit direction.
    """

    outer: tuple[CauchyPiece, ...]
    holes: tuple[CauchyPiece, ...]
    residual: float
    residual_tol: float
    warning: bool
    nodes_per_contour: int
    far_probe: tuple[float, ...]

    @property
    def anchors(self) -> tuple[complex, ...]:
        return tuple(p.anchor for p in self.holes)

    def f0(self, s) -> complex | np.ndarray:
        pts = np.atleast_1d(np.asarray(s, dtype=complex))
        total = sum(evaluate_piece(p, pts) for p in self.outer)
        return total if np.ndim(s) else complex(total[0])

    def hole_piece(self, j: int, s) -> complex | np.ndarray:
        return evaluate_piece(self.holes[j], s)

    def reconstruct(self, s) -> complex | np.ndarray:
        pts = np.atleast_1d(np.asarray(s, dtype=complex))
        total = sum(evaluate_piece(p, pts) for p in self.outer + self.holes)
        return total if np.ndim(s) else complex(total[0])


def _build_pieces(
    loops: list[Contour], f, anchors: list[complex]
) -> tuple[list[CauchyPiece], list[CauchyPiece]]:
    outer_loops = [c for c in loops if c.role == "outer"]
    hole_loops = [c for c in loops if c.role == "hole"]

    if len(anchors) != len(hole_loops):
        raise InvalidAnchorError(
            f"need exactly one anchor per hole: got {len(anchors)} anchors, {len(hole_loops)} holes"
        )
    # pair anchors with holes by containment, at least 1e-9 inside the hole
    # circle (off the set's side of it); each hole claimed once
    order: list[int] = []
    for a in anchors:
        inside = [k for k, c in enumerate(hole_loops) if not c.loop.contains(a, 1e-9)]
        if len(inside) != 1 or inside[0] in order:
            raise InvalidAnchorError(f"anchor {a} is not strictly inside exactly one unclaimed hole")
        order.append(inside[0])
    hole_loops = [hole_loops[k] for k in order]

    fvals = [_target_values(f, loop.points) for loop in loops]
    loop_vals = dict(zip([id(l) for l in loops], fvals))

    ordered = outer_loops + hole_loops
    own_values: list[np.ndarray] = []
    for loop in ordered:
        own = loop_vals[id(loop)].copy()
        # everything the other loops' pieces contribute on this curve is
        # subtracted; cross-curve plain quadrature is spectrally accurate
        # because the curves are separated
        for other in ordered:
            if other is loop:
                continue
            own -= _cauchy_sum(
                other.points, other.weights, loop_vals[id(other)], loop.points, compensated=False
            )
        own_values.append(own)

    k = len(outer_loops)
    outer_pieces = [CauchyPiece(l, v, loop_vals[id(l)]) for l, v in zip(ordered[:k], own_values[:k])]
    hole_pieces = [
        CauchyPiece(l, v, loop_vals[id(l)], complex(a))
        for l, v, a in zip(ordered[k:], own_values[k:], anchors)
    ]
    return outer_pieces, hole_pieces


def _residual(pieces: list[CauchyPiece], probes: np.ndarray, ftrue: np.ndarray) -> float:
    """max |f - sum of pieces| over the probes."""
    recon = np.zeros_like(ftrue)
    for p in pieces:
        recon += evaluate_piece(p, probes)
    return float(np.abs(ftrue - recon).max())


def laurent_decompose(
    dset: DiscretizedSet,
    f,
    anchors,
    *,
    residual_tol: float = 1e-8,
) -> LaurentPieces:
    """Split f over the set's boundary curves by Cauchy quadrature.

    `anchors` places one point strictly inside each bounded complementary
    component (hole).  Loops start at 16 nodes each and double, to 8,192
    at most, while the reconstruction residual over the probes (the set's
    samples, at most about 2,048 of them) stays above the rounding floor
    1e-13 * max(1, max|f|).  Below 512 nodes the floor is the only stop,
    so a slow start cannot end the ladder; from 512 on, a residual within
    `residual_tol` * 1e-2 stops it too, and so does a doubling that fails
    to halve the residual of the previous round of >= 512 nodes.  The
    round with the smallest residual from 512 on is kept unless a round
    reaches the floor, which is kept at once.  So no input ends with more
    nodes than a ladder starting at 512 would give, and fewer only at the
    floor.  Smooth data end at 16 to 64 nodes.

    Data that need 1,024 nodes or more (a pole near the boundary) pay for
    the five rounds below 512, each screened on a strided subset of about
    256 probes: about 2 % for a pole 0.05 outside the annulus (2,048
    nodes, about 270 ms), 10-20 % for a pole 0.05 off a rectangle or
    triangle edge (1,024 nodes, 20-25 ms).  A round below 512 whose
    contours have the sizes of the last round's is skipped: it would
    repeat that round (a rectangle's contours at 16 and 32 nodes are the
    same 50 points).  A residual still above `residual_tol` sets the
    warning flag rather than raising.
    """
    if not (math.isfinite(residual_tol) and residual_tol >= 0):
        raise InvalidInputError(f"residual_tol must be finite and >= 0, got {residual_tol!r}")
    anchors = [complex(a) for a in np.atleast_1d(np.asarray(anchors, dtype=complex))] if np.size(anchors) else []

    probes = dset.all_samples()
    if probes.size > 2048:
        probes = probes[:: probes.size // 2048 + 1]
    ftrue = _target_values(f, probes)
    scale = max(1.0, float(np.abs(ftrue).max()))

    floor = 1e-13 * scale
    screen = slice(None, None, max(1, probes.size // _SCREEN_PROBES))
    best: tuple[float, list[CauchyPiece], list[CauchyPiece], int] | None = None
    n = _START_NODES
    prev_residual = math.inf
    sizes = None
    for _ in range(_MAX_DOUBLINGS + 1):
        loops = quadrature_contours(dset.spec, n)
        # a polyline's panels per edge never decrease with n, so contours
        # of the last round's sizes are its contours again; below
        # _FULL_NODES that round already missed the floor
        last, sizes = sizes, [c.points.size for c in loops]
        if n < _FULL_NODES and sizes == last:
            n *= 2
            continue
        outer_pieces, hole_pieces = _build_pieces(loops, f, anchors)
        pieces = outer_pieces + hole_pieces
        # below _FULL_NODES only the floor can stop, and a strided subset
        # of the probes above it already rules that out
        if n < _FULL_NODES and _residual(pieces, probes[screen], ftrue[screen]) > floor:
            n *= 2
            continue
        residual = _residual(pieces, probes, ftrue)
        if residual <= floor:
            best = (residual, outer_pieces, hole_pieces, n)
            break
        if n >= _FULL_NODES:
            if best is None or residual < best[0]:
                best = (residual, outer_pieces, hole_pieces, n)
            if residual <= residual_tol * 1e-2:
                break
            if residual > 0.5 * prev_residual:  # doubling stopped helping
                break
            prev_residual = residual
        n *= 2

    residual, outer_pieces, hole_pieces, n = best
    far = tuple(
        float(abs(evaluate_piece(p, p.anchor + 1e6 * _FAR_DIRECTION))) for p in hole_pieces
    )
    return LaurentPieces(
        outer=tuple(outer_pieces),
        holes=tuple(hole_pieces),
        residual=residual,
        residual_tol=residual_tol,
        warning=residual > residual_tol,
        nodes_per_contour=n,
        far_probe=far,
    )


# ---------------------------------------------------------------------------
# rational Dirichlet functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalDirichletFunction:
    """P_0(s) + sum_j P_j(1/(s - z_j)) with pairwise-distinct anchors z_j."""

    p0: DirichletPolynomial
    parts: tuple[tuple[complex, DirichletPolynomial], ...] = ()

    def __post_init__(self):
        anchors = [z for z, _ in self.parts]
        if len(set(anchors)) != len(anchors):
            raise InvalidInputError("pole anchors must be pairwise distinct")
        object.__setattr__(self, "parts", tuple((complex(z), p) for z, p in self.parts))

    def __call__(self, s):
        return evaluate_rational(self, s)


def evaluate_rational(r: RationalDirichletFunction, s) -> complex | np.ndarray:
    """r at s, a scalar or an array of points."""
    points = np.asarray(s, dtype=complex)
    for z, _ in r.parts:
        if np.any(points == z):
            raise PoleError(f"evaluation point coincides with the anchor {z}")
    total = evaluate_many(r.p0, points)
    for z, p in r.parts:
        total = total + evaluate_many(p, 1.0 / (points - z))
    return total if np.ndim(s) else complex(total)


def rational_dirichlet_fit(
    dset: DiscretizedSet,
    f,
    anchors,
    degrees,
    *,
    residual_tol: float = 1e-8,
) -> tuple[RationalDirichletFunction, float]:
    """Split f, fit every piece by discrete minimax, reassemble.

    `degrees` gives one Dirichlet degree per piece, outer first.  Hole
    pieces are fitted in w = 1/(s - z_j); each fit carries a free
    constant that is then relocated into the outer piece, so the stored
    parts keep a_1 = 0 (they belong to pieces vanishing at infinity)
    while losing none of the fit's accuracy — without the relocation a
    hole part whose remaining terms do not sum to zero is unreachable.
    Returns the assembled function and its sampled sup error on the set.

    The pieces are Cauchy integrals, holomorphic on the set's side of
    their loops, so each piece fit's residual is holomorphic on the set
    (in w for the hole pieces, where w = 1/(s - z_j) keeps the boundary on
    the image's boundary) and by the maximum modulus principle peaks on
    the boundary.  laurent_decompose checks on every sample that the
    pieces sum to f within its residual.  So the pieces are fitted, and
    the error measured, on the boundary samples alone, whose sup then
    dominates every interior sample up to that residual; when the residual
    misses residual_tol, every sample is used instead.

    The error is summed from each piece's own design, with the same
    arithmetic as evaluate_rational (p0 first, then the parts in order),
    so it equals max |evaluate_rational(r, samples) - f(samples)| over
    those samples exactly.  Each design is dropped once its row sums are
    taken.
    """
    anchors = [complex(a) for a in np.atleast_1d(np.asarray(anchors, dtype=complex))] if np.size(anchors) else []
    degrees = [integral(d, "degree") for d in degrees]
    if len(degrees) != 1 + len(anchors):
        raise InvalidInputError("need one degree for the outer piece and one per anchor")
    if degrees[0] < 1 or any(d < 2 for d in degrees[1:]):
        raise InvalidInputError("outer degree must be >= 1 and hole degrees >= 2")

    pieces = laurent_decompose(dset, f, anchors, residual_tol=residual_tol)
    samples = dset.all_samples() if pieces.warning else dset.boundary_samples

    parts: list[tuple[complex, DirichletPolynomial]] = []
    part_values: list[np.ndarray] = []
    relocated = 0j
    for j, (z, deg) in enumerate(zip(pieces.anchors, degrees[1:])):
        w = 1.0 / (samples - z)
        yj = evaluate_piece(pieces.holes[j], samples)
        fitj, design = _fit_samples(w, yj, deg)
        coeffs = fitj.polynomial.coefficients.copy()
        relocated += coeffs[0]
        coeffs[0] = 0.0
        parts.append((z, DirichletPolynomial(coeffs)))
        # evaluate_many's row sums, in its operand order
        part_values.append((coeffs * design).sum(axis=1))
        del design

    y0 = pieces.f0(samples) + relocated
    fit0, design = _fit_samples(samples, y0, degrees[0])
    total = (fit0.polynomial.coefficients * design).sum(axis=1)
    for values in part_values:
        total = total + values

    assembled = RationalDirichletFunction(fit0.polynomial, tuple(parts))
    sup_error = float(np.abs(total - _target_values(f, samples)).max())
    return assembled, sup_error


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def rational_to_json_dict(r: RationalDirichletFunction) -> dict:
    return {
        "p0": r.p0.to_pairs(),
        "parts": [{"anchor": [z.real, z.imag], "coeffs": p.to_pairs()} for z, p in r.parts],
    }


def rational_from_json_dict(d: dict) -> RationalDirichletFunction:
    p0 = DirichletPolynomial.from_pairs(_wire.require(d, "p0"))
    parts = tuple(
        (_wire.require(e, "anchor", _wire.complex_number),
         DirichletPolynomial.from_pairs(_wire.require(e, "coeffs")))
        for e in _wire.require(d, "parts", _wire.array)
    )
    return RationalDirichletFunction(p0, parts)
