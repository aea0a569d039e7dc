"""Brute-force search core: bananas, candidate points, filtering, completion.

A banana is the locus of points displaced a fixed admissible distance by a
side pairing: two hypercycles symmetric about the axis (the axis itself for
the minimal displacement of a hyperbolic map).  Candidate centers of hidden
packings are intersections of bananas of two seed pairings that land inside
the fundamental domain.  The completion step is a backtracking search for a
perfect matching of the boundary edges by compatible pairings under the
Poincare condition that every vertex cycle closes at 2 pi: 3 tile corners,
or wedges, of 2 pi / 3.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import FundamentalDomain, SidePairing, map_arrays
from .geom import (
    COINCIDENT_TOL,
    TANGENT_TOL,
    CoincidentCurves,
    GeneralizedCircle,
    axis,
    displacement_offset,
    signed_offset,
)
from .tess import AdmissibilityTable, DistanceSet

CANDIDATE_DEDUP = 1e-6


@dataclass(frozen=True, slots=True)
class Candidate:
    point: complex
    seed_distances: tuple[float, float]


def _families(p: SidePairing, dset: DistanceSet, max_offset: float) -> list[tuple[float, float]]:
    """(distance, offset from the axis) of p's bananas within ``max_offset``
    of its axis.

    The offset grows with the distance, so the distances kept are one run
    of the sorted values: from the first that p displaces some point by to
    the last whose offset is within ``max_offset``.  Both ends are found by
    bisection on displacement_offset's own results, and only the run's
    offsets are computed."""
    cls, values = p.cls, dset.values
    lo = bisect.bisect_left(values, True, key=lambda d: displacement_offset(cls, d) is not None)
    # every distance from lo on has an offset
    hi = bisect.bisect_left(
        values, True, lo, key=lambda d: displacement_offset(cls, d) > max_offset
    )
    return [(d, displacement_offset(cls, d)) for d in values[lo:hi]]


def _domain_offset_bound(F: FundamentalDomain, A: GeneralizedCircle) -> float:
    # distance to a geodesic is convex, so the max over each convex tile is
    # attained at a corner; the distance is asinh |signed_offset|, whose
    # array path agrees with its scalar one
    offsets = np.abs(signed_offset(np.array(F.corners).ravel(), A))
    return max(map(math.asinh, offsets.tolist())) + 1e-6


INTERSECT_RADIUS_CUT = 1e5


def _chord(A: GeneralizedCircle) -> GeneralizedCircle:
    """The chord of the axis's ideal points, which stands in for a
    hypercycle circle of radius above INTERSECT_RADIUS_CUT when
    intersecting (the Newton polish afterwards removes the sub-1e-5
    approximation error)."""
    u, v = A.ideal_points()
    sep = abs(v - u)
    normal = 1j * (v - u) / sep
    return GeneralizedCircle.line(normal, (normal.conjugate() * u).real)


def _quotient(c: complex, t: np.ndarray) -> np.ndarray:
    """c / t for each real t by Python's complex division, which divides by
    complex(t, 0) (numpy's multiplies by a reciprocal instead)."""
    ratio = 0.0 / t
    out = np.empty(t.shape, dtype=complex)
    out.real = (c.real + c.imag * ratio) / t
    out.imag = (c.imag - c.real * ratio) / t
    return out


@dataclass(frozen=True, eq=False)
class BananaCurves:
    """A seed pairing's bananas that can meet F, as arrays with one entry
    per curve in family order, the + side before the - side: distance d and
    signed sinh offset tau; circles and lines index the curves of each kind,
    with center and radius, or the line itself, aligned to them."""

    axis: GeneralizedCircle
    d: np.ndarray
    tau: np.ndarray
    circles: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    lines: np.ndarray
    line_curves: tuple[GeneralizedCircle, ...]

    def curve(self, i: int) -> GeneralizedCircle:
        """Curve i as one object: its circle, or the line that stands in for it."""
        j = int(np.searchsorted(self.circles, i))
        if j < len(self.circles) and self.circles[j] == i:
            return GeneralizedCircle.circle(complex(self.center[j]), float(self.radius[j]))
        return self.line_curves[int(np.searchsorted(self.lines, i))]


def banana_curves(p: SidePairing, dset: DistanceSet, F: FundamentalDomain) -> BananaCurves:
    """p's bananas within _domain_offset_bound of its axis A, on arrays,
    with no object per curve.

    The curve at signed sinh offset tau from a circle A (center c, radius
    r) is the circle of center c / (1 + k) and radius
    sqrt(r^2 + k^2) / |1 + k|, k = tau r, or, where |1 + k| is at most 1e-9
    times that root, the chord of A's ideal points.  From a diameter A of
    unit normal n it is the circle of center -n / tau and radius
    sqrt(1 + tau^2) / |tau|, or A itself where |tau| is at most 1e-9 times
    that root.  A circle of radius above INTERSECT_RADIUS_CUT becomes the
    chord too.  Every line is one of the axis's own, each built once: that
    chord, the flat curve's line, or a diameter axis itself."""
    A = axis(p.map)
    d, tau = [], []
    for dist_, delta in _families(p, dset, _domain_offset_bound(F, A)):
        if delta == 0.0:
            d.append(dist_)
            tau.append(0.0)
        else:
            t = math.sinh(delta)
            d += [dist_, dist_]
            tau += [t, -t]
    d, tau = np.array(d), np.array(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        if A.kind == "circle":
            k = tau * A.radius
            one = 1.0 + k
            span = np.sqrt(A.radius**2 + k * k)
            center = _quotient(A.center, one)
            radius = span / np.abs(one)
            on_axis = tau == 0.0
            center[on_axis] = A.center
            radius[on_axis] = A.radius
            flat = ~on_axis & (np.abs(one) <= 1e-9 * span)
            ac = abs(A.center)
            flat_line = GeneralizedCircle.line(A.center / ac, 1.0 / ac)
        else:
            span = np.sqrt(1.0 + tau * tau)
            center = _quotient(-A.normal, tau)
            radius = span / np.abs(tau)
            flat = np.abs(tau) <= 1e-9 * span
            flat_line = A
    far = ~flat & (radius > INTERSECT_RADIUS_CUT)
    circles, lines = np.flatnonzero(~(flat | far)), np.flatnonzero(flat | far)
    chord = _chord(A)
    line_curves = tuple(flat_line if flat[i] else chord for i in lines.tolist())
    return BananaCurves(A, d, tau, circles, center[circles], radius[circles], lines, line_curves)


def _sigma_and_grad(A: GeneralizedCircle, x, y):
    """Signed sinh-distance to the geodesic A and its gradient, vectorized."""
    s = signed_offset(x + 1j * y, A)
    D = 1.0 - (x * x + y * y)
    if A.kind == "circle":
        cx, cy, r = A.center.real, A.center.imag, A.radius
        num = s * (r * D)
        sx = (2.0 * (x - cx) * D + 2.0 * x * num) / (r * D * D)
        sy = (2.0 * (y - cy) * D + 2.0 * y * num) / (r * D * D)
    else:
        nx, ny = A.normal.real, A.normal.imag
        p = 0.5 * s * D
        sx = (2.0 * nx * D + 4.0 * x * p) / (D * D)
        sy = (2.0 * ny * D + 4.0 * y * p) / (D * D)
    return s, sx, sy


NEWTON_ITERATIONS = 3


def _newton_polish(A1, tau1, A2, tau2, zs):
    """Move raw intersection points onto the exact displacement loci.

    Solves signed_offset(z, A1) = tau1, signed_offset(z, A2) = tau2 by Newton
    iteration; points with a singular Jacobian or a wild step keep their raw
    position (near-tangent intersections, harmless after deduplication).
    """
    x, y = zs.real.copy(), zs.imag.copy()
    for _ in range(NEWTON_ITERATIONS):
        s1, s1x, s1y = _sigma_and_grad(A1, x, y)
        s2, s2x, s2y = _sigma_and_grad(A2, x, y)
        r1, r2 = s1 - tau1, s2 - tau2
        det = s1x * s2y - s1y * s2x
        ok = np.abs(det) > 1e-12
        safe_det = np.where(ok, det, 1.0)
        dx = (-r1 * s2y + r2 * s1y) / safe_det
        dy = (-r2 * s1x + r1 * s2x) / safe_det
        step_ok = ok & (dx * dx + dy * dy < 2.5e-3)
        x = np.where(step_ok, x + dx, x)
        y = np.where(step_ok, y + dy, y)
    return x + 1j * y


# circles of the first family per block of _circle_pair_intersections
CIRCLE_BLOCK = 256


def _circle_pair_intersections(c1, r1, c2, r2):
    """Raw intersection points of two circle families (centers c, radii r),
    with the index of each point's circle in either family."""
    if not len(c1) or not len(c2):
        return None
    pts, out1, out2 = [], [], []
    for start in range(0, len(c1), CIRCLE_BLOCK):
        sl = slice(start, start + CIRCLE_BLOCK)
        dc = c2[None, :] - c1[sl, None]
        dd = np.abs(dc)
        same_radius = np.abs(r2[None, :] - r1[sl, None]) <= COINCIDENT_TOL
        coincident = (dd <= COINCIDENT_TOL) & same_radius
        if coincident.any():
            raise CoincidentCurves("seed pairings share a displacement curve")
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (dd * dd + r1[sl, None] ** 2 - r2[None, :] ** 2) / (2.0 * dd)
            h2 = r1[sl, None] ** 2 - a * a
            ok = (dd > COINCIDENT_TOL) & (h2 >= -TANGENT_TOL)
            h = np.sqrt(np.where(h2 > 0.0, h2, 0.0))
            u = dc / np.where(dd > 0.0, dd, 1.0)
            base = c1[sl, None] + a * u
            side = h * (1j * u)
        for cand in (base + side, base - side):
            m = ok & (np.abs(cand) < 1.0)
            if m.any():
                ii, jj = np.nonzero(m)
                pts.append(cand[m])
                out1.append(ii + start)
                out2.append(jj)
    if not pts:
        return None
    return np.concatenate(pts), np.concatenate(out1), np.concatenate(out2)


def _line_circle_points(line: GeneralizedCircle, center, radius):
    """The points where the line meets each circle (center, radius) inside
    the unit disk: points and a mask of those that count, both of shape
    (circles, 2).  Where h^2 = radius^2 - s^2 (s the center's signed
    distance to the line) is within TANGENT_TOL of 0, the circle touches
    the line once, at the foot of that distance; two points come in
    (re, im) order."""
    n = line.normal
    # Re(conj(n) c) as Python forms it: numpy's product of two complex
    # arrays may fuse its multiply-adds (a product by a real or by 1j has
    # nothing to fuse), and its abs is not libm's hypot, as Python's is
    s = n.real * center.real + n.imag * center.imag - line.offset
    foot = center - s * n
    # float ** 2 takes libm pow, as the scalar r**2 does, not numpy's square
    h2 = np.array([r**2 for r in radius.tolist()]) - s * s
    tangent = h2 <= TANGENT_TOL
    hu = np.sqrt(np.where(tangent, 0.0, h2)) * (1j * n)
    pts = np.stack([np.where(tangent, foot, foot + hu), foot - hu], axis=-1)
    ok = (np.hypot(pts.real, pts.imag) < 1.0) & (h2 >= -TANGENT_TOL)[:, None]
    ok[:, 1] &= ~tangent
    # each pair in (re, im) order
    first, second = pts[:, 0], pts[:, 1]
    swap = ok.all(axis=1) & (
        (second.real < first.real) | ((second.real == first.real) & (second.imag < first.imag))
    )
    pts[swap] = pts[swap, ::-1]
    return pts, ok


def _line_intersections(b1: BananaCurves, b2: BananaCurves):
    """Raw intersection points that involve a line, with the index of each
    point's curve in either seed's curves, in the order of a loop over each
    line of b1 against b2's circles and then its lines, and then over each
    circle of b1 against b2's lines.  Line pairs, one or two per seed pair,
    meet by Cramer's rule; parallel lines meet nowhere, and the same line
    twice raises CoincidentCurves."""
    pts, i1, i2 = [], [], []
    for a, la in zip(b1.lines.tolist(), b1.line_curves):
        z, ok = _line_circle_points(la, b2.center, b2.radius)
        at, side = np.nonzero(ok)
        pts.append(z[at, side])
        i1.append(np.full(len(at), a))
        i2.append(b2.circles[at])
        for b, lb in zip(b2.lines.tolist(), b2.line_curves):
            n1, n2 = la.normal, lb.normal
            det = n1.real * n2.imag - n1.imag * n2.real
            if abs(det) <= 1e-13:
                if abs(la.side(lb.offset * n2)) <= COINCIDENT_TOL:
                    raise CoincidentCurves("identical lines")
                continue
            w = complex(
                (la.offset * n2.imag - lb.offset * n1.imag) / det,
                (lb.offset * n1.real - la.offset * n2.real) / det,
            )
            if abs(w) < 1.0:
                pts.append(np.array([w]))
                i1.append(np.array([a]))
                i2.append(np.array([b]))
    if len(b2.lines):
        # circle by circle of b1, each against every line of b2
        each = [_line_circle_points(lb, b1.center, b1.radius) for lb in b2.line_curves]
        z, ok = (np.stack(parts, axis=1) for parts in zip(*each))
        at = np.nonzero(ok)
        pts.append(z[at])
        i1.append(b1.circles[at[0]])
        i2.append(b2.lines[at[1]])
    if not pts:
        return None
    return np.concatenate(pts), np.concatenate(i1), np.concatenate(i2)


# p1's curves from the last candidates call, with the p1, dset and F they
# came from (held here, so no other object can take their ids): auto mode
# tries every later entry of L as p2 against one p1
_p1_curves: tuple = (None, None, None, None)


def candidates(
    p1: SidePairing,
    p2: SidePairing,
    dset: DistanceSet,
    F: FundamentalDomain,
    dedup: float = CANDIDATE_DEDUP,
) -> list[Candidate]:
    """Intersections of p1's bananas with p2's bananas that lie in F.

    Deduplicated at ``dedup`` point distance and sorted by (re, im).  The
    points come from whole arrays of curves (banana_curves), circles
    against circles first, then every pair involving a line; they are
    Newton-polished, F.contains keeps those inside (it decides only the
    points near some tile), and a stable sort by (re, im) orders them.  Of
    points within ``dedup`` of an earlier kept one only the first is kept;
    only runs of sorted points whose real parts lie within ``dedup`` of the
    previous one need that check.  p1's curves are those of the previous
    call when it got the same p1, dset and F objects.
    """
    global _p1_curves
    if p1.record == p2.record:
        raise ValueError("seed pairings must be distinct")
    q1, qd, qF, b1 = _p1_curves
    if not (q1 is p1 and qd is dset and qF is F):
        b1 = banana_curves(p1, dset, F)
        _p1_curves = (p1, dset, F, b1)
    b2 = banana_curves(p2, dset, F)
    pieces = []
    hit = _circle_pair_intersections(b1.center, b1.radius, b2.center, b2.radius)
    if hit is not None:
        pieces.append((hit[0], b1.circles[hit[1]], b2.circles[hit[2]]))
    hit = _line_intersections(b1, b2)
    if hit is not None:
        pieces.append(hit)
    if not pieces:
        return []
    zs, i1, i2 = (np.concatenate(parts) for parts in zip(*pieces))

    zs = _newton_polish(b1.axis, b1.tau[i1], b2.axis, b2.tau[i2], zs)
    kept = np.flatnonzero((np.abs(zs) < 1.0) & F.contains(zs))
    kept = kept[np.lexsort((zs.imag[kept], zs.real[kept]))]
    points = zs[kept].tolist()
    close = np.flatnonzero(np.diff(zs.real[kept]) <= dedup) + 1
    keep = [True] * len(points)
    for j in close.tolist():
        z = points[j]
        i = j - 1
        while i >= 0 and z.real - points[i].real <= dedup:
            if keep[i] and abs(z - points[i]) <= dedup:
                keep[j] = False
                break
            i -= 1
    return [
        Candidate(z, seeds)
        for z, seeds, k in zip(points, zip(b1.d[i1[kept]].tolist(), b2.d[i2[kept]].tolist()), keep)
        if k
    ]


# cells (pairings x points) per block of compatibility_matrix, which takes
# whole columns, at least one: its float temporaries stay at
# max(256 KB, 16 B per point)
BLOCK_CELLS = 1 << 14
# points this close to the unit circle skip the screen: rounding in both
# displacement formulas grows like 1 / (1 - r^2)^2 there (over L at N = 14
# the screen's u^2 and the exact d's part by a relative 1.8e-7 at
# 1 - r^2 = 1e-2, 1.8e-5 at 1e-3 and 0.17 at 1e-5, against the 6.1e-5 the
# screen allows)
SCREEN_MIN_GAP = 1e-2


def _screen_monomials(zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The monomials 1, x, y, x^2 - y^2, 2xy, r^2 of each point divided by
    1 - r^2 (6 x points), and which points lie within SCREEN_MIN_GAP of the
    unit circle."""
    x, y = zs.real, zs.imag
    r2 = x * x + y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        mono = np.stack([np.ones_like(x), x, y, x * x - y * y, 2.0 * x * y, r2]) / (1.0 - r2)
    return mono, np.abs(1.0 - r2) < SCREEN_MIN_GAP


def _admissible_cells(z, w, ga, gb, table: AdmissibilityTable) -> np.ndarray:
    """The exact decision for gathered cells, one point z (w = z or conj z)
    and one pairing (ga, gb) each: d = 2 artanh(|gz - z| / |1 - conj(gz) z|)
    with the per-pairing formula's operations in its order, then the exact
    rule."""
    img = ga * w
    img += gb
    den = np.conj(gb) * w
    den += np.conj(ga)
    img /= den
    np.conj(img, out=den)
    den *= z
    np.subtract(1.0, den, out=den)
    img -= z
    d = np.abs(img)
    d /= np.abs(den)
    np.arctanh(d, out=d)
    d *= 2.0
    return table(d)


def compatibility_matrix(
    points: list[complex], L: list[SidePairing], dset: DistanceSet
) -> np.ndarray:
    """Boolean matrix admissible[i, j]: pairing L[j] displaces points[i] admissibly.

    Two phases, in blocks of whole columns, max(1, BLOCK_CELLS // points)
    pairings by every point, so the float temporaries stay at
    max(256 KB, 16 B per point):

    1. The screen.  Re N and Im N of sinh(d/2) = |N| / (1 - r^2)
       (domain.numerator_coefficients) come from two small matrix products,
       coefficients (pairings x 6) times monomials already divided by
       1 - r^2 (6 x points).  Their squares sum to u^2 = sinh^2(d/2), and
       tess.AdmissibilityTable.screen looks u^2 up by the key its IEEE-754
       bits give: no logarithm, complex division, artanh or abs per cell,
       and one clipped lookup.  It is sound while u^2 stays within a
       relative 2^-(tess.SCREEN_BITS + 1) = 6.1e-5 of the exact d's (the
       table's docstring has the argument); over every cell of the N = 14
       depth-5 matrix the two part by a relative 2.9e-11 at most.  At
       N = 14 it keeps about 1.0 % of the cells at depth 3 and 2.7 % at
       depth 5.  Points within SCREEN_MIN_GAP of the unit circle skip it.
    2. The exact decision.  The kept cells are gathered and decided as the
       per-pairing loop decides them: the same displacement formula,
       operation for operation, then the exact rule.  Kept cells wait until
       at least BLOCK_CELLS // 4 of them have gathered, so at most about
       max(BLOCK_CELLS, points) cells wait at a time.

    So every cell is that pairing's own value under the exact rule.  The
    maps' arrays are map_arrays(L): the table's, built once with L, when
    enumerate_pairings built L.
    """
    zs = np.asarray(points, dtype=complex)
    out = np.zeros((len(zs), len(L)), dtype=bool)
    if out.size == 0:
        return out
    table = dset.table
    n = len(L)
    maps = map_arrays(L)
    a, b, reversing, coef = maps.a, maps.b, maps.reversing, maps.coef
    ws = np.stack([zs, np.conj(zs)])  # w of a cell is ws[reversing, point]
    mono, near_circle = _screen_monomials(zs)
    any_near = near_circle.any()
    per_block = max(1, BLOCK_CELLS // len(zs))
    u = np.empty((2, per_block, len(zs)))
    # kept cells as col * len(zs) + row: a block's cells count on from c0 * len(zs)
    kept: list[np.ndarray] = []
    waiting = 0

    def decide():
        col, row = np.divmod(np.concatenate(kept), len(zs))
        kept.clear()
        ok = _admissible_cells(zs[row], ws[reversing[col], row], a[col], b[col], table)
        out[row[ok], col[ok]] = True

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for c0 in range(0, n, per_block):
            c1 = min(c0 + per_block, n)
            block = u[:, : c1 - c0]
            re, im = block
            np.matmul(coef[c0:c1], mono, out=re)
            np.matmul(coef[n + c0 : n + c1], mono, out=im)
            np.square(block, out=block)
            re += im
            check = table.screen(re)
            if any_near:
                check[:, near_circle] = True
            cells = np.flatnonzero(check)
            cells += c0 * len(zs)
            kept.append(cells)
            waiting += cells.size
            if waiting >= BLOCK_CELLS // 4:
                decide()
                waiting = 0
        if kept:
            decide()
    return out


def edge_coverage(
    Lc: list[SidePairing], F: FundamentalDomain
) -> dict[tuple[int, int], list[SidePairing]]:
    """Per boundary edge, the entries of Lc touching it (as src or dst)."""
    cov: dict[tuple[int, int], list[SidePairing]] = {e.key: [] for e in F.boundary}
    for p in Lc:
        if p.src.key in cov:
            cov[p.src.key].append(p)
        if p.dst.key in cov:
            cov[p.dst.key].append(p)
    return cov


@dataclass(frozen=True)
class PairingSolution:
    pairings: tuple[SidePairing, ...]  # from L_c, one per identification, by sort_key

    @cached_property
    def identifications(self) -> frozenset:
        return frozenset(p.identification for p in self.pairings)


# complete_pairing stops after this many nodes (calls of its descend).  The
# largest searches measured: N = 14 depth 5, one search of 2 380 nodes, and
# 815 at depth 3; CI's depth-3 --tol 50 --limit 1, at most 82 over its 376
# searches; auto mode at N = 10 k = 3, 211, at N = 8 k = 3, 66, and one
# 30-gon, 100.  The budget is 100x the largest; a search over all of L at
# N = 14 depth 5 reaches it in about 5 s, with 7 135 solutions found.
NODE_BUDGET = 250_000


class Completion(list):
    """complete_pairing's solutions, in its canonical order, and how the
    search ended: ``nodes`` is the number of nodes it visited (0 when the
    solutions were carried by symmetry), and ``finished`` is False when it
    stopped at NODE_BUDGET before it had found ``limit`` solutions or
    exhausted its space, so that solutions may be missing."""

    def __init__(self, sols, nodes: int = 0, finished: bool = True):
        super().__init__(sols)
        self.nodes = nodes
        self.finished = finished


def complete_pairing(
    Lc: list[SidePairing],
    F: FundamentalDomain,
    limit: int,
) -> Completion:
    """Exact-cover completion of Lc into full side-pairing sets with at
    least one reversing pairing each.

    Each identification of Lc is one option (the first entry of Lc naming
    it), numbered in SidePairing.sort_key order and listed under both of its
    edges by (reversing, other edge's key).  Every boundary edge must be
    matched exactly once, and the search prunes on the Poincare vertex
    condition in wedges of 2 pi / 3: a closing cycle must collect exactly 3
    and a partial chain never more.

    The search branches on a vertex cycle that is still open, the most
    constrained item (after Knuth's "Dancing Links"): of the slot chains
    the last chosen option extended and left open, the one that has
    collected the most wedges, tail slot included (the first such chain in
    link order), and there on the unmatched edge of its tail slot.  Only
    when the last choice closed every chain it touched does it take the
    first edge, in key order, with the fewest live options.  Options are
    tried in listed order.  The search stops at ``limit`` solutions; those
    it found come back in one canonical order, lexicographic in their
    sorted option indices, which for entries of L is L's order, so an
    exhausted search (fewer than ``limit``) returns the same list whatever
    the branch rule.  An empty list from a finished search means the search
    space is exhausted with no solution.  The search also stops once it has
    visited NODE_BUDGET nodes; it then returns the solutions it found, in
    the same order, with ``finished`` False.

    State is kept in flat integer arrays: per-edge live option counts, and
    the slot permutation built so far as ``succ``/``pred`` with chain
    endpoints and consumed wedges, undone from a log on backtrack.  A
    chain collects at most 3 wedges, so it spans at most 3 slots and is
    walked to its tail in as many steps.  The slot table and each option's
    slot links are F.slot_table's, built once per domain.

    A solution is its pairings alone: the search has already decided every
    vertex cycle, so none is walked again.  Write m(s) for the other slot
    at s's vertex.  links_for lists each link u -> w with its mirror
    m(w) -> m(u), so m maps a slot cycle C onto a reversed cycle over the
    same vertices.  m(C) = C is impossible: C would hold both slots of each
    of its vertices, an even wedge total, and every cycle closes at exactly
    3.  Two mirror pairs cannot share a vertex, which has only two slots.
    At a full cover every slot has a successor, and no link enters a taken
    slot, so ``succ`` is a permutation.  Its slot cycles pair up into the
    quotient's boundary vertices, each closing at 2 pi.
    """
    slots = F.slot_table
    edge_of = slots.edge_index
    unique: dict[tuple, SidePairing] = {}
    for p in Lc:
        if p.src.key in edge_of and p.dst.key in edge_of and p.src.key != p.dst.key:
            unique.setdefault(p.identification, p)
    options = sorted(unique.values(), key=SidePairing.sort_key)
    opt_links = [slots.links_for(p) for p in options]
    # by_edge[e]: (option, other edge) for the options touching edge e
    ranked: list[list[tuple[bool, int, int]]] = [[] for _ in edge_of]
    for o, p in enumerate(options):
        a, b = edge_of[p.src.key], edge_of[p.dst.key]
        ranked[a].append((p.reversing, b, o))
        ranked[b].append((p.reversing, a, o))
    by_edge = [[(o, d) for _, d, o in sorted(opts)] for opts in ranked]
    # touched[o]: the far edge of every option at o's two edges; choosing o lowers its live
    touched = [
        [d for key in (p.src.key, p.dst.key) for _, d in by_edge[edge_of[key]]] for p in options
    ]
    # live[e]: options of e whose other edge is unmatched; a matched edge
    # carries an extra ``done``, so min(live) > n_opts once all are matched
    n_opts = len(options)
    done = n_opts + 1
    live = [len(opts) for opts in by_edge]

    wedges = slots.slot_wedges
    n_slots = len(wedges)
    slot_edge = [edge_of[key] for key, _ in slots.slots]
    succ = [-1] * n_slots
    pred = [-1] * n_slots
    head_of = list(range(n_slots))  # valid at chain tails
    tail_of = list(range(n_slots))  # valid at chain heads
    consumed = [0] * n_slots  # valid at chain heads: wedges of linked slots
    undo: list[tuple[int, int, int, int, int]] = []
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []
    budget = NODE_BUDGET
    nodes = 0
    stopped = False

    def descend(last: int) -> None:
        nonlocal nodes, stopped
        nodes += 1
        fewest = min(live, default=done)
        if fewest > n_opts:
            if any(options[o].reversing for o in chosen):
                found.append(tuple(sorted(chosen)))
            return
        if fewest == 0:
            return
        # the tail of the fullest open chain the last option extended: a
        # slot has a successor once its edge is matched, so the tail's
        # edge is unmatched
        e, most = -1, 0
        if last >= 0:
            for u, _ in opt_links[last]:
                t = succ[u]
                while t != u and succ[t] >= 0:
                    t = succ[t]
                if t != u and consumed[head_of[t]] + wedges[t] > most:
                    most = consumed[head_of[t]] + wedges[t]
                    e = slot_edge[t]
        if e < 0:
            e = live.index(fewest)
        for o, d in by_edge[e]:
            if live[d] > n_opts:
                continue
            if nodes >= budget:
                stopped = True
                return
            mark = len(undo)
            # link o's slots, stopping at a taken slot or a failed wedge count
            for u, w in opt_links[o]:
                if succ[u] >= 0 or pred[w] >= 0:
                    break
                hu = head_of[u]
                if w == hu:
                    if consumed[hu] + wedges[u] != 3:
                        break
                    succ[u] = w
                    pred[w] = u
                    undo.append((u, w, -1, -1, 0))
                    continue
                tw = tail_of[w]
                merged = consumed[hu] + wedges[u] + consumed[w]
                if merged + wedges[tw] > 3:
                    break
                succ[u] = w
                pred[w] = u
                undo.append((u, w, hu, tw, consumed[hu]))
                tail_of[hu] = tw
                head_of[tw] = hu
                consumed[hu] = merged
            else:
                # cover e and d, then uncover them
                live[e] += done
                live[d] += done
                for x in touched[o]:
                    live[x] -= 1
                chosen.append(o)
                descend(o)
                chosen.pop()
                for x in touched[o]:
                    live[x] += 1
                live[d] -= done
                live[e] -= done
            while len(undo) > mark:
                u, w, hu, tw, old = undo.pop()
                succ[u] = -1
                pred[w] = -1
                if hu >= 0:
                    tail_of[hu] = u
                    head_of[tw] = w
                    consumed[hu] = old
            if len(found) >= limit:
                return

    if limit > 0:
        descend(-1)
    sols = [PairingSolution(tuple(options[o] for o in key)) for key in sorted(found)]
    return Completion(sols, nodes, not stopped)


def complete_survivors(
    Lcs: list[list[SidePairing]],
    F: FundamentalDomain,
    limit: int,
) -> tuple[list[list[PairingSolution]], int]:
    """complete_pairing for every L_c in order, one full search per orbit.

    When a symmetry of F maps the identification set of an earlier L_c whose
    search was exhaustive (finished, with fewer than ``limit`` solutions)
    exactly onto this one's, this one's solutions are the images of that
    search's: the symmetry maps covers to covers and vertex cycles to vertex
    cycles of the same wedges, and keeps each pairing's orientation type, so
    the images are exactly the solutions a full search would find.  Each image
    takes the first entry of this L_c naming each of its identifications,
    as complete_pairing's options do, and the images come back in
    complete_pairing's canonical order.  Returns the solutions per L_c, each
    a Completion, and the number of full searches run.
    """
    exhaustive: list[tuple[frozenset, list[PairingSolution]]] = []
    out = []
    searches = 0
    for Lc in Lcs:
        idents = frozenset(p.identification for p in Lc)
        sols = None
        for source, source_sols in exhaustive:
            if len(source) != len(idents):
                continue
            sym = next(
                (s for s in F.symmetries if {s.identification(i) for i in source} == idents),
                None,
            )
            if sym is not None:
                # this L_c's entry per identification, ranked by sort_key as
                # complete_pairing numbers its options
                first: dict[tuple, SidePairing] = {}
                for p in Lc:
                    first.setdefault(p.identification, p)
                ranked = sorted(first.values(), key=SidePairing.sort_key)
                rank = {p.identification: r for r, p in enumerate(ranked)}
                used = set().union(*(s.identifications for s in source_sols))
                image = {i: rank[sym.identification(i)] for i in used}
                keys = sorted(tuple(sorted(image[i] for i in s.identifications)) for s in source_sols)
                sols = Completion(PairingSolution(tuple(ranked[r] for r in key)) for key in keys)
                break
        if sols is None:
            sols = complete_pairing(Lc, F, limit=limit)
            searches += 1
            if sols.finished and len(sols) < limit:
                exhaustive.append((idents, sols))
        out.append(sols)
    return out, searches
