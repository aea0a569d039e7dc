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

from .domain import BoundarySlots, FundamentalDomain, InvalidCellStructure, SidePairing
from .geom import (
    TANGENT_TOL,
    CoincidentCurves,
    GeneralizedCircle,
    axis,
    displacement_offset,
    hypercycle,
    intersect,
    signed_offset,
)
from .tess import AdmissibilityTable, DistanceSet

CANDIDATE_DEDUP = 1e-6


@dataclass(frozen=True, slots=True)
class Candidate:
    point: complex
    seed_distances: tuple[float, float]


def _families(
    p: SidePairing,
    dset: DistanceSet,
    max_offset: float | None = None,
    max_families: int | None = None,
) -> list[tuple[float, float]]:
    """(distance, offset from the axis) of p's bananas, at the first
    ``max_families`` distances that have one (all by default).

    The offset grows with the distance, so the distances kept are one run
    of the sorted values: from the first that p displaces some point by to
    the last whose offset is within ``max_offset``.  Both ends are found by
    bisection on displacement_offset's own results, and only the run's
    offsets are computed."""
    cls, values = p.cls, dset.values
    lo = bisect.bisect_left(values, True, key=lambda d: displacement_offset(cls, d) is not None)
    hi = len(values)
    if max_offset is not None:  # every distance from lo on has an offset
        hi = bisect.bisect_left(
            values, True, lo, key=lambda d: displacement_offset(cls, d) > max_offset
        )
    if max_families is not None:
        hi = min(hi, lo + max_families)
    return [(d, displacement_offset(cls, d)) for d in values[lo:hi]]


def bananas(
    p: SidePairing,
    dset: DistanceSet,
    max_offset: float | None = None,
    max_families: int | None = None,
) -> list[tuple[float, list[GeneralizedCircle]]]:
    """Displacement loci of p at every admissible distance that has one.

    Distances below the minimal displacement are skipped; the distance equal
    to the translation length of a hyperbolic map contributes the axis as a
    single degenerate curve.  ``max_offset`` drops loci farther than that
    from the axis (used to restrict to curves that can meet the domain);
    ``max_families`` stops after that many distances (a figure draws only
    the first few).
    """
    A = axis(p.map)
    return [
        (d, [A] if delta == 0.0 else [hypercycle(A, delta, 1), hypercycle(A, delta, -1)])
        for d, delta in _families(p, dset, max_offset, max_families)
    ]


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
class _Curves:
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


def _banana_curves(p: SidePairing, dset: DistanceSet, F: FundamentalDomain) -> _Curves:
    """p's bananas within _domain_offset_bound of its axis, by hypercycle's
    arithmetic and operation order on arrays, with no object per curve.  A
    circle of radius above INTERSECT_RADIUS_CUT becomes the axis's chord.
    Every line is one of the axis's own, each built once: that chord,
    hypercycle's chord for a curve too flat for a circle, or a diameter
    axis itself."""
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
    return _Curves(A, d, tau, circles, center[circles], radius[circles], lines, line_curves)


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


def _newton_polish(A1, tau1, A2, tau2, zs, iterations: int = 3):
    """Move raw intersection points onto the exact displacement loci.

    Solves signed_offset(z, A1) = tau1, signed_offset(z, A2) = tau2 by Newton
    iteration; points with a singular Jacobian or a wild step keep their raw
    position (near-tangent intersections, harmless after deduplication).
    """
    x, y = zs.real.copy(), zs.imag.copy()
    for _ in range(iterations):
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


def _circle_pair_intersections(c1, r1, c2, r2, block=256):
    """Raw intersection points of two circle families (centers c, radii r),
    with the index of each point's circle in either family."""
    if not len(c1) or not len(c2):
        return None
    pts, out1, out2 = [], [], []
    for start in range(0, len(c1), block):
        sl = slice(start, start + block)
        dc = c2[None, :] - c1[sl, None]
        dd = np.abs(dc)
        coincident = (dd <= 1e-9) & (np.abs(r2[None, :] - r1[sl, None]) <= 1e-9)
        if coincident.any():
            raise CoincidentCurves("seed pairings share a displacement curve")
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (dd * dd + r1[sl, None] ** 2 - r2[None, :] ** 2) / (2.0 * dd)
            h2 = r1[sl, None] ** 2 - a * a
            ok = (dd > 1e-9) & (h2 >= -1e-12)
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
    """geom.intersect(line, circle) for every circle (center, radius), with
    its arithmetic and its order: points and a mask of those it returns,
    both of shape (circles, 2)."""
    n = line.normal
    # Re(conj(n) c) as Python forms it: numpy's product of two complex
    # arrays may fuse its multiply-adds (a product by a real or by 1j has
    # nothing to fuse), and its abs is not libm's hypot, as Python's is
    s = n.real * center.real + n.imag * center.imag - line.offset
    foot = center - s * n
    # float ** 2 takes libm pow, as intersect does, not numpy's square
    h2 = np.array([r**2 for r in radius.tolist()]) - s * s
    tangent = h2 <= TANGENT_TOL
    hu = np.sqrt(np.where(tangent, 0.0, h2)) * (1j * n)
    pts = np.stack([np.where(tangent, foot, foot + hu), foot - hu], axis=-1)
    ok = (np.hypot(pts.real, pts.imag) < 1.0) & (h2 >= -TANGENT_TOL)[:, None]
    ok[:, 1] &= ~tangent
    # intersect sorts each pair by (re, im)
    first, second = pts[:, 0], pts[:, 1]
    swap = ok.all(axis=1) & (
        (second.real < first.real) | ((second.real == first.real) & (second.imag < first.imag))
    )
    pts[swap] = pts[swap, ::-1]
    return pts, ok


def _line_intersections(b1: _Curves, b2: _Curves):
    """Raw intersection points that involve a line, with the index of each
    point's curve in either seed's curves, in the order of a loop of
    intersect over each line of b1 against b2's circles and then its lines,
    and then over each circle of b1 against b2's lines.  Line pairs, one or
    two per seed pair, go through intersect itself."""
    pts, i1, i2 = [], [], []
    for a, la in zip(b1.lines.tolist(), b1.line_curves):
        z, ok = _line_circle_points(la, b2.center, b2.radius)
        at, side = np.nonzero(ok)
        pts.append(z[at, side])
        i1.append(np.full(len(at), a))
        i2.append(b2.circles[at])
        for b, lb in zip(b2.lines.tolist(), b2.line_curves):
            w = intersect(la, lb)
            pts.append(np.array(w, dtype=complex))
            i1.append(np.full(len(w), a))
            i2.append(np.full(len(w), b))
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
    points come from whole arrays of curves (_banana_curves), circles
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
        b1 = _banana_curves(p1, dset, F)
        _p1_curves = (p1, dset, F, b1)
    b2 = _banana_curves(p2, dset, F)
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


def _numerator_coefficients(a: np.ndarray, b: np.ndarray, reversing: np.ndarray) -> np.ndarray:
    """Re N and Im N of the maps [[a, b], [conj b, conj a]] (reversing or
    not) over the monomials 1, x, y, x^2 - y^2, 2xy, r^2 of z = x + iy:
    rows 0 .. len(a) - 1 for Re N, the next len(a) rows for Im N.

    For such a map g, sinh(d(z, gz) / 2) = |N| / (1 - r^2) with
    N = b + (a - conj a) z - conj(b) z^2 if g is conformal and
    N = b + a conj(z) - conj(a) z - conj(b) r^2 if it is reversing
    (Beardon, The Geometry of Discrete Groups, 7.2).
    """
    a1, a2, b1, b2 = a.real, a.imag, b.real, b.imag
    rev = reversing.astype(bool)
    o = np.zeros(len(a))
    re = np.where(rev, [b1, o, o, o, o, -b1], [b1, o, -2.0 * a2, -b1, -b2, o])
    im = np.where(rev, [b2, 2.0 * a2, -2.0 * a1, o, o, b2], [b2, 2.0 * a2, o, b2, -b1, o])
    return np.concatenate([re.T, im.T])


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
       (_numerator_coefficients) come from two small matrix products,
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

    So every cell is that pairing's own value under the exact rule.
    """
    zs = np.asarray(points, dtype=complex)
    out = np.zeros((len(zs), len(L)), dtype=bool)
    if out.size == 0:
        return out
    table = dset.table
    n = len(L)
    a = np.array([p.map.a for p in L], dtype=complex)
    b = np.array([p.map.b for p in L], dtype=complex)
    reversing = np.array([p.reversing for p in L], dtype=np.intp)
    ws = np.stack([zs, np.conj(zs)])  # w of a cell is ws[reversing, point]
    coef = _numerator_coefficients(a, b, reversing)
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
    vertex_cycles: tuple[tuple[int, ...], ...]  # each cycle's ids into F.slot_table.points

    @cached_property
    def identifications(self) -> frozenset:
        return frozenset(p.identification for p in self.pairings)


def _vertex_cycles(slots: BoundarySlots, succ: list[int]):
    """Vertex cycles of a full slot permutation, as tuples of vertex ids
    (indices into slots.points).

    Each slot cycle is walked once from its smallest slot, counting its
    wedges.  Each quotient vertex on the boundary shows up as a mirror pair
    of slot cycles over the same vertices; the smaller vertex sequence
    represents it.  A cycle of other than 3 wedges is an error.
    """
    vertex, wedges = slots.slot_vertex, slots.slot_wedges
    seen = [False] * len(succ)
    by_vertex_set: dict[frozenset, list[tuple[tuple[int, ...], int]]] = {}
    for start in range(len(succ)):
        if seen[start]:
            continue
        seen[start] = True
        verts = [vertex[start]]
        total = wedges[start]
        cur = succ[start]
        while cur != start:
            if cur < 0 or seen[cur]:
                raise InvalidCellStructure("vertex links do not form a permutation")
            seen[cur] = True
            verts.append(vertex[cur])
            total += wedges[cur]
            cur = succ[cur]
        by_vertex_set.setdefault(frozenset(verts), []).append((tuple(verts), total))
    cycles = []
    for group in by_vertex_set.values():
        if len(group) != 2:
            raise InvalidCellStructure(
                "slot cycles do not pair up; an identification fixes a vertex"
            )
        cycles.append(min(group))
    cycles.sort()
    for _, total in cycles:
        if total != 3:
            raise InvalidCellStructure(f"vertex cycle closes at {total} wedges, not 3")
    return tuple(verts for verts, _ in cycles)


def complete_pairing(
    Lc: list[SidePairing],
    F: FundamentalDomain,
    limit: int = 32,
    within: list[frozenset] | None = None,
) -> list[PairingSolution]:
    """Exact-cover completion of Lc into full side-pairing sets with at
    least one reversing pairing each.

    Each identification of Lc is one option (the first entry of Lc naming
    it), numbered in SidePairing.sort_key order and listed under both of its
    edges by (reversing, other edge's key).  Every boundary edge must be
    matched exactly once.  The search branches on the first unmatched edge,
    in key order, with the fewest live options, tries them in listed order,
    and prunes on the Poincare vertex condition in wedges of 2 pi / 3: a
    closing cycle must collect exactly 3 and a partial chain never more.
    Returns up to ``limit`` solutions in deterministic order; an empty list
    means the search space is exhausted with no solution.

    ``within`` (identification sets) keeps only the branches that still
    lead to one of them: an option that no target left contains is skipped.
    Branching and option order stay those of the full Lc, so the targets
    that pass the same link, wedge and cover checks come back in the full
    search's order.

    State is kept in flat integer arrays (after Knuth's "Dancing Links"):
    per-edge live option counts, and the slot permutation built so far as
    ``succ``/``pred`` with chain endpoints and consumed wedges, undone from a
    log on backtrack.  A solution's vertex cycles are read off ``succ``.  The
    slot table and each option's slot links are F.slot_table's, built once per domain.
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
    succ = [-1] * n_slots
    pred = [-1] * n_slots
    head_of = list(range(n_slots))  # valid at chain tails
    tail_of = list(range(n_slots))  # valid at chain heads
    consumed = [0] * n_slots  # valid at chain heads: wedges of linked slots
    undo: list[tuple[int, int, int, int, int]] = []
    chosen: list[int] = []
    solutions: list[PairingSolution] = []

    def emit() -> None:
        pairings = tuple(options[o] for o in sorted(chosen))
        if any(p.reversing for p in pairings):
            solutions.append(PairingSolution(pairings, _vertex_cycles(slots, succ)))

    def descend(targets: list[frozenset] | None) -> None:
        fewest = min(live, default=done)
        if fewest > n_opts:
            # the targets left contain every chosen option: emit if one is no more
            if targets is None or any(len(t) == len(chosen) for t in targets):
                emit()
            return
        if fewest == 0:
            return
        e = live.index(fewest)
        for o, d in by_edge[e]:
            if live[d] > n_opts:
                continue
            kept = None
            if targets is not None:
                kept = [t for t in targets if o in t]
                if not kept:
                    continue
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
                descend(kept)
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
            if len(solutions) >= limit:
                return

    targets = None
    if within is not None:
        # as option sets; a target naming an identification outside Lc is no cover
        option_of = {p.identification: o for o, p in enumerate(options)}
        targets = [
            frozenset(option_of[i] for i in t) for t in within if t.issubset(option_of)
        ]
    if limit > 0:
        descend(targets)
    return solutions


def complete_survivors(
    Lcs: list[list[SidePairing]],
    F: FundamentalDomain,
    limit: int = 32,
) -> tuple[list[list[PairingSolution]], int]:
    """complete_pairing for every L_c in order, one full search per orbit.

    When a symmetry of F maps the identification set of an earlier L_c whose
    search was exhaustive (fewer than ``limit`` solutions) exactly onto this
    one's, the images of that search's solutions are replayed through
    complete_pairing(..., within=images), which checks each one and puts
    them in the full search's order, instead of searching again.  Returns
    the solutions per L_c and the number of full searches run.
    """
    exhaustive: list[tuple[frozenset, list[PairingSolution]]] = []
    out = []
    searches = 0
    for Lc in Lcs:
        idents = frozenset(p.identification for p in Lc)
        within = None
        for source, source_sols in exhaustive:
            if len(source) != len(idents):
                continue
            sym = next(
                (s for s in F.symmetries if {s.identification(i) for i in source} == idents),
                None,
            )
            if sym is not None:
                within = [
                    frozenset(map(sym.identification, s.identifications)) for s in source_sols
                ]
                break
        sols = complete_pairing(Lc, F, limit=limit, within=within)
        if within is None:
            searches += 1
            if len(sols) < limit:
                exhaustive.append((idents, sols))
        out.append(sols)
    return out, searches
