"""Published reference data for the N=14 worked example (1-based polygons),
and the oracles the fast paths are checked against: the per-matching
pairing_between and the enumeration that lists every identification in both
directions with it, classifying each, for the one-entry-per-identification
list L built from per-edge factors in one array pass with a trace screen;
the loop that takes a banana offset at every distance, for the one that
bisects for the run of distances kept; the scalar hypercycle, one object
per curve, and the scalar intersect of two generalized circles, for the
curves search.banana_curves builds on arrays and the intersections it
takes of them; the candidate generator with an
object per banana curve, scalar line intersections, the edge-by-edge
inside test on every point (reference_contains), a Python tuple per raw intersection and its
output sorted again, for the one that works in array passes; the scalar
compatibility filter and the per-pairing compatibility loop for the screened compatibility kernel; the backtracker
whose state is copied at every node (with its cycle re-trace), fed both
directions of each identification and closing cycles by float angle sums
within a tolerance, for the exact-cover completion engine that counts
wedges;
the slot-permutation walker trace_cycles, and solution_cycles, the vertex
cycles of a solution, which the engine emits as its pairings alone; the
geometric slot links (each endpoint's
image under the pairing, looked up among the vertices) for the links
BoundarySlots takes by the endpoint rule; the membership reduction
whose best-first search composes every child's isometry at the push, for
the one that composes it at the pop; the enumeration of the admissible
distances over every product of neighbor maps, for the one that takes one
word per rotation orbit, and that one's walk over whole levels, for the
one that streams them depth first in fixed-size blocks; and the renderer
that stores each drawn item as a dict in a Scene layer and dispatches on
its type, for the one whose figures are lists of SVG element strings; the
artifact writer that encoded every line with the C encoder, and the dict
and list records it encoded, for the formatters that write each record's
line from arrays; and the filtering loop over candidates, with a column
gather per boundary edge, for the one that cuts L_c and the uncovered
edges out of one nonzero each.  Also the
small helpers only tests use:
the translation along the real diameter, the distance to a geodesic, a
point of a generalized circle, a central-tile edge carrier, the scalar
edge margin that _CarrierTable.margins is checked against, and the scalar
admissibility rule for one distance that AdmissibilityTable is checked
against."""

import bisect
import cmath
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from diskpack.domain import (
    INSIDE_TOL,
    BoundarySlots,
    EdgeRef,
    FundamentalDomain,
    InvalidCellStructure,
    PairingTable,
    SidePairing,
    pairing_record,
)
from diskpack.geom import (
    COINCIDENT_TOL,
    GLIDE,
    HYPERBOLIC,
    TANGENT_TOL,
    CoincidentCurves,
    GeneralizedCircle,
    GeometryError,
    Isometry,
    axis,
    classify,
    displacement_offset,
    dist,
    midpoint,
    segment_aligner,
    signed_offset,
)
from diskpack.group import (
    BFS_DEPTH,
    BFS_NODE_LIMIT,
    GroupPresentation,
    MembershipResult,
    _inverse_index,
    word_residual,
)
from diskpack.search import CANDIDATE_DEDUP, Candidate, compatibility_matrix
from diskpack.render import BANANA_FAMILIES, R_VIEW, SIZE, _arc_path, _fmt, _xy
from diskpack.tess import (
    DEDUP_TOL,
    MATCH_TOL,
    DistanceSet,
    TriangleGenerators,
    _compose_arrays,
    triangle_generators,
)

def axis_translation(t: float) -> Isometry:
    """Hyperbolic translation by t along the real diameter."""
    return Isometry(math.cosh(0.5 * t), math.sinh(0.5 * t))


def dist_to_geodesic(z: complex, A: GeneralizedCircle) -> float:
    return math.asinh(abs(signed_offset(z, A)))


def point_at(C: GeneralizedCircle, t: float) -> complex:
    """The point of a circle at angle t, or of a line at parameter t."""
    if C.kind == "circle":
        return C.center + C.radius * cmath.exp(1j * t)
    return C.offset * C.normal + t * (1j * C.normal)


def edge_carrier(gens: TriangleGenerators, m: int = 0) -> GeneralizedCircle:
    """Carrier geodesic of edge m of the central tile."""
    x0 = math.tanh(0.5 * gens.metrics.inradius)
    c0 = (1.0 + x0 * x0) / (2.0 * x0)
    w = cmath.exp(2j * math.pi * m / gens.n) if m % gens.n else 1.0
    return GeneralizedCircle.circle(c0 * w, c0 - x0)


def is_admissible(dset: DistanceSet, d: float) -> bool:
    """The admissibility rule |v - d| <= match_tol for one distance, by
    bisection: the scalar reference for AdmissibilityTable."""
    i = bisect.bisect_left(dset.values, d)
    for j in (i - 1, i):
        if 0 <= j < len(dset.values) and abs(dset.values[j] - d) <= dset.match_tol:
            return True
    return False


# the float closure rule the completion oracle keeps: a tile corner's angle,
# and the tolerance on a cycle's angle sum
WEDGE = 2.0 * math.pi / 3.0
ANGLE_TOL = 1e-6

GOOD_CANDIDATE = 0.516 - 0.248j
REJECTED_CANDIDATE = 0.324 - 0.478j

SEED_P1 = (True, 1, 13, 1, 10)  # orientation-reversing, pol1 13 -> pol1 10
SEED_P2 = (False, 1, 2, 2, 7)  # conformal, pol1 2 -> pol2 7

# compatible pairings reported for the rejected candidate
LC_REJECTED = [
    (True, 1, 10, 1, 13),
    (True, 1, 13, 1, 10),
    (False, 1, 2, 2, 7),
    (True, 1, 11, 2, 1),
    (False, 2, 8, 3, 13),
]

# the full generating set chosen for the good candidate
SOLUTION_18 = [
    (True, 1, 13, 1, 10),
    (False, 1, 2, 2, 7),
    (True, 2, 1, 1, 11),
    (False, 3, 13, 2, 8),
    (False, 1, 12, 1, 7),
    (True, 1, 8, 2, 2),
    (False, 1, 5, 2, 3),
    (True, 1, 9, 1, 6),
    (False, 1, 4, 3, 5),
    (False, 1, 3, 2, 10),
    (False, 2, 9, 3, 6),
    (False, 3, 12, 3, 7),
    (False, 2, 6, 2, 11),
    (False, 2, 4, 3, 4),
    (False, 3, 3, 3, 11),
    (False, 2, 5, 3, 10),
    (False, 2, 12, 3, 9),
    (False, 3, 2, 3, 8),
]


def ident(rec):
    """Direction-free identification record with 0-based polygon indices."""
    rev, sp, se, dp, de = rec
    a, b = (sp - 1, se), (dp - 1, de)
    return (rev, min(a, b), max(a, b))


LC_REJECTED_IDENTS = frozenset(ident(r) for r in LC_REJECTED)
SOLUTION_18_IDENTS = frozenset(ident(r) for r in SOLUTION_18)


def pairing_between(F: FundamentalDomain, src: EdgeRef, dst: EdgeRef, reversing: bool) -> Isometry:
    """The matching of src onto dst carrying the inward side of src outward."""
    u1, u2 = src.endpoints
    v1, v2 = dst.endpoints
    h1 = segment_aligner(u1, u2)
    if reversing:
        # endpoints kept parallel; the orientation flip crosses the sides
        return segment_aligner(v1, v2).inverse() * Isometry(1.0, 0.0, True) * h1
    # endpoints crossed; conformality crosses the sides
    return segment_aligner(v2, v1).inverse() * h1


def reference_enumerate_pairings(F: FundamentalDomain) -> list[SidePairing]:
    """All axial side pairings between ordered pairs of distinct boundary edges.

    Generates 2 E (E-1) matchings and keeps those classified hyperbolic
    (conformal) or glide (reversing); vertex-fixing elliptics and mirror
    reflections are impossible in a torsion-free group and are discarded.
    """
    out = []
    for src in F.boundary:
        for dst in F.boundary:
            if src.key == dst.key:
                continue
            for reversing in (False, True):
                m = pairing_between(F, src, dst, reversing)
                want = GLIDE if reversing else HYPERBOLIC
                if classify(m).tag != want:
                    continue
                out.append(SidePairing(m, src, dst, reversing))
    out.sort(key=SidePairing.sort_key)
    return out


def flipped(record):
    """The record of the same identification in the other direction."""
    rev, sp, se, dp, de = record
    return (rev, dp, de, sp, se)


def both_directions(Lc, L2):
    """Each entry of Lc followed by the entry of the two-direction list L2
    (reference_enumerate_pairings) for its flipped record."""
    by_record = {p.record: p for p in L2}
    return [q for p in Lc for q in (p, by_record[flipped(p.record)])]


def compatible_pairings(c, L, dset):
    """The sublist of L displacing the candidate (or point) c by an admissible
    distance, one pairing at a time; compatibility_matrix must agree."""
    z = getattr(c, "point", c)
    return [p for p in L if is_admissible(dset, dist(z, p.map(z)))]


def vertex_points(F: FundamentalDomain) -> list[complex]:
    """The point of each vertex id: BoundarySlots numbers the vertices in
    F.vertex_classes() order."""
    return [z for z, _ in F.vertex_classes()]


def vertex_at(points: list[complex], z: complex) -> int:
    for idx, p in enumerate(points):
        if abs(z - p) < 1e-6:
            return idx
    raise InvalidCellStructure(f"pairing image {z} is not a vertex of the domain")


def _links_one_direction(struct: BoundarySlots, points, src_key, dst_key, mp: Isometry):
    out = []
    for v in (v for (key, v) in struct.slots if key == src_key):
        w = vertex_at(points, mp(points[v]))
        if dst_key not in struct.incident.get(w, ()):
            raise InvalidCellStructure(
                f"pairing sends vertex {v} off the endpoints of {dst_key}"
            )
        other = next(k for k in struct.incident[w] if k != dst_key)
        out.append((struct.slot_of[(src_key, v)], struct.slot_of[(other, w)]))
    return out


def reference_links(
    struct: BoundarySlots, points: list[complex], p: SidePairing
) -> tuple[tuple[int, int], ...]:
    """The four slot links of p from the images of its endpoints under p
    and p^-1, src's endpoints first; ``points`` is vertex_points(F)."""
    return tuple(
        _links_one_direction(struct, points, p.src.key, p.dst.key, p.map)
        + _links_one_direction(struct, points, p.dst.key, p.src.key, p.map.inverse())
    )


def trace_cycles(succ: list[int], angles: list[float]):
    """Cycles of the slot permutation ``succ`` (slot s is followed by
    succ[s], -1 for none), each listed from its smallest slot, with the sum
    of its slots' ``angles`` (per-slot angles or wedge counts)."""
    seen = [False] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = succ[start]
        while cur != start:
            if cur < 0 or seen[cur]:
                raise InvalidCellStructure("vertex links do not form a permutation")
            cyc.append(cur)
            seen[cur] = True
            cur = succ[cur]
        cycles.append((tuple(cyc), sum(angles[v] for v in cyc)))
    return cycles


def reference_trace_cycles(links: dict[int, int], angles: dict[int, float]):
    """Cycles of the permutation ``links`` with their angle sums."""
    seen = set()
    cycles = []
    for start in sorted(links):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = links[start]
        while cur != start:
            if cur in seen or cur not in links:
                raise InvalidCellStructure("vertex links do not form a permutation")
            cyc.append(cur)
            seen.add(cur)
            cur = links[cur]
        cycles.append((tuple(cyc), sum(angles[v] for v in cyc)))
    return cycles


class _ChainState:
    """Partial vertex permutation with chain angle accounting."""

    __slots__ = ("succ", "pred", "head", "chains", "closed")

    def __init__(self):
        self.succ: dict[int, int] = {}
        self.pred: dict[int, int] = {}
        self.head: dict[int, int] = {}
        self.chains: dict[int, tuple[int, float]] = {}  # head -> (tail, consumed)
        self.closed: list[tuple[int, float]] = []  # (head, total angle)

    def copy(self) -> "_ChainState":
        st = _ChainState.__new__(_ChainState)
        st.succ = dict(self.succ)
        st.pred = dict(self.pred)
        st.head = dict(self.head)
        st.chains = dict(self.chains)
        st.closed = list(self.closed)
        return st

    def add_link(self, u: int, w: int, angles: list[float], tol: float) -> bool:
        if u in self.succ or w in self.pred:
            return False
        self.succ[u] = w
        self.pred[w] = u
        hu = self.head.get(u, u)
        if hu not in self.chains:
            self.chains[hu] = (hu, 0.0)
            self.head[hu] = hu
        tail_u, sum_u = self.chains[hu]
        if tail_u != u:
            return False
        if w == hu:
            total = sum_u + angles[u]
            del self.chains[hu]
            if abs(total - 2.0 * math.pi) > tol:
                return False
            self.closed.append((hu, total))
            return True
        hw = self.head.get(w, w)
        if hw not in self.chains:
            self.chains[hw] = (hw, 0.0)
            self.head[hw] = hw
        tail_w, sum_w = self.chains[hw]
        merged = sum_u + angles[u] + sum_w
        if merged + angles[tail_w] > 2.0 * math.pi + tol:
            return False
        del self.chains[hw]
        self.chains[hu] = (tail_w, merged)
        node = w
        while True:
            self.head[node] = hu
            if node == tail_w:
                break
            node = self.succ[node]
        return True


@dataclass(frozen=True)
class ReferenceSolution:
    """A solution of reference_complete_pairing: its pairings, and its
    vertex cycles as tuples of vertex points (the engine's solutions hold
    the pairings alone)."""

    pairings: tuple[SidePairing, ...]
    vertex_cycles: tuple[tuple[complex, ...], ...]

    @property
    def identifications(self) -> frozenset:
        return frozenset(p.identification for p in self.pairings)


def reference_complete_pairing(
    Lc: list[SidePairing],
    F: FundamentalDomain,
    limit: int = 32,
    require_reversing: bool = True,
    angle_tol: float = ANGLE_TOL,
) -> list[ReferenceSolution]:
    """The copy-per-node backtracker that complete_pairing replaced.

    Picks the unmatched boundary edge with the fewest live options, tries its
    compatible pairings in canonical order, and prunes on the Poincare vertex
    condition: a closing cycle must total 2 pi and a partial chain may never
    exceed it, both within ``angle_tol``; a slot's angle is WEDGE times its
    vertex's wedge count.  Returns up to ``limit`` solutions
    in deterministic order; an empty list means the search space is exhausted
    with no solution.
    """
    struct = BoundarySlots(F)
    points = vertex_points(F)
    angles = slot_angles(struct)
    by_src: dict[tuple[int, int], list[SidePairing]] = {e.key: [] for e in F.boundary}
    for p in sorted(set(Lc), key=SidePairing.sort_key):
        if p.src.key in by_src and p.dst.key in by_src and p.src.key != p.dst.key:
            by_src[p.src.key].append(p)
    link_cache: dict[tuple, list[tuple[int, int]]] = {}
    for plist in by_src.values():
        for p in plist:
            if p.record not in link_cache:
                link_cache[p.record] = reference_links(struct, points, p)

    edge_keys = sorted(by_src)
    solutions: list[ReferenceSolution] = []

    def descend(matched: dict, state: _ChainState):
        if len(solutions) >= limit:
            return
        unmatched = [k for k in edge_keys if k not in matched]
        if not unmatched:
            _emit_solution(matched, struct, points, solutions, require_reversing, angle_tol)
            return
        best_key, best_opts = None, None
        for key in unmatched:
            opts = [p for p in by_src[key] if p.dst.key not in matched]
            if best_opts is None or len(opts) < len(best_opts):
                best_key, best_opts = key, opts
                if not opts:
                    return
        for p in best_opts:
            st = state.copy()
            ok = True
            for u, w in link_cache[p.record]:
                if not st.add_link(u, w, angles, angle_tol):
                    ok = False
                    break
            if not ok:
                continue
            matched[best_key] = p
            matched[p.dst.key] = p
            descend(matched, st)
            del matched[best_key]
            del matched[p.dst.key]
            if len(solutions) >= limit:
                return

    descend({}, _ChainState())
    return solutions


def slot_angles(struct: BoundarySlots) -> list[float]:
    """Each slot's corner angle: its vertex's wedges of 2 pi / 3."""
    return [WEDGE * w for w in struct.slot_wedges]


def solution_cycles(
    pairings, struct: BoundarySlots, points: list[complex]
) -> list[tuple[tuple[int, ...], float]]:
    """Vertex cycles of a full identification set, one per mirror pair,
    from the geometric links of reference_links (``points`` is
    vertex_points(F)).

    Returns (vertex class ids in cycle order, angle sum) for each quotient
    vertex coming from the boundary.
    """
    links: dict[int, int] = {}
    for p in pairings:
        for u, w in reference_links(struct, points, p):
            if u in links:
                raise InvalidCellStructure("boundary edge identified twice")
            links[u] = w
    if len(links) != len(struct.slots):
        raise InvalidCellStructure("identifications do not cover the boundary")
    return paired_cycles(links, struct)


def paired_cycles(links: dict[int, int], struct) -> list[tuple[tuple[int, ...], float]]:
    """The slot cycles of the permutation ``links``, paired by vertex set:
    each pair's smaller vertex sequence with its angle sum, in sorted
    order.  ``struct`` gives each slot's vertex (``slots``) and wedges
    (``slot_wedges``).  Slot cycles that do not pair up are an error."""
    slot_cycles = reference_trace_cycles(links, dict(enumerate(slot_angles(struct))))
    by_vertex_set: dict[frozenset, list[tuple[tuple[int, ...], float]]] = {}
    for cyc, total in slot_cycles:
        verts = tuple(struct.slots[s][1] for s in cyc)
        by_vertex_set.setdefault(frozenset(verts), []).append((verts, total))
    out = []
    for group in by_vertex_set.values():
        if len(group) != 2:
            raise InvalidCellStructure(
                "slot cycles do not pair up; an identification fixes a vertex"
            )
        out.append(min(group))
    out.sort()
    return out


def _emit_solution(matched, struct, points, solutions, require_reversing, angle_tol):
    chosen = {}
    for p in matched.values():
        chosen[p.identification] = min(
            chosen.get(p.identification, p), p, key=SidePairing.sort_key
        )
    pairings = tuple(sorted(chosen.values(), key=SidePairing.sort_key))
    if require_reversing and not any(p.reversing for p in pairings):
        return
    cycles = solution_cycles(pairings, struct, points)
    for _, total in cycles:
        if abs(total - 2.0 * math.pi) > angle_tol:
            raise InvalidCellStructure(f"vertex cycle closes at {total}")
    vertex_cycles = tuple(tuple(points[v] for v in cyc) for cyc, _ in cycles)
    solutions.append(ReferenceSolution(pairings, vertex_cycles))


def reference_admissible_distances(
    n: int,
    depth: int,
    match_tol: float = MATCH_TOL,
    dedup_tol: float = DEDUP_TOL,
) -> DistanceSet:
    """Distances d(0, R(0)) over all n^depth products of depth neighbor maps.

    Cost grows as depth * n^depth; depth 5 at n = 14 is about half a million
    products.  The enumeration streams level by level as arrays of matrix
    entries, so memory stays at one level's worth of products.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = triangle_generators(n)
    ga = np.array([g.a for g in gens.rm], dtype=complex)
    gb = np.array([g.b for g in gens.rm], dtype=complex)
    pa, pb = ga.copy(), gb.copy()
    for _ in range(depth - 1):
        na, nb = _compose_arrays(pa[:, None], pb[:, None], ga[None, :], gb[None, :])
        pa, pb = na.ravel(), nb.ravel()
        scale = np.sqrt(np.abs(pa) ** 2 - np.abs(pb) ** 2)
        pa /= scale
        pb /= scale
    w = np.abs(pb / np.conj(pa))
    d = 2.0 * np.arctanh(w)
    d = np.sort(d)
    keep = np.concatenate(([True], np.diff(d) > dedup_tol))
    d = d[keep]
    values = (0.0,) + tuple(float(v) for v in d[d > dedup_tol])
    return DistanceSet(values, depth, match_tol)


def reference_level_distances(
    n: int,
    depth: int,
    match_tol: float = MATCH_TOL,
) -> DistanceSet:
    """Distances d(0, R(0)) over all products R of depth neighbor maps.

    One word per rotation orbit is enough.  R_m = (ca)^m R_0 with ca the
    rotation by 2pi/n about 0, so a word R_m h equals (ca)^m R_0 h, and as
    (ca)^m is an isometry fixing 0, d(0, R_m h(0)) = d(0, R_0 h(0)).  Only
    the n^(depth-1) words whose first letter is R_0 are enumerated, so the
    cost grows as depth * n^(depth-1): at n = 14, depth 5 the last level
    holds 38 416 words, against 537 824 for every word.  The enumeration
    streams level by level as arrays of matrix entries, so memory stays at
    one level's worth of products.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    gens = triangle_generators(n)
    ga = np.array([g.a for g in gens.rm], dtype=complex)
    gb = np.array([g.b for g in gens.rm], dtype=complex)
    pa, pb = ga[:1], gb[:1]
    for _ in range(depth - 1):
        na, nb = _compose_arrays(pa[:, None], pb[:, None], ga[None, :], gb[None, :])
        pa, pb = na.ravel(), nb.ravel()
        scale = np.sqrt(np.abs(pa) ** 2 - np.abs(pb) ** 2)
        pa /= scale
        pb /= scale
    w = np.abs(pb / np.conj(pa))
    d = 2.0 * np.arctanh(w)
    d = np.sort(d)
    keep = np.concatenate(([True], np.diff(d) > DEDUP_TOL))
    d = d[keep]
    values = (0.0,) + tuple(float(v) for v in d[d > DEDUP_TOL])
    return DistanceSet(values, depth, match_tol)


def reference_displacement(zs, p):
    """d(z, p(z)) for an array of points, by the per-pairing loop's formula."""
    w = np.conj(zs) if p.reversing else zs
    img = (p.map.a * w + p.map.b) / (np.conj(p.map.b) * w + np.conj(p.map.a))
    return 2.0 * np.arctanh(np.abs(img - zs) / np.abs(1.0 - np.conj(img) * zs))


def reference_compatibility_matrix(points, L, dset):
    """The per-pairing compatibility loop: one pass over the points per entry
    of L, nearest admissible distance by searchsorted."""
    zs = np.array(points)
    vals = np.array(dset.values)
    out = np.zeros((len(points), len(L)), dtype=bool)
    for j, p in enumerate(L):
        d = reference_displacement(zs, p)
        idx = np.searchsorted(vals, d)
        lo = np.clip(idx - 1, 0, len(vals) - 1)
        hi = np.clip(idx, 0, len(vals) - 1)
        near = np.minimum(np.abs(vals[lo] - d), np.abs(vals[hi] - d))
        out[:, j] = near <= dset.match_tol
    return out


def hypercycle(A: GeneralizedCircle, delta: float, side: int = 1) -> GeneralizedCircle:
    """Equidistant curve at distance delta from the geodesic A.

    ``side`` is +1 or -1 and selects the component with that sign of
    ``signed_offset``; for a circle geodesic +1 is the component on the
    origin's side of A.  delta = 0 returns A itself.
    """
    if side not in (1, -1):
        raise GeometryError(f"side must be +1 or -1, got {side}")
    if delta < 0.0:
        raise GeometryError("hypercycle offset must be nonnegative")
    if delta == 0.0:
        return A
    if A.kind == "circle":
        k = side * math.sinh(delta) * A.radius
        span = math.sqrt(A.radius**2 + k * k)
        if abs(1.0 + k) <= 1e-9 * span:
            # radius would exceed ~1e9; the curve is the chord of A's ideal
            # points to within the returned-curve tolerance
            d = abs(A.center)
            return GeneralizedCircle.line(A.center / d, 1.0 / d)
        c = A.center / (1.0 + k)
        return GeneralizedCircle.circle(c, span / abs(1.0 + k))
    k = side * math.sinh(delta)
    if abs(k) <= 1e-9 * math.sqrt(1.0 + k * k):
        return A
    return GeneralizedCircle.circle(-A.normal / k, math.sqrt(1.0 + k * k) / abs(k))


def _in_open_disk(z: complex) -> bool:
    return abs(z) < 1.0


def intersect(
    c1: GeneralizedCircle, c2: GeneralizedCircle, tangent_tol: float = TANGENT_TOL
) -> list[complex]:
    """Intersection points of two generalized circles inside the open unit disk.

    Tangencies (discriminant within tangent_tol of zero) give one point.
    Raises CoincidentCurves when both curves are the same within tolerance.
    """
    if c1.kind == "line" and c2.kind == "line":
        n1, n2 = c1.normal, c2.normal
        det = n1.real * n2.imag - n1.imag * n2.real
        if abs(det) <= 1e-13:
            same = abs(c1.side(c2.offset * n2)) <= COINCIDENT_TOL
            if same:
                raise CoincidentCurves("identical lines")
            return []
        x = (c1.offset * n2.imag - c2.offset * n1.imag) / det
        y = (c2.offset * n1.real - c1.offset * n2.real) / det
        pts = [complex(x, y)]
    elif c1.kind == "line" or c2.kind == "line":
        line, circ = (c1, c2) if c1.kind == "line" else (c2, c1)
        s = line.side(circ.center)
        foot = circ.center - s * line.normal
        h2 = circ.radius**2 - s * s
        if h2 < -tangent_tol:
            return []
        if h2 <= tangent_tol:
            pts = [foot]
        else:
            h = math.sqrt(h2)
            u = 1j * line.normal
            pts = [foot + h * u, foot - h * u]
    else:
        dvec = c2.center - c1.center
        d = abs(dvec)
        if d <= COINCIDENT_TOL:
            if abs(c1.radius - c2.radius) <= COINCIDENT_TOL:
                raise CoincidentCurves("identical circles")
            return []
        x = (d * d + c1.radius**2 - c2.radius**2) / (2.0 * d)
        h2 = c1.radius**2 - x * x
        if h2 < -tangent_tol:
            return []
        u = dvec / d
        base = c1.center + x * u
        if h2 <= tangent_tol:
            pts = [base]
        else:
            h = math.sqrt(h2)
            pts = [base + h * 1j * u, base - h * 1j * u]
    pts = [p for p in pts if _in_open_disk(p)]
    pts.sort(key=lambda p: (p.real, p.imag))
    return pts


def reference_families(
    p: SidePairing, dset: DistanceSet, max_offset: float
) -> list[tuple[float, float]]:
    """(distance, offset from the axis) of p's bananas within ``max_offset``
    of its axis, taking the offset at every distance in turn."""
    out = []
    for d in dset.values:
        delta = displacement_offset(p.cls, d)
        if delta is None or delta > max_offset:
            continue
        out.append((d, delta))
    return out


def _banana_records(
    p: SidePairing,
    dset: DistanceSet,
    max_offset: float | None = None,
    max_families: int | None = None,
) -> tuple[GeneralizedCircle, list[tuple[float, float, GeneralizedCircle]]]:
    """Axis and (distance, signed sinh offset, curve) records of p's bananas,
    at the first ``max_families`` distances that have one (all by default)."""
    A = axis(p.map)
    recs = []
    families = 0
    for d in dset.values:
        if families == max_families:
            break
        delta = displacement_offset(p.cls, d)
        if delta is None:
            continue
        if max_offset is not None and delta > max_offset:
            continue
        families += 1
        if delta == 0.0:
            recs.append((d, 0.0, A))
        else:
            tau = math.sinh(delta)
            recs.append((d, tau, hypercycle(A, delta, 1)))
            recs.append((d, -tau, hypercycle(A, delta, -1)))
    return A, recs


def _domain_offset_bound(F: FundamentalDomain, A: GeneralizedCircle) -> float:
    # distance to a geodesic is convex, so the max over each convex tile is
    # attained at a corner
    return max(
        dist_to_geodesic(v, A) for poly in F.corners for v in poly
    ) + 1e-6


INTERSECT_RADIUS_CUT = 1e5


def _chordify(curve: GeneralizedCircle, A: GeneralizedCircle) -> GeneralizedCircle:
    """Replace an extreme-radius hypercycle circle by the chord of the axis's
    ideal points for intersection purposes (the Newton polish afterwards
    removes the sub-1e-5 approximation error)."""
    if curve.kind == "circle" and curve.radius > INTERSECT_RADIUS_CUT:
        u, v = A.ideal_points()
        sep = abs(v - u)
        normal = 1j * (v - u) / sep
        return GeneralizedCircle.line(normal, (normal.conjugate() * u).real)
    return curve


def _split_curves(records, A):
    circles, lines = [], []
    for d, tau, c in records:
        c = _chordify(c, A)
        (circles if c.kind == "circle" else lines).append((d, tau, c))
    return circles, lines


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


def _circle_pair_intersections(circ1, circ2, block=256):
    """Raw intersection points of two circle families with parent records."""
    if not circ1 or not circ2:
        return None
    c1 = np.array([c.center for _, _, c in circ1])
    r1 = np.array([c.radius for _, _, c in circ1])
    c2 = np.array([c.center for _, _, c in circ2])
    r2 = np.array([c.radius for _, _, c in circ2])
    d1 = np.array([d for d, _, _ in circ1])
    t1 = np.array([t for _, t, _ in circ1])
    d2 = np.array([d for d, _, _ in circ2])
    t2 = np.array([t for _, t, _ in circ2])
    pts, out1, out2 = [], [], []
    for start in range(0, len(circ1), block):
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
                out1.append(np.stack([d1[sl][ii], t1[sl][ii]], axis=1))
                out2.append(np.stack([d2[jj], t2[jj]], axis=1))
    if not pts:
        return None
    return np.concatenate(pts), np.concatenate(out1), np.concatenate(out2)


def edge_margin(e: EdgeRef, z):
    """Signed sinh-distance to e's carrier, positive on the inward side; z
    is a point or an array of points.  The scalar reference for
    _CarrierTable.margins."""
    return e.inward * signed_offset(z, e.carrier)


def polygon_margin(F: FundamentalDomain, z, poly: int):
    return np.minimum.reduce([edge_margin(e, z) for e in F.edges[poly]])


def reference_contains(F: FundamentalDomain, z, tol: float = INSIDE_TOL):
    """FundamentalDomain.contains' array path before its disc prefilter and
    carrier-table broadcast: every point, tile by tile, edge by edge."""
    strict = False
    near = 0
    for poly in range(F.k):
        m = polygon_margin(F, z, poly)
        strict = strict | (m > tol)
        near = near + (m >= -tol)
    return strict | (near >= 2)


def reference_candidates(p1, p2, dset, F, dedup=CANDIDATE_DEDUP):
    """search.candidates with a GeneralizedCircle per banana curve, a scalar
    intersect loop for the lines, the inside test on every polished point,
    edge by edge, a Python tuple per raw intersection before that test, and
    its output sorted once more at the end."""
    if p1.record == p2.record:
        raise ValueError("seed pairings must be distinct")
    A1, recs1 = _banana_records(p1, dset, _domain_offset_bound(F, axis(p1.map)))
    A2, recs2 = _banana_records(p2, dset, _domain_offset_bound(F, axis(p2.map)))
    circ1, lines1 = _split_curves(recs1, A1)
    circ2, lines2 = _split_curves(recs2, A2)

    pieces = []
    hit = _circle_pair_intersections(circ1, circ2)
    if hit is not None:
        pieces.append(hit)
    # lines are rare (hypercycles through antipodal ideal points); scalar path
    scalar: list[tuple[complex, float, float, float, float]] = []
    for d_a, t_a, la in lines1:
        for d_b, t_b, cb in circ2 + lines2:
            for z in intersect(la, cb):
                scalar.append((z, d_a, t_a, d_b, t_b))
    for d_a, t_a, ca in circ1:
        for d_b, t_b, lb in lines2:
            for z in intersect(ca, lb):
                scalar.append((z, d_a, t_a, d_b, t_b))
    if scalar:
        pieces.append(
            (
                np.array([rec[0] for rec in scalar]),
                np.array([[rec[1], rec[2]] for rec in scalar]),
                np.array([[rec[3], rec[4]] for rec in scalar]),
            )
        )
    if not pieces:
        return []
    zs = np.concatenate([p[0] for p in pieces])
    rec1 = np.concatenate([p[1] for p in pieces])
    rec2 = np.concatenate([p[2] for p in pieces])

    zs = _newton_polish(A1, rec1[:, 1], A2, rec2[:, 1], zs)
    keep = (np.abs(zs) < 1.0) & reference_contains(F, zs)
    raw = [
        (z, d_a, d_b)
        for z, d_a, d_b, ok in zip(zs, rec1[:, 0], rec2[:, 0], keep)
        if ok
    ]
    raw.sort(key=lambda rec: (rec[0].real, rec[0].imag))

    out: list[Candidate] = []
    for z, d_a, d_b in raw:
        dup = False
        for c in reversed(out):
            if z.real - c.point.real > dedup:
                break
            if abs(z - c.point) <= dedup:
                dup = True
                break
        if not dup:
            out.append(Candidate(complex(z), (float(d_a), float(d_b))))
    out.sort(key=lambda c: (c.point.real, c.point.imag))
    return out


def reference_reduce_to_domain(
    h: Isometry,
    G: GroupPresentation,
    bfs_depth: int = BFS_DEPTH,
) -> MembershipResult:
    """Find a word for h by best-first search (by distance of the tracked
    point to the basepoint) over generator words up to ``bfs_depth``, each
    child's point and distance from Isometry.__call__ and dist and its
    letters joined when it is pushed.  A search that runs out of nodes gives
    the empty word.  The result's residual is the word's word_residual
    against h.
    """
    F, bp = G.domain, G.basepoint
    start = h(bp)
    seen: set[tuple[int, int]] = set()

    def key(z: complex) -> tuple[int, int]:
        return (round(z.real * 1e9), round(z.imag * 1e9))

    heap = [(dist(bp, start), 0, start, ())]
    seen.add(key(start))
    counter = 1
    word: tuple[int, ...] = ()
    strategy = "immediate"
    while heap and counter < BFS_NODE_LIMIT:
        _, _, w, applied = heapq.heappop(heap)
        if F.contains(w):
            word = tuple(_inverse_index(i) for i in applied)
            break
        strategy = "bfs"
        if len(applied) >= bfs_depth:
            continue
        for i, g in enumerate(G.generators):
            gw = g(w)
            k = key(gw)
            if k in seen:
                continue
            seen.add(k)
            heapq.heappush(heap, (dist(bp, gw), counter, gw, applied + (i,)))
            counter += 1
    return MembershipResult(word, word_residual(word, G.generators, h), strategy)


@dataclass
class Scene:
    """Ordered drawing layers; each item is a dict with a ``type`` tag."""

    layers: list[tuple[str, list[dict]]] = field(default_factory=list)

    def layer(self, name: str) -> list[dict]:
        for lname, items in self.layers:
            if lname == name:
                return items
        items: list[dict] = []
        self.layers.append((name, items))
        return items

    def add(self, layer: str, **item) -> None:
        self.layer(layer).append(item)


def _clipped_path(c: GeneralizedCircle) -> str | None:
    """Path of the portion of c inside the unit disk, or None if disjoint."""
    try:
        u, v = c.ideal_points()
    except Exception:
        return None
    if c.kind == "line":
        return _arc_path(c, u, v)
    # of the two arcs between u and v, draw the one whose midpoint is inside
    a1 = math.atan2(u.imag - c.center.imag, u.real - c.center.real)
    a2 = math.atan2(v.imag - c.center.imag, v.real - c.center.real)
    ccw = (a2 - a1) % (2.0 * math.pi)
    mid = c.center + c.radius * complex(
        math.cos(a1 + 0.5 * ccw), math.sin(a1 + 0.5 * ccw)
    )
    if abs(mid) < 1.0:
        return _arc_path(c, u, v) if ccw <= math.pi else _arc_path(c, v, u)
    return _arc_path(c, v, u) if ccw <= math.pi else _arc_path(c, u, v)


def _item_svg(item: dict) -> str:
    kind = item["type"]
    if kind == "disk":
        cx, cy = _xy(0j)
        return (
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(R_VIEW)}" '
            'fill="none" stroke="black" stroke-width="1.5"/>'
        )
    if kind == "edge":
        d = _arc_path(item["curve"], item["p1"], item["p2"])
        style = item.get("style", "stroke:#202020;stroke-width:1.2")
        return f'<path d="{d}" fill="none" style="{style}"/>'
    if kind == "curve":
        d = _clipped_path(item["curve"])
        if d is None:
            return ""
        dash = ' stroke-dasharray="7 5"' if item.get("dashed") else ""
        style = item.get("style", "stroke:#3060c0;stroke-width:0.8")
        return f'<path d="{d}" fill="none" style="{style}"{dash}/>'
    if kind == "point":
        x, y = _xy(item["at"])
        r = item.get("r", 3.0)
        style = item.get("style", "fill:#c03030")
        mark = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" style="{style}"/>'
        if item.get("label"):
            mark += (
                f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" '
                f'font-size="13" font-family="sans-serif">{item["label"]}</text>'
            )
        return mark
    if kind == "label":
        x, y = _xy(item["at"])
        anchor = item.get("anchor", "middle")
        return (
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{item.get("size", 11)}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{item["text"]}</text>'
        )
    raise ValueError(f"unknown scene item type {kind!r}")


def reference_render_svg(scene: Scene) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    for name, items in scene.layers:
        parts.append(f'<g id="{name}">')
        parts.extend(svg for svg in (_item_svg(i) for i in items) if svg)
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reference_scene_base(F: FundamentalDomain | None = None) -> Scene:
    scene = Scene()
    scene.add("disk", type="disk")
    if F is not None:
        edges = scene.layer("domain")
        labels = scene.layer("edge-labels")
        for poly in range(F.k):
            for e in F.edges[poly]:
                internal = F.is_internal(e.poly, e.edge)
                style = (
                    "stroke:#b0b0b0;stroke-width:0.8"
                    if internal
                    else "stroke:#202020;stroke-width:1.2"
                )
                edges.append(
                    dict(type="edge", curve=e.carrier, p1=e.endpoints[0], p2=e.endpoints[1], style=style)
                )
                mid = 0.5 * (e.endpoints[0] + e.endpoints[1])
                inward = mid + 0.055 * (F.center(poly) - mid)
                labels.append(
                    dict(type="label", at=inward, text=str(e.edge), size=9)
                )
        centers = scene.layer("centers")
        for poly in range(F.k):
            centers.append(
                dict(
                    type="point",
                    at=F.center(poly),
                    r=2.0,
                    style="fill:#404040",
                    label=f"pol{poly + 1}",
                )
            )
    return scene


def reference_scene_bananas(F, p1: SidePairing, p2: SidePairing, dset: DistanceSet) -> Scene:
    """Each seed's axis and its curves that can meet F, by hypercycle, at
    its first BANANA_FAMILIES distances, each circle of radius above
    INTERSECT_RADIUS_CUT drawn as the chord _chordify gives."""
    scene = reference_scene_base(F)
    for name, p, color in (("bananas-p1", p1, "#3060c0"), ("bananas-p2", p2, "#208040")):
        A = axis(p.map)
        _, recs = _banana_records(p, dset, _domain_offset_bound(F, A), BANANA_FAMILIES)
        layer = scene.layer(name)
        layer.append(
            dict(type="curve", curve=A, dashed=True, style=f"stroke:{color};stroke-width:1.4")
        )
        for _, _, c in recs:
            layer.append(
                dict(type="curve", curve=_chordify(c, A), style=f"stroke:{color};stroke-width:0.6")
            )
    return scene


def reference_scene_candidates(F, points: list[complex], star: complex | None = None) -> Scene:
    scene = reference_scene_base(F)
    layer = scene.layer("candidates")
    for z in points:
        layer.append(dict(type="point", at=z, r=2.2, style="fill:#c03030"))
    if star is not None:
        layer.append(dict(type="point", at=star, r=4.0, style="fill:#e0a000", label="*"))
    return scene


def reference_scene_solution(F, pairings: list[SidePairing]) -> Scene:
    scene = reference_scene_base(F)
    layer = scene.layer("pairing-labels")
    for i, p in enumerate(sorted(pairings, key=SidePairing.sort_key), start=1):
        tag = f"-{i}" if p.reversing else str(i)
        for ref in (p.src, p.dst):
            mid = 0.5 * (ref.endpoints[0] + ref.endpoints[1])
            out = mid + 0.09 * (mid - F.center(ref.poly))
            layer.append(dict(type="label", at=out, text=tag, size=12))
    return scene


def reference_scene_certificate(F, P: complex, o_prime: complex) -> Scene:
    scene = reference_scene_base(F)
    layer = scene.layer("certificate")
    layer.append(dict(type="point", at=P, r=4.0, style="fill:#e0a000", label="P"))
    layer.append(dict(type="point", at=o_prime, r=4.0, style="fill:#3060c0", label="O'"))
    mid = midpoint(P, o_prime)
    layer.append(dict(type="point", at=mid, r=3.0, style="fill:#c03030", label="m"))
    return scene


# The artifact writer and record builders the formatters replaced: every
# record a Python dict or list, and every line of every artifact encoded by
# the C encoder.  pipeline's formatters must give these lines byte for byte.

_encode = json.JSONEncoder(sort_keys=True).encode


def reference_write_json(path: str, payload: dict) -> None:
    """Write an artifact as one JSON document, one record per line.

    Layout: a ``{`` line; each top-level key in sorted order on its own
    line, indented one space; a non-empty list value opens with ``[`` and
    puts each element on its own line, indented two spaces; every other
    value is compact on its key's line; then ``}`` and a newline.  Each
    line is encoded by the C encoder (sorted keys, default separators,
    ASCII escapes, floats by repr) and streamed to the file, so the whole
    artifact never exists as one string.
    """
    keys = sorted(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for n, key in enumerate(keys, start=1):
            value = payload[key]
            end = ",\n" if n < len(keys) else "\n"
            if isinstance(value, list) and value:
                fh.write(f" {_encode(key)}: [\n")
                last = len(value) - 1
                for i, item in enumerate(value):
                    fh.write(f"  {_encode(item)}{',' if i < last else ''}\n")
                fh.write(f" ]{end}")
            else:
                fh.write(f" {_encode(key)}: {_encode(value)}{end}")
        fh.write("}\n")


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def reference_distance_values(dset: DistanceSet) -> list:
    """distances.json's ``values``."""
    return list(dset.values)


def reference_pairing_rows(L: PairingTable) -> list[dict]:
    """pairings.json's list: each entry's pairing_record with its map's
    matrix row, read off the arrays (Isometry.to_json's form)."""
    a, b = L.arrays.a, L.arrays.b
    return [
        {**pairing_record(p), "matrix": [[ar, ai], [br, bi]]}
        for p, ar, ai, br, bi in zip(
            L, a.real.tolist(), a.imag.tolist(), b.real.tolist(), b.imag.tolist()
        )
    ]


def reference_candidate_records(C: list[Candidate]) -> list[dict]:
    """candidates.json's ``candidates``."""
    return [{"point": _cpx(c.point), "seed_distances": list(c.seed_distances)} for c in C]


def reference_filtering_records(items: list[dict]) -> list[dict]:
    """filtering.json's ``candidates``, from filter_candidates' items."""
    return [
        {
            "point": _cpx(it["candidate"].point),
            "compatible_count": len(it["Lc"]),
            "uncovered": [[p + 1, e] for p, e in it["uncovered"]],
            "is_center": it["is_center"],
        }
        for it in items
    ]


def reference_filter_candidates(F, L, dset, C) -> list[dict]:
    """filter_candidates' items by a column gather per boundary edge and a
    loop over the candidates, F.is_center asked of each."""
    matrix = compatibility_matrix([c.point for c in C], L, dset)
    touching: dict[tuple[int, int], list[int]] = {
        key: [] for key in sorted(e.key for e in F.boundary)
    }
    for j, p in enumerate(L):
        for key in (p.src.key, p.dst.key):
            if key in touching:
                touching[key].append(j)
    keys = list(touching)
    covered = np.stack([matrix[:, cols].any(axis=1) for cols in touching.values()], axis=1)
    items = []
    for c, row, cov in zip(C, matrix, covered):
        uncovered = [keys[i] for i in np.flatnonzero(~cov)]
        items.append(
            {
                "candidate": c,
                "Lc": np.flatnonzero(row),
                "covered": not uncovered,
                "uncovered": uncovered,
                "is_center": F.is_center(c.point),
            }
        )
    return items
