"""Brute-force search core: bananas, candidate points, filtering, completion.

A banana is the locus of points displaced a fixed admissible distance by a
side pairing: two hypercycles symmetric about the axis (the axis itself for
the minimal displacement of a hyperbolic map).  Candidate centers of hidden
packings are intersections of bananas of two seed pairings that land inside
the fundamental domain.  The completion step is a backtracking search for a
perfect matching of the boundary edges by compatible pairings under the
Poincare condition that every vertex cycle closes with total angle 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import FundamentalDomain, SidePairing
from .geom import (
    CoincidentCurves,
    GeneralizedCircle,
    Isometry,
    axis,
    displacement_offset,
    dist_to_geodesic,
    hypercycle,
    intersect,
    signed_offset,
)
from .tess import AdmissibilityTable, DistanceSet

CANDIDATE_DEDUP = 1e-6
ANGLE_TOL = 1e-6
WEDGE = 2.0 * math.pi / 3.0


class InvalidCellStructure(ValueError):
    pass


@dataclass(frozen=True)
class Candidate:
    point: complex
    seed_pair: tuple[SidePairing, SidePairing]
    seed_distances: tuple[float, float]


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
    _, recs = _banana_records(p, dset, max_offset, max_families)
    grouped: dict[float, list[GeneralizedCircle]] = {}
    order: list[float] = []
    for d, _, curve in recs:
        if d not in grouped:
            grouped[d] = []
            order.append(d)
        grouped[d].append(curve)
    return [(d, grouped[d]) for d in order]


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


def candidates(
    p1: SidePairing,
    p2: SidePairing,
    dset: DistanceSet,
    F: FundamentalDomain,
    dedup: float = CANDIDATE_DEDUP,
) -> list[Candidate]:
    """Intersections of p1's bananas with p2's bananas that lie in F.

    Deduplicated at ``dedup`` point distance and sorted by (re, im).
    """
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
    keep = (np.abs(zs) < 1.0) & F.contains(zs)
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
            out.append(Candidate(complex(z), (p1, p2), (float(d_a), float(d_b))))
    out.sort(key=lambda c: (c.point.real, c.point.imag))
    return out


# cells (pairings x points) per block of compatibility_matrix: its complex
# temporaries stay at 256 KB each however many points come in
BLOCK_CELLS = 1 << 14


def compatibility_matrix(
    points: list[complex], L: list[SidePairing], dset: DistanceSet
) -> np.ndarray:
    """Boolean matrix admissible[i, j]: pairing L[j] displaces points[i] admissibly.

    The displacement of z by g is d = 2 artanh(|gz - z| / |1 - conj(gz) z|),
    computed for every cell with the formula's operations in the
    one-pairing-at-a-time order, so each cell is that pairing's own value.
    The work runs in blocks of at most BLOCK_CELLS pairings x points,
    conformal and reversing pairings apart (w = z or conj z); each block's
    admissible cells are set straight in the result.  Admissibility is
    decided by tess.AdmissibilityTable, a binned table built once per call.
    """
    zs = np.asarray(points, dtype=complex)
    out = np.zeros((len(zs), len(L)), dtype=bool)
    if out.size == 0:
        return out
    admissible = AdmissibilityTable(dset)
    rows = min(len(zs), BLOCK_CELLS)
    per_block = max(1, BLOCK_CELLS // rows)
    for reversing in (False, True):
        ws = np.conj(zs) if reversing else zs
        cols = np.flatnonzero([p.reversing == reversing for p in L])
        a = np.array([L[j].map.a for j in cols])
        b = np.array([L[j].map.b for j in cols])
        for g0 in range(0, len(cols), per_block):
            blk = slice(g0, g0 + per_block)
            ga, gb = a[blk, None], b[blk, None]
            gac, gbc = np.conj(ga), np.conj(gb)
            for r0 in range(0, len(zs), rows):
                z = zs[None, r0 : r0 + rows]
                w = ws[None, r0 : r0 + rows]
                img = ga * w
                img += gb
                den = gbc * w
                den += gac
                img /= den
                np.conj(img, out=den)
                den *= z
                np.subtract(1.0, den, out=den)
                img -= z
                d = np.abs(img)
                d /= np.abs(den)
                np.arctanh(d, out=d)
                d *= 2.0
                # out is all False so far: set the admissible cells alone
                col, row = np.nonzero(admissible(d))
                out[r0 + row, cols[blk][col]] = True
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
    vertex_cycles: tuple[tuple[tuple[complex, ...], float], ...]
    reversing_count: int

    @property
    def identifications(self) -> frozenset:
        return frozenset(p.identification for p in self.pairings)


class _BoundaryStructure:
    """Vertex classes and the corner slots used for vertex-cycle tracing.

    A slot is a pair (boundary vertex, incident boundary edge); every
    boundary vertex carries exactly two.  Choosing a pairing g for edge e
    sends each endpoint v of e to an endpoint v' of the target edge, and the
    cycle continues across the corner of F at v' along its other boundary
    edge.  This walk is a permutation of the slots; each vertex cycle of the
    quotient appears as a mirror pair of slot cycles, and the wedge angle at
    v is consumed once per slot step, so a valid cycle closes at total 2 pi.
    """

    def __init__(self, F: FundamentalDomain):
        self.F = F
        classes = F.vertex_classes()
        self.points: list[complex] = []
        self.angles: list[float] = []
        self.interior = F.interior_vertices
        index_of: dict[tuple[int, int], int] = {}
        for point, members in classes:
            idx = len(self.points)
            self.points.append(point)
            self.angles.append(WEDGE * len(members))
            for key in members:
                index_of[key] = idx
        self.corner_class = index_of

        self.incident: dict[int, list[tuple[int, int]]] = {}
        for e in F.boundary:
            for corner in (e.edge - 1, e.edge):
                v = index_of[(e.poly, corner % F.n)]
                self.incident.setdefault(v, []).append(e.key)
        for v, keys in self.incident.items():
            if len(keys) != 2:
                raise InvalidCellStructure(
                    f"boundary vertex {v} has {len(keys)} incident boundary edges"
                )
            if v in self.interior:
                raise InvalidCellStructure("interior vertex lies on the boundary")

        self.slot_of: dict[tuple[tuple[int, int], int], int] = {}
        self.slots: list[tuple[tuple[int, int], int]] = []
        for v in sorted(self.incident):
            for key in self.incident[v]:
                self.slot_of[(key, v)] = len(self.slots)
                self.slots.append((key, v))
        self.slot_angle = [self.angles[v] for _, v in self.slots]

    def vertex_at(self, z: complex) -> int:
        for idx, p in enumerate(self.points):
            if abs(z - p) < 1e-6:
                return idx
        raise InvalidCellStructure(f"pairing image {z} is not a vertex of the domain")

    def _links_one_direction(self, src_key, dst_key, mp: Isometry):
        out = []
        for v in (v for (key, v) in self.slots if key == src_key):
            w = self.vertex_at(mp(self.points[v]))
            if dst_key not in self.incident.get(w, ()):
                raise InvalidCellStructure(
                    f"pairing sends vertex {v} off the endpoints of {dst_key}"
                )
            other = next(k for k in self.incident[w] if k != dst_key)
            out.append((self.slot_of[(src_key, v)], self.slot_of[(other, w)]))
        return out

    def links_for(self, p: SidePairing) -> list[tuple[int, int]]:
        """The four slot links induced by choosing identification p."""
        return self._links_one_direction(
            p.src.key, p.dst.key, p.map
        ) + self._links_one_direction(p.dst.key, p.src.key, p.inverse_map)


def trace_cycles(succ: list[int], angles: list[float]):
    """Cycles of the slot permutation ``succ`` (slot s is followed by
    succ[s], -1 for none), each listed from its smallest slot, with their
    angle sums."""
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


def _vertex_cycles(struct: _BoundaryStructure, succ: list[int], angle_tol: float):
    """Vertex cycles of a full slot permutation as (vertex points, angle sum).

    Each quotient vertex on the boundary shows up as a mirror pair of slot
    cycles over the same vertices; the smaller vertex sequence represents it.
    """
    by_vertex_set: dict[frozenset, list[tuple[tuple[int, ...], float]]] = {}
    for cyc, total in trace_cycles(succ, struct.slot_angle):
        verts = tuple(struct.slots[s][1] for s in cyc)
        by_vertex_set.setdefault(frozenset(verts), []).append((verts, total))
    cycles = []
    for group in by_vertex_set.values():
        if len(group) != 2:
            raise InvalidCellStructure(
                "slot cycles do not pair up; an identification fixes a vertex"
            )
        cycles.append(min(group))
    cycles.sort()
    for _, total in cycles:
        if abs(total - 2.0 * math.pi) > angle_tol:
            raise InvalidCellStructure(f"vertex cycle closes at {total}")
    return tuple(
        (tuple(struct.points[v] for v in verts), total) for verts, total in cycles
    )


def complete_pairing(
    Lc: list[SidePairing],
    F: FundamentalDomain,
    limit: int = 32,
    require_reversing: bool = True,
    angle_tol: float = ANGLE_TOL,
    within: list[frozenset] | None = None,
) -> list[PairingSolution]:
    """Exact-cover completion of Lc into full side-pairing sets.

    Each identification of Lc is one option (the first entry of Lc naming
    it), numbered in SidePairing.sort_key order and listed under both of its
    edges by (reversing, other edge's key).  Every boundary edge must be
    matched exactly once.  The search branches on the first unmatched edge,
    in key order, with the fewest live options, tries them in listed order,
    and prunes on the Poincare vertex condition: a closing cycle must total
    2 pi and a partial chain may never exceed it, both within ``angle_tol``.
    Returns up to ``limit`` solutions in deterministic order; an empty list
    means the search space is exhausted with no solution.

    ``within`` (identification sets) keeps only the branches that still
    lead to one of them: an option that no target left contains is skipped.
    Branching and option order stay those of the full Lc, so the targets
    that pass the same link, angle and cover checks come back in the full
    search's order.

    State is kept in flat integer arrays (after Knuth's "Dancing Links"):
    per-edge live option counts, and the slot permutation built so far as
    ``succ``/``pred`` with chain endpoints and consumed angles, undone from a
    log on backtrack.  A solution's vertex cycles are read off ``succ``.
    """
    struct = _BoundaryStructure(F)
    edge_keys = sorted(e.key for e in F.boundary)
    edge_of = {key: i for i, key in enumerate(edge_keys)}
    unique: dict[tuple, SidePairing] = {}
    for p in Lc:
        if p.src.key in edge_of and p.dst.key in edge_of and p.src.key != p.dst.key:
            unique.setdefault(p.identification, p)
    options = sorted(unique.values(), key=SidePairing.sort_key)
    opt_links = [tuple(struct.links_for(p)) for p in options]
    # by_edge[e]: (option, other edge) for the options touching edge e
    ranked: list[list[tuple[bool, int, int]]] = [[] for _ in edge_keys]
    for o, p in enumerate(options):
        a, b = edge_of[p.src.key], edge_of[p.dst.key]
        ranked[a].append((p.reversing, b, o))
        ranked[b].append((p.reversing, a, o))
    by_edge = [[(o, d) for _, d, o in sorted(opts)] for opts in ranked]
    # live[e]: options of e whose other edge is unmatched; a matched edge
    # carries an extra ``done``, so min(live) > n_opts once all are matched
    n_opts = len(options)
    done = n_opts + 1
    live = [len(opts) for opts in by_edge]

    def cover(e: int, delta: int) -> None:
        live[e] += delta * done
        for _, d in by_edge[e]:
            live[d] -= delta

    angle = struct.slot_angle
    n_slots = len(angle)
    succ = [-1] * n_slots
    pred = [-1] * n_slots
    head_of = list(range(n_slots))  # valid at chain tails
    tail_of = list(range(n_slots))  # valid at chain heads
    consumed = [0.0] * n_slots  # valid at chain heads: angles of linked slots
    two_pi = 2.0 * math.pi
    ceiling = two_pi + angle_tol
    undo: list[tuple[int, int, int, int, float]] = []
    chosen: list[int] = []
    solutions: list[PairingSolution] = []

    def link(o: int) -> bool:
        """Add option o's slot links; False (links added so far stay logged)
        when a slot is taken or the angle condition fails."""
        for u, w in opt_links[o]:
            if succ[u] >= 0 or pred[w] >= 0:
                return False
            hu = head_of[u]
            if w == hu:
                if abs(consumed[hu] + angle[u] - two_pi) > angle_tol:
                    return False
                succ[u] = w
                pred[w] = u
                undo.append((u, w, -1, -1, 0.0))
                continue
            tw = tail_of[w]
            merged = consumed[hu] + angle[u] + consumed[w]
            if merged + angle[tw] > ceiling:
                return False
            succ[u] = w
            pred[w] = u
            undo.append((u, w, hu, tw, consumed[hu]))
            tail_of[hu] = tw
            head_of[tw] = hu
            consumed[hu] = merged
        return True

    def unlink(mark: int) -> None:
        while len(undo) > mark:
            u, w, hu, tw, old = undo.pop()
            succ[u] = -1
            pred[w] = -1
            if hu >= 0:
                tail_of[hu] = u
                head_of[tw] = w
                consumed[hu] = old

    def emit() -> None:
        picked = sorted(chosen)
        pairings = tuple(options[o] for o in picked)
        reversing_count = sum(1 for p in pairings if p.reversing)
        if require_reversing and reversing_count == 0:
            return
        cycles = _vertex_cycles(struct, succ, angle_tol)
        solutions.append(PairingSolution(pairings, cycles, reversing_count))

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
            if link(o):
                cover(e, 1)
                cover(d, 1)
                chosen.append(o)
                descend(kept)
                chosen.pop()
                cover(d, -1)
                cover(e, -1)
            unlink(mark)
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
    angle_tol: float = ANGLE_TOL,
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
        sols = complete_pairing(Lc, F, limit=limit, angle_tol=angle_tol, within=within)
        if within is None:
            searches += 1
            if len(sols) < limit:
                exhaustive.append((idents, sols))
        out.append(sols)
    return out, searches


def verify_topology(
    sol: PairingSolution, F: FundamentalDomain, angle_tol: float = ANGLE_TOL
) -> dict:
    """Cell counts and genus of the quotient surface."""
    for _, total in sol.vertex_cycles:
        if abs(total - 2.0 * math.pi) > angle_tol:
            raise InvalidCellStructure(f"vertex cycle angle sum {total} != 2 pi")
    faces = F.k
    edges = len(F.internal_edges) + len(sol.pairings)
    vertices = len(sol.vertex_cycles) + len(F.interior_vertices)
    chi = vertices - edges + faces
    orientable = sol.reversing_count == 0
    if orientable:
        if (2 - chi) % 2 != 0:
            raise InvalidCellStructure(f"orientable surface with odd 2 - chi = {2 - chi}")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return {
        "faces": faces,
        "edges": edges,
        "vertices": vertices,
        "euler_characteristic": chi,
        "orientable": orientable,
        "genus": genus,
    }
