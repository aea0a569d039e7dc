"""Published reference data for the N=14 worked example (1-based polygons),
and the oracles the fast paths are checked against: the per-matching
pairing_between and the enumeration that lists every identification in both
directions with it, for the one-entry-per-identification list L built from
per-edge factors; the scalar compatibility filter and the per-pairing
compatibility loop for the blocked compatibility kernel; the backtracker
whose state is copied at every node (with its cycle re-trace), fed both
directions of each identification, for the exact-cover completion engine;
the slot-permutation walker trace_cycles that the engine's single-pass
vertex-cycle walk replaced;
and the membership reduction that scans every generator at each greedy step
and composes every child's isometry at the push, for the screened
reduction."""

import heapq
import math

import numpy as np

from diskpack.domain import (
    BoundarySlots,
    EdgeRef,
    FundamentalDomain,
    InvalidCellStructure,
    SidePairing,
)
from diskpack.geom import GLIDE, HYPERBOLIC, Isometry, classify, dist, segment_aligner
from diskpack.group import (
    BFS_DEPTH,
    BFS_NODE_LIMIT,
    GREEDY_STEP_LIMIT,
    RESIDUAL_TOL,
    GroupPresentation,
    MembershipResult,
    ReductionStalled,
    _inverse_index,
)
from diskpack.search import ANGLE_TOL, PairingSolution

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
                cls = classify(m)
                want = GLIDE if reversing else HYPERBOLIC
                if cls.tag != want:
                    continue
                out.append(SidePairing(m, src, dst, reversing, cls))
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
    return [p for p in L if dset.is_admissible(dist(z, p.map(z)))]


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


def reference_complete_pairing(
    Lc: list[SidePairing],
    F: FundamentalDomain,
    limit: int = 32,
    require_reversing: bool = True,
    angle_tol: float = ANGLE_TOL,
) -> list[PairingSolution]:
    """The copy-per-node backtracker that complete_pairing replaced.

    Picks the unmatched boundary edge with the fewest live options, tries its
    compatible pairings in canonical order, and prunes on the Poincare vertex
    condition: a closing cycle must total 2 pi and a partial chain may never
    exceed it, both within ``angle_tol``.  Returns up to ``limit`` solutions
    in deterministic order; an empty list means the search space is exhausted
    with no solution.
    """
    struct = BoundarySlots(F)  # its own link memo, not the engine's F.slot_table
    by_src: dict[tuple[int, int], list[SidePairing]] = {e.key: [] for e in F.boundary}
    for p in sorted(set(Lc), key=SidePairing.sort_key):
        if p.src.key in by_src and p.dst.key in by_src and p.src.key != p.dst.key:
            by_src[p.src.key].append(p)
    link_cache: dict[tuple, list[tuple[int, int]]] = {}
    for plist in by_src.values():
        for p in plist:
            if p.record not in link_cache:
                link_cache[p.record] = struct.links_for(p)

    edge_keys = sorted(by_src)
    solutions: list[PairingSolution] = []

    def descend(matched: dict, state: _ChainState):
        if len(solutions) >= limit:
            return
        unmatched = [k for k in edge_keys if k not in matched]
        if not unmatched:
            _emit_solution(matched, struct, solutions, require_reversing, angle_tol)
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
                if not st.add_link(u, w, struct.slot_angle, angle_tol):
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


def solution_cycles(
    pairings, struct: BoundarySlots
) -> list[tuple[tuple[int, ...], float]]:
    """Vertex cycles of a full identification set, one per mirror pair.

    Returns (vertex class ids in cycle order, angle sum) for each quotient
    vertex coming from the boundary.
    """
    links: dict[int, int] = {}
    for p in pairings:
        for u, w in struct.links_for(p):
            if u in links:
                raise InvalidCellStructure("boundary edge identified twice")
            links[u] = w
    if len(links) != len(struct.slots):
        raise InvalidCellStructure("identifications do not cover the boundary")
    slot_cycles = reference_trace_cycles(links, dict(enumerate(struct.slot_angle)))
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


def _emit_solution(matched, struct, solutions, require_reversing, angle_tol):
    chosen = {}
    for p in matched.values():
        chosen[p.identification] = min(
            chosen.get(p.identification, p), p, key=SidePairing.sort_key
        )
    pairings = tuple(sorted(chosen.values(), key=SidePairing.sort_key))
    reversing_count = sum(1 for p in pairings if p.reversing)
    if require_reversing and reversing_count == 0:
        return
    cycles = solution_cycles(pairings, struct)
    for _, total in cycles:
        if abs(total - 2.0 * math.pi) > angle_tol:
            raise InvalidCellStructure(f"vertex cycle closes at {total}")
    vertex_cycles = tuple(
        (tuple(struct.points[v] for v in cyc), total) for cyc, total in cycles
    )
    solutions.append(PairingSolution(pairings, vertex_cycles, reversing_count))


def reference_compatibility_matrix(points, L, dset):
    """The per-pairing compatibility loop: one pass over the points per entry
    of L, nearest admissible distance by searchsorted."""
    zs = np.array(points)
    vals = np.array(dset.values)
    out = np.zeros((len(points), len(L)), dtype=bool)
    for j, p in enumerate(L):
        w = np.conj(zs) if p.reversing else zs
        img = (p.map.a * w + p.map.b) / (np.conj(p.map.b) * w + np.conj(p.map.a))
        d = 2.0 * np.arctanh(np.abs(img - zs) / np.abs(1.0 - np.conj(img) * zs))
        idx = np.searchsorted(vals, d)
        lo = np.clip(idx - 1, 0, len(vals) - 1)
        hi = np.clip(idx, 0, len(vals) - 1)
        near = np.minimum(np.abs(vals[lo] - d), np.abs(vals[hi] - d))
        out[:, j] = near <= dset.match_tol
    return out


def reference_reduce_to_domain(
    h: Isometry,
    G: GroupPresentation,
    bfs_depth: int = BFS_DEPTH,
    residual_tol: float = RESIDUAL_TOL,
) -> MembershipResult:
    """Decide membership of h in the group by fundamental-domain reduction.

    Greedy phase: while the tracked point is outside the domain, apply the
    generator whose image is strictly nearest the basepoint.  If greedy
    stalls, fall back to best-first search over generator words up to
    ``bfs_depth``.  The result's word composes to h when membership holds.
    """
    F, bp = G.domain, G.basepoint
    w = h(bp)
    acc = Isometry.identity()
    applied: list[int] = []
    strategy = "immediate"
    cur = dist(bp, w)
    steps = 0
    stalled = False
    while not F.contains(w):
        strategy = "greedy"
        best_i, best_d, best_w = -1, cur, w
        for i, g in enumerate(G.generators):
            gw = g(w)
            d = dist(bp, gw)
            if d < best_d - 1e-12:
                best_i, best_d, best_w = i, d, gw
        if best_i < 0 or steps >= GREEDY_STEP_LIMIT:
            stalled = True
            break
        w, cur = best_w, best_d
        acc = G.generators[best_i] * acc
        applied.append(best_i)
        steps += 1
    if stalled:
        strategy = "bfs"
        acc, applied = reference_best_first(h, G, bfs_depth)
    residual_iso = acc * h
    residual = residual_iso.matrix_dist(Isometry.identity())
    member = residual < residual_tol
    word = tuple(_inverse_index(i) for i in applied) if member else ()
    return MembershipResult(member, word, residual, strategy)


def reference_best_first(h: Isometry, G: GroupPresentation, depth_cap: int):
    """Best-first search (by distance of the tracked point to the basepoint)."""
    F, bp = G.domain, G.basepoint
    start = h(bp)
    seen: set[tuple[int, int]] = set()

    def key(z: complex) -> tuple[int, int]:
        return (round(z.real * 1e9), round(z.imag * 1e9))

    heap = [(dist(bp, start), 0, start, Isometry.identity(), ())]
    seen.add(key(start))
    counter = 1
    best_acc, best_res = Isometry.identity(), math.inf
    while heap and counter < BFS_NODE_LIMIT:
        d, _, w, acc, applied = heapq.heappop(heap)
        if F.contains(w):
            return acc, list(applied)
        res = (acc * h).matrix_dist(Isometry.identity())
        if res < best_res:
            best_res = res
        if len(applied) >= depth_cap:
            continue
        for i, g in enumerate(G.generators):
            gw = g(w)
            k = key(gw)
            if k in seen:
                continue
            seen.add(k)
            heapq.heappush(
                heap, (dist(bp, gw), counter, gw, g * acc, applied + (i,))
            )
            counter += 1
    raise ReductionStalled(
        f"reduction exhausted {counter} nodes without reaching the domain",
        best_res,
    )
