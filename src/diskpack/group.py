"""Group membership and the automorphism certificate for a second packing.

Membership of an isometry h in the group generated by a solution's side
pairings is decided by fundamental-domain reduction: push h(basepoint) back
into the domain greedily along generators, then compare the accumulated word
with h.  A half-turn about the midpoint of the obvious center and the hidden
center normalizes the group exactly when it conjugates every generator back
into the group; that is the certificate that an automorphism carries the
obvious packing onto the hidden one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .domain import FundamentalDomain
from .geom import Isometry, dist, elliptic_about, midpoint
from .search import PairingSolution
from .tess import TriangleGenerators

RESIDUAL_TOL = 1e-6
SWAP_TOL = 1e-8
BASEPOINT_NUDGE = 0.001 + 0.0013j
GREEDY_STEP_LIMIT = 4096
BFS_DEPTH = 12
BFS_NODE_LIMIT = 200_000


class ReductionStalled(Exception):
    """Neither greedy reduction nor bounded search brought the point home."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[Isometry, ...]  # closed under inverses: 2i+1 inverts 2i
    labels: tuple[str, ...]
    domain: FundamentalDomain
    basepoint: complex


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    word: tuple[int, ...]  # generator indices composing (left to right) to h
    residual: float
    strategy: str


def group_from_solution(
    sol: PairingSolution, F: FundamentalDomain, nudge: complex = BASEPOINT_NUDGE
) -> GroupPresentation:
    gens: list[Isometry] = []
    labels: list[str] = []
    for p in sol.pairings:
        rev, (sp, se), (dp, de) = p.identification
        tag = f"{'r' if rev else 'h'}:{sp}.{se}-{dp}.{de}"
        gens.append(p.map)
        labels.append(tag)
        gens.append(p.map.inverse())
        labels.append(tag + "'")
    basepoint = _clear_basepoint(F, nudge)
    return GroupPresentation(tuple(gens), tuple(labels), F, basepoint)


def _clear_basepoint(F: FundamentalDomain, nudge: complex) -> complex:
    """Interior point of tile 0 with clearance from every edge carrier."""
    for scale in (1.0, 2.0, 4.0, 8.0):
        z = F.placements[0](scale * nudge)
        clear = min(
            abs(e.margin(z)) for poly in range(F.k) for e in F.edges[poly]
        )
        if F.polygon_margin(z, 0) > 1e-6 and clear > 1e-6:
            return z
    raise ValueError("could not place a basepoint clear of all edge carriers")


def _inverse_index(i: int) -> int:
    return i ^ 1


def reduce_to_domain(
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
        acc, applied = _best_first(h, G, bfs_depth)
    residual_iso = acc * h
    residual = residual_iso.matrix_dist(Isometry.identity())
    member = residual < residual_tol
    word = tuple(_inverse_index(i) for i in applied) if member else ()
    return MembershipResult(member, word, residual, strategy)


def _best_first(h: Isometry, G: GroupPresentation, depth_cap: int):
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


def normalizes(
    t: Isometry, G: GroupPresentation, residual_tol: float = RESIDUAL_TOL
) -> tuple[bool, list[MembershipResult]]:
    """Whether t g t^-1 lies in the group for every listed generator g.

    The check stops at the first non-member, so a failing result list ends
    with it; a passing one holds every generator's evidence.
    """
    t_inv = t.inverse()
    results = []
    for g in G.generators:
        res = reduce_to_domain(t * g * t_inv, G, residual_tol=residual_tol)
        results.append(res)
        if not res.member:
            return False, results
    return True, results


def second_packing_certificate(
    P: complex,
    G: GroupPresentation,
    gens: TriangleGenerators,
    residual_tol: float = RESIDUAL_TOL,
    swap_tol: float = SWAP_TOL,
) -> dict:
    """Certificate that a half-turn swaps the obvious center with P.

    O' is the image of the second-neighbor tile center (ca)^2 b (0) under the
    domain's frame; tau is the order-two rotation about the midpoint of P and
    O'.  The certificate passes when tau conjugates every generator into the
    group and swaps P with O'.  The returned record carries the tolerances
    it was decided with.
    """
    rot = gens.rotation
    o_prime = G.domain.placements[0]((rot * rot * gens.b)(0j))
    if abs(P - o_prime) < 1e-9:
        raise ValueError("candidate coincides with O'; midpoint undefined")
    m = midpoint(P, o_prime)
    tau = elliptic_about(m, math.pi)
    swap_residual = dist(tau(P), o_prime)
    try:
        ok, results = normalizes(tau, G, residual_tol=residual_tol)
        stalled = False
    except ReductionStalled:
        ok, results, stalled = False, [], True
    return {
        "candidate": P,
        "o_prime": o_prime,
        "midpoint": m,
        "tau": tau,
        "swap_residual": swap_residual,
        "residual_tol": residual_tol,
        "swap_tol": swap_tol,
        "normalizes": ok,
        "memberships": results,
        "stalled": stalled,
        "passed": ok and swap_residual <= swap_tol,
    }
