"""Group membership and the automorphism certificate for a second packing.

Membership of an isometry h in the group generated by a solution's side
pairings is decided by fundamental-domain reduction: a best-first search
over generator words brings h(basepoint) back into the domain; h is a
member when the word found has a word_residual of at most WORD_TOL, the
one test the run and verify_certificate_file share.  A half-turn about the
midpoint of the obvious center and the hidden center normalizes the group
exactly when it conjugates every generator back into the group; that is
the certificate that an automorphism carries the obvious packing onto the
hidden one.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .domain import FundamentalDomain
from .geom import Isometry, dist, elliptic_about, midpoint
from .search import PairingSolution

# how far a membership word may lie from the isometry it claims to compose
# to, as matrix distance relative to the isometry's |a| + |b|
WORD_TOL = 3e-9
SWAP_TOL = 1e-8
BASEPOINT_NUDGE = 0.001 + 0.0013j
BFS_DEPTH = 12
BFS_NODE_LIMIT = 200_000


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[Isometry, ...]  # closed under inverses: 2i+1 inverts 2i
    domain: FundamentalDomain
    basepoint: complex


@dataclass(frozen=True)
class MembershipResult:
    word: tuple[int, ...]  # generator indices; h is a member when they compose to it
    residual: float  # word_residual of the word against h
    # "immediate" when h(basepoint) lies in the domain, "bfs" when a search
    # found the word, "inverse" when it inverts the partner generator's word
    strategy: str


def pairing_generators(pairings) -> tuple[Isometry, ...]:
    """Each side pairing's map followed by its inverse, so generator i ^ 1
    inverts generator i (_inverse_index)."""
    return tuple(g for p in pairings for g in (p.map, p.map.inverse()))


def _inverse_index(i: int) -> int:
    return i ^ 1


def inverse_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """The word of the inverse product: the letters reversed, each inverted."""
    return tuple(_inverse_index(i) for i in reversed(word))


def group_from_solution(sol: PairingSolution, F: FundamentalDomain) -> GroupPresentation:
    """The solution's pairing_generators; the basepoint is
    F.clear_point(BASEPOINT_NUDGE)."""
    return GroupPresentation(pairing_generators(sol.pairings), F, F.clear_point(BASEPOINT_NUDGE))


def word_residual(word, gens, h: Isometry) -> float:
    """How far the word, composed left to right from the identity, lies from
    h: their matrix distance over |h.a| + |h.b|, or inf for a word whose
    product leaves the float range.  h is a member when this is at most
    WORD_TOL.

    The product is exact: a float is an integer over a power of two
    (as_integer_ratio), so each letter's first row is two Gaussian integers
    over one 2^shift, the rows compose in Python integers, and only the
    product's entries are rounded, once each, to the nearest float.  No
    rounding builds up along the word, and no step renormalizes a product
    whose determinant |a|^2 - |b|^2 cancels."""
    ratios = {
        i: [
            x.as_integer_ratio()
            for x in (gens[i].a.real, gens[i].a.imag, gens[i].b.real, gens[i].b.imag)
        ]
        for i in set(word)
    }
    shift = max((den.bit_length() - 1 for r in ratios.values() for _, den in r), default=0)
    rows = {
        i: ([num << (shift - den.bit_length() + 1) for num, den in r], gens[i].reversing)
        for i, r in ratios.items()
    }
    ar, ai, br, bi, reversing = 1, 0, 0, 0, False
    for i in word:
        (gar, gai, gbr, gbi), g_reversing = rows[i]
        if reversing:
            # a reversing left factor conjugates the right factor's entries
            gai, gbi = -gai, -gbi
        # [a, b] [[ga, gb], [conj gb, conj ga]] = [a ga + b conj gb, a gb + b conj ga]
        ar, ai, br, bi = (
            ar * gar - ai * gai + br * gbr + bi * gbi,
            ar * gai + ai * gar + bi * gbr - br * gbi,
            ar * gbr - ai * gbi + br * gar + bi * gai,
            ar * gbi + ai * gbr + bi * gar - br * gai,
        )
        reversing = reversing != g_reversing
    scale = 1 << (shift * len(word))
    try:
        # int / int rounds the exact quotient once
        acc = Isometry.unit(
            complex(ar / scale, ai / scale), complex(br / scale, bi / scale), reversing
        )
        return acc.matrix_dist(h) / (abs(h.a) + abs(h.b))
    except OverflowError:
        return math.inf


def reduce_to_domain(h: Isometry, G: GroupPresentation) -> MembershipResult:
    """Find a word for h by fundamental-domain reduction: best-first search,
    by distance of the tracked point to the basepoint, from h(basepoint)
    until the point lies in the domain, over words of at most BFS_DEPTH
    generators and BFS_NODE_LIMIT nodes.  The word inverts the letters
    applied; its residual is word_residual against h, and h is a member when
    that is at most WORD_TOL.  A search that runs out of nodes returns the
    empty word, which that test fails.  A node carries its parent's letters
    and its own generator index, joined when it is popped; the children's
    images and distances take Isometry.__call__'s and dist's operations
    inline, so every value, and with it the visiting order, is theirs.
    """
    F, bp = G.domain, G.basepoint
    start = h(bp)
    seen = {(round(start.real * 1e9), round(start.imag * 1e9))}
    heap = [(dist(bp, start), 0, start, -1, ())]
    counter = 1
    letters = [
        (i, g.a, g.b, g.b.conjugate(), g.a.conjugate(), g.reversing)
        for i, g in enumerate(G.generators)
    ]
    word: tuple[int, ...] = ()
    strategy = "immediate"
    while heap and counter < BFS_NODE_LIMIT:
        _, _, w, last, applied = heapq.heappop(heap)
        if last >= 0:
            applied = applied + (last,)
        if F.contains(w):
            word = tuple(_inverse_index(i) for i in applied)
            break
        strategy = "bfs"
        if len(applied) >= BFS_DEPTH:
            continue
        w_conj = w.conjugate()
        for i, a, b, b_conj, a_conj, reversing in letters:
            v = w_conj if reversing else w
            gw = (a * v + b) / (b_conj * v + a_conj)
            k = (round(gw.real * 1e9), round(gw.imag * 1e9))
            if k in seen:
                continue
            seen.add(k)
            d = 2.0 * math.atanh(abs(bp - gw) / abs(1.0 - gw.conjugate() * bp))
            heapq.heappush(heap, (d, counter, gw, i, applied))
            counter += 1
    return MembershipResult(word, word_residual(word, G.generators, h), strategy)


def second_neighbor_center(F: FundamentalDomain) -> complex:
    """O', the second-neighbor tile center (ca)^2 b (0) under the domain's
    frame: the obvious center a half-turn must swap with the hidden one."""
    rot = F.gens.rotation
    return F.placements[0]((rot * rot * F.gens.b)(0j))


def swapping_half_turn(P: complex, o_prime: complex) -> Isometry:
    """The half-turn about the midpoint of P and O', which swaps them."""
    if abs(P - o_prime) < 1e-9:
        raise ValueError("candidate coincides with O'; midpoint undefined")
    return elliptic_about(midpoint(P, o_prime), math.pi)


def second_packing_certificate(P: complex, G: GroupPresentation) -> dict:
    """Certificate that a half-turn swaps the obvious center with P.

    O' is second_neighbor_center(G.domain); tau is swapping_half_turn(P, O').
    The certificate passes when tau swaps P with O' (within SWAP_TOL) and
    conjugates every generator into the group: each conjugate's membership
    residual is at most WORD_TOL.  One search per generator pair: generator
    2i is reduced to the domain, and since generator 2i + 1 is its exact
    inverse, so is its conjugate, whose word is the inverse of 2i's (the
    letters reversed, each inverted), held to word_residual against its own
    conjugate like any other.  The walk over the generators stops at the
    first residual that is not, so only a passing certificate holds one
    membership per generator, in generator order.
    """
    o_prime = second_neighbor_center(G.domain)
    tau = swapping_half_turn(P, o_prime)
    tau_inv = tau.inverse()
    passed = dist(tau(P), o_prime) <= SWAP_TOL
    results = []
    for i, g in enumerate(G.generators):
        h = tau * g * tau_inv
        if i % 2 == 0:
            results.append(reduce_to_domain(h, G))
        else:
            word = inverse_word(results[-1].word)
            results.append(MembershipResult(word, word_residual(word, G.generators, h), "inverse"))
        if not results[-1].residual <= WORD_TOL:
            passed = False
            break
    return {"candidate": P, "o_prime": o_prime, "memberships": results, "passed": passed}
