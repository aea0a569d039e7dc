"""Tessellation of the disk by regular n-gons of angle 2pi/3.

Builds the metric data of the tiles, the reflections a, b, c in the sides of
the fundamental triangle (right angle at the edge midpoint C, angle pi/n at
the tile center B = 0, angle pi/3 at the vertex A), the neighbor maps
R_m = (ca)^m a b sending the central tile to its neighbor across edge m, and
the admissible distances d(0, R(0)) realized by products of neighbor maps.

Edges of the central tile are labeled counterclockwise with edge 0 bisected
by the positive real axis, so edge m has midpoint at angle 2 pi m / n and
endpoints at angles (2m -+ 1) pi / n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import GeneralizedCircle, Isometry, geodesic_reflection

DEDUP_TOL = 1e-9
MATCH_TOL = 1e-4


class NotHyperbolic(ValueError):
    """Regular n-gons of interior angle 2pi/3 require n >= 7."""


@dataclass(frozen=True)
class PolygonMetrics:
    n: int
    inradius: float
    circumradius: float

    def corner(self, j: int) -> complex:
        """Vertex j of the central tile, between edges j and j+1."""
        r = math.tanh(0.5 * self.circumradius)
        return r * cmath.exp(1j * (2 * j + 1) * math.pi / self.n)

    def corners(self) -> list[complex]:
        return [self.corner(j) for j in range(self.n)]


def polygon_metrics(n: int) -> PolygonMetrics:
    if n <= 6:
        raise NotHyperbolic(f"n-gon of angle 2pi/3 is not hyperbolic for n={n}")
    inradius = math.acosh(1.0 / (2.0 * math.sin(math.pi / n)))
    circumradius = math.acosh(1.0 / (math.tan(math.pi / 3.0) * math.tan(math.pi / n)))
    return PolygonMetrics(n, inradius, circumradius)


@dataclass(frozen=True)
class TriangleGenerators:
    n: int
    metrics: PolygonMetrics
    a: Isometry  # reflection in the real axis (line BC)
    b: Isometry  # reflection in the carrier of edge 0 (line CA)
    c: Isometry  # reflection in the diameter at angle pi/n (line AB)
    rm: tuple[Isometry, ...]  # R_m = (ca)^m a b

    @property
    def rotation(self) -> Isometry:
        """ca, the rotation by 2pi/n about the origin."""
        return self.c * self.a


def triangle_generators(n: int) -> TriangleGenerators:
    metrics = polygon_metrics(n)
    a = Isometry(1.0, 0.0, True)
    c = Isometry.diameter_reflection(1j * cmath.exp(1j * math.pi / n))
    x0 = math.tanh(0.5 * metrics.inradius)
    c0 = (1.0 + x0 * x0) / (2.0 * x0)
    b = geodesic_reflection(GeneralizedCircle.circle(c0, c0 - x0))
    rot = c * a
    rm = []
    cur = a * b
    for _ in range(n):
        rm.append(cur)
        cur = rot * cur
    return TriangleGenerators(n, metrics, a, b, c, tuple(rm))


@dataclass(frozen=True)
class DistanceSet:
    """Sorted admissible distances with the tolerance used for matching."""

    values: tuple[float, ...]
    depth: int
    match_tol: float = MATCH_TOL

    @cached_property
    def table(self) -> "AdmissibilityTable":
        """The admissibility rule and screen over these values, built on
        first use and shared by every compatibility_matrix call."""
        return AdmissibilityTable(self)


# the screen cuts each binade of u^2 = sinh^2(d/2) into 2^SCREEN_BITS bins
SCREEN_BITS = 13
# u^2 below this (d below about 5e-10) shares the bottom bin, whatever
# match_tol is, which bounds the table at a few hundred thousand entries
SCREEN_FLOOR = 2.0**-64
# added to the bits of u^2 before the shift: +inf's bits become the largest
# int64, and a NaN's, of either sign, wrap round below every table key
_NAN_WRAP = (1 << 52) - 1


def sinh2_half(d):
    """u^2 = sinh^2(d/2), the screen's coordinate for a distance d >= 0."""
    return np.sinh(0.5 * np.asarray(d, dtype=float)) ** 2


def _keys(bits: np.ndarray) -> np.ndarray:
    """The bin keys of doubles u^2 from their IEEE-754 bits (an int64 view),
    in place."""
    bits += _NAN_WRAP
    bits >>= 52 - SCREEN_BITS
    return bits


class AdmissibilityTable:
    """The admissibility rule |v - d| <= match_tol over arrays of d, and a
    screen that rules most displacements out before d is computed.

    The exact rule (calling the table) takes the nearest value by
    searchsorted.

    The screen works on u^2 = sinh^2(d/2), which the closed form of a
    displacement gives without a division or artanh per cell
    (search.compatibility_matrix), and bins it by its IEEE-754 bits: the key
    of u^2 >= 0 is (bits + 2^52 - 1) >> (52 - SCREEN_BITS).  It never
    decreases as u^2 grows, and it cuts every binade [2^e, 2^(e+1)] into
    2^SCREEN_BITS bins of width 2^(e - SCREEN_BITS), so a bin spans a
    relative 2^-SCREEN_BITS at most.  The added 2^52 - 1 moves each bin's
    edge by one ulp, keeps +inf the largest key and sends a NaN below every
    table key.  Each interval [max(v - tol, 0), v + tol] maps to its u^2
    ends; their keys, and one more on either side, are "check", all others
    "out".  The table holds the keys from the lowest interval end that is
    not 0 (nor below SCREEN_FLOOR) to one past the highest, and a lookup
    clips to it: the bottom bin, which holds u^2 = 0, NaN and the interval
    around v = 0, is check, and the top bin, which holds +inf and every u^2
    beyond the last interval, is out.

    The screen is sound whenever its u~^2 lies within a relative
    2^-(SCREEN_BITS + 1) of u^2 for the d that the exact rule is given: a
    cell it leaves out fails the exact rule.  A bin of binade e is
    2^(e - SCREEN_BITS) wide and holds no value above 2^(e+1), so such a
    move crosses at most one bin edge, also down from 2^e into the half as
    wide bins of binade e - 1; the interval ends' u^2 are rounded by a few
    ulp only.  As d(u^2)/u^2 = coth(d/2) dd, a bin spans at most
    2^-SCREEN_BITS = 1.2e-4 in d.  Over all 816 x 1170 cells of the
    N = 14 depth-5 matrix the relative error of u~^2 peaks at 2.9e-11,
    against 2^-(SCREEN_BITS + 1) = 6.1e-5; the exact formula's artanh at
    the largest d sets that figure.
    """

    def __init__(self, dset: DistanceSet):
        vals = np.array(dset.values)
        tol = dset.match_tol
        self.values = vals
        self.match_tol = tol
        lo = np.maximum(vals - tol, 0.0)
        first = _keys(sinh2_half(lo).view(np.int64)) - 1
        last = _keys(sinh2_half(vals + tol).view(np.int64)) + 1
        floor = _keys(np.array([SCREEN_FLOOR]).view(np.int64))[0]
        # intervals that reach 0 lie in the bottom bin up to their last key
        self.origin = max(int(np.where(lo > 0.0, first, last).min()), int(floor))
        first = np.maximum(first - self.origin, 0)
        last = np.maximum(last - self.origin, 0)
        # the intervals come sorted, so overlapping key ranges are runs of
        # neighbours; each run's keys, runs first[s] .. last[e], as one index
        # array
        s = np.flatnonzero(np.concatenate(([True], first[1:] > last[:-1] + 1)))
        e = np.append(s[1:] - 1, len(vals) - 1)
        count = last[e] + 1 - first[s]
        before = np.cumsum(count) - count
        keys = np.repeat(first[s] - before, count) + np.arange(count.sum())
        check = np.zeros(int(last[-1]) + 2, dtype=bool)
        check[keys] = True
        check[0] = True
        self.check = check

    def screen(self, u2: np.ndarray) -> np.ndarray:
        """True where u2 = sinh^2(d/2) lies in a check bin; overwrites u2."""
        k = _keys(u2.view(np.int64))
        k -= self.origin
        return np.take(self.check, k, mode="clip")

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        vals = self.values
        i = np.searchsorted(vals, d)
        below = vals[np.maximum(i - 1, 0)]
        above = vals[np.minimum(i, len(vals) - 1)]
        return np.minimum(np.abs(below - d), np.abs(above - d)) <= self.match_tol


def _compose_arrays(a1, b1, a2, b2):
    # (a1, b1) o (a2, b2) for conformal matrices [[a, b], [conj b, conj a]]
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def admissible_distances(
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
