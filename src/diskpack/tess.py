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

import bisect
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

    def edge_endpoints(self, m: int) -> tuple[complex, complex]:
        """Endpoints of edge m in counterclockwise order."""
        return self.corner(m - 1), self.corner(m)


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

    def edge_carrier(self, m: int = 0) -> GeneralizedCircle:
        """Carrier geodesic of edge m of the central tile."""
        x0 = math.tanh(0.5 * self.metrics.inradius)
        c0 = (1.0 + x0 * x0) / (2.0 * x0)
        carrier = GeneralizedCircle.circle(c0, c0 - x0)
        if m % self.n == 0:
            return carrier
        w = cmath.exp(2j * math.pi * m / self.n)
        return GeneralizedCircle.circle(carrier.center * w, carrier.radius)


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
    dedup_tol: float = DEDUP_TOL

    def is_admissible(self, d: float) -> bool:
        i = bisect.bisect_left(self.values, d)
        for j in (i - 1, i):
            if 0 <= j < len(self.values) and abs(self.values[j] - d) <= self.match_tol:
                return True
        return False

    @cached_property
    def table(self) -> "AdmissibilityTable":
        """The admissibility rule and screen over these values, built on
        first use and shared by every compatibility_matrix call."""
        return AdmissibilityTable(self)

    def nearest(self, d: float) -> float:
        i = bisect.bisect_left(self.values, d)
        best = min(
            (j for j in (i - 1, i) if 0 <= j < len(self.values)),
            key=lambda j: abs(self.values[j] - d),
        )
        return self.values[best]


# the screen never has more than this many bins; a small match_tol widens them
TABLE_MAX_BINS = 1 << 18


def log_sinh2(d):
    """l = log sinh^2(d/2), the screen's coordinate for a distance d; -inf at
    d <= 0."""
    with np.errstate(divide="ignore"):
        return 2.0 * np.log(np.sinh(0.5 * np.maximum(d, 0.0)))


class AdmissibilityTable:
    """The admissibility rule |v - d| <= match_tol over arrays of d, and a
    binned screen that rules most displacements out before d is computed.

    The exact rule (calling the table) takes the nearest value by
    searchsorted, as DistanceSet.is_admissible does by bisection.

    The screen works on l = log sinh^2(d/2), which the closed form of a
    displacement gives without a division or artanh per cell
    (search.compatibility_matrix).  The l axis is cut into uniform bins of
    width w = match_tol, wider when that would take more than TABLE_MAX_BINS
    bins.  Each interval [v - tol, v + tol] maps to [l(v - tol), l(v + tol)]
    (an end <= 0 to -inf, clamped into bin 0); the bins that range meets,
    and one more on either side, are "check", all others "out".  So every l
    within w of an admissible value's l lies in a check bin, up to a few ulp
    of rounding in the bin index.

    The screen is therefore sound whenever the screen's l~ lies within w of
    l(d) for the d that the exact rule is given: a cell it leaves out fails
    the exact rule.  As dl/dd = coth(d/2) >= 1, an l-bin spans at most w in
    d, and an error in l is the larger one: |d~ - d| = |l~ - l(d)| tanh(d/2)
    to first order.  Over all 816 x 1170 cells of the N = 14 depth-5 matrix
    both errors peak at 2.9e-11, against w >= 1e-4; the exact formula's
    artanh at the largest d sets that figure.  The interval around v = 0
    reaches bin 0, where l = -inf (u = 0, a fixed point), NaN and every l
    below the first bin land.
    """

    def __init__(self, dset: DistanceSet):
        vals = np.array(dset.values)
        tol = dset.match_tol
        self.values = vals
        self.match_tol = tol
        lo, hi = log_sinh2(vals - tol), log_sinh2(vals + tol)
        ends = np.concatenate([lo, hi])
        ends = ends[np.isfinite(ends)]
        self.width = max(tol, (ends.max() - ends.min()) / TABLE_MAX_BINS)
        self.origin = ends.min() - 2.0 * self.width
        self.last = int((ends.max() - self.origin) / self.width) + 2
        # each interval's bins and one more on either side, bins first[i] ..
        # first[i] + count[i] - 1, as one index array
        first = self._bin(lo) - 1
        count = self._bin(hi) + 2 - first
        before = np.cumsum(count) - count
        bins = np.repeat(first - before, count) + np.arange(count.sum())
        check = np.zeros(self.last + 1, dtype=bool)
        check[np.maximum(bins, 0)] = True
        self.check = check

    def _bin(self, l: np.ndarray) -> np.ndarray:
        k = (l - self.origin) / self.width
        return np.clip(k, 0.0, float(self.last)).astype(np.intp)

    def screen(self, l: np.ndarray) -> np.ndarray:
        """True where l = log sinh^2(d/2) lies in a check bin; overwrites l."""
        l -= self.origin
        l *= 1.0 / self.width
        np.fmax(l, 0.0, out=l)  # fmax sends NaN to bin 0
        np.fmin(l, float(self.last), out=l)
        return self.check[l.astype(np.intp)]

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
    dedup_tol: float = DEDUP_TOL,
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
    keep = np.concatenate(([True], np.diff(d) > dedup_tol))
    d = d[keep]
    values = (0.0,) + tuple(float(v) for v in d[d > dedup_tol])
    return DistanceSet(values, depth, match_tol, dedup_tol)
