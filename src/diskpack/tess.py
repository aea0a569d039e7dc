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

    def nearest(self, d: float) -> float:
        i = bisect.bisect_left(self.values, d)
        best = min(
            (j for j in (i - 1, i) if 0 <= j < len(self.values)),
            key=lambda j: abs(self.values[j] - d),
        )
        return self.values[best]


# the table never exceeds this many bins; a smaller match_tol widens them
TABLE_MAX_BINS = 1 << 18


class AdmissibilityTable:
    """The admissibility rule |v - d| <= match_tol over arrays of d, by table.

    The d axis is cut into uniform bins of width match_tol (wider when that
    would take more than TABLE_MAX_BINS bins).  A bin is "check" when it
    holds an end v -+ match_tol of an admissible interval or neighbours one,
    and "out" otherwise; only d in "check" bins go through the exact rule,
    nearest value by bisection as in DistanceSet.is_admissible.  A bin
    wholly inside an interval would be a third, "in" state, but an interval
    is at most two bins wide, so each of its bins is a "check" bin.

    The bin of d is floor((d - origin) / width), one formula for d and for
    the interval ends, and it never decreases as d grows.  The exact rule's
    boundary lies within a few ulp of the computed end, hence in the end's
    bin or a neighbour, so every d in an "out" bin fails the exact rule.
    Non-finite d are clamped into the first or last bin, where the exact
    rule fails them too.
    """

    def __init__(self, dset: DistanceSet):
        vals = np.array(dset.values)
        tol = dset.match_tol
        self.values = vals
        self.match_tol = tol
        self.width = max(tol, (vals[-1] - vals[0] + 2.0 * tol) / TABLE_MAX_BINS)
        self.origin = vals[0] - tol - 2.0 * self.width
        ends = np.concatenate([vals - tol, vals + tol])
        k = np.floor((ends - self.origin) / self.width).astype(np.intp)
        self.last = int(k.max()) + 2
        check = np.zeros(self.last + 1, dtype=bool)
        for off in (-1, 0, 1):
            check[k + off] = True
        self.check = check

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        k = (d - self.origin) / self.width
        np.fmax(k, 0.0, out=k)  # fmax sends NaN to bin 0
        np.fmin(k, float(self.last), out=k)
        check = np.flatnonzero(self.check[k.astype(np.intp)])
        hit = np.zeros(d.shape, dtype=bool)
        if check.size:
            dc = d.reshape(-1)[check]
            vals = self.values
            i = np.searchsorted(vals, dc)
            below = vals[np.maximum(i - 1, 0)]
            above = vals[np.minimum(i, len(vals) - 1)]
            near = np.minimum(np.abs(below - dc), np.abs(above - dc))
            hit.reshape(-1)[check] = near <= self.match_tol
        return hit


def _compose_arrays(a1, b1, a2, b2):
    # (a1, b1) o (a2, b2) for conformal matrices [[a, b], [conj b, conj a]]
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def admissible_distances(
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
    return DistanceSet(values, depth, match_tol, dedup_tol)
