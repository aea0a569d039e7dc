"""Fundamental domains built from tessellation tiles, and their side pairings.

A domain is a connected union of k tiles: tile 0 is the central tile, every
further tile is attached across an edge of an earlier one and takes its edge
labels through the neighbor map, so an attached tile's edge 0 is the shared
edge and labels increase counterclockwise.

Side pairings identify pairs of boundary edges.  For each pair there is one
conformal matching (endpoints crossed, so the inward side of the source maps
to the outward side of the target) and one reversing matching (endpoints
parallel); a matching and its inverse glue the same two edges, so each is
listed once, from the smaller edge key to the larger.  Matchings whose
isometry is not hyperbolic or glide (for instance the vertex rotations
arising between edges that share an endpoint) cannot occur in a torsion-free
uniformizing group and are dropped from the list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geom import (
    GLIDE,
    HYPERBOLIC,
    PARABOLIC_TOL,
    GeneralizedCircle,
    Isometry,
    IsometryClass,
    classify,
    dist,
    geodesic_through,
    segment_aligner,
    signed_offset,
)
from .tess import TriangleGenerators, triangle_generators

EDGE_MATCH_TOL = 1e-9
INSIDE_TOL = 1e-9
# a point this close to a tile center is that center
CENTER_TOL = 1e-6
# hyperbolic distance by which contains' discs exceed the bound on the
# points it can accept (see FundamentalDomain.tile_discs)
DISC_SLACK = 1e-7
# margins (edges x points) per block of contains' array path: its float
# temporaries stay at 128 KB however many points come in
CONTAINS_CELLS = 1 << 14
# relative margin, per unit of a matching's squared size (|a|^2 + |b|^2)^2,
# by which enumerate_pairings' trace screen stays clear of classify's
# parabolic band
SCREEN_MARGIN = 1e-12


class OverlappingPolygons(ValueError):
    pass


class DisconnectedAssembly(ValueError):
    pass


class InvalidCellStructure(ValueError):
    pass


@dataclass(frozen=True)
class Attachment:
    parent: int
    parent_edge: int


@dataclass(frozen=True)
class EdgeRef:
    poly: int
    edge: int
    endpoints: tuple[complex, complex]  # counterclockwise around the polygon
    carrier: GeneralizedCircle
    inward: int  # sign of carrier.side() on the polygon-center side

    @cached_property
    def key(self) -> tuple[int, int]:
        return (self.poly, self.edge)

    def margin(self, z):
        """Signed sinh-distance to the carrier, positive on the inward side;
        z is a point or an array of points."""
        return self.inward * signed_offset(z, self.carrier)


@dataclass(frozen=True, eq=False)
class _CarrierTable:
    """The edge carriers of a domain as arrays, for the margins of one point
    at every edge in one pass.  Circle carriers fill arrays of shape (k, n)
    with signed_offset's circle constants (line slots hold harmless
    dummies); the line carriers, if any, are listed apart with the line
    formula's constants.  The inward sign is folded into the radius and the
    line formula's factor 2: negating a factor or a divisor negates an IEEE
    product or quotient exactly, so the margins keep their bits."""

    cx: np.ndarray
    cy: np.ndarray
    r2: np.ndarray
    signed_r: np.ndarray
    line_at: tuple[np.ndarray, np.ndarray] | None
    line_nx: np.ndarray
    line_ny: np.ndarray
    line_offset: np.ndarray
    line_twice_inward: np.ndarray

    @classmethod
    def of(cls, edges: tuple[tuple[EdgeRef, ...], ...]) -> "_CarrierTable":
        is_line = np.array([[e.carrier.kind == "line" for e in row] for row in edges])

        def table(value, dummy):
            return np.array(
                [[dummy if e.carrier.kind == "line" else value(e) for e in row] for row in edges],
                dtype=float,
            )

        r = table(lambda e: e.carrier.radius, 1.0)
        lines = [e for row in edges for e in row if e.carrier.kind == "line"]  # row-major
        return cls(
            cx=table(lambda e: e.carrier.center.real, 0.0),
            cy=table(lambda e: e.carrier.center.imag, 0.0),
            r2=r * r,
            signed_r=r * table(lambda e: e.inward, 1.0),
            line_at=np.nonzero(is_line) if lines else None,
            line_nx=np.array([e.carrier.normal.real for e in lines]),
            line_ny=np.array([e.carrier.normal.imag for e in lines]),
            line_offset=np.array([e.carrier.offset for e in lines]),
            line_twice_inward=np.array([2.0 * e.inward for e in lines]),
        )

    def margins(self, z) -> np.ndarray:
        """The margin of z at every edge: shape (k, n) for a point, (k, n, m)
        for a 1-D array of m points."""
        # signed_offset's operations in its order, on float64 like the
        # scalar path, so every entry equals EdgeRef.margin bit for bit
        x, y = z.real, z.imag
        cx, cy, r2, signed_r = self.cx, self.cy, self.r2, self.signed_r
        nx, ny, offset, twice = (
            self.line_nx, self.line_ny, self.line_offset, self.line_twice_inward
        )
        if isinstance(z, np.ndarray):
            # the points along the last, contiguous axis
            cx, cy, r2, signed_r = cx[..., None], cy[..., None], r2[..., None], signed_r[..., None]
            nx, ny, offset, twice = nx[:, None], ny[:, None], offset[:, None], twice[:, None]
        D = 1.0 - (x * x + y * y)
        dx, dy = x - cx, y - cy
        m = (dx * dx + dy * dy - r2) / (signed_r * D)
        if self.line_at is not None:
            m[self.line_at] = twice * (nx * x + ny * y - offset) / D
        return m


@dataclass(frozen=True, eq=False)
class DomainSymmetry:
    """An isometry mapping the domain onto itself, with the permutation it
    induces on the boundary edges (edge key -> key of the image edge)."""

    map: Isometry
    edges: dict[tuple[int, int], tuple[int, int]]

    def identification(self, ident: tuple) -> tuple:
        """Image of an identification (reversing, key, key): conjugating a
        side pairing by the symmetry keeps its orientation type and glues
        the image edges, written smaller key first."""
        reversing, a, b = ident
        ends = sorted([self.edges[a], self.edges[b]])
        return (reversing, ends[0], ends[1])


@dataclass(frozen=True)
class FundamentalDomain:
    n: int
    k: int
    gens: TriangleGenerators
    placements: tuple[Isometry, ...]
    corners: tuple[tuple[complex, ...], ...]
    edges: tuple[tuple[EdgeRef, ...], ...]  # all edges, [poly][edge]
    internal_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    boundary: tuple[EdgeRef, ...]

    @property
    def metrics(self):
        return self.gens.metrics

    def center(self, poly: int) -> complex:
        return self.placements[poly](0j)

    @cached_property
    def centers(self) -> tuple[complex, ...]:
        """The tile centers, in tile order."""
        return tuple(self.center(i) for i in range(self.k))

    def is_center(self, z: complex) -> bool:
        """Whether z lies within CENTER_TOL of a tile center: the run
        drops such a candidate, and verify rejects it."""
        return any(abs(z - c) < CENTER_TOL for c in self.centers)

    def is_internal(self, poly: int, edge: int) -> bool:
        return any((poly, edge) in pair for pair in self.internal_edges)

    def contains(self, z, tol: float = INSIDE_TOL):
        """Whether z is strictly inside some tile or within tol of two tiles
        (on an internal edge).  z is a point, for which the answer is a
        bool, or an array of points, for which it is a boolean array of its
        shape; both take the margins by signed_offset's arithmetic, so they
        agree.  The array path decides only the points that lie in one of
        tile_discs(tol), or not in the open unit disk, taking their margins
        at every edge in one broadcast per block of points."""
        if not isinstance(z, np.ndarray):
            tiles = np.minimum.reduce(self._carriers.margins(z), axis=1).tolist()
            return any(m > tol for m in tiles) or sum(m >= -tol for m in tiles) >= 2
        flat = z.ravel()
        out = np.zeros(flat.shape, dtype=bool)
        x, y = flat.real, flat.imag
        center, radius = self.tile_discs(tol)
        dx, dy = x - center.real[:, None], y - center.imag[:, None]
        near = (dx * dx + dy * dy <= (radius * radius)[:, None]).any(axis=0)
        todo = np.flatnonzero(near | ~(x * x + y * y < 1.0))
        per_block = max(1, CONTAINS_CELLS // (self.k * self.n))
        for start in range(0, len(todo), per_block):
            at = todo[start : start + per_block]
            tiles = self._carriers.margins(flat[at]).min(axis=1)
            out[at] = (tiles > tol).any(axis=0) | ((tiles >= -tol).sum(axis=0) >= 2)
        return out.reshape(z.shape)

    def tile_discs(self, tol: float = INSIDE_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean centers and radii of discs, one per tile, that hold
        every point of the open unit disk that contains(., tol) accepts.

        Either rule of contains needs a tile at whose every edge the margin
        is at least -|tol|.  Put the tile's center at the origin of the
        hyperboloid model, with inradius r, circumradius R and edge normals
        2 pi / n apart.  A point at distance rho from the center, in a
        direction at angle phi from an edge's normal, has sinh-distance
        sinh(rho) cos(phi) cosh(r) - cosh(rho) sinh(r) beyond that edge,
        which is its margin negated.  Some normal lies within pi / n of the
        point's direction, so the point lies at least
        f(rho) = sinh(rho) cos(pi / n) cosh(r) - cosh(rho) sinh(r) beyond
        some edge.  f vanishes at the corner (rho = R), and beyond it
        f'' = f >= 0 with f'(R) = cos(pi / n) cosh(r) / cosh(R), so
        f(R + e) >= e f'(R).  A margin of at least -|tol| at every edge
        therefore bounds rho by R + |tol| cosh(R) / (cos(pi / n) cosh(r)).
        Each disc has that hyperbolic radius plus DISC_SLACK, which covers
        the rounding of the margins and of the discs (below 1e-12 near F,
        where the carriers are built and the margins taken; a point far
        from every tile has some margin far below -|tol|).
        """
        m = self.metrics
        R, r = m.circumradius, m.inradius
        rho = R + abs(tol) * math.cosh(R) / (math.cos(math.pi / self.n) * math.cosh(r))
        rho += DISC_SLACK
        # the hyperbolic disc of radius rho about c is the image of |w| <= t
        # under w -> (w + c) / (1 + conj(c) w)
        t = math.tanh(0.5 * rho)
        c = np.array(self.centers)
        c2 = np.abs(c) ** 2
        den = 1.0 - c2 * (t * t)
        return c * ((1.0 - t * t) / den), t * (1.0 - c2) / den

    @cached_property
    def _carriers(self) -> _CarrierTable:
        return _CarrierTable.of(self.edges)

    def clear_point(self, nudge: complex) -> complex:
        """Interior point of tile 0 with clearance from every edge carrier:
        the first of nudge, 2 nudge, 4 nudge, 8 nudge whose image under tile
        0's placement has tile-0 margin and distance to every carrier above
        1e-6 (in sinh-distance)."""
        for scale in (1.0, 2.0, 4.0, 8.0):
            z = self.placements[0](scale * nudge)
            m = self._carriers.margins(z)
            if m[0].min() > 1e-6 and np.abs(m).min() > 1e-6:
                return z
        raise ValueError("could not place a basepoint clear of all edge carriers")

    @cached_property
    def symmetries(self) -> tuple[DomainSymmetry, ...]:
        """The isometries mapping F onto itself, the identity first; built on
        first use, never during set-up.

        A symmetry maps tile 0 onto some tile j of F, so it is placements[j]
        after a symmetry of the central tile (a rotation by 2 pi m / n, after
        the reflection in the real axis or not) after placements[0]^-1: 2 k n
        candidates.  They are screened at once on the tile centers, which a
        symmetry permutes; a candidate that passes is composed and kept when
        it also maps every tile corner onto one and the boundary onto itself.
        """
        n = self.n
        to_central = self.placements[0].inverse()
        centers = np.array(self.centers)
        corners = np.array(self.corners).ravel()
        ends = np.array([e.endpoints for e in self.boundary])
        keys = [e.key for e in self.boundary]

        def near(zs: np.ndarray, points: np.ndarray) -> np.ndarray:
            """near[..., j]: zs[...] lies within the edge tolerance of points[j]."""
            return np.abs(zs[..., None] - points) < EDGE_MATCH_TOL

        # row f n + m: the centers in the central frame, reflected when f = 1,
        # then turned by 2 pi m / n
        q = _images(to_central, centers)
        turns = np.exp(2j * np.pi * np.arange(n) / n)[:, None]
        local = np.concatenate([turns * q, turns * np.conj(q)])
        out = []
        for place in self.placements:
            screened = near(_images(place, local), centers).any(axis=-1).all(axis=-1)
            for row in np.flatnonzero(screened):
                f, m = divmod(int(row), n)
                g = place * Isometry.rotation(2.0 * math.pi * m / n)
                g = g * (Isometry(1.0, 0.0, True) if f else Isometry.identity()) * to_central
                if not near(_images(g, corners), corners).any(axis=1).all():
                    continue
                # boundary edge i goes onto edge j when the endpoints match
                # in either order
                u, v = _images(g, ends[:, 0]), _images(g, ends[:, 1])
                hit = near(u, ends[:, 0]) & near(v, ends[:, 1])
                hit |= near(u, ends[:, 1]) & near(v, ends[:, 0])
                if hit.any(axis=1).all():
                    images = {keys[i]: keys[j] for i, j in zip(*np.nonzero(hit))}
                    out.append(DomainSymmetry(g, images))
        return tuple(out)

    @cached_property
    def slot_table(self) -> "BoundarySlots":
        """The boundary's corner slots, built on first use and shared by every completion."""
        return BoundarySlots(self)

    def vertex_classes(self) -> list[tuple[complex, list[tuple[int, int]]]]:
        """Geometric vertices with the tile corners meeting there.

        A corner (poly, j) sits between edges j and j+1 of its tile; corners
        of different tiles closer than the matching tolerance are one vertex.
        """
        classes: list[tuple[complex, list[tuple[int, int]]]] = []
        for poly in range(self.k):
            for j, v in enumerate(self.corners[poly]):
                for point, members in classes:
                    if abs(v - point) < EDGE_MATCH_TOL:
                        members.append((poly, j))
                        break
                else:
                    classes.append((v, [(poly, j)]))
        return classes


def _images(g: Isometry, zs: np.ndarray) -> np.ndarray:
    """g applied to an array of points."""
    w = np.conj(zs) if g.reversing else zs
    return (g.a * w + g.b) / (np.conj(g.b) * w + np.conj(g.a))


def build_domain(
    n: int, attachments: list[Attachment], frame: Isometry | None = None
) -> FundamentalDomain:
    """Place k = len(attachments) + 1 tiles; tile i >= 1 follows attachments[i-1].

    ``frame`` is an optional conformal isometry applied to the whole assembly
    (a global rotation matching a figure's orientation); tile 0 is the image
    of the central tile under it.
    """
    gens = triangle_generators(n)
    metrics = gens.metrics
    if frame is not None and frame.reversing:
        raise ValueError("frame must be orientation-preserving")
    placements = [frame if frame is not None else Isometry.identity()]
    used: set[tuple[int, int]] = set()
    for i, att in enumerate(attachments, start=1):
        if not 0 <= att.parent < i:
            raise DisconnectedAssembly(
                f"attachment {i - 1} references polygon {att.parent}, "
                f"but only polygons 0..{i - 1} are placed"
            )
        if not 0 <= att.parent_edge < n:
            raise ValueError(f"edge label {att.parent_edge} out of range for n={n}")
        if (att.parent, att.parent_edge) in used:
            raise OverlappingPolygons(
                f"edge {att.parent_edge} of polygon {att.parent} already carries a tile"
            )
        used.add((att.parent, att.parent_edge))
        placements.append(placements[att.parent] * gens.rm[att.parent_edge])
    k = len(placements)

    centers = [p(0j) for p in placements]
    for i in range(k):
        for j in range(i + 1, k):
            if dist(centers[i], centers[j]) < 2.0 * metrics.inradius - 1e-9:
                raise OverlappingPolygons(f"polygons {i} and {j} overlap")

    base = metrics.corners()
    corners = tuple(tuple(p(v) for v in base) for p in placements)

    edges: list[list[EdgeRef]] = []
    for poly in range(k):
        row = []
        for e in range(n):
            u, v = corners[poly][e - 1], corners[poly][e]
            carrier = geodesic_through(u, v)
            inward = 1 if carrier.side(centers[poly]) > 0 else -1
            row.append(EdgeRef(poly, e, (u, v), carrier, inward))
        edges.append(row)

    internal = []
    for i in range(k):
        for j in range(i + 1, k):
            for e in range(n):
                for f in range(n):
                    if _same_edge(edges[i][e], edges[j][f]):
                        internal.append(((i, e), (j, f)))
    internal_keys = {key for pair in internal for key in pair}
    boundary = tuple(
        edges[poly][e]
        for poly in range(k)
        for e in range(n)
        if (poly, e) not in internal_keys
    )
    return FundamentalDomain(
        n=n,
        k=k,
        gens=gens,
        placements=tuple(placements),
        corners=corners,
        edges=tuple(tuple(row) for row in edges),
        internal_edges=tuple(internal),
        boundary=boundary,
    )


def _same_edge(e1: EdgeRef, e2: EdgeRef) -> bool:
    (a, b), (c, d) = e1.endpoints, e2.endpoints
    return (abs(a - c) < EDGE_MATCH_TOL and abs(b - d) < EDGE_MATCH_TOL) or (
        abs(a - d) < EDGE_MATCH_TOL and abs(b - c) < EDGE_MATCH_TOL
    )


@dataclass(frozen=True)
class SidePairing:
    map: Isometry
    src: EdgeRef
    dst: EdgeRef
    reversing: bool

    @cached_property
    def cls(self) -> IsometryClass:
        """The map's class, computed on first read: a search reads it for
        its two seed pairings only."""
        return classify(self.map)

    @cached_property
    def record(self) -> tuple[bool, int, int, int, int]:
        return (self.reversing, self.src.poly, self.src.edge, self.dst.poly, self.dst.edge)

    @cached_property
    def identification(self) -> tuple[bool, tuple[int, int], tuple[int, int]]:
        """Direction-free form: (reversing, smaller edge key, larger edge key)."""
        ends = sorted([self.src.key, self.dst.key])
        return (self.reversing, ends[0], ends[1])

    def sort_key(self):
        return (self.src.poly, self.src.edge, self.reversing, self.dst.poly, self.dst.edge)


def enumerate_pairings(F: FundamentalDomain) -> list[SidePairing]:
    """The axial side pairings of F, one per identification, by sort_key.

    Generates the E (E-1) matchings of src onto dst, src.key < dst.key, and
    keeps those classified hyperbolic (conformal) or glide (reversing);
    vertex-fixing elliptics and mirror reflections are impossible in a
    torsion-free group and are discarded.  An entry's inverse, with the same
    displacement function, would repeat its bananas, compatibility and
    completion choice, so it is not listed.

    A matching is dst's factor times src's aligner h1 = aligner(u1, u2):
    aligner(v2, v1)^-1 if conformal (endpoints crossed), aligner(v1, v2)^-1 R if
    reversing (R the reflection in the real axis); both are built once per edge.
    All matchings are composed in one array pass, by Isometry.__mul__'s float
    operations in its order, so each kept map, built by the Isometry
    constructor from those products, has the bits of the Python product.

    The same pass screens each matching's type by the trace t classify
    decides by: 2 Re a, or for a reversing map the trace 2 (|a|^2 + Re b^2)
    of its square, both taken before normalizing to unit determinant.
    classify normalizes the map, and the square, whose determinants are
    rounded from entries of squared size up to size = |a|^2 + |b|^2 >= 1
    and size^2; that moves its trace from the screened one by a relative
    few ulps of size^2 (at most 3.5 eps size^2 over every matching of the
    domains the tests build).  So a matching with
    |t| >= (2 + PARABOLIC_TOL) (1 + SCREEN_MARGIN size^2) is axial and kept
    as it is; classify decides every other one, and raises as it does.
    """
    E = len(F.boundary)  # in edge-key order, as build_domain lists it
    aligner = [segment_aligner(*e.endpoints) for e in F.boundary]
    onto = [  # per edge: (conformal factor, reversing factor)
        (
            segment_aligner(e.endpoints[1], e.endpoints[0]).inverse(),
            h.inverse() * Isometry(1.0, 0.0, True),
        )
        for e, h in zip(F.boundary, aligner)
    ]
    # one row per matching, in sort_key's order (src, reversing, dst)
    at = np.arange(E)
    src, rev, dst = np.nonzero(np.repeat(at[:, None, None] < at, 2, axis=1))
    h = np.array([_entries(g) for g in aligner])[src].T
    o = np.array([[_entries(g) for g in pair] for pair in onto])[dst, rev].T
    reversing = rev == 1
    # a reversing left factor conjugates the aligner's entries
    sign = np.where(reversing, -1.0, 1.0)
    a2, b2 = (h[0], sign * h[1]), (h[2], sign * h[3])
    oa, ob = (o[0], o[1]), (o[2], o[3])
    # a = o.a a2 + o.b conj(b2), b = o.a b2 + o.b conj(a2)
    p, q = _product(oa, a2), _product(ob, (b2[0], -b2[1]))
    ar, ai = p[0] + q[0], p[1] + q[1]
    p, q = _product(oa, b2), _product(ob, (a2[0], -a2[1]))
    br, bi = p[0] + q[0], p[1] + q[1]
    aa, bb = ar * ar + ai * ai, br * br + bi * bi
    t = np.where(reversing, 2.0 * (aa + br * br - bi * bi), 2.0 * ar)
    clear = np.abs(t) >= (2.0 + PARABOLIC_TOL) * (1.0 + SCREEN_MARGIN * (aa + bb) ** 2)
    boundary = F.boundary
    out = []
    for i, r, j, a_re, a_im, b_re, b_im, axial in zip(
        src.tolist(), reversing.tolist(), dst.tolist(),
        ar.tolist(), ai.tolist(), br.tolist(), bi.tolist(), clear.tolist(),
    ):
        m = Isometry(complex(a_re, a_im), complex(b_re, b_im), r)
        if axial or classify(m).tag == (GLIDE if r else HYPERBOLIC):
            out.append(SidePairing(m, boundary[i], boundary[j], r))
    return out


def _entries(g: Isometry) -> tuple[float, float, float, float]:
    return (g.a.real, g.a.imag, g.b.real, g.b.imag)


def _product(x, y):
    """Python's complex product of (re, im) arrays, written out: numpy's
    complex multiply may fuse a multiply and an add, which rounds once."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


class BoundarySlots:
    """Vertex classes and the corner slots used for vertex-cycle tracing.

    A slot is a pair (boundary vertex, incident boundary edge); every
    boundary vertex carries exactly two.  Choosing a pairing g for edge e
    sends each endpoint v of e to an endpoint v' of the target edge, and the
    cycle continues across the corner of F at v' along its other boundary
    edge.  This walk is a permutation of the slots; each vertex cycle of the
    quotient appears as a mirror pair of slot cycles; each slot step consumes
    v's 1 or 2 tile corners (wedges of 2 pi / 3), so a valid cycle closes at 3.
    """

    def __init__(self, F: FundamentalDomain):
        self.points: list[complex] = []
        self.wedges: list[int] = []  # tile corners of F at each vertex
        index_of: dict[tuple[int, int], int] = {}
        for point, members in F.vertex_classes():
            idx = len(self.points)
            self.points.append(point)
            self.wedges.append(len(members))
            for key in members:
                index_of[key] = idx

        self.incident: dict[int, list[tuple[int, int]]] = {}
        # each edge's endpoint vertices, in EdgeRef.endpoints' order
        self.ends: dict[tuple[int, int], tuple[int, int]] = {}
        for e in F.boundary:
            ends = tuple(index_of[(e.poly, c % F.n)] for c in (e.edge - 1, e.edge))
            self.ends[e.key] = ends
            for v in ends:
                self.incident.setdefault(v, []).append(e.key)
        for v, keys in self.incident.items():
            if len(keys) != 2 or self.wedges[v] not in (1, 2):
                raise InvalidCellStructure(
                    f"boundary vertex {v} has {len(keys)} incident boundary edges (2 "
                    f"expected) and {self.wedges[v]} tile corners (1 or 2 expected)"
                )

        self.slots = [(key, v) for v in sorted(self.incident) for key in self.incident[v]]
        self.slot_of = {slot: s for s, slot in enumerate(self.slots)}
        self.slot_vertex = [v for _, v in self.slots]
        self.slot_wedges = [self.wedges[v] for v in self.slot_vertex]
        self.edge_index = {key: i for i, key in enumerate(sorted(e.key for e in F.boundary))}

    def links_for(self, p: SidePairing) -> tuple[tuple[int, int], ...]:
        """The four slot links of identification p, src's endpoints first,
        each edge's in increasing vertex order: the slot of an endpoint v
        on its edge, to the slot of the other boundary edge at v's image.
        The images follow enumerate_pairings' rule: a conformal pairing
        crosses the endpoints, a reversing one keeps their order."""
        u, w = self.ends[p.src.key], self.ends[p.dst.key]
        if not p.reversing:
            w = w[::-1]
        out = []
        for a, b, a_ends, b_ends in ((p.src.key, p.dst.key, u, w), (p.dst.key, p.src.key, w, u)):
            for v, x in sorted(zip(a_ends, b_ends)):
                other = next(k for k in self.incident[x] if k != b)
                out.append((self.slot_of[(a, v)], self.slot_of[(other, x)]))
        return tuple(out)


def find_pairing(
    L: list[SidePairing],
    reversing: bool,
    src_poly: int,
    src_edge: int,
    dst_poly: int,
    dst_edge: int,
) -> SidePairing:
    """Look up the entry of L for an identification by its record (0-based
    polygon indices), given in either direction: a record and its flip
    (reversing, dst_poly, dst_edge, src_poly, src_edge) name the same entry."""
    ends = sorted([(src_poly, src_edge), (dst_poly, dst_edge)])
    ident = (reversing, ends[0], ends[1])
    for p in L:
        if p.identification == ident:
            return p
    record = (reversing, src_poly, src_edge, dst_poly, dst_edge)
    raise KeyError(f"no side pairing with record {record}")


def pairing_record(p: SidePairing) -> dict:
    """JSON record of p's identification: the two edges it glues, polygon
    indices 1-based, and whether it reverses orientation; it reads as a
    config seed record, which find_pairing looks up in L."""
    return {
        "src": {"poly": p.src.poly + 1, "edge": p.src.edge},
        "dst": {"poly": p.dst.poly + 1, "edge": p.dst.edge},
        "reversing": p.reversing,
    }


def pairing_json(p: SidePairing) -> dict:
    """pairing_record with the map's matrix row, as pairings.json lists L."""
    return {**pairing_record(p), **p.map.to_json()}
