import cmath
import dataclasses
import functools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point
from reference_data import (
    SEED_P1,
    edge_margin,
    flipped,
    ident,
    reference_enumerate_pairings,
    reference_links,
    vertex_at,
    vertex_points,
)
from diskpack.domain import (
    INSIDE_TOL,
    Attachment,
    BoundarySlots,
    DisconnectedAssembly,
    InvalidCellStructure,
    OverlappingPolygons,
    build_domain,
    enumerate_pairings,
    find_pairing,
)
from diskpack.pipeline import pairing_lines
from diskpack import domain as domain_module
from diskpack.geom import Isometry, classify, dist, midpoint


class TestBuildDomain:
    def test_single_polygon(self):
        F = build_domain(14, [])
        assert F.k == 1
        assert len(F.boundary) == 14
        assert F.internal_edges == ()

    def test_three_around_a_vertex(self, n14):
        F = n14.F
        assert F.k == 3
        assert len(F.boundary) == 36
        assert len(F.internal_edges) == 3
        assert set(F.internal_edges) == {
            ((0, 0), (1, 0)),
            ((0, 1), (2, 0)),
            ((1, 13), (2, 1)),
        }

    def test_attached_edge_zero_is_shared(self, n14):
        # relabeling convention: an attached tile's edge 0 coincides with the
        # parent edge it was attached across, endpoints matching as a set
        F = n14.F
        parent_edge = F.edges[0][0]
        child_edge = F.edges[1][0]
        pa, pb = parent_edge.endpoints
        ca, cb = child_edge.endpoints
        assert min(abs(pa - ca) + abs(pb - cb), abs(pa - cb) + abs(pb - ca)) < 1e-9

    def test_centers_spaced_by_twice_inradius(self, n14):
        F = n14.F
        r = F.metrics.inradius
        for i in range(3):
            for j in range(i + 1, 3):
                assert dist(F.center(i), F.center(j)) == pytest.approx(2 * r, abs=1e-9)

    def test_is_center_on_an_array_is_the_scalar_test(self, n14):
        # each center, points 1e-6 off it and an ulp either side of that,
        # and every candidate: the array path's hypot is abs(complex)'s
        F = n14.F
        pts = [c.point for c in n14.C]
        for z in F.centers:
            for k in range(16):
                r = 1e-6 * (1.0 + 1e-6 * (k % 3 - 1))
                pts += [z, z + r * cmath.exp(2j * math.pi * k / 16)]
            pts += [z + complex(math.nextafter(1e-6, s), 0.0) for s in (0.0, 1.0)]
        got = F.is_center(np.array(pts))
        assert got.dtype == bool and got.tolist() == [F.is_center(z) for z in pts]
        assert got.any() and not got.all()

    def test_duplicate_attachment_edge_rejected(self):
        with pytest.raises(OverlappingPolygons):
            build_domain(14, [Attachment(0, 0), Attachment(0, 0)])

    def test_forward_reference_rejected(self):
        with pytest.raises(DisconnectedAssembly):
            build_domain(14, [Attachment(2, 0)])

    def test_geometric_overlap_rejected(self):
        # child of the child across its shared edge lands back on tile 0
        with pytest.raises(OverlappingPolygons):
            build_domain(14, [Attachment(0, 0), Attachment(1, 0)])

    def test_reversing_frame_rejected(self):
        with pytest.raises(ValueError):
            build_domain(14, [], frame=Isometry(1.0, 0.0, True))

    def test_heptagon_chain(self):
        # the other primitive shape: six heptagons in a chain
        F = build_domain(
            7,
            [
                Attachment(0, 0),
                Attachment(1, 3),
                Attachment(2, 3),
                Attachment(3, 3),
                Attachment(4, 3),
            ],
        )
        assert F.k == 6
        assert len(F.internal_edges) == 5
        assert len(F.boundary) == F.k * F.n - 2 * len(F.internal_edges) == 32
        # every attachment shares the child's edge 0
        for (p, e), (q, f) in F.internal_edges:
            assert f == 0

    def test_frame_moves_tile_zero(self):
        frame = Isometry.rotation(-math.pi / 2)
        F = build_domain(14, [], frame=frame)
        assert abs(F.center(0)) < 1e-12
        base = build_domain(14, [])
        rotated = [frame(v) for v in base.corners[0]]
        for u, v in zip(F.corners[0], rotated):
            assert abs(u - v) < 1e-12


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _per_tile_rule(F, z, tol=INSIDE_TOL) -> bool:
    """Strictly inside some tile, or within tol of two: tile by tile, edge by
    edge, in plain floats."""
    tiles = [min(edge_margin(F.edges[q][j], z) for j in range(F.n)) for q in range(F.k)]
    return any(m > tol for m in tiles) or sum(m >= -tol for m in tiles) >= 2


def _point_at_margin(ref, target: float) -> complex:
    """A point on the perpendicular bisector of ref's chord where ref's
    computed margin crosses target: bisection down to adjacent floats."""
    a, b = ref.endpoints
    mid, normal = 0.5 * (a + b), 1j * (b - a) / abs(b - a)

    def excess(t):
        return edge_margin(ref, mid + t * normal) - target

    lo, hi = -0.1, 0.1
    if excess(lo) > 0:
        lo, hi = hi, lo
    assert excess(lo) <= 0 < excess(hi)
    while (t := 0.5 * (lo + hi)) not in (lo, hi):
        if excess(t) > 0:
            hi = t
        else:
            lo = t
    return mid + hi * normal


class TestContains:
    def test_origin_inside(self, n14):
        assert n14.F.contains(0j)

    def test_far_point_outside(self, n14):
        assert not n14.F.contains(0.999 + 0j)

    def test_internal_edge_point_inside(self, n14):
        F = n14.F
        (p, e), _ = F.internal_edges[0]
        ref = F.edges[p][e]
        mid = 0.5 * (ref.endpoints[0] + ref.endpoints[1])
        # Euclidean midpoint of the endpoints is close enough to the edge to
        # sit inside both closed tiles
        assert F.contains(mid)

    def test_boundary_edge_point_outside(self, n14):
        F = n14.F
        ref = F.boundary[0]
        a, b = ref.endpoints
        # a point of the carrier between the endpoints, on the open boundary:
        # project the chord midpoint onto the carrier circle
        chord_mid = 0.5 * (a + b)
        c = ref.carrier
        z = c.center + c.radius * (chord_mid - c.center) / abs(chord_mid - c.center)
        assert abs(c.side(z)) < 1e-12
        assert not F.contains(z)

    def test_shared_vertex_inside(self, n14):
        # all three tiles meet there with full angle
        F = n14.F
        classes = F.vertex_classes()
        triple = next(pt for pt, members in classes if len(members) == 3)
        assert F.contains(triple)

    def test_array_matches_scalar(self, n14, rng):
        F = n14.F
        pts = [c.point for c in n14.C]
        for (p, e), _ in F.internal_edges:
            a, b = F.edges[p][e].endpoints
            pts.append(0.5 * (a + b))
        pts += [pt for pt, members in F.vertex_classes() if len(members) == 3]
        pts += [0.999 + 0j, -0.95j] + [random_point(rng, 0.98) for _ in range(300)]
        got = F.contains(np.array(pts))
        assert got.dtype == bool
        assert got.tolist() == [F.contains(z) for z in pts]
        assert got.any() and not got.all()

    def test_tolerance_edge(self, n14):
        # points where the margin at a boundary edge or at an internal edge
        # is +-INSIDE_TOL, moved -2..+2 ulp in each coordinate: the scalar
        # answer is a bool and equals the array's and the per-tile rule's
        F = n14.F
        # the two tiles' carriers of an internal edge differ by rounding, so
        # some internal edges leave a sliver of overlap and others a gap
        internal = [F.edges[key[0]][key[1]] for key, _ in F.internal_edges]
        pts = []
        for ref in [F.boundary[0], F.boundary[17]] + internal:
            for target in (INSIDE_TOL, -INSIDE_TOL):
                z = _point_at_margin(ref, target)
                near = [
                    complex(_ulps(z.real, dx), _ulps(z.imag, dy))
                    for dx in range(-2, 3)
                    for dy in range(-2, 3)
                ]
                margins = [edge_margin(ref, w) for w in near]
                assert min(margins) < target < max(margins)
                assert all(abs(m - target) < 1e-13 for m in margins)
                pts += near
        scalar = [F.contains(z) for z in pts]
        assert all(type(x) is bool for x in scalar)
        assert scalar == F.contains(np.array(pts)).tolist()
        assert scalar == [_per_tile_rule(F, z) for z in pts]
        assert any(scalar) and not all(scalar)
        # margins are too coarse here to land on +-INSIDE_TOL exactly, so
        # also move tol onto each point's tile margin and -2..+2 ulp off it
        for z in pts:
            for m in [min(edge_margin(edge, z) for edge in tile) for tile in F.edges]:
                if abs(abs(m) - INSIDE_TOL) > 1e-12:
                    continue
                for k in range(-2, 3):
                    tol = _ulps(abs(m), k)
                    got = F.contains(z, tol)
                    assert type(got) is bool
                    assert got == F.contains(np.array([z]), tol)[0]
                    assert got == _per_tile_rule(F, z, tol)


@functools.lru_cache(maxsize=None)
def _one_tile(n: int):
    return build_domain(n, [])


def _domain(n14, name: str):
    return n14.F if name == "n14" else _one_tile(int(name[1:]))


DOMAINS = ["n14", "n12", "n18", "n24", "n30"]


def _probes(F, tol: float) -> list[complex]:
    """Every corner and edge midpoint of every tile, and the points 0.5, 1
    and 2 tol from each (in sinh-distance) in 24 directions."""
    base = [v for poly in F.corners for v in poly]
    base += [midpoint(*e.endpoints) for row in F.edges for e in row]
    steps = [
        math.tanh(0.5 * math.asinh(f * tol)) * cmath.exp(2j * math.pi * k / 24)
        for f in (0.5, 1.0, 2.0)
        for k in range(24)
    ]
    pts = []
    for v in base:
        t = Isometry.translation_to(v)
        pts += [v] + [t(w) for w in steps]
    return pts


def _in_discs(F, zs: np.ndarray, tol: float) -> np.ndarray:
    center, radius = F.tile_discs(tol)
    return (np.abs(zs[:, None] - center) <= radius).any(axis=1)


def _accepted_in_discs(F, pts, tol: float) -> np.ndarray:
    """contains over pts, array path against scalar path; every accepted
    point must lie in one of the tile discs."""
    zs = np.array(pts)
    got = F.contains(zs, tol)
    assert got.tolist() == [F.contains(z, tol) for z in pts]
    assert _in_discs(F, zs, tol)[got].all()
    return got


class TestTileDiscs:
    """contains' array path decides only the points in tile_discs: every
    point that contains accepts must lie in one."""

    @pytest.mark.parametrize("name", DOMAINS)
    @pytest.mark.parametrize("tol", [INSIDE_TOL, 1e-4])
    def test_corners_and_midpoints(self, n14, name, tol):
        F = _domain(n14, name)
        pts = _probes(F, tol)
        got = _accepted_in_discs(F, pts, tol)
        assert got.any() and not got.all()
        if name == "n14":
            # beside a boundary vertex of two tiles, points within tol of
            # both lie beyond the circumradius of either: the discs need
            # the room they add
            zs = np.array(pts)[got]
            rho = np.array([[dist(z, F.center(i)) for i in range(F.k)] for z in zs])
            assert (rho.min(axis=1) > F.metrics.circumradius).any()

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(DOMAINS),
        radii=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=40),
        turns=st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40),
        near=st.lists(st.floats(-3e-9, 3e-9), min_size=80, max_size=80),
    )
    def test_random_points(self, n14, name, radii, turns, near):
        # points anywhere in the disk, and the same number just off corners
        F = _domain(n14, name)
        pts = [r * cmath.exp(2j * math.pi * t) for r, t in zip(radii, turns)]
        corners = [v for poly in F.corners for v in poly]
        pts += [
            corners[int(t * len(corners)) % len(corners)] + complex(dx, dy)
            for t, dx, dy in zip(turns, near[::2], near[1::2])
        ]
        _accepted_in_discs(F, pts, INSIDE_TOL)


def _disc_rims(F, tol: float) -> list[complex]:
    """Points on each tile disc's rim and 1 ulp either side of it, radially,
    in 48 directions."""
    center, radius = F.tile_discs(tol)
    pts = []
    for c, r in zip(center.tolist(), radius.tolist()):
        for k in range(48):
            u = cmath.exp(2j * math.pi * k / 48)
            for rr in (math.nextafter(r, 0.0), r, math.nextafter(r, 2.0)):
                pts.append(c + rr * u)
    return pts


def _off_circle(pts: list[complex]) -> list[complex]:
    """The points whose margins do not divide by zero: 1 - |z|^2, as the
    margins take it, is not 0."""
    return [z for z in pts if z.real * z.real + z.imag * z.imag != 1.0]


class TestScalarContains:
    """contains' scalar path takes the array path's disc pre-test, on the
    discs F caches for the default tol: its verdicts are the array path's
    and the per-tile rule's, on and around the disc rims, on a grid over
    and beyond the unit disk, and at hypothesis points."""

    @pytest.mark.parametrize("name", DOMAINS)
    @pytest.mark.parametrize("tol", [INSIDE_TOL, 1e-4])
    def test_rims_and_grid(self, n14, name, tol):
        F = _domain(n14, name)
        grid = [complex(x, y) for x in np.linspace(-1.2, 1.2, 49) for y in np.linspace(-1.2, 1.2, 49)]
        pts = _off_circle(_disc_rims(F, tol) + grid + [2.0 + 3.0j])
        scalar = [F.contains(z, tol) for z in pts]
        assert all(type(x) is bool for x in scalar)
        assert scalar == F.contains(np.array(pts), tol).tolist()
        assert scalar == [_per_tile_rule(F, z, tol) for z in pts]
        assert any(scalar) and not all(scalar)
        # on the unit circle every margin divides by zero, in both paths
        rim = [1.0 + 0j, -1j]
        with np.errstate(all="ignore"):
            assert [F.contains(z, tol) for z in rim] == F.contains(np.array(rim), tol).tolist()

    def test_default_discs_are_cached(self, n14):
        F = build_domain(14, [Attachment(0, 0), Attachment(0, 1)])
        assert "_inside_discs" not in vars(F)
        F.contains(0.1 + 0.2j)
        center, radius = F.tile_discs(INSIDE_TOL)
        assert vars(F)["_inside_discs"] == list(
            zip(center.real.tolist(), center.imag.tolist(), (radius * radius).tolist())
        )

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(DOMAINS),
        xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40),
        ys=st.lists(st.floats(-1.5, 1.5), min_size=40, max_size=40),
    )
    def test_random_points(self, n14, name, xs, ys):
        F = _domain(n14, name)
        pts = _off_circle([complex(x, y) for x, y in zip(xs, ys)])
        scalar = [F.contains(z) for z in pts]
        assert scalar == F.contains(np.array(pts)).tolist()
        assert scalar == [_per_tile_rule(F, z) for z in pts]


def _bits(p):
    g = p.map
    return (p.record, g.reversing, *(x.hex() for x in (g.a.real, g.a.imag, g.b.real, g.b.imag)))


def _assert_equals_the_oracle(F):
    """L is the oracle's entries from the smaller edge key to the larger, in
    its order, maps bit for bit, each map and class built lazily (the map
    from the table's row, the class by classify), and the table's arrays
    hold every entry's map bit for bit."""
    L = enumerate_pairings(F)
    for p in L:
        assert "map" not in vars(p) and "cls" not in vars(p)
    forward = [p for p in reference_enumerate_pairings(F) if p.src.key < p.dst.key]
    assert L and [_bits(p) for p in L] == [_bits(q) for q in forward]
    for p, q in zip(L, forward):
        assert "cls" not in vars(p)
        assert p.cls == classify(q.map)
    A = L.arrays
    rows = zip(A.a.tolist(), A.b.tolist(), A.reversing.tolist())
    assert [_bits(p)[1:] for p in L] == [
        (bool(r), *(x.hex() for x in (a.real, a.imag, b.real, b.imag))) for a, b, r in rows
    ]


class TestEnumeratePairings:
    def test_count_and_classes(self, n14):
        L = n14.L
        E = len(n14.F.boundary)
        assert len(L) <= E * (E - 1)
        assert len(L) == 1170  # 1260 matchings minus the 90 vertex elliptics
        for p in L:
            assert p.cls.tag == ("glide" if p.reversing else "hyperbolic")
            assert p.src.key < p.dst.key

    def test_keys_and_records_are_built_once(self, n14):
        # stored on first use, outside the fields: equality and hashing
        # still compare the fields alone
        e, p = n14.F.boundary[5], n14.L[17]
        assert e.key is e.key and e.key == (e.poly, e.edge)
        assert p.record is p.record and p.identification is p.identification
        assert p.cls is p.cls and p.cls == classify(p.map)
        assert p.record == (p.reversing, p.src.poly, p.src.edge, p.dst.poly, p.dst.edge)
        assert [f.name for f in dataclasses.fields(e)] == ["poly", "edge", "endpoints", "carrier", "inward"]
        assert [f.name for f in dataclasses.fields(p)] == ["map", "src", "dst", "reversing"]
        for old in (e, p):
            new = dataclasses.replace(old)
            assert new == old and hash(new) == hash(old) and "key" not in vars(new)

    def test_equals_the_oracles_forward_entries(self, n14):
        # the entries from the smaller edge key to the larger, bit for bit
        forward = [p for p in n14.L2 if p.src.key < p.dst.key]
        assert len(n14.L2) == 2340 and len(forward) == 1170
        assert [p.record for p in n14.L] == [p.record for p in forward]
        for p, q in zip(n14.L, forward):
            assert (p.map.a, p.map.b, p.map.reversing) == (q.map.a, q.map.b, q.map.reversing)
            assert p.cls == classify(q.map)
            assert (p.src, p.dst) == (q.src, q.dst)
        # no identification of the oracle is lost
        assert {p.identification for p in n14.L} == {p.identification for p in n14.L2}

    @pytest.mark.parametrize("n", [7, 12, 18, 24, 30])
    def test_one_tile_domains_equal_the_oracle(self, n):
        # the per-edge factors give every map pairing_between gives, bit for bit
        _assert_equals_the_oracle(build_domain(n, []))

    @pytest.mark.parametrize(
        "n, attachments",
        [(9, [(0, 0)]), (8, [(0, 0), (0, 1)]), (10, [(0, 0), (0, 1)]), (14, [(0, 0), (0, 1)]),
         (16, [(0, 0), (0, 8)]), (16, [(0, 0), (0, 1)]),
         (11, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)])],
    )
    def test_assemblies_equal_the_oracle(self, n, attachments):
        # the array pass composes each matching with Python's complex
        # product, and the trace screen keeps what classify keeps
        _assert_equals_the_oracle(build_domain(n, [Attachment(*a) for a in attachments]))

    def test_screen_only_skips_classify(self, n14, monkeypatch):
        # with an infinite margin every matching goes through classify and L
        # is the same to the bit; with the default margin only the 90 vertex
        # elliptics do, and each is dropped
        calls = []

        def counted(g, *args):
            calls.append(g)
            return classify(g, *args)

        monkeypatch.setattr(domain_module, "classify", counted)
        L = enumerate_pairings(n14.F)
        assert len(calls) == 90
        assert all(classify(g).tag == "elliptic" for g in calls)
        calls.clear()
        monkeypatch.setattr(domain_module, "SCREEN_MARGIN", math.inf)
        everything = enumerate_pairings(n14.F)
        assert len(calls) == len(n14.F.boundary) * (len(n14.F.boundary) - 1)
        assert [_bits(p) for p in everything] == [_bits(p) for p in L] == [_bits(p) for p in n14.L]

    def test_no_entry_is_listed_in_both_directions(self, n14):
        records = {p.record for p in n14.L}
        assert not any(flipped(r) in records for r in records)
        assert len({p.identification for p in n14.L}) == len(n14.L)

    def test_sorted_canonically(self, n14):
        keys = [p.sort_key() for p in n14.L]
        assert keys == sorted(keys)

    def test_endpoints_carried_onto_endpoints(self, n14):
        for p in n14.L[::97]:
            u1, u2 = p.src.endpoints
            v1, v2 = p.dst.endpoints
            img = sorted([p.map(u1), p.map(u2)], key=lambda z: (z.real, z.imag))
            tgt = sorted([v1, v2], key=lambda z: (z.real, z.imag))
            assert abs(img[0] - tgt[0]) < 1e-9
            assert abs(img[1] - tgt[1]) < 1e-9

    def test_inward_maps_outward(self, n14):
        # a point just inside the source edge arc maps to a point on the
        # outward side of the target edge carrier
        F = n14.F
        for p in n14.L[::203]:
            c = p.src.carrier
            chord_mid = 0.5 * (p.src.endpoints[0] + p.src.endpoints[1])
            arc_mid = c.center + c.radius * (chord_mid - c.center) / abs(
                chord_mid - c.center
            )
            inside = arc_mid + 0.01 * (F.center(p.src.poly) - arc_mid)
            assert edge_margin(p.src, inside) > 0
            image = p.map(inside)
            assert edge_margin(p.dst, image) < 0

    def test_closed_under_inversion(self, n14):
        # every identification's other direction, which L does not list, is
        # the inverse of its entry
        by_record = {p.record: p for p in n14.L2}
        for p in n14.L[::61]:
            q = by_record[flipped(p.record)]
            assert (p.map * q.map).matrix_dist(Isometry.identity()) < 1e-9

    def test_seed_records_present_and_glide(self, n14):
        # the config names p1 as pol1 13 -> pol1 10; L lists it the other way
        assert n14.p1.record == (True, 0, 10, 0, 13)
        assert n14.p1.cls.tag == "glide"
        assert n14.p2.record == (False, 0, 2, 1, 7)
        assert n14.p2.cls.tag == "hyperbolic"

    def test_find_pairing_resolves_either_direction(self, n14):
        for p in n14.L[::13] + [n14.p1, n14.p2]:
            assert find_pairing(n14.L, *p.record) is p
            assert find_pairing(n14.L, *flipped(p.record)) is p

    def test_find_pairing_missing(self, n14):
        with pytest.raises(KeyError):
            find_pairing(n14.L, False, 0, 0, 1, 0)  # internal edges not in L
        with pytest.raises(KeyError):
            find_pairing(n14.L, True, 0, 3, 0, 3)  # an edge onto itself

    def test_json_record_shape(self, n14):
        # the matrix's first row only; reversing alone gives the type
        rows = [json.loads(line) for line in pairing_lines(n14.L)]
        assert len(rows) == len(n14.L)
        rec = next(r for p, r in zip(n14.L, rows) if p is n14.p1)
        assert sorted(rec) == ["dst", "matrix", "reversing", "src"]
        assert rec["src"] == {"poly": 1, "edge": 10}
        assert rec["dst"] == {"poly": 1, "edge": 13}
        assert len(rec["matrix"]) == 2
        assert rec["reversing"] is True

    def test_identification_is_direction_free(self, n14):
        assert n14.p1.identification == ident(SEED_P1)


class TestSlotLinks:
    # the endpoint rule against each endpoint's image under the pairing,
    # looked up among the vertices: the same links, tuple for tuple
    @staticmethod
    def _check(F, pairings):
        struct, points = BoundarySlots(F), vertex_points(F)
        for p in pairings:
            assert struct.links_for(p) == reference_links(struct, points, p), p.record

    def test_rule_equals_the_geometric_links_at_n14(self, n14):
        # L, and the oracle's list with every identification both ways
        self._check(n14.F, n14.L)
        self._check(n14.F, n14.L2)

    @pytest.mark.parametrize("n", [12, 18, 24, 30])
    def test_rule_equals_the_geometric_links_on_one_tile(self, n):
        F = build_domain(n, [])
        L = enumerate_pairings(F)
        assert L
        self._check(F, L)

    def test_wedge_counts(self, n14):
        # a boundary vertex carries 1 or 2 tile corners; a third one at a
        # 2-corner vertex (every 2-corner vertex lies on the boundary) is
        # no cell structure
        struct = n14.F.slot_table
        assert sorted(struct.wedges[v] for v in struct.incident) == [1] * 33 + [2] * 3
        classes = n14.F.vertex_classes()
        next(members for _, members in classes if len(members) == 2).append((n14.F.k, 0))
        fake = SimpleNamespace(n=n14.F.n, boundary=n14.F.boundary, vertex_classes=lambda: classes)
        with pytest.raises(InvalidCellStructure, match="3 tile corners"):
            BoundarySlots(fake)


class TestSymmetries:
    def test_n14_group_has_order_six(self, n14):
        group = n14.F.symmetries
        assert len(group) == 6
        identity = group[0].map
        assert not identity.reversing and identity.matrix_dist(Isometry.identity()) <= 1e-9
        assert sum(s.map.reversing for s in group) == 3
        keys = sorted(e.key for e in n14.F.boundary)
        for s in group:
            assert sorted(s.edges) == keys and sorted(s.edges.values()) == keys

    def test_maps_every_entry_of_L_to_the_permuted_identification(self, n14):
        by_ident = {p.identification: p for p in n14.L}
        for s in n14.F.symmetries:
            g, g_inv = s.map, s.map.inverse()
            for p in n14.L:
                q = by_ident[s.identification(p.identification)]
                # g p g^-1 glues g(src) onto g(dst); q may run the other way
                want = q.map if q.src.key == s.edges[p.src.key] else q.map.inverse()
                assert (g * p.map * g_inv).matrix_dist(want) < 1e-9

    def test_permutes_the_slots_keeping_their_angles(self, n14):
        struct, points = n14.F.slot_table, vertex_points(n14.F)
        for s in n14.F.symmetries:
            images = []
            for key, v in struct.slots:
                w = vertex_at(points, s.map(points[v]))
                images.append(struct.slot_of[(s.edges[key], w)])
            assert sorted(images) == list(range(len(struct.slots)))
            assert [struct.slot_wedges[t] for t in images] == struct.slot_wedges

    def test_built_on_first_use_only(self):
        F = build_domain(14, [Attachment(0, 0), Attachment(0, 1)])
        enumerate_pairings(F)
        F.contains(0.1 + 0.1j)
        assert "symmetries" not in vars(F)
        assert F.symmetries is F.symmetries

    def test_other_domains(self):
        # one heptagon: its dihedral group; two 14-gons: swap and mirror
        assert len(build_domain(7, []).symmetries) == 14
        assert len(build_domain(14, [Attachment(0, 4)]).symmetries) == 4
