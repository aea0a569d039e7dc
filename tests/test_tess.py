import cmath
import dataclasses
import math

import numpy as np
import pytest

from reference_data import edge_carrier, is_admissible, reference_admissible_distances
from diskpack.geom import Isometry, classify, dist
from diskpack.tess import (
    DEDUP_TOL,
    SCREEN_BITS,
    AdmissibilityTable,
    DistanceSet,
    NotHyperbolic,
    _keys,
    admissible_distances,
    polygon_metrics,
    sinh2_half,
    triangle_generators,
)

INRADIUS_14 = 1.449074722677586335  # acosh(1/(2 sin(pi/14))) at 50 digits
CIRCUM_14 = 1.5796004067035239131  # acosh(cot(pi/3) cot(pi/14)) at 50 digits
INRADIUS_7 = 0.54527483175354308723


class TestPolygonMetrics:
    def test_frozen_values(self):
        m14 = polygon_metrics(14)
        assert m14.inradius == pytest.approx(INRADIUS_14, abs=1e-15)
        assert m14.circumradius == pytest.approx(CIRCUM_14, abs=1e-15)
        assert polygon_metrics(7).inradius == pytest.approx(INRADIUS_7, abs=1e-15)

    def test_defining_relations(self):
        for n in (7, 9, 14, 16, 30):
            m = polygon_metrics(n)
            assert math.cosh(m.inradius) == pytest.approx(
                1.0 / (2.0 * math.sin(math.pi / n)), abs=1e-12
            )
            assert math.cosh(m.circumradius) == pytest.approx(
                1.0 / (math.tan(math.pi / 3) * math.tan(math.pi / n)), abs=1e-12
            )
            assert m.circumradius > m.inradius

    def test_euclidean_degenerate(self):
        with pytest.raises(NotHyperbolic):
            polygon_metrics(6)

    def test_extremal_radius_consistency(self):
        # acosh(1/(2 sin(k pi / (6(k - chi))))) with chi = 2 - g equals the
        # inradius of the n-gon with n = (6g + 6k - 12)/k
        for k, g in [(6, 3), (3, 6), (1, 3), (2, 3), (1, 4)]:
            n = (6 * g + 6 * k - 12) // k
            assert (6 * g + 6 * k - 12) % k == 0
            chi = 2 - g
            r = math.acosh(1.0 / (2.0 * math.sin(k * math.pi / (6 * (k - chi)))))
            assert r == pytest.approx(polygon_metrics(n).inradius, abs=1e-12)


def _tangent_toward(carrier, at, toward):
    if carrier.kind == "line":
        u = 1j * carrier.normal
    else:
        u = 1j * (at - carrier.center)
        u /= abs(u)
    d = toward - at
    return u if (u.real * d.real + u.imag * d.imag) > 0 else -u


class TestTriangleGenerators:
    def test_reflections_are_involutions(self):
        gens = triangle_generators(14)
        for r in (gens.a, gens.b, gens.c):
            assert classify(r).tag == "reflection"
            assert (r * r).matrix_dist(Isometry.identity()) < 1e-10

    def test_rotation_order(self):
        for n in (7, 14):
            gens = triangle_generators(n)
            rot = gens.rotation
            cls = classify(rot)
            assert cls.tag == "elliptic"
            # the angle, read off the action on a point of the real axis
            assert abs(rot(0.5) - 0.5 * cmath.exp(2j * math.pi / n)) < 1e-12
            power = Isometry.identity()
            for _ in range(n):
                power = rot * power
            assert power.matrix_dist(Isometry.identity()) < 1e-9

    def test_neighbors_at_twice_inradius(self):
        for n in (7, 14):
            gens = triangle_generators(n)
            for g in gens.rm:
                assert dist(0j, g(0j)) == pytest.approx(
                    2 * gens.metrics.inradius, abs=1e-12
                )

    def test_o_prime_is_second_neighbor_center(self):
        # (ca)^2 b (0) lands on the tile center across edge 2
        gens = triangle_generators(14)
        rot = gens.rotation
        o_prime = (rot * rot * gens.b)(0j)
        expected = math.tanh(INRADIUS_14) * cmath.exp(2j * math.pi * 2 / 14)
        assert abs(o_prime - expected) < 1e-12
        assert abs(gens.rm[2](0j) - o_prime) < 1e-12

    def test_polygon_closure(self):
        for n in (7, 14):
            gens = triangle_generators(n)
            m = gens.metrics
            corners = m.corners()
            for j, v in enumerate(corners):
                assert dist(0j, v) == pytest.approx(m.circumradius, abs=1e-10)
                t_prev = _tangent_toward(edge_carrier(gens, j), v, corners[j - 1])
                t_next = _tangent_toward(edge_carrier(gens, (j + 1) % n), v, corners[(j + 1) % n])
                angle = abs(cmath.phase(t_next / t_prev))
                assert angle == pytest.approx(2 * math.pi / 3, abs=1e-9)

    def test_corners_lie_on_their_carriers(self):
        gens = triangle_generators(14)
        m = gens.metrics
        for e in range(14):
            carrier = edge_carrier(gens, e)
            for v in (m.corner(e - 1), m.corner(e)):
                assert abs(carrier.side(v)) < 1e-12

    def test_neighbor_shares_exactly_edge_m(self):
        gens = triangle_generators(14)
        m = gens.metrics
        base = m.corners()
        for e in range(14):
            image = [gens.rm[e](v) for v in base]
            shared = [
                v for v in image if any(abs(v - w) < 1e-9 for w in base)
            ]
            assert len(shared) == 2
            expected = (m.corner(e - 1), m.corner(e))
            for v in shared:
                assert any(abs(v - w) < 1e-9 for w in expected)

    def test_flood_fill_matches_neighbor_words(self):
        # independent adjacency oracle: reflect placements across edge carriers
        n = 7
        gens = triangle_generators(n)
        base_refl = []
        rot_m = Isometry.identity()
        from diskpack.geom import geodesic_reflection

        for e in range(n):
            base_refl.append(geodesic_reflection(edge_carrier(gens, e)))

        def flood(steps):
            level = [Isometry.identity()]
            centers = [0j]
            for _ in range(steps):
                nxt = []
                for h in level:
                    for e in range(n):
                        nh = h * base_refl[e]
                        z = nh(0j)
                        if not any(abs(z - w) < 1e-8 for w in centers):
                            centers.append(z)
                            nxt.append(nh)
                level = nxt
            return centers

        def key_sorted(points):
            return sorted(points, key=lambda z: (round(z.real, 6), round(z.imag, 6)))

        words1 = [g(0j) for g in gens.rm] + [0j]
        words1 = _dedup(words1)
        assert _sets_match(flood(1), words1)

        words2 = [
            (gens.rm[i] * gens.rm[j])(0j) for i in range(n) for j in range(n)
        ]
        words2 = _dedup(words2)
        assert _sets_match(flood(2), words2)


def _dedup(points, tol=1e-8):
    out = []
    for z in points:
        if not any(abs(z - w) < tol for w in out):
            out.append(z)
    return out


def _sets_match(ps, qs, tol=1e-8):
    if len(ps) != len(qs):
        return False
    qs = list(qs)
    for p in ps:
        hit = next((q for q in qs if abs(p - q) < tol), None)
        if hit is None:
            return False
        qs.remove(hit)
    return True


class TestAdmissibleDistances:
    def test_depth_one_n14(self):
        dset = admissible_distances(14, 1)
        assert len(dset.values) == 2
        assert dset.values[0] == 0.0
        assert dset.values[1] == pytest.approx(2 * INRADIUS_14, abs=1e-9)

    def test_sorted_strictly_increasing(self):
        dset = admissible_distances(7, 3)
        vals = dset.values
        assert all(vals[i + 1] - vals[i] > DEDUP_TOL for i in range(len(vals) - 1))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(2 * INRADIUS_7, abs=1e-9)

    def test_depth_monotone(self):
        # recompute both depths directly and check containment
        d2 = admissible_distances(7, 2)
        d3 = admissible_distances(7, 3)
        for v in d2.values:
            assert is_admissible(d3, v)
            assert min(abs(x - v) for x in d3.values) < 1e-9

    def test_five_step_walk_distance_is_member(self):
        gens = triangle_generators(7)
        r = gens.rm
        word = r[1] * r[6] * r[4] * r[1] * r[5]
        d = dist(0j, word(0j))
        dset = admissible_distances(7, 5)
        assert min(abs(x - d) for x in dset.values) < 1e-9

    def test_is_admissible_matching(self):
        dset = admissible_distances(14, 1)
        assert is_admissible(dset, 0.0)
        assert is_admissible(dset, 2 * INRADIUS_14 + 0.5 * dset.match_tol)
        assert not is_admissible(dset, 2 * INRADIUS_14 + 10 * dset.match_tol)

    def test_random_product_is_member(self, rng):
        gens = triangle_generators(7)
        dset = admissible_distances(7, 4)
        for _ in range(20):
            word = Isometry.identity()
            for _ in range(4):
                word = word * gens.rm[rng.randrange(7)]
            assert is_admissible(dset, dist(0j, word(0j)))

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            admissible_distances(7, 0)

    @pytest.mark.parametrize(
        "n, depth",
        [(14, depth) for depth in range(1, 6)]
        + [(7, 5)]
        + [(n, 3) for n in (12, 18, 24, 30)],
    )
    def test_equals_the_enumeration_of_every_word(self, n, depth):
        dset = admissible_distances(n, depth)
        ref = reference_admissible_distances(n, depth)
        assert len(dset.values) == len(ref.values)
        diff = np.abs(np.array(dset.values) - np.array(ref.values))
        assert diff.max() <= DEDUP_TOL

    @pytest.mark.parametrize("n, letters", [(7, 3), (14, 1)])
    def test_first_letter_moves_no_distance(self, n, letters, rng):
        # R_m = (ca)^m R_0 and (ca)^m fixes 0, so the first letter of a word
        # never changes its displacement of 0; the float R_m differ from
        # (ca)^m R_0 by rounding, which a point at distance d magnifies by
        # about e^d, so h stays short enough for 1e-12
        gens = triangle_generators(n)
        for _ in range(10):
            h = Isometry.identity()
            for _ in range(rng.randrange(letters + 1)):
                h = h * gens.rm[rng.randrange(n)]
            d0 = dist(0j, (gens.rm[0] * h)(0j))
            for m in range(1, n):
                assert dist(0j, (gens.rm[m] * h)(0j)) == pytest.approx(d0, abs=1e-12)


def _edge_distances(dset):
    """Each interval end v +- match_tol moved by -2 .. +2 ulp, d below the
    first value and above the last, and the non-finite values."""
    vals = np.array(dset.values)
    ends = np.concatenate([vals - dset.match_tol, vals + dset.match_tol])
    moved = [ends]
    for direction in (-np.inf, np.inf):
        step = ends
        for _ in range(2):
            step = np.nextafter(step, direction)
            moved.append(step)
    outside = [vals[0] - 1.0, vals[0] - 2 * dset.match_tol, vals[-1] + 2 * dset.match_tol,
               vals[-1] + 1.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
    return np.concatenate(moved + [np.array(outside)])


class TestAdmissibleMask:
    @pytest.mark.parametrize("depth", [3, 5])
    def test_equals_scalar_rule_at_interval_ends(self, depth):
        dset = admissible_distances(14, depth)
        d = _edge_distances(dset)
        expected = np.array([is_admissible(dset, float(x)) for x in d])
        assert np.array_equal(AdmissibilityTable(dset)(d), expected)
        # the ulp moves straddle the rule's boundary on both sides
        assert expected.any() and not expected.all()

    @pytest.mark.parametrize("tol", [0.3, 1e-9, 1e-30])
    def test_equals_scalar_rule_at_other_bin_widths(self, tol, rng):
        # intervals of other widths: 0.3 merges neighbours; at 1e-9 the
        # interval around v = 0 ends at u^2 = 2.5e-19, and at 1e-30 below
        # SCREEN_FLOOR; the bins do not depend on tol, and the floor keeps
        # the table under 2^20 entries
        dset = dataclasses.replace(admissible_distances(14, 3), match_tol=tol)
        table = AdmissibilityTable(dset)
        assert len(table.check) < 1 << 20
        hi = dset.values[-1] + 1.0
        uniform = [rng.uniform(-1.0, hi) for _ in range(4000)]
        d = np.concatenate([_edge_distances(dset), uniform])
        expected = np.array([is_admissible(dset, float(x)) for x in d])
        assert np.array_equal(AdmissibilityTable(dset)(d), expected)

    def test_bins_span_a_relative_two_to_the_minus_screen_bits(self, rng):
        # a move by a relative half bin changes the key by one at most, and
        # no bin is wider than a relative 2^-SCREEN_BITS, at binade edges too
        random_u2 = [math.exp(rng.uniform(-40.0, 40.0)) for _ in range(2000)]
        u2 = np.concatenate([random_u2, 2.0 ** np.arange(-60.0, 60.0)])
        half = 2.0**-(SCREEN_BITS + 1)
        key = _keys(u2.copy().view(np.int64))
        for f in (1.0 - half, 1.0 + half):
            assert np.abs(_keys((u2 * f).view(np.int64)) - key).max() <= 1
        wider = u2 * (1.0 + 2.0 * half) * (1.0 + 1e-15)
        assert (_keys(wider.view(np.int64)) > key).all()

    def test_keeps_the_shape_of_d(self):
        dset = admissible_distances(14, 2)
        d = np.array(dset.values[:6]).reshape(2, 3)
        admissible = AdmissibilityTable(dset)
        assert admissible(d).shape == (2, 3)
        assert admissible(d).all()
        assert admissible(np.empty(0)).shape == (0,)


class TestAdmissibilityScreen:
    HALF_BIN = 2.0**-(SCREEN_BITS + 1)

    @pytest.mark.parametrize("depth", [3, 5])
    @pytest.mark.parametrize("tol", [1e-4, 0.3, 1e-9])
    def test_checks_every_u2_within_half_a_bin(self, depth, tol):
        # the soundness margin: a u^2 that misses an admissible d's u^2 by a
        # relative half bin or less still reaches the exact rule; d = 0
        # gives u^2 = 0, which lies in the bottom bin
        dset = dataclasses.replace(admissible_distances(14, depth), match_tol=tol)
        table = AdmissibilityTable(dset)
        d = np.append(_edge_distances(dset), 0.0)
        d = d[table(d)]
        u2 = sinh2_half(d)
        assert (u2 == 0.0).any() and len(d) > 4 * len(dset.values)
        for f in (-1.0, -0.999, -0.5, 0.0, 0.5, 0.999, 1.0):
            assert table.screen(u2 * (1.0 + f * self.HALF_BIN)).all()

    @pytest.mark.parametrize("depth", [3, 5])
    def test_rules_most_of_the_axis_out(self, depth):
        dset = admissible_distances(14, depth)
        table = AdmissibilityTable(dset)
        assert table.check[0] and not table.check[-1]
        assert table.check.mean() < 0.05
        # the geometric middle of every gap between intervals wider than
        # 16 bins
        vals = np.array(dset.values)
        ends = sinh2_half(vals[:-1] + dset.match_tol), sinh2_half(vals[1:] - dset.match_tol)
        gaps = ends[1] > ends[0] * (1.0 + 32.0 * self.HALF_BIN)
        middle = np.sqrt(ends[0][gaps] * ends[1][gaps])
        assert gaps.sum() > 10 and not table.screen(middle).any()

    def test_screen_sends_nan_and_infinities_to_the_end_bins(self):
        # u^2 = 0 and NaN of either sign go to the bottom bin, which is
        # check; +inf and every u^2 beyond the last interval to the top
        # bin, which is out
        with np.errstate(invalid="ignore"):
            nans = [np.nan, -np.nan, np.inf - np.inf, np.float64(np.inf) * 0.0]
        assert all(math.isnan(x) for x in nans)
        assert {bool(np.signbit(x)) for x in nans} == {False, True}
        for depth in (3, 5):
            dset = admissible_distances(14, depth)
            last = sinh2_half(dset.values[-1] + dset.match_tol) * (1.0 + 8.0 * self.HALF_BIN)
            got = AdmissibilityTable(dset).screen(np.array([0.0, -0.0, *nans, np.inf, 1e300, last]))
            assert got.tolist() == [True] * 6 + [False] * 3

    def test_a_set_without_zero_checks_its_bottom_bin(self):
        # the bottom bin is check whatever the values: here it holds the
        # first interval's lower end and everything below it
        dset = DistanceSet((1.0, 2.0), 1, match_tol=1e-4)
        table = AdmissibilityTable(dset)
        got = table.screen(sinh2_half(np.array([0.0, 0.5, 0.9999, 1.5, 2.0001, 3.0])))
        assert got.tolist() == [True, True, True, False, True, False]
