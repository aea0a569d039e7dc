import cmath
import math

import numpy as np
import pytest

from conftest import (
    random_glide,
    random_hyperbolic,
    random_isometry,
    random_point,
)
from diskpack.geom import (
    CoincidentCurves,
    GeneralizedCircle,
    GeometryError,
    Isometry,
    NotAxial,
    axis,
    classify,
    dist,
    displacement_offset,
    elliptic_about,
    geodesic_reflection,
    geodesic_through,
    midpoint,
    segment_aligner,
    signed_offset,
)
from reference_data import axis_translation, dist_to_geodesic, hypercycle, intersect, point_at


class TestDist:
    def test_zero(self):
        assert dist(0j, 0j) == 0.0

    def test_diameter_closed_form(self):
        assert dist(0j, 0.5 + 0j) == pytest.approx(math.log(3.0), abs=1e-14)

    def test_cosh_formula_oracle(self):
        # acosh(1 + 2|z-w|^2/((1-|z|^2)(1-|w|^2))) at 50 digits for z,w = +-0.3i
        assert dist(0.3j, -0.3j) == pytest.approx(1.2380784168124468619, abs=1e-14)

    def test_symmetry_and_positivity(self, rng):
        for _ in range(200):
            z, w = random_point(rng), random_point(rng)
            assert dist(z, w) == dist(w, z)
            assert dist(z, w) >= 0.0


class TestApplyComposeInverse:
    def test_identity_fixes_everything(self, rng):
        e = Isometry.identity()
        for _ in range(20):
            z = random_point(rng)
            assert abs(e(z) - z) == 0.0

    def test_half_turn(self):
        g = Isometry.rotation(math.pi)
        assert abs(g(0.5 + 0j) - (-0.5 + 0j)) < 1e-15

    def test_reflection_is_involution(self, rng):
        c = Isometry.diameter_reflection(cmath.exp(0.3j))
        for _ in range(20):
            z = random_point(rng)
            assert abs(c(c(z)) - z) < 1e-12

    def test_compose_matches_pointwise(self, rng):
        for _ in range(100):
            g, h = random_isometry(rng), random_isometry(rng)
            gh = g * h
            assert gh.reversing == (g.reversing != h.reversing)
            for _ in range(3):
                z = random_point(rng)
                assert abs(gh(z) - g(h(z))) < 1e-10

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(100):
            g = random_isometry(rng)
            assert (g * g.inverse()).matrix_dist(Isometry.identity()) < 1e-10
            assert g.inverse().reversing == g.reversing

    def test_two_mirrors_give_double_angle_rotation(self, rng):
        th1, th2 = 0.35, 1.2
        c1 = Isometry.diameter_reflection(1j * cmath.exp(1j * th1))
        c2 = Isometry.diameter_reflection(1j * cmath.exp(1j * th2))
        g = c2 * c1
        cls = classify(g)
        assert cls.tag == "elliptic"
        z = random_point(rng)
        assert abs(g(z) - cmath.exp(2j * (th2 - th1)) * z) < 1e-12

    def test_reflection_inverse_is_itself(self):
        c = Isometry.diameter_reflection(0.6 + 0.8j)
        assert c.inverse().matrix_dist(c) < 1e-15

    def test_inverse_preserves_translation_length(self, rng):
        for _ in range(50):
            g, t = random_hyperbolic(rng)
            assert classify(g.inverse()).translation_length == pytest.approx(t, abs=1e-9)

    def test_unit_determinant_kept(self, rng):
        for _ in range(200):
            g = random_isometry(rng) * random_isometry(rng) * random_isometry(rng)
            assert abs(abs(g.a) ** 2 - abs(g.b) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "a, b",
        [
            (1.0, 1.0), (0.5, 1.0), (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
            (1e200, 0.0), (1.0, 1e200), (1e308 + 1e308j, 0.0),
        ],
    )
    def test_rejects_a_determinant_that_is_not_positive_and_finite(self, a, b):
        # a NaN determinant fails every comparison, and an infinite one
        # renormalizes to a zero matrix; float pow raises OverflowError where
        # |a|^2 of a finite entry leaves the float range, and abs of the last
        # entry overflows before it is squared
        with pytest.raises(GeometryError, match="does not preserve the disk"):
            Isometry(a, b)

    def test_associativity(self, rng):
        for _ in range(50):
            g, h, k = (random_isometry(rng) for _ in range(3))
            assert ((g * h) * k).matrix_dist(g * (h * k)) < 1e-9


class TestClassify:
    def test_diag_i_is_half_turn(self):
        g = Isometry(1j, 0.0)
        assert classify(g).tag == "elliptic"
        assert abs(g(0.3 + 0.1j) + (0.3 + 0.1j)) < 1e-12

    def test_axis_normal_form_is_hyperbolic(self):
        t = 1.7
        cls = classify(axis_translation(t))
        assert cls.tag == "hyperbolic"
        assert cls.translation_length == pytest.approx(t, abs=1e-12)

    def test_identity_and_reflection(self):
        assert classify(Isometry.identity()).tag == "identity"
        assert classify(Isometry(1.0, 0.0, True)).tag == "reflection"

    def test_glide_translation_length(self, rng):
        for _ in range(50):
            g, t = random_glide(rng)
            cls = classify(g)
            assert cls.tag == "glide"
            assert cls.translation_length == pytest.approx(t, abs=1e-9)

    def test_conjugation_invariance(self, rng):
        for _ in range(100):
            g, t = random_hyperbolic(rng)
            h = random_isometry(rng)
            cls = classify(h * g * h.inverse())
            assert cls.tag == "hyperbolic"
            assert cls.translation_length == pytest.approx(t, abs=1e-9)

    def test_distance_preserved(self, rng):
        for _ in range(200):
            g = random_isometry(rng)
            z, w = random_point(rng), random_point(rng)
            assert dist(g(z), g(w)) == pytest.approx(dist(z, w), abs=1e-10)


def _axis_samples(A, count=12):
    """Points of the curve A lying inside the unit disk."""
    pts = []
    for i in range(count):
        z = point_at(A, 2 * math.pi * i / count if A.kind == "circle" else -0.95 + 1.9 * i / count)
        if abs(z) < 0.999:
            pts.append(z)
    return pts


class TestAxis:
    def test_normal_form_axis_is_real_diameter(self):
        A = axis(axis_translation(1.3))
        assert A.kind == "line"
        assert abs(A.offset) < 1e-12
        assert abs(A.normal.real) < 1e-12

    def test_axis_of_square_matches(self, rng):
        for _ in range(30):
            g, _ = random_hyperbolic(rng)
            A, A2 = axis(g), axis(g * g)
            for t in (-0.6, 0.0, 0.9):
                z = point_at(A, t)
                if abs(z) < 1.0:
                    assert dist_to_geodesic(z, A2) < 1e-8

    def test_ideal_points_fixed_and_axis_invariant(self, rng):
        for _ in range(30):
            g, _ = random_hyperbolic(rng)
            A = axis(g)
            u, v = A.ideal_points()
            assert abs(abs(u) - 1.0) < 1e-9 and abs(abs(v) - 1.0) < 1e-9
            assert abs(g(u) - u) < 1e-9 and abs(g(v) - v) < 1e-9  # fixed points
            for z in _axis_samples(A):
                assert dist_to_geodesic(g(z), A) < 1e-8

    def test_glide_axis_invariant(self, rng):
        for _ in range(30):
            g, _ = random_glide(rng)
            A = axis(g)
            for z in _axis_samples(A):
                assert dist_to_geodesic(z, A) < 1e-12
                assert dist_to_geodesic(g(z), A) < 1e-8

    def test_not_axial(self):
        with pytest.raises(NotAxial):
            axis(Isometry.rotation(1.0))


class TestDistToGeodesic:
    def test_point_on_axis(self):
        A = geodesic_through(-0.5 + 0j, 0.5 + 0j)
        assert dist_to_geodesic(0.3 + 0j, A) < 1e-15

    def test_imaginary_point_vs_real_diameter(self):
        A = GeneralizedCircle.line(1j, 0.0)
        for y in (0.1, 0.5, 0.8):
            assert dist_to_geodesic(complex(0, y), A) == pytest.approx(
                dist(0j, complex(0, y)), abs=1e-12
            )

    def test_displacement_identity_oracle(self, rng):
        # sinh(d(z,gz)/2) = cosh(d(z,A)) sinh(T/2), both sides evaluated directly
        for _ in range(100):
            g, t = random_hyperbolic(rng)
            z = random_point(rng)
            lhs = math.sinh(0.5 * dist(z, g(z)))
            rhs = math.cosh(dist_to_geodesic(z, axis(g))) * math.sinh(0.5 * t)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_glide_displacement_identity_oracle(self, rng):
        for _ in range(100):
            g, t = random_glide(rng)
            z = random_point(rng)
            lhs = math.cosh(0.5 * dist(z, g(z)))
            rhs = math.cosh(dist_to_geodesic(z, axis(g))) * math.cosh(0.5 * t)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestDisplacementOffset:
    def test_axis_points_realize_translation_length(self):
        cls = classify(axis_translation(1.1))
        assert displacement_offset(cls, 1.1) == pytest.approx(0.0, abs=1e-6)

    def test_below_minimum_has_no_solution(self):
        cls = classify(axis_translation(1.1))
        assert displacement_offset(cls, 0.9) is None

    def test_glide_inversion(self, rng):
        # invert cosh(d/2) = cosh(delta) cosh(T/2) at delta = 1
        g, t = random_glide(rng)
        d = 2.0 * math.acosh(math.cosh(0.5 * t) * math.cosh(1.0))
        assert displacement_offset(classify(g), d) == pytest.approx(1.0, abs=1e-9)

    def test_not_axial(self):
        with pytest.raises(NotAxial):
            displacement_offset(classify(Isometry.rotation(0.4)), 1.0)


class TestHypercycle:
    def test_zero_offset_returns_axis(self):
        A = geodesic_through(0.2 + 0.1j, -0.3 + 0.4j)
        assert hypercycle(A, 0.0, 1) is A

    def test_small_offset_approaches_axis(self):
        A = geodesic_through(0.2 + 0.1j, -0.3 + 0.4j)
        H = hypercycle(A, 1e-9, 1)
        assert abs(H.center - A.center) < 1e-6
        assert abs(H.radius - A.radius) < 1e-6

    def test_real_diameter_offset_circle(self):
        A = GeneralizedCircle.line(1j, 0.0)
        delta = 0.8
        H = hypercycle(A, delta, 1)
        y = math.tanh(0.5 * delta)
        assert abs(H.side(1.0 + 0j)) < 1e-12
        assert abs(H.side(-1.0 + 0j)) < 1e-12
        assert abs(H.side(complex(0.0, y))) < 1e-12

    def test_sides_are_mirror_images(self):
        A = geodesic_through(0.2 + 0.1j, -0.3 + 0.4j)
        refl = geodesic_reflection(A)
        Hp, Hm = hypercycle(A, 0.7, 1), hypercycle(A, 0.7, -1)
        for t in (0.1, 0.4, 2.0):
            z = point_at(Hp, t)
            if abs(z) < 1.0:
                assert abs(Hm.side(refl(z))) < 1e-10

    def test_points_at_exact_distance(self, rng):
        for _ in range(50):
            g, _ = random_hyperbolic(rng)
            A = axis(g)
            delta = rng.uniform(0.05, 1.5)
            for side in (1, -1):
                H = hypercycle(A, delta, side)
                for t in [rng.uniform(0, 2 * math.pi) for _ in range(4)]:
                    z = point_at(H, t)
                    if abs(z) < 0.999:
                        assert dist_to_geodesic(z, A) == pytest.approx(delta, abs=1e-8)
                        assert signed_offset(z, A) * side > 0

    def test_shares_ideal_points_with_axis(self, rng):
        g, _ = random_hyperbolic(rng)
        A = axis(g)
        H = hypercycle(A, 0.9, -1)
        for p in A.ideal_points():
            assert abs(H.side(p)) < 1e-9


class TestIntersect:
    def test_parallel_lines_empty(self):
        l1 = GeneralizedCircle.line(1j, 0.0)
        l2 = GeneralizedCircle.line(1j, 0.5)
        assert intersect(l1, l2) == []

    def test_orthogonal_diameters_meet_at_origin(self):
        l1 = GeneralizedCircle.line(1j, 0.0)
        l2 = GeneralizedCircle.line(1.0, 0.0)
        pts = intersect(l1, l2)
        assert len(pts) == 1 and abs(pts[0]) < 1e-15

    def test_coincident_raises(self):
        A = geodesic_through(0.2 + 0.1j, -0.3 + 0.4j)
        with pytest.raises(CoincidentCurves):
            intersect(A, A)

    def test_two_point_circle_intersection(self):
        c1 = GeneralizedCircle.circle(0.5 + 0j, 0.6)
        c2 = GeneralizedCircle.circle(-0.5 + 0j, 0.6)
        pts = intersect(c1, c2)
        assert len(pts) == 2
        for p in pts:
            assert abs(c1.side(p)) < 1e-12 and abs(c2.side(p)) < 1e-12
        assert pts[0].imag < pts[1].imag  # deterministic order

    def test_tangency_reported_once(self):
        c1 = GeneralizedCircle.circle(-0.4 + 0j, 0.3)
        c2 = GeneralizedCircle.circle(0.2 + 0j, 0.3)
        assert len(intersect(c1, c2)) == 1

    def test_outside_disk_filtered(self):
        c1 = GeneralizedCircle.circle(2.0 + 0j, 1.2)
        c2 = GeneralizedCircle.circle(2.0 + 2j, 1.8)
        for p in intersect(c1, c2):
            assert abs(p) < 1.0


class TestEllipticMidpoint:
    def test_half_turn_about_origin(self, rng):
        tau = elliptic_about(0j, math.pi)
        for _ in range(10):
            z = random_point(rng)
            assert abs(tau(z) + z) < 1e-12

    def test_elliptic_fixes_center_and_has_angle(self, rng):
        p = 0.3 - 0.2j
        g = elliptic_about(p, 1.1)
        assert abs(g(p) - p) < 1e-12
        assert classify(g).tag == "elliptic"
        # conjugated to the origin, g is the rotation by 1.1
        t = Isometry.translation_to(p)
        z = random_point(rng)
        assert abs((t.inverse() * g * t)(z) - cmath.exp(1.1j) * z) < 1e-12

    def test_midpoint_on_diameter(self):
        x = 0.8
        m = midpoint(0j, complex(x, 0))
        assert m.imag == pytest.approx(0.0, abs=1e-15)
        assert m.real == pytest.approx(0.5, abs=1e-12)  # tanh(atanh(0.8)/2) = 0.5

    def test_midpoint_equidistant(self, rng):
        for _ in range(100):
            z, w = random_point(rng), random_point(rng)
            if abs(z - w) < 1e-3:
                continue
            m = midpoint(z, w)
            assert dist(z, m) == pytest.approx(dist(m, w), abs=1e-10)
            assert dist(z, m) == pytest.approx(0.5 * dist(z, w), abs=1e-10)

    def test_half_turn_about_midpoint_swaps(self, rng):
        for _ in range(50):
            z, w = random_point(rng), random_point(rng)
            if abs(z - w) < 1e-3:
                continue
            tau = elliptic_about(midpoint(z, w), math.pi)
            assert abs(tau(z) - w) < 1e-10
            assert abs(tau(w) - z) < 1e-10


class TestSegmentAligner:
    def test_alignment(self, rng):
        for _ in range(50):
            u, v = random_point(rng), random_point(rng)
            if abs(u - v) < 1e-3:
                continue
            h = segment_aligner(u, v)
            assert abs(h(u)) < 1e-12
            hv = h(v)
            assert abs(hv.imag) < 1e-12 and hv.real > 0
            assert dist(0j, hv) == pytest.approx(dist(u, v), abs=1e-12)


class TestSignedOffset:
    def test_array_matches_scalar_bit_for_bit(self, rng):
        zs = np.array([random_point(rng, 0.99) for _ in range(300)])
        circle = geodesic_through(0.2 + 0.1j, -0.3 + 0.4j)
        line = geodesic_through(0.3 + 0.1j, -0.6 - 0.2j)
        assert (circle.kind, line.kind) == ("circle", "line")
        for A in (circle, line):
            assert signed_offset(zs, A).tolist() == [signed_offset(z, A) for z in zs.tolist()]
