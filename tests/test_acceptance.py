"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite (including two full pipeline runs) should finish in
well under five minutes.
"""

import filecmp
import math
import os
import random
import time

import pytest

from conftest import random_glide, random_hyperbolic, random_isometry, random_point
from reference_data import (
    GOOD_CANDIDATE,
    LC_REJECTED_IDENTS,
    REJECTED_CANDIDATE,
    SOLUTION_18_IDENTS,
    axis_translation,
    compatible_pairings,
    dist_to_geodesic,
    is_admissible,
)
from diskpack.config import RELEVANT_N, ConfigError, NotRelevantN, PipelineConfig, load_config, primitive_pair
from diskpack.geom import (
    Isometry,
    axis,
    classify,
    displacement_offset,
    dist,
    hypercycle,
    signed_offset,
)
from diskpack.group import WORD_TOL, second_packing_certificate, swapping_half_turn
from diskpack.search import edge_coverage
from diskpack.tess import admissible_distances, polygon_metrics, triangle_generators


def _nearest(C, target):
    return min(C, key=lambda c: abs(c.point - target))


class TestCriterion1ReplayCandidates:
    def test_candidate_set_contains_published_points(self, n14):
        pts = [c.point for c in n14.C]
        assert min(abs(z) for z in pts) < 1e-9  # the origin
        assert abs(_nearest(n14.C, GOOD_CANDIDATE).point - GOOD_CANDIDATE) < 1e-3
        assert (
            abs(_nearest(n14.C, REJECTED_CANDIDATE).point - REJECTED_CANDIDATE) < 1e-3
        )
        print(
            "\nACCEPTANCE 1: PASS - N=14 replay yields the origin, "
            "0.516-0.248i and 0.324-0.478i among its candidates"
        )


class TestCriterion2Rejection:
    def test_rejected_candidate_list_and_coverage_gap(self, n14):
        c2 = _nearest(n14.C, REJECTED_CANDIDATE)
        Lc = compatible_pairings(c2, n14.L, n14.dset)
        assert {p.identification for p in Lc} == LC_REJECTED_IDENTS
        cov = edge_coverage(Lc, n14.F)
        assert cov[(0, 3)] == []
        print(
            "\nACCEPTANCE 2: PASS - L_c of 0.324-0.478i equals the published "
            "five pairings and leaves edge 3 of pol1 uncovered"
        )


class TestCriterion3Completion:
    def test_published_generating_set_and_topology(self, n14, n14_solution):
        assert SOLUTION_18_IDENTS in [
            s.identifications for s in n14_solution.solutions
        ]
        topo = load_config("configs/n14.json").topology
        assert topo["euler_characteristic"] == -4
        assert topo["orientable"] is False
        assert topo["genus"] == 6
        # the solution's vertex cycles and F's interior vertices are the
        # surface's vertices
        interior = sum(len(members) == 3 for _, members in n14.F.vertex_classes())
        assert len(n14_solution.reference.vertex_cycles) + interior == topo["vertices"]
        slots = n14.F.slot_table
        for verts in n14_solution.reference.vertex_cycles:
            assert sum(slots.wedges[v] for v in verts) == 3
        print(
            "\nACCEPTANCE 3: PASS - completion recovers the reference 18-entry "
            "set; chi=-4, non-orientable, genus 6, cycles at 2pi"
        )


class TestCriterion4Certificate:
    def test_certificate_for_published_group(self, n14, n14_solution):
        cert = second_packing_certificate(n14_solution.candidate.point, n14_solution.group)
        assert cert["passed"]
        assert len(cert["memberships"]) == 36
        assert max(m.residual for m in cert["memberships"]) <= WORD_TOL
        tau = swapping_half_turn(cert["candidate"], cert["o_prime"])
        assert dist(tau(cert["candidate"]), cert["o_prime"]) < 1e-8
        print(
            "\nACCEPTANCE 4: PASS - tau conjugates all generators into K "
            "(relative word residuals <= 3e-9) and swaps P with O' within 1e-8"
        )


class TestCriterion5KernelProperties:
    CHECKS = 10_000

    def test_distance_invariance(self):
        rng = random.Random(501)
        for _ in range(self.CHECKS):
            g = random_isometry(rng)
            z, w = random_point(rng), random_point(rng)
            assert abs(dist(g(z), g(w)) - dist(z, w)) <= 1e-10
        print("\nACCEPTANCE 5a: PASS - 1e4 distance-invariance checks at 1e-10")

    def test_hyperbolic_displacement_identity(self):
        rng = random.Random(502)
        for _ in range(self.CHECKS):
            g, t = random_hyperbolic(rng)
            z = random_point(rng)
            lhs = math.sinh(0.5 * dist(z, g(z)))
            rhs = math.cosh(dist_to_geodesic(z, axis(g))) * math.sinh(0.5 * t)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        print("\nACCEPTANCE 5b: PASS - 1e4 hyperbolic displacement identities at 1e-8")

    def test_glide_displacement_identity(self):
        rng = random.Random(503)
        for _ in range(self.CHECKS):
            g, t = random_glide(rng)
            z = random_point(rng)
            lhs = math.cosh(0.5 * dist(z, g(z)))
            rhs = math.cosh(dist_to_geodesic(z, axis(g))) * math.cosh(0.5 * t)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        print("\nACCEPTANCE 5c: PASS - 1e4 glide displacement identities at 1e-8")

    def test_hypercycle_round_trip(self):
        # sample the displacement locus in Fermi coordinates along the axis:
        # conj(h, axis translation) has axis h(real diameter), and the point
        # at arclength s and signed offset delta is h(T_s(i tanh(delta/2)))
        rng = random.Random(504)
        for _ in range(self.CHECKS):
            t = rng.uniform(0.3, 3.0)
            h = Isometry.translation_to(random_point(rng)) * Isometry.rotation(
                2 * math.pi * rng.random()
            )
            glide = rng.random() < 0.5
            g0 = axis_translation(t)
            if glide:
                g0 = g0 * Isometry(1.0, 0.0, True)
            g = h * g0 * h.inverse()
            d = rng.uniform(t, t + 2.5)
            delta = displacement_offset(classify(g), d)
            if delta is None:
                continue
            side = 1 if rng.random() < 0.5 else -1
            s = rng.uniform(-1.5, 1.5)
            z = h(
                axis_translation(s)(1j * side * math.tanh(0.5 * delta))
            )
            assert abs(dist(z, g(z)) - d) <= 1e-7
            # z lies on the equidistant curve of its own side of the axis
            A = axis(g)
            curve_side = 1 if signed_offset(z, A) > 0 else -1
            curve = hypercycle(A, delta, curve_side)
            if curve.kind == "circle" and curve.radius < 1e5:
                assert abs(curve.side(z)) <= 1e-8 * max(1.0, curve.radius**2)
        print("\nACCEPTANCE 5d: PASS - 1e4 hypercycle round-trips at 1e-7")

    def test_classification_conjugation_invariance(self):
        rng = random.Random(505)
        for _ in range(self.CHECKS):
            g, t = random_hyperbolic(rng)
            h = random_isometry(rng)
            cls = classify(h * g * h.inverse())
            assert cls.tag == "hyperbolic"
            assert abs(cls.translation_length - t) <= 1e-8
        print("\nACCEPTANCE 5e: PASS - 1e4 conjugation-invariance checks at 1e-8")


class TestCriterion6DistanceSets:
    def test_depth_one_n14(self):
        dset = admissible_distances(14, 1)
        inradius = polygon_metrics(14).inradius
        assert len(dset.values) == 2
        assert abs(dset.values[0]) <= 1e-9
        assert abs(dset.values[1] - 2 * inradius) <= 1e-9

    def test_five_step_walk_membership_n7(self):
        gens = triangle_generators(7)
        r = gens.rm
        walk = r[1] * r[6] * r[4] * r[1] * r[5]
        d = dist(0j, walk(0j))
        assert is_admissible(admissible_distances(7, 5), d)

    def test_depth_monotone_3_to_4(self):
        d3 = admissible_distances(7, 3)
        d4 = admissible_distances(7, 4)
        for v in d3.values:
            assert min(abs(x - v) for x in d4.values) <= 1e-9
        print(
            "\nACCEPTANCE 6: PASS - depth-1 set, five-step walk membership, "
            "and depth monotonicity all hold"
        )


class TestCriterion7Arithmetic:
    def test_primitive_pairs(self):
        assert primitive_pair(7) == (6, 3)
        assert primitive_pair(14) == (3, 6)

    def test_config_accepts_exactly_the_arithmetic_list(self):
        for n in range(2, 40):
            cfg = PipelineConfig(n=n)
            if n in RELEVANT_N:
                try:
                    cfg.validate()
                except NotRelevantN:
                    pytest.fail(f"N={n} wrongly rejected")
                except ConfigError:
                    pass  # in the list; only the k-divisibility failed
            else:
                with pytest.raises(NotRelevantN):
                    cfg.validate()

    def test_rejects_n13(self):
        with pytest.raises(NotRelevantN):
            PipelineConfig(n=13).validate()
        print(
            "\nACCEPTANCE 7: PASS - primitive pairs (6,3)/(3,6); config "
            "accepts exactly the arithmetic N list and rejects 13"
        )


class TestCriterion8Determinism:
    def test_two_full_runs_are_byte_identical(self, tmp_path):
        from diskpack.pipeline import run_pipeline

        elapsed = []
        outs = []
        for name in ("a", "b"):
            cfg = load_config("configs/n14.json")
            cfg.out_dir = str(tmp_path / name)
            start = time.time()
            assert run_pipeline(cfg) == 0
            elapsed.append(time.time() - start)
            outs.append(cfg.out_dir)
        assert max(elapsed) < 300.0  # criterion 1's runtime bound, per run
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        assert mismatch == [] and errors == []
        assert {"certificate.json", "solution.svg"} <= set(match)
        print(
            f"\nACCEPTANCE 8: PASS - two full runs byte-identical "
            f"({len(match)} artifacts, {max(elapsed):.1f}s per run)"
        )
