import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from reference_data import (
    GOOD_CANDIDATE,
    LC_REJECTED_IDENTS,
    REJECTED_CANDIDATE,
    SOLUTION_18_IDENTS,
    both_directions,
    compatible_pairings,
    flipped,
    reference_compatibility_matrix,
    reference_complete_pairing,
    solution_cycles,
    trace_cycles,
)
from diskpack import search
from diskpack.domain import BoundarySlots, build_domain, find_pairing
from diskpack.geom import axis, dist
from diskpack.pipeline import filter_candidates, lc_pairings
from diskpack.tess import admissible_distances
from diskpack.search import (
    BLOCK_CELLS,
    InvalidCellStructure,
    PairingSolution,
    _vertex_cycles,
    bananas,
    candidates,
    compatibility_matrix,
    complete_pairing,
    complete_survivors,
    edge_coverage,
    verify_topology,
)


class TestBananas:
    def test_distances_below_minimum_omitted(self, n14):
        fam = bananas(n14.p1, n14.dset)
        t = n14.p1.cls.translation_length
        # glide: minimal displacement is the translation length
        assert all(d >= t - 1e-9 for d, _ in fam)
        assert 0.0 not in [d for d, _ in fam]

    def test_sampled_points_displaced_exactly(self, n14):
        fam = bananas(n14.p1, n14.dset)
        g = n14.p1.map
        checked = 0
        for d, curves in fam[:10]:
            for c in curves:
                for i in range(10):
                    z = c.point_at(0.6 * i)
                    if abs(z) < 0.995:
                        assert dist(z, g(z)) == pytest.approx(d, abs=1e-6)
                        checked += 1
        assert checked > 20

    def test_curves_share_axis_ideal_points(self, n14):
        A = axis(n14.p2.map)
        fam = bananas(n14.p2, n14.dset)
        _, curves = fam[0]
        for c in curves:
            for p in A.ideal_points():
                assert abs(c.side(p)) < 1e-9

    def test_offset_bound_prunes(self, n14):
        full = bananas(n14.p1, n14.dset)
        pruned = bananas(n14.p1, n14.dset, max_offset=1.0)
        assert len(pruned) < len(full)

    def test_max_families_builds_the_first_families_only(self, n14):
        for p in (n14.p1, n14.p2):
            every = bananas(p, n14.dset)
            assert len(every) > 8
            assert bananas(p, n14.dset, max_families=8) == every[:8]
            assert bananas(p, n14.dset, max_families=len(every) + 1) == every


class TestCandidates:
    def test_reference_points_present(self, n14):
        pts = [c.point for c in n14.C]
        for target in (0j, GOOD_CANDIDATE, REJECTED_CANDIDATE):
            best = min(pts, key=lambda z: abs(z - target))
            assert abs(best - target) < 1e-3

    def test_sorted_and_deduplicated(self, n14):
        pts = [c.point for c in n14.C]
        keys = [(z.real, z.imag) for z in pts]
        assert keys == sorted(keys)
        for i in range(len(pts) - 1):
            assert abs(pts[i] - pts[i + 1]) > 1e-6

    def test_all_inside_domain(self, n14):
        for c in n14.C[::37]:
            assert n14.F.contains(c.point)

    def test_seed_distances_recorded_and_admissible(self, n14):
        # the recorded displacements re-verify far inside the matching
        # tolerance contract
        for c in n14.C[::17]:
            d1, d2 = c.seed_distances
            assert n14.dset.is_admissible(d1) and n14.dset.is_admissible(d2)
            assert dist(c.point, n14.p1.map(c.point)) == pytest.approx(d1, abs=1e-9)
            assert dist(c.point, n14.p2.map(c.point)) == pytest.approx(d2, abs=1e-9)

    def test_same_seed_rejected(self, n14):
        with pytest.raises(ValueError):
            candidates(n14.p1, n14.p1, n14.dset, n14.F)


class TestCompatiblePairings:
    def test_rejected_candidate_matches_reference_list(self, n14):
        c2 = min(n14.C, key=lambda c: abs(c.point - REJECTED_CANDIDATE))
        Lc = compatible_pairings(c2, n14.L, n14.dset)
        assert {p.identification for p in Lc} == LC_REJECTED_IDENTS

    def test_origin_compatible_with_reference_solution(self, n14):
        origin = min(n14.C, key=lambda c: abs(c.point))
        Lc = compatible_pairings(origin, n14.L, n14.dset)
        idents = {p.identification for p in Lc}
        assert SOLUTION_18_IDENTS <= idents

    def test_matrix_agrees_with_scalar(self, n14):
        pts = [c.point for c in n14.C[:40]]
        m = compatibility_matrix(pts, n14.L, n14.dset)
        for i in (0, 7, 23):
            scalar = {p.record for p in compatible_pairings(pts[i], n14.L, n14.dset)}
            vector = {p.record for p, ok in zip(n14.L, m[i]) if ok}
            assert scalar == vector

    def test_closed_under_inversion(self, n14):
        # over the oracle's two-direction list a pairing and its inverse are
        # compatible together, so L loses nothing by listing one of them
        c2 = min(n14.C, key=lambda c: abs(c.point - REJECTED_CANDIDATE))
        Lc = compatible_pairings(c2, n14.L2, n14.dset)
        records = {p.record for p in Lc}
        assert len(records) == 2 * len(LC_REJECTED_IDENTS)
        for record in records:
            assert flipped(record) in records


class TestCompatibilityKernel:
    """The blocked kernel against the per-pairing loop, cell for cell."""

    # depth-3 seed pairs (0-based records) with about 26, 690 and 1380
    # candidates; the first two give rows where every pairing is admissible
    DEPTH3_SEED_PAIRS = [
        ((False, 2, 9, 2, 13), (True, 2, 11, 2, 12)),
        ((False, 0, 3, 2, 8), (True, 1, 6, 2, 8)),
        ((False, 0, 4, 0, 12), (True, 1, 8, 2, 6)),
    ]

    def test_all_depth5_candidates(self, n14):
        pts = [c.point for c in n14.C]
        # 816 x 1170 cells: about 58 blocks
        assert len(pts) == 816 and len(pts) * len(n14.L) > 50 * BLOCK_CELLS
        m = compatibility_matrix(pts, n14.L, n14.dset)
        assert m.shape == (816, len(n14.L)) and m.flags.c_contiguous
        assert np.array_equal(m, reference_compatibility_matrix(pts, n14.L, n14.dset))

    @pytest.mark.parametrize("pair", range(3))
    def test_depth3_seed_pairs(self, n14, pair):
        dset = admissible_distances(14, 3)
        p1, p2 = (find_pairing(n14.L, *rec) for rec in self.DEPTH3_SEED_PAIRS[pair])
        pts = [c.point for c in candidates(p1, p2, dset, n14.F)]
        assert len(pts) == (26, 688, 1378)[pair]
        m = compatibility_matrix(pts, n14.L, dset)
        assert np.array_equal(m, reference_compatibility_matrix(pts, n14.L, dset))
        if pair < 2:
            assert m.all(axis=1).any()

    def test_no_points(self, n14):
        m = compatibility_matrix([], n14.L, n14.dset)
        assert m.shape == (0, len(n14.L)) and m.dtype == bool
        assert np.array_equal(m, reference_compatibility_matrix([], n14.L, n14.dset))

    def test_sublist_with_unpartnered_pairings(self, n14):
        # every third entry of the two-direction list, then a duplicate: most
        # inverses are missing, and every cell is still its own pairing's
        sub = n14.L2[::3] + [n14.L2[7]]
        records = {p.record for p in sub}
        lone = [p for p in sub if flipped(p.record) not in records]
        assert len(lone) > len(sub) // 2
        pts = [c.point for c in n14.C[::5]]
        m = compatibility_matrix(pts, sub, n14.dset)
        assert np.array_equal(m, reference_compatibility_matrix(pts, sub, n14.dset))

    def test_inverse_entries_are_inverse_maps(self, n14):
        # the identity that lets L drop an identification's other direction:
        # the dropped entry is the inverse map, to rounding, and at every
        # depth-5 candidate it has the same column as the kept one
        by_record = {p.record: p for p in n14.L2}
        inverses = [by_record[flipped(p.record)] for p in n14.L]
        for p, q in zip(n14.L, inverses):
            assert q.reversing == p.reversing
            scale = abs(p.map.a) + abs(p.map.b)
            assert q.map.matrix_dist(p.map.inverse()) < 1e-11 * scale
        pts = [c.point for c in n14.C]
        m = compatibility_matrix(pts, n14.L, n14.dset)
        assert np.array_equal(m, compatibility_matrix(pts, inverses, n14.dset))


@pytest.fixture(scope="module")
def n14_filtered(n14):
    """filter_candidates' items for every depth-3 and depth-5 candidate."""
    dset3 = admissible_distances(14, 3)
    C3 = candidates(n14.p1, n14.p2, dset3, n14.F)
    return {
        3: filter_candidates(None, n14.F, n14.L, dset3, C3),
        5: filter_candidates(None, n14.F, n14.L, n14.dset, n14.C),
    }


class TestEdgeCoverage:
    @pytest.mark.parametrize("depth", [3, 5])
    def test_filtering_coverage_matches_edge_coverage(self, n14, n14_filtered, depth):
        items = n14_filtered[depth]
        assert len(items) == {3: 379, 5: 816}[depth]
        dset = n14.dset if depth == 5 else admissible_distances(14, 3)
        points = [it["candidate"].point for it in items]
        # every candidate's L_c, built here from its compatibility-matrix row
        for it, row in zip(items, compatibility_matrix(points, n14.L, dset)):
            cols = np.flatnonzero(row)
            assert it["Lc"].tolist() == cols.tolist()
            cov = edge_coverage([n14.L[j] for j in cols], n14.F)
            uncovered = sorted(key for key, touching in cov.items() if not touching)
            assert it["uncovered"] == uncovered
            assert it["covered"] is (not uncovered)
        assert any(it["covered"] for it in items)
        assert any(not it["covered"] for it in items)

    def test_rejected_candidate_misses_edge_3(self, n14):
        c2 = min(n14.C, key=lambda c: abs(c.point - REJECTED_CANDIDATE))
        cov = edge_coverage(compatible_pairings(c2, n14.L, n14.dset), n14.F)
        assert cov[(0, 3)] == []
        assert not all(cov.values())

    def test_good_candidate_fully_covered(self, n14):
        c1 = min(n14.C, key=lambda c: abs(c.point - GOOD_CANDIDATE))
        cov = edge_coverage(compatible_pairings(c1, n14.L, n14.dset), n14.F)
        assert all(cov.values())
        assert len(cov[(0, 3)]) >= 6

    def test_whole_list_covers_everything(self):
        F = build_domain(7, [])
        from diskpack.domain import enumerate_pairings

        L = enumerate_pairings(F)
        assert all(edge_coverage(L, F).values())


class TestCompletePairing:
    def test_singleton_cover_returned_verbatim(self, n14, n14_solution):
        ref = n14_solution.reference
        # given once, or in both directions: one solution, ref's own entries
        for Lc in (list(ref.pairings), both_directions(ref.pairings, n14.L2)):
            sols = complete_pairing(Lc, n14.F, limit=8)
            assert len(sols) == 1 and sols[0] == ref

    def test_reference_solution_found(self, n14_solution):
        idents = [s.identifications for s in n14_solution.solutions]
        assert SOLUTION_18_IDENTS in idents

    def test_missing_edge_gives_no_solution(self, n14, n14_solution):
        pruned = [p for p in n14_solution.Lc if (0, 3) not in (p.src.key, p.dst.key)]
        assert complete_pairing(pruned, n14.F, limit=4) == []

    def test_order_independence(self, n14, n14_solution):
        shuffled = list(n14_solution.Lc)
        random.Random(7).shuffle(shuffled)
        sols_a = complete_pairing(n14_solution.Lc, n14.F, limit=100000)
        sols_b = complete_pairing(shuffled, n14.F, limit=100000)
        assert {s.identifications for s in sols_a} == {
            s.identifications for s in sols_b
        }
        assert len(sols_a) == len(sols_b) == 165

    def test_angle_tol_is_applied(self, n14, n14_solution):
        # the N = 14 cycles close at exactly 2 pi in floating point, so only a
        # negative tolerance shows that the argument reaches the closure test
        assert complete_pairing(n14_solution.Lc, n14.F, angle_tol=-1.0) == []

    def test_limit_caps_output(self, n14, n14_solution):
        sols = complete_pairing(n14_solution.Lc, n14.F, limit=5)
        assert len(sols) == 5

    def test_vertex_cycles_close_at_two_pi(self, n14_solution):
        for sol in n14_solution.solutions[:10]:
            for _, total in sol.vertex_cycles:
                assert total == pytest.approx(2 * math.pi, abs=1e-6)


class TestCycleMachinery:
    def test_torus_mock(self):
        # square with opposite sides glued: its four quarter-turn corners are
        # one vertex, a mirror pair of slot cycles (slot 2 v walks forward,
        # 2 v + 1 back); V - E + F = 1 - 2 + 1 = 0
        succ = [-1] * 8
        for v in range(4):
            succ[2 * v] = 2 * ((v + 1) % 4)
            succ[2 * v + 1] = 2 * ((v - 1) % 4) + 1
        slots = SimpleNamespace(
            slot_vertex=[s // 2 for s in range(8)],
            slot_angle=[math.pi / 2] * 8,
            points=[complex(v) for v in range(4)],
        )
        cycles = _vertex_cycles(slots, succ, 1e-9)
        assert cycles == ((tuple(complex(v) for v in range(4)), 2 * math.pi),)
        vertices, edges, faces = 1, 2, 1
        assert vertices - edges + faces == 0

    def test_non_permutation_detected(self, n14, n14_solution):
        with pytest.raises(InvalidCellStructure):
            trace_cycles([1, 0, 1], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidCellStructure):
            trace_cycles([1, -1], [1.0, 1.0])  # slot 1 has no successor
        slots = n14.F.slot_table
        succ = self._reference_succ(slots, n14_solution.reference.pairings)
        # two slots followed by the same one, and a slot with no successor
        merged = list(succ)
        merged[0] = succ[1]
        open_end = list(succ)
        open_end[5] = -1
        for bad in (merged, open_end):
            with pytest.raises(InvalidCellStructure, match="permutation"):
                _vertex_cycles(slots, bad, 10.0)

    def test_solution_cycles_pair_up(self, n14, n14_solution):
        struct = n14.F.slot_table
        cycles = solution_cycles(n14_solution.reference.pairings, struct)
        assert len(cycles) == 13  # quotient boundary vertices
        for verts, total in cycles:
            assert total == pytest.approx(2 * math.pi, abs=1e-9)

    def test_global_angle_bookkeeping(self, n14, n14_solution):
        # the cycle angle sums together account for every boundary vertex's
        # interior angle exactly once
        struct = n14.F.slot_table
        cycles = solution_cycles(n14_solution.reference.pairings, struct)
        total = sum(t for _, t in cycles)
        boundary_angle = sum(
            struct.angles[v]
            for v in range(len(struct.points))
            if v not in struct.interior
        )
        assert total == pytest.approx(boundary_angle, abs=1e-5)


    @staticmethod
    def _reference_succ(struct, pairings):
        succ = [-1] * len(struct.slots)
        for p in pairings:
            for u, w in struct.links_for(p):
                succ[u] = w
        return succ

    def test_vertex_cycles_match_reference(self, n14, n14_solution):
        struct = n14.F.slot_table
        succ = self._reference_succ(struct, n14_solution.reference.pairings)
        cycles = _vertex_cycles(struct, succ, 1e-6)
        expected = solution_cycles(n14_solution.reference.pairings, struct)
        assert cycles == tuple(
            (tuple(struct.points[v] for v in verts), total) for verts, total in expected
        )
        assert cycles == n14_solution.reference.vertex_cycles

    def test_vertex_cycles_match_oracle_on_every_depth5_solution(self, n14, n14_survivors):
        # the oracle re-traces each solution's links with its own slot table;
        # every angle sum must have the same bits
        slots, fresh = n14.F.slot_table, BoundarySlots(n14.F)
        completed, _ = complete_survivors(n14_survivors, n14.F, limit=256)
        sols = [sol for sols in completed for sol in sols]
        assert len(sols) == 495
        for sol in sols:
            cycles = _vertex_cycles(slots, self._reference_succ(fresh, sol.pairings), 1e-6)
            expected = solution_cycles(sol.pairings, fresh)
            assert [verts for verts, _ in cycles] == [
                tuple(fresh.points[v] for v in verts) for verts, _ in expected
            ]
            bits = [total.hex() for _, total in cycles]
            assert bits == [total.hex() for _, total in expected]
            assert bits == [total.hex() for _, total in sol.vertex_cycles]

    def test_vertex_cycle_sums_keep_the_cycle_order(self):
        # angles of mixed magnitudes, whose sums round differently in another
        # order: three vertex cycles of three vertices each, slot 2 v walking
        # forward and slot 2 v + 1 back; every total equals the oracle's sum
        # over its slot cycle from the smallest slot, bit for bit
        rng = random.Random(3)
        angles = [rng.uniform(0.1, 1.0) * 10.0 ** rng.randint(-9, 0) for _ in range(9)]
        order = rng.sample(range(9), 9)
        succ = [-1] * 18
        for c in (0, 3, 6):
            vs = order[c : c + 3]
            for i, v in enumerate(vs):
                succ[2 * v] = 2 * vs[(i + 1) % 3]
                succ[2 * v + 1] = 2 * vs[i - 1] + 1
        slots = SimpleNamespace(
            slot_vertex=[s // 2 for s in range(18)],
            slot_angle=[angles[s // 2] for s in range(18)],
            points=[complex(v) for v in range(9)],
        )
        cycles = _vertex_cycles(slots, succ, 10.0)
        sums = {
            tuple(s // 2 for s in cyc): total for cyc, total in trace_cycles(succ, slots.slot_angle)
        }
        assert len(cycles) == 3
        for points, total in cycles:
            assert total.hex() == sums[tuple(int(z.real) for z in points)].hex()

    def test_unclosed_cycle_rejected(self, n14, n14_solution):
        struct = n14.F.slot_table
        succ = self._reference_succ(struct, n14_solution.reference.pairings)
        with pytest.raises(InvalidCellStructure):
            _vertex_cycles(struct, succ, -1.0)

    def test_unpaired_slot_cycles_rejected(self, n14):
        # both slots of one vertex in a single cycle, every other slot fixed:
        # that vertex's slot cycle has no mirror partner
        struct = n14.F.slot_table
        succ = list(range(len(struct.slots)))
        v = struct.slots[0][1]
        a, b = (s for s, (_, w) in enumerate(struct.slots) if w == v)
        succ[a], succ[b] = b, a
        with pytest.raises(InvalidCellStructure, match="pair up"):
            _vertex_cycles(struct, succ, 10.0)


@pytest.fixture(scope="module")
def n14_survivors(n14):
    """L_c of every covered, non-center N = 14 candidate (depth 5)."""
    items = filter_candidates(None, n14.F, n14.L, n14.dset, n14.C)
    return [lc_pairings(it, n14.L) for it in items if it["covered"] and not it["is_center"]]


def _summary(sols):
    """Per solution, in order: identification set, vertex cycles (compared
    bit for bit) and reversing count."""
    return [(s.identifications, s.vertex_cycles, s.reversing_count) for s in sols]


class TestCompletionOracle:
    """The exact-cover engine against the copy-per-node backtracker it
    replaced, fed the two-direction L_c that backtracker was written for:
    the same solutions in the same order, every float equal."""

    def test_three_survivors(self, n14_survivors):
        assert len(n14_survivors) == 3

    @pytest.mark.parametrize("limit", [1, 5, 256])
    def test_survivors_match_reference(self, n14, n14_survivors, limit):
        for Lc in n14_survivors:
            got = complete_pairing(Lc, n14.F, limit=limit)
            ref = reference_complete_pairing(
                both_directions(Lc, n14.L2), n14.F, limit=limit
            )
            assert _summary(got) == _summary(ref)
            assert len(got) == min(limit, 165)
            assert all(p in Lc for s in got for p in s.pairings)

    def test_both_directions_give_each_solution_once(self, n14, n14_survivors):
        Lc = n14_survivors[2]
        got = complete_pairing(both_directions(Lc, n14.L2), n14.F, limit=256)
        assert _summary(got) == _summary(complete_pairing(Lc, n14.F, limit=256))

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_and_pruned_match_reference(self, n14, n14_survivors, seed):
        rng = random.Random(seed)
        Lc = list(n14_survivors[seed % 3])
        rng.shuffle(Lc)
        # the oracle's first solution is never thinned out, so every case
        # compares solutions and not only two exhausted searches
        first = reference_complete_pairing(both_directions(Lc, n14.L2), n14.F, limit=1)
        kept = first[0].identifications
        # an identification survives with the odds it had when each of its
        # two directions was kept on its own (0.5 and 0.9 each): 1 - (1 - q)^2
        if seed % 2:
            # thin out the pairings at six random edges
            keys = sorted({key for p in Lc for key in (p.src.key, p.dst.key)})
            cut = set(rng.sample(keys, 6))
            Lc = [
                p
                for p in Lc
                if p.identification in kept
                or not (p.src.key in cut or p.dst.key in cut)
                or rng.random() < 0.75
            ]
        else:
            Lc = [p for p in Lc if p.identification in kept or rng.random() < 0.99]
        kwargs = {"limit": rng.choice([3, 40]), "require_reversing": seed % 3 != 0}
        got = complete_pairing(Lc, n14.F, **kwargs)
        ref = reference_complete_pairing(both_directions(Lc, n14.L2), n14.F, **kwargs)
        assert got
        assert _summary(got) == _summary(ref)

    def test_pruned_edge_matches_reference(self, n14, n14_survivors):
        Lc = [p for p in n14_survivors[0] if (0, 3) not in (p.src.key, p.dst.key)]
        assert complete_pairing(Lc, n14.F, limit=4) == []
        assert reference_complete_pairing(both_directions(Lc, n14.L2), n14.F, limit=4) == []


def _carries(F, Lcs, target):
    """(source index, symmetry) for every symmetry of F mapping an L_c of
    Lcs onto Lcs[target] as identification sets."""
    want = {p.identification for p in Lcs[target]}
    return [
        (i, sym)
        for i, Lc in enumerate(Lcs)
        for sym in F.symmetries
        if {sym.identification(p.identification) for p in Lc} == want
    ]


class TestOrbitCarry:
    """Solutions carried along a symmetry of F are replayed by the engine
    under ``within``: against the engine's full search, the same pairings in
    the same order, reversing counts, and vertex cycles bit for bit."""

    @pytest.mark.parametrize("depth", [3, 5])
    def test_carried_solutions_equal_the_engine(self, n14, n14_filtered, depth):
        Lcs = [
            lc_pairings(it, n14.L)
            for it in n14_filtered[depth]
            if it["covered"] and not it["is_center"]
        ]
        assert len(Lcs) == 3
        engine = [complete_pairing(Lc, n14.F, limit=256) for Lc in Lcs]
        assert [len(sols) for sols in engine] == [{3: 30, 5: 165}[depth]] * 3
        for target, want in enumerate(engine):
            carries = _carries(n14.F, Lcs, target)
            # one orbit: every survivor, itself included, reaches each one
            assert {i for i, _ in carries} == {0, 1, 2}
            for i, sym in carries:
                images = [
                    frozenset(map(sym.identification, s.identifications)) for s in engine[i]
                ]
                got = complete_pairing(Lcs[target], n14.F, limit=256, within=images)
                assert [s.pairings for s in got] == [s.pairings for s in want]
                assert _summary(got) == _summary(want)

    @staticmethod
    def _survivor3(n14, n14_filtered):
        return next(
            lc_pairings(it, n14.L)
            for it in n14_filtered[3]
            if it["covered"] and not it["is_center"]
        )

    def test_a_target_that_is_no_solution_is_not_emitted(self, n14, n14_filtered):
        Lc = self._survivor3(n14, n14_filtered)
        want = complete_pairing(Lc, n14.F, limit=256)
        first = want[0].identifications
        dropped = first - {min(first)}
        idents = {p.identification for p in Lc}
        outside = next(p.identification for p in n14.L if p.identification not in idents)
        spare = next(i for i in sorted(idents) if i not in first)
        # one short, one too many (from L_c or from outside it), one swapped
        # out for one outside L_c or for one of L_c
        bad = [
            dropped,
            first | {spare},
            first | {outside},
            dropped | {outside},
            dropped | {spare},
        ]
        assert complete_pairing(Lc, n14.F, limit=256, within=bad) == []
        targets = bad + [s.identifications for s in want]
        got = complete_pairing(Lc, n14.F, limit=256, within=targets)
        assert _summary(got) == _summary(want)
        assert complete_pairing(Lc, n14.F, limit=256, within=[]) == []

    def test_a_shuffled_within_comes_back_in_engine_order(self, n14, n14_filtered):
        Lc = self._survivor3(n14, n14_filtered)
        want = complete_pairing(Lc, n14.F, limit=256)
        targets = [s.identifications for s in want]
        random.Random(5).shuffle(targets)
        assert targets != [s.identifications for s in want]
        got = complete_pairing(Lc, n14.F, limit=256, within=targets)
        assert _summary(got) == _summary(want)
        # a part of them: that part alone, still in engine order
        part = set(targets[::3])
        got = complete_pairing(Lc, n14.F, limit=256, within=targets[::3])
        assert _summary(got) == _summary([s for s in want if s.identifications in part])

    def test_limit_and_require_reversing_apply_under_within(self, n14, n14_filtered):
        Lc = self._survivor3(n14, n14_filtered)
        every = complete_pairing(Lc, n14.F, limit=256, require_reversing=False)
        targets = [s.identifications for s in every]
        # 40 solutions, 10 of them without a reversing pairing
        assert len(every) == 40 and sum(s.reversing_count == 0 for s in every) == 10
        got = complete_pairing(Lc, n14.F, limit=256, within=targets)
        assert _summary(got) == _summary(complete_pairing(Lc, n14.F, limit=256))
        assert len(got) == 30
        loose = complete_pairing(
            Lc, n14.F, limit=256, require_reversing=False, within=targets
        )
        assert _summary(loose) == _summary(every)
        for limit in (0, 1, 7):
            cut = complete_pairing(Lc, n14.F, limit=limit, within=targets)
            assert _summary(cut) == _summary(complete_pairing(Lc, n14.F, limit=limit))
            assert len(cut) == limit

    @staticmethod
    def _counted(monkeypatch):
        """Full searches run: calls to the engine without ``within``."""
        calls = []
        engine = search.complete_pairing

        def counting(Lc, *args, **kwargs):
            if kwargs.get("within") is None:
                calls.append(len(Lc))
            return engine(Lc, *args, **kwargs)

        monkeypatch.setattr(search, "complete_pairing", counting)
        return calls

    def _check(self, n14, Lcs, limit, searches, monkeypatch):
        calls = self._counted(monkeypatch)
        got, n = complete_survivors(Lcs, n14.F, limit=limit)
        assert n == len(calls) == searches
        monkeypatch.undo()
        want = [complete_pairing(Lc, n14.F, limit=limit) for Lc in Lcs]
        assert [_summary(s) for s in got] == [_summary(s) for s in want]

    def test_one_search_for_the_orbit(self, n14, n14_survivors, monkeypatch):
        self._check(n14, n14_survivors, 256, 1, monkeypatch)

    @pytest.mark.parametrize("limit", [1, 165])
    def test_a_search_cut_by_the_limit_is_not_carried(
        self, n14, n14_survivors, limit, monkeypatch
    ):
        # 165 solutions in all: a search that stops at the limit may have
        # missed some, so each mate runs the engine
        self._check(n14, n14_survivors, limit, 3, monkeypatch)

    def test_limit_above_the_count_carries(self, n14, n14_survivors, monkeypatch):
        self._check(n14, n14_survivors, 166, 1, monkeypatch)

    def test_slot_table_built_once(self, n14, n14_survivors, monkeypatch):
        # one search and two replays share F's slot table and its links
        builds = []
        init = BoundarySlots.__init__

        def counting(self, F):
            builds.append(F)
            init(self, F)

        monkeypatch.delitem(vars(n14.F), "slot_table", raising=False)
        monkeypatch.setattr(BoundarySlots, "__init__", counting)
        got, searches = complete_survivors(n14_survivors, n14.F, limit=256)
        assert searches == 1 and [len(s) for s in got] == [165, 165, 165]
        assert builds == [n14.F]
        complete_survivors(n14_survivors, n14.F, limit=256)
        assert builds == [n14.F]

    def test_a_mate_that_lost_an_identification_is_searched(
        self, n14, n14_survivors, monkeypatch
    ):
        # the identification dropped is in no solution's way: the mate keeps
        # solutions, but its L_c is no image of the first survivor's
        sols = complete_pairing(n14_survivors[2], n14.F, limit=256)
        used = set().union(*(s.identifications for s in sols))
        spare = next(p for p in n14_survivors[2] if p.identification not in used)
        Lcs = [*n14_survivors[:2], [p for p in n14_survivors[2] if p is not spare]]
        self._check(n14, Lcs, 256, 2, monkeypatch)


class TestVerifyTopology:
    def test_reference_solution_counts(self, n14, n14_solution):
        topo = verify_topology(n14_solution.reference, n14.F)
        assert topo == {
            "faces": 3,
            "edges": 21,
            "vertices": 14,
            "euler_characteristic": -4,
            "orientable": False,
            "genus": 6,
        }

    def test_euler_relation_nk(self, n14, n14_solution):
        # N k = 6 (k - chi) holds exactly for accepted solutions
        topo = verify_topology(n14_solution.reference, n14.F)
        chi = topo["euler_characteristic"]
        assert n14.F.n * n14.F.k == 6 * (n14.F.k - chi)

    def test_orientable_branch(self, n14, n14_solution):
        mock = PairingSolution(
            n14_solution.reference.pairings, n14_solution.reference.vertex_cycles, 0
        )
        topo = verify_topology(mock, n14.F)
        assert topo["orientable"] is True
        assert topo["genus"] == 3  # chi = -4 = 2 - 2g

    def test_bad_angle_rejected(self, n14, n14_solution):
        verts, _ = n14_solution.reference.vertex_cycles[0]
        broken = ((verts, 2 * math.pi + 1e-3),) + n14_solution.reference.vertex_cycles[1:]
        mock = PairingSolution(n14_solution.reference.pairings, broken, 4)
        with pytest.raises(InvalidCellStructure):
            verify_topology(mock, n14.F)
        with pytest.raises(InvalidCellStructure):
            verify_topology(n14_solution.reference, n14.F, angle_tol=-1.0)
