import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_point
from reference_data import (
    GOOD_CANDIDATE,
    LC_REJECTED_IDENTS,
    REJECTED_CANDIDATE,
    SOLUTION_18_IDENTS,
    axis_translation,
    both_directions,
    compatible_pairings,
    flipped,
    is_admissible,
    point_at,
    reference_candidates,
    reference_compatibility_matrix,
    reference_complete_pairing,
    reference_displacement,
    reference_enumerate_pairings,
    reference_families,
    reference_links,
    solution_cycles,
    trace_cycles,
)
from diskpack import search
from diskpack.config import PipelineConfig, genus_for
from diskpack.domain import (
    Attachment,
    BoundarySlots,
    build_domain,
    enumerate_pairings,
    find_pairing,
)
from diskpack.geom import CoincidentCurves, Isometry, axis, dist
from diskpack.pipeline import filter_candidates, lc_pairings
from diskpack.render import BANANA_FAMILIES
from diskpack.tess import SCREEN_BITS, DistanceSet, admissible_distances, sinh2_half
from diskpack.search import (
    BLOCK_CELLS,
    InvalidCellStructure,
    SCREEN_MIN_GAP,
    _numerator_coefficients,
    _screen_monomials,
    _vertex_cycles,
    bananas,
    candidates,
    compatibility_matrix,
    complete_pairing,
    complete_survivors,
    edge_coverage,
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
                    z = point_at(c, 0.6 * i)
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

    @pytest.mark.parametrize("depth", [3, 5])
    def test_families_equal_the_reference_loop(self, n14, depth):
        # the bisected run of distances is the one the loop over every
        # distance keeps, under the offset bound candidates applies and
        # under the cap the bananas figure applies
        dset = n14.dset if depth == 5 else admissible_distances(14, depth)
        for p in n14.L:
            bound = search._domain_offset_bound(n14.F, axis(p.map))
            got = search._families(p, dset, bound)
            assert got and got == reference_families(p, dset, bound)
            capped = search._families(p, dset, max_families=BANANA_FAMILIES)
            assert len(capped) == BANANA_FAMILIES
            assert capped == reference_families(p, dset, max_families=BANANA_FAMILIES)

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
            assert is_admissible(n14.dset, d1) and is_admissible(n14.dset, d2)
            assert dist(c.point, n14.p1.map(c.point)) == pytest.approx(d1, abs=1e-9)
            assert dist(c.point, n14.p2.map(c.point)) == pytest.approx(d2, abs=1e-9)

    def test_same_seed_rejected(self, n14):
        with pytest.raises(ValueError):
            candidates(n14.p1, n14.p1, n14.dset, n14.F)

    def test_p1s_curves_follow_p1_dset_and_domain(self, n14):
        # one p1 against two p2 on the central tile alone, then on the whole
        # domain, then with more distances, then with another p1, each after
        # the other: every call gives what the reference generator gives
        # from scratch; curves kept from a smaller domain or distance set
        # would miss points
        dset3 = admissible_distances(14, 3)
        tile = build_domain(14, [], frame=Isometry.rotation(-math.pi / 2))
        q1, q2, q3 = n14.L[5], n14.L[40], n14.L[300]
        calls = [(q1, q2, dset3, tile), (q1, q3, dset3, tile), (q1, q2, dset3, n14.F),
                 (q1, q2, n14.dset, n14.F), (q3, q2, n14.dset, n14.F)]
        sizes = []
        for p1, p2, dset, F in calls:
            got = candidates(p1, p2, dset, F)
            assert got == reference_candidates(p1, p2, dset, F)
            sizes.append(len(got))
        assert search._p1_curves[:3] == (q3, n14.dset, n14.F)
        assert sizes[0] < sizes[2] < sizes[3]

    # two pairings whose axes coincide: every banana of one is a banana of
    # the other
    SHARED_AXIS = ((False, 0, 2, 0, 6), (False, 0, 7, 2, 13))

    @pytest.mark.parametrize("pair", [0, 1, 2, 3, "sample", "n12", "n30"])
    def test_equal_to_the_reference_generator(self, n14, pair):
        # the same points, seed distances, order and Python types as the
        # generator with an object per curve, scalar line intersections and
        # the edge-by-edge inside test on every point, or the same exception
        F = n14.F
        if pair == "sample":
            dset = admissible_distances(14, 3)
            rng = random.Random(13)
            pairs = [tuple(rng.sample(n14.L, 2)) for _ in range(40)]
            pairs += [(n14.L[0], n14.L[0])]
            pairs += [tuple(find_pairing(n14.L, *rec) for rec in self.SHARED_AXIS)]
        elif pair in ("n12", "n30"):
            n = int(pair[1:])
            F = build_domain(n, [])
            L = enumerate_pairings(F)
            dset = admissible_distances(n, 3)
            pairs = [tuple(random.Random(n).sample(L, 2))]
        elif pair == 3:
            dset = n14.dset
            pairs = [(n14.p1, n14.p2)]
        else:
            dset = admissible_distances(14, 3)
            recs = TestCompatibilityKernel.DEPTH3_SEED_PAIRS[pair]
            pairs = [tuple(find_pairing(n14.L, *rec) for rec in recs)]
        outcomes = []
        for p1, p2 in pairs:
            got, want = (_outcome(f, p1, p2, dset, F) for f in (candidates, reference_candidates))
            assert got == want
            outcomes.append(got)
            if isinstance(got, list):
                for c in got:
                    assert type(c.point) is complex
                    assert [type(d) for d in c.seed_distances] == [float, float]
        sizes = [len(o) if isinstance(o, list) else o for o in outcomes]
        if pair == "sample":
            assert sizes[-2:] == [ValueError, CoincidentCurves]
            assert min(sizes[:-2]) > 200
        elif pair in ("n12", "n30"):
            assert sizes[0] > 0
        else:
            assert sizes == [(26, 688, 1378, 816)[pair]]


def _outcome(generator, p1, p2, dset, F):
    """The generator's candidates, or the type of the exception it raises."""
    try:
        return generator(p1, p2, dset, F)
    except (CoincidentCurves, ValueError) as exc:
        return type(exc)


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

    def test_more_points_than_a_block(self, n14, rng):
        # a block then holds part of one column: the cells it keeps count on
        # from the column's start plus the block's first row
        pts = [random_point(rng, 0.95) for _ in range(BLOCK_CELLS + 700)]
        sub = n14.L[::40]
        dset = admissible_distances(14, 3)
        m = compatibility_matrix(pts, sub, dset)
        want = reference_compatibility_matrix(pts, sub, dset)
        assert np.array_equal(m, want)
        assert want[BLOCK_CELLS:].any() and want[:BLOCK_CELLS].any()

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

    def test_table_built_once_per_distance_set(self, n14, monkeypatch):
        dset = admissible_distances(14, 3)
        built = []
        init = search.AdmissibilityTable.__init__

        def counting(table, d):
            built.append(d)
            init(table, d)

        monkeypatch.setattr(search.AdmissibilityTable, "__init__", counting)
        pts = [c.point for c in n14.C[:60]]
        first = compatibility_matrix(pts, n14.L, dset)
        second = compatibility_matrix(pts, n14.L, dset)
        assert built == [dset]
        assert np.array_equal(first, second)
        assert np.array_equal(first, reference_compatibility_matrix(pts, n14.L, dset))

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


class TestCompatibilityScreen:
    """The screened kernel against the per-pairing loop where the screen
    could go wrong: at the interval ends, at other tolerances, near and
    beyond the unit circle, and in the bottom bin."""

    @staticmethod
    def _straddling_cells(L, dset, rng, pairings=40):
        """Cells (point, index into L) in pairs, one on either side of an
        interval end v -+ tol, by the per-pairing formula's displacement."""
        cells = []
        vals = np.array(dset.values)
        ends = np.concatenate([vals - dset.match_tol, vals + dset.match_tol])
        for j in rng.sample(range(len(L)), pairings):
            za, zb = random_point(rng, 0.95), random_point(rng, 0.95)
            da, db = reference_displacement(np.array([za, zb]), L[j])
            inside = ends[(ends > min(da, db)) & (ends < max(da, db))]
            for e in rng.sample(sorted(inside), min(2, len(inside))):
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    z = za + mid * (zb - za)
                    if (reference_displacement(np.array([z]), L[j])[0] <= e) == (da <= e):
                        lo = mid
                    else:
                        hi = mid
                cells += [(za + lo * (zb - za), j), (za + hi * (zb - za), j)]
        return cells

    @pytest.mark.parametrize("depth", [3, 5])
    @pytest.mark.parametrize("tol", [1e-4, 0.3, 1e-9])
    def test_random_and_straddling_points(self, n14, rng, depth, tol):
        # 0.3 merges neighbouring intervals; at 1e-9 the interval around
        # v = 0 reaches far down the table
        dset = n14.dset if depth == 5 else admissible_distances(14, 3)
        dset = dataclasses.replace(dset, match_tol=tol)
        cells = self._straddling_cells(n14.L, dset, rng)
        pts = [random_point(rng, 0.95) for _ in range(200)] + [z for z, _ in cells]
        m = compatibility_matrix(pts, n14.L, dset)
        want = reference_compatibility_matrix(pts, n14.L, dset)
        assert np.array_equal(m, want)
        # the straddling cells lie at the interval ends, on both sides of the rule
        vals = np.array(dset.values)
        ends = np.concatenate([vals - tol, vals + tol])
        for z, j in cells:
            d = reference_displacement(np.array([z]), n14.L[j])[0]
            assert np.abs(ends - d).min() < 1e-9
        hits = [want[200 + i, j] for i, (_, j) in enumerate(cells)]
        assert len(cells) > 40 and any(hits) and not all(hits)

    @pytest.mark.parametrize("depth", [3, 5])
    def test_points_on_and_beyond_the_circle(self, n14, depth):
        dset = n14.dset if depth == 5 else admissible_distances(14, 3)
        on = [1.0, 1j, -1.0, 0.6 + 0.8j, -0.28 - 0.96j, complex(math.cos(2.0), math.sin(2.0))]
        bad = [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.inf, 0.0)]
        beyond = [1.5, -2.0 + 0.5j, 3e5j, 1.0 / (0.516 + 0.248j)]
        pts = on + bad + beyond + [0.516 - 0.248j]
        m = compatibility_matrix(pts, n14.L, dset)
        with np.errstate(all="ignore"):
            want = reference_compatibility_matrix(pts, n14.L, dset)
        assert np.array_equal(m, want)
        assert not m[: len(on) + len(bad)].any()
        assert m[len(on) + len(bad) :].any(axis=1).all()

    @pytest.mark.parametrize("gap", [1e-5, 1e-7])
    def test_points_near_the_circle_skip_the_screen(self, n14, gap):
        # every finite displacement of the first point is an admissible
        # value; there the screen's u^2 misses the exact d's by far more
        # than a relative half bin, so these rows must go to the exact rule
        assert gap < SCREEN_MIN_GAP
        pts = np.sqrt(1.0 - gap) * np.exp(1j * np.array([0.3, 1.1, 2.5]))
        with np.errstate(all="ignore"):
            d = np.stack([reference_displacement(pts, p) for p in n14.L], axis=1)
        first = d[0][np.isfinite(d[0])]
        dset = DistanceSet(tuple(sorted({0.0, *first.tolist()})), 3, match_tol=1e-12)
        m = compatibility_matrix(list(pts), n14.L, dset)
        with np.errstate(all="ignore"):
            want = reference_compatibility_matrix(pts, n14.L, dset)
        assert np.array_equal(m, want)
        assert want[0].sum() == len(first) > 100

    def test_displacements_below_the_first_bin(self, n14):
        # the identity fixes every point (u^2 = 0) and a short translation
        # moves the origin by 1e-7: both are admissible by v = 0, and their
        # u^2 lies in the bottom bin, below every interval end but v = 0's
        near = [
            dataclasses.replace(n14.L[0], map=Isometry.identity()),
            dataclasses.replace(n14.L[1], map=axis_translation(1e-7)),
            dataclasses.replace(n14.L[2], map=Isometry(1.0, 0.0, True)),
        ]
        pts = [0j, 0.5, -0.25, 0.3 + 0.1j]
        m = compatibility_matrix(pts, near + n14.L[:20], n14.dset)
        assert np.array_equal(m, reference_compatibility_matrix(pts, near + n14.L[:20], n14.dset))
        assert m[:, 0].all() and m[0, 1] and m[:3, 2].all()

    def test_screen_error_over_every_depth5_cell(self, n14):
        # the screen's u^2 against the exact formula's d: they part by a
        # relative 2.9e-11 here, against the half bin 2^-(SCREEN_BITS + 1)
        # the screen allows
        zs = np.array([c.point for c in n14.C])
        n = len(n14.L)
        a = np.array([p.map.a for p in n14.L])
        b = np.array([p.map.b for p in n14.L])
        coef = _numerator_coefficients(a, b, np.array([p.reversing for p in n14.L]))
        mono, near_circle = _screen_monomials(zs)
        assert not near_circle.any()
        u2 = (coef[:n] @ mono) ** 2 + (coef[n:] @ mono) ** 2
        exact = sinh2_half(np.stack([reference_displacement(zs, p) for p in n14.L]))
        assert exact.min() > 0.0
        assert (np.abs(u2 - exact) / exact).max() < 1e-9 < 2.0**-(SCREEN_BITS + 1)

    @pytest.mark.parametrize("depth", [3, 5])
    def test_share_of_cells_reaching_the_exact_rule(self, n14, monkeypatch, depth):
        # the configured seed pair keeps 1.488 % of its cells at depth 3 and
        # 2.668 % at depth 5; the log-space bins of width max(match_tol,
        # span / 2^18) kept 1.500 % and 3.109 %, and 2^12 bins per binade
        # would keep 1.655 % and 3.728 %
        dset = n14.dset if depth == 5 else admissible_distances(14, 3)
        pts = [c.point for c in candidates(n14.p1, n14.p2, dset, n14.F)]
        kept = []
        exact = search._admissible_cells

        def counting(z, *args):
            kept.append(len(z))
            return exact(z, *args)

        monkeypatch.setattr(search, "_admissible_cells", counting)
        m = compatibility_matrix(pts, n14.L, dset)
        share = sum(kept) / m.size
        assert m.shape == ({3: 379, 5: 816}[depth], len(n14.L))
        assert share < {3: 0.01495, 5: 0.0270}[depth]


@pytest.fixture(scope="module")
def n14_filtered(n14):
    """filter_candidates' items for every depth-3 and depth-5 candidate."""
    dset3 = admissible_distances(14, 3)
    C3 = candidates(n14.p1, n14.p2, dset3, n14.F)
    return {
        3: filter_candidates(None, n14.F, n14.L, dset3, C3),
        5: filter_candidates(None, n14.F, n14.L, n14.dset, n14.C),
    }


class TestCertifiedCandidateInMpmath:
    def test_every_verdict_holds_in_50_digits(self, n14):
        # the certified depth-5 candidate's row: each displacement redone in
        # 50-digit mpmath from the float point and map entries gives the
        # verdict of the float kernel; its L_c holds 94 entries, the worst
        # accepted |v - d| is 6.9e-5 and the closest rejected one 2.68e-4,
        # against match_tol = 1e-4, and the float d misses the 50-digit one
        # by far less than either gap
        import mpmath
        c = min(n14.C, key=lambda c: abs(c.point - GOOD_CANDIDATE))
        row = compatibility_matrix([c.point], n14.L, n14.dset)[0]
        tol = n14.dset.match_tol
        vals = np.array(n14.dset.values)
        with mpmath.workdps(50):
            z = mpmath.mpc(c.point)
            miss = []
            for p in n14.L:
                a, b = mpmath.mpc(p.map.a), mpmath.mpc(p.map.b)
                w = mpmath.conj(z) if p.reversing else z
                gz = (a * w + b) / (mpmath.conj(b) * w + mpmath.conj(a))
                d = 2 * mpmath.atanh(abs(gz - z) / abs(1 - mpmath.conj(gz) * z))
                i = int(np.searchsorted(vals, float(d)))
                near = vals[max(i - 1, 0) : i + 1]
                miss.append(min(abs(mpmath.mpf(float(v)) - d) for v in near))
                assert abs(float(d) - reference_displacement(np.array([c.point]), p)[0]) < 1e-12
        miss = np.array([float(m) for m in miss])
        assert np.array_equal(miss <= tol, row)
        assert row.sum() == 94
        assert miss[row].max() == pytest.approx(6.9e-5, abs=1e-6)
        assert miss[~row].min() == pytest.approx(2.68e-4, abs=1e-6)


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

    def test_wedge_counts_are_applied(self, n14, n14_solution, monkeypatch):
        # the closure test reads the slot table's wedge counts: with two
        # wedges at every slot no cycle collects exactly 3
        slots = n14.F.slot_table
        monkeypatch.setattr(slots, "slot_wedges", [2] * len(slots.slots))
        assert complete_pairing(n14_solution.Lc, n14.F) == []

    def test_limit_caps_output(self, n14, n14_solution):
        sols = complete_pairing(n14_solution.Lc, n14.F, limit=5)
        assert len(sols) == 5

    def test_vertex_cycles_close_at_two_pi(self, n14, n14_solution):
        # 3 wedges of 2 pi / 3
        slots = n14.F.slot_table
        for sol in n14_solution.solutions[:10]:
            for verts in sol.vertex_cycles:
                assert sum(slots.wedges[v] for v in verts) == 3


class TestCycleMachinery:
    def test_torus_mock(self):
        # hexagon of 2 pi / 3 corners with opposite sides glued: its corners
        # are two vertices of three wedges each, each a mirror pair of slot
        # cycles (slot 2 v walks forward, 2 v + 1 back); V - E + F =
        # 2 - 3 + 1 = 0
        succ = [-1] * 12
        for v in range(6):
            succ[2 * v] = 2 * ((v + 2) % 6)
            succ[2 * v + 1] = 2 * ((v - 2) % 6) + 1
        slots = SimpleNamespace(slot_vertex=[s // 2 for s in range(12)], slot_wedges=[1] * 12)
        cycles = _vertex_cycles(slots, succ)
        assert cycles == ((0, 2, 4), (1, 3, 5))
        vertices, edges, faces = len(cycles), 3, 1
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
                _vertex_cycles(slots, bad)

    def test_solution_cycles_pair_up(self, n14, n14_solution):
        struct = n14.F.slot_table
        cycles = solution_cycles(n14_solution.reference.pairings, struct)
        assert len(cycles) == 13  # quotient boundary vertices
        for verts, total in cycles:
            assert total == pytest.approx(2 * math.pi, abs=1e-9)

    def test_global_angle_bookkeeping(self, n14, n14_solution):
        # the cycles visit every boundary vertex exactly once, so their 3
        # wedges each account for every boundary corner of F
        struct = n14.F.slot_table
        cycles = n14_solution.reference.vertex_cycles
        assert sorted(v for verts in cycles for v in verts) == sorted(struct.incident)
        assert 3 * len(cycles) == sum(struct.wedges[v] for v in struct.incident) == 39


    @staticmethod
    def _reference_succ(struct, pairings):
        succ = [-1] * len(struct.slots)
        for p in pairings:
            for u, w in reference_links(struct, p):
                succ[u] = w
        return succ

    def test_vertex_cycles_match_reference(self, n14, n14_solution):
        struct = n14.F.slot_table
        succ = self._reference_succ(struct, n14_solution.reference.pairings)
        cycles = _vertex_cycles(struct, succ)
        expected = solution_cycles(n14_solution.reference.pairings, struct)
        assert cycles == tuple(verts for verts, _ in expected)
        assert cycles == n14_solution.reference.vertex_cycles

    def test_vertex_cycles_match_oracle_on_every_depth5_solution(self, n14, n14_survivors):
        # the oracle re-traces each solution's links with its own slot table
        # and sums float angles; each of its sums is 2 pi to the bit, which
        # is why no artifact stores a cycle's angle
        slots, fresh = n14.F.slot_table, BoundarySlots(n14.F)
        completed, _ = complete_survivors(n14_survivors, n14.F, limit=256)
        sols = [sol for sols in completed for sol in sols]
        assert len(sols) == 495
        for sol in sols:
            cycles = _vertex_cycles(slots, self._reference_succ(fresh, sol.pairings))
            expected = solution_cycles(sol.pairings, fresh)
            assert list(cycles) == [verts for verts, _ in expected]
            assert sol.vertex_cycles == cycles
            assert all(total == 2.0 * math.pi for _, total in expected)

    def test_vertex_cycle_sums_keep_the_cycle_order(self):
        # a cycle of three 1-wedge vertices and two of a 1- and a 2-wedge
        # vertex, over shuffled vertex ids, slot 2 v walking forward and slot
        # 2 v + 1 back: every cycle sums to 3 wedges, and lists its points in
        # the order of its smaller slot cycle from its smallest slot, as the
        # oracle walks it
        rng = random.Random(3)
        order = rng.sample(range(7), 7)
        cycles_of = [order[0:3], order[3:5], order[5:7]]
        wedges = [1] * 7
        wedges[order[3]] = wedges[order[6]] = 2
        succ = [-1] * 14
        for vs in cycles_of:
            for i, v in enumerate(vs):
                succ[2 * v] = 2 * vs[(i + 1) % len(vs)]
                succ[2 * v + 1] = 2 * vs[i - 1] + 1
        slots = SimpleNamespace(
            slot_vertex=[s // 2 for s in range(14)],
            slot_wedges=[wedges[s // 2] for s in range(14)],
        )
        walked = trace_cycles(succ, slots.slot_wedges)
        assert sorted(total for _, total in walked) == [3] * 6
        by_set: dict[frozenset, list] = {}
        for cyc, _ in walked:
            verts = tuple(s // 2 for s in cyc)
            by_set.setdefault(frozenset(verts), []).append(verts)
        want = sorted(min(pair) for pair in by_set.values())
        cycles = _vertex_cycles(slots, succ)
        assert cycles == tuple(want)
        # one wedge more at a 1-wedge vertex leaves its cycle open
        slots.slot_wedges[2 * order[0]] = slots.slot_wedges[2 * order[0] + 1] = 2
        with pytest.raises(InvalidCellStructure, match="4 wedges"):
            _vertex_cycles(slots, succ)

    def test_unclosed_cycle_rejected(self, n14, n14_solution):
        # the published solution's links over a slot table with one wedge
        # more at one vertex: that vertex's cycle collects 4
        struct = n14.F.slot_table
        succ = self._reference_succ(struct, n14_solution.reference.pairings)
        v = struct.slot_vertex[0]
        slots = SimpleNamespace(
            slot_vertex=struct.slot_vertex,
            slot_wedges=[w + (u == v) for u, w in zip(struct.slot_vertex, struct.slot_wedges)],
        )
        _vertex_cycles(struct, succ)
        with pytest.raises(InvalidCellStructure, match="4 wedges, not 3"):
            _vertex_cycles(slots, succ)

    def test_unpaired_slot_cycles_rejected(self, n14):
        # both slots of one vertex in a single cycle, every other slot fixed:
        # that vertex's slot cycle has no mirror partner
        struct = n14.F.slot_table
        succ = list(range(len(struct.slots)))
        v = struct.slots[0][1]
        a, b = (s for s, (_, w) in enumerate(struct.slots) if w == v)
        succ[a], succ[b] = b, a
        with pytest.raises(InvalidCellStructure, match="pair up"):
            _vertex_cycles(struct, succ)


@pytest.fixture(scope="module")
def n14_survivors(n14):
    """L_c of every covered, non-center N = 14 candidate (depth 5)."""
    items = filter_candidates(None, n14.F, n14.L, n14.dset, n14.C)
    return [lc_pairings(it, n14.L) for it in items if it["covered"] and not it["is_center"]]


@pytest.fixture(scope="module")
def n30_survivor():
    """The one-tile N = 30 domain, whose boundary vertices carry one wedge
    each, and the L_c of its run's one survivor (depth 3, seeds (False, 0,
    0, 0, 3) and (True, 0, 0, 0, 7)), with the oracle's two-direction L."""
    F = build_domain(30, [])
    L = enumerate_pairings(F)
    dset = admissible_distances(30, 3)
    p1 = find_pairing(L, False, 0, 0, 0, 3)
    p2 = find_pairing(L, True, 0, 0, 0, 7)
    items = filter_candidates(None, F, L, dset, candidates(p1, p2, dset, F))
    (Lc,) = [lc_pairings(it, L) for it in items if it["covered"] and not it["is_center"]]
    return SimpleNamespace(F=F, L2=reference_enumerate_pairings(F), Lc=Lc)


def _summary(sols, F=None):
    """Per solution, in order: identification set, vertex cycles (compared
    bit for bit) and number of reversing pairings.  Given F, the engine's cycles of slot
    ids become F.slot_table's points, the form the oracle's solutions hold."""

    def cycles(s):
        if F is None:
            return s.vertex_cycles
        return tuple(tuple(F.slot_table.points[v] for v in verts) for verts in s.vertex_cycles)

    return [(s.identifications, cycles(s), _reversing(s)) for s in sols]


def _reversing(sol):
    return sum(p.reversing for p in sol.pairings)


class TestCompletionOracle:
    """The exact-cover engine against the copy-per-node backtracker it
    replaced, fed the two-direction L_c that backtracker was written for:
    the same solutions in the same order, every float equal."""

    def test_three_survivors(self, n14_survivors):
        assert len(n14_survivors) == 3

    @pytest.mark.parametrize("limit", [1, 5, 256])
    def test_survivors_match_reference(self, n14, n14_survivors, n30_survivor, limit):
        # the N = 14 survivors, whose boundary vertices carry 1 or 2 wedges,
        # and the one-tile N = 30 survivor, whose all carry one
        assert set(n14.F.slot_table.slot_wedges) == {1, 2}
        assert set(n30_survivor.F.slot_table.slot_wedges) == {1}
        cases = [(n14.F, n14.L2, Lc, 165) for Lc in n14_survivors]
        cases.append((n30_survivor.F, n30_survivor.L2, n30_survivor.Lc, 7))
        for F, L2, Lc, count in cases:
            got = complete_pairing(Lc, F, limit=limit)
            ref = reference_complete_pairing(both_directions(Lc, L2), F, limit=limit)
            assert _summary(got, F) == _summary(ref)
            assert len(got) == min(limit, count)
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
        limit = rng.choice([3, 40])
        got = complete_pairing(Lc, n14.F, limit=limit)
        ref = reference_complete_pairing(both_directions(Lc, n14.L2), n14.F, limit=limit)
        assert got
        assert _summary(got, n14.F) == _summary(ref)

    def test_an_lc_with_no_reversing_pairing_emits_nothing(self, n14, n14_filtered):
        # the first depth-3 survivor's conformal pairings alone still cover
        # the boundary with closed cycles, as the oracle finds when told not
        # to require a reversing pairing; none of those covers is a solution
        Lc = next(
            [p for p in lc_pairings(it, n14.L) if not p.reversing]
            for it in n14_filtered[3]
            if it["covered"] and not it["is_center"]
        )
        covers = reference_complete_pairing(
            both_directions(Lc, n14.L2), n14.F, limit=256, require_reversing=False
        )
        assert len(covers) == 10 and not any(map(_reversing, covers))
        assert complete_pairing(Lc, n14.F, limit=256) == []

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
        # the oracle, told not to require a reversing pairing, also finds the
        # covers the engine never emits; as targets they are skipped
        Lc = self._survivor3(n14, n14_filtered)
        every = reference_complete_pairing(
            both_directions(Lc, n14.L2), n14.F, limit=256, require_reversing=False
        )
        targets = [s.identifications for s in every]
        # 40 solutions, 10 of them without a reversing pairing
        assert len(every) == 40 and sum(_reversing(s) == 0 for s in every) == 10
        got = complete_pairing(Lc, n14.F, limit=256, within=targets)
        assert _summary(got) == _summary(complete_pairing(Lc, n14.F, limit=256))
        assert _summary(got, n14.F) == _summary([s for s in every if _reversing(s)])
        assert len(got) == 30
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
    """PipelineConfig.topology, the cell counts N and k fix, against the
    count it replaced: a solution's vertex cycles plus F's interior
    vertices, where three tile corners meet, are the surface's vertices."""

    TOPOLOGY = PipelineConfig(n=14, attachments=[Attachment(0, 0), Attachment(0, 1)]).topology

    @staticmethod
    def _vertices(sols, F):
        interior = sum(len(members) == 3 for _, members in F.vertex_classes())
        return {len(sol.vertex_cycles) + interior for sol in sols}

    def test_reference_solution_counts(self, n14, n14_solution):
        assert self.TOPOLOGY == {
            "faces": 3,
            "edges": 21,
            "vertices": 14,
            "euler_characteristic": -4,
            "orientable": False,
            "genus": 6,
        }
        assert self._vertices([n14_solution.reference], n14.F) == {14}

    def test_euler_relation_nk(self, n14, n14_survivors):
        # every depth-5 solution counts the config's V, so N k = 6 (k - chi)
        completed, _ = complete_survivors(n14_survivors, n14.F, limit=256)
        sols = [sol for sols in completed for sol in sols]
        assert len(sols) == 495
        assert self._vertices(sols, n14.F) == {self.TOPOLOGY["vertices"]}
        chi = self.TOPOLOGY["euler_characteristic"]
        assert n14.F.n * n14.F.k == 6 * (n14.F.k - chi)

    def test_every_depth3_solution_counts_the_configs_vertices(self, n14, n14_filtered):
        items = [it for it in n14_filtered[3] if it["covered"] and not it["is_center"]]
        Lcs = [lc_pairings(it, n14.L) for it in items]
        completed, _ = complete_survivors(Lcs, n14.F, limit=256)
        sols = [sol for sols in completed for sol in sols]
        assert len(sols) == 90
        assert self._vertices(sols, n14.F) == {self.TOPOLOGY["vertices"]}

    @pytest.mark.parametrize(
        "n, k", [(12, 1), (18, 1), (24, 1), (30, 1), (9, 2), (8, 3), (10, 3), (14, 3)]
    )
    def test_auto_mode_domains(self, n, k):
        # the genus is genus_for's, and F's tiles and edges are the faces and
        # edges: its internal edges and one per pair of boundary edges
        attachments = [Attachment(0, e) for e in range(k - 1)]
        topo = PipelineConfig(n=n, attachments=attachments).topology
        F = build_domain(n, attachments)
        assert topo["genus"] == genus_for(n, k)
        assert topo["faces"] == F.k
        assert topo["edges"] == len(F.internal_edges) + len(F.boundary) // 2
        chi = topo["vertices"] - topo["edges"] + topo["faces"]
        assert chi == topo["euler_characteristic"] == 2 - topo["genus"]
