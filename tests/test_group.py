import math

import pytest

from reference_data import reference_reduce_to_domain
from diskpack import pipeline
from diskpack.config import load_config
from diskpack.geom import Isometry, classify, dist, elliptic_about, midpoint
from diskpack.group import (
    RESIDUAL_TOL,
    SWAP_TOL,
    ReductionStalled,
    group_from_solution,
    normalizes,
    reduce_to_domain,
    second_neighbor_center,
    second_packing_certificate,
)
from diskpack.search import candidates, complete_pairing


class TestGroupPresentation:
    def test_generators_closed_under_inverse(self, n14_solution):
        G = n14_solution.group
        assert len(G.generators) == 36
        for i in range(0, 36, 2):
            prod = G.generators[i] * G.generators[i + 1]
            assert prod.matrix_dist(Isometry.identity()) < 1e-10

    def test_generators_are_the_pairings_and_their_inverses(self, n14_solution):
        sol, G = n14_solution.reference, n14_solution.group
        for i, p in enumerate(sol.pairings):
            assert G.generators[2 * i] is p.map
            inv = p.map.inverse()
            g = G.generators[2 * i + 1]
            assert (inv.a, inv.b, inv.reversing) == (g.a, g.b, g.reversing)
            rev, (sp, se), (dp, de) = p.identification
            label = f"{'r' if rev else 'h'}:{sp}.{se}-{dp}.{de}"
            assert G.labels[2 * i : 2 * i + 2] == (label, label + "'")

    def test_basepoint_clearance(self, n14, n14_solution):
        G = n14_solution.group
        F = n14.F
        assert F.contains(G.basepoint)
        clear = min(
            abs(F.edge_ref(poly, e).margin(G.basepoint))
            for poly in range(F.k)
            for e in range(F.n)
        )
        assert clear > 1e-6


class TestReduceToDomain:
    def test_identity_is_member(self, n14_solution):
        res = reduce_to_domain(Isometry.identity(), n14_solution.group)
        assert res.member and res.word == () and res.residual < 1e-12

    def test_each_generator_is_member_with_a_one_letter_word(self, n14_solution):
        # several identifications share one isometry, so the word need not
        # name the same index; it must still be a single sound letter
        G = n14_solution.group
        for g in G.generators:
            res = reduce_to_domain(g, G)
            assert res.member
            assert len(res.word) == 1
            assert G.generators[res.word[0]].matrix_dist(g) < 1e-9

    def test_short_products_are_members_with_sound_words(self, n14_solution, rng):
        G = n14_solution.group
        for _ in range(25):
            word = [rng.randrange(36) for _ in range(rng.randrange(2, 4))]
            h = Isometry.identity()
            for i in word:
                h = h * G.generators[i]
            res = reduce_to_domain(h, G)
            assert res.member
            rebuilt = Isometry.identity()
            for i in res.word:
                rebuilt = rebuilt * G.generators[i]
            # 1e-7 soundness at unit matrix scale; deep elements carry the
            # same relative accuracy on entries of size |a|
            assert rebuilt.matrix_dist(h) < 1e-7 * max(1.0, abs(h.a))

    def test_elliptic_is_not_member(self, n14_solution):
        # torsion-free surface groups contain no elliptic elements
        G = n14_solution.group
        tau = elliptic_about(0.2 - 0.3j, math.pi)
        res = reduce_to_domain(tau, G)
        assert not res.member
        assert res.residual > 1e-3

    def test_conjugation_preserves_translation_length(self, n14_solution):
        G = n14_solution.group
        tau = elliptic_about(0.1 + 0.2j, math.pi)
        for g in G.generators[:8]:
            before = classify(g)
            after = classify(tau * g * tau.inverse())
            assert after.tag == before.tag
            assert after.translation_length == pytest.approx(
                before.translation_length, abs=1e-8
            )


class TestNormalizes:
    def test_inner_element_normalizes(self, n14_solution):
        G = n14_solution.group
        ok, results = normalizes(G.generators[0], G)
        assert ok
        assert all(r.member for r in results)

    def test_generic_elliptic_does_not(self, n14_solution):
        G = n14_solution.group
        t = elliptic_about(0.37 + 0.11j, math.pi)
        ok, results = normalizes(t, G)
        assert not ok
        assert results[-1].residual > 1e-6


class TestCertificate:
    def test_reference_certificate_passes(self, n14, n14_solution):
        cert = second_packing_certificate(
            n14_solution.candidate.point, n14_solution.group, n14.gens
        )
        assert cert["passed"]
        assert cert["normalizes"]
        assert cert["swap_residual"] < 1e-8
        assert len(cert["memberships"]) == 36
        assert max(m.residual for m in cert["memberships"]) < 1e-6

    def test_records_the_tolerances_applied(self, n14, n14_solution):
        # the tolerances are module constants: the record carries the
        # verdicts taken against them, not the tolerances themselves
        cert = second_packing_certificate(
            n14_solution.candidate.point, n14_solution.group, n14.gens
        )
        assert "residual_tol" not in cert and "swap_tol" not in cert
        assert all(m.member is (m.residual < RESIDUAL_TOL) for m in cert["memberships"])
        assert cert["passed"] is (cert["normalizes"] and cert["swap_residual"] <= SWAP_TOL)

    def test_o_prime_is_translated_second_neighbor(self, n14, n14_solution):
        cert = second_packing_certificate(
            n14_solution.candidate.point, n14_solution.group, n14.gens
        )
        rot = n14.gens.rotation
        expected = n14.F.placements[0]((rot * rot * n14.gens.b)(0j))
        assert abs(cert["o_prime"] - expected) < 1e-12
        assert cert["o_prime"] == second_neighbor_center(n14.F, n14.gens)
        # the half-turn exchanges P and O'
        tau = cert["tau"]
        assert dist(tau(cert["o_prime"]), cert["candidate"]) < 1e-9

    def test_degenerate_candidate_rejected(self, n14, n14_solution):
        rot = n14.gens.rotation
        o_prime = n14.F.placements[0]((rot * rot * n14.gens.b)(0j))
        with pytest.raises(ValueError):
            second_packing_certificate(o_prime, n14_solution.group, n14.gens)

    def test_perturbed_candidate_fails(self, n14, n14_solution):
        true_cert = second_packing_certificate(
            n14_solution.candidate.point, n14_solution.group, n14.gens
        )
        # the true half-turn does not swap a perturbed candidate with O'
        perturbed = n14_solution.candidate.point + 0.01
        assert dist(true_cert["tau"](perturbed), true_cert["o_prime"]) > 1e-3
        # and a certificate rebuilt around the perturbed point fails to
        # normalize the group (its own swap is exact by construction)
        cert = second_packing_certificate(perturbed, n14_solution.group, n14.gens)
        assert not cert["normalizes"]
        assert not cert["passed"]


def _outcome(reduce, h, G, **kwargs):
    """A reduction's result with its residual's bits, or the stall with the
    best residual it reports."""
    try:
        res = reduce(h, G, **kwargs)
    except ReductionStalled as exc:
        return ("stalled", exc.best_residual.hex())
    return (res, res.residual.hex())


def _check_attempt(P, G, gens) -> bool:
    """Compare the reduction with its oracle on every generator conjugate
    that normalizes checks for the half-turn of one certificate attempt;
    returns whether the attempt normalizes."""
    rot = gens.rotation
    o_prime = G.domain.placements[0]((rot * rot * gens.b)(0j))
    tau = elliptic_about(midpoint(P, o_prime), math.pi)
    tau_inv = tau.inverse()
    for g in G.generators:
        h = tau * g * tau_inv
        got = _outcome(reduce_to_domain, h, G)
        assert got == _outcome(reference_reduce_to_domain, h, G)
        if got[0] == "stalled" or not got[0].member:
            return False
    return True


@pytest.fixture(scope="module")
def depth3_attempts():
    """(candidate, group) for every certificate attempt of the depth-3 run,
    in the run's order, up to and including the one that passes."""
    cfg = load_config("configs/n14.json")
    cfg.depth = 3
    dset = pipeline.stage_distances(cfg)
    F = pipeline.stage_domain(cfg)
    L = pipeline.stage_pairings(cfg, F)
    p1, p2 = pipeline.resolve_seeds(cfg, L)
    C = candidates(p1, p2, dset, F, dedup=cfg.candidate_dedup)
    out = []
    for it in pipeline.filter_candidates(cfg, F, L, dset, C):
        if not it["covered"] or it["is_center"]:
            continue
        Lc = pipeline.lc_pairings(it, L)
        for sol in complete_pairing(Lc, F, limit=cfg.limit):
            out.append((it["candidate"].point, group_from_solution(sol, F)))
            cert = second_packing_certificate(out[-1][0], out[-1][1], F.gens)
            if cert["passed"]:
                return out
    raise AssertionError("the depth-3 run has no passing attempt")


class TestReductionOracle:
    """The screened greedy step and the pop-time composition decide exactly
    as the reduction that scans every generator (tests/reference_data.py)."""

    def test_every_depth3_certificate_attempt(self, n14, depth3_attempts):
        assert len(depth3_attempts) == 63
        passed = [_check_attempt(P, G, n14.gens) for P, G in depth3_attempts]
        assert passed[-1] and not any(passed[:-1])

    def test_depth5_attempts_at_the_certified_candidate(self, n14, n14_solution):
        P = n14_solution.candidate.point
        passed = []
        for sol in n14_solution.solutions:
            passed.append(_check_attempt(P, group_from_solution(sol, n14.F), n14.gens))
            if passed[-1]:
                break
        assert passed[-1] and len(passed) > 1

    def test_stall_reports_the_same_best_residual(self, n14_solution):
        G = n14_solution.group
        h = elliptic_about(0.9 + 0j, math.pi)
        got = _outcome(reduce_to_domain, h, G, bfs_depth=1)
        assert got[0] == "stalled"
        assert got == _outcome(reference_reduce_to_domain, h, G, bfs_depth=1)

    def test_basepoint_depends_only_on_domain_and_nudge(self, n14, n14_solution):
        sol = n14_solution.reference
        G1, G2 = group_from_solution(sol, n14.F), group_from_solution(sol, n14.F)
        assert G1.basepoint == G2.basepoint == n14_solution.group.basepoint
        other = group_from_solution(sol, n14.F, nudge=0.002 - 0.001j)
        assert other.basepoint != G1.basepoint and n14.F.contains(other.basepoint)
