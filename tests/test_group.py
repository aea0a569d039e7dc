import math
from fractions import Fraction

import pytest

from reference_data import edge_margin, reference_reduce_to_domain
from diskpack import group, pipeline
from diskpack.config import load_config
from diskpack.geom import Isometry, classify, dist, elliptic_about, midpoint
from diskpack.group import (
    BASEPOINT_NUDGE,
    SWAP_TOL,
    WORD_TOL,
    group_from_solution,
    inverse_word,
    reduce_to_domain,
    second_neighbor_center,
    second_packing_certificate,
    swapping_half_turn,
    word_residual,
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

    def test_basepoint_clearance(self, n14, n14_solution):
        G = n14_solution.group
        F = n14.F
        assert F.contains(G.basepoint)
        clear = min(
            abs(edge_margin(F.edges[poly][e], G.basepoint))
            for poly in range(F.k)
            for e in range(F.n)
        )
        assert clear > 1e-6


def _exact_product(word, gens) -> Isometry:
    """The word's first row composed left to right in Fractions, from the
    identity, and each entry rounded once to a float."""

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def conj(x):
        return (x[0], -x[1])

    one, zero = Fraction(1), Fraction(0)
    a, b, reversing = (one, zero), (zero, zero), False
    for i in word:
        g = gens[i]
        ga = (Fraction(g.a.real), Fraction(g.a.imag))
        gb = (Fraction(g.b.real), Fraction(g.b.imag))
        if reversing:
            ga, gb = conj(ga), conj(gb)
        a, b = (
            tuple(map(sum, zip(mul(a, ga), mul(b, conj(gb))))),
            tuple(map(sum, zip(mul(a, gb), mul(b, conj(ga))))),
        )
        reversing = reversing != g.reversing
    return Isometry.unit(
        complex(float(a[0]), float(a[1])), complex(float(b[0]), float(b[1])), reversing
    )


class TestReduceToDomain:
    def test_identity_is_member(self, n14_solution):
        res = reduce_to_domain(Isometry.identity(), n14_solution.group)
        assert res.word == () and res.residual == 0.0

    def test_each_generator_is_member_with_a_one_letter_word(self, n14_solution):
        # several identifications share one isometry, so the word need not
        # name the same index; it must still be a single sound letter
        G = n14_solution.group
        for g in G.generators:
            res = reduce_to_domain(g, G)
            assert res.residual <= WORD_TOL
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
            assert res.residual <= WORD_TOL
            # the residual is the word's, composed left to right without
            # rounding and rounded once
            rebuilt = _exact_product(res.word, G.generators)
            assert res.residual == rebuilt.matrix_dist(h) / (abs(h.a) + abs(h.b))

    def test_elliptic_is_not_member(self, n14_solution):
        # torsion-free surface groups contain no elliptic elements
        G = n14_solution.group
        tau = elliptic_about(0.2 - 0.3j, math.pi)
        res = reduce_to_domain(tau, G)
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


def _conjugate_residuals(t, G):
    """word_residual of the reduction of t g t^-1 for every generator g."""
    t_inv = t.inverse()
    return [reduce_to_domain(t * g * t_inv, G).residual for g in G.generators]


class TestNormalizes:
    def test_inner_element_normalizes(self, n14_solution):
        G = n14_solution.group
        assert max(_conjugate_residuals(G.generators[0], G)) <= WORD_TOL

    def test_generic_elliptic_does_not(self, n14_solution):
        G = n14_solution.group
        t = elliptic_about(0.37 + 0.11j, math.pi)
        assert max(_conjugate_residuals(t, G)) > 1e-6


class TestCertificate:
    def test_reference_certificate_passes(self, n14, n14_solution):
        cert = second_packing_certificate(n14_solution.candidate.point, n14_solution.group)
        assert cert["passed"]
        assert sorted(cert) == ["candidate", "memberships", "o_prime", "passed"]
        assert len(cert["memberships"]) == 36
        assert max(m.residual for m in cert["memberships"]) <= WORD_TOL

    def test_records_the_tolerances_applied(self, n14, n14_solution):
        # the tolerances are module constants: the record carries the
        # verdicts taken against them, not the tolerances themselves
        cert = second_packing_certificate(n14_solution.candidate.point, n14_solution.group)
        assert "residual_tol" not in cert and "swap_tol" not in cert
        memberships = cert["memberships"]
        normalizes = len(memberships) == 36 and all(m.residual <= WORD_TOL for m in memberships)
        tau = swapping_half_turn(cert["candidate"], cert["o_prime"])
        swaps = dist(tau(cert["candidate"]), cert["o_prime"]) <= SWAP_TOL
        assert cert["passed"] is (normalizes and swaps)
        # each residual is the word's, as verify_certificate_file recomputes it
        tau_inv = tau.inverse()
        G = n14_solution.group
        for g, m in zip(G.generators, memberships):
            assert m.residual == word_residual(m.word, G.generators, tau * g * tau_inv)

    def test_o_prime_is_translated_second_neighbor(self, n14, n14_solution):
        cert = second_packing_certificate(n14_solution.candidate.point, n14_solution.group)
        rot = n14.gens.rotation
        expected = n14.F.placements[0]((rot * rot * n14.gens.b)(0j))
        assert abs(cert["o_prime"] - expected) < 1e-12
        assert cert["o_prime"] == second_neighbor_center(n14.F)
        # the half-turn exchanges P and O'
        tau = swapping_half_turn(cert["candidate"], cert["o_prime"])
        assert dist(tau(cert["o_prime"]), cert["candidate"]) < 1e-9

    def test_degenerate_candidate_rejected(self, n14, n14_solution):
        rot = n14.gens.rotation
        o_prime = n14.F.placements[0]((rot * rot * n14.gens.b)(0j))
        with pytest.raises(ValueError):
            second_packing_certificate(o_prime, n14_solution.group)

    def test_perturbed_candidate_fails(self, n14, n14_solution):
        P = n14_solution.candidate.point
        true_cert = second_packing_certificate(P, n14_solution.group)
        # the true half-turn does not swap a perturbed candidate with O'
        perturbed = P + 0.01
        true_tau = swapping_half_turn(P, true_cert["o_prime"])
        assert dist(true_tau(perturbed), true_cert["o_prime"]) > 1e-3
        # and a certificate rebuilt around the perturbed point fails to
        # normalize the group (its own swap is exact by construction)
        cert = second_packing_certificate(perturbed, n14_solution.group)
        tau = swapping_half_turn(perturbed, cert["o_prime"])
        assert dist(tau(perturbed), cert["o_prime"]) <= SWAP_TOL
        assert not cert["passed"]
        assert not cert["memberships"][-1].residual <= WORD_TOL


def _outcome(reduce, h, G, **kwargs):
    """A reduction's result with its residual's bits."""
    res = reduce(h, G, **kwargs)
    return (res, res.residual.hex())


def _check_attempt(P, G, gens) -> bool:
    """Compare the reduction with its oracle on every generator conjugate
    that second_packing_certificate checks for the half-turn of one
    certificate attempt; returns whether the attempt normalizes."""
    rot = gens.rotation
    o_prime = G.domain.placements[0]((rot * rot * gens.b)(0j))
    tau = elliptic_about(midpoint(P, o_prime), math.pi)
    tau_inv = tau.inverse()
    for g in G.generators:
        h = tau * g * tau_inv
        got = _outcome(reduce_to_domain, h, G)
        assert got == _outcome(reference_reduce_to_domain, h, G)
        if not got[0].residual <= WORD_TOL:
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
            cert = second_packing_certificate(out[-1][0], out[-1][1])
            if cert["passed"]:
                return out
    raise AssertionError("the depth-3 run has no passing attempt")


class TestOneSearchPerGeneratorPair:
    """Generator 2i + 1 is the exact inverse of generator 2i, so its
    conjugate is the inverse of 2i's: the certificate searches the even
    generators only and gives each odd one its partner's word inverted,
    held to word_residual against its own conjugate."""

    @staticmethod
    def _check(P, G) -> bool:
        cert = second_packing_certificate(P, G)
        ms = cert["memberships"]
        tau = swapping_half_turn(P, cert["o_prime"])
        tau_inv = tau.inverse()
        for g, m in zip(G.generators, ms):
            assert m.residual == word_residual(m.word, G.generators, tau * g * tau_inv)
        for i in range(1, len(ms), 2):
            assert ms[i].word == tuple(j ^ 1 for j in reversed(ms[i - 1].word))
            assert ms[i].word == inverse_word(ms[i - 1].word)
            assert ms[i].strategy == "inverse" and ms[i - 1].strategy != "inverse"
        # the walk stops at the first membership that fails
        assert all(m.residual <= WORD_TOL for m in ms[:-1])
        assert cert["passed"] is (len(ms) == len(G.generators) and ms[-1].residual <= WORD_TOL)
        return cert["passed"]

    def test_the_published_certificate(self, n14_solution, monkeypatch):
        searched = []

        def counting(h, G):
            searched.append(h)
            return reduce_to_domain(h, G)

        monkeypatch.setattr(group, "reduce_to_domain", counting)
        assert self._check(n14_solution.candidate.point, n14_solution.group)
        assert len(searched) == 18

    def test_every_depth3_certificate_attempt(self, depth3_attempts):
        passed = [self._check(P, G) for P, G in depth3_attempts]
        assert passed[-1] and not any(passed[:-1])


class TestReductionOracle:
    """The search with inline images and pop-time words decides exactly as
    the one that calls Isometry.__call__ and dist and builds each word at
    its push (tests/reference_data.py)."""

    def test_every_depth3_certificate_attempt(self, n14, depth3_attempts):
        assert len(depth3_attempts) == 65
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

    def test_stall_returns_the_empty_word_that_fails(self, n14_solution, monkeypatch):
        # reduce_to_domain reads the depth cap at call time; a search that
        # runs out of nodes does not raise, its empty word fails the residual
        monkeypatch.setattr(group, "BFS_DEPTH", 1)
        G = n14_solution.group
        h = elliptic_about(0.9 + 0j, math.pi)
        got = _outcome(reduce_to_domain, h, G)
        assert got[0].word == () and got[0].strategy == "bfs"
        assert got[0].residual > WORD_TOL
        assert got[0].residual == word_residual((), G.generators, h)
        assert got == _outcome(reference_reduce_to_domain, h, G, bfs_depth=1)

    def test_basepoint_depends_only_on_domain_and_nudge(self, n14, n14_solution):
        sol = n14_solution.reference
        G1, G2 = group_from_solution(sol, n14.F), group_from_solution(sol, n14.F)
        assert G1.basepoint == G2.basepoint == n14_solution.group.basepoint
        assert G1.basepoint == n14.F.clear_point(BASEPOINT_NUDGE)
        other = n14.F.clear_point(0.002 - 0.001j)
        assert other != G1.basepoint and n14.F.contains(other)
