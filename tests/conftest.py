import cmath
import math
import random
from types import SimpleNamespace

import pytest

from diskpack.geom import Isometry


def random_point(rng: random.Random, rmax: float = 0.9) -> complex:
    r = rmax * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def random_conformal(rng: random.Random) -> Isometry:
    p = random_point(rng)
    return Isometry.translation_to(p) * Isometry.rotation(2 * math.pi * rng.random())


def random_isometry(rng: random.Random) -> Isometry:
    g = random_conformal(rng)
    if rng.random() < 0.5:
        g = g * Isometry(1.0, 0.0, True)
    return g


def random_hyperbolic(rng: random.Random, tmin=0.2, tmax=4.0) -> tuple[Isometry, float]:
    """Random hyperbolic isometry with known translation length."""
    t = rng.uniform(tmin, tmax)
    h = random_conformal(rng)
    return h * Isometry.axis_translation(t) * h.inverse(), t


def random_glide(rng: random.Random, tmin=0.2, tmax=4.0) -> tuple[Isometry, float]:
    """Random glide reflection with known translation length."""
    t = rng.uniform(tmin, tmax)
    g0 = Isometry.axis_translation(t) * Isometry(1.0, 0.0, True)
    h = random_conformal(rng)
    return h * g0 * h.inverse(), t


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240814)


@pytest.fixture(scope="session")
def n14():
    """The N=14 worked example up to candidate generation, computed once;
    L2 is the oracle's list of every identification in both directions."""
    from reference_data import SEED_P1, SEED_P2, reference_enumerate_pairings
    from diskpack.domain import Attachment, build_domain, enumerate_pairings, find_pairing
    from diskpack.search import candidates
    from diskpack.tess import admissible_distances, triangle_generators

    frame = Isometry.rotation(-math.pi / 2)
    F = build_domain(14, [Attachment(0, 0), Attachment(0, 1)], frame=frame)
    L = enumerate_pairings(F)
    dset = admissible_distances(14, 5)
    rev1, sp1, se1, dp1, de1 = SEED_P1
    rev2, sp2, se2, dp2, de2 = SEED_P2
    p1 = find_pairing(L, rev1, sp1 - 1, se1, dp1 - 1, de1)
    p2 = find_pairing(L, rev2, sp2 - 1, se2, dp2 - 1, de2)
    C = candidates(p1, p2, dset, F)
    return SimpleNamespace(
        F=F,
        L=L,
        L2=reference_enumerate_pairings(F),
        dset=dset,
        gens=triangle_generators(14),
        p1=p1,
        p2=p2,
        C=C,
    )


@pytest.fixture(scope="session")
def n14_solution(n14):
    """The published 18-generator solution and its group presentation."""
    from reference_data import GOOD_CANDIDATE, SOLUTION_18_IDENTS, compatible_pairings
    from diskpack.group import group_from_solution
    from diskpack.search import complete_pairing

    good = min(n14.C, key=lambda c: abs(c.point - GOOD_CANDIDATE))
    Lc = compatible_pairings(good, n14.L, n14.dset)
    sols = complete_pairing(Lc, n14.F, limit=256)
    sol = next(s for s in sols if s.identifications == SOLUTION_18_IDENTS)
    return SimpleNamespace(
        candidate=good,
        Lc=Lc,
        solutions=sols,
        reference=sol,
        group=group_from_solution(sol, n14.F),
    )
