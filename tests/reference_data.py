"""Published reference data for the N=14 worked example (1-based polygons),
and the scalar oracle the vectorized compatibility filter is checked against."""

from diskpack.geom import dist

GOOD_CANDIDATE = 0.516 - 0.248j
REJECTED_CANDIDATE = 0.324 - 0.478j

SEED_P1 = (True, 1, 13, 1, 10)  # orientation-reversing, pol1 13 -> pol1 10
SEED_P2 = (False, 1, 2, 2, 7)  # conformal, pol1 2 -> pol2 7

# compatible pairings reported for the rejected candidate
LC_REJECTED = [
    (True, 1, 10, 1, 13),
    (True, 1, 13, 1, 10),
    (False, 1, 2, 2, 7),
    (True, 1, 11, 2, 1),
    (False, 2, 8, 3, 13),
]

# the full generating set chosen for the good candidate
SOLUTION_18 = [
    (True, 1, 13, 1, 10),
    (False, 1, 2, 2, 7),
    (True, 2, 1, 1, 11),
    (False, 3, 13, 2, 8),
    (False, 1, 12, 1, 7),
    (True, 1, 8, 2, 2),
    (False, 1, 5, 2, 3),
    (True, 1, 9, 1, 6),
    (False, 1, 4, 3, 5),
    (False, 1, 3, 2, 10),
    (False, 2, 9, 3, 6),
    (False, 3, 12, 3, 7),
    (False, 2, 6, 2, 11),
    (False, 2, 4, 3, 4),
    (False, 3, 3, 3, 11),
    (False, 2, 5, 3, 10),
    (False, 2, 12, 3, 9),
    (False, 3, 2, 3, 8),
]


def ident(rec):
    """Direction-free identification record with 0-based polygon indices."""
    rev, sp, se, dp, de = rec
    a, b = (sp - 1, se), (dp - 1, de)
    return (rev, min(a, b), max(a, b))


LC_REJECTED_IDENTS = frozenset(ident(r) for r in LC_REJECTED)
SOLUTION_18_IDENTS = frozenset(ident(r) for r in SOLUTION_18)


def compatible_pairings(c, L, dset):
    """The sublist of L displacing the candidate (or point) c by an admissible
    distance, one pairing at a time; compatibility_matrix must agree."""
    z = getattr(c, "point", c)
    return [p for p in L if dset.is_admissible(dist(z, p.map(z)))]
