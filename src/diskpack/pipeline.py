"""End-to-end pipeline: distances, domain, pairings, candidates, filtering,
completion, certificate; each stage writes a JSON artifact and the run ends
with rendered figures.  The seed-pair stages compute first, and the run's
last seed pair is written once, by _write_seed_pair.  Exit codes: 0
certificate found, 2 search space exhausted without one, 1 error.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import render
from .config import ConfigError, PipelineConfig, record_from_json
from .domain import (
    FundamentalDomain,
    InvalidCellStructure,
    SidePairing,
    build_domain,
    enumerate_pairings,
    find_pairing,
    pairing_json,
    pairing_record,
)
from .geom import CoincidentCurves, GeometryError, dist
from .group import (
    SWAP_TOL,
    WORD_TOL,
    group_from_solution,
    second_neighbor_center,
    second_packing_certificate,
    swapping_half_turn,
    word_residual,
)
from .search import (
    Candidate,
    PairingSolution,
    bananas,
    candidates,
    compatibility_matrix,
    complete_pairing,
    complete_survivors,
)
from .tess import DistanceSet, admissible_distances

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2

# solutions.json layout; version 4 gives each solution as its pairings,
# indices into pairings.json, and its vertex cycles, lists of ids into its
# own vertices table (every cycle closes at 3 wedges, so no angle is
# stored, and N and k fix the cell counts, so no topology is)
SOLUTIONS_SCHEMA_VERSION = 4


class StageError(RuntimeError):
    def __init__(self, stage: str, reason: str):
        super().__init__(f"[{stage}] {reason}")
        self.stage = stage
        self.reason = reason


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# the C encoder: json uses it for a one-shot encode without indentation
_encode = json.JSONEncoder(sort_keys=True).encode


def write_json(path: str, payload: dict) -> None:
    """Write an artifact as one JSON document, one record per line.

    Layout: a ``{`` line; each top-level key in sorted order on its own
    line, indented one space; a non-empty list value opens with ``[`` and
    puts each element on its own line, indented two spaces; every other
    value is compact on its key's line; then ``}`` and a newline.  Each
    line is encoded by the C encoder (sorted keys, default separators,
    ASCII escapes, floats by repr) and streamed to the file, so the whole
    artifact never exists as one string.
    """
    keys = sorted(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for n, key in enumerate(keys, start=1):
            value = payload[key]
            end = ",\n" if n < len(keys) else "\n"
            if isinstance(value, list) and value:
                fh.write(f" {_encode(key)}: [\n")
                last = len(value) - 1
                for i, item in enumerate(value):
                    fh.write(f"  {_encode(item)}{',' if i < last else ''}\n")
                fh.write(f" ]{end}")
            else:
                fh.write(f" {_encode(key)}: {_encode(value)}{end}")
        fh.write("}\n")


def _write_svg(out: str, name: str, layers: render.Layers) -> None:
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(render.render_svg(layers))


def _write_artifact(cfg: PipelineConfig, out: str, stage: str, data: dict) -> None:
    """``data`` as ``{stage}.json``, headed by the run's provenance."""
    header = {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "tolerances": {
            "match_tol": cfg.match_tol,
            "candidate_dedup": cfg.candidate_dedup,
        },
        "depth": cfg.depth,
    }
    write_json(os.path.join(out, f"{stage}.json"), {**header, **data})


def stage_distances(cfg: PipelineConfig, out: str | None = None) -> DistanceSet:
    dset = admissible_distances(cfg.n, cfg.depth, cfg.match_tol)
    if out:
        _write_artifact(cfg, out, "distances", {"values": list(dset.values)})
    return dset


def stage_domain(cfg: PipelineConfig, out: str | None = None) -> FundamentalDomain:
    F = build_domain(cfg.n, cfg.attachments, frame=cfg.frame)
    if out:
        data = {
            "n": F.n,
            "k": F.k,
            "genus": cfg.genus,
            "placements": [p.to_json() for p in F.placements],
            "internal_edges": [
                [[p + 1, e], [q + 1, f]] for (p, e), (q, f) in F.internal_edges
            ],
            "boundary_edges": [
                {
                    "poly": e.poly + 1,
                    "edge": e.edge,
                    "endpoints": [_cpx(e.endpoints[0]), _cpx(e.endpoints[1])],
                }
                for e in F.boundary
            ],
        }
        _write_artifact(cfg, out, "domain", data)
        _write_svg(out, "domain.svg", render.scene_base(F))
    return F


def stage_pairings(
    cfg: PipelineConfig, F: FundamentalDomain, out: str | None = None
) -> list[SidePairing]:
    L = enumerate_pairings(F)
    if out:
        _write_artifact(
            cfg,
            out,
            "pairings",
            {"boundary_edges": len(F.boundary), "pairings": [pairing_json(p) for p in L]},
        )
    return L


def filter_candidates(
    cfg: PipelineConfig,
    F: FundamentalDomain,
    L: list[SidePairing],
    dset: DistanceSet,
    C: list[Candidate],
) -> list[dict]:
    """Per-candidate compatible pairings and edge coverage, in candidate order.

    ``Lc`` is L_c as indices into L (a compatibility-matrix row's nonzeros).
    A candidate covers a boundary edge when one of its compatible pairings
    glues it, so coverage for every candidate is the boolean product of the
    compatibility matrix with the pairing x boundary-edge incidence matrix:
    per edge, an any() over the matrix columns of the pairings touching it.
    ``is_center`` is F.is_center, the test verify_certificate_file applies.
    ``cfg`` is unused; the signature stays, because the benchmark's tracer
    (perfbench/tracer.py) reads L as the third positional argument.
    """
    matrix = compatibility_matrix([c.point for c in C], L, dset)
    touching: dict[tuple[int, int], list[int]] = {
        key: [] for key in sorted(e.key for e in F.boundary)
    }
    for j, p in enumerate(L):
        for key in (p.src.key, p.dst.key):
            if key in touching:
                touching[key].append(j)
    keys = list(touching)
    covered = np.stack([matrix[:, cols].any(axis=1) for cols in touching.values()], axis=1)
    items = []
    for c, row, cov in zip(C, matrix, covered):
        uncovered = [keys[i] for i in np.flatnonzero(~cov)]
        items.append(
            {
                "candidate": c,
                "Lc": np.flatnonzero(row),
                "covered": not uncovered,
                "uncovered": uncovered,
                "is_center": F.is_center(c.point),
            }
        )
    return items


def lc_pairings(item: dict, L: list[SidePairing]) -> list[SidePairing]:
    """A filtering item's L_c as pairings of L, in L's order."""
    return [L[j] for j in item["Lc"]]


def _solution_record(sol: PairingSolution, pairing_index: dict) -> dict:
    """A solution as solutions.json stores it: pairings as indices into
    pairings.json's list, vertex cycles as lists of ids into the vertices
    table."""
    return {
        "pairings": [pairing_index[p.record] for p in sol.pairings],
        "vertex_cycles": [list(verts) for verts in sol.vertex_cycles],
    }


def resolve_seeds(cfg: PipelineConfig, L: list[SidePairing]):
    """The configured seed pairings p1, p2 looked up in L."""
    if cfg.seed_pairs is None:
        raise ConfigError("this subcommand needs explicit seed pairings")
    r1, r2 = cfg.seed_pairs
    return find_pairing(L, *r1), find_pairing(L, *r2)


def _seed_pair_iter(L: list[SidePairing]):
    """Auto mode: every unordered pair of L, in list order."""
    for i, j in itertools.combinations(range(len(L)), 2):
        yield L[i], L[j]


def _staged(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc


def run_pipeline(cfg: PipelineConfig, progress=None, certify: bool = True) -> int:
    """Execute the full search; returns the process exit code.

    With ``certify=False`` the run stops after side-pairing completion and
    succeeds as soon as some candidate admits a full solution.  The seed-pair
    artifacts are those of the last pair that got past its candidates,
    written once when the run ends with 0 or 2.
    """
    cfg.validate()
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    log = progress or (lambda msg: None)

    dset = _staged("distances", stage_distances, cfg, out)
    log(f"distances: {len(dset.values)} values at depth {cfg.depth}")
    F = _staged("domain", stage_domain, cfg, out)
    log(f"domain: {F.k} tiles, {len(F.boundary)} boundary edges")
    L = _staged("pairings", stage_pairings, cfg, F, out)
    log(f"pairings: {len(L)} axial entries")
    if cfg.seed_pairs is not None:
        seed_iter = [_staged("candidates", resolve_seeds, cfg, L)]
    else:
        seed_iter = _seed_pair_iter(L)
    last = None
    for p1, p2 in seed_iter:
        try:
            C = candidates(p1, p2, dset, F, dedup=cfg.candidate_dedup)
        except (CoincidentCurves, ValueError) as exc:
            if cfg.seed_pairs is not None:
                raise StageError("candidates", f"{type(exc).__name__}: {exc}") from exc
            continue  # degenerate auto-mode seed pair, move on
        log(f"seed {p1.record} x {p2.record}: {len(C)} candidates")
        last = _staged(
            "search", _process_seed_pair, cfg, F, L, dset, p1, p2, C, log, certify
        )
        if last.solved is not None:
            break
    if last is None:
        return EXIT_EXHAUSTED
    _write_seed_pair(cfg, F, L, dset, last, out)
    return EXIT_EXHAUSTED if last.solved is None else EXIT_OK


@dataclass
class SeedPairResult:
    """What one seed pair produced, for _write_seed_pair.

    ``items`` (the filtering items) and ``completed`` ((item, solutions) per
    survivor, in candidate order) are None for a pair that stopped at its
    candidates.  ``solved`` is the (item, solution) that ended the run and
    ``certificate`` its certificate when the run certified it.
    """

    p1: SidePairing
    p2: SidePairing
    C: list[Candidate]
    items: list[dict] | None = None
    completed: list[tuple] | None = None
    solved: tuple | None = None
    certificate: dict | None = None


def _process_seed_pair(cfg, F, L, dset, p1, p2, C, log, certify) -> SeedPairResult:
    """Filter, complete and certify the candidates of one seed pair.

    Writes nothing; the result's ``solved`` is set when the run can stop.
    """
    items = filter_candidates(cfg, F, L, dset, C)
    survivors = [it for it in items if it["covered"] and not it["is_center"]]
    completed, searches = complete_survivors(
        [lc_pairings(it, L) for it in survivors], F, limit=cfg.limit
    )
    carried = len(survivors) - searches
    log(
        f"completion: {len(survivors)} survivor{'s' * (len(survivors) != 1)}, "
        f"{searches} search{'es' * (searches != 1)}, {carried} carried by symmetry "
        f"(group of order {len(F.symmetries)})"
    )
    res = SeedPairResult(p1, p2, C, items, list(zip(survivors, completed)))
    solved = [entry for entry in res.completed if entry[1]]
    if not certify:
        if solved:
            it, sols = solved[0]
            log(f"solutions found at {it['candidate'].point:.6f}")
            res.solved = (it, sols[0])
        return res
    # survivors nearest O' first (a stable sort: ties in candidate order),
    # each solution in turn, until one passes
    o_prime = second_neighbor_center(F)
    attempts = 0
    for it, sols in sorted(solved, key=lambda s: dist(s[0]["candidate"].point, o_prime)):
        for sol in sols:
            G = group_from_solution(sol, F)
            attempts += 1
            cert = second_packing_certificate(it["candidate"].point, G)
            if cert["passed"]:
                topo = cfg.topology
                worst = max(m.residual for m in cert["memberships"])
                log(
                    f"certificate passed at {it['candidate'].point:.6f} "
                    f"(genus {topo['genus']}, chi {topo['euler_characteristic']}) "
                    f"after {attempts} attempts, worst word residual {worst:.2e} "
                    f"(WORD_TOL {WORD_TOL:.0e})"
                )
                res.solved = (it, sol)
                res.certificate = cert
                return res
    log(f"no certificate for this seed pair after {attempts} attempts")
    return res


def _write_seed_pair(cfg, F, L, dset, res: SeedPairResult, out: str) -> None:
    """Write a seed pair's artifacts, each once: candidates.json with the
    bananas and candidates figures (the latter starring the candidate that
    ended the run), then as far as the pair got of filtering.json,
    solutions.json, solution.svg, certificate.json and certificate.svg."""
    seed_pair = [list(res.p1.record), list(res.p2.record)]
    records = [
        {"point": _cpx(c.point), "seed_distances": list(c.seed_distances)} for c in res.C
    ]
    _write_artifact(cfg, out, "candidates", {"seed_pair": seed_pair, "candidates": records})
    fam1 = bananas(res.p1, dset, max_families=render.BANANA_FAMILIES)
    fam2 = bananas(res.p2, dset, max_families=render.BANANA_FAMILIES)
    _write_svg(out, "bananas.svg", render.scene_bananas(F, res.p1, res.p2, fam1, fam2))
    star = None if res.solved is None else res.solved[0]["candidate"].point
    points = [c.point for c in res.C]
    _write_svg(out, "candidates.svg", render.scene_candidates(F, points, star))
    if res.items is None:
        return
    records = [
        {
            "point": _cpx(it["candidate"].point),
            "compatible_count": len(it["Lc"]),
            "uncovered": [[p + 1, e] for p, e in it["uncovered"]],
            "is_center": it["is_center"],
        }
        for it in res.items
    ]
    _write_artifact(cfg, out, "filtering", {"seed_pair": seed_pair, "candidates": records})
    pairing_index = {p.record: i for i, p in enumerate(L)}
    records = [
        {
            "point": _cpx(it["candidate"].point),
            "solutions": [_solution_record(s, pairing_index) for s in sols],
        }
        for it, sols in res.completed
    ]
    data = {
        "schema_version": SOLUTIONS_SCHEMA_VERSION,
        "seed_pair": seed_pair,
        "limit": cfg.limit,
        "vertices": [_cpx(z) for z in F.slot_table.points],
        "candidates": records,
    }
    _write_artifact(cfg, out, "solutions", data)
    if res.solved is None:
        return
    sol = res.solved[1]
    _write_svg(out, "solution.svg", render.scene_solution(F, list(sol.pairings)))
    if res.certificate is None:
        return
    # one membership per generator, in generator order; a membership's
    # residual is the word_residual that passed it, which
    # verify_certificate_file recomputes from the word and does not read;
    # the solution is its pairings' records, and verify rebuilds F, L and
    # O' from the embedded config
    cert = res.certificate
    data = {
        "candidate": _cpx(cert["candidate"]),
        "config": cfg.hashed_json_dict(),
        "memberships": [
            {"word": list(m.word), "residual": m.residual} for m in cert["memberships"]
        ],
        "passed": cert["passed"],
        "solution": {
            "pairings": [pairing_record(p) for p in sol.pairings],
            "topology": cfg.topology,
        },
    }
    _write_artifact(cfg, out, "certificate", data)
    layers = render.scene_certificate(F, cert["candidate"], cert["o_prime"])
    _write_svg(out, "certificate.svg", layers)


# the top-level keys verify_certificate_file reads
_CERTIFICATE_KEYS = ("candidate", "config", "config_hash", "memberships", "passed", "solution")


def _disk_point(xy) -> complex:
    """A stored [re, im] point, which must lie strictly inside the unit disk
    (NaN and infinite coordinates do not)."""
    z = complex(*xy)
    if not abs(z) < 1.0:
        raise ValueError(f"point {xy} is not inside the unit disk")
    return z


def verify_certificate_file(path: str, cfg: PipelineConfig | None = None) -> tuple[bool, list[str]]:
    """Re-check a certificate artifact from the config it embeds, without
    re-running the search.

    The embedded config must parse and validate, and hash to the artifact's
    config_hash; so must ``cfg`` when it is given, which is all ``cfg`` is
    for.  F and L are rebuilt from the embedded config.  Each stored pairing
    record is read as a config seed record and must name an entry of L; the
    generators are those entries' maps, each followed by its inverse, as
    group_from_solution builds them.  The records must glue F:
    complete_pairing, restricted to their identification set, must return
    it, so every boundary edge is paired exactly once, every vertex cycle
    closes at 3 wedges and some pairing is reversing.  The topology must be
    the embedded config's.  The candidate must lie in F and not be a tile
    center (F.is_center, the run's test).  O' is second_neighbor_center(F),
    and tau, swapping_half_turn(candidate, O'), must swap the two within
    SWAP_TOL.  There must be one membership per generator, the i-th for
    generator i, whose word_residual against tau g_i tau^-1 is at most
    group.WORD_TOL, the test the run passed it by; and the passed flag must
    be JSON true.  A membership's ``residual`` is the producer's record and
    is not read: it is recomputed from the word.  Malformed input (a file
    that cannot be read or is not JSON, a missing key, a config or record
    that does not parse, a point not strictly inside the unit disk, a word
    index out of range) is reported as a problem, not raised.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)  # a JSONDecodeError is a ValueError
        if not isinstance(cert, dict):
            return False, ["certificate is not a JSON object"]
        missing = [key for key in _CERTIFICATE_KEYS if key not in cert]
        if missing:
            return False, [f"certificate lacks {', '.join(missing)}"]
        made_by = PipelineConfig.from_json_dict(cert["config"])
        made_by.validate()
        solution = cert["solution"]
        records = [record_from_json(r) for r in solution["pairings"]]
        topology = solution["topology"]
        P = _disk_point(cert["candidate"])
        memberships = [dict(m) for m in cert["memberships"]]
        F = stage_domain(made_by)
        L = enumerate_pairings(F)
    except OSError as exc:
        return False, [f"certificate cannot be read: {type(exc).__name__}: {exc}"]
    except (KeyError, IndexError, TypeError, ValueError, GeometryError) as exc:
        return False, [f"certificate does not decode: {type(exc).__name__}: {exc}"]
    problems: list[str] = []
    stored = cert["config_hash"]
    for whose, config in (("embedded config", made_by), ("configuration", cfg)):
        if config is not None and config.config_hash() != stored:
            problems.append(f"config hash {stored} is not the {whose}'s {config.config_hash()}")
    try:
        sides = [find_pairing(L, *rec) for rec in records]
    except KeyError as exc:
        return False, problems + [exc.args[0]]
    idents = frozenset(p.identification for p in sides)
    try:
        glued = len(idents) == len(sides) and complete_pairing(
            sides, F, limit=1, within=[idents]
        )
    except InvalidCellStructure:
        glued = False
    if not glued:
        problems.append(
            "the pairings do not glue F: every boundary edge paired once, every "
            "vertex cycle closing at 3 wedges and a reversing pairing are not all met"
        )
    # compared as JSON: 0 and 3.0 equal False and 3 in Python, not in JSON
    if _encode(topology) != _encode(made_by.topology):
        problems.append(f"topology {topology} is not the embedded config's {made_by.topology}")
    if not F.contains(P):
        problems.append(f"candidate {_cpx(P)} is not in F")
    elif F.is_center(P):
        problems.append(f"candidate {_cpx(P)} is a tile center")
    o_prime = second_neighbor_center(F)
    try:
        tau = swapping_half_turn(P, o_prime)
    except ValueError as exc:
        return False, problems + [str(exc)]
    if not dist(tau(P), o_prime) <= SWAP_TOL:
        problems.append("tau does not swap the candidate with O'")
    gens = [g for p in sides for g in (p.map, p.map.inverse())]
    if len(memberships) != len(gens):
        problems.append(f"{len(memberships)} memberships for {len(gens)} generators")
    tau_inv = tau.inverse()
    for gi, (g, m) in enumerate(zip(gens, memberships)):
        letters = m.get("word")
        if not (
            isinstance(letters, list)
            and all(type(i) is int and 0 <= i < len(gens) for i in letters)
        ):
            problems.append(f"word for generator {gi} is not a list of generator indices")
            continue
        res = word_residual(letters, gens, tau * g * tau_inv)
        if not res <= WORD_TOL:
            problems.append(f"word for generator {gi} misses by {res:.2e}")
    if cert["passed"] is not True:
        problems.append("certificate is marked failed")
    return (not problems), problems
