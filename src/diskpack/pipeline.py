"""End-to-end pipeline: distances, domain, pairings, candidates, filtering,
completion, certificate; each stage writes a JSON artifact and the run ends
with rendered figures.  Exit codes: 0 certificate found, 2 search space
exhausted without one, 1 error.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from . import render
from .config import ConfigError, PipelineConfig
from .domain import (
    FundamentalDomain,
    SidePairing,
    build_domain,
    enumerate_pairings,
    find_pairing,
    pairing_json,
)
from .geom import CoincidentCurves, GeometryError, Isometry, dist
from .group import (
    SWAP_TOL,
    GroupPresentation,
    ReductionStalled,
    group_from_solution,
    second_neighbor_center,
    second_packing_certificate,
    swapping_half_turn,
)
from .search import (
    Candidate,
    bananas,
    candidates,
    compatibility_matrix,
    complete_survivors,
    verify_topology,
)
from .tess import DistanceSet, admissible_distances, triangle_generators

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EXHAUSTED = 2

# solutions.json layout; version 2 gives pairings as indices into
# pairings.json and vertex cycles as ids into its own vertices table
SOLUTIONS_SCHEMA_VERSION = 2
# every vertex cycle of a solution closes at 3 wedges of 2 pi / 3
CYCLE_ANGLE = 2.0 * math.pi


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


def _artifact(cfg: PipelineConfig, stage: str, data: dict) -> dict:
    return {
        "stage": stage,
        "config_hash": cfg.config_hash(),
        "tolerances": {
            "match_tol": cfg.match_tol,
            "dedup_tol": cfg.dedup_tol,
            "candidate_dedup": cfg.candidate_dedup,
        },
        "depth": cfg.depth,
        **data,
    }


def stage_distances(cfg: PipelineConfig, out: str | None = None) -> DistanceSet:
    dset = admissible_distances(cfg.n, cfg.depth, cfg.match_tol, cfg.dedup_tol)
    if out:
        write_json(
            os.path.join(out, "distances.json"),
            _artifact(cfg, "distances", {"values": list(dset.values)}),
        )
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
        write_json(os.path.join(out, "domain.json"), _artifact(cfg, "domain", data))
        with open(os.path.join(out, "domain.svg"), "w", encoding="utf-8") as fh:
            fh.write(render.render_svg(render.scene_base(F)))
    return F


def stage_pairings(
    cfg: PipelineConfig, F: FundamentalDomain, out: str | None = None
) -> list[SidePairing]:
    L = enumerate_pairings(F)
    if out:
        write_json(
            os.path.join(out, "pairings.json"),
            _artifact(
                cfg,
                "pairings",
                {
                    "count": len(L),
                    "boundary_edges": len(F.boundary),
                    "pairings": [pairing_json(p) for p in L],
                },
            ),
        )
    return L


def _candidate_json(c: Candidate) -> dict:
    p1, p2 = c.seed_pair
    return {
        "point": _cpx(c.point),
        "seed_distances": [c.seed_distances[0], c.seed_distances[1]],
        "seeds": [list(p1.record), list(p2.record)],
    }


def stage_candidates(
    cfg: PipelineConfig,
    F: FundamentalDomain,
    dset: DistanceSet,
    p1: SidePairing,
    p2: SidePairing,
    out: str | None = None,
) -> list[Candidate]:
    C = candidates(p1, p2, dset, F, dedup=cfg.candidate_dedup)
    if out:
        write_json(
            os.path.join(out, "candidates.json"),
            _artifact(
                cfg,
                "candidates",
                {
                    "seed_pair": [list(p1.record), list(p2.record)],
                    "count": len(C),
                    "candidates": [_candidate_json(c) for c in C],
                },
            ),
        )
        fam1 = bananas(p1, dset, max_families=render.BANANA_FAMILIES)
        fam2 = bananas(p2, dset, max_families=render.BANANA_FAMILIES)
        with open(os.path.join(out, "bananas.svg"), "w", encoding="utf-8") as fh:
            fh.write(render.render_svg(render.scene_bananas(F, p1, p2, fam1, fam2)))
        with open(os.path.join(out, "candidates.svg"), "w", encoding="utf-8") as fh:
            fh.write(
                render.render_svg(render.scene_candidates(F, [c.point for c in C]))
            )
    return C


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
    ``cfg`` is unused; it keeps the stage functions' leading argument.
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
    centers = [F.center(i) for i in range(F.k)]
    items = []
    for c, row, cov in zip(C, matrix, covered):
        uncovered = [keys[i] for i in np.flatnonzero(~cov)]
        items.append(
            {
                "candidate": c,
                "Lc": np.flatnonzero(row),
                "covered": not uncovered,
                "uncovered": uncovered,
                "is_center": any(abs(c.point - z) < 1e-6 for z in centers),
            }
        )
    return items


def lc_pairings(item: dict, L: list[SidePairing]) -> list[SidePairing]:
    """A filtering item's L_c as pairings of L, in L's order."""
    return [L[j] for j in item["Lc"]]


def _filtering_json(items: list[dict]) -> list[dict]:
    out = []
    for it in items:
        out.append(
            {
                "point": _cpx(it["candidate"].point),
                "compatible_count": len(it["Lc"]),
                "covered": it["covered"],
                "uncovered": [[p + 1, e] for p, e in it["uncovered"]],
                "is_center": it["is_center"],
            }
        )
    return out


def _solution_json(sol, topo) -> dict:
    """A solution with its pairings and vertex cycles written out in full
    (the certificate's self-contained form)."""
    return {
        "pairings": [pairing_json(p) for p in sol.pairings],
        "reversing_count": sol.reversing_count,
        "vertex_cycles": [
            {"vertices": [_cpx(v) for v in verts], "angle_sum": CYCLE_ANGLE}
            for verts in sol.vertex_cycles
        ],
        "topology": topo,
    }


def _solution_record(sol, topo, pairing_index: dict, vertex_index: dict) -> dict:
    """A solution as solutions.json stores it: pairings as indices into
    pairings.json's list, vertex cycles as ids into the vertices table."""
    return {
        "pairings": [pairing_index[p.record] for p in sol.pairings],
        "reversing_count": sol.reversing_count,
        "vertex_cycles": [
            {"vertices": [vertex_index[v] for v in verts], "angle_sum": CYCLE_ANGLE}
            for verts in sol.vertex_cycles
        ],
        "topology": topo,
    }


def _membership_json(idx: int, label: str, res) -> dict:
    return {
        "generator": idx,
        "label": label,
        "member": res.member,
        "word": list(res.word),
        "residual": res.residual,
        "strategy": res.strategy,
    }


def certificate_json(
    cfg: PipelineConfig, G: GroupPresentation, cert: dict, sol, topo
) -> dict:
    return _artifact(
        cfg,
        "certificate",
        {
            "candidate": _cpx(cert["candidate"]),
            "o_prime": _cpx(cert["o_prime"]),
            "midpoint": _cpx(cert["midpoint"]),
            "tau": cert["tau"].to_json(),
            "swap_residual": cert["swap_residual"],
            "residual_tol": cert["residual_tol"],
            "swap_tol": cert["swap_tol"],
            "basepoint": _cpx(G.basepoint),
            "generators": [
                {"label": lbl, **g.to_json()}
                for lbl, g in zip(G.labels, G.generators)
            ],
            "memberships": [
                _membership_json(i, G.labels[i], r)
                for i, r in enumerate(cert["memberships"])
            ],
            "normalizes": cert["normalizes"],
            "stalled": cert["stalled"],
            "passed": cert["passed"],
            "solution": _solution_json(sol, topo),
        },
    )


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
    succeeds as soon as some candidate admits a full solution.
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
    gens = triangle_generators(cfg.n)

    if cfg.seed_pairs is not None:
        seed_iter = [_staged("candidates", resolve_seeds, cfg, L)]
    else:
        seed_iter = _seed_pair_iter(L)
    for p1, p2 in seed_iter:
        try:
            C = stage_candidates(cfg, F, dset, p1, p2, out)
        except (CoincidentCurves, ValueError) as exc:
            if cfg.seed_pairs is not None:
                raise StageError("candidates", f"{type(exc).__name__}: {exc}") from exc
            continue  # degenerate auto-mode seed pair, move on
        log(f"seed {p1.record} x {p2.record}: {len(C)} candidates")
        code = _staged(
            "search",
            _process_seed_pair,
            cfg, F, L, dset, gens, p1, p2, C, out, log, certify,
        )
        if code is not None:
            return code
    return EXIT_EXHAUSTED


def _process_seed_pair(cfg, F, L, dset, gens, p1, p2, C, out, log, certify):
    """Filter, complete and certify the candidates of one seed pair.

    Returns an exit code when the run can stop, None to try the next pair.
    """
    items = filter_candidates(cfg, F, L, dset, C)
    write_json(
        os.path.join(out, "filtering.json"),
        _artifact(
            cfg,
            "filtering",
            {
                "seed_pair": [list(p1.record), list(p2.record)],
                "candidates": _filtering_json(items),
            },
        ),
    )
    pairing_index = {p.record: i for i, p in enumerate(L)}
    vertices = [point for point, _ in F.vertex_classes()]
    vertex_index = {point: i for i, point in enumerate(vertices)}
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
    solutions_log: list[dict] = []
    solved = []  # (item, solutions, topologies) in candidate order
    for it, sols in zip(survivors, completed):
        topos = [verify_topology(sol, F) for sol in sols]
        solutions_log.append(
            {
                "point": _cpx(it["candidate"].point),
                "solutions": [
                    _solution_record(s, t, pairing_index, vertex_index)
                    for s, t in zip(sols, topos)
                ],
            }
        )
        if sols:
            solved.append((it, sols, topos))
    write_json(
        os.path.join(out, "solutions.json"),
        _artifact(
            cfg,
            "solutions",
            {
                "schema_version": SOLUTIONS_SCHEMA_VERSION,
                "seed_pair": [list(p1.record), list(p2.record)],
                "limit": cfg.limit,
                "vertices": [_cpx(z) for z in vertices],
                "candidates": solutions_log,
            },
        ),
    )
    if not certify:
        if not solved:
            return None
        it, sols, _ = solved[0]
        log(f"solutions found at {it['candidate'].point:.6f}")
        _render_final(out, F, C, it, sols[0], None)
        return EXIT_OK
    # survivors nearest O' first (a stable sort: ties in candidate order),
    # each solution in turn, until one passes
    o_prime = second_neighbor_center(F, gens)
    attempts = 0
    for it, sols, topos in sorted(solved, key=lambda s: dist(s[0]["candidate"].point, o_prime)):
        for sol, topo in zip(sols, topos):
            G = group_from_solution(sol, F)
            attempts += 1
            try:
                cert = second_packing_certificate(it["candidate"].point, G, gens)
            except (ReductionStalled, ValueError):
                continue
            if cert["passed"]:
                write_json(
                    os.path.join(out, "certificate.json"),
                    certificate_json(cfg, G, cert, sol, topo),
                )
                log(
                    f"certificate passed at {it['candidate'].point:.6f} "
                    f"(genus {topo['genus']}, chi {topo['euler_characteristic']}) "
                    f"after {attempts} attempts"
                )
                _render_final(out, F, C, it, sol, cert)
                return EXIT_OK
    log(f"no certificate for this seed pair after {attempts} attempts")
    return None


def _render_final(out, F, C, it, sol, cert):
    star = it["candidate"].point
    with open(os.path.join(out, "candidates.svg"), "w", encoding="utf-8") as fh:
        fh.write(
            render.render_svg(
                render.scene_candidates(F, [c.point for c in C], star=star)
            )
        )
    with open(os.path.join(out, "solution.svg"), "w", encoding="utf-8") as fh:
        fh.write(render.render_svg(render.scene_solution(F, list(sol.pairings))))
    if cert is None:
        return
    with open(os.path.join(out, "certificate.svg"), "w", encoding="utf-8") as fh:
        fh.write(
            render.render_svg(
                render.scene_certificate(
                    F, cert["candidate"], cert["o_prime"], cert["midpoint"]
                )
            )
        )


# the top-level keys verify_certificate_file reads
_CERTIFICATE_KEYS = (
    "generators", "memberships", "tau", "candidate", "o_prime",
    "swap_residual", "passed", "solution",
)


def verify_certificate_file(
    path: str, word_tol: float = 1e-7, config_hash: str | None = None
) -> tuple[bool, list[str]]:
    """Re-check a certificate artifact without re-running the search.

    Verifies that the generators are the embedded solution's side pairings
    and their inverses, with no boundary edge paired twice; that the stored
    tau is swapping_half_turn(candidate, O'), and against that tau, rebuilt,
    the stored swap residual, the swap within SWAP_TOL and word soundness
    (each membership word composes to the conjugated generator); the passed
    flag; and, when ``config_hash`` is given, that the artifact was made by
    that config.  A candidate equal to O' and malformed input (a missing
    key, a matrix or point that does not decode, a generator or word index
    out of range) are reported as problems, not raised.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cert = json.load(fh)
    if not isinstance(cert, dict):
        return False, ["certificate is not a JSON object"]
    missing = [key for key in _CERTIFICATE_KEYS if key not in cert]
    if missing:
        return False, [f"certificate lacks {', '.join(missing)}"]
    try:
        gens = [Isometry.from_json(g) for g in cert["generators"]]
        pairings = cert["solution"]["pairings"]
        sides = [Isometry.from_json(pj) for pj in pairings]
        edges = [
            (pj[end]["poly"], pj[end]["edge"]) for pj in pairings for end in ("src", "dst")
        ]
        stored_tau = Isometry.from_json(cert["tau"])
        P = complex(*cert["candidate"])
        o_prime = complex(*cert["o_prime"])
        swap_residual = float(cert["swap_residual"])
        memberships = [dict(m) for m in cert["memberships"]]
    except (KeyError, IndexError, TypeError, ValueError, GeometryError) as exc:
        return False, [f"certificate does not decode: {type(exc).__name__}: {exc}"]
    problems: list[str] = []
    if config_hash is not None and cert.get("config_hash") != config_hash:
        problems.append(
            f"config hash {cert.get('config_hash')} is not the configuration's {config_hash}"
        )
    if len(gens) != 2 * len(sides):
        problems.append(
            f"{len(gens)} generators for {len(sides)} side pairings and their inverses"
        )
    else:
        for i, p in enumerate(sides):
            if (
                gens[2 * i].matrix_dist(p) > word_tol
                or gens[2 * i + 1].matrix_dist(p.inverse()) > word_tol
            ):
                problems.append(
                    f"generators {2 * i}, {2 * i + 1} are not side pairing {i} "
                    "and its inverse"
                )
    twice = sorted({e for e in edges if edges.count(e) > 1})
    if twice:
        problems.append(f"boundary edges paired twice: {twice}")
    try:
        tau = swapping_half_turn(P, o_prime)
    except ValueError as exc:
        return False, problems + [str(exc)]
    if stored_tau.matrix_dist(tau) > word_tol:
        problems.append("tau is not the half-turn about the midpoint of the candidate and O'")
    swap = dist(tau(P), o_prime)
    if abs(swap - swap_residual) > 1e-9:
        problems.append("stored swap residual does not match recomputation")
    if swap > SWAP_TOL:
        problems.append("tau does not swap the candidate with O'")

    def generator_index(i) -> bool:
        return type(i) is int and 0 <= i < len(gens)

    covered = [m.get("generator") for m in memberships]
    if sorted(i for i in covered if generator_index(i)) != list(range(len(gens))):
        problems.append("certificate does not cover every generator")
    tau_inv = tau.inverse()
    for m in memberships:
        gi = m.get("generator")
        if not generator_index(gi):
            problems.append(f"membership names generator {gi!r}, not one of {len(gens)}")
            continue
        if not m.get("member"):
            problems.append(f"membership failed for generator {gi}")
            continue
        letters = m.get("word")
        if not (isinstance(letters, list) and all(generator_index(i) for i in letters)):
            problems.append(f"word for generator {gi} is not a list of generator indices")
            continue
        word = Isometry.identity()
        for idx in letters:
            word = word * gens[idx]
        res = word.matrix_dist(tau * gens[gi] * tau_inv)
        if res > word_tol:
            problems.append(f"word for generator {gi} misses by {res:.2e}")
    if not cert["passed"]:
        problems.append("certificate is marked failed")
    return (not problems), problems
