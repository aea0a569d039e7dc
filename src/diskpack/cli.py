"""Command line interface for the packing search pipeline.

Every subcommand reads a JSON config (see configs/n14.json) and writes its
artifacts into the configured output directory; flags override file values.
Exit codes: 0 success / certificate found, 2 search exhausted, 1 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline, search
from .config import ConfigError, NotRelevantN, PipelineConfig, load_config, primitive_pair


def _parse_selector(text: str) -> tuple[int, int]:
    """POLY.EDGE (1-based polygon) as (0-based polygon, edge)."""
    try:
        poly, edge = text.split(".")
        return int(poly) - 1, int(edge)
    except ValueError:
        raise ConfigError(f"bad edge selector {text!r}, expected POLY.EDGE") from None


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_flag(text: str) -> bool:
    try:
        return _FLAGS[text.strip()]
    except KeyError:
        raise ConfigError(
            f"bad orientation flag {text!r}, expected one of {', '.join(_FLAGS)}"
        ) from None


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    if args.out is not None:
        cfg.out_dir = args.out
    if getattr(args, "depth", None) is not None:
        cfg.depth = args.depth
    if getattr(args, "tol", None) is not None:
        cfg.match_tol = args.tol
    if getattr(args, "limit", None) is not None:
        cfg.limit = args.limit
    srcs = getattr(args, "seed_src", None)
    dsts = getattr(args, "seed_dst", None)
    revs = getattr(args, "seed_reversing", None)
    if srcs or dsts or revs:
        if not (srcs and dsts and revs):
            raise ConfigError(
                "--seed-src, --seed-dst and --seed-reversing must be given together"
            )
        src_list = [_parse_selector(s) for s in srcs.split(",")]
        dst_list = [_parse_selector(s) for s in dsts.split(",")]
        rev_list = [_parse_flag(s) for s in revs.split(",")]
        if not (len(src_list) == len(dst_list) == len(rev_list) == 2):
            raise ConfigError("seed flags must describe exactly two pairings")
        cfg.seed_pairs = [
            (rev_list[i], src_list[i][0], src_list[i][1], dst_list[i][0], dst_list[i][1])
            for i in range(2)
        ]
    cfg.validate()
    return cfg


def _add_common(sub, seeds: bool = False):
    sub.add_argument("--config", required=True, help="path to the pipeline config JSON")
    sub.add_argument("--out", default=None, help="output directory override")
    sub.add_argument("--depth", type=int, default=None, help="distance-set depth override")
    sub.add_argument("--tol", type=float, default=None, help="matching tolerance override")
    sub.add_argument("--limit", type=int, default=None, help="solution cap override")
    if seeds:
        sub.add_argument(
            "--seed-src",
            default=None,
            help="source edges of p1,p2 as POLY.EDGE,POLY.EDGE (1-based polygons)",
        )
        sub.add_argument(
            "--seed-dst", default=None, help="target edges of p1,p2, same format"
        )
        sub.add_argument(
            "--seed-reversing",
            default=None,
            help="orientation flags of p1,p2 as 0/1 pair, e.g. 1,0",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskpack",
        description="brute-force search for hyperbolic surfaces with two extremal packings",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, seeds in (
        ("distances", "write the admissible distance set", False),
        ("domain", "assemble the fundamental domain", False),
        ("pairings", "enumerate the side-pairing list L", False),
        ("candidates", "intersect seed bananas into candidate points", True),
        ("search", "run the pipeline through side-pairing completion", True),
        ("run", "full pipeline through the automorphism certificate", True),
        ("verify", "re-check an existing certificate.json without searching", False),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, seeds)
    pp = sub.add_parser("primitive-pair", help="print the primitive (k, g) for N")
    pp.add_argument("n", type=int)
    pp.add_argument("--orientable", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "primitive-pair":
        try:
            k, g = primitive_pair(args.n, args.orientable)
        except NotRelevantN as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return pipeline.EXIT_ERROR
        print(json.dumps({"n": args.n, "k": k, "genus": g}))
        return pipeline.EXIT_OK

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except (ConfigError, NotRelevantN, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"stage": "config", "error": str(exc)}), file=sys.stderr)
        return pipeline.EXIT_ERROR

    out = cfg.out_dir
    if args.command != "verify":  # verify only reads
        os.makedirs(out, exist_ok=True)

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    try:
        if args.command == "distances":
            dset = pipeline.stage_distances(cfg, out)
            print(f"{len(dset.values)} admissible distances -> {out}/distances.json")
            return pipeline.EXIT_OK
        if args.command == "domain":
            F = pipeline.stage_domain(cfg, out)
            print(
                f"{F.k} tiles, {len(F.boundary)} boundary edges -> {out}/domain.json"
            )
            return pipeline.EXIT_OK
        if args.command == "pairings":
            F = pipeline.stage_domain(cfg, out)
            L = pipeline.stage_pairings(cfg, F, out)
            print(f"{len(L)} side pairings -> {out}/pairings.json")
            return pipeline.EXIT_OK
        if args.command == "candidates":
            dset = pipeline.stage_distances(cfg, out)
            F = pipeline.stage_domain(cfg, out)
            L = pipeline.stage_pairings(cfg, F, out)
            p1, p2 = pipeline.resolve_seeds(cfg, L)
            C = search.candidates(p1, p2, dset, F, dedup=cfg.candidate_dedup)
            pipeline._write_seed_pair(
                cfg, F, L, dset, pipeline.SeedPairResult(p1, p2, C), out
            )
            print(f"{len(C)} candidates -> {out}/candidates.json")
            return pipeline.EXIT_OK
        if args.command == "search":
            return pipeline.run_pipeline(cfg, progress=log, certify=False)
        if args.command == "run":
            return pipeline.run_pipeline(cfg, progress=log)
        if args.command == "verify":
            ok, problems = pipeline.verify_certificate_file(
                os.path.join(out, "certificate.json"), cfg
            )
            print(json.dumps({"ok": ok, "problems": problems}, indent=1))
            return pipeline.EXIT_OK if ok else pipeline.EXIT_ERROR
    except pipeline.StageError as exc:
        print(
            json.dumps({"stage": exc.stage, "error": exc.reason}), file=sys.stderr
        )
        return pipeline.EXIT_ERROR
    except Exception as exc:  # surface label + reason, keep partial artifacts
        print(
            json.dumps({"stage": args.command, "error": f"{type(exc).__name__}: {exc}"}),
            file=sys.stderr,
        )
        return pipeline.EXIT_ERROR
    return pipeline.EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
