"""Command line interface for the packing search pipeline.

Every subcommand reads a JSON config (see configs/n14.json) and writes its
artifacts into the configured output directory; the flags --out, --depth,
--tol and --limit replace the file's out_dir, depth, match_tol and limit.
Exit codes: 0 success / certificate found, 2 search exhausted, 1 error
(a usage error included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline, search
from .config import ConfigError, NotRelevantN, load_config, primitive_pair


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors, exit code 1:
    argparse's own exit code 2 reads here as an exhausted search."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


# each override flag, the config key it replaces (its dest and metavar) and
# that key's kind
_OVERRIDES = (
    ("--out", "out_dir", str), ("--depth", "depth", int),
    ("--tol", "match_tol", float), ("--limit", "limit", int),
)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="diskpack",
        description="brute-force search for hyperbolic surfaces with two extremal packings",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("distances", "write the admissible distance set"),
        ("domain", "assemble the fundamental domain"),
        ("pairings", "enumerate the side-pairing list L"),
        ("candidates", "intersect seed bananas into candidate points"),
        ("search", "run the pipeline through side-pairing completion"),
        ("run", "full pipeline through the automorphism certificate"),
        ("verify", "re-check an existing certificate.json without searching"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the pipeline config JSON")
        for flag, key, kind in _OVERRIDES:  # one not given sets no attribute
            sp.add_argument(flag, dest=key, type=kind, default=argparse.SUPPRESS)
    pp = sub.add_parser("primitive-pair", help="print the primitive (k, g) for N")
    pp.add_argument("n", type=int)
    pp.add_argument("--orientable", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command != "primitive-pair":  # the other attributes are the overrides given
            overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
            cfg = load_config(args.config, overrides)
    except (ConfigError, NotRelevantN, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"stage": "config", "error": str(exc)}), file=sys.stderr)
        return pipeline.EXIT_ERROR
    if args.command == "primitive-pair":
        try:
            k, g = primitive_pair(args.n, args.orientable)
        except NotRelevantN as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return pipeline.EXIT_ERROR
        print(json.dumps({"n": args.n, "k": k, "genus": g}))
        return pipeline.EXIT_OK

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
