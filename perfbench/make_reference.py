"""Regenerate perfbench/reference.json, the table the benchmark checks against.

    python3 perfbench/make_reference.py

The screen pool is a fixed draw of POOL_SIZE distinct seed pairs from the
canonical entries of L (the entry with the smaller sort key of each
identification) at depth 3, with its candidate and survivor counts. The run
reference is the certificate that `diskpack run` produces at each run depth.
Run it only when a change is meant to alter these results; the benchmark
treats any other difference as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import common
import tracer

POOL_SIZE = 240
POOL_SEED = 20190531
SCREEN_DEPTH = 3
RUN_DEPTHS = (3, 5)


def canonical_entries(L):
    best = {}
    for p in L:
        q = best.get(p.identification)
        if q is None or p.sort_key() < q.sort_key():
            best[p.identification] = p
    return sorted(best.values(), key=lambda p: p.sort_key())


def screen_pool(config, pipeline, search, work: str) -> dict:
    cfg_path = os.path.join(work, "screen.json")
    common.write_config(cfg_path, SCREEN_DEPTH, os.path.join(work, "out"))
    cfg, dset, F, L = common.setup(config, pipeline, cfg_path)
    centers = [F.center(i) for i in range(F.k)]
    canon = canonical_entries(L)
    rng = random.Random(POOL_SEED)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < POOL_SIZE:
        i, j = sorted(rng.sample(range(len(canon)), 2))
        chosen.add((i, j))
    pairs = []
    for i, j in sorted(chosen):
        p1, p2 = canon[i], canon[j]
        items = common.screen_pair(search, cfg, dset, F, L, centers, p1, p2)
        entry = {"p1": list(p1.record), "p2": list(p2.record)}
        counts = (None,) * 3 if items is None else tracer.filtering_counts(items, len(L))
        entry.update(zip(("candidates", "survivors", "full_lc"), counts))
        pairs.append(entry)
        print(entry, file=sys.stderr)
    return {"depth": SCREEN_DEPTH, "pool_seed": POOL_SEED, "pairs": pairs}


def run_reference(depth: int, work: str) -> dict:
    out = os.path.join(work, f"run-d{depth}")
    cfg_path = os.path.join(work, f"run-d{depth}.json")
    common.write_config(cfg_path, depth, out)
    subprocess.run(
        [sys.executable, "-m", "diskpack.cli", "run", "--config", cfg_path],
        env=common.child_env(),
        cwd=common.ROOT,
        check=True,
        capture_output=True,
    )
    with open(os.path.join(out, "certificate.json"), "r", encoding="utf-8") as fh:
        cert = json.load(fh)
    topo = cert["solution"]["topology"]
    return {
        "candidate": cert["candidate"],
        "euler_characteristic": topo["euler_characteristic"],
        "orientable": topo["orientable"],
        "genus": topo["genus"],
        # the certificate lists every generator with its inverse; the
        # generating set is the solution's side pairings
        "generators": len(cert["solution"]["pairings"]),
    }


def main() -> int:
    config, pipeline, search = common.import_package()
    work = os.path.join(common.WORK, "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ref = {
            "screen": screen_pool(config, pipeline, search, work),
            "run": {str(d): run_reference(d, work) for d in RUN_DEPTHS},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(common.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
