"""Shared pieces of the diskpack benchmark: locating the checkout, building
the generated config, the set-up stages and one seed-pair screen.

The benchmark imports the package from the checkout's own `src/`, never from
an installed copy, so it always measures the code next to it.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASE_CONFIG = os.path.join(ROOT, "configs", "n14.json")
WORK = os.path.join(HERE, "work")
REFERENCE = os.path.join(HERE, "reference.json")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing package or config)."""


def import_package():
    """Import diskpack from the checkout's src/ and return its modules."""
    for path in (os.path.join(SRC, "diskpack", "__init__.py"), BASE_CONFIG):
        if not os.path.isfile(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import diskpack
    from diskpack import config, pipeline, search

    if os.path.dirname(os.path.abspath(diskpack.__file__)) != os.path.join(SRC, "diskpack"):
        raise BenchError(f"diskpack imported from {diskpack.__file__}, not {SRC}")
    return config, pipeline, search


def child_env() -> dict:
    """Environment for child processes: the checkout's package, one thread,
    a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def write_config(path: str, depth: int, out_dir: str) -> None:
    """The paper's N = 14 config with the workload's depth and output dir."""
    with open(BASE_CONFIG, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    data["depth"] = depth
    data["out_dir"] = out_dir
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def setup(config, pipeline, cfg_path: str):
    """The shared state every seed pair needs: config, D, F and L."""
    cfg = config.load_config(cfg_path)
    dset = pipeline.stage_distances(cfg)
    F = pipeline.stage_domain(cfg)
    L = pipeline.stage_pairings(cfg, F)
    return cfg, dset, F, L


def pairing_index(L) -> dict:
    """Record -> pairing. Each record also answers for its inverse, which has
    the same displacement function d(z, p(z)) and hence the same bananas, so
    the screen pool survives a change that keeps one entry per identification."""
    index = {}
    for p in L:
        rev, sp, se, dp, de = p.record
        index.setdefault((rev, dp, de, sp, se), p)
    for p in L:
        index[p.record] = p
    return index


def screen_pair(search, cfg, dset, F, L, centers, p1, p2):
    """Candidates and filtering for one seed pair, as auto mode does them.

    Returns one (covered, is_center, |L_c|) tuple per candidate, or None when
    the pair is degenerate (auto mode skips such pairs).
    """
    from diskpack.geom import CoincidentCurves

    try:
        C = search.candidates(p1, p2, dset, F, dedup=cfg.candidate_dedup)
    except (CoincidentCurves, ValueError):
        return None
    matrix = search.compatibility_matrix([c.point for c in C], L, dset)
    items = []
    for c, row in zip(C, matrix):
        Lc = [L[j] for j in np.flatnonzero(row)]
        cov = search.edge_coverage(Lc, F)
        items.append(
            (
                all(cov.values()),
                any(abs(c.point - z) < 1e-6 for z in centers),
                len(Lc),
            )
        )
    return items
