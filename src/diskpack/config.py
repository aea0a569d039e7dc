"""Run configuration, validation, and primitive-pair arithmetic.

A surface class is admissible when k divides 6g + 6k - 12 and the resulting
N = (6g + 6k - 12)/k lies in the finite list where the extended triangle
group is arithmetic; only those N can carry more than one extremal packing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

from .domain import Attachment
from .geom import Isometry
from .search import CANDIDATE_DEDUP
from .tess import MATCH_TOL

RELEVANT_N = (7, 8, 9, 10, 11, 12, 14, 16, 18, 24, 30)


class NotRelevantN(ValueError):
    pass


class ConfigError(ValueError):
    pass


def _genus(n: int, k: int, orientable: bool) -> int | None:
    """The genus k(N - 6) + 12 over 12 (orientable) or 6 (one-sided), or
    None when that is not a whole number at least the class's floor, 2 or 3."""
    denom, g_min = (12, 2) if orientable else (6, 3)
    num = k * (n - 6) + 12
    if num % denom != 0 or num // denom < g_min:
        return None
    return num // denom


def primitive_pair(n: int, orientable: bool = False) -> tuple[int, int]:
    """Minimal (k, g) with (6g + 6k - 12)/k = n (12g + 6k - 12 orientable)."""
    if n not in RELEVANT_N:
        raise NotRelevantN(f"N={n} admits a unique extremal packing")
    for k in range(1, 13):
        g = _genus(n, k, orientable)
        if g is not None:
            return k, g
    raise NotRelevantN(f"no primitive pair for N={n}")  # unreachable for listed N


def genus_for(n: int, k: int) -> int:
    """Genus of the one-sided surface with k N-gon tiles; raises if invalid."""
    g = _genus(n, k, orientable=False)
    if g is None:
        raise ConfigError(f"no valid genus for N={n}, k={k}")
    return g


# the scalar config keys and their JSON kinds (attachments and seed_pairs are structured)
_SCALARS = {
    "n": int, "depth": int, "match_tol": float, "candidate_dedup": float,
    "limit": int, "frame_rotation_deg": float, "out_dir": str,
}
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


@dataclass
class PipelineConfig:
    n: int
    attachments: list[Attachment] = field(default_factory=list)
    depth: int = 5
    match_tol: float = MATCH_TOL
    # one value in use, but the benchmark's screen (perfbench/common.py)
    # reads cfg.candidate_dedup, so it stays a field
    candidate_dedup: float = CANDIDATE_DEDUP
    seed_pairs: list[tuple] | None = None  # two records (reversing, sp, se, dp, de), 0-based
    limit: int = 32
    frame_rotation_deg: float = 0.0
    out_dir: str = "out"

    @property
    def k(self) -> int:
        return len(self.attachments) + 1

    @property
    def genus(self) -> int:
        return genus_for(self.n, self.k)

    @cached_property
    def topology(self) -> dict:
        """Cell counts, Euler characteristic and genus of the one-sided
        surface glued from k N-gons with corners of 2 pi / 3, fixed by N and
        k: k faces, kN / 2 edges and kN / 3 vertices (three corners meet at
        each), whole numbers since 6 divides kN whenever the genus is whole.
        Computed on first read; nothing reassigns n or attachments."""
        g = self.genus
        return {
            "faces": self.k,
            "edges": self.n * self.k // 2,
            "vertices": self.n * self.k // 3,
            "euler_characteristic": 2 - g,
            "orientable": False,
            "genus": g,
        }

    def validate(self) -> None:
        if self.n not in RELEVANT_N:
            raise NotRelevantN(
                f"N={self.n} is not in the arithmetic list {RELEVANT_N}"
            )
        self.genus  # raises ConfigError when the divisibility fails
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.limit < 1:
            raise ConfigError("limit must be at least 1")
        for name in ("match_tol", "candidate_dedup"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, not {value}")
        if self.seed_pairs is None:
            return
        if len(self.seed_pairs) != 2:
            raise ConfigError("seed_pairs must list exactly the two seed pairings")
        # polygons 1-based, as a config writes them
        for i, (_, sp, se, dp, de) in enumerate(self.seed_pairs, start=1):
            for poly, edge in ((sp, se), (dp, de)):
                if not 0 <= poly < self.k:
                    raise ConfigError(
                        f"seed pairing {i} names polygon {poly + 1}, outside 1..{self.k}"
                    )
                if not 0 <= edge < self.n:
                    raise ConfigError(
                        f"seed pairing {i} names edge {edge}, outside 0..{self.n - 1}"
                    )

    @property
    def frame(self) -> Isometry | None:
        if self.frame_rotation_deg == 0.0:
            return None
        return Isometry.rotation(math.radians(self.frame_rotation_deg))

    def to_json_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _SCALARS}
        d["attachments"] = [[a.parent, a.parent_edge] for a in self.attachments]
        if self.seed_pairs is not None:
            d["seed_pairs"] = [_record_to_json(r) for r in self.seed_pairs]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, not {type(d).__name__}")
        unknown = set(d) - set(_SCALARS) - {"attachments", "seed_pairs"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "n" not in d:
            raise ConfigError("config requires n")
        for key, kind in _SCALARS.items():
            if key in d and not _is(d[key], kind):
                raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, not {d[key]!r}")
        kwargs = dict(d)
        pairs = d.get("attachments", [])
        if not (isinstance(pairs, list) and all(_is_int_list(a, 2) for a in pairs)):
            raise ConfigError(f"attachments must be [parent, edge] integer pairs, not {pairs!r}")
        kwargs["attachments"] = [Attachment(p, e) for p, e in pairs]
        seeds = d.get("seed_pairs")
        if seeds is not None:
            if not isinstance(seeds, list):
                raise ConfigError(f"seed_pairs must be a list of records, not {seeds!r}")
            kwargs["seed_pairs"] = [record_from_json(r) for r in seeds]
        return cls(**kwargs)

    def hashed_json_dict(self) -> dict:
        """The mathematical configuration: to_json_dict without out_dir
        (the output path does not change what is computed).  config_hash
        hashes it and certificate.json embeds it."""
        d = self.to_json_dict()
        d.pop("out_dir")
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.hashed_json_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _record_to_json(rec: tuple) -> dict:
    reversing, sp, se, dp, de = rec
    return {
        "type": "or-hyperbolic" if reversing else "hyperbolic",
        "src": {"poly": sp + 1, "edge": se},
        "dst": {"poly": dp + 1, "edge": de},
    }


_SEED_TYPES = {"hyperbolic": False, "or-hyperbolic": True}


def record_from_json(r: dict) -> tuple:
    """(reversing, sp, se, dp, de) of a well-formed seed record; polygons
    are 1-based.  certificate.json's pairing records are read by it too."""
    try:
        reversing = _SEED_TYPES[r["type"]] if "type" in r else r["reversing"]
        ends = [r[end][key] for end in ("src", "dst") for key in ("poly", "edge")]
    except (KeyError, TypeError):
        ends = None
    if not (_is_int_list(ends, 4) and _is(reversing, bool)):
        raise ConfigError(f"malformed seed record {r!r}")
    sp, se, dp, de = ends
    return (reversing, sp - 1, se, dp - 1, de)


def _is(value, kind: type) -> bool:
    """Whether a JSON value is of a kind: a bool is no int, a float is finite."""
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is kind


def _is_int_list(value, length: int) -> bool:
    return isinstance(value, list) and len(value) == length and all(_is(v, int) for v in value)


def load_config(path: str, overrides: dict | None = None) -> PipelineConfig:
    """The validated config of a JSON file whose values for the keys of
    ``overrides`` are replaced by the given ones before it is parsed, so
    an override is held to the checks a file value is."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if overrides and isinstance(data, dict):  # from_json_dict names a non-object
        data = {**data, **overrides}
    cfg = PipelineConfig.from_json_dict(data)
    cfg.validate()
    return cfg
