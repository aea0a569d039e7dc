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

from .domain import Attachment
from .geom import Isometry

RELEVANT_N = (7, 8, 9, 10, 11, 12, 14, 16, 18, 24, 30)


class NotRelevantN(ValueError):
    pass


class ConfigError(ValueError):
    pass


def primitive_pair(n: int, orientable: bool = False) -> tuple[int, int]:
    """Minimal (k, g) with (6g + 6k - 12)/k = n (12g + 6k - 12 orientable)."""
    if n not in RELEVANT_N:
        raise NotRelevantN(f"N={n} admits a unique extremal packing")
    denom = 12 if orientable else 6
    g_min = 2 if orientable else 3
    for k in range(1, 13):
        num = k * (n - 6) + 12
        if num % denom == 0 and num // denom >= g_min:
            return k, num // denom
    raise NotRelevantN(f"no primitive pair for N={n}")  # unreachable for listed N


def genus_for(n: int, k: int, orientable: bool = False) -> int:
    """Genus of the surface with a k-packing of N-gon tiles; raises if invalid."""
    denom = 12 if orientable else 6
    g_min = 2 if orientable else 3
    num = k * (n - 6) + 12
    if num % denom != 0 or num // denom < g_min:
        raise ConfigError(f"no valid genus for N={n}, k={k}")
    return num // denom


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
    match_tol: float = 1e-4
    # one value in use, but the benchmark's screen (perfbench/common.py)
    # reads cfg.candidate_dedup, so it stays a field
    candidate_dedup: float = 1e-6
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

    def validate(self) -> None:
        if self.n not in RELEVANT_N:
            raise NotRelevantN(
                f"N={self.n} is not in the arithmetic list {RELEVANT_N}"
            )
        chi = 2 - self.genus  # raises ConfigError when the divisibility fails
        if self.n * self.k != 6 * (self.k - chi):
            raise ConfigError("internal consistency N k = 6(k - chi) failed")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.limit < 1:
            raise ConfigError("limit must be at least 1")
        for name in ("match_tol", "candidate_dedup"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, not {value}")
        if self.seed_pairs is not None and len(self.seed_pairs) != 2:
            raise ConfigError("seed_pairs must list exactly the two seed pairings")

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
            kwargs["seed_pairs"] = [_record_from_json(r) for r in seeds]
        return cls(**kwargs)

    def config_hash(self) -> str:
        """Hash of the mathematical configuration (the output path does not
        change what is computed)."""
        d = self.to_json_dict()
        d.pop("out_dir", None)
        canon = json.dumps(d, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _record_to_json(rec: tuple) -> dict:
    reversing, sp, se, dp, de = rec
    return {
        "type": "or-hyperbolic" if reversing else "hyperbolic",
        "src": {"poly": sp + 1, "edge": se},
        "dst": {"poly": dp + 1, "edge": de},
    }


_SEED_TYPES = {"hyperbolic": False, "or-hyperbolic": True}


def _record_from_json(r: dict) -> tuple:
    """(reversing, sp, se, dp, de) of a well-formed seed record; polygons are 1-based."""
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


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = PipelineConfig.from_json_dict(data)
    cfg.validate()
    return cfg
