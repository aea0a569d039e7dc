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


@dataclass
class PipelineConfig:
    n: int
    attachments: list[Attachment] = field(default_factory=list)
    depth: int = 5
    match_tol: float = 1e-4
    dedup_tol: float = 1e-9
    candidate_dedup: float = 1e-6
    angle_tol: float = 1e-6
    seed_pairs: list[tuple] | None = None  # two records (reversing, sp, se, dp, de), 0-based
    limit: int = 32
    frame_rotation_deg: float = 0.0
    orientable: bool = False
    out_dir: str = "out"

    @property
    def k(self) -> int:
        return len(self.attachments) + 1

    @property
    def genus(self) -> int:
        return genus_for(self.n, self.k, self.orientable)

    def validate(self) -> None:
        if self.n not in RELEVANT_N:
            raise NotRelevantN(
                f"N={self.n} is not in the arithmetic list {RELEVANT_N}"
            )
        if self.orientable:  # completion requires a reversing pairing
            raise ConfigError("orientable: the search builds non-orientable surfaces only")
        chi = 2 - self.genus  # raises ConfigError when the divisibility fails
        if self.n * self.k != 6 * (self.k - chi):
            raise ConfigError("internal consistency N k = 6(k - chi) failed")
        if self.depth < 1:
            raise ConfigError("depth must be at least 1")
        if self.limit < 1:
            raise ConfigError("limit must be at least 1")
        for name in ("match_tol", "dedup_tol", "candidate_dedup", "angle_tol"):
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
        d = {
            "n": self.n,
            "attachments": [[a.parent, a.parent_edge] for a in self.attachments],
            "depth": self.depth,
            "match_tol": self.match_tol,
            "dedup_tol": self.dedup_tol,
            "candidate_dedup": self.candidate_dedup,
            "angle_tol": self.angle_tol,
            "limit": self.limit,
            "frame_rotation_deg": self.frame_rotation_deg,
            "orientable": self.orientable,
            "out_dir": self.out_dir,
        }
        if self.seed_pairs is not None:
            d["seed_pairs"] = [_record_to_json(r) for r in self.seed_pairs]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "PipelineConfig":
        known = {
            "n", "attachments", "depth", "match_tol", "dedup_tol",
            "candidate_dedup", "angle_tol", "seed_pairs", "limit",
            "frame_rotation_deg", "orientable", "out_dir",
        }
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "n" not in d:
            raise ConfigError("config requires n")
        kwargs = dict(d)
        kwargs["attachments"] = [
            Attachment(int(p), int(e)) for p, e in d.get("attachments", [])
        ]
        if d.get("seed_pairs") is not None:
            kwargs["seed_pairs"] = [_record_from_json(r) for r in d["seed_pairs"]]
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


def _record_from_json(r: dict) -> tuple:
    if "type" in r:
        reversing = r["type"] == "or-hyperbolic"
    else:
        reversing = bool(r["reversing"])
    return (
        reversing,
        int(r["src"]["poly"]) - 1,
        int(r["src"]["edge"]),
        int(r["dst"]["poly"]) - 1,
        int(r["dst"]["edge"]),
    )


def load_config(path: str) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cfg = PipelineConfig.from_json_dict(data)
    cfg.validate()
    return cfg
