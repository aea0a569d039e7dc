"""SVG rendering of disk-model scenes: domains, bananas, candidates, solutions.

Geodesics and hypercycles are true circular arcs clipped to the unit disk;
the disk maps to a fixed square viewport.  Output is deterministic: floats
are formatted with a fixed precision and layers keep insertion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domain import FundamentalDomain, SidePairing
from .geom import GeneralizedCircle, axis, midpoint

SIZE = 800.0
MARGIN = 20.0
R_VIEW = 0.5 * SIZE - MARGIN
# banana families per seed pairing drawn in the bananas figure
BANANA_FAMILIES = 8


def _fmt(v: float) -> str:
    out = f"{v:.6f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def _xy(z: complex) -> tuple[float, float]:
    return 0.5 * SIZE + R_VIEW * z.real, 0.5 * SIZE - R_VIEW * z.imag


@dataclass
class Scene:
    """Ordered drawing layers; each item is a dict with a ``type`` tag."""

    layers: list[tuple[str, list[dict]]] = field(default_factory=list)

    def layer(self, name: str) -> list[dict]:
        for lname, items in self.layers:
            if lname == name:
                return items
        items: list[dict] = []
        self.layers.append((name, items))
        return items

    def add(self, layer: str, **item) -> None:
        self.layer(layer).append(item)


def _arc_path(c: GeneralizedCircle, z1: complex, z2: complex) -> str:
    """SVG path of the sub-arc of c from z1 to z2 (the shorter way around)."""
    x1, y1 = _xy(z1)
    x2, y2 = _xy(z2)
    if c.kind == "line":
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    r = c.radius * R_VIEW
    a1 = math.atan2(z1.imag - c.center.imag, z1.real - c.center.real)
    a2 = math.atan2(z2.imag - c.center.imag, z2.real - c.center.real)
    ccw = (a2 - a1) % (2.0 * math.pi)
    # y axis is flipped in viewport coordinates, so math-ccw is sweep 0
    sweep = 0 if ccw <= math.pi else 1
    return (
        f"M {_fmt(x1)} {_fmt(y1)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} "
        f"{_fmt(x2)} {_fmt(y2)}"
    )


def _clipped_path(c: GeneralizedCircle) -> str | None:
    """Path of the portion of c inside the unit disk, or None if disjoint."""
    try:
        u, v = c.ideal_points()
    except Exception:
        return None
    if c.kind == "line":
        return _arc_path(c, u, v)
    # of the two arcs between u and v, draw the one whose midpoint is inside
    a1 = math.atan2(u.imag - c.center.imag, u.real - c.center.real)
    a2 = math.atan2(v.imag - c.center.imag, v.real - c.center.real)
    ccw = (a2 - a1) % (2.0 * math.pi)
    mid = c.center + c.radius * complex(
        math.cos(a1 + 0.5 * ccw), math.sin(a1 + 0.5 * ccw)
    )
    if abs(mid) < 1.0:
        return _arc_path(c, u, v) if ccw <= math.pi else _arc_path(c, v, u)
    return _arc_path(c, v, u) if ccw <= math.pi else _arc_path(c, u, v)


def _item_svg(item: dict) -> str:
    kind = item["type"]
    if kind == "disk":
        cx, cy = _xy(0j)
        return (
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(R_VIEW)}" '
            'fill="none" stroke="black" stroke-width="1.5"/>'
        )
    if kind == "edge":
        d = _arc_path(item["curve"], item["p1"], item["p2"])
        style = item.get("style", "stroke:#202020;stroke-width:1.2")
        return f'<path d="{d}" fill="none" style="{style}"/>'
    if kind == "curve":
        d = _clipped_path(item["curve"])
        if d is None:
            return ""
        dash = ' stroke-dasharray="7 5"' if item.get("dashed") else ""
        style = item.get("style", "stroke:#3060c0;stroke-width:0.8")
        return f'<path d="{d}" fill="none" style="{style}"{dash}/>'
    if kind == "point":
        x, y = _xy(item["at"])
        r = item.get("r", 3.0)
        style = item.get("style", "fill:#c03030")
        mark = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" style="{style}"/>'
        if item.get("label"):
            mark += (
                f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" '
                f'font-size="13" font-family="sans-serif">{item["label"]}</text>'
            )
        return mark
    if kind == "label":
        x, y = _xy(item["at"])
        anchor = item.get("anchor", "middle")
        return (
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{item.get("size", 11)}" '
            f'font-family="sans-serif" text-anchor="{anchor}">{item["text"]}</text>'
        )
    raise ValueError(f"unknown scene item type {kind!r}")


def render_svg(scene: Scene) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    for name, items in scene.layers:
        parts.append(f'<g id="{name}">')
        parts.extend(svg for svg in (_item_svg(i) for i in items) if svg)
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scene_base(F: FundamentalDomain | None = None) -> Scene:
    scene = Scene()
    scene.add("disk", type="disk")
    if F is not None:
        edges = scene.layer("domain")
        labels = scene.layer("edge-labels")
        for poly in range(F.k):
            for e in F.edges[poly]:
                internal = F.is_internal(e.poly, e.edge)
                style = (
                    "stroke:#b0b0b0;stroke-width:0.8"
                    if internal
                    else "stroke:#202020;stroke-width:1.2"
                )
                edges.append(
                    dict(type="edge", curve=e.carrier, p1=e.endpoints[0], p2=e.endpoints[1], style=style)
                )
                mid = 0.5 * (e.endpoints[0] + e.endpoints[1])
                inward = mid + 0.055 * (F.center(poly) - mid)
                labels.append(
                    dict(type="label", at=inward, text=str(e.edge), size=9)
                )
        centers = scene.layer("centers")
        for poly in range(F.k):
            centers.append(
                dict(
                    type="point",
                    at=F.center(poly),
                    r=2.0,
                    style="fill:#404040",
                    label=f"pol{poly + 1}",
                )
            )
    return scene


def scene_bananas(F, p1: SidePairing, p2: SidePairing, fam1, fam2) -> Scene:
    scene = scene_base(F)
    for name, p, fam, color in (
        ("bananas-p1", p1, fam1, "#3060c0"),
        ("bananas-p2", p2, fam2, "#208040"),
    ):
        layer = scene.layer(name)
        layer.append(
            dict(type="curve", curve=axis(p.map), dashed=True, style=f"stroke:{color};stroke-width:1.4")
        )
        for _, curves in fam:
            for c in curves:
                layer.append(
                    dict(type="curve", curve=c, style=f"stroke:{color};stroke-width:0.6")
                )
    return scene


def scene_candidates(F, points: list[complex], star: complex | None = None) -> Scene:
    scene = scene_base(F)
    layer = scene.layer("candidates")
    for z in points:
        layer.append(dict(type="point", at=z, r=2.2, style="fill:#c03030"))
    if star is not None:
        layer.append(dict(type="point", at=star, r=4.0, style="fill:#e0a000", label="*"))
    return scene


def scene_solution(F, pairings: list[SidePairing]) -> Scene:
    scene = scene_base(F)
    layer = scene.layer("pairing-labels")
    for i, p in enumerate(sorted(pairings, key=SidePairing.sort_key), start=1):
        tag = f"-{i}" if p.reversing else str(i)
        for ref in (p.src, p.dst):
            mid = 0.5 * (ref.endpoints[0] + ref.endpoints[1])
            out = mid + 0.09 * (mid - F.center(ref.poly))
            layer.append(dict(type="label", at=out, text=tag, size=12))
    return scene


def scene_certificate(F, P: complex, o_prime: complex) -> Scene:
    scene = scene_base(F)
    layer = scene.layer("certificate")
    layer.append(dict(type="point", at=P, r=4.0, style="fill:#e0a000", label="P"))
    layer.append(dict(type="point", at=o_prime, r=4.0, style="fill:#3060c0", label="O'"))
    mid = midpoint(P, o_prime)
    layer.append(dict(type="point", at=mid, r=3.0, style="fill:#c03030", label="m"))
    return scene
