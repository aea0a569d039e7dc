"""SVG figures in the disk model: domains, bananas, candidates, solutions.

A figure is a list of ``(layer name, SVG element strings)``; ``edge``,
``curve``, ``point`` and ``label`` each draw one element, and ``render_svg``
joins the layers in order.  Geodesics and hypercycles are true circular arcs
clipped to the unit disk; the disk maps to a fixed square viewport.  Output
is deterministic: floats are formatted with a fixed precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .domain import FundamentalDomain, SidePairing
from .geom import GeneralizedCircle, GeometryError, midpoint
from .search import BananaCurves

SIZE = 800.0
MARGIN = 20.0
R_VIEW = 0.5 * SIZE - MARGIN
# banana families per seed pairing drawn in the bananas figure
BANANA_FAMILIES = 8

Layers = list[tuple[str, Sequence[str]]]


def _fmt(v: float) -> str:
    out = f"{v:.6f}".rstrip("0").rstrip(".")
    return "0" if out == "-0" else out


def _xy(z: complex) -> tuple[float, float]:
    return 0.5 * SIZE + R_VIEW * z.real, 0.5 * SIZE - R_VIEW * z.imag


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


def edge(carrier: GeneralizedCircle, z1: complex, z2: complex, style: str) -> str:
    """The arc of ``carrier`` from z1 to z2."""
    return f'<path d="{_arc_path(carrier, z1, z2)}" fill="none" style="{style}"/>'


def curve(c: GeneralizedCircle, style: str, dashed: bool = False) -> str:
    """The part of c inside the disk, or "" if c misses it."""
    try:
        u, v = c.ideal_points()
    except GeometryError:
        return ""
    if c.kind == "circle":
        # of the two arcs between u and v, draw the one whose midpoint is inside
        a1 = math.atan2(u.imag - c.center.imag, u.real - c.center.real)
        a2 = math.atan2(v.imag - c.center.imag, v.real - c.center.real)
        ccw = (a2 - a1) % (2.0 * math.pi)
        mid = c.center + c.radius * complex(
            math.cos(a1 + 0.5 * ccw), math.sin(a1 + 0.5 * ccw)
        )
        if (abs(mid) < 1.0) != (ccw <= math.pi):
            u, v = v, u
    dash = ' stroke-dasharray="7 5"' if dashed else ""
    return f'<path d="{_arc_path(c, u, v)}" fill="none" style="{style}"{dash}/>'


def point(at: complex, r: float, style: str, label: str = "") -> str:
    """A dot of radius r at ``at``, with ``label`` above and to its right."""
    x, y = _xy(at)
    mark = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" style="{style}"/>'
    if label:
        mark += (
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" '
            f'font-size="13" font-family="sans-serif">{label}</text>'
        )
    return mark


def label(at: complex, text: str, size: int) -> str:
    """``text`` centred on ``at``."""
    x, y = _xy(at)
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="middle">{text}</text>'
    )


_DISK = (
    f'<circle cx="{_fmt(0.5 * SIZE)}" cy="{_fmt(0.5 * SIZE)}" r="{_fmt(R_VIEW)}" '
    'fill="none" stroke="black" stroke-width="1.5"/>'
)


def render_svg(layers: Layers) -> str:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(SIZE)}" '
        f'height="{int(SIZE)}" viewBox="0 0 {int(SIZE)} {int(SIZE)}">',
        f'<rect width="{int(SIZE)}" height="{int(SIZE)}" fill="white"/>',
    ]
    for name, elements in layers:
        parts.append(f'<g id="{name}">')
        parts.extend(e for e in elements if e)
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# the domain whose base was drawn last, with that base (held here, so no
# other object can take F's id): every figure of a run draws over one F,
# so its edges, labels and centers are drawn once
_last_base: tuple[FundamentalDomain | None, Layers] = (None, [])


def scene_base(F: FundamentalDomain | None = None) -> Layers:
    """The disk, and F's edges (internal ones grey), edge numbers and
    centers.  F's layers are drawn on the first call for F and shared, as
    tuples, by every figure drawn over it until another domain is drawn."""
    global _last_base
    layers = [("disk", (_DISK,))]
    if F is None:
        return layers
    if _last_base[0] is not F:
        _last_base = (F, layers + _domain_layers(F))
    return list(_last_base[1])


def _domain_layers(F: FundamentalDomain) -> Layers:
    edges, labels = [], []
    for poly in range(F.k):
        for e in F.edges[poly]:
            style = (
                "stroke:#b0b0b0;stroke-width:0.8"
                if F.is_internal(e.poly, e.edge)
                else "stroke:#202020;stroke-width:1.2"
            )
            edges.append(edge(e.carrier, e.endpoints[0], e.endpoints[1], style))
            mid = 0.5 * (e.endpoints[0] + e.endpoints[1])
            labels.append(label(mid + 0.055 * (F.center(poly) - mid), str(e.edge), 9))
    centers = [point(F.center(p), 2.0, "fill:#404040", f"pol{p + 1}") for p in range(F.k)]
    return [("domain", tuple(edges)), ("edge-labels", tuple(labels)), ("centers", tuple(centers))]


def scene_bananas(F, b1: BananaCurves, b2: BananaCurves) -> Layers:
    """Each seed's axis, dashed, and the curves the search intersects at its
    first BANANA_FAMILIES distances."""
    layers = scene_base(F)
    for name, b, color in (("bananas-p1", b1, "#3060c0"), ("bananas-p2", b2, "#208040")):
        # a family's curves are adjacent, so the families drawn end where one more starts
        starts = np.flatnonzero(np.diff(b.d, prepend=-np.inf))
        stop = starts[BANANA_FAMILIES] if len(starts) > BANANA_FAMILIES else len(b.d)
        thin = f"stroke:{color};stroke-width:0.6"
        axis_curve = curve(b.axis, f"stroke:{color};stroke-width:1.4", dashed=True)
        layers.append((name, [axis_curve] + [curve(b.curve(i), thin) for i in range(stop)]))
    return layers


def scene_candidates(F, points: list[complex], star: complex | None) -> Layers:
    marks = [point(z, 2.2, "fill:#c03030") for z in points]
    if star is not None:
        marks.append(point(star, 4.0, "fill:#e0a000", "*"))
    return scene_base(F) + [("candidates", marks)]


def scene_solution(F, pairings: list[SidePairing]) -> Layers:
    tags = []
    for i, p in enumerate(sorted(pairings, key=SidePairing.sort_key), start=1):
        tag = f"-{i}" if p.reversing else str(i)
        for ref in (p.src, p.dst):
            mid = 0.5 * (ref.endpoints[0] + ref.endpoints[1])
            tags.append(label(mid + 0.09 * (mid - F.center(ref.poly)), tag, 12))
    return scene_base(F) + [("pairing-labels", tags)]


def scene_certificate(F, P: complex, o_prime: complex) -> Layers:
    marks = [
        point(P, 4.0, "fill:#e0a000", "P"),
        point(o_prime, 4.0, "fill:#3060c0", "O'"),
        point(midpoint(P, o_prime), 3.0, "fill:#c03030", "m"),
    ]
    return scene_base(F) + [("certificate", marks)]
