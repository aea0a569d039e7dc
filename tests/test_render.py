import json

import pytest

import reference_data
from diskpack import pipeline, render
from diskpack.cli import main
from diskpack.config import load_config
from diskpack.geom import GeneralizedCircle, geodesic_through
from diskpack.render import (
    BANANA_FAMILIES,
    curve,
    render_svg,
    scene_bananas,
    scene_base,
    scene_candidates,
    scene_solution,
)
from diskpack.search import banana_curves


def test_empty_scene_is_disk_boundary_only():
    svg = render_svg(scene_base())
    assert svg.startswith('<?xml version="1.0"')
    assert svg.count("<circle") == 1
    assert "<path" not in svg
    assert svg.rstrip().endswith("</svg>")


def test_render_is_deterministic():
    g = geodesic_through(0.3 + 0.1j, -0.2 + 0.4j)
    layers = scene_base() + [("extra", [curve(g, "stroke:#3060c0;stroke-width:0.8")])]
    assert render_svg(layers) == render_svg(layers)


def test_domain_scene_structure(n14):
    svg = render_svg(scene_base(n14.F))
    # 42 edges drawn as paths plus the disk circle and three center marks
    assert svg.count('<path d="M') == 42
    assert svg.count("pol1") == 1 and svg.count("pol3") == 1


def test_domain_scene_golden_stable(n14):
    a = render_svg(scene_base(n14.F))
    b = render_svg(scene_base(n14.F))
    assert a == b


def test_candidate_scene_marks_star(n14):
    svg = render_svg(scene_candidates(n14.F, [0.1 + 0.2j], star=0.3 - 0.1j))
    assert svg.count('style="fill:#e0a000"') == 1


def test_solution_scene_marks_reversing_with_minus(n14, n14_solution):
    svg = render_svg(scene_solution(n14.F, list(n14_solution.reference.pairings)))
    minus_tags = [i for i in range(1, 19) if f">-{i}</text>" in svg]
    # the reference set has four orientation-reversing identifications, each
    # labeled at both of its edges
    assert len(minus_tags) == 4
    for i in minus_tags:
        assert svg.count(f">-{i}</text>") == 2


def test_diameter_renders_as_line():
    assert " L " in curve(GeneralizedCircle.line(1j, 0.0), "stroke:#000")


def test_arc_inside_disk():
    # the rendered arc of a geodesic must pick the branch through the disk
    A = geodesic_through(0.5 + 0j, 0.0 + 0.5j)
    assert " A " in curve(A, "stroke:#000")


def test_curve_missing_the_disk_draws_nothing():
    svg = render_svg([("g", [curve(GeneralizedCircle.circle(3.0 + 0j, 0.5), "stroke:#000")])])
    assert '<g id="g">\n</g>' in svg


def test_all_path_anchor_points_inside_viewport(n14):
    import re

    svg = render_svg(scene_base(n14.F))
    for d in re.findall(r' d="([^"]+)"', svg):
        tokens = d.replace("M", " ").replace("A", " ").replace("L", " ").split()
        # move-to and end-point coordinates are the trailing pairs around
        # the arc parameters; just check every numeric token is finite and
        # the explicit anchors stay in the viewport
        coords = [float(t) for t in tokens]
        x0, y0, x1, y1 = coords[0], coords[1], coords[-2], coords[-1]
        for v in (x0, y0, x1, y1):
            assert -1.0 <= v <= 801.0


def test_bananas_figure_needs_only_the_families_it_draws(n14, tmp_path):
    # the pipeline draws the curves the search intersects, and of them the
    # figure draws each seed's axis and the curves of its first
    # BANANA_FAMILIES distances
    curves = [banana_curves(p, n14.dset, n14.F) for p in (n14.p1, n14.p2)]
    cfg = load_config("configs/n14.json")
    res = pipeline.SeedPairResult(n14.p1, n14.p2, n14.C)
    pipeline._write_seed_pair(cfg, n14.F, n14.L, n14.dset, res, str(tmp_path))
    written = (tmp_path / "bananas.svg").read_text(encoding="utf-8")
    layers = scene_bananas(n14.F, *curves)
    assert written == render_svg(layers)
    for b, (_, drawn) in zip(curves, layers[-2:]):
        families = sorted(set(b.d.tolist()))
        assert len(families) > BANANA_FAMILIES
        first = [d for d in b.d.tolist() if d <= families[BANANA_FAMILIES - 1]]
        assert len(drawn) == 1 + len(first) and all(drawn)


# each figure and the scene function the pipeline draws it with
_FIGURES = {
    "domain.svg": "scene_base",
    "bananas.svg": "scene_bananas",
    "candidates.svg": "scene_candidates",
    "solution.svg": "scene_solution",
    "certificate.svg": "scene_certificate",
}


@pytest.mark.parametrize(
    "config",
    ["configs/n14.json", {"n": 12, "attachments": [], "limit": 16}],
    ids=["n14-depth3", "one-tile-auto"],
)
def test_figures_match_the_item_dict_renderer(config, tmp_path, monkeypatch):
    # every figure a run writes is the text the Scene renderer, which stored
    # each drawn item as a dict, gives for the same arguments; the bananas
    # figure's, for the seed pairings and distances its curves came from
    expected, seeds = {}, {}

    def building(p, dset, F, _build=pipeline.banana_curves):
        b = _build(p, dset, F)
        seeds[id(b)] = (p, dset)
        return b

    monkeypatch.setattr(pipeline, "banana_curves", building)
    for figure, name in _FIGURES.items():

        def recording(*args, _figure=figure, _name=name, _draw=getattr(render, name)):
            oracle = getattr(reference_data, f"reference_{_name}")
            given = args
            if _name == "scene_bananas":
                F, b1, b2 = args
                (p1, dset), (p2, _) = seeds[id(b1)], seeds[id(b2)]
                given = (F, p1, p2, dset)
            expected[_figure] = reference_data.reference_render_svg(oracle(*given))
            return _draw(*args)

        monkeypatch.setattr(render, name, recording)
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        config = str(path)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--depth", "3", "--out", str(out)]) == 0
    assert sorted(expected) == sorted(_FIGURES)
    for figure, text in expected.items():
        assert (out / figure).read_text(encoding="utf-8") == text


def test_a_run_draws_the_base_once(tmp_path, monkeypatch):
    # the disk, F's edges, their labels and the tile centers are drawn for
    # domain.svg and shared by the other four figures
    drawn = []

    def counting(F, _draw=render._domain_layers):
        drawn.append(F)
        return _draw(F)

    monkeypatch.setattr(render, "_domain_layers", counting)
    out = tmp_path / "out"
    assert main(["run", "--config", "configs/n14.json", "--depth", "3", "--out", str(out)]) == 0
    assert len(drawn) == 1
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(_FIGURES)
    # a figure gets its own list of the shared layers, which are tuples
    F = drawn[0]
    a, b = scene_base(F), scene_base(F)
    assert a == b and a is not b and all(type(elements) is tuple for _, elements in a)
    assert len(drawn) == 1
