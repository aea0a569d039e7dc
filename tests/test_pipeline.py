import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_data
from diskpack import pipeline
from diskpack.config import load_config
from diskpack.domain import (
    FundamentalDomain,
    MapArrays,
    PairingTable,
    enumerate_pairings,
    pairing_edges,
)
from diskpack.pipeline import (
    candidate_lines,
    distance_lines,
    filtering_lines,
    pairing_lines,
    write_json,
)
from diskpack.search import Candidate, candidates
from diskpack.tess import admissible_distances

PAYLOAD = {
    "stage": "test",
    "floats": [0.1 + 0.2, 5e-324, 1e300, -0.0, 1.0],
    "name": "polé → τ",
    "empty": [],
    "nested": {"b": {"d": [1, 2], "c": None}, "a": True},
    "records": [{"z": 1, "a": [0.5, -0.25]}, {"m": "x"}, {}],
    "count": 3,
}


def test_write_json_round_trips_and_lays_out_one_record_per_line(tmp_path):
    path = tmp_path / "artifact.json"
    write_json(str(path), PAYLOAD)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc == PAYLOAD
    assert [repr(x) for x in doc["floats"]] == [repr(x) for x in PAYLOAD["floats"]]

    text = path.read_text(encoding="utf-8")
    assert text.isascii() and text.endswith("}\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    # a key line is indented one space, a list element two
    keys = [json.loads(line.split(": ", 1)[0]) for line in lines if line[:2] == ' "']
    assert keys == sorted(PAYLOAD)
    assert ' "empty": [],' in lines
    assert ' "count": 3,' in lines
    for key in ("floats", "records"):
        start = lines.index(f' "{key}": [')
        items = lines[start + 1 : start + 1 + len(PAYLOAD[key])]
        assert all(line.startswith("  ") and line[2] != " " for line in items)
        assert [json.loads(line.strip().rstrip(",")) for line in items] == PAYLOAD[key]
        assert lines[start + 1 + len(PAYLOAD[key])] in (" ]", " ],")
    # a nested dict stays on its key's line, its keys sorted
    assert ' "nested": {"a": true, "b": {"c": null, "d": [1, 2]}},' in lines


# the artifacts whose one long list comes as encoded lines
LINE_ARTIFACTS = ("distances.json", "pairings.json", "candidates.json", "filtering.json")


def test_depth3_artifacts_decode_to_the_payloads_written(tmp_path, monkeypatch):
    written = {}

    def recording(path, payload):
        written[path] = payload
        write_json(path, payload)

    monkeypatch.setattr(pipeline, "write_json", recording)
    cfg = load_config("configs/n14.json")
    cfg.depth = 3
    cfg.out_dir = str(tmp_path / "out")
    assert pipeline.run_pipeline(cfg) == pipeline.EXIT_OK
    names = sorted(os.path.basename(path) for path in written)
    assert names == sorted(
        f"{stage}.json"
        for stage in (
            "distances", "domain", "pairings", "candidates", "filtering",
            "solutions", "certificate",
        )
    )
    for path, payload in written.items():
        # a list the stages give as encoded lines decodes line by line
        decoded = {
            key: [json.loads(line) for line in value] if isinstance(value, pipeline.Lines) else value
            for key, value in payload.items()
        }
        assert sum(isinstance(v, pipeline.Lines) for v in payload.values()) == (
            os.path.basename(path) in LINE_ARTIFACTS
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == decoded
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # one line per element of every non-empty top-level list
        lists = sum(len(v) + 2 for v in payload.values() if isinstance(v, list) and v)
        others = sum(1 for v in payload.values() if not (isinstance(v, list) and v))
        assert len(lines) == 2 + lists + others


def _depth3_run(out_dir: str) -> list[str]:
    cfg = load_config("configs/n14.json")
    cfg.depth = 3
    cfg.out_dir = out_dir
    log: list[str] = []
    assert pipeline.run_pipeline(cfg, progress=log.append) == pipeline.EXIT_OK
    return log


def test_one_search_per_survivor_writes_the_same_artifacts(tmp_path, monkeypatch):
    orbit = _depth3_run(str(tmp_path / "orbit"))
    # with the identity as the only symmetry, every survivor is searched
    group = FundamentalDomain.__dict__["symmetries"].func
    monkeypatch.setattr(FundamentalDomain, "symmetries", property(lambda F: group(F)[:1]))
    alone = _depth3_run(str(tmp_path / "alone"))
    assert "completion: 3 survivors, 1 search, 2 carried by symmetry (group of order 6)" in orbit
    assert "completion: 3 survivors, 3 searches, 0 carried by symmetry (group of order 1)" in alone
    assert orbit[-1] == alone[-1]
    names = sorted(os.listdir(tmp_path / "orbit"))
    assert names == sorted(os.listdir(tmp_path / "alone"))
    assert {"solutions.json", "certificate.json", "solution.svg"} <= set(names)
    for name in names:
        assert (tmp_path / "orbit" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


# -- the record formatters against the dict records and the line-by-line
# -- writer they replaced (tests/reference_data.py)


@pytest.fixture(scope="module")
def n14_payloads(n14):
    """Per depth, 3 and 5: the distances, the candidates and their filtering items."""
    out = {}
    for depth in (3, 5):
        dset = n14.dset if depth == 5 else admissible_distances(14, depth)
        C = n14.C if depth == 5 else candidates(n14.p1, n14.p2, dset, n14.F)
        items = pipeline.filter_candidates(None, n14.F, n14.L, dset, C)
        out[depth] = SimpleNamespace(dset=dset, C=C, items=items)
    return out


def _encoded(records) -> list[str]:
    return [reference_data._encode(r) for r in records]


def _arrays(C) -> tuple[np.ndarray, np.ndarray]:
    points = np.array([c.point for c in C], dtype=complex)
    return points, np.array([c.seed_distances for c in C], dtype=float).reshape(-1, 2)


@pytest.mark.parametrize("depth", [3, 5])
def test_formatters_write_the_encoders_lines(n14, n14_payloads, depth, tmp_path):
    got = n14_payloads[depth]
    points, seeds = _arrays(got.C)
    lines = {
        "values": distance_lines(got.dset.values),
        "pairings": pairing_lines(n14.L),
        "candidates": candidate_lines(points, seeds),
        "filtering": filtering_lines(points, got.items),
    }
    records = {
        "values": reference_data.reference_distance_values(got.dset),
        "pairings": reference_data.reference_pairing_rows(n14.L),
        "candidates": reference_data.reference_candidate_records(got.C),
        "filtering": reference_data.reference_filtering_records(got.items),
    }
    for key, value in lines.items():
        assert isinstance(value, pipeline.Lines)
        assert value == _encoded(records[key]), key
    # and whole files, next to values the C encoder writes
    header = {"stage": "test", "depth": depth, "seed_pair": [[True, 0, 13, 0, 10]], "none": []}
    write_json(str(tmp_path / "lines.json"), {**header, **lines, "empty": pipeline.Lines()})
    reference_data.reference_write_json(str(tmp_path / "records.json"), {**header, **records, "empty": []})
    assert (tmp_path / "lines.json").read_bytes() == (tmp_path / "records.json").read_bytes()


@pytest.mark.parametrize("depth", [3, 5])
def test_filtering_matches_the_candidate_loop(n14, n14_payloads, depth):
    # L_c and the uncovered edges cut from one nonzero each, and is_center
    # for all candidates at once, give the loop's items; a plain list of
    # L's entries looks each entry's edges up
    got = n14_payloads[depth]
    want = reference_data.reference_filter_candidates(n14.F, n14.L, got.dset, got.C)
    plain = pipeline.filter_candidates(None, n14.F, list(n14.L), got.dset, got.C)
    for items in (got.items, plain):
        assert len(items) == len(want)
        for it, ref in zip(items, want):
            assert sorted(it) == sorted(ref) and it["candidate"] is ref["candidate"]
            assert it["Lc"].dtype == ref["Lc"].dtype and np.array_equal(it["Lc"], ref["Lc"])
            assert type(it["is_center"]) is bool and type(it["covered"]) is bool
            for key in ("covered", "uncovered", "is_center"):
                assert it[key] == ref[key], key
    assert sum(it["covered"] for it in want) > 0


def test_the_edge_incidence_is_built_once_on_first_read(n14):
    # set-up builds no incidence; filtering's first read builds it from the
    # entries' src and dst, and the table keeps it
    L = enumerate_pairings(n14.F)
    assert "edges" not in vars(L)
    edges = pairing_edges(L, n14.F)
    assert pairing_edges(L, n14.F) is edges and vars(L)["edges"] is edges
    at = {e.key: i for i, e in enumerate(n14.F.boundary)}
    assert edges.tolist() == [[at[p.src.key], at[p.dst.key]] for p in L]
    assert np.array_equal(pairing_edges(list(L), n14.F), edges)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e300, 0.1 + 0.2, 1.0, 2.0**53]),
)


@settings(max_examples=80, deadline=None)
@given(
    xs=st.lists(_FLOATS, min_size=0, max_size=12),
    ys=st.lists(_FLOATS, min_size=12, max_size=12),
    ds=st.lists(_FLOATS, min_size=24, max_size=24),
    flags=st.lists(st.booleans(), min_size=12, max_size=12),
    counts=st.lists(st.integers(0, 40), min_size=12, max_size=12),
)
def test_formatters_write_any_finite_float_as_the_encoder(n14, xs, ys, ds, flags, counts):
    C = [Candidate(complex(x, y), (d1, d2)) for x, y, d1, d2 in zip(xs, ys, ds[::2], ds[1::2])]
    points, seeds = _arrays(C)
    items = [
        {
            "candidate": c,
            "Lc": np.arange(n),
            "is_center": flag,
            "uncovered": [(n % 3, n), (2, 13)][: n % 3],
        }
        for c, flag, n in zip(C, flags, counts)
    ]
    assert distance_lines(ds) == _encoded(ds)
    assert candidate_lines(points, seeds) == _encoded(reference_data.reference_candidate_records(C))
    assert filtering_lines(points, items) == _encoded(reference_data.reference_filtering_records(items))
    k = len(xs)
    arrays = MapArrays(
        points, np.array(ds[:k]) + 1j * np.array(ds[-k:] if k else []), n14.L.arrays.reversing[:k], None
    )
    L = PairingTable(list(n14.L[:k]), arrays, n14.F.boundary)
    assert pairing_lines(L) == _encoded(reference_data.reference_pairing_rows(L))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_formatters_reject_a_float_that_is_not_finite(n14, bad):
    C = [Candidate(0.1 + 0.2j, (1.0, 2.0)), Candidate(complex(0.3, bad), (1.0, 2.0))]
    points, seeds = _arrays(C)
    items = [{"candidate": c, "Lc": np.arange(2), "is_center": False, "uncovered": []} for c in C]
    with pytest.raises(ValueError, match="not finite"):
        distance_lines([0.0, bad])
    with pytest.raises(ValueError, match="not finite"):
        candidate_lines(points, seeds)
    with pytest.raises(ValueError, match="not finite"):
        candidate_lines(points.real.astype(complex), np.array([[1.0, bad], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="not finite"):
        filtering_lines(points, items)
    arrays = MapArrays(points, points.real.astype(complex), n14.L.arrays.reversing[:2], None)
    with pytest.raises(ValueError, match="not finite"):
        pairing_lines(PairingTable(list(n14.L[:2]), arrays, n14.F.boundary))
