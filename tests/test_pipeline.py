import json
import os

from diskpack import pipeline
from diskpack.config import load_config
from diskpack.domain import FundamentalDomain
from diskpack.pipeline import write_json

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
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == payload
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
