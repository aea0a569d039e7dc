import json
import os

import pytest

from diskpack.cli import main
from diskpack.config import load_config
from diskpack.pipeline import run_pipeline, verify_certificate_file


@pytest.fixture(scope="module")
def n14_cfg_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = load_config("configs/n14.json")
    cfg.out_dir = str(base / "out")
    path = base / "n14.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def completed_run(n14_cfg_path):
    assert main(["run", "--config", n14_cfg_path]) == 0
    return os.path.join(os.path.dirname(n14_cfg_path), "out")


def test_run_writes_all_artifacts(completed_run):
    names = {
        "distances.json", "domain.json", "pairings.json", "candidates.json",
        "filtering.json", "solutions.json", "certificate.json",
        "domain.svg", "bananas.svg", "candidates.svg", "solution.svg",
        "certificate.svg",
    }
    assert names <= set(os.listdir(completed_run))


def test_artifacts_embed_provenance(completed_run):
    for name in ("distances", "candidates", "certificate"):
        doc = json.load(open(os.path.join(completed_run, f"{name}.json")))
        assert doc["stage"] == name
        assert len(doc["config_hash"]) == 16
        assert doc["tolerances"]["match_tol"] == 1e-4
        assert doc["depth"] == 5


def test_certificate_artifact_passes(completed_run):
    cert = json.load(open(os.path.join(completed_run, "certificate.json")))
    assert cert["passed"] and cert["normalizes"]
    assert cert["swap_residual"] <= cert["swap_tol"]
    assert len(cert["memberships"]) == 36


def test_verify_subcommand(n14_cfg_path, completed_run, capsys):
    assert main(["verify", "--config", n14_cfg_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["problems"] == []


def test_verify_detects_tampering(completed_run, tmp_path):
    cert = json.load(open(os.path.join(completed_run, "certificate.json")))
    cert["memberships"][3]["word"] = cert["memberships"][3]["word"][:-1]
    bad = tmp_path / "certificate.json"
    bad.write_text(json.dumps(cert))
    ok, problems = verify_certificate_file(str(bad))
    assert not ok and problems


def test_distances_subcommand(n14_cfg_path, capsys):
    assert main(["distances", "--config", n14_cfg_path]) == 0
    assert "admissible distances" in capsys.readouterr().out


def test_candidates_subcommand_with_seed_flags(n14_cfg_path, capsys):
    code = main(
        [
            "candidates",
            "--config", n14_cfg_path,
            "--seed-src", "1.13,1.2",
            "--seed-dst", "1.10,2.7",
            "--seed-reversing", "1,0",
        ]
    )
    assert code == 0
    assert "candidates" in capsys.readouterr().out


def test_bad_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 13}))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "config"


def test_exhausted_search_exits_2(tmp_path):
    cfg = load_config("configs/n14.json")
    cfg.depth = 1  # only the trivial distances: no candidate can cover F
    cfg.out_dir = str(tmp_path / "out")
    assert run_pipeline(cfg) == 2


def test_missing_seed_flags_rejected(n14_cfg_path):
    assert (
        main(["candidates", "--config", n14_cfg_path, "--seed-src", "1.13,1.2"]) == 1
    )


def test_primitive_pair_subcommand(capsys):
    assert main(["primitive-pair", "14"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 14, "k": 3, "genus": 6}


def test_auto_mode_iterates_pairs_in_order(n14):
    from diskpack.pipeline import _seed_pair_iter

    it = _seed_pair_iter(n14.L)
    first = next(it)
    second = next(it)
    assert first == (n14.L[0], n14.L[1])
    assert second == (n14.L[0], n14.L[2])


def test_degenerate_explicit_seeds_exit_1(tmp_path, capsys):
    # a pairing and its inverse share every displacement curve
    cfg = load_config("configs/n14.json")
    cfg.seed_pairs = [(True, 0, 13, 0, 10), (True, 0, 10, 0, 13)]
    cfg.out_dir = str(tmp_path / "out")
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["stage"] == "candidates"
