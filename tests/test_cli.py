import contextlib
import io
import json
import os

import pytest

from diskpack.cli import main
from diskpack.config import load_config
from diskpack.geom import Isometry
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
def depth5_run(n14_cfg_path):
    """The shipped config's run: its output directory and its stderr log."""
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        assert main(["run", "--config", n14_cfg_path]) == 0
    return os.path.join(os.path.dirname(n14_cfg_path), "out"), log.getvalue()


@pytest.fixture(scope="module")
def completed_run(depth5_run):
    return depth5_run[0]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
        doc = _read_json(os.path.join(completed_run, f"{name}.json"))
        assert doc["stage"] == name
        assert len(doc["config_hash"]) == 16
        assert doc["tolerances"]["match_tol"] == 1e-4
        assert doc["depth"] == 5


def test_certificate_artifact_passes(completed_run):
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    assert cert["passed"] and cert["normalizes"]
    assert cert["swap_residual"] <= cert["swap_tol"]
    assert len(cert["memberships"]) == 36


def test_verify_subcommand(n14_cfg_path, completed_run, capsys):
    assert main(["verify", "--config", n14_cfg_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["problems"] == []


def test_verify_detects_tampering(completed_run, tmp_path):
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    cert["memberships"][3]["word"] = cert["memberships"][3]["word"][:-1]
    bad = tmp_path / "certificate.json"
    bad.write_text(json.dumps(cert))
    ok, problems = verify_certificate_file(str(bad))
    assert not ok and problems


def _forged(completed_run, tmp_path, forge):
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    forge(cert)
    out = tmp_path / "forged"
    out.mkdir()
    (out / "certificate.json").write_text(json.dumps(cert))
    return str(out)


def test_verify_rejects_generators_that_are_not_the_pairings(completed_run, tmp_path):
    # tau and its inverse normalize the group they generate, with one-letter
    # words; only the link to the embedded solution exposes the forgery
    def forge(cert):
        tau = Isometry.from_json(cert["tau"])
        cert["generators"] = [
            {"label": "t", **tau.to_json()},
            {"label": "t'", **tau.inverse().to_json()},
        ]
        cert["memberships"] = [
            {**cert["memberships"][i], "generator": i, "word": [i]} for i in (0, 1)
        ]

    out = _forged(completed_run, tmp_path, forge)
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok
    assert any("side pairings" in p for p in problems)


def test_verify_rejects_an_edge_paired_twice(completed_run, tmp_path):
    def forge(cert):
        pairings = cert["solution"]["pairings"]
        pairings[1]["src"] = dict(pairings[0]["src"])

    out = _forged(completed_run, tmp_path, forge)
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok
    assert any("paired twice" in p for p in problems)


def test_verify_checks_the_config_hash(n14_cfg_path, completed_run, tmp_path, capsys):
    def forge(cert):
        cert["config_hash"] = "0" * 16

    out = _forged(completed_run, tmp_path, forge)
    path = os.path.join(out, "certificate.json")
    assert verify_certificate_file(path) == (True, [])  # no hash to compare with
    expected = load_config(n14_cfg_path).config_hash()
    ok, problems = verify_certificate_file(path, config_hash=expected)
    assert not ok and "config hash" in problems[0]
    assert main(["verify", "--config", n14_cfg_path, "--out", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda c: c["memberships"][0].update(generator=99), "generator 99"),
        (lambda c: c["memberships"][5]["word"].append(99), "not a list of generator indices"),
        (lambda c: c["memberships"][5]["word"].append(-1), "not a list of generator indices"),
        (lambda c: c["memberships"][5].update(word=7), "not a list of generator indices"),
        (lambda c: c.pop("solution"), "lacks solution"),
        (lambda c: c.pop("tau"), "lacks tau"),
        (lambda c: c["solution"].pop("pairings"), "KeyError: 'pairings'"),
        (lambda c: c["generators"][3].pop("matrix"), "KeyError: 'matrix'"),
        (lambda c: c["tau"].update(matrix=[[1, 0], [1, 0], [1, 0], [1, 0]]), "GeometryError"),
        (lambda c: c.update(memberships=5), "TypeError"),
        (lambda c: c["memberships"].__setitem__(1, c["memberships"][0]), "every generator"),
    ],
    ids=[
        "generator-99", "word-index-99", "word-index-negative", "word-not-a-list",
        "no-solution", "no-tau", "no-solution-pairings", "no-generator-matrix",
        "singular-tau", "memberships-not-a-list", "generator-listed-twice",
    ],
)
def test_verify_reports_malformed_certificates(
    n14_cfg_path, completed_run, tmp_path, capsys, forge, message
):
    out = _forged(completed_run, tmp_path, forge)
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok and any(message in p for p in problems)
    assert main(["verify", "--config", n14_cfg_path, "--out", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and any(message in p for p in report["problems"])


def test_solutions_json_decodes_to_the_certified_solution(completed_run):
    # schema 2: pairings index pairings.json, vertex cycles index "vertices"
    def load(name):
        with open(os.path.join(completed_run, name), encoding="utf-8") as fh:
            return json.load(fh)

    sols, L, cert = load("solutions.json"), load("pairings.json"), load("certificate.json")
    assert sols["schema_version"] == 2
    assert os.path.getsize(os.path.join(completed_run, "solutions.json")) < 2_000_000
    vertices = sols["vertices"]

    def decode(s):
        return {
            "pairings": [L["pairings"][i] for i in s["pairings"]],
            "reversing_count": s["reversing_count"],
            "vertex_cycles": [
                {
                    "vertices": [vertices[v] for v in c["vertices"]],
                    "angle_sum": c["angle_sum"],
                }
                for c in s["vertex_cycles"]
            ],
            "topology": s["topology"],
        }

    (entry,) = [c for c in sols["candidates"] if c["point"] == cert["candidate"]]
    embedded = cert["solution"]
    hits = [
        d
        for d in map(decode, entry["solutions"])
        if d["pairings"] == embedded["pairings"]
    ]
    assert len(hits) == 1
    assert hits[0] == embedded


def test_distances_subcommand(n14_cfg_path, capsys):
    assert main(["distances", "--config", n14_cfg_path]) == 0
    assert "admissible distances" in capsys.readouterr().out


def test_seed_flags_in_the_opposite_direction(n14_cfg_path, completed_run, tmp_path):
    # the config names p1 as 1.13 -> 1.10; named 1.10 -> 1.13 (and p2 the
    # other way too) it is the same entry of L, so the run is the same
    out = str(tmp_path / "flipped")
    args = [
        "run", "--config", n14_cfg_path, "--out", out,
        "--seed-src", "1.10,2.7", "--seed-dst", "1.13,1.2", "--seed-reversing", "1,0",
    ]
    assert main(args) == 0
    for name in ("certificate.json", "candidates.json"):
        with open(os.path.join(completed_run, name), encoding="utf-8") as fh:
            before = json.load(fh)
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            after = json.load(fh)
        assert before.pop("config_hash") != after.pop("config_hash")
        assert after == before
    # seed records are written in L's direction, smaller edge key first
    assert after["seed_pair"] == [[True, 0, 10, 0, 13], [False, 0, 2, 1, 7]]


def test_search_subcommand_stops_before_the_certificate(n14_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["search", "--config", n14_cfg_path, "--depth", "3", "--out", out]) == 0
    names = set(os.listdir(out))
    assert {"solutions.json", "solution.svg"} <= names
    assert "certificate.json" not in names
    line = "completion: 3 survivors, 1 search, 2 carried by symmetry (group of order 6)"
    assert line in capsys.readouterr().err.splitlines()


def test_render_subcommand_writes_the_figures(n14_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["render", "--config", n14_cfg_path, "--depth", "3", "--out", out]) == 0
    assert {"domain.svg", "bananas.svg", "candidates.svg"} <= set(os.listdir(out))
    assert "figures" in capsys.readouterr().out


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


def test_orientable_config_exits_1(tmp_path, capsys):
    path = tmp_path / "orientable.json"
    path.write_text(json.dumps({"n": 12, "attachments": [[0, 0]], "orientable": True}))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "config" and "non-orientable" in err["error"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("tol", ["0", "-1e-4", "nan", "inf"])
def test_run_rejects_a_bad_tol(n14_cfg_path, tmp_path, tol, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--config", n14_cfg_path, f"--tol={tol}", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "config" and "match_tol" in err["error"]
    assert not os.path.exists(out)


def test_exhausted_search_exits_2(tmp_path):
    cfg = load_config("configs/n14.json")
    cfg.depth = 1  # only the trivial distances: no candidate can cover F
    cfg.out_dir = str(tmp_path / "out")
    assert run_pipeline(cfg) == 2


def test_missing_seed_flags_rejected(n14_cfg_path):
    assert (
        main(["candidates", "--config", n14_cfg_path, "--seed-src", "1.13,1.2"]) == 1
    )


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--seed-src", "1.x,1.2", "'1.x'"),
        ("--seed-src", "1,1.2", "'1'"),
        ("--seed-src", "1.13,1.2.3", "'1.2.3'"),
        ("--seed-dst", "1.10,", "''"),
        ("--seed-reversing", "2,0", "'2'"),
        ("--seed-reversing", "1,maybe", "'maybe'"),
    ],
)
def test_malformed_seed_flags_exit_1(n14_cfg_path, tmp_path, flag, value, named, capsys):
    seeds = {"--seed-src": "1.13,1.2", "--seed-dst": "1.10,2.7", "--seed-reversing": "1,0"}
    seeds[flag] = value
    out = str(tmp_path / "out")
    args = ["candidates", "--config", n14_cfg_path, "--out", out]
    for name, text in seeds.items():
        args.append(f"{name}={text}")
    assert main(args) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["stage"] == "config" and named in err["error"]
    assert not os.path.exists(out)


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
    # a record and its flip name the same entry of L: no second seed
    cfg = load_config("configs/n14.json")
    cfg.seed_pairs = [(True, 0, 13, 0, 10), (True, 0, 10, 0, 13)]
    cfg.out_dir = str(tmp_path / "out")
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["run", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["stage"] == "candidates"


def test_run_reports_certificate_attempts(n14_cfg_path, depth5_run, tmp_path, capsys):
    # survivors are tried nearest O' first, and the certified candidate is
    # the nearest: it passes at its 5th solution at depth 5, its 3rd at depth 3
    assert depth5_run[1].splitlines()[-1] == (
        "certificate passed at 0.515985-0.248485j (genus 6, chi -4) after 5 attempts"
    )
    out = str(tmp_path / "out")
    assert main(["run", "--config", n14_cfg_path, "--depth", "3", "--out", out]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == (
        "certificate passed at 0.515985-0.248485j (genus 6, chi -4) after 3 attempts"
    )
    # one solution per survivor: three attempts, none passes
    args = ["run", "--config", n14_cfg_path, "--depth", "3", "--limit", "1", "--out", out]
    assert main(args) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "no certificate for this seed pair after 3 attempts"
    )


def test_run_reports_completion(depth5_run):
    out, log = depth5_run
    line = "completion: 3 survivors, 1 search, 2 carried by symmetry (group of order 6)"
    assert line in log.splitlines()
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            text = fh.read()
        assert b"carried" not in text and b"symmetry" not in text
