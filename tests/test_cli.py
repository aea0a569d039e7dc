import contextlib
import io
import json
import math
import os

import pytest

from diskpack import group, pipeline, render, search
from diskpack.cli import main
from diskpack.config import PipelineConfig, load_config
from diskpack.domain import find_pairing
from diskpack.geom import dist, elliptic_about, geodesic_reflection, geodesic_through, midpoint
from diskpack.group import SWAP_TOL, WORD_TOL, swapping_half_turn
from diskpack.pipeline import (
    run_pipeline,
    stage_domain,
    stage_pairings,
    verify_certificate_file,
)


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
    assert cert["passed"] is True
    # one membership per generator, in generator order, with the word's
    # residual beside it
    assert len(cert["memberships"]) == 36
    assert all(sorted(m) == ["residual", "word"] for m in cert["memberships"])
    # the config it was made by, which hashes to its header's config_hash;
    # O' is that config's second-neighbor center and is not stored
    made_by = PipelineConfig.from_json_dict(cert["config"])
    assert made_by.config_hash() == cert["config_hash"]
    assert "o_prime" not in cert
    P, o_prime = complex(*cert["candidate"]), group.second_neighbor_center(stage_domain(made_by))
    assert dist(swapping_half_turn(P, o_prime)(P), o_prime) <= SWAP_TOL


def test_verify_subcommand(n14_cfg_path, completed_run, capsys):
    assert main(["verify", "--config", n14_cfg_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["problems"] == []
    # without a config, from the config the certificate carries
    assert verify_certificate_file(os.path.join(completed_run, "certificate.json")) == (True, [])


def test_verify_reports_a_missing_certificate_and_creates_nothing(n14_cfg_path, tmp_path, capsys):
    out = tmp_path / "absent" / "sub"
    ok, problems = verify_certificate_file(str(out / "certificate.json"))
    assert not ok and "cannot be read: FileNotFoundError" in problems[0]
    assert main(["verify", "--config", n14_cfg_path, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False and report["problems"] == problems
    assert captured.err == ""
    assert not (tmp_path / "absent").exists()


def test_verify_detects_tampering(completed_run, tmp_path):
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    cert["memberships"][3]["word"] = cert["memberships"][3]["word"][:-1]
    bad = tmp_path / "certificate.json"
    bad.write_text(json.dumps(cert))
    ok, problems = verify_certificate_file(str(bad))
    assert not ok and problems


def _forged(completed_run, tmp_path, forge):
    """A copy of the run's certificate edited by ``forge``; a forge that
    returns a string gives the file's text instead."""
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    text = forge(cert)
    out = tmp_path / "forged"
    out.mkdir()
    (out / "certificate.json").write_text(text if isinstance(text, str) else json.dumps(cert))
    return str(out)


def _rejected(n14_cfg_path, out, capsys, message):
    """verify_certificate_file rejects the certificate in ``out`` naming
    ``message``, with the config and without one, and so does `verify`;
    returns the problems found with the config."""
    path = os.path.join(out, "certificate.json")
    reports = [verify_certificate_file(path), verify_certificate_file(path, load_config(n14_cfg_path))]
    for ok, problems in reports:
        assert not ok and any(message in p for p in problems), (message, problems)
    assert main(["verify", "--config", n14_cfg_path, "--out", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["problems"] == reports[1][1]
    return reports[1][1]


# what verify says of pairing records that do not glue F
_NOT_GLUED = "the pairings do not glue F"


def test_verify_rejects_an_edge_paired_twice(n14_cfg_path, completed_run, tmp_path, capsys):
    def forge(cert):
        pairings = cert["solution"]["pairings"]
        pairings[1]["src"] = dict(pairings[0]["src"])

    out = _forged(completed_run, tmp_path, forge)
    _rejected(n14_cfg_path, out, capsys, _NOT_GLUED)


@pytest.mark.parametrize(
    "forge, message",
    [(lambda cert: cert.update(passed="false"), "certificate is marked failed")],
    ids=["passed"],
)
def test_verify_requires_json_true_flags(completed_run, tmp_path, forge, message):
    # "false" is a truthy string: only JSON true passes the flag
    out = _forged(completed_run, tmp_path, forge)
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok
    assert any(message in p for p in problems)


def _no_reversing_pairing(solution):
    for p in solution["pairings"]:
        p["reversing"] = False


# the embedded config's topology is not the forged one
_TOPOLOGY = "is not the embedded config's"


@pytest.mark.parametrize(
    "forge, messages",
    [
        # 3 pairings kept, genus 99 and chi 7: the solution cut short and
        # counts that no gluing of three 14-gons gives
        (
            lambda s: (
                s.update(pairings=s["pairings"][:3]),
                s["topology"].update(genus=99, euler_characteristic=7),
            ),
            [_NOT_GLUED, _TOPOLOGY],
        ),
        # every record names its edges' conformal matching instead: each
        # is in L, but a gluing needs a reversing pairing
        (_no_reversing_pairing, [_NOT_GLUED]),
        (lambda s: s["topology"].update(genus=7), [_TOPOLOGY]),
        (lambda s: s["topology"].update(orientable=True), [_TOPOLOGY]),
        (lambda s: s["topology"].update(faces="3"), [_TOPOLOGY]),
        # equal in Python, but not the JSON false and integer the config gives
        (lambda s: s["topology"].update(orientable=0, faces=3.0), [_TOPOLOGY]),
    ],
    ids=[
        "cut-cycles-and-counts", "no-reversing-pairing", "genus", "orientable", "faces-not-int",
        "orientable-zero-faces-float",
    ],
)
def test_verify_checks_the_embedded_topology(completed_run, tmp_path, forge, messages):
    out = _forged(completed_run, tmp_path, lambda cert: forge(cert["solution"]))
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok
    for message in messages:
        assert any(message in p for p in problems), (message, problems)


def test_verify_given_the_config_rejects_a_consistent_wrong_topology(
    n14_cfg_path, completed_run, tmp_path, capsys
):
    # V = 15, chi = -3, genus 5 agree with each other and with E = 21,
    # F = 3; only the config's genus-6 surface rejects them, the embedded
    # one as much as the given one
    out = _forged(
        completed_run,
        tmp_path,
        lambda c: c["solution"]["topology"].update(vertices=15, euler_characteristic=-3, genus=5),
    )
    problems = _rejected(n14_cfg_path, out, capsys, _TOPOLOGY)
    assert len(problems) == 1 and problems[0].startswith("topology {")


@pytest.fixture(scope="module")
def n14_domain():
    return stage_domain(load_config("configs/n14.json"))


def _at_o_prime(F):
    """A forge that moves the candidate onto O', the second-neighbor center."""
    o_prime = group.second_neighbor_center(F)
    return lambda cert: cert.update(candidate=[o_prime.real, o_prime.imag])


def test_verify_rejects_an_identity_tau_with_o_prime_at_the_candidate(
    n14_cfg_path, completed_run, n14_domain, tmp_path, capsys
):
    # the identity swaps the candidate with itself and conjugates every
    # generator to itself, so one-letter words would fit it exactly
    def forge(cert):
        _at_o_prime(n14_domain)(cert)
        for i, m in enumerate(cert["memberships"]):
            m["word"] = [i]

    out = _forged(completed_run, tmp_path, forge)
    _rejected(n14_cfg_path, out, capsys, "coincides with O'")


def test_verify_checks_the_words_against_the_rebuilt_tau(completed_run, tmp_path):
    # the same words with O' left alone: they fit the identity but not the
    # half-turn about the midpoint of the candidate and O'
    def forge(cert):
        for i, m in enumerate(cert["memberships"]):
            m["word"] = [i]

    out = _forged(completed_run, tmp_path, forge)
    ok, problems = verify_certificate_file(os.path.join(out, "certificate.json"))
    assert not ok
    misses = [p for p in problems if p.startswith("word for generator")]
    assert len(misses) == 36


def _string_reversing(cert):
    # "false" is a truthy string: bool() of it would keep every pairing
    # reversing and the certificate verifying
    for p in cert["solution"]["pairings"]:
        if p["reversing"]:
            p["reversing"] = "false"


def test_verify_checks_the_config_hash(n14_cfg_path, completed_run, tmp_path, capsys):
    def forge(cert):
        cert["config_hash"] = "0" * 16

    out = _forged(completed_run, tmp_path, forge)
    problems = _rejected(n14_cfg_path, out, capsys, "config hash")
    assert [p.split(" is not the ")[1].split("'s ")[0] for p in problems] == [
        "embedded config", "configuration"
    ]


def test_verify_checks_o_prime_against_the_config(n14_cfg_path, completed_run, n14_domain, tmp_path, capsys):
    # the half-turn about the midpoint is the same whichever point is O',
    # so a certificate that passes O' off as its candidate keeps every word;
    # O' is not stored but rebuilt from the config, and lies outside F
    out = _forged(completed_run, tmp_path, _at_o_prime(n14_domain))
    problems = _rejected(n14_cfg_path, out, capsys, "coincides with O'")
    assert any(p.endswith("is not in F") for p in problems)


def _commuting_solution(F, P, records):
    """A forge giving the candidate P and a solution of the pairing
    ``records``, each stored with a map that commutes with tau, the
    half-turn about the midpoint M of P and O': the reflection in the
    geodesic through M and O' for a reversing record, the quarter-turn
    about M for a conformal one.  Each generator is then its own conjugate,
    so its one-letter word fits, whatever the records glue; a verifier that
    decoded the stored maps accepted such a certificate."""
    o_prime = group.second_neighbor_center(F)
    M = midpoint(P, o_prime)
    maps = {
        True: geodesic_reflection(geodesic_through(M, o_prime)),
        False: elliptic_about(M, math.pi / 2),
    }

    def forge(cert):
        cert["candidate"] = [P.real, P.imag]
        cert["solution"]["pairings"] = [
            {**rec, **maps[rec["reversing"]].to_json()} for rec in records
        ]
        cert["memberships"] = [{"word": [i], "residual": 0.0} for i in range(2 * len(records))]

    return forge


def _record(src, dst, reversing):
    """A certificate pairing record gluing pol1 edge src to pol1 edge dst."""
    return {"src": {"poly": 1, "edge": src}, "dst": {"poly": 1, "edge": dst}, "reversing": reversing}


def _drop_last_pairing(cert):
    # no other membership's word uses the last pairing's two generators,
    # so every word left still composes
    cert["solution"]["pairings"].pop()
    del cert["memberships"][-2:]
    assert not {34, 35} & {i for m in cert["memberships"] for i in m["word"]}


def _internal_edge(cert):
    # pol1 edge 0 is glued to pol2 inside F
    cert["solution"]["pairings"][0]["dst"] = {"poly": 1, "edge": 0}


def _embedded_config(**change):
    return lambda cert: cert["config"].update(change)


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda F, P: _commuting_solution(F, P, [_record(2, 3, True)]), _NOT_GLUED),
        (lambda F, P: _drop_last_pairing, _NOT_GLUED),
        (lambda F, P: _internal_edge, "no side pairing with record (True, 0, 2, 0, 0)"),
        # edges 2 and 3 of pol1 share a corner: their conformal matching is
        # the rotation about it, an elliptic that L leaves out
        (
            lambda F, P: _commuting_solution(F, P, [_record(2, 3, False), _record(4, 5, True)]),
            "no side pairing with record (False, 0, 2, 0, 3)",
        ),
        (
            lambda F, P: _commuting_solution(F, F.centers[0], [_record(2, 3, True)]),
            "is a tile center",
        ),
        (lambda F, P: _commuting_solution(F, 0.95 + 0j, [_record(2, 3, True)]), "is not in F"),
        (lambda F, P: _embedded_config(n=18), "is not the embedded config's"),
        (lambda F, P: _embedded_config(attachments=[[0, 0], [0, 2]]), "is not the embedded config's"),
    ],
    ids=[
        "one-reflection", "dropped-pairing", "internal-edge", "vertex-elliptic",
        "candidate-at-center", "candidate-outside-F", "config-n", "config-attachments",
    ],
)
def test_verify_rejects_a_forged_gluing(
    n14_cfg_path, completed_run, n14_domain, tmp_path, capsys, forge, message
):
    cert = _read_json(os.path.join(completed_run, "certificate.json"))
    P = complex(*cert["candidate"])
    out = _forged(completed_run, tmp_path, forge(n14_domain, P))
    _rejected(n14_cfg_path, out, capsys, message)


@pytest.fixture(scope="module")
def depth3_run(n14_cfg_path):
    out = os.path.join(os.path.dirname(n14_cfg_path), "out-d3")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", n14_cfg_path, "--depth", "3", "--out", out]) == 0
    return out


def test_verify_recomputes_the_run_residuals_to_the_bit(depth3_run, monkeypatch):
    # the generators are L's own maps, not maps decoded from the artifact,
    # so every word residual verify takes is the one the run recorded
    taken = []

    def recording(word, gens, h):
        taken.append(group.word_residual(word, gens, h))
        return taken[-1]

    monkeypatch.setattr(pipeline, "word_residual", recording)
    path = os.path.join(depth3_run, "certificate.json")
    assert verify_certificate_file(path) == (True, [])
    assert taken == [m["residual"] for m in _read_json(path)["memberships"]]


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda c: c["memberships"][5]["word"].append(99), "not a list of generator indices"),
        (lambda c: c["memberships"][5]["word"].append(-1), "not a list of generator indices"),
        (lambda c: c["memberships"][5].update(word=7), "not a list of generator indices"),
        (lambda c: c.pop("solution"), "lacks solution"),
        (lambda c: c.pop("config"), "lacks config"),
        (lambda c: c.update(config=[14]), "config must be a JSON object"),
        (lambda c: c["config"].update(n=13), "NotRelevantN"),
        (lambda c: c["solution"].pop("pairings"), "KeyError: 'pairings'"),
        (lambda c: c["solution"]["pairings"][3]["src"].update(poly="1"), "malformed seed record"),
        (lambda c: c.update(memberships=5), "TypeError"),
        (lambda c: c["memberships"].__setitem__(1, c["memberships"][0]), "generator 1 misses"),
        (lambda c: c["memberships"].pop(), "35 memberships for 36 generators"),
        (lambda c: c["memberships"].append(c["memberships"][0]), "37 memberships for 36"),
        # JSON decodes NaN and Infinity, and every comparison with NaN is
        # False: no point may slip through as one
        (lambda c: c.update(candidate=[math.nan, 0.0]), "not inside the unit disk"),
        (lambda c: c.update(candidate=[math.inf, 0.0]), "not inside the unit disk"),
        (lambda c: c.update(candidate=[2.0, 0.0]), "not inside the unit disk"),
        # a long power of one generator leaves the float range as it composes
        (
            lambda c: c["memberships"][0].update(word=[0] * 60),
            "word for generator 0 misses by inf",
        ),
        (_string_reversing, "malformed seed record"),
        (lambda c: json.dumps(c)[:4000], "certificate does not decode: JSONDecodeError"),
    ],
    ids=[
        "word-index-99", "word-index-negative", "word-not-a-list",
        "no-solution", "no-config", "config-not-an-object", "config-n-13",
        "no-solution-pairings", "pairing-poly-a-string",
        "memberships-not-a-list", "generator-listed-twice",
        "membership-missing", "membership-extra", "nan-candidate", "infinite-candidate",
        "out-of-disk-candidate", "word-overflows", "string-reversing", "truncated",
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


def _record_of(pairing: dict) -> dict:
    """A pairings.json record as certificate.json stores it: without the matrix."""
    return {key: value for key, value in pairing.items() if key != "matrix"}


def test_solutions_json_decodes_to_the_certified_solution(completed_run):
    # schema 4: a solution is its pairings, indices into pairings.json, and
    # its vertex cycles, lists of ids into "vertices"; the certificate
    # embeds the same pairings as records, with the config's topology
    def load(name):
        with open(os.path.join(completed_run, name), encoding="utf-8") as fh:
            return json.load(fh)

    sols, L, cert = load("solutions.json"), load("pairings.json"), load("certificate.json")
    assert sols["schema_version"] == 4
    assert os.path.getsize(os.path.join(completed_run, "solutions.json")) <= 145_000
    for s in sols["candidates"][0]["solutions"]:
        assert sorted(s) == ["pairings", "vertex_cycles"]
        assert all(0 <= v < len(sols["vertices"]) for c in s["vertex_cycles"] for v in c)

    (entry,) = [c for c in sols["candidates"] if c["point"] == cert["candidate"]]
    embedded = dict(cert["solution"])
    assert embedded.pop("topology") == load_config("configs/n14.json").topology
    assert sorted(embedded) == ["pairings"]
    hits = [
        s
        for s in entry["solutions"]
        if [_record_of(L["pairings"][i]) for i in s["pairings"]] == embedded["pairings"]
    ]
    assert len(hits) == 1


# fields no artifact writes: each copied another field or a constant
_DROPPED = {
    "type", "angle_sum", "seeds", "covered", "residual_tol", "swap_tol", "generators",
    "dedup_tol", "midpoint", "count", "basepoint", "tau", "swap_residual", "normalizes",
    "stalled", "generator", "label", "member", "o_prime",
}


def _walk(value):
    """Every (key, value) of every object inside a decoded JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key, item
            yield from _walk(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk(item)


def test_artifacts_write_each_fact_once(n14_cfg_path, completed_run):
    names = ("distances", "domain", "pairings", "candidates", "filtering", "solutions")
    docs = {name: _read_json(os.path.join(completed_run, f"{name}.json")) for name in names}
    cert = docs["certificate"] = _read_json(os.path.join(completed_run, "certificate.json"))
    # the embedded config is the config as config_hash hashes it, seed
    # records and all
    cfg = load_config(n14_cfg_path)
    assert cert.pop("config") == cfg.hashed_json_dict()
    for name, doc in docs.items():
        fields = list(_walk(doc))
        assert not _DROPPED & {key for key, _ in fields}, name
        # an isometry's matrix is its first row; conj b, conj a follow
        assert all(len(v) == 2 for key, v in fields if key == "matrix"), name
    records = docs["pairings"]["pairings"]
    for rec in records:
        assert sorted(rec) == ["dst", "matrix", "reversing", "src"]
    # the certificate stores no map and no vertex cycle: verify takes both
    # from L, which it rebuilds from the embedded config
    for rec in cert["solution"]["pairings"]:
        assert sorted(rec) == ["dst", "reversing", "src"]
    assert sorted(cert["solution"]) == ["pairings", "topology"]

    # pasted into a config's seed_pairs, every record names an entry of L;
    # pairings.json stores that entry's matrix row to the bit
    L = stage_pairings(cfg, stage_domain(cfg))
    shipped = cfg.to_json_dict()

    def entry(rec):
        seeded = PipelineConfig.from_json_dict({**shipped, "seed_pairs": [rec, rec]})
        return find_pairing(L, *seeded.seed_pairs[0])

    for rec, p in zip(records, L):
        a, b = p.map.a, p.map.b
        assert rec["matrix"] == [[a.real, a.imag], [b.real, b.imag]]
    assert [entry(rec) for rec in records] == L
    for rec in cert["solution"]["pairings"]:
        entry(rec)


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
        if name == "certificate.json":  # the config it embeds names the seeds
            assert before.pop("config") != after.pop("config")
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


def test_candidates_subcommand_with_seed_flags(n14_cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "candidates",
            "--config", n14_cfg_path,
            "--out", out,
            "--seed-src", "1.13,1.2",
            "--seed-dst", "1.10,2.7",
            "--seed-reversing", "1,0",
        ]
    )
    assert code == 0
    assert "candidates" in capsys.readouterr().out
    # the stages up to the seed pair's candidates, with their figures
    assert sorted(os.listdir(out)) == [
        "bananas.svg", "candidates.json", "candidates.svg", "distances.json",
        "domain.json", "domain.svg", "pairings.json",
    ]


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
    assert err == {"stage": "config", "error": "unknown config keys: ['orientable']"}
    assert not os.path.exists(out)


_SEED = {"type": "hyperbolic", "src": {"poly": 1, "edge": 2}, "dst": {"poly": 2, "edge": 7}}


@pytest.mark.parametrize(
    "change, named",
    [
        ({"n": "14"}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"depth": "5"}, "depth must be an integer"),
        ({"depth": 2.5}, "depth must be an integer"),
        ({"limit": None}, "limit must be an integer"),
        ({"match_tol": "1e-4"}, "match_tol must be a finite number"),
        ({"frame_rotation_deg": "x"}, "frame_rotation_deg must be a finite number"),
        ({"out_dir": 5}, "out_dir must be a string"),
        ({"attachments": [[0]]}, "attachments must be [parent, edge] integer pairs"),
        ({"attachments": [[0, "1"]]}, "attachments must be"),
        ({"attachments": None}, "attachments must be"),
        ({"seed_pairs": {"p1": 1}}, "seed_pairs must be a list"),
        ({"seed_pairs": [_SEED, {k: v for k, v in _SEED.items() if k != "dst"}]}, "seed record"),
        ({"seed_pairs": [_SEED, {**_SEED, "type": "elliptic"}]}, "seed record"),
        ({"seed_pairs": [_SEED, {**_SEED, "src": {"poly": 1.0, "edge": 2}}]}, "seed record"),
        ({"seed_pairs": [_SEED, 3]}, "seed record"),
        ([1, 2], "config must be a JSON object, not list"),
        (b"\xff\xfe{", "can't decode byte 0xff"),
    ],
)
def test_ill_typed_config_exits_1(tmp_path, change, named, capsys):
    # each value fails at the config stage, as one JSON line, whatever its type
    path = tmp_path / "typed.json"
    if isinstance(change, bytes):
        path.write_bytes(change)  # a file that is not UTF-8
    else:
        if isinstance(change, dict):
            shipped = load_config("configs/n14.json").to_json_dict()
            change = {**shipped, "out_dir": str(tmp_path / "out"), **change}
        path.write_text(json.dumps(change))
    assert main(["run", "--config", str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["stage"] == "config" and named in err["error"]
    assert not os.path.exists(tmp_path / "out")


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


def _worst_word_residual(line, head):
    """The worst word residual a "certificate passed" line reports after
    ``head``; the line must end with the tolerance it was held to."""
    start, _, tail = line.partition(", worst word residual ")
    assert start == head and tail.endswith(" (WORD_TOL 3e-09)"), line
    return float(tail.split()[0])


def test_run_reports_certificate_attempts(n14_cfg_path, depth5_run, tmp_path, capsys):
    # survivors are tried nearest O' first, and the certified candidate is
    # the nearest: it passes at its 5th solution at depth 5, its 3rd at depth 3
    head = "certificate passed at 0.515985-0.248485j (genus 6, chi -4) after 5 attempts"
    assert _worst_word_residual(depth5_run[1].splitlines()[-1], head) <= WORD_TOL / 20
    out = str(tmp_path / "out")
    assert main(["run", "--config", n14_cfg_path, "--depth", "3", "--out", out]) == 0
    head = "certificate passed at 0.515985-0.248485j (genus 6, chi -4) after 3 attempts"
    assert _worst_word_residual(capsys.readouterr().err.splitlines()[-1], head) <= WORD_TOL / 20
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


_K3 = [[0, 0], [0, 1]]


@pytest.mark.parametrize(
    "n, attachments, last, point",
    [
        pytest.param(12, [], None, None, id="12"),
        pytest.param(18, [], None, None, id="18"),
        pytest.param(24, [], None, None, id="24"),
        pytest.param(30, [], None, None, id="30"),
        pytest.param(9, [[0, 0]], None, None, id="9-k2"),
        pytest.param(10, _K3, None, None, id="10-k3"),
        pytest.param(
            14,
            _K3,
            "certificate passed at 0.527656+0.350069j (genus 6, chi -4) after 9 attempts",
            None,
            id="14-k3",
        ),
        pytest.param(8, _K3, None, 0.266585j, id="8-k3"),
    ],
)
def test_one_tile_auto_mode_runs_and_verifies(n, attachments, last, point, tmp_path, capsys):
    # no seed pairs: one tile gives the k = 1 primitive pair, off N = 14,
    # and two or three tiles the k = 2 and k = 3 ones
    path = tmp_path / f"auto{n}.json"
    config = {"n": n, "attachments": attachments, "depth": 3, "limit": 16}
    path.write_text(json.dumps(config))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out", out]) == 0
    cert = _read_json(os.path.join(out, "certificate.json"))
    assert cert["passed"]
    if point is not None:
        assert abs(complex(*cert["candidate"]) - point) < 1e-6
    # every membership clears WORD_TOL by 20x; one tile at N = 30, whose
    # conjugated generators have the largest entries, comes closest (8.3e-11)
    worst = max(m["residual"] for m in cert["memberships"])
    assert worst <= WORD_TOL / 20
    log = capsys.readouterr().err.splitlines()
    if last is not None:
        assert _worst_word_residual(log[-1], last) == float(f"{worst:.2e}")
    code = main(["verify", "--config", str(path), "--out", out])
    report = json.loads(capsys.readouterr().out)
    assert report["problems"] == [] and report["ok"] is True and code == 0


def test_auto_mode_builds_p1s_curves_once(tmp_path, monkeypatch, capsys):
    # N = 8, k = 3 auto mode certifies at its 257th seed pair; L has 252
    # entries, so those pairs take p1 from L[0] and L[1]: each p1's curves
    # are built once, 259 builds in all against 514, and the run writes
    # what a run that builds every seed's curves afresh writes, byte for
    # byte
    path = tmp_path / "k8.json"
    path.write_text(json.dumps({"n": 8, "attachments": _K3, "depth": 3, "limit": 16}))
    build = search._banana_curves
    calls, logs, files = {}, {}, {}
    for name in ("memo", "fresh"):
        calls[name] = 0

        def counting(p, dset, F, name=name):
            calls[name] += 1
            if name == "fresh":
                monkeypatch.setattr(search, "_p1_curves", (None,) * 4)
            return build(p, dset, F)

        monkeypatch.setattr(search, "_banana_curves", counting)
        out = tmp_path / name
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        logs[name] = capsys.readouterr()
        files[name] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert calls == {"memo": 259, "fresh": 514}
    assert logs["memo"].err == logs["fresh"].err
    assert files["memo"] == files["fresh"] and "certificate.json" in files["memo"]


def test_near_misses_fail_by_a_wide_margin(tmp_path, monkeypatch, capsys):
    # an N = 8 seed pair whose attempts include four near misses: words that
    # miss their conjugated generators by 7.5e-8 to 8.9e-8 relative, each
    # 25x or more above WORD_TOL, while passing certificates stay below 1e-10;
    # the other attempts miss by far more, and every attempt's worst word
    # is checked
    attempts = []
    certify = pipeline.second_packing_certificate

    def recording(P, G):
        attempts.append((P, G))
        return certify(P, G)

    monkeypatch.setattr(pipeline, "second_packing_certificate", recording)
    seeds = [
        {"type": "hyperbolic", "src": {"poly": 1, "edge": 2}, "dst": {"poly": 1, "edge": 5}},
        {"type": "or-hyperbolic", "src": {"poly": 2, "edge": 3}, "dst": {"poly": 3, "edge": 3}},
    ]
    path = tmp_path / "n8.json"
    config = {"n": 8, "attachments": _K3, "depth": 3, "limit": 16, "seed_pairs": seeds}
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "no certificate for this seed pair after 8 attempts"
    )
    assert len(attempts) == 8
    for P, G in attempts:
        tau = swapping_half_turn(P, group.second_neighbor_center(G.domain))
        tau_inv = tau.inverse()
        worst = max(
            group.reduce_to_domain(tau * g * tau_inv, G).residual for g in G.generators
        )
        assert worst >= 20 * WORD_TOL


def test_auto_mode_writes_each_artifact_once(tmp_path, monkeypatch, capsys):
    # the N = 10 three-tile run certifies at its 23rd seed pair; the pairs
    # before it leave no output, and the last one's is written once
    written, rendered = [], []
    write_json, render_svg = pipeline.write_json, render.render_svg

    def recording_json(path, payload):
        written.append(path)
        write_json(path, payload)

    def recording_svg(scene):
        rendered.append(scene)
        return render_svg(scene)

    monkeypatch.setattr(pipeline, "write_json", recording_json)
    monkeypatch.setattr(render, "render_svg", recording_svg)
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"n": 10, "attachments": _K3, "depth": 3, "limit": 16}))
    out = str(tmp_path / "out")
    assert main(["run", "--config", str(path), "--out", out]) == 0
    log = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("seed ") for line in log) == 23
    stages = ("distances", "domain", "pairings", "candidates", "filtering", "solutions",
              "certificate")
    assert sorted(written) == sorted(os.path.join(out, f"{s}.json") for s in stages)
    assert len(rendered) == 5


def test_a_certificate_error_stops_the_search_stage(tmp_path, monkeypatch, capsys):
    # the certificate raises only for a candidate that coincides with O',
    # which filtering leaves no survivor to be; were it to raise, the run
    # must fail in its search stage (exit 1), not report no certificate
    def coincident(P, G):
        raise ValueError("candidate coincides with O'; midpoint undefined")

    monkeypatch.setattr(pipeline, "second_packing_certificate", coincident)
    out = str(tmp_path / "out")
    assert main(["run", "--config", "configs/n14.json", "--depth", "3", "--out", out]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert error == {
        "stage": "search",
        "error": "ValueError: candidate coincides with O'; midpoint undefined",
    }
