import json

import pytest

from diskpack.config import (
    RELEVANT_N,
    ConfigError,
    NotRelevantN,
    PipelineConfig,
    genus_for,
    load_config,
    primitive_pair,
)
from diskpack.domain import Attachment


class TestPrimitivePair:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (7, (6, 3)),
            (14, (3, 6)),
            (12, (1, 3)),
            (9, (2, 3)),
            (18, (1, 4)),
        ],
    )
    def test_non_orientable(self, n, expected):
        assert primitive_pair(n) == expected

    def test_orientable_variant(self):
        assert primitive_pair(14, orientable=True) == (3, 3)
        assert primitive_pair(12, orientable=True) == (2, 2)

    def test_every_listed_n_has_a_pair(self):
        for n in RELEVANT_N:
            k, g = primitive_pair(n)
            assert (6 * g + 6 * k - 12) // k == n
            assert g >= 3

    @pytest.mark.parametrize("n", [6, 13, 15, 17, 20, 31])
    def test_irrelevant_n_rejected(self, n):
        with pytest.raises(NotRelevantN):
            primitive_pair(n)


class TestGenusFor:
    def test_n14_three_tiles(self):
        assert genus_for(14, 3) == 6

    def test_divisibility_rejected(self):
        with pytest.raises(ConfigError):
            genus_for(14, 2)  # (2*8+12)/6 is not an integer


class TestPipelineConfig:
    def _n14(self) -> PipelineConfig:
        return PipelineConfig(
            n=14,
            attachments=[Attachment(0, 0), Attachment(0, 1)],
            seed_pairs=[(True, 0, 13, 0, 10), (False, 0, 2, 1, 7)],
            frame_rotation_deg=-90.0,
        )

    def test_valid_n14(self):
        cfg = self._n14()
        cfg.validate()
        assert cfg.k == 3
        assert cfg.genus == 6

    def test_consistency_identity(self):
        cfg = self._n14()
        chi = 2 - cfg.genus
        assert cfg.n * cfg.k == 6 * (cfg.k - chi)

    def test_rejects_n13(self):
        with pytest.raises(NotRelevantN):
            PipelineConfig(n=13).validate()

    def test_accepts_exactly_the_relevant_list(self):
        for n in range(7, 32):
            cfg = PipelineConfig(n=n)
            if n in RELEVANT_N:
                try:
                    cfg.validate()
                except ConfigError:
                    pass  # k=1 may fail divisibility; N-list check passed first
                except NotRelevantN:
                    pytest.fail(f"N={n} wrongly rejected")
            else:
                with pytest.raises(NotRelevantN):
                    cfg.validate()

    def test_rejects_bad_divisibility(self):
        cfg = PipelineConfig(n=14, attachments=[Attachment(0, 0)])  # k = 2
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_seed_pairs_must_be_two(self):
        cfg = self._n14()
        cfg.seed_pairs = [(True, 0, 13, 0, 10)]
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_orientable_rejected(self, tmp_path):
        # completion builds only surfaces with a reversing pairing, so the
        # config has no orientability switch: the key is unknown
        d = {"n": 12, "attachments": [[0, 0]], "orientable": True}
        with pytest.raises(ConfigError, match="unknown config keys: \\['orientable'\\]"):
            PipelineConfig.from_json_dict(d)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(str(path))
        del d["orientable"]
        assert PipelineConfig.from_json_dict(d).genus == 4

    @pytest.mark.parametrize("name", ["match_tol", "candidate_dedup"])
    @pytest.mark.parametrize("value", [0.0, -1e-4, float("nan"), float("inf")])
    def test_tolerances_must_be_finite_and_positive(self, tmp_path, name, value):
        cfg = self._n14()
        setattr(cfg, name, value)
        with pytest.raises(ConfigError, match=name):
            cfg.validate()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        with pytest.raises(ConfigError, match=name):
            load_config(str(path))

    def test_json_round_trip(self):
        cfg = self._n14()
        again = PipelineConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_dict({"n": 14, "shape": "banana"})
        with pytest.raises(ConfigError):
            PipelineConfig.from_json_dict({"n": 14, "workers": 2})
        # completion counts wedges, and builds one-sided surfaces only;
        # distances closer than tess.DEDUP_TOL are always one value
        for key, value in (("angle_tol", 1e-6), ("orientable", False), ("dedup_tol", 1e-9)):
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_json_dict({"n": 14, key: value})

    def test_hash_ignores_output_location(self):
        a, b = self._n14(), self._n14()
        b.out_dir = "elsewhere"
        assert a.config_hash() == b.config_hash()
        b.depth = 4
        assert a.config_hash() != b.config_hash()

    def test_load_config_file(self, tmp_path):
        cfg = self._n14()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        loaded = load_config(str(path))
        assert loaded == cfg

    def test_shipped_n14_config(self):
        cfg = load_config("configs/n14.json")
        assert cfg.n == 14 and cfg.k == 3 and cfg.depth == 5
        assert cfg.match_tol == 1e-4
        assert cfg.seed_pairs == [(True, 0, 13, 0, 10), (False, 0, 2, 1, 7)]
        assert cfg.config_hash() == "1f6aad06fb3e7291"
