"""Tests for config loading, validation and the resolved snapshot."""

import pytest
import yaml

from desklm.config import ConfigError, load_config, resolved_config_document, validate_config


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("Pes štěká .\n", encoding="utf-8")
    return str(path)


def _load(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


class TestValidation:
    def test_defaults_are_valid(self, corpus):
        config, _ = load_config(overrides={"corpus": corpus})
        validate_config(config)

    @pytest.mark.parametrize("kind", ["polynomial_decay", "cosine_warmup_decay"])
    def test_known_schedule_kinds_accepted(self, tmp_path, corpus, kind):
        config, _ = _load(tmp_path, f"corpus: {corpus}\nschedule:\n  kind: {kind}\n")
        validate_config(config)

    def test_unknown_schedule_kind_is_a_violation(self, tmp_path, corpus):
        config, _ = _load(tmp_path, f"corpus: {corpus}\nschedule:\n  kind: polynomial_decy\n")
        with pytest.raises(ConfigError) as error:
            validate_config(config)
        assert error.value.violations == [
            "schedule.kind must be one of ('polynomial_decay', 'cosine_warmup_decay'), "
            "got 'polynomial_decy'"
        ]

    def test_every_violation_is_collected(self, tmp_path):
        config, _ = _load(
            tmp_path,
            "corpus: missing.txt\nvocab_cap: 10\nschedule:\n  kind: linear\n",
        )
        with pytest.raises(ConfigError) as error:
            validate_config(config)
        assert len(error.value.violations) == 3

    def test_unknown_key_rejected_on_load(self, tmp_path):
        with pytest.raises(ConfigError, match="schedule.'frozen_prefix_steps'"):
            _load(tmp_path, "schedule:\n  frozen_prefix_steps: 2000\n")


class TestResolvedDocument:
    def test_provenance_marks_user_recipe_and_implementation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DESKLM_PRETRAIN_STEPS", "7")
        config, user_set = _load(tmp_path, "schedule:\n  peak_lr: 0.001\n")
        document = yaml.safe_load(resolved_config_document(config, user_set))
        assert document["config"]["pretrain"]["steps"] == 7
        provenance = document["provenance"]
        assert provenance["schedule.peak_lr"] == "user"
        assert provenance["pretrain.steps"] == "user"
        assert provenance["schedule.warmup_steps"] == "recipe"
        assert provenance["probe.hidden"] == "implementation"
