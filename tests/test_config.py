"""Tests for config loading, validation and the resolved snapshot."""

import pytest
import yaml

from desklm.config import ConfigError, load_config, resolved_config_document


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("Pes štěká .\n", encoding="utf-8")
    return str(path)


def _load(tmp_path, text, **kwargs):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return load_config(path, **kwargs)


class TestValidation:
    def test_defaults_are_valid(self, corpus):
        load_config(overrides={"corpus": corpus})

    @pytest.mark.parametrize("kind", ["polynomial_decay", "cosine_warmup_decay"])
    def test_known_schedule_kinds_accepted(self, tmp_path, corpus, kind):
        config, _ = _load(tmp_path, f"corpus: {corpus}\nschedule:\n  kind: {kind}\n")
        assert config.schedule.kind == kind

    def test_unknown_schedule_kind_is_a_violation(self, tmp_path, corpus):
        with pytest.raises(ConfigError) as error:
            _load(tmp_path, f"corpus: {corpus}\nschedule:\n  kind: polynomial_decy\n")
        assert error.value.violations == ["schedule: unknown schedule kind 'polynomial_decy'"]

    def test_every_violation_is_collected(self, tmp_path):
        with pytest.raises(ConfigError) as error:
            _load(
                tmp_path,
                "corpus: missing.txt\nmodel:\n  vocab_size: 10\nschedule:\n  kind: linear\n",
            )
        assert len(error.value.violations) == 3

    def test_unknown_key_rejected_on_load(self, tmp_path):
        with pytest.raises(ConfigError, match="schedule.'frozen_prefix_steps'"):
            _load(tmp_path, "schedule:\n  frozen_prefix_steps: 2000\n")

    def test_required_path_must_be_given(self, corpus):
        with pytest.raises(ConfigError) as error:
            load_config(overrides={"corpus": corpus}, require=("treebank",))
        assert error.value.violations == ["treebank is required for this command"]


class TestSections:
    def test_a_file_setting_one_key_keeps_the_other_defaults(self, tmp_path, corpus):
        config, _ = _load(tmp_path, f"corpus: {corpus}\nschedule:\n  peak_lr: 0.001\n")
        assert config.schedule.peak_lr == 0.001
        assert config.schedule.kind == "polynomial_decay"
        assert config.schedule.total_steps == 91_075

    def test_an_override_section_merges_into_the_file_section(self, tmp_path, corpus):
        config, user_set = _load(
            tmp_path, "schedule:\n  peak_lr: 0.001\n",
            overrides={"corpus": corpus, "schedule": {"warmup_steps": 5}},
        )
        assert config.schedule.peak_lr == 0.001
        assert config.schedule.warmup_steps == 5
        assert config.schedule.total_steps == 91_075
        assert sorted(user_set) == ["corpus", "schedule.peak_lr", "schedule.warmup_steps"]

    def test_a_section_that_is_not_a_mapping_is_a_violation(self, tmp_path, corpus):
        with pytest.raises(ConfigError) as error:
            _load(tmp_path, f"corpus: {corpus}\nmodel: 64\n")
        assert error.value.violations == ["model must be a mapping, got int"]


class TestResolvedDocument:
    def test_provenance_marks_user_recipe_and_implementation(self, tmp_path, corpus):
        config, user_set = _load(
            tmp_path, "schedule:\n  peak_lr: 0.001\n",
            overrides={"corpus": corpus, "pretrain": {"steps": 7}},
        )
        document = yaml.safe_load(resolved_config_document(config, user_set))
        assert document["config"]["pretrain"]["steps"] == 7
        provenance = document["provenance"]
        assert provenance["schedule.peak_lr"] == "user"
        assert provenance["pretrain.steps"] == "user"
        assert provenance["schedule.warmup_steps"] == "recipe"
        assert provenance["model.vocab_size"] == "recipe"
        assert provenance["probe.hidden"] == "implementation"
