"""Experiment configuration: YAML file + environment overrides.

Every defaulted hyperparameter carries a provenance marker in the
emitted resolved-config snapshot: ``recipe`` for values replicated from
the published training recipe, ``implementation`` for local decisions,
``user`` for values set explicitly via file or environment.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .neural.schedule import KINDS as SCHEDULE_KINDS

ENV_PREFIX = "DESKLM"


class ConfigError(Exception):
    """Carries every validation violation, not only the first."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class ModelSettings:
    layers: int = 2
    hidden: int = 64
    heads: int = 4
    ff_dim: int = 128
    max_positions: int = 512
    ln_eps: float = 1e-5


@dataclass
class ScheduleSettings:
    kind: str = "polynomial_decay"
    peak_lr: float = 7e-4
    warmup_steps: int = 10_000
    total_steps: int = 91_075
    end_lr: float = 0.0
    power: float = 1.0
    warmup_epochs: float = 4.0
    decay_epochs: float = 10.0


@dataclass
class PretrainSettings:
    steps: int = 200
    batch_size: int = 32
    mask_prob: float = 0.15
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8


@dataclass
class ProbeSettings:
    steps: int = 300
    lr: float = 5e-3
    hidden: int = 24
    use_contextual: bool = True


@dataclass
class ExperimentConfig:
    corpus: str = "data/tiny_corpus.txt"
    treebank: str | None = None
    ner_data: str | None = None
    graphs: str | None = None
    sentiment_data: str | None = None
    out_dir: str = "runs/out"
    seed: int = 1
    threads: int = 1
    vocab_cap: int = 52_000
    max_len: int = 512
    model: ModelSettings = field(default_factory=ModelSettings)
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    pretrain: PretrainSettings = field(default_factory=PretrainSettings)
    probe: ProbeSettings = field(default_factory=ProbeSettings)


#: recipe = replicated published value, implementation = local decision.
PROVENANCE = {
    "vocab_cap": "recipe",
    "max_len": "recipe",
    "schedule.kind": "recipe",
    "schedule.peak_lr": "recipe",
    "schedule.warmup_steps": "recipe",
    "schedule.total_steps": "recipe",
    "schedule.warmup_epochs": "recipe",
    "schedule.decay_epochs": "recipe",
    "pretrain.beta1": "recipe",
    "pretrain.beta2": "recipe",
    "pretrain.mask_prob": "recipe",
}


def _section_dataclasses() -> dict[str, type]:
    return {
        "model": ModelSettings,
        "schedule": ScheduleSettings,
        "pretrain": PretrainSettings,
        "probe": ProbeSettings,
    }


def _apply_env_overrides(data: dict[str, Any]) -> dict[str, str]:
    """Mutates ``data`` from DESKLM_* variables; returns the applied keys."""
    applied: dict[str, str] = {}
    sections = _section_dataclasses()
    for name, raw in sorted(os.environ.items()):
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        path = name[len(ENV_PREFIX) + 1 :].lower()
        value = yaml.safe_load(raw)
        section, _, rest = path.partition("_")
        if section in sections and rest in {
            f.name for f in dataclasses.fields(sections[section])
        }:
            data.setdefault(section, {})[rest] = value
            applied[f"{section}.{rest}"] = raw
        elif path in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            data[path] = value
            applied[path] = raw
    return applied


def _build(data: dict[str, Any]) -> tuple[ExperimentConfig, set[str]]:
    violations: list[str] = []
    user_set: set[str] = set()
    sections = _section_dataclasses()
    kwargs: dict[str, Any] = {}
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, value in data.items():
        if key not in known:
            violations.append(f"unknown config key {key!r}")
            continue
        if key in sections:
            section_known = {f.name for f in dataclasses.fields(sections[key])}
            section_kwargs = {}
            for sub_key, sub_value in (value or {}).items():
                if sub_key not in section_known:
                    violations.append(f"unknown config key {key}.{sub_key!r}")
                    continue
                section_kwargs[sub_key] = sub_value
                user_set.add(f"{key}.{sub_key}")
            kwargs[key] = sections[key](**section_kwargs)
        else:
            kwargs[key] = value
            user_set.add(key)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(**kwargs), user_set


def load_config(
    path: str | Path | None = None, overrides: dict[str, Any] | None = None
) -> tuple[ExperimentConfig, set[str]]:
    """(config, user-set keys) from YAML file + environment + overrides."""
    data: dict[str, Any] = {}
    if path is not None:
        loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError([f"config root must be a mapping, got {type(loaded).__name__}"])
        data.update(loaded)
    env_applied = _apply_env_overrides(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        data[key] = value
    config, user_set = _build(data)
    user_set.update(env_applied)
    return config, user_set


def validate_config(config: ExperimentConfig, require: tuple[str, ...] = ()) -> None:
    """Collect every violation (missing files, bad dimensions) at once."""
    violations = []
    for name in ("corpus",) + require:
        value = getattr(config, name, None)
        if value is None:
            violations.append(f"{name} is required for this command")
        elif not Path(value).exists():
            violations.append(f"{name} path does not exist: {value}")
    if config.vocab_cap < 261:
        violations.append(f"vocab_cap must be >= 261, got {config.vocab_cap}")
    if config.max_len < 8:
        violations.append(f"max_len must be >= 8, got {config.max_len}")
    if config.model.hidden % config.model.heads != 0:
        violations.append(
            f"model.hidden ({config.model.hidden}) must be divisible by "
            f"model.heads ({config.model.heads})"
        )
    if config.schedule.kind not in SCHEDULE_KINDS:
        violations.append(
            f"schedule.kind must be one of {SCHEDULE_KINDS}, got {config.schedule.kind!r}"
        )
    if config.schedule.kind == "polynomial_decay" and (
        config.schedule.warmup_steps > config.schedule.total_steps
    ):
        violations.append("schedule.warmup_steps must not exceed schedule.total_steps")
    if config.threads < 1:
        violations.append("threads must be >= 1")
    for name in ("seed", "vocab_cap"):
        if not isinstance(getattr(config, name), int):
            violations.append(f"{name} must be an integer")
    if violations:
        raise ConfigError(violations)


def resolved_config_document(
    config: ExperimentConfig, user_set: set[str], extra: dict[str, Any] | None = None
) -> str:
    """YAML snapshot of the fully resolved config with per-key provenance."""
    as_dict = dataclasses.asdict(config)
    provenance: dict[str, str] = {}

    def mark(prefix: str, obj: dict[str, Any]):
        for key, value in obj.items():
            dotted = f"{prefix}{key}"
            if isinstance(value, dict):
                mark(dotted + ".", value)
            elif dotted in user_set:
                provenance[dotted] = "user"
            else:
                provenance[dotted] = PROVENANCE.get(dotted, "implementation")

    mark("", as_dict)
    document = {"config": as_dict, "provenance": provenance}
    if extra:
        document.update(extra)
    return yaml.safe_dump(document, sort_keys=True)
