"""Experiment configuration: one YAML file plus programmatic overrides.

Each section of :class:`ExperimentConfig` is the runtime class it feeds:
``model`` is a :class:`TransformerConfig` and ``schedule`` a
:class:`ScheduleConfig`, so every setting is declared once, by that class,
and checked once, by its constructor.  A section is built by replacing the
values a file or override sets in the default section, so a file that sets
one key keeps the defaults of the others.  :func:`load_config` raises one
:class:`ConfigError` that lists every violation.

Every defaulted hyperparameter carries a provenance marker in the
emitted resolved-config snapshot: ``recipe`` for values replicated from
the published training recipe, ``implementation`` for local decisions,
``user`` for values set explicitly via file or overrides.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .bbpe import NUM_SPECIALS
from .neural.layers import TransformerConfig
from .neural.schedule import ScheduleConfig


class ConfigError(Exception):
    """Carries every validation violation, not only the first."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class PretrainSettings:
    steps: int = 200
    batch_size: int = 32
    mask_prob: float = 0.15
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8


@dataclass(frozen=True)
class ProbeSettings:
    steps: int = 300
    lr: float = 5e-3
    hidden: int = 24


@dataclass
class ExperimentConfig:
    corpus: str = "data/tiny_corpus.txt"
    treebank: str | None = None
    ner_data: str | None = None
    graphs: str | None = None
    sentiment_data: str | None = None
    out_dir: str = "runs/out"
    seed: int = 1
    model: TransformerConfig = TransformerConfig(
        layers=2, hidden=64, heads=4, ff_dim=128, vocab_size=52_000, max_positions=512
    )
    schedule: ScheduleConfig = ScheduleConfig("polynomial_decay", 7e-4, 10_000, 91_075)
    pretrain: PretrainSettings = PretrainSettings()
    probe: ProbeSettings = ProbeSettings()


#: recipe = replicated published value, implementation = local decision.
PROVENANCE = {
    "model.vocab_size": "recipe",
    "model.max_positions": "recipe",
    "schedule.kind": "recipe",
    "schedule.peak_lr": "recipe",
    "schedule.warmup_steps": "recipe",
    "schedule.total_steps": "recipe",
    "pretrain.beta1": "recipe",
    "pretrain.beta2": "recipe",
    "pretrain.mask_prob": "recipe",
}


def _read(path: str | Path | None) -> dict[str, Any]:
    if path is None:
        return {}
    loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError([f"config root must be a mapping, got {type(loaded).__name__}"])
    return loaded


def load_config(
    path: str | Path | None = None,
    overrides: dict[str, Any] | None = None,
    require: tuple[str, ...] = (),
) -> tuple[ExperimentConfig, set[str]]:
    """(config, user-set keys) from a YAML file, then ``overrides``.

    An override section is merged into the file's section key by key;
    any other override replaces the file's key, and a ``None`` override
    leaves it as it is.  An empty section keeps its defaults; any other
    section that is not a mapping is a violation.  ``corpus`` and every
    path named in ``require`` must exist.  A section whose constructor
    rejects it keeps its default, so the checks after it still run."""
    data = _read(path)
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        elif value is not None:
            data[key] = value

    violations: list[str] = []
    user_set: set[str] = set()
    kwargs: dict[str, Any] = {}
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, value in data.items():
        if key not in known:
            violations.append(f"unknown config key {key!r}")
            continue
        default = getattr(ExperimentConfig, key)
        if not dataclasses.is_dataclass(default):
            kwargs[key] = value
            user_set.add(key)
            continue
        if value is None:
            value = {}
        if not isinstance(value, dict):
            violations.append(f"{key} must be a mapping, got {type(value).__name__}")
            continue
        section_known = {f.name for f in dataclasses.fields(default)}
        values = {}
        for sub_key, sub_value in value.items():
            if sub_key in section_known:
                values[sub_key] = sub_value
                user_set.add(f"{key}.{sub_key}")
            else:
                violations.append(f"unknown config key {key}.{sub_key!r}")
        try:
            kwargs[key] = dataclasses.replace(default, **values)
        except ValueError as error:
            violations.append(f"{key}: {error}")
    config = ExperimentConfig(**kwargs)

    for name in ("corpus",) + require:
        value = getattr(config, name, None)
        if value is None:
            violations.append(f"{name} is required for this command")
        elif not Path(value).exists():
            violations.append(f"{name} path does not exist: {value}")
    # The byte tokens plus the specials, and the shortest packed sample.
    for name, least in (("vocab_size", 256 + NUM_SPECIALS), ("max_positions", 8)):
        if getattr(config.model, name) < least:
            violations.append(
                f"model.{name} must be >= {least}, got {getattr(config.model, name)}"
            )
    if not isinstance(config.seed, int):
        violations.append("seed must be an integer")
    if violations:
        raise ConfigError(violations)
    return config, user_set


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
