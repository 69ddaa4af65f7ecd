"""Run configuration: defaults, config files, and flag overrides.

A key is ``section.field`` of one of the settings dataclasses, and its
default is the field's default.  Config files are line-based
``section.key = value`` text (comments start with ``#``); flags override
the file, the file overrides defaults, and unknown keys are rejected so
experiment records stay trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from dpparse.density import DensityParams
from dpparse.scoring import DPParams
from dpparse.synthgen import GenConfig
from dpparse.trainer import TrainerConfig


def _optional_int(text: str):
    lowered = text.strip().lower()
    if lowered in ("none", "auto"):
        return None
    return int(text)


def _auto_float(text: str):
    lowered = text.strip().lower()
    if lowered == "auto":
        return "auto"
    return float(text)


DELTA_BY_MODE = {"continuous": 4.0, "discrete": 2.0}

_SECTIONS = {
    "trainer": TrainerConfig,
    "dp": DPParams,
    "density": DensityParams,
    "gen": GenConfig,
}
# Fields that RunConfig fills in itself: the nested settings, the run's mode
# and, for the generator, trainer.seed.
_NOT_KEYS = {"trainer.dp", "trainer.density", "gen.seed", "gen.mode"}


def _parser(default):
    if default is None:
        return _optional_int
    return type(default)


# key -> (parser, default)
_SCHEMA: dict[str, tuple] = {
    f"{section}.{f.name}": (_parser(f.default), f.default)
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if f"{section}.{f.name}" not in _NOT_KEYS
}
# "auto" stands for DELTA_BY_MODE of the run's mode.
_SCHEMA["dp.delta"] = (_auto_float, "auto")


@dataclass
class RunConfig:
    """Typed view over the flat key/value settings."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_p, default) in _SCHEMA.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    def _section(self, section: str) -> dict:
        """The settings of one section, by field name."""
        prefix = section + "."
        return {
            k[len(prefix) :]: v for k, v in self.values.items() if k.startswith(prefix)
        }

    def trainer_config(self, mode: str) -> TrainerConfig:
        """The trainer settings for a run in ``mode``, checked for that mode
        as far as settings alone allow."""
        dp = self._section("dp")
        if dp["delta"] == "auto":
            dp["delta"] = DELTA_BY_MODE[mode]
        config = TrainerConfig(
            **self._section("trainer"),
            dp=DPParams(**dp),
            density=DensityParams(**self._section("density")),
        )
        if mode == "discrete" and config.frequency_backend == "kmeans":
            raise ValueError("kmeans backend applies to continuous corpora only")
        return config

    def gen_config(self, mode: str) -> GenConfig:
        return GenConfig(**self._section("gen"), seed=self["trainer.seed"], mode=mode)


def _parse_pair(key: str, raw: str):
    key = key.strip()
    if key not in _SCHEMA:
        raise ValueError(f"unknown config key {key!r}")
    parser, _default = _SCHEMA[key]
    try:
        return key, parser(raw.strip())
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad value for {key}: {raw.strip()!r} ({exc})") from None


def read_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
            key, raw = stripped.split("=", 1)
            try:
                key, value = _parse_pair(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            values[key] = value
    return values


def load_run_config(
    config_path=None, overrides: list[str] | None = None, **direct
) -> RunConfig:
    """Merge defaults, an optional config file, and flag overrides.

    ``overrides`` are ``section.key=value`` strings from ``--set`` flags;
    ``direct`` values (already typed) win over everything and come from
    dedicated flags such as ``--seed``.
    """
    values: dict = {}
    if config_path is not None:
        values.update(read_config_file(config_path))
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"--set expects section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key, value = _parse_pair(key, raw)
        values[key] = value
    for key, value in direct.items():
        if value is not None:
            if key not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value
    return RunConfig(values)
