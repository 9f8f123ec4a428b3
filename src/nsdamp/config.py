"""Experiment configuration: a flat text format with dotted section keys.

One ``section.key = value`` assignment per line, ``#`` starting a comment.
Example::

    # damped Taylor-Green benchmark
    grid.n_modes     = 32
    grid.box_length  = 6.283185307179586
    phys.alpha       = 1.0
    phys.beta        = 4.0
    time.dt          = 1e-3
    time.t_end       = 1.0
    ic.kind          = taylor-green

Every error names the offending key.  ``canonical_text`` echoes a config in
a normalized form that parses back to an equal config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .dynamics import StepperConfig
from .spectral import ConfigError, GridSpec, PhysParams, make_grid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "canonical_text",
    "config_from_mapping",
]


_IC_KINDS = ("taylor-green", "random-solenoidal", "checkpoint")

#: the most steps a run may take: every step index below 2^53 is an exact float
_MAX_STEPS = 2.0**53


@dataclass(frozen=True)
class ExperimentConfig:
    n_modes: int
    box_length: float
    cutoff_fraction: float
    nu: float
    alpha: float
    beta: float
    dt: float
    t_end: float
    output_every: float | None
    ic_kind: str
    ic_seed: int
    ic_amplitude: float
    ic_path: str | None
    output_directory: str

    def grid(self) -> GridSpec:
        return make_grid(self.n_modes, self.box_length, self.cutoff_fraction)

    def phys(self) -> PhysParams:
        return PhysParams(nu=self.nu, alpha=self.alpha, beta=self.beta)

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt)


# key -> (attribute, parser, required, default)
_KEYS: dict[str, tuple[str, Any, bool, Any]] = {
    "grid.n_modes": ("n_modes", int, True, None),
    "grid.box_length": ("box_length", float, True, None),
    "grid.cutoff_fraction": ("cutoff_fraction", float, False, 2.0 / 3.0),
    "phys.nu": ("nu", float, False, 1.0),
    "phys.alpha": ("alpha", float, True, None),
    "phys.beta": ("beta", float, True, None),
    "time.dt": ("dt", float, True, None),
    "time.t_end": ("t_end", float, True, None),
    "time.output_every": ("output_every", float, False, None),
    "ic.kind": ("ic_kind", str, True, None),
    "ic.seed": ("ic_seed", int, False, 0),
    "ic.amplitude": ("ic_amplitude", float, False, 1.0),
    "ic.path": ("ic_path", str, False, None),
    "output.directory": ("output_directory", str, False, "out"),
}

def config_from_mapping(values: dict[str, Any]) -> ExperimentConfig:
    """Build and validate a config from dotted-key -> raw value pairs.

    Values may already be typed (from tests) or strings (from the parser).
    """
    kwargs: dict[str, Any] = {}
    for key, raw in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        attr, parse, _, _ = _KEYS[key]
        if isinstance(raw, str):
            # the text format strips blanks, ends a value at '#' and holds one line
            if raw != raw.strip() or "#" in raw or raw.splitlines() != [raw]:
                raise ConfigError(
                    f"{key}: expected a nonempty one-line value without '#' or "
                    f"surrounding blanks, got {raw!r}"
                )
            try:
                raw = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{key}: expected {'an integer' if parse is int else 'a number'}, got {raw!r}"
                ) from None
        kwargs[attr] = raw
    for key, (attr, _, required, default) in _KEYS.items():
        if attr not in kwargs:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            kwargs[attr] = default
    cfg = ExperimentConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    # grid, phys and time.dt are checked by the objects they build; their
    # messages start with the attribute name, so the section prefix names the key.
    for section, build in (("grid", cfg.grid), ("phys", cfg.phys), ("time", cfg.stepper)):
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    for key, value in (
        ("time.t_end", cfg.t_end),
        ("time.output_every", cfg.output_every),
        ("ic.amplitude", cfg.ic_amplitude),
    ):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    if cfg.t_end / cfg.dt > _MAX_STEPS:
        raise ConfigError(
            f"time.t_end / time.dt = {cfg.t_end / cfg.dt:.3g} steps exceeds 2^53: past that, "
            f"the step grid's times t_start + i dt are no longer distinct"
        )
    if cfg.ic_kind not in _IC_KINDS:
        raise ConfigError(
            f"ic.kind must be one of {', '.join(_IC_KINDS)}; got {cfg.ic_kind!r}"
        )
    if cfg.ic_kind == "checkpoint" and not cfg.ic_path:
        raise ConfigError("ic.path is required when ic.kind = checkpoint")
    if cfg.ic_kind != "checkpoint" and cfg.ic_path:
        raise ConfigError("ic.path only applies to ic.kind = checkpoint")


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")  # no "=" leaves value empty
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return config_from_mapping(values)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config(text)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Normalized echo of a config; parses back to an equal config."""
    lines = []
    for key, (attr, _, _, default) in _KEYS.items():
        value = getattr(cfg, attr)
        if value is None:
            continue
        if isinstance(value, float):
            text = repr(float(value))  # a NumPy float's repr names its type
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"

