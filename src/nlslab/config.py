"""Flat key=value run configuration with dotted sections.

Parsing is strict: unknown keys, duplicate keys, or out-of-range values
are errors (with line diagnostics).  Defaults are filled in and recorded,
so a loaded config always echoes every effective key.  Environment
variables with the prefix ``NLSLAB_`` override file values (dots become
double underscores: ``NLSLAB_MODEL__N=3``); an unknown one is an error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidParameterError
from .evolve import EvolverConfig
from .ground import validate_intercritical, validate_spacing

__all__ = ["RunConfig", "load_config", "parse_eps", "evolver_config",
           "ENV_PREFIX"]

ENV_PREFIX = "NLSLAB_"

# key -> (type, default).  The evolve.* keys are EvolverConfig's fields,
# with its defaults; check.identity_n uses 0 for "auto".
DEFAULTS: dict[str, tuple[type, object]] = {
    "model.N": (int, 3),
    "model.p": (float, 3.0),
    "grid.rmax": (float, 30.0),
    "grid.n": (int, 3000),
    **{f"evolve.{f.name}": (type(f.default), f.default)
       for f in fields(EvolverConfig)},
    "experiment.A": (float, 1.0),
    "experiment.k": (int, 3),
    "experiment.delta": (float, 0.1),
    "experiment.sweep_eps": (str, "-0.1,0.1"),
    "check.identity_n": (int, 0),
}

ALIASES = {"N": "model.N", "p": "model.p"}


@dataclass
class RunConfig:
    """Effective configuration: every key present."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def render(self) -> str:
        """Canonical echo: every effective key, sorted, one per line."""
        lines = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"


def _coerce(key: str, text: str, line_no: int):
    typ, _ = DEFAULTS[key]
    text = text.strip()
    try:
        if typ is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if typ is int:
            v = int(text)
        elif typ is float:
            v = float(text)
        else:
            v = text
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: key {key!r}: {exc}") from exc
    return v


def parse_eps(text: str) -> list[float]:
    """The ``experiment.sweep_eps`` list: comma-separated finite floats, at
    least one."""
    items = [x for x in text.split(",") if x.strip()]
    if not items:
        raise ConfigError(f"experiment.sweep_eps has no values: {text!r}")
    try:
        eps = [float(x) for x in items]
    except ValueError as exc:
        raise ConfigError(f"experiment.sweep_eps: {exc}") from exc
    if not all(map(math.isfinite, eps)):
        raise ConfigError(f"experiment.sweep_eps has a non-finite value: {text!r}")
    return eps


def evolver_config(values: dict, **overrides) -> EvolverConfig:
    """EvolverConfig from the ``evolve.*`` keys, which share its field names."""
    keys = {key.split(".", 1)[1]: v for key, v in values.items()
            if key.startswith("evolve.")}
    return EvolverConfig(**{**keys, **overrides})


def _validate(values: dict) -> None:
    for key, (typ, _) in DEFAULTS.items():
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]}")
    N, p = values["model.N"], values["model.p"]
    try:
        validate_intercritical(N, p)
    except Exception as exc:
        raise ConfigError(f"model.N/model.p: {exc}") from exc
    if values["grid.rmax"] <= 0:
        raise ConfigError(f"grid.rmax must be positive, got {values['grid.rmax']}")
    if values["grid.n"] < 16:
        raise ConfigError(f"grid.n must be >= 16, got {values['grid.n']}")
    if 0 != values["check.identity_n"] < 16:     # 0 means auto
        raise ConfigError(f"check.identity_n must be 0 or >= 16, got {values['check.identity_n']}")
    for key in ("grid.n", "check.identity_n"):
        try:
            if values[key]:         # a grid the ground state is solved on
                validate_spacing(values["grid.rmax"] / values[key])
        except InvalidParameterError as exc:
            raise ConfigError(f"grid.rmax/{key}: {exc}") from exc
    try:
        evolver_config(values)
    except InvalidParameterError as exc:
        raise ConfigError(f"evolve.*: {exc}") from exc
    if not (0 < values["experiment.delta"] <= 0.2):
        raise ConfigError(
            f"experiment.delta must lie in (0, 0.2], got {values['experiment.delta']}")
    if values["experiment.A"] == 0:
        raise ConfigError("experiment.A must be nonzero: A = 0 is the standing wave, not U^A")
    if values["experiment.k"] < 1:
        raise ConfigError(f"experiment.k must be >= 1, got {values['experiment.k']}")
    parse_eps(values["experiment.sweep_eps"])


def _parse_text(text: str) -> dict:
    parsed: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        key = ALIASES.get(key, key)
        if key not in DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in parsed:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        parsed[key] = _coerce(key, val, line_no)
    return parsed


def _apply_env(values: dict) -> None:
    keys = {ENV_PREFIX + key.replace(".", "__").upper(): key for key in DEFAULTS}
    for env_key, text in os.environ.items():
        if env_key.startswith(ENV_PREFIX):
            if env_key not in keys:
                raise ConfigError(f"environment variable {env_key} names no config key")
            values[keys[env_key]] = _coerce(keys[env_key], text, 0)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load (or default) a config; precedence defaults < file < env < overrides."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    parsed = _parse_text(text)
    values = {key: default for key, (_, default) in DEFAULTS.items()}
    values.update(parsed)
    _apply_env(values)
    if overrides:
        for key, val in overrides.items():
            key = ALIASES.get(key, key)
            if key not in DEFAULTS:
                raise ConfigError(f"unknown override key {key!r}")
            if val is not None:
                values[key] = val
    _validate(values)
    return RunConfig(values=values)
