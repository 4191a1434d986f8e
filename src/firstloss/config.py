"""Run configuration: a small key = value file with sections, plus
``section.key=value`` overrides, over the base case of the numerical studies."""

from __future__ import annotations

import configparser
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

from .contract import InputError
from .market import MarketParams
from .pareto import GridSteps
from .preferences import HaraParams


class ConfigError(InputError):
    """Bad configuration file or override; message carries the field path."""


# every config key in echo order: its RunConfig field, that field's
# attribute (None for the field itself) and the type its text is read as
_KEYS = {
    "market.r": ("market", "r", float),
    "market.gamma": ("market", "gamma", float),
    "market.sigma": ("market", "sigma", float),
    "market.horizon": ("market", "horizon_T", float),
    "market.v0": ("market", "v0", float),
    "manager.a": ("manager", "a", float),
    "manager.b": ("manager", "b", float),
    "investor.a": ("investor", "a", float),
    "investor.b": ("investor", "b", float),
    "sweep.dm": ("steps", "dm", float),
    "sweep.dalpha": ("steps", "dalpha", float),
    "sweep.dc": ("steps", "dc", float),
    "sweep.n_phi": ("steps", "n_phi", int),
    "run.seed": ("seed", None, int),
    "run.mc_draws": ("mc_draws", None, int),
    "run.outdir": ("outdir", None, str),
}


@dataclass(frozen=True)
class RunConfig:
    """The base case: r = 2%, gamma = 40%, sigma = 20%, a = 0.3 and b = 0.65
    for both parties, at the default lattice steps."""

    market: MarketParams = MarketParams(sigma=0.20)
    manager: HaraParams = HaraParams(a=0.3, b=0.65)
    investor: HaraParams = HaraParams(a=0.3, b=0.65)
    steps: GridSteps = GridSteps()
    seed: int = 20240901
    mc_draws: int = 1_000_000
    outdir: str = "out"

    def as_items(self) -> list[tuple[str, str]]:
        """Flattened effective configuration, echoed into output headers."""
        items = []
        for key, (name, attr, kind) in _KEYS.items():
            value = getattr(self, name) if attr is None else getattr(getattr(self, name), attr)
            items.append((key, value if kind is str else repr(value)))
        return items


def load_config(path: str | Path | None = None, overrides: Iterable[str] = ()) -> RunConfig:
    """RunConfig() overlaid with an optional file, then with ``section.key=value``
    overrides, which win over the file.  Every value passes its parameter
    object's constructor checks; errors carry the offending field path."""
    values: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {p}: {exc}") from exc
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=str(p))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {p}: {exc}") from exc
        for section in parser.sections():
            if not any(key.startswith(f"{section}.") for key in _KEYS):
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if f"{section}.{key}" not in _KEYS:
                    raise ConfigError(f"unknown config field {section}.{key}")
                values[f"{section}.{key}"] = raw
    for item in overrides:
        dotted, eq, raw = item.partition("=")
        dotted = dotted.strip()
        if not eq or "." not in dotted:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        if dotted not in _KEYS:
            raise ConfigError(f"unknown override field {dotted}")
        values[dotted] = raw.strip()

    config = RunConfig()
    fields: dict[str, object] = {}
    parts: dict[str, dict] = {}
    for key, (name, attr, kind) in _KEYS.items():
        if key in values:
            try:
                value = kind(values[key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {values[key]!r}") from exc
            if attr is None:
                fields[name] = value
            else:
                parts.setdefault(name, {})[attr] = value
    try:
        for name, given in parts.items():
            fields[name] = replace(getattr(config, name), **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(config, **fields)
