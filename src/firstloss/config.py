"""Run configuration: a small key = value file with sections, defaulting to
the base-case parameterization used across the numerical studies."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .market import MarketParams
from .pareto import GridSteps
from .preferences import HaraParams


class ConfigError(ValueError):
    """Bad configuration file or override; message carries the field path."""


@dataclass(frozen=True)
class RunConfig:
    market: MarketParams = field(default_factory=MarketParams)
    manager: HaraParams = field(default_factory=lambda: HaraParams(a=0.3, b=0.65))
    investor: HaraParams = field(default_factory=lambda: HaraParams(a=0.3, b=0.65))
    steps: GridSteps = field(default_factory=GridSteps)
    seed: int = 20240901
    mc_draws: int = 1_000_000
    outdir: str = "out"

    def as_items(self) -> list[tuple[str, str]]:
        """Flattened effective configuration, echoed into output headers."""
        m = self.market
        return [
            ("market.r", repr(m.r)),
            ("market.gamma", repr(m.gamma)),
            ("market.sigma", "" if m.sigma is None else repr(m.sigma)),
            ("market.horizon", repr(m.horizon_T)),
            ("market.v0", repr(m.v0)),
            ("manager.a", repr(self.manager.a)),
            ("manager.b", repr(self.manager.b)),
            ("investor.a", repr(self.investor.a)),
            ("investor.b", repr(self.investor.b)),
            ("sweep.dm", repr(self.steps.dm)),
            ("sweep.dalpha", repr(self.steps.dalpha)),
            ("sweep.dc", repr(self.steps.dc)),
            ("sweep.n_phi", repr(self.steps.n_phi)),
            ("run.seed", repr(self.seed)),
            ("run.mc_draws", repr(self.mc_draws)),
            ("run.outdir", self.outdir),
        ]


_FIELDS = {
    "market": {"r": float, "gamma": float, "sigma": float, "horizon": float, "v0": float},
    "manager": {"a": float, "b": float},
    "investor": {"a": float, "b": float},
    "sweep": {"dm": float, "dalpha": float, "dc": float, "n_phi": int},
    "run": {"seed": int, "mc_draws": int, "outdir": str},
}


def _collect(parser: configparser.ConfigParser, overrides: dict[str, str]) -> dict[str, dict[str, str]]:
    values: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in _FIELDS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _FIELDS[section]:
                raise ConfigError(f"unknown config field {section}.{key}")
            values.setdefault(section, {})[key] = raw
    for dotted, raw in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override {dotted!r} must look like section.key=value")
        section, key = dotted.split(".", 1)
        if section not in _FIELDS or key not in _FIELDS[section]:
            raise ConfigError(f"unknown override field {dotted}")
        values.setdefault(section, {})[key] = raw
    return values


def load_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus dotted-key overrides.

    Overrides win over file values; everything else keeps the base-case
    defaults.  Errors carry the offending field path.
    """
    parser = configparser.ConfigParser()
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {p}: {exc}") from exc
        try:
            parser.read_string(text, source=str(p))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {p}: {exc}") from exc

    values = _collect(parser, overrides or {})

    def pick(section: str, key: str, default):
        raw = values.get(section, {}).get(key)
        if raw is None:
            return default
        caster = _FIELDS[section][key]
        try:
            return caster(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc

    try:
        market = MarketParams(
            r=pick("market", "r", 0.02),
            gamma=pick("market", "gamma", 0.40),
            sigma=pick("market", "sigma", 0.20),
            horizon_T=pick("market", "horizon", 1.0),
            v0=pick("market", "v0", 1.0),
        )
        manager = HaraParams(a=pick("manager", "a", 0.3), b=pick("manager", "b", 0.65))
        investor = HaraParams(a=pick("investor", "a", 0.3), b=pick("investor", "b", 0.65))
        steps = GridSteps(
            dm=pick("sweep", "dm", 0.0025),
            dalpha=pick("sweep", "dalpha", 0.005),
            dc=pick("sweep", "dc", 0.005),
            n_phi=pick("sweep", "n_phi", 200),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        market=market,
        manager=manager,
        investor=investor,
        steps=steps,
        seed=pick("run", "seed", 20240901),
        mc_draws=pick("run", "mc_draws", 1_000_000),
        outdir=pick("run", "outdir", "out"),
    )
