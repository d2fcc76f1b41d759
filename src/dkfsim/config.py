"""Flat key = value experiment configuration.

Lines are `key = value`; '#' starts a comment; list values are whitespace or
comma separated. Unknown keys and invalid values are collected and reported
together in a single ConfigError.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, SelectionError

MODES = ("greedy", "stability", "fixed-subset", "all")
_OWN_MODE = object()  # validate's default: the rules of the config's own mode


@dataclass
class ExperimentConfig:
    """Everything one run needs; defaults reproduce the 2000-node benchmark scenario."""

    # system
    state_dim: int = 2
    transition: str = "builtin"  # builtin | table:<path>
    q_scale: float = 0.1
    x0: tuple = (1.0, 1.0)
    ts: float = 0.01
    # network
    n_sensors: int = 2000
    variance_range: tuple = (0.0, 0.5)
    delay_range: tuple = (0.0, 2.0)
    jitter_std: float = 0.0
    network_file: str = ""
    # stability machinery
    k_bar: int = 20
    alpha: float = 1e-6
    # experiment
    mode: str = "stability"
    horizon: int = 200
    seed: int | None = None
    runs: int = 25
    out: str = "out"
    iterations: int = 100
    subset: tuple = ("all",)
    band: float = 0.01

    def validate(self, mode=_OWN_MODE):
        """Raise one ConfigError naming every invalid key; NaN and +-inf are
        invalid in every float key. The stability window and the fixed
        subset's ids are checked only where mode, by default the config's
        own, runs them; mode None runs neither."""
        if mode is _OWN_MODE:
            mode = self.mode
        bad = []
        if self.state_dim < 1:
            bad.append("state_dim")
        if not (self.transition == "builtin" or self.transition.startswith("table:")):
            bad.append("transition")
        if not 0 < self.q_scale < math.inf:
            bad.append("q_scale")
        if len(self.x0) != self.state_dim or not all(map(math.isfinite, self.x0)):
            bad.append("x0")
        if not 0 < self.ts < math.inf:
            bad.append("ts")
        if self.n_sensors < 1:
            bad.append("n_sensors")
        for key, rng in (("variance_range", self.variance_range), ("delay_range", self.delay_range)):
            if len(rng) != 2 or not (0 <= rng[0] <= rng[1] < math.inf):
                bad.append(key)
        if not 0 <= self.jitter_std < math.inf:
            bad.append("jitter_std")
        if self.k_bar < 1:
            bad.append("k_bar")
        if not 0 < self.alpha < math.inf:
            bad.append("alpha")
        if self.mode not in MODES:
            bad.append("mode")
        if self.horizon < 2:
            bad.append("horizon")
        if self.seed is None or self.seed < 0:
            bad.append("seed")
        if self.runs < 1:
            bad.append("runs")
        if self.iterations < 1:
            bad.append("iterations")
        if not (0 < self.band < 1):
            bad.append("band")
        # a config no run can satisfy: the stability window needs a step past
        # k_bar, and a sampled network has exactly the ids 1..n_sensors
        if mode in ("stability", "all") and self.horizon <= self.k_bar:
            bad += [key for key in ("k_bar", "horizon") if key not in bad]
        if self.subset != ("all",):
            try:
                ids = [int(v) for v in self.subset]
            except (TypeError, ValueError):
                bad.append("subset")
            else:
                if (mode in ("fixed-subset", "all") and not self.network_file
                        and not all(1 <= i <= self.n_sensors for i in ids)):
                    bad.append("subset")
        if bad:
            raise ConfigError(f"invalid configuration values for: {', '.join(bad)}", keys=bad)
        return self

    def subset_ids(self, network) -> list:
        """The fixed subset's ids in network; SelectionError if it lacks one."""
        if self.subset == ("all",):
            return network.ids()
        ids = [int(v) for v in self.subset]
        unknown = [i for i in ids if not 1 <= i <= len(network)]
        if unknown:
            raise SelectionError(f"unknown node ids in subset: {unknown}", keys=("subset",))
        return ids


# each key's declared type as the builtin that parses it; seed's "int | None" parses as int
_FIELD_TYPES = {f.name: getattr(builtins, f.type.split(" | ")[0]) for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    """raw as key's declared type; a tuple holds floats, or subset's node ids."""
    kind = _FIELD_TYPES[key]
    if kind is not tuple:
        return kind(raw)
    parts = raw.replace(",", " ").split()
    if key == "subset":
        return ("all",) if parts in ([], ["all"]) else tuple(int(v) for v in parts)
    return tuple(float(v) for v in parts)


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    unknown, invalid = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            invalid.append(f"line {lineno}")
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            unknown.append(key)
            continue
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError:
            invalid.append(key)
    problems = unknown + invalid
    if problems:
        raise ConfigError(
            f"bad configuration: unknown or malformed keys: {', '.join(problems)}", keys=problems
        )
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
