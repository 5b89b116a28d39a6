"""Hyperparameter dataclass and the INI-style run configuration.

Run configs are flat key=value files with [data]/[model]/[train]/[eval]
sections; unknown keys are rejected and every accepted config re-emits to
an equivalent file (parse(emit(c)) == c).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .cie import AGGREGATORS
from .dataio import GenConfig


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


# Largest accepted model sizes, each over 10x what any shipped config uses:
# they scale what a step allocates or how often it loops, so a config past
# them is refused before anything of its size is built.
HYPER_MAXIMA = {"embed_dim": 1024, "time_buckets": 1024, "routing_iterations": 64,
                "relation_layers": 32, "interaction_layers": 32}


@dataclass
class HyperConfig:
    """Every scalar hyperparameter of the model and optimizer."""

    embed_dim: int = 16
    specific_interests: int = 2
    shared_interests: int = 2
    tau: float = 1.0
    routing_iterations: int = 2
    relation_layers: int = 1
    interaction_layers: int = 1
    attention_heads: int = 2
    aggregator: str = "light"
    leaky_slope: float = 0.2
    time_buckets: int = 4
    time_embedding: bool = True
    alpha: tuple = ()  # per-behavior loss weights; empty means all ones
    beta: float = 0.1
    reg_lambda: float = 1e-5
    learning_rate: float = 1e-3
    decay_rate: float = 0.96
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    patience: int = 20
    precision: str = "f64"
    no_cie: bool = False
    no_fbc: bool = False
    no_mi: bool = False
    shared_only: bool = False
    specific_only: bool = False

    def interest_structure(self):
        """(n_specific, n_shared, interest width) after ablation overrides."""
        if self.no_mi:
            return 0, 1, self.embed_dim
        total = self.specific_interests + self.shared_interests
        return self.specific_interests, self.shared_interests, self.embed_dim // total

    @property
    def dtype(self) -> np.dtype:
        """The float dtype that `precision` names: parameters, graph weights
        and every tape value and gradient are of it."""
        return np.dtype(np.float32 if self.precision == "f32" else np.float64)

    @property
    def cie_disabled(self) -> bool:
        """no_mi removes interest extraction entirely (unified vectors)."""
        return self.no_cie or self.no_mi

    @property
    def fbc_disabled(self) -> bool:
        """no_mi also removes routing + attention (plain aggregation)."""
        return self.no_fbc or self.no_mi

    def alphas_for(self, num_behaviors: int) -> tuple:
        if not self.alpha:
            return tuple(1.0 for _ in range(num_behaviors))
        return tuple(self.alpha)

    def validate(self, num_behaviors: int | None = None):
        for key, maximum in HYPER_MAXIMA.items():
            if getattr(self, key) > maximum:
                raise ConfigError(f"{key}={getattr(self, key)} exceeds the maximum {maximum}")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be positive")
        if self.specific_interests < 0 or self.shared_interests < 0:
            raise ConfigError("interest counts cannot be negative")
        if not self.no_mi:
            total = self.specific_interests + self.shared_interests
            if total < 1:
                raise ConfigError("need at least one interest")
            if self.embed_dim % total != 0:
                raise ConfigError(
                    f"embed_dim {self.embed_dim} is not divisible by the "
                    f"interest count {total}")
        _, _, d_star = self.interest_structure()
        if self.attention_heads < 1 or d_star % self.attention_heads != 0:
            raise ConfigError(
                f"attention heads {self.attention_heads} must divide the "
                f"interest width {d_star}")
        if not 0.0 < self.tau < np.inf:  # comparisons with NaN are false
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.routing_iterations < 1:
            raise ConfigError("routing_iterations must be >= 1")
        if self.relation_layers < 0 or self.interaction_layers < 1:
            raise ConfigError("relation_layers >= 0 and interaction_layers >= 1 required")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"unknown aggregator {self.aggregator!r}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must sit in (0, 1)")
        if self.time_buckets < 1:
            raise ConfigError("time_buckets must be >= 1")
        if num_behaviors is not None and self.alpha and len(self.alpha) != num_behaviors:
            raise ConfigError(
                f"alpha has {len(self.alpha)} entries for {num_behaviors} behaviors")
        if any(not 0.0 <= a <= 1.0 for a in self.alpha):
            raise ConfigError("alpha weights must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        if not 0.0 <= self.reg_lambda < np.inf:
            raise ConfigError(
                f"reg_lambda must be non-negative and finite, got {self.reg_lambda}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.decay_rate <= 1.0:
            raise ConfigError("decay_rate must sit in (0, 1]")
        if self.batch_size < 1 or self.epochs < 0 or self.patience < 1:
            raise ConfigError("batch_size >= 1, epochs >= 0, patience >= 1 required")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.precision not in ("f64", "f32"):
            raise ConfigError("precision must be f64 or f32")
        if self.shared_only and self.specific_only:
            raise ConfigError("shared_only and specific_only exclude each other")
        if self.no_mi and (self.shared_only or self.specific_only):
            raise ConfigError("no_mi already collapses to one interest")
        if self.shared_only and self.shared_interests < 1 and not self.no_mi:
            raise ConfigError("shared_only needs at least one shared interest")
        if self.specific_only and self.specific_interests < 1:
            raise ConfigError("specific_only needs at least one specific interest")


@dataclass
class RunConfig:
    manifest: str = ""
    synth: GenConfig = field(default_factory=GenConfig)  # the [data] synth_* keys
    hyper: HyperConfig = field(default_factory=HyperConfig)
    top_n: int = 10
    eval_all_behaviors: bool = False
    out_dir: str = "runs/out"

    def validate(self, num_behaviors: int | None = None):
        self.hyper.validate(num_behaviors)
        if self.top_n < 1:
            raise ConfigError("top_n must be >= 1")


# Every accepted key, in emitted order: (section, the RunConfig field the
# keys set or "" for RunConfig itself, key prefix, field names). A (key,
# field) pair names a key that differs from its field.
_CONFIG_TABLE = (
    ("data", "", "", ("manifest", "out_dir")),
    ("data", "synth", "synth_",
     (("users", "num_users"), ("items", "num_items"), ("behaviors", "num_behaviors"),
      ("relations", "relation_count"), "shared_prototypes", "specific_prototypes",
      "interactions_per_user", "correlation", "relation_degree")),
    ("model", "hyper", "",
     ("embed_dim", "specific_interests", "shared_interests", "tau",
      "routing_iterations", "relation_layers", "interaction_layers",
      "attention_heads", "aggregator", "leaky_slope", "time_buckets",
      "time_embedding", "no_cie", "no_fbc", "no_mi", "shared_only",
      "specific_only")),
    ("train", "hyper", "",
     ("alpha", "beta", "reg_lambda", "learning_rate", "decay_rate",
      "batch_size", "epochs", "seed", "patience", "precision")),
    ("eval", "", "", ("top_n", "eval_all_behaviors")),
)
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _CONFIG_TABLE))


def _section_keys(cfg: RunConfig, section: str) -> dict:
    """key -> (object it sets, field name) for every key of `section`."""
    return {prefix + key: (getattr(cfg, part) if part else cfg, name)
            for sec, part, prefix, names in _CONFIG_TABLE if sec == section
            for key, name in (n if isinstance(n, tuple) else (n, n) for n in names)}


def _parse_bool(value: str, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "on", "yes", "1"):
        return True
    if v in ("false", "off", "no", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {key}={value!r}")


def _coerce(current, value: str, key: str):
    if isinstance(current, bool):
        return _parse_bool(value, key)
    if isinstance(current, int):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"cannot parse integer {key}={value!r}") from None
    if isinstance(current, float):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"cannot parse float {key}={value!r}") from None
    if isinstance(current, tuple):
        # brackets are dropped: checkpoints written before the shared
        # serializer hold alpha as a JSON list such as "[0.5, 1.0]"
        value = value.strip().strip("[]")
        if not value:
            return ()
        try:
            return tuple(float(v) for v in value.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse float list {key}={value!r}") from None
    return value


def parse_run_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)  # values are literal
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    for section in _SECTIONS:
        if not parser.has_section(section):
            continue
        keys = _section_keys(cfg, section)
        for key, value in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            target, name = keys[key]
            setattr(target, name, _coerce(getattr(target, name), value.strip(), key))
    return cfg


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except IsADirectoryError:
        raise ConfigError(f"config {path} is a directory") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: invalid byte at offset "
                          f"{exc.start}") from None
    return parse_run_config(text)


def emit_run_config(cfg: RunConfig, omit: tuple = ()) -> str:
    """Serialize so that parse_run_config(emit_run_config(c)) == c; keys in
    `omit` are left out (and parse back to their defaults)."""
    parser = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        parser.add_section(section)
        for key, (target, name) in _section_keys(cfg, section).items():
            if key not in omit:
                parser.set(section, key, _format_value(getattr(target, name)))
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(repr(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)
