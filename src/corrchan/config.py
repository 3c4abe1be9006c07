"""Experiment configuration: flat key=value files plus CLI overrides.

The format is deliberately trivial to parse from any language: one
`key=value` per line, '#' starts a comment, blank lines ignored.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import (KrausChannel, pauli_channel, pauli_column_probs,
                       qubit_ixz_channel, symmetric_pauli_channel)
from .optimize import OptimizerConfig

CHANNEL_KINDS = ("qubit_ixz", "pauli_symmetric", "pauli_general")


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    dim: int = 2
    channel: str = "qubit_ixz"
    probs: list[float] = field(default_factory=lambda: [0.3, 0.2, 0.5])
    mu_start: float = 0.0
    mu_end: float = 1.0
    mu_points: int = 51
    mode: str = "full"
    restarts: int | None = None
    max_iters: int = 5000
    ftol: float = 1e-12
    seed: int = 42
    outputs: set[str] = field(default_factory=lambda: {"csv", "svg"})
    out_dir: Path = Path(".")

    def validate(self) -> None:
        if self.channel not in CHANNEL_KINDS:
            raise ConfigError(f"unknown channel kind '{self.channel}'")
        if self.dim < 2:
            raise ConfigError("dim must be at least 2")
        if self.channel == "qubit_ixz" and self.dim != 2:
            raise ConfigError("qubit_ixz requires dim=2")
        if not (0.0 <= self.mu_start < self.mu_end <= 1.0):
            raise ConfigError("mu grid must satisfy 0 <= start < end <= 1")
        if self.mu_points < 2:
            raise ConfigError("mu_points must be at least 2")
        if not self.outputs <= {"csv", "svg"}:
            raise ConfigError("outputs may only contain csv and svg")
        n_expected = {"qubit_ixz": 3, "pauli_symmetric": self.dim,
                      "pauli_general": self.dim * self.dim}[self.channel]
        if len(self.probs) != n_expected:
            raise ConfigError(f"channel '{self.channel}' with dim={self.dim} "
                              f"needs {n_expected} probabilities, "
                              f"got {len(self.probs)}")
        try:
            self.optimizer_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def mu_grid(self) -> np.ndarray:
        return np.linspace(self.mu_start, self.mu_end, self.mu_points)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(restarts=self.restarts, max_iters=self.max_iters,
                               ftol=self.ftol, seed=self.seed, mode=self.mode)


def _parse_value(cfg: ExperimentConfig, key: str, raw: str) -> None:
    try:
        if key == "dim":
            cfg.dim = int(raw)
        elif key == "channel":
            cfg.channel = raw.strip()
        elif key == "probs":
            cfg.probs = [float(v) for v in raw.replace(",", " ").split()]
        elif key == "mu_start":
            cfg.mu_start = float(raw)
        elif key == "mu_end":
            cfg.mu_end = float(raw)
        elif key == "mu_points":
            cfg.mu_points = int(raw)
        elif key == "mode":
            cfg.mode = raw.strip()
        elif key == "restarts":
            cfg.restarts = int(raw)
        elif key == "max_iters":
            cfg.max_iters = int(raw)
        elif key == "ftol":
            cfg.ftol = float(raw)
        elif key == "seed":
            cfg.seed = int(raw)
        elif key == "outputs":
            cfg.outputs = {v.strip() for v in raw.split(",") if v.strip()}
        elif key == "out_dir":
            cfg.out_dir = Path(raw.strip())
        else:
            raise ConfigError(f"unknown configuration key '{key}'")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad value for '{key}': {raw!r}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a key=value configuration file. Raises ConfigError on problems."""
    cfg = ExperimentConfig()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = stripped.split("=", 1)
        _parse_value(cfg, key.strip(), raw.strip())
    return cfg


def build_channel(cfg: ExperimentConfig) -> KrausChannel:
    """Construct the configured base channel, normalising probabilities.

    qubit_ixz and pauli_general probabilities must sum to 1 within 1e-6
    (then exact renormalisation absorbs decimal rounding). For
    pauli_symmetric the d column values target 1/d; values off by more
    than 1e-6 but within 20% are rescaled with a warning, which absorbs
    truncated published decimals. A negative or NaN entry is a ConfigError,
    as is mode=ansatz on a channel that pauli_column_probs rejects.
    """
    p = np.asarray(cfg.probs, dtype=float)
    s = p.sum()
    if cfg.channel == "pauli_symmetric":
        target = 1.0 / cfg.dim
        if not abs(s - target) <= 0.2 * target:
            raise ConfigError(f"pauli_symmetric column probabilities sum to "
                              f"{s:.6g}; expected about 1/{cfg.dim}")
        if abs(s - target) > 1e-6:
            print(f"warning: rescaling column probabilities by {target / s:.8g} "
                  f"so they sum to 1/{cfg.dim}", file=sys.stderr)
        p = p * (target / s)
    elif not abs(s - 1.0) <= 1e-6:
        raise ConfigError(f"{cfg.channel} probabilities sum to {s:.6g}, not 1")
    else:
        p = p / s
    try:
        if cfg.channel == "qubit_ixz":
            ch = qubit_ixz_channel(*p)
        elif cfg.channel == "pauli_general":
            ch = pauli_channel(cfg.dim, p)
        else:
            ch = symmetric_pauli_channel(cfg.dim, p)
        if cfg.mode == "ansatz":
            pauli_column_probs(ch)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ch
