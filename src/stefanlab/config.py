"""Scenario configuration: a plain-text key = value format.

Grammar (one setting per line):

    # comment                      blank lines and '#' comments are skipped
    key = value                    one setting

Values are parsed as booleans (``true``/``false``), integers, floats,
comma-separated numeric lists, or bare strings, in that order of
preference.  Unknown keys and malformed lines raise :class:`ConfigError`
with the line number.  ``serialize`` emits a canonical form whose
parse -> serialize -> parse round trip is the identity.

The record cadence, the mass guard, the trap search's ceiling and step
tolerance and the verdict's bounds are constants of their modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .solver import MAX_STEPS_PER_RECORD, RECORD_DS
from .spectrum import MAX_EIGENPAIRS
from .weighted import B_WARN

MODES = ("spectrum", "run", "shoot", "verify-all")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run parameters for the command-line front end."""

    mode: str = "run"
    k: int = 1
    b0: float = 0.01
    grid_n: int = 1024
    ds: float | None = None          # None -> step-size default for (grid, k)
    s_max: float | None = None       # None -> mode-dependent default
    seed: int = 1234
    quick: bool = False
    json_output: bool = False
    out_dir: str = "out"
    b_values: tuple = (0.005, 0.01, 0.02)
    lower_modes: tuple = ()          # b_1(0) .. b_{k-1}(0) for k > 1 runs

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        # a k-mode profile is built from the first k eigenpairs
        if not 1 <= self.k <= MAX_EIGENPAIRS:
            raise ConfigError(f"k must be in [1, {MAX_EIGENPAIRS}]")
        if self.mode == "shoot" and self.k not in (2, 3):
            raise ConfigError("shooting supports k in {2, 3} only")
        if self.grid_n < 8 or self.grid_n % 2:
            raise ConfigError("grid must be even and >= 8")
        if self.mode in ("spectrum", "run", "shoot") and self.grid_n < 512:
            raise ConfigError(f"mode {self.mode!r} needs a grid of >= 512")
        if not (math.isfinite(self.b0) and abs(self.b0) <= B_WARN):
            raise ConfigError(
                f"b0 must be finite with |b0| <= {B_WARN}, got {self.b0!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in _OPTIONAL_FIELDS:
            val = getattr(self, name)
            if val is None:
                continue
            if not (isinstance(val, (int, float)) and math.isfinite(val)
                    and val > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {val!r}")
        # the run takes RECORD_DS / ds steps per record (inf on overflow)
        if (self.ds is not None
                and not RECORD_DS / self.ds <= MAX_STEPS_PER_RECORD):
            raise ConfigError(
                f"record_ds / ds must be at most {MAX_STEPS_PER_RECORD:g} "
                f"steps per record; got record_ds = {RECORD_DS!r}, "
                f"ds = {self.ds!r}")
        if self.lower_modes and len(self.lower_modes) != self.k - 1:
            raise ConfigError(
                f"lower_modes needs {self.k - 1} entries for k = {self.k}"
            )
        if not all(math.isfinite(x) and abs(x) <= B_WARN
                   for x in self.lower_modes):
            raise ConfigError(
                f"lower_modes must be finite with |x| <= {B_WARN}")
        if (len(set(self.b_values)) < 3
                or not all(b != 0.0 and abs(b) < B_WARN
                           for b in self.b_values)):
            raise ConfigError(
                "b_values needs >= 3 distinct nonzero values with "
                f"|b| < {B_WARN}")
        if not self.out_dir:
            raise ConfigError("out must name a directory")


# key -> dataclass field
_KEYMAP = {
    "mode": "mode",
    "k": "k",
    "b0": "b0",
    "grid": "grid_n",
    "ds": "ds",
    "s_max": "s_max",
    "seed": "seed",
    "quick": "quick",
    "json": "json_output",
    "out": "out_dir",
    "b_values": "b_values",
    "lower_modes": "lower_modes",
}

_INT_FIELDS = {"k", "grid_n", "seed"}
_BOOL_FIELDS = {"quick", "json_output"}
_STR_FIELDS = {"mode", "out_dir"}
_TUPLE_FIELDS = {"b_values", "lower_modes"}
_OPTIONAL_FIELDS = ("ds", "s_max")     # none/auto, or finite and > 0


def _parse_value(token: str, fname: str, lineno: int):
    token = token.strip()
    if fname in _STR_FIELDS:
        return token
    if fname in _BOOL_FIELDS:
        if token.lower() in ("true", "yes", "1"):
            return True
        if token.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"line {lineno}: expected boolean, got {token!r}")
    if fname in _OPTIONAL_FIELDS and token.lower() in ("none", "auto"):
        return None
    if fname in _TUPLE_FIELDS:
        if not token:
            return ()
        try:
            return tuple(float(p) for p in token.split(","))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad list {token!r}") from exc
    try:
        if fname in _INT_FIELDS:
            return int(token)
        return float(token)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad number {token!r}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a validated :class:`ScenarioConfig`."""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        fname = _KEYMAP.get(key)
        if fname is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        settings[fname] = _parse_value(value, fname, lineno)
    try:
        return ScenarioConfig(**settings)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _format_value(val, fname: str) -> str:
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if fname in _TUPLE_FIELDS:
        return ", ".join(repr(float(x)) for x in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form (stable key order, repr floats)."""
    return "".join(f"{key} = {_format_value(getattr(cfg, fname), fname)}\n"
                   for key, fname in _KEYMAP.items())


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Replace fields, re-running validation."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **clean)
