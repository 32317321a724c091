"""Scenario configuration: a plain-text key = value format with sections.

Grammar (one setting per line):

    # comment                      blank lines and '#' comments are skipped
    key = value                    top-level setting
    [section]                      opens a nested table; subsequent keys
    key = value                    belong to it until the next header

Values are parsed as booleans (``true``/``false``), integers, floats,
comma-separated numeric lists, or bare strings, in that order of
preference.  Unknown keys and malformed lines raise :class:`ConfigError`
with the line number.  ``serialize`` emits a canonical form whose
parse -> serialize -> parse round trip is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .reduced import SHOOT_TOL, TRAP_CEILING
from .solver import MASS_TOL, MAX_STEPS_PER_RECORD, RECORD_DS
from .spectrum import MAX_EIGENPAIRS

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
    record_ds: float = RECORD_DS
    seed: int = 1234
    quick: bool = False
    json_output: bool = False
    out_dir: str = "out"
    b_values: tuple = (0.005, 0.01, 0.02)
    lower_modes: tuple = ()          # b_1(0) .. b_{k-1}(0) for k > 1 runs
    ceiling: float = TRAP_CEILING    # trap ceiling D_k
    shoot_tol: float = SHOOT_TOL
    mass_tol: float = MASS_TOL
    rate_tol: float | None = None    # None -> 0.02 (k = 1) / 0.03 (k > 1)
    radius_tol: float = 1e-4

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
        if not (math.isfinite(self.b0) and abs(self.b0) <= 0.05):
            raise ConfigError(
                f"b0 must be finite with |b0| <= 0.05, got {self.b0!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in _POSITIVE_FIELDS:
            val = getattr(self, name)
            if val is None and name in _OPTIONAL_FIELDS:
                continue
            if not (isinstance(val, (int, float)) and math.isfinite(val)
                    and val > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {val!r}")
        # the run takes record_ds / ds steps per record (inf on overflow)
        if (self.ds is not None
                and not self.record_ds / self.ds <= MAX_STEPS_PER_RECORD):
            raise ConfigError(
                f"record_ds / ds must be at most {MAX_STEPS_PER_RECORD:g} "
                f"steps per record; got record_ds = {self.record_ds!r}, "
                f"ds = {self.ds!r}")
        # the shooting horizon ln(ceiling / (4 tol)) / growth has growth > 0
        if self.ceiling <= 4.0 * self.shoot_tol:
            raise ConfigError(
                "shooting horizon ln(ceiling / (4 tol)) / growth must be > 0, "
                f"so ceiling > 4 tol; got ceiling = {self.ceiling!r}, "
                f"tol = {self.shoot_tol!r}")
        if self.lower_modes and len(self.lower_modes) != self.k - 1:
            raise ConfigError(
                f"lower_modes needs {self.k - 1} entries for k = {self.k}"
            )
        if not all(math.isfinite(x) and abs(x) <= 0.05
                   for x in self.lower_modes):
            raise ConfigError("lower_modes must be finite with |x| <= 0.05")
        if (len(set(self.b_values)) < 3
                or not all(b != 0.0 and abs(b) < 0.05 for b in self.b_values)):
            raise ConfigError(
                "b_values needs >= 3 distinct nonzero values with |b| < 0.05")
        if not self.out_dir:
            raise ConfigError("out must name a directory")

    def effective_rate_tol(self) -> float:
        if self.rate_tol is not None:
            return self.rate_tol
        return 0.02 if self.k == 1 else 0.03


# (section, key) -> dataclass field; top-level uses section ""
_KEYMAP = {
    ("", "mode"): "mode",
    ("", "k"): "k",
    ("", "b0"): "b0",
    ("", "grid"): "grid_n",
    ("", "ds"): "ds",
    ("", "s_max"): "s_max",
    ("", "record_ds"): "record_ds",
    ("", "seed"): "seed",
    ("", "quick"): "quick",
    ("", "json"): "json_output",
    ("", "out"): "out_dir",
    ("", "b_values"): "b_values",
    ("", "lower_modes"): "lower_modes",
    ("shoot", "ceiling"): "ceiling",
    ("shoot", "tol"): "shoot_tol",
    ("tolerances", "mass"): "mass_tol",
    ("tolerances", "rate"): "rate_tol",
    ("tolerances", "radius"): "radius_tol",
}

_INT_FIELDS = {"k", "grid_n", "seed"}
_BOOL_FIELDS = {"quick", "json_output"}
_STR_FIELDS = {"mode", "out_dir"}
_TUPLE_FIELDS = {"b_values", "lower_modes"}
_OPTIONAL_FIELDS = {"ds", "s_max", "rate_tol"}
_POSITIVE_FIELDS = ("ds", "s_max", "record_ds", "ceiling", "shoot_tol",
                    "mass_tol", "rate_tol", "radius_tol")


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
    section = ""
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        fname = _KEYMAP.get((section, key))
        if fname is None:
            where = f"[{section}] " if section else ""
            raise ConfigError(f"line {lineno}: unknown key {where}{key!r}")
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
    by_section: dict[str, list[str]] = {}
    for (section, key), fname in _KEYMAP.items():
        val = getattr(cfg, fname)
        by_section.setdefault(section, []).append(
            f"{key} = {_format_value(val, fname)}"
        )
    lines = by_section.pop("", [])
    for section in sorted(by_section):
        lines.append(f"[{section}]")
        lines.extend(by_section[section])
    return "\n".join(lines) + "\n"


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """Replace fields, re-running validation."""
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **clean)
