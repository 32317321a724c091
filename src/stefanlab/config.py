"""Scenario configuration: a plain-text key = value format, and the
command-line flags that override it.

Grammar (one setting per line):

    # comment                      blank lines and '#' comments are skipped
    key = value                    one setting

:data:`SETTINGS` declares each setting's key, field and flag once, and
:func:`parse_value` parses a value from either source by the kind of its
field's default: boolean (``true``/``false``), integer, float, ``none`` or
a float, comma-separated numeric list, or bare string.  Errors raise
:class:`ConfigError` naming the line or the flag.  ``serialize`` emits a
canonical form whose parse -> serialize -> parse round trip is the
identity.

The record cadence, the mass guard, the trap search's ceiling and step
tolerance and the verdict's bounds are constants of their modules.
``seed`` (``--seed``) is accepted and validated but read by nothing: the
spectral gap check that drew from it reads the solved spectrum, and the
benchmark's spectral configs still name the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .asymptotics import classify_regime
from .errors import ConfigError
from .solver import check_step
from .spectrum import MAX_EIGENPAIRS
from .weighted import B_SMALL

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
    seed: int = 1234                 # accepted, read by nothing
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
        if not (math.isfinite(self.b0) and abs(self.b0) <= B_SMALL):
            raise ConfigError(
                f"b0 must be finite with |b0| <= {B_SMALL}, got {self.b0!r}")
        if self.mode in ("run", "shoot"):
            classify_regime(self.k, self.b0)   # b0 = 0 drives no regime
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("ds", "s_max"):       # none/auto, or finite and > 0
            val = getattr(self, name)
            if val is None:
                continue
            if not (isinstance(val, (int, float)) and math.isfinite(val)
                    and val > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {val!r}")
        if self.ds is not None:
            check_step(self.ds)
        if self.lower_modes and len(self.lower_modes) != self.k - 1:
            raise ConfigError(
                f"lower_modes needs {self.k - 1} entries for k = {self.k}"
            )
        if not all(math.isfinite(x) and abs(x) <= B_SMALL
                   for x in self.lower_modes):
            raise ConfigError(
                f"lower_modes must be finite with |x| <= {B_SMALL}")
        if (len(set(self.b_values)) < 3
                or not all(b != 0.0 and abs(b) < B_SMALL
                           for b in self.b_values)):
            raise ConfigError(
                "b_values needs >= 3 distinct nonzero values with "
                f"|b| < {B_SMALL}")
        if not self.out_dir:
            raise ConfigError("out must name a directory")


# key, ScenarioConfig field, command-line flag (None: the file only)
SETTINGS = (
    ("mode", "mode", "--mode"),
    ("k", "k", "--k"),
    ("b0", "b0", "--b0"),
    ("grid", "grid_n", "--grid"),
    ("ds", "ds", "--ds"),
    ("s_max", "s_max", "--smax"),
    ("seed", "seed", "--seed"),
    ("quick", "quick", "--quick"),
    ("json", "json_output", "--json"),
    ("out", "out_dir", "--out"),
    ("b_values", "b_values", None),
    ("lower_modes", "lower_modes", "--lower"),
)
_FIELDS = {key: fname for key, fname, _ in SETTINGS}


def parse_value(token: str, fname: str, where: str):
    """Parse the value of field ``fname`` by the kind of its default;
    ``where`` names the source in errors (``"line 3"``, ``"--k"``)."""
    token = token.strip()
    kind = type(getattr(ScenarioConfig, fname))
    if kind is str:
        return token
    if kind is bool:
        if token.lower() in ("true", "yes", "1"):
            return True
        if token.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"{where}: expected boolean, got {token!r}")
    if kind is tuple:
        if not token:
            return ()
        try:
            return tuple(float(p) for p in token.split(","))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad list {token!r}") from exc
    if kind is type(None) and token.lower() in ("none", "auto"):
        return None
    try:
        return int(token) if kind is int else float(token)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad number {token!r}") from exc


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
        fname = _FIELDS.get(key)
        if fname is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        settings[fname] = parse_value(value, fname, f"line {lineno}")
    return ScenarioConfig(**settings)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _format_value(val) -> str:
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, tuple):
        return ", ".join(repr(float(x)) for x in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form (stable key order, repr floats)."""
    return "".join(f"{key} = {_format_value(getattr(cfg, fname))}\n"
                   for key, fname, _ in SETTINGS)
