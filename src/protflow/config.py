"""Flat key-value configuration files.

Format: one `key = value` per line, `#` starts a comment anywhere, blank
lines ignored. Keys are dotted paths from the schema below; unknown keys are
rejected so a typo cannot silently fall back to a default. Values are typed
(int / float / bool / str). Each SCHEMA row holds its key's type, default and
inclusive bounds, and its default is the only one: the trainers take each
train.* optimizer setting, ode.SolverConfig (their one check) each solver.*
setting and flow.VectorFieldConfig model.attention as a required argument.
multichain.ChainLayout checks the chains a chains value names. CLI `--set
key=value` flags override file values. Paths named by data.* must exist at
load time.
"""

import math
import os

from .errors import ConfigError, DataError, LayoutMismatch
from .multichain import L_MAX_CAP, ChainLayout, ChainSpec
from .numeric import ABOVE_0, FINITE, SIZE_CAP, is_int
from .ode import SETTINGS, SolverConfig

# key -> (type tag, default, lo, hi), the key's one default: an int or float key
# must lie in [lo, hi], and None means unset (paths, chains). Keys without bounds
# are checked by is_latent_dim (model.D), ode.SolverConfig and parse_chains_value.
SCHEMA = {
    "model.depth": ("int", 2, 1, SIZE_CAP),
    "model.width": ("int", 64, 1, SIZE_CAP),
    "model.ratio_c": ("int", 4, 1, math.inf),
    "model.L_max": ("int", 50, 1, L_MAX_CAP),
    "model.D": ("int", 64, None, None),
    "model.attention": ("bool", False, None, None),
    "model.embed_scale": ("float", 10.0, ABOVE_0, FINITE),
    "model.embed_rank": ("int", 4, 0, math.inf),
    "model.decoder_hidden": ("int", 64, 1, SIZE_CAP),
    "train.steps": ("int", 2000, 0, math.inf),
    "train.batch": ("int", 64, 1, math.inf),
    "train.lr": ("float", 1e-3, ABOVE_0, FINITE),
    "train.lr_min": ("float", 2e-4, 0.0, FINITE),
    "train.warmup": ("int", 100, 0, math.inf),
    "train.clip": ("float", 1.0, ABOVE_0, FINITE),
    "train.seed": ("int", 0, 0, math.inf),
    "train.val_every": ("int", 100, 1, math.inf),  # recorded in config snapshots; has no effect
    "train.weight_decay": ("float", 0.01, 0.0, FINITE),
    "solver.method": ("str", "dopri5", None, None),
    "solver.steps": ("int", 25, None, None),
    "solver.atol": ("float", 1e-6, None, None),
    "solver.rtol": ("float", 1e-6, None, None),
    "data.train_path": ("str", None, None, None),
    "data.val_path": ("str", None, None, None),
    "chains": ("str", None, None, None),
    "reflow.pairs": ("int", 256, 1, math.inf),
}


def _parse_value(key, text):
    kind = SCHEMA[key][0]
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError(text)
            return low == "true"
        return text
    except ValueError:
        raise ConfigError(f"bad {kind} value for {key}: {text!r}") from None


class Config:
    """Resolved, validated configuration: dotted key -> typed value."""

    def __init__(self, values):
        self._values = dict(values)

    def __getitem__(self, key):
        return self._values[key]

    def require(self, key):
        val = self._values.get(key)
        if val is None:
            raise ConfigError(f"config key {key} must be set for this command")
        return val

    def to_dict(self):
        return dict(self._values)


def parse_config_text(text, values=None):
    """Apply config lines on top of `values` (or the schema defaults)."""
    out = {key: row[1] for key, row in SCHEMA.items()} if values is None else dict(values)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key: {key}")
        out[key] = _parse_value(key, val)
    return out


def solver_config(values):
    """The SolverConfig of a values dict's solver.* keys, a missing or null one its default."""
    keys = ["solver." + name for name in SETTINGS]
    return SolverConfig(*(SCHEMA[k][1] if values.get(k) is None else values[k] for k in keys))


def is_latent_dim(dim):
    """The rule of the latent width (model.D, a checkpoint's "dim"): an int in
    [1, SIZE_CAP], and even, as the sinusoidal positional table needs."""
    return is_int(dim, 1, SIZE_CAP) and dim % 2 == 0


def _validate(values):
    for key, (_, _, lo, hi) in SCHEMA.items():
        if lo is not None and not lo <= values[key] <= hi:
            raise ConfigError(f"{key} must be in [{lo:g}, {hi:g}], got {values[key]!r}")
    solver_config(values)
    if not is_latent_dim(values["model.D"]):
        raise ConfigError(f"model.D must be even and in [2, {SIZE_CAP}], got {values['model.D']}")
    if values["model.embed_rank"] > values["model.D"]:
        raise ConfigError(
            f"model.embed_rank ({values['model.embed_rank']}) must be <= model.D "
            f"({values['model.D']})"
        )
    if values["model.D"] % values["model.ratio_c"] != 0:
        raise ConfigError(
            f"model.D ({values['model.D']}) must be divisible by "
            f"model.ratio_c ({values['model.ratio_c']})"
        )
    if values["chains"] is not None:
        parse_chains_value(values["chains"])


def load_config(path=None, overrides=None):
    """Build a Config from an optional file plus `key=value` override strings.

    Args:
        path: config file, or None for pure defaults + overrides.
        overrides: iterable of "key=value" strings (highest precedence).

    Raises ConfigError if the file is missing, unreadable or not UTF-8 text,
    and DataError if a file named by data.* does not exist.
    """
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as e:
            raise ConfigError(f"{path}: cannot read config file: {e.strerror or e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: config file is not UTF-8 text: {e}") from None
    values = parse_config_text(text)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        values = parse_config_text(item, values)
    _validate(values)
    for key in ("data.train_path", "data.val_path"):
        p = values[key]
        if p is not None and not os.path.exists(p):
            raise DataError(f"{key} does not exist: {p}")
    return Config(values)


def parse_chains_value(text):
    """Parse the chains key: comma-separated name:length pairs, e.g. "A:30,B:24",
    that must form a multichain.ChainLayout. Returns its ChainSpecs."""
    chains = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, length = part.partition(":")
        name = name.strip()
        if not sep or not name:
            raise ConfigError(f"chains entry must be name:length, got {part!r}")
        try:
            chains.append((name, int(length.strip())))
        except ValueError:
            raise ConfigError(f"bad chain length in {part!r}") from None
    if not chains:
        raise ConfigError("chains is set but names no chains")
    try:
        return ChainLayout([ChainSpec(name, l_max, None) for name, l_max in chains]).chains
    except LayoutMismatch as e:
        raise ConfigError(f"chains: {e}") from None
