"""INI configuration parsing for simulation runs.

Sections and keys:

    [grid]   dim, n, L
    [model]  alpha, kappa, gamma, mu
    [time]   t_end, dt, cfl, cadence
    [ic]     preset, amplitude, seed, mode
    [output] snapshot, norms
    [decay]  t_a, t_b, column, kind

``_KEYS`` maps each key to its ``SimConfig`` field; a key that is absent
takes that field's default, and ``SimConfig`` checks the values.  Every
number must be finite; ``inf`` is accepted only as a norm entry's ``r``.
Values are read verbatim (no ``%`` interpolation).

An inline comment starts at a ``#``, or at a ``;`` at the start of a value or
after whitespace, except in ``norms``, where every ``;`` separates entries.

The [output] ``norms`` value is a semicolon-separated list of custom norm
columns, each "name target kind args..." with target in {sigma, u} and kind
one of homogeneous (args: s [r]), hybrid (args: s1 s2 j0), low/high (args: s
j0 [r]); an entry with fewer or more arguments is rejected.  Unknown sections
or keys are rejected with their full key path.
"""

from __future__ import annotations

import configparser
import io
import math
import re

from .besov import NormSpec
from .simulation import SimConfig


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


# norm kind -> (fewest, most) arguments: s [r], s1 s2 j0, s j0 [r]
_NORM_ARGS = {"homogeneous": (1, 2), "hybrid": (3, 3), "low": (2, 3), "high": (2, 3)}


def _parse_norms(raw: str):
    """The [output] norms entries as (name, target, NormSpec)."""
    out = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        tokens = item.split()
        if len(tokens) < 4:
            raise ValueError(f"malformed entry {item!r}")
        name, target, kind, args = tokens[0], tokens[1], tokens[2], tokens[3:]
        if target not in ("sigma", "u"):
            raise ValueError(f"target must be sigma or u, got {target!r}")
        if kind not in _NORM_ARGS:
            raise ValueError(f"unknown norm kind {kind!r}")
        fewest, most = _NORM_ARGS[kind]
        if not fewest <= len(args) <= most:
            many = "few" if len(args) < fewest else "many"
            raise ValueError(f"too {many} arguments for a {kind} norm in {item!r}")
        if kind == "homogeneous":
            spec = NormSpec.homogeneous(*map(float, args))
        elif kind == "hybrid":
            spec = NormSpec.hybrid(float(args[0]), float(args[1]), int(args[2]))
        else:
            spec = NormSpec.restricted(float(args[0]), kind, int(args[1]), *map(float, args[2:]))
        out.append((name, target, spec))
    return out


def _path(raw: str) -> str:
    if not raw:
        raise ValueError("empty path")
    return raw


# section -> key -> (SimConfig field, parser); t_a and t_b form decay_window
_KEYS = {
    "grid": {"dim": ("dim", int), "n": ("n", int), "L": ("L", float)},
    "model": {"alpha": ("alpha", float), "kappa": ("kappa", float),
              "gamma": ("gamma", float), "mu": ("mu", float)},
    "time": {"t_end": ("t_end", float), "dt": ("dt", float), "cfl": ("cfl", float),
             "cadence": ("cadence", int)},
    "ic": {"preset": ("ic", str), "amplitude": ("amplitude", float), "seed": ("seed", int),
           "mode": ("ic_mode", int)},
    "output": {"snapshot": ("snapshot_path", _path), "norms": ("norms", _parse_norms)},
    "decay": {"t_a": ("decay_window", float), "t_b": ("decay_window", float),
              "column": ("decay_column", str), "kind": ("decay_kind", str)},
}


# an inline ';' comment: a ';' at the start of the value or after whitespace
_SEMICOLON_COMMENT = re.compile(r"(?:^|\s);")


def _value(cp, section, key, cast):
    path = f"{section}.{key}"
    raw = cp.get(section, key)
    if cast is not _parse_norms:  # in norms ';' separates the entries
        raw = _SEMICOLON_COMMENT.split(raw, 1)[0].rstrip()
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} ({exc})") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{path}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> SimConfig:
    """Parse and validate an INI configuration into a SimConfig."""
    # values are taken verbatim: a '%' in a path is no interpolation; an inline
    # ';' comment is cut in _value, so that it can separate norm entries
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    cp.optionxform = str  # keep key case ('L' vs 'l')
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    kwargs, window = {}, {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            name, cast = _KEYS[section][key]
            value = _value(cp, section, key, cast)
            if name == "decay_window":
                window[key] = value
            else:
                kwargs[name] = value
    if window:
        if len(window) == 1:
            raise ConfigError("decay.t_a and decay.t_b must be given together")
        kwargs["decay_window"] = (window["t_a"], window["t_b"])

    try:
        config = SimConfig(**kwargs)  # validates the grid too
        config.model_params()  # validate parameter ranges eagerly
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_config_file(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
