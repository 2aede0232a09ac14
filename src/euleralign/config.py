"""INI configuration parsing for simulation runs.

Sections and keys (defaults in parentheses):

    [grid]   dim (1), n (256), L (2*pi)
    [model]  alpha (1.5), kappa (1.0), gamma (1.0), mu (1/|c| normalization)
    [time]   t_end (10.0), dt (auto CFL), cfl (0.4), cadence (auto)
    [ic]     preset (gaussian_bump), amplitude (0.01), seed (0), mode (1)
    [output] snapshot (none), norms (none)
    [decay]  s0, s1, t_a, t_b, column (l2_sigma), kind (power)

Every number must be finite; ``inf`` is accepted only as a norm exponent r.

The [output] ``norms`` value is a semicolon-separated list of custom norm
columns, each "name target kind args..." with target in {sigma, u} and kind
one of homogeneous (args: s r), hybrid (args: s1 s2 j0), low/high (args: s
j0 r).  Unknown sections or keys are rejected with their full key path.
"""

from __future__ import annotations

import configparser
import io
import math

import numpy as np

from .besov import NormSpec
from .simulation import DecaySpec, SimConfig

__all__ = ["ConfigError", "parse_config", "parse_config_file"]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


_KNOWN = {
    "grid": {"dim", "n", "L"},
    "model": {"alpha", "kappa", "gamma", "mu"},
    "time": {"t_end", "dt", "cfl", "cadence"},
    "ic": {"preset", "amplitude", "seed", "mode"},
    "output": {"snapshot", "norms"},
    "decay": {"s0", "s1", "t_a", "t_b", "column", "kind"},
}


def _get(cp, section, key, cast, default, required=False):
    path = f"{section}.{key}"
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing mandatory key {path}")
        return default
    raw = cp.get(section, key)
    try:
        value = cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} ({exc})") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{path}: {raw!r} is not a finite number")
    return value


def _parse_norms(raw: str):
    out = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        tokens = item.split()
        if len(tokens) < 4:
            raise ConfigError(f"output.norms: malformed entry {item!r}")
        name, target, kind = tokens[0], tokens[1], tokens[2]
        if target not in ("sigma", "u"):
            raise ConfigError(f"output.norms: target must be sigma or u in {item!r}")
        args = tokens[3:]

        def num(s):
            return np.inf if s in ("inf", "Inf") else float(s)

        try:
            if kind == "homogeneous":
                spec = NormSpec.homogeneous(float(args[0]), num(args[1]) if len(args) > 1 else 1)
            elif kind == "hybrid":
                spec = NormSpec.hybrid(float(args[0]), float(args[1]), int(args[2]))
            elif kind in ("low", "high"):
                spec = NormSpec.restricted(
                    float(args[0]), kind, int(args[1]), num(args[2]) if len(args) > 2 else 1
                )
            else:
                raise ValueError(f"unknown norm kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"output.norms: bad entry {item!r} ({exc})") from exc
        out.append((name, target, spec))
    return out


def parse_config(text: str) -> SimConfig:
    """Parse and validate an INI configuration into a SimConfig."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case ('L' vs 'l')
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    def has(section):
        return cp.has_section(section)

    dim = _get(cp, "grid", "dim", int, 1) if has("grid") else 1
    n = _get(cp, "grid", "n", int, 256) if has("grid") else 256
    L = _get(cp, "grid", "L", float, 2.0 * np.pi) if has("grid") else 2.0 * np.pi

    kwargs = dict(dim=dim, n=n, L=L)
    if has("model"):
        kwargs["alpha"] = _get(cp, "model", "alpha", float, 1.5)
        kwargs["kappa"] = _get(cp, "model", "kappa", float, 1.0)
        kwargs["gamma"] = _get(cp, "model", "gamma", float, 1.0)
        kwargs["mu"] = _get(cp, "model", "mu", float, None)
    if has("time"):
        kwargs["t_end"] = _get(cp, "time", "t_end", float, 10.0)
        kwargs["dt"] = _get(cp, "time", "dt", float, None)
        kwargs["cfl"] = _get(cp, "time", "cfl", float, 0.4)
        kwargs["cadence"] = _get(cp, "time", "cadence", int, None)
    if has("ic"):
        kwargs["ic"] = _get(cp, "ic", "preset", str, "gaussian_bump")
        kwargs["amplitude"] = _get(cp, "ic", "amplitude", float, 0.01)
        kwargs["seed"] = _get(cp, "ic", "seed", int, 0)
        kwargs["ic_mode"] = _get(cp, "ic", "mode", int, 1)
    if has("output"):
        norms_raw = _get(cp, "output", "norms", str, "")
        if norms_raw:
            kwargs["norms"] = _parse_norms(norms_raw)
    if has("decay"):
        alpha = kwargs.get("alpha", 1.5)
        try:
            kwargs["decay"] = DecaySpec(
                s0=_get(cp, "decay", "s0", float, 0.25, required=True),
                s1=_get(cp, "decay", "s1", float, 0.0, required=True),
                alpha=alpha,
                dim=dim,
            )
        except ValueError as exc:
            raise ConfigError(f"decay: {exc}") from exc
        t_a = _get(cp, "decay", "t_a", float, None)
        t_b = _get(cp, "decay", "t_b", float, None)
        if (t_a is None) != (t_b is None):
            raise ConfigError("decay.t_a and decay.t_b must be given together")
        if t_a is not None:
            if not (0 <= t_a < t_b):
                raise ConfigError("decay: need 0 <= t_a < t_b")
            kwargs["decay_window"] = (t_a, t_b)

    kwargs["snapshot_path"] = (
        _get(cp, "output", "snapshot", str, None) if has("output") else None
    )
    kwargs["decay_column"] = (
        _get(cp, "decay", "column", str, "l2_sigma") if has("decay") else "l2_sigma"
    )
    kwargs["decay_kind"] = _get(cp, "decay", "kind", str, "power") if has("decay") else "power"
    if kwargs["decay_kind"] not in ("power", "exp"):
        raise ConfigError(f"decay.kind must be power or exp, got {kwargs['decay_kind']!r}")

    try:
        config = SimConfig(**kwargs)
        config.grid()
        config.model_params()  # validate parameter ranges eagerly
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def parse_config_file(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
