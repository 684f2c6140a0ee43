"""Plain-text configuration files for the command-line runner.

One section per study, key = value pairs, arrays in bracket syntax::

    [table_runs]
    study = h_convergence
    scheme = [inflow, stabilized]
    family = q2
    n = [10, 20, 40]
    eps = [1, 1e-10]
    alpha = [0, 2]
    sigma = h^3
    output = runs/h_convergence.csv
    plot = runs/h_convergence.gp

``sigma`` accepts a number (fixed value), ``h^p`` (resolution-dependent
power rule) or a bracketed list of either.  All keys are optional except
``study``; missing grids fall back to the built-in defaults of each study.
No two paths may name one file.  Files are read as UTF-8.
"""

from __future__ import annotations

import ast
import configparser
import os
from dataclasses import dataclass

from .studies import KEYS, STUDIES, StudyConfig


class ConfigError(ValueError):
    """Malformed configuration file."""


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "yes", "on"):
        return True
    if text.lower() in ("false", "no", "off"):
        return False
    return text


def parse_value(text: str):
    """Numbers, booleans, bare strings, and (nested) bracketed arrays.  A
    flat list may hold bare words, as in [inflow, stabilized]; any other
    bracketed text that is no Python literal raises ConfigError."""
    text = text.strip()
    if text.startswith("["):
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            inner = text[1:-1]
            if not text.endswith("]") or "[" in inner or "]" in inner:
                raise ConfigError(f"cannot parse {text!r}: brackets that do "
                                  "not close, or a nested list of words") from None
            return [_parse_scalar(part.strip()) for part in inner.split(",")
                    if part.strip()]
    return _parse_scalar(text)


def _path(text):
    """A path is the key's text as written, neither empty nor a list."""
    if text is not None and (text.startswith("[") or not text):
        raise ValueError("a path is one path, not a list, and not empty")
    return text


def _flag(value) -> bool:
    """A flag as parse_value reads true/yes/on, false/no/off."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _convert(section: str, key: str, value, convert):
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse {key} {value!r} in section "
                          f"[{section}]: {exc}") from exc


@dataclass
class ConfiguredStudy:
    name: str
    config: StudyConfig
    output: str | None
    plot: str | None
    strict: bool


def load_config(path) -> list[ConfiguredStudy]:
    """Parse a configuration file into a list of study descriptions."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc

    studies, written = [], {}          # absolute path: the key that writes it
    for name in parser.sections():
        text = dict(parser[name])
        kind = text.pop("study", None)
        if kind not in STUDIES:
            raise ConfigError(f"section [{name}] needs study = one of {tuple(STUDIES)}")
        output = _convert(name, "output", text.pop("output", None), _path)
        plot = _convert(name, "plot", text.pop("plot", None), _path)
        strict = _convert(name, "strict", parse_value(text.pop("strict", "false")),
                          _flag)
        unknown = set(text) - set(KEYS)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in section [{name}]")
        values = {key: _convert(name, key, parse_value(text[key]), convert)
                  for key, convert in KEYS.items() if key in text}
        try:
            cfg = StudyConfig(kind, **values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if STUDIES[kind].header is not None and (plot is not None or strict):
            raise ConfigError(f"{kind} writes a table, not study records: plot "
                              f"and strict do not apply in section [{name}]")
        if plot is not None and output is None:
            raise ConfigError(f"plot needs output in section [{name}]: the "
                              "script reads the CSV that output writes")
        for key, where in (("output", output), ("plot", plot)):
            writer = f"{key} of [{name}]"
            if where and written.setdefault(os.path.abspath(where), writer) != writer:
                raise ConfigError(f"{where} is written twice: by "
                                  f"{written[os.path.abspath(where)]} and by {writer}")
        studies.append(ConfiguredStudy(name, cfg, output, plot, strict))
    if not studies:
        raise ConfigError("configuration file defines no study section")
    return studies
