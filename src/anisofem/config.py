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

``sigma`` accepts a number (fixed value) or ``h^p`` (resolution-dependent
power rule).  All keys are optional except ``study``; missing grids fall
back to the built-in defaults of each study.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass

from .schemes import SCHEME_KINDS
from .studies import STUDY_KINDS, TABLE_HEADERS, StudyConfig


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
    """Numbers, booleans, bare strings, and (nested) bracketed arrays."""
    text = text.strip()
    if text.startswith("["):
        try:
            return ast.literal_eval(text)
        except (ValueError, SyntaxError):
            inner = text[1:-1] if text.endswith("]") else text[1:]
            return [_parse_scalar(part.strip()) for part in inner.split(",")
                    if part.strip()]
    return _parse_scalar(text)


def _as_list(value):
    if value is None:
        return None
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _sigma_rule(value):
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text.startswith("h^"):
            return ("power", float(text[2:]))
        raise ConfigError(f"cannot parse sigma rule {value!r}")
    return ("fixed", float(value))


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
        with open(path) as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    studies = []
    for name in parser.sections():
        raw = {key: parse_value(val) for key, val in parser[name].items()}
        kind = raw.pop("study", None)
        if kind not in STUDY_KINDS:
            raise ConfigError(f"section [{name}] needs study = one of {STUDY_KINDS}")
        schemes = _as_list(raw.pop("scheme", None))
        if schemes is not None:
            bad = [s for s in schemes if s not in SCHEME_KINDS]
            if bad:
                raise ConfigError(f"unknown scheme(s) {bad} in section [{name}]")
        sigma_raw = raw.pop("sigma", None)
        sigma_rule = None
        sigma_list = None
        try:
            if isinstance(sigma_raw, (list, tuple)):
                sigma_list = [float(s) for s in sigma_raw]
            else:
                sigma_rule = _sigma_rule(sigma_raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cannot parse sigma {sigma_raw!r} in section "
                              f"[{name}]") from exc
        output = raw.pop("output", None)
        plot = raw.pop("plot", None)
        strict = bool(raw.pop("strict", False))
        cfg_kwargs = dict(
            kind=kind,
            schemes=schemes,
            family=raw.pop("family", None),
            n_list=_as_list(raw.pop("n", None)),
            eps_list=_as_list(raw.pop("eps", None)),
            sigma_rule=sigma_rule,
            sigma_list=sigma_list,
            alpha_list=_as_list(raw.pop("alpha", None)),
            case_id=raw.pop("case", None),
            modes=raw.pop("modes", None),
            k_list=_as_list(raw.pop("k", None)),
            multi_h=bool(raw.pop("multi_h", False)),
            flip_second_row=bool(raw.pop("flip_second_row", False)),
        )
        if raw:
            raise ConfigError(f"unknown key(s) {sorted(raw)} in section [{name}]")
        try:
            cfg = StudyConfig(**cfg_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if kind in TABLE_HEADERS and (plot is not None or strict):
            raise ConfigError(f"{kind} writes a table, not study records: plot "
                              f"and strict do not apply in section [{name}]")
        studies.append(ConfiguredStudy(name, cfg, output, plot, strict))
    if not studies:
        raise ConfigError("configuration file defines no study section")
    return studies
