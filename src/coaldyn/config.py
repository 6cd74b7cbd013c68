"""Experiment configuration: flat INI files with one section per concern.

A run is described by four sections — ``[game]`` (physical parameters),
``[benefit]`` (benefit-function shape), ``[experiment]`` (what to compute),
``[output]`` (where and in which formats).  The keys of ``[game]`` are the
fields of `GameParams`, plus ``g_m_seats`` (``g_m`` as a seat count); those
of ``[experiment]`` and ``[output]`` are the fields of `ExperimentConfig`,
under the section and key their metadata names.  A value is parsed by its
field's type.  The keys of ``[benefit]`` are the arguments of the
`BenefitFunction` constructor of its ``kind``.  Unknown sections or keys are
rejected outright: a typo like ``thetta`` must fail loudly, not silently
fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from inspect import signature
from pathlib import Path
from typing import ClassVar, get_args, get_origin, get_type_hints

from .benefits import BenefitFunction
from .errors import ConfigError
from .game import GameParams

EXPERIMENTS = (
    "field",
    "stationary",
    "sweep-alpha",
    "informed-map",
    "k-profile",
    "s1-compare",
    "montecarlo",
)

FORMATS = ("csv", "json", "svg")
NO_SVG = ("informed-map", "k-profile", "s1-compare")  # draw no panel; every experiment writes CSV and JSON

_BENEFIT_KINDS = ("linear", "sigmoid", "step", "tabulated")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one run.

    Each field but ``params`` is a config key: its name in ``[experiment]``
    unless its metadata names another key or section.
    """

    params: GameParams
    experiment: str = field(metadata={"key": "name"})
    values: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    seed: int = 1
    steps: int = 1_000_000
    burn_in: int = 0
    method: str = "levels"
    z_pair: tuple[int, int] = (100, 50)
    group_size: int = 25
    y_slice: float = 0.5
    out_dir: Path = field(default_factory=lambda: Path("out"), metadata={"section": "output", "key": "dir"})
    formats: tuple[str, ...] = field(default=("csv", "json"), metadata={"section": "output"})
    # A class constant, not a field, so not a config key.  perfbench/reference.py
    # reads it until ROADMAP item 1 drops that read; sweep_summary.json echoes it.
    mutation_form: ClassVar[str] = "scaled"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
            )
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}")
        # A list that selects none of the experiment's outputs would run it whole and write nothing.
        written = ("csv", "json") if self.experiment in NO_SVG else FORMATS
        if not set(self.formats) & set(written):
            raise ConfigError(f"key 'formats' in [output] must list one of the formats "
                              f"{self.experiment} writes: {', '.join(written)}")
        if not self.values:
            raise ConfigError("key 'values' in [experiment] must list at least one sweep value")
        if self.method not in ("levels", "direct", "power"):
            raise ConfigError(
                f"method must be 'levels', 'direct' or 'power', got {self.method!r}"
            )
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0 <= self.burn_in < self.steps:
            raise ConfigError(f"burn_in must lie in [0, steps), got {self.burn_in}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.y_slice <= 1.0:
            raise ConfigError(f"y_slice must lie in (0, 1], got {self.y_slice}")
        if self.group_size < 2:
            raise ConfigError(f"group_size must be at least 2, got {self.group_size}")
        if any(z < 4 for z in self.z_pair) or len(self.z_pair) != 2:
            raise ConfigError(f"key 'z_pair' in [experiment] needs two population sizes >= 4, "
                              f"got {self.z_pair}")
        if self.experiment == "sweep-alpha":
            # Each panel's files are tagged f"alpha{alpha:g}": two values with one tag
            # would write the same files.
            tags = [f"{alpha:g}" for alpha in self.values]
            for j, tag in enumerate(tags):
                if tag in tags[:j]:
                    raise ConfigError(f"key 'values' in [experiment]: sweep values "
                                      f"{self.values[tags.index(tag)]!r} and {self.values[j]!r} "
                                      f"both write stationary_alpha{tag}.csv")
        # Build every parameter set the run will use, so that a bad one is a
        # ConfigError here and not a ValueError partway through the run.
        used = [self.params]
        try:
            if self.experiment in ("sweep-alpha", "k-profile", "s1-compare"):
                key = "values"
                used = [replace(self.params, alpha=a) for a in self.values]
            if self.experiment == "s1-compare":
                key = "z_pair"
                used = [replace(p, z=z) for z in self.z_pair for p in used]
        except ValueError as exc:
            raise ConfigError(f"key {key!r} in [experiment]: {exc}") from None
        if self.group_size > min(self.z_pair):
            raise ConfigError(f"key 'group_size' in [experiment]: group size {self.group_size} "
                              f"exceeds the population z={min(self.z_pair)}")
        top = max(p.z for p in used) * self.params.c
        try:
            for total in (0.0, top):
                self.params.benefit(total, top)
        except ValueError as exc:
            raise ConfigError(f"key 'knots' in [benefit] must cover pools 0 to z*c = {top:g}: {exc}") from None


def _keys(cls, home: str) -> dict[str, dict[str, tuple[str, type, bool]]]:
    """Section -> config key -> (field name, type, required), over the fields of ``cls``.

    A field is a key in ``[home]`` under its own name, unless its metadata
    names another section or key; a field that holds a dataclass is a
    section of its own, not a key.
    """
    hints = get_type_hints(cls)
    sections: dict = {}
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            continue
        required = f.default is MISSING and f.default_factory is MISSING
        section = sections.setdefault(f.metadata.get("section", home), {})
        section[f.metadata.get("key", f.name)] = (f.name, hints[f.name], required)
    return sections


_SECTIONS = {**_keys(GameParams, "game"), **_keys(ExperimentConfig, "experiment")}
_SECTIONS["game"]["g_m_seats"] = ("g_m_seats", int, False)  # g_m as a seat count, z * g_m


def _parse(section: str, key: str, raw: str, kind: type):
    """``raw`` as a ``kind``; a tuple's items are split at commas and blanks."""
    if get_origin(kind) is tuple:
        return tuple(_parse(section, key, part, get_args(kind)[0]) for part in raw.replace(",", " ").split())
    try:
        return kind(raw)  # int("1.0") fails: an integer key takes plain integers only
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} in [{section}] needs {what}, got {raw!r}") from None


def _read_section(cp: configparser.ConfigParser, section: str, keys: dict, **given) -> dict:
    """The keyword arguments that ``[section]`` gives, by its ``keys`` (a section of `_keys`).

    Values in ``given`` win over the file's.  An unknown key, a value its type
    cannot parse, or a required key with no value is a ConfigError naming the key.
    """
    raw = dict(cp[section]) if cp.has_section(section) else {}
    kwargs = {}
    for key, text in raw.items():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        name, kind, _ = keys[key]
        kwargs[name] = _parse(section, key, text, kind)
    kwargs.update(given)
    for key, (name, _, required) in keys.items():
        if required and name not in kwargs:
            raise ConfigError(f"key {key!r} in [{section}] is required")
    return kwargs


def _benefit_keys(kind: str) -> tuple[str, ...]:
    """The ``[benefit]`` keys of a benefit ``kind``: ``kind`` and the arguments of its constructor."""
    return ("kind", *signature(getattr(BenefitFunction, kind)).parameters)


def _build_benefit(cp: configparser.ConfigParser, base_dir: Path) -> BenefitFunction:
    kind = cp.get("benefit", "kind", fallback="sigmoid")
    if kind not in _BENEFIT_KINDS:
        raise ConfigError(f"unknown benefit kind {kind!r}; expected one of {', '.join(_BENEFIT_KINDS)}")
    # A tabulated benefit's knots are a CSV path; every other argument is a number.
    keys = {key: (key, str if key in ("kind", "knots") else float, False) for key in _benefit_keys(kind)}
    kwargs = _read_section(cp, "benefit", keys)
    kwargs.pop("kind", None)
    try:
        if kind != "tabulated":
            return getattr(BenefitFunction, kind)(**kwargs)
        if not kwargs.get("knots"):
            raise ConfigError("tabulated benefit needs a 'knots' CSV path")
        return BenefitFunction.from_csv(base_dir / kwargs["knots"])
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"benefit section invalid: {exc}") from None


def _build_params(cp: configparser.ConfigParser, benefit: BenefitFunction) -> GameParams:
    kwargs = _read_section(cp, "game", _SECTIONS["game"], benefit=benefit)
    if "g_m_seats" in kwargs:
        if "g_m" in kwargs:
            raise ConfigError("give either 'g_m' or 'g_m_seats' in [game], not both")
        kwargs["g_m"] = kwargs.pop("g_m_seats") / kwargs["z"]
    try:
        return GameParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [game] parameters: {exc}") from None


def load_config(path, *, out_dir=None, seed: int | None = None,
                formats: tuple[str, ...] | None = None,
                experiment: str | None = None) -> ExperimentConfig:
    """Parse an experiment config file, applying any CLI overrides last."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None

    for section in cp.sections():
        if section not in (*_SECTIONS, "benefit"):
            raise ConfigError(f"unknown section [{section}]")

    params = _build_params(cp, _build_benefit(cp, path.parent))
    overrides = {"out_dir": out_dir if out_dir is None else Path(out_dir), "seed": seed,
                 "formats": formats if formats is None else tuple(formats), "experiment": experiment}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    kwargs = {}
    for section in ("experiment", "output"):
        kwargs.update(_read_section(cp, section, _SECTIONS[section], **overrides))
    return ExperimentConfig(params=params, **kwargs)
