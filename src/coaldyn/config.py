"""Experiment configuration: flat INI files with one section per concern.

A run is described by four sections — ``[game]`` (physical parameters),
``[benefit]`` (benefit-function shape), ``[experiment]`` (what to compute),
``[output]`` (where and in which formats).  Unknown sections or keys are
rejected outright: a typo like ``thetta`` must fail loudly, not silently
fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .benefits import BenefitFunction
from .errors import ConfigError
from .game import GameParams
from .markov import literal_row_sum_max

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

_GAME_KEYS = {
    "z", "e", "theta", "theta_prime", "c", "c_c", "g_m", "g_m_seats",
    "alpha", "beta", "mu",
}
_BENEFIT_KEYS_BY_KIND = {
    "linear": {"kind", "slope"},
    "step": {"kind", "amplitude", "threshold"},
    "sigmoid": {"kind", "amplitude", "steepness", "threshold"},
    "tabulated": {"kind", "knots"},
}
_EXPERIMENT_KEYS = {
    "name", "values", "seed", "steps", "burn_in", "mutation_form", "method",
    "z_pair", "group_size", "y_slice", "resolution",
}
_OUTPUT_KEYS = {"dir", "formats"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one run."""

    params: GameParams
    experiment: str
    values: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    seed: int = 1
    steps: int = 1_000_000
    burn_in: int = 0
    mutation_form: str = "scaled"
    method: str = "levels"
    z_pair: tuple[int, int] = (100, 50)
    group_size: int = 25
    y_slice: float = 0.5
    resolution: int = 40
    out_dir: Path = field(default_factory=lambda: Path("out"))
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {', '.join(EXPERIMENTS)}"
            )
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown output format {fmt!r}")
        if not self.values:
            raise ConfigError("values must list at least one sweep value")
        if self.mutation_form not in ("scaled", "literal"):
            raise ConfigError(f"mutation_form must be 'scaled' or 'literal', got {self.mutation_form!r}")
        if self.method not in ("levels", "direct", "power"):
            raise ConfigError(
                f"method must be 'levels', 'direct' or 'power', got {self.method!r}"
            )
        if self.experiment == "montecarlo" and self.mutation_form == "literal":
            raise ConfigError(
                "the individual-based simulator realizes the scaled mutation form only"
            )
        if self.mutation_form == "literal":
            out_mass = literal_row_sum_max(self.params.z, self.params.mu)
            if out_mass > 1.0 + 1e-12:
                raise ConfigError(
                    f"literal mutation form needs row sums <= 1, but mu = {self.params.mu:g} "
                    f"at z = {self.params.z} reaches {out_mass:.4f}; "
                    "use mutation_form = scaled or reduce mu"
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
        if self.resolution < 4:
            raise ConfigError(f"resolution must be at least 4, got {self.resolution}")
        if any(z < 4 for z in self.z_pair) or len(self.z_pair) != 2:
            raise ConfigError(f"z_pair needs two population sizes >= 4, got {self.z_pair}")
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


def _section(cp: configparser.ConfigParser, name: str) -> dict[str, str]:
    return dict(cp[name]) if cp.has_section(name) else {}


def _reject_unknown(section: str, given: dict[str, str], known: set[str]) -> None:
    for key in given:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{section}]")


def _convert(section: str, key: str, raw: str, converter, what: str):
    try:
        return converter(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} in [{section}] needs {what}, got {raw!r}") from None


def _parse_bool_free_int(section: str, key: str, raw: str) -> int:
    # int("1.0") fails; accept plain integers only, signs included.
    return _convert(section, key, raw, int, "an integer")


def _parse_float(section: str, key: str, raw: str) -> float:
    return _convert(section, key, raw, float, "a number")


def _build_benefit(raw: dict[str, str], base_dir: Path) -> BenefitFunction:
    kind = raw.get("kind", "sigmoid")
    if kind not in _BENEFIT_KEYS_BY_KIND:
        raise ConfigError(
            f"unknown benefit kind {kind!r}; expected one of {', '.join(sorted(_BENEFIT_KEYS_BY_KIND))}"
        )
    _reject_unknown("benefit", raw, _BENEFIT_KEYS_BY_KIND[kind])
    get = lambda key: _parse_float("benefit", key, raw[key])  # noqa: E731
    try:
        if kind == "linear":
            return BenefitFunction.linear(slope=get("slope")) if "slope" in raw else BenefitFunction.linear()
        if kind == "step":
            kwargs = {k: get(k) for k in ("amplitude", "threshold") if k in raw}
            return BenefitFunction.step(**kwargs)
        if kind == "sigmoid":
            kwargs = {k: get(k) for k in ("amplitude", "steepness", "threshold") if k in raw}
            return BenefitFunction.sigmoid(**kwargs)
        knots = raw.get("knots")
        if not knots:
            raise ConfigError("tabulated benefit needs a 'knots' CSV path")
        knot_path = Path(knots)
        if not knot_path.is_absolute():
            knot_path = base_dir / knot_path
        return BenefitFunction.from_csv(knot_path)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"benefit section invalid: {exc}") from None


def _build_params(raw: dict[str, str], benefit: BenefitFunction) -> GameParams:
    _reject_unknown("game", raw, _GAME_KEYS)
    if "z" not in raw:
        raise ConfigError("key 'z' in [game] is required")
    z = _parse_bool_free_int("game", "z", raw["z"])
    if "g_m" in raw and "g_m_seats" in raw:
        raise ConfigError("give either 'g_m' or 'g_m_seats' in [game], not both")
    kwargs: dict[str, float] = {}
    for key in ("e", "theta", "theta_prime", "c", "c_c", "g_m", "alpha", "beta", "mu"):
        if key in raw:
            kwargs[key] = _parse_float("game", key, raw[key])
    if "g_m_seats" in raw:
        seats = _parse_bool_free_int("game", "g_m_seats", raw["g_m_seats"])
        kwargs["g_m"] = seats / z
    try:
        return GameParams(z=z, benefit=benefit, **kwargs)
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
        if section not in ("game", "benefit", "experiment", "output"):
            raise ConfigError(f"unknown section [{section}]")

    benefit = _build_benefit(_section(cp, "benefit"), path.parent)
    params = _build_params(_section(cp, "game"), benefit)

    exp_raw = _section(cp, "experiment")
    _reject_unknown("experiment", exp_raw, _EXPERIMENT_KEYS)
    if experiment is None and "name" not in exp_raw:
        raise ConfigError("key 'name' in [experiment] is required (or pass --experiment)")

    out_raw = _section(cp, "output")
    _reject_unknown("output", out_raw, _OUTPUT_KEYS)

    kwargs: dict = {
        "params": params,
        "experiment": experiment if experiment is not None else exp_raw["name"],
    }
    if "values" in exp_raw:
        parts = [p for p in exp_raw["values"].replace(",", " ").split() if p]
        if not parts:
            raise ConfigError("key 'values' in [experiment] must list numbers")
        kwargs["values"] = tuple(_parse_float("experiment", "values", p) for p in parts)
    for key in ("seed", "steps", "burn_in", "group_size", "resolution"):
        if key in exp_raw:
            kwargs[key] = _parse_bool_free_int("experiment", key, exp_raw[key])
    for key in ("mutation_form", "method"):
        if key in exp_raw:
            kwargs[key] = exp_raw[key]
    if "y_slice" in exp_raw:
        kwargs["y_slice"] = _parse_float("experiment", "y_slice", exp_raw["y_slice"])
    if "z_pair" in exp_raw:
        parts = [p for p in exp_raw["z_pair"].replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ConfigError(f"key 'z_pair' in [experiment] needs two population sizes, got {exp_raw['z_pair']!r}")
        kwargs["z_pair"] = tuple(_parse_bool_free_int("experiment", "z_pair", p) for p in parts)

    if "dir" in out_raw:
        kwargs["out_dir"] = Path(out_raw["dir"])
    if "formats" in out_raw:
        parts = [p for p in out_raw["formats"].replace(",", " ").split() if p]
        kwargs["formats"] = tuple(parts)

    # CLI overrides win over file values.
    if out_dir is not None:
        kwargs["out_dir"] = Path(out_dir)
    if seed is not None:
        kwargs["seed"] = seed
    if formats is not None:
        kwargs["formats"] = tuple(formats)

    return ExperimentConfig(**kwargs)
