"""Config parsing, experiment dispatch, deterministic emission, CLI exit codes."""

import dataclasses
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import coaldyn
from coaldyn import (CapacityError, CoaldynError, ConfigError, NonConvergenceError,
                     OutputError, ReducibleChainError, WorkerError, classify_state, experiments,
                     marginal_gains, markov, staterows)
from coaldyn.cli import _build_parser, main
from coaldyn.config import _SECTIONS, EXPERIMENTS, FORMATS, NO_SVG, ExperimentConfig, load_config
from coaldyn.game import effective_shares, group_size
from coaldyn.informed import informed_field_grid
from coaldyn.replicator import BLOCK_ROWS, replicator_field_grid
from coaldyn.experiments import (_HANDLERS, _config_echo, _matched_members, run_experiment, write_csv,
                                 write_json)
from coaldyn.sampling import FitnessTable, fitness_at, fitness_table
from coaldyn.staterows import state_text
from coaldyn.markov import StateIndex, build_chain, monte_carlo, selection_gradient, stationary
from coaldyn.svg import simplex_svg
from oracles import (information_cost_at, informed_field_at, member_means, no_child_processes,
                     replicator_field_at, shade_dots)

BASE = """
[game]
z = 12
e = 0.5
c = 1.0
c_c = 1.0
g_m_seats = 2
alpha = 2.0
beta = 0.1
mu = 0.05

[benefit]
kind = sigmoid
amplitude = 100
steepness = 100
threshold = 0.75

[experiment]
name = stationary
values = 1, 2
seed = 3
steps = 2000

[output]
formats = csv, json
"""


def write_cfg(tmp_path: Path, text: str = BASE, name: str = "run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


# --- parsing ------------------------------------------------------------------


def test_round_trip_of_every_field(tmp_path):
    cfg = load_config(write_cfg(tmp_path), out_dir=tmp_path / "out")
    assert cfg.params.z == 12
    assert cfg.params.g_m == pytest.approx(2 / 12)
    assert cfg.params.alpha == 2.0
    assert cfg.params.beta == 0.1
    assert cfg.params.mu == 0.05
    assert cfg.params.benefit.kind == "sigmoid"
    assert cfg.experiment == "stationary"
    assert cfg.values == (1.0, 2.0)
    assert cfg.seed == 3
    assert cfg.steps == 2000
    assert cfg.formats == ("csv", "json")
    assert cfg.out_dir == tmp_path / "out"


def test_typo_in_game_key_is_named(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("alpha = 2.0", "alpa = 2.0"))
    with pytest.raises(ConfigError, match="'alpa'"):
        load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        load_config(path)


def test_g_m_and_seats_are_mutually_exclusive(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("g_m_seats = 2", "g_m_seats = 2\ng_m = 0.2"))
    with pytest.raises(ConfigError, match="not both"):
        load_config(path)


def test_missing_z_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("z = 12\n", ""))
    with pytest.raises(ConfigError, match="'z'"):
        load_config(path)


def test_bad_number_is_reported_with_key(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("beta = 0.1", "beta = fast"))
    with pytest.raises(ConfigError, match="'beta'"):
        load_config(path)


def test_game_validation_errors_become_config_errors(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("mu = 0.05", "mu = 3.0"))
    with pytest.raises(ConfigError, match="mu"):
        load_config(path)


def test_experiment_name_required_unless_overridden(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("name = stationary\n", ""))
    with pytest.raises(ConfigError, match="'name'"):
        load_config(path)
    cfg = load_config(path, experiment="field")
    assert cfg.experiment == "field"


def test_unknown_experiment_rejected(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("name = stationary", "name = waterfall"))
    with pytest.raises(ConfigError, match="waterfall"):
        load_config(path)


def test_method_defaults_to_levels_and_is_checked(tmp_path):
    assert load_config(write_cfg(tmp_path)).method == "levels"
    for method in ("levels", "direct", "power"):
        text = BASE.replace("name = stationary", f"name = stationary\nmethod = {method}")
        assert load_config(write_cfg(tmp_path, text)).method == method
    text = BASE.replace("name = stationary", "name = stationary\nmethod = magic")
    with pytest.raises(ConfigError, match="'levels', 'direct' or 'power'"):
        load_config(write_cfg(tmp_path, text))


def test_z_pair_needs_two_entries(tmp_path):
    text = BASE.replace("name = stationary", "name = s1-compare\nz_pair = 20")
    with pytest.raises(ConfigError, match="z_pair"):
        load_config(write_cfg(tmp_path, text))


def test_unknown_benefit_kind_rejected(tmp_path):
    text = BASE.replace("kind = sigmoid", "kind = quadratic")
    with pytest.raises(ConfigError, match="quadratic"):
        load_config(write_cfg(tmp_path, text))


def test_benefit_keys_checked_per_kind(tmp_path):
    text = BASE.replace("kind = sigmoid", "kind = linear")
    with pytest.raises(ConfigError, match="'amplitude'"):
        load_config(write_cfg(tmp_path, text))


def test_tabulated_knots_resolve_relative_to_config(tmp_path):
    (tmp_path / "knots.csv").write_text("C,B\n0,0\n6,30\n12,36\n")
    text = BASE.replace(
        "kind = sigmoid\namplitude = 100\nsteepness = 100\nthreshold = 0.75",
        "kind = tabulated\nknots = knots.csv",
    )
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.params.benefit.kind == "tabulated"
    assert cfg.params.benefit(6.0, 12.0) == 30.0


def test_cli_overrides_win(tmp_path):
    cfg = load_config(
        write_cfg(tmp_path),
        out_dir=tmp_path / "elsewhere",
        seed=99,
        formats=("json",),
        experiment="k-profile",
    )
    assert cfg.out_dir == tmp_path / "elsewhere"
    assert cfg.seed == 99
    assert cfg.formats == ("json",)
    assert cfg.experiment == "k-profile"


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_experiment_keys_name_the_config_fields_and_the_echo(tmp_path):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params", "out_dir", "formats"}
    fields = {"name" if key == "experiment" else key for key in fields}
    echo = _config_echo(load_config(write_cfg(tmp_path)))["experiment"]
    assert fields == set(_SECTIONS["experiment"]) == set(echo)


SHIPPED_CONFIGS = sorted([*(Path(__file__).parents[1] / "scripts" / "configs").glob("*.cfg"),
                          *(Path(__file__).parents[1] / "perfbench" / "configs").glob("*.cfg")])


def echo_as_ini(echo: dict) -> str:
    """A manifest's config echo, as JSON holds it, written back out as an INI config."""
    echo = {section: keys for section, keys in echo.items() if section != "notes"}
    return "".join(f"[{section}]\n" + "".join(
        f"{key} = {', '.join(map(str, value)) if isinstance(value, list) else value}\n"
        for key, value in keys.items()) for section, keys in echo.items())


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
def test_config_echo_loads_back_as_the_same_config(tmp_path, path):
    """Every shipped config loads, and its manifest echo, written back out as INI,
    loads as an equal config: every key the echo writes is a key the loader reads.
    """
    cfg = load_config(path)
    echo = json.loads(json.dumps(_config_echo(cfg)))  # as manifest.json holds it
    assert load_config(write_cfg(tmp_path, echo_as_ini(echo))) == cfg


def test_every_list_of_experiments_names_the_same_seven():
    """The config's names, the handlers and the ``--experiment`` help list one set, in one order."""
    run = _build_parser()._subparsers._group_actions[0].choices["run"]
    help_text = next(a.help for a in run._actions if a.dest == "experiment")
    listed = tuple(name.strip() for name in help_text.partition("(")[2].rstrip(")").split(","))
    assert len(EXPERIMENTS) == 7
    assert listed == EXPERIMENTS == tuple(_HANDLERS)


def test_benefit_echo_lists_the_keys_of_its_kind(tmp_path):
    (tmp_path / "knots.csv").write_text("C,B\n0,0\n20,10\n")
    sigmoid = "kind = sigmoid\namplitude = 100\nsteepness = 100\nthreshold = 0.75"
    for benefit, want in [("kind = linear\nslope = 2", {"kind": "linear", "slope": 2.0}),
                          ("kind = tabulated\nknots = knots.csv",  # the knots, not the CSV path
                           {"kind": "tabulated", "knots": [[0.0, 0.0], [20.0, 10.0]]})]:
        cfg = load_config(write_cfg(tmp_path, BASE.replace(sigmoid, benefit)))
        assert json.loads(json.dumps(_config_echo(cfg)))["benefit"] == want


# --- deterministic emission ---------------------------------------------------


def test_cell_formatting_is_shortest_round_trip(tmp_path):
    path = tmp_path / "cells.csv"
    row = (0.1, 1 / 3, np.float64(0.25), 3, np.int64(-4), "label", math.nan, 7.25e-17)
    write_csv(path, [f"c{j}" for j in range(len(row))], [row])
    cells = path.read_text().splitlines()[1].split(",")
    assert cells == ["0.1", "0.3333333333333333", "0.25", "3", "-4", "label", "nan", "7.25e-17"]
    for cell, value in zip(cells, row):
        if isinstance(value, float) and not math.isnan(value):
            assert float(cell) == value


def strict_json(text: str):
    """``json.loads`` that refuses the non-standard NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_write_json_writes_nan_as_null_and_inf_as_a_string(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"a": [math.nan, math.inf, -math.inf, 0.5], "b": (np.float64(-math.inf), 3),
                      "c": {"d": math.nan, "e": "inf", "f": None}})
    assert strict_json(path.read_text()) == {"a": [None, "inf", "-inf", 0.5], "b": ["-inf", 3],
                                             "c": {"d": None, "e": "inf", "f": None}}


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, math.nan)])
    assert path.read_text() == "a,b\n1,0.5\n2,nan\n"


def test_svg_is_deterministic_and_wellformed():
    shade = (np.array([0, 3, 6]), np.array([0, 2, 0]), np.array([0.5, 1.0, 0.25]))
    arrows = [(2, 2, 0.5, -0.25, 0.6), (4, 1, -0.1, 0.2, 0.2)]
    one = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    two = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    assert one == two
    assert one.startswith("<svg ") and one.rstrip().endswith("</svg>")
    assert "alpha = 2" in one


def test_shade_dots_match_the_per_state_oracle():
    for z in (12, 60):
        index = StateIndex.for_population(z)
        values = np.random.default_rng(z).random(index.n_states)
        values[::3] = 0.0
        values[1::7] *= 1e-6  # opacity below the 0.004 cut
        values[2] = 1.0  # the largest value, so that
        values[4] = 0.004 ** 2  # this state's opacity is 0.004 exactly, and it is drawn
        base = simplex_svg(z, label="pi").splitlines()
        got = simplex_svg(z, label="pi", shade=(index.i_c_of, index.i_d_of, values))
        triples = list(zip(index.i_c_of.tolist(), index.i_d_of.tolist(), values.tolist()))
        want = shade_dots(z, triples)
        assert got.splitlines() == base[:-1] + want + base[-1:]
        assert want[1].endswith('fill-opacity="0.004"/>') and len(want) < np.count_nonzero(values)
        assert simplex_svg(z, label="pi", shade=triples) == got


def test_state_prefix_is_the_text_of_the_state_columns():
    for z in (1, 2, 12, 60):
        index = StateIndex.for_population(z)
        i_m = index.i_c_of + index.i_d_of
        with np.errstate(invalid="ignore"):
            x = index.i_c_of / i_m
        y = i_m / z
        want = [f"{str(a)},{str(b)},{str(c)},{str(d)}"
                for a, b, c, d in zip(index.i_c_of, index.i_d_of, x, y)]
        text, offsets = state_text(z)
        assert offsets.dtype == np.int64 and offsets.shape == (index.n_states + 1,)
        assert offsets[0] == 0 and offsets[-1] == len(text)
        got = [text[a:b] for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
        assert got == want
        assert got[0] == "0,0,nan,0.0"


# --- experiment handlers ------------------------------------------------------


def run_cfg(tmp_path, name, extra="", base=BASE):
    text = base.replace("name = stationary", f"name = {name}" + extra)
    return load_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out")


def test_stationary_outputs_and_manifest(tmp_path):
    manifest = run_experiment(run_cfg(tmp_path, "stationary"))
    out = tmp_path / "out"
    assert (out / "stationary.csv").exists()
    summary = json.loads((out / "stationary_summary.json").read_text())
    assert 0.0 <= summary["mean_y"] <= 1.0
    assert summary["residual"] < 1e-10
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["outputs"] == manifest.outputs
    assert set(recorded["outputs"]) == {"stationary.csv", "stationary_summary.json"}
    assert recorded["config"]["game"]["z"] == 12


def test_field_outputs(tmp_path):
    text = BASE.replace("name = stationary", "name = field").replace(
        "formats = csv, json", "formats = csv, json, svg"
    )
    cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out")
    run_experiment(cfg)
    out = tmp_path / "out"
    header = (out / "field.csv").read_text().splitlines()[0]
    assert header == "i_C,i_D,x,y,x_dot,y_dot,mean_R,mean_b,K_exact,K_dropped"
    payload = json.loads((out / "fixed_points.json").read_text())
    assert payload["z"] == 12
    assert isinstance(payload["fixed_points"], list)
    assert (out / "field.svg").read_text().startswith("<svg ")


def test_sweep_alpha_summary_shape(tmp_path):
    run_experiment(run_cfg(tmp_path, "sweep-alpha"))
    out = tmp_path / "out"
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["alpha"] == [1.0, 2.0]
    assert len(summary["mean_x"]) == 2 and len(summary["mean_y"]) == 2
    assert (out / "stationary_alpha1.csv").exists()
    assert (out / "gradient_alpha2.csv").exists()


def test_informed_map_outputs(tmp_path):
    run_experiment(run_cfg(tmp_path, "informed-map"))
    out = tmp_path / "out"
    lines = (out / "informed_map.csv").read_text().splitlines()
    assert lines[0].startswith("i_C,i_D,x,y,N,")
    # one row per member state with i_m >= 2
    assert len(lines) - 1 == sum(i_m + 1 for i_m in range(2, 13))
    summary = json.loads((out / "informed_summary.json").read_text())
    assert sum(summary["label_counts"].values()) == len(lines) - 1


def test_k_profile_outputs(tmp_path):
    run_experiment(run_cfg(tmp_path, "k-profile", extra="\ny_slice = 0.5"))
    out = tmp_path / "out"
    summary = json.loads((out / "k_profile_summary.json").read_text())
    assert summary["alpha"] == [1.0, 2.0]
    assert all(v >= 0.0 for v in summary["max_abs_k_exact"])


@pytest.mark.parametrize("y_slice", [0.5, 1])
def test_k_profile_rows_match_oracles(tmp_path, y_slice):
    """Every k_profile.csv row and the summary against the per-state oracles.

    The state columns and K are exact; r_term, mean_R times the group's
    shares, is within 1e-15 relative of the per-row draw.
    """
    cfg = run_cfg(tmp_path, "k-profile", extra=f"\ny_slice = {y_slice}")
    run_experiment(cfg)
    out = tmp_path / "out"
    header, *lines = (out / "k_profile.csv").read_text().splitlines()
    assert header == "alpha,i_C,i_M,N,x,y,k_exact,k_dropped,r_term"
    z = cfg.params.z
    i_m = {0.5: 6, 1: z}[y_slice]
    assert len(lines) == len(cfg.values) * (i_m - 1)
    rows = iter(lines)
    for alpha in cfg.values:
        p = dataclasses.replace(cfg.params, alpha=alpha)
        n = group_size(p, i_m)
        shares = effective_shares(p, n)
        k_line = []
        for i_c in range(1, i_m):
            k_exact, k_dropped, *_ = information_cost_at(fitness_at, p, i_c, i_m - i_c)
            cells = next(rows).split(",")
            assert cells[:8] == [str(v) for v in (alpha, i_c, i_m, n, i_c / i_m, i_m / z,
                                                  k_exact, k_dropped)]
            r_term = member_means(p, i_c, i_m - i_c, n)[0] * (shares.eps1 + shares.eps2)
            assert float(cells[8]) == pytest.approx(r_term, rel=1e-15, abs=0.0)
            k_line.append(k_exact)
        summary = json.loads((out / "k_profile_summary.json").read_text())
        j = cfg.values.index(alpha)
        assert summary["max_abs_k_exact"][j] == max(abs(k) for k in k_line)
        assert summary["k_exact_mid"][j] == k_line[len(k_line) // 2]


def test_traced_handlers_find_every_wrapped_name(tmp_path):
    """perfbench/tracing.py wraps public names on coaldyn.experiments by name.

    In a fresh process, its `install` must find every one of them, and
    the traced k-profile and s1-compare runs must still complete.
    """
    root = Path(__file__).parents[1]
    k_profile = write_cfg(tmp_path, BASE.replace("name = stationary", "name = k-profile"), "k.cfg")
    s1 = write_cfg(tmp_path, BASE.replace("name = stationary", "name = s1-compare\nz_pair = 12 20\n"
                                          "group_size = 4"), "s1.cfg")
    code = f"""
import sys
sys.path.insert(0, {str(root / "perfbench")!r})
import tracing
from coaldyn.config import load_config
from coaldyn.experiments import run_experiment
tracer = tracing.Tracer()
tracing.install(tracer)
for path, out in (({str(k_profile)!r}, "k"), ({str(s1)!r}, "s1")):
    run_experiment(load_config(path, out_dir={str(tmp_path)!r} + "/" + out))
print(sorted({{span["name"] for span in tracer.spans}}))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "experiments.write" in done.stdout
    assert (tmp_path / "k" / "k_profile.csv").exists()
    assert (tmp_path / "s1" / "s1_compare.csv").exists()


def test_s1_compare_outputs(tmp_path):
    base = BASE.replace("g_m_seats = 2", "g_m = 0.2").replace("z = 12", "z = 20")
    cfg = run_cfg(tmp_path, "s1-compare", extra="\nz_pair = 20 10\ngroup_size = 5", base=base)
    run_experiment(cfg)
    out = tmp_path / "out"
    summary = json.loads((out / "s1_summary.json").read_text())
    assert [p["z"] for p in summary["populations"]] == [20, 10]
    assert "ordering_consistent" in summary
    # the two flow columns differ by exactly the emitted cost curve
    lines = (out / "s1_compare.csv").read_text().splitlines()
    assert lines[0].split(",")[-3:] == ["x_dot_uninformed", "x_dot_informed", "k"]
    for line in lines[1:]:
        *_, uninformed, informed, k = (float(v) for v in line.split(",")[-3:])
        assert informed == pytest.approx(uninformed + k, abs=1e-12)


@pytest.mark.parametrize("target", [2, 12, 30])
def test_s1_compare_equals_pointwise_functions(tmp_path, target):
    """Every s1-compare row and max_gap against the per-state oracles.

    Group size 2 lands on the two-member coalition and 30 on the whole
    population at z = 30, where k is NaN.
    """
    base = (BASE.replace("z = 12", "z = 30").replace("g_m_seats = 2", "g_m = 0.1")
            .replace("values = 1, 2", "values = 1, 2, 4, 8"))
    cfg = run_cfg(tmp_path, "s1-compare", extra=f"\nz_pair = 30 50\ngroup_size = {target}",
                  base=base)
    run_experiment(cfg)
    rows, gaps, slices = [], [], set()
    for z in cfg.z_pair:
        max_gaps = []
        for alpha in cfg.values:
            p = dataclasses.replace(cfg.params, z=z, alpha=alpha)
            i_m = _matched_members(p, target)
            slices.add(i_m if i_m in (2, z) else "inside")
            gap = 0.0
            for i_c in range(1, i_m):
                uninformed = replicator_field_at(fitness_at, p, i_c, i_m - i_c)[0]
                informed = informed_field_at(fitness_at, p, i_c, i_m - i_c)[0]
                x = i_c / i_m
                k_exact, k_dropped, *_ = information_cost_at(fitness_at, p, i_c, i_m - i_c)
                k_full = k_exact + k_dropped
                k = x * (1.0 - x) * p.c * k_full  # NaN where k_full is
                gap = max(gap, abs(uninformed - informed))
                rows.append(",".join(map(str, (z, alpha, i_m, group_size(p, i_m), i_c, x,
                                               uninformed, informed, k))))
            max_gaps.append(gap)
        gaps.append(max_gaps)
    assert slices == {2: {2}, 12: {"inside"}, 30: {30, "inside"}}[target]
    out = tmp_path / "out"
    assert (out / "s1_compare.csv").read_text().splitlines()[1:] == rows
    summary = json.loads((out / "s1_summary.json").read_text())
    assert [pop["max_gap"] for pop in summary["populations"]] == gaps


def test_s1_compare_builds_only_the_levels_next_to_its_slice(tmp_path, monkeypatch):
    built = []
    real = FitnessTable._draw

    def spy(self, i_m):
        if not self._built[i_m]:
            built.append((self.params.z, self.params.alpha, i_m))
        return real(self, i_m)

    monkeypatch.setattr(FitnessTable, "_draw", spy)
    fitness_table.cache_clear()
    text = (Path(__file__).parents[1] / "scripts" / "configs" / "size_pair.cfg").read_text()
    cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out")
    assert 100 in cfg.z_pair
    run_experiment(cfg)
    for z in cfg.z_pair:
        for alpha in cfg.values:
            i_m = _matched_members(dataclasses.replace(cfg.params, z=z, alpha=alpha),
                                   cfg.group_size)
            levels = {m for zz, a, m in built if (zz, a) == (z, alpha)}
            assert levels and levels <= {i_m - 1, i_m, i_m + 1}, (z, alpha, levels)


def test_informed_map_matches_pointwise_functions(tmp_path):
    """Every row of the vectorised informed map against the scalar gains and the per-state oracle."""
    text = BASE.replace("z = 12", "z = 30").replace("alpha = 2.0", "alpha = 4.0")
    cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out",
                      experiment="informed-map")
    run_experiment(cfg)
    p, z = cfg.params, cfg.params.z
    lines = (tmp_path / "out" / "informed_map.csv").read_text().splitlines()[1:]
    want_states = [(i_c, i_m - i_c) for i_m in range(2, z + 1) for i_c in range(i_m + 1)]
    assert len(lines) == len(want_states)
    m_col, c_col = np.tril_indices(z + 1)
    keep = m_col >= 2
    m_col, c_col = m_col[keep], c_col[keep]
    columns = (c_col, m_col - c_col, c_col / m_col, m_col / z)
    for j, (line, (i_c, i_d)) in enumerate(zip(lines, want_states)):
        cells = line.split(",")
        assert (int(cells[0]), int(cells[1])) == (i_c, i_d)
        assert cells[:4] == [str(a[j]) for a in columns]
        i_m = i_c + i_d
        n = group_size(p, i_m)
        k_rep = round(i_c / i_m * (n - 1))
        gains = marginal_gains(p, k_rep * p.c, n)
        cls = classify_state(p, k_rep * p.c, n)
        flow = informed_field_at(fitness_at, p, i_c, i_d)
        assert int(cells[4]) == n
        assert [float(v) for v in cells[5:8]] == [gains.d_cd, gains.d_do, gains.d_co]
        assert tuple(int(v) for v in cells[8:11]) == cls.signs
        assert cells[11] == (cls.label or "")
        assert [float(v) for v in cells[12:14]] == list(flow[:2])


def test_montecarlo_outputs(tmp_path):
    run_experiment(run_cfg(tmp_path, "montecarlo", extra="\nburn_in = 500"))
    out = tmp_path / "out"
    occ = (out / "occupancy.csv").read_text().splitlines()
    assert occ[0] == "i_C,i_D,x,y,occupancy"
    total = sum(float(line.split(",")[4]) for line in occ[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "step,i_C,i_D"
    summary = json.loads((out / "montecarlo_summary.json").read_text())
    assert summary["steps"] == 2000 and summary["burn_in"] == 500


def test_recipes_dispatch(tmp_path):
    # The experiment override dispatches to the named handler whatever the
    # config's own [experiment] name is.
    path = write_cfg(tmp_path)
    manifest = run_experiment(load_config(path, out_dir=tmp_path / "sweep",
                                          experiment="sweep-alpha"))
    assert "sweep_summary.json" in manifest.outputs
    base = BASE.replace("g_m_seats = 2", "g_m = 0.2").replace("z = 12", "z = 20")
    text = base.replace("name = stationary", "name = stationary\nz_pair = 20 10\ngroup_size = 5")
    manifest2 = run_experiment(load_config(write_cfg(tmp_path, text, "s1.cfg"),
                                           out_dir=tmp_path / "s1", experiment="s1-compare"))
    assert "s1_summary.json" in manifest2.outputs


def test_state_csvs_follow_state_order_and_carry_exact_values(tmp_path):
    """Every handler's CSVs on the z = 12 config and at z = 130: no None cell, NaN
    written as nan, and the per-state files hold each array entry, row s + 1 for state s.

    At z = 130 the state files have 8 646 rows, the field 8 385 and the
    informed map 8 643, so each spans three row blocks and ends on a short
    one; their cells are held to the whole-grid arithmetic, computed unblocked.
    """
    for z in (12, 130):
        _check_state_csvs(tmp_path / f"z{z}", BASE.replace("z = 12", f"z = {z}"), z)


def _check_state_csvs(tmp_path, base, z):
    tmp_path.mkdir()
    extra = f"\nz_pair = {z} {z + 6}\ngroup_size = 2\nburn_in = 500"
    runs = {name: (name, extra) for name in ("field", "stationary", "sweep-alpha", "informed-map",
                                             "k-profile", "s1-compare", "montecarlo")}
    runs["k-profile-y1"] = ("k-profile", extra + "\ny_slice = 1")
    tables = {}
    for tag, (name, text) in runs.items():
        text = base.replace("name = stationary", f"name = {name}" + text)
        cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / tag)
        run_experiment(cfg)
        for path in cfg.out_dir.glob("*.csv"):
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            assert rows and not any("None" in row for row in rows), path
            tables[f"{tag}/{path.name}"] = header, rows

    header, rows = tables["k-profile-y1/k_profile.csv"]
    assert {row[header.index("k_dropped")] for row in rows} == {"nan"}

    p = cfg.params
    assert p.z == z
    model = build_chain(p)
    index = model.index
    expected = {
        "stationary/stationary.csv": [stationary(model, method=cfg.method).pi],
        "montecarlo/occupancy.csv": [monte_carlo(p, cfg.steps, cfg.seed, burn_in=cfg.burn_in).occupancy],
    }
    for alpha in cfg.values:
        model = build_chain(dataclasses.replace(p, alpha=alpha))
        grad = selection_gradient(model)
        expected[f"sweep-alpha/stationary_alpha{alpha:g}.csv"] = [stationary(model, method=cfg.method).pi]
        expected[f"sweep-alpha/gradient_alpha{alpha:g}.csv"] = [grad.grad_x, grad.grad_y, grad.speed]
    for name, columns in expected.items():
        _, rows = tables[name]
        assert [(int(row[0]), int(row[1])) for row in rows] == list(zip(index.i_c_of, index.i_d_of))
        for j, want in enumerate(columns):
            got = np.array([float(row[4 + j]) for row in rows])
            assert np.array_equal(got, want, equal_nan=True), (name, j)

    i_m, i_c = np.tril_indices(z + 1)
    grids = {
        "field/field.csv": (i_c >= 1) & (i_c < i_m),
        "informed-map/informed_map.csv": i_m >= 2,
    }
    for name, keep in grids.items():
        _, rows = tables[name]
        m, c = i_m[keep], i_c[keep]
        if z > 12:
            assert len(rows) > 2 * BLOCK_ROWS and len(rows) % BLOCK_ROWS, name
        assert [(int(row[0]), int(row[1])) for row in rows] == list(zip(c, m - c))
        if name.startswith("field"):
            grid = replicator_field_grid(p, m, c)
            means = [np.concatenate(a) for a in zip(*map(fitness_table(p).means, range(2, z + 1)))]
            columns = [*grid[2:4], *means, *grid[4:6]]
        else:
            columns = informed_field_grid(p, m, c)[:2]  # the last two columns
        for j, want in enumerate(columns, start=len(rows[0]) - len(columns)):
            got = np.array([float(row[j]) for row in rows])
            assert np.array_equal(got, want, equal_nan=True), (name, j)


def test_field_csv_is_written_in_bounded_memory(tmp_path):
    """`field` with CSV output at z = 200 (19 900 rows) traces under 6 MB of peak allocations.

    The fitness table, the flow field's columns and the state text stay
    resident; the rest is a block long.  The bound sits between the 4.5 MB
    traced in blocks and the 9.0 MB that whole-column work (grid-long
    temporaries, a string per state and every column as a Python list at
    once) traced on this config.
    """
    text = BASE.replace("z = 12", "z = 200").replace("name = stationary", "name = field")
    cfg = load_config(write_cfg(tmp_path, text.replace("formats = csv, json", "formats = csv")),
                      out_dir=tmp_path / "out")
    fitness_table.cache_clear()
    state_text.cache_clear()
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "field.csv").read_text().count("\n") == 1 + 200 * 199 // 2
    assert peak < 6e6, peak


def test_reruns_are_byte_identical(tmp_path):
    cfg_a = load_config(write_cfg(tmp_path), out_dir=tmp_path / "a",
                        experiment="sweep-alpha")
    cfg_b = load_config(write_cfg(tmp_path), out_dir=tmp_path / "b",
                        experiment="sweep-alpha")
    man_a = run_experiment(cfg_a)
    man_b = run_experiment(cfg_b)
    assert man_a.outputs == man_b.outputs  # sha256 per file
    for name in man_a.outputs:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Runs a config (argv[1]) into argv[2], held to one CPU when argv[3] is "one".
ON_CPUS = """
import os, sys
from coaldyn.config import load_config
from coaldyn.experiments import run_experiment
if sys.argv[3] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
run_experiment(load_config(sys.argv[1], out_dir=sys.argv[2]))
try:
    os.waitpid(-1, os.WNOHANG)
    raise AssertionError("a child process was left behind")
except ChildProcessError:
    pass
"""


def outputs_on_one_and_every_cpu(tmp_path, text):
    """Run a config held to one CPU and on every CPU; both must write the same bytes."""
    path = write_cfg(tmp_path, text)
    src = str(Path(coaldyn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for cpus in ("one", "all"):
        subprocess.run([sys.executable, "-c", ON_CPUS, str(path), str(tmp_path / cpus), cpus],
                       env=env, check=True, timeout=120)
    one, every = (json.loads((tmp_path / cpus / "manifest.json").read_text())["outputs"]
                  for cpus in ("one", "all"))
    assert one == every
    for name in one:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    return one


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity masks")
def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path):
    """A sweep held to one CPU, so run in the calling process, writes the bytes of one
    run in a child per CPU."""
    text = BASE.replace("name = stationary", "name = sweep-alpha").replace(
        "values = 1, 2", "values = 1, 2, 4").replace("formats = csv, json", "formats = csv, json, svg")
    outputs = outputs_on_one_and_every_cpu(tmp_path, text)
    assert len(outputs) == 3 * 3 + 1  # three files a panel, then sweep_summary.json


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity masks")
def test_montecarlo_outputs_do_not_depend_on_the_worker_count(tmp_path):
    """A simulation held to one CPU, so to one segment, writes the bytes of one split
    into a segment per CPU."""
    text = BASE.replace("name = stationary", "name = montecarlo").replace(
        "steps = 2000", f"steps = {2 * markov.SEGMENT_STEPS + 12_345}\nburn_in = 1000").replace(
        "formats = csv, json", "formats = csv, json, svg")
    outputs = outputs_on_one_and_every_cpu(tmp_path, text)
    assert len(outputs) == 4  # occupancy CSV and SVG, trajectory, summary


@pytest.mark.parametrize("change, code, category", [
    (("mu = 0.05", "mu = 5e-324"), 2, "config"),  # ReducibleChainError, raised in a child
    (("z = 12", "z = 2000"), 3, "capacity"),  # CapacityError, raised before any child starts
])
def test_cli_sweep_errors_keep_their_exit_codes(tmp_path, capsys, monkeypatch, change, code, category):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    text = BASE.replace("name = stationary", "name = sweep-alpha").replace(*change)
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(f"error: {category}:")
    assert no_child_processes()


def test_cli_reports_a_killed_child_as_a_worker_error(tmp_path, capsys, monkeypatch):
    """A sweep panel that SIGKILLs its own process, as the OOM killer would, exits 5
    with one error line and no traceback, and leaves no child behind."""
    caller = os.getpid()

    def killed(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("the panel ran in the calling process")
    monkeypatch.setattr(experiments, "_stationary_outputs", killed)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    text = BASE.replace("name = stationary", "name = sweep-alpha")
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: worker: ") and f"killed by signal {int(signal.SIGKILL)} " in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert no_child_processes()


@pytest.mark.parametrize("name, blocked, forks", [
    ("stationary", "stationary.csv", 0),
    ("stationary", "manifest.json", 0),
    ("sweep-alpha", "stationary_alpha2.csv", 2),  # written by the second of two children
])
def test_cli_unwritable_output_is_an_output_error(tmp_path, capsys, monkeypatch, name, blocked, forks):
    """A directory in the place of an output file, an OSError as a full disk's would
    be, exits 6 with one error line and no traceback, whether the file is written
    in the calling process or in a sweep child, and leaves no child behind."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    (tmp_path / "out" / blocked).mkdir(parents=True)
    text = BASE.replace("name = stationary", f"name = {name}")
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == 6
    err = capsys.readouterr().err
    assert err == f"error: output: cannot write {tmp_path / 'out' / blocked}: Is a directory\n"
    assert len(forked) == forks
    assert no_child_processes()


def test_handlers_write_through_the_module_writers(tmp_path, monkeypatch):
    """perfbench/tracing.py times the writers by rebinding `write_csv`, `write_json`
    and `simplex_svg` on `coaldyn.experiments`: every file a manifest lists must
    pass through those names as they stand when the run starts."""
    seen = []  # file names, and None for each SVG panel

    def counted(writer, svg):
        def wrapper(first, *args, **kwargs):
            seen.append(None if svg else Path(first).name)
            return writer(first, *args, **kwargs)
        return wrapper
    for name in ("write_csv", "write_json", "simplex_svg"):
        monkeypatch.setattr(experiments, name, counted(getattr(experiments, name), name == "simplex_svg"))
    with_svg = BASE.replace("formats = csv, json", "formats = csv, json, svg")
    for name in ("stationary", "montecarlo"):
        seen.clear()
        outputs = run_experiment(run_cfg(tmp_path, name, base=with_svg)).outputs
        svg = [file for file in outputs if file.endswith(".svg")]
        assert svg and seen.count(None) == len(svg), name
        assert set(outputs) - set(svg) <= set(seen), name


def test_outputs_without_fork_match_those_with_fork(tmp_path, monkeypatch):
    """Where the platform cannot fork, a sweep and a simulation run in the calling
    process and write the bytes of two panels and two segments run in children;
    the field and the informed map, too short to split, write the same bytes either way."""
    monkeypatch.setattr(markov, "SEGMENT_STEPS", 1_000)  # BASE's 2000 steps make two segments
    texts = {name: BASE.replace("name = stationary", f"name = {name}")
             for name in ("sweep-alpha", "montecarlo", "field", "informed-map")}
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    def run(tag):
        return {name: run_experiment(load_config(write_cfg(tmp_path, text, f"{name}.cfg"),
                                                 out_dir=tmp_path / tag / name)).outputs
                for name, text in texts.items()}
    with monkeypatch.context() as m:
        m.setattr(os, "fork", counted)
        m.setattr(markov, "_usable_cpus", lambda: 2)
        m.setattr(experiments, "_usable_cpus", lambda: 2)
        forked = run("fork")
    assert len(forks) == 3  # two sweep panels and one later segment
    monkeypatch.delattr(os, "fork")
    assert markov._usable_cpus() == 1
    assert run("nofork") == forked
    for name, outputs in forked.items():
        for file in outputs:
            assert ((tmp_path / "fork" / name / file).read_bytes()
                    == (tmp_path / "nofork" / name / file).read_bytes())
    assert no_child_processes()


PER_STATE_CSVS = ("stationary.csv", "stationary_alpha2.csv", "gradient_alpha2.csv", "field.csv",
                  "informed_map.csv", "occupancy.csv")


@pytest.mark.parametrize("z", [21, 93])  # every per-state CSV under, then over, BLOCK_ROWS rows
def test_split_csvs_match_one_process_writes(tmp_path, monkeypatch, z):
    """Every per-state CSV split into four parts, three formatted in children, has the
    bytes and the manifest checksum of the same CSV written in one process.

    No CSV's row count is a multiple of four, so the parts differ in length.
    The sweep has one panel, so it writes in the calling process and splits.
    """
    monkeypatch.setattr(staterows, "PART_ROWS", 50)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    base = BASE.replace("z = 12", f"z = {z}").replace("values = 1, 2", "values = 2")
    outputs = {}
    for cpus in (4, 1):
        monkeypatch.setattr(staterows, "_usable_cpus", lambda: cpus)
        outputs[cpus] = {}
        for name in ("stationary", "sweep-alpha", "field", "informed-map", "montecarlo"):
            path = write_cfg(tmp_path, base.replace("name = stationary", f"name = {name}"), f"{name}.cfg")
            outputs[cpus].update(run_experiment(load_config(path, out_dir=tmp_path / str(cpus))).outputs)
    assert len(forks) == 3 * len(PER_STATE_CSVS)
    for name in PER_STATE_CSVS:
        rows = (tmp_path / "1" / name).read_text().count("\n") - 1
        assert rows % 4 and (rows > BLOCK_ROWS) == (z > 21), (name, rows)
    assert outputs[4] == outputs[1]
    for name in outputs[1]:
        assert (tmp_path / "4" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name
    assert not list(tmp_path.rglob("*.part*"))
    assert no_child_processes()


@pytest.mark.parametrize("platform", ["linux", "darwin"])  # a kernel copy of each part, then 64 KB reads
def test_split_write_appends_every_part(tmp_path, monkeypatch, platform):
    """Where `os.sendfile` cannot copy file to file, the parts are appended in 64 KB
    reads; either way the file has the bytes of a write in one process."""
    z = 200  # 20 301 rows, about 0.6 MB a part in three parts
    index = StateIndex.for_population(z)
    pi = np.random.default_rng(z).random(index.n_states)
    rows = staterows.StateRows(z, index.i_c_of, index.i_d_of, pi)
    monkeypatch.setattr(staterows, "_usable_cpus", lambda: 1)
    write_csv(tmp_path / "one.csv", ("i_C", "i_D", "x", "y", "pi"), rows)
    monkeypatch.setattr(staterows, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "platform", platform)
    write_csv(tmp_path / "split.csv", ("i_C", "i_D", "x", "y", "pi"), rows)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "split.csv"]
    assert no_child_processes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_children_do_not_fork_children(tmp_path, monkeypatch):
    """On two CPUs, a sweep whose CSVs are long enough to split forks its two panel
    children and nothing more: a child counts one usable CPU, so it writes its CSVs
    in one process.  A simulation forks its segment child and its occupancy CSV's
    part child, both from the calling process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(staterows, "PART_ROWS", 10)  # BASE's 91 rows make two parts
    monkeypatch.setattr(markov, "SEGMENT_STEPS", 1_000)  # BASE's 2000 steps make two segments
    log, fork = tmp_path / "forks", os.fork

    def logged():  # a file, so that forks in children are seen too
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()
    monkeypatch.setattr(os, "fork", logged)
    assert markov._usable_cpus() == 2
    with markov._children() as fork_child:
        assert fork_child(markov._usable_cpus)() == 1
    log.unlink()
    for name in ("sweep-alpha", "montecarlo"):
        path = write_cfg(tmp_path, BASE.replace("name = stationary", f"name = {name}"), f"{name}.cfg")
        run_experiment(load_config(path, out_dir=tmp_path / name))
        assert log.read_text().split() == [str(os.getpid())] * 2, name
        log.unlink()
    assert no_child_processes()


def split_leftovers(out: Path) -> list[str]:
    """Part files in ``out``: any entry with ".part" in its name but a directory."""
    return [p.name for p in out.iterdir() if ".part" in p.name and not p.is_dir()]


def test_cli_unwritable_part_is_an_output_error(tmp_path, capsys, monkeypatch):
    """A directory in the place of the first of two part files exits 6 with one error
    line naming the part, and leaves neither the second part nor a child behind."""
    monkeypatch.setattr(staterows, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(staterows, "PART_ROWS", 10)  # BASE's 91 rows make three parts
    out = tmp_path / "out"
    (out / "stationary.csv.part1").mkdir(parents=True)
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out)]) == 6
    assert capsys.readouterr().err == f"error: output: cannot write {out / 'stationary.csv.part1'}: Is a directory\n"
    assert (out / "stationary.csv.part1").is_dir() and not split_leftovers(out)
    assert no_child_processes()


def test_cli_reports_a_killed_part_child_as_a_worker_error(tmp_path, capsys, monkeypatch):
    """A part child SIGKILLed halfway through its file exits 5 with one error line,
    and leaves no part file and no child behind."""
    caller, write_lines = os.getpid(), staterows._write_lines

    def killed(fh, rows):
        if os.getpid() != caller:
            fh.write("half a part\n")
            fh.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        write_lines(fh, rows)
    monkeypatch.setattr(staterows, "_write_lines", killed)
    monkeypatch.setattr(staterows, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(staterows, "PART_ROWS", 10)
    out = tmp_path / "out"
    assert main(["run", str(write_cfg(tmp_path)), "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: worker: ") and f"killed by signal {int(signal.SIGKILL)} " in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not split_leftovers(out)
    assert no_child_processes()


def typed_errors(cls=CoaldynError):
    """``cls`` and every subclass of it, however deep."""
    return {cls}.union(*(typed_errors(sub) for sub in cls.__subclasses__()))


TYPED_ERRORS = [
    CoaldynError("engine failure"),
    ConfigError("key 'z' in [game]: expected an integer, got 'x'"),
    CapacityError("population size 2000 needs 2003001 states, over the budget of 2000000"),
    NonConvergenceError("cap hit", residual=2.5e-7, iterations=40),
    ReducibleChainError("chain is not strongly connected despite mu = 5e-324 > 0"),
    WorkerError("child process 7 ended without a result (killed by signal 9 (Killed))"),
    OutputError("cannot write out/stationary.csv: Is a directory"),
]


def test_every_typed_error_is_checked_for_pickling():
    assert {type(err) for err in TYPED_ERRORS} == typed_errors()


@pytest.mark.parametrize("err", TYPED_ERRORS, ids=lambda err: type(err).__name__)
def test_typed_error_survives_pickling(err):
    """A child's errors reach the caller pickled, and the CLI reads them there:
    each keeps its type, message and attributes."""
    back = pickle.loads(pickle.dumps(err))
    assert (type(back), str(back), vars(back)) == (type(err), str(err), vars(err))
    if isinstance(err, NonConvergenceError):
        assert (back.residual, back.iterations) == (2.5e-7, 40)


# --- command line -------------------------------------------------------------


def test_cli_success_exit_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("name = stationary", "name = k-profile"))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "manifest.json" in captured.out
    assert (tmp_path / "out" / "manifest.json").exists()


INF_DESK = (Path(__file__).parents[1] / "scripts" / "configs" / "desk_stationary.cfg").read_text() \
    .replace("z = 60", "z = 30").replace("g_m = 0.05", "g_m = 0.1").replace("alpha = 1.0", "alpha = inf") \
    .replace("name = stationary", "name = stationary\nsteps = 20000\nvalues = 2 inf")


@pytest.mark.parametrize("experiment", ["stationary", "field", "informed-map", "k-profile", "montecarlo",
                                        "sweep-alpha"])
def test_cli_alpha_inf_runs_and_writes_strict_json(tmp_path, capsys, experiment):
    """alpha = inf, the step-growth limit, runs end to end: every JSON file is strict
    JSON, and the manifest's config echo, written back as INI, loads as an equal config."""
    path = write_cfg(tmp_path, INF_DESK)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--experiment", experiment]) == 0, capsys.readouterr().err
    files = sorted(out.glob("*.json"))
    assert len(files) == 2 and all(strict_json(f.read_text()) for f in files)
    echo = strict_json((out / "manifest.json").read_text())["config"]
    assert echo["game"]["alpha"] == "inf"
    cfg = load_config(path, out_dir=out, experiment=experiment)
    assert math.isinf(cfg.params.alpha)
    assert load_config(write_cfg(tmp_path, echo_as_ini(echo), name="echo.cfg")) == cfg


@pytest.mark.parametrize("values", ["2 2.0000001 4", "2 2"])
def test_cli_sweep_values_that_share_a_file_tag_are_a_config_error(tmp_path, capsys, values):
    """Two sweep values of one ``:g`` tag would write the same panel files; the run
    stops at the config, before it makes the output directory."""
    text = BASE.replace("name = stationary", "name = sweep-alpha").replace("values = 1, 2", f"values = {values}")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: config:") and err.count("\n") == 1
    assert "'values'" in err and "2.0 and 2.0" in err and "stationary_alpha2.csv" in err
    assert not (tmp_path / "out").exists()
    # k-profile writes one file for all its values, so repeats are allowed there
    load_config(write_cfg(tmp_path, text.replace("name = sweep-alpha", "name = k-profile")))


def test_cli_config_error_exit_two(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("alpha = 2.0", "thetta = 1.0"))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")
    assert "thetta" in captured.err


def test_cli_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code = main(["run", str(write_cfg(tmp_path, BASE)), "--out", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config: cannot create output directory")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("mu, reason", [("5e-324", "not strongly connected"), ("0", "mu > 0")])
def test_cli_reducible_chain_is_a_config_error(tmp_path, capsys, mu, reason):
    # 5e-324 / 2 underflows to zero, so mutation cannot leave the all-outsider state.
    text = BASE.replace("mu = 0.05", f"mu = {mu}")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")
    assert reason in captured.err


@pytest.mark.parametrize("changes, key", [
    ((("name = stationary", "name = sweep-alpha"), ("values = 1, 2", "values = 0.5")), "'values'"),
    ((("name = stationary", "name = k-profile"), ("values = 1, 2", "values = 0.5")), "'values'"),
    ((("name = stationary", "name = s1-compare\nz_pair = 100 20"), ("z = 12", "z = 100"),
      ("g_m_seats = 2", "g_m = 0.05")), "'z_pair'"),  # z * g_m = 1 at z = 20
    ((("name = stationary", "name = field"), ("z = 12", "z = 20"),
      ("kind = sigmoid\namplitude = 100\nsteepness = 100\nthreshold = 0.75",
       "kind = tabulated\nknots = knots.csv")), "'knots'"),  # knots stop at 5, pools reach 20
], ids=["sweep-alpha", "k-profile", "s1-compare", "tabulated"])
def test_cli_unusable_parameter_sets_are_config_errors(tmp_path, capsys, changes, key):
    (tmp_path / "knots.csv").write_text("C,B\n0,0\n5,10\n")
    text = BASE
    for change in changes:
        text = text.replace(*change)
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config: ") and key in err[0]
    assert not (tmp_path / "out").exists()


SIGMOID = "kind = sigmoid\namplitude = 100\nsteepness = 100\nthreshold = 0.75"


@pytest.mark.parametrize("changes", [
    *(((f"{name} = {value}", f"{name} = nan"),) for name, value in
      (("alpha", "2.0"), ("beta", "0.1"), ("c", "1.0"), ("c_c", "1.0"),
       ("amplitude", "100"), ("steepness", "100"))),
    (("name = stationary", "name = sweep-alpha"), ("values = 1, 2", "values = 2 nan")),
    *(((SIGMOID, f"kind = {kind}\n{rest}"), (f"{key} = 1", f"{key} = nan")) for kind, rest, key in
      (("linear", "slope = 1", "slope"), ("step", "amplitude = 1", "amplitude"),
       ("tabulated", "knots = 1", "knots"))),
], ids=["alpha", "beta", "c", "c_c", "sigmoid-amplitude", "sigmoid-steepness", "sweep-values", "linear-slope",
        "step-amplitude", "tabulated-knots"])
def test_cli_nan_parameters_are_config_errors(tmp_path, capsys, changes):
    """A NaN stops the run before any output, naming the key; for knots, a file holding one."""
    (tmp_path / "nan").write_text("C,B\n0,0\n20,nan\n")
    text = BASE
    for change in changes:
        text = text.replace(*change)
    key = changes[-1][1].split()[0]  # the key the last change sets to nan
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: config: ") and key in err[0], err
    assert not (tmp_path / "out").exists()


def test_group_size_over_a_population_is_a_config_error(tmp_path, capsys):
    text = (Path(__file__).parents[1] / "scripts" / "configs" / "size_pair.cfg").read_text()
    path = write_cfg(tmp_path, text.replace("group_size = 25", "group_size = 80"))  # z_pair 100 50
    with pytest.raises(ConfigError, match="group size 80 exceeds the population z=50"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: config: key 'group_size'")
    assert not (tmp_path / "out").exists()


def test_cli_s1_compare_two_member_slice_writes_nan(tmp_path, capsys):
    # A group size of 2 matches the two-member coalition, where K_dropped and
    # so the k column are undefined.
    text = (Path(__file__).parents[1] / "scripts" / "configs" / "size_pair.cfg").read_text()
    path = write_cfg(tmp_path, text.replace("group_size = 25", "group_size = 2"))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    lines = (tmp_path / "out" / "s1_compare.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "i_M" and lines[0].endswith(",k")
    assert lines[1:] and all(line.split(",")[2] == "2" for line in lines[1:])
    assert all(line.endswith(",nan") for line in lines[1:])


def test_cli_capacity_error_exit_three(tmp_path, capsys):
    text = BASE.replace("z = 12", "z = 3000").replace("g_m_seats = 2", "g_m = 0.01")
    path = write_cfg(tmp_path, text)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: capacity:")


def test_cli_format_override(tmp_path):
    path = write_cfg(tmp_path, BASE.replace("name = stationary", "name = k-profile"))
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out), "--format", "csv"])
    assert code == 0
    assert (out / "k_profile.csv").exists()
    assert not (out / "k_profile_summary.json").exists()


@pytest.mark.parametrize("where", ["cli", "file"])
def test_cli_empty_format_list_is_a_config_error(tmp_path, capsys, where):
    """An empty format list would run the whole experiment and write nothing."""
    out = tmp_path / "out"
    if where == "cli":
        text, extra = BASE, ["--format", ","]
    else:
        text, extra = BASE.replace("formats = csv, json", "formats ="), []
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config: key 'formats' in [output]")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("name", NO_SVG)
def test_cli_format_list_that_selects_no_output_is_a_config_error(tmp_path, capsys, name):
    """An experiment that draws no panel, run with ``--format svg``, would compute
    everything and write only its manifest."""
    out = tmp_path / "out"
    text = BASE.replace("name = stationary", f"name = {name}")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(out), "--format", "svg"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: config: key 'formats' in [output] must list one of the formats {name} writes: csv, json\n"
    assert not out.exists()


def test_each_experiment_writes_every_format_its_config_accepts(tmp_path):
    """`NO_SVG` names exactly the experiments that write no SVG file."""
    with_svg = BASE.replace("formats = csv, json", "formats = csv, json, svg")
    for name in EXPERIMENTS:
        (tmp_path / name).mkdir()
        outputs = run_experiment(run_cfg(tmp_path / name, name, base=with_svg)).outputs
        suffixes = {file.rpartition(".")[2] for file in outputs}
        assert suffixes == ({"csv", "json"} if name in NO_SVG else set(FORMATS)), name


def test_cli_mutation_form_is_not_a_config_key(tmp_path, capsys):
    """The chain has one transition rule, so a config cannot name one."""
    out = tmp_path / "out"
    text = BASE.replace("name = stationary", "name = stationary\nmutation_form = scaled")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: config: unknown key 'mutation_form' in [experiment]\n"
    assert not out.exists()


def test_config_echo_keeps_x_summary_note(tmp_path):
    manifest = run_experiment(run_cfg(tmp_path, "stationary"))
    notes = manifest.config["notes"]
    assert any("at least one member" in n for n in notes)
