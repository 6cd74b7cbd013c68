"""Config parsing, experiment dispatch, deterministic emission, CLI exit codes."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coaldyn
from coaldyn import ConfigError, NonConvergenceError, classify_state, marginal_gains
from coaldyn.cli import main
from coaldyn.config import ExperimentConfig, load_config
from coaldyn.game import effective_shares, group_size
from coaldyn.experiments import _json_safe, _matched_members, _state_prefix, run_experiment, write_csv
from coaldyn.sampling import FitnessTable, fitness_at, fitness_table
from coaldyn.markov import StateIndex, build_chain, monte_carlo, selection_gradient, stationary
from coaldyn.svg import _dot_prefixes, _f, _point, simplex_svg
from oracles import information_cost_at, informed_field_at, member_means, replicator_field_at

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
resolution = 8

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
    assert cfg.resolution == 8
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


def test_simulator_rejects_literal_mutation_form(tmp_path):
    text = BASE.replace("name = stationary", "name = montecarlo\nmutation_form = literal")
    with pytest.raises(ConfigError, match="scaled"):
        load_config(write_cfg(tmp_path, text))


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


def test_json_safe_maps_nonfinite_to_null():
    assert _json_safe(float("nan")) is None
    assert _json_safe(float("inf")) is None
    assert _json_safe(0.5) == 0.5


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, math.nan)])
    assert path.read_text() == "a,b\n1,0.5\n2,nan\n"


def test_svg_is_deterministic_and_wellformed():
    shade = [(0, 0, 0.5), (3, 2, 1.0), (6, 0, 0.25)]
    arrows = [(2, 2, 0.5, -0.25, 0.6), (4, 1, -0.1, 0.2, 0.2)]
    one = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    two = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    assert one == two
    assert one.startswith("<svg ") and one.rstrip().endswith("</svg>")
    assert "alpha = 2" in one


def test_dot_prefixes_follow_point_arithmetic():
    for z in (12, 60):
        radius = _f(min(9.0, max(2.2, 380.0 / z)))
        want = []
        for i_c in range(z + 1):
            for i_d in range(z + 1 - i_c):
                px, py = _point(i_c, i_d, z)
                want.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{radius}" '
                            'fill="#1f2430" fill-opacity="')
        assert list(_dot_prefixes(z)) == want


def test_state_prefix_is_the_text_of_the_state_columns():
    for z in (1, 2, 12, 60):
        index = StateIndex.for_population(z)
        i_m = index.i_c_of + index.i_d_of
        with np.errstate(invalid="ignore"):
            x = index.i_c_of / i_m
        y = i_m / z
        want = [f"{str(a)},{str(b)},{str(c)},{str(d)}"
                for a, b, c, d in zip(index.i_c_of, index.i_d_of, x, y)]
        got = _state_prefix(z)
        assert list(got) == want
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
    real = FitnessTable._store

    def spy(self, i_m, raw):
        built.append((self.params.z, self.params.alpha, i_m))
        return real(self, i_m, raw)

    monkeypatch.setattr(FitnessTable, "_store", spy)
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
    """Every handler's CSVs on the z = 12 config: no None cell, NaN written as
    nan, and the per-state files hold each array entry, row s + 1 for state s."""
    extra = "\nz_pair = 12 18\ngroup_size = 2\nburn_in = 500"
    runs = {name: (name, extra) for name in ("field", "stationary", "sweep-alpha", "informed-map",
                                             "k-profile", "s1-compare", "montecarlo")}
    runs["k-profile-y1"] = ("k-profile", extra + "\ny_slice = 1")
    tables = {}
    for tag, (name, text) in runs.items():
        text = BASE.replace("name = stationary", f"name = {name}" + text)
        cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / tag)
        run_experiment(cfg)
        for path in cfg.out_dir.glob("*.csv"):
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            assert rows and not any("None" in row for row in rows), path
            tables[f"{tag}/{path.name}"] = header, rows

    header, rows = tables["k-profile-y1/k_profile.csv"]
    assert {row[header.index("k_dropped")] for row in rows} == {"nan"}

    p = cfg.params
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity masks")
def test_sweep_outputs_do_not_depend_on_the_worker_count(tmp_path):
    """A sweep held to one CPU, so to one worker process, writes the bytes of one on every CPU."""
    text = BASE.replace("name = stationary", "name = sweep-alpha").replace(
        "values = 1, 2", "values = 1, 2, 4").replace("formats = csv, json", "formats = csv, json, svg")
    path = write_cfg(tmp_path, text)
    code = """
import multiprocessing, os, sys
from coaldyn.config import load_config
from coaldyn.experiments import run_experiment
if sys.argv[3] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
run_experiment(load_config(sys.argv[1], out_dir=sys.argv[2]))
assert not multiprocessing.active_children()
"""
    src = str(Path(coaldyn.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for cpus in ("one", "all"):
        subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / cpus), cpus],
                       env=env, check=True, timeout=120)
    one, every = (json.loads((tmp_path / cpus / "manifest.json").read_text())["outputs"]
                  for cpus in ("one", "all"))
    assert one == every and len(one) == 3 * 3 + 1  # three files a panel, then sweep_summary.json
    for name in one:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


@pytest.mark.parametrize("change, code, category", [
    (("mu = 0.05", "mu = 5e-324"), 2, "config"),  # ReducibleChainError, raised in a worker
    (("z = 12", "z = 2000"), 3, "capacity"),  # CapacityError, raised before the pool starts
])
def test_cli_sweep_errors_keep_their_exit_codes(tmp_path, capsys, change, code, category):
    text = BASE.replace("name = stationary", "name = sweep-alpha").replace(*change)
    assert main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(f"error: {category}:")
    assert not multiprocessing.active_children()


def test_nonconvergence_error_survives_pickling():
    """A worker's errors reach the parent pickled, and the CLI reads them there."""
    err = pickle.loads(pickle.dumps(NonConvergenceError("cap hit", residual=2.5e-7, iterations=40)))
    assert (str(err), err.residual, err.iterations) == ("cap hit", 2.5e-7, 40)


# --- command line -------------------------------------------------------------


def test_cli_success_exit_zero(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("name = stationary", "name = k-profile"))
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "manifest.json" in captured.out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_config_error_exit_two(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("alpha = 2.0", "thetta = 1.0"))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")
    assert "thetta" in captured.err


def test_cli_literal_overflow_is_a_config_error(tmp_path, capsys):
    text = BASE.replace("mu = 0.05", "mu = 0.9").replace(
        "name = stationary", "name = stationary\nmutation_form = literal")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")
    assert "literal mutation form" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mu, reason", [("5e-324", "not strongly connected"), ("0", "mu > 0")])
def test_cli_reducible_chain_is_a_config_error(tmp_path, capsys, mu, reason):
    # 5e-324 / 2 underflows to zero, so mutation cannot leave the all-outsider state.
    text = BASE.replace("mu = 0.05", f"mu = {mu}")
    code = main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")
    assert reason in captured.err


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


def test_config_echo_keeps_x_summary_note(tmp_path):
    manifest = run_experiment(run_cfg(tmp_path, "stationary"))
    notes = manifest.config["notes"]
    assert any("at least one member" in n for n in notes)
