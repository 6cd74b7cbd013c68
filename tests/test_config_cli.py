"""Config parsing, experiment dispatch, deterministic emission, CLI exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from coaldyn import ConfigError, PopulationState, classify_state, informed_field, marginal_gains
from coaldyn.cli import main
from coaldyn.config import ExperimentConfig, load_config
from coaldyn.game import group_size
from coaldyn.experiments import (
    _fmt_cell,
    _json_safe,
    run_experiment,
    write_csv,
)
from coaldyn.svg import simplex_svg

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
    assert _fmt_cell(0.1) == "0.1"
    assert _fmt_cell(1 / 3) == "0.3333333333333333"
    assert _fmt_cell(np.float64(0.25)) == "0.25"
    assert _fmt_cell(3) == "3"
    assert _fmt_cell(np.int64(-4)) == "-4"
    assert _fmt_cell(None) == "nan"
    assert _fmt_cell(float("nan")) == "nan"
    assert _fmt_cell("label") == "label"
    for value in (0.1, 1 / 3, 7.25e-17):
        assert float(_fmt_cell(value)) == value


def test_json_safe_maps_nonfinite_to_null():
    assert _json_safe(float("nan")) is None
    assert _json_safe(float("inf")) is None
    assert _json_safe(0.5) == 0.5


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 0.5), (2, None)])
    assert path.read_text() == "a,b\n1,0.5\n2,nan\n"


def test_svg_is_deterministic_and_wellformed():
    shade = [(0, 0, 0.5), (3, 2, 1.0), (6, 0, 0.25)]
    arrows = [(2, 2, 0.5, -0.25, 0.6), (4, 1, -0.1, 0.2, 0.2)]
    one = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    two = simplex_svg(12, shade=shade, arrows=arrows, label="alpha = 2")
    assert one == two
    assert one.startswith("<svg ") and one.rstrip().endswith("</svg>")
    assert "alpha = 2" in one


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


def test_informed_map_matches_pointwise_functions(tmp_path):
    """Every row of the vectorised informed map against the scalar functions."""
    text = BASE.replace("z = 12", "z = 30").replace("alpha = 2.0", "alpha = 4.0")
    cfg = load_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out",
                      experiment="informed-map")
    run_experiment(cfg)
    p, z = cfg.params, cfg.params.z
    lines = (tmp_path / "out" / "informed_map.csv").read_text().splitlines()[1:]
    want_states = [(i_c, i_m - i_c) for i_m in range(2, z + 1) for i_c in range(i_m + 1)]
    assert len(lines) == len(want_states)
    for line, (i_c, i_d) in zip(lines, want_states):
        cells = line.split(",")
        assert (int(cells[0]), int(cells[1])) == (i_c, i_d)
        i_m = i_c + i_d
        n = group_size(p, i_m)
        k_rep = round(i_c / i_m * (n - 1))
        gains = marginal_gains(p, k_rep * p.c, n)
        cls = classify_state(p, k_rep * p.c, n)
        flow = informed_field(p, PopulationState(i_c=i_c, i_d=i_d, z=z))
        assert int(cells[4]) == n
        assert [float(v) for v in cells[5:8]] == [gains.d_cd, gains.d_do, gains.d_co]
        assert tuple(int(v) for v in cells[8:11]) == cls.signs
        assert cells[11] == (cls.label or "")
        assert [float(v) for v in cells[12:14]] == [flow.x_dot, flow.y_dot]


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
