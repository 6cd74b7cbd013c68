"""Output checks for one repetition of a workload, and its stationary-law error.

Expected values live in expected.json; they were recorded from the outputs
of coaldyn at commit 3c88512, the commit this benchmark was written
against.  The tolerances:

- stationary mean_x, mean_y and member_mass: 5e-4 absolute.  Power
  iteration's true TV error is below 1e-4 on every panel, and no summary
  moment moves by more than the TV distance, so a more accurate solver
  passes while a wrong chain (moments off by 1e-2 or more) does not.
- every stationary law: TV distance from the reference law at most 1e-3.
- rest points: same number, same kinds, coordinates within 1e-6.
- informed-map label counts: exact.
- s1-compare max_gap: relative 1e-6.
- Monte Carlo occupancy: TV distance from the reference law below 0.1
  (0.06 to 0.08 over seeds 1 to 7 at 3e6 steps).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

MOMENT_TOL = 5e-4
LAW_TV_TOL = 1e-3
POINT_TOL = 1e-6
GAP_RTOL = 1e-6
MC_TV_TOL = 0.1


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def _column(path: Path, name: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def _check_manifests(out: Path, problems: list[str]) -> None:
    for manifest in sorted(out.glob("*/manifest.json")):
        for name, digest in json.loads(manifest.read_text())["outputs"].items():
            path = manifest.parent / name
            if not path.is_file():
                problems.append(f"{path}: listed in the manifest but missing")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                problems.append(f"{path}: checksum differs from the manifest")


def _summaries(out: Path) -> dict[str, dict]:
    """Reported moments per stationary output file, keyed like expected.json."""
    found = {}
    for path in out.glob("*/stationary_summary.json"):
        found[f"{path.parent.name}/stationary.csv"] = json.loads(path.read_text())
    for path in out.glob("*/sweep_summary.json"):
        sweep = json.loads(path.read_text())
        for i, alpha in enumerate(sweep["alpha"]):
            found[f"{path.parent.name}/stationary_alpha{alpha:g}.csv"] = {
                key: sweep[key][i] for key in ("mean_x", "mean_y", "member_mass", "residual")}
    return found


def _close(a, b, tol: float) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def needs_reference(workload: str) -> bool:
    return "stationary" in EXPECTED[workload] or "occupancy" in EXPECTED[workload]


def check(workload: str, out: Path, refs: dict[str, np.ndarray]) -> tuple[list[str], dict]:
    """Problems found in one repetition's outputs, and for each stationary law
    the program wrote, its reported residual and its TV distance from the
    reference law."""
    expected = EXPECTED[workload]
    problems: list[str] = []
    _check_manifests(out, problems)

    laws = {}
    reported = _summaries(out)
    for key, moments in expected.get("stationary", {}).items():
        got = reported.get(key)
        if got is None:
            problems.append(f"{key}: no reported summary")
            continue
        for name, value in moments.items():
            if not _close(got[name], value, MOMENT_TOL):
                problems.append(f"{key}: {name} = {got[name]}, expected {value} +- {MOMENT_TOL}")
        tv = tv_distance(_column(out / key, "pi"), refs[key])
        laws[key] = {"tv": tv, "reported_residual": got["residual"]}
        if not tv <= LAW_TV_TOL:
            problems.append(f"{key}: TV distance {tv:.3e} from the reference law")

    if "fixed_points" in expected:
        got = json.loads((out / "field/fixed_points.json").read_text())["fixed_points"]
        want = expected["fixed_points"]
        if len(got) != len(want) or any(
                g["kind"] != w["kind"] or abs(g["x"] - w["x"]) > POINT_TOL
                or abs(g["y"] - w["y"]) > POINT_TOL for g, w in zip(got, want)):
            problems.append(f"fixed points {[(g['x'], g['y'], g['kind']) for g in got]}, "
                            f"expected {[(w['x'], w['y'], w['kind']) for w in want]}")
    if "label_counts" in expected:
        got = json.loads((out / "informed/informed_summary.json").read_text())["label_counts"]
        if got != expected["label_counts"]:
            problems.append(f"informed label counts {got}, expected {expected['label_counts']}")
    if "s1_max_gap" in expected:
        pops = json.loads((out / "s1/s1_summary.json").read_text())["populations"]
        got = {str(p["z"]): p["max_gap"] for p in pops}
        want = expected["s1_max_gap"]
        if got.keys() != want.keys() or any(
                len(got[z]) != len(want[z])
                or not all(math.isclose(g, w, rel_tol=GAP_RTOL) for g, w in zip(got[z], want[z]))
                for z in want):
            problems.append(f"s1-compare max_gap {got}, expected {want}")
    if "occupancy" in expected:
        key = expected["occupancy"]
        tv = tv_distance(_column(out / key, "occupancy"), refs[key])
        if not tv < MC_TV_TOL:
            problems.append(f"{key}: TV distance {tv:.4f} from the reference law")
    return problems, laws
