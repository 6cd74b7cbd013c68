"""coaldyn benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a coaldyn checkout; the package is imported from
``src/`` as it stands, so there is nothing to build.  One caller runs one
workload at a time in a closed loop: each repetition is a fresh
``worker.py`` process, so the fitness caches start cold as in a user's
``coaldyn run``.  A set-up-only process first warms the page cache; then
a new repetition starts only if, at the median pace so far, at least half
of it falls within S seconds.  BLAS threads are capped at one through
``COALDYN_THREADS``.  The seed drives only the ``montecarlo`` workload.

End-to-end metrics (``--trace 0``), medians over the repetitions:

- ``wall_s``: running the workload's experiments, from resolved configs to
  the last manifest written;
- ``setup_s``: importing coaldyn and resolving the configs, in a fresh
  process, over at least five processes;
- ``peak_rss_mb``: peak RSS of the worker process;
- ``pi_tv_err``: largest TV distance between a stationary law the program
  wrote and reference.py's law.  It is deterministic.  Values below
  1e-10, the resolution of the reference, read as 1e-10.  The flow_z200
  and montecarlo workloads return no deterministic law and read 1.0, the
  largest TV distance there is.

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of tracing.py instead, with ``trace.overhead_s``, the
traced minus the untraced median wall time.

Metric names and units are those declared in ``BENCHMARK.json``.  Every
repetition's outputs are checked (checks.py).  A repetition that crashes
or fails its checks counts as a failed operation, and the run stops there;
one that only fails its checks still counts in the metrics.  Lines before the
last one give the environment and each stationary law's reported residual
beside its TV error; the last line is the result.  Everything is written
under ``.bench_out/`` in the checkout, with ``result.json`` and, for a
traced run, ``run/spans.json``.  The reference laws are kept there too and
solved again only when a file under ``src/`` or the benchmark changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata, util
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402

THREAD_CAP = 1  # same cap on every host, so results stay comparable; one core busy
SETUP_SAMPLES = 5
TV_RESOLUTION = 1e-10
NO_LAW_TV = 1.0
BUDGET_S = 170.0  # the whole run, references and set-up samples included

LIBRARY_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                       "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    """Environment for coaldyn processes: the checkout's src/ first, threads capped."""
    env = {k: v for k, v in os.environ.items() if k not in LIBRARY_THREAD_VARS}
    env["COALDYN_THREADS"] = str(THREAD_CAP)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def tree_digest(dirs) -> str:
    digest = hashlib.sha256()
    for path in sorted(f for d in dirs for f in d.rglob("*")
                       if f.is_file() and "__pycache__" not in f.parts):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Run:
    """Child processes of one benchmark run, all inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / ".bench_out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.deadline = perf_counter() + BUDGET_S
        self.env = child_env(root)
        self.info = {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "coaldyn_threads": THREAD_CAP,
            "numba_importable": util.find_spec("numba") is not None,
        }

    def child(self, script: str, *args: str) -> subprocess.CompletedProcess:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise TimeoutError(f"{script}: no time left in the {BUDGET_S:.0f} s budget")
        return subprocess.run([sys.executable, str(BENCH / script), *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=timeout)

    def worker(self, *flags: str) -> dict | None:
        """One repetition; None if the worker failed."""
        try:
            proc = self.child("worker.py", "--workload", self.workload, "--seed", str(self.seed),
                              "--out", str(self.out / "run"), *flags)
        except subprocess.TimeoutExpired:
            print(f"worker {' '.join(flags)}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def reference_laws(self) -> dict:
        """reference.py's laws, solved again only when the program or the benchmark changed."""
        import numpy as np
        from checks import needs_reference

        if not needs_reference(self.workload):
            return {}
        path, key_path = self.out / "reference.npz", self.out / "reference.key"
        key = tree_digest([self.root / "src", self.root / "scripts" / "configs", BENCH])
        if not (path.is_file() and key_path.is_file() and key_path.read_text() == key):
            proc = self.child("reference.py", "--workload", self.workload, "--out", str(path))
            if proc.returncode != 0:
                raise RuntimeError(f"reference solve failed:\n{proc.stderr[-2000:]}")
            key_path.write_text(key)
        with np.load(path) as laws:
            return {key: laws[key] for key in laws.files}


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Repetitions for about `seconds`, ending as near it as whole repetitions allow."""
    from checks import check

    refs = run.reference_laws()
    warm = run.worker("--setup-only")  # reads the imports into the page cache
    if warm is None:
        raise RuntimeError("set-up failed")
    reps, attempted, failed, laws = [], 0, 0, {}
    modes = [(), ("--trace",)] if trace else [()]
    cycles = []
    start = perf_counter()
    while not failed:
        elapsed = perf_counter() - start
        if cycles and elapsed + statistics.median(cycles) / 2 > seconds:
            break
        for flags in modes:
            attempted += 1
            rep = run.worker(*flags)
            if rep is None:
                failed += 1
                continue
            try:
                problems, laws = check(run.workload, run.out / "run", refs)
            except (OSError, KeyError, IndexError, ValueError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            failed += bool(problems)
            rep["traced"] = bool(flags)
            reps.append(rep)
        cycles.append(perf_counter() - start - elapsed)
    return {"reps": reps, "attempted": attempted, "failed": failed, "laws": laws,
            "setup_s": [warm["setup_s"]]}


def end_to_end(run: Run, measured: dict) -> dict:
    reps = measured["reps"]
    setup = measured["setup_s"] + [rep["setup_s"] for rep in reps]
    while len(setup) < SETUP_SAMPLES:
        rep = run.worker("--setup-only")
        if rep is None:
            raise RuntimeError("set-up failed")
        setup.append(rep["setup_s"])
    tv = max((law["tv"] for law in measured["laws"].values()), default=None)
    return {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "pi_tv_err": NO_LAW_TV if tv is None else max(tv, TV_RESOLUTION),
    }


def per_layer(measured: dict) -> dict:
    traced = [rep for rep in measured["reps"] if rep["traced"]]
    plain = [rep for rep in measured["reps"] if not rep["traced"]]
    if not traced or not plain:
        raise RuntimeError("no traced and untraced repetition pair succeeded")
    # median_low reports a measured value, so counts stay whole numbers.
    metrics = {name: statistics.median_low(rep["layers"][name] for rep in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = (statistics.median(rep["wall_s"] for rep in traced)
                                   - statistics.median(rep["wall_s"] for rep in plain))
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    needed = [Path("BENCHMARK.json"), Path("src/coaldyn/__init__.py")] + [
        step.config for step in WORKLOADS[args.workload]]
    missing = [str(p) for p in needed if not (root / p).is_file()]
    if missing:
        print(f"error: not the root of a coaldyn checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    run = Run(root, args.workload, abs(args.seed))
    print(json.dumps({"env": run.info}))
    try:
        measured = measure(run, args.seconds, bool(args.trace))
        if not measured["reps"]:
            raise RuntimeError("no repetition succeeded")
        metrics = per_layer(measured) if args.trace else end_to_end(run, measured)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, law in sorted(measured["laws"].items()):
        print(f"law {key}: reported residual {law['reported_residual']:.3e}, "
              f"TV error {law['tv']:.3e}")

    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (run.out / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": run.seed, "seconds": args.seconds,
         "trace": args.trace, "env": run.info, "laws": measured["laws"],
         "reps": measured["reps"], **result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
