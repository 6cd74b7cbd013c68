"""Run one workload once, in this fresh process, and print its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Run from the root of a coaldyn checkout; ``run.py`` starts one of these per
repetition so that every repetition starts with cold fitness caches, as a
user's ``coaldyn run`` does.  ``setup_s`` covers importing coaldyn and
resolving the workload's configs; ``wall_s`` covers running its
experiments up to the last manifest written.  ``--setup-only`` stops after
set-up.  ``--trace`` also records spans (see tracing.py), writes them to
``DIR/spans.json`` and adds the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402
from workloads import WORKLOADS, load_step  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = perf_counter()
    import coaldyn.experiments  # numpy and scipy come with it

    configs = [load_step(step, args.out, args.seed) for step in WORKLOADS[args.workload]]
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    shutil.rmtree(args.out, ignore_errors=True)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    t0 = perf_counter()
    for cfg in configs:
        with tracer.span(tracing.ROOT, experiment=cfg.experiment) if args.trace else nullcontext():
            coaldyn.experiments.run_experiment(cfg)
    result["wall_s"] = perf_counter() - t0
    result["peak_rss_mb"] = tracing.peak_rss_mb()
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        result["layers"]["experiments.bytes_written"] = sum(
            p.stat().st_size for p in args.out.rglob("*") if p.is_file())
        with open(args.out / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
