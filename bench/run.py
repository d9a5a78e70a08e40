"""Benchmark of the uqpilot campaign engine: one workload per invocation.

    python3 bench/run.py --workload covid-serial --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload until ``--seconds`` are spent (at
least one round), checks every round's outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
traces every round, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``bench/out/``. See bench/README.md."""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "work"
OUT = BENCH / "out"
MIN_SETUPS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "runs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "sampling.draw_s": "s",
    "sampling.points": "count",
    "campaign.stage_insert_s": "s",
    "campaign.encode_ms_per_run": "ms",
    "campaign.decode_ms_per_run": "ms",
    "campaign.store_txns": "count",
    "campaign.store_txn_ms": "ms",
    "campaign.load_frame_s": "s",
    "campaign.db_mb": "MB",
    "executors.execute_s": "s",
    "executors.parent_cpu_s": "s",
    "executors.child_cpu_s": "s",
    "executors.ms_per_run": "ms",
    "pilotjob.submit_s": "s",
    "pilotjob.drain_s": "s",
    "pilotjob.dispatch_per_s": "1/s",
    "pilotjob.tasks": "count",
    "pilotjob.sim_makespan_s": "sim_s",
    "pilotjob.protocol_calls": "count",
    "pilotjob.protocol_call_ms": "ms",
    "analysis.analyze_s": "s",
    "analysis.terms": "count",
    "toy.compute_ms_per_run": "ms",
    "trace.overhead_pct": "%",
}
WORKLOAD_NAMES = ("covid-serial", "echo-pilot", "pj-dag-sim")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(message: str):
    print(f"bench: {message}", file=sys.stderr, flush=True)


def import_program():
    """Put the checkout's sources first on the import path, also for children."""
    if not (SRC / "uqpilot" / "__init__.py").is_file():
        raise SystemExit(f"bench: no uqpilot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import workloads

    return workloads


def import_seconds() -> float:
    """Median time to import the program and the benchmark in a fresh interpreter."""
    code = "import time; t0 = time.perf_counter(); import workloads; print(time.perf_counter() - t0)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(MIN_SETUPS)
    ]
    return statistics.median(times)


def measure(args) -> dict:
    workloads = import_program()
    import_s = import_seconds()
    from spans import Tracer

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work)
        wl.prepare()
        warm_ups = []
        for _ in range(MIN_SETUPS):
            t0 = time.perf_counter()
            wl.warm_up()
            warm_ups.append(time.perf_counter() - t0)
        warm_up_s = statistics.median(warm_ups)

        tracer = Tracer() if args.trace else None
        rounds, lengths = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rnd = wl.run_round(tracer)
            lengths.append(time.perf_counter() - t0)
            rounds.append(rnd)
            log(f"{args.workload} round {len(rounds)}{' traced' if tracer else ''}: "
                f"wall {rnd.wall_s:.3f}s setup {rnd.setup_s:.4f}s "
                f"failed {len(rnd.failed)}/{rnd.attempted}"
                + (f" ({rnd.errors[0]})" if rnd.errors else ""))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(lengths) > args.seconds:
                break
        setups = [r.setup_s for r in rounds]
        while len(setups) < MIN_SETUPS:
            setups.append(wl.setup_only())
        log(f"set-up: import {import_s:.3f}s, warm-up {warm_up_s:.3f}s (median of "
            f"{', '.join(f'{w:.3f}' for w in warm_ups)}), "
            f"median of {len(setups)} round set-ups {statistics.median(setups):.4f}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_sets = {tuple(r.failed) for r in rounds}
    guard_errors = [e for r in rounds for e in r.guard_errors]
    for error in guard_errors[:5]:
        log(f"guard: {error}")
    if len(failed_sets) > 1:
        log("rounds failed different operations: the program is not deterministic here")
    result = {
        "correct": not guard_errors and len(failed_sets) == 1,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failed) for r in rounds),
    }
    if args.trace:
        layers = {
            name: statistics.median(r.layers[name] for r in rounds)
            for name in rounds[0].layers
        }
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "layers": layers, "spans_by_name": tracer.summary()})
        log(f"spans written to {trace_path}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        values = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": import_s + warm_up_s + statistics.median(setups),
            "runs_per_s": statistics.median(r.done / r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
