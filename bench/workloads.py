"""The three benchmark workloads and the layer probes they install.

Each workload is a closed batch: one process submits the whole ensemble
and waits for it. A round is set-up (input generation and ``uq init``),
the timed part, and the checks; every round repeats the same operations
on the same inputs, so the failed share is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, cpu_times
from uqpilot import executors, toy
from uqpilot.analysis import pipeline
from uqpilot.analysis.mc_sobol import sobol_mc
from uqpilot.campaign.ops import Campaign
from uqpilot.campaign.store import CampaignStore
from uqpilot.cli import pj, uq
from uqpilot.pilotjob import manager, protocol, scheduler
from uqpilot.sampling import samplers, sparse
from uqpilot.sampling.distributions import uniform

# merged points of the exp2 Clenshaw-Curtis Smolyak grid in six dimensions
SPARSE_POINTS_6D = {1: 13, 2: 85, 3: 389, 4: 1457, 5: 4865, 6: 15121}
HORIZON = 120
MC_MOMENT_SAMPLES = 6000
MC_SOBOL_SAMPLES = 2000
WARM_UP_LEVEL = 1


def instrument(tracer: Tracer):
    """Wrap each layer's public entry points; ``tracer.restore`` undoes it."""
    def points(extra, result, args):
        extra["points"] = len(result[0])

    def executed(extra, result, args):
        extra["runs"] = result.executed

    def tasks(extra, result, args):
        extra["tasks"] = args[1].iterations

    def terms(extra, result, args):
        extra["terms"] = len(result.terms)

    tracer.wrap(samplers, "draw", "sampling.draw", on_result=points)
    for module in (samplers, pipeline, sparse):
        tracer.wrap(module, "smolyak_grid", "sampling.smolyak_grid")
    tracer.wrap(Campaign, "add_stage", "campaign.add_stage")
    tracer.wrap(Campaign, "encode", "campaign.encode")
    tracer.wrap(Campaign, "decode", "campaign.decode")
    tracer.wrap(CampaignStore, "add_stage", "campaign.stage_insert")
    tracer.wrap(CampaignStore, "set_status", "campaign.set_status")
    tracer.wrap(CampaignStore, "insert_qoi", "campaign.insert_qoi")
    tracer.wrap(CampaignStore, "load_frame", "campaign.load_frame")
    tracer.wrap_cm(CampaignStore, "_txn", "campaign.store_txn")
    tracer.wrap(executors, "execute_campaign", "executors.execute_campaign",
                on_result=executed, cpu=True)
    tracer.wrap(scheduler.PilotManager, "submit", "pilotjob.submit", on_result=tasks)
    tracer.wrap(scheduler.PilotManager, "drain", "pilotjob.drain")
    tracer.wrap(scheduler.PilotManager, "report", "pilotjob.report")
    tracer.wrap(protocol.ManagerServer, "handle_request", "pilotjob.handle_request")
    tracer.wrap(protocol.PjClient, "call", "pilotjob.protocol_call")
    tracer.wrap(manager, "run_batch", "pilotjob.run_batch")
    tracer.wrap(pipeline, "analyze_quadrature_stage", "analysis.analyze")
    tracer.wrap(pipeline, "project_sparse", "analysis.project", on_result=terms)
    tracer.wrap(pipeline, "sobol", "analysis.sobol")


def layer_metrics(summary: dict, ctx: dict) -> dict[str, float]:
    """Per-layer figures of one traced round, from its span summary."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def extra(name, key):
        return summary.get(name, {}).get("extra", {}).get(key, 0.0)

    def per_call_ms(name):
        return 1e3 * total(name) / calls(name) if calls(name) else 0.0

    runs = extra("executors.execute_campaign", "runs")
    launch = total("executors.execute_campaign") - total("campaign.encode") - total("campaign.decode")
    n_tasks = extra("pilotjob.submit", "tasks")
    scheduling = total("pilotjob.submit") + total("pilotjob.drain")
    return {
        "sampling.draw_s": total("sampling.draw"),
        "sampling.points": extra("sampling.draw", "points"),
        "campaign.stage_insert_s": total("campaign.stage_insert"),
        "campaign.encode_ms_per_run": per_call_ms("campaign.encode"),
        "campaign.decode_ms_per_run": per_call_ms("campaign.decode"),
        "campaign.store_txns": calls("campaign.store_txn"),
        "campaign.store_txn_ms": per_call_ms("campaign.store_txn"),
        "campaign.load_frame_s": total("campaign.load_frame"),
        "campaign.db_mb": ctx.get("db_mb", 0.0),
        "executors.execute_s": total("executors.execute_campaign"),
        "executors.parent_cpu_s": extra("executors.execute_campaign", "cpu_self"),
        "executors.child_cpu_s": extra("executors.execute_campaign", "cpu_children"),
        "executors.ms_per_run": 1e3 * launch / runs if runs else 0.0,
        "pilotjob.submit_s": total("pilotjob.submit"),
        "pilotjob.drain_s": total("pilotjob.drain"),
        "pilotjob.dispatch_per_s": n_tasks / scheduling if scheduling else 0.0,
        "pilotjob.tasks": n_tasks,
        "pilotjob.sim_makespan_s": ctx.get("makespan", 0.0),
        "pilotjob.protocol_calls": calls("pilotjob.protocol_call"),
        "pilotjob.protocol_call_ms": per_call_ms("pilotjob.protocol_call"),
        "analysis.analyze_s": total("analysis.analyze"),
        "analysis.terms": extra("analysis.project", "terms"),
        "toy.compute_ms_per_run": ctx.get("toy_ms_per_run", 0.0),
    }


def _quiet(fn, argv: list[str]) -> int:
    """Run a CLI entry point with its standard output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(argv)


def _dir_mb(path: Path, pattern: str) -> float:
    return sum(p.stat().st_size for p in path.glob(pattern)) / 2**20


class Round:
    """What one round measured and found."""

    def __init__(self):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.done = 0            # runs collated or tasks finished
        self.attempted = 0
        self.failed: list[str] = []   # operation labels
        self.errors: list[str] = []   # first reasons, for the log
        self.guard_errors: list[str] = []
        self.layers: dict[str, float] = {}


class Workload:
    """Base: set-up, timed part and checks of one round in ``work``."""

    name = ""

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self._rounds = 0

    def prepare(self):
        """Untimed, once per process: oracles that depend only on the seed."""

    def warm_up(self):
        """One small pass through the same code path, before any round."""

    def setup(self, wd: Path) -> dict:
        raise NotImplementedError

    def execute(self, ctx: dict):
        raise NotImplementedError

    def check(self, ctx: dict, rnd: Round):
        raise NotImplementedError

    def fresh_dir(self) -> Path:
        self._rounds += 1
        wd = self.work / f"round{self._rounds:03d}"
        wd.mkdir(parents=True)
        return wd

    def run_round(self, tracer: Tracer | None) -> Round:
        rnd = Round()
        wd = self.fresh_dir()
        t0 = time.perf_counter()
        ctx = self.setup(wd)
        rnd.setup_s = time.perf_counter() - t0
        ctx["tracer"] = tracer
        first = 0
        if tracer is not None:
            first = len(tracer.spans)
            instrument(tracer)
        try:
            cpu0 = sum(cpu_times())
            t0 = time.perf_counter()
            self.execute(ctx)
            rnd.wall_s = time.perf_counter() - t0
            rnd.cpu_s = sum(cpu_times()) - cpu0
        finally:
            if tracer is not None:
                tracer.restore()
        self.check(ctx, rnd)
        if tracer is not None:
            rnd.layers = layer_metrics(tracer.summary(first), ctx)
            cost = tracer.cost(first)
            rnd.layers["trace.overhead_pct"] = 100.0 * cost / (rnd.wall_s - cost)
        shutil.rmtree(wd)
        return rnd

    def setup_only(self) -> float:
        wd = self.fresh_dir()
        t0 = time.perf_counter()
        self.setup(wd)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(wd)
        return elapsed

    @staticmethod
    def span(ctx: dict, label: str):
        tracer = ctx.get("tracer")
        return tracer.span(label) if tracer is not None else contextlib.nullcontext()


# --- campaign workloads --------------------------------------------------------


class CampaignWorkload(Workload):
    """init (set-up) -> sample -> run -> analyze, all through ``uq.main``."""

    qoi = ""
    level = 0

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.demo = json.loads((root / "demo" / "covid-demo" / "config.json").read_text())
        self.names = [p["name"] for p in self.demo["parameters"]]
        self.bounds = {p["name"]: tuple(p["distribution"]["args"]) for p in self.demo["parameters"]}

    def write_inputs(self, wd: Path) -> Path:
        raise NotImplementedError

    def run_args(self) -> list[str]:
        return []

    def setup(self, wd: Path) -> dict:
        config = self.write_inputs(wd)
        campaign = wd / "campaign"
        if _quiet(uq.main, ["init", "--config", str(config), "--workdir", str(campaign)]) != 0:
            raise RuntimeError(f"uq init failed in {wd}")
        return {"workdir": campaign}

    def execute(self, ctx: dict, level: int | None = None):
        wd = str(ctx["workdir"])
        level = self.level if level is None else level
        steps = [
            ["sample", "--workdir", wd, "--sampler", "sc", "--sparse", "--level", str(level)],
            ["run", "--workdir", wd, *self.run_args()],
            ["analyze", "--workdir", wd, "--qoi", self.qoi],
        ]
        codes = ctx["codes"] = {}
        for argv in steps:
            with self.span(ctx, f"cli.uq.{argv[0]}"):
                codes[argv[0]] = _quiet(uq.main, argv)

    def warm_up(self):
        ctx = self.setup(self.fresh_dir())
        self.execute(ctx, level=WARM_UP_LEVEL)

    def check(self, ctx: dict, rnd: Round):
        wd = ctx["workdir"]
        ctx["db_mb"] = _dir_mb(wd, "*.db*")
        expected = SPARSE_POINTS_6D[self.level]
        rnd.attempted = expected + 1
        with CampaignStore.open(wd) as store:
            stage = store.latest_stage_id()
            rows = store.runs(stage_id=stage)
            params = {r["run_id"]: store.run_params(r) for r in rows}
            index, frame = store.load_frame(self.qoi, stage_id=stage)
        if len(rows) != expected:
            rnd.guard_errors.append(f"stage has {len(rows)} runs, expected {expected}")
        collated = dict(frame)
        rnd.done = len(collated)
        for rid in sorted(params):
            if rid not in collated:
                errors = ["not collated"]
            else:
                errors = self.run_errors(ctx, index, collated[rid], params[rid])
            if errors:
                rnd.failed.append(f"run {rid}")
                rnd.errors.append(f"run {rid}: {errors[0]}")
        rnd.failed += [f"missing run {k}" for k in range(len(rows), expected)]
        report_path = wd / "reports" / f"analysis-{self.qoi}-latest.json"
        if ctx["codes"]["analyze"] != 0 or not report_path.is_file():
            errors = [f"uq analyze exited {ctx['codes']['analyze']}"]
        else:
            errors = self.analysis_errors(json.loads(report_path.read_text()))
        if errors:
            rnd.failed.append("analysis")
            rnd.errors.append(f"analysis: {'; '.join(errors[:3])}")

    def run_errors(self, ctx, index, values, params) -> list[str]:
        raise NotImplementedError

    def analysis_errors(self, report: dict) -> list[str]:
        raise NotImplementedError


class CovidSerial(CampaignWorkload):
    """The covid demo, toy launched per run, default serial executor."""

    name = "covid-serial"
    qoi = "dead"
    level = 2

    def prepare(self):
        rng = np.random.Generator(np.random.PCG64(self.seed))
        lo = np.array([self.bounds[n][0] for n in self.names])
        hi = np.array([self.bounds[n][1] for n in self.names])
        x = lo + (hi - lo) * rng.random((MC_MOMENT_SAMPLES, len(self.names)))
        self.moments = checks.mc_moments(self._final_deaths(x))
        dists = [uniform(*self.bounds[n]) for n in self.names]
        mc = sobol_mc(self._final_deaths, dists, MC_SOBOL_SAMPLES, self.seed, self.names)
        self.mc_sobol = {
            n: (mc.first[n], mc.first_se[n], mc.total[n], mc.total_se[n]) for n in self.names
        }

    def _final_deaths(self, x) -> np.ndarray:
        return np.array([toy.toy_model(dict(zip(self.names, row)))[-1] for row in x])

    def write_inputs(self, wd: Path) -> Path:
        doc = json.loads(json.dumps(self.demo))
        doc["app"]["template"] = str(self.root / "demo" / "covid-demo" / doc["app"]["template"])
        doc["app"]["command"] = [sys.executable, "-m", "uqpilot.toy", doc["app"]["target"]]
        path = wd / "config.json"
        path.write_text(json.dumps(doc, indent=2))
        return path

    def check(self, ctx, rnd):
        ctx["toy_s"] = 0.0
        ctx["toy_runs"] = 0
        super().check(ctx, rnd)
        if ctx["toy_runs"]:
            ctx["toy_ms_per_run"] = 1e3 * ctx["toy_s"] / ctx["toy_runs"]

    def run_errors(self, ctx, index, values, params):
        t0 = time.perf_counter()
        expected = toy.toy_model(params, seed=None, horizon=HORIZON)
        ctx["toy_s"] += time.perf_counter() - t0
        ctx["toy_runs"] += 1
        return checks.toy_run_errors(index, values, expected, HORIZON)

    def analysis_errors(self, report):
        return checks.covid_analysis_errors(report, self.moments, self.mc_sobol, HORIZON)


class EchoPilot(CampaignWorkload):
    """An app that copies its input to its output, through the pilot manager."""

    name = "echo-pilot"
    qoi = "y"
    level = 3

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.cores = min(2, os.cpu_count() or 1)

    def write_inputs(self, wd: Path) -> Path:
        rows = ["t,y"] + [f"{t},${self.names[t % len(self.names)]}" for t in range(HORIZON)]
        (wd / "input.template").write_text("\n".join(rows) + "\n")
        doc = {
            "schema_version": self.demo["schema_version"],
            "name": "echo",
            "app": {
                "template": "input.template",
                "target": "input.csv",
                "command": ["cp", "input.csv", "out.csv"],
                "decoder": {"output_relpath": "out.csv", "format": "csv",
                            "qoi_columns": ["y"], "index_column": "t"},
            },
            "parameters": self.demo["parameters"],
        }
        path = wd / "config.json"
        path.write_text(json.dumps(doc, indent=2))
        return path

    def run_args(self):
        return ["--executor", "pilotjob", "--allocation-cores", str(self.cores)]

    def run_errors(self, ctx, index, values, params):
        return checks.echo_run_errors(index, values, params, self.names, HORIZON)

    def analysis_errors(self, report):
        return checks.echo_analysis_errors(report, self.bounds, HORIZON)


# --- scheduler workload ------------------------------------------------------------


NODES = 4
CORES_PER_NODE = 8
BLOCK_TASKS = 20


def job_mix(seed: int, tasks: int) -> list[dict]:
    """A seeded batch of simulated jobs with exactly ``tasks`` tasks.

    Every block of 20 tasks holds ten independent 1-core jobs, two
    multi-core jobs that make later small jobs backfill, one chain of four
    dependent jobs, and one job of four sequential iterations that waits
    for an earlier job. Durations are multiples of 0.25 s, so simulated
    times are exact binary fractions.
    """
    if tasks % BLOCK_TASKS:
        raise ValueError(f"tasks must be a multiple of {BLOCK_TASKS}")
    rng = random.Random(seed)
    jobs: list[dict] = []

    def add(cores, duration_quarters, after=(), iterations=1):
        jobs.append({
            "name": f"j{len(jobs):05d}",
            "cores": cores,
            "duration": duration_quarters * 0.25,
            "after": list(after),
            "iterations": iterations,
        })
        return jobs[-1]["name"]

    for _ in range(tasks // BLOCK_TASKS):
        earlier = [j["name"] for j in jobs]
        block = ["single"] * 10 + ["wide"] * 2 + ["chain", "iterated"]
        rng.shuffle(block)
        for kind in block:
            if kind == "single":
                add(1, rng.randint(1, 16))
            elif kind == "wide":
                add(rng.choice((4, 8, 12, 16)), rng.randint(4, 24))
            elif kind == "chain":
                head = [rng.choice(earlier)] if earlier and rng.random() < 0.5 else []
                prev = add(rng.randint(1, 2), rng.randint(1, 8), head)
                for _ in range(3):
                    prev = add(rng.randint(1, 2), rng.randint(1, 8), [prev])
            else:
                after = [rng.choice(earlier)] if earlier else []
                add(rng.randint(1, 2), rng.randint(1, 6), after, iterations=4)
    return jobs


class PjDagSim(Workload):
    """``pj serve --batch`` on a virtual allocation with a simulated clock."""

    name = "pj-dag-sim"
    tasks = 1200

    def _batch(self, wd: Path, tasks: int) -> dict:
        jobs = job_mix(self.seed, tasks)
        doc = {
            "allocation": {
                "mode": "virtual",
                "nodes": [{"name": f"vnode{i}", "cores": CORES_PER_NODE} for i in range(NODES)],
            },
            "jobs": [{**job, "command": ["true"]} for job in jobs],
        }
        path = wd / "batch.json"
        path.write_text(json.dumps(doc))
        return {"workdir": wd, "batch": path, "jobs": jobs}

    def setup(self, wd: Path) -> dict:
        return self._batch(wd, self.tasks)

    def execute(self, ctx: dict):
        wd = ctx["workdir"]
        argv = ["serve", "--batch", str(ctx["batch"]), "--clock", "simulated",
                "--workdir", str(wd / "pj")]
        with self.span(ctx, "cli.pj.serve"):
            ctx["code"] = _quiet(pj.main, argv)

    def warm_up(self):
        wd = self.fresh_dir()
        self.execute(self._batch(wd, 5 * BLOCK_TASKS))

    def check(self, ctx: dict, rnd: Round):
        jobs = ctx["jobs"]
        n_tasks = sum(job["iterations"] for job in jobs)
        rnd.attempted = n_tasks + 1
        report_path = ctx["workdir"] / "pj" / manager.REPORT_FILENAME
        if not report_path.is_file():
            rnd.failed = ["schedule"] + [f"task {k}" for k in range(n_tasks)]
            rnd.errors.append(f"pj serve exited {ctx['code']} without a report")
            return
        report = json.loads(report_path.read_text())
        ctx["makespan"] = report["makespan"]
        tasks = {
            (doc["name"], it["iteration"]): it
            for doc in report["jobs"]
            for it in doc["iterations"]
        }
        rnd.done = sum(1 for it in tasks.values() if it["status"] == "SUCCEEDED")
        if len(tasks) != n_tasks:
            rnd.guard_errors.append(f"report has {len(tasks)} tasks, expected {n_tasks}")
        task_errors, errors = checks.schedule_errors(
            jobs, tasks, NODES * CORES_PER_NODE, report["makespan"]
        )
        for (job, k), reason in sorted(task_errors.items()):
            rnd.failed.append(f"task {job}[{k}]")
            rnd.errors.append(f"task {job}[{k}]: {reason}")
        if errors:
            rnd.failed.append("schedule")
            rnd.errors.append(f"schedule: {'; '.join(errors)}")


WORKLOADS = {w.name: w for w in (CovidSerial, EchoPilot, PjDagSim)}
