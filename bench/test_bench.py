"""Tests of the benchmark itself: each check rejects a known-wrong output
and accepts the right one, and each workload runs end to end at a tiny
size. Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def ulp_up(x: float) -> float:
    return float(np.nextafter(x, np.inf))


# --- per-run checks -------------------------------------------------------------


def test_toy_run_check_is_bitwise():
    params = {"infection_rate": 0.05, "mortality_period": 9.0}
    series = workloads.toy.toy_model(params)
    index = [float(t) for t in range(1, 121)]
    assert checks.toy_run_errors(index, list(series), series, 120) == []
    off = list(series)
    off[-1] = ulp_up(off[-1])
    assert checks.toy_run_errors(index, off, series, 120)
    assert checks.toy_run_errors(index[1:] + [121.0], list(series), series, 120)


def test_echo_run_check_is_bitwise():
    names = ["a", "b", "c"]
    params = {"a": 0.1, "b": 2.5, "c": -7.25}
    values = [params[names[t % 3]] for t in range(12)]
    index = [float(t) for t in range(12)]
    assert checks.echo_run_errors(index, values, params, names, 12) == []
    off = list(values)
    off[4] = ulp_up(off[4])
    assert checks.echo_run_errors(index, off, params, names, 12)
    swapped = [params[names[(t + 1) % 3]] for t in range(12)]
    assert checks.echo_run_errors(index, swapped, params, names, 12)


def test_echo_run_check_rejects_a_dropped_row():
    names = ["a", "b", "c"]
    params = {"a": 0.1, "b": 2.5, "c": -7.25}
    values = [params[names[t % 3]] for t in range(119)]
    index = [float(t) for t in range(119)]
    errors = checks.echo_run_errors(index, values, params, names, 120)
    assert any("119 values, expected 120" in e for e in errors)
    assert any("index is not 0..119" in e for e in errors)


# --- analysis checks ----------------------------------------------------------------


def consistent_covid_report(level: int) -> dict:
    """Sobol report of the covid toy from a projection whose grid points
    are in the physical domain throughout, as the basis expects."""
    from uqpilot.analysis.report import report_to_json
    from uqpilot.analysis.spectral import project_sparse, sobol
    from uqpilot.sampling.distributions import uniform
    from uqpilot.sampling.sparse import smolyak_grid

    wl = workloads.CovidSerial(ROOT, 1, Path("unused"))
    dists = [uniform(*wl.bounds[n]) for n in wl.names]
    grid = smolyak_grid(len(dists), level, "clenshaw-curtis")
    physical = np.column_stack(
        [dist.from_reference(grid.points[:, i]) for i, dist in enumerate(dists)]
    )
    values = [workloads.toy.toy_model(dict(zip(wl.names, row))) for row in physical]
    surrogate = project_sparse(
        values, dataclasses.replace(grid, points=physical), dists, wl.names, qoi="dead"
    )
    return report_to_json(sobol(surrogate))


@pytest.fixture(scope="module")
def covid_oracles(tmp_path_factory):
    out = {}
    for seed in (1, 2):
        wl = workloads.CovidSerial(ROOT, seed, tmp_path_factory.mktemp("w"))
        wl.prepare()
        out[seed] = (wl.moments, wl.mc_sobol)
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("level", [2, 3])
def test_covid_analysis_accepts_consistent_projection(covid_oracles, seed, level):
    moments, mc = covid_oracles[seed]
    report = consistent_covid_report(level)
    assert checks.covid_analysis_errors(report, moments, mc, 120) == []


def test_covid_analysis_rejects_sensitivity_to_the_inert_input(covid_oracles):
    moments, mc = covid_oracles[1]
    report = consistent_covid_report(2)
    report["sobol_total"]["recovery_period"][-1] = 0.029
    errors = checks.covid_analysis_errors(report, moments, mc, 120)
    assert any("recovery_period" in e for e in errors)


def test_covid_analysis_rejects_wrong_moments_and_ranges(covid_oracles):
    moments, mc = covid_oracles[1]
    report = consistent_covid_report(2)
    wrong = copy.deepcopy(report)
    wrong["variance"][-1] = 2.9e9
    assert any("variance" in e for e in checks.covid_analysis_errors(wrong, moments, mc, 120))
    wrong = copy.deepcopy(report)
    wrong["mean"][-1] *= 2
    assert any("mean" in e for e in checks.covid_analysis_errors(wrong, moments, mc, 120))
    wrong = copy.deepcopy(report)
    wrong["sobol_first"]["infection_rate"][60] = wrong["sobol_total"]["infection_rate"][60] + 0.01
    assert any("outside" in e for e in checks.covid_analysis_errors(wrong, moments, mc, 120))
    wrong = copy.deepcopy(report)
    wrong["sobol_total"]["mild_recovery_period"][-1] = 0.05
    assert any("sobol_mc" in e for e in checks.covid_analysis_errors(wrong, moments, mc, 120))
    wrong = copy.deepcopy(report)
    del wrong["variance"][-1]
    assert checks.covid_analysis_errors(wrong, moments, mc, 120) == [
        "variance has 119 rows, expected 120"
    ]


def echo_report(names, bounds, rows=12) -> dict:
    report = {"parameters": names, "mean": [], "variance": [],
              "sobol_first": {n: [] for n in names}, "sobol_total": {n: [] for n in names}}
    for t in range(rows):
        carried = names[t % len(names)]
        a, b = bounds[carried]
        report["mean"].append((a + b) / 2)
        report["variance"].append((b - a) ** 2 / 12)
        for n in names:
            report["sobol_first"][n].append(1.0 if n == carried else 0.0)
            report["sobol_total"][n].append(1.0 if n == carried else 0.0)
    return report


def test_echo_analysis_closed_form():
    names = ["infection_rate", "mortality_period"]
    bounds = {"infection_rate": (0.0035, 0.14), "mortality_period": (4.0, 16.0)}
    report = echo_report(names, bounds)
    assert checks.echo_analysis_errors(report, bounds, 12) == []
    wrong = copy.deepcopy(report)
    wrong["variance"][1] = 2.8e14
    wrong["sobol_first"]["mortality_period"][1] = 1.6e-8
    errors = checks.echo_analysis_errors(wrong, bounds, 12)
    assert any("variance" in e for e in errors)
    assert any("S_1(mortality_period)" in e for e in errors)


def test_echo_analysis_rejects_a_dropped_row():
    names = ["infection_rate", "mortality_period"]
    bounds = {"infection_rate": (0.0035, 0.14), "mortality_period": (4.0, 16.0)}
    short = echo_report(names, bounds, rows=119)
    assert checks.echo_analysis_errors(echo_report(names, bounds, rows=120), bounds, 120) == []
    errors = checks.echo_analysis_errors(short, bounds, 120)
    assert "variance has 119 rows, expected 120" in errors
    assert "sobol_total[mortality_period] has 119 rows, expected 120" in errors


# --- schedule checks ----------------------------------------------------------------


def job(name, cores=1, duration=1.0, after=(), iterations=1):
    return {"name": name, "cores": cores, "duration": duration,
            "after": list(after), "iterations": iterations}


def task(start, end, cores=1, status="SUCCEEDED"):
    return {"start": start, "end": end, "cores": cores, "status": status}


def valid_schedule():
    jobs = [job("a", cores=2), job("b", after=["a"]), job("c"), job("d", iterations=2)]
    tasks = {
        ("a", 0): task(0.0, 1.0, cores=2),
        ("b", 0): task(1.0, 2.0),
        ("c", 0): task(1.0, 2.0),
        ("d", 0): task(2.0, 3.0),
        ("d", 1): task(3.0, 4.0),
    }
    return jobs, tasks


def test_schedule_accepts_valid():
    jobs, tasks = valid_schedule()
    assert checks.schedule_errors(jobs, tasks, 2, 4.0) == ({}, [])


def test_schedule_rejects_busy_cores_above_allocation():
    jobs, tasks = valid_schedule()
    tasks[("c", 0)] = task(0.0, 1.0)
    _, errors = checks.schedule_errors(jobs, tasks, 2, 4.0)
    assert any("3 cores busy" in e for e in errors)


def test_schedule_rejects_dependent_before_dependency():
    jobs, tasks = valid_schedule()
    tasks[("b", 0)] = task(0.5, 1.5)
    task_errors, _ = checks.schedule_errors(jobs, tasks, 4, 4.0)
    assert "before it was ready" in task_errors[("b", 0)]


def test_schedule_rejects_overlapping_sequential_iterations():
    jobs, tasks = valid_schedule()
    tasks[("d", 1)] = task(2.5, 3.5)
    task_errors, _ = checks.schedule_errors(jobs, tasks, 4, 4.0)
    assert list(task_errors) == [("d", 1)]


def test_schedule_rejects_idle_core_beside_waiting_task():
    jobs = [job("a"), job("c")]
    tasks = {("a", 0): task(0.0, 1.0), ("c", 0): task(1.0, 2.0)}
    _, errors = checks.schedule_errors(jobs, tasks, 2, 2.0)
    assert any("waited beside idle cores" in e for e in errors)


def test_schedule_rejects_makespan_below_bound_and_failed_tasks():
    jobs, tasks = valid_schedule()
    tasks[("c", 0)]["status"] = "FAILED"
    task_errors, errors = checks.schedule_errors(jobs, tasks, 2, 1.5)
    assert task_errors[("c", 0)] == "status FAILED"
    assert any("below the lower bound" in e for e in errors)


def test_job_mix_is_seeded_and_exact():
    mix = workloads.job_mix(7, 200)
    assert mix == workloads.job_mix(7, 200)
    assert mix != workloads.job_mix(8, 200)
    assert sum(j["iterations"] for j in mix) == 200
    seen = set()
    for j in mix:
        assert set(j["after"]) <= seen
        seen.add(j["name"])


# --- end to end --------------------------------------------------------------------------


@pytest.mark.parametrize("workload,size,attempted", [
    ("covid-serial", ("CovidSerial", "level", 1), 14),
    ("echo-pilot", ("EchoPilot", "level", 1), 14),
    ("pj-dag-sim", ("PjDagSim", "tasks", 40), 41),
])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, size, attempted, trace, monkeypatch, capsys):
    cls, attr, value = size
    monkeypatch.setattr(getattr(workloads, cls), attr, value)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == attempted
    # only the analysis operation of a campaign workload may fail
    assert result["failed"] <= (1 if workload != "pj-dag-sim" else 0)
    units = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert result["metrics"]["trace.overhead_pct"]["value"] > 0
    if workload == "pj-dag-sim":
        assert result["metrics"]["pilotjob.tasks"]["value"] == 40
    else:
        assert result["metrics"]["sampling.points"]["value"] == 13


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pj-dag-sim", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_and_units_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOAD_NAMES)
