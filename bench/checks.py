"""Checks of the program's outputs against computations made apart from it.

Each function takes plain data (lists, dicts, the JSON documents the
program writes) and returns a list of error strings; an empty list
means the output passed. None of them compares against a stored copy
of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Sobol indices are ratios in [0, 1]; this slack only absorbs rounding.
INDEX_SLACK = 1e-9
# deaths never depend on the hospital recovery period
INERT_INPUT = "recovery_period"
INERT_LIMIT = 1e-10
# sparse level-2/3 truncation allowance on top of the Monte Carlo errors.
# A level-2 projection with consistent domains moves an index by up to
# 0.08 against level 3 (incubation S_T 0.02 vs 0.15) and the final mean by
# 3 %; against sobol_mc(n=2000) on seeds 1-20 it stays within 0.75 of
# these tolerances at levels 2 and 3.
SOBOL_TRUNCATION = 0.1
SOBOL_SE_FACTOR = 3.0
MOMENT_TRUNCATION = 0.05
MOMENT_SE_FACTOR = 4.0
# the echo analysis is exact up to rounding
ECHO_TOLERANCE = 1e-9


def _close(got: float, want: float, tol: float) -> bool:
    return got is not None and abs(got - want) <= tol


# --- per-run checks ---------------------------------------------------------


def toy_run_errors(index, values, expected, horizon: int) -> list[str]:
    """A collated toy run must equal the recomputed series, bit for bit."""
    errors = []
    if index != [float(t) for t in range(1, horizon + 1)]:
        errors.append(f"index is not 1..{horizon}")
    if len(values) != len(expected):
        errors.append(f"{len(values)} values, expected {len(expected)}")
    else:
        bad = [t for t, (a, b) in enumerate(zip(values, expected)) if a != b]
        if bad:
            t = bad[0]
            errors.append(
                f"{len(bad)} values differ from the recomputed toy; first at row {t}: "
                f"{values[t]!r} != {expected[t]!r}"
            )
    return errors


def echo_run_errors(index, values, params: dict, names: list[str], horizon: int) -> list[str]:
    """Row t (0..horizon-1) of an echo run carries input number t mod d, bit for bit."""
    errors = []
    if index != [float(t) for t in range(horizon)]:
        errors.append(f"index is not 0..{horizon - 1}")
    if len(values) != horizon:
        errors.append(f"{len(values)} values, expected {horizon}")
    rows = min(len(values), horizon)
    want = [params[names[t % len(names)]] for t in range(rows)]
    bad = [t for t in range(rows) if values[t] != want[t]]
    if bad:
        t = bad[0]
        errors.append(
            f"{len(bad)} rows differ from the stored inputs; first at row {t}: "
            f"{values[t]!r} != {want[t]!r}"
        )
    return errors


# --- analysis checks ----------------------------------------------------------


def report_length_errors(report: dict, horizon: int) -> list[str]:
    """Every series of a Sobol report has one row per output row."""
    series = {"mean": report["mean"], "variance": report["variance"]}
    for key in ("sobol_first", "sobol_total"):
        series.update({f"{key}[{name}]": report[key][name] for name in report["parameters"]})
    errors = [f"{key} has {len(v)} rows, expected {horizon}"
              for key, v in series.items() if len(v) != horizon]
    return errors[:10]


def index_range_errors(report: dict) -> list[str]:
    """0 <= S_1 <= S_T <= 1 wherever the variance is not degenerate."""
    errors = []
    for name in report["parameters"]:
        for t, (s1, st) in enumerate(zip(report["sobol_first"][name], report["sobol_total"][name])):
            if s1 is None or st is None:
                continue
            if not (-INDEX_SLACK <= s1 <= st + INDEX_SLACK and st <= 1 + INDEX_SLACK):
                errors.append(f"{name} row {t}: S_1={s1!r}, S_T={st!r} outside 0<=S_1<=S_T<=1")
                break
    return errors


def mc_moments(values) -> dict:
    """Sample mean and variance with their standard errors."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    m4 = float(np.mean((x - mean) ** 4))
    return {
        "n": n,
        "mean": mean,
        "mean_se": math.sqrt(var / n),
        "var": var,
        "var_se": math.sqrt(max(m4 - var * var, 0.0) / n),
    }


def covid_analysis_errors(
    report: dict, moments: dict, mc_sobol: dict, horizon: int
) -> list[str]:
    """The covid demo's Sobol report against its Monte Carlo oracles.

    ``moments`` is ``mc_moments`` of the final-day deaths; ``mc_sobol`` maps
    parameter name to (S_1, S_1 SE, S_T, S_T SE) from pick-freeze MC.
    """
    errors = report_length_errors(report, horizon)
    if errors:
        return errors
    mean = report["mean"][-1]
    var = report["variance"][-1]
    tol = MOMENT_SE_FACTOR * moments["mean_se"] + MOMENT_TRUNCATION * abs(moments["mean"])
    if not _close(mean, moments["mean"], tol):
        errors.append(f"final mean {mean!r} vs Monte Carlo {moments['mean']:.4g} (tol {tol:.3g})")
    tol = MOMENT_SE_FACTOR * moments["var_se"] + MOMENT_TRUNCATION * moments["var"]
    if not _close(var, moments["var"], tol):
        errors.append(f"final variance {var!r} vs Monte Carlo {moments['var']:.4g} (tol {tol:.3g})")
    inert = [v for v in report["sobol_total"][INERT_INPUT] if v is not None]
    if not inert or max(inert) >= INERT_LIMIT:
        errors.append(
            f"S_T({INERT_INPUT}) reaches {max(inert, default=float('nan'))!r}; "
            f"deaths do not depend on it (limit {INERT_LIMIT})"
        )
    errors += index_range_errors(report)
    for name, (s1, s1_se, st, st_se) in mc_sobol.items():
        for label, got, want, se in (
            ("S_1", report["sobol_first"][name][-1], s1, s1_se),
            ("S_T", report["sobol_total"][name][-1], st, st_se),
        ):
            tol = SOBOL_TRUNCATION + SOBOL_SE_FACTOR * se
            if not _close(got, want, tol):
                errors.append(f"final {label}({name}) {got!r} vs sobol_mc {want:.3f} (tol {tol:.3f})")
    return errors


def echo_analysis_errors(
    report: dict, bounds: dict[str, tuple[float, float]], horizon: int
) -> list[str]:
    """Closed form: row t (0..horizon-1) is input t mod d, uniform on (a, b).

    Mean (a+b)/2, variance (b-a)^2/12, S_1 = S_T = 1 for that input and
    0 for every other one.
    """
    names = report["parameters"]
    errors = report_length_errors(report, horizon)
    if errors:
        return errors
    for t in range(horizon):
        carried = names[t % len(names)]
        a, b = bounds[carried]
        mean, var = report["mean"][t], report["variance"][t]
        if not _close(mean, (a + b) / 2, ECHO_TOLERANCE * abs(a + b)):
            errors.append(f"row {t}: mean {mean!r}, expected {(a + b) / 2!r}")
        want_var = (b - a) ** 2 / 12
        if not _close(var, want_var, ECHO_TOLERANCE * want_var):
            errors.append(f"row {t}: variance {var!r}, expected {want_var!r}")
        for name in names:
            want = 1.0 if name == carried else 0.0
            for label, key in (("S_1", "sobol_first"), ("S_T", "sobol_total")):
                got = report[key][name][t]
                if not _close(got, want, ECHO_TOLERANCE):
                    errors.append(f"row {t}: {label}({name}) {got!r}, expected {want}")
        if len(errors) > 10:
            errors.append("...")
            break
    return errors


# --- schedule checks -------------------------------------------------------------


def task_ready_times(jobs: list[dict], tasks: dict) -> dict:
    """Earliest time each task may start: its dependencies and its previous
    sequential iteration have ended. ``tasks`` maps (job, iteration) to a
    dict with start and end."""
    job_end = {}
    ready = {}
    for job in jobs:   # batch order lists dependencies first
        name = job["name"]
        after = max((job_end[d] for d in job.get("after", [])), default=0.0)
        for k in range(job.get("iterations", 1)):
            ready[(name, k)] = after if k == 0 else max(after, tasks[(name, k - 1)]["end"])
        job_end[name] = max(tasks[(name, k)]["end"] for k in range(job.get("iterations", 1)))
    return ready


def lower_bound(jobs: list[dict], total_cores: int) -> float:
    """max(core-seconds / cores, critical path) from the declared jobs."""
    core_seconds = 0.0
    path = {}
    for job in jobs:
        length = job.get("iterations", 1) * job["duration"]
        core_seconds += length * job.get("cores", 1)
        path[job["name"]] = length + max((path[d] for d in job.get("after", [])), default=0.0)
    return max(core_seconds / total_cores, max(path.values(), default=0.0))


def schedule_errors(jobs: list[dict], tasks: dict, total_cores: int, makespan: float):
    """Check a finished simulated schedule.

    Returns (task_errors, schedule_errors): task_errors maps (job, iteration)
    to the reason that task is wrong (not SUCCEEDED, wrong duration, or a
    start before its dependencies or previous iteration ended);
    schedule_errors lists whole-schedule faults (busy cores above the
    allocation, a core idle while an eligible task that fits waits, a
    makespan below the lower bound).
    """
    spec = {job["name"]: job for job in jobs}
    task_errors: dict = {}
    missing = [
        (job["name"], k)
        for job in jobs
        for k in range(job.get("iterations", 1))
        if (job["name"], k) not in tasks
        or tasks[(job["name"], k)]["start"] is None
        or tasks[(job["name"], k)]["end"] is None
    ]
    for key in missing:
        task_errors[key] = "never ran"
    if missing:
        return task_errors, [f"{len(missing)} tasks never ran"]

    ready = task_ready_times(jobs, tasks)
    for key, task in tasks.items():
        job = spec[key[0]]
        if task["status"] != "SUCCEEDED":
            task_errors[key] = f"status {task['status']}"
        elif task["start"] < ready[key]:
            task_errors[key] = f"started at {task['start']!r} before it was ready at {ready[key]!r}"
        elif task["end"] - task["start"] != job["duration"]:
            task_errors[key] = f"ran {task['end'] - task['start']!r}s, declared {job['duration']!r}s"

    errors = []
    deltas: dict[float, int] = {}
    for task in tasks.values():
        deltas[task["start"]] = deltas.get(task["start"], 0) + task["cores"]
        deltas[task["end"]] = deltas.get(task["end"], 0) - task["cores"]
    for t in ready.values():
        deltas.setdefault(t, 0)
    times = np.array(sorted(deltas))
    busy = np.cumsum([deltas[t] for t in times])
    free = total_cores - busy
    if busy.max() > total_cores:
        t = times[int(busy.argmax())]
        errors.append(f"{int(busy.max())} cores busy at t={t!r}; allocation has {total_cores}")
    idle = []
    for key, task in tasks.items():
        lo = np.searchsorted(times, ready[key], "left")
        hi = np.searchsorted(times, task["start"], "left")
        if hi > lo and free[lo:hi].max() >= task["cores"]:
            t = times[lo + int(free[lo:hi].argmax())]
            idle.append(f"{key[0]}[{key[1]}] ({task['cores']} cores) waited at t={t!r} "
                        f"with {int(free[lo:hi].max())} cores free")
    if idle:
        errors.append(f"{len(idle)} eligible tasks waited beside idle cores; first: {idle[0]}")
    bound = lower_bound(jobs, total_cores)
    if makespan < bound:
        errors.append(f"makespan {makespan!r} below the lower bound {bound!r}")
    return task_errors, errors
