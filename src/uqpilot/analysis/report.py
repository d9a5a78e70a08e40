"""Analysis report documents and their serialization.

A quadrature stage's Sobol report becomes full JSON plus a flat CSV, an
MC stage's moments JSON alone. `write_json` is the one JSON format of
every report the `uq` command writes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from uqpilot.analysis.spectral import SobolReport

UNDEF = "undef"


def _cell(x: float) -> str:
    return UNDEF if (x is None or math.isnan(x)) else repr(float(x))


def report_to_json(report: SobolReport) -> dict:
    t = report.index
    doc = {
        "index": None if t is None else [float(v) for v in t],
        "parameters": report.param_names,
        "mean": None if report.mean is None else [float(v) for v in report.mean],
        "variance": [float(v) for v in report.variance],
        "degenerate": [bool(b) for b in report.degenerate],
        "sobol_first": {
            name: [None if math.isnan(v) else float(v) for v in report.first[name]]
            for name in report.param_names
        },
        "sobol_total": {
            name: [None if math.isnan(v) else float(v) for v in report.total[name]]
            for name in report.param_names
        },
    }
    return doc


def sobol_document(report: SobolReport, qoi: str) -> dict:
    return {"qoi": qoi, **report_to_json(report)}


def mc_document(result: dict, qoi: str, stage_id: int) -> dict:
    """Moments and bootstrap intervals of an MC stage (`analyze_mc_stage`)."""
    return {
        "qoi": qoi,
        "stage": stage_id,
        "n_runs": result["n_runs"],
        "index": None if result["index"] is None else list(result["index"]),
        "mean": [float(v) for v in result["mean"]],
        "variance": [float(v) for v in result["variance"]],
        "mean_ci": [
            {"lower": ci.lower, "upper": ci.upper, "point": ci.point}
            for ci in result["mean_ci"]
        ],
    }


def write_json(doc: dict, path: str | Path):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_csv(report: SobolReport, path: str | Path):
    """One row per (time point, parameter): time, parameter, S, ST, mean, variance."""
    n = len(report.variance)
    times = report.index if report.index is not None else range(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "parameter", "sobol_first", "sobol_total", "mean", "variance"])
        for t in range(n):
            for name in report.param_names:
                writer.writerow(
                    [
                        _cell(float(times[t])),
                        name,
                        _cell(report.first[name][t]),
                        _cell(report.total[name][t]),
                        _cell(report.mean[t]) if report.mean is not None else UNDEF,
                        _cell(report.variance[t]),
                    ]
                )


def format_final_table(report: SobolReport, qoi: str) -> str:
    """Fixed-width console table of S_i / ST_i at the final time point."""
    t = len(report.variance) - 1
    when = report.index[t] if report.index is not None else t
    width = max([len("parameter")] + [len(n) for n in report.param_names]) + 2
    lines = [f"QoI {qoi!r}, final time point {when}:"]
    lines.append(f"{'parameter':<{width}}{'S_first':>12}{'S_total':>12}")
    for name in report.param_names:
        s1 = report.first[name][t]
        st = report.total[name][t]
        s1_txt = UNDEF if math.isnan(s1) else f"{s1:.6f}"
        st_txt = UNDEF if math.isnan(st) else f"{st:.6f}"
        lines.append(f"{name:<{width}}{s1_txt:>12}{st_txt:>12}")
    return "\n".join(lines)
