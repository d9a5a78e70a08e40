"""Bundled demo simulator: a discrete-time epidemic compartment model.

Daily recurrence over S -> E -> I -> {R, D} with a mild/severe split:
exposures scale with the infectious pool (mild plus pre-hospital severe
cases), severe cases hospitalise and then either die or recover.
Cumulative deaths per day is the quantity of interest; it is monotone
non-decreasing in time and, by construction, pointwise non-decreasing in
the infection rate. The six inputs and their plausible ranges:

    infection_rate              0.07   (0.0035, 0.14)
    mortality_period            8.0    (4.0, 16.0)
    recovery_period             8.0    (4.0, 16.0)
    mild_recovery_period        8.05   (4.5, 12.5)
    incubation_period           3.0    (2.0, 6.0)
    period_to_hospitalisation   12.0   (8.0, 16.0)

Hospitalised cases are isolated, so the (non-mild) recovery period only
shifts recoveries around and leaves the death series untouched; mild
cases stay infectious until they recover, which couples the mild
recovery period with the infection rate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

POPULATION = 100_000.0
SEED_EXPOSED = 50.0
SEVERE_FRACTION = 0.1
HOSPITAL_DEATH_FRACTION = 0.4
NOISE_SPAN = 0.1      # multiplicative exposure noise in [1 - span, 1 + span)

PARAM_RANGES = {
    "infection_rate": (0.0035, 0.14),
    "mortality_period": (4.0, 16.0),
    "recovery_period": (4.0, 16.0),
    "mild_recovery_period": (4.5, 12.5),
    "incubation_period": (2.0, 6.0),
    "period_to_hospitalisation": (8.0, 16.0),
}

DEFAULTS = {
    "infection_rate": 0.07,
    "mortality_period": 8.0,
    "recovery_period": 8.0,
    "mild_recovery_period": 8.05,
    "incubation_period": 3.0,
    "period_to_hospitalisation": 12.0,
}


def _clamped(params: dict) -> dict:
    out = {}
    for name, (lo, hi) in PARAM_RANGES.items():
        value = float(params.get(name, DEFAULTS[name]))
        if value < lo or value > hi:
            clamped = min(max(value, lo), hi)
            warnings.warn(
                f"{name}={value} outside ({lo}, {hi}); clamped to {clamped}",
                stacklevel=3,
            )
            value = clamped
        out[name] = value
    return out


def toy_model(params: dict, seed: int | None = None, horizon: int = 120) -> list[float]:
    """Cumulative deaths after each of `horizon` days.

    Deterministic for a given (params, seed); seed=None disables the
    exposure noise entirely.
    """
    p = _clamped(params)
    noise = None
    if seed is not None:
        import numpy as np

        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        noise = rng.random(horizon).tolist()   # plain floats; repr must stay clean

    s = POPULATION - SEED_EXPOSED
    e = SEED_EXPOSED
    i_mild = 0.0
    i_severe = 0.0
    h_dying = 0.0
    h_recovering = 0.0
    dead = 0.0
    series: list[float] = []
    for day in range(horizon):
        factor = 1.0 if noise is None else 1.0 - NOISE_SPAN + 2.0 * NOISE_SPAN * noise[day]
        force = p["infection_rate"] * factor * (i_mild + i_severe) / POPULATION
        new_exposed = force * s
        incubated = e / p["incubation_period"]
        mild_recovered = i_mild / p["mild_recovery_period"]
        hospitalised = i_severe / p["period_to_hospitalisation"]
        new_deaths = h_dying / p["mortality_period"]
        hospital_recovered = h_recovering / p["recovery_period"]

        s -= new_exposed
        e += new_exposed - incubated
        i_mild += (1.0 - SEVERE_FRACTION) * incubated - mild_recovered
        i_severe += SEVERE_FRACTION * incubated - hospitalised
        h_dying += HOSPITAL_DEATH_FRACTION * hospitalised - new_deaths
        h_recovering += (1.0 - HOSPITAL_DEATH_FRACTION) * hospitalised - hospital_recovered
        dead += new_deaths
        series.append(dead)
    return series


def write_output(out_path: Path, series: list[float]):
    """Atomic tmp-plus-rename write; partial outputs are never visible."""
    tmp = out_path.with_name(out_path.name + ".tmp")
    lines = ["t,dead"]
    for day, value in enumerate(series, start=1):
        lines.append(f"{day},{value!r}")
    tmp.write_text("\n".join(lines) + "\n")
    os.replace(tmp, out_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uq-toy", description="Run the bundled demo epidemic simulator."
    )
    parser.add_argument("input", help="JSON input file with parameter values")
    parser.add_argument("--out", default="deaths.csv", help="output CSV path")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"uq-toy: cannot read input: {exc}", file=sys.stderr)
        return 2
    horizon = int(doc.get("horizon", 120))
    seed = doc.get("seed")
    series = toy_model(doc, seed=None if seed is None else int(seed), horizon=horizon)
    write_output(Path(args.out), series)
    return 0


if __name__ == "__main__":
    sys.exit(main())
