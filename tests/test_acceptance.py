"""The covid-demo WALKTHROUGH, end to end: its one `sh` block run by `bash -e`.

The block runs as written, in a temp directory that links the checkout's
`demo/` and holds the two reference files of its step 5, with `/tmp/covid`
rewritten to a temp workdir, and with `PJ_VIRTUAL_CORES=1`, so that it
passes on a one-core host. `uq`, `pj` and `uq-toy` come from the
`console_scripts` fixture. The level-2 report of step 4 is then checked
against two oracles that do not use the spectral path: the toy's deaths do
not depend on the hospital recovery period at all, and the final-day
indices agree with pick-freeze Monte Carlo.
"""

import json
import os
import random
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import package_env
from uqpilot.analysis.mc_sobol import sobol_mc
from uqpilot.sampling.distributions import uniform
from uqpilot.toy import PARAM_RANGES, toy_model

pytestmark = pytest.mark.acceptance

INERT = "recovery_period"
# A level-2 sparse projection truncates: on the final day it puts mild S_1
# at 0.176 against Monte Carlo 0.102 +- 0.020, and incubation S_T at 0.023
# against 0.100 +- 0.014. So each index may differ from sobol_mc by 3 of
# its standard errors plus this allowance (the benchmark's covid check
# allows the same).
TRUNCATION = 0.1
DEMO = Path(__file__).resolve().parent.parent / "demo" / "covid-demo"
WORKDIR = "/tmp/covid"


def walkthrough_commands() -> str:
    """The one `sh` block of WALKTHROUGH.md."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", (DEMO / "WALKTHROUGH.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, blocks
    assert WORKDIR in blocks[0]
    return blocks[0]


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory, console_scripts):
    tmp = tmp_path_factory.mktemp("walkthrough")
    (tmp / "demo").symlink_to(DEMO.parent)
    # ref.csv: the final-day deaths of 200 draws of the toy; ref-day.csv:
    # the toy's daily deaths at its defaults
    rng = random.Random(7)
    final = [toy_model({k: rng.uniform(*r) for k, r in PARAM_RANGES.items()})[-1]
             for _ in range(200)]
    (tmp / "ref.csv").write_text("dead\n" + "".join(f"{v!r}\n" for v in final))
    (tmp / "ref-day.csv").write_text("dead\n" + "".join(f"{v!r}\n" for v in toy_model({})))
    wd = tmp / "covid"
    env = package_env()
    env["PATH"] = os.pathsep.join((str(console_scripts), env["PATH"]))
    env["PJ_VIRTUAL_CORES"] = "1"
    proc = subprocess.run(["bash", "-e", "-c", walkthrough_commands().replace(WORKDIR, str(wd))],
                          cwd=tmp, env=env, capture_output=True, text=True, timeout=600)
    return proc, wd


def final_day_report(walkthrough) -> dict:
    _, wd = walkthrough
    return json.loads((wd / "reports" / "analysis-dead-latest.json").read_text())


def test_walkthrough_exits_cleanly(walkthrough):
    proc, wd = walkthrough
    assert proc.returncode == 0, proc.stderr
    for name in ("analysis-dead", "validation-similarity", "validation-ensemble"):
        assert (wd / "reports" / f"{name}-latest.json").is_file(), name
    # one variance per day, and ref-day.csv holds one reference value per day
    assert len(final_day_report(walkthrough)["variance"]) == len(toy_model({})) == 120


def test_inert_recovery_period_has_no_total_effect(walkthrough):
    totals = [v for v in final_day_report(walkthrough)["sobol_total"][INERT] if v is not None]
    assert totals
    assert max(totals) < 1e-10


def test_final_day_indices_agree_with_pick_freeze(walkthrough):
    report = final_day_report(walkthrough)
    doc = json.loads((DEMO / "config.json").read_text())
    params = {p["name"]: p["distribution"]["args"] for p in doc["parameters"]}
    names = list(params)
    dists = [uniform(*params[n]) for n in names]

    def final_deaths(x):
        return np.array([toy_model(dict(zip(names, row)))[-1] for row in x])

    mc = sobol_mc(final_deaths, dists, n=3000, seed=1, param_names=names)
    for name in names:
        s1 = report["sobol_first"][name][-1]
        st = report["sobol_total"][name][-1]
        assert abs(s1 - mc.first[name]) <= 3 * mc.first_se[name] + TRUNCATION, name
        assert abs(st - mc.total[name]) <= 3 * mc.total_se[name] + TRUNCATION, name
