"""Stage analysis: from collated QoI vectors to moments and Sobol reports.

``read_stage`` is the one read of a stage's runs, for analysis and for
both validation patterns (``uqpilot.vvp.patterns``). Quadrature stages
(sc/pce) rebuild their grid from the stored sampler spec with
``stage_grid``, the one grid builder that sampling uses too, and match
runs to grid points by run order. The grid's points go to physical space
through ``to_physical``, as at sampling, and ``project_sparse`` projects
them; a tensor stage is its one-component case. MC/halton stages get
sample moments instead, and at each time point a percentile bootstrap
interval of the mean.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from uqpilot.analysis.spectral import SobolReport, SpectralSurrogate, project_sparse, sobol
from uqpilot.campaign.store import CampaignStore
from uqpilot.errors import MissingRunError, SamplerError
from uqpilot.sampling.samplers import SamplerSpec, stage_grid, to_physical
# unused here, but bench/workloads.py traces pipeline.smolyak_grid by name
from uqpilot.sampling.sparse import smolyak_grid  # noqa: F401

MEAN_CI_REPLICATES = 1000
MEAN_CI_ALPHA = 0.05   # 95%: alpha / 2 is exactly 0.025, where (1 - 0.95) / 2 is not


def stage_sampler(store: CampaignStore, stage_id: int) -> SamplerSpec:
    return SamplerSpec.from_json(json.loads(store.stage(stage_id)["sampler_json"]))


@dataclasses.dataclass(frozen=True)
class StageRuns:
    """A stage's collated runs, in run order, with one QoI's vector per run."""

    stage_id: int
    spec: SamplerSpec
    runs: list                  # collated run rows
    index: np.ndarray | None
    values: np.ndarray          # one row per collated run; empty without a qoi
    missing: list[int]          # ids of the stage's runs not collated

    def check_collated(self, allow_missing: bool = False):
        """Refuse runs not collated; only MC analysis may `allow_missing`."""
        missing = self.missing
        if missing and not allow_missing:
            raise MissingRunError(
                f"stage {self.stage_id} has {len(missing)} non-collated runs: "
                f"{missing[:10]}{'...' if len(missing) > 10 else ''}", run_ids=missing)


def read_stage(store: CampaignStore, stage_id: int, qoi: str | None) -> StageRuns:
    """One `store.runs` and one `load_frame` call (none for `qoi=None`);
    every collated run must carry the QoI, so `values[i]` is `runs[i]`'s."""
    rows = store.runs(stage_id=stage_id)
    runs = [r for r in rows if r["status"] == "COLLATED"]
    index, frame = (None, []) if qoi is None else store.load_frame(qoi, stage_id=stage_id)
    if qoi is not None and [rid for rid, _ in frame] != [r["run_id"] for r in runs]:
        raise MissingRunError(f"stage {stage_id}: {len(frame)} of {len(runs)} collated "
                              f"runs have values for qoi {qoi!r}")
    return StageRuns(
        stage_id=stage_id,
        spec=stage_sampler(store, stage_id),
        runs=runs,
        index=None if index is None else np.asarray(index, dtype=float),
        values=np.array([v for _, v in frame], dtype=float),
        missing=[r["run_id"] for r in rows if r["status"] != "COLLATED"],
    )


def surrogate_for_stage(
    store: CampaignStore, stage_id: int, qoi: str
) -> SpectralSurrogate:
    """Project a fully collated quadrature stage into a spectral surrogate."""
    stage = read_stage(store, stage_id, qoi)
    stage.check_collated()
    if not stage.spec.is_quadrature:
        raise SamplerError(f"stage {stage_id} used sampler {stage.spec.variant!r}; "
                           "spectral analysis needs an sc or pce stage")
    active = [p for p in store.parameters() if not p.distribution.is_constant]
    names = [p.name for p in active]
    dists = [p.distribution for p in active]
    grid = stage_grid(stage.spec, dists)
    physical = to_physical(grid.points, dists)
    _check_points(stage, physical, names)
    return project_sparse(
        stage.values, dataclasses.replace(grid, points=physical), dists, names,
        qoi=qoi, index=stage.index,
    )


def _check_points(stage: StageRuns, physical, names):
    """Stored run parameters must match the rebuilt grid, point for point."""
    if len(stage.runs) != len(physical):
        raise MissingRunError(
            f"stage {stage.stage_id}: {len(stage.runs)} runs vs {len(physical)} grid points")
    for row, point in zip(stage.runs, physical.tolist()):
        params = json.loads(row["params_json"])
        for name, expect in zip(names, point):
            got = params[name]
            if abs(got - expect) > 1e-9 * max(1.0, abs(expect)):
                raise MissingRunError(
                    f"run {row['run_id']}: parameter {name}={got} does not match grid value "
                    f"{expect}; store and sampler disagree")


def analyze_quadrature_stage(store: CampaignStore, stage_id: int, qoi: str) -> SobolReport:
    return sobol(surrogate_for_stage(store, stage_id, qoi))


def _mean_interval(x: np.ndarray, key: int) -> dict:
    """Percentile bootstrap interval of the mean of `x`: MEAN_CI_REPLICATES
    resamples drawn by the Philox generator under `key`."""
    rng = np.random.Generator(np.random.Philox(key=key))
    means = x[rng.integers(0, len(x), size=(MEAN_CI_REPLICATES, len(x)))].mean(axis=1)
    return {"lower": float(np.quantile(means, MEAN_CI_ALPHA / 2)),
            "upper": float(np.quantile(means, 1 - MEAN_CI_ALPHA / 2)),
            "point": float(x.mean())}


def analyze_mc_stage(store: CampaignStore, stage_id: int, qoi: str, allow_missing: bool = False):
    """Sample moments, and per time point t the 95% interval of the mean
    (`_mean_interval` under key t), for an MC stage."""
    stage = read_stage(store, stage_id, qoi)
    stage.check_collated(allow_missing)
    if stage.spec.is_quadrature:
        raise SamplerError(f"stage {stage_id} is a quadrature stage")
    values = stage.values
    if not len(values):
        raise MissingRunError(f"no collated values for qoi {qoi!r} in stage {stage_id}")
    mean = values.mean(axis=0)
    var = values.var(axis=0, ddof=1) if len(values) > 1 else np.zeros(values.shape[1])
    return {
        "index": stage.index,
        "n_runs": len(values),
        "missing": stage.missing,
        "mean": mean,
        "variance": var,
        "mean_ci": [_mean_interval(x, t) for t, x in enumerate(values.T)],
    }
