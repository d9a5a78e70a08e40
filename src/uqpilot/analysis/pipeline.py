"""Stage analysis: from collated QoI vectors to moments and Sobol reports.

Quadrature stages (sc/pce) rebuild their grid from the stored sampler
spec with ``stage_grid``, the one grid builder that sampling uses too,
and match runs to grid points by run order. The grid's points go to
physical space through ``to_physical``, as at sampling, and
``project_sparse`` projects them; a tensor stage is its one-component
case. MC/halton stages get sample moments and bootstrap intervals
instead.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from uqpilot.analysis.bootstrap import BootstrapCI, bootstrap
from uqpilot.analysis.spectral import SobolReport, SpectralSurrogate, project_sparse, sobol
from uqpilot.campaign.store import CampaignStore
from uqpilot.errors import MissingRunError, SamplerError
from uqpilot.sampling.samplers import SamplerSpec, stage_grid, to_physical
# unused here, but bench/workloads.py traces pipeline.smolyak_grid by name
from uqpilot.sampling.sparse import smolyak_grid  # noqa: F401


def stage_sampler(store: CampaignStore, stage_id: int) -> SamplerSpec:
    import json

    return SamplerSpec.from_json(json.loads(store.stage(stage_id)["sampler_json"]))


def check_stage_collated(store: CampaignStore, stage_id: int, allow_missing: bool):
    """Quadrature stages must be fully collated; MC may opt out."""
    spec = stage_sampler(store, stage_id)
    missing = [
        r["run_id"] for r in store.runs(stage_id=stage_id) if r["status"] != "COLLATED"
    ]
    if not missing:
        return spec, []
    if spec.is_quadrature or not allow_missing:
        raise MissingRunError(
            f"stage {stage_id} has {len(missing)} non-collated runs: "
            f"{missing[:10]}{'...' if len(missing) > 10 else ''}",
            run_ids=missing,
        )
    return spec, missing


def _stage_values(store: CampaignStore, stage_id: int, qoi: str):
    """(index, run_ids, value matrix) for the stage's collated runs."""
    index, rows = store.load_frame(qoi, stage_id=stage_id)
    if not rows:
        raise MissingRunError(f"no collated values for qoi {qoi!r} in stage {stage_id}")
    run_ids = [rid for rid, _ in rows]
    values = np.array([v for _, v in rows], dtype=float)
    return (None if index is None else np.asarray(index, dtype=float)), run_ids, values


def surrogate_for_stage(
    store: CampaignStore, stage_id: int, qoi: str
) -> SpectralSurrogate:
    """Project a fully collated quadrature stage into a spectral surrogate."""
    spec, _ = check_stage_collated(store, stage_id, allow_missing=False)
    if not spec.is_quadrature:
        raise SamplerError(
            f"stage {stage_id} used sampler {spec.variant!r}; spectral analysis "
            "needs an sc or pce stage"
        )
    params = store.parameters()
    active = [p for p in params if not p.distribution.is_constant]
    names = [p.name for p in active]
    dists = [p.distribution for p in active]
    index, run_ids, values = _stage_values(store, stage_id, qoi)

    expected = store.stage(stage_id)["n_runs"]
    if len(run_ids) != expected:
        raise MissingRunError(
            f"stage {stage_id}: {len(run_ids)} collated of {expected} runs"
        )

    grid = stage_grid(spec, dists)
    physical = to_physical(grid.points, dists)
    _check_points(store, stage_id, run_ids, physical, names)
    return project_sparse(
        values, dataclasses.replace(grid, points=physical), dists, names,
        qoi=qoi, index=index,
    )


def _check_points(store, stage_id, run_ids, physical, names):
    """Stored run parameters must match the rebuilt grid, point for point."""
    if len(run_ids) != len(physical):
        raise MissingRunError(
            f"stage {stage_id}: {len(run_ids)} runs vs {len(physical)} grid points"
        )
    rows = {r["run_id"]: store.run_params(r) for r in store.runs(stage_id=stage_id)}
    for rid, point in zip(run_ids, physical.tolist()):
        params = rows[rid]
        for name, expect in zip(names, point):
            got = params[name]
            if abs(got - expect) > 1e-9 * max(1.0, abs(expect)):
                raise MissingRunError(
                    f"run {rid}: parameter {name}={got} does not match grid value "
                    f"{expect}; store and sampler disagree"
                )


def analyze_quadrature_stage(store: CampaignStore, stage_id: int, qoi: str) -> SobolReport:
    return sobol(surrogate_for_stage(store, stage_id, qoi))


def analyze_mc_stage(
    store: CampaignStore,
    stage_id: int,
    qoi: str,
    allow_missing: bool = False,
    B: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
):
    """Sample moments plus bootstrap CIs per time point for an MC stage."""
    spec, missing = check_stage_collated(store, stage_id, allow_missing)
    if spec.is_quadrature:
        raise SamplerError(f"stage {stage_id} is a quadrature stage")
    index, run_ids, values = _stage_values(store, stage_id, qoi)
    mean = values.mean(axis=0)
    var = values.var(axis=0, ddof=1) if len(run_ids) > 1 else np.zeros(values.shape[1])
    cis: list[BootstrapCI] = [
        bootstrap(values[:, t], "mean", B=B, alpha=alpha, seed=seed + t)
        for t in range(values.shape[1])
    ]
    return {
        "index": index,
        "n_runs": len(run_ids),
        "missing": missing,
        "mean": mean,
        "variance": var,
        "mean_ci": cis,
    }
