"""Validation patterns: distribution similarity and per-run ensemble scoring.

Both patterns score the campaign's draws from the inputs' distribution:
the collated runs of its `mc` and `halton` stages, pooled and read stage by
stage through ``read_stage`` (`sampled_runs`). Similarity compares the
distribution of one QoI over them with a reference sample array; the
ensemble pattern scores each of them and aggregates. Quadrature (`sc`,
`pce`) nodes are not such draws, so they are never scored.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field

import numpy as np

from uqpilot.analysis.pipeline import StageRuns, read_stage
from uqpilot.campaign.store import CampaignStore
from uqpilot.errors import DomainError, MissingRunError, SamplerError, ScorerError
from uqpilot.vvp.distances import as_masses, hellinger, jensen_shannon_dist, wasserstein1

METRICS = ("hellinger", "jsd", "wasserstein1")
AGGREGATORS = ("mean", "max")


@dataclass(frozen=True)
class SimilarityResult:
    metric: str
    distance: float


@dataclass(frozen=True)
class EnsembleScore:
    scorer: str
    aggregator: str
    aggregate: float
    per_run: dict[int, float] = field(default_factory=dict)


def metric_distance(metric: str, x, y) -> float:
    """The named distance between two sample arrays."""
    if metric == "hellinger":
        return hellinger(*as_masses(x, y))
    if metric == "jsd":
        return jensen_shannon_dist(*as_masses(x, y))
    if metric == "wasserstein1":
        return wasserstein1(x, y)
    raise DomainError(f"unknown metric {metric!r}; choose from {', '.join(METRICS)}")


def sampled_runs(store: CampaignStore, qoi: str | None) -> list[StageRuns]:
    """The collated runs of every `mc` and `halton` stage, which all draw
    from the inputs' one distribution, with their `qoi` values.

    A campaign whose collated runs all sit on quadrature nodes is refused:
    a node set is not a sample.
    """
    stages = [read_stage(store, s["stage_id"], qoi) for s in store.stages()]
    sampled = [s for s in stages if s.runs and not s.spec.is_quadrature]
    grid_stages = [f"stage {s.stage_id} ({s.spec.variant})" for s in stages
                   if s.runs and s.spec.is_quadrature]
    if not sampled and grid_stages:
        raise SamplerError(
            f"the collated runs are all quadrature nodes ({', '.join(grid_stages)}); "
            "grid nodes are not draws from the inputs' distribution, so validation "
            "needs an mc or halton stage")
    if not sampled:
        raise MissingRunError(f"no collated values for qoi {qoi!r}" if qoi
                              else "no collated runs to validate")
    return sampled


def validate_similarity(store: CampaignStore, qoi: str, reference, metric: str,
                        at: int | str = "final") -> SimilarityResult:
    """Score the sampled distribution of `qoi` against a reference sample array.

    `at` picks a time index, "final" for the last point, or "flat" to pool
    every time point of every run.
    """
    values = np.concatenate([s.values for s in sampled_runs(store, qoi)])
    if at == "flat":
        samples = values.ravel()
    else:
        try:
            samples = values[:, -1 if at == "final" else int(at)]
        except (ValueError, IndexError):
            raise DomainError(f"at={at!r} is not 'final', 'flat' or an index into the "
                              f"{values.shape[1]}-point {qoi!r} vectors") from None
    return SimilarityResult(metric=metric, distance=metric_distance(metric, samples, reference))


def mare(values: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute relative error; zero reference entries fall back to
    absolute error so the score stays finite."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape:
        raise ScorerError(f"vector length {v.shape} vs reference {r.shape}")
    denom = np.where(np.abs(r) > 0, np.abs(r), 1.0)
    return float(np.mean(np.abs(v - r) / denom))


def _score_external(command: list[str], run_dir: str | None) -> float:
    if not run_dir:
        raise ScorerError("no run directory")
    proc = subprocess.run(
        [*command, run_dir], capture_output=True, text=True, timeout=300
    )
    if proc.returncode != 0:
        raise ScorerError(f"scorer exited {proc.returncode}: {proc.stderr.strip()}")
    out = proc.stdout.strip().split()
    try:
        (token,) = out
        return float(token)
    except ValueError as exc:
        raise ScorerError(
            f"scorer must print exactly one real, got {proc.stdout!r}"
        ) from exc


def ensemble_validate(
    store: CampaignStore,
    scorer: str | list[str],
    aggregator: str = "mean",
    qoi: str | None = None,
    reference: np.ndarray | None = None,
) -> EnsembleScore:
    """Score each collated run of the `mc` and `halton` stages and aggregate.

    `scorer` is "mare" (needs qoi + reference vector) or an external
    command list invoked as `cmd <run_dir>` printing one real. Quadrature
    nodes are not scored, as in `sampled_runs`. The per-run scores are
    recorded in the store in one transaction once every run is scored, so
    a run whose scorer fails leaves no score of this call recorded.
    """
    if aggregator not in AGGREGATORS:
        raise DomainError(
            f"unknown aggregator {aggregator!r}; choose from {', '.join(AGGREGATORS)}"
        )
    builtin = isinstance(scorer, str)
    if builtin and scorer != "mare":
        raise DomainError(f"unknown built-in scorer {scorer!r}")
    if builtin and (qoi is None or reference is None):
        raise DomainError("mare scorer needs a qoi and a reference vector")

    scorer_name = scorer if builtin else " ".join(scorer)
    per_run: dict[int, float] = {}
    for stage in sampled_runs(store, qoi if builtin else None):
        for i, row in enumerate(stage.runs):
            rid = row["run_id"]
            try:
                score = (mare(stage.values[i], reference) if builtin
                         else _score_external(list(scorer), row["run_dir"]))
            except ScorerError as exc:
                raise ScorerError(f"run {rid}: {exc}", run_id=rid) from exc
            per_run[rid] = score
    store.record_scores(scorer_name, per_run)

    values = np.array([per_run[rid] for rid in sorted(per_run)])
    aggregate = float(values.mean() if aggregator == "mean" else values.max())
    return EnsembleScore(
        scorer=scorer_name, aggregator=aggregator, aggregate=aggregate, per_run=per_run
    )
