"""Validation patterns: distribution similarity and per-run ensemble scoring.

Similarity compares the distribution of one QoI over the campaign's draws
from the inputs' distribution (the collated runs of its `mc` and `halton`
stages, pooled) with a reference sample array. Quadrature (`sc`, `pce`)
nodes are not such draws, so they are never scored.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field

import numpy as np

from uqpilot.analysis.pipeline import stage_sampler
from uqpilot.campaign.store import CampaignStore
from uqpilot.errors import DomainError, EmptyInput, MissingRunError, SamplerError, ScorerError
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


def ensemble_samples(store: CampaignStore, qoi: str, at: int | str = "final") -> np.ndarray:
    """The QoI's values over the collated runs of every `mc` and `halton`
    stage, which all draw from the inputs' one distribution.

    `at` picks a time index, "final" for the last point, or "flat" to pool
    every time point of every run. A campaign whose collated values all
    sit on quadrature nodes is refused: a node set is not a sample.
    """
    vectors, grid_stages = [], []
    for stage in store.stages():
        stage_id = stage["stage_id"]
        rows = store.load_frame(qoi, stage_id=stage_id)[1]
        spec = stage_sampler(store, stage_id)
        if spec.is_quadrature:
            grid_stages += [f"stage {stage_id} ({spec.variant})"] if rows else []
        else:
            vectors += [v for _, v in rows]
    if not vectors and grid_stages:
        raise SamplerError(
            f"qoi {qoi!r} is collated only on quadrature nodes ({', '.join(grid_stages)}); "
            "grid nodes are not draws from the inputs' distribution, so similarity "
            "needs an mc or halton stage")
    if not vectors:
        raise MissingRunError(f"no collated values for qoi {qoi!r}")
    if at == "flat":
        return np.concatenate(vectors)
    try:
        pos = -1 if at == "final" else int(at)
        return np.array([v[pos] for v in vectors])
    except (ValueError, IndexError):
        raise DomainError(f"at={at!r} is not 'final', 'flat' or an index into the "
                          f"{len(vectors[0])}-point {qoi!r} vectors") from None


def validate_similarity(store: CampaignStore, qoi: str, reference, metric: str,
                        at: int | str = "final") -> SimilarityResult:
    """Score the ensemble's distribution of `qoi` against a reference sample array."""
    distance = metric_distance(metric, ensemble_samples(store, qoi, at), reference)
    return SimilarityResult(metric=metric, distance=distance)


def mare(values: np.ndarray, reference: np.ndarray) -> float:
    """Mean absolute relative error; zero reference entries fall back to
    absolute error so the score stays finite."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape:
        raise ScorerError(f"vector length {v.shape} vs reference {r.shape}")
    denom = np.where(np.abs(r) > 0, np.abs(r), 1.0)
    return float(np.mean(np.abs(v - r) / denom))


def _score_builtin(frame: dict, qoi: str, reference: np.ndarray, run_id: int) -> float:
    if run_id not in frame:
        raise ScorerError(f"run {run_id} has no collated {qoi!r} vector", run_id=run_id)
    try:
        return mare(np.asarray(frame[run_id]), reference)
    except ScorerError as exc:
        raise ScorerError(f"run {run_id}: {exc}", run_id=run_id) from exc


def _score_external(command: list[str], run_dir: str, run_id: int) -> float:
    proc = subprocess.run(
        [*command, run_dir], capture_output=True, text=True, timeout=300
    )
    if proc.returncode != 0:
        raise ScorerError(
            f"run {run_id}: scorer exited {proc.returncode}: {proc.stderr.strip()}",
            run_id=run_id,
        )
    out = proc.stdout.strip().split()
    try:
        (token,) = out
        return float(token)
    except ValueError as exc:
        raise ScorerError(
            f"run {run_id}: scorer must print exactly one real, got {proc.stdout!r}",
            run_id=run_id,
        ) from exc


def ensemble_validate(
    store: CampaignStore,
    scorer: str | list[str],
    aggregator: str = "mean",
    qoi: str | None = None,
    reference: np.ndarray | None = None,
) -> EnsembleScore:
    """Score each collated run and aggregate.

    `scorer` is "mare" (needs qoi + reference vector) or an external
    command list invoked as `cmd <run_dir>` printing one real. Per-run
    scores are recorded in the store.
    """
    if aggregator not in AGGREGATORS:
        raise DomainError(
            f"unknown aggregator {aggregator!r}; choose from {', '.join(AGGREGATORS)}"
        )
    rows = store.runs(status="COLLATED")
    if not rows:
        raise EmptyInput("no collated runs to validate")

    builtin = isinstance(scorer, str)
    if builtin and scorer != "mare":
        raise DomainError(f"unknown built-in scorer {scorer!r}")
    if builtin and (qoi is None or reference is None):
        raise DomainError("mare scorer needs a qoi and a reference vector")

    scorer_name = scorer if builtin else " ".join(scorer)
    if builtin:
        frame = dict(store.load_frame(qoi)[1])
        reference = np.asarray(reference, dtype=float)
    per_run: dict[int, float] = {}
    for row in rows:
        rid = row["run_id"]
        if builtin:
            score = _score_builtin(frame, qoi, reference, rid)
        else:
            if not row["run_dir"]:
                raise ScorerError(f"run {rid} has no run directory", run_id=rid)
            score = _score_external(list(scorer), row["run_dir"], rid)
        per_run[rid] = score
        store.record_score(rid, scorer_name, score)

    values = np.array([per_run[rid] for rid in sorted(per_run)])
    aggregate = float(values.mean() if aggregator == "mean" else values.max())
    return EnsembleScore(
        scorer=scorer_name, aggregator=aggregator, aggregate=aggregate, per_run=per_run
    )
