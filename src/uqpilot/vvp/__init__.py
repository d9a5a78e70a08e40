from uqpilot.vvp.distances import (
    as_masses,
    fd_edges,
    hellinger,
    jensen_shannon_dist,
    wasserstein1,
)
from uqpilot.vvp.patterns import (
    AGGREGATORS,
    METRICS,
    EnsembleScore,
    SimilarityResult,
    ensemble_validate,
    mare,
    sampled_runs,
    validate_similarity,
)

__all__ = [
    "AGGREGATORS",
    "EnsembleScore",
    "METRICS",
    "SimilarityResult",
    "as_masses",
    "ensemble_validate",
    "fd_edges",
    "hellinger",
    "jensen_shannon_dist",
    "mare",
    "sampled_runs",
    "validate_similarity",
    "wasserstein1",
]
