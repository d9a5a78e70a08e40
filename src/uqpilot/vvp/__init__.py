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
    ensemble_samples,
    ensemble_validate,
    mare,
    validate_similarity,
)

__all__ = [
    "AGGREGATORS",
    "EnsembleScore",
    "METRICS",
    "SimilarityResult",
    "as_masses",
    "ensemble_samples",
    "ensemble_validate",
    "fd_edges",
    "hellinger",
    "jensen_shannon_dist",
    "mare",
    "validate_similarity",
    "wasserstein1",
]
