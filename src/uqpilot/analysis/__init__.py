from uqpilot.analysis.bootstrap import BootstrapCI, bootstrap
from uqpilot.analysis.mc_sobol import McSobolResult, sobol_mc
from uqpilot.analysis.models import ADDITIVE, ALL_MODELS, BILINEAR, SINGLE_FACTOR
from uqpilot.analysis.pipeline import (
    analyze_mc_stage,
    analyze_quadrature_stage,
    surrogate_for_stage,
)
from uqpilot.analysis.spectral import (
    SobolReport,
    SpectralSurrogate,
    moments,
    project_sparse,
    sobol,
)

__all__ = [
    "ADDITIVE",
    "ALL_MODELS",
    "BILINEAR",
    "BootstrapCI",
    "McSobolResult",
    "SINGLE_FACTOR",
    "SobolReport",
    "SpectralSurrogate",
    "analyze_mc_stage",
    "analyze_quadrature_stage",
    "bootstrap",
    "moments",
    "project_sparse",
    "sobol",
    "sobol_mc",
    "surrogate_for_stage",
]
