"""One-dimensional input distributions and their quantile transforms.

Samplers work on the unit cube and map coordinates into physical
parameter space through ``Distribution1D.quantile``; quadrature-based
samplers instead map reference-domain nodes through ``from_reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from uqpilot.errors import ConfigError, DomainError

VARIANTS = ("uniform", "normal", "constant")


@dataclass(frozen=True)
class Distribution1D:
    """uniform(lo, hi) | normal(mu, sigma) | constant(v)."""

    variant: str
    args: tuple[float, ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown distribution type {self.variant!r}")
        if self.variant == "uniform":
            if len(self.args) != 2:
                raise ConfigError("uniform takes exactly (lo, hi)")
            lo, hi = self.args
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"uniform requires lo < hi, got ({lo}, {hi})")
        elif self.variant == "normal":
            if len(self.args) != 2:
                raise ConfigError("normal takes exactly (mu, sigma)")
            mu, sigma = self.args
            if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
                raise ConfigError(f"normal requires sigma > 0, got sigma={sigma}")
        else:
            if len(self.args) != 1 or not math.isfinite(self.args[0]):
                raise ConfigError("constant takes exactly (v)")

    @property
    def is_constant(self) -> bool:
        return self.variant == "constant"

    def quantile(self, u):
        """Inverse CDF at u (a float or an array) in the open interval (0, 1)."""
        if self.variant == "constant":
            return self.args[0]
        u = np.asarray(u, dtype=float)
        inside = (0.0 < u) & (u < 1.0)
        if not inside.all():
            raise DomainError(f"quantile argument must lie in (0, 1), got {u[~inside].flat[0]}")
        if self.variant == "uniform":
            lo, hi = self.args
            return lo + u * (hi - lo)
        # only the normal quantile needs scipy, so only it pays for the import
        from scipy.special import ndtri

        mu, sigma = self.args
        return mu + sigma * ndtri(u)

    def from_reference(self, z):
        """Map reference-domain quadrature nodes (a float or an array) into
        physical space.

        Uniform uses the affine map from [-1, 1]; normal uses the
        standardisation z -> mu + sigma*z.
        """
        if self.variant == "uniform":
            lo, hi = self.args
            return lo + 0.5 * (z + 1.0) * (hi - lo)
        if self.variant == "normal":
            mu, sigma = self.args
            return mu + sigma * z
        return self.args[0]

    def contains(self, x: float) -> bool:
        if self.variant == "uniform":
            lo, hi = self.args
            return lo <= x <= hi
        if self.variant == "normal":
            return math.isfinite(x)
        return x == self.args[0]

    def to_json(self) -> dict:
        return {"type": self.variant, "args": list(self.args)}

    @classmethod
    def from_json(cls, doc: dict) -> "Distribution1D":
        if not isinstance(doc, dict) or "type" not in doc or "args" not in doc:
            raise ConfigError("distribution must be {type, args}")
        args = doc["args"]
        if not isinstance(args, (list, tuple)):
            raise ConfigError("distribution args must be a list")
        try:
            args = tuple(float(a) for a in args)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"distribution args must be numeric: {exc}") from exc
        return cls(str(doc["type"]), args)


def uniform(lo: float, hi: float) -> Distribution1D:
    return Distribution1D("uniform", (lo, hi))


def normal(mu: float, sigma: float) -> Distribution1D:
    return Distribution1D("normal", (mu, sigma))


def constant(v: float) -> Distribution1D:
    return Distribution1D("constant", (v,))
