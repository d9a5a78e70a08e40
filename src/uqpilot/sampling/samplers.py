"""Sampling plans: Monte Carlo, Halton, stochastic collocation, PCE.

``draw`` turns a sampler specification plus a parameter space into the
list of parameter sets (and, for quadrature plans, weights) that becomes
one campaign stage. All draws are pure functions of (space, spec): the
MC path uses the counter-based Philox generator keyed by the stage seed,
so stores are reproducible across machines. Quadrature plans take their
reference-domain grid from ``stage_grid``, which analysis calls too, and
map it into physical space with ``to_physical``. ``sparse`` builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uqpilot.errors import SamplerError
from uqpilot.sampling.distributions import Distribution1D
from uqpilot.sampling.sparse import SparseGrid, combine, smolyak_grid

RNG_ALGORITHM = "philox4x64-numpy"

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@dataclass(frozen=True)
class SamplerSpec:
    """mc(n, seed) | halton(n, skip) | sc(level, growth, sparse) | pce(order, growth)."""

    variant: str
    n: int = 0
    seed: int = 0
    skip: int = 0
    level: int = 0
    order: int = 0
    growth: str = "linear"          # linear (Gauss) | exp2 (Clenshaw-Curtis)
    sparse: bool = False

    def __post_init__(self):
        if self.variant not in ("mc", "halton", "sc", "pce"):
            raise SamplerError(f"unknown sampler {self.variant!r}")
        if self.variant in ("mc", "halton") and self.n < 1:
            raise SamplerError("mc/halton need n >= 1")
        if self.variant == "sc" and self.level < 0:
            raise SamplerError("sc needs level >= 0")
        if self.variant == "pce" and self.order < 0:
            raise SamplerError("pce needs order >= 0")
        if self.growth not in ("linear", "exp2"):
            raise SamplerError(f"unknown growth rule {self.growth!r}")

    @property
    def is_quadrature(self) -> bool:
        return self.variant in ("sc", "pce")

    def to_json(self) -> dict:
        doc = {"variant": self.variant}
        if self.variant == "mc":
            doc.update(n=self.n, seed=self.seed)
        elif self.variant == "halton":
            doc.update(n=self.n, skip=self.skip)
        elif self.variant == "sc":
            doc.update(level=self.level, growth=self.growth, sparse=self.sparse)
        else:
            doc.update(order=self.order, growth=self.growth)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "SamplerSpec":
        """Parse a stored sampler document, or `uq sample`'s options.

        Fields the variant does not use are ignored, and a missing one
        raises SamplerError. Without a growth rule, a sparse grid takes
        exp2 and any other grid linear.
        """
        kind = doc.get("variant")
        growth = str(doc.get("growth") or ("exp2" if doc.get("sparse") else "linear"))
        try:
            if kind == "mc":
                return cls("mc", n=int(doc["n"]), seed=int(doc["seed"]))
            if kind == "halton":
                return cls("halton", n=int(doc["n"]), skip=int(doc.get("skip", 0)))
            if kind == "sc":
                return cls("sc", level=int(doc["level"]), growth=growth,
                           sparse=bool(doc.get("sparse", False)))
            if kind == "pce":
                return cls("pce", order=int(doc["order"]), growth=growth)
        except KeyError as exc:
            raise SamplerError(f"{kind} sampler needs {exc}") from exc
        raise SamplerError(f"unknown sampler document {doc!r}")


def radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton_sequence(n: int, d: int, skip: int = 0) -> np.ndarray:
    """First n points (after `skip`) of the d-dimensional Halton sequence.

    Indexing starts at 1, so skip=0 yields (1/2, 1/3, ...) first.
    """
    if d > len(_PRIMES):
        raise SamplerError(f"halton supports up to {len(_PRIMES)} dimensions")
    out = np.empty((n, d))
    for row in range(n):
        i = 1 + skip + row
        for dim in range(d):
            out[row, dim] = radical_inverse(i, _PRIMES[dim])
    return out


def rule_name_for(dist: Distribution1D, growth: str) -> str:
    if dist.variant == "uniform":
        return "clenshaw-curtis" if growth == "exp2" else "gauss-legendre"
    if dist.variant == "normal":
        return "gauss-hermite"   # no nested family; linear growth
    raise SamplerError("quadrature sampler over a constant dimension")


def stage_grid(spec: SamplerSpec, dists: list[Distribution1D]) -> SparseGrid:
    """The quadrature grid of an sc/pce stage over its active `dists`.

    Points are in the reference domain. A sparse sc stage is a Smolyak
    grid; a tensor sc or pce stage is the one-component combination
    ``((level,) * d, 1)``, truncated to total degree <= order for pce and
    not at all for sc.
    """
    rules = [rule_name_for(dist, spec.growth) for dist in dists]
    if spec.variant == "sc" and spec.sparse:
        return smolyak_grid(len(dists), spec.level, rules)
    level = spec.level if spec.variant == "sc" else spec.order
    return combine(rules, [((level,) * len(dists), 1)],
                   total_degree=spec.order if spec.variant == "pce" else None)


def to_physical(points: np.ndarray, dists: list[Distribution1D]) -> np.ndarray:
    """Map (N, d) reference-domain points into physical space, column by column."""
    return np.column_stack([dist.from_reference(points[:, i]) for i, dist in enumerate(dists)])


def _open_unit(u: np.ndarray) -> np.ndarray:
    # Philox doubles live in [0, 1); nudge exact zeros into the open interval
    tiny = np.nextafter(0.0, 1.0)
    return np.where(u == 0.0, tiny, u)


def draw(space, spec: SamplerSpec):
    """Produce the stage's parameter sets.

    `space` is an ordered list of (name, Distribution1D). Returns
    (param_sets, weights) where param_sets is a list of name->value dicts
    and weights is a list of floats for quadrature plans, else None.
    """
    names = [n for n, _ in space]
    active = [(n, d) for n, d in space if not d.is_constant]
    pinned = {n: d.args[0] for n, d in space if d.is_constant}

    if not active:
        raise SamplerError("parameter space has no non-constant parameters")

    active_dists = [dist for _, dist in active]
    if spec.variant in ("mc", "halton"):
        if spec.variant == "mc":
            rng = np.random.Generator(np.random.Philox(key=spec.seed))
            u = rng.random((spec.n, len(active)))
        else:
            u = halton_sequence(spec.n, len(active), spec.skip)
        u = _open_unit(u)
        physical = np.column_stack([dist.quantile(u[:, i]) for i, dist in enumerate(active_dists)])
        weights = None
    else:
        grid = stage_grid(spec, active_dists)
        physical = to_physical(grid.points, active_dists)
        weights = grid.weights.tolist()
    sets = []
    for row in physical.tolist():
        params = dict(pinned)
        params.update(zip((name for name, _ in active), row))
        sets.append({n: params[n] for n in names})
    return sets, weights
