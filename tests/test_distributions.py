import math

import pytest
from hypothesis import given, strategies as st

from uqpilot.errors import ConfigError, DomainError
from uqpilot.sampling.distributions import constant, normal, uniform


def normal_cdf(x: float) -> float:
    # independent oracle for the quantile: standard normal CDF via erf
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def quantile_by_bisection(u: float, lo=-12.0, hi=12.0, iters=200) -> float:
    for _ in range(iters):
        mid = (lo + hi) / 2
        if normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_unit_uniform_identity():
    assert uniform(0, 1).quantile(0.25) == 0.25


def test_uniform_midpoint():
    assert uniform(4.0, 16.0).quantile(0.5) == 10.0


def test_normal_upper_tail_against_bisection_oracle():
    expected = quantile_by_bisection(0.975)
    assert expected == pytest.approx(1.959964, abs=1e-5)
    assert normal(0, 1).quantile(0.975) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
def test_quantile_domain(u):
    with pytest.raises(DomainError):
        uniform(0, 1).quantile(u)


def test_constant_ignores_u():
    assert constant(3.5).quantile(0.9) == 3.5


@given(
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_quantile_monotone(u1, u2):
    lo, hi = sorted([u1, u2])
    for dist in (uniform(-3, 7), normal(1.5, 2.0)):
        assert dist.quantile(lo) <= dist.quantile(hi) + 1e-12


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_quantile_in_support(u):
    d = uniform(2.0, 5.0)
    assert 2.0 <= d.quantile(u) <= 5.0


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        uniform(1.0, 1.0)
    with pytest.raises(ConfigError):
        uniform(2.0, 1.0)
    with pytest.raises(ConfigError):
        normal(0.0, 0.0)
    with pytest.raises(ConfigError):
        normal(0.0, -1.0)


def test_json_round_trip():
    from uqpilot.sampling.distributions import Distribution1D

    for d in (uniform(0, 2), normal(1, 3), constant(4)):
        assert Distribution1D.from_json(d.to_json()) == d


def test_quantile_array_matches_scalar():
    d = normal(2.0, 0.5)
    us = [0.01, 0.2, 0.5, 0.8, 0.99]
    vec = d.quantile(us)
    for u, v in zip(us, vec):
        assert v == pytest.approx(d.quantile(u), abs=1e-12)
