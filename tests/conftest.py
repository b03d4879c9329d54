import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("suite")


from boltzmann_billiard import derive_params, periods  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_samples():
    """Clear the periods checks' kept draw and caches before each test, and hand out the
    clearing.

    A test that patches uniformize_array or level_set_residual_array then
    draws the checks' starts afresh, instead of reading points an earlier
    test drew unpatched; one that patches _sample_xyz, map_t_array or _walk
    runs poncelet_check and empirical_rotation afresh, instead of reading a
    report or winding an earlier test computed unpatched.
    """
    def clear():
        periods._starts.cache_clear()
        periods._poncelet_check.cache_clear()
        periods._empirical_rotation.cache_clear()

    clear()
    return clear


@pytest.fixture(scope="session")
def params_i():
    """One-component fixture, bound motion."""
    return derive_params(1.5, -0.2)


@pytest.fixture(scope="session")
def params_ii_plus():
    """Two-component fixture with orbits alternating between components."""
    return derive_params(2.5, -0.1)


@pytest.fixture(scope="session")
def params_ii_minus():
    """Two-component fixture at positive energy, components preserved."""
    return derive_params(-2.5, 1.5)


@pytest.fixture(scope="session")
def params_period3():
    """Exact rational point of the period-3 locus."""
    return derive_params(1.75, -5.0 / 24.0)
