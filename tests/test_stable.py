import numpy as np
import pytest

from longevity.errors import DataError
from longevity.simulate import RngStream
from longevity.stable import (
    StableParams,
    alpha_age_profile,
    estimate_alpha,
    log_char_function,
)


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=2.1)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, beta=1.5)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, gamma=0.0)


def test_log_char_function_gaussian_member():
    p = StableParams(alpha=2.0, gamma=0.5, delta=1.0)
    t = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
    expected = 1j * 1.0 * t - 0.5 * t**2
    np.testing.assert_allclose(log_char_function(p, t), expected, atol=1e-15)


def test_log_char_function_cauchy_member():
    # symmetric alpha=1: plain -gamma|t| with a location shift
    p = StableParams(alpha=1.0, beta=0.0, gamma=2.0, delta=-0.5)
    t = np.array([-1.0, 0.25, 3.0])
    expected = -0.5j * t - 2.0 * np.abs(t)
    np.testing.assert_allclose(log_char_function(p, t), expected, atol=1e-14)


def test_char_function_at_zero_is_one():
    for alpha in (0.6, 1.0, 1.7, 2.0):
        p = StableParams(alpha=alpha, beta=0.3)
        assert log_char_function(p, 0.0) == 0.0


def test_beta_invariance_at_alpha_two():
    """Skew has no effect on the Gaussian member of the family."""
    t = np.linspace(-8.0, 8.0, 401)
    base = log_char_function(StableParams(alpha=2.0, beta=0.0), t)
    for beta in (-1.0, -0.4, 0.3, 1.0):
        other = log_char_function(StableParams(alpha=2.0, beta=beta), t)
        assert np.max(np.abs(other - base)) <= 1e-15


def test_estimate_alpha_requires_data():
    with pytest.raises(DataError, match="at least 100"):
        estimate_alpha(np.zeros(50))
    with pytest.raises(DataError):
        estimate_alpha(np.full(500, 3.0))  # degenerate spread


def test_estimate_alpha_normal_sample():
    x = RngStream(1000).normals(100_000)
    assert 1.95 <= estimate_alpha(x) <= 2.0


def test_estimate_alpha_cauchy_sample():
    u = RngStream(1001).uniform(100_000)
    x = np.tan(np.pi * (u - 0.5))
    assert 0.95 <= estimate_alpha(x) <= 1.05


def test_estimate_alpha_affine_invariance():
    x = RngStream(55).normals(20_000)
    base = estimate_alpha(x)
    assert estimate_alpha(3.5 * x - 400.0) == base
    # flipping the sign mirrors the quantiles; the spread ratio is unchanged
    assert estimate_alpha(-x) == pytest.approx(base, abs=5e-3)


def test_estimate_alpha_stays_in_table_support():
    u = RngStream(77).uniform(50_000)
    heavy = np.tan(np.pi * (u - 0.5)) ** 3  # far fatter than Cauchy
    assert 0.5 <= estimate_alpha(heavy) <= 2.0


def test_alpha_age_profile_shape_and_determinism(bundled_table):
    ages = [60, 75, 90]
    prof1 = alpha_age_profile(bundled_table, ages, 5000, RngStream(42))
    prof2 = alpha_age_profile(bundled_table, ages, 5000, RngStream(42))
    assert prof1 == prof2
    assert [a for a, _ in prof1] == ages
    assert all(0.5 <= est <= 2.0 for _, est in prof1)


def test_alpha_age_profile_is_order_invariant(bundled_table):
    """Sub-streams are assigned by ascending age, not by request order."""
    forward = alpha_age_profile(bundled_table, [60, 75, 90], 5000, RngStream(42))
    backward = alpha_age_profile(bundled_table, [90, 75, 60], 5000, RngStream(42))
    assert forward == backward


def test_alpha_age_profile_rejects_degenerate_age():
    from longevity.lifetable import LifeTable
    from longevity.errors import DataError as DE

    table = LifeTable(100, [1.0])
    with pytest.raises(DE, match="age 100"):
        alpha_age_profile(table, [100], 5000, RngStream(1))
