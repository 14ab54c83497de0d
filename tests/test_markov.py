import math

import numpy as np
import pytest
from scipy.integrate import quad

from longevity.markov import MeanVariance, TwoStateModel

TOL = 1e-12


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        TwoStateModel(0.0)
    with pytest.raises(ValueError):
        TwoStateModel(-0.1)


def test_transition_matrix_rows_sum_to_one():
    m = TwoStateModel(0.07)
    for t in (0.0, 0.5, 3.0, 40.0):
        P = m.transition_matrix(t)
        np.testing.assert_allclose(P.sum(axis=1), [1.0, 1.0], atol=TOL)
        assert P[0, 0] == 1.0  # dead stays dead


def test_semigroup_property():
    m = TwoStateModel(0.3)
    for t, s in [(0.2, 0.9), (1.0, 1.0), (5.0, 0.01)]:
        lhs = m.transition_matrix(t + s)
        rhs = m.transition_matrix(t) @ m.transition_matrix(s)
        np.testing.assert_allclose(lhs, rhs, atol=TOL)


def test_survival_and_memorylessness():
    m = TwoStateModel(0.12)
    assert m.survival(0.0) == 1.0
    assert m.survival(2.0) == pytest.approx(math.exp(-0.24), rel=1e-15)
    for t in np.linspace(0.0, 30.0, 7):
        for s in np.linspace(0.0, 30.0, 7):
            assert abs(m.survival(t + s) - m.survival(t) * m.survival(s)) <= TOL


def test_pdf_is_a_density():
    m = TwoStateModel(0.4)
    total, _ = quad(m.pdf, 0.0, 200.0)
    assert total == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        m.pdf(-0.1)


def test_mean_and_variance_closed_form():
    mv = TwoStateModel(0.05).mean_and_variance()
    assert isinstance(mv, MeanVariance)
    assert mv.mean == pytest.approx(20.0)
    assert mv.variance == pytest.approx(400.0)


def test_sample_lifetime_inverse_cdf():
    m = TwoStateModel(2.0)
    # u = exp(-rate * t) inverts to t exactly
    assert m.sample_lifetime(math.exp(-2.0 * 3.0)) == pytest.approx(3.0, rel=1e-12)
    arr = m.sample_lifetime(np.array([0.5, 0.25]))
    np.testing.assert_allclose(arr, [math.log(2) / 2.0, math.log(4) / 2.0])
    with pytest.raises(ValueError):
        m.sample_lifetime(0.0)
    with pytest.raises(ValueError):
        m.sample_lifetime(np.array([0.5, 1.0]))
