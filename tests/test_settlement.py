import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from longevity.errors import DataError, NumericalError
from longevity.settlement import (
    CashflowSeries,
    FlatPolicy,
    PolicySchedule,
    critical_time,
    duration_derivative,
    irr,
    le_duration,
    load_cashflows,
    load_schedule,
    lsv,
    lsv_dt,
    lsv_schedule,
    macaulay_duration,
    npv,
)
from oracles import macaulay_by_summation, settlement_value_by_summation

policies = st.builds(
    FlatPolicy,
    p=st.floats(min_value=0.0, max_value=500.0),
    b=st.floats(min_value=1.0, max_value=50_000.0),
    r=st.floats(min_value=0.005, max_value=0.4),
)


def test_policy_invariants():
    with pytest.raises(ValueError):
        FlatPolicy(p=1.0, b=0.0, r=0.05)
    with pytest.raises(ValueError):
        FlatPolicy(p=-1.0, b=100.0, r=0.05)
    with pytest.raises(ValueError):
        FlatPolicy(p=1.0, b=100.0, r=0.0)
    # p/r + b overflows, so lsv would give nan
    with pytest.raises(ValueError, match="premium/rate \\+ benefit must be finite"):
        FlatPolicy(p=1e308, b=1e308, r=1e-10)
    # below float resolution the discount factor is 1 and the closed forms divide by 0
    with pytest.raises(ValueError, match="rounds to 1"):
        FlatPolicy(p=1.0, b=100.0, r=1e-17)


def test_macaulay_duration_that_overflows_is_a_numerical_error():
    # t * b overflows before the discount factor scales it back
    with pytest.raises(NumericalError, match="overflowed"):
        macaulay_duration(FlatPolicy(p=0.05, b=1e308, r=100.0), 15)


def test_lsv_immediate_death_pays_benefit():
    assert lsv(FlatPolicy(p=123.0, b=4567.0, r=0.08), 0) == 4567.0


def test_lsv_pure_discount_without_premiums():
    assert lsv(FlatPolicy(p=0.0, b=1000.0, r=0.05), 10) == pytest.approx(
        1000.0 / 1.05**10, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(pol=policies, t=st.integers(min_value=0, max_value=60))
def test_lsv_closed_form_equals_summation(pol, t):
    closed = lsv(pol, t)
    summed = settlement_value_by_summation(pol.p, pol.b, pol.r, t)
    assert closed == pytest.approx(summed, rel=1e-10, abs=1e-8)


@settings(max_examples=100, deadline=None)
@given(pol=policies, t=st.integers(min_value=0, max_value=40))
def test_lsv_is_strictly_decreasing(pol, t):
    assert lsv(pol, t + 1) < lsv(pol, t)
    assert lsv_dt(pol, t) < 0.0


def test_lsv_dt_matches_finite_difference():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    h = 1e-5
    for t in (0.0, 2.5, 10.0, 30.0):
        fd = (lsv(pol, t + h) - lsv(pol, t - h)) / (2.0 * h) if t > 0 else \
            (lsv(pol, t + h) - lsv(pol, t)) / h
        assert lsv_dt(pol, t) == pytest.approx(fd, rel=1e-6)


def test_schedule_reduces_to_flat_policy():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    sched = PolicySchedule(np.full(20, 100.0), np.full(20, 1000.0), 0.05)
    for t in range(1, 21):
        assert lsv_schedule(sched, t) == pytest.approx(lsv(pol, t), rel=1e-12)


def test_schedule_zero_premiums_pure_discount():
    sched = PolicySchedule(np.zeros(5), np.array([0.0, 0.0, 700.0, 0.0, 0.0]), 0.1)
    assert lsv_schedule(sched, 3) == pytest.approx(700.0 / 1.1**3, rel=1e-14)


def test_schedule_rejects_out_of_range_t():
    sched = PolicySchedule(np.zeros(5), np.full(5, 10.0), 0.1)
    for bad in (0, 6, 2.5):
        with pytest.raises(ValueError):
            lsv_schedule(sched, bad)


def test_le_duration_elasticity_identity():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    for t in (1.0, 5.0, 12.0):
        expected = t * lsv_dt(pol, t) / lsv(pol, t)
        assert le_duration(pol, t) == pytest.approx(expected, rel=1e-9)


def test_le_duration_sign_opposes_value():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    for t in (1.0, 3.0, 20.0, 40.0):
        value = lsv(pol, t)
        if value != 0.0:
            assert math.copysign(1.0, le_duration(pol, t)) == -math.copysign(1.0, value)


def test_le_duration_without_premiums_is_t_log_a():
    a = 1.0 / 1.07
    for b in (10.0, 12345.0):
        pol = FlatPolicy(p=0.0, b=b, r=0.07)
        assert le_duration(pol, 6.0) == pytest.approx(6.0 * math.log(a), rel=1e-12)


def test_macaulay_no_premium_is_minus_t():
    pol = FlatPolicy(p=0.0, b=5000.0, r=0.03)
    for t in (1, 7, 25):
        assert macaulay_duration(pol, t) == pytest.approx(-float(t), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(pol=policies, t=st.integers(min_value=1, max_value=50))
@example(pol=FlatPolicy(p=1.0, b=1.0, r=0.25), t=1)  # present value exactly zero
@example(pol=FlatPolicy(p=0.99999, b=1.0, r=0.0625), t=1)  # small value; exactly -1
def test_macaulay_closed_form_equals_summation(pol, t):
    if abs(settlement_value_by_summation(pol.p, pol.b, pol.r, t)) < 1e-6 * pol.b:
        return  # numerically singular present value, not a meaningful case
    summed = macaulay_by_summation(pol.p, pol.b, pol.r, t)
    assert macaulay_duration(pol, t) == pytest.approx(summed, rel=1e-9)


def test_macaulay_direct_sum_and_closed_form_meet_at_the_cutoff():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    # 10_000 periods are summed term by term, 10_001 use the closed form
    assert macaulay_duration(pol, 10_000) == pytest.approx(
        macaulay_duration(pol, 10_001), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(min_value=0.1, max_value=5.0).filter(lambda v: abs(v - 1.0) > 1e-3),
    k=st.integers(min_value=0, max_value=10),
    extra=st.integers(min_value=0, max_value=10),
)
def test_geometric_partial_sum_lemma(b, k, extra):
    """The telescoping identity the closed-form duration rests on."""
    n = k + extra
    direct = sum(b**i for i in range(k, n + 1))
    closed = (b ** (n + 1) - b**k) / (b - 1.0)
    assert direct == pytest.approx(closed, rel=1e-9)


def _numerator_constants(pol):
    """Constants of the closed-form duration numerator ``C + (t*K - C)*a**t``.

    With ``C = a*p/(a-1)**2`` and ``K = C*(a-1) - b`` the premium-weighted
    sum ``p * sum(i * a**i, i=1..t) - t*b*a**t`` telescopes to that closed
    form; the constant ``C`` drops out when differentiating in ``t``.
    """
    a = pol.a
    c = a * pol.p / (a - 1.0) ** 2
    return c, c * (a - 1.0) - pol.b


def test_numerator_closed_form_equals_double_sum():
    rng = np.random.default_rng(23)
    for _ in range(30):
        pol = FlatPolicy(
            p=float(rng.uniform(0.0, 300.0)),
            b=float(rng.uniform(500.0, 20_000.0)),
            r=float(rng.uniform(0.01, 0.3)),
        )
        c, k = _numerator_constants(pol)
        a = pol.a
        for t in (1, 4, 17):
            direct = pol.p * sum(i * a**i for i in range(1, t + 1)) - t * pol.b * a**t
            assert c + (t * k - c) * a**t == pytest.approx(direct, rel=1e-10, abs=1e-8)


def test_duration_derivative_matches_finite_difference():
    rng = np.random.default_rng(99)
    h = 1e-5
    for _ in range(50):
        pol = FlatPolicy(
            p=float(rng.uniform(0.0, 300.0)),
            b=float(rng.uniform(500.0, 20_000.0)),
            r=float(rng.uniform(0.01, 0.3)),
        )
        t = float(rng.uniform(1.0, 30.0))
        value = lsv(pol, t)
        if abs(value) < 1e-3 * pol.b:
            continue  # derivative blows up near a vanishing present value
        c, k = _numerator_constants(pol)
        a = pol.a
        braced = lambda u: (u * k - c) * a**u  # noqa: E731
        fd = (braced(t + h) - braced(t - h)) / (2.0 * h)
        assert duration_derivative(pol, t) == pytest.approx(fd / value, rel=2e-6, abs=1e-10)


def test_critical_time_no_premium_limit():
    pol = FlatPolicy(p=0.0, b=900.0, r=0.04)
    assert critical_time(pol) == pytest.approx(-1.0 / math.log(1.0 / 1.04), rel=1e-12)


def test_critical_time_zeroes_the_braced_factor():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pol = FlatPolicy(
            p=float(rng.uniform(0.0, 200.0)),
            b=float(rng.uniform(1000.0, 9000.0)),
            r=float(rng.uniform(0.01, 0.25)),
        )
        t_star = critical_time(pol)
        c, k = _numerator_constants(pol)
        a = pol.a
        log_a = math.log(a)
        deriv = lambda u: a**u * (k + (u * k - c) * log_a)  # noqa: E731
        assert abs(deriv(t_star)) <= 1e-9 * max(abs(deriv(1.0)), 1.0)


def test_critical_time_agrees_with_bisection():
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    c, k = _numerator_constants(pol)
    a = pol.a
    deriv = lambda u: a**u * (k + (u * k - c) * math.log(a))  # noqa: E731
    root = brentq(deriv, 0.1, 200.0)
    assert critical_time(pol) == pytest.approx(root, rel=1e-9)


def test_cashflow_series_needs_both_signs():
    with pytest.raises(ValueError):
        CashflowSeries([100.0, 200.0])
    with pytest.raises(ValueError):
        CashflowSeries([-100.0])


def test_npv_hand_value():
    cf = CashflowSeries([-100.0, 110.0])
    assert npv(cf, 0.10) == pytest.approx(0.0, abs=1e-12)
    assert npv(cf, 0.0) == pytest.approx(10.0)


def test_irr_single_period():
    assert irr(CashflowSeries([-100.0, 110.0])) == pytest.approx(0.10, abs=1e-9)


def test_irr_recovers_generating_rate():
    rng = np.random.default_rng(17)
    for _ in range(40):
        r = float(rng.uniform(0.005, 0.5))
        flows = [-1000.0] + [0.0] * 5 + [1000.0 * (1.0 + r) ** 6]
        assert irr(CashflowSeries(flows)) == pytest.approx(r, abs=1e-8)


def test_irr_agrees_with_brentq():
    flows = [-1000.0, 500.0, 400.0, 300.0]
    f = lambda r: sum(c / (1.0 + r) ** i for i, c in enumerate(flows))  # noqa: E731
    reference = brentq(f, -0.5, 2.0)
    assert irr(CashflowSeries(flows)) == pytest.approx(reference, abs=1e-7)


def test_irr_ladder_reproduces_published_returns(irr_ladder):
    for flows, expected in irr_ladder:
        assert abs(irr(flows) - expected) * 100.0 <= 1e-4


@settings(max_examples=300, deadline=None)
@given(
    outflows=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=4),
    first_out=st.floats(min_value=1.0, max_value=100.0),
    inflows=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=9),
    last_in=st.floats(min_value=1.0, max_value=100.0),
)
def test_irr_is_a_sign_change_between_adjacent_floats(outflows, first_out, inflows, last_in):
    """One sign change in the flows means exactly one root, inside the scan.

    The NPV is zero at the returned rate, or it changes sign between that
    rate and one of its float neighbours.
    """
    cf = CashflowSeries([-first_out] + [-v for v in outflows] + inflows + [last_in])
    root = irr(cf)
    here = npv(cf, root)
    neighbours = (npv(cf, math.nextafter(root, -math.inf)),
                  npv(cf, math.nextafter(root, math.inf)))
    assert here == 0.0 or any(here * v < 0.0 for v in neighbours)


@pytest.mark.parametrize("make", [
    lambda: PolicySchedule([100.0, math.nan], [1000.0, 1000.0], 0.05),
    lambda: PolicySchedule([100.0, 100.0], [1000.0, math.inf], 0.05),
    lambda: PolicySchedule([100.0], [1000.0], math.inf),
    lambda: lsv_dt(FlatPolicy(100.0, 1000.0, 0.05), math.nan),
])
def test_non_finite_schedule_or_time_is_rejected(make):
    # flat policies and lsv are covered through the CLI in test_cli.py
    with pytest.raises(ValueError, match="finite"):
        make()


def test_load_cashflows_and_gaps(tmp_path):
    p = tmp_path / "cf.csv"
    p.write_text("period,amount\n0,-100\n3,150\n")
    cf = load_cashflows(p)
    np.testing.assert_allclose(cf.flows, [-100.0, 0.0, 0.0, 150.0])


def test_load_cashflows_rejects_bad_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("period,amount\n0,-100\nx,150\n")
    with pytest.raises(DataError, match="bad.csv:3"):
        load_cashflows(p)
    p2 = tmp_path / "dup.csv"
    p2.write_text("period,amount\n0,-100\n0,150\n")
    with pytest.raises(DataError):
        load_cashflows(p2)


def test_load_schedule_round_trip(tmp_path):
    p = tmp_path / "sched.csv"
    p.write_text("period,premium,benefit\n1,100,1000\n2,100,1000\n3,100,1000\n")
    sched = load_schedule(p, 0.05)
    assert len(sched) == 3
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    assert lsv_schedule(sched, 2) == pytest.approx(lsv(pol, 2), rel=1e-12)


def test_load_schedule_rejects_nonconsecutive_periods(tmp_path):
    p = tmp_path / "sk.csv"
    p.write_text("period,premium,benefit\n1,100,1000\n3,100,1000\n")
    with pytest.raises(DataError):
        load_schedule(p, 0.05)
