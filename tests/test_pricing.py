"""Parabolic marching and the option pricers built on it."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from longevity import pricing
from longevity.errors import NumericalError
from longevity.fdm import Mesh1D, fitted_stencil
from longevity.lifetable import LifeTable, complete_expectation, death_distribution
from longevity.pricing import (
    MortalityOptionValue,
    PriceResult,
    VolatilityDecay,
    price_american,
    price_european,
    price_mortality_option,
)
from longevity.settlement import FlatPolicy, PolicySchedule, lsv, lsv_schedule
from longevity.simulate import _WORD_BLOCK, RngStream, _death_counts
from oracles import (binomial_american_put, bs_price, crr_american, effective_vol,
                     grid_tolerance, half_variance_by_quadrature, mortality_option_exact_value,
                     zero_vol_mortality_value)

# ------------------------------------------------------------ marching #


def problem(phi, horizon, sigma=1.0, mu=0.0, b=0.0, g0=lambda tau: 0.0, g1=lambda tau: 0.0):
    # u_tau = sigma u_xx + mu u_x + b u in remaining time, with u(x, 0) = phi(x)
    # and boundary values g0(tau), g1(tau); coefficients are constants or
    # callables of x
    return dict(phi=phi, horizon=horizon, sigma=sigma, mu=mu, b=b, g0=g0, g1=g1)


def march_args(prob, mesh, n_steps, implicit_steps, times=None):
    # the march's arguments for prob: its fitted rows on the interior nodes,
    # the state at tau = 0 with its corners on the boundary values, and the
    # boundary values at the level times, (n+1) k unless given
    xi = mesh.points()[1:-1]
    sigma, mu, b = (np.broadcast_to(np.asarray(c(xi) if callable(c) else c, dtype=float),
                                    xi.shape) for c in (prob["sigma"], prob["mu"], prob["b"]))
    sub, center, sup = fitted_stencil(mu, mesh.h, sigma)
    k = prob["horizon"] / n_steps
    if times is None:
        times = [(n + 1) * k for n in range(n_steps)]
    U = np.asarray(prob["phi"](mesh.points()), dtype=float).copy()
    U[0], U[-1] = prob["g0"](0.0), prob["g1"](0.0)
    return dict(rows=(sub, center + b, sup), U=U, k=k, implicit_steps=implicit_steps,
                g0s=[float(prob["g0"](tau)) for tau in times],
                g1s=[float(prob["g1"](tau)) for tau in times])


def march(prob, mesh, n_steps, theta=0.5):
    # terminal mesh values of a march taking n_steps steps at one theta:
    # 1 for implicit steps, 1/2 for Crank-Nicolson
    return pricing._march(**march_args(prob, mesh, n_steps, n_steps if theta == 1.0 else 0))


def heat_problem(horizon):
    # u_tau = u_xx on [0, 1] with u(x, 0) = sin(pi x); exact decay rate pi**2
    return problem(lambda x: np.sin(np.pi * x), horizon)


def test_heat_equation_matches_separated_solution():
    mesh = Mesh1D(0.0, 1.0, 65)
    U = march(heat_problem(0.1), mesh, 64)
    exact = math.exp(-np.pi**2 * 0.1) * np.sin(np.pi * mesh.points())
    assert np.max(np.abs(U - exact)) < 2e-3


def test_crank_nicolson_is_second_order_in_space_and_time():
    errs = []
    for j in (16, 32, 64):
        mesh = Mesh1D(0.0, 1.0, j + 1)
        U = march(heat_problem(0.1), mesh, j)
        exact = math.exp(-np.pi**2 * 0.1) * np.sin(np.pi * mesh.points())
        errs.append(np.max(np.abs(U - exact)))
    assert errs[0] / errs[1] > 3.4
    assert errs[1] / errs[2] > 3.4


def test_implicit_march_obeys_discrete_bounds():
    # no source, no reaction: fully implicit fitted rows are monotone, so
    # every level stays between the data extremes
    prob = problem(lambda x: x * (1.0 - x), 2.0, sigma=lambda x: 0.1 + x * x,
                   mu=lambda x: 5.0 * (1.0 - 2.0 * x))
    U = march(prob, Mesh1D(0.0, 1.0, 41), 10, theta=1.0)
    assert np.all(U >= -1e-9)
    assert np.all(U <= 0.25 + 1e-9)


@pytest.mark.parametrize("implicit_steps", [0, 4, 10],
                         ids=["crank-nicolson", "rannacher", "implicit"])
def test_march_blowup_is_reported(implicit_steps):
    # a boundary value that turns infinite at step 6 makes that level
    # non-finite; the march must stop there and name the step
    args = march_args(heat_problem(1.0), Mesh1D(0.0, 1.0, 11), 10, implicit_steps)
    args["g0s"][5] = math.inf
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="at step 6 of 10"):
            pricing._march(**args, project=lambda n, V: calls.append(n))
    assert calls == [0, 1, 2, 3, 4]


def test_a_state_whose_squares_overflow_still_marches():
    # the finiteness check's dot product overflows, so the march tests the
    # values one by one; scaling by a power of two is exact at every step
    mesh = Mesh1D(0.0, 1.0, 51)
    prob = heat_problem(0.1)
    scaled = dict(prob, phi=lambda x: 2.0 ** 600 * np.sin(np.pi * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pricing._march(**march_args(scaled, mesh, 40, 4))
    want = pricing._march(**march_args(prob, mesh, 40, 4))
    assert np.max(np.abs(got)) > 2.0 ** 512  # every level's squares overflow
    assert got.tobytes() == (2.0 ** 600 * want).tobytes()


# ------------------------------------------------------ vanilla options #

STRIKE = 100.0
RATE = 0.05
VOL = 0.2
EXPIRY = 1.0


def test_volatility_decay_validation():
    # the level sigma0 * exp(-decay * tau) is checked through its clock
    # against quadrature in test_variance_clock_matches_quadrature
    with pytest.raises(ValueError):
        VolatilityDecay(sigma0=0.0, decay=0.1)
    with pytest.raises(ValueError):
        VolatilityDecay(sigma0=0.2, decay=-0.1)
    with pytest.raises(ValueError, match="decay must be finite"):
        VolatilityDecay(sigma0=0.2, decay=math.nan)
    with pytest.raises(ValueError, match="sigma0 must be finite"):
        VolatilityDecay(sigma0=math.inf, decay=0.1)


def test_european_call_and_put_match_closed_form():
    for kind in ("call", "put"):
        res = price_european(kind, STRIKE, RATE, VOL, EXPIRY)
        got = res.value_at(STRIKE)
        want = bs_price(kind, STRIKE, STRIKE, RATE, VOL, EXPIRY)
        assert abs(got - want) <= 1e-3 * want


def test_put_call_parity_across_the_grid():
    call = price_european("call", STRIKE, RATE, VOL, EXPIRY)
    put = price_european("put", STRIKE, RATE, VOL, EXPIRY)
    for s in (80.0, 100.0, 120.0):
        lhs = call.value_at(s) - put.value_at(s)
        rhs = s - STRIKE * math.exp(-RATE * EXPIRY)
        assert abs(lhs - rhs) <= 2e-3 * STRIKE


def test_zero_decay_equals_constant_volatility():
    flat = price_european("call", STRIKE, RATE, VOL, EXPIRY, intervals=80, steps=80)
    decayed = price_european("call", STRIKE, RATE, VolatilityDecay(VOL, 0.0),
                             EXPIRY, intervals=80, steps=80)
    assert np.array_equal(flat.values, decayed.values)


def test_positive_decay_lowers_the_call_value():
    flat = price_european("call", STRIKE, RATE, VOL, EXPIRY, intervals=80, steps=80)
    decayed = price_european("call", STRIKE, RATE, VolatilityDecay(VOL, 1.0),
                             EXPIRY, intervals=80, steps=80)
    assert decayed.value_at(STRIKE) < flat.value_at(STRIKE)


@pytest.mark.parametrize("vol", [1e200])
def test_huge_decaying_volatility_is_rejected_not_an_overflow_traceback(vol):
    # squaring 1e200 with a float power raised OverflowError; the product
    # overflows to an infinite clock, whose implicit step 2 k m the pricer
    # rejects before the march
    with pytest.raises(ValueError, match="2 k m must be finite"):
        price_european("put", STRIKE, RATE, VolatilityDecay(vol, 0.0), EXPIRY,
                       intervals=20, steps=20)


@pytest.mark.parametrize("price", [price_european, price_american])
@pytest.mark.parametrize("vol", [VOL, 1e152, VolatilityDecay(1e152, 0.0)], ids=str)
def test_value_per_unit_strike_does_not_depend_on_the_strike(price, vol):
    # the march solves rows m (1, -2, 1) scaled to mesh units, so value /
    # strike at spot = strike is the same for every strike up to rounding:
    # a volatility whose clock is finite at one strike prices at all of them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = price("put", 1e-3, RATE, vol, EXPIRY, intervals=50, steps=50).value_at(1e-3) / 1e-3
        for strike in (1e-300, STRIKE) + ((1e300,) if vol == VOL else ()):
            got = price("put", strike, RATE, vol, EXPIRY, intervals=50,
                        steps=50).value_at(strike) / strike
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_option_argument_validation():
    with pytest.raises(ValueError, match="kind"):
        price_european("straddle", STRIKE, RATE, VOL, EXPIRY)
    with pytest.raises(ValueError):
        price_european("call", -1.0, RATE, VOL, EXPIRY)
    with pytest.raises(ValueError):
        price_european("call", STRIKE, RATE, VOL, EXPIRY, s_max=50.0)
    with pytest.raises(ValueError):
        price_european("call", STRIKE, RATE, 0.0, EXPIRY)
    for name, args in (("rate", (STRIKE, math.nan, VOL, EXPIRY)),
                       ("vol", (STRIKE, RATE, math.inf, EXPIRY)),
                       ("strike", (math.inf, RATE, VOL, EXPIRY)),
                       ("expiry", (STRIKE, RATE, VOL, math.nan))):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            price_american("put", *args)
    with pytest.raises(ValueError, match="s_max must be finite"):
        price_european("call", STRIKE, RATE, VOL, EXPIRY, s_max=math.inf)
    # a mesh spacing below the smallest normal float, with no warning on
    # the way, at a spacing that underflows to zero too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strike, intervals in ((1e-320, 2), (1e-308, 50), (1e-323, 50)):
            with pytest.raises(ValueError, match="mesh spacing s_max / intervals must be at least"):
                price_european("put", strike, RATE, VOL, EXPIRY, intervals=intervals, steps=1)
    # a discount factor over the expiry that overflows
    for pricer, rate, expiry in ((price_european, -1e300, EXPIRY),
                                 (price_american, -1e300, EXPIRY),
                                 (price_european, -1.0, 1000.0)):
        with pytest.raises(ValueError, match="rate must keep"):
            pricer("put", STRIKE, rate, VOL, expiry, intervals=20, steps=20)


def test_value_at_rejects_levels_off_the_grid():
    res = price_european("call", STRIKE, RATE, VOL, EXPIRY, intervals=40, steps=40)
    with pytest.raises(ValueError, match="outside"):
        res.value_at(-1.0)
    with pytest.raises(ValueError, match="outside"):
        res.value_at(res.grid[-1] + 1.0)


def test_american_put_matches_binomial_and_dominates_intrinsic():
    res = price_american("put", STRIKE, RATE, VOL, EXPIRY)
    want = binomial_american_put(STRIKE, STRIKE, RATE, VOL, EXPIRY, steps=1000)
    assert abs(res.value_at(STRIKE) - want) <= 3e-3 * want
    intrinsic = np.maximum(STRIKE - res.grid, 0.0)
    assert np.all(res.values >= intrinsic - 1e-10)


def test_american_put_exercise_boundary_recedes():
    res = price_american("put", STRIKE, RATE, VOL, EXPIRY)
    h = res.grid[1] - res.grid[0]
    b = res.exercise_boundary[4:]  # past the implicit start-up levels
    assert not np.any(np.isnan(b))
    assert np.all(b <= STRIKE + h)
    # farther from expiry the critical level sits lower; one mesh cell of
    # jitter is the resolution limit
    assert np.all(np.diff(b) <= h + 1e-9)
    assert b[-1] < b[0]


def test_american_call_never_exercised_early():
    amer = price_american("call", STRIKE, RATE, VOL, EXPIRY)
    euro = price_european("call", STRIKE, RATE, VOL, EXPIRY)
    got, want = amer.value_at(STRIKE), euro.value_at(STRIKE)
    assert abs(got - want) <= 2e-3 * want
    assert np.all(np.isnan(amer.exercise_boundary))
    assert euro.exercise_boundary is None


# ------------------------------------------------------ variance clock #


@pytest.mark.parametrize("sigma0, decay", [(0.3, 0.0), (0.3, 1e-12), (0.2, 0.8), (0.45, 1.5),
                                           (0.3, 50.0)])
def test_variance_clock_matches_quadrature(sigma0, decay):
    vol = VolatilityDecay(sigma0, decay)
    for tau in (1e-6, 0.01, 0.25, 1.0, 2.0):
        assert vol.clock(tau) == pytest.approx(
            half_variance_by_quadrature(sigma0, decay, tau), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("decay", [0.0, 1e-12, 1e-6, 1.0, 50.0])
def test_variance_clock_inverse_round_trips(decay):
    # past decay * tau of about 4 the clock has all but stopped, and its
    # inverse amplifies a rounding by e^{2 decay tau}, so the trip is
    # checked short of that
    vol = VolatilityDecay(0.3, decay)
    taus = [tau for tau in (1e-9, 1e-6, 1e-3, 0.02, 0.05, 0.08, 0.25, 1.0, 2.0, 10.0)
            if decay * tau <= 4.0]
    assert len(taus) >= 5
    for tau in taus:
        assert vol.clock_inverse(vol.clock(tau)) == pytest.approx(tau, rel=1e-12, abs=0.0)
    # the reading the clock never reaches, and beyond it
    if decay > 0.0:
        for limit in (1.0, 2.0):
            assert vol.clock_inverse(limit * 0.3**2 / (4.0 * decay)) == math.inf


def test_variance_clock_is_continuous_as_decay_vanishes():
    for tau in (1e-3, 1.0, 5.0):
        flat = VolatilityDecay(0.3, 0.0).clock(tau)
        assert flat == 0.5 * 0.3 * 0.3 * tau
        for decay in (1e-300, 1e-15, 1e-12):
            assert VolatilityDecay(0.3, decay).clock(tau) == pytest.approx(
                flat, rel=2.0 * decay * tau + 1e-15, abs=0.0)


def test_american_exercise_times_step_the_variance_clock():
    vol = VolatilityDecay(0.3, 0.8)
    res = price_american("put", STRIKE, RATE, vol, EXPIRY, intervals=40, steps=40)
    times = res.exercise_times
    assert times[-1] == EXPIRY
    assert np.all(np.diff(times) > 0.0)
    # equal steps of the clock, which runs slower as tau grows
    steps = np.diff([vol.clock(t) for t in [0.0, *times]])
    np.testing.assert_allclose(steps, vol.clock(EXPIRY) / 40, rtol=1e-12)
    assert np.all(np.diff(np.diff(times)) > 0.0)


# Extreme inputs that price: rates far above and below zero, a volatility
# whose clock underflows to zero (the discounted intrinsic value), and a
# decay that drives exp(-2 decay E) to zero
EXTREMES = [(700.0, 0.2, 1.0), (5.0, 0.2, 1.0), (-0.9, 0.2, 1.0), (-0.9, 0.2, 2.0),
            (0.05, 1e-200, 1.0), (0.05, VolatilityDecay(0.3, 1e6), 1.0)]


@pytest.mark.parametrize("rate, vol, expiry", EXTREMES, ids=lambda v: str(v))
@pytest.mark.parametrize("kind", ["call", "put"])
def test_extreme_inputs_still_price(kind, rate, vol, expiry):
    euro = price_european(kind, STRIKE, rate, vol, expiry, intervals=200, steps=200)
    amer = price_american(kind, STRIKE, rate, vol, expiry, intervals=200, steps=200)
    assert np.all(np.isfinite(euro.values)) and np.all(np.isfinite(amer.values))
    flat = effective_vol(vol.sigma0, vol.decay, expiry) if isinstance(vol, VolatilityDecay) \
        else vol
    want = bs_price(kind, STRIKE, STRIKE, rate, flat, expiry)
    assert abs(euro.value_at(STRIKE) - want) <= grid_tolerance(STRIKE, 200)
    intrinsic = np.maximum(amer.grid - STRIKE, 0.0) if kind == "call" else \
        np.maximum(STRIKE - amer.grid, 0.0)
    assert np.all(amer.values >= euro.values - 1e-9 * STRIKE)
    assert np.all(amer.values >= intrinsic - 1e-9 * STRIKE)


def test_negative_rate_makes_early_call_exercise_pay():
    euro = price_european("call", STRIKE, -0.9, VOL, EXPIRY, intervals=400, steps=400)
    amer = price_american("call", STRIKE, -0.9, VOL, EXPIRY, intervals=400, steps=400)
    assert euro.value_at(STRIKE) < 1e-3
    assert amer.value_at(STRIKE) > 0.5
    assert not np.all(np.isnan(amer.exercise_boundary))
    # a call is exercised above its boundary, so the boundary is the lowest
    # on-floor node, not the mesh end s_max = 4K; it rises with the time to
    # expiry, though not level by level
    for rate in (-0.05, -0.3):
        boundary = price_american("call", STRIKE, rate, 0.3, EXPIRY, intervals=400,
                                  steps=20).exercise_boundary
        assert np.all(np.isfinite(boundary)), rate
        assert np.all((boundary > STRIKE) & (boundary < 2.0 * STRIKE)), (rate, boundary)
        assert boundary[-1] > boundary[0], (rate, boundary)


def test_a_rate_far_above_zero_reports_no_spurious_call_exercise():
    # without dividends early exercise of a call pays only at r < 0, so at
    # r = 700 no level has an exercise boundary, however the values round
    res = price_american("call", STRIKE, 700.0, VOL, 2.0, intervals=200, steps=200)
    assert np.all(np.isnan(res.exercise_boundary))
    assert res.value_at(STRIKE) == pytest.approx(STRIKE, rel=1e-12)


# Strikes near both ends of the float range and at 1, on 1, 2, 49 and 399
# interior nodes.  A level's boundary is the lifted node nearest the strike,
# read off the projection itself, so it scales with the strike and never
# falls on a mesh end, whose value is the floor or more.
@pytest.mark.parametrize("intervals, steps", [(2, 20), (3, 20), (50, 20), (400, 40)])
@pytest.mark.parametrize("strike", [1e-9, 1.0, 1e300])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_exercise_boundary_scales_with_the_strike_and_is_never_a_mesh_end(
        kind, strike, intervals, steps):
    def price(strike, rate):
        return price_american(kind, strike, rate, VOL, EXPIRY, intervals=intervals, steps=steps)

    # at r = 0 early exercise never pays, so no level has a boundary
    assert np.all(np.isnan(price(strike, 0.0).exercise_boundary))
    rate = 0.05 if kind == "put" else -0.05
    res = price(strike, rate)
    boundary = res.exercise_boundary
    np.testing.assert_allclose(boundary / strike, price(1.0, rate).exercise_boundary,
                               rtol=1e-12, atol=0.0)
    finite = np.isfinite(boundary)
    if intervals >= 50:
        assert finite.any()
    # mapped back to the mesh, each finite level lies at least half a cell
    # inside both ends
    x = boundary[finite] * np.exp(rate * (res.exercise_times[finite] - EXPIRY))
    h = res.grid[1] - res.grid[0]
    assert np.all((x > 0.5 * h) & (x < res.grid[-1] - 0.5 * h)), x / h


# The boundary at four remaining times of a 400x400 grid against a
# Cox-Ross-Rubinstein lattice with 4000 steps a year.  The lattice runs two
# years, so that its layers at tau <= 1 span the boundary.  The tolerance,
# 2 % of the strike, was fixed before the comparison was first run.
@pytest.mark.parametrize("kind, rate, vol", [("put", 0.05, 0.2), ("call", -0.3, 0.3)])
def test_exercise_boundary_matches_a_lattice(kind, rate, vol):
    res = price_american(kind, STRIKE, rate, vol, EXPIRY, intervals=400, steps=400)
    _, taus, lattice = crr_american(kind, STRIKE, STRIKE, rate, vol, 2.0 * EXPIRY, 8000)
    for tau in (0.25, 0.5, 0.75, 1.0):
        level, layer = round(tau * 400) - 1, round((2.0 - tau) * 4000)
        assert res.exercise_times[level] == pytest.approx(tau, abs=1e-12)
        assert taus[layer] == pytest.approx(tau, abs=1e-12)
        assert abs(res.exercise_boundary[level] - lattice[layer]) <= 0.02 * STRIKE, tau


def test_volatility_whose_clock_underflows_prices_the_discounted_intrinsic_value():
    for price in (price_european, price_american):
        res = price("call", STRIKE, RATE, 1e-200, EXPIRY, intervals=50, steps=50)
        want = np.maximum(res.grid - STRIKE * math.exp(-RATE * EXPIRY), 0.0)
        np.testing.assert_allclose(res.values, want, rtol=1e-14, atol=1e-12)


# Worst |error| / strike at spot = strike on a fixed sample, per grid size:
# six European requests (half of them under VolatilityDecay) against the
# closed form on the effective volatility, and two American puts against a
# 4000-step lattice.  The bounds are the errors of the march in S with the
# drift and reaction terms, which the variance clock replaced, on the same
# sample: (european, american put).  The clock measured 1.344e-4, 5.771e-5,
# 7.861e-6, 2.470e-6 and 1.070e-4, 9.188e-5, 3.369e-5, 1.802e-5.
ACCURACY_BOUNDS = {
    100: (5.505e-4, 3.521e-4),
    200: (1.346e-4, 1.196e-4),
    400: (3.313e-5, 4.582e-5),
    800: (1.533e-5, 2.053e-5),
}


def accuracy_sample(label, intervals, n_euro, expiry, decay):
    # n_euro Europeans, every other one under VolatilityDecay, and two
    # American puts, drawn from a generator seeded "{label}:{intervals}"
    rng = random.Random(f"{label}:{intervals}")
    euro = [dict(kind=rng.choice(("call", "put")), strike=round(rng.uniform(50.0, 150.0), 4),
                 rate=round(rng.uniform(0.01, 0.08), 5), expiry=round(rng.uniform(*expiry), 4),
                 sigma0=round(rng.uniform(0.15, 0.45), 4),
                 decay=round(rng.uniform(*decay), 4) if i % 2 else None)
            for i in range(n_euro)]
    amer = [dict(strike=round(rng.uniform(50.0, 150.0), 4), rate=round(rng.uniform(0.01, 0.08), 5),
                 expiry=round(rng.uniform(*expiry), 4), sigma0=round(rng.uniform(0.15, 0.45), 4))
            for _ in range(2)]
    return euro, amer


def worst_errors(euro, amer, intervals):
    # worst European |error|/K against the closed form, and worst American
    # put |error|/K against a 4000-step lattice
    worst_euro = 0.0
    for r in euro:
        vol = r["sigma0"] if r["decay"] is None else VolatilityDecay(r["sigma0"], r["decay"])
        got = price_european(r["kind"], r["strike"], r["rate"], vol, r["expiry"],
                             intervals=intervals, steps=intervals).value_at(r["strike"])
        flat = r["sigma0"] if r["decay"] is None else \
            effective_vol(r["sigma0"], r["decay"], r["expiry"])
        want = bs_price(r["kind"], r["strike"], r["strike"], r["rate"], flat, r["expiry"])
        worst_euro = max(worst_euro, abs(got - want) / r["strike"])
    worst_amer = 0.0
    for r in amer:
        got = price_american("put", r["strike"], r["rate"], r["sigma0"], r["expiry"],
                             intervals=intervals, steps=intervals).value_at(r["strike"])
        want = binomial_american_put(r["strike"], r["strike"], r["rate"], r["sigma0"],
                                     r["expiry"], steps=4000)
        worst_amer = max(worst_amer, abs(got - want) / r["strike"])
    return worst_euro, worst_amer


@pytest.mark.parametrize("intervals", list(ACCURACY_BOUNDS))
def test_accuracy_is_no_worse_than_the_march_in_s(intervals):
    sample = accuracy_sample("variance-clock", intervals, 6, (0.25, 2.0), (0.1, 1.5))
    worst_euro, worst_amer = worst_errors(*sample, intervals)
    assert worst_euro <= ACCURACY_BOUNDS[intervals][0]
    assert worst_amer <= ACCURACY_BOUNDS[intervals][1]


# Long-dated requests, expiry 10 to 30 years, in the same form.  The
# clock's payoff at T = 0 has its strike at K e^{-rE}, up to e^{rE} (11 at
# r = 0.08, E = 30) times nearer x = 0, so fewer cells lie under it than
# lay under K in the march in S.  Bounds are the march in S's worst errors
# on the same sample; the clock measured 8.941e-3, 1.917e-3, 1.075e-5,
# 2.686e-4 and 8.672e-3, 3.259e-3, 1.157e-2, 1.595e-3.  The largest errors
# on both sides come from truncating at s_max = 4K where vol * sqrt(E)
# nears 2.  The bound is on the worst request, not on each one.
LONG_DATED_BOUNDS = {
    100: (1.819e-2, 1.858e-2),
    200: (4.946e-3, 8.816e-3),
    400: (6.505e-4, 2.202e-2),
    800: (1.504e-3, 5.208e-3),
}


@pytest.mark.parametrize("intervals", list(LONG_DATED_BOUNDS))
def test_long_dated_accuracy_is_no_worse_than_the_march_in_s(intervals):
    sample = accuracy_sample("long-dated", intervals, 4, (10.0, 30.0), (0.02, 0.2))
    worst_euro, worst_amer = worst_errors(*sample, intervals)
    assert worst_euro <= LONG_DATED_BOUNDS[intervals][0]
    assert worst_amer <= LONG_DATED_BOUNDS[intervals][1]


# ------------------------------------- march against a dense reference #
#
# The reference assembles the march's rows into a dense matrix and solves
# each step densely, so it shares no factorization or in-place logic with
# the march.  Given each level's floor it also returns, per level, the mask
# of nodes the floor lifts: a positive floor above the value the step
# produced.


def reference_march(rows, U, k, implicit_steps, g0s, g1s, floor=None):
    # implicit_steps fully implicit steps, then Crank-Nicolson; floor(n) is
    # level n's floor, and level 0 is the initial state
    thetas = [1.0] * implicit_steps + [0.5] * (len(g0s) - implicit_steps)
    sub, dia, sup = rows
    A = np.diag(dia) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    left, right = sub[0], sup[-1]
    U = np.array(U, dtype=float)
    if floor is not None:
        U = np.maximum(U, floor(0))
    masks = []
    for n, theta in enumerate(thetas):
        g0, g1 = g0s[n], g1s[n]
        explicit = A @ U[1:-1]
        explicit[0] += left * U[0]
        explicit[-1] += right * U[-1]
        rhs = U[1:-1] + k * (1.0 - theta) * explicit
        rhs[0] += k * theta * left * g0
        rhs[-1] += k * theta * right * g1
        inner = np.linalg.solve(np.eye(U.size - 2) - k * theta * A, rhs)
        U = np.concatenate([[g0], inner, [g1]])
        if floor is not None:
            lower = floor(n + 1)
            masks.append((lower > 0.0) & (lower - U > 0.0))
            U = np.maximum(U, lower)
    return U, masks


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def bs_reference(kind, vol, american, intervals=60, steps=60):
    # the pricing equation on the variance clock, written out independently:
    # x = S e^{r(tau-E)}, v = e^{r(tau-E)} u and v_T = x^2 v_xx, marched in
    # T / m with m = T(E) / E on the fitted stencil with zero drift, the
    # first min(4, steps) steps implicit; levels sit at equal steps of the
    # clock.  Returns the values, the level times and each level's exercise
    # node in x: the lifted node nearest the strike, where early exercise
    # pays at all, which without dividends is a put at r > 0 or a call at
    # r < 0
    s_max = 4.0 * STRIKE
    if isinstance(vol, VolatilityDecay):
        sigma0, decay = vol.sigma0, vol.decay
        m = sigma0**2 * (1.0 - np.exp(-2.0 * decay * EXPIRY)) / (4.0 * decay) / EXPIRY
        fraction = np.arange(1, steps) / steps * (1.0 - np.exp(-2.0 * decay * EXPIRY))
        times = list(-np.log(1.0 - fraction) / (2.0 * decay)) + [EXPIRY]
    else:
        m = 0.5 * vol**2
        times = [(n + 1) * (EXPIRY / steps) for n in range(steps - 1)] + [EXPIRY]
    scale = lambda tau: math.exp(RATE * (tau - EXPIRY))

    def payoff(x, strike):
        return np.maximum(x - strike, 0.0) if kind == "call" else np.maximum(strike - x, 0.0)

    ends = [float(payoff(end, STRIKE * scale(0.0))) for end in (0.0, s_max)]
    if american:
        g0 = lambda tau: max(ends[0], float(payoff(0.0, STRIKE * scale(tau))))
        g1 = lambda tau: max(ends[1], float(payoff(s_max, STRIKE * scale(tau))))
    else:
        g0, g1 = (lambda tau: ends[0]), (lambda tau: ends[1])
    prob = problem(lambda x: payoff(x, STRIKE * scale(0.0)), EXPIRY, sigma=lambda x: m * x * x,
                   g0=g0, g1=g1)
    mesh = Mesh1D(0.0, s_max, intervals + 1)
    x, levels = mesh.points(), [0.0, *times]

    def floor(n):
        return payoff(x, STRIKE * scale(levels[n]))
    values, masks = reference_march(**march_args(prob, mesh, steps, min(4, steps), times),
                                    floor=floor if american else None)
    nearest = np.min if kind == "call" else np.max
    pays = RATE < 0.0 if kind == "call" else RATE > 0.0
    nodes = np.array([nearest(x[mask]) if pays and mask.any() else math.nan for mask in masks])
    return values, (np.array(times) if american else None), nodes


def convection_problem():
    # strong drift and a reaction, neither of which the heat problem has
    return problem(lambda x: x * (1.0 - x), 1.0, sigma=lambda x: 0.1 + x * x,
                   mu=lambda x: 5.0 * (1.0 - 2.0 * x), b=-0.5)


# 2 to 4 intervals leave 1 to 3 interior rows; one row is a system the
# symmetric factorization pads
@pytest.mark.parametrize("intervals", [60, 2, 3, 4])
@pytest.mark.parametrize("vol", [VOL, VolatilityDecay(0.3, 0.8)], ids=["const", "decay"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_pricers_match_the_dense_reference_march(kind, vol, intervals):
    euro = price_european(kind, STRIKE, RATE, vol, EXPIRY, intervals=intervals, steps=60)
    assert_close(euro.values, bs_reference(kind, vol, american=False, intervals=intervals)[0])
    amer = price_american(kind, STRIKE, RATE, vol, EXPIRY, intervals=intervals, steps=60)
    values, times, nodes = bs_reference(kind, vol, american=True, intervals=intervals)
    assert_close(amer.values, values)
    if isinstance(vol, VolatilityDecay):
        # the reference's level times come from an independent closed form
        np.testing.assert_allclose(amer.exercise_times, times, rtol=1e-12, atol=0.0)
    else:
        np.testing.assert_array_equal(amer.exercise_times, np.arange(1, 61) * (EXPIRY / 60))
    # the same exercise node at every level, mapped back to S at the pricer's own times
    np.testing.assert_array_equal(amer.exercise_boundary,
                                  nodes * np.exp(RATE * (EXPIRY - amer.exercise_times)))


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("american", [False, True], ids=["european", "american"])
def test_a_march_of_fewer_than_four_steps_is_all_implicit(american, steps):
    # the implicit start is min(4, steps) steps: every step of a short march
    price = price_american if american else price_european
    got = price("put", STRIKE, RATE, VOL, EXPIRY, intervals=40, steps=steps)
    assert_close(got.values, bs_reference("put", VOL, american, intervals=40, steps=steps)[0])


def clock_march_args(m, n_rows, theta):
    # one step of the vanilla pricers' march, implicit at theta = 1 and
    # Crank-Nicolson at 1/2: rows m x**2 / h**2 (1, -2, 1)
    # of A on n_rows interior nodes of [0, 400], given to the march scaled
    # by the weights (h / x)**2, from a random state to boundary values 7
    # and 300; also returns A itself
    mesh = Mesh1D(0.0, 400.0, n_rows + 2)
    x, h = mesh.points(), mesh.h
    xi = x[1:-1]
    a = m * xi * xi / h ** 2
    A = np.diag(-(a + a)) + np.diag(a[1:], -1) + np.diag(a[:-1], 1)
    U = np.random.default_rng(n_rows).uniform(0.0, 100.0, x.size)
    rows = tuple(np.full(n_rows, c) for c in (m, -(m + m), m))
    return dict(rows=rows, U=U, k=0.01, implicit_steps=int(theta == 1.0), g0s=[7.0], g1s=[300.0],
                weights=(h / xi) ** 2), A, a


@pytest.mark.parametrize("theta", [1.0, 0.5])
@pytest.mark.parametrize("m", [0.0, 5e-324, 0.02], ids=["zero", "subnormal", "ordinary"])
@pytest.mark.parametrize("n_rows", [1, 2, 3, 799])
def test_symmetric_step_matches_a_dense_solve_of_the_unscaled_system(n_rows, m, theta):
    args, A, a = clock_march_args(m, n_rows, theta)
    U, k = args["U"], args["k"]
    rhs = U[1:-1] + k * (1.0 - theta) * (A @ U[1:-1])
    rhs[0] += k * a[0] * ((1.0 - theta) * U[0] + theta * 7.0)
    rhs[-1] += k * a[-1] * ((1.0 - theta) * U[-1] + theta * 300.0)
    want = np.concatenate([[7.0], np.linalg.solve(np.eye(n_rows) - k * theta * A, rhs), [300.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pricing._march(**dict(args, U=U.copy()))
    assert_close(got, want)


@pytest.mark.parametrize("symmetric", [True, False], ids=["ldl", "lu"])
def test_non_finite_rows_raise_before_the_first_step(symmetric):
    # the march factors every step matrix it takes before it steps, so rows
    # that are not finite raise there, even when the first right-hand side
    # is not finite either, and no level is reached
    args, _, _ = clock_march_args(0.02, 5, 1.0)
    if not symmetric:
        del args["weights"]
    args["rows"][1][2] = math.inf
    args["U"][3] = math.nan
    args.update(implicit_steps=1, g0s=[7.0] * 3, g1s=[300.0] * 3)
    before = args["U"].copy()
    levels = []
    with pytest.raises(ValueError, match="tridiagonal coefficients must be finite"):
        pricing._march(**args, project=lambda n, V: levels.append(n))
    assert levels == []
    np.testing.assert_array_equal(args["U"], before)


def test_a_crank_nicolson_matrix_that_fails_to_factor_raises_before_the_implicit_steps():
    # one interior row with k = 1/2 and A = (4): I - k A / 2 is exactly
    # singular while I - k A is not
    levels = []
    with pytest.raises(NumericalError, match="singular tridiagonal system"):
        pricing._march((np.ones(1), np.full(1, 4.0), np.ones(1)), np.zeros(3), 0.5, 2,
                       [0.0] * 4, [0.0] * 4, project=lambda n, V: levels.append(n))
    assert levels == []


@pytest.mark.parametrize("prob", [heat_problem(0.1), convection_problem()],
                         ids=["heat", "convection"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_march_matches_the_dense_reference_march(prob, theta):
    mesh = Mesh1D(0.0, 1.0, 41)
    got = march(prob, mesh, 30, theta=theta)
    implicit_steps = 30 if theta == 1.0 else 0
    assert_close(got, reference_march(**march_args(prob, mesh, 30, implicit_steps))[0])


def moving_boundary_problem():
    # the convection problem with boundary values that move with tau
    return dict(convection_problem(), g0=lambda tau: math.sin(3.0 * tau),
                g1=lambda tau: tau * tau - 0.5 * tau)


@pytest.mark.parametrize("implicit_steps", [0, 1, 4, 29, 30])
def test_rannacher_start_matches_the_dense_reference_march(implicit_steps):
    # implicit steps, then Crank-Nicolson from the boundary values the
    # implicit steps left, on boundaries that move with tau; at 0 and 30
    # the march factors only one kind of step
    prob = moving_boundary_problem()
    mesh = Mesh1D(0.0, 1.0, 41)
    assert_close(pricing._march(**march_args(prob, mesh, 30, implicit_steps)),
                 reference_march(**march_args(prob, mesh, 30, implicit_steps))[0])


@pytest.fixture
def calls(monkeypatch):
    # calls of pricing's fitted_stencil, and of _factor_tridiagonal keyed by
    # the factorization it takes
    counts = {}

    def tally(key):
        counts[key] = counts.get(key, 0) + 1

    def stencil(*args, inner=pricing.fitted_stencil):
        tally("fitted_stencil")
        return inner(*args)

    def factor(lower, diag, upper, symmetric=False, inner=pricing._factor_tridiagonal):
        tally("LDL^T" if symmetric else "LU")
        return inner(lower, diag, upper, symmetric)

    monkeypatch.setattr(pricing, "fitted_stencil", stencil)
    monkeypatch.setattr(pricing, "_factor_tridiagonal", factor)
    return counts


@pytest.mark.parametrize("steps, distinct_thetas", [(150, 2), (3, 1)])
def test_only_the_mortality_leg_assembles_a_stencil_and_each_theta_is_factored_once(
        calls, steps, distinct_thetas):
    # the vanilla pricers march plain differences on the variance clock,
    # decaying volatility included, and factor their symmetric step matrices
    # by LDL^T; the mortality leg assembles its fitted rows once and factors
    # by pivoted LU.  Every pricer factors one step matrix per distinct theta
    for price in (price_european, price_american):
        for vol in (VOL, VolatilityDecay(VOL, 0.5)):
            calls.clear()
            price("put", STRIKE, RATE, vol, EXPIRY, intervals=50, steps=steps)
            assert calls == {"LDL^T": distinct_thetas}
    calls.clear()
    price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), LifeTable(90, [0.5, 1.0]),
                           90, 0.2, 0.05, 10, RngStream(1), intervals=50, steps=steps)
    assert calls == {"fitted_stencil": 1, "LU": distinct_thetas}


def bits(*arrays):
    # sha256 of the arrays' float64 bytes, None skipped
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# Digests of (values, exercise_boundary) under VolatilityDecay(0.3, 0.8), by
# (kind, style, intervals, steps): 68, 69 and 70 steps on 60 intervals and
# 37 steps on 800, and 3, 4 and 5 steps on 60 intervals, where a march of
# implicit steps alone gives way to four implicit steps followed by
# Crank-Nicolson.  They pin the bits of the march on the variance clock,
# each step solved as the symmetric scaled system; its accuracy is pinned by
# the closed-form and lattice checks above.
DECAY_BITS = {
    ('call', 'european', 60, 68): '3dba347d07915a92bfdd521d4c11c143cddcf052460cf4a137b97dd766b86ea5',
    ('call', 'american', 60, 68): 'd82a340768f8ebffa9f8421c921f0e4f96e7ee6fda64a17792e1614d84c1c1a6',
    ('put', 'european', 60, 68): '4b06c4df80c13c1baae7af91f7f064278daf5a31ebacdf1076cdd712e103f58a',
    ('put', 'american', 60, 68): '4ae23fe71565d6c4aaf1d212f5e26ae2e20395b51245665c877c92aab7a3d7b1',
    ('call', 'european', 60, 69): 'b08bdf359b8ec47afe7d7d1028a719cbc0117ca862b67dcd68792dd0718dfb28',
    ('call', 'american', 60, 69): '2a46de79ffef2644695f2c27ce8a44419fddd515f8df45f77bba8c4d2e9977ee',
    ('put', 'european', 60, 69): 'b701357fb106c77b7a8c49babf1ba9f8452e228fbda8cad73ab1b228a797ec6f',
    ('put', 'american', 60, 69): '02dd0f8ef76ef239bc2e5acdfeba0e57517d66189ce36410aaae2d4c55cd72f0',
    ('call', 'european', 60, 70): '2cc105400270ad649a8f433fc54ef8f6f83df634942e17da2431bcb0f59c0dc1',
    ('call', 'american', 60, 70): 'b38f851bcfb65d80112a88742cf2928c28afafc5b118927b52e3f5b23994a901',
    ('put', 'european', 60, 70): '7878d7a1109f991e159b09a68bde2f101cb3d13f4513ed1b08280b8072cb6957',
    ('put', 'american', 60, 70): 'bcefea2a3d591a65f0e9d28d6c3b264ecb3386c4b4fcea039fd61a724c918b83',
    ('call', 'european', 800, 37): '749ae4e29e9d7888b9e0854fb1f426b457dd8db37c466bffc1b27eb7069c2cf0',
    ('call', 'american', 800, 37): 'c6953e16162197b4b5cc3fe4ceec41c71e103c65d020ccaea15bfb7f93d32069',
    ('put', 'european', 800, 37): '65a90ddedb755a65e8c716abc1f90943d59c95590dabe1154f23fb1a00d4f5df',
    ('put', 'american', 800, 37): 'cd2d779b955f2eb73a1bd514b94e140b91c399be348e834d9a4ae4837e4f11c0',
    ('call', 'european', 60, 3): '7166fa5424ddb100485c660fd66a34aa26bcbf3d34863c9e73bdbf76f7db0b91',
    ('call', 'american', 60, 3): 'd3ede55ec620b0ce6d33cc9ffc529f9d27226ebe3ea53a8a02db8340dbdcecad',
    ('put', 'european', 60, 3): '73f1bd5ebd8bea55172a5a57c2adf758af5e56e95386a1b357a2d4c1ccd5ae9e',
    ('put', 'american', 60, 3): '51a2d7e46baa2451f17dbb6bf0cbf113cd7a82f715cfd188e3aacf6b1317483d',
    ('call', 'european', 60, 4): '3ba8dadd21ac704a102c6cf3b9a73f4138a287cd14c3fa586cb9f5c1a07437e5',
    ('call', 'american', 60, 4): 'b4e5534b35718bf49843b3eab813ac487484043939f24c3510bdbffdb8200a72',
    ('put', 'european', 60, 4): 'dc633c88da9d76a2b255b35c23355a7557398ed01ed4caab8e08c47ee240ef54',
    ('put', 'american', 60, 4): 'f83ef27266fcdbfd64250a1939fd356b3c10947fe6226a772ccc8264c14a6e1e',
    ('call', 'european', 60, 5): 'a909dc7f2bf4a10511ff78dc1cc80ef9028ee8cfcf5cdbca6272c8087fa0ef26',
    ('call', 'american', 60, 5): '1acf6b4229eb8adc1340d836ddc1d63349ce7cf69b9e056f8f10d66902420773',
    ('put', 'european', 60, 5): '9ef270d25e5a32ac4377f9c7c71910fb7960ebe1637dc01dcf4f97a6a41a75a9',
    ('put', 'american', 60, 5): '1a7b2be9dfd93a912eb461fe2b40b8546feccc96305872d251e09b855c26b12c',
}


@pytest.mark.parametrize("case", list(DECAY_BITS), ids=lambda c: "-".join(map(str, c)))
def test_decaying_volatility_keeps_its_bits(case):
    kind, style, intervals, steps = case
    price = price_european if style == "european" else price_american
    res = price(kind, STRIKE, RATE, VolatilityDecay(0.3, 0.8), EXPIRY, intervals=intervals,
                steps=steps)
    assert bits(res.values, res.exercise_boundary) == DECAY_BITS[case]


# The same digests at the constant volatility VOL, by (kind, style,
# intervals, steps).
CONST_BITS = {
    ('call', 'european', 60, 60): '7e735f681f2538a37f78c7f5e4b6376148580958ceacdf4f33ba495d61cfabf6',
    ('call', 'american', 60, 60): '89acaed3e1a640cffb9c4467f480ff54e7b84805dee07bddc4c23a2f82a3be37',
    ('put', 'european', 60, 60): '46d3142a9be1fd55ff0922040af27a6079f07277afb56b0d9b104af6face681f',
    ('put', 'american', 60, 60): '0becbd22cae71cef0553e82bb54231337eb1c3fd3f4a67834ca9930bb5cf1a10',
    ('call', 'european', 800, 37): 'a8a600a1f9f4f26681f99b675be53f7f7da34af186a79350bf51cd3a3d0174c9',
    ('call', 'american', 800, 37): '4df555f552a4932cd4f2c559022d850c86542e714d7fc6919b86f7eda85b0718',
    ('put', 'european', 800, 37): 'd229c43515289e38624b58bc7ec3d8f678bc64cd55a1adb985ebf3a521b3b983',
    ('put', 'american', 800, 37): 'd06d190586c3ced955358570e590570bd59a1a63a2eb46e6d3d2cefabbd550f7',
    # one interior row, which the symmetric factorization pads, and two,
    # which it does not
    ('call', 'european', 2, 1): '2d3b75706ae7f1472bdb0b74ce4a4e34095a36679cc5bb73e3b33a28195b2cd1',
    ('call', 'american', 2, 1): '10508dbd4f266755e66ac4c23e7ec19e67180ca8734d3fab4408f28dd20b8410',
    ('put', 'european', 2, 1): 'e1a105d6cf77782f2637e42c83a671cfc8bf543fb012febf2b232004497637d5',
    ('put', 'american', 2, 1): '00a7dab644e671f274af84b45cada539d92b49eb28aaaabca1014d64873146ac',
    ('call', 'european', 3, 2): 'e28acf53e2597d2f40d0c2aa14b1ef5d2ec5df9895b36e8c278be8deddee8bc9',
    ('call', 'american', 3, 2): '8b160d4ce5feb242bb1e323f1004f9a8300691120b02de652cf9be84269d0a9a',
    ('put', 'european', 3, 2): '486beea76c25782b5ccc7787a99db8398686949db555bbc8a0597b701e8f94ac',
    ('put', 'american', 3, 2): 'ff000a44b0870bb616b76b3156d088d37604ac28aca735987c0f35f4bbb0d65e',
    # all implicit, then four implicit steps and one or none of Crank-Nicolson
    ('call', 'european', 60, 3): '18e5e02972badf499ba05b4ea77fe07ddade2dbe0b61c6d5fc57d28acf30c096',
    ('call', 'american', 60, 3): '2138e1217c55161f4d41fa0d83205bc9a614ec4810061e586accc98ae8f07e06',
    ('put', 'european', 60, 3): '3eb753c7d76ebfefc6f391bbd68d71f5db7ec47c2e6623178faa10dedfb63cc2',
    ('put', 'american', 60, 3): '067f4f40b28cffaa1b265656fdc9a1dc0773f133d3d6c848435bca01d46215c2',
    ('call', 'european', 60, 4): '317ee4e4abb7bdae16be12e1b82234ee1c657b141aa90fc6a3d4f385b2210e9c',
    ('call', 'american', 60, 4): 'fc25b3337b811c83453d25516141196879c01f0ed0a334e39f12c4d1e397a2a7',
    ('put', 'european', 60, 4): '36e7ad993377bc25b8fd4b76980505627a271229a4545fe4801fccb096ba5901',
    ('put', 'american', 60, 4): '18fdde6a974201ba2284b1594ba1e6412342df111d5bc509d26dc88badbd6950',
    ('call', 'european', 60, 5): '8b3a14aed1fbaa7f10bdedef38e467134dd15e223bedd588503052db54b5ef36',
    ('call', 'american', 60, 5): '28d10e08c1de6ee15468e3bc4d43902cc57cc48461de01c53f039bd36f706fc3',
    ('put', 'european', 60, 5): '79dea78b6bb2d6daae0d528f18ae7d3ea7ba9185bdc8feaa6d477ea4059dfc0c',
    ('put', 'american', 60, 5): '47e4a253efd077565bd8565c50264aa41b684789717b9ee740f587779bea300b',
}


@pytest.mark.parametrize("case", list(CONST_BITS), ids=lambda c: "-".join(map(str, c)))
def test_constant_volatility_keeps_its_bits(case):
    kind, style, intervals, steps = case
    price = price_european if style == "european" else price_american
    res = price(kind, STRIKE, RATE, VOL, EXPIRY, intervals=intervals, steps=steps)
    assert bits(res.values, res.exercise_boundary) == CONST_BITS[case]


# Digests of the American values alone, boundary left out, at a negative
# rate, where early exercise of a call pays, and at zero, by (kind, rate,
# intervals, steps).  They pin the projection's values however the
# boundary is read off them.
AMERICAN_VALUE_BITS = {
    ('call', -0.3, 60, 60): '375569d326ce2798932c64afa732702a0ffd4cf55530cdf824ae186e77d15581',
    ('call', -0.3, 3, 2): '4f80e4bd7ac83e806a1ff842cda2fa166643fd027cf37e04cc43fba3ac698511',
    ('put', -0.3, 60, 60): 'acbbc541231555b2bf35a94eda8732c37ca3917b2181b1767672ec472ca70837',
    ('put', -0.3, 3, 2): '175728e0ccc26e4e4007009a37cc06a44a3459e218ad517c1727ba594f9a68e9',
    ('call', 0.0, 60, 60): 'fd2049df08baf98466e811f7aa0355ffe1fbe0db1f3f0404f633c667b82a2b0f',
    ('call', 0.0, 3, 2): 'c4f2ed207cadfbdcd94736e3b12e1265bd2a64af2c36c1db5fd2f25103869132',
    ('put', 0.0, 60, 60): 'b097d71a27b31cbcf4d17e596c80f283ab627d6800397cb216db1971a8516798',
    ('put', 0.0, 3, 2): 'f6d0dd87eb88f04243b767f721de08cc0eac76e5c4a1b62cfe3e5d3d92d97c50',
}


@pytest.mark.parametrize("case", list(AMERICAN_VALUE_BITS), ids=lambda c: "-".join(map(str, c)))
def test_american_values_keep_their_bits(case):
    kind, rate, intervals, steps = case
    res = price_american(kind, STRIKE, rate, VOL, EXPIRY, intervals=intervals, steps=steps)
    assert bits(res.values) == AMERICAN_VALUE_BITS[case]


# Digests of American (values, exercise_times, exercise_boundary) where each
# level's floor splits the mesh at its edges, by (kind, rate, strike,
# intervals, steps), at volatility VOL and expiry EXPIRY.  At r = 0 the
# moving strike stays at 100, a node of 400 intervals on [0, 400]; strikes
# of 1e-9 and 1e300 put each level's floor near the ends of the float
# range, and 2 or 3 intervals leave one or two interior nodes.  At r = 12
# the put's levels with tau below about 0.79 have a strike K e^{r(tau-E)}
# under the first interior node, 8, so no node is lifted and their
# boundary reads NaN.
AMERICAN_EDGE_BITS = {
    ('call', 12.0, 100.0, 50, 20): '51baeda460bf9317bedaa0daa63894ffdd2c6e2bd2322a968fa3752016babf0c',
    ('put', 12.0, 100.0, 50, 20): 'f501f9e2359475189751ae92ee7eb156d21b1af54fd557a1fdf990ad4c60f332',
    ('call', 0.0, 100.0, 400, 40): '911f901f01ed0bba76a598ffa4030cff640a9d96f452fdf8a2c91460c574bf1e',
    ('put', 0.0, 100.0, 400, 40): '6f758103fdd2f787522f46de735d67b2b13da047116fc54a9df4c445111c09e4',
    ('call', -0.3, 1e-09, 2, 20): '844e33763b25873a482e4603ffdbd0434e2a698bf08ac3119905f342270c6c81',
    ('put', -0.3, 1e-09, 2, 20): 'fc372b26a7fa1e55ff747526356fa5bc9fdb0d47580ad64c5b6af6fbcb59ae26',
    ('call', -0.3, 1e-09, 3, 20): 'b71a76d34773b06f57099d3df61422dbc2667e18375683569c1d07d3fc54ad60',
    ('put', -0.3, 1e-09, 3, 20): 'c16cbb1e0d61eda026ddedb2f5735cce027c030db0ec503405ddee627cfbe677',
    ('call', -0.3, 1e-09, 50, 20): '0df28ef17af6a749d424421d27c0a5851cf43c06c51566d33dd1ba8004ddb89c',
    ('put', -0.3, 1e-09, 50, 20): '92a23c183cb5f6cf8341ce98c1e978e65418899743e50ebbd838613341c7b334',
    ('call', -0.3, 100.0, 2, 20): '6e4e3e3ce0f6e7af797eed97d7138939e3c42871126a1efb27244a60f34b9709',
    ('put', -0.3, 100.0, 2, 20): '8f607758616762e6477f393eb09a2fd7c644df5f91f241401b65ea6b72e811fb',
    ('call', -0.3, 100.0, 3, 20): 'd0f2142473c2d058d7834494f9029a5c9c8ad3f0c5f72c581988f0c03491da2b',
    ('put', -0.3, 100.0, 3, 20): '7162735a87cc356183f362a534b9b0fd7230ae4697202d4acceb022586768f78',
    ('call', -0.3, 100.0, 50, 20): '0b699d9517b2bd09f80ed3ab42cc667d53a1a529fda60b9a9e55e4bcbddcce50',
    ('put', -0.3, 100.0, 50, 20): 'd66166a5f772227d55d5a00bf9a0011acb8af4f88769229f7d423a5675b546ff',
    ('call', -0.3, 1e+300, 2, 20): 'ab67eb49183039ad2ad1051df1fcb87fe8dea224ce2b59b0a5ad4002978e5244',
    ('put', -0.3, 1e+300, 2, 20): '8380c1182dff7b7aa6211b0ffa2907ec733c675733591d4c4130b08b75ed18a6',
    ('call', -0.3, 1e+300, 3, 20): 'b772266857935b85d5b0fff820b9e9bef444eab8266dba2671f774ad30b22282',
    ('put', -0.3, 1e+300, 3, 20): '85c8eec10b9f114f394022101a1bdca2a3c3adbb846d1c5d72b6515cde04c23e',
    ('call', -0.3, 1e+300, 50, 20): '6fd94db11ff756bdd6554fa0140be63a9f70cea55f56ae462f3d1529db78e592',
    ('put', -0.3, 1e+300, 50, 20): 'b9cc80038221be1114e4e89f745c7d5f8046da498a20606dc89a0be134c784ab',
    ('call', 0.0, 1e-09, 2, 20): '1130425d0fa36184cfd79e249354b72fedb0dd243da7818baccdb918c0e2dbe9',
    ('put', 0.0, 1e-09, 2, 20): '4b3fbbc5e4a471d32b818ed2b4ef8ca78cd5fef67545271f1ce5613d703ff301',
    ('call', 0.0, 1e-09, 3, 20): 'bf2f68feee01bd499ca609ce532c57541f4d87ae25143a5751d976aff050a10b',
    ('put', 0.0, 1e-09, 3, 20): 'f875eee4efe1083c2f2599be2956cecaa01309f4f1230e99b56a0cd48659b105',
    ('call', 0.0, 1e-09, 50, 20): '207cc04ca968ba6ebd559d2249553db9c089a3387e44659d03e5e8a7ff637fb2',
    ('put', 0.0, 1e-09, 50, 20): 'dc440d457f702d110f9b1fbcedc204a99016369ae40bae93ce6faaaedb365d3d',
    ('call', 0.0, 100.0, 2, 20): 'a23c0438b3bc7dd1d5e83188826e715d4c33fda11d9df960ff26392c9185ca57',
    ('put', 0.0, 100.0, 2, 20): '6d35dbeca2fd5ff12511abd0ef251b0f557212124375248bd09474b56d2a57c8',
    ('call', 0.0, 100.0, 3, 20): 'a0b49b7ec2be46676698da5ba5d6bc74afa00136026c530d46a4afac96c13db8',
    ('put', 0.0, 100.0, 3, 20): 'e21d641cfc9d946c611670ac25464f56fd417ce0c2ba406d756a49aba0ba8455',
    ('call', 0.0, 100.0, 50, 20): '5f919a86e8bd6069e05c19bdbdbe72de931c64ac134dd13d340f95c5d446e2b4',
    ('put', 0.0, 100.0, 50, 20): '754121ca8d229cf4c1036e05db8df9c68c3285f83faea0589098d671088158da',
    ('call', 0.0, 1e+300, 2, 20): 'd4388fd3c78e23e5c01e2eea84de4914e259e1d9d759eb6ab7824d0f79c8e38a',
    ('put', 0.0, 1e+300, 2, 20): '9389e86e5c7799bcdf332029b7ee8646fbb438c527181869b25203716e7ee756',
    ('call', 0.0, 1e+300, 3, 20): '6990cbfe26202e3e250ab456f24297433d3f6794c4770b3112aad9f1d6571867',
    ('put', 0.0, 1e+300, 3, 20): '5df68f016925c77aba6a8175bd78017f9434deaaad4576c0279aec03502aab67',
    ('call', 0.0, 1e+300, 50, 20): '96c0d6a320bcce0f1f0fb5b3e23ee474992bea179a0cd78063d453a6a7a5b37e',
    ('put', 0.0, 1e+300, 50, 20): '99818bb95c966e993099ca2988bd8d3c636dc5e5508aed8435dfadc8e0105d33',
    ('call', 0.05, 1e-09, 2, 20): '0398e851b025461bda744a82e432996c4cbdfef5390ee53ccdd6b185480530d8',
    ('put', 0.05, 1e-09, 2, 20): '920193951e0f4186f66847f0454263c808c5a3c9b28d4b28311604e5badf59ed',
    ('call', 0.05, 1e-09, 3, 20): '246da71af685a105618bd250763fb9babefc47bb6ade7125c9bd7b1ad78088d7',
    ('put', 0.05, 1e-09, 3, 20): '0f66c3157890e761ea82571a1d774d2421e9ff90ae22e32e983cb3b51e167257',
    ('call', 0.05, 1e-09, 50, 20): '820e7fa45243bdc2602262b67a35a54d239637868df4e2aefa201345111a82e6',
    ('put', 0.05, 1e-09, 50, 20): 'd8af059c3963c4204dfe2973599068d9c8101bedcc9a7bc6f39c8ec916af95d3',
    ('call', 0.05, 100.0, 2, 20): '15737a2e3bf2f39270ba1f3ef4d1c19a62bb49b5fc70512916285f4635f3df87',
    ('put', 0.05, 100.0, 2, 20): '2d6857867c5b0b4632220a84f5803baec58ce6fdaf891822b9e3eebbd5d2682a',
    ('call', 0.05, 100.0, 3, 20): '2aab53332dd458cd6ac464129d5c34a2cb37a8c989708441436a172660a88ce1',
    ('put', 0.05, 100.0, 3, 20): 'a9b69aa286afe5294f22465c0b017f193ba9c1ee5d257c1aab4144a0eb4d382c',
    ('call', 0.05, 100.0, 50, 20): 'b3e08399cb3ed8d406d909d84a1c08e2a979d9f5cc9f650b3ef491b6dca2697f',
    ('put', 0.05, 100.0, 50, 20): '687d49b506713fee4fbb25e153f2a1e5cd4e57681d1f84777c8d05a65f6bb5b3',
    ('call', 0.05, 1e+300, 2, 20): 'c3ded25fca9d2b391df122eefc32128585f244614693ce92dbd977fdb5a326a3',
    ('put', 0.05, 1e+300, 2, 20): 'ba96bdc4764cca3097e0b27d5e380534abf1b0681be680b23189e01379d1c925',
    ('call', 0.05, 1e+300, 3, 20): '5d9ffd3e03e735535cc17a4483bf9c42775a42f8feff2857f9e93ca8225ee463',
    ('put', 0.05, 1e+300, 3, 20): '9ef9367209033de394101138ecbb69c215758c3bedb9e03e4f4e50ad5dd514c1',
    ('call', 0.05, 1e+300, 50, 20): '922c6fdbfe5a9517643df0c7888dc81eda073463c9db910c3308954c3a181216',
    ('put', 0.05, 1e+300, 50, 20): 'f7c85fd5a7e09c6e1e1ef8807962b4dff8020a2124679448c0f6f153fcf04d16',
}


@pytest.mark.parametrize("case", list(AMERICAN_EDGE_BITS), ids=lambda c: "-".join(map(str, c)))
def test_american_edge_cases_keep_their_bits(case):
    kind, rate, strike, intervals, steps = case
    res = price_american(kind, strike, rate, VOL, EXPIRY, intervals=intervals, steps=steps)
    assert bits(res.values, res.exercise_times, res.exercise_boundary) == \
        AMERICAN_EDGE_BITS[case]


# Digests of American (values, exercise_times) alone, boundary left out, for
# every American case of DECAY_BITS, CONST_BITS and AMERICAN_EDGE_BITS, by
# (kind, rate, strike, vol, intervals, steps) at expiry EXPIRY, where vol
# "decay" stands for VolatilityDecay(0.3, 0.8).  They pin the march and its
# level times however the boundary is read off them.
AMERICAN_MARCH_BITS = {
    ('call', 0.05, 100.0, 'decay', 60, 68): '62629bed536987dd790e3146a17eb511c1625243ff17dd130c95ffab89d53822',
    ('put', 0.05, 100.0, 'decay', 60, 68): 'ed5692413debde2a91ecfd81308e02046c91f2ff3369e7884901b65ee7e00ccd',
    ('call', 0.05, 100.0, 'decay', 60, 69): '4ddd7cc862691fb9a70356a697a949b41e4190f2dc7db770c9f1548a6b1fd546',
    ('put', 0.05, 100.0, 'decay', 60, 69): '4429a9d33f34c193b6eeb2256fb444bb30601ebe78c17847c37d19a079131e9e',
    ('call', 0.05, 100.0, 'decay', 60, 70): '1de11d287674978f0f0b6233c39ab92b4e610143b948729d8a9ba0bcf2e96aa1',
    ('put', 0.05, 100.0, 'decay', 60, 70): 'f4a27caad4515e6a6004b77ea3925026cf7dc45be158877464331fcf6d2aa102',
    ('call', 0.05, 100.0, 'decay', 800, 37): '4d7adbc2cdf07f4da4db23ee6a850b2053688ee23f08815be4e56f32079ff24d',
    ('put', 0.05, 100.0, 'decay', 800, 37): '835e59e76cc2c9771d5f9e61722be3e1b0a0c900ef335e32a5afad2a414fa3ec',
    ('call', 0.05, 100.0, 0.2, 60, 60): '1a4b14ecce805c804323bffbb36e7e16f0e36f045b8f047849c8ea5ff459f603',
    ('put', 0.05, 100.0, 0.2, 60, 60): '3375936ebb756906a1cd5b30e9d2b081e652095de851a21ca4ef815a057e01d1',
    ('call', 0.05, 100.0, 0.2, 800, 37): 'e7be070fdc0540625cf0c61ec7affbdecdd5e7c78629a3c246edbd57f8e22986',
    ('put', 0.05, 100.0, 0.2, 800, 37): '24f77e51dcf06e5d65e2b38e6679c223850a2b00eeda2a148697c3520e0ec6c2',
    ('call', 0.05, 100.0, 0.2, 2, 1): '5b93b88a27136f04f41950902a399df34fcfc5b7ada3f80afda23aa1c2ce65c4',
    ('put', 0.05, 100.0, 0.2, 2, 1): '4e9f1c23ed97b7d7288fcbf5db372c5d963e10635e74378dfe2b03f5e74b74e6',
    ('call', 0.05, 100.0, 0.2, 3, 2): '9bbb33a6bc24056f44e420399ee328dda6ff38c3db20f886ccafd0b80333db1e',
    ('put', 0.05, 100.0, 0.2, 3, 2): '08b972b95453800c7c2aec4e1937d2eaa1d27d278f4a312e381ac50ea50dd778',
    ('call', 12.0, 100.0, 0.2, 50, 20): 'f6bcb97c96032e5725506a472a72f4095376a16485ba03ad68b708c208caab70',
    ('put', 12.0, 100.0, 0.2, 50, 20): '4aeacd1be6ea73278a50c3efd1c6a5b011df05339912b7650f8b027164154d9c',
    ('call', 0.0, 100.0, 0.2, 400, 40): '9ba384b1012f748921b743e8221ee1cfe11a799307196639a1c39969ed41bf9d',
    ('put', 0.0, 100.0, 0.2, 400, 40): 'e44058abbb2a86692081affdb01601c033671c159ae2534ab304e26e95c2d611',
    ('call', -0.3, 1e-09, 0.2, 2, 20): '726c68f39297be3e92026be6bf54e8dc69b3ce2a08801979b6db3bbd2132c697',
    ('put', -0.3, 1e-09, 0.2, 2, 20): 'f3adc7e0e22ceb69db335b7b5e9b52328ad3b350ea211bbf5cdb59c776ad36cc',
    ('call', -0.3, 1e-09, 0.2, 3, 20): '45b19ec481950ce6d060e376098839783fdb6cebad6647e256b8b72febcb8b7f',
    ('put', -0.3, 1e-09, 0.2, 3, 20): '95b1a2e940d5f7663eded0e9704b71b71521605d8d70da8ea656314c3ec86e74',
    ('call', -0.3, 1e-09, 0.2, 50, 20): 'd4a23030e973fb90823829bb9872060143682f460662b9f1f49befdfefed3450',
    ('put', -0.3, 1e-09, 0.2, 50, 20): '5478ce315efffc320bfa742ee0be71e48ff50909a97642651634e24c14494906',
    ('call', -0.3, 100.0, 0.2, 2, 20): '8f78cf13c10c106b7e84d7807d47db3d7eaa8d6106741e043f536dccc2c7e6de',
    ('put', -0.3, 100.0, 0.2, 2, 20): 'f2a411ebd1ee96a9355bda170897031e4332416acf316038a25ba86db91056f5',
    ('call', -0.3, 100.0, 0.2, 3, 20): '009be315d279430126abaeefa1d292e4f78bfa0a58c93fe6cd9d523045383fb9',
    ('put', -0.3, 100.0, 0.2, 3, 20): '7f58f023d57aa463447aa18e1bab92176772d80656ed3b4149d5b7f47ef3671a',
    ('call', -0.3, 100.0, 0.2, 50, 20): '6ea5173762dda2a3d9beb00dbacd32e08af023088d81a3684738da9f5d50799f',
    ('put', -0.3, 100.0, 0.2, 50, 20): '1f04331b6573b648e46635ebadd2122bc1875eec250982ebb611d0b65b34cba9',
    ('call', -0.3, 1e+300, 0.2, 2, 20): 'ceb477a1e0fd79166662ed55e41757701c49089b853d04929215757be63eaf57',
    ('put', -0.3, 1e+300, 0.2, 2, 20): '9a0be7c4ec447a5abc00d19d628fde18238ef550b50f82a766708c9f9e0e45cf',
    ('call', -0.3, 1e+300, 0.2, 3, 20): '34f90b07fb48a55c9887407cedb4c66207421c19381289ad5d77675fdb168f21',
    ('put', -0.3, 1e+300, 0.2, 3, 20): '5949c3df03ea965dcd8b47ce0d669a5c6f097d346f07c7c07f1d2dedcf74e027',
    ('call', -0.3, 1e+300, 0.2, 50, 20): 'e6984bf101513d1ec06504d9c4e0c24783ef75948bb5e8c8f3d03b536978a47d',
    ('put', -0.3, 1e+300, 0.2, 50, 20): 'd3e58e94b0f8e744bb16d35c41f94607059ed0ec89f12dfe8e218db3dadafe66',
    ('call', 0.0, 1e-09, 0.2, 2, 20): '422b9b36dd9ccd714683ea9598e4feb8b2b41e69af1d55ac2f249129712ccf1c',
    ('put', 0.0, 1e-09, 0.2, 2, 20): '2c2aa7c8fe3ec6fa0ab3edc468769c1f2ee2e9d328c5915819a8e29d05a29330',
    ('call', 0.0, 1e-09, 0.2, 3, 20): '2d73fdde7514c8f3bf77e3dc8c6e86fdbe01713d353bef80a3ac945036a1411b',
    ('put', 0.0, 1e-09, 0.2, 3, 20): 'e01f07fb31d0a39f9278d7b410c0f5bb43c2f74f485900d2ca69ec4dcf65990a',
    ('call', 0.0, 1e-09, 0.2, 50, 20): '5da84fc4fe6fb088a69ceb0016e8de68f0dcfe49301e15818c8a0530a44cee78',
    ('put', 0.0, 1e-09, 0.2, 50, 20): 'aff42635b0ef96d4e90350efd82108a87538a57e41487832c463f2f895d9e7f3',
    ('call', 0.0, 100.0, 0.2, 2, 20): 'c7a03dbf0238bba2a722c6729a47c8c60bc85de299d97272e7c713a3d3bdd477',
    ('put', 0.0, 100.0, 0.2, 2, 20): '8416e8c3a9a0c97609c8fdb890f6a48ee7e6c477e3436bcad472a561a7174c34',
    ('call', 0.0, 100.0, 0.2, 3, 20): '91ab7188327c5f23ef04f177166fbd4f3bc0576927c0d61c0034c2b500c1c685',
    ('put', 0.0, 100.0, 0.2, 3, 20): 'b3b747e80c5752c2f00f88eb7a704f6dc3928f0deb91102c2cd5267a20d9b772',
    ('call', 0.0, 100.0, 0.2, 50, 20): 'ca6ca41694b7a7a74b9a1b64bc08bc37f3acffce67079b9afb8426fce1e4ee4b',
    ('put', 0.0, 100.0, 0.2, 50, 20): 'b03c25dbba66ade54250356d37a173bd1a00bfd1bda8b1f72235fdc2df46dd6d',
    ('call', 0.0, 1e+300, 0.2, 2, 20): '1ff6a6b356698482d834e185f6bb45c2d088d47e54f2fe6c889204fc45569eab',
    ('put', 0.0, 1e+300, 0.2, 2, 20): '4e2b0e3987dc25b7f0179e955a98a35b92db8d0b6e34a50c6c04cf914cd88b97',
    ('call', 0.0, 1e+300, 0.2, 3, 20): 'a91be0ff1d42ab3b4a297a274ca2523d98479636e9cbe9ee5d0a711a2c1f285a',
    ('put', 0.0, 1e+300, 0.2, 3, 20): 'bf6b117a5e32167a09392ccde18c27332809f8047b5ea1db67896af5ed3a7dbd',
    ('call', 0.0, 1e+300, 0.2, 50, 20): '07052a97dee970576c6a1b35d392c67a96d8ac413cc5438d9894e703b0349f58',
    ('put', 0.0, 1e+300, 0.2, 50, 20): 'dba8a5df22134c71869e5c4ed38a8da9a9d07f1d6e482236f74344b4bc65e84d',
    ('call', 0.05, 1e-09, 0.2, 2, 20): 'e8f7913cef3a3457241be428b14e62fc0de3baf705a183e1a3b159aca0c5a990',
    ('put', 0.05, 1e-09, 0.2, 2, 20): '7888f799083102c23e7a635219f870b991b2bbcc01efa4f498f101e3bc122156',
    ('call', 0.05, 1e-09, 0.2, 3, 20): '06148add87baddd05de9d1d8747434934bc41a7a2ee8db2f5194f03f21f20e71',
    ('put', 0.05, 1e-09, 0.2, 3, 20): '4fb7c80544c618fdf6528943d61dbb2ec1a4e2ca1e0335b28cc64b314ab8b513',
    ('call', 0.05, 1e-09, 0.2, 50, 20): 'f6397774036d927f27f3e2c21740f870db8275c5c3f12c0176bdcb89a69c0325',
    ('put', 0.05, 1e-09, 0.2, 50, 20): 'ecbebffd87e47512e37633baa0828aa14ba5c8e7296c506ea7b188a13994dccc',
    ('call', 0.05, 100.0, 0.2, 2, 20): '36b2086aebf62b4b9572b110bdaff9b94a8d8c1b33a00a77cbaa6bf829470fc7',
    ('put', 0.05, 100.0, 0.2, 2, 20): 'fd8213f2d8f506e283261340e40d2f44c8d0e8f02614013943bd38486684a43b',
    ('call', 0.05, 100.0, 0.2, 3, 20): 'd67f05f321a87d8af29111595a266d7cf60fb6860d3aff95b9eb084610ab88b7',
    ('put', 0.05, 100.0, 0.2, 3, 20): '6cc60aba21464fc47e6b0861b5066a7b5b3434a0cfc56c4fa8c93ec58b3c6843',
    ('call', 0.05, 100.0, 0.2, 50, 20): 'a14315c835b7223c8c97672ce7cb9417b714bb2be03239e9d3273403bd91a4e1',
    ('put', 0.05, 100.0, 0.2, 50, 20): '3821718fe5cec80fd1e9fa5722222d511d86a6d36f1217a39d2390e54af243d0',
    ('call', 0.05, 1e+300, 0.2, 2, 20): '1aa51a81d9a96ff07e2c9430ab7a4a2f3a8594b4ad896bed11e3612b8bf15cca',
    ('put', 0.05, 1e+300, 0.2, 2, 20): '70685d417180f1c7fd3f4bc302c13053652a6ca5501026fb2c51dbb5fe16de92',
    ('call', 0.05, 1e+300, 0.2, 3, 20): 'eef68c89c5e80313b07fa0192125875c37cfc455bf82b82f6d45bd67cb544adf',
    ('put', 0.05, 1e+300, 0.2, 3, 20): '3c235fbd7d42127e6eb0cfba8ca1681df305b6dfd1f0c3f9547161fb21697fe4',
    ('call', 0.05, 1e+300, 0.2, 50, 20): '3f6cc265f735b204bf305cc3b5535e73b865b0fdd64884f5144ce2259070025b',
    ('put', 0.05, 1e+300, 0.2, 50, 20): '7fa27f9a91c5846f5e7e607d826ce2e56afeb0cf5fbcadda1b9c1fcac607fa70',
}


@pytest.mark.parametrize("case", list(AMERICAN_MARCH_BITS), ids=lambda c: "-".join(map(str, c)))
def test_american_march_keeps_its_bits(case):
    kind, rate, strike, vol, intervals, steps = case
    vol = VolatilityDecay(0.3, 0.8) if vol == "decay" else vol
    res = price_american(kind, strike, rate, vol, EXPIRY, intervals=intervals, steps=steps)
    assert bits(res.values, res.exercise_times) == AMERICAN_MARCH_BITS[case]


# ----------------------------------------------------- mortality option #


def test_mortality_option_certain_death_is_deterministic():
    table = LifeTable(90, [1.0])
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    value = price_mortality_option(pol, table, 90, vole_sigma=0.1, r=0.05,
                                   n_paths=500, rng=RngStream(5),
                                   intervals=100, steps=100)
    want = math.exp(-0.05) * max(lsv(pol, 1), 0.0)
    assert value.mc_value == pytest.approx(want, rel=1e-12)
    assert value.mc_std_error <= 1e-9
    assert value.exact_value == want
    assert value.mc_value == value.exact_value
    # the payoff curve is flat, so the projected PDE value equals it too
    assert value.pde_value == pytest.approx(max(lsv(pol, 1), 0.0), rel=1e-6)


def test_mortality_option_worthless_position_prices_to_zero():
    table = LifeTable(90, [0.5, 0.5, 1.0])
    pol = FlatPolicy(p=10000.0, b=1.0, r=0.05)  # always under water
    value = price_mortality_option(pol, table, 90, vole_sigma=0.1, r=0.05,
                                   n_paths=500, rng=RngStream(6),
                                   intervals=100, steps=100)
    assert value.mc_value == 0.0
    assert value.mc_std_error == 0.0
    assert value.pde_value == 0.0


def test_mortality_option_mc_route_tracks_exact_expectation(bundled_table):
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    x, r = 70, 0.05
    value = price_mortality_option(pol, bundled_table, x, vole_sigma=0.1, r=r,
                                   n_paths=50_000, rng=RngStream(99),
                                   intervals=200, steps=200)
    dist = death_distribution(bundled_table, x)
    exact = sum(p_i * math.exp(-r * i) * max(lsv(pol, i), 0.0)
                for i, p_i in enumerate(dist, start=1))
    assert value.mc_std_error > 0.0
    assert abs(value.mc_value - exact) <= 4.0 * value.mc_std_error
    assert value.exact_value == pytest.approx(exact, rel=1e-12)
    assert abs(value.mc_value - value.exact_value) <= 4.0 * value.mc_std_error
    assert value.pde_value >= -1e-9
    assert isinstance(value, MortalityOptionValue)


# At zero volatility the index grows deterministically, so the grid value
# is the best discounted payoff along its path.  100 intervals are still too
# coarse for it: 66.633582 against 30.518086 at age 80.
@pytest.mark.parametrize("grid", [400, 1600])
@pytest.mark.parametrize("x, r, want", [(80, 0.05, 30.518086), (85, 0.04, 468.107424)])
def test_mortality_grid_leg_at_zero_volatility_matches_the_deterministic_path(
        bundled_table, x, r, want, grid):
    value = price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), bundled_table, x,
                                   vole_sigma=0.0, r=r, n_paths=2, rng=RngStream(1),
                                   intervals=grid, steps=grid)
    oracle = zero_vol_mortality_value(bundled_table.qx[x - bundled_table.start_age:],
                                      100.0, 1000.0, 0.05, r, grid)
    assert value.pde_value == pytest.approx(oracle, rel=1e-9, abs=0.0)
    assert oracle == pytest.approx(want, abs=5e-7)


def _per_count_reference(pol, table, x, vole_sigma, r, n_paths, rng, intervals, steps):
    """The mortality option valued with one scalar payoff call per death year and per node.

    Same death-year counts as the package, summed term by term with
    ``math.fsum`` in Python floats; same march.
    """
    t_max = table.omega - x + 1

    def payoff_year(year):
        if isinstance(pol, PolicySchedule):
            year = min(max(int(year), 1), min(t_max, len(pol)))
            return max(lsv_schedule(pol, year), 0.0)
        year = min(max(int(year), 1), t_max)
        return max(lsv(pol, year), 0.0)

    counts = _death_counts(table, x, n_paths, rng).tolist()
    paid = [math.exp(-r * year) * payoff_year(year) for year in range(1, t_max + 1)]
    mc = math.fsum(c * v for c, v in zip(counts, paid)) / n_paths
    se = math.sqrt(math.fsum(c * ((v - mc) * (v - mc)) for c, v in zip(counts, paid))
                   / (n_paths - 1) / n_paths)

    spot = complete_expectation(table, x)
    mesh = Mesh1D(0.0, max(4.0 * spot, float(t_max + 1)), intervals + 1)
    grid = lambda s: np.array([payoff_year(int(round(v))) for v in np.atleast_1d(s)])
    prob = problem(grid, float(t_max),
                   sigma=lambda s: (0.5 * vole_sigma ** 2 * s * s if vole_sigma > 0.0
                                    else np.zeros_like(s)),
                   mu=lambda s: r * s, b=-r,
                   g0=lambda tau: float(payoff_year(1)),
                   g1=lambda tau: float(payoff_year(t_max)))
    payoff = grid(mesh.points())
    U = pricing._march(**march_args(prob, mesh, steps, min(4, steps)),
                       project=lambda n, V: np.maximum(V, payoff, out=V))
    return mc, se, float(np.interp(spot, mesh.points(), U))


# ``exact`` and ``pde`` are float.hex of the case's exact_value and
# pde_value.  ``pde`` was taken while the grid leg still marched a problem
# of coefficient callables; the reference shares the march, so only these
# pin its bits.  ``exact`` was taken while the Monte Carlo leg still drew
# one death year per path; neither depends on the draws.  ``intervals``
# defaults to 60; at
# 2 and 3 the pivoted factorization pads its one or two rows to three
@pytest.mark.parametrize("case", [
    dict(pol=FlatPolicy(p=100.0, b=1000.0, r=0.05), x=70, vole_sigma=0.1, n=5000,
         exact="0x1.a88f9f6a1bc46p+5", pde="0x1.0a699f6c91c28p-3"),
    dict(pol=FlatPolicy(p=30.0, b=800.0, r=0.04), x=85, vole_sigma=0.0, n=2,
         exact="0x1.cb80afa381277p+8", pde="0x1.1f7926c8b9374p+9"),
    dict(pol=PolicySchedule([40.0 + k for k in range(60)], [1000.0] * 60, 0.05),
         x=65, vole_sigma=0.2, n=3000, exact="0x1.0cfdc8e0cababp+6",
         pde="0x1.03146d25a0174p+6"),
    # schedule shorter than the table's horizon: later years take its last value
    dict(pol=PolicySchedule([60.0] * 12, [900.0 + 10.0 * k for k in range(12)], 0.06),
         x=72, vole_sigma=0.0, n=4000, exact="0x1.4e445c581aaeap+6", pde="0x0.0p+0"),
    dict(pol=FlatPolicy(p=100.0, b=1000.0, r=0.05), x=70, vole_sigma=0.1, n=5000,
         intervals=2, exact="0x1.a88f9f6a1bc46p+5", pde="0x1.ac98f23155ed7p+8"),
    dict(pol=FlatPolicy(p=100.0, b=1000.0, r=0.05), x=70, vole_sigma=0.1, n=5000,
         intervals=3, exact="0x1.a88f9f6a1bc46p+5", pde="0x1.aca6547c66e44p+7"),
    dict(pol=FlatPolicy(p=30.0, b=800.0, r=0.04), x=85, vole_sigma=0.0, n=2,
         intervals=2, exact="0x1.cb80afa381277p+8", pde="0x1.1e16b602a0ae3p+9"),
    dict(pol=FlatPolicy(p=30.0, b=800.0, r=0.04), x=85, vole_sigma=0.0, n=2,
         intervals=3, exact="0x1.cb80afa381277p+8", pde="0x1.16295db9398adp+9"),
])
def test_mortality_option_matches_the_per_count_reference_bitwise(bundled_table, case):
    args = (case["pol"], bundled_table, case["x"], case["vole_sigma"], 0.045, case["n"])
    grid = dict(intervals=case.get("intervals", 60), steps=40)
    value = price_mortality_option(*args, RngStream(77), **grid)
    mc, se, pde = _per_count_reference(*args, RngStream(77), **grid)
    assert value.mc_value == mc
    assert value.mc_std_error == se
    assert value.pde_value == pde
    assert value.pde_value.hex() == case["pde"]
    assert value.exact_value.hex() == case["exact"]


def test_mortality_option_values_each_death_year_once(bundled_table, monkeypatch):
    calls = []

    def counted(pol, t):
        calls.append(t)
        return lsv(pol, t)

    monkeypatch.setattr(pricing, "lsv", counted)
    x = 70
    t_max = bundled_table.omega - x + 1
    price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), bundled_table, x,
                           vole_sigma=0.1, r=0.05, n_paths=50_000, rng=RngStream(3),
                           intervals=50, steps=50)
    assert 0 < len(calls) <= 2 * t_max


@pytest.mark.parametrize("n_paths", [2, 20_000, 10**7])
def test_mortality_option_reads_at_most_three_word_blocks_whatever_n(bundled_table, n_paths):
    rng = RngStream(41)
    price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), bundled_table, 70,
                           vole_sigma=0.1, r=0.05, n_paths=n_paths, rng=rng,
                           intervals=20, steps=20)
    # where the stream's next word sits in a twin is how many words were read;
    # bound fixed before the first run: whole blocks, at most three
    read = np.flatnonzero(RngStream(41)._words(3 * _WORD_BLOCK + 1) == rng._words(1)[0])
    assert read.size == 1
    assert read[0] % _WORD_BLOCK == 0 and read[0] <= 3 * _WORD_BLOCK


@pytest.mark.parametrize("x, r", [(70, 0.05), (89, 0.03)])
def test_mortality_option_estimate_is_centred_on_the_exact_sum(bundled_table, x, r):
    # 400 streams (seed 2034, ids 0..399) at n = 20,000 on a 2x2 grid; the
    # exact sum comes from the raw qx.  Bounds fixed before the first run:
    # z = (mc - exact) / se has |mean| <= 0.2, four standard errors of a
    # mean of 400 standard normals, and sd within 0.85..1.15, over four
    # standard errors of an sd from 400
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    exact = mortality_option_exact_value(bundled_table.qx[x - bundled_table.start_age:],
                                         100.0, 1000.0, 0.05, r)
    z = []
    for i in range(400):
        value = price_mortality_option(pol, bundled_table, x, vole_sigma=0.1, r=r,
                                       n_paths=20_000, rng=RngStream(2034, stream_id=i),
                                       intervals=2, steps=2)
        assert value.exact_value == pytest.approx(exact, rel=1e-12)
        z.append((value.mc_value - exact) / value.mc_std_error)
    assert abs(np.mean(z)) <= 0.2
    assert 0.85 <= np.std(z, ddof=1) <= 1.15


def test_mortality_option_estimate_that_overflows_is_a_numerical_error(bundled_table):
    with pytest.raises(NumericalError, match="overflowed"):
        price_mortality_option(FlatPolicy(p=0.0, b=1e308, r=0.05), bundled_table, 70,
                               vole_sigma=0.0, r=0.0, n_paths=100, rng=RngStream(1),
                               intervals=20, steps=20)


def test_mortality_option_estimate_whose_sum_overflows_is_a_numerical_error(bundled_table,
                                                                             monkeypatch):
    # two lives die in years 1 and 2, whose payoffs, 9.5e307 and 9.1e307,
    # are finite but sum past the largest float
    t_max = bundled_table.omega - 70 + 1
    monkeypatch.setattr(pricing, "_death_counts",
                        lambda *args: np.array([1, 1] + [0] * (t_max - 2)))
    with pytest.raises(NumericalError, match="overflowed"):
        price_mortality_option(FlatPolicy(p=0.0, b=1e308, r=0.05), bundled_table, 70,
                               vole_sigma=0.0, r=0.0, n_paths=2, rng=RngStream(1),
                               intervals=20, steps=20)


def test_mortality_option_is_seed_deterministic(bundled_table):
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    kwargs = dict(vole_sigma=0.1, r=0.05, n_paths=2000,
                  intervals=50, steps=50)
    a = price_mortality_option(pol, bundled_table, 70, rng=RngStream(31), **kwargs)
    b = price_mortality_option(pol, bundled_table, 70, rng=RngStream(31), **kwargs)
    assert a.mc_value == b.mc_value
    assert a.mc_std_error == b.mc_std_error
    assert a.pde_value == b.pde_value


def test_mortality_option_argument_validation(bundled_table):
    pol = FlatPolicy(p=100.0, b=1000.0, r=0.05)
    with pytest.raises(ValueError, match="vole_sigma"):
        price_mortality_option(pol, bundled_table, 70, vole_sigma=1.0, r=0.05,
                               n_paths=100, rng=RngStream(1))
    with pytest.raises(ValueError, match="n_paths"):
        price_mortality_option(pol, bundled_table, 70, vole_sigma=0.1, r=0.05,
                               n_paths=1, rng=RngStream(1))
    with pytest.raises(ValueError, match="rate must be finite"):
        price_mortality_option(pol, bundled_table, 70, vole_sigma=0.1, r=math.inf,
                               n_paths=100, rng=RngStream(1))
    # exp(20 * 46) overflows within the table's horizon at age 70
    with pytest.raises(ValueError, match="rate must keep"):
        price_mortality_option(pol, bundled_table, 70, vole_sigma=0.1, r=-20.0,
                               n_paths=100, rng=RngStream(1))
