"""Parabolic marching and the option pricers built on it."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from longevity import pricing
from longevity.errors import NumericalError
from longevity.fdm import Mesh1D, fitted_stencil
from longevity.lifetable import LifeTable, complete_expectation, death_distribution
from longevity.pricing import (
    MortalityOptionValue,
    ParabolicProblem,
    PriceResult,
    VolatilityDecay,
    price_american,
    price_european,
    price_mortality_option,
)
from longevity.settlement import FlatPolicy, PolicySchedule, lsv, lsv_schedule
from longevity.simulate import RngStream, sample_death_years
from oracles import binomial_american_put, bs_price

# ------------------------------------------------------------ marching #


def march(prob, mesh, n_steps, theta=0.5):
    # terminal mesh values of a march taking n_steps steps at one theta
    return pricing._march(prob, mesh, [theta] * n_steps)[0]


def heat_problem(horizon):
    # u_tau = u_xx on [0, 1] with u(x, 0) = sin(pi x); exact decay rate pi**2
    return ParabolicProblem(
        sigma=lambda x, tau: np.ones_like(x),
        mu=lambda x, tau: np.zeros_like(x),
        b_coef=lambda x, tau: np.zeros_like(x),
        f=lambda x, tau: np.zeros_like(x),
        phi=lambda x: np.sin(np.pi * x),
        g0=lambda tau: 0.0,
        g1=lambda tau: 0.0,
        horizon=horizon,
    )


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
    prob = ParabolicProblem(
        sigma=lambda x, tau: 0.1 + x * x,
        mu=lambda x, tau: 5.0 * (1.0 - 2.0 * x),
        b_coef=lambda x, tau: np.zeros_like(x),
        f=lambda x, tau: np.zeros_like(x),
        phi=lambda x: x * (1.0 - x),
        g0=lambda tau: 0.0,
        g1=lambda tau: 0.0,
        horizon=2.0,
    )
    U = march(prob, Mesh1D(0.0, 1.0, 41), 10, theta=1.0)
    assert np.all(U >= -1e-9)
    assert np.all(U <= 0.25 + 1e-9)


def test_corner_mismatch_is_rejected():
    prob = ParabolicProblem(
        sigma=lambda x, tau: np.ones_like(x),
        mu=lambda x, tau: np.zeros_like(x),
        b_coef=lambda x, tau: np.zeros_like(x),
        f=lambda x, tau: np.zeros_like(x),
        phi=lambda x: np.ones_like(x),
        g0=lambda tau: 0.0,
        g1=lambda tau: 1.0,
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="corner"):
        march(prob, Mesh1D(0.0, 1.0, 11), 4)


def test_explicit_march_blowup_is_reported():
    # theta = 0 with k far above the diffusive limit amplifies the sawtooth
    # mode past overflow; the march must stop and name the failing step
    with pytest.raises(NumericalError, match="at step 141 of 200"):
        march(heat_problem(1.0), Mesh1D(0.0, 1.0, 101), 200, theta=0.0)


def test_march_argument_validation():
    prob = heat_problem(1.0)
    mesh = Mesh1D(0.0, 1.0, 11)
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1\]"):
        march(prob, mesh, 4, theta=1.5)
    with pytest.raises(ValueError, match="horizon must be positive"):
        ParabolicProblem(
            sigma=lambda x, tau: x, mu=lambda x, tau: x,
            b_coef=lambda x, tau: x, f=lambda x, tau: x,
            phi=lambda x: x, g0=lambda tau: 0.0, g1=lambda tau: 1.0,
            horizon=0.0)


# ------------------------------------------------------ vanilla options #

STRIKE = 100.0
RATE = 0.05
VOL = 0.2
EXPIRY = 1.0


def test_volatility_decay_validation_and_level():
    vd = VolatilityDecay(sigma0=0.3, decay=0.5)
    assert vd.at(0.0) == 0.3
    assert vd.at(1.0) == pytest.approx(0.3 * math.exp(-0.5))
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


def test_huge_decaying_volatility_is_rejected_not_an_overflow_traceback():
    # squaring 1e200 with a float power raised OverflowError; the product
    # overflows to an infinite diffusion, which the stencil rejects
    with pytest.raises(ValueError, match="finite"):
        price_european("put", STRIKE, RATE, VolatilityDecay(1e200, 0.0), EXPIRY,
                       intervals=20, steps=20)


def test_option_argument_validation():
    with pytest.raises(ValueError, match="kind"):
        price_european("straddle", STRIKE, RATE, VOL, EXPIRY)
    with pytest.raises(ValueError):
        price_european("call", -1.0, RATE, VOL, EXPIRY)
    with pytest.raises(ValueError):
        price_european("call", STRIKE, RATE, VOL, EXPIRY, s_max=50.0)
    with pytest.raises(ValueError):
        price_european("call", STRIKE, RATE, VOL, EXPIRY, steps=4, rannacher_steps=10)
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
    # a discount factor over the expiry that overflows
    for pricer, rate, expiry in ((price_european, -1e300, EXPIRY),
                                 (price_american, -1e300, EXPIRY),
                                 (price_european, -1.0, 1000.0)):
        with pytest.raises(ValueError, match="rate must keep"):
            pricer("put", STRIKE, rate, VOL, expiry, intervals=20, steps=20)


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("price", [price_european, price_american])
def test_default_rannacher_count_fits_a_march_of_fewer_than_four_steps(price, steps):
    # the default means min(4, steps): every step of a short march is implicit
    got = price("put", STRIKE, RATE, VOL, EXPIRY, intervals=40, steps=steps)
    want = price("put", STRIKE, RATE, VOL, EXPIRY, intervals=40, steps=steps,
                 rannacher_steps=steps)
    assert np.array_equal(got.values, want.values)


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


# ------------------------------------- march against a dense reference #
#
# The reference re-assembles the fitted stencil at every level and solves
# each step densely, so it shares no reuse logic with the march.  With a
# floor it also returns, per level, the largest node on a positive floor.


def reference_march(prob, mesh, thetas, floor=None):
    x = mesh.points()
    xi = x[1:-1]
    k = prob.horizon / len(thetas)

    def level(tau):
        def coef(c):
            return np.broadcast_to(np.asarray(c(xi, tau), dtype=float), xi.shape)
        sub, center, sup = fitted_stencil(coef(prob.mu), mesh.h, coef(prob.sigma))
        A = np.diag(center + coef(prob.b_coef)) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        return A, sub[0], sup[-1], coef(prob.f)

    U = np.asarray(prob.phi(x), dtype=float).copy()
    U[0], U[-1] = prob.g0(0.0), prob.g1(0.0)
    if floor is not None:
        U = np.maximum(U, floor(x))
    A_o, left_o, right_o, f_o = level(0.0)
    nodes = []
    for n, theta in enumerate(thetas):
        tau = (n + 1) * k
        A_n, left_n, right_n, f_n = level(tau)
        g0, g1 = prob.g0(tau), prob.g1(tau)
        explicit = A_o @ U[1:-1]
        explicit[0] += left_o * U[0]
        explicit[-1] += right_o * U[-1]
        rhs = U[1:-1] + k * (1.0 - theta) * (explicit - f_o) - k * theta * f_n
        rhs[0] += k * theta * left_n * g0
        rhs[-1] += k * theta * right_n * g1
        inner = np.linalg.solve(np.eye(xi.size) - k * theta * A_n, rhs)
        U = np.concatenate([[g0], inner, [g1]])
        if floor is not None:
            U = np.maximum(U, floor(x))
            tol = 1e-7 * (1.0 + float(np.max(floor(x))))
            on_floor = (floor(x) > tol) & (U - floor(x) <= tol)
            nodes.append(float(x[on_floor].max()) if np.any(on_floor) else math.nan)
        A_o, left_o, right_o, f_o = A_n, left_n, right_n, f_n
    return U, (np.array(nodes) if floor is not None else None)


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def bs_reference(kind, vol_at, american, intervals=60, steps=60):
    s_max = 4.0 * STRIKE
    sigma = lambda x, tau: 0.5 * vol_at(tau) ** 2 * x * x
    mu = lambda x, tau: RATE * x
    b_coef = lambda x, tau: np.full_like(x, -RATE)
    f = lambda x, tau: np.zeros_like(x)
    if kind == "call":
        payoff = lambda x: np.maximum(x - STRIKE, 0.0)
        g0 = lambda tau: 0.0
        g1 = lambda tau: s_max - STRIKE * math.exp(-RATE * tau)
    else:
        payoff = lambda x: np.maximum(STRIKE - x, 0.0)
        g0 = (lambda tau: STRIKE) if american else (lambda tau: STRIKE * math.exp(-RATE * tau))
        g1 = lambda tau: 0.0
    prob = ParabolicProblem(sigma, mu, b_coef, f, payoff, g0, g1, EXPIRY)
    thetas = [1.0] * 4 + [0.5] * (steps - 4)
    return reference_march(prob, Mesh1D(0.0, s_max, intervals + 1), thetas,
                           floor=payoff if american else None)


def switching_problem():
    # sigma jumps up over the middle third of the horizon and back down, so
    # the march must re-assemble (and re-factor) twice and f varies with tau;
    # both take a scalar tau or the march's column of taus
    def sigma(x, tau):
        return (0.1 + x * x) * np.where((1.0 / 3.0 < tau) & (tau <= 2.0 / 3.0), 4.0, 1.0)
    return ParabolicProblem(
        sigma=sigma,
        mu=lambda x, tau: 5.0 * (1.0 - 2.0 * x),
        b_coef=lambda x, tau: np.full_like(x, -0.5),
        f=lambda x, tau: np.sin(np.pi * x) * np.cos(tau),
        phi=lambda x: x * (1.0 - x),
        g0=lambda tau: 0.0,
        g1=lambda tau: 0.0,
        horizon=1.0,
    )


@pytest.mark.parametrize("vol", [VOL, VolatilityDecay(0.3, 0.8)], ids=["const", "decay"])
@pytest.mark.parametrize("kind", ["call", "put"])
def test_pricers_match_the_dense_reference_march(kind, vol):
    vol_at = vol.at if isinstance(vol, VolatilityDecay) else (lambda tau: VOL)
    euro = price_european(kind, STRIKE, RATE, vol, EXPIRY, intervals=60, steps=60)
    assert_close(euro.values, bs_reference(kind, vol_at, american=False)[0])
    amer = price_american(kind, STRIKE, RATE, vol, EXPIRY, intervals=60, steps=60)
    values, nodes = bs_reference(kind, vol_at, american=True)
    assert_close(amer.values, values)
    np.testing.assert_array_equal(amer.exercise_boundary, nodes)
    np.testing.assert_array_equal(amer.exercise_times, np.arange(1, 61) * (EXPIRY / 60))


@pytest.mark.parametrize("prob", [heat_problem(0.1), switching_problem()], ids=["heat", "switch"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_march_matches_the_dense_reference_march(prob, theta):
    mesh = Mesh1D(0.0, 1.0, 41)
    got = march(prob, mesh, 30, theta=theta)
    assert_close(got, reference_march(prob, mesh, [theta] * 30)[0])


@pytest.fixture
def stencil_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fitted_stencil(*args, **kwargs)
    monkeypatch.setattr(pricing, "fitted_stencil", counting)
    return calls


def block_levels(intervals):
    # time levels assembled per fitted_stencil call on a tau-dependent problem
    return max(1, pricing._BLOCK_NODES // (intervals - 1))


def test_stencil_is_assembled_once_while_the_coefficients_ignore_tau(stencil_calls):
    # autonomous problems assemble once; tau-dependent ones once per block
    # of levels, and a march of `steps` steps has steps + 1 levels
    steps = 2 * block_levels(50)  # three blocks, the last of one level
    for price in (price_european, price_american):
        stencil_calls.clear()
        price("put", STRIKE, RATE, VOL, EXPIRY, intervals=50, steps=steps)
        assert len(stencil_calls) == 1
        stencil_calls.clear()
        price("put", STRIKE, RATE, VolatilityDecay(VOL, 0.5), EXPIRY, intervals=50, steps=steps)
        assert len(stencil_calls) == math.ceil((steps + 1) / block_levels(50)) == 3
    stencil_calls.clear()
    march(switching_problem(), Mesh1D(0.0, 1.0, 41), steps)
    assert len(stencil_calls) == math.ceil((steps + 1) / block_levels(40)) == 2
    stencil_calls.clear()
    price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), LifeTable(90, [0.5, 1.0]),
                           90, 0.2, 0.05, 10, RngStream(1), intervals=50, steps=steps)
    assert len(stencil_calls) == 1


def counted_coefficients(prob, autonomous):
    # the problem with each coefficient callable recording the tau of each call
    calls = {name: [] for name in ("sigma", "mu", "b_coef", "f")}

    def counting(name):
        inner = getattr(prob, name)

        def wrapper(x, tau):
            calls[name].append(tau)
            return inner(x, tau)
        return wrapper
    return replace(prob, autonomous=autonomous,
                   **{name: counting(name) for name in calls}), calls


def test_autonomous_problem_evaluates_each_coefficient_once():
    prob, calls = counted_coefficients(heat_problem(0.1), autonomous=True)
    mesh = Mesh1D(0.0, 1.0, 41)
    got = march(prob, mesh, 25)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 1)
    assert np.array_equal(got, march(heat_problem(0.1), mesh, 25))


def test_tau_dependent_problem_evaluates_each_coefficient_once_per_block():
    # one call per block of levels, given the block's taus as a float column
    prob, calls = counted_coefficients(switching_problem(), autonomous=False)
    steps = 150
    march(prob, Mesh1D(0.0, 1.0, 41), steps)
    k = prob.horizon / steps
    for name, taus in calls.items():
        assert len(taus) == math.ceil((steps + 1) / block_levels(40)) == 2, name
        for tau in taus:
            assert tau.dtype == np.float64 and tau.ndim == 2 and tau.shape[1] == 1, name
        assert np.concatenate(taus).ravel().tolist() == [n * k for n in range(steps + 1)], name


@pytest.mark.parametrize("offset", [-2, -1, 0])
def test_decaying_volatility_matches_the_reference_across_a_block_edge(offset):
    # steps + 1 levels fill one block short, one block exactly, and one
    # block plus a single level
    vol = VolatilityDecay(0.3, 0.8)
    steps = block_levels(60) + offset
    euro = price_european("put", STRIKE, RATE, vol, EXPIRY, intervals=60, steps=steps)
    assert_close(euro.values, bs_reference("put", vol.at, american=False, steps=steps)[0])
    amer = price_american("call", STRIKE, RATE, vol, EXPIRY, intervals=60, steps=steps)
    assert_close(amer.values, bs_reference("call", vol.at, american=True, steps=steps)[0])


def bits(*arrays):
    # sha256 of the arrays' float64 bytes, None skipped
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# Digests of (values, exercise_boundary) under VolatilityDecay(0.3, 0.8), by
# (kind, style, intervals, steps).  On 60 intervals a block holds
# block_levels(60) = 69 levels, so 68, 69 and 70 steps fill one block
# exactly, overrun it by one level and by two; 800 intervals take blocks of
# 5 levels.  The bits were taken when each coefficient was still evaluated
# one level at a time, so they pin that block evaluation changes none.
DECAY_BITS = {
    ('call', 'european', 60, 68): '7cfe22a5a3eeb5296a19d052c15fec012887069b91a63b1b6532b05ecb264ca6',
    ('call', 'american', 60, 68): 'e11172d6e608356e62960a1b5e2c1893cc4da4ad947022208c007f8293be9906',
    ('put', 'european', 60, 68): '4dad605cceb55add32f85047b8d1bea36fd5cc445614170bf86656dea55fa573',
    ('put', 'american', 60, 68): 'ad3c238163b3229d2ec684b1a8ee4d0776971eae33624a69c809ab20be9a201e',
    ('call', 'european', 60, 69): 'b9cd119ffdd12e72721fb712023a55f411ecc6d30ddb0c7ce399f4fa5a9070f3',
    ('call', 'american', 60, 69): 'eacc5e1d85429cd1fa1d2d36cc024e88fd09eac1b08fa22413f536cfd201b057',
    ('put', 'european', 60, 69): 'c3e56f921b659e623f2a60a96cd531ff3d8eba06e5836939c19317c8810bf9a9',
    ('put', 'american', 60, 69): '83051497c0efd7d21b65a6146624a949d91711ec331f6b4eb1a0fbbceac17c0f',
    ('call', 'european', 60, 70): '71bbd19e5821717e6f10e3652b7294c3400794f3b1923ebcd8976dfa6748fe6d',
    ('call', 'american', 60, 70): '8098211d47634d5e09968a0402e1f360080cb93139d39347aad0a53c0929ce57',
    ('put', 'european', 60, 70): '8c21194419faa248b034fb2ef5a3b72a93155329a2a65e2c95c57e4b1439aa14',
    ('put', 'american', 60, 70): '00ff51248825bcbaaea33a8f0e5c47366cb716afbf6dd4575106c7552e77c0ab',
    ('call', 'european', 800, 37): '5cea29a37af1fc0c89bcfe9143ec35a1f4bbd47077597a0a492f93f9d377242a',
    ('call', 'american', 800, 37): 'c4060a446f37bb719333f2d86c444ae689fe6e11ce46a95b95cb3623c0949601',
    ('put', 'european', 800, 37): '5956d0355b228aaca38ac9d5b4bba32b68caab5d13da511ca97d14746fe28661',
    ('put', 'american', 800, 37): 'cee40c1693a10bcbb5ffa1b2b3dc908f221b7e0341df37860432617f4326da58',
}


@pytest.mark.parametrize("case", list(DECAY_BITS), ids=lambda c: "-".join(map(str, c)))
def test_decaying_volatility_keeps_its_bits(case):
    kind, style, intervals, steps = case
    price = price_european if style == "european" else price_american
    res = price(kind, STRIKE, RATE, VolatilityDecay(0.3, 0.8), EXPIRY, intervals=intervals,
                steps=steps)
    assert bits(res.values, res.exercise_boundary) == DECAY_BITS[case]


# Digests of a 30-step march on 40 intervals by (source, theta): the switching
# problem's own source, and -0.0 everywhere, which is not a source the march
# may skip (subtracting it turns a -0.0 into +0.0)
SWITCHING_BITS = {
    ("switch", 0.5): "6463fa5a723877b4963544bc0789463c42aa8b1032315d58ddfc8362f0429f5a",
    ("switch", 1.0): "9b970f949b56de4e367f3ada53bd8eaf82b99359f3dce0572d4cd830443c8894",
    ("switch-negative-zero", 0.5): "e95a7d60ffe41d894f87d3179bb9f74d99b305793a826716beb0a39eb1905d4e",
    ("switch-negative-zero", 1.0): "902bacd20007742a9e2bb12e494bff27db3297e3691488b8f1898681f11578c4",
}


@pytest.mark.parametrize("case", list(SWITCHING_BITS), ids=lambda c: f"{c[0]}-{c[1]}")
def test_switching_march_keeps_its_bits(case):
    source, theta = case
    prob = switching_problem()
    if source == "switch-negative-zero":
        prob = replace(prob, f=lambda x, tau: np.full_like(x, -0.0))
    got = march(prob, Mesh1D(0.0, 1.0, 41), 30, theta=theta)
    assert bits(got) == SWITCHING_BITS[case]


@pytest.mark.parametrize("source, skipped", [
    (np.zeros(5), True),
    (0.0, True),
    (np.array([0.0, 0.0, -0.0, 0.0, 0.0]), False),
    (np.array([0.0, 0.0, math.nan, 0.0, 0.0]), False),
    (np.array([0.0, 0.0, 5e-324, 0.0, 0.0]), False),
], ids=["zeros", "scalar-zero", "negative-zero", "nan", "subnormal"])
def test_only_a_positive_zero_source_is_dropped(source, skipped):
    prob = replace(heat_problem(0.1), f=lambda x, tau: source)
    *_, f = pricing._coefficients(prob, np.linspace(0.1, 0.9, 5), np.zeros((1, 1)))
    assert (f is None) == skipped


def test_a_negative_zero_source_still_signs_the_march():
    # a state of -0.0 under a strong positive reaction stays zero, and the
    # sign of each zero depends on whether a zero source was subtracted:
    # -0.0 is, and leaves -0.0 everywhere; +0.0 is skipped, which leaves
    # the signs the march had without any source
    def zero_march(source):
        prob = ParabolicProblem(
            sigma=lambda x, tau: 0.1 + x * x,
            mu=lambda x, tau: 5.0 * (1.0 - 2.0 * x),
            b_coef=lambda x, tau: np.full_like(x, 1e4),
            f=lambda x, tau: np.full_like(x, source),
            phi=lambda x: np.full_like(x, -0.0),
            g0=lambda tau: -0.0,
            g1=lambda tau: -0.0,
            horizon=1.0,
        )
        return march(prob, Mesh1D(0.0, 1.0, 41), 3)
    negative, positive = zero_march(-0.0), zero_march(0.0)
    assert not negative.any() and not positive.any()
    assert np.signbit(negative).all()
    assert not np.signbit(positive).all()


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


def _per_path_reference(pol, table, x, vole_sigma, r, n_paths, rng, intervals, steps):
    """The mortality option valued with one scalar payoff call per path and per node.

    Same draws as the package (one uniform per death year, nothing else),
    same march.
    """
    t_max = table.omega - x + 1

    def payoff_year(year):
        if isinstance(pol, PolicySchedule):
            year = min(max(int(year), 1), min(t_max, len(pol)))
            return max(lsv_schedule(pol, year), 0.0)
        year = min(max(int(year), 1), t_max)
        return max(lsv(pol, year), 0.0)

    years = sample_death_years(table, x, n_paths, rng)
    values = np.array([math.exp(-r * int(year)) * payoff_year(year) for year in years])
    mc = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n_paths))

    spot = complete_expectation(table, x)
    mesh = Mesh1D(0.0, max(4.0 * spot, float(t_max + 1)), intervals + 1)
    grid = lambda s: np.array([payoff_year(int(round(v))) for v in np.atleast_1d(s)])
    prob = ParabolicProblem(
        sigma=lambda s, tau: (0.5 * vole_sigma ** 2 * s * s if vole_sigma > 0.0
                              else np.zeros_like(s)),
        mu=lambda s, tau: r * s,
        b_coef=lambda s, tau: np.full_like(s, -r),
        f=lambda s, tau: np.zeros_like(s),
        phi=grid,
        g0=lambda tau: float(payoff_year(1)),
        g1=lambda tau: float(payoff_year(t_max)),
        horizon=float(t_max))
    thetas = [1.0] * min(4, steps) + [0.5] * (steps - min(4, steps))
    U, _, _ = pricing._march(prob, mesh, thetas, american=True)
    return mc, se, float(np.interp(spot, mesh.points(), U))


@pytest.mark.parametrize("case", [
    dict(pol=FlatPolicy(p=100.0, b=1000.0, r=0.05), x=70, vole_sigma=0.1, n=5000),
    dict(pol=FlatPolicy(p=30.0, b=800.0, r=0.04), x=85, vole_sigma=0.0, n=2),
    dict(pol=PolicySchedule([40.0 + k for k in range(60)], [1000.0] * 60, 0.05),
         x=65, vole_sigma=0.2, n=3000),
    # schedule shorter than the table's horizon: later years take its last value
    dict(pol=PolicySchedule([60.0] * 12, [900.0 + 10.0 * k for k in range(12)], 0.06),
         x=72, vole_sigma=0.0, n=4000),
])
def test_mortality_option_matches_the_per_path_reference_bitwise(bundled_table, case):
    args = (case["pol"], bundled_table, case["x"], case["vole_sigma"], 0.045, case["n"])
    value = price_mortality_option(*args, RngStream(77), intervals=60, steps=40)
    mc, se, pde = _per_path_reference(*args, RngStream(77), intervals=60, steps=40)
    assert value.mc_value == mc
    assert value.mc_std_error == se
    assert value.pde_value == pde


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


@pytest.mark.parametrize("n_paths", [2, 1000])
def test_mortality_option_reads_one_uniform_per_path(bundled_table, n_paths):
    rng = RngStream(41)
    price_mortality_option(FlatPolicy(p=100.0, b=1000.0, r=0.05), bundled_table, 70,
                           vole_sigma=0.1, r=0.05, n_paths=n_paths, rng=rng,
                           intervals=20, steps=20)
    assert rng.uniform(1)[0] == RngStream(41).uniform(n_paths + 1)[-1]


def test_mortality_option_estimate_that_overflows_is_a_numerical_error(bundled_table):
    with pytest.raises(NumericalError, match="overflowed"):
        price_mortality_option(FlatPolicy(p=0.0, b=1e308, r=0.05), bundled_table, 70,
                               vole_sigma=0.0, r=0.0, n_paths=100, rng=RngStream(1),
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
