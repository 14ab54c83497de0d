"""Parabolic marching and option valuation on the fitted spatial stencil.

Everything here lives in remaining-time coordinates: ``tau`` is time left,
the initial condition is the payoff at ``tau = 0``, and the march runs
forward in ``tau``.  The equation being stepped is

    u_tau = sigma(x, tau) u_xx + mu(x, tau) u_x + b(x, tau) u - f(x, tau)

with Dirichlet values at both ends of the mesh.  The spatial operator is
discretized with the exponentially fitted stencil from :mod:`.fdm`, which
keeps every time level monotone regardless of how convection-dominated the
coefficients are; the Black-Scholes operators used below become exactly
that near ``S = 0``, where the diffusion ``vol**2 S**2 / 2`` vanishes.

Time is stepped by the theta scheme: a few fully implicit steps damp the
payoff kink, then Crank-Nicolson takes over (Rannacher 1984; Duffy, "A
critique of the Crank-Nicolson scheme", Wilmott 2004).

A problem whose coefficients ignore ``tau`` says so (``autonomous``);
constant-volatility Black-Scholes and the mortality-option grid do.  Its
coefficients are evaluated and its stencil assembled once per march, and
each step matrix is LU-factored once per theta, so a step costs one explicit
product and one back-substitution.  Coefficients that move with ``tau``, as
under :class:`VolatilityDecay`, are still evaluated one level at a time, but
assembled a bounded block of levels per ``fitted_stencil`` call, and each
step matrix is factored afresh.

Option valuation composes the march with payoff-specific boundary data.
American exercise is handled by projecting each time level onto the payoff,
which is the discrete form of comparing continuation and intrinsic value
node by node.  The mortality option values a policy position both by Monte
Carlo over the death-year distribution and by the same PDE machinery on a
notional index; both numbers are reported side by side.  Its payoff depends
on the death year alone, so it is valued once per year and gathered by
index, by every path and every grid node; the same per-year vector summed
against the death-year probabilities gives the exact value the Monte Carlo
estimate targets.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, require_finite
from .fdm import Mesh1D, _factor_tridiagonal, fitted_stencil
from .lifetable import LifeTable, complete_expectation, death_distribution
from .settlement import FlatPolicy, PolicySchedule, lsv, lsv_schedule
from .simulate import RngStream, sample_death_years
# no longer called here; perfbench's layer tracer still wraps it under this
# module's name, so the binding stays until the benchmark drops that target
from .simulate import randomized_horizon_payoff  # noqa: F401

__all__ = [
    "VolatilityDecay",
    "ParabolicProblem",
    "step_parabolic",
    "PriceResult",
    "price_european",
    "price_american",
    "MortalityOptionValue",
    "price_mortality_option",
]


@dataclass(frozen=True)
class VolatilityDecay:
    """Volatility that relaxes as expiry approaches: ``sigma0 * exp(-decay * tau)``.

    ``tau`` is remaining time, so the level at expiry itself is ``sigma0``
    and the level seen far from expiry is damped.
    """

    sigma0: float
    decay: float

    def __post_init__(self):
        require_finite(sigma0=self.sigma0, decay=self.decay)
        if not self.sigma0 > 0.0:
            raise ValueError("sigma0 must be positive")
        if self.decay < 0.0:
            raise ValueError("decay must be >= 0")

    def at(self, tau: float) -> float:
        return self.sigma0 * math.exp(-self.decay * tau)


@dataclass(frozen=True)
class ParabolicProblem:
    """Initial-boundary value problem in remaining-time coordinates.

    Coefficients ``sigma``, ``mu``, ``b_coef`` and ``f`` are callables of
    ``(x, tau)`` accepting array ``x`` and a scalar ``tau``; ``phi`` is the
    state at ``tau = 0``; ``g0`` and ``g1`` give the left and right boundary
    values as functions of ``tau``; ``horizon`` is the total remaining time
    to march.  ``phi`` must agree with ``g0``/``g1`` at the domain corners
    (checked against the mesh when stepping starts).

    ``autonomous`` states that the four coefficients ignore ``tau`` (the
    boundary values may still move).  The march then calls each of them
    once, at ``tau = 0``, and keeps that operator for the whole horizon.
    Declaring it for coefficients that do move with ``tau`` is not
    detected: the march silently solves the problem frozen at ``tau = 0``.
    Leaving it False on a problem that is autonomous only costs time.
    """

    sigma: Callable
    mu: Callable
    b_coef: Callable
    f: Callable
    phi: Callable
    g0: Callable
    g1: Callable
    horizon: float
    autonomous: bool = False

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")


# Coefficient values per array in one batched stencil assembly: a
# tau-dependent problem is assembled _BLOCK_NODES // (interior nodes) levels
# at a time, which keeps the temporaries a few hundred kB on any mesh.
_BLOCK_NODES = 4096


def _coefficients(prob: ParabolicProblem, xi: np.ndarray, taus: Sequence[float]) -> np.ndarray:
    """``sigma``, ``mu``, ``b_coef`` and ``f`` on the interior nodes, one row per ``tau``.

    Shape ``(4, len(taus), len(xi))``.  Each callable is called once per
    level with a scalar ``tau``, and its value is copied out at once, so a
    callable that refills one buffer in place is still read correctly.
    """
    out = np.empty((4, len(taus), xi.size))
    for i, tau in enumerate(taus):
        for j, c in enumerate((prob.sigma, prob.mu, prob.b_coef, prob.f)):
            out[j, i] = np.asarray(c(xi, tau), dtype=float)
    return out


def _levels(prob: ParabolicProblem, xi: np.ndarray, h: float, k: float,
            n_levels: int) -> Iterator[tuple[np.ndarray, ...]]:
    """``(sub, diag, sup, f)`` of the semi-discrete operator at ``tau = n*k``, ``n = 0, 1, ...``.

    ``diag`` includes the reaction term.  An autonomous problem is
    evaluated and assembled once and that level repeats without end; any
    other is assembled in blocks of levels, one ``fitted_stencil`` call each
    (looked up as this module's global, where tracers and tests replace it).
    """
    if prob.autonomous:
        sg, mu, bb, f = _coefficients(prob, xi, [0.0])[:, 0]
        sub, center, sup = fitted_stencil(mu, h, sg)
        yield from itertools.repeat((sub, center + bb, sup, f))
    else:
        block = max(1, _BLOCK_NODES // xi.size)
        for start in range(0, n_levels, block):
            taus = [n * k for n in range(start, min(start + block, n_levels))]
            sg, mu, bb, f = _coefficients(prob, xi, taus)
            sub, center, sup = fitted_stencil(mu, h, sg)
            yield from zip(sub, center + bb, sup, f)


def _march(prob: ParabolicProblem, mesh: Mesh1D, thetas: Sequence[float],
           payoff_floor: Callable | None = None, track_exercise: bool = False):
    """Theta-march the problem over the horizon, one theta per step.

    Step ``n`` goes from ``tau = n*k`` to ``(n+1)*k`` with the operator of
    both levels (:func:`_levels`).  For an autonomous problem the operator
    never changes, so the step matrix ``I - k*theta*A`` is LU-factored once
    per distinct theta: a Rannacher start followed by Crank-Nicolson costs
    two factorizations in all.  Otherwise every step factors its own.

    Optionally projects every level onto ``payoff_floor`` (American
    constraint) and records, per level, the largest node where the value
    sits on the floor.  Returns ``(U, times, boundary)``; the last two are
    None when the exercise boundary is not tracked.
    """
    x = mesh.points()
    xi = x[1:-1]
    n_steps = len(thetas)
    k = prob.horizon / n_steps

    U = np.asarray(prob.phi(x), dtype=float).copy()
    if U.shape != x.shape:
        raise ValueError("phi must evaluate to one value per mesh point")
    scale = max(1.0, float(np.max(np.abs(U))))
    g0_0, g1_0 = float(prob.g0(0.0)), float(prob.g1(0.0))
    if abs(U[0] - g0_0) > 1e-8 * scale or abs(U[-1] - g1_0) > 1e-8 * scale:
        raise ValueError("initial state disagrees with boundary data at a domain corner")
    U[0], U[-1] = g0_0, g1_0

    floor = None
    if payoff_floor is not None:
        floor = np.asarray(payoff_floor(x), dtype=float)
        np.maximum(U, floor, out=U)
    times = []
    boundary = []

    # an overflow in the coefficients or the step arithmetic leaves a
    # non-finite value, which fitted_stencil, the factorization and the
    # step checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _levels(prob, xi, mesh.h, k, n_steps + 1)
        sub_o, dia_o, sup_o, f_o = next(levels)
        solves = {}  # theta -> back-substitution through the factored step matrix
        for n, theta in enumerate(thetas):
            if not 0.0 <= theta <= 1.0:
                raise ValueError("theta must lie in [0, 1]")
            tau_new = (n + 1) * k
            sub_n, dia_n, sup_n, f_n = next(levels)
            explicit = sub_o * U[:-2] + dia_o * U[1:-1] + sup_o * U[2:]
            rhs = U[1:-1] + k * (1.0 - theta) * (explicit - f_o) - k * theta * f_n
            g0v, g1v = float(prob.g0(tau_new)), float(prob.g1(tau_new))
            rhs[0] += k * theta * sub_n[0] * g0v
            rhs[-1] += k * theta * sup_n[-1] * g1v
            if not np.isfinite(rhs).all():
                raise _step_blowup(n, n_steps, k)

            solve = solves.get(theta)
            if solve is None:
                solve = _factor_tridiagonal(
                    -k * theta * sub_n, 1.0 - k * theta * dia_n, -k * theta * sup_n)
                if prob.autonomous:
                    solves[theta] = solve

            U = np.empty_like(U)
            U[0], U[-1] = g0v, g1v
            U[1:-1] = solve(rhs)
            if not np.isfinite(U).all():
                raise _step_blowup(n, n_steps, k)
            if floor is not None:
                np.maximum(U, floor, out=U)
            if track_exercise:
                times.append(tau_new)
                boundary.append(_exercise_node(x, U, floor))
            sub_o, dia_o, sup_o, f_o = sub_n, dia_n, sup_n, f_n
    if track_exercise:
        return U, np.asarray(times), np.asarray(boundary)
    return U, None, None


def _step_blowup(n: int, n_steps: int, k: float) -> NumericalError:
    return NumericalError(
        f"time march produced non-finite values at step {n + 1} of "
        f"{n_steps} (k = {k:g}); the step is too large for this data")


def _exercise_node(x: np.ndarray, U: np.ndarray, floor: np.ndarray) -> float:
    """Largest node where the value sits on a strictly positive floor."""
    tol = 1e-7 * (1.0 + float(np.max(floor)))
    on_floor = (floor > tol) & (U - floor <= tol)
    return float(x[on_floor].max()) if np.any(on_floor) else math.nan


def step_parabolic(prob: ParabolicProblem, mesh: Mesh1D, n_steps: int,
                   theta: float = 0.5) -> np.ndarray:
    """March the problem to its horizon and return the terminal mesh values.

    ``theta = 0.5`` is Crank-Nicolson (second order in time on smooth
    data), ``theta = 1`` fully implicit; both are unconditionally stable on
    the fitted stencil.  Smaller theta admits explicit weight and is
    accepted but can blow up for large steps, in which case the march
    aborts with :class:`NumericalError` naming the failing step.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    U, _, _ = _march(prob, mesh, [theta] * n_steps)
    return U


# ------------------------------------------------------ option pricing #

@dataclass(frozen=True)
class PriceResult:
    """Value curve of an option on the final time level.

    ``grid`` holds the underlying levels, ``values`` the option values.
    For American styles, ``exercise_times`` and ``exercise_boundary`` give
    the per-level largest underlying value at which immediate exercise is
    optimal (NaN where no node exercises, e.g. an American call on a
    non-dividend underlying).
    """

    grid: np.ndarray
    values: np.ndarray
    exercise_times: np.ndarray | None = None
    exercise_boundary: np.ndarray | None = None

    def value_at(self, s: float) -> float:
        """Linearly interpolated value at underlying level ``s``."""
        if not self.grid[0] <= s <= self.grid[-1]:
            raise ValueError(f"s={s} outside the solved range [{self.grid[0]}, {self.grid[-1]}]")
        return float(np.interp(s, self.grid, self.values))


def _vol_of_tau(vol) -> Callable[[float], float]:
    if isinstance(vol, VolatilityDecay):
        return vol.at
    level = float(vol)
    if not level > 0.0:
        raise ValueError("volatility must be positive")
    return lambda tau: level


def _bs_problem(kind: str, strike: float, rate: float, vol, expiry: float,
                s_max: float) -> ParabolicProblem:
    vf = _vol_of_tau(vol)

    def sigma(x, tau):
        # v * v, not v ** 2: on a huge volatility the float power raises
        # OverflowError, while the product overflows to inf, which the
        # fitted stencil rejects as a domain error
        v = vf(tau)
        return 0.5 * v * v * x * x

    mu = lambda x, tau: rate * x
    b_coef = lambda x, tau: np.full_like(x, -rate)
    f = lambda x, tau: np.zeros_like(x)
    if kind == "call":
        phi = lambda x: np.maximum(x - strike, 0.0)
        g0 = lambda tau: 0.0
        g1 = lambda tau: s_max - strike * math.exp(-rate * tau)
    else:
        phi = lambda x: np.maximum(strike - x, 0.0)
        g0 = lambda tau: strike * math.exp(-rate * tau)
        g1 = lambda tau: 0.0
    return ParabolicProblem(sigma, mu, b_coef, f, phi, g0, g1, expiry,
                            autonomous=not isinstance(vol, VolatilityDecay))


def _check_option_args(kind: str, strike: float, rate: float, vol, expiry: float,
                       s_max: float | None, intervals: int, steps: int,
                       rannacher_steps: int) -> float:
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    require_finite(strike=strike, rate=rate, expiry=expiry)
    if not isinstance(vol, VolatilityDecay):
        require_finite(vol=float(vol))
    if s_max is None:
        s_max = 4.0 * strike  # overflows when the strike exceeds a quarter of the float range
    require_finite(s_max=s_max)
    if not strike > 0.0:
        raise ValueError("strike must be positive")
    if not expiry > 0.0:
        raise ValueError("expiry must be positive")
    _require_discountable(rate, expiry)
    if not strike < s_max:
        raise ValueError("strike must lie inside (0, s_max)")
    if intervals < 2 or steps < 1:
        raise ValueError("need at least 2 space intervals and 1 time step")
    if not 0 <= rannacher_steps <= steps:
        raise ValueError("rannacher_steps must lie in [0, steps]")
    return s_max


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite


def _require_discountable(rate: float, horizon: float) -> None:
    """Reject a rate whose discount factor ``exp(-rate * t)`` overflows for a ``t <= horizon``."""
    if -rate * horizon > _LOG_FLOAT_MAX:
        raise ValueError(f"rate must keep exp(-rate * t) finite up to t = {horizon:g}, "
                         f"got {rate!r}")


def _thetas(steps: int, rannacher_steps: int) -> list[float]:
    """Crank-Nicolson with a fully implicit start to damp payoff kinks."""
    return [1.0] * rannacher_steps + [0.5] * (steps - rannacher_steps)


def price_european(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400, steps: int = 400,
                   rannacher_steps: int = 4) -> PriceResult:
    """Value a European call or put by marching the pricing equation.

    ``vol`` is either a constant volatility or a :class:`VolatilityDecay`.
    The domain is truncated at ``s_max`` (four strikes by default) with the
    discounted asymptotic payoff imposed there.
    """
    s_max = _check_option_args(kind, strike, rate, vol, expiry, s_max, intervals, steps,
                               rannacher_steps)
    mesh = Mesh1D(0.0, s_max, intervals + 1)
    prob = _bs_problem(kind, strike, rate, vol, expiry, s_max)
    U, _, _ = _march(prob, mesh, _thetas(steps, rannacher_steps))
    return PriceResult(grid=mesh.points(), values=U)


def price_american(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400, steps: int = 400,
                   rannacher_steps: int = 4) -> PriceResult:
    """Value an American call or put; each level is projected onto the payoff.

    The comparison of continuation and intrinsic value happens node by
    node after every step, so the returned values satisfy
    ``value >= payoff`` everywhere.  The reported exercise boundary is the
    largest underlying level sitting on the payoff at each time level.
    """
    s_max = _check_option_args(kind, strike, rate, vol, expiry, s_max, intervals, steps,
                               rannacher_steps)
    mesh = Mesh1D(0.0, s_max, intervals + 1)
    prob = _bs_problem(kind, strike, rate, vol, expiry, s_max)
    if kind == "put":
        # Immediate exercise is optimal at S = 0, so the boundary holds the
        # full strike rather than its discounted value.
        prob = replace(prob, g0=lambda tau: float(strike))
    payoff = (lambda x: np.maximum(x - strike, 0.0)) if kind == "call" \
        else (lambda x: np.maximum(strike - x, 0.0))
    U, times, boundary = _march(prob, mesh, _thetas(steps, rannacher_steps),
                                payoff_floor=payoff, track_exercise=True)
    return PriceResult(grid=mesh.points(), values=U,
                       exercise_times=times, exercise_boundary=boundary)


# ---------------------------------------------------- mortality option #

@dataclass(frozen=True)
class MortalityOptionValue:
    """Twin valuations of the option on a settlement position.

    ``mc_value`` (with its standard error) averages the discounted payoff
    over sampled death years, the only thing simulated; ``exact_value`` is
    the expectation that estimate targets, the discounted payoffs summed
    against the life table's death-year probabilities, so
    ``mc_value - exact_value`` is pure sampling error.  ``pde_value``
    prices an American-style claim on a notional index whose volatility
    is the dispersion of the expected-lifetime estimate.  The Monte Carlo
    and grid values answer subtly different questions and are
    deliberately never averaged.
    """

    mc_value: float
    mc_std_error: float
    pde_value: float
    exact_value: float


def _year_payoff(pol, t_max: int) -> np.ndarray:
    """Settlement payoff by death year ``1..t_max``, floored at zero, clamped to the schedule.

    Entry ``y - 1`` belongs to death year ``y``; one scalar valuation per
    year, however many paths or grid nodes read it.
    """
    if isinstance(pol, PolicySchedule):
        horizon = min(t_max, len(pol))
        values = [lsv_schedule(pol, min(year, horizon)) for year in range(1, t_max + 1)]
    else:
        values = [lsv(pol, year) for year in range(1, t_max + 1)]
    return np.array([max(v, 0.0) for v in values])


def price_mortality_option(pol: FlatPolicy | PolicySchedule, table: LifeTable, x: int,
                           vole_sigma: float, r: float, n_paths: int, rng: RngStream,
                           intervals: int = 400, steps: int = 400) -> MortalityOptionValue:
    """Value the right to a settlement position's payoff at the (random) death year.

    Monte Carlo route: sample ``n_paths`` death years from the life table,
    discount ``max(position value, 0)`` back at ``r``, average; the same
    discounted payoffs weighted by the death-year probabilities give
    ``exact_value``.  Either way the payoff is evaluated once per death
    year, not per path.  The route reads exactly ``n_paths`` uniforms from
    ``rng``, one per death year, and nothing else.  A rate whose discount
    factor overflows within the table's horizon raises ``ValueError``; an
    estimate that overflows raises :class:`NumericalError`.
    PDE route: treat the expected remaining lifetime as a notional
    log-normal index with spot ``e = complete_expectation(table, x)`` and
    volatility ``vole_sigma``, map index levels to death years by rounding
    (ties to even), and value the American-style claim on that payoff.  The
    index is a modeling stand-in, so the two values are reported side by
    side rather than reconciled.
    """
    if not 0.0 <= vole_sigma < 1.0:
        raise ValueError("vole_sigma must lie in [0, 1)")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    require_finite(rate=r)
    spot = complete_expectation(table, x)
    t_max = table.omega - x + 1
    _require_discountable(r, t_max)
    by_year = _year_payoff(pol, t_max)
    disc = np.array([math.exp(-r * year) * v for year, v in enumerate(by_year.tolist(), start=1)])

    paid = disc[sample_death_years(table, x, n_paths, rng) - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        mc_mean = float(np.mean(paid))
        mc_se = float(np.std(paid, ddof=1) / math.sqrt(n_paths))
    exact = float(death_distribution(table, x) @ disc)
    if not all(map(math.isfinite, (mc_mean, mc_se, exact))):
        raise NumericalError("Monte Carlo estimate overflowed: discounted payoffs reach "
                             f"{float(disc.max()):g}")

    s_max = max(4.0 * spot, float(t_max + 1))
    mesh = Mesh1D(0.0, s_max, intervals + 1)
    payoff_grid = lambda s: by_year[np.clip(np.rint(s), 1, t_max).astype(int) - 1]
    if vole_sigma > 0.0:
        sigma = lambda s, tau: 0.5 * vole_sigma ** 2 * s * s
    else:
        sigma = lambda s, tau: np.zeros_like(s)
    prob = ParabolicProblem(
        sigma=sigma,
        mu=lambda s, tau: r * s,
        b_coef=lambda s, tau: np.full_like(s, -r),
        f=lambda s, tau: np.zeros_like(s),
        phi=payoff_grid,
        g0=lambda tau: float(by_year[0]),
        g1=lambda tau: float(by_year[-1]),
        horizon=float(t_max),
        autonomous=True)
    U, _, _ = _march(prob, mesh, _thetas(steps, min(4, steps)), payoff_floor=payoff_grid)
    pde_value = float(np.interp(spot, mesh.points(), U))
    return MortalityOptionValue(mc_value=mc_mean, mc_std_error=mc_se, pde_value=pde_value,
                                exact_value=exact)
