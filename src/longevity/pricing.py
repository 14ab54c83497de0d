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

A step works in place: it builds its right-hand side in a preallocated
state vector, in the same order of operations as the textbook formula,
back-substitutes it there with one LAPACK ``dgttrs`` call, and tests the
new state for finiteness once.  Every pricer here values a claim on a
lognormal index, so one builder assembles its equation (diffusion
``vol**2 S**2 / 2``, drift ``rate S``, reaction ``-rate``, no source) and
the march itself stays private.  Constant volatility makes that problem
autonomous: its coefficients are evaluated and its stencil assembled once
per march, and each step matrix is LU-factored once per theta, so a step
costs one explicit product and one back-substitution.  Under
:class:`VolatilityDecay` the coefficients move with ``tau``; they are
evaluated once per bounded block of levels, each callable taking the
block's ``tau`` values as one column, and the block is assembled by one
``fitted_stencil`` call; its step matrices are formed together and checked
for finiteness once, and each is factored afresh.  A source that is
``+0.0`` at every node, as the pricing equation's is, is not subtracted
at all, since taking away ``+0.0`` leaves every value as it was.

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

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, require_finite
from .fdm import Mesh1D, _lu_solve, _lu_tridiagonal, _require_finite_tridiagonal, fitted_stencil
from .lifetable import LifeTable, complete_expectation, death_distribution
from .settlement import FlatPolicy, PolicySchedule, lsv, lsv_schedule
from .simulate import RngStream, sample_death_years
# no longer called here; perfbench's layer tracer still wraps it under this
# module's name, so the binding stays until the benchmark drops that target
from .simulate import randomized_horizon_payoff  # noqa: F401

__all__ = [
    "VolatilityDecay",
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
    ``(x, tau)`` evaluated on a block of time levels at once: ``x`` is the
    1-D array of interior nodes and ``tau`` a float column of shape
    ``(levels, 1)``.  Each returns an array or scalar that broadcasts to
    ``(levels, x.size)``, row ``i`` holding the coefficient at
    ``tau[i, 0]``, so a coefficient that ignores ``tau`` may return one row
    or one scalar; branch on ``tau`` with ``np.where``, not a Python
    ``if``.  ``phi`` is the state at ``tau = 0``; ``g0`` and ``g1`` give the
    left and right boundary values as functions of a scalar ``tau``;
    ``horizon`` is the total remaining time to march.  ``phi`` must agree
    with ``g0``/``g1`` at the domain corners (checked against the mesh when
    stepping starts).

    ``autonomous`` states that the four coefficients ignore ``tau`` (the
    boundary values may still move).  The march then calls each of them
    once, with ``tau = [[0.0]]``, and keeps that operator for the whole
    horizon.
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


def _coefficients(prob: ParabolicProblem, xi: np.ndarray, tau: np.ndarray) -> tuple:
    """``sigma``, ``mu``, ``b_coef`` and ``f`` on the interior nodes at the column ``tau``.

    Each callable is called once, for every level of the column together,
    and each value keeps the shape it came in, broadcastable to
    ``(levels, nodes)``.  The source is None when it is ``+0.0`` at every
    node of every level: no nonzero entry, no ``-0.0`` and no NaN.
    Otherwise it is copied out at once, so a callable that refills one
    buffer in place is still read correctly; the other three are used up
    before the next block is evaluated.
    """
    sigma, mu, b = (np.asarray(c(xi, tau), dtype=float)
                    for c in (prob.sigma, prob.mu, prob.b_coef))
    f = np.asarray(prob.f(xi, tau), dtype=float)
    if not (f.any() or np.signbit(f).any()):  # any() counts a NaN as nonzero
        return sigma, mu, b, None
    return sigma, mu, b, f.copy()


def _assembled(prob: ParabolicProblem, xi: np.ndarray, h: float, tau: np.ndarray) -> tuple:
    """``(sub, diag, sup, f, left, right)`` of the levels at the column ``tau``, row by level.

    One ``fitted_stencil`` call (looked up as this module's global, where
    tracers and tests replace it) assembles every level.  The operator rows
    come out shaped ``(levels, nodes)``, broadcast only where a coefficient
    was narrower; ``f[i]`` is level ``i``'s source row, or None for a
    ``+0.0`` source.  ``left`` and ``right`` list the weights of the
    boundary values, ``sub[:, 0]`` and ``sup[:, -1]``, as Python floats.
    """
    shape = (tau.shape[0], xi.size)
    sg, mu, bb, f = _coefficients(prob, xi, tau)
    sub, center, sup = fitted_stencil(mu, h, sg)
    sub, dia, sup = (v if v.shape == shape else np.broadcast_to(v, shape)
                     for v in (sub, center + bb, sup))
    f = [None] * shape[0] if f is None else np.broadcast_to(f, shape)
    return sub, dia, sup, f, sub[:, 0].tolist(), sup[:, -1].tolist()


def _levels(prob: ParabolicProblem, xi: np.ndarray, h: float, k: float,
            thetas: Sequence[float]) -> Iterator[tuple]:
    """``(sub, diag, sup, f, left, right, lu)`` of each level ``tau = n*k``, ``n <= len(thetas)``.

    ``sub``, ``diag`` and ``sup`` are the rows of the semi-discrete operator
    ``A`` (``diag`` includes the reaction term), ``f`` is the source row,
    or None where the source is ``+0.0`` throughout, and ``left`` and
    ``right`` are ``sub[0]`` and ``sup[-1]`` as Python floats.  ``lu`` is
    :func:`_factored` for the matrix ``I - k*theta*A`` of the step that
    ends at the level, ``theta = thetas[n - 1]``, and None at ``n = 0``.

    An autonomous problem is evaluated and assembled once, at
    ``tau = [[0.0]]``, and its step matrix factored once per distinct
    theta.  Any other is evaluated and assembled in blocks of levels, each
    coefficient called once per block with the block's ``tau`` column
    (:func:`_assembled`); a block's step matrices are formed together and
    tested for finiteness in one pass, then factored one level at a time.
    """
    if prob.autonomous:
        sub, dia, sup, f, left, right = _assembled(prob, xi, h, np.zeros((1, 1)))
        level = (sub[0], dia[0], sup[0], f[0], left[0], right[0])
        yield *level, None
        factored = {}
        for theta in thetas:
            if theta not in factored:
                matrix = _step_matrix(*level[:3], k * theta)
                factored[theta] = _factored(matrix, check=True)
            yield *level, factored[theta]
        return
    block = max(1, _BLOCK_NODES // xi.size)
    n_levels = len(thetas) + 1
    for start in range(0, n_levels, block):
        levels = range(start, min(start + block, n_levels))
        tau = np.array([n * k for n in levels])[:, None]
        sub, dia, sup, f, left, right = _assembled(prob, xi, h, tau)
        # k*theta of the step that ends at each level; level 0 ends none
        kt = np.array([k * thetas[n - 1] if n else 0.0 for n in levels])[:, None]
        matrices = _step_matrix(sub, dia, sup, kt)
        # one pass for the block; only a block that fails it is checked level by level
        check = not np.isfinite(matrices).all()
        for i, n in enumerate(levels):
            lu = _factored(matrices[:, i], check) if n else None
            yield sub[i], dia[i], sup[i], f[i], left[i], right[i], lu


def _step_matrix(sub, dia, sup, kt) -> np.ndarray:
    """``lower``, ``diag`` and ``upper`` of ``I - kt*A`` stacked on a new first axis.

    Rows of 2-D operators take a column ``kt``.  The entries no
    factorization reads, ``lower[..., 0]`` and ``upper[..., -1]``, are
    zeroed, so one finiteness pass over the stack checks all the others.
    """
    matrix = np.empty((3,) + sub.shape)
    lower, diag, upper = matrix
    np.multiply(-kt, sub, out=lower)
    np.multiply(kt, dia, out=diag)
    np.subtract(1.0, diag, out=diag)
    np.multiply(-kt, sup, out=upper)
    lower[..., 0] = upper[..., -1] = 0.0
    return matrix


def _factored(matrix: np.ndarray, check: bool):
    """``dgttrf`` factors of a step matrix, or the error factoring it raised.

    The factors overwrite ``matrix``.  The error is returned, not raised,
    so that the march raises it only after testing the step's right-hand
    side: a step that blows up on its own reports that first.
    """
    try:
        if check:
            _require_finite_tridiagonal(*matrix)
        return _lu_tridiagonal(*matrix)
    except (ValueError, NumericalError) as exc:
        return exc


def _march(prob: ParabolicProblem, mesh: Mesh1D, thetas: Sequence[float],
           american: bool = False, track_exercise: bool = False):
    """Theta-march the problem over the horizon, one theta per step.

    Step ``n`` goes from ``tau = n*k`` to ``(n+1)*k`` with the operator of
    both levels (:func:`_levels`).  For an autonomous problem the operator
    never changes, so the step matrix ``I - k*theta*A`` is LU-factored once
    per distinct theta: a Rannacher start followed by Crank-Nicolson costs
    two factorizations in all.  Otherwise every step factors its own, and
    the step matrices are tested for finiteness once per assembled block.

    A step works in place on preallocated vectors: it builds the
    right-hand side ``U + k(1-theta)(A_old U - f_old) - k theta f_new``
    in the interior of the other state buffer, in that order of
    operations, back-substitutes it there with one ``dgttrs``, and swaps
    the buffers; the result is tested for finiteness once, into a
    preallocated mask.  A level whose source is ``+0.0`` throughout has
    none, and its term is skipped: ``k*theta >= 0``, so the term is
    ``+0.0`` at every node, and subtracting it changes no value, not even
    a ``-0.0``.  The two boundary increments are formed in Python floats.
    Thetas and the boundary values of every level are taken before the
    first step.

    ``american`` projects every level onto the payoff ``phi(x)``, and
    ``track_exercise`` records, per level, the largest node where the value
    sits on it.  Returns ``(U, times, boundary)``; the last two are None
    when the exercise boundary is not tracked.
    """
    x = mesh.points()
    n_steps = len(thetas)
    k = prob.horizon / n_steps

    payoff = np.asarray(prob.phi(x), dtype=float)
    U = payoff.copy()
    if U.shape != x.shape:
        raise ValueError("phi must evaluate to one value per mesh point")
    scale = max(1.0, float(np.max(np.abs(U))))
    g0_0, g1_0 = float(prob.g0(0.0)), float(prob.g1(0.0))
    if abs(U[0] - g0_0) > 1e-8 * scale or abs(U[-1] - g1_0) > 1e-8 * scale:
        raise ValueError("initial state disagrees with boundary data at a domain corner")
    U[0], U[-1] = g0_0, g1_0
    if not all(0.0 <= theta <= 1.0 for theta in thetas):
        raise ValueError("theta must lie in [0, 1]")
    taus = [(n + 1) * k for n in range(n_steps)]
    g0s = [float(prob.g0(tau)) for tau in taus]
    g1s = [float(prob.g1(tau)) for tau in taus]

    boundary = []
    if american:
        np.maximum(U, payoff, out=U)
        if track_exercise:
            # a node is on the floor when its value is within tol of a payoff above tol
            tol = 1e-7 * (1.0 + float(np.max(payoff)))
            positive = payoff > tol
            gap = np.empty_like(U)
            on_floor = np.empty(U.shape, dtype=bool)

    # two state buffers with their neighbour views: a step reads one and
    # writes the other
    state, other = ((u, u[:-2], u[1:-1], u[2:]) for u in (U, np.empty_like(U)))
    scratch = np.empty(x.size - 2)
    finite = np.empty(x.size, dtype=bool)
    # an overflow in the coefficients or the step arithmetic leaves a
    # non-finite value, which fitted_stencil, the factorization or the
    # state check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        levels = _levels(prob, x[1:-1], mesh.h, k, thetas)
        sub_o, dia_o, sup_o, f_o, *_ = next(levels)
        for n, theta in enumerate(thetas):
            sub_n, dia_n, sup_n, f_n, left_n, right_n, lu = next(levels)
            _, left, mid, right = state
            V, _, b, _ = other
            kt = k * theta
            np.multiply(sub_o, left, out=b)
            np.multiply(dia_o, mid, out=scratch)
            b += scratch
            np.multiply(sup_o, right, out=scratch)
            b += scratch
            if f_o is not None:
                b -= f_o
            b *= k * (1.0 - theta)
            b += mid
            if f_n is not None:
                np.multiply(f_n, kt, out=scratch)
                b -= scratch
            g0v, g1v = g0s[n], g1s[n]
            b[0] += kt * left_n * g0v
            b[-1] += kt * right_n * g1v
            if isinstance(lu, Exception):  # the step matrix failed to factor
                if not np.isfinite(b).all():
                    raise _step_blowup(n, n_steps, k)
                raise lu
            _lu_solve(lu, b)
            V[0], V[-1] = g0v, g1v
            if not np.isfinite(V, out=finite).all():
                raise _step_blowup(n, n_steps, k)
            if american:
                np.maximum(V, payoff, out=V)
            if track_exercise:
                np.subtract(V, payoff, out=gap)
                np.less_equal(gap, tol, out=on_floor)
                on_floor &= positive
                last = on_floor.size - 1 - int(on_floor[::-1].argmax())
                boundary.append(float(x[last]) if on_floor[last] else math.nan)
            sub_o, dia_o, sup_o, f_o = sub_n, dia_n, sup_n, f_n
            state, other = other, state
    U = state[0]
    if track_exercise:
        return U, np.asarray(taus), np.asarray(boundary)
    return U, None, None


def _step_blowup(n: int, n_steps: int, k: float) -> NumericalError:
    return NumericalError(
        f"time march produced non-finite values at step {n + 1} of "
        f"{n_steps} (k = {k:g}); the step is too large for this data")


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


def _lognormal_problem(half_var: Callable[[float], float], autonomous: bool, rate: float,
                       horizon: float, phi: Callable, g0: Callable,
                       g1: Callable) -> ParabolicProblem:
    """The pricing equation of a claim on a lognormal index, in remaining time.

    Diffusion ``half_var(tau) * x * x``, drift ``rate * x``, reaction
    ``-rate`` and no source; ``half_var`` is half the variance rate, a
    function of one float ``tau``, and ``autonomous`` says it ignores
    ``tau``.  It is called in Python floats level by level, so every value
    has the bits of the scalar formula; the drift stays one row wide.
    """
    def sigma(x, tau):
        return np.array([half_var(t) for t in tau.ravel().tolist()])[:, None] * x * x

    return ParabolicProblem(sigma, lambda x, tau: rate * x, lambda x, tau: -rate,
                            lambda x, tau: 0.0, phi, g0, g1, horizon, autonomous)


def _check_option_args(kind: str, strike: float, rate: float, vol, expiry: float,
                       s_max: float | None, intervals: int, steps: int,
                       rannacher_steps: int | None) -> tuple[float, list[float]]:
    """The truncation level ``s_max`` and the step thetas of a valid vanilla request."""
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
    _check_grid(intervals, steps)
    thetas = _thetas(steps, rannacher_steps)
    if not isinstance(vol, VolatilityDecay) and not float(vol) > 0.0:
        raise ValueError("volatility must be positive")
    return s_max, thetas


def _check_grid(intervals: int, steps: int) -> None:
    if intervals < 2 or steps < 1:
        raise ValueError("need at least 2 space intervals and 1 time step")


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite


def _require_discountable(rate: float, horizon: float) -> None:
    """Reject a rate whose discount factor ``exp(-rate * t)`` overflows for a ``t <= horizon``."""
    if -rate * horizon > _LOG_FLOAT_MAX:
        raise ValueError(f"rate must keep exp(-rate * t) finite up to t = {horizon:g}, "
                         f"got {rate!r}")


def _thetas(steps: int, rannacher_steps: int | None = None) -> list[float]:
    """Crank-Nicolson after ``rannacher_steps`` (None: ``min(4, steps)``) fully implicit steps."""
    if rannacher_steps is None:
        rannacher_steps = min(4, steps)
    if not 0 <= rannacher_steps <= steps:
        raise ValueError("rannacher_steps must lie in [0, steps]")
    return [1.0] * rannacher_steps + [0.5] * (steps - rannacher_steps)


def _price_vanilla(american: bool, kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None, intervals: int, steps: int,
                   rannacher_steps: int | None) -> PriceResult:
    s_max, thetas = _check_option_args(kind, strike, rate, vol, expiry, s_max, intervals,
                                       steps, rannacher_steps)
    decays = isinstance(vol, VolatilityDecay)
    vol_at = vol.at if decays else (lambda tau, level=float(vol): level)

    def half_var(tau):
        # v * v, not v ** 2: on a huge volatility the float power raises
        # OverflowError, while the product overflows to inf, which the
        # fitted stencil rejects as a domain error
        v = vol_at(tau)
        return 0.5 * v * v

    if kind == "call":
        phi = lambda x: np.maximum(x - strike, 0.0)
        g0 = lambda tau: 0.0
        g1 = lambda tau: s_max - strike * math.exp(-rate * tau)
    else:
        phi = lambda x: np.maximum(strike - x, 0.0)
        # an American put is exercised at S = 0, so that boundary holds the
        # full strike rather than its discounted value
        g0 = (lambda tau: float(strike)) if american else \
            (lambda tau: strike * math.exp(-rate * tau))
        g1 = lambda tau: 0.0
    prob = _lognormal_problem(half_var, not decays, rate, expiry, phi, g0, g1)
    mesh = Mesh1D(0.0, s_max, intervals + 1)
    U, times, boundary = _march(prob, mesh, thetas, american, track_exercise=american)
    return PriceResult(mesh.points(), U, times, boundary)


def price_european(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400, steps: int = 400,
                   rannacher_steps: int | None = None) -> PriceResult:
    """Value a European call or put by marching the pricing equation.

    ``vol`` is either a constant volatility or a :class:`VolatilityDecay`.
    The domain is truncated at ``s_max`` (four strikes by default) with the
    discounted asymptotic payoff imposed there.  The first
    ``rannacher_steps`` steps are fully implicit, the rest Crank-Nicolson;
    None means ``min(4, steps)``.
    """
    return _price_vanilla(False, kind, strike, rate, vol, expiry, s_max, intervals, steps,
                          rannacher_steps)


def price_american(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400, steps: int = 400,
                   rannacher_steps: int | None = None) -> PriceResult:
    """Value an American call or put; each level is projected onto the payoff.

    Arguments are those of :func:`price_european`.  The comparison of
    continuation and intrinsic value happens node by node after every
    step, so the returned values satisfy ``value >= payoff`` everywhere.
    The reported exercise boundary is the largest underlying level sitting
    on the payoff at each time level.
    """
    return _price_vanilla(True, kind, strike, rate, vol, expiry, s_max, intervals, steps,
                          rannacher_steps)


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
    year, not per path.  The route reads exactly ``n_paths`` 64-bit words
    from ``rng``, one uniform per sampled death year, and nothing else.
    A rate whose discount factor overflows within the table's horizon
    raises ``ValueError``; an estimate that overflows raises
    :class:`NumericalError`.
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
    _check_grid(intervals, steps)
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
    half_var = 0.5 * vole_sigma ** 2
    prob = _lognormal_problem(
        lambda tau: half_var, True, r, float(t_max),
        phi=lambda s: by_year[np.clip(np.rint(s), 1, t_max).astype(int) - 1],
        g0=lambda tau: float(by_year[0]),
        g1=lambda tau: float(by_year[-1]))
    U, _, _ = _march(prob, mesh, _thetas(steps), american=True)
    pde_value = float(np.interp(spot, mesh.points(), U))
    return MortalityOptionValue(mc_value=mc_mean, mc_std_error=mc_se, pde_value=pde_value,
                                exact_value=exact)
