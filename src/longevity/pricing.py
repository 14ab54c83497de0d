"""Parabolic marching and option valuation on a fixed tridiagonal operator.

Everything here lives in remaining-time coordinates: ``tau`` is time left,
the initial condition is the payoff at ``tau = 0``, and the march runs
forward in ``tau``.  The march steps ``u_tau = A u`` with Dirichlet values
at both ends of the mesh, where ``A`` is one tridiagonal operator on the
interior nodes that each pricer assembles itself.

Time is stepped by the theta scheme: four fully implicit steps, or every
step of a shorter march, damp the payoff kink, then Crank-Nicolson takes
over (Rannacher 1984; Giles & Carter 2006; Duffy, "A critique of the
Crank-Nicolson scheme", Wilmott 2004).

The operator does not move with ``tau``, so the march factors its one or
two step matrices, implicit and Crank-Nicolson, before its first step.
A Crank-Nicolson step is an implicit half step followed by a linear
extrapolation, so every step costs one back-substitution and at most one
vector subtraction, and none forms the explicit product ``A U``.  The
march is bound by interpreter round trips more than by arithmetic, so a
step makes as few calls into numpy and LAPACK as it can.  It runs in two
phases of one loop, implicit then Crank-Nicolson, with each phase's
theta, solve and right-hand-side scale bound once.  A step works in
place on the interior nodes: it builds its right-hand side in a
preallocated state vector, adding the boundary terms in Python floats,
back-substitutes it there with one positional LAPACK call, extrapolates
there, and tests the interior for finiteness with one dot product.  The
boundary values are carried as floats and written into the state only
where a projection or the caller reads it.
Every step matrix is factored by :func:`.fdm._factor_tridiagonal`, whose
``symmetric`` flag picks the factorization.  The vanilla pricers' rows,
scaled row by row, make every step matrix symmetric positive definite, so
it is factored as ``L D L^T`` and solved by ``dpttrs``, with no pivots.
The mortality leg's rows carry convection, and at zero volatility they
are pure upwinding with a zero entry on one side of the diagonal, which
no row scaling makes symmetric; its steps keep pivoted LU and ``dgttrs``.

Every pricer here values a claim on a lognormal index, whose pricing
equation has diffusion ``vol**2 S**2 / 2``, drift ``rate S`` and reaction
``-rate``.  The vanilla pricers march it on the variance clock (Merton
1973; Wilmott, Howison & Dewynne 1995, ch. 5): with ``E`` the expiry,
``x = S e^{r(tau - E)}``, ``v = e^{r(tau - E)} u`` and
``T(tau) = int_0^tau vol(s)**2 / 2 ds``, the value solves
``v_T = x**2 v_xx``, with no drift, no reaction and no time dependence,
for constant and decaying volatility alike, so its rows are plain second
differences.  At ``tau = E`` the new variables are the old ones, so the
grid and the values come back unchanged.  The mortality option's grid leg
still marches the equation in ``S`` at its own constant volatility, on
the exponentially fitted stencil from :mod:`.fdm`, which keeps every time
level monotone however convection-dominated the rows are.

Option valuation composes the march with payoff-specific boundary data.
American exercise is handled by projecting each time level onto the
payoff seen at that level, which is the discrete form of comparing
continuation and intrinsic value node by node; the nodes the projection
lifts are the exercised ones, and the one nearest the strike is the
level's exercise boundary.  The mortality option
values a policy position both by Monte Carlo over the death-year
distribution and by the same PDE machinery on a notional index; both
numbers are reported side by side.  Its payoff depends on the death year
alone, so it is valued once per year and gathered by index, by every path
and every grid node; the same per-year vector summed against the
death-year probabilities gives the exact value the Monte Carlo estimate
targets.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, _Record, require_finite
from .fdm import _factor_tridiagonal, fitted_stencil
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


class VolatilityDecay(_Record):
    """Volatility that relaxes as expiry approaches: ``sigma0 * exp(-decay * tau)``.

    ``tau`` is remaining time, so the level at expiry itself is ``sigma0``
    and the level seen far from expiry is damped.  :meth:`clock` is the
    variance clock the vanilla pricers march on, half the variance
    accumulated over ``tau``, and :meth:`clock_inverse` maps a clock
    reading back to remaining time; both are closed forms.
    """

    sigma0: float
    decay: float

    def __post_init__(self):
        require_finite(sigma0=self.sigma0, decay=self.decay)
        if not self.sigma0 > 0.0:
            raise ValueError("sigma0 must be positive")
        if self.decay < 0.0:
            raise ValueError("decay must be >= 0")

    def clock(self, tau: float) -> float:
        """``T(tau)``, the integral of ``vol(s)**2 / 2`` over ``s`` in ``[0, tau]``.

        ``sigma0**2 * (1 - exp(-2 decay tau)) / (4 decay)``, through
        ``expm1`` so it keeps its digits as ``decay * tau`` goes to zero;
        ``decay = 0`` gives the constant-volatility ``0.5 * v * v * tau``.
        ``v * v``, not ``v ** 2``: a huge volatility overflows to an infinite
        clock, which the pricers reject as a domain error, instead of
        raising ``OverflowError``.
        """
        v, d = self.sigma0, self.decay
        if d == 0.0:
            return 0.5 * v * v * tau
        return v * v * -math.expm1(-2.0 * d * tau) / 4.0 / d

    def clock_inverse(self, t: float) -> float:
        """The remaining time whose :meth:`clock` reads ``t``.

        ``-log1p(-4 decay t / sigma0**2) / (2 decay)``, or ``2 t / sigma0**2``
        without decay.  The clock never reaches ``sigma0**2 / (4 decay)``; a
        reading at or past it maps to ``inf``.  Where the
        clock has all but stopped (``decay * tau`` beyond about 10) a
        rounding of ``t`` moves the answer far, so the round trip keeps its
        digits only short of that.
        """
        v, d = self.sigma0, self.decay
        if d == 0.0:
            return 2.0 * t / v / v
        ratio = d * t * 4.0 / v / v
        return -math.log1p(-ratio) / 2.0 / d if ratio < 1.0 else math.inf


def _step_matrix(sub, dia, sup, kt: float, weights) -> np.ndarray:
    """``lower``, ``diag`` and ``upper`` of ``diag(weights) - kt*rows`` stacked on a new first axis.

    ``weights`` is a vector or the scalar 1.0, which gives ``I - kt*A`` for
    rows ``(sub, dia, sup)`` of ``A``.  As in :func:`.fdm._factor_tridiagonal`,
    ``lower[0]`` and ``upper[-1]`` lie outside the matrix; no check or
    factorization reads them.
    """
    matrix = np.empty((3,) + sub.shape)
    lower, diag, upper = matrix
    np.multiply(-kt, sub, out=lower)
    np.multiply(kt, dia, out=diag)
    np.subtract(weights, diag, out=diag)
    np.multiply(-kt, sup, out=upper)
    return matrix


def _march(rows: tuple, U: np.ndarray, k: float, implicit_steps: int,
           g0s: Sequence[float], g1s: Sequence[float],
           project: Callable[[int, np.ndarray], None] | None = None,
           weights: np.ndarray | None = None) -> np.ndarray:
    """March ``u_tau = A u`` from ``U``: ``implicit_steps`` implicit steps, then Crank-Nicolson.

    ``rows`` is ``(sub, dia, sup)`` of ``A`` on the interior nodes, and
    ``U`` the state at ``tau = 0`` on every node, its ends already at the
    boundary values; the march overwrites it.  Step ``n`` produces level
    ``n + 1``, whose left and right boundary values are the floats
    ``g0s[n]`` and ``g1s[n]``; there are ``len(g0s)`` steps.  ``A`` never
    changes, so the march factors the step matrix ``I - k theta A`` of each
    kind of step it takes, ``theta = 1`` for an implicit step and ``1/2``
    for Crank-Nicolson, before the first step, by
    :func:`.fdm._factor_tridiagonal`, and a matrix that is not finite or
    fails to factor raises there: a Rannacher start followed by
    Crank-Nicolson costs two factorizations in all.  The steps run in two
    phases of one loop, steps ``[0, implicit_steps)`` and then the rest,
    and each phase binds its theta, solve and right-hand-side scale once.

    Given positive ``weights``, ``rows`` are those of ``diag(weights) A``
    instead, and must be symmetric (``sub[1:] == sup[:-1]``, of which the
    factorization reads ``sup``).  Each step then solves the scaled system
    ``diag(weights) (I - k theta A)``, symmetric positive definite when
    ``diag(weights) A`` is negative semidefinite, by ``L D L^T``
    (``symmetric=True``): one ``dpttrs`` back-substitution, with no pivots
    to test and its divisions off the row-to-row chain.  Without weights
    the step matrix ``I - k theta A`` is factored by pivoted LU and solved
    by ``dgttrs``.

    No step forms ``A U0``: the step
    ``(I - k theta A) U1 = (I + k(1-theta) A) U0`` is one implicit step of
    length ``k theta`` to ``Y = theta U1 + (1-theta) U0``, followed at
    ``theta = 1/2`` by the extrapolation ``U1 = 2 Y - U0``.  A step builds
    ``U0 * (weights/theta)`` (unit weights without them) plus the boundary
    increments ``k c (theta g_{n+1} + (1-theta) g_n)``, with ``c`` the
    edge row's entry for the boundary node and ``g_0`` the end of ``U``,
    formed in Python floats, in the interior of the other state buffer;
    back-substitutes it there to ``Y/theta`` by one positional LAPACK call;
    subtracts ``U0`` in place at ``theta = 1/2`` and swaps the buffers.
    One dot product of the new interior with itself tests it for
    finiteness: squares cannot cancel, so any inf or NaN makes it
    non-finite, and only when it overflows are the values tested one by
    one.  The interior suffices.  The boundary values enter the step only
    through its increments, and a non-finite ``g`` makes its increment
    non-finite (``0 * inf`` is NaN too), so the first or last interior
    entry of the right-hand side is non-finite, and so is the solution
    the back-substitution carries it into.

    The boundary values are carried as floats, not read back from the
    state, and written into the state's ends only before ``project`` and
    at the end.  ``project``, for an American claim, is called as
    ``project(n, V)`` with the level ``V`` that step ``n`` produced, its
    ends at ``g0s[n]`` and ``g1s[n]``, and projects it in place onto the
    claim's floor, leaving the ends as they are: the floor at the ends
    lies at or below the boundary values.  The initial state must lie on
    or above its floor already.  Returns the state of the last level.
    """
    n_steps = len(g0s)
    # two state buffers with their interior views: a step reads one and
    # writes the other
    state, other = ((u, u[1:-1]) for u in (U, np.empty_like(U)))
    sub, dia, sup = rows
    symmetric = weights is not None
    w = weights if symmetric else 1.0
    # an overflow in the step arithmetic leaves a non-finite value, which
    # the factorization or the state check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # (theta, first step, end, solve) of the implicit and the
        # Crank-Nicolson phase, both factored before the first step
        phases = [(theta, start, end,
                   _factor_tridiagonal(*_step_matrix(sub, dia, sup, k * theta, w), symmetric))
                  for theta, start, end in ((1.0, 0, implicit_steps),
                                            (0.5, implicit_steps, n_steps)) if start < end]
        left_c, right_c = k * float(sub[0]), k * float(sup[-1])
        g0, g1 = float(U[0]), float(U[-1])
        for theta, start, end, solve in phases:
            # a float scale as a 0-d array, which numpy multiplies by without
            # converting it on every step
            scale, rest, extrapolate = np.asarray(w / theta), 1.0 - theta, theta == 0.5
            for n in range(start, end):
                mid = state[1]
                V, b = other
                np.multiply(mid, scale, out=b)
                u0, u1, g0, g1 = g0, g1, g0s[n], g1s[n]
                b[0] += left_c * (theta * g0 + rest * u0)
                b[-1] += right_c * (theta * g1 + rest * u1)
                solve(b)
                if extrapolate:
                    b -= mid
                if not (math.isfinite(b.dot(b)) or np.isfinite(b).all()):
                    raise _step_blowup(n, n_steps, k)
                if project is not None:
                    V[0], V[-1] = g0, g1
                    project(n, V)
                state, other = other, state
    U = state[0]
    U[0], U[-1] = g0, g1
    return U


def _step_blowup(n: int, n_steps: int, k: float) -> NumericalError:
    return NumericalError(
        f"time march produced non-finite values at step {n + 1} of "
        f"{n_steps} (k = {k:g}); the step is too large for this data")


# ------------------------------------------------------ option pricing #

class PriceResult(_Record):
    """Value curve of an option on the final time level.

    ``grid`` holds the underlying levels, ``values`` the option values.
    For American styles, ``exercise_times`` and ``exercise_boundary`` give
    each time level's exercise boundary: the lifted node nearest the
    strike, where a node is lifted when the level's projection raises its
    value onto a positive payoff.  That is the smallest lifted level for a
    call and the largest for a put, and NaN on a level that lifts no node.
    Without dividends early exercise pays only for a put at ``r > 0`` and a
    call at ``r < 0`` (Merton 1973), so elsewhere every level is NaN.  The
    mesh ends hold their payoff or more and are never lifted.  The times
    are equal steps of the variance clock, so under decaying volatility
    they are not evenly spaced; the last is the expiry.

    The march's mesh is uniform in ``x = S e^{r(tau - E)}``, so a level's
    boundary is resolved in ``S`` only to the mesh spacing times
    ``e^{r(E - tau)}``.
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


def _check_option_args(kind: str, strike: float, rate: float, vol, expiry: float,
                       s_max: float | None, intervals: int, steps: int) -> float:
    """The truncation level ``s_max`` of a valid vanilla request.

    ``s_max`` is finite and above the positive strike, and ``intervals`` at
    least 2, so the mesh ``np.linspace(0, s_max, intervals + 1)`` is a
    valid one.  Its spacing ``s_max / intervals`` must be a normal float: a
    subnormal one has lost the relative precision that the mesh points
    and the row weights ``(h / x)**2`` are formed to.
    """
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
    if not isinstance(vol, VolatilityDecay) and not float(vol) > 0.0:
        raise ValueError("volatility must be positive")
    if not s_max / intervals >= sys.float_info.min:
        raise ValueError(f"mesh spacing s_max / intervals must be at least "
                         f"{sys.float_info.min:g}, got {s_max / intervals:g}")
    return s_max


def _check_grid(intervals: int, steps: int) -> None:
    if intervals < 2 or steps < 1:
        raise ValueError("need at least 2 space intervals and 1 time step")


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x whose exp(x) is finite


def _require_discountable(rate: float, horizon: float) -> None:
    """Reject a rate whose discount factor ``exp(-rate * t)`` overflows for a ``t <= horizon``."""
    if -rate * horizon > _LOG_FLOAT_MAX:
        raise ValueError(f"rate must keep exp(-rate * t) finite up to t = {horizon:g}, "
                         f"got {rate!r}")


# the fully implicit steps that start every march before Crank-Nicolson, or
# every step of a shorter one
_RANNACHER_STEPS = 4


def _level_times(clock: VolatilityDecay, expiry: float, steps: int) -> list[float]:
    """Remaining time at the end of each of ``steps`` equal steps of ``clock`` over ``expiry``.

    Without decay the clock runs at a constant rate, so these are
    ``(n+1) * expiry / steps``.  With decay they are :meth:`clock_inverse`
    of the step ends, clamped to ``expiry``, taken on the clock of unit
    ``sigma0``: ``sigma0`` only scales the clock, and a clock that
    underflows would have lost them.  The last time is ``expiry`` exactly.
    """
    if clock.decay == 0.0:
        k = expiry / steps
        times = [(n + 1) * k for n in range(steps - 1)]
    else:
        shape = VolatilityDecay(1.0, clock.decay)
        k = shape.clock(expiry) / steps
        times = [min(shape.clock_inverse((n + 1) * k), expiry) for n in range(steps - 1)]
    return times + [expiry]


def _price_vanilla(american: bool, kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None, intervals: int, steps: int) -> PriceResult:
    """Value a vanilla claim by marching ``v_T = x**2 v_xx`` on the variance clock.

    The variables are the module docstring's.  The march runs in
    ``T / m``, where ``m = T(E) / E`` is the mean half-variance rate: its
    horizon is ``E`` and its ``steps`` equal steps of ``E / steps`` are
    equal steps of the clock, and under constant volatility it is
    remaining time itself.  A clock that underflows gives ``m = 0``, a
    march that leaves the payoff as it is.  The first ``min(4, steps)``
    steps are fully implicit and the rest Crank-Nicolson.  The mesh, of
    ``intervals`` cells of width ``h = s_max / intervals``, is the same at
    every level, so the grid ends at ``s_max``.  The rows are the plain second
    differences ``a (1, -2, 1)`` with ``a = m x**2 / h**2``.  Scaled by
    ``w = (h / x)**2`` they are ``m (1, -2, 1)``, so the step matrix
    ``I - k theta A`` scaled the same way is ``diag(w) + k theta m``
    times ``(-1, 2, -1)``: symmetric positive definite for every
    ``m >= 0``, and ``diag(w)`` itself at ``m = 0``.  The march takes the
    scaled rows and ``w`` and solves each step by ``L D L^T``.  These are
    the rows it builds, so its checks are on them and do not depend on the
    strike's magnitude: a volatility whose implicit step ``2 k m`` (with
    ``k = E / steps``) overflows is a ``ValueError``, and so is a mesh
    spacing below the smallest normal float (:func:`_check_option_args`).

    The payoff at ``T = 0`` has strike ``K e^{-rE}``.  The boundary values
    are that payoff at ``x = 0`` and ``x = s_max``, constants the driftless
    equation leaves in place far from the strike: ``s_max - K e^{-rE}`` for
    a call and ``K e^{-rE}`` for a put while that strike lies inside the
    mesh.  An American claim is projected at
    level ``n`` onto the payoff of the moving strike ``K e^{r(tau_n - E)}``
    and takes the larger of the two at each boundary, so the American put
    holds ``K e^{r(tau_n - E)}`` at ``x = 0`` for ``r >= 0``.  No factor
    exceeds ``e^{-rE}``, which :func:`_require_discountable` keeps finite.
    Exercise nodes ``x`` map back to ``x e^{r(E - tau_n)}``.

    Everything an American level needs apart from its values is formed
    before the march, in one vectorised pass over the levels: the moving
    strike and the two boundary values.  The projection builds the floor
    in a preallocated buffer, by one subtraction and one maximum against a
    0-d zero, in the same floating point operations as a floor formed
    level by level, and raises the values onto it.  Where early exercise
    pays it first records the lifted node nearest the strike, read off the
    nodes whose floor exceeds ``max(V, 0)``: a positive floor above ``V``.
    Where it cannot pay the levels are projected all the same, so the
    values keep their bits, and no node is read.
    """
    s_max = _check_option_args(kind, strike, rate, vol, expiry, s_max, intervals, steps)
    clock = vol if isinstance(vol, VolatilityDecay) else VolatilityDecay(float(vol), 0.0)
    k, m = expiry / steps, clock.clock(expiry) / expiry
    if not math.isfinite(k * (m + m)):
        raise ValueError("the implicit step's diffusion 2 k m must be finite: the volatility "
                         "is too large for this expiry and step count")
    x, h = np.linspace(0.0, s_max, intervals + 1), s_max / intervals
    xi = x[1:-1]
    call = kind == "call"
    weights = (h / xi) ** 2
    implicit_steps = min(_RANNACHER_STEPS, steps)
    rows = (np.full_like(xi, m), np.full_like(xi, -(m + m)), np.full_like(xi, m))

    def exercise(s, k):  # the payoff at s of strike k, for floats and arrays alike
        return np.maximum(s - k, 0.0) if call else np.maximum(k - s, 0.0)

    strike_0 = strike * math.exp(-rate * expiry)
    left, right = float(exercise(0.0, strike_0)), float(exercise(s_max, strike_0))
    U = exercise(x, strike_0)
    if not american:
        return PriceResult(x, _march(rows, U, k, implicit_steps, [left] * steps,
                                      [right] * steps, weights=weights))

    times = _level_times(clock, expiry, steps)
    scales = np.array([math.exp(rate * (tau - expiry)) for tau in times])  # v / u at levels 1..N
    # a product past the float range is inf, as it would be in Python floats
    with np.errstate(over="ignore"):
        strikes = strike * scales
        # the larger of holding to expiry and exercising at the level's strike
        g0s = np.maximum(left, exercise(0.0, strikes)).tolist()
        g1s = np.maximum(right, exercise(s_max, strikes)).tolist()
    strikes = strikes.tolist()
    # without dividends early exercise pays only for a put at r > 0 and a
    # call at r < 0 (Merton 1973); elsewhere any lift is rounding
    pays = rate < 0.0 if call else rate > 0.0
    floor, held, xs = np.empty_like(x), np.empty_like(x), x.tolist()
    # the level's strike goes to the ufuncs as a 0-d array, which numpy reads
    # without the conversion a Python float costs it on every call
    zero, level_strike = np.zeros(()), np.empty(())
    nodes = [math.nan] * steps

    def project(n, V):  # level n + 1
        level_strike[()] = strikes[n]
        if call:
            np.subtract(x, level_strike, out=floor)
        else:
            np.subtract(level_strike, x, out=floor)
        np.maximum(floor, zero, out=floor)
        if pays:
            # the lifted nodes, a positive floor above V, are where the floor
            # exceeds max(V, 0); the boundary is the one nearest the strike
            np.maximum(V, zero, out=held)
            hits = (floor > held).nonzero()[0]
            if hits.size:
                nodes[n] = xs[hits[0 if call else -1]]
        np.maximum(V, floor, out=V)

    U = _march(rows, U, k, implicit_steps, g0s, g1s, project, weights)
    times = np.asarray(times)
    # the factor back to S overflows only past r(E - tau) = 709, where a
    # put's level strike lies below the first interior node and a call reads
    # no node, so the level's node is NaN already
    with np.errstate(over="ignore"):
        boundary = np.asarray(nodes) * np.exp(rate * (expiry - times))
    return PriceResult(x, U, times, boundary)


def price_european(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400,
                   steps: int = 400) -> PriceResult:
    """Value a European call or put by marching the pricing equation.

    ``vol`` is either a constant volatility or a :class:`VolatilityDecay`.
    The domain is truncated at ``s_max`` (four strikes by default) with the
    discounted asymptotic payoff imposed there, and the equation is marched
    on the variance clock (see the module docstring).  The first four
    steps, or every step of a shorter march, are fully implicit, the rest
    Crank-Nicolson.
    """
    return _price_vanilla(False, kind, strike, rate, vol, expiry, s_max, intervals, steps)


def price_american(kind: str, strike: float, rate: float, vol, expiry: float,
                   s_max: float | None = None, intervals: int = 400,
                   steps: int = 400) -> PriceResult:
    """Value an American call or put; each level is projected onto the payoff.

    Arguments are those of :func:`price_european`.  The comparison of
    continuation and intrinsic value happens node by node after every
    step, so the returned values satisfy ``value >= payoff`` everywhere.
    The reported exercise boundary of each time level is the node nearest
    the strike among those the projection lifted onto a positive payoff:
    the smallest such level for a call, the largest for a put, and NaN
    where there is none.  It is NaN at every level of a call at ``r >= 0``
    and a put at ``r <= 0``, where early exercise never pays (see
    :class:`PriceResult`).
    """
    return _price_vanilla(True, kind, strike, rate, vol, expiry, s_max, intervals, steps)


# ---------------------------------------------------- mortality option #

class MortalityOptionValue(_Record):
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
    # entry y is death year y's discounted payoff; entry 0 is never read
    disc = np.array([0.0] + [math.exp(-r * year) * v
                             for year, v in enumerate(by_year.tolist(), start=1)])
    # gathered into the years' own buffer, as _bucket_years gathers them:
    # each index is read before its slot is written, and "clip" never clips
    years = sample_death_years(table, x, n_paths, rng)
    paid = disc.take(years, out=years.view(np.float64), mode="clip")
    with np.errstate(over="ignore", invalid="ignore"):
        mc_mean = float(np.mean(paid))
        mc_se = float(np.std(paid, ddof=1) / math.sqrt(n_paths))
    exact = float(death_distribution(table, x) @ disc[1:])
    if not all(map(math.isfinite, (mc_mean, mc_se, exact))):
        raise NumericalError("Monte Carlo estimate overflowed: discounted payoffs reach "
                             f"{float(disc.max()):g}")

    s_max = max(4.0 * spot, float(t_max + 1))
    # s_max is at least 2 and there are at least 2 intervals: a valid mesh
    s, h = np.linspace(0.0, s_max, intervals + 1), s_max / intervals
    si = s[1:-1]
    # diffusion vole_sigma**2 S**2 / 2, drift r S and reaction -r on the fitted
    # stencil, looked up as this module's global, where tracers and tests
    # replace it; it rejects a coefficient that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        sub, center, sup = fitted_stencil(r * si, h, 0.5 * vole_sigma ** 2 * si * si)
        rows = (sub, center - r, sup)
    payoff = by_year[np.clip(np.rint(s), 1, t_max).astype(int) - 1]
    g0s, g1s = [float(by_year[0])] * steps, [float(by_year[-1])] * steps
    U = _march(rows, payoff.copy(), t_max / steps, min(_RANNACHER_STEPS, steps), g0s, g1s,
               lambda n, V: np.maximum(V, payoff, out=V))
    pde_value = float(np.interp(spot, s, U))
    return MortalityOptionValue(mc_value=mc_mean, mc_std_error=mc_se, pde_value=pde_value,
                                exact_value=exact)
