"""Finite-difference machinery for convection-diffusion two-point problems.

The centrepiece is the exponentially fitted scheme.  For
``sigma(x) u'' + mu(x) u' + b(x) u = f(x)`` on a uniform mesh, the naive
centered scheme turns oscillatory as soon as the mesh cannot resolve the
boundary layer (``sigma < h`` on the reference problem below), and one-sided
upwinding is stable but carries an O(1) pointwise error inside the layer no
matter how small ``h`` is.  Replacing the diffusion coefficient with

    gamma = (mu * h / 2) * coth(mu * h / (2 * sigma))

cures both: the resulting tridiagonal matrix is monotone for every mesh, the
scheme is exact for constant-coefficient homogeneous problems, and the error
is bounded by a constant times ``h`` uniformly in ``sigma``.

Both classical schemes are kept, failure modes and all, since their
pathologies are part of what this module demonstrates.

Reference problem
-----------------
``solve_centered`` and ``solve_upwind`` target the fixed layer problem

    sigma * u'' + 2 * u' = 0,  u(0) = 1,  u(1) = 0

whose continuous solution ``layer_exact`` drops from 1 to nearly 0 inside a
layer of width ``sigma/2`` at the left edge.  Both discrete solutions have
the closed form ``U_j = (lam**j - lam**J) / (1 - lam**J)`` with a
scheme-specific root ``lam``, which is what the solvers are verified
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, require_finite

__all__ = [
    "Mesh1D",
    "difference_ops",
    "LayerSolution",
    "layer_exact",
    "solve_centered",
    "solve_upwind",
    "fitting_factor",
    "fitting_factor_variants",
    "fitted_diffusion",
    "fitted_stencil",
    "TwoPointBVP",
    "solve_fitted",
]

FITTING_VARIANTS = ("rational", "sqrt", "exponential")


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh on [a, b] with ``j_count`` points (J+1 points, J cells)."""

    a: float
    b: float
    j_count: int

    def __post_init__(self):
        if not (self.b > self.a):
            raise ValueError("mesh needs b > a")
        if self.j_count < 3:
            raise ValueError("mesh needs at least 3 points (J >= 2)")

    @property
    def intervals(self) -> int:
        return self.j_count - 1

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.intervals

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.j_count)


def difference_ops(u: np.ndarray, j: int, h: float) -> tuple[float, float, float, float]:
    """Forward, backward, centered and second divided differences at node ``j``.

    Requires an interior index (``1 <= j <= len(u) - 2``).  On linear data
    the three first-difference forms agree exactly with the slope; the
    second difference is exact on quadratics.
    """
    u = np.asarray(u, dtype=float)
    if not 1 <= j <= u.size - 2:
        raise ValueError(f"j={j} is not an interior index of a {u.size}-point mesh")
    if h <= 0.0:
        raise ValueError("h must be positive")
    d_plus = (u[j + 1] - u[j]) / h
    d_minus = (u[j] - u[j - 1]) / h
    d_zero = (u[j + 1] - u[j - 1]) / (2.0 * h)
    d_plus_minus = (u[j + 1] - 2.0 * u[j] + u[j - 1]) / (h * h)
    return float(d_plus), float(d_minus), float(d_zero), float(d_plus_minus)


# ----------------------------------------------------------- tridiagonal #

def _factor_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                        upper: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Pivoted LU of a tridiagonal matrix, the one tridiagonal solver here.

    Row ``j`` reads ``lower[j]*x[j-1] + diag[j]*x[j] + upper[j]*x[j+1]``;
    all three vectors have the system size, and ``lower[0]`` and
    ``upper[-1]`` are ignored.  The factorization is LAPACK ``dgttrf``,
    Gaussian elimination with partial pivoting, so it needs no diagonal
    dominance; the returned function back-substitutes one right-hand side
    through it with ``dgttrs``, so a fixed matrix is factored once however
    many systems it solves.  Non-finite coefficients raise ``ValueError``;
    an exactly zero pivot raises :class:`NumericalError`.  The
    back-substitution does not check its output, so callers that need a
    finite solution test for it.
    """
    # imported here so that loading the package (and the CLI) pulls in no scipy
    from scipy.linalg import lapack

    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(lower[1:]))
            and np.all(np.isfinite(upper[:-1]))):
        raise ValueError("tridiagonal coefficients must be finite")
    n = diag.size
    if n < 3:
        # the LAPACK wrappers need three rows; appended identity rows are
        # decoupled, so the system's own pivots and solution are unchanged
        pad = 3 - n
        solve = _factor_tridiagonal(np.concatenate([lower, np.zeros(pad)]),
                                    np.concatenate([diag, np.ones(pad)]),
                                    np.concatenate([upper[:-1], np.zeros(pad + 1)]))
        return lambda rhs: solve(np.concatenate([rhs, np.zeros(pad)]))[:n]
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower[1:], diag, upper[:-1])
    if info > 0:
        raise NumericalError(f"singular tridiagonal system: zero pivot at row {info - 1}")
    return lambda rhs: lapack.dgttrs(dl, d, du, du2, ipiv, rhs)[0]


# ----------------------------------------------- classical demo schemes #

def layer_exact(sigma: float, x) -> np.ndarray | float:
    """Continuous solution of the reference layer problem.

    ``(exp(-2x/sigma) - exp(-2/sigma)) / (1 - exp(-2/sigma))``, computed
    with underflow-safe exponentials.
    """
    _check_layer_sigma(sigma)
    x = np.asarray(x, dtype=float)
    tail = math.exp(-2.0 / sigma) if 2.0 / sigma < 745.0 else 0.0
    # at a subnormal sigma, -2x/sigma overflows to -inf, whose exponential
    # is the correct limit 0
    with np.errstate(over="ignore"):
        out = (np.exp(-2.0 * x / sigma) - tail) / (1.0 - tail)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LayerSolution:
    """Discrete solution of the layer problem plus diagnostics.

    ``oscillatory`` is True exactly when the scheme's characteristic root
    ``lam`` is negative, which for the centered scheme happens exactly when
    ``sigma < h``.
    """

    values: np.ndarray
    lam: float
    oscillatory: bool


def _check_layer_sigma(sigma: float) -> None:
    require_finite(sigma=sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")


def _solve_layer(sigma: float, mesh: Mesh1D, sub: float, diag: float, sup: float) -> np.ndarray:
    """Mesh values of the layer problem for one scheme's row coefficients.

    ``sub``, ``diag`` and ``sup`` multiply ``u[j-1]``, ``u[j]`` and
    ``u[j+1]`` in every interior row; ``sigma`` and the mesh are checked
    here, and the boundary value ``u(0) = 1`` moves to the right-hand side.
    A non-finite solution raises :class:`NumericalError`.
    """
    _check_layer_sigma(sigma)
    if not (mesh.a == 0.0 and mesh.b == 1.0):
        raise ValueError("the layer problem lives on (0, 1)")
    n = mesh.j_count - 2
    rhs = np.zeros(n)
    rhs[0] = -sub
    values = np.empty(mesh.j_count)
    values[0], values[-1] = 1.0, 0.0
    values[1:-1] = _factor_tridiagonal(*(np.full(n, c) for c in (sub, diag, sup)))(rhs)
    if not np.all(np.isfinite(values[1:-1])):
        raise NumericalError("layer solve produced non-finite values")
    return values


def solve_centered(sigma: float, mesh: Mesh1D) -> LayerSolution:
    """Centered-difference solve of the layer problem on (0, 1).

    The scheme's root is ``lam = (1 - h/sigma) / (1 + h/sigma)``: negative
    as soon as ``sigma < h``, at which point the discrete solution
    oscillates node to node even though the continuous solution is
    monotone.  The pivoted factorization solves it even though the matrix
    loses diagonal dominance exactly in that regime.
    """
    h = mesh.h
    values = _solve_layer(sigma, mesh, sigma / h**2 - 1.0 / h, -2.0 * sigma / h**2,
                          sigma / h**2 + 1.0 / h)
    lam = (1.0 - h / sigma) / (1.0 + h / sigma)
    return LayerSolution(values=values, lam=lam, oscillatory=lam < 0.0)


def solve_upwind(sigma: float, mesh: Mesh1D) -> LayerSolution:
    """One-sided (upwind) solve of the layer problem on (0, 1).

    The root ``lam = 1 / (1 + 2h/sigma)`` stays inside (0, 1) for every
    mesh, so there is never oscillation; the price is a pointwise error
    near the layer that tends to ``1/3 - exp(-2)`` (about 0.198) as
    ``h/sigma = 1`` is held while the mesh refines.
    """
    h = mesh.h
    values = _solve_layer(sigma, mesh, sigma / h**2, -2.0 * sigma / h**2 - 2.0 / h,
                          sigma / h**2 + 2.0 / h)
    lam = 1.0 / (1.0 + 2.0 * h / sigma)
    return LayerSolution(values=values, lam=lam, oscillatory=False)


# ------------------------------------------------------- fitted scheme #

def _q_coth_q(q: np.ndarray) -> np.ndarray:
    """``q * coth(q)``, even in ``q``, series-expanded near zero.

    Below ``|q| < 1e-4`` the Laurent series ``1 + q**2/3 - q**4/45`` avoids
    the 0/0; above, ``s + 2s/expm1(2s)`` with ``s = |q|`` is exact and
    saturates cleanly to ``|q|`` for large arguments.
    """
    s = np.abs(np.asarray(q, dtype=float))
    small = s < 1e-4
    out = np.empty_like(s)
    out[small] = 1.0 + s[small] ** 2 / 3.0 - s[small] ** 4 / 45.0
    big = ~small
    # the transcendental term is below 1e-300 from s = 350 on, so clamping
    # there changes nothing representable while keeping expm1 finite
    t = np.minimum(s[big], 350.0)
    out[big] = s[big] + 2.0 * t / np.expm1(2.0 * t)
    return out


def fitting_factor(mu: float, h: float, sigma: float) -> float:
    """Il'in fitting factor ``q coth q`` with ``q = mu*h/(2*sigma)``.

    Always at least 1; tends to 1 as ``q`` tends to 0 (recovering the
    centered scheme) and grows like ``|q|`` for large ``q`` (approaching
    upwinding).  ``sigma`` must be positive here; the assembly handles the
    ``sigma = 0`` degradation separately.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    require_finite(mu=mu, sigma=sigma)
    if sigma <= 0.0:
        raise ValueError("fitting factor needs sigma > 0; use fitted_diffusion for the limit")
    q = mu * h / (2.0 * sigma)
    return float(_q_coth_q(np.array(q)))


def fitting_factor_variants(q: float) -> tuple[float, float, float]:
    """Three interchangeable fitting factors evaluated at ``q``.

    ``(1 + q**2/(1+|q|), sqrt(1+q**2), q*coth(q))``: all equal 1 at
    ``q = 0``, all grow like ``|q|``, and all exceed ``|q|`` strictly, which
    is what keeps the assembled matrix monotone.
    """
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    rho0 = 1.0 + q * q / (1.0 + abs(q))
    rho1 = math.sqrt(1.0 + q * q)
    rho2 = float(_q_coth_q(np.array(q)))
    return rho0, rho1, rho2


def _rho_and_excess(q: np.ndarray, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Fitting factor ``rho(q)`` and its excess over ``q``, for ``q > 0``.

    The excess ``rho(q) - q`` is what makes the fitted sub-diagonal
    nonnegative, so it is computed from cancellation-free closed forms
    (``1/(1+q)``, ``1/(sqrt(1+q^2)+q)``, ``2q/expm1(2q)``) that cannot go
    negative in floating point.
    """
    if variant == "rational":
        excess = 1.0 / (1.0 + q)
        return q + excess, excess
    if variant == "sqrt":
        rho = np.sqrt(1.0 + q * q)
        return rho, 1.0 / (rho + q)
    rho = _q_coth_q(q)
    excess = np.empty_like(rho)
    small = q < 1e-4
    excess[small] = rho[small] - q[small]
    t = np.minimum(q[~small], 350.0)
    excess[~small] = 2.0 * t / np.expm1(2.0 * t)
    return rho, excess


def _fitted_coefficients(mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``mu`` and ``sigma`` broadcast to float arrays, finite and ``sigma >= 0``.

    A nan ``sigma`` fails every comparison, so without the finiteness test
    its row would pass for a degenerate one and be silently upwinded.
    """
    mu, sigma = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float))
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("diffusion sigma and convection mu must be finite")
    if np.any(sigma < 0.0):
        raise ValueError("sigma must be >= 0")
    return mu, sigma


def fitted_diffusion(mu, h: float, sigma, variant: str = "exponential") -> np.ndarray:
    """Fitted diffusion coefficient ``gamma = sigma * rho(q)``, vectorized.

    Where ``sigma = 0`` the exact limit ``|mu| * h / 2`` is used, which
    turns the stencil into pure upwinding; where ``mu = 0`` it reduces to
    ``sigma`` (pure centered diffusion).
    """
    if variant not in FITTING_VARIANTS:
        raise ValueError(f"unknown fitting variant {variant!r}, want one of {FITTING_VARIANTS}")
    mu, sigma = _fitted_coefficients(mu, sigma)
    # gamma = sigma * rho(q) = |mu| h / 2 + sigma * (rho - |q|), and the
    # second term vanishes in the sigma -> 0 limit (including the case
    # where q itself overflows for subnormal sigma)
    gamma = np.abs(mu) * h / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.abs(mu) * h / (2.0 * sigma)
    ok = (sigma > 0.0) & np.isfinite(q)
    _, excess = _rho_and_excess(q[ok], variant)
    gamma[ok] += sigma[ok] * excess
    return gamma


def fitted_stencil(mu, h: float, sigma, variant: str = "exponential") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row coefficients of the fitted operator ``gamma*D+D- + mu*D0``.

    Returns ``(sub, center, sup)`` acting on ``(u[j-1], u[j], u[j+1])``,
    vectorized over nodes and valid for either sign of ``mu``.  The side
    opposite the wind is built from the positive excess ``rho(q) - |q|``,
    the side with the wind from the identity
    ``sigma*(rho + |q|)/h**2 = sigma*(rho - |q|)/h**2 + |mu|/h``, so
    neither off-diagonal can round negative or overflow, and the center is
    exactly ``-(sub + sup)`` (zero row sum before any reaction term).
    Rows where ``sigma`` is zero, or so small that the mesh Peclet number
    is not representable, degrade to the one-sided upwind stencil.
    """
    if variant not in FITTING_VARIANTS:
        raise ValueError(f"unknown fitting variant {variant!r}, want one of {FITTING_VARIANTS}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    try:
        h_squared = h**2
    except OverflowError:
        raise ValueError(f"h must have a finite square, got {h}") from None
    mu, sigma = (a.copy() for a in _fitted_coefficients(mu, sigma))
    sub = np.empty_like(mu)
    sup = np.empty_like(mu)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = mu * h / (2.0 * sigma)
    degenerate = ~np.isfinite(q)
    sub[degenerate] = np.maximum(-mu[degenerate], 0.0) / h
    sup[degenerate] = np.maximum(mu[degenerate], 0.0) / h
    ok = ~degenerate
    _, excess = _rho_and_excess(np.abs(q[ok]), variant)
    # on extreme data a row overflows to inf (or inf * 0 = nan), which the
    # caller's factorization or finiteness check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        against_wind = sigma[ok] / h_squared * excess
        with_wind = against_wind + np.abs(mu[ok]) / h
    downwind = q[ok] >= 0.0
    sub[ok] = np.where(downwind, against_wind, with_wind)
    sup[ok] = np.where(downwind, with_wind, against_wind)
    center = -(sub + sup)
    return sub, center, sup


@dataclass(frozen=True)
class TwoPointBVP:
    """Steady convection-diffusion problem with Dirichlet data.

    Coefficients are callables of ``x`` (numpy-vectorized):
    ``sigma >= 0`` diffusion, ``mu`` convection bounded away from zero
    (``mu >= alpha > 0`` on the mesh), ``b_coef <= 0`` reaction, ``f``
    source, and boundary values ``beta0`` at the left end, ``beta1`` at the
    right.
    """

    sigma: Callable
    mu: Callable
    b_coef: Callable
    f: Callable
    beta0: float
    beta1: float


def solve_fitted(bvp: TwoPointBVP, mesh: Mesh1D, variant: str = "exponential") -> np.ndarray:
    """Solve a two-point BVP with the fitted scheme; returns all mesh values.

    Assembles, for each interior node,
    ``gamma*(second difference) + mu*(centered first difference) + b*u = f``
    with the fitted ``gamma``, asserts the monotone sign pattern row by row
    (off-diagonals positive, diagonal negative), and solves with the pivoted
    tridiagonal factorization.  The solution obeys the uniform bound
    ``max|U| <= |beta0| + |beta1| + max|f| / min(mu)``; a non-finite
    solution (from a non-finite source or boundary value, or overflow)
    raises :class:`NumericalError`.

    Sign convention for positivity: with ``b <= 0``, a source ``f <= 0``
    and boundary values ``>= 0`` produce a solution ``>= 0`` everywhere.
    """
    if variant not in FITTING_VARIANTS:
        raise ValueError(f"unknown fitting variant {variant!r}, want one of {FITTING_VARIANTS}")
    x = mesh.points()[1:-1]
    h = mesh.h
    sigma = np.broadcast_to(np.asarray(bvp.sigma(x), dtype=float), x.shape)
    mu = np.broadcast_to(np.asarray(bvp.mu(x), dtype=float), x.shape)
    b = np.broadcast_to(np.asarray(bvp.b_coef(x), dtype=float), x.shape)
    f = np.broadcast_to(np.asarray(bvp.f(x), dtype=float), x.shape)
    if np.any(mu <= 0.0):
        raise ValueError("fitted scheme requires mu >= alpha > 0 on the mesh")
    if np.any(b > 0.0):
        raise ValueError("fitted scheme requires b <= 0 on the mesh")
    # The sub-diagonal comes out of fitted_stencil as sigma*(rho - q)/h**2
    # with a cancellation-free excess, so it is >= 0 in floating point but
    # can round to exactly 0 at extreme mesh Peclet numbers (and is 0 by
    # construction where sigma = 0); the strict inequality holds whenever
    # sigma > 0 analytically.
    sub, center, sup = fitted_stencil(mu, h, sigma, variant)
    diag = center + b
    if np.any(sub < 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the sub-diagonal")
    if np.any(diag >= 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the diagonal")
    if np.any(sup <= 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the super-diagonal")
    rhs = f.copy()
    # an overflow here leaves a non-finite right-hand side, and so a
    # non-finite solution, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs[0] -= sub[0] * bvp.beta0
        rhs[-1] -= sup[-1] * bvp.beta1
    values = np.empty(mesh.j_count)
    values[0], values[-1] = bvp.beta0, bvp.beta1
    values[1:-1] = _factor_tridiagonal(sub, diag, sup)(rhs)
    if not np.all(np.isfinite(values[1:-1])):
        raise NumericalError("fitted solve produced non-finite values")
    return values
