"""Finite-difference machinery for convection-diffusion two-point problems.

The centrepiece is the exponentially fitted scheme.  For
``sigma(x) u'' + mu(x) u' + b(x) u = f(x)`` on a uniform mesh, the naive
centered scheme turns oscillatory as soon as the mesh cannot resolve the
boundary layer (``sigma < h`` on the reference problem below), and one-sided
upwinding is stable but carries an O(1) pointwise error inside the layer no
matter how small ``h`` is.  Replacing the diffusion coefficient with

    gamma = sigma * q * coth(q),  q = mu * h / (2 * sigma)

cures both: the resulting tridiagonal matrix is monotone for every mesh, the
scheme is exact for constant-coefficient homogeneous problems, and the error
is bounded by a constant times ``h`` uniformly in ``sigma``.  The factor
``q coth q`` on the mesh Peclet number ``q`` is Il'in's (1969) and
Allen-Southwell's (1955), and it is the one fitting factor here.

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

import importlib.machinery
import importlib.util
import math
import sys
from typing import Callable

import numpy as np

from .errors import NumericalError, _Record, require_finite

__all__ = [
    "Mesh1D",
    "LayerSolution",
    "layer_exact",
    "solve_centered",
    "solve_upwind",
    "fitted_stencil",
    "TwoPointBVP",
    "solve_fitted",
]


class Mesh1D(_Record):
    """Uniform mesh on [a, b] with ``j_count`` points (J+1 points, J cells).

    Both bounds and the width ``b - a`` must be finite.
    """

    a: float
    b: float
    j_count: int

    def __post_init__(self):
        require_finite(a=self.a, b=self.b)
        if not (self.b > self.a):
            raise ValueError("mesh needs b > a")
        if self.j_count < 3:
            raise ValueError("mesh needs at least 3 points (J >= 2)")
        if not math.isfinite(float(self.b) - float(self.a)):
            raise ValueError(f"mesh width {self.b} - ({self.a}) overflows the float range")

    @property
    def intervals(self) -> int:
        return self.j_count - 1

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.intervals

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.j_count)


# ----------------------------------------------------------- tridiagonal #

def _load_lapack():
    """scipy's compiled LAPACK wrappers, without running ``scipy.linalg``'s init.

    ``scipy.linalg.lapack.dgttrf``/``dgttrs`` (pivoted LU) and
    ``dpttrf``/``dpttrs`` (``L D L^T`` of a symmetric positive-definite
    matrix) are this extension's functions, but importing ``scipy.linalg``
    also loads its array-API layer, which takes longer than numpy itself.
    The first call loads the extension and registers it under its own name,
    so every later call, and a later ``import scipy.linalg``, gets that
    instance; one already loaded is returned as it is.  Loading the package
    (and the CLI) pulls in no scipy; the first factorization does.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy  # its package init: the numpy version check, not scipy.linalg
    paths = [f"{p}/linalg" for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, paths)
    if spec is None:
        raise ImportError(f"no {name} extension in {paths}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _factor_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                        symmetric: bool = False) -> Callable[[np.ndarray], None]:
    """Factor one tridiagonal system and return the solve through its factors.

    Row ``j`` reads ``lower[j]*x[j-1] + diag[j]*x[j] + upper[j]*x[j+1]``;
    the three vectors have the system size, and ``lower[0]`` and
    ``upper[-1]`` lie outside the matrix.  A coefficient inside it that is
    not finite raises ``ValueError``.  With ``symmetric`` the matrix must be
    symmetric, ``lower[1:] == upper[:-1]``, of which only ``upper`` is
    factored, and positive definite: it is factored as ``L D L^T`` by LAPACK
    ``dpttrf``, with no pivots, and a pivot that is not positive raises
    :class:`NumericalError`.  Otherwise it is factored by ``dgttrf``,
    Gaussian elimination with partial pivoting, which needs no diagonal
    dominance; an exactly zero pivot raises :class:`NumericalError`.  The
    factors overwrite the vectors where they are contiguous float arrays.
    A system smaller than the wrapper accepts, one row for ``dpttrf`` or
    fewer than three for ``dgttrf``, is factored with appended identity
    rows; they are decoupled, so the system's own pivots and solution are
    unchanged.  The first factorization loads the LAPACK wrappers
    (:func:`_load_lapack`).

    The returned ``solve(b)`` overwrites the float vector ``b`` with the
    solution by one ``dpttrs`` or ``dgttrs`` back-substitution, in place
    when ``b`` is contiguous; a padded system's extra rows get zeros and
    solve to zeros.  The solution is not checked, so callers that need a
    finite one test for it.
    """
    if not (np.isfinite(diag).all() and np.isfinite(lower[1:]).all()
            and np.isfinite(upper[:-1]).all()):
        raise ValueError("tridiagonal coefficients must be finite")
    n = diag.size
    pad = (2 if symmetric else 3) - n
    if pad > 0:
        lower = np.concatenate([lower, np.zeros(pad)])
        diag = np.concatenate([diag, np.ones(pad)])
        upper = np.concatenate([upper[:-1], np.zeros(pad + 1)])
    lapack = _load_lapack()
    if symmetric:
        *factors, info = lapack.dpttrf(diag, upper[:-1], overwrite_d=1, overwrite_e=1)
        back_substitute = lapack.dpttrs
        if info > 0:
            raise NumericalError(f"tridiagonal system not positive definite: pivot {info - 1} "
                                 "is not positive")
    else:
        *factors, info = lapack.dgttrf(lower[1:], diag, upper[:-1], overwrite_dl=1,
                                       overwrite_d=1, overwrite_du=1)
        back_substitute = lapack.dgttrs
        if info > 0:
            raise NumericalError(f"singular tridiagonal system: zero pivot at row {info - 1}")

    def solve(b: np.ndarray) -> None:
        rhs = b if pad <= 0 else np.concatenate([b, np.zeros(pad)])
        x = back_substitute(*factors, rhs, overwrite_b=1)[0]
        if x is not b:
            b[:] = x[:n]

    return solve


# ----------------------------------------------- classical demo schemes #

def layer_exact(sigma: float, x) -> np.ndarray | float:
    """Continuous solution of the reference layer problem.

    Two forms of one function.  Where ``tail = exp(-2/sigma)`` is at most
    1/2, which holds for every ``sigma <= 2/ln 2`` (about 2.885), it is
    ``(exp(-2x/sigma) - tail) / (1 - tail)``, with underflow-safe
    exponentials.  Above that, where ``1 - tail`` and the numerator cancel
    as ``sigma`` grows, it is
    ``(expm1(-2x/sigma) - expm1(-2/sigma)) / -expm1(-2/sigma)``, which
    keeps their digits and tends to ``1 - x``.
    """
    _check_layer_sigma(sigma)
    x = np.asarray(x, dtype=float)
    tail = math.exp(-2.0 / sigma) if 2.0 / sigma < 745.0 else 0.0
    # at a subnormal sigma, -2x/sigma overflows to -inf, whose exponential
    # is the correct limit 0
    with np.errstate(over="ignore"):
        if tail > 0.5:
            tail_m1 = math.expm1(-2.0 / sigma)
            out = (np.expm1(-2.0 * x / sigma) - tail_m1) / -tail_m1
        else:
            out = (np.exp(-2.0 * x / sigma) - tail) / (1.0 - tail)
    return float(out) if out.ndim == 0 else out


class LayerSolution(_Record):
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
    # the interior holds the right-hand side, -sub * u(0) in the first row,
    # until the solve overwrites it
    values = np.zeros(mesh.j_count)
    values[0], values[1] = 1.0, -sub
    rows = (np.full(mesh.j_count - 2, c) for c in (sub, diag, sup))
    _factor_tridiagonal(*rows)(values[1:-1])
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

def _excess(s: np.ndarray) -> np.ndarray:
    """Excess ``q coth q - q`` of the fitting factor over ``q``, for ``s = |q|``.

    The excess is what makes the fitted sub-diagonal nonnegative, so it
    comes from the cancellation-free ``2s/expm1(2s)``, which cannot go
    negative in floating point; only the rows below ``s = 1e-4`` take the
    Laurent series ``1 + s**2/3 - s**4/45`` of ``s coth s``, less ``s``,
    instead of its 0/0.  A non-finite ``s`` gives a meaningless value,
    which the caller replaces.
    """
    # the transcendental term is below 1e-300 from s = 350 on, so clamping
    # there changes nothing representable while keeping expm1 finite
    excess = np.minimum(s, 350.0, out=np.empty_like(s))
    excess *= 2.0
    excess /= np.expm1(excess)
    if np.fmin.reduce(s, axis=None, initial=np.inf) < 1e-4:  # fmin skips a 0/0 row's nan
        small = s < 1e-4
        t = s[small]
        excess[small] = (1.0 + t**2 / 3.0 - t**4 / 45.0) - t
    return excess


def _fitted_coefficients(mu, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``mu`` and ``sigma`` as float arrays of one shape, finite and ``sigma >= 0``.

    A nan ``sigma`` fails every comparison, so without the finiteness test
    its row would pass for a degenerate one and be silently upwinded.
    """
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    if mu.shape != sigma.shape:
        raise ValueError(f"convection mu and diffusion sigma must have one shape, "
                         f"got {mu.shape} and {sigma.shape}")
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("diffusion sigma and convection mu must be finite")
    if (sigma < 0.0).any():
        raise ValueError("sigma must be >= 0")
    return mu, sigma


def fitted_stencil(mu, h: float, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row coefficients of the fitted operator ``gamma*D+D- + mu*D0``.

    ``gamma = sigma * q coth q`` with the mesh Peclet number
    ``q = mu*h/(2*sigma)``.  Returns ``(sub, center, sup)`` acting on
    ``(u[j-1], u[j], u[j+1])``, vectorized over nodes and valid for either
    sign of ``mu``.  With ``rho = |q| coth |q|``, the side opposite the wind
    is built from the positive excess ``rho - |q|``, the side with the wind
    from the identity
    ``sigma*(rho + |q|)/h**2 = sigma*(rho - |q|)/h**2 + |mu|/h``, so
    neither off-diagonal can round negative or overflow, and the center is
    exactly ``-(sub + sup)`` (zero row sum before any reaction term).
    Rows where ``sigma`` is zero, or so small that the mesh Peclet number
    is not representable, degrade to the one-sided upwind stencil.

    ``mu`` and ``sigma`` must have one shape, any shape; a mismatch raises
    ``ValueError``.  They are assembled row-wise with no masking on the
    common path: every row takes the fitted formula and ``np.where`` picks
    its wind side.  Only the rare rows with ``|q| < 1e-4`` (the series) or
    a non-finite ``q`` (upwinding) are patched by boolean indexing, so a
    row comes out bit for bit as it does when assembled alone.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    try:
        h_squared = h**2
    except OverflowError:
        raise ValueError(f"h must have a finite square, got {h}") from None
    mu, sigma = _fitted_coefficients(mu, sigma)
    # every row takes the fitted formula at once; the rows whose mesh Peclet
    # number is not finite (0/0 included) get meaningless values there,
    # without a warning, and are replaced below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.divide(mu * h, 2.0 * sigma)
        # on extreme data a row overflows to inf (or inf * 0 = nan), which
        # the caller's factorization or finiteness check rejects
        against_wind = sigma / h_squared
        against_wind *= _excess(np.abs(q))
        with_wind = np.abs(mu)
        with_wind /= h
        with_wind = against_wind + with_wind
        downwind = q >= 0.0
        sub = np.where(downwind, against_wind, with_wind)
        sup = np.where(downwind, with_wind, against_wind)
        if not np.isfinite(q).all():
            degenerate = ~np.isfinite(q)
            sub[degenerate] = np.maximum(-mu[degenerate], 0.0) / h
            sup[degenerate] = np.maximum(mu[degenerate], 0.0) / h
    center = -(sub + sup)
    return sub, center, sup


class TwoPointBVP(_Record):
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


def solve_fitted(bvp: TwoPointBVP, mesh: Mesh1D) -> np.ndarray:
    """Solve a two-point BVP with the fitted scheme; returns all mesh values.

    Assembles, for each interior node,
    ``gamma*(second difference) + mu*(centered first difference) + b*u = f``
    with the fitted ``gamma = sigma * q coth q`` of :func:`fitted_stencil`,
    asserts the monotone sign pattern row by row (off-diagonals positive,
    diagonal negative), and solves with the pivoted tridiagonal
    factorization.  The solution obeys the uniform bound
    ``max|U| <= |beta0| + |beta1| + max|f| / min(mu)``; a non-finite
    solution (from a non-finite source or boundary value, or overflow)
    raises :class:`NumericalError`.

    Sign convention for positivity: with ``b <= 0``, a source ``f <= 0``
    and boundary values ``>= 0`` produce a solution ``>= 0`` everywhere.
    """
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
    # The sub-diagonal comes out of fitted_stencil as sigma*(q coth q - q)/h**2
    # with a cancellation-free excess, so it is >= 0 in floating point but
    # can round to exactly 0 at extreme mesh Peclet numbers (and is 0 by
    # construction where sigma = 0); the strict inequality holds whenever
    # sigma > 0 analytically.
    sub, center, sup = fitted_stencil(mu, h, sigma)
    diag = center + b
    if np.any(sub < 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the sub-diagonal")
    if np.any(diag >= 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the diagonal")
    if np.any(sup <= 0.0):
        raise AssertionError("fitted assembly lost monotonicity on the super-diagonal")
    values = np.empty(mesh.j_count)
    values[0], values[-1] = bvp.beta0, bvp.beta1
    rhs = values[1:-1]
    rhs[:] = f
    # an overflow here leaves a non-finite right-hand side, and so a
    # non-finite solution, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs[0] -= sub[0] * bvp.beta0
        rhs[-1] -= sup[-1] * bvp.beta1
    # the factors overwrite the rows, whose edge entries the right-hand side
    # has already read
    _factor_tridiagonal(sub, diag, sup)(rhs)
    if not np.all(np.isfinite(values[1:-1])):
        raise NumericalError("fitted solve produced non-finite values")
    return values
