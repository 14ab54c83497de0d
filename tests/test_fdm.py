import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longevity.errors import NumericalError
from longevity.fdm import (
    FITTING_VARIANTS,
    Mesh1D,
    TwoPointBVP,
    _factor_tridiagonal,
    difference_ops,
    fitted_diffusion,
    fitted_stencil,
    fitting_factor,
    fitting_factor_variants,
    layer_exact,
    solve_centered,
    solve_fitted,
    solve_upwind,
)


def test_mesh_basics():
    mesh = Mesh1D(0.0, 1.0, 11)
    assert mesh.intervals == 10
    assert mesh.h == pytest.approx(0.1)
    np.testing.assert_allclose(mesh.points(), np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0.0, 11)
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 2)


def test_difference_ops_on_quadratic():
    """Divided differences are exact on polynomials of matching degree."""
    mesh = Mesh1D(0.0, 1.0, 21)
    x = mesh.points()
    u = 3.0 * x**2 - 2.0 * x + 1.0
    fwd, bwd, ctr, second = difference_ops(u, 10, mesh.h)
    x0 = x[10]
    assert ctr == pytest.approx(6.0 * x0 - 2.0, rel=1e-12)
    assert second == pytest.approx(6.0, rel=1e-9)
    assert fwd == pytest.approx(6.0 * x0 - 2.0 + 3.0 * mesh.h, rel=1e-9)
    assert bwd == pytest.approx(6.0 * x0 - 2.0 - 3.0 * mesh.h, rel=1e-9)
    with pytest.raises(ValueError):
        difference_ops(u, 0, mesh.h)
    with pytest.raises(ValueError):
        difference_ops(u, 20, mesh.h)


def test_pivoted_factor_matches_dense_for_every_right_hand_side():
    # no dominance: the diagonal can be smaller than its neighbours, so the
    # elimination has to pivot; sizes below three go through the padding
    rng = np.random.default_rng(11)

    def systems():
        for n in (1, 2, 3, 40):
            yield tuple(rng.uniform(-1.0, 1.0, n) for _ in range(3))
        # [[0, 1], [1, 1]]: nonsingular, but its first pivot is zero unless
        # the rows are exchanged
        yield np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])

    for lower, diag, upper in systems():
        n = diag.size
        solve = _factor_tridiagonal(lower, diag, upper)
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        for _ in range(3):
            rhs = rng.uniform(-5.0, 5.0, n)
            np.testing.assert_allclose(solve(rhs), np.linalg.solve(dense, rhs), rtol=1e-9)


@pytest.mark.parametrize("lower, diag, upper", [
    ([0.0], [0.0], [0.0]),
    ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]),  # rows 0 and 1 equal
])
def test_pivoted_factor_rejects_an_exactly_singular_system(lower, diag, upper):
    with pytest.raises(NumericalError, match="singular"):
        _factor_tridiagonal(*(np.array(v) for v in (lower, diag, upper)))


def test_pivoted_factor_rejects_non_finite_coefficients():
    with pytest.raises(ValueError, match="finite"):
        _factor_tridiagonal(np.zeros(4), np.array([1.0, np.nan, 1.0, 1.0]), np.zeros(4))


def test_layer_exact_endpoints_and_shape():
    x = np.linspace(0.0, 1.0, 9)
    for sigma in (2.0, 0.5, 1e-3, 1e-8):
        u = layer_exact(sigma, x)
        assert u[0] == pytest.approx(1.0)
        assert u[-1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.diff(u) <= 1e-15)


def test_centered_smooth_regime_is_second_order():
    """With sigma = 1 the layer is mild and halving h quarters the error."""
    errors = []
    for intervals in (50, 100, 200):
        mesh = Mesh1D(0.0, 1.0, intervals + 1)
        sol = solve_centered(1.0, mesh)
        assert not sol.oscillatory
        exact = layer_exact(1.0, mesh.points())
        errors.append(np.max(np.abs(sol.values - exact)))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)


def test_centered_flags_oscillation_when_diffusion_is_small():
    mesh = Mesh1D(0.0, 1.0, 12)
    sol = solve_centered(1e-6, mesh)
    assert sol.oscillatory
    assert sol.lam < 0.0
    smooth = solve_centered(1.0, Mesh1D(0.0, 1.0, 101))
    assert not smooth.oscillatory


def test_centered_parity_limit_on_odd_interval_mesh():
    """Vanishing diffusion drives the centered solution to alternating 1,0."""
    mesh = Mesh1D(0.0, 1.0, 12)  # 11 intervals
    sol = solve_centered(1e-6, mesh)
    j = np.arange(12)
    parity = ((-1.0) ** j + 1.0) / 2.0
    assert np.max(np.abs(sol.values - parity)) <= 1e-3


def test_centered_solve_that_is_not_finite_is_a_numerical_error():
    # on an even interval count and a subnormal sigma the centered matrix
    # is all but singular
    with pytest.raises(NumericalError, match="non-finite"):
        solve_centered(1e-320, Mesh1D(0.0, 1.0, 11))


def test_upwind_never_oscillates_but_smears_the_layer():
    mesh = Mesh1D(0.0, 1.0, 1001)
    sigma = mesh.h  # mesh ratio 1
    sol = solve_upwind(sigma, mesh)
    assert not sol.oscillatory
    assert np.all(np.diff(sol.values) <= 1e-12)
    exact = layer_exact(sigma, mesh.points())
    # persistent first-node error: 1/3 - e^-2, immune to refinement
    assert sol.values[1] - exact[1] == pytest.approx(1.0 / 3.0 - math.exp(-2.0), abs=1e-6)


def test_fitting_factor_known_value():
    # mu*h/(2*sigma) = 1 gives exactly coth(1)
    assert fitting_factor(2.0, 1.0, 1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-15)
    with pytest.raises(ValueError):
        fitting_factor(2.0, 1.0, 0.0)


def test_fitting_factor_small_argument_expansion():
    # q coth q = 1 + q^2/3 - q^4/45 + ...
    for q in (1e-6, 1e-3, 0.05):
        rho = fitting_factor(2.0 * q, 1.0, 1.0)
        assert rho == pytest.approx(1.0 + q * q / 3.0, rel=1e-6, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(min_value=1e-8, max_value=700.0))
def test_all_variants_dominate_the_drift(q):
    """Every fitting choice exceeds |q|, which is what keeps rows monotone.

    Mathematically the excess over q is strictly positive; in floats the
    exponential variant's excess drops below one ulp of q around q = 18,
    so the strict form is only asserted where it is representable.
    """
    rho0, rho1, rho2 = fitting_factor_variants(q)
    for rho in (rho0, rho1, rho2):
        assert rho >= q
    if q <= 15.0:
        assert rho2 > q
    # and they are ordered: exponential <= sqrt <= rational
    slack = 1e-12 * max(1.0, q)
    assert rho2 <= rho1 + slack
    assert rho1 <= rho0 + slack


def test_fitted_diffusion_zero_sigma_is_pure_upwind():
    gamma = fitted_diffusion(np.array([3.0, -2.0]), 0.5, np.array([0.0, 0.0]))
    np.testing.assert_allclose(gamma, [0.75, 0.5])


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=-1e6, max_value=1e6),
    sigma=st.floats(min_value=0.0, max_value=10.0),
    h=st.floats(min_value=1e-4, max_value=0.5),
)
def test_fitted_stencil_rows_stay_monotone(mu, sigma, h):
    sub, center, sup = fitted_stencil(np.array([mu]), h, np.array([sigma]))
    assert sub[0] >= 0.0
    assert sup[0] >= 0.0
    assert center[0] == -(sub[0] + sup[0])
    if mu != 0.0 or sigma > 0.0:
        assert center[0] < 0.0


def test_fitted_stencil_rejects_a_mesh_too_coarse_to_square():
    with pytest.raises(ValueError, match="h must have a finite square"):
        fitted_stencil(np.ones(3), 1e155, np.ones(3))
    sub, _, _ = fitted_stencil(np.ones(3), 1.3e154, np.ones(3))
    assert np.all(np.isfinite(sub))


def test_fitted_stencil_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown fitting variant"):
        fitted_stencil(np.array([1.0]), 0.1, np.array([1.0]), "cubic")
    assert FITTING_VARIANTS == ("rational", "sqrt", "exponential")


def _layer_bvp(sigma):
    return TwoPointBVP(
        sigma=lambda x: np.full_like(x, sigma),
        mu=lambda x: np.full_like(x, 2.0),
        b_coef=lambda x: np.zeros_like(x),
        f=lambda x: np.zeros_like(x),
        beta0=1.0,
        beta1=0.0,
    )


def test_fitted_solves_constant_coefficient_problem_exactly():
    """The fitting factor is built to make this case exact at the nodes."""
    mesh = Mesh1D(0.0, 1.0, 101)
    for sigma in (1.0, 0.1, 0.01):
        got = solve_fitted(_layer_bvp(sigma), mesh)
        exact = layer_exact(sigma, mesh.points())
        assert np.max(np.abs(got - exact)) <= 1e-10


def test_fitted_variants_converge_but_only_exponential_is_exact():
    mesh = Mesh1D(0.0, 1.0, 41)
    exact = layer_exact(0.05, mesh.points())
    errs = {}
    for variant in FITTING_VARIANTS:
        got = solve_fitted(_layer_bvp(0.05), mesh, variant=variant)
        errs[variant] = np.max(np.abs(got - exact))
    assert errs["exponential"] <= 1e-12
    assert errs["rational"] > 1e-6
    assert errs["sqrt"] > 1e-6
    # still reasonable approximations, no oscillation blow-up
    assert max(errs.values()) < 0.1


def test_fitted_manufactured_solution_first_order():
    """Convection-dominated variable coefficients: error halves with the mesh."""
    sigma_fn = lambda x: 0.1 * (0.5 + x * x)  # noqa: E731
    mu_fn = lambda x: 600.0 * (1.0 + 0.2 * np.sin(3.0 * x))  # noqa: E731
    b_fn = lambda x: -(1.0 + x)  # noqa: E731
    exact = lambda x: np.sin(np.pi * x) + 1.0 - x * x  # noqa: E731

    def forcing(x):
        u = exact(x)
        du = np.pi * np.cos(np.pi * x) - 2.0 * x
        d2u = -np.pi**2 * np.sin(np.pi * x) - 2.0
        return sigma_fn(x) * d2u + mu_fn(x) * du + b_fn(x) * u

    bvp = TwoPointBVP(sigma=sigma_fn, mu=mu_fn, b_coef=b_fn,
                      f=forcing, beta0=1.0, beta1=0.0)
    errors = []
    for intervals in (40, 80, 160):
        mesh = Mesh1D(0.0, 1.0, intervals + 1)
        got = solve_fitted(bvp, mesh)
        errors.append(np.max(np.abs(got - exact(mesh.points()))))
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.25)


def test_solve_fitted_rejects_wrong_sign_coefficients():
    mesh = Mesh1D(0.0, 1.0, 21)
    bad_mu = TwoPointBVP(
        sigma=lambda x: np.ones_like(x),
        mu=lambda x: -np.ones_like(x),
        b_coef=lambda x: np.zeros_like(x),
        f=lambda x: np.zeros_like(x),
        beta0=0.0, beta1=0.0)
    with pytest.raises(ValueError):
        solve_fitted(bad_mu, mesh)
    bad_b = TwoPointBVP(
        sigma=lambda x: np.ones_like(x),
        mu=lambda x: np.ones_like(x),
        b_coef=lambda x: np.ones_like(x),
        f=lambda x: np.zeros_like(x),
        beta0=0.0, beta1=0.0)
    with pytest.raises(ValueError):
        solve_fitted(bad_b, mesh)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_fitted_non_finite_source_raises_numerical_error(bad):
    bvp = TwoPointBVP(
        sigma=lambda x: np.full_like(x, 0.1),
        mu=lambda x: np.full_like(x, 2.0),
        b_coef=lambda x: np.zeros_like(x),
        f=lambda x: np.where(x > 0.5, bad, 0.0),
        beta0=1.0, beta1=0.0)
    with pytest.raises(NumericalError, match="non-finite"):
        solve_fitted(bvp, Mesh1D(0.0, 1.0, 21))


def test_overflow_on_extreme_data_is_silent_and_ends_in_an_error():
    # the suite turns RuntimeWarnings into errors, so each call here also
    # checks that the overflow prints nothing on its way to the caller
    assert list(layer_exact(1e-320, np.array([0.0, 0.5]))) == [1.0, 0.0]
    sub, center, sup = fitted_stencil(np.array([1e308]), 1e-10, np.array([1.0]))
    assert np.isinf(sup[0]) and np.isinf(center[0])

    def bvp(sigma, beta1):
        return TwoPointBVP(sigma=lambda x: np.full_like(x, sigma),
                           mu=lambda x: np.full_like(x, 2.0),
                           b_coef=lambda x: np.zeros_like(x), f=lambda x: np.zeros_like(x),
                           beta0=1.0, beta1=beta1)
    # sigma / h**2 overflows in the rows; the boundary term overflows alone
    with pytest.raises(ValueError, match="finite"):
        solve_fitted(bvp(1e308, 0.0), Mesh1D(0.0, 1.0, 21))
    with pytest.raises(NumericalError, match="non-finite"):
        solve_fitted(bvp(0.1, 1e308), Mesh1D(0.0, 1.0, 21))


@pytest.mark.parametrize("call", [
    lambda v: layer_exact(v, 0.5),
    lambda v: fitted_stencil(np.array([v]), 0.1, np.array([1.0])),
    lambda v: fitted_diffusion(np.array([2.0]), 0.1, np.array([v])),
    lambda v: fitting_factor(2.0, 0.1, v),
], ids=["layer_exact", "stencil-mu", "diffusion", "fitting_factor"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_diffusion_or_drift_is_rejected(call, bad):
    # the layer solvers and a non-finite stencil sigma are covered through
    # fdm-demo in test_cli.py
    with pytest.raises(ValueError, match="finite"):
        call(bad)
