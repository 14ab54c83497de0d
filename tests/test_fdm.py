import importlib.util
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longevity import fdm
from longevity.errors import NumericalError
from longevity.fdm import (
    Mesh1D,
    TwoPointBVP,
    _factor_tridiagonal,
    fitted_stencil,
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


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_mesh_rejects_a_non_finite_bound(a, b):
    with pytest.raises(ValueError, match="must be finite"):
        Mesh1D(a, b, 5)


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))])
def test_mesh_rejects_a_width_past_the_float_range(a, b):
    # the numpy bounds would warn on the subtraction; tier-1 makes that a failure
    with pytest.raises(ValueError, match="overflows"):
        Mesh1D(a, b, 5)


def _solve_in_place(solve, rhs):
    """``solve`` run on ``rhs`` held as the interior of a buffer, as the march holds its state.

    The solve must overwrite that slice and leave the buffer's ends alone.
    """
    buffer = np.concatenate([[-7.0], rhs, [7.0]])
    x = buffer[1:-1]
    solve(x)
    assert buffer[0] == -7.0 and buffer[-1] == 7.0
    return x


# the pivoted factorization pads a system of one or two rows to three, and
# the symmetric one a one-row system to two; larger systems return the bare
# back-substitution
@pytest.mark.parametrize("n", [1, 2, 3, 40], ids=["padded-1", "padded-2", "bare-3", "bare-40"])
def test_pivoted_solve_matches_dense_for_every_right_hand_side(n):
    # no dominance: the diagonal can be smaller than its neighbours, so the
    # elimination has to pivot
    rng = np.random.default_rng(11 + n)
    systems = [tuple(rng.uniform(-1.0, 1.0, n) for _ in range(3))]
    if n == 2:
        # [[0, 1], [1, 1]]: nonsingular, but its first pivot is zero unless
        # the rows are exchanged
        systems.append((np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    for lower, diag, upper in systems:
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        solve = _factor_tridiagonal(lower, diag, upper, symmetric=False)
        for _ in range(3):
            rhs = rng.uniform(-5.0, 5.0, n)
            np.testing.assert_allclose(_solve_in_place(solve, rhs),
                                       np.linalg.solve(dense, rhs), rtol=1e-9)


@pytest.mark.parametrize("lower, diag, upper", [
    ([0.0], [0.0], [0.0]),
    ([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]),
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]),  # rows 0 and 1 equal
])
def test_pivoted_solve_rejects_an_exactly_singular_system(lower, diag, upper):
    with pytest.raises(NumericalError, match="singular"):
        _factor_tridiagonal(*(np.array(v) for v in (lower, diag, upper)), symmetric=False)


@pytest.mark.parametrize("symmetric", [False, True], ids=["lu", "ldl"])
def test_factorization_rejects_non_finite_coefficients(symmetric):
    with pytest.raises(ValueError, match="tridiagonal coefficients must be finite"):
        _factor_tridiagonal(np.zeros(4), np.array([1.0, np.nan, 1.0, 1.0]), np.zeros(4),
                            symmetric=symmetric)


@pytest.mark.parametrize("n", [1, 2, 3, 40], ids=["padded-1", "bare-2", "bare-3", "bare-40"])
def test_symmetric_solve_matches_dense_for_every_right_hand_side(n):
    # diagonally dominant symmetric systems; a strong coupling drives the
    # pivots far below the diagonal
    rng = np.random.default_rng(12 + n)
    for coupling in (1.0, 1e6):
        upper = -coupling * rng.uniform(0.0, 1.0, n)
        diag = rng.uniform(0.1, 1.0, n) - upper - np.roll(upper, 1) * (np.arange(n) > 0)
        dense = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(upper[:-1], -1)
        solve = _factor_tridiagonal(np.roll(upper, 1), diag, upper, symmetric=True)
        for _ in range(3):
            rhs = rng.uniform(-5.0, 5.0, n)
            np.testing.assert_allclose(_solve_in_place(solve, rhs),
                                       np.linalg.solve(dense, rhs), rtol=1e-9)


@pytest.mark.parametrize("diag, upper", [
    ([0.0], [0.0]),
    ([1.0, 1.0], [1.0, 0.0]),  # singular
    ([1.0, 1.0, -1.0], [0.0, 0.0, 0.0]),  # indefinite
])
def test_symmetric_factorization_rejects_a_matrix_that_is_not_positive_definite(diag, upper):
    with pytest.raises(NumericalError, match="not positive definite"):
        _factor_tridiagonal(np.roll(upper, 1), np.array(diag), np.array(upper), symmetric=True)


# each probe runs in a fresh process, so it alone decides which of fdm and
# scipy.linalg loads the LAPACK extension first
PRICE_THEN_LINALG = """
    import sys
    import numpy as np
    from longevity import fdm
    from longevity.pricing import price_american

    def price():
        return price_american("call", 80.0, 0.04, 0.3, 0.5, intervals=100, steps=100).values

    first = price()
    loaded = sys.modules["scipy.linalg._flapack"]
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
    for name in ("dgttrf", "dgttrs", "dpttrf", "dpttrs"):
        assert getattr(scipy.linalg.lapack, name) is getattr(loaded, name)
    ab = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
    x = scipy.linalg.solve_banded((1, 1), ab, np.array([2.0, -2.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 0.0, 1.0], rtol=1e-15, atol=1e-15)
    assert price().tobytes() == first.tobytes()
"""

LINALG_THEN_PRICE = """
    import scipy.linalg
    from longevity import fdm
    from longevity.pricing import price_american

    price_american("put", 100.0, 0.05, 0.25, 1.0, intervals=20, steps=20)
    assert fdm._load_lapack() is scipy.linalg._flapack
"""


@pytest.mark.parametrize("probe", [PRICE_THEN_LINALG, LINALG_THEN_PRICE],
                         ids=["fdm-first", "linalg-first"])
def test_fdm_and_scipy_linalg_share_one_lapack_extension(probe):
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(probe)],
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def test_load_lapack_names_scipy_when_it_is_not_installed(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy"):
        fdm._load_lapack()


def test_layer_exact_endpoints_and_shape():
    x = np.linspace(0.0, 1.0, 9)
    for sigma in (2.0, 0.5, 1e-3, 1e-8):
        u = layer_exact(sigma, x)
        assert u[0] == pytest.approx(1.0)
        assert u[-1] == pytest.approx(0.0, abs=1e-300)
        assert np.all(np.diff(u) <= 1e-15)


@pytest.mark.parametrize("sigma", [1e16, 1e17, 1e300])
def test_layer_exact_tends_to_the_straight_line_as_sigma_grows(sigma):
    # exp(-2/sigma) rounds to 1 here, so only the expm1 form keeps the
    # solution's digits
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(layer_exact(sigma, x), 1.0 - x, rtol=0.0, atol=1e-15)


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


def _factor_from_center(q):
    """``q coth q`` read off the fitted stencil's center at ``h = sigma = 1``.

    With ``mu = 2q`` the row is ``gamma*D+D- + mu*D0`` with
    ``gamma = q coth q``, so its center is ``-2 * q coth q``.
    """
    _, center, _ = fitted_stencil(np.array([2.0 * q]), 1.0, np.array([1.0]))
    return -center[0] / 2.0


def test_fitted_stencil_center_is_the_fitting_factor():
    # mu*h/(2*sigma) = 1 gives exactly coth(1)
    assert _factor_from_center(1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-15)


def test_fitted_stencil_small_peclet_expansion():
    # q coth q = 1 + q^2/3 - q^4/45 + ...; 1e-6 takes the series branch
    for q in (1e-6, 1e-3, 0.05):
        assert _factor_from_center(q) == pytest.approx(1.0 + q * q / 3.0, rel=1e-6, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(min_value=1e-8, max_value=700.0))
def test_fitted_stencil_factor_dominates_the_drift(q):
    """``q coth q`` exceeds ``q``, which is what keeps rows monotone.

    Mathematically the excess over q, the sub-diagonal here, is strictly
    positive; in floats the factor's excess drops below one ulp of q around
    q = 18, so the strict forms are only asserted where it is representable.
    """
    sub, _, _ = fitted_stencil(np.array([2.0 * q]), 1.0, np.array([1.0]))
    rho = _factor_from_center(q)
    assert sub[0] >= 0.0
    assert rho >= q
    if q <= 15.0:
        assert sub[0] > 0.0
        assert rho > q


def test_fitted_stencil_zero_sigma_is_pure_upwind():
    sub, center, sup = fitted_stencil(np.array([3.0, -2.0]), 0.5, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(sub, [0.0, 4.0])
    np.testing.assert_array_equal(sup, [6.0, 0.0])
    np.testing.assert_array_equal(center, [-6.0, -4.0])


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


def test_fitted_stencil_mixed_regimes_match_row_by_row():
    # one call whose rows take every branch of the assembly must give each
    # row exactly as a call on that row alone does
    h = 0.1
    sigma = np.array([0.0, 1e-320, 1e4, 1.0, 1e-4, 0.0, 1.0])
    mu = np.array([2.0, 1.0, 3.0, 5.0, 800.0, 0.0, 0.0])
    sigma, mu = np.concatenate([sigma, sigma]), np.concatenate([mu, -mu])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = np.abs(mu * h / (2.0 * sigma))
    assert np.any(sigma == 0.0) and np.any(np.isinf(q) & (sigma > 0.0))
    assert np.any(q < 1e-4) and np.any((q > 0.1) & (q < 1.0)) and np.any(q[np.isfinite(q)] >= 350.0)
    assert np.any(mu > 0.0) and np.any(mu < 0.0)

    together = fitted_stencil(mu, h, sigma)
    alone = [fitted_stencil(mu[j:j + 1], h, sigma[j:j + 1]) for j in range(mu.size)]
    as_block = fitted_stencil(mu.reshape(2, -1), h, sigma.reshape(2, -1))
    for side, got, block in zip(range(3), together, as_block):
        want = np.concatenate([rows[side] for rows in alone])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(block.ravel().view(np.uint64), want.view(np.uint64))


def test_fitted_stencil_rejects_coefficients_of_different_shapes():
    # every caller builds mu and sigma row by row, so a shape mismatch is
    # an error, not a broadcast
    mu, sigma = np.array([2.0, 1.0, 3.0]), np.ones((2, 3))
    for args in ((mu, 0.1, sigma), (mu, 0.1, 1.0), (2.0, 0.1, mu)):
        with pytest.raises(ValueError, match="must have one shape"):
            fitted_stencil(*args)


def test_fitted_stencil_rejects_a_mesh_too_coarse_to_square():
    with pytest.raises(ValueError, match="h must have a finite square"):
        fitted_stencil(np.ones(3), 1e155, np.ones(3))
    sub, _, _ = fitted_stencil(np.ones(3), 1.3e154, np.ones(3))
    assert np.all(np.isfinite(sub))


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
    lambda v: fitted_stencil(np.array([2.0]), 0.1, np.array([v])),
    lambda v: fitted_stencil(np.array([2.0]), v, np.array([1.0])),
], ids=["layer_exact", "stencil-mu", "diffusion", "stencil-h"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_diffusion_or_drift_is_rejected(call, bad):
    # the layer solvers are covered through fdm-demo in test_cli.py
    with pytest.raises(ValueError, match="finite"):
        call(bad)
