import hashlib
import math

import numpy as np
import pytest

from longevity.errors import DataError
from longevity.lifetable import MortalityAssumptions, apply_assumptions, sample_table
from longevity.simulate import RngStream
from longevity.stable import (
    StableParams,
    alpha_age_profile,
    estimate_alpha,
    log_char_function,
)
from longevity.stable import _QUANTILES, _quantiles


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(alpha=0.0)
    with pytest.raises(ValueError):
        StableParams(alpha=2.1)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, beta=1.5)
    with pytest.raises(ValueError):
        StableParams(alpha=1.5, gamma=0.0)


def test_log_char_function_gaussian_member():
    p = StableParams(alpha=2.0, gamma=0.5, delta=1.0)
    t = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
    expected = 1j * 1.0 * t - 0.5 * t**2
    np.testing.assert_allclose(log_char_function(p, t), expected, atol=1e-15)


def test_log_char_function_cauchy_member():
    # symmetric alpha=1: plain -gamma|t| with a location shift
    p = StableParams(alpha=1.0, beta=0.0, gamma=2.0, delta=-0.5)
    t = np.array([-1.0, 0.25, 3.0])
    expected = -0.5j * t - 2.0 * np.abs(t)
    np.testing.assert_allclose(log_char_function(p, t), expected, atol=1e-14)


def test_char_function_at_zero_is_one():
    for alpha in (0.6, 1.0, 1.7, 2.0):
        p = StableParams(alpha=alpha, beta=0.3)
        assert log_char_function(p, 0.0) == 0.0


def test_beta_invariance_at_alpha_two():
    """Skew has no effect on the Gaussian member of the family."""
    t = np.linspace(-8.0, 8.0, 401)
    base = log_char_function(StableParams(alpha=2.0, beta=0.0), t)
    for beta in (-1.0, -0.4, 0.3, 1.0):
        other = log_char_function(StableParams(alpha=2.0, beta=beta), t)
        assert np.max(np.abs(other - base)) <= 1e-15


def test_estimate_alpha_requires_data():
    with pytest.raises(DataError, match="at least 100"):
        estimate_alpha(np.zeros(50))
    with pytest.raises(DataError):
        estimate_alpha(np.full(500, 3.0))  # degenerate spread


def test_estimate_alpha_normal_sample():
    x = RngStream(1000).normals(100_000)
    assert 1.95 <= estimate_alpha(x) <= 2.0


def test_estimate_alpha_cauchy_sample():
    u = RngStream(1001).uniform(100_000)
    x = np.tan(np.pi * (u - 0.5))
    assert 0.95 <= estimate_alpha(x) <= 1.05


def test_estimate_alpha_affine_invariance():
    x = RngStream(55).normals(20_000)
    base = estimate_alpha(x)
    assert estimate_alpha(3.5 * x - 400.0) == base
    # flipping the sign mirrors the quantiles; the spread ratio is unchanged
    assert estimate_alpha(-x) == pytest.approx(base, abs=5e-3)


def test_estimate_alpha_stays_in_table_support():
    u = RngStream(77).uniform(50_000)
    heavy = np.tan(np.pi * (u - 0.5)) ** 3  # far fatter than Cauchy
    assert 0.5 <= estimate_alpha(heavy) <= 2.0


def _quantile_samples(n):
    """Seeded samples of size ``n``: heavy-tailed, tied, sorted and reversed."""
    for seed in range(4):
        rng = RngStream(700 + seed, stream_id=n)
        u = rng.uniform(n)
        heavy = np.tan(np.pi * (u - 0.5))
        # adding 0.0 turns -0.0 into 0.0: the order of equal zeros of opposite
        # sign is unspecified in a sort and in a partition alike
        for x in (heavy, np.round(heavy, 1) + 0.0, np.floor(4.0 * u), 1e-300 * rng.normals(n)):
            yield x
            yield np.sort(x)
            yield np.sort(x)[::-1]


# n from 100 to 140 puts quantiles at g = 0, at g = 0.5 exactly (the median
# at every even n, the 5 % one at 111 and 131) and on either side of 0.5
@pytest.mark.parametrize("n", [*range(100, 141), 1000, 20_001])
def test_one_sort_quantiles_are_numpys_bit_for_bit(n):
    # _quantiles reads an ascending sample: a sorted array or a sorted list
    for x in _quantile_samples(n):
        want = np.quantile(x, _QUANTILES)
        for s in (np.sort(x), sorted(x.tolist())):
            got = np.array(_quantiles(s))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_estimate_alpha_leaves_the_callers_array_alone():
    x = np.round(np.tan(np.pi * (RngStream(71).uniform(2001) - 0.5)), 1)
    kept = x.copy()
    alpha = estimate_alpha(x)
    np.testing.assert_array_equal(x, kept)
    x.setflags(write=False)
    assert estimate_alpha(x) == alpha
    assert estimate_alpha(x[::-1]) == alpha
    np.testing.assert_array_equal(x, kept)


def test_alpha_age_profile_shape_and_determinism(bundled_table):
    ages = [60, 75, 90]
    prof1 = alpha_age_profile(bundled_table, ages, 5000, RngStream(42))
    prof2 = alpha_age_profile(bundled_table, ages, 5000, RngStream(42))
    assert prof1 == prof2
    assert [a for a, _ in prof1] == ages
    assert all(0.5 <= est <= 2.0 for _, est in prof1)


def test_alpha_age_profile_is_order_invariant(bundled_table):
    """Sub-streams are assigned by ascending age, not by request order."""
    forward = alpha_age_profile(bundled_table, [60, 75, 90], 5000, RngStream(42))
    backward = alpha_age_profile(bundled_table, [90, 75, 60], 5000, RngStream(42))
    assert forward == backward


def test_alpha_age_profile_rejects_degenerate_age():
    from longevity.lifetable import LifeTable
    from longevity.errors import DataError as DE

    table = LifeTable(100, [1.0])
    with pytest.raises(DE, match="age 100"):
        alpha_age_profile(table, [100], 5000, RngStream(1))


# ------------------------------------------------------------ bit pins #

# Rated tables, by (multiplier, improvement); (1.0, 0.0) is the bundled table.
PIN_RATINGS = [(1.0, 0.0), (0.5, 0.0), (0.7, 0.0), (1.3, 0.005), (1.6, 0.015), (4.0, 0.02)]
# the workload's profile ages plus 88..99, where alpha sits below its clamp at 2
PIN_AGES = sorted(set(range(60, 96, 5)) | set(range(88, 100)))


def _hex_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _profile_digest(rating, n):
    table = apply_assumptions(sample_table(), MortalityAssumptions(*rating))
    profile = alpha_age_profile(table, PIN_AGES, n, RngStream(2024, stream_id=5))
    return _hex_digest(f"{age},{alpha.hex()}" for age, alpha in profile)


# sha256 of the "age,alpha.hex()" lines of alpha_age_profile over PIN_AGES,
# by (multiplier, improvement, n).
PROFILE_BITS = {
    (1.0, 0.0, 1000): '35c84a76fcb243c0fd8fa8c81c6813164b2fe1ae7ed38fc8f078ae12ee698b16',
    (1.0, 0.0, 5000): '26e85175dfb4f8d612a5e30651f0c4a9659717e56da4ba33f0c907326df92bcb',
    (1.0, 0.0, 20000): '125ed137f8f8341e3eb96577b4f9385aeb471ff68b13487d8a1dbbd8b74fd7b7',
    (0.5, 0.0, 1000): 'f52724bf7e5ee356a6598d772e77e48dd9fd2bdbba99bd19d8c26129691199e2',
    (0.5, 0.0, 5000): '731902033b2d07d65ac3c734225fe39ab99c87436bda520ce71c4ec3fb89efeb',
    (0.5, 0.0, 20000): '0c381b866d5d9b055e98d4b05692ac19019ec6872737c0e08304584a6aca969b',
    (0.7, 0.0, 1000): '2d014973efbdb20e9d9181c74922129681d54866d54a7ce22160fb3d130206b3',
    (0.7, 0.0, 5000): '113685149314962038c219bb8ec039bd528b39b4fb58e118c867965142c7049a',
    (0.7, 0.0, 20000): '86c2199f9168c967cca5d4026cc1abb0288edbe712aa167db75f80a144d6e3e6',
    (1.3, 0.005, 1000): 'b327f95e6d4a4379cf8cbc6253572b8ae3606393be7269d1c4d555cc4d0d1055',
    (1.3, 0.005, 5000): '0c4aa299925230bb5e6d35be88b6720c9d88942ff46b6dd6e092d67ff2f54a5c',
    (1.3, 0.005, 20000): '94a47246e0371433fcd86b54cd59abe62ece42364fb3ec052e642bdb21a62ace',
    (1.6, 0.015, 1000): 'b6b51571b3ff5dff16e8cbb2e2ade745233a13432080f21a7e2baa127d0c065c',
    (1.6, 0.015, 5000): '3148a27dbfb5f118b6f864ba4eb8fad67d3eb72fad4b99e4ad41dc50c5411762',
    (1.6, 0.015, 20000): 'a231f210f1dda6d05a029ccaecd7e94b7dd0844e2cbac89489143ad6add6249c',
    (4.0, 0.02, 1000): '49ea4fee483fcf864eebc6c8ad7581f49bf1a4ebca244b37c6ab024e525c3933',
    (4.0, 0.02, 5000): 'f205d731dcc80c32e918115af9666316ff369bea411285a5875b2a889fa6293d',
    (4.0, 0.02, 20000): '9a9870c3cc06ee8af9aca79b1fcf8b8d348ea71339c72e97c0b54ff2a5814011',
}


@pytest.mark.parametrize("case", list(PROFILE_BITS), ids=lambda c: "-".join(map(str, c)))
def test_alpha_age_profile_keeps_its_bits(case):
    *rating, n = case
    assert _profile_digest(tuple(rating), n) == PROFILE_BITS[case]


def _heavy_tailed_samples(n):
    """Seeded heavy-tailed samples, most of them rounded so that values tie."""
    for seed in range(12):
        u = RngStream(900 + seed, stream_id=n).uniform(n)
        cauchy = np.tan(np.pi * (u - 0.5))
        yield cauchy
        yield np.round(cauchy, 1)
        yield np.round(np.sign(cauchy) * np.abs(cauchy) ** 1.5, 0)
        yield np.floor(4.0 * u ** -0.6) / 4.0  # Pareto-like, one-sided
        yield np.round(RngStream(900 + seed, stream_id=n).normals(n), 2)


# sha256 of the alpha.hex() lines of estimate_alpha over _heavy_tailed_samples(n).
# Rounding leaves ties of 0.0 and -0.0 in some samples, where a zero quantile
# may take either sign; the estimate must not depend on which.
ESTIMATE_BITS = {
    100: '460f852a4ea5e1025d6c531046c9c4c3b09445e943f30e62e7716a13cf0d9b26',
    101: '4303afbe231f2916db4da96380da60989762cec595c7fa573abf963157bbb6a1',
    2000: '0f0901fe15c9948c70774ab97e4a979990d3c4779f1460611fbf7e66e0f880ca',
    50000: '50fa8093cf2e6f8e37459c368cd662f7f5b3aed496a4dd3a4f2c070b5a451fdd',
}


@pytest.mark.parametrize("n", list(ESTIMATE_BITS))
def test_estimate_alpha_keeps_its_bits(n):
    alphas = [estimate_alpha(x) for x in _heavy_tailed_samples(n)]
    assert len(set(alphas)) > 10  # most samples land off the table's clamps
    assert _hex_digest(a.hex() for a in alphas) == ESTIMATE_BITS[n]


@pytest.mark.parametrize("n", list(ESTIMATE_BITS))
def test_estimate_alpha_of_a_list_equals_its_array_bit_for_bit(n):
    # a flat list is sorted by ``sorted``, an array by ``np.sort``
    lists = [x.tolist() for x in _heavy_tailed_samples(n)]
    alphas = [estimate_alpha(values) for values in lists]
    assert [a.hex() for a in alphas] == [estimate_alpha(np.array(v)).hex() for v in lists]
    assert _hex_digest(a.hex() for a in alphas) == ESTIMATE_BITS[n]
    # ints count as numbers; a nested list goes to numpy, which flattens it
    ints = [round(v) for v in lists[2]]
    assert estimate_alpha(ints) == estimate_alpha(np.array(ints, dtype=float))
    nested = [lists[0][:n // 2], lists[0][n // 2:n // 2 * 2]]
    assert estimate_alpha(nested) == estimate_alpha(lists[0][:n // 2 * 2])


def test_estimate_alpha_checks_a_list_like_an_array():
    with pytest.raises(DataError, match="at least 100"):
        estimate_alpha([0.0] * 99)
    with pytest.raises(DataError, match="at least 100"):
        estimate_alpha([math.nan] * 50)
    with pytest.raises(DataError, match="non-finite"):
        estimate_alpha([float(k) for k in range(200)] + [math.inf])
    with pytest.raises(DataError, match="non-finite"):
        estimate_alpha([math.nan] + [float(k) for k in range(200)])
    with pytest.raises(DataError, match="degenerate"):
        estimate_alpha([3.0] * 500)


@pytest.mark.parametrize("values", [
    [5e307] * 5 + [1e308] * 20 + [1.7e308] * 75,  # the skew sum overflows
    [-1e308] * 50 + [1e308] * 50,  # so do the spread and the median's step
    [-1.7e308] * 10 + [-1.0] * 40 + [1.0] * 40 + [1.7e308] * 10,  # only the spread
])
def test_estimate_alpha_stays_finite_near_the_float_range(values):
    # halving is exact here, and the halved sample needs no fallback
    alpha = estimate_alpha(values)
    assert 0.5 <= alpha <= 2.0
    assert alpha == estimate_alpha([0.5 * v for v in values])
    assert alpha == estimate_alpha(np.array(values))
