import hashlib
import math

import numpy as np
import pytest

from longevity.errors import DataError
from longevity.lifetable import LifeTable, MortalityAssumptions, apply_assumptions, sample_table
from longevity.simulate import _WORD_BLOCK, RngStream, _death_time_order_stats
from longevity.stable import (
    StableParams,
    alpha_age_profile,
    estimate_alpha,
    log_char_function,
)
from longevity.stable import _QUANTILES, _interpolate, _quantile_points, _quantiles
from oracles import death_time_quantile, death_year_probabilities


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


def _degenerate_count(table, seeds):
    """How many of the profiles at the table's first age, streams (2039, 0..seeds-1), raise as degenerate."""
    count = 0
    for i in range(seeds):
        try:
            alpha_age_profile(table, [table.start_age], 1000, RngStream(2039, stream_id=i))
        except DataError as exc:
            assert "degenerate death-year distribution" in str(exc)
            count += 1
    return count


def test_alpha_age_profile_degenerate_rate_is_the_chance_all_die_in_one_year():
    # all 1000 lives die in the first year with probability 0.999**1000, and
    # no draw of 1000 can all die in the second.  Bound fixed before the
    # first run: the count over 2000 streams lies within 4.5 binomial
    # standard deviations of 2000 * 0.999**1000
    p, seeds = 0.999**1000, 2000
    count = _degenerate_count(LifeTable(90, [0.999, 1.0]), seeds)
    assert abs(count - seeds * p) <= 4.5 * math.sqrt(seeds * p * (1.0 - p)), count


@pytest.mark.parametrize("qx, count", [
    ([1.0 - 1e-12, 1.0], 100),  # all in the first year but for a 1e-9 chance
    ([5e-324, 1.0], 100),  # the CDF's first step is subnormal: all in the second
    ([0.5, 1.0], 0),
    ([1e-16, 0.3, 1.0], 0),
])
def test_alpha_age_profile_degenerate_tables(qx, count):
    assert _degenerate_count(LifeTable(90, qx), 100) == count


@pytest.mark.parametrize("age", [60, 75, 90])
def test_profile_quantiles_at_ten_million_match_the_exact_quantiles(bundled_table, age):
    # the five quantiles read off 10^7 death times, streams (2040, 0..4),
    # against the inverse of the exact piecewise-linear CDF from the raw qx.
    # Bound fixed before the first run: six standard deviations of a sample
    # quantile, sqrt(q (1 - q) / n) / f, with f the least density of the
    # quantile's year and its two neighbours
    n = 10**7
    qx = bundled_table.qx.tolist()
    probs = death_year_probabilities(qx[age - bundled_table.start_age:])
    points = _quantile_points(n)
    ranks = {lo + k for lo, _ in points for k in (1, 2)}
    for i in range(5):
        t = _death_time_order_stats(bundled_table, age, n, ranks, RngStream(2040, stream_id=i))
        for q, (lo, g) in zip(_QUANTILES, points):
            exact = death_time_quantile(bundled_table.start_age, qx, age, q)
            year = math.floor(exact)
            f = min(probs[max(year - 1, 0):year + 2])
            tol = 6.0 * math.sqrt(q * (1.0 - q) / n) / f
            got = _interpolate(t[lo + 1], t[lo + 2], g)
            assert abs(got - exact) <= tol, (i, q, got, exact, tol)


def test_alpha_age_profile_reads_one_word_block_an_age_whatever_n(bundled_table):
    # each age's sub-stream is found in a twin at the word its next draw
    # would take; bound fixed before the first run: one whole block an age,
    # at n = 1000, 20k and 10^7 alike
    ages = list(range(60, 96, 5))
    for n in (1000, 20_000, 10**7):
        rng, subs = RngStream(43), []
        rng.spawn = lambda offset: subs.append(RngStream.spawn(rng, offset)) or subs[-1]
        alpha_age_profile(bundled_table, ages, n, rng)
        assert len(subs) == len(ages)
        for sub in subs:
            twin = RngStream(sub.seed, sub.stream_id)._words(2 * _WORD_BLOCK + 1)
            read = np.flatnonzero(twin == sub._words(1)[0])
            assert read.tolist() == [_WORD_BLOCK], (n, sub)


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
# by (multiplier, improvement, n); taken again when the profile began to draw
# its twelve order statistics directly instead of sorting n death times.
PROFILE_BITS = {
    (1.0, 0.0, 1000): '6da2d1ed0114df29a8a3c08352f3a2579f42c9c2565c4ed8fec20579bbf57939',
    (1.0, 0.0, 5000): 'e29c0d36b90cfed26c1f034622ac0d3d15fbed9e144c633bb4e88b2472746a9e',
    (1.0, 0.0, 20000): '48b5e7c61830f3a2fc6b701a965b336b0d0167ac496f03423db8dd82df8bfe95',
    (0.5, 0.0, 1000): '2065e1b85215c7c3dfcebd64c78c5bfba6509971c68d74175b061453bd703134',
    (0.5, 0.0, 5000): '20229c507f7c76c4204605d6f0ce9bda8dc2d172abf73a6cd2f0d38a77f8c2f7',
    (0.5, 0.0, 20000): 'b731e3696fe934505497cff61c75b223895810a85836e48747dc1a4648cb57bb',
    (0.7, 0.0, 1000): '3d36e2d33a190095aebc362213d64c60afbc49a2da4303b43ad42c099f834cd3',
    (0.7, 0.0, 5000): '6007a5820339eea842f1203c8aef5fc84509a604de798d39a4ca3e4cea9f6e36',
    (0.7, 0.0, 20000): '885cc3e360942b66a7505f1de73cbb4dc444b5fa049905141d180e94a0184603',
    (1.3, 0.005, 1000): 'bdb6bd4da68d8ee6147fc10a410cbfea8f9ded6126dd008cb386238cb3a4406d',
    (1.3, 0.005, 5000): 'c69967a6f4bcfd46aac4b3d645aef023b472250954d82b6b767125186b02193d',
    (1.3, 0.005, 20000): 'de14c0e7fae9031e315022becb41ecb924842563db089cd278c15452257b1ec2',
    (1.6, 0.015, 1000): 'e79fa8b6e2acf9b5b5a156fc534e3ed8055590fe3aa1f2b01c92689d0e03e279',
    (1.6, 0.015, 5000): '1f4193b9e28aa84ee0c538032f1795d366a537a901e56343a186045a9382b3d9',
    (1.6, 0.015, 20000): '1a595df9a3c71317db2e67967748f4025bc6dd3bce5ee965c0a32557d8e72b6f',
    (4.0, 0.02, 1000): 'a2b10decd9d1cf627498127cb2409bec4245b72ef9bb35ca935904a0a43fe961',
    (4.0, 0.02, 5000): '691903f8b33d0784d71fd19880fe93d029b01235a9270f4f509d16278fba9af1',
    (4.0, 0.02, 20000): '510bbe52e575c88a118b21cd84cd510110f6c633bb91c24f63839bd138dff34d',
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
