import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2, chisquare, gamma, kstest

from longevity.lifetable import (
    LifeTable,
    MortalityAssumptions,
    apply_assumptions,
    death_distribution,
    sample_table,
)
from longevity.simulate import (
    GbmParams,
    RngStream,
    box_muller,
    gbm_terminal_samples,
    randomized_horizon_payoff,
    sample_death_years,
    sample_death_times,
    simulate_deaths,
    vole,
)
from longevity.simulate import (_binomial, _block_uniforms, _bucket_years, _death_cdf,
                                _death_counts, _death_time_order_stats, _gamma,
                                _years_from_uniforms)
from longevity.stable import _quantile_points
from oracles import binomial_pmf, curtate_mean_from_rates, death_year_probabilities


def test_stream_is_reproducible_and_streams_are_distinct():
    a = RngStream(42).uniform(16)
    b = RngStream(42).uniform(16)
    c = RngStream(42, stream_id=1).uniform(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a > 0.0) & (a < 1.0))


def _documented_uniforms(words):
    return np.minimum(((words >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0**53,
                      1.0 - 2.0**-53)


def test_uniform_is_the_documented_formula_bit_for_bit():
    n = 10_000
    key = np.array([5, 3], dtype=np.uint64)
    words = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**64, size=n, dtype=np.uint64)
    want = _documented_uniforms(words)
    got = RngStream(5, stream_id=3).uniform(n)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert RngStream(5).uniform(0).shape == (0,)


class AllOnesWords:
    """Stands in for the stream's generator: every 64-bit word has all bits set."""

    def integers(self, low, high, size, dtype):
        return np.full(size, np.iinfo(np.uint64).max, dtype=dtype)


def test_the_all_ones_word_still_gives_a_uniform_below_one():
    # its top 53 bits plus one half round to 2**53, a quotient of exactly 1
    rng = RngStream(0)
    rng._gen = AllOnesWords()
    u = rng.uniform(3)
    assert np.all(u < 1.0)
    np.testing.assert_array_equal(u, np.nextafter(1.0, 0.0))
    assert np.all(np.isfinite(rng.normals(2)))
    # certain death in year 1, so the time is 1 minus the fraction
    times = sample_death_times(LifeTable(100, [1.0]), 100, 2, rng)
    assert np.all((times > 0.0) & (times < 1.0))


class AllZerosWords:
    """Stands in for the stream's generator: every 64-bit word is zero."""

    def integers(self, low, high, size, dtype):
        return np.zeros(size, dtype=dtype)


@pytest.mark.parametrize("words", [AllOnesWords, AllZerosWords])
def test_death_times_at_the_extreme_uniforms_stay_inside_their_year(words):
    # the largest uniform gives 30 - u == 29 and the smallest 30 - u == 30
    rng = RngStream(0)
    rng._gen = words()
    times = sample_death_times(LifeTable(70, [0.0] * 29 + [1.0]), 70, 4, rng)
    years = np.full(4, 30.0)
    assert np.all(times != np.floor(times))
    np.testing.assert_array_equal(np.ceil(times), years)


def test_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(1.5)


def test_spawn_offsets_the_stream_id():
    base = RngStream(9, stream_id=3)
    child = base.spawn(4)
    same = RngStream(9, stream_id=7)
    np.testing.assert_array_equal(child.uniform(8), same.uniform(8))


def test_box_muller_identities():
    y1, y2 = box_muller(0.5, 0.25)
    radius = math.sqrt(-2.0 * math.log(0.5))
    assert y1 == pytest.approx(radius * math.cos(math.pi / 2), abs=1e-12)
    assert y2 == pytest.approx(radius * math.sin(math.pi / 2), rel=1e-12)
    assert y1 * y1 + y2 * y2 == pytest.approx(-2.0 * math.log(0.5), rel=1e-12)
    with pytest.raises(ValueError):
        box_muller(0.0, 0.5)


def test_box_muller_moments_smoke(rng_uniform_pairs):
    r1, r2 = rng_uniform_pairs(200_000)
    y1, y2 = box_muller(r1, r2)
    sample = np.concatenate([y1, y2])
    assert abs(sample.mean()) < 0.01
    assert abs(sample.var() - 1.0) < 0.02


def test_normals_consume_two_uniforms_each():
    n = RngStream(7).normals(5)
    u = RngStream(7).uniform(10)
    y1, _ = box_muller(u[0::2], u[1::2])
    np.testing.assert_array_equal(n, y1)


def test_certain_death_table():
    table = LifeTable(100, [1.0])
    assert sample_death_years(table, 100, 1, RngStream(0)).tolist() == [1]
    summary = simulate_deaths(table, 100, 50, RngStream(0))
    assert summary.mode == 1
    assert summary.max_year == 1
    assert summary.mean == 1.0
    assert summary.histogram == {1: 50}


# death CDFs whose steps sit where a 4096-bucket guide table can go wrong
EDGE_CASE_CDFS = {
    # qx = 0.5 every year: 0.5, 0.75, ... land on bucket edges up to 1 - 2**-12,
    # and the later steps crowd into the last bucket
    "steps-on-bucket-edges": _death_cdf(LifeTable(60, [0.5] * 20 + [1.0]), 60),
    "several-steps-in-one-bucket": np.append(np.arange(1, 31) * 1e-5, [0.3, 1.0]),
    "zero-probability-years": _death_cdf(
        LifeTable(60, [0.0, 0.3, 0.0, 0.0, 0.5, 0.0, 1.0]), 60),
    "single-year": np.array([1.0]),
    # the running sum reaches 1.0000000000000002 in year 3
    "sum-passes-one-before-the-last": _death_cdf(
        LifeTable(60, [0.2, 0.2, 1.0, 0.5, 1.0]), 60),
}


def _words_around(cdf):
    """Words at every bucket edge and nearest every CDF value, plus the all-ones word."""
    j = np.arange(4097, dtype=np.int64) << 41
    # the first top-53-bit value k of each bucket and the last of the one
    # before it, whose low 41 bits are all ones
    k = np.concatenate([j[:-1], j[1:] - 1])
    below = np.floor(cdf * 2.0**53).astype(np.int64)
    k = np.concatenate([k, *(np.clip(below + d, 0, 2**53 - 1) for d in (-1, 0, 1))])
    # the low 11 bits of a word never reach its uniform
    words = k.astype(np.uint64) << np.uint64(11)
    return np.concatenate([words, words | np.uint64(2**11 - 1), [np.iinfo(np.uint64).max]])


@pytest.mark.parametrize("name", sorted(EDGE_CASE_CDFS))
def test_bucket_lookup_equals_the_binary_search(name):
    cdf = EDGE_CASE_CDFS[name]
    assert np.all(np.diff(cdf) >= 0.0)
    # from 2**52 on, an odd k with its low 41 bits all ones rounds up to the
    # next bucket's edge while its top 12 bits name the bucket below: two
    # such words for each bucket edge from 2049 to 4095
    around = _words_around(cdf)
    on_edge = np.floor(_documented_uniforms(around) * 4096) != around >> np.uint64(52)
    assert np.count_nonzero(on_edge) >= 2 * 2047
    for words in (RngStream(21)._words(50_000), around):
        kept = words.copy()
        want = _years_from_uniforms(cdf, _documented_uniforms(words))
        got = _bucket_years(cdf, words)
        assert got.dtype == want.dtype == np.int64
        assert not np.shares_memory(got, words)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(words, kept)


def test_sample_death_years_reads_one_word_per_year(bundled_table):
    n = 30_000
    rng, twin = RngStream(8), RngStream(8)
    years = sample_death_years(bundled_table, 60, n, rng)
    want = _years_from_uniforms(_death_cdf(bundled_table, 60), twin.uniform(n))
    assert years.dtype == want.dtype
    np.testing.assert_array_equal(years, want)
    np.testing.assert_array_equal(rng.uniform(4), twin.uniform(4))


# Tables and ages of the death-sampling pins: the bundled table and two
# ratings of it, by (multiplier, improvement), at three ages each.
PIN_RATINGS = [(1.0, 0.0), (0.7, 0.0), (1.6, 0.015)]
PIN_AGES = [60, 75, 89]


def _death_sampling_digest(draw, n):
    """sha256 over the pin tables and ages of ``draw``'s bytes and the next words."""
    h = hashlib.sha256()
    for rating in PIN_RATINGS:
        table = apply_assumptions(sample_table(), MortalityAssumptions(*rating))
        for age in PIN_AGES:
            rng = RngStream(31, stream_id=age)
            h.update(draw(table, age, n, rng))
            h.update(rng._words(4).tobytes())
    return h.hexdigest()


def _summary_bytes(table, age, n, rng):
    s = simulate_deaths(table, age, n, rng)
    return repr((s.n, s.mode, s.max_year, s.mean.hex(), list(s.histogram.items()))).encode()


PIN_DRAWS = {
    "sample_death_years": lambda *args: sample_death_years(*args).tobytes(),
    "simulate_deaths": _summary_bytes,
    "sample_death_times": lambda *args: sample_death_times(*args).tobytes(),
}

# Digests of _death_sampling_digest, by (function, n); the years' bytes are
# int64, so a change of dtype changes the digest too.  The simulate_deaths
# pins were taken when its years were first drawn as counts, which read
# whole word blocks, so they also pin the stream position after a summary.
DEATH_SAMPLING_BITS = {
    ('sample_death_years', 20000): '0246c29718f16b98e8714f6ce733f25caed1c6dc9417c60d3a22f0fc49562898',
    ('sample_death_years', 100000): 'c41b089d725cfe5b7ee93adc5ef236b6c11e161b01556fef2143edaea4abc07d',
    ('simulate_deaths', 20000): '29e4bd50617cb4320d2b62723b2304cc9acc4bd987d6bcaf65887b92e104c096',
    ('simulate_deaths', 100000): '9bde725b8f2a6e8066e9afe3fbe5f5509145bb818d9450fac94e502cd970a7db',
    ('sample_death_times', 20000): '8272a3557c977e20aed20f7e3d7fd7beca10c36932b0d93b0e9f6d10f3e833fc',
    ('sample_death_times', 100000): '302c50647b96d6ef87f8fc930c3feb89bf0c24c490cd0f15bbf176bf40334936',
}


@pytest.mark.parametrize("case", list(DEATH_SAMPLING_BITS), ids=lambda c: "-".join(map(str, c)))
def test_death_sampling_keeps_its_bits(case):
    name, n = case
    assert _death_sampling_digest(PIN_DRAWS[name], n) == DEATH_SAMPLING_BITS[case]


def test_death_years_match_distribution_chi_square(bundled_table):
    """Empirical year frequencies agree with the table distribution at 1e5."""
    x, n = 70, 100_000
    years = sample_death_years(bundled_table, x, n, RngStream(314))
    probs = death_distribution(bundled_table, x)
    counts = np.bincount(years, minlength=probs.size + 1)[1:]
    # fold the sparse far tail so expected counts stay reasonable
    keep = probs * n >= 5.0
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(probs[keep], probs[~keep].sum()) * n
    stat, pvalue = chisquare(obs, exp)
    assert pvalue > 0.001, f"chi-square statistic {stat:.1f}, p={pvalue:.2e}"


def test_simulated_mean_near_analytic(bundled_table):
    x, n = 70, 100_000
    summary = simulate_deaths(bundled_table, x, n, RngStream(1))
    mean_t = curtate_mean_from_rates(bundled_table.qx, x - bundled_table.start_age)
    probs = death_distribution(bundled_table, x)
    years = np.arange(1, probs.size + 1)
    var_t = float(np.dot((years - mean_t) ** 2, probs))
    assert abs(summary.mean - mean_t) <= 3.0 * math.sqrt(var_t / n)


# (n, p) on both branches of the binomial sampler: inversion where
# n min(p, 1 - p) < 10, BTRS from 10 on; p > 1/2 is drawn through 1 - p
BINOMIAL_CASES = [
    (1, 0.3), (5, 0.3), (19, 0.45), (1000, 0.005), (10**7, 2e-7), (12, 0.7),
    (40, 0.25), (1000, 0.4), (10**6, 0.02), (200, 0.9), (10**7, 0.6),
]


def _pmf_cells(n, p, draws):
    """Observed and expected counts of ``draws`` in cells of expected count >= 10.

    The cells run over ``k`` within 12 standard deviations of the mean,
    outside which the pmf is below 1e-30; draws beyond them count in the
    end cells.
    """
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(mean - 12 * sd - 12)), min(n, math.ceil(mean + 12 * sd + 12))
    edges, expected, mass = [], [], 0.0
    for k in range(lo, hi + 1):
        mass += binomial_pmf(n, p, k)
        if mass * draws.size >= 10.0 or k == hi:
            edges.append(k)
            expected.append(mass)
            mass = 0.0
    if expected[-1] * draws.size < 10.0:  # fold a thin last cell into the one before
        thin = expected.pop()
        expected[-1] += thin
        edges.pop(-2)
    observed = np.bincount(np.searchsorted(edges, np.clip(draws, lo, hi)),
                           minlength=len(edges))
    expected = np.array(expected) / sum(expected) * draws.size
    return observed, expected


@pytest.mark.parametrize("i", range(len(BINOMIAL_CASES)),
                         ids=[f"n{n}-p{p}" for n, p in BINOMIAL_CASES])
def test_binomial_draws_match_the_exact_pmf(i):
    # 20,000 draws from stream (2031, i) against the pmf by math.comb or
    # lgamma; bound fixed before the first run: chi-square p-value > 1e-3
    n, p = BINOMIAL_CASES[i]
    uniform = _block_uniforms(RngStream(2031, stream_id=i)).__next__
    draws = np.array([_binomial(n, p, uniform) for _ in range(20_000)])
    assert draws.min() >= 0 and draws.max() <= n
    observed, expected = _pmf_cells(n, p, draws)
    assert observed.size >= 2
    stat, pvalue = chisquare(observed, expected)
    assert pvalue > 1e-3, f"chi-square statistic {stat:.1f} over {observed.size} cells"


def test_binomial_at_probability_zero_and_one_reads_nothing():
    def no_uniform():
        raise AssertionError("read a uniform")

    for n in (0, 1, 7, 10**7):
        assert _binomial(n, 0.0, no_uniform) == 0
        assert _binomial(n, 1.0, no_uniform) == n
    assert _binomial(0, 0.4, no_uniform) == 0


@pytest.mark.parametrize("n", [1, 2, 20_000, 10**7])
@pytest.mark.parametrize("age", [60, 70, 89, 115])
def test_death_counts_sum_to_n(bundled_table, age, n):
    counts = _death_counts(bundled_table, age, n, RngStream(2032, stream_id=age))
    assert counts.dtype == np.int64
    assert counts.shape == (bundled_table.omega - age + 1,)
    assert counts.min() >= 0
    assert int(counts.sum()) == n


@pytest.mark.parametrize("n", [1, 50, 10**7])
def test_death_counts_of_degenerate_tables(n):
    assert _death_counts(LifeTable(90, [1.0]), 90, n, RngStream(3)).tolist() == [n]
    # nobody outlives a year whose qx is 1, and no one dies in a year of qx 0
    assert _death_counts(LifeTable(60, [1.0, 0.5, 1.0]), 60, n, RngStream(3)).tolist() == [n, 0, 0]
    counts = _death_counts(LifeTable(60, [0.0, 0.3, 0.0, 0.0, 0.5, 0.0, 1.0]), 60, n,
                           RngStream(3))
    assert counts[[0, 2, 3, 5]].tolist() == [0, 0, 0, 0]
    assert int(counts.sum()) == n


def test_death_counts_match_the_distribution_chi_square(bundled_table):
    # 300 streams (seed 2033, ids 0..299) of n = 50,000 lives aged 70; years
    # with n d_y < 5 are folded into one cell.  Bound fixed before the first
    # run: the summed Pearson statistic lies inside the central 99.8 % of a
    # chi-square with 300 (cells - 1) degrees of freedom (two-sided, 1e-3 a
    # side), which checks the multinomial's variances as well as its means
    x, n, streams = 70, 50_000, 300
    probs = np.array(death_year_probabilities(bundled_table.qx[x - bundled_table.start_age:]))
    keep = probs * n >= 5.0
    expected = np.append(probs[keep], probs[~keep].sum()) * n
    total = 0.0
    for i in range(streams):
        counts = _death_counts(bundled_table, x, n, RngStream(2033, stream_id=i))
        observed = np.append(counts[keep], counts[~keep].sum())
        total += float(np.sum((observed - expected) ** 2 / expected))
    pvalue = chi2.sf(total, streams * (expected.size - 1))
    assert min(pvalue, 1.0 - pvalue) > 1e-3, (total, streams * (expected.size - 1))


@pytest.mark.parametrize("shape", [1, 2, 7, 999, 10**7])
def test_gamma_draws_match_the_gamma_law(shape):
    # 20,000 draws from stream (2036, shape).  Bound fixed before the first
    # run: the Kolmogorov-Smirnov p-value against Gamma(shape) exceeds 1e-3
    uniform = _block_uniforms(RngStream(2036, stream_id=shape)).__next__
    draws = [_gamma(shape, uniform) for _ in range(20_000)]
    assert kstest(draws, gamma(shape).cdf).pvalue > 1e-3


def _profile_ranks(n):
    """The 1-based ranks a tail profile reads: both neighbours of each quantile, 1 and n."""
    return sorted({1, n, *(lo + k for lo, _ in _quantile_points(n) for k in (1, 2))})


@pytest.mark.parametrize("rating", [(1.0, 0.0), (1.6, 0.015)], ids=["bundled", "rated"])
@pytest.mark.parametrize("x, n", [(80, 1000), (80, 20_000), (90, 1000), (90, 20_000)])
def test_death_time_order_stats_match_the_sorted_sample(rating, x, n):
    # 1000 draws a side: the order statistics from streams (2034, i), the
    # sorted sample_death_times from streams (2035, i), i = 0..999.  Bounds
    # fixed before the first run, rank by rank: the two-sample |z| of the
    # means is at most 4.5, and the log of the sd ratio is within 0.15 for
    # the quantile ranks (4.7 standard errors at normal kurtosis) and 0.3 for
    # ranks 1 and n, whose laws are closer to exponential and Gumbel ones
    table = apply_assumptions(sample_table(), MortalityAssumptions(*rating))
    ranks, draws = _profile_ranks(n), 1000
    drawn = (_death_time_order_stats(table, x, n, ranks, RngStream(2034, stream_id=i))
             for i in range(draws))
    direct = np.array([[stats[k] for k in ranks] for stats in drawn])
    idx = np.array(ranks) - 1
    sorted_ = np.array([np.sort(sample_death_times(table, x, n, RngStream(2035, stream_id=i)))[idx]
                        for i in range(draws)])
    z = (direct.mean(0) - sorted_.mean(0)) / np.sqrt(
        (direct.var(0, ddof=1) + sorted_.var(0, ddof=1)) / draws)
    log_ratio = np.log(direct.std(0, ddof=1) / sorted_.std(0, ddof=1))
    extreme = np.isin(ranks, [1, n])
    assert np.all(np.abs(z) <= 4.5), dict(zip(ranks, z.round(2)))
    assert np.all(np.abs(log_ratio[~extreme]) <= 0.15), dict(zip(ranks, log_ratio.round(3)))
    assert np.all(np.abs(log_ratio[extreme]) <= 0.3), dict(zip(ranks, log_ratio.round(3)))


@pytest.mark.parametrize("n", [1000, 20_000, 10**7])
def test_death_time_order_stats_are_uniform_order_statistics_on_a_one_year_table(n):
    # with every death in the first year a time is its uniform, so rank k of
    # n is Beta(k, n + 1 - k): mean k / (n + 1), variance
    # k (n + 1 - k) / ((n + 1)^2 (n + 2)).  4000 draws from streams
    # (2041, i); bounds fixed before the first run: |z| of each rank's mean
    # at most 4.5, its sd within 10 % of the Beta's
    table, ranks, draws = LifeTable(60, [1.0]), _profile_ranks(n), 4000
    drawn = (_death_time_order_stats(table, 60, n, ranks, RngStream(2041, stream_id=i))
             for i in range(draws))
    times = np.array([[stats[k] for k in ranks] for stats in drawn])
    k = np.array(ranks, dtype=float)
    var = k * (n + 1 - k) / ((n + 1) ** 2 * (n + 2))
    z = (times.mean(0) - k / (n + 1)) / np.sqrt(var / draws)
    assert np.all(np.abs(z) <= 4.5), dict(zip(ranks, z.round(2)))
    assert np.all(np.abs(times.std(0, ddof=1) / np.sqrt(var) - 1.0) <= 0.1)


@pytest.mark.parametrize("qx", [[5e-324, 1.0], [1.0 - 1e-12, 1.0], [1e-16, 0.3, 1.0],
                                [0.0, 0.3, 0.0, 0.5, 1.0], [1.0]])
@pytest.mark.parametrize("n", [1000, 10**7])
def test_death_time_order_stats_lie_inside_their_years(qx, n):
    # subnormal, rounded and zero steps of the CDF: every time is inside a
    # year that has deaths, and the ranks come out in order
    table = LifeTable(60, qx)
    probs = death_distribution(table, 60)
    ranks = _profile_ranks(n)
    for i in range(50):
        stats = _death_time_order_stats(table, 60, n, ranks, RngStream(2037, stream_id=i))
        times = [stats[k] for k in ranks]
        assert times == sorted(times)
        for t in times:
            assert 0.0 < t < len(qx) and t != math.floor(t)
            assert probs[math.ceil(t) - 1] > 0.0


@pytest.mark.parametrize("n", [10**3, 10**5, 10**7])
def test_simulated_max_year_lies_inside_its_exact_law(bundled_table, n):
    # P(max <= y) = F(y)^n, formed as exp(n log1p(F - 1)) with 1 - F the
    # survival past year y, multiplied up from the raw qx.  Streams (2038, i),
    # i = 0..9, fixed before the first run: every draw's max_year lies in the
    # law's central 99.9 %, from the first year whose probability passes
    # 0.0005 to the first that reaches 0.9995
    x = 70
    alive, law = 1.0, []
    for q in bundled_table.qx[x - bundled_table.start_age:].tolist():
        alive *= 1.0 - q
        law.append(math.exp(n * math.log1p(-alive)) if alive < 1.0 else 0.0)
    low = next(y for y, p in enumerate(law, start=1) if p > 0.0005)
    high = next(y for y, p in enumerate(law, start=1) if p >= 0.9995)
    for i in range(10):
        top = simulate_deaths(bundled_table, x, n, RngStream(2038, stream_id=i)).max_year
        assert low <= top <= high, (i, top, low, high)


def test_sample_death_times_are_fractional(bundled_table):
    times = sample_death_times(bundled_table, 70, 1000, RngStream(5))
    assert np.all(times > 0.0)
    assert np.all(times != np.floor(times))
    years = sample_death_years(bundled_table, 70, 1000, RngStream(5))
    np.testing.assert_array_equal(np.ceil(times), years)


def test_mode_tie_breaks_toward_smaller_year(monkeypatch):
    # years 1 and 2 both die twice; the summary must report the smaller
    monkeypatch.setattr("longevity.simulate._death_counts", lambda *args: np.array([2, 2, 1]))
    s = simulate_deaths(LifeTable(100, [0.5, 0.5, 1.0]), 100, 5, RngStream(12))
    assert s.histogram == {1: 2, 2: 2, 3: 1}
    assert s.mode == 1


def test_vole_values_and_domain():
    assert vole(10.0, 10.0) == 0.0
    assert vole(5.0, 20.0) == 0.75
    # a ratio at most half the gap below 1 rounds the result up to exactly 1
    assert vole(1e-320, 1e308) == 1.0
    assert vole(2.0**-54, 1.0) == 1.0
    assert vole(2.0**-53, 1.0) == 1.0 - 2.0**-53
    with pytest.raises(ValueError):
        vole(21.0, 20.0)
    with pytest.raises(ValueError):
        vole(0.0, 20.0)
    with pytest.raises(ValueError):
        vole(5.0, 0.0)
    with pytest.raises(ValueError, match="max_death must be finite"):
        vole(15.0, math.inf)
    with pytest.raises(ValueError, match="e_complete must be finite"):
        vole(math.nan, 20.0)


def test_gbm_sigma_with_an_overflowing_square_is_a_domain_error():
    with pytest.raises(ValueError, match="sigma"):
        GbmParams(0.05, 1e200, 1.0)
    # the largest sigma whose square is finite is still accepted
    assert GbmParams(0.05, 1e154, 1.0).sigma == 1e154


def test_gbm_terminal_samples_closed_forms():
    p = GbmParams(rate=0.05, sigma=0.0, s0=100.0)
    np.testing.assert_allclose(gbm_terminal_samples(p, 2.0, 3, RngStream(3)),
                               100.0 * math.exp(0.1), rtol=1e-15)
    # one jump is s0 * exp((rate - sigma**2/2) t + sigma sqrt(t) eps), one normal per path
    p2 = GbmParams(rate=0.05, sigma=0.2, s0=100.0)
    eps = RngStream(3).normals(4)
    np.testing.assert_allclose(gbm_terminal_samples(p2, 1.0, 4, RngStream(3)),
                               100.0 * np.exp(0.05 - 0.02 + 0.2 * eps), rtol=1e-15)


def test_gbm_terminal_samples_edge_cases():
    p = GbmParams(rate=0.05, sigma=0.2, s0=50.0)
    assert gbm_terminal_samples(p, 0.0, 2, RngStream(3)).tolist() == [50.0, 50.0]
    p0 = GbmParams(rate=0.05, sigma=0.0, s0=50.0)
    assert gbm_terminal_samples(p0, 1.0, 1, RngStream(3))[0] == pytest.approx(
        50.0 * math.exp(0.05), rel=1e-15)
    with pytest.raises(ValueError):
        gbm_terminal_samples(p, -0.5, 1, RngStream(3))


def test_gbm_discounted_terminal_is_a_martingale():
    p = GbmParams(rate=0.07, sigma=0.3, s0=80.0)
    t, n = 2.0, 100_000
    s = gbm_terminal_samples(p, t, n, RngStream(21))
    disc = math.exp(-p.rate * t) * s
    se = disc.std(ddof=1) / math.sqrt(n)
    assert abs(disc.mean() - p.s0) <= 3.0 * se


def test_one_jump_matches_many_steps_in_mean():
    p = GbmParams(rate=0.05, sigma=0.25, s0=100.0)
    t, n = 1.0, 50_000
    one = gbm_terminal_samples(p, t, n, RngStream(8))
    many = gbm_terminal_samples(p, t, n, RngStream(9), n_steps=64)
    se = math.hypot(one.std(ddof=1), many.std(ddof=1)) / math.sqrt(n)
    assert abs(one.mean() - many.mean()) <= 3.0 * se


def test_randomized_horizon_constant_payoff(bundled_table):
    mean, se = randomized_horizon_payoff(
        GbmParams(0.05, 0.2, 100.0), bundled_table, 70, lambda s, y: 1.0, 500, RngStream(4))
    assert mean == 1.0
    assert se == 0.0


def test_randomized_horizon_certain_death():
    table = LifeTable(100, [1.0])
    b, r = 1000.0, 0.05
    mean, se = randomized_horizon_payoff(
        GbmParams(r, 0.2, 1.0), table, 100,
        lambda s, y: b * np.exp(-r * y), 100, RngStream(4))
    assert mean == pytest.approx(b * math.exp(-r), rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-9)


def test_randomized_horizon_matches_exact_expectation(bundled_table):
    x, r, b = 70, 0.05, 1000.0
    payoff = lambda s, y: b * np.exp(-r * y)
    mean, se = randomized_horizon_payoff(
        GbmParams(r, 0.2, 1.0), bundled_table, x, payoff, 200_000, RngStream(6))
    probs = death_distribution(bundled_table, x)
    exact = sum(p * b * math.exp(-r * (i + 1)) for i, p in enumerate(probs))
    assert abs(mean - exact) <= 3.0 * se


def test_randomized_horizon_calls_the_payoff_once_with_arrays(bundled_table):
    calls = []

    def payoff(s, y):
        calls.append((s, y))
        return y.astype(float)

    n = 1000
    mean, _ = randomized_horizon_payoff(
        GbmParams(0.05, 0.2, 1.0), bundled_table, 70, payoff, n, RngStream(12))
    assert len(calls) == 1
    s, y = calls[0]
    assert s.shape == y.shape == (n,)
    # years are drawn before the shocks, so the first n words give the years
    assert np.array_equal(y, sample_death_years(bundled_table, 70, n, RngStream(12)))
    assert mean == float(np.mean(y))


def test_randomized_horizon_needs_two_paths(bundled_table):
    with pytest.raises(ValueError):
        randomized_horizon_payoff(
            GbmParams(0.05, 0.2, 1.0), bundled_table, 70, lambda s, y: 1.0, 1, RngStream(0))
