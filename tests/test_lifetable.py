import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longevity.errors import DataError
from longevity.lifetable import (
    LifeTable,
    MortalityAssumptions,
    apply_assumptions,
    complete_expectation,
    death_distribution,
    lifetime_variance,
    load_table,
    sample_table,
    survival_probability,
)
from oracles import curtate_mean_from_rates


def test_table_rejects_missing_terminal_one():
    with pytest.raises(DataError, match="must have qx = 1"):
        LifeTable(70, [0.1, 0.2, 0.9])


def test_table_rejects_out_of_range_probability():
    with pytest.raises(DataError, match="age 71"):
        LifeTable(70, [0.1, 1.5, 1.0])


def test_omega_and_age_lookup(tiny_table):
    assert tiny_table.omega == 92
    assert tiny_table.qx[1] == 0.5
    with pytest.raises(ValueError, match="outside table range"):
        death_distribution(tiny_table, 93)


def test_survival_probability_hand_values(tiny_table):
    """Half survive each of the first two years, nobody survives the third."""
    assert survival_probability(tiny_table, 90, 0) == 1.0
    assert survival_probability(tiny_table, 90, 1) == 0.5
    assert survival_probability(tiny_table, 90, 2) == 0.25
    assert survival_probability(tiny_table, 90, 3) == 0.0
    with pytest.raises(ValueError):
        survival_probability(tiny_table, 90, 4)


def test_death_distribution_hand_values(tiny_table):
    np.testing.assert_allclose(death_distribution(tiny_table, 90), [0.5, 0.25, 0.25])
    np.testing.assert_allclose(death_distribution(tiny_table, 91), [0.5, 0.5])


def test_death_distribution_matches_survival_differences(bundled_table):
    x = 65
    dist = death_distribution(bundled_table, x)
    horizon = bundled_table.omega - x + 1
    diffs = [
        survival_probability(bundled_table, x, t) - survival_probability(bundled_table, x, t + 1)
        for t in range(horizon)
    ]
    np.testing.assert_allclose(dist, diffs, atol=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_complete_expectation_hand_value(tiny_table):
    # E[death year] = 1.75, complete expectation knocks off the half year
    assert complete_expectation(tiny_table, 90) == pytest.approx(1.25)


def test_complete_expectation_matches_direct_mean(bundled_table):
    """Survival-sum shortcut equals the direct mean-minus-half at every age."""
    for x in (50, 70, 95, 110):
        direct = curtate_mean_from_rates(bundled_table.qx, x - bundled_table.start_age)
        assert complete_expectation(bundled_table, x) == pytest.approx(direct - 0.5, rel=1e-12)


def test_bundled_table_calibration(bundled_table):
    assert bundled_table.start_age == 50
    assert bundled_table.omega == 115
    assert complete_expectation(bundled_table, 70) == pytest.approx(15.0, abs=0.01)


def test_variance_modes_differ_by_quarter(bundled_table):
    for x in (55, 70, 90):
        corrected = lifetime_variance(bundled_table, x)
        as_written = lifetime_variance(bundled_table, x, mode="as_written")
        assert corrected - as_written == pytest.approx(-0.25, abs=1e-12)
    with pytest.raises(ValueError):
        lifetime_variance(bundled_table, 70, mode="bogus")


def test_variance_hand_value(tiny_table):
    # Var(T) = 0.6875 for the half-half table; uniform part adds 1/12
    assert lifetime_variance(tiny_table, 90) == pytest.approx(0.6875 + 1.0 / 12.0)


def test_apply_assumptions_multiplier_and_improvement():
    base = LifeTable(60, [0.1, 0.2, 1.0])
    rated = apply_assumptions(base, MortalityAssumptions(multiplier=2.0))
    np.testing.assert_allclose(rated.qx, [0.2, 0.4, 1.0])
    improved = apply_assumptions(base, MortalityAssumptions(improvement=0.5))
    np.testing.assert_allclose(improved.qx, [0.1, 0.1, 1.0])


def test_apply_assumptions_clamps_and_keeps_terminal():
    base = LifeTable(60, [0.6, 0.2, 1.0])
    rated = apply_assumptions(base, MortalityAssumptions(multiplier=3.0))
    assert rated.qx[0] == 1.0
    assert rated.qx[-1] == 1.0
    with pytest.raises(ValueError):
        MortalityAssumptions(multiplier=-1.0)
    with pytest.raises(ValueError):
        MortalityAssumptions(improvement=1.0)


@settings(max_examples=200, deadline=None)
@given(
    qs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
    x_off=st.integers(min_value=0, max_value=29),
)
def test_death_distribution_is_a_distribution(qs, x_off):
    qs = qs + [1.0]
    table = LifeTable(40, qs)
    x = 40 + min(x_off, len(qs) - 1)
    dist = death_distribution(table, x)
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_load_table_happy_path(table_csv):
    path = table_csv([0.3, 0.5, 1.0])
    table = load_table(path)
    assert table.start_age == 90
    np.testing.assert_allclose(table.qx, [0.3, 0.5, 1.0])


def test_load_table_reports_offending_line(table_csv, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("age,qx\n90,0.3\n91,oops\n")
    with pytest.raises(DataError, match=r"bad\.csv:3"):
        load_table(bad)


def test_load_table_rejects_gap_in_ages(tmp_path):
    gap = tmp_path / "gap.csv"
    gap.write_text("age,qx\n90,0.3\n92,1.0\n")
    with pytest.raises(DataError, match="consecutive"):
        load_table(gap)


def test_load_table_rejects_missing_terminal(table_csv):
    with pytest.raises(DataError, match="qx = 1"):
        load_table(table_csv([0.3, 0.5, 0.9]))


def test_load_table_rejects_empty_and_bad_header(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("age,qx\n")
    with pytest.raises(DataError, match="no data rows"):
        load_table(empty)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("alter,qx\n90,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_table(wrong)


def test_sample_table_loads_cleanly():
    table = sample_table()
    assert table.qx[-1] == 1.0
