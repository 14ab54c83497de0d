"""Command-line front end: output contracts, exit codes, determinism."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longevity.cli import _linspace, run

from conftest import PURCHASE, BENEFITS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------- scalar output #


def test_price_lsv_at_time_zero_is_the_benefit(capsys):
    code, out, _ = invoke(capsys, "price-lsv", "--premium", "100",
                          "--benefit", "1000", "--rate", "0.05", "--t", "0")
    assert code == 0
    assert out == "lsv=1000\n"


def test_price_mortality_option_reports_the_exact_value(capsys):
    code, out, _ = invoke(capsys, "price-mortality-option", "--age", "70",
                          "--premium", "100", "--benefit", "1000", "--policy-rate", "0.05",
                          "--rate", "0.05", "--vole-sigma", "0.1", "--n", "2000",
                          "--seed", "9", "--grid", "50,50")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert list(values) == ["mc_value", "mc_std_error", "exact_value", "pde_value"]
    mc, se, exact = (float(values[k]) for k in ("mc_value", "mc_std_error", "exact_value"))
    assert abs(mc - exact) <= 4.0 * se


def test_irr_of_the_first_published_deal(capsys, tmp_path):
    path = tmp_path / "deal.csv"
    path.write_text(f"period,amount\n0,{PURCHASE}\n1,{BENEFITS[0]}\n")
    code, out, _ = invoke(capsys, "irr", "--cashflows", str(path))
    assert code == 0
    assert out == "irr=2.951170\n"


def test_irr_rejects_a_period_past_the_cap_naming_the_line(capsys, tmp_path):
    path = tmp_path / "far.csv"
    path.write_text("period,amount\n0,-100\n10001,200\n")
    code, out, err = invoke(capsys, "irr", "--cashflows", str(path))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and f"{path}:3: period must lie in" in err


def test_vole_direct_mode(capsys):
    code, out, _ = invoke(capsys, "vole", "--e-complete", "15", "--max-death", "30")
    assert code == 0
    assert out == "vole=0.5\n"


def test_duration_reports_both_sensitivities(capsys):
    code, out, _ = invoke(capsys, "duration", "--premium", "100",
                          "--benefit", "1000", "--rate", "0.05", "--t", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("le_duration=")
    assert lines[1].startswith("macaulay_duration=")


def test_simulate_summary_lines(capsys):
    code, out, _ = invoke(capsys, "simulate", "--age", "70", "--n", "200", "--seed", "42")
    assert code == 0
    keys = [line.split("=", 1)[0] for line in out.splitlines()]
    assert keys == ["n", "mode", "max_year", "mean"]
    assert out.startswith("n=200\n")


def test_price_option_value_format(capsys):
    code, out, _ = invoke(capsys, "price-option", "--kind", "call",
                          "--style", "european", "--strike", "100",
                          "--rate", "0.05", "--vol", "0.2", "--expiry", "1",
                          "--grid", "100,100")
    assert code == 0
    key, _, text = out.strip().partition("=")
    assert key == "value"
    assert len(text.split(".")[1]) == 6
    assert 9.0 < float(text) < 12.0


PUT_ARGS = ("price-option", "--kind", "put", "--style", "european",
            "--strike", "100", "--rate", "0.05", "--vol", "0.2", "--expiry", "1")


def test_price_option_fits_its_implicit_start_to_a_single_step(capsys):
    code, out, err = invoke(capsys, *PUT_ARGS, "--grid", "400,1")
    assert code == 0, err
    assert out.startswith("value=")


def test_price_option_has_no_rannacher_flag_exits_1(capsys):
    # the implicit start is fixed at min(4, steps), so the flag is unknown
    code, out, err = invoke(capsys, *PUT_ARGS, "--grid", "400,3", "--rannacher", "3")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --rannacher 3" in err


MORTALITY_OPTION_ARGS = ("price-mortality-option", "--age", "70", "--premium", "100",
                         "--benefit", "1000", "--policy-rate", "0.05", "--rate", "0.05",
                         "--vole-sigma", "0.1", "--n", "100", "--seed", "1")
PRICING_COMMANDS = pytest.mark.parametrize("command", [PUT_ARGS, MORTALITY_OPTION_ARGS],
                                           ids=["price-option", "price-mortality-option"])


@PRICING_COMMANDS
@pytest.mark.parametrize("grid", ["10,0", "10,-3", "1,10", "0,10"])
def test_grid_without_two_intervals_and_a_step_exits_2(capsys, command, grid):
    code, out, err = invoke(capsys, *command, "--grid", grid)
    assert code == 2
    assert out == ""
    assert err == "error: need at least 2 space intervals and 1 time step\n"


SIZE_CAP_CASES = {
    f"{grid}-{name}": ((*command, "--grid", grid),
                       f"grid sizes must be at most 100000, got {grid!r}")
    for grid in ("100001,10", "10,100001")
    for name, command in (("price-option", PUT_ARGS),
                          ("price-mortality-option", MORTALITY_OPTION_ARGS))
}
SIZE_CAP_CASES["fdm-demo"] = (("fdm-demo", "--scheme", "fitted", "--sigma", "0.01",
                               "--J", "100001"), "--J must lie in [2, 100000], got 100001")


@pytest.mark.parametrize("args, message", SIZE_CAP_CASES.values(), ids=SIZE_CAP_CASES.keys())
def test_grid_above_the_size_cap_exits_2(capsys, args, message):
    code, out, err = invoke(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# one above each cap; a size that passed would be allocated in full
COUNT_CAP_CASES = {
    "markov": (("markov", "--rate", "0.1", "--horizon", "30", "--points", "100001"),
               "--points must lie in [2, 100000], got 100001"),
    **{name: (args, "--n must be at most 10000000, got 10000001") for name, args in (
        ("simulate", ("simulate", "--age", "70", "--n", "10000001", "--seed", "1")),
        ("vole", ("vole", "--age", "70", "--n", "10000001", "--seed", "1")),
        ("alpha-profile", ("alpha-profile", "--ages", "60..70", "--n", "10000001",
                           "--seed", "1")),
        ("price-mortality-option", (*MORTALITY_OPTION_ARGS, "--n", "10000001")),
    )},
}


@pytest.mark.parametrize("args, message", COUNT_CAP_CASES.values(), ids=COUNT_CAP_CASES.keys())
def test_count_above_its_cap_exits_2(capsys, args, message):
    code, out, err = invoke(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_without_a_life_exits_2(capsys, n):
    code, out, err = invoke(capsys, "simulate", "--age", "70", "--n", n, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: n must be positive\n"


@pytest.mark.parametrize("ages, bad", [("0..100000000000000", 0),
                                       ("60..100000000000000", 100000000000000),
                                       ("60..120", 120)])
def test_alpha_profile_age_outside_the_table_exits_2_naming_it(capsys, ages, bad):
    # both endpoints are checked before the ages between them are listed
    code, out, err = invoke(capsys, "alpha-profile", "--ages", ages, "--n", "1000", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: age {bad} outside table range [50, 115]\n"


@pytest.mark.parametrize("flag, value, name", [
    ("--rate", "nan", "rate"),
    ("--vol", "inf", "vol"),
    ("--vol", "nan", "vol"),
    ("--strike", "inf", "strike"),
    ("--expiry", "nan", "expiry"),
    ("--smax", "inf", "s_max"),
])
def test_price_option_non_finite_input_exits_2_naming_it(capsys, flag, value, name):
    args = list(PUT_ARGS)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    code, out, err = invoke(capsys, *args, "--grid", "50,50")
    assert code == 2
    assert out == ""
    assert f"{name} must be finite" in err


@pytest.mark.parametrize("argv, name", [
    (("price-lsv", "--premium", "nan", "--benefit", "1000", "--rate", "0.05", "--t", "1"),
     "premium"),
    (("price-lsv", "--premium", "100", "--benefit", "inf", "--rate", "0.05", "--t", "1"),
     "benefit"),
    (("price-lsv", "--premium", "100", "--benefit", "1000", "--rate", "0.05", "--t", "inf"),
     "t"),
    (("critical-time", "--premium", "100", "--benefit", "1000", "--rate", "nan"), "rate"),
    (("duration", "--premium", "100", "--benefit", "1000", "--rate", "0.05", "--t", "nan"),
     "t"),
    (("markov", "--rate", "0.5", "--horizon", "nan"), "horizon"),
    (("simulate", "--age", "70", "--n", "100", "--seed", "1", "--multiplier", "inf"),
     "multiplier"),
    (("simulate", "--age", "70", "--n", "100", "--seed", "1", "--improvement", "nan"),
     "improvement"),
    (("price-mortality-option", "--age", "70", "--premium", "100", "--benefit", "1000",
      "--policy-rate", "0.05", "--rate", "nan", "--vole-sigma", "0.1", "--n", "100",
      "--seed", "1", "--grid", "20,20"), "rate"),
    (("vole", "--e-complete", "15", "--max-death", "inf"), "max_death"),
])
def test_non_finite_policy_or_model_input_exits_2_naming_it(capsys, argv, name):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{name} must be finite" in err


@pytest.mark.parametrize("scheme", ["centered", "upwind", "fitted"])
@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_fdm_demo_non_finite_sigma_exits_2(capsys, scheme, sigma):
    code, out, err = invoke(capsys, "fdm-demo", "--scheme", scheme,
                            "--sigma", sigma, "--J", "10")
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def _with(args, **flags):
    """``args`` with each ``--flag`` given in ``flags`` set to its new value."""
    args = list(args)
    for name, value in flags.items():
        args[args.index(f"--{name}") + 1] = value
    return args


@pytest.mark.parametrize("vol", ["1e200"])
def test_price_option_huge_volatility_is_a_one_line_error(capsys, vol):
    # the clock overflows, so the implicit step 2 k m is not finite
    code, out, err = invoke(capsys, *_with(PUT_ARGS, vol=vol), "--grid", "50,50")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2 k m must be finite" in err


@pytest.mark.parametrize("strike", ["100", "0.001"])
def test_price_option_huge_volatility_with_a_finite_clock_step_prices(capsys, strike):
    # vol 1e152 gives 2 k m = 2e302 on 50 steps: the march's rows are
    # finite at every strike; both values are 0.7134 of the strike
    code, out, err = invoke(capsys, *_with(PUT_ARGS, vol="1e152", strike=strike),
                            "--grid", "50,50")
    assert (code, err) == (0, "")
    assert out == {"100": "value=71.342207\n", "0.001": "value=0.000713\n"}[strike]


@pytest.mark.parametrize("argv, name", [
    (("price-mortality-option", "--age", "70", "--premium", "100", "--benefit", "1000",
      "--policy-rate", "0.05", "--rate=-20", "--vole-sigma", "0.1", "--n", "100",
      "--seed", "1", "--grid", "20,20"), "rate"),
    (PUT_ARGS[:7] + ("--rate=-1e300", "--vol", "0.2", "--expiry", "1", "--grid", "20,20"),
     "rate"),
    (("price-lsv", "--premium", "1e308", "--benefit", "1e308", "--rate", "1e-10", "--t", "5"),
     "benefit"),
    (("duration", "--premium", "1e308", "--benefit", "1e308", "--rate", "1e-10", "--t", "5"),
     "benefit"),
    (("critical-time", "--premium", "1e308", "--benefit", "1e308", "--rate", "1e-10"),
     "benefit"),
])
def test_overflowing_input_exits_2_with_one_line_naming_it(capsys, argv, name):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


def test_price_option_huge_strike_prices_without_an_overflow_warning(capsys):
    # the state's squares overflow at every level, and the value per unit
    # strike is the one at strike 100
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, *_with(PUT_ARGS, strike="1e300"), "--grid", "20,20")
        _, small, _ = invoke(capsys, *PUT_ARGS, "--grid", "20,20")
    assert (code, err) == (0, "")
    assert [str(w.message) for w in caught] == []
    value = float(out.removeprefix("value="))
    per_unit = float(small.removeprefix("value=")) / 100.0
    assert value / 1e300 == pytest.approx(per_unit, rel=1e-7)


# ------------------------------------------------------ fuzzed inputs #

# three periods of premium and benefit 1e308: from period 2 on, the
# discounted premium leg sums past the float range
HUGE_SCHEDULE_CSV = "period,premium,benefit\n1,1e308,1e308\n2,1e308,1e308\n3,1e308,1e308\n"


# float flag values: non-finite, extreme, subnormal, zero, negative, ordinary
WILD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1",
                        "0.05", "0.3", "1", "15", "100", "1000"])
POLICY = ("--premium", "--benefit", "--rate")
# death probabilities: zero, subnormal, tiny, ordinary, just short of 1, and 1
QX = st.sampled_from(["0", "5e-324", "1e-320", "1e-16", "0.01", "0.3", "0.5", repr(1 - 1e-12), "1"])


def _cmd(*parts):
    """argv from fixed words (``str``) and strategies of word lists, in order."""
    return st.tuples(*[st.just([p]) if isinstance(p, str) else p for p in parts]).map(
        lambda lists: [word for words in lists for word in words])


def _wild(*names):
    return [WILD.map(lambda v, n=n: [f"{n}={v}"]) for n in names]


def _one_of(name, options):
    return st.sampled_from(options).map(lambda v: [f"{name}={v}"])


def _fuzz_argv(tmp):
    """Every subcommand, float flags wild, sizes small; pricing grids include 0 and -1."""
    def write(name, text):
        path = tmp / name
        path.write_text(text)
        return str(path)

    samples = st.lists(WILD, min_size=1, max_size=12).map(
        lambda vs: [write("samples.txt", "\n".join(vs) + "\n")])
    flows = st.lists(WILD, min_size=2, max_size=6).map(
        lambda vs: ["--cashflows=" + write("flows.csv", "period,amount\n" + "".join(
            f"{k},{v}\n" for k, v in enumerate(vs)))])
    schedule = st.lists(st.tuples(WILD, WILD), min_size=1, max_size=5).map(
        lambda rows: ["--schedule=" + write("schedule.csv", "period,premium,benefit\n" + "".join(
            f"{k},{p},{b}\n" for k, (p, b) in enumerate(rows, start=1)))])
    # 1-6 rows from age 65..70, most of them ending at qx = 1 as a table must
    table = st.tuples(st.integers(65, 70), st.lists(QX, max_size=5),
                      st.one_of(st.just("1"), QX)).map(
        lambda t: ["--table=" + write("table.csv", "age,qx\n" + "".join(
            f"{t[0] + k},{q}\n" for k, q in enumerate(t[1] + [t[2]])))])
    maybe = lambda name: st.one_of(st.just([]), *_wild(name))
    # half the sizes at the edge of the smallest grid, -1..2
    size = st.one_of(st.integers(-1, 2), st.integers(3, 30))
    grid = st.tuples(size, size).map(lambda jn: ["--grid={},{}".format(*jn)])
    return st.one_of(
        _cmd("simulate", "--age=70", "--n=50", "--seed=1",
             *_wild("--multiplier", "--improvement")),
        _cmd("vole", *_wild("--e-complete", "--max-death")),
        _cmd("vole", "--age=70", "--n=50", "--seed=1"),
        _cmd("markov", "--points=5", *_wild("--rate", "--horizon")),
        _cmd("fit-stable", samples),
        _cmd("alpha-profile", "--ages=90..95", "--n=50", "--seed=1"),
        _cmd("price-lsv", *_wild(*POLICY, "--t")),
        _cmd("price-lsv", schedule, *_wild("--rate", "--t")),
        _cmd("duration", *_wild(*POLICY, "--t")),
        _cmd("critical-time", *_wild(*POLICY)),
        _cmd("irr", flows),
        _cmd("price-option", grid, _one_of("--kind", ["put", "call"]),
             _one_of("--style", ["european", "american"]),
             *_wild("--strike", "--rate", "--vol", "--expiry"), maybe("--spot"), maybe("--smax")),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", grid,
             *_wild("--premium", "--benefit", "--policy-rate", "--rate", "--vole-sigma")),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", grid, "--premium=100",
             "--benefit=1000", "--policy-rate=0.05", "--rate=0.05",
             _one_of("--vole-sigma", ["0", "0.1"])),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", grid, schedule,
             *_wild("--policy-rate", "--rate", "--vole-sigma")),
        _cmd("simulate", "--age=70", "--n=50", "--seed=1", table,
             *_wild("--multiplier", "--improvement")),
        _cmd("vole", "--age=70", "--n=50", "--seed=1", table),
        _cmd("alpha-profile", "--ages=68..70", "--n=50", "--seed=1", table),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", grid, table,
             "--premium=100", "--benefit=1000", "--policy-rate=0.05", "--rate=0.05",
             _one_of("--vole-sigma", ["0", "0.1"])),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", grid, table, schedule,
             *_wild("--policy-rate", "--rate", "--vole-sigma")),
        _cmd("fdm-demo", "--J=10", _one_of("--scheme", ["centered", "upwind", "fitted"]),
             *_wild("--sigma")),
    )


NON_FINITE_TOKEN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
# the one stderr line a successful run may print: the centered demo scheme
# announcing its documented oscillation
OSCILLATION_NOTICE = re.compile(r"warning: centered scheme is oscillatory [^\n]*\n")


def test_every_subcommand_exits_cleanly_on_wild_float_flags(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    huge_flows = tmp / "huge_flows.csv"
    huge_flows.write_text("period,amount\n0,-1e308\n1,1e308\n2,1e308\n")
    huge_schedule = tmp / "huge_schedule.csv"
    huge_schedule.write_text(HUGE_SCHEDULE_CSV)

    @settings(max_examples=400, deadline=None)
    @given(argv=_fuzz_argv(tmp))
    # overflows the random search can miss: the discount factor, the
    # option boundary, and a settlement value's p/r + b
    @example(argv=["price-mortality-option", "--age=70", "--n=50", "--seed=1", "--grid=20,20",
                   "--premium=100", "--benefit=1000", "--policy-rate=0.05", "--rate=-1e308",
                   "--vole-sigma=0.3"])
    @example(argv=["price-option", "--grid=20,20", "--kind=put", "--style=european",
                   "--strike=100", "--rate=-1e300", "--vol=0.2", "--expiry=1"])
    # a grid without a time step once divided by zero in the march
    @example(argv=["price-mortality-option", "--age=70", "--n=50", "--seed=1", "--grid=10,0",
                   "--premium=100", "--benefit=1000", "--policy-rate=0.05", "--rate=0.05",
                   "--vole-sigma=0.1"])
    @example(argv=["price-lsv", "--premium=1e308", "--benefit=1e308", "--rate=1e-10", "--t=5"])
    @example(argv=["duration", "--premium=1e308", "--benefit=1e308", "--rate=1e-10", "--t=5"])
    # a schedule whose premium leg sums past the float range once printed -inf
    @example(argv=["price-lsv", f"--schedule={huge_schedule}", "--rate=0.05", "--t=3"])
    # overflows that once printed a numpy warning ahead of a clean result:
    # the NPV polynomial, the layer exponent, and the default grid boundary
    @example(argv=["irr", f"--cashflows={huge_flows}"])
    @example(argv=["fdm-demo", "--J=10", "--scheme=fitted", "--sigma=1e-320"])
    # a layer so wide that exp(-2/sigma) rounds to 1: the reference solution
    # once cancelled to 0 and then to NaN
    @example(argv=["fdm-demo", "--J=2", "--scheme=upwind", "--sigma=2e16"])
    @example(argv=["fdm-demo", "--J=2", "--scheme=upwind", "--sigma=1e17"])
    @example(argv=["fdm-demo", "--J=3", "--scheme=fitted", "--sigma=1e300"])
    @example(argv=["price-option", "--grid=20,20", "--kind=put", "--style=european",
                   "--strike=1e308", "--rate=0.05", "--vol=0.2", "--expiry=1"])
    # mesh spacings below the smallest normal float, one of them zero, a
    # huge strike whose states' squares overflow, and a system of one
    # interior row
    @example(argv=["price-option", "--grid=2,1", "--kind=put", "--style=european",
                   "--strike=1e-320", "--rate=1e308", "--vol=0.05", "--expiry=0.05"])
    @example(argv=["price-option", "--grid=50,50", "--kind=put", "--style=american",
                   "--strike=5e-324", "--rate=0.05", "--vol=0.2", "--expiry=1"])
    @example(argv=["price-option", "--grid=50,50", "--kind=call", "--style=european",
                   "--strike=1e-323", "--rate=0.05", "--vol=0.2", "--expiry=1"])
    @example(argv=["price-option", "--grid=20,20", "--kind=put", "--style=american",
                   "--strike=1e300", "--rate=0.05", "--vol=0.2", "--expiry=1"])
    @example(argv=["price-option", "--grid=2,1", "--kind=call", "--style=american",
                   "--strike=100", "--rate=0.05", "--vol=0.3", "--expiry=1"])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert [str(w.message) for w in caught] == [], argv
        if code == 0:
            assert not NON_FINITE_TOKEN.search(out.getvalue()), (argv, out.getvalue())
            notice = argv[0] == "fdm-demo" and "--scheme=centered" in argv
            assert err.getvalue() == "" or (
                notice and OSCILLATION_NOTICE.fullmatch(err.getvalue())), (argv, err.getvalue())
        if argv[0] == "irr" and NON_FINITE_TOKEN.search(
                Path(argv[1].partition("=")[2]).read_text()):
            assert code == 2, argv
        if code in (2, 3):
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
                (argv, err.getvalue())

    check()


# ---------------------------------------------------------- csv output #


def test_markov_curve_is_crlf_csv(capsys):
    code, out, _ = invoke(capsys, "markov", "--rate", "0.5",
                          "--horizon", "2", "--points", "3")
    assert code == 0
    assert out == ("t,survival\r\n"
                   "0,1\r\n"
                   "1,0.6065306597\r\n"
                   "2,0.3678794412\r\n")


def test_simulate_csv_histogram(capsys):
    code, out, _ = invoke(capsys, "simulate", "--age", "70", "--n", "500",
                          "--seed", "9", "--csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "year,count"
    years = [int(line.split(",")[0]) for line in lines[1:] if line]
    counts = [int(line.split(",")[1]) for line in lines[1:] if line]
    assert years == sorted(years)
    assert sum(counts) == 500


def test_fdm_demo_tabulates_error_and_warns_on_oscillation(capsys):
    code, out, err = invoke(capsys, "fdm-demo", "--scheme", "centered",
                            "--sigma", "1e-6", "--J", "11")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "x,numeric,exact,error"
    assert len([line for line in lines[1:] if line]) == 12
    assert "oscillatory" in err


def test_fdm_demo_fitted_has_no_warning(capsys):
    code, out, err = invoke(capsys, "fdm-demo", "--scheme", "fitted",
                            "--sigma", "1e-6", "--J", "11")
    assert code == 0
    assert err == ""
    # the fitted scheme stays bounded where the centered one oscillates
    errors = [abs(float(line.split(",")[3]))
              for line in out.split("\r\n")[1:] if line]
    assert max(errors) < 0.5


def test_alpha_profile_csv(capsys):
    code, out, _ = invoke(capsys, "alpha-profile", "--ages", "90..95",
                          "--step", "5", "--n", "1000", "--seed", "3")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "age,alpha_hat"
    ages = [int(line.split(",")[0]) for line in lines[1:] if line]
    assert ages == [90, 95]


def test_fit_stable_reads_stdin(capsys, monkeypatch):
    rng = np.random.Generator(np.random.PCG64(7))
    text = "\n".join(f"{v:.17g}" for v in rng.standard_normal(2000)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = invoke(capsys, "fit-stable")
    assert code == 0
    key, _, value = out.strip().partition("=")
    assert key == "alpha_hat"
    assert 1.9 <= float(value) <= 2.0


# ---------------------------------------------------- files and errors #


def test_out_flag_writes_the_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "result.txt"
    code, out, _ = invoke(capsys, "price-lsv", "--premium", "100",
                          "--benefit", "1000", "--rate", "0.05", "--t", "0",
                          "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "lsv=1000\n"


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 1
    code, _, _ = invoke(capsys)
    assert code == 1


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0
    assert invoke(capsys, "simulate", "--help")[0] == 0


def test_bad_table_contents_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("age,wrong\n70,0.1\n")
    code, _, err = invoke(capsys, "simulate", "--table", str(path),
                          "--age", "70", "--n", "10", "--seed", "1")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("price-lsv", "--rate", "0.05", "--t", "1"),
    ("price-mortality-option", "--policy-rate", "0.05", "--age", "70", "--rate", "0.05",
     "--vole-sigma", "0.1", "--n", "100", "--seed", "1", "--grid", "20,20"),
])
def test_schedule_with_level_policy_flags_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "sched.csv"
    path.write_text("period,premium,benefit\n1,100,1000\n2,100,1000\n")
    code, out, err = invoke(capsys, *argv, "--schedule", str(path),
                            "--premium", "5", "--benefit", "7")
    assert code == 2
    assert out == ""
    assert err == "error: --schedule replaces --premium/--benefit\n"


def test_schedule_value_past_the_float_range_exits_3(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(HUGE_SCHEDULE_CSV)
    lsv = ("price-lsv", "--schedule", str(path), "--rate", "0.05")
    assert invoke(capsys, *lsv, "--t", "1") == (0, "lsv=0\n", "")
    for t in ("2", "3"):
        assert invoke(capsys, *lsv, "--t", t) == (
            3, "", f"error: settlement value at t={t} overflowed the float range\n")
    # the mortality option floors every year's payoff at zero, as it should
    code, out, err = invoke(capsys, "price-mortality-option", "--schedule", str(path),
                            "--policy-rate", "0.05", "--age", "70", "--rate", "0.05",
                            "--vole-sigma", "0.1", "--n", "100", "--seed", "1", "--grid", "20,20")
    assert (code, err) == (0, "")
    assert out == "mc_value=0.000000\nmc_std_error=0.000000\nexact_value=0.000000\npde_value=0.000000\n"


def test_missing_table_file_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "simulate", "--table", str(tmp_path / "nope.csv"),
                          "--age", "70", "--n", "10", "--seed", "1")
    assert code == 2


def test_domain_violation_exits_2(capsys):
    code, _, err = invoke(capsys, "markov", "--rate", "0.5",
                          "--horizon", "-1", "--points", "3")
    assert code == 2
    assert "horizon" in err


def test_vole_mode_conflict_exits_2(capsys):
    code, _, err = invoke(capsys, "vole", "--e-complete", "15",
                          "--max-death", "30", "--age", "70")
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("flags", [("--n", "5"), ("--seed", "3"), ("--n", "5", "--seed", "3")],
                         ids=["n", "seed", "both"])
def test_vole_direct_mode_rejects_pipeline_sizes(capsys, flags):
    # --n and --seed only size and seed the pipeline's simulation; direct
    # mode would ignore them
    code, out, err = invoke(capsys, "vole", "--e-complete", "15", "--max-death", "30", *flags)
    assert code == 2
    assert out == ""
    assert "not both" in err


def test_fit_stable_bad_sample_exits_2(capsys, tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("1.0\n2.0\nabc\n")
    code, _, err = invoke(capsys, "fit-stable", str(path))
    assert code == 2
    assert ":3: not a number" in err


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_fit_stable_non_finite_sample_names_its_line(capsys, monkeypatch, tmp_path,
                                                     source, token):
    text = "1.0\n\n2.0\n" + token + "\n3.0\n"
    if source == "file":
        path = tmp_path / "samples.txt"
        path.write_text(text)
        argv, where = [str(path)], str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv, where = [], "<stdin>"
    code, out, err = invoke(capsys, "fit-stable", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {where}:4: sample {token!r} is not a finite number\n"


def test_price_mortality_option_step_matrix_overflow_exits_2(capsys):
    # at rate 4e306 the fitted rows overflow, and so does the first
    # right-hand side; the march factors its step matrices before it
    # steps, so the rows are reported as a bad argument, not a blow-up
    argv = list(MORTALITY_OPTION_ARGS)
    argv[argv.index("--rate") + 1] = "4e306"
    argv[argv.index("--vole-sigma") + 1] = "0.9"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, *argv, "--grid", "2,1")
    assert code == 2
    assert out == ""
    assert err == "error: tridiagonal coefficients must be finite\n"


def test_numerical_failure_exits_3(capsys, tmp_path):
    # signs alternate so the series is admissible, but the NPV polynomial
    # has negative discriminant: no real rate zeroes it
    path = tmp_path / "flows.csv"
    path.write_text("period,amount\n0,-100\n1,100\n2,-100\n")
    code, _, err = invoke(capsys, "irr", "--cashflows", str(path))
    assert code == 3
    assert "error:" in err


# -------------------------------------------------------- determinism #


def blas_env(threads=None):
    """This process's environment with OPENBLAS_NUM_THREADS set to ``threads``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def run_module(*argv, blas_threads=None):
    return subprocess.run([sys.executable, "-m", "longevity", *argv],
                          capture_output=True, timeout=120, env=blas_env(blas_threads))


# stdout of seeded commands, captured before death years were drawn by
# guide-table lookup; any change to the stream or the sampler shows here
GOLDEN_STDOUT = {
    ("simulate", "--age", "70", "--n", "2000", "--seed", "7", "--csv"): (
        b"year,count\r\n1,33\r\n2,43\r\n3,39\r\n4,51\r\n5,42\r\n6,32\r\n7,48\r\n"
        b"8,52\r\n9,55\r\n10,53\r\n11,52\r\n12,67\r\n13,78\r\n14,79\r\n15,82\r\n"
        b"16,97\r\n17,136\r\n18,153\r\n19,211\r\n20,208\r\n21,190\r\n22,96\r\n"
        b"23,45\r\n24,31\r\n25,11\r\n26,8\r\n27,5\r\n28,2\r\n29,1\r\n"
    ),
    ("alpha-profile", "--ages", "60..95", "--step", "5", "--n", "20000", "--seed", "3"): (
        b"age,alpha_hat\r\n60,2.000000\r\n65,2.000000\r\n70,2.000000\r\n"
        b"75,2.000000\r\n80,2.000000\r\n85,2.000000\r\n90,1.674996\r\n"
        b"95,1.631860\r\n"
    ),
    ("price-mortality-option", "--age", "70", "--premium", "100", "--benefit", "1000",
     "--policy-rate", "0.05", "--rate", "0.05", "--vole-sigma", "0.1", "--n", "50000",
     "--seed", "9", "--grid", "50,50"): (
        b"mc_value=51.509364\nmc_std_error=0.694740\nexact_value=52.245218\n"
        b"pde_value=0.105552\n"
    ),
    # large n at an old age: many draws fall in buckets that hold a CDF step
    ("price-mortality-option", "--age", "85", "--premium", "60", "--benefit", "1000",
     "--policy-rate", "0.05", "--rate", "0.04", "--vole-sigma", "0.2", "--n", "200000",
     "--seed", "4", "--grid", "20,20"): (
        b"mc_value=491.056104\nmc_std_error=0.431792\nexact_value=491.087490\n"
        b"pde_value=605.434866\n"
    ),
    ("price-option", "--kind", "put", "--style", "american", "--strike", "100", "--rate",
     "0.05", "--vol", "0.25", "--expiry", "1", "--grid", "400,400"): b"value=7.971270\n",
    ("price-option", "--kind", "call", "--style", "european", "--strike", "90", "--rate",
     "0.03", "--vol", "0.3", "--expiry", "2", "--grid", "800,800"): b"value=17.444289\n",
    ("price-option", "--kind", "call", "--style", "american", "--strike", "80", "--rate",
     "0.04", "--vol", "0.3", "--expiry", "0.5", "--grid", "100,100"): b"value=7.513091\n",
    ("fdm-demo", "--scheme", "fitted", "--sigma", "0.01", "--J", "40"): (
        b"x,numeric,exact,error\r\n0,1,1,0\r\n0.025,0.006737946999,0.006737946999,0\r\n"
        b"0.05,4.539992976e-05,4.539992976e-05,0\r\n"
        b"0.075,3.059023205e-07,3.059023205e-07,5.823351512e-22\r\n"
        b"0.1,2.061153622e-09,2.061153622e-09,0\r\n"
        b"0.125,1.388794386e-11,1.388794386e-11,0\r\n"
        b"0.15,9.357622969e-14,9.357622969e-14,3.281661366e-28\r\n"
        b"0.175,6.30511676e-16,6.30511676e-16,-9.860761315e-32\r\n"
        b"0.2,4.248354255e-18,4.248354255e-18,-7.703719778e-34\r\n"
        b"0.225,2.862518581e-20,2.862518581e-20,-1.203706215e-35\r\n"
        b"0.25,1.928749848e-22,1.928749848e-22,-7.052966105e-38\r\n"
        b"0.275,1.299581425e-24,1.299581425e-24,-5.510129769e-40\r\n"
        b"0.3,8.756510763e-27,8.756510763e-27,5.883211473e-41\r\n"
        b"0.325,5.900090542e-29,5.900090542e-29,-2.242077543e-44\r\n"
        b"0.35,3.975449736e-31,3.975449736e-31,-1.75162308e-46\r\n"
        b"0.375,2.678636962e-33,2.678636962e-33,-1.026341649e-48\r\n"
        b"0.4,1.804851388e-35,1.804851388e-35,-8.01829413e-51\r\n"
        b"0.425,1.216099299e-37,1.216099299e-37,1.670477944e-51\r\n"
        b"0.45,8.194012624e-40,8.194012624e-40,-3.262652234e-55\r\n"
        b"0.475,5.521082277e-42,5.521082277e-42,-1.911710293e-57\r\n"
        b"0.5,3.720075976e-44,3.720075976e-44,-1.493523667e-59\r\n"
        b"0.525,2.506567476e-46,2.506567476e-46,-7.778769097e-62\r\n"
        b"0.55,1.68891188e-48,1.68891188e-48,-9.115745036e-64\r\n"
        b"0.575,1.137979874e-50,1.137979874e-50,1.566768678e-64\r\n"
        b"0.6,7.667648074e-53,7.667648074e-53,1.057123753e-66\r\n"
        b"0.625,5.166420633e-55,5.166420633e-55,-2.897817305e-70\r\n"
        b"0.65,3.48110684e-57,3.48110684e-57,-2.26391977e-72\r\n"
        b"0.675,2.345551339e-59,2.345551339e-59,-1.76868732e-74\r\n"
        b"0.7,1.58042006e-61,1.58042006e-61,-1.036340227e-76\r\n"
        b"0.725,1.06487866e-63,1.06487866e-63,2.941694914e-77\r\n"
        b"0.75,7.175095973e-66,7.175095973e-66,-6.325318766e-81\r\n"
        b"0.775,4.834541638e-68,4.834541638e-68,-3.294436857e-83\r\n"
        b"0.8,3.257488532e-70,3.257488532e-70,-2.573778795e-85\r\n"
        b"0.825,2.194878508e-72,2.194878508e-72,-2.010764683e-87\r\n"
        b"0.85,1.478897506e-74,1.478897506e-74,4.064729389e-88\r\n"
        b"0.875,9.96473301e-77,9.96473301e-77,-9.204550247e-92\r\n"
        b"0.9,6.714184274e-79,6.714184274e-79,-7.191054881e-94\r\n"
        b"0.925,4.523980404e-81,4.523980404e-81,-4.681676355e-96\r\n"
        b"0.95,3.048096561e-83,3.048096561e-83,-4.023315617e-98\r\n"
        b"0.975,2.040045589e-85,2.040045589e-85,-2.57172163e-100\r\n1,0,0,0\r\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=lambda argv: argv[0])
def test_seeded_stdout_matches_the_recorded_bytes(argv):
    # with the variable unset the CLI runs one BLAS thread; a preset count
    # starts more, and no printed byte may depend on it
    for threads in (None, "2"):
        done = run_module(*argv, blas_threads=threads)
        assert done.returncode == 0, done.stderr
        assert done.stdout == GOLDEN_STDOUT[argv], threads


# a schedule with uneven premiums, a premium holiday and rising benefits
SCHEDULE_CSV = ("period,premium,benefit\n1,100.25,1000\n2,103.5,1000\n3,106.75,1012.5\n"
                "4,110,1025\n5,0,1037.5\n6,113.3,1050\n7,116.7,1062.25\n8,120.1,1075\n")

# stdout of schedule commands, captured while schedules were numpy arrays
SCHEDULE_STDOUT = {
    ("price-lsv", "--rate", "0.045", "--t", "1"): b"lsv=861.0047847\n",
    ("price-lsv", "--rate", "0.045", "--t", "3"): b"lsv=602.9945848\n",
    ("price-lsv", "--rate", "0.045", "--t", "5"): b"lsv=456.0454862\n",
    ("price-lsv", "--rate", "0.045", "--t", "8"): b"lsv=122.216935\n",
    ("price-mortality-option", "--policy-rate", "0.045", "--age", "75", "--rate", "0.05",
     "--vole-sigma", "0.2", "--n", "3000", "--seed", "11", "--grid", "60,60"): (
        b"mc_value=137.404958\nmc_std_error=3.197048\nexact_value=139.056862\n"
        b"pde_value=133.043724\n"),
}


@pytest.mark.parametrize("argv", list(SCHEDULE_STDOUT),
                         ids=lambda argv: argv[0] + "-".join(argv[3:5]))
def test_schedule_stdout_matches_the_recorded_bytes(tmp_path, argv):
    path = tmp_path / "sched.csv"
    path.write_text(SCHEDULE_CSV)
    done = run_module(*argv, "--schedule", str(path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == SCHEDULE_STDOUT[argv]


def test_seeded_run_is_byte_identical_across_processes():
    argv = ("simulate", "--age", "70", "--n", "2000", "--seed", "7", "--csv")
    first = run_module(*argv)
    second = run_module(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"year,count\r\n")


def test_importing_the_cli_leaves_scipy_optimize_unloaded(tmp_path):
    # no scipy module at all: only a tridiagonal solve loads it (see the
    # next test); no numpy until a command works on arrays; and no
    # dataclasses, nor the inspect module it pulls in, on any command path
    flows = tmp_path / "flows.csv"
    flows.write_text("period,amount\n0,-100\n1,-10\n2,130\n")
    schedule = tmp_path / "sched.csv"
    schedule.write_text(SCHEDULE_CSV)
    samples = tmp_path / "samples.txt"
    samples.write_text("".join(f"{math.tan(math.pi * (k + 0.5) / 401 - math.pi / 2)!r}\n"
                               for k in range(401)))
    policy = ["--premium", "100", "--benefit", "1000", "--rate", "0.05"]
    commands = [
        (["price-lsv", *policy, "--t", "8"], 0),
        (["price-lsv", "--schedule", str(schedule), "--rate", "0.05", "--t", "8"], 0),
        (["duration", *policy, "--t", "8"], 0),
        (["critical-time", *policy], 0),
        (["irr", "--cashflows", str(flows)], 0),
        (["markov", "--rate", "0.1", "--horizon", "30", "--points", "7"], 0),
        (["fit-stable", str(samples)], 0),
        (["price-lsv", "--premium=-5", "--benefit", "1000", "--rate", "0.05", "--t", "8"], 2),
        (["simulate", "--age", "70", "--n", "0", "--seed", "1"], 2),
        (["simulate", "--age", "70", "--n", "10", "--seed", "1"], 0),
    ]
    probe = "\n".join([
        "import contextlib, io, sys",
        "def heavy():",
        "    heavy = {'numpy', 'scipy', 'dataclasses', 'inspect'}",
        "    return sorted({m.split('.')[0] for m in sys.modules} & heavy)",
        "import longevity",
        "print('longevity', heavy())",
        "import longevity.cli",
        "print('cli', heavy())",
        f"for argv in {[argv for argv, _ in commands]!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        code = longevity.cli.run(argv)",
        "    print(argv[0], code, heavy())",
    ])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the last command is the control: it needs numpy, so the probe can see it
    want = ["longevity []", "cli []"] + [f"{argv[0]} {code} []" for argv, code in commands[:-1]]
    want.append("simulate 0 ['inspect', 'numpy']")  # numpy imports inspect
    assert done.stdout.decode().splitlines() == want


@pytest.mark.parametrize("argv, loaded", [
    (["simulate", "--age", "70", "--n", "10", "--seed", "1"], []),
    (["price-option", "--kind", "call", "--style", "american", "--strike", "80", "--rate",
      "0.04", "--vol", "0.3", "--expiry", "0.5", "--grid", "100,100"],
     ["scipy.linalg._flapack"]),
    (["fdm-demo", "--scheme", "fitted", "--sigma", "0.01", "--J", "40"],
     ["scipy.linalg._flapack"]),
], ids=["simulate", "price-option", "fdm-demo"])
def test_array_commands_load_only_the_lapack_wrappers_of_scipy(argv, loaded):
    # a tridiagonal solve loads scipy's LAPACK extension and nothing else of
    # scipy: neither the bare package's init nor scipy.linalg with its
    # array-API layer
    probe = "\n".join([
        "import contextlib, io, sys",
        "import longevity.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    code = longevity.cli.run({argv!r})",
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),",
        "      'scipy' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [f"0 {loaded} False"]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_main_runs_one_blas_thread_unless_the_environment_sets_a_count(preset, seen):
    # main sets the count before any command loads numpy, which reads it then
    probe = "\n".join([
        "import os, sys",
        "import longevity.cli",
        "def run(argv):",
        "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules, argv)",
        "    return 0",
        "longevity.cli.run = run",
        "sys.argv = ['longevity', 'price-option']",
        "longevity.cli.main()",
    ])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120,
                          env=blas_env(preset))
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [f"{seen} False ['price-option']"]


# names the benchmark's tracer wraps on ``longevity.cli``
CLI_WRAPPED_NAMES = ("load_table", "apply_assumptions", "lsv", "lsv_schedule", "irr",
                     "estimate_alpha", "price_european", "price_american",
                     "price_mortality_option")


def test_package_exports_stay_readable_on_the_cli_module():
    import longevity
    import longevity.cli as cli

    for name in CLI_WRAPPED_NAMES:
        assert getattr(cli, name) is getattr(longevity, name)
    assert not hasattr(cli, "no_such_name")


@settings(max_examples=300, deadline=None)
@given(stop=st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True),
       num=st.integers(min_value=2, max_value=300))
@example(stop=1e-322, num=101)  # the step underflows to zero
def test_markov_grid_matches_numpy_linspace_bit_for_bit(stop, num):
    assert _linspace(stop, num) == np.linspace(0.0, stop, num).tolist()
