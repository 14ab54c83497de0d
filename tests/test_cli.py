"""Command-line front end: output contracts, exit codes, determinism."""

import contextlib
import io
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longevity.cli import run

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


def test_price_option_default_rannacher_fits_a_single_step(capsys):
    code, out, err = invoke(capsys, *PUT_ARGS, "--grid", "400,1")
    assert code == 0, err
    assert out.startswith("value=")


def test_price_option_explicit_rannacher_beyond_the_steps_exits_2(capsys):
    code, out, err = invoke(capsys, *PUT_ARGS, "--grid", "400,2", "--rannacher", "3")
    assert code == 2
    assert out == ""
    assert "rannacher" in err


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


def test_price_option_huge_volatility_is_a_one_line_error(capsys):
    args = list(PUT_ARGS)
    args[args.index("--vol") + 1] = "1e200"
    code, out, err = invoke(capsys, *args, "--grid", "50,50")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_price_option_huge_strike_fails_without_an_overflow_warning(capsys):
    args = list(PUT_ARGS)
    args[args.index("--strike") + 1] = "1e300"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, *args, "--grid", "20,20")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------------ fuzzed inputs #

# float flag values: non-finite, extreme, subnormal, zero, negative, ordinary
WILD = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1",
                        "0.05", "0.3", "1", "15", "100", "1000"])
POLICY = ("--premium", "--benefit", "--rate")


def _cmd(*parts):
    """argv from fixed words (``str``) and strategies of word lists, in order."""
    return st.tuples(*[st.just([p]) if isinstance(p, str) else p for p in parts]).map(
        lambda lists: [word for words in lists for word in words])


def _wild(*names):
    return [WILD.map(lambda v, n=n: [f"{n}={v}"]) for n in names]


def _one_of(name, options):
    return st.sampled_from(options).map(lambda v: [f"{name}={v}"])


def _fuzz_argv(tmp):
    """Every subcommand, float flags wild, sizes fixed and small."""
    def write(name, text):
        path = tmp / name
        path.write_text(text)
        return str(path)

    samples = st.lists(WILD, min_size=1, max_size=12).map(
        lambda vs: [write("samples.txt", "\n".join(vs) + "\n")])
    flows = st.lists(WILD, min_size=2, max_size=6).map(
        lambda vs: ["--cashflows=" + write("flows.csv", "period,amount\n" + "".join(
            f"{k},{v}\n" for k, v in enumerate(vs)))])
    maybe = lambda name: st.one_of(st.just([]), *_wild(name))
    return st.one_of(
        _cmd("simulate", "--age=70", "--n=50", "--seed=1",
             *_wild("--multiplier", "--improvement")),
        _cmd("vole", *_wild("--e-complete", "--max-death")),
        _cmd("vole", "--age=70", "--n=50", "--seed=1"),
        _cmd("markov", "--points=5", *_wild("--rate", "--horizon")),
        _cmd("fit-stable", samples),
        _cmd("alpha-profile", "--ages=90..95", "--n=50", "--seed=1"),
        _cmd("price-lsv", *_wild(*POLICY, "--t")),
        _cmd("duration", *_wild(*POLICY, "--t")),
        _cmd("critical-time", *_wild(*POLICY)),
        _cmd("irr", flows),
        _cmd("price-option", "--grid=20,20", _one_of("--kind", ["put", "call"]),
             _one_of("--style", ["european", "american"]),
             *_wild("--strike", "--rate", "--vol", "--expiry"), maybe("--spot"), maybe("--smax")),
        _cmd("price-mortality-option", "--age=70", "--n=50", "--seed=1", "--grid=20,20",
             *_wild("--premium", "--benefit", "--policy-rate", "--rate", "--vole-sigma")),
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

    @settings(max_examples=400, deadline=None)
    @given(argv=_fuzz_argv(tmp))
    # overflows the random search can miss: the discount factor, the
    # option boundary, and a settlement value's p/r + b
    @example(argv=["price-mortality-option", "--age=70", "--n=50", "--seed=1", "--grid=20,20",
                   "--premium=100", "--benefit=1000", "--policy-rate=0.05", "--rate=-1e308",
                   "--vole-sigma=0.3"])
    @example(argv=["price-option", "--grid=20,20", "--kind=put", "--style=european",
                   "--strike=100", "--rate=-1e300", "--vol=0.2", "--expiry=1"])
    @example(argv=["price-lsv", "--premium=1e308", "--benefit=1e308", "--rate=1e-10", "--t=5"])
    @example(argv=["duration", "--premium=1e308", "--benefit=1e308", "--rate=1e-10", "--t=5"])
    # overflows that once printed a numpy warning ahead of a clean result:
    # the NPV polynomial, the layer exponent, and the default grid boundary
    @example(argv=["irr", f"--cashflows={huge_flows}"])
    @example(argv=["fdm-demo", "--J=10", "--scheme=fitted", "--sigma=1e-320"])
    @example(argv=["price-option", "--grid=20,20", "--kind=put", "--style=european",
                   "--strike=1e308", "--rate=0.05", "--vol=0.2", "--expiry=1"])
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


def test_fit_stable_bad_sample_exits_2(capsys, tmp_path):
    path = tmp_path / "samples.txt"
    path.write_text("1.0\n2.0\nabc\n")
    code, _, err = invoke(capsys, "fit-stable", str(path))
    assert code == 2
    assert ":3: not a number" in err


def test_numerical_failure_exits_3(capsys, tmp_path):
    # signs alternate so the series is admissible, but the NPV polynomial
    # has negative discriminant: no real rate zeroes it
    path = tmp_path / "flows.csv"
    path.write_text("period,amount\n0,-100\n1,100\n2,-100\n")
    code, _, err = invoke(capsys, "irr", "--cashflows", str(path))
    assert code == 3
    assert "error:" in err


# -------------------------------------------------------- determinism #


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "longevity", *argv],
                          capture_output=True, timeout=120)


def test_seeded_run_is_byte_identical_across_processes():
    argv = ("simulate", "--age", "70", "--n", "2000", "--seed", "7", "--csv")
    first = run_module(*argv)
    second = run_module(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"year,count\r\n")


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # no scipy module at all: the one LAPACK user imports it on first call
    probe = ("import sys, longevity.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"[]\n"
