"""Batch command-line front end for the toolkit.

One invocation runs exactly one subcommand and writes a single machine
readable stream: plain ``key=value`` lines for scalar results, RFC-style
CSV for curves and tables, never both at once.  Commands whose natural
output is a curve (``markov``, ``alpha-profile``, ``fdm-demo``) always
emit CSV; ``simulate`` prints a key=value summary by default and switches
to a histogram CSV under ``--csv``.

Randomized commands require an explicit ``--seed``; identical invocations
produce byte-identical output.  Results go to standard output unless
``--out`` names a file; diagnostics go to standard error.

Each handler imports the layers it uses when it runs, so a scalar command
(``price-lsv``, ``duration``, ``critical-time``, ``irr``, ``markov``,
``fit-stable``) starts without loading numpy or ``inspect``, and no
command imports the standard library's data-class module.  A tridiagonal
solve loads scipy's compiled LAPACK wrappers alone, without running any
scipy package init.

:func:`main`, the console entry point behind ``longevity`` and
``python -m longevity``, sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it, before numpy loads: the CLI's linear algebra
is tridiagonal and sequential, and the spare thread OpenBLAS would start
spins on another core while the process starts.  No printed result depends
on the thread count.  :func:`run` and the library leave the environment
alone.

Exit codes: 0 success, 1 malformed invocation (unknown subcommand or
flag, unparseable value), 2 rejected input data (bad file contents, or a
flag value that parses but violates a domain precondition), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError, NumericalError, require_finite

if TYPE_CHECKING:
    from .lifetable import LifeTable
    from .settlement import FlatPolicy, PolicySchedule

__all__ = ["run", "main"]


def __getattr__(name: str):
    # handlers import what they use when they run; package exports stay
    # readable here, e.g. ``cli.lsv``, without loading them at import time
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _kv(key: str, value, digits: int | None = None) -> str:
    """One ``key=value`` line; floats get minimal digits unless fixed."""
    if digits is not None:
        text = f"{float(value):.{digits}f}"
    elif isinstance(value, float):
        text = f"{value:.10g}"
    else:
        text = str(value)
    return f"{key}={text}\n"


def _csv_text(header: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _load_table_arg(ns) -> LifeTable:
    from .lifetable import MortalityAssumptions, apply_assumptions, load_table, sample_table_path

    path = ns.table if ns.table is not None else sample_table_path()
    table = load_table(path)
    mult = getattr(ns, "multiplier", 1.0)
    impr = getattr(ns, "improvement", 0.0)
    if mult != 1.0 or impr != 0.0:
        table = apply_assumptions(table, MortalityAssumptions(mult, impr))
    return table


def _parse_age_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"age range must look like 60..95, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"age range endpoints must be integers, got {text!r}") from None
    if b < a:
        raise ValueError(f"age range must be ascending, got {text!r}")
    return a, b


# the march keeps per-node arrays and per-step lists, and fdm-demo and
# markov build their tables in memory, so an unbounded grid exhausts memory
# before it fails; every size is capped like a cash-flow file's periods
_MAX_GRID = 100_000

# simulated lives and Monte Carlo paths take a few arrays of n floats each,
# so --n is capped before anything is allocated
_MAX_N = 10_000_000


def _check_n(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"--n must be at most {_MAX_N}, got {n}")


def _parse_grid(text: str) -> tuple[int, int]:
    j, sep, n = text.partition(",")
    if not sep:
        raise ValueError(f"grid must look like 400,400 (space intervals,time steps), got {text!r}")
    try:
        intervals, steps = int(j), int(n)
    except ValueError:
        raise ValueError(f"grid sizes must be integers, got {text!r}") from None
    if max(intervals, steps) > _MAX_GRID:
        raise ValueError(f"grid sizes must be at most {_MAX_GRID}, got {text!r}")
    return intervals, steps


def _cmd_simulate(ns) -> str:
    _check_n(ns.n)
    if ns.n < 1:  # before numpy loads, as the library would reject it
        raise ValueError("n must be positive")
    from .simulate import RngStream, simulate_deaths

    table = _load_table_arg(ns)
    summary = simulate_deaths(table, ns.age, ns.n, RngStream(ns.seed))
    if ns.csv:
        return _csv_text(("year", "count"), sorted(summary.histogram.items()))
    out = _kv("n", summary.n)
    out += _kv("mode", summary.mode)
    out += _kv("max_year", summary.max_year)
    out += _kv("mean", summary.mean, digits=6)
    return out


def _cmd_vole(ns) -> str:
    from .lifetable import complete_expectation
    from .simulate import RngStream, simulate_deaths, vole

    direct = ns.e_complete is not None or ns.max_death is not None
    pipeline = any(v is not None for v in (ns.table, ns.age, ns.n, ns.seed))
    if direct and pipeline:
        raise ValueError("give either --e-complete/--max-death or --table/--age/--n/--seed, not both")
    if direct:
        if ns.e_complete is None or ns.max_death is None:
            raise ValueError("--e-complete and --max-death must be given together")
        return _kv("vole", vole(ns.e_complete, ns.max_death))
    if ns.age is None or ns.n is None or ns.seed is None:
        raise ValueError("pipeline mode needs --age, --n and --seed")
    _check_n(ns.n)
    table = _load_table_arg(ns)
    e = complete_expectation(table, ns.age)
    summary = simulate_deaths(table, ns.age, ns.n, RngStream(ns.seed))
    out = _kv("e_complete", e, digits=6)
    out += _kv("max_death", summary.max_year)
    out += _kv("vole", vole(e, float(summary.max_year)))
    return out


def _linspace(stop: float, num: int) -> list[float]:
    """``np.linspace(0.0, stop, num)`` in Python floats, bit for bit (``num >= 2``)."""
    div = num - 1
    step = stop / div
    if step == 0.0:  # numpy scales by i/div instead once the step underflows
        return [i / div * stop for i in range(div)] + [stop]
    return [i * step for i in range(div)] + [stop]


def _cmd_markov(ns) -> str:
    from .markov import TwoStateModel

    model = TwoStateModel(ns.rate)
    require_finite(horizon=ns.horizon)
    if ns.horizon <= 0.0:
        raise ValueError("--horizon must be positive")
    if not 2 <= ns.points <= _MAX_GRID:
        raise ValueError(f"--points must lie in [2, {_MAX_GRID}], got {ns.points}")
    rows = [(f"{t:.10g}", f"{model.survival(t):.10g}") for t in _linspace(ns.horizon, ns.points)]
    return _csv_text(("t", "survival"), rows)


def _read_samples(source: str | None) -> list[float]:
    if source is None:
        lines = sys.stdin.read().splitlines()
        where = "<stdin>"
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
        where = source
    values = []
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise DataError(f"{where}:{i}: not a number: {line!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{where}:{i}: sample {line!r} is not a finite number")
        values.append(value)
    if not values:
        raise DataError(f"{where}: no samples found")
    return values


def _cmd_fit_stable(ns) -> str:
    from .stable import estimate_alpha

    samples = _read_samples(ns.file)
    return _kv("alpha_hat", estimate_alpha(samples), digits=6)


def _cmd_alpha_profile(ns) -> str:
    from .simulate import RngStream
    from .stable import alpha_age_profile

    _check_n(ns.n)
    table = _load_table_arg(ns)
    lo, hi = _parse_age_range(ns.ages)
    if ns.step < 1:
        raise ValueError("--step must be at least 1")
    for age in (lo, hi):  # every age lies between them, so the list stays table-sized
        table._check_age(age)
    ages = list(range(lo, hi + 1, ns.step))
    profile = alpha_age_profile(table, ages, ns.n, RngStream(ns.seed))
    rows = [(age, f"{alpha:.6f}") for age, alpha in profile]
    return _csv_text(("age", "alpha_hat"), rows)


def _policy(ns, rate: str = "rate") -> FlatPolicy | PolicySchedule:
    """A loaded ``--schedule`` discounted at the ``rate`` flag, else a level policy."""
    from .settlement import FlatPolicy, load_schedule

    r = getattr(ns, rate)
    schedule = getattr(ns, "schedule", None)
    if schedule is not None:
        if r is None:
            raise ValueError(f"--{rate.replace('_', '-')} is required with --schedule")
        if ns.premium is not None or ns.benefit is not None:
            raise ValueError("--schedule replaces --premium/--benefit")
        return load_schedule(schedule, r)
    for name in ("premium", "benefit", rate):
        if getattr(ns, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required without --schedule")
    return FlatPolicy(p=ns.premium, b=ns.benefit, r=r)


def _cmd_price_lsv(ns) -> str:
    from .settlement import lsv, lsv_schedule

    pol = _policy(ns)
    value = lsv(pol, ns.t) if ns.schedule is None else lsv_schedule(pol, ns.t)
    if not math.isfinite(value):  # a schedule's premium leg past the float range
        raise NumericalError(f"settlement value at t={ns.t:g} overflowed the float range")
    return _kv("lsv", value)


def _cmd_duration(ns) -> str:
    from .settlement import le_duration, macaulay_duration

    pol = _policy(ns)
    out = _kv("le_duration", le_duration(pol, ns.t))
    out += _kv("macaulay_duration", macaulay_duration(pol, ns.t))
    return out


def _cmd_critical_time(ns) -> str:
    from .settlement import critical_time

    return _kv("critical_time", critical_time(_policy(ns)))


def _cmd_irr(ns) -> str:
    from .settlement import irr, load_cashflows

    flows = load_cashflows(ns.cashflows)
    return _kv("irr", irr(flows), digits=6)


def _cmd_price_option(ns) -> str:
    from .pricing import price_american, price_european

    intervals, steps = _parse_grid(ns.grid)
    kwargs = dict(
        kind=ns.kind,
        strike=ns.strike,
        rate=ns.rate,
        vol=ns.vol,
        expiry=ns.expiry,
        s_max=ns.smax,
        intervals=intervals,
        steps=steps,
    )
    result = price_european(**kwargs) if ns.style == "european" else price_american(**kwargs)
    spot = ns.spot if ns.spot is not None else ns.strike
    return _kv("value", result.value_at(spot), digits=6)


def _cmd_price_mortality_option(ns) -> str:
    from .pricing import price_mortality_option
    from .simulate import RngStream

    _check_n(ns.n)
    table = _load_table_arg(ns)
    pol = _policy(ns, rate="policy_rate")
    intervals, steps = _parse_grid(ns.grid)
    result = price_mortality_option(
        pol, table, ns.age, ns.vole_sigma, ns.rate, ns.n, RngStream(ns.seed),
        intervals=intervals, steps=steps)
    out = _kv("mc_value", result.mc_value, digits=6)
    out += _kv("mc_std_error", result.mc_std_error, digits=6)
    out += _kv("exact_value", result.exact_value, digits=6)
    out += _kv("pde_value", result.pde_value, digits=6)
    return out


def _cmd_fdm_demo(ns) -> str:
    import numpy as np

    from .fdm import Mesh1D, TwoPointBVP, layer_exact, solve_centered, solve_fitted, solve_upwind

    if ns.sigma <= 0.0:
        raise ValueError("--sigma must be positive")
    if not 2 <= ns.J <= _MAX_GRID:
        raise ValueError(f"--J must lie in [2, {_MAX_GRID}], got {ns.J}")
    mesh = Mesh1D(0.0, 1.0, ns.J + 1)
    if ns.scheme == "centered":
        layer = solve_centered(ns.sigma, mesh)
        numeric = layer.values
        if layer.oscillatory:
            print("warning: centered scheme is oscillatory at this sigma and mesh "
                  f"(sigma={ns.sigma:g} < h={mesh.h:g})", file=sys.stderr)
    elif ns.scheme == "upwind":
        numeric = solve_upwind(ns.sigma, mesh).values
    else:
        bvp = TwoPointBVP(
            sigma=lambda x: np.full_like(x, ns.sigma),
            mu=lambda x: np.full_like(x, 2.0),
            b_coef=lambda x: np.zeros_like(x),
            f=lambda x: np.zeros_like(x),
            beta0=1.0,
            beta1=0.0,
        )
        numeric = solve_fitted(bvp, mesh)
    xs = mesh.points()
    exact = layer_exact(ns.sigma, xs)
    rows = [
        (f"{x:.10g}", f"{u + 0.0:.10g}", f"{v + 0.0:.10g}", f"{u - v + 0.0:.10g}")
        for x, u, v in zip(xs, numeric, exact)
    ]
    return _csv_text(("x", "numeric", "exact", "error"), rows)


def _add_table_flags(p: argparse.ArgumentParser, with_assumptions: bool = False) -> None:
    p.add_argument("--table", metavar="CSV", default=None,
                   help="life table CSV with header age,qx (default: bundled sample table)")
    if with_assumptions:
        p.add_argument("--multiplier", type=float, default=1.0,
                       help="mortality multiplier applied to every qx, dimensionless (default 1)")
        p.add_argument("--improvement", type=float, default=0.0,
                       help="annual mortality improvement rate, decimal fraction per year (default 0)")


def _add_policy_flags(p: argparse.ArgumentParser, rate_flag: str = "--rate") -> None:
    p.add_argument("--premium", type=float, default=None,
                   help="level premium per period, currency")
    p.add_argument("--benefit", type=float, default=None,
                   help="death benefit, currency")
    p.add_argument(rate_flag, type=float, default=None, dest=rate_flag.lstrip("-").replace("-", "_"),
                   help="per-period discount rate, decimal fraction")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longevity",
        description="Longevity-risk valuation toolkit: mortality simulation, "
                    "life-settlement pricing, tail-index fitting, and fitted "
                    "finite-difference option pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to this file instead of standard output")
        return p

    p = add("simulate", _cmd_simulate, "Simulate death years and summarise them.")
    _add_table_flags(p, with_assumptions=True)
    p.add_argument("--age", type=int, required=True, help="age at issue, whole years")
    p.add_argument("--n", type=int, required=True,
                   help=f"number of simulated lives, count, at most {_MAX_N}")
    p.add_argument("--seed", type=int, required=True, help="random seed, integer in [0, 2**64)")
    p.add_argument("--csv", action="store_true",
                   help="emit the death-year histogram as CSV year,count instead of the summary")

    p = add("vole", _cmd_vole, "Volatility of life expectancy, direct or from a table.")
    p.add_argument("--e-complete", type=float, default=None, dest="e_complete",
                   help="expected remaining lifetime, years (direct mode)")
    p.add_argument("--max-death", type=float, default=None, dest="max_death",
                   help="maximum observed death year, years (direct mode)")
    _add_table_flags(p)
    p.add_argument("--age", type=int, default=None, help="age at issue, whole years (pipeline mode)")
    p.add_argument("--n", type=int, default=None,
                   help=f"simulated lives for the maximum, count, at most {_MAX_N}")
    p.add_argument("--seed", type=int, default=None, help="random seed, integer in [0, 2**64)")

    p = add("markov", _cmd_markov, "Survival curve of the constant-intensity two-state model.")
    p.add_argument("--rate", type=float, required=True, help="death intensity, per year")
    p.add_argument("--horizon", type=float, required=True, help="curve horizon, years")
    p.add_argument("--points", type=int, default=11,
                   help=f"number of curve points, count in [2, {_MAX_GRID}] (default 11)")

    p = add("fit-stable", _cmd_fit_stable, "Estimate the stability index of a sample.")
    p.add_argument("file", nargs="?", default=None,
                   help="file with one sample per line (default: standard input)")

    p = add("alpha-profile", _cmd_alpha_profile, "Tail index of simulated death times, age by age.")
    _add_table_flags(p)
    p.add_argument("--ages", required=True, metavar="A..B",
                   help="inclusive age range inside the table's, e.g. 60..95, whole years")
    p.add_argument("--step", type=int, default=5, help="age spacing, years (default 5)")
    p.add_argument("--n", type=int, required=True,
                   help=f"simulated lives per age, count, at most {_MAX_N}")
    p.add_argument("--seed", type=int, required=True, help="random seed, integer in [0, 2**64)")

    p = add("price-lsv", _cmd_price_lsv, "Settlement value for death at a given time.")
    _add_policy_flags(p)
    p.add_argument("--t", type=float, required=True, help="time of death, periods")
    p.add_argument("--schedule", metavar="CSV", default=None,
                   help="per-period schedule CSV with header period,premium,benefit")

    p = add("duration", _cmd_duration, "Interest-rate and lifetime sensitivities of a position.")
    _add_policy_flags(p)
    p.add_argument("--t", type=float, required=True, help="time of death, periods")

    p = add("critical-time", _cmd_critical_time,
            "Death time at which the duration's sensitivity changes sign.")
    _add_policy_flags(p)

    p = add("irr", _cmd_irr, "Internal rate of return of a cash-flow series.")
    p.add_argument("--cashflows", metavar="CSV", required=True,
                   help="cash-flow CSV with header period,amount (periods 0..10000, "
                        "amounts in currency)")

    p = add("price-option", _cmd_price_option, "Price a vanilla option on the fitted grid.")
    p.add_argument("--kind", choices=("put", "call"), required=True, help="option kind")
    p.add_argument("--style", choices=("european", "american"), required=True, help="exercise style")
    p.add_argument("--strike", type=float, required=True, help="strike, currency")
    p.add_argument("--rate", type=float, required=True, help="risk-free rate, per year")
    p.add_argument("--vol", type=float, required=True, help="volatility, per sqrt-year")
    p.add_argument("--expiry", type=float, required=True, help="time to expiry, years")
    p.add_argument("--grid", default="400,400", metavar="J,N",
                   help=f"space intervals,time steps, each at most {_MAX_GRID} (default 400,400)")
    p.add_argument("--spot", type=float, default=None,
                   help="price level to report the value at, currency (default: the strike)")
    p.add_argument("--smax", type=float, default=None,
                   help="upper grid boundary, currency (default: 4 times the strike)")

    p = add("price-mortality-option", _cmd_price_mortality_option,
            "Value the option on a settlement position at the death year.")
    _add_table_flags(p)
    p.add_argument("--age", type=int, required=True, help="age at issue, whole years")
    _add_policy_flags(p, rate_flag="--policy-rate")
    p.add_argument("--schedule", metavar="CSV", default=None,
                   help="per-period schedule CSV with header period,premium,benefit")
    p.add_argument("--rate", type=float, required=True,
                   help="discount and drift rate for the option, per year")
    p.add_argument("--vole-sigma", type=float, required=True, dest="vole_sigma",
                   help="volatility of life expectancy, dimensionless in [0, 1)")
    p.add_argument("--n", type=int, required=True,
                   help=f"Monte Carlo paths, count, at most {_MAX_N}")
    p.add_argument("--seed", type=int, required=True, help="random seed, integer in [0, 2**64)")
    p.add_argument("--grid", default="400,400", metavar="J,N",
                   help=f"space intervals,time steps for the grid route, each at most "
                        f"{_MAX_GRID} (default 400,400)")

    p = add("fdm-demo", _cmd_fdm_demo,
            "Solve the boundary-layer model problem and tabulate the error.")
    p.add_argument("--scheme", choices=("centered", "upwind", "fitted"), required=True,
                   help="spatial discretization")
    p.add_argument("--sigma", type=float, required=True, help="diffusion coefficient, dimensionless")
    p.add_argument("--J", type=int, required=True,
                   help=f"mesh intervals on (0,1), count in [2, {_MAX_GRID}]")

    return parser


def run(argv: list[str]) -> int:
    """Parse ``argv`` (no program name), run one subcommand, return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        text = ns.handler(ns)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.out is not None:
        Path(ns.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    # one BLAS thread unless the environment names a count; no command has
    # loaded numpy yet, so OpenBLAS reads it when it starts
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(run(sys.argv[1:]))
