"""The benchmark's three workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with a single client: the next operation
starts only after the previous one returned.  Inputs come in shuffled blocks
whose mix is exact (say 5 of 20 option requests use a decaying volatility),
so a run's latency quantiles land inside one class of operation instead of
jumping between classes with the seed.  The seed shuffles each block and
draws every continuous parameter; the package only ever sees the generated
inputs.

The package is reached through module attributes (``pricing.price_european``
rather than a bound name) so that the per-layer trace in :mod:`layers` sees
the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from longevity import lifetable, pricing, settlement, simulate, stable

import oracles

BOOK_GRID = 100  # space intervals and time steps of a value-policy grid
PROFILE_AGES = list(range(60, 96, 5))
PROFILE_N = 20_000


def _blocks(rng: random.Random, composition: list):
    """Endless stream of ``composition`` entries, each block shuffled anew."""
    while True:
        block = list(composition)
        rng.shuffle(block)
        yield from block


class Workload:
    """One workload: ``setup`` once, then ``execute`` and ``check`` per operation.

    ``trace_execute``/``trace_check`` are what the traced run uses; they
    differ from the timed pair only for ``cli-cold``, whose traced run stays
    in-process so that the wrappers can see into the package.
    """

    name = ""
    trace_ops = 0  # operations in one traced pass: one whole input block
    spawns = False  # each operation is a child process

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def execute(self, state, op):
        raise NotImplementedError

    def check(self, state, op, out) -> str | None:
        """Return why ``out`` is wrong, or None when it passes."""
        raise NotImplementedError

    def trace_execute(self, state, op):
        return self.execute(state, op)

    def trace_check(self, state, op, out) -> str | None:
        return self.check(state, op, out)

    def fingerprint(self, out):
        """A value that compares equal exactly when two outputs are identical."""
        return out

    def vol_label(self, op) -> str:
        return "const_vol"


# ------------------------------------------------------------ option-grid #

@dataclass(frozen=True)
class OptionRequest:
    kind: str
    style: str
    strike: float
    rate: float
    expiry: float
    sigma0: float
    decay: float | None  # None: constant volatility sigma0
    grid: int


class OptionGrid(Workload):
    """Vanilla European and American requests on grids of 100 to 800 intervals.

    All the work is in ``fdm`` and ``pricing``.  Grid sizes span per-step
    Python overhead (100) to vector work (800).  A quarter of requests use
    ``VolatilityDecay``, whose coefficients change with tau and so cannot be
    assembled once; 6 in 20 are American.  The block fixes grid, style and
    volatility together, so the median falls among constant-volatility
    European 400s and the 90th percentile among European 800s.
    """

    name = "option-grid"
    trace_ops = 20
    E, D, A = ("european", False), ("european", True), ("american", False)
    BLOCK = [(grid, style, decay) for grid, kinds in (
        (100, [E, D, A]),
        (200, [E, E, D, A, A]),
        (400, [E, E, E, E, D, A, A]),
        (800, [E, E, D, D, A]),
    ) for style, decay in kinds]

    def setup(self, seed, workdir):
        rng = random.Random(f"option-grid:{seed}")
        return {"ops": self._requests(rng)}

    def _requests(self, rng):
        for grid, style, decay in _blocks(rng, self.BLOCK):
            yield OptionRequest(
                kind=rng.choice(("call", "put")),
                style=style,
                strike=round(rng.uniform(50.0, 150.0), 4),
                rate=round(rng.uniform(0.01, 0.08), 5),
                expiry=round(rng.uniform(0.25, 2.0), 4),
                sigma0=round(rng.uniform(0.15, 0.45), 4),
                decay=round(rng.uniform(0.1, 1.5), 4) if decay else None,
                grid=grid,
            )

    def vol_label(self, op):
        return "const_vol" if op.decay is None else "decay_vol"

    def execute(self, state, op):
        vol = op.sigma0 if op.decay is None else pricing.VolatilityDecay(op.sigma0, op.decay)
        price = pricing.price_european if op.style == "european" else pricing.price_american
        return price(op.kind, op.strike, op.rate, vol, op.expiry,
                     intervals=op.grid, steps=op.grid)

    def european_error(self, op, out) -> float:
        vol = op.sigma0 if op.decay is None else \
            oracles.decay_effective_vol(op.sigma0, op.decay, op.expiry)
        exact = oracles.black_scholes(op.kind, op.strike, op.strike, op.rate, vol, op.expiry)
        return out.value_at(op.strike) - exact

    def check(self, state, op, out):
        err = self.european_error(op, out)
        tol = oracles.grid_tolerance(op.strike, op.grid)
        if op.style == "european":
            if not abs(err) <= tol:
                return f"European value off Black-Scholes by {err:.3g} (tolerance {tol:.3g})"
            return None
        if not err >= -tol:
            return f"American value below the European value by {-err:.3g}"
        intrinsic = [max(s - op.strike, 0.0) if op.kind == "call" else max(op.strike - s, 0.0)
                     for s in out.grid.tolist()]
        gap = min(v - f for v, f in zip(out.values.tolist(), intrinsic))
        if not gap >= -1e-9 * op.strike:
            return f"American value below intrinsic by {-gap:.3g}"
        return None

    def fingerprint(self, out):
        boundary = b"" if out.exercise_boundary is None else out.exercise_boundary.tobytes()
        return out.values.tobytes(), boundary


# --------------------------------------------------------- mortality-book #

@dataclass(frozen=True)
class ValuePolicy:
    age: int
    multiplier: float
    improvement: float
    rate: float
    premium: float | None          # flat policies
    benefit: float | None
    premiums: tuple | None         # scheduled policies
    benefits: tuple | None
    vole_sigma: float
    option_rate: float
    n: int
    stream: int
    death_year: int                # realised death year of the deal
    flows: tuple                   # the deal's cash flows, period 0 first


@dataclass(frozen=True)
class TailProfile:
    multiplier: float
    improvement: float
    stream: int


class MortalityBook(Workload):
    """A book of rated policies, each valued by Monte Carlo and on a 100x100 grid.

    The work is in ``simulate`` (death-year draws), ``settlement`` (one
    payoff callback per path) and ``lifetable``; the grid is a small share.
    Scheduled policies cost more per callback than flat ones.  Per block of
    20: 2 tail profiles and 18 policies, 14 flat and 4 scheduled, with
    n in {20k, 50k, 100k}; the median falls among flat 50k valuations and
    the 90th percentile among scheduled 50k ones.
    """

    name = "mortality-book"
    trace_ops = 20
    BLOCK = (["tail"] * 2
             + [("flat", 20_000)] * 5 + [("flat", 50_000)] * 5 + [("flat", 100_000)] * 4
             + [("sched", 20_000)] + [("sched", 50_000)] * 2 + [("sched", 100_000)])

    def setup(self, seed, workdir):
        path = lifetable.sample_table_path()
        base = lifetable.load_table(path)
        start_age, raw_qx = oracles.read_qx(path)
        rng = random.Random(f"mortality-book:{seed}")
        return {"base": base, "start_age": start_age, "raw_qx": raw_qx,
                "ops": self._book(rng, start_age, raw_qx)}

    def _book(self, rng, start_age, raw_qx):
        for kind in _blocks(rng, self.BLOCK):
            multiplier = round(rng.uniform(0.7, 1.6), 4)
            improvement = round(rng.uniform(0.0, 0.015), 5)
            if kind == "tail":
                yield TailProfile(multiplier, improvement, rng.getrandbits(32))
                continue
            style, n = kind
            age = rng.randint(60, 89)
            rate = round(rng.uniform(0.03, 0.08), 5)
            probs = oracles.death_year_probs(
                start_age, oracles.rated_qx(raw_qx, multiplier, improvement), age)
            death_year = rng.choices(range(1, len(probs) + 1), weights=probs)[0]
            if style == "flat":
                benefit = round(rng.uniform(500.0, 2000.0), 2)
                premium = round(benefit * rng.uniform(0.02, 0.1), 2)
                premiums = benefits = None
                price = round(benefit * rng.uniform(0.2, 0.6), 2)
                paid = [premium] * death_year
                collected = benefit
            else:
                length = rng.randint(25, 45)
                b0 = rng.uniform(500.0, 2000.0)
                p0 = b0 * rng.uniform(0.02, 0.08)
                pg, bg = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.03)
                premiums = tuple(round(p0 * (1 + pg) ** k, 2) for k in range(length))
                benefits = tuple(round(b0 * (1 + bg) ** k, 2) for k in range(length))
                premium = benefit = None
                price = round(b0 * rng.uniform(0.2, 0.6), 2)
                death_year = min(death_year, length)
                paid = list(premiums[:death_year])
                collected = benefits[death_year - 1]
            flows = [-price] + [-p for p in paid]
            flows[-1] += collected
            yield ValuePolicy(
                age=age, multiplier=multiplier, improvement=improvement, rate=rate,
                premium=premium, benefit=benefit, premiums=premiums, benefits=benefits,
                vole_sigma=round(rng.uniform(0.05, 0.3), 4),
                option_rate=round(rng.uniform(0.02, 0.06), 5),
                n=n, stream=rng.getrandbits(32), death_year=death_year, flows=tuple(flows))

    def execute(self, state, op):
        assumptions = lifetable.MortalityAssumptions(op.multiplier, op.improvement)
        table = lifetable.apply_assumptions(state["base"], assumptions)
        if isinstance(op, TailProfile):
            profile = stable.alpha_age_profile(table, PROFILE_AGES, PROFILE_N,
                                               simulate.RngStream(op.stream))
            return tuple(profile)
        if op.premiums is None:
            pol = settlement.FlatPolicy(op.premium, op.benefit, op.rate)
        else:
            pol = settlement.PolicySchedule(list(op.premiums), list(op.benefits), op.rate)
        value = pricing.price_mortality_option(
            pol, table, op.age, op.vole_sigma, op.option_rate, op.n,
            simulate.RngStream(op.stream), intervals=BOOK_GRID, steps=BOOK_GRID)
        duration = settlement.le_duration(pol, op.death_year) if op.premiums is None else None
        rate = settlement.irr(settlement.CashflowSeries(list(op.flows)))
        return value.mc_value, value.mc_std_error, value.pde_value, duration, rate

    def check(self, state, op, out):
        if isinstance(op, TailProfile):
            ages = [a for a, _ in out]
            if ages != PROFILE_AGES:
                return f"tail profile ages {ages}"
            if not all(0.5 <= alpha <= 2.0 for _, alpha in out):
                return f"tail index outside [0.5, 2]: {out}"
            return None
        mc, se, pde, duration, rate = out
        qx = oracles.rated_qx(state["raw_qx"], op.multiplier, op.improvement)
        probs = oracles.death_year_probs(state["start_age"], qx, op.age)
        if op.premiums is None:
            horizon = len(probs)
            value = lambda t: oracles.flat_value(op.premium, op.benefit, op.rate, t)
        else:
            horizon = min(len(probs), len(op.premiums))
            value = lambda t: oracles.schedule_value(op.premiums, op.benefits, op.rate, t)
        exact = oracles.mortality_option_exact(probs, op.option_rate, value, horizon)
        if not abs(mc - exact) <= 5.0 * se:
            return f"Monte Carlo value {mc:.6g} is {abs(mc - exact) / se:.1f} se from exact {exact:.6g}"
        if not math.isfinite(pde):
            return f"grid value {pde!r}"
        if duration is not None:
            want = oracles.le_duration(op.premium, op.benefit, op.rate, op.death_year)
            if not abs(duration - want) <= 1e-9 * abs(want) + 1e-12:
                return f"le_duration {duration!r}, closed form {want!r}"
        residual = oracles.npv(list(op.flows), rate)
        if not (rate > -1.0 and abs(residual) <= 1e-6 * sum(abs(f) for f in op.flows)):
            return f"irr {rate!r} leaves NPV {residual:.3g}"
        return None


# --------------------------------------------------------------- cli-cold #

@dataclass(frozen=True)
class Invocation:
    argv: tuple
    expected_code: int


@dataclass(frozen=True)
class ColdRun:
    code: int
    stdout: str
    max_rss_kb: int


class CliCold(Workload):
    """One ``python -m longevity`` process per operation, one at a time.

    Interpreter start and imports set this latency, and it is the only
    workload that runs ``cli`` and ``markov``.  Per block of 10: each of
    nine subcommands once, plus one invocation carrying a flag value the
    CLI rejects (expected exit code 2).  Input files are written per seed
    into the run's work directory before the operation is timed.
    """

    name = "cli-cold"
    trace_ops = 10
    spawns = True
    COMMANDS = ["price-lsv", "duration", "critical-time", "irr", "markov",
                "fit-stable", "alpha-profile", "simulate", "price-option"]
    REJECTED = [
        ["price-lsv", "--premium=-5", "--benefit", "1000", "--rate", "0.05", "--t", "8"],
        ["markov", "--rate=-0.1", "--horizon", "30"],
        ["price-option", "--kind", "put", "--style", "european", "--strike=-5", "--rate",
         "0.05", "--vol", "0.2", "--expiry", "1", "--grid", "100,100"],
        ["simulate", "--age", "70", "--n", "0", "--seed", "1"],
        ["duration", "--premium", "100", "--benefit=-1", "--rate", "0.05", "--t", "8"],
        ["critical-time", "--premium", "100", "--benefit", "1000", "--rate=-0.05"],
    ]

    def setup(self, seed, workdir):
        from longevity import cli

        workdir.mkdir(parents=True, exist_ok=True)
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        rng = random.Random(f"cli-cold:{seed}")
        ops = self._invocations(rng, workdir)
        return {"cli": cli, "env": env, "ops": ops}

    def _invocations(self, rng, workdir: Path):
        for index, command in enumerate(_blocks(rng, self.COMMANDS + ["rejected"])):
            if command == "rejected":
                yield Invocation(tuple(rng.choice(self.REJECTED)), 2)
            else:
                argv = getattr(self, "_" + command.replace("-", "_"))(rng, workdir / f"op{index}")
                yield Invocation(tuple(argv), 0)

    @staticmethod
    def _policy(rng):
        benefit = rng.uniform(500.0, 2000.0)
        return ["--premium", f"{benefit * rng.uniform(0.02, 0.1):.2f}",
                "--benefit", f"{benefit:.2f}", "--rate", f"{rng.uniform(0.03, 0.08):.4f}"]

    def _price_lsv(self, rng, stem):
        if rng.random() < 1 / 3:
            length = rng.randint(10, 40)
            rows = [f"{k},{rng.uniform(20, 120):.2f},{rng.uniform(800, 2000):.2f}"
                    for k in range(1, length + 1)]
            path = stem.with_suffix(".schedule.csv")
            path.write_text("period,premium,benefit\n" + "\n".join(rows) + "\n")
            return ["price-lsv", "--schedule", str(path), "--rate",
                    f"{rng.uniform(0.03, 0.08):.4f}", "--t", str(rng.randint(1, length))]
        return ["price-lsv", *self._policy(rng), "--t", f"{rng.uniform(1, 30):.2f}"]

    def _duration(self, rng, stem):
        return ["duration", *self._policy(rng), "--t", str(rng.randint(1, 30))]

    def _critical_time(self, rng, stem):
        return ["critical-time", *self._policy(rng)]

    def _irr(self, rng, stem):
        years = rng.randint(2, 30)
        benefit = rng.uniform(500.0, 2000.0)
        premium = benefit * rng.uniform(0.02, 0.08)
        flows = [-benefit * rng.uniform(0.2, 0.6)] + [-premium] * years
        flows[-1] += benefit
        path = stem.with_suffix(".flows.csv")
        path.write_text("period,amount\n" + "".join(f"{k},{f:.2f}\n" for k, f in enumerate(flows)))
        return ["irr", "--cashflows", str(path)]

    def _markov(self, rng, stem):
        return ["markov", "--rate", f"{rng.uniform(0.02, 0.2):.4f}",
                "--horizon", f"{rng.uniform(10, 60):.2f}", "--points", str(rng.randint(11, 101))]

    def _fit_stable(self, rng, stem):
        tail = rng.uniform(0.0, 0.5)
        samples = [rng.gauss(0.0, 1.0) + tail * math.tan(math.pi * (rng.random() - 0.5))
                   for _ in range(2000)]
        path = stem.with_suffix(".samples.txt")
        path.write_text("".join(f"{x!r}\n" for x in samples))
        return ["fit-stable", str(path)]

    def _alpha_profile(self, rng, stem):
        return ["alpha-profile", "--ages", "60..95", "--step", "5", "--n", "20000",
                "--seed", str(rng.getrandbits(32))]

    def _simulate(self, rng, stem):
        return ["simulate", "--age", str(rng.randint(60, 89)), "--n", "10000",
                "--seed", str(rng.getrandbits(32)),
                "--multiplier", f"{rng.uniform(0.7, 1.6):.4f}",
                "--improvement", f"{rng.uniform(0.0, 0.015):.5f}"]

    def _price_option(self, rng, stem):
        return ["price-option", "--kind", rng.choice(("call", "put")),
                "--style", rng.choice(("european", "american")),
                "--strike", f"{rng.uniform(50, 150):.2f}", "--rate", f"{rng.uniform(0.01, 0.08):.4f}",
                "--vol", f"{rng.uniform(0.15, 0.45):.4f}", "--expiry", f"{rng.uniform(0.25, 2):.3f}",
                "--grid", "100,100"]

    def execute(self, state, op):
        proc = subprocess.Popen([sys.executable, "-m", "longevity", *op.argv],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=state["env"])
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # wait4, not wait(): it reports the child's peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ColdRun(proc.returncode, out.decode("utf-8"), usage.ru_maxrss)

    def trace_execute(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = state["cli"].run(list(op.argv))
        return code, out.getvalue()

    def check(self, state, op, out):
        if out.code != op.expected_code:
            return f"{' '.join(op.argv)}: exit {out.code}, expected {op.expected_code}"
        code, stdout = self.trace_execute(state, op)
        if (code, stdout) != (out.code, out.stdout):
            return f"{' '.join(op.argv)}: subprocess output differs from in-process cli.run"
        return None

    def trace_check(self, state, op, out):
        code, stdout = out
        if code != op.expected_code:
            return f"{' '.join(op.argv)}: exit {code}, expected {op.expected_code}"
        return None


WORKLOADS = {w.name: w for w in (OptionGrid(), MortalityBook(), CliCold())}
