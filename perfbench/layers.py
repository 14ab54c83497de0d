"""Per-layer counters and timers, installed by wrapping package names.

Package modules bind what they import (``from .fdm import fitted_stencil``),
so each name is wrapped where its caller looks it up: ``fitted_stencil`` in
``longevity.pricing``, ``lsv`` in ``settlement``, ``pricing`` and ``cli``,
and so on.  Methods are wrapped on their class.

A timed wrapper adds its call's wall time to its own total and to its
parent span's child time, so a layer's self time is its total minus the
time its traced callees took.  Callees that run more than about 10k times
per operation (``lsv``, ``lsv_schedule``, the per-path payoff) are only
counted; their time shows up in the caller's self time.

A wrapped name that no longer exists is recorded in ``absent``; a metric
is left out of :meth:`Tracer.metrics` when none of its names exist.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

# (module, attribute or Class.method, layer key, how)
TIMED, COUNTED = "timed", "counted"
TARGETS = [
    ("longevity.lifetable", "load_table", "lifetable.load_table", TIMED),
    ("longevity.cli", "load_table", "lifetable.load_table", TIMED),
    ("longevity.lifetable", "apply_assumptions", "lifetable.apply_assumptions", TIMED),
    ("longevity.cli", "apply_assumptions", "lifetable.apply_assumptions", TIMED),
    ("longevity.simulate", "death_distribution", "lifetable.death_distribution", TIMED),
    *[("longevity.markov", f"TwoStateModel.{m}", "markov", TIMED)
      for m in ("transition_matrix", "survival", "pdf", "mean_and_variance", "sample_lifetime")],
    ("longevity.simulate", "RngStream.uniform", "simulate.uniform", TIMED),
    ("longevity.simulate", "sample_death_years", "simulate.sample_death_years", TIMED),
    ("longevity.pricing", "randomized_horizon_payoff", "simulate.randomized_horizon_payoff", TIMED),
    ("longevity.settlement", "lsv", "settlement.lsv", COUNTED),
    ("longevity.pricing", "lsv", "settlement.lsv", COUNTED),
    ("longevity.cli", "lsv", "settlement.lsv", COUNTED),
    ("longevity.pricing", "lsv_schedule", "settlement.lsv_schedule", COUNTED),
    ("longevity.cli", "lsv_schedule", "settlement.lsv_schedule", COUNTED),
    ("longevity.settlement", "irr", "settlement.irr", TIMED),
    ("longevity.cli", "irr", "settlement.irr", TIMED),
    ("longevity.settlement", "npv", "settlement.npv", COUNTED),
    ("longevity.stable", "sample_death_times", "stable.sample_death_times", TIMED),
    ("longevity.stable", "estimate_alpha", "stable.estimate_alpha", TIMED),
    ("longevity.cli", "estimate_alpha", "stable.estimate_alpha", TIMED),
    ("longevity.pricing", "fitted_stencil", "fdm.fitted_stencil", TIMED),
    *[(mod, name, f"pricing.{name}", TIMED)
      for mod in ("longevity.pricing", "longevity.cli")
      for name in ("price_european", "price_american", "price_mortality_option")],
]
PRICING_ENTRIES = ("pricing.price_european", "pricing.price_american",
                   "pricing.price_mortality_option")

# metric name -> (unit, layer key it is built from)
LAYER_METRICS = {
    "lifetable.load_table.ms": ("ms", "lifetable.load_table"),
    "lifetable.apply_assumptions.ms": ("ms", "lifetable.apply_assumptions"),
    "lifetable.death_distribution.calls": ("count", "lifetable.death_distribution"),
    "lifetable.death_distribution.ms": ("ms", "lifetable.death_distribution"),
    "markov.ms": ("ms", "markov"),
    "simulate.uniform.words": ("count", "simulate.uniform"),
    "simulate.uniform.ms": ("ms", "simulate.uniform"),
    "simulate.sample_death_years.ms": ("ms", "simulate.sample_death_years"),
    "simulate.randomized_horizon_payoff.self_ms": ("ms", "simulate.randomized_horizon_payoff"),
    "simulate.payoff.calls": ("count", "simulate.randomized_horizon_payoff"),
    "settlement.lsv.calls": ("count", "settlement.lsv"),
    "settlement.lsv_schedule.calls": ("count", "settlement.lsv_schedule"),
    "settlement.irr.calls": ("count", "settlement.irr"),
    "settlement.irr.ms": ("ms", "settlement.irr"),
    "settlement.npv.calls": ("count", "settlement.npv"),
    "stable.sample_death_times.ms": ("ms", "stable.sample_death_times"),
    "stable.estimate_alpha.ms": ("ms", "stable.estimate_alpha"),
    "fdm.fitted_stencil.calls.const_vol": ("count", "fdm.fitted_stencil"),
    "fdm.fitted_stencil.calls.decay_vol": ("count", "fdm.fitted_stencil"),
    "fdm.fitted_stencil.ms": ("ms", "fdm.fitted_stencil"),
    "pricing.price_european.ms": ("ms", "pricing.price_european"),
    "pricing.price_american.ms": ("ms", "pricing.price_american"),
    "pricing.price_mortality_option.ms": ("ms", "pricing.price_mortality_option"),
    "pricing.self_ms": ("ms", "pricing.price_european"),
    "pricing.node_steps": ("count", "pricing.price_european"),
    "pricing.ns_per_node_step": ("ns", "pricing.price_european"),
}
COUNT_METRICS = [m for m, (unit, _) in LAYER_METRICS.items() if unit == "count"]


class Tracer:
    """Wraps the package's layer boundaries while installed; a context manager.

    ``vol_label`` is set by the caller per operation and splits the
    ``fitted_stencil`` call count into constant- and decaying-volatility work.
    """

    def __init__(self):
        self.ms = Counter()
        self.self_ms = Counter()
        self.calls = Counter()
        self.vol_label = "const_vol"
        self.absent: list[str] = []
        self._children: list[float] = []  # child time of each open span, innermost last
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- wrapping #

    def __enter__(self):
        for module_name, path, key, how in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = (self._timed if how == TIMED else self._counted)(key, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, key, fn):
        before = {
            "simulate.uniform": self._count_words,
            "simulate.randomized_horizon_payoff": self._count_payoff,
            "fdm.fitted_stencil": self._split_by_vol,
        }.get(key)
        if key in PRICING_ENTRIES:
            before = self._node_step_counter(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[key] += 1
                self.ms[key] += elapsed * 1e3
                self.self_ms[key] += (elapsed - children) * 1e3
        return wrapper

    def _count_words(self, args, kwargs):
        size = kwargs["size"] if "size" in kwargs else args[1]
        self.calls["simulate.uniform.words"] += int(size)
        return args, kwargs

    def _count_payoff(self, args, kwargs):
        payoff = kwargs["payoff"] if "payoff" in kwargs else args[3]

        def counted(*a):
            self.calls["simulate.payoff"] += 1
            return payoff(*a)
        if "payoff" in kwargs:
            kwargs = dict(kwargs, payoff=counted)
        else:
            args = args[:3] + (counted,) + args[4:]
        return args, kwargs

    def _split_by_vol(self, args, kwargs):
        self.calls[f"fdm.fitted_stencil.{self.vol_label}"] += 1
        return args, kwargs

    def _node_step_counter(self, fn):
        signature = inspect.signature(fn)

        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            grid = bound.arguments
            if "intervals" in grid and "steps" in grid:
                self.calls["pricing.node_steps"] += int(grid["intervals"]) * int(grid["steps"])
            return args, kwargs
        return count

    # --------------------------------------------------------- reading #

    def metrics(self) -> dict[str, float]:
        """Every layer metric whose wrapped names all exist, by metric name."""
        present = {key for module, path, key, _ in TARGETS
                   if f"{module}.{path}" not in self.absent}
        pricing_self = sum(self.self_ms[k] for k in PRICING_ENTRIES)
        march_ms = pricing_self + self.ms["fdm.fitted_stencil"]
        node_steps = self.calls["pricing.node_steps"]
        values = {
            "simulate.uniform.words": self.calls["simulate.uniform.words"],
            "simulate.randomized_horizon_payoff.self_ms":
                float(self.self_ms["simulate.randomized_horizon_payoff"]),
            "simulate.payoff.calls": self.calls["simulate.payoff"],
            "fdm.fitted_stencil.calls.const_vol": self.calls["fdm.fitted_stencil.const_vol"],
            "fdm.fitted_stencil.calls.decay_vol": self.calls["fdm.fitted_stencil.decay_vol"],
            "pricing.self_ms": float(pricing_self),
            "pricing.node_steps": node_steps,
            "pricing.ns_per_node_step": march_ms * 1e6 / node_steps if node_steps else 0.0,
        }
        out = {}
        for name, (unit, key) in LAYER_METRICS.items():
            if key not in present:
                continue
            if name in values:
                out[name] = values[name]
            elif unit == "count":
                out[name] = self.calls[key]
            else:
                out[name] = float(self.ms[key])
        return out
