"""Longevity-risk valuation toolkit.

The pieces, bottom up: discrete life-table actuarial math
(:mod:`.lifetable`), a constant-intensity two-state mortality model
(:mod:`.markov`), reproducible mortality and index simulation
(:mod:`.simulate`), a quantile-based tail-index fit (:mod:`.stable`),
life-settlement valuation with durations and IRR (:mod:`.settlement`),
and an exponentially fitted finite-difference engine with option pricing
on top (:mod:`.fdm`, :mod:`.pricing`).  The ``longevity`` console script
in :mod:`.cli` fronts all of it.

Exports and submodules load on first access (PEP 562), so ``import
longevity`` costs nothing.  A scalar CLI command (``price-lsv``,
``duration``, ``critical-time``, ``irr``, ``markov``, ``fit-stable``)
never imports numpy or ``inspect``, and no command imports the standard
library's data-class module.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "errors": ("DataError", "NumericalError"),
    "fdm": ("Mesh1D", "TwoPointBVP", "layer_exact", "solve_centered", "solve_fitted",
            "solve_upwind"),
    "lifetable": ("LifeTable", "MortalityAssumptions", "apply_assumptions",
                  "complete_expectation", "death_distribution", "lifetime_variance",
                  "load_table", "sample_table", "sample_table_path", "survival_probability"),
    "markov": ("TwoStateModel",),
    "pricing": ("MortalityOptionValue", "PriceResult", "price_american", "price_european",
                "price_mortality_option"),
    "settlement": ("CashflowSeries", "FlatPolicy", "PolicySchedule", "critical_time", "irr",
                   "le_duration", "load_cashflows", "load_schedule", "lsv", "lsv_schedule",
                   "macaulay_duration", "npv"),
    "simulate": ("GbmParams", "RngStream", "box_muller", "randomized_horizon_payoff",
                 "simulate_deaths", "vole"),
    "stable": ("StableParams", "alpha_age_profile", "estimate_alpha"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
