"""The package's immutable value classes: repr, equality, hashing, pickling, immutability.

Each case builds one instance and states the repr text it prints and
whether it hashes; a field holding an array or a dict makes the field
tuple unhashable.
"""

import math
import pickle

import numpy as np
import pytest

from longevity.fdm import LayerSolution, Mesh1D, TwoPointBVP
from longevity.lifetable import LifeTable, MortalityAssumptions
from longevity.markov import TwoStateModel
from longevity.pricing import MortalityOptionValue, PriceResult, VolatilityDecay
from longevity.settlement import CashflowSeries, FlatPolicy, PolicySchedule
from longevity.simulate import GbmParams, SimSummary
from longevity.stable import StableParams

# (constructor, args, kwargs, one field changed, repr, hashable)
RECORDS = [
    (StableParams, (1.5,), {"beta": 0.25}, {"delta": 1.0},
     "StableParams(alpha=1.5, beta=0.25, gamma=1.0, delta=0.0)", True),
    (LifeTable, (98, [0.25, 0.5, 1.0]), {}, {"start_age": 97},
     "LifeTable(start_age=98, qx=array([0.25, 0.5 , 1.  ]))", False),
    (MortalityAssumptions, (1.25,), {}, {"improvement": 0.01},
     "MortalityAssumptions(multiplier=1.25, improvement=0.0)", True),
    (Mesh1D, (0.0, 1.0, 5), {}, {"j_count": 6},
     "Mesh1D(a=0.0, b=1.0, j_count=5)", True),
    (LayerSolution, (np.array([1.0, 0.5, 0.0]), 0.25, False), {}, {"lam": -0.25},
     "LayerSolution(values=array([1. , 0.5, 0. ]), lam=0.25, oscillatory=False)", False),
    (TwoPointBVP, (math.exp, math.cos, math.sin, math.sqrt), {"beta0": 1.0, "beta1": 0.0},
     {"beta1": 2.0},
     "TwoPointBVP(sigma=<built-in function exp>, mu=<built-in function cos>, "
     "b_coef=<built-in function sin>, f=<built-in function sqrt>, beta0=1.0, beta1=0.0)", True),
    (SimSummary, (3, 2, 4, 8 / 3), {"histogram": {2: 2, 4: 1}}, {"mean": 2.5},
     "SimSummary(n=3, mode=2, max_year=4, mean=2.6666666666666665)", False),
    (GbmParams, (0.05, 0.2, 100.0), {}, {"s0": 90.0},
     "GbmParams(rate=0.05, sigma=0.2, s0=100.0)", True),
    (FlatPolicy, (100.0, 1000.0, 0.05), {}, {"r": 0.06},
     "FlatPolicy(p=100.0, b=1000.0, r=0.05)", True),
    (PolicySchedule, ([100, 120], [1000, 1100.5], 0.05), {}, {"r": 0.06},
     "PolicySchedule(premiums=(100.0, 120.0), benefits=(1000.0, 1100.5), r=0.05)", True),
    (CashflowSeries, ([-100, 60, 60],), {}, {"flows": [-100, 60, 61]},
     "CashflowSeries(flows=(-100.0, 60.0, 60.0))", True),
    (VolatilityDecay, (0.3, 0.5), {}, {"decay": 0.0},
     "VolatilityDecay(sigma0=0.3, decay=0.5)", True),
    (PriceResult, (np.array([1.0, 2.0]), np.array([0.5, 0.25])), {}, {"exercise_times": 1.0},
     "PriceResult(grid=array([1., 2.]), values=array([0.5 , 0.25]), exercise_times=None, "
     "exercise_boundary=None)", False),
    (MortalityOptionValue, (51.5, 0.75, 0.125, 52.25), {}, {"pde_value": 0.5},
     "MortalityOptionValue(mc_value=51.5, mc_std_error=0.75, pde_value=0.125, "
     "exact_value=52.25)", True),
    (TwoStateModel, (0.1,), {}, {"rate": 0.2}, "TwoStateModel(rate=0.1)", True),
]


def _plain(obj):
    """The instance's fields, arrays as (dtype, list), for comparing copies."""
    return {name: (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
            for name, value in vars(obj).items()}


@pytest.fixture(params=RECORDS, ids=lambda case: case[0].__name__)
def case(request):
    cls, args, kwargs, change, text, hashable = request.param
    return cls(*args, **kwargs), change, text, hashable


def test_record_repr_text(case):
    obj, _, text, _ = case
    assert repr(obj) == text


def test_record_equality_and_hash(case):
    obj, change, _, hashable = case
    # the same field objects: equal without comparing arrays elementwise
    twin = type(obj)(**vars(obj))
    assert twin == obj and not twin != obj
    assert obj.__eq__(object()) is NotImplemented
    assert obj != "record"
    changed = dict(vars(obj), **change)
    assert type(obj)(**changed) != obj
    if hashable:
        assert hash(obj) == hash(twin) == hash(tuple(vars(obj).values()))
        assert len({obj, twin}) == 1
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_record_pickle_round_trip(case, protocol):
    obj, _, text, hashable = case
    loaded = pickle.loads(pickle.dumps(obj, protocol))
    assert type(loaded) is type(obj)
    assert repr(loaded) == text
    assert _plain(loaded) == _plain(obj)
    if hashable:
        assert loaded == obj and hash(loaded) == hash(obj)


def test_record_rejects_assignment_and_deletion(case):
    obj, _, text, _ = case
    kept = _plain(obj)
    for name in [*vars(obj), "extra"]:
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(obj, name, 1.0)
    for name in vars(obj):
        with pytest.raises(AttributeError, match=repr(name)):
            delattr(obj, name)
    assert _plain(obj) == kept and repr(obj) == text


def test_record_arguments_by_position_keyword_and_default():
    assert StableParams(1.5, 0.25, 1.0, 0.0) == StableParams(beta=0.25, alpha=1.5)
    assert PriceResult(np.ones(2), np.ones(2)).exercise_boundary is None
    with pytest.raises(TypeError):
        FlatPolicy(100.0, 1000.0)
    with pytest.raises(TypeError):
        FlatPolicy(100.0, 1000.0, 0.05, 0.06)
    with pytest.raises(TypeError):
        FlatPolicy(100.0, 1000.0, 0.05, p=90.0)
    with pytest.raises(TypeError):
        FlatPolicy(100.0, 1000.0, rate=0.05)
