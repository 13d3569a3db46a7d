"""What the benchmark's tracer looks up in tsakit must keep existing.

`bench/tracing.py` wraps tsakit functions by (module, attribute) and reads
a few fields off their results.  A lookup that stops resolving is skipped
there with only a warning in a traced run, and its per-layer metric reads
as unmeasured; these checks make such a removal fail the test suite.
"""

import collections
import importlib.util
import inspect
import pathlib

import numpy as np

from tsakit import simulator
from tsakit.mkprobit import init_state, train, update_regressors_and_scales

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_lookup_resolves():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_simulate_takes_substeps_fourth():
    # The RK4 step counter reads the substep count as positional args[3].
    params = list(inspect.signature(simulator.simulate).parameters)
    assert params[3] == "substeps_per_cycle"


def test_train_state_carries_the_fit_counters(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = train(toy_grams, targets, seed=0, max_iters=3)
    assert 1 <= len(state.lb_trace) <= 3
    assert isinstance(state.messages, list)


def test_jitter_escalation_leaves_one_counted_message():
    # The tracer counts escalations as state messages holding "extra jitter".
    # A scale rate that drives one precision entry to -1e-7 needs 1e-6 extra.
    state = init_state([np.eye(2)], np.array([0, 1]))
    state.scale_rate[1] = -state.scale_shape[1] / (state.k_eff_sq[1, 1] + 1e-7)
    update_regressors_and_scales(state)
    assert len(state.messages) == 1
    assert "extra jitter 1e-06" in state.messages[0]
    counters = collections.Counter()
    _load_tracing()._count_fit(counters, (), {}, state)
    assert counters["jitter_escalations"] == 1
