"""What the benchmark's tracer looks up in tsakit must keep existing.

`bench/tracing.py` wraps tsakit functions by (module, attribute) and reads
a few fields off their results.  A lookup that stops resolving is skipped
there with only a warning in a traced run, and its per-layer metric reads
as unmeasured; these checks make such a removal fail the test suite.
"""

import importlib.util
import inspect
import pathlib

from tsakit import simulator
from tsakit.mkprobit import train

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
