"""What the benchmark looks up in tsakit must keep existing.

`bench/tracing.py` wraps tsakit functions by (module, attribute) and reads
a few fields off their results.  A lookup that stops resolving is skipped
there with only a warning in a traced run, and its per-layer metric reads
as unmeasured; these checks make such a removal fail the test suite.
`bench/stages.py` calls the training, prediction and simulation API
directly, and a change there would crash or fail the benchmark run.
"""

import collections
import importlib.util
import inspect
import pathlib

import numpy as np

from tsakit import experiments, kb, mkprobit, simulator
from tsakit.mkprobit import SCALE_SHAPE, init_state, train, update_regressors_and_scales

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
    state = train(toy_grams, targets, max_iters=3)
    assert 1 <= len(state.lb_trace) <= 3
    assert isinstance(state.messages, list)


def test_jitter_escalation_leaves_one_counted_message():
    # The tracer counts escalations as state messages holding "extra jitter".
    # A scale rate that drives one precision entry to -1e-7 needs 1e-6 extra.
    state = init_state([np.eye(2)], np.array([0, 1]))
    state.scale_rate[1] = -SCALE_SHAPE / (state.k_eff_sq[1, 1] + 1e-7)
    update_regressors_and_scales(state)
    assert len(state.messages) == 1
    assert "extra jitter 1e-06" in state.messages[0]
    counters = collections.Counter()
    _load_tracing()._count_fit(counters, (), {}, state)
    assert counters["jitter_escalations"] == 1


def test_prediction_api_keeps_what_the_stages_read(small_kb):
    # The predict stage trains with a positional seed, sizes its arrays from
    # class_labels, takes [0] of model_probabilities' result as the (n, 2)
    # probabilities and reads .probabilities and .label off each prediction.
    split_seed, train_seed = np.random.SeedSequence(0).spawn(2)
    part = kb.split(small_kb, 12, seed=split_seed)
    scheme = experiments.parse_scheme("F1(Kg)+F3(Kg)")
    model = experiments.train_model(small_kb, part.train_indices, scheme, train_seed)
    assert len(model.class_labels) == 2
    rows = small_kb.feature_matrix
    probs = mkprobit.model_probabilities(model, rows)[0]
    assert probs.shape == (len(rows), 2)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-9
    pred = mkprobit.predictive_distribution(model, rows[0])
    assert pred.probabilities.shape == (2,)
    assert pred.label in model.class_labels


def test_train_model_takes_and_ignores_a_fourth_positional_seed(small_kb):
    # The predict stage passes a training seed as the fourth positional
    # argument; training draws nothing from it, so any seed fits the same.
    assert list(inspect.signature(experiments.train_model).parameters)[3] == "seed"
    part = kb.split(small_kb, 12, seed=experiments.split_stream(0))
    scheme = experiments.parse_scheme("F1(Kg)+F2(Kg)+F3(Kp)")
    documents = {
        mkprobit.model_to_document(
            experiments.train_model(small_kb, part.train_indices, scheme, seed)
        )
        for seed in (np.random.SeedSequence(7), np.random.SeedSequence(8), 3)
    }
    assert len(documents) == 1


def test_scenario_takes_a_dispatch_seed():
    # The simulate stage builds each scenario with its dispatch seed.
    scenario = simulator.Scenario(load_scale=1.05, dispatch_seed=3, fault_bus=7)
    assert scenario.dispatch_seed == 3
