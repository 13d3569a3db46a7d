"""Span tracing from outside the program, and the per-layer metrics.

The metric names and units are listed in BENCHMARK.json under
"per_layer"; `Tracer.layer_metrics` computes each of them.

A traced run replaces public tsakit functions with timing wrappers under
the module attribute where their caller looks them up (for example
`tsakit.kb.simulate`, which `generate_kb` calls, and
`tsakit.simulator.simulate`, which the single-scenario path calls).
Nothing under `src/` is edited; `Tracer.close` puts every original back.

Spans stay in memory as (id, parent, request, name, start, end) and are
written out when the run ends.  Per-name totals and self times are
accumulated as spans close, so a run that records more spans than
`max_spans` still reports exact layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

import numpy as np

from tsakit import experiments, kb, mkprobit, network, simulator

LAYERS = ("network", "simulator", "features", "kb", "kernels", "mkprobit", "experiments")

# (module, attribute, span name): one entry per place a caller looks a
# function up.  The span name is "<layer>.<function>".
WRAPPED = (
    (network, "reduce_to_generators", "network.reduce_to_generators"),
    (kb, "reduce_to_generators", "network.reduce_to_generators"),
    (simulator, "reduce_to_generators", "network.reduce_to_generators"),
    (network, "solve_equilibrium", "network.solve_equilibrium"),
    (kb, "solve_equilibrium", "network.solve_equilibrium"),
    (simulator, "simulate", "simulator.simulate"),
    (kb, "simulate", "simulator.simulate"),
    (simulator, "label", "simulator.label"),
    (kb, "label", "simulator.label"),
    (kb, "extract_features", "features.extract_features"),
    (kb, "dispatch_shares", "kb.dispatch_shares"),
    (kb, "generate_kb", "kb.generate_kb"),
    (kb, "save_kb", "kb.save_kb"),
    (kb, "load_kb", "kb.load_kb"),
    (kb, "split", "kb.split"),
    (experiments, "make_split", "kb.split"),
    (experiments, "base_gram", "kernels.base_gram"),
    (experiments, "median_width", "kernels.median_width"),
    (mkprobit, "cross_gram", "kernels.cross_gram"),
    (experiments, "train", "mkprobit.train"),
    (mkprobit, "update_regressors_and_scales", "mkprobit.update_regressors_and_scales"),
    (mkprobit, "update_auxiliaries", "mkprobit.update_auxiliaries"),
    (mkprobit, "resample_beta", "mkprobit.resample_beta"),
    (mkprobit, "lower_bound", "mkprobit.lower_bound"),
    (mkprobit, "predictive_distribution", "mkprobit.predictive_distribution"),
    (mkprobit, "model_probabilities", "mkprobit.model_probabilities"),
    (experiments, "model_probabilities", "mkprobit.model_probabilities"),
    (experiments, "sweep", "experiments.sweep"),
    (experiments, "run_scheme", "experiments.run_scheme"),
    (experiments, "train_model", "experiments.train_model"),
    (experiments, "evaluate_model", "experiments.evaluate_model"),
)

class _NameStats:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = Counter()


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self, max_spans: int = 20_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.stats = {}
        self.counters = Counter()
        self.request = 0
        self._stack = []   # open spans: [id, name, start, child_time]
        self._open = Counter()
        self._next_id = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list, error: str | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._open[frame[1]] -= 1
        duration = end - frame[2]
        self_time = duration - frame[3]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        st = self.stats.get(frame[1])
        if st is None:
            st = self.stats[frame[1]] = _NameStats()
        st.calls += 1
        st.total += duration
        st.self_time += self_time
        if error is not None:
            st.errors[error] += 1
        if self._open["kb.generate_kb"] and frame[1].startswith("simulator."):
            self.counters["simulator_self_in_generate_s"] += self_time
        if len(self.spans) < self.max_spans:
            self.spans.append(
                (frame[0], parent[0] if parent else None, self.request, frame[1], frame[2], end)
            )
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work."""
        frame = self._enter(name)
        try:
            yield
        except Exception as exc:
            self._exit(frame, type(exc).__name__)
            raise
        self._exit(frame, None)

    def _wrap(self, fn, name: str):
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(frame, type(exc).__name__)
                raise
            self._exit(frame, None)
            if on_result is not None:
                on_result(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every lookup site that exists; a missing one stays unmeasured."""
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        prop = kb.KnowledgeBase.__dict__.get("feature_matrix")
        if isinstance(prop, property):
            self._restore.append((kb.KnowledgeBase, "feature_matrix", prop))
            kb.KnowledgeBase.feature_matrix = property(self._wrap(prop.fget, "kb.feature_matrix"))

    def close(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def _calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def _mean_ms(self, name: str, use_self: bool = False) -> float:
        st = self.stats.get(name)
        if not st or not st.calls:
            return float("nan")
        return 1e3 * (st.self_time if use_self else st.total) / st.calls

    def _ratio(self, num: float, den: float) -> float:
        return num / den if den else float("nan")

    def layer_self_times(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += st.self_time
        return out

    def layer_metrics(self, import_s: float) -> dict:
        """Per-layer metrics of the run.

        A `_ms` or `_s` metric is the function's time per call, children
        included, except `simulator.simulate_ms`, which leaves out the
        reductions `simulate` makes.  `network.reduce_calls_per_cell` counts
        reductions per equilibrium solve (one solve per cell);
        `simulator.share` is simulator self time inside `generate_kb` over
        the time of `generate_kb`; `simulator.rk4_steps_per_cell` is
        computed from each trajectory's length and substep count.
        `kb.feature_matrix_calls` is per `train_model` or `evaluate_model`
        call; `mkprobit.iterations` and `mkprobit.jitter_escalations` are
        per fit.  `<layer>.self_share` is the layer's self time over the
        time spent inside benchmark spans.
        """
        st = self.stats
        c = self.counters
        eq = st.get("network.solve_equilibrium")
        sim = st.get("simulator.simulate")
        gen = st.get("kb.generate_kb")
        n_fits = self._calls("mkprobit.train")
        mp = st.get("mkprobit.model_probabilities")
        experiments_calls = self._calls("experiments.train_model") + self._calls(
            "experiments.evaluate_model"
        )
        bench_time = sum(s.total for name, s in st.items() if name.startswith("bench."))
        selfs = self.layer_self_times()
        values = {
            "network.reduce_calls_per_cell": self._ratio(
                self._calls("network.reduce_to_generators"), self._calls("network.solve_equilibrium")
            ),
            "network.reduce_ms": self._mean_ms("network.reduce_to_generators"),
            "network.equilibrium_ms": self._mean_ms("network.solve_equilibrium"),
            "network.equilibrium_fail_ratio": self._ratio(
                eq.errors["EquilibriumFailureError"] if eq else 0, eq.calls if eq else 0
            ),
            "simulator.simulate_ms": self._mean_ms("simulator.simulate", use_self=True),
            "simulator.share": self._ratio(c["simulator_self_in_generate_s"], gen.total if gen else 0),
            "simulator.rk4_steps_per_cell": self._ratio(c["rk4_steps"], sim.calls if sim else 0),
            "simulator.diverged": float(sim.errors["IntegrationDivergedError"] if sim else 0),
            "features.extract_ms": self._mean_ms("features.extract_features"),
            "kb.generate_s": self._mean_ms("kb.generate_kb") / 1e3,
            "kb.save_ms": self._mean_ms("kb.save_kb"),
            "kb.load_ms": self._mean_ms("kb.load_kb"),
            "kb.feature_matrix_calls": self._ratio(self._calls("kb.feature_matrix"), experiments_calls),
            "kb.feature_matrix_ms": self._mean_ms("kb.feature_matrix"),
            "kernels.base_gram_ms": self._mean_ms("kernels.base_gram"),
            "kernels.median_width_ms": self._mean_ms("kernels.median_width"),
            "kernels.cross_gram_ms": self._mean_ms("kernels.cross_gram"),
            "mkprobit.iterations": self._ratio(c["iterations"], n_fits),
            "mkprobit.regressors_ms": self._mean_ms("mkprobit.update_regressors_and_scales"),
            "mkprobit.auxiliaries_ms": self._mean_ms("mkprobit.update_auxiliaries"),
            "mkprobit.resample_beta_ms": self._mean_ms("mkprobit.resample_beta"),
            "mkprobit.lower_bound_ms": self._mean_ms("mkprobit.lower_bound"),
            "mkprobit.jitter_escalations": self._ratio(c["jitter_escalations"], n_fits),
            "mkprobit.predict_ms": self._mean_ms("mkprobit.predictive_distribution"),
            "mkprobit.model_probabilities_ms_per_row": self._ratio(
                1e3 * mp.total if mp else 0.0, c["probability_rows"]
            ),
            "experiments.train_model_s": self._mean_ms("experiments.train_model") / 1e3,
            "experiments.evaluate_ms": self._mean_ms("experiments.evaluate_model"),
            "cli.import_s": import_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_share"] = self._ratio(selfs[layer], bench_time)
        return values

    def write(self, path: str, extra: dict) -> None:
        """Spans as JSON lines after one header line of totals."""
        header = dict(extra)
        header["spans_recorded"] = len(self.spans)
        header["spans_dropped"] = self.dropped
        header["by_name"] = {
            name: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "errors": dict(s.errors),
            }
            for name, s in sorted(self.stats.items())
        }
        header["layer_self_s"] = self.layer_self_times()
        header["counters"] = dict(self.counters)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "request": request, "name": name,
                         "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _count_rk4_steps(counters, args, kwargs, trajectory):
    substeps = kwargs.get("substeps_per_cycle", args[3] if len(args) > 3 else None)
    if substeps is None:
        substeps = simulator.SUBSTEPS_PER_CYCLE
    counters["rk4_steps"] += (trajectory.n_samples - 1) * substeps


def _count_fit(counters, args, kwargs, state):
    counters["iterations"] += len(state.lb_trace)
    counters["jitter_escalations"] += sum("extra jitter" in m for m in state.messages)


def _count_probability_rows(counters, args, kwargs, result):
    counters["probability_rows"] += np.atleast_2d(np.asarray(args[1])).shape[0]


_RESULT_HOOKS = {
    "simulator.simulate": _count_rk4_steps,
    "mkprobit.train": _count_fit,
    "mkprobit.model_probabilities": _count_probability_rows,
}
