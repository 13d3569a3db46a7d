"""What the benchmark runs: set-up, the four stages, and their checks.

Each stage times one kind of work a tsakit user runs, on inputs derived
from a seed, one unit of work per `step()`, and checks every output.  A
stage's `cycle` is the number of units that make up its whole job (both
kb-gen plans, all eight sweep schemes); every run measures at least one
cycle of every stage.  An operation fails when it raises or breaks a
check; `Tally` counts both.
Stages call tsakit through its module attributes (`kbmod.generate_kb`,
`network.solve_equilibrium`, ...), which is where a traced run puts its
wrappers.

Outputs are checked against the files tsakit writes and against the
committed knowledge base, not against tsakit's own summaries: a KB pass
re-reads the KB text it saved, and a single-scenario label must match the
label the committed KB holds for that cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from tsakit import experiments, kb as kbmod, mkprobit, network, simulator

# Default-plan KB written by `tsakit gen-kb --seed 0` (400 cells, 383 kept).
# The training and prediction stages read it, so they neither pay for
# simulation nor move when the simulator changes.
KB_FILE = os.path.join("data", "kb_default_seed0.txt")
KB_SHA256 = "44c0c05f3a7ddabf727bb6807541770856b29b94b011a0c5c27c8122a55d96da"
N_FEATURES = 23

TRAIN_SIZE = 200
SWEEP_TABLE = "table4"
PREDICT_SCHEME = "F1(Kg)+F2(Kg)+F3(Kg)"
INSTABILITY_DEG = 360.0
PROB_SUM_TOL = 1e-9

# Inputs of the reference stages: the same on every workload and seed.
REFERENCE_SEED = 0
REFERENCE_LEVELS = (1.20,)   # 8 cells, both classes, none discarded

# Share of the measured time that goes to repeating the set-up.
SETUP_SHARE = 0.05

# Independent random streams derived from one seed.
_STREAM_REQUESTS = 1
_STREAM_ROW_ORDER = 2


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: " + "; ".join(problems))


@dataclass
class Inputs:
    """What set-up builds: the case, the committed KB, and its rows."""

    case: object
    kb: object
    plan: dict          # the committed KB's plan, from its header
    ids: list
    rows: np.ndarray    # (N, 23) features in file order
    labels: np.ndarray  # (N,) +1 / -1
    model: object       # served by the seeded predict-stream stage, else None


@dataclass
class Run:
    """State shared by the stages of one benchmark run."""

    inputs: Inputs
    out_dir: str
    tracer: object = None
    tally: Tally = field(default_factory=Tally)
    digests: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def next_request(self) -> None:
        if self.tracer:
            self.tracer.request += 1

    def keep_digest(self, key: str, digest: str) -> list:
        """Record one pass's digest; a later pass must reproduce it."""
        first = self.digests.setdefault(key, digest)
        return [] if digest == first else [f"{key} digest {digest[:12]} differs from {first[:12]}"]

    def failed(self, what: str, exc: Exception) -> None:
        self.tally.add(what, [f"{type(exc).__name__}: {exc}"])


def read_kb_text(text: str):
    """Header, ids, feature rows and labels of a KB file, read directly."""
    lines = text.splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:] if line.strip()]
    ids = [r["id"] for r in records]
    rows = np.array([r["features"] for r in records], dtype=float).reshape(len(records), -1)
    labels = np.array([r["label"] for r in records], dtype=int)
    return header, ids, rows, labels


def _fit(kb, seed: int):
    """Split and train the way `tsakit train --seed` does."""
    split_seed, train_seed = np.random.SeedSequence(seed).spawn(2)
    part = kbmod.split(kb, TRAIN_SIZE, seed=split_seed)
    scheme = experiments.parse_scheme(PREDICT_SCHEME)
    model = experiments.train_model(kb, part.train_indices, scheme, train_seed)
    return model, part


def setup(bench_dir: str, seed: int, with_model: bool) -> Inputs:
    """Read and verify the committed KB; train the model predict-stream serves."""
    path = os.path.join(bench_dir, KB_FILE)
    with open(path, "rb") as fh:
        data = fh.read()
    if sha256_hex(data) != KB_SHA256:
        raise RuntimeError(f"{KB_FILE} does not have the committed SHA-256 {KB_SHA256}")
    header, ids, rows, labels = read_kb_text(data.decode("utf-8"))
    kb = kbmod.load_kb(path)
    return Inputs(
        case=network.load_bundled_case(),
        kb=kb,
        plan=header["plan"],
        ids=ids,
        rows=rows,
        labels=labels,
        model=_fit(kb, seed)[0] if with_model else None,
    )


class Setup:
    """One unit: the run's set-up once more, timed; what it builds is dropped.

    Set-up takes some 20 ms on a workload that trains nothing.  Repeated
    back to back, all repeats would land in one state of a shared machine,
    so they are spread through the run like any stage's units.
    """

    name = "setup"
    cycle = 1

    def __init__(self, run: Run, bench_dir: str, seed: int, with_model: bool, first_s: float):
        self.run, self.args = run, (bench_dir, seed, with_model)
        self.times = [first_s]

    def step(self) -> None:
        with self.run.span("bench.setup"):
            started = time.perf_counter()
            setup(*self.args)
            self.times.append(time.perf_counter() - started)

    def metrics(self) -> dict:
        self.run.samples["setup.repeats"] = len(self.times)
        return {"setup_s": float(np.median(self.times))}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _cycle_rate(work: float, times_by_job) -> float:
    """Work per second of one whole cycle of jobs, the time of each job
    being the mean over its runs: a run that stops part way through a
    cycle does not tilt the rate towards the jobs that come first."""
    if not all(times_by_job):
        return 0.0
    return _rate(work, sum(float(np.mean(t)) for t in times_by_job))


def _percentile(seconds_list, q: float) -> float:
    return float(np.percentile(1e3 * np.asarray(seconds_list), q)) if seconds_list else 0.0


def _mean_ms(seconds_list) -> float:
    return 1e3 * float(np.mean(seconds_list)) if seconds_list else 0.0


# ---------------------------------------------------------------------------
# kb-gen: generate_kb over a plan grid, then save the KB as `gen-kb` does.


def kb_gen_plan(inputs: Inputs, master_seed: int, load_levels=None):
    """The committed plan's buses with one dispatch per level, on the
    given load levels or on all of the committed plan's."""
    p = inputs.plan
    return kbmod.ScenarioPlan(
        fault_buses=tuple(p["fault_buses"]),
        load_levels=tuple(load_levels or p["load_levels"]),
        dispatches_per_level=1,
        fault_clearing_cycles=p["fault_clearing_cycles"],
        observation_horizon_s=p["observation_horizon_s"],
        master_seed=master_seed,
    )


def kb_gen_plans(inputs: Inputs, master_seed: int):
    """The kb-gen grid, all buses by all ten default load levels (80
    cells), as two plans of alternate levels.  Each half spans the load
    range, so it holds both classes and the discards of high load; two
    passes of about 10 s each let the reference stages run between them."""
    levels = tuple(inputs.plan["load_levels"])
    return [kb_gen_plan(inputs, master_seed, levels[k::2]) for k in (0, 1)]


def _check_kb_text(text: str, n_planned: int) -> list:
    header, _, rows, labels = read_kb_text(text)
    problems = []
    if len(labels) + len(header["discarded"]) != n_planned:
        problems.append(
            f"kept {len(labels)} + discarded {len(header['discarded'])} != planned {n_planned}"
        )
    if rows.shape != (len(labels), N_FEATURES) or not np.all(np.isfinite(rows)):
        problems.append("a row does not hold 23 finite features")
    if set(labels.tolist()) != {-1, 1}:
        problems.append(f"labels {sorted(set(labels.tolist()))} are not both of -1 and +1")
    return problems


class KbGen:
    """One unit: generate_kb over the next plan of the cycle, then save_kb."""

    def __init__(self, run: Run, plans, name: str):
        self.run, self.plans, self.name = run, plans, name
        self.cycle = len(plans)
        self.out = os.path.join(run.out_dir, f"{name}.kb.txt")
        self.times = [[] for _ in plans]
        self.units = 0

    def step(self) -> None:
        run = self.run
        job = self.units % self.cycle
        self.units += 1
        plan, what = self.plans[job], f"{self.name}.{job}"
        run.next_request()
        try:
            with run.span(f"bench.{self.name}"):
                started = time.perf_counter()
                made = kbmod.generate_kb(run.inputs.case, plan)
                kbmod.save_kb(made, self.out)
                self.times[job].append(time.perf_counter() - started)
        except Exception as exc:  # a raising operation is a failed one
            run.failed(what, exc)
            return
        with open(self.out, "rb") as fh:
            data = fh.read()
        problems = _check_kb_text(data.decode("utf-8"), plan.n_planned)
        problems += run.keep_digest(what, sha256_hex(data))
        run.tally.add(what, problems)

    def metrics(self) -> dict:
        self.run.samples[f"{self.name}.passes"] = sum(map(len, self.times))
        cells = sum(p.n_planned for p in self.plans)
        return {"kbgen_cells_per_s": _cycle_rate(cells, self.times)}


# ---------------------------------------------------------------------------
# simulate-one: closed loop, one client, one scenario per request, on the
# `tsakit simulate` path (reduce -> equilibrium -> simulate -> label).


def kept_cells(inputs: Inputs):
    """(load level, dispatch seed, fault bus, KB label) of every kept cell.

    Dispatch seeds follow the counter scheme documented in `tsakit.kb`:
    cell number k of the plan draws from SeedSequence((master_seed, k, 0)).
    """
    p = inputs.plan
    levels = [f"{lv:.2f}" for lv in p["load_levels"]]
    buses = list(p["fault_buses"])
    cells = []
    for sid, lab in zip(inputs.ids, inputs.labels):
        lv, di, bus = sid.split("/")
        level_index = levels.index(lv[2:])
        counter = (level_index * p["dispatches_per_level"] + int(di[1:])) * len(buses)
        counter += buses.index(int(bus[1:]))
        seq = np.random.SeedSequence((p["master_seed"], counter, 0))
        dispatch_seed = int(seq.generate_state(1, np.uint64)[0])
        cells.append((float(lv[2:]), dispatch_seed, int(bus[1:]), int(lab)))
    return cells


def _spread_label(delta: np.ndarray, t0_index: int) -> int:
    window = delta[t0_index:]
    spread = float(np.degrees(np.max(window.max(axis=1) - window.min(axis=1))))
    return -1 if spread > INSTABILITY_DEG else 1


class SimulateOne:
    """One unit: one request for a kept cell drawn from the seed."""

    name = "simulate_one"
    cycle = 1

    def __init__(self, run: Run, seed: int):
        self.run = run
        self.cells = kept_cells(run.inputs)
        self.rng = np.random.default_rng([seed, _STREAM_REQUESTS])
        self.latencies = []

    def step(self) -> None:
        run = self.run
        case = run.inputs.case
        p = run.inputs.plan
        level, dispatch_seed, bus, kb_label = self.cells[int(self.rng.integers(len(self.cells)))]
        what = f"simulate lv{level:.2f} b{bus} seed {dispatch_seed}"
        run.next_request()
        try:
            with run.span("bench.simulate_request"):
                started = time.perf_counter()
                scenario = simulator.Scenario(
                    load_scale=level,
                    dispatch_seed=dispatch_seed,
                    fault_bus=bus,
                    fault_clearing_cycles=p["fault_clearing_cycles"],
                    observation_horizon_s=p["observation_horizon_s"],
                )
                shares = kbmod.dispatch_shares(case.n_generators, dispatch_seed)
                pm = shares * (case.total_load_p * level)
                reduced = network.reduce_to_generators(case, level)
                eq = network.solve_equilibrium(case, reduced, pm)
                traj = simulator.simulate(case, scenario, eq)
                lab = simulator.label(traj).value
                self.latencies.append(time.perf_counter() - started)
        except Exception as exc:  # a raising operation is a failed one
            run.failed(what, exc)
            return
        problems = []
        if not all(np.all(np.isfinite(a)) for a in (traj.delta, traj.omega_dev, traj.pe)):
            problems.append("trajectory is not finite")
        if lab != _spread_label(traj.delta, traj.t0_index):
            problems.append(f"label {lab} disagrees with the 360-degree spread rule")
        if lab != kb_label:
            problems.append(f"label {lab} differs from the committed KB label {kb_label}")
        run.tally.add(what, problems)

    def metrics(self) -> dict:
        self.run.samples["simulate.requests"] = len(self.latencies)
        return {
            "simulate_ms_mean": _mean_ms(self.latencies),
            "simulate_ms_p50": _percentile(self.latencies, 50),
            "simulate_ms_p90": _percentile(self.latencies, 90),
        }


# ---------------------------------------------------------------------------
# train-sweep: the table4 scheme ladder over one seed at N = 200, written
# as the `tsakit sweep` CSV.


def _check_fit(accuracy: float, confusion_total: int, n_test: int) -> list:
    problems = []
    if not 0.0 <= accuracy <= 1.0:
        problems.append(f"accuracy {accuracy} is outside [0, 1]")
    if confusion_total != n_test:
        problems.append(f"confusion counts sum to {confusion_total}, not n_test={n_test}")
    return problems


class TrainSweep:
    """One unit: the `sweep` of the next table4 scheme over the seed.

    A cycle is all eight schemes, which is what `tsakit sweep` runs for one
    seed; the schemes share nothing, so sweeping them one at a time does
    the same work.  Each completed cycle is written as the `sweep` CSV.
    """

    def __init__(self, run: Run, seed: int):
        self.run, self.seed = run, seed
        self.name = "train_sweep"
        self.schemes = experiments.SCHEME_TABLES[SWEEP_TABLE]()
        self.cycle = len(self.schemes)
        self.n_test = len(run.inputs.labels) - TRAIN_SIZE
        self.times = [[] for _ in self.schemes]
        self.units = 0
        self.results = []       # of the cycle under way
        self.medians = {}
        self.accuracies = []

    def step(self) -> None:
        run = self.run
        job = self.units % self.cycle
        self.units += 1
        if job == 0:
            self.results, self.medians = [], {}
        scheme = self.schemes[job]
        what = f"fit {scheme.combination} seed {self.seed}"
        run.next_request()
        try:
            with run.span("bench.train_sweep"):
                started = time.perf_counter()
                report = experiments.sweep(
                    run.inputs.kb, [scheme], [self.seed], n_train=TRAIN_SIZE, kb_hash=KB_SHA256
                )
                self.times[job].append(time.perf_counter() - started)
        except Exception as exc:  # a raising operation is a failed one
            run.failed(what, exc)
            self.results = None  # no CSV for this cycle
            return
        res = report.results[0]
        problems = _check_fit(res.accuracy, sum(res.confusion.values()), self.n_test)
        if res.n_test != self.n_test:
            problems.append(f"n_test {res.n_test} != {self.n_test}")
        run.tally.add(what, problems)
        self.accuracies.append(res.accuracy)
        if self.results is None:
            return
        self.results.append(res)
        self.medians.update(report.medians)
        if job == self.cycle - 1:
            whole = experiments.SweepReport(
                results=tuple(self.results), medians=self.medians, n_train=TRAIN_SIZE,
                seeds=(self.seed,), kb_hash=KB_SHA256,
            )
            text = experiments.report_to_csv(whole)
            run.tally.add("sweep csv", run.keep_digest("sweep_csv", sha256_hex(text.encode("utf-8"))))

    def metrics(self) -> dict:
        self.run.samples["sweep.fits"] = len(self.accuracies)
        return {
            "sweep_fits_per_s": _cycle_rate(self.cycle, self.times),
            # accuracies repeat exactly from cycle to cycle
            "sweep_accuracy": float(np.median(self.accuracies[: self.cycle])),
        }


class Fit:
    """One unit: one sweep cell of the prediction scheme, train then score.

    The reference stage for `sweep_fits_per_s`; the model it trains is the
    one the reference prediction stream serves.
    """

    name = "fit"
    cycle = 1

    def __init__(self, run: Run, seed: int):
        self.run, self.seed = run, seed
        self.model = None
        self.times = []
        self.accuracies = []

    def step(self) -> None:
        run = self.run
        run.next_request()
        what = f"fit {PREDICT_SCHEME} seed {self.seed}"
        try:
            with run.span("bench.fit"):
                started = time.perf_counter()
                model, part = _fit(run.inputs.kb, self.seed)
                m = experiments.evaluate_model(model, run.inputs.kb, part.test_indices)
                self.times.append(time.perf_counter() - started)
        except Exception as exc:  # a raising operation is a failed one
            run.failed(what, exc)
            return
        confusion_total = sum(v for k, v in m.items() if k != "accuracy")
        run.tally.add(what, _check_fit(m["accuracy"], confusion_total, len(part.test_indices)))
        self.model = model
        self.accuracies.append(m["accuracy"])

    def metrics(self) -> dict:
        return {
            "sweep_fits_per_s": _rate(len(self.times), sum(self.times)),
            "sweep_accuracy": float(np.median(self.accuracies)) if self.accuracies else 0.0,
        }


# ---------------------------------------------------------------------------
# predict-stream: closed loop, one client, one 23-value row per request;
# each pass over all rows ends with one batch evaluate_model.


class PredictStream:
    """One unit: every row once, in seeded order, then one batch evaluation."""

    name = "predict_stream"
    cycle = 1

    def __init__(self, run: Run, seed: int, model_source):
        self.run = run
        self.model_source = model_source  # called at each pass
        self.order = np.random.default_rng([seed, _STREAM_ROW_ORDER]).permutation(len(run.inputs.rows))
        self.row_times = []
        self.eval_times = []
        self.checked_batch = False

    def step(self) -> None:
        run = self.run
        model = self.model_source()
        if model is None:
            return
        rows, truth = run.inputs.rows, run.inputs.labels
        class_labels = np.asarray(model.class_labels)
        probs = np.zeros((len(rows), len(class_labels)))
        labels = np.zeros(len(rows), dtype=int)
        for i in self.order:
            run.next_request()
            try:
                with run.span("bench.predict_row"):
                    started = time.perf_counter()
                    pred = mkprobit.predictive_distribution(model, rows[i])
                    self.row_times.append(time.perf_counter() - started)
            except Exception as exc:  # a raising operation is a failed one
                run.failed(f"predict row {i}", exc)
                continue
            p = np.asarray(pred.probabilities, dtype=float)
            problems = []
            if not np.all(np.isfinite(p)) or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
                problems.append(f"probabilities {p.tolist()} are not finite or do not sum to 1")
            run.tally.add(f"predict row {i}", problems)
            probs[i] = p
            labels[i] = pred.label

        run.next_request()
        try:
            with run.span("bench.evaluate"):
                started = time.perf_counter()
                m = experiments.evaluate_model(model, run.inputs.kb)
                self.eval_times.append(time.perf_counter() - started)
        except Exception as exc:  # a raising operation is a failed one
            run.failed("evaluate", exc)
            return
        problems = []
        expected = {
            "stable_as_stable": int(np.sum((truth == 1) & (labels == 1))),
            "stable_as_unstable": int(np.sum((truth == 1) & (labels == -1))),
            "unstable_as_stable": int(np.sum((truth == -1) & (labels == 1))),
            "unstable_as_unstable": int(np.sum((truth == -1) & (labels == -1))),
        }
        if {k: m.get(k) for k in expected} != expected or m.get("accuracy") != float(
            np.mean(truth == labels)
        ):
            problems.append(f"batch evaluate_model {m} disagrees with per-row labels {expected}")
        if not self.checked_batch:
            batch = mkprobit.model_probabilities(model, rows)[0]
            mismatched = int(np.sum(class_labels[np.argmax(batch, axis=1)] != labels))
            if mismatched:
                problems.append(f"{mismatched} per-row labels differ from the batch labels")
            self.checked_batch = True
        digest = sha256_hex(labels.astype("<i8").tobytes() + probs.astype("<f8").tobytes())
        problems += run.keep_digest("predictions", digest)
        run.tally.add("evaluate", problems)

    def metrics(self) -> dict:
        self.run.samples["predict.rows"] = len(self.row_times)
        self.run.samples["evaluate.passes"] = len(self.eval_times)
        return {
            "predict_ms_mean": _mean_ms(self.row_times),
            "predict_ms_p50": _percentile(self.row_times, 50),
            "predict_ms_p99": _percentile(self.row_times, 99),
            "eval_rows_per_s": _rate(len(self.run.inputs.rows) * len(self.eval_times),
                                     sum(self.eval_times)),
        }


# ---------------------------------------------------------------------------


@dataclass
class Slot:
    """A stage in the measurement loop, with its share of the run."""

    stage: object
    share: float    # of the measured time
    busy: float = 0.0
    units: int = 0

    def key(self) -> float:
        """How far behind its share the stage would be at the middle of
        its next unit; the stage with the lowest key runs next."""
        return (self.busy + 0.5 * self.mean_unit()) / self.share

    def mean_unit(self) -> float:
        return self.busy / self.units if self.units else 0.0


def workload_slots(run: Run, own: dict, seed: int, setup_stage: Setup) -> list:
    """The workload's own stages on inputs drawn from `seed`, with the
    shares `own` gives them; reference stages on fixed inputs for the
    metrics the workload does not time itself; and the set-up, repeated.

    Every run reports every end-to-end metric.  The reference stages use
    the same inputs on every workload and seed, so their figures carry
    machine noise only, and share the rest of the run equally.  The
    reference fit comes first: the reference prediction stream serves
    the model it trains.
    """
    fit = Fit(run, REFERENCE_SEED)
    seeded = {
        "kb-gen": lambda: KbGen(run, kb_gen_plans(run.inputs, seed), "kb_gen"),
        "simulate-one": lambda: SimulateOne(run, seed),
        "train-sweep": lambda: TrainSweep(run, seed),
        "predict-stream": lambda: PredictStream(run, seed, lambda: run.inputs.model),
    }
    reference = {
        "train-sweep": lambda: fit,
        "predict-stream": lambda: PredictStream(run, REFERENCE_SEED, lambda: fit.model),
        "simulate-one": lambda: SimulateOne(run, REFERENCE_SEED),
        "kb-gen": lambda: KbGen(
            run, [kb_gen_plan(run.inputs, REFERENCE_SEED, REFERENCE_LEVELS)], "reference_kb"
        ),
    }
    refs = [name for name in reference if name not in own]
    rest = (1.0 - SETUP_SHARE - sum(own.values())) / len(refs)
    return (
        [Slot(reference[name](), rest) for name in refs]
        + [Slot(seeded[name](), share) for name, share in own.items()]
        + [Slot(setup_stage, SETUP_SHARE)]
    )


def measure(slots, seconds: float) -> float:
    """Run the stages' units interleaved for about `seconds` of wall time.

    Weighted fair queueing: the next unit goes to the stage furthest
    behind its share, so each stage's samples spread over the whole run
    and every metric averages over the same stretch of machine time.
    Ties go to the earlier slot.  Once a stage has run a whole cycle of
    its jobs, it starts no unit expected to end past the deadline.
    Returns the wall time of the loop.
    """
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        now = time.perf_counter()
        ready = [s for s in slots if s.units < s.stage.cycle or now + s.mean_unit() <= deadline]
        if not ready:
            return time.perf_counter() - started
        slot = min(ready, key=Slot.key)
        unit_started = time.perf_counter()
        slot.stage.step()
        slot.busy += time.perf_counter() - unit_started
        slot.units += 1
