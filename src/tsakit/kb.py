"""Knowledge-base generation and storage.

A plan sweeps a grid of load levels, randomized dispatches, and fault
locations over one case.  Each grid cell becomes a simulated scenario,
labelled on the clean trajectory and summarised by the 23 features.  The
whole knowledge base is a pure function of (case, plan), every random
draw being derived from the plan's master seed through a documented
counter scheme: scenario number `k` dispatches with the stream seeded by
(master_seed, k, 0) and, when measurement noise is requested, perturbs
its channels with the stream seeded by (master_seed, k, 1).

Each network of a plan, every load level intact and with each fault bus
grounded, is reduced once.  Every cell's equilibrium is a lane of one
batched Newton solve on its level's intact network.  Solved cells are
integrated as the lanes of one batched trajectory, each on its own
fault-on network; labels, noise and features fill plan-order arrays, and
a lane that went non-finite is discarded like a cell without equilibrium.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DegenerateKnowledgeBaseError,
    FormatError,
    InvalidArgumentError,
    json_real,
    json_typed,
    read_text,
    require_count,
)
from .features import FEATURE_NAMES, extract_features
from .network import NetworkCase, reduce_to_generators, solve_equilibrium_batch
from .network import solve_equilibrium  # noqa: F401  (wrapped by bench/tracing.py)
from .simulator import Trajectory, label, simulate_batch
from .simulator import simulate  # noqa: F401  (wrapped by bench/tracing.py)

KB_FORMAT = 1

# Concentration of the Dirichlet dispatch draw; higher keeps shares closer
# to uniform and equilibria solvable.
DISPATCH_CONCENTRATION = 8.0

NOISE_MAX = 0.05

# More than this fraction of failed grid cells means the plan does not fit
# the case.
DISCARD_LIMIT = 0.20

# Most cells one `simulate_batch` call integrates.  Lanes are independent,
# so this bounds memory and never changes results.
BATCH_CELLS = 256


def default_load_levels() -> tuple:
    """0.85 through 1.30 of base load in steps of 0.05."""
    return tuple(round(0.85 + 0.05 * k, 2) for k in range(10))


@dataclass(frozen=True)
class ScenarioPlan:
    fault_buses: tuple
    load_levels: tuple = ()
    dispatches_per_level: int = 5
    fault_clearing_cycles: int = 5
    observation_horizon_s: float = 5.0
    master_seed: int = 0

    def __post_init__(self):
        if not self.load_levels:
            object.__setattr__(self, "load_levels", default_load_levels())
        if not self.fault_buses:
            raise InvalidArgumentError("plan needs at least one fault bus")
        if len(set(self.fault_buses)) != len(self.fault_buses):
            raise InvalidArgumentError("fault buses must be distinct")
        if not all(0 < lv < np.inf for lv in self.load_levels):
            raise InvalidArgumentError("load levels must be positive and finite")
        # Scenario ids label a level to two decimals; each label must be unique.
        level_labels = {f"{lv:.2f}" for lv in self.load_levels}
        if len(level_labels) != len(self.load_levels):
            raise InvalidArgumentError("load levels must differ at two decimals")
        require_count(self.dispatches_per_level, "dispatches_per_level")
        require_count(self.fault_clearing_cycles, "fault_clearing_cycles")
        if not 0 < self.observation_horizon_s < np.inf:
            raise InvalidArgumentError("observation horizon must be positive and finite")
        require_count(self.master_seed, "master_seed", minimum=0)

    @property
    def n_planned(self) -> int:
        return len(self.load_levels) * self.dispatches_per_level * len(self.fault_buses)

    def cells(self):
        """Yield (counter, load_level, dispatch_index, fault_bus) in plan order."""
        counter = 0
        for level in self.load_levels:
            for di in range(self.dispatches_per_level):
                for bus in self.fault_buses:
                    yield counter, level, di, bus
                    counter += 1


@dataclass(frozen=True)
class KnowledgeBase:
    """Labelled feature rows generated from one case and plan.

    Row i of `feature_matrix` (N x 23, read-only) is sample `ids[i]` with
    label `labels[i]` (+1 stable, -1 unstable).
    """

    case_id: str
    plan: ScenarioPlan
    feature_matrix: np.ndarray
    labels: np.ndarray
    ids: tuple
    noise_max_rel_error: float = 0.0
    discarded: tuple = ()

    def __post_init__(self):
        matrix = self.feature_matrix.view()
        matrix.flags.writeable = False
        object.__setattr__(self, "feature_matrix", matrix)

    @property
    def n_samples(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray


def _stream_seed(master_seed: int, counter: int, stream: int) -> int:
    """Collapse the documented (master, counter, stream) triple to one int."""
    return int(np.random.SeedSequence((master_seed, counter, stream)).generate_state(1, np.uint64)[0])


def dispatch_shares(n_generators: int, dispatch_seed: int) -> np.ndarray:
    """Dirichlet share of total demand assigned to each machine."""
    require_count(dispatch_seed, "dispatch_seed", minimum=0)
    rng = np.random.default_rng(dispatch_seed)
    return rng.dirichlet(np.full(n_generators, DISPATCH_CONCENTRATION))


def dispatch_pm(case: NetworkCase, load_scale: float, dispatch_seed: int) -> np.ndarray:
    """Mechanical input per machine: the dispatch shares of the scaled load."""
    return dispatch_shares(case.n_generators, dispatch_seed) * (case.total_load_p * load_scale)


def inject_noise(trajectory: Trajectory, max_rel_error: float, seed) -> Trajectory:
    """Multiplicative measurement error on the observable channels.

    Every sampled value m of the rotor angle, speed deviation, and
    electrical power channels becomes m * (1 + eps) with eps drawn
    uniformly from [-max_rel_error, +max_rel_error], one independent draw
    per value.  Mechanical input and inertia are model constants, not
    measurements, and stay untouched.  A batch takes one seed per lane, and
    each lane draws the three channels as a lone trajectory with its seed.
    """
    if not 0 <= max_rel_error <= NOISE_MAX:
        raise InvalidArgumentError(
            f"max_rel_error must lie in [0, {NOISE_MAX}], got {max_rel_error}"
        )
    if max_rel_error == 0:
        return trajectory
    lanes = trajectory.delta.shape[:-2]
    seeds = list(seed) if lanes else [seed]
    if lanes and len(seeds) != lanes[0]:
        raise InvalidArgumentError("a batched trajectory needs one noise seed per lane")
    size = (3,) + trajectory.delta.shape[-2:]
    draws = [np.random.default_rng(s).uniform(-max_rel_error, max_rel_error, size) for s in seeds]
    eps = np.moveaxis(np.array(draws).reshape(lanes + size), -3, 0)
    noisy = zip(("delta", "omega_dev", "pe"), 1.0 + eps)
    return replace(trajectory, **{name: getattr(trajectory, name) * f for name, f in noisy})


def generate_kb(
    case: NetworkCase,
    plan: ScenarioPlan,
    noise_max_rel_error: float = 0.0,
) -> KnowledgeBase:
    """Simulate the whole plan grid and collect labelled feature vectors.

    Grid cells whose equilibrium cannot be solved, or whose integration
    diverges, are discarded and recorded in plan order; more than
    DISCARD_LIMIT of them, or a knowledge base left with a single class,
    aborts generation.  Solved cells are integrated together, BATCH_CELLS
    at a time.  Labels always come from the clean trajectory; noise, when
    requested, only affects the features.
    """
    if not 0 <= noise_max_rel_error <= NOISE_MAX:
        raise InvalidArgumentError(f"noise level must lie in [0, {NOISE_MAX}]")
    if case.total_load_p <= 0:
        raise InvalidArgumentError("case carries no active load to dispatch")

    # Every network of the plan, reduced once: networks[i, 0] is load level
    # i intact and networks[i, 1 + j] the same with fault bus j grounded.
    buses = (None, *plan.fault_buses)
    networks = np.array(
        [[reduce_to_generators(case, lv, fault_bus=b) for b in buses] for lv in plan.load_levels]
    )
    # Plan-order arrays: cell k dispatches from stream (master, k, 0) and
    # runs on the networks of its level and fault bus.
    ids, pm = [], []
    for counter, level, di, bus in plan.cells():
        ids.append(f"lv{level:.2f}/d{di}/b{bus}")
        pm.append(dispatch_pm(case, level, _stream_seed(plan.master_seed, counter, 0)))
    grid = (len(plan.load_levels), plan.dispatches_per_level, len(plan.fault_buses))
    level_of, _, bus_of = np.unravel_index(np.arange(plan.n_planned), grid)
    equilibrium, _, failures = solve_equilibrium_batch(case, networks[level_of, 0], np.stack(pm))
    timing = plan.fault_clearing_cycles, plan.observation_horizon_s

    # Integrate the solved cells in batches and fill plan-order arrays; a
    # diverged lane is dropped from its batch and stays unfilled.
    solved = np.flatnonzero([f is None for f in failures])
    kept = np.zeros(plan.n_planned, dtype=bool)
    rows = np.empty((plan.n_planned, len(FEATURE_NAMES)))
    labels = np.empty(plan.n_planned, dtype=int)
    for start in range(0, len(solved), BATCH_CELLS):
        batch = solved[start : start + BATCH_CELLS]
        faulted = networks[level_of[batch], 1 + bus_of[batch]]
        trajectory, first_bad = simulate_batch(case, equilibrium.lanes(batch), faulted, *timing)
        finite = first_bad == trajectory.n_samples
        counters = batch[finite]
        if not finite.all():
            trajectory = trajectory.lanes(finite)
        kept[counters] = True
        labels[counters] = label(trajectory).value
        if noise_max_rel_error > 0:
            seeds = [_stream_seed(plan.master_seed, int(k), 1) for k in counters]
            trajectory = inject_noise(trajectory, noise_max_rel_error, seeds)
        rows[counters] = extract_features(trajectory)

    labels = labels[kept]
    discarded = [sid for sid, ok in zip(ids, kept) if not ok]
    if len(discarded) > DISCARD_LIMIT * plan.n_planned:
        raise DegenerateKnowledgeBaseError(
            f"{len(discarded)} of {plan.n_planned} scenarios were discarded; "
            "the plan does not fit the case"
        )
    present = set(labels.tolist())
    if present != {-1, 1}:
        raise DegenerateKnowledgeBaseError(
            f"knowledge base holds classes {sorted(present)}; need both +1 and -1"
        )
    return KnowledgeBase(
        case_id=case.case_id,
        plan=plan,
        feature_matrix=rows[kept],
        labels=labels,
        ids=tuple(sid for sid, ok in zip(ids, kept) if ok),
        noise_max_rel_error=noise_max_rel_error,
        discarded=tuple(discarded),
    )


def split(kb: KnowledgeBase, n_train: int, seed) -> Split:
    """Deterministic shuffled train/test partition of the sample indices."""
    n = kb.n_samples
    if not 0 < n_train < n:
        raise InvalidArgumentError(f"n_train must lie strictly between 0 and {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return Split(train_indices=perm[:n_train], test_indices=perm[n_train:])


# ---------------------------------------------------------------------------
# File format: one JSON header line, then one JSON record per sample.


def _plan_from_doc(doc: dict) -> ScenarioPlan:
    counts = ("dispatches_per_level", "fault_clearing_cycles", "master_seed")
    return ScenarioPlan(
        fault_buses=tuple(json_typed(b, int, "fault bus") for b in doc["fault_buses"]),
        load_levels=tuple(json_real(doc["load_levels"], "load_levels", 1).tolist()),
        observation_horizon_s=json_real(doc["observation_horizon_s"], "observation_horizon_s"),
        **{k: json_typed(doc[k], int, k) for k in counts},
    )


def kb_to_text(kb: KnowledgeBase) -> str:
    header = {
        "format": KB_FORMAT,
        "case_id": kb.case_id,
        "plan": asdict(kb.plan),  # tuples dump as JSON arrays; keys are sorted below
        "features": list(FEATURE_NAMES),
        "noise_max_rel_error": kb.noise_max_rel_error,
        "discarded": list(kb.discarded),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for sid, lab, row in zip(kb.ids, kb.labels, kb.feature_matrix):
        record = {
            "id": sid,
            "label": int(lab),
            "features": [float(v) for v in row],
        }
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def kb_from_text(text: str) -> KnowledgeBase:
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty knowledge-base document")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad header: {exc}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != KB_FORMAT:
        raise FormatError("unsupported knowledge-base format", line=1)
    if list(header.get("features", [])) != list(FEATURE_NAMES):
        raise FormatError("feature order in header does not match Tz1..Tz23", line=1)
    try:
        plan = _plan_from_doc(header["plan"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"header plan is incomplete or invalid: {exc}", line=1) from None
    try:
        noise_max_rel_error = json_real(
            header.get("noise_max_rel_error", 0.0), "noise_max_rel_error", line=1
        )
    except OverflowError as exc:
        raise FormatError(f"bad header field: {exc}", line=1) from None
    if not 0.0 <= noise_max_rel_error <= NOISE_MAX:
        raise FormatError(f"noise_max_rel_error must lie in [0, {NOISE_MAX}]", line=1)
    discarded = header.get("discarded", [])
    if not isinstance(discarded, list) or not all(isinstance(sid, str) for sid in discarded):
        raise FormatError("discarded must be a list of scenario ids", line=1)

    rows = []
    labels = []
    ids = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad record: {exc}", line=lineno) from None
        try:
            values = json_real(rec["features"], "features", 1, lineno)
            lab = rec["label"]
            sid = str(rec["id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"record is incomplete: {exc}", line=lineno) from None
        json_typed(lab, int, "label", line=lineno)
        if values.shape != (len(FEATURE_NAMES),):
            raise FormatError(
                f"record carries {values.size} features, expected {len(FEATURE_NAMES)}",
                line=lineno,
            )
        if lab not in (-1, 1):
            raise FormatError(f"label must be +1 or -1, got {lab}", line=lineno)
        rows.append(values)
        labels.append(lab)
        ids.append(sid)
    if not rows:
        raise FormatError("knowledge base holds no records")
    matrix = np.array(rows)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        record_lines = [k for k, line in enumerate(lines[1:], start=2) if line.strip()]
        lineno = record_lines[finite.argmin()]
        raise FormatError("record carries a non-finite feature", line=lineno)
    return KnowledgeBase(
        case_id=str(header.get("case_id", "")),
        plan=plan,
        feature_matrix=matrix,
        labels=np.array(labels, dtype=int),
        ids=tuple(ids),
        noise_max_rel_error=noise_max_rel_error,
        discarded=tuple(discarded),
    )


def save_kb(kb: KnowledgeBase, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(kb_to_text(kb))


def load_kb(path) -> KnowledgeBase:
    return kb_from_text(read_text(path))


def file_sha256(path) -> str:
    """Hex digest used by reports to pin the knowledge base they used."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
