"""Staged time-domain simulation of the classical swing equations.

A scenario is integrated through three network segments: the pre-fault
network holding its equilibrium, a fault-on network with the faulted bus
grounded through a large shunt, and the restored pre-fault network out to
the observation horizon.  Integration is fixed-step RK4 with ten internal
steps per cycle; the trajectory is sampled once per cycle.  Each segment
is one complex power table per scenario (`network.power_tables`), which
every RK4 stage evaluates with the formula of `network.electrical_power`.
One RK4 loop serves both entry points.  `simulate_batch` takes arrays
only: a batched Equilibrium (`network.solve_equilibrium_batch`), whose
networks are the intact segments, one fault-on network per lane, and the
timing all lanes share; it advances the lanes side by side.  `simulate`
reduces a Scenario's two networks and makes the one-lane call.  A batched
Trajectory leads every series with the lane axis, and `label` reads a
lone trajectory or every lane of a batch at once.

The loop's cost is numpy's per-call dispatch on a few elements per lane,
so it makes as few calls as it can without changing a bit: the step
constants are (B, n) arrays, the stages skip the shape check, and the
first stage of a cycle reuses the Pe stored at that cycle's sample.

At a switching instant the stored electrical power refers to the network
that becomes active there (the rotor state itself is continuous), so the
sample at `t0_index` is the first fault-on sample and the one at
`tcl_index - 1` the last.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationDivergedError, InvalidArgumentError, require_count
from .network import Equilibrium, NetworkCase, _power, power_tables, reduce_to_generators

# Output samples per cycle is fixed at one; this is the internal refinement.
SUBSTEPS_PER_CYCLE = 10

# Cycles of verified equilibrium ahead of fault inception.
PRE_FAULT_CYCLES = 2

# Rotor spread beyond which a case is declared unstable.
INSTABILITY_THRESHOLD_DEG = 360.0


@dataclass(frozen=True)
class Scenario:
    """One planned disturbance on a case.

    `fault_bus` may be None for a no-fault variant, which keeps the
    pre-fault network active throughout and should leave the trajectory
    at its equilibrium.
    """

    load_scale: float
    dispatch_seed: int
    fault_bus: int | None
    fault_clearing_cycles: int = 5
    observation_horizon_s: float = 5.0

    def __post_init__(self):
        if not 0 < self.load_scale < np.inf:
            raise InvalidArgumentError("load_scale must be positive and finite")
        require_count(self.fault_clearing_cycles, "fault_clearing_cycles")
        if not 0 < self.observation_horizon_s < np.inf:
            raise InvalidArgumentError("observation horizon must be positive and finite")


@dataclass(frozen=True)
class Trajectory:
    """Sampled rotor trajectory plus the switching bookkeeping.

    The sampled series have shape (n_samples, n_generators) and share
    indexing; `pm` is constant in time under the classical model and is
    stored once, with shape (n_generators,).  A batch of lanes puts the
    lane axis first: series (n_lanes, n_samples, n_generators) and `pm`
    (n_lanes, n_generators), sharing the time axis, switching indices and
    inertia.
    """

    times_s: np.ndarray
    delta: np.ndarray
    omega_dev: np.ndarray
    pm: np.ndarray
    pe: np.ndarray
    t0_index: int
    tcl_index: int
    inertia: np.ndarray

    def __post_init__(self):
        n = self.times_s.shape[0]
        shape = self.delta.shape
        for name in ("delta", "omega_dev", "pe"):
            arr = getattr(self, name)
            if arr.ndim not in (2, 3) or arr.shape[-2] != n or arr.shape != shape:
                raise InvalidArgumentError(f"series {name} does not match the time axis")
        if self.pm.shape != shape[:-2] + shape[-1:]:
            raise InvalidArgumentError("pm must hold one entry per generator")
        if not (0 < self.t0_index < self.tcl_index < n):
            raise InvalidArgumentError("switching indices must satisfy 0 < t0 < tcl < length")

    @property
    def n_samples(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def n_generators(self) -> int:
        return int(self.delta.shape[-1])

    def lanes(self, index) -> "Trajectory":
        """Lanes of a batch: an integer gives a lone trajectory, a mask a batch."""
        names = ("delta", "omega_dev", "pm", "pe")
        return replace(self, **{name: getattr(self, name)[index] for name in names})


@dataclass(frozen=True)
class StabilityLabel:
    """+1 when the maximum post-inception rotor spread stays within bounds (per lane)."""

    value: int
    max_spread_deg: float


def simulate(
    case: NetworkCase,
    scenario: Scenario,
    equilibrium: Equilibrium,
    substeps_per_cycle: int = SUBSTEPS_PER_CYCLE,
) -> Trajectory:
    """Integrate one scenario and sample it once per cycle.

    The equilibrium supplies the initial state, the mechanical input and
    the intact reduced network; it must belong to the same case and load
    scale (InvalidArgumentError otherwise).  Raises IntegrationDivergedError
    on a non-finite state.
    """
    level, bus = scenario.load_scale, scenario.fault_bus
    intact = reduce_to_generators(case, level)
    if not np.array_equal(equilibrium.network, intact):
        raise InvalidArgumentError(f"equilibrium was not solved at load scale {level!r}")
    fault = intact if bus is None else reduce_to_generators(case, level, fault_bus=bus)
    timing = scenario.fault_clearing_cycles, scenario.observation_horizon_s, substeps_per_cycle
    batch, (bad,) = simulate_batch(case, equilibrium.lanes(None), fault[None], *timing)
    if bad < batch.n_samples:
        message = f"non-finite rotor state at sample {bad}"
        raise IntegrationDivergedError(message, last_finite_index=int(bad) - 1)
    return batch.lanes(0)


def simulate_batch(
    case: NetworkCase,
    equilibrium: Equilibrium,
    fault_network: np.ndarray,
    fault_clearing_cycles: int,
    observation_horizon_s: float,
    substeps_per_cycle: int = SUBSTEPS_PER_CYCLE,
) -> tuple:
    """Integrate many disturbances of one case in a single vectorised RK4 pass.

    Lane b starts from lane b of the batched `equilibrium` and runs on
    `equilibrium.network[b]` before inception and after clearing, and on
    `fault_network[b]` (shape (B, n, n)) while the fault is on.  Every
    lane shares the clearing time and the observation horizon.  Lanes
    never mix, so each lane equals its own one-lane call bit for bit.

    Returns (trajectory, first_bad): one batched Trajectory whose series
    lead with the lane axis, and each lane's first sample with a non-finite
    rotor state (n_samples for a lane that stayed finite).  Every operation
    is elementwise per lane, so a non-finite value stays in its lane and
    leaves the others untouched.
    """
    require_count(substeps_per_cycle, "substeps_per_cycle")
    require_count(fault_clearing_cycles, "fault_clearing_cycles")
    if not 0 < observation_horizon_s < np.inf:
        raise InvalidArgumentError("observation horizon must be positive and finite")
    freq = case.base_frequency_hz
    n_gen = case.n_generators
    arrays = (equilibrium.delta0, equilibrium.pm, equilibrium.network, fault_network)
    shapes = [np.shape(a) for a in arrays]
    n_lanes = shapes[-1][0] if shapes[-1] else 0
    if not n_lanes or shapes != [(n_lanes, n_gen)] * 2 + [(n_lanes, n_gen, n_gen)] * 2:
        raise InvalidArgumentError(
            "a batch needs lanes, each with an equilibrium and a fault network on the case"
        )
    cycles = observation_horizon_s * freq
    try:  # each sampled series is one (B, n_samples, n) float array
        n_samples = int(round(cycles)) + 1
        delta, omega, pe_out = (np.empty((n_lanes, n_samples, n_gen)) for _ in range(3))
    except (OverflowError, ValueError, MemoryError):
        raise InvalidArgumentError(
            f"observation horizon needs {cycles + 1:.4g} samples per series, "
            "more than memory can hold"
        ) from None
    t0 = PRE_FAULT_CYCLES
    tcl = t0 + fault_clearing_cycles
    if tcl >= n_samples - 1:
        raise InvalidArgumentError(
            "observation horizon ends before the fault is cleared and observed"
        )

    pre = power_tables(equilibrium.network, case.emf)
    fault = power_tables(fault_network, case.emf)
    pm = np.array(equilibrium.pm, dtype=float)
    # Constants tiled to (B, n): same-shape operands spare numpy its
    # broadcasting and Python-float overhead, and keep every product's bits.
    minv = np.tile(1.0 / case.inertia, (n_lanes, 1))
    damping = np.tile(case.damping, (n_lanes, 1))
    h = 1.0 / (freq * substeps_per_cycle)
    half_h, full_h, sixth_h, two = (
        np.full((n_lanes, n_gen), c) for c in (0.5 * h, h, h / 6.0, 2.0)
    )
    d = equilibrium.delta0
    w = np.zeros((n_lanes, n_gen))

    # A lane that overflows runs on as inf/nan; it is found after the loop.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_samples):
            table = fault if t0 <= k < tcl else pre
            delta[:, k] = d
            omega[:, k] = w
            pe = _power(d, table)
            pe_out[:, k] = pe
            if k == n_samples - 1:
                break
            # d' = w, so each stage's angle slope is its speed.  The first
            # stage of a cycle is at the sample just stored, so it reads
            # that sample's Pe.
            for substep in range(substeps_per_cycle):
                if substep:
                    pe = _power(d, table)
                k1w = (pm - pe - damping * w) * minv
                d2 = d + half_h * w
                w2 = w + half_h * k1w
                k2w = (pm - _power(d2, table) - damping * w2) * minv
                d3 = d + half_h * w2
                w3 = w + half_h * k2w
                k3w = (pm - _power(d3, table) - damping * w3) * minv
                d4 = d + full_h * w3
                w4 = w + full_h * k3w
                k4w = (pm - _power(d4, table) - damping * w4) * minv
                d = d + sixth_h * (w + two * w2 + two * w3 + w4)
                w = w + sixth_h * (k1w + two * k2w + two * k3w + k4w)

    bad = ~(np.isfinite(delta).all(axis=2) & np.isfinite(omega).all(axis=2))
    first_bad = np.where(bad.any(axis=1), bad.argmax(axis=1), n_samples)
    batch = Trajectory(
        times_s=np.arange(n_samples) / freq,
        delta=delta,
        omega_dev=omega,
        pm=pm,
        pe=pe_out,
        t0_index=t0,
        tcl_index=tcl,
        inertia=case.inertia.copy(),
    )
    return batch, first_bad


def max_angle_divergence(trajectory: Trajectory):
    """Largest rotor spread (degrees) from fault inception on, per lane for a batch."""
    window = trajectory.delta[..., trajectory.t0_index :, :]
    spread = window.max(axis=-1) - window.min(axis=-1)
    return np.degrees(spread.max(axis=-1))


def label(trajectory: Trajectory) -> StabilityLabel:
    """Classify a trajectory: -1 once the spread exceeds the threshold.

    A spread exactly at INSTABILITY_THRESHOLD_DEG still counts as stable.
    """
    spread = max_angle_divergence(trajectory)
    value = np.where(spread > INSTABILITY_THRESHOLD_DEG, -1, 1)[()]
    return StabilityLabel(value=value, max_spread_deg=spread)


TRAJECTORY_HEADER = "t_s,gen,delta_rad,omega_dev,pm_pu,pe_pu"


def trajectory_to_csv(trajectory: Trajectory, fh) -> None:
    """Write the per-generator series as rows of a flat CSV table."""
    fh.write(TRAJECTORY_HEADER + "\n")
    for k in range(trajectory.n_samples):
        t = float(trajectory.times_s[k])
        for g in range(trajectory.n_generators):
            fh.write(
                f"{t!r},{g + 1},{float(trajectory.delta[k, g])!r},"
                f"{float(trajectory.omega_dev[k, g])!r},{float(trajectory.pm[g])!r},"
                f"{float(trajectory.pe[k, g])!r}\n"
            )
