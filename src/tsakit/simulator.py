"""Staged time-domain simulation of the classical swing equations.

A scenario is integrated through three network segments: the pre-fault
network holding its equilibrium, a fault-on network with the faulted bus
grounded through a large shunt, and the restored pre-fault network out to
the observation horizon.  Integration is fixed-step RK4 with ten internal
steps per cycle; the trajectory is sampled once per cycle.  One RK4 loop
serves both entry points: `simulate_batch` advances many scenarios of a
case side by side, and `simulate` is its one-scenario case.

At a switching instant the stored electrical power refers to the network
that becomes active there (the rotor state itself is continuous), so the
sample at `t0_index` is the first fault-on sample and the one at
`tcl_index - 1` the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, InvalidArgumentError
from .network import Equilibrium, NetworkCase, electrical_power, power_tables, reduce_to_generators

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
        if self.load_scale <= 0:
            raise InvalidArgumentError("load_scale must be positive")
        if self.fault_clearing_cycles < 1:
            raise InvalidArgumentError("fault_clearing_cycles must be at least 1")
        if self.observation_horizon_s <= 0:
            raise InvalidArgumentError("observation horizon must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Sampled rotor trajectory plus the switching bookkeeping.

    The sampled series have shape (n_samples, n_generators) and share
    indexing; `pm` is constant in time under the classical model and is
    stored once, with shape (n_generators,).
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
        for name in ("delta", "omega_dev", "pe"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise InvalidArgumentError(f"series {name} does not match the time axis")
        if self.pm.shape != (self.delta.shape[1],):
            raise InvalidArgumentError("pm must hold one entry per generator")
        if not (0 < self.t0_index < self.tcl_index < n):
            raise InvalidArgumentError("switching indices must satisfy 0 < t0 < tcl < length")

    @property
    def n_samples(self) -> int:
        return int(self.times_s.shape[0])

    @property
    def n_generators(self) -> int:
        return int(self.delta.shape[1])


@dataclass(frozen=True)
class StabilityLabel:
    """+1 when the maximum post-inception rotor spread stays within bounds."""

    value: int
    max_spread_deg: float


def _segment_tables(case: NetworkCase, scenarios, equilibria):
    """Pre-fault and fault-on `power_tables`, stacked over lanes.

    Each table has shape (n_lanes, n_gen, n_gen).  A lane's intact network
    is the one its equilibrium was balanced on; each distinct faulted
    network, one per (load scale, fault bus), is reduced once.
    """
    faulted = {}
    fault_nets = []
    for scenario, eq in zip(scenarios, equilibria):
        if scenario.fault_bus is None:
            fault_nets.append(eq.network)
            continue
        key = (scenario.load_scale, scenario.fault_bus)
        if key not in faulted:
            faulted[key] = reduce_to_generators(
                case, scenario.load_scale, fault_bus=scenario.fault_bus
            )
        fault_nets.append(faulted[key])

    emf = case.emf

    def stack(nets):
        eg, eb = zip(*(power_tables(net, emf) for net in nets))
        return np.stack(eg), np.stack(eb)

    return stack([eq.network for eq in equilibria]), stack(fault_nets)


def simulate(
    case: NetworkCase,
    scenario: Scenario,
    equilibrium: Equilibrium,
    substeps_per_cycle: int = SUBSTEPS_PER_CYCLE,
) -> Trajectory:
    """Integrate one scenario and sample it once per cycle.

    The equilibrium supplies the initial state, the mechanical input and
    the intact reduced network; it must belong to the same case and load
    scale.  Raises IntegrationDivergedError on a non-finite state.
    """
    (result,) = simulate_batch(case, [scenario], [equilibrium], substeps_per_cycle)
    if isinstance(result, IntegrationDivergedError):
        raise result
    return result


def simulate_batch(
    case: NetworkCase,
    scenarios,
    equilibria,
    substeps_per_cycle: int = SUBSTEPS_PER_CYCLE,
) -> list:
    """Integrate many scenarios of one case in a single vectorised RK4 pass.

    Lane b runs `scenarios[b]` from `equilibria[b]`.  Lanes never mix, so
    each lane equals its own `simulate` call bit for bit.  The scenarios
    must share the clearing time and the observation horizon.

    Returns one entry per lane: its Trajectory or, for a lane whose state
    went non-finite, an IntegrationDivergedError carrying the last finite
    sample.  Every operation is elementwise per lane, so a non-finite value
    stays in its lane and leaves the others untouched.
    """
    scenarios = list(scenarios)
    equilibria = list(equilibria)
    if substeps_per_cycle < 1:
        raise InvalidArgumentError("substeps_per_cycle must be at least 1")
    if not scenarios:
        raise InvalidArgumentError("a batch needs at least one scenario")
    if len(equilibria) != len(scenarios):
        raise InvalidArgumentError("a batch needs one equilibrium per scenario")
    first = scenarios[0]
    if any(
        s.fault_clearing_cycles != first.fault_clearing_cycles
        or s.observation_horizon_s != first.observation_horizon_s
        for s in scenarios
    ):
        raise InvalidArgumentError("scenarios in one batch must share clearing time and horizon")
    freq = case.base_frequency_hz
    n_gen = case.n_generators
    if any(eq.delta0.shape != (n_gen,) for eq in equilibria):
        raise InvalidArgumentError("equilibrium does not match the case")

    n_samples = int(round(first.observation_horizon_s * freq)) + 1
    t0 = PRE_FAULT_CYCLES
    tcl = t0 + first.fault_clearing_cycles
    if tcl >= n_samples - 1:
        raise InvalidArgumentError(
            "observation horizon ends before the fault is cleared and observed"
        )

    n_lanes = len(scenarios)
    pre, fault = _segment_tables(case, scenarios, equilibria)
    schedule = [pre] * t0 + [fault] * (tcl - t0) + [pre] * (n_samples - tcl)
    pm = np.stack([eq.pm for eq in equilibria])
    # Tiled to (B, n): same-shape operands spare numpy its broadcasting
    # overhead, which dominates at these sizes.
    minv = np.tile(1.0 / case.inertia, (n_lanes, 1))
    damping = np.tile(case.damping, (n_lanes, 1))
    h = 1.0 / (freq * substeps_per_cycle)
    work = tuple(np.empty((n_lanes, n_gen, n_gen)) for _ in range(3))

    def accel(angles, speeds, eg, eb):
        return (pm - electrical_power(angles, eg, eb, work) - damping * speeds) * minv

    delta = np.empty((n_lanes, n_samples, n_gen))
    omega = np.empty((n_lanes, n_samples, n_gen))
    pe_out = np.empty((n_lanes, n_samples, n_gen))
    d = np.stack([eq.delta0 for eq in equilibria])
    w = np.zeros((n_lanes, n_gen))

    # A lane that overflows runs on as inf/nan; it is found after the loop.
    with np.errstate(invalid="ignore", over="ignore"):
        for k, (eg, eb) in enumerate(schedule):
            delta[:, k] = d
            omega[:, k] = w
            pe_out[:, k] = electrical_power(d, eg, eb, work)
            if k == n_samples - 1:
                break
            # d' = w, so each stage's angle slope is its speed.
            for _ in range(substeps_per_cycle):
                k1w = accel(d, w, eg, eb)
                d2 = d + 0.5 * h * w
                w2 = w + 0.5 * h * k1w
                k2w = accel(d2, w2, eg, eb)
                d3 = d + 0.5 * h * w2
                w3 = w + 0.5 * h * k2w
                k3w = accel(d3, w3, eg, eb)
                d4 = d + h * w3
                w4 = w + h * k3w
                k4w = accel(d4, w4, eg, eb)
                d = d + (h / 6.0) * (w + 2.0 * w2 + 2.0 * w3 + w4)
                w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    bad = ~(np.isfinite(delta).all(axis=2) & np.isfinite(omega).all(axis=2))
    times = np.arange(n_samples) / freq
    inertia = case.inertia.copy()
    results = []
    for b, eq in enumerate(equilibria):
        if bad[b].any():
            last = int(bad[b].argmax()) - 1
            results.append(
                IntegrationDivergedError(
                    f"non-finite rotor state at sample {last + 1}", last_finite_index=last
                )
            )
            continue
        results.append(
            Trajectory(
                times_s=times,
                delta=delta[b],
                omega_dev=omega[b],
                pm=eq.pm.copy(),
                pe=pe_out[b],
                t0_index=t0,
                tcl_index=tcl,
                inertia=inertia,
            )
        )
    return results


def max_angle_divergence(trajectory: Trajectory) -> float:
    """Largest rotor spread (degrees) at any sample from fault inception on."""
    window = trajectory.delta[trajectory.t0_index :]
    spread = window.max(axis=1) - window.min(axis=1)
    return float(np.degrees(spread.max()))


def label(trajectory: Trajectory) -> StabilityLabel:
    """Classify a trajectory: -1 once the spread exceeds the threshold.

    A spread exactly at INSTABILITY_THRESHOLD_DEG still counts as stable.
    """
    spread = max_angle_divergence(trajectory)
    value = -1 if spread > INSTABILITY_THRESHOLD_DEG else 1
    return StabilityLabel(value=value, max_spread_deg=spread)


def trajectory_to_csv(trajectory: Trajectory, fh) -> None:
    """Write the per-generator series as rows of a flat CSV table."""
    fh.write("t_s,gen,delta_rad,omega_dev,pm_pu,pe_pu\n")
    for k in range(trajectory.n_samples):
        t = float(trajectory.times_s[k])
        for g in range(trajectory.n_generators):
            fh.write(
                f"{t!r},{g + 1},{float(trajectory.delta[k, g])!r},"
                f"{float(trajectory.omega_dev[k, g])!r},{float(trajectory.pm[g])!r},"
                f"{float(trajectory.pe[k, g])!r}\n"
            )
