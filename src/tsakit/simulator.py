"""Staged time-domain simulation of the classical swing equations.

A scenario is integrated through three network segments: the pre-fault
network holding its equilibrium, a fault-on network with the faulted bus
grounded through a large shunt, and the restored pre-fault network out to
the observation horizon.  Integration is fixed-step RK4 with ten internal
steps per cycle; the trajectory is sampled once per cycle.

At a switching instant the stored electrical power refers to the network
that becomes active there (the rotor state itself is continuous), so the
sample at `t0_index` is the first fault-on sample and the one at
`tcl_index - 1` the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, InvalidArgumentError
from .network import Equilibrium, NetworkCase, ReducedNetwork, reduce_to_generators

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


def _segment_tables(case: NetworkCase, scenario: Scenario, pre: ReducedNetwork):
    """Per-segment (E_i E_j G_ij, E_i E_j B_ij) tables for the power sum.

    `pre` is the intact network the equilibrium was balanced on; only the
    faulted network is reduced here.
    """
    emf = case.emf
    ee = np.outer(emf, emf)
    if scenario.fault_bus is None:
        fault = pre
    else:
        fault = reduce_to_generators(case, scenario.load_scale, fault_bus=scenario.fault_bus)
    tables = []
    for net in (pre, fault, pre):
        tables.append((ee * net.conductance, ee * net.susceptance))
    return tables


def _pe(delta: np.ndarray, eg: np.ndarray, eb: np.ndarray) -> np.ndarray:
    dd = delta[:, None] - delta[None, :]
    return np.sum(eg * np.cos(dd) + eb * np.sin(dd), axis=1)


def simulate(
    case: NetworkCase,
    scenario: Scenario,
    equilibrium: Equilibrium,
    substeps_per_cycle: int = SUBSTEPS_PER_CYCLE,
) -> Trajectory:
    """Integrate one scenario and sample it once per cycle.

    The equilibrium supplies the initial state, the mechanical input and
    the intact reduced network; it must belong to the same case and load
    scale.
    """
    if substeps_per_cycle < 1:
        raise InvalidArgumentError("substeps_per_cycle must be at least 1")
    freq = case.base_frequency_hz
    n_gen = case.n_generators
    if equilibrium.delta0.shape != (n_gen,):
        raise InvalidArgumentError("equilibrium does not match the case")
    if scenario.fault_bus is not None:
        case.bus_index(scenario.fault_bus)  # raises on unknown bus

    n_samples = int(round(scenario.observation_horizon_s * freq)) + 1
    t0 = PRE_FAULT_CYCLES
    tcl = t0 + scenario.fault_clearing_cycles
    if tcl >= n_samples - 1:
        raise InvalidArgumentError(
            "observation horizon ends before the fault is cleared and observed"
        )

    tables = _segment_tables(case, scenario, equilibrium.network)
    pm = equilibrium.pm
    minv = 1.0 / case.inertia
    damping = case.damping
    h = 1.0 / (freq * substeps_per_cycle)

    delta = np.empty((n_samples, n_gen))
    omega = np.empty((n_samples, n_gen))
    pe_out = np.empty((n_samples, n_gen))
    d = equilibrium.delta0.copy()
    w = np.zeros(n_gen)

    def segment(k: int) -> int:
        if k < t0:
            return 0
        if k < tcl:
            return 1
        return 2

    for k in range(n_samples):
        eg, eb = tables[segment(k)]
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(w))):
            raise IntegrationDivergedError(
                f"non-finite rotor state at sample {k}", last_finite_index=k - 1
            )
        delta[k] = d
        omega[k] = w
        pe_out[k] = _pe(d, eg, eb)
        if k == n_samples - 1:
            break
        for _ in range(substeps_per_cycle):
            k1d = w
            k1w = (pm - _pe(d, eg, eb) - damping * w) * minv
            d2 = d + 0.5 * h * k1d
            w2 = w + 0.5 * h * k1w
            k2d = w2
            k2w = (pm - _pe(d2, eg, eb) - damping * w2) * minv
            d3 = d + 0.5 * h * k2d
            w3 = w + 0.5 * h * k2w
            k3d = w3
            k3w = (pm - _pe(d3, eg, eb) - damping * w3) * minv
            d4 = d + h * k3d
            w4 = w + h * k3w
            k4d = w4
            k4w = (pm - _pe(d4, eg, eb) - damping * w4) * minv
            d = d + (h / 6.0) * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            w = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    times = np.arange(n_samples) / freq
    return Trajectory(
        times_s=times,
        delta=delta,
        omega_dev=omega,
        pm=pm.copy(),
        pe=pe_out,
        t0_index=t0,
        tcl_index=tcl,
        inertia=case.inertia.copy(),
    )


def max_angle_divergence(trajectory: Trajectory) -> float:
    """Largest rotor spread (degrees) at any sample from fault inception on."""
    window = trajectory.delta[trajectory.t0_index :]
    spread = window.max(axis=1) - window.min(axis=1)
    return float(np.degrees(spread.max()))


def label(trajectory: Trajectory, threshold_deg: float = INSTABILITY_THRESHOLD_DEG) -> StabilityLabel:
    """Classify a trajectory: -1 once the spread exceeds the threshold.

    A spread exactly at the threshold still counts as stable.
    """
    spread = max_angle_divergence(trajectory)
    value = -1 if spread > threshold_deg else 1
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
