"""Staged swing integration: fixed points, energy, convergence, labels."""

import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tsakit.errors import IntegrationDivergedError, InvalidArgumentError
from tsakit.features import extract_features
from tsakit.kb import _stream_seed, dispatch_pm, inject_noise
from tsakit.network import (
    Equilibrium,
    electrical_power,
    power_tables,
    reduce_to_generators,
    solve_equilibrium,
    solve_equilibrium_batch,
)
from tsakit.simulator import (
    INSTABILITY_THRESHOLD_DEG,
    Scenario,
    StabilityLabel,
    Trajectory,
    label,
    max_angle_divergence,
    simulate,
    simulate_batch,
    trajectory_to_csv,
)


def make_trajectory(delta, t0_index=2, tcl_index=7, freq=60.0):
    """Wrap a (n, g) angle array in a trajectory with inert other channels."""
    delta = np.asarray(delta, dtype=float)
    n, g = delta.shape
    zeros = np.zeros_like(delta)
    return Trajectory(
        times_s=np.arange(n) / freq,
        delta=delta,
        omega_dev=zeros,
        pm=np.zeros(g),
        pe=zeros,
        t0_index=t0_index,
        tcl_index=tcl_index,
        inertia=np.full(g, 0.01),
    )


# --- Scenario and trajectory plumbing ----------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(load_scale=0.0, dispatch_seed=0, fault_bus=7),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, fault_clearing_cycles=0),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=0.0),
        dict(load_scale=float("nan"), dispatch_seed=0, fault_bus=7),
        dict(load_scale=float("inf"), dispatch_seed=0, fault_bus=7),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=float("nan")),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=float("inf")),
        # counts are integers: no fractions, floats or booleans
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, fault_clearing_cycles=2.5),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, fault_clearing_cycles=np.float64(5)),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, fault_clearing_cycles=True),
        dict(load_scale=1.0, dispatch_seed=0, fault_bus=7, fault_clearing_cycles="5"),
    ],
)
def test_scenario_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidArgumentError):
        Scenario(**kwargs)


@pytest.mark.parametrize("value", [2.5, 10.0, True, False, "10"])
def test_simulate_substeps_must_be_an_integer(bundled_case, bundled_equilibrium, value):
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=0.5)
    with pytest.raises(InvalidArgumentError, match="integer"):
        simulate(bundled_case, scenario, bundled_equilibrium, substeps_per_cycle=value)


def test_numpy_integer_counts_are_accepted(bundled_case, bundled_equilibrium):
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=0.5)
    numpy_counts = dataclasses.replace(scenario, fault_clearing_cycles=np.int64(5))
    _assert_same_trajectory(
        simulate(bundled_case, numpy_counts, bundled_equilibrium, substeps_per_cycle=np.int32(10)),
        simulate(bundled_case, scenario, bundled_equilibrium),
    )


def test_trajectory_rejects_inconsistent_indices():
    delta = np.zeros((10, 2))
    with pytest.raises(InvalidArgumentError):
        make_trajectory(delta, t0_index=5, tcl_index=5)
    with pytest.raises(InvalidArgumentError):
        make_trajectory(delta, t0_index=0, tcl_index=5)
    with pytest.raises(InvalidArgumentError):
        make_trajectory(delta, t0_index=2, tcl_index=10)


def test_trajectory_stores_pm_once_per_generator():
    traj = make_trajectory(np.zeros((10, 2)))
    assert traj.pm.shape == (2,)
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(traj, pm=np.zeros((10, 2)))
    # A batch leads with the lane axis: pm is (B, n) and every series (B, T, n).
    series = np.zeros((4, 10, 2))
    batch = dataclasses.replace(traj, delta=series, omega_dev=series, pe=series, pm=np.zeros((4, 2)))
    assert batch.lanes(1).pm.shape == (2,)
    assert batch.lanes(np.array([True, False, True, False])).delta.shape == (2, 10, 2)
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(batch, pm=np.zeros(2))
    with pytest.raises(InvalidArgumentError):
        dataclasses.replace(batch, pe=np.zeros((3, 10, 2)))


def test_simulate_rejects_horizon_shorter_than_clearing(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0,
        dispatch_seed=0,
        fault_bus=7,
        fault_clearing_cycles=5,
        observation_horizon_s=0.1,  # 7 samples, so tcl lands on the edge
    )
    with pytest.raises(InvalidArgumentError):
        simulate(bundled_case, scenario, bundled_equilibrium)


def test_simulate_rejects_unknown_fault_bus(bundled_case, bundled_equilibrium):
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=99)
    with pytest.raises(InvalidArgumentError):
        simulate(bundled_case, scenario, bundled_equilibrium)


def test_simulate_refuses_equilibrium_from_another_load_scale(bundled_case, bundled_equilibrium):
    # The equilibrium was balanced at load scale 1.0; integrating it on the
    # 1.3 networks would start the fault from a state that is no equilibrium.
    scenario = Scenario(load_scale=1.3, dispatch_seed=0, fault_bus=7)
    with pytest.raises(InvalidArgumentError, match="load scale"):
        simulate(bundled_case, scenario, bundled_equilibrium)


def test_sampling_grid_and_switch_indices(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=1.0
    )
    traj = simulate(bundled_case, scenario, bundled_equilibrium)
    assert traj.n_samples == 61  # one sample per cycle plus the endpoint
    assert traj.t0_index == 2
    assert traj.tcl_index == 7
    assert_allclose(traj.times_s, np.arange(61) / 60.0, rtol=0, atol=0)


def test_power_channel_is_right_continuous_at_switches(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=1.0
    )
    traj = simulate(bundled_case, scenario, bundled_equilibrium)
    # Angles barely move in one cycle, so the Pe jump at inception is the
    # network change, not rotor motion: the faulted sample differs a lot.
    pre = traj.pe[traj.t0_index - 1]
    at = traj.pe[traj.t0_index]
    assert np.max(np.abs(at - pre)) > 0.1
    # After clearing, the restored network's power at the cleared sample is
    # again far from the fault-on value one sample earlier.
    assert np.max(np.abs(traj.pe[traj.tcl_index] - traj.pe[traj.tcl_index - 1])) > 0.1


def _assert_pe_of_active_network(case, scenario, eq, traj):
    """Every stored Pe sample is that sample's angles on the network active there."""
    pre = power_tables(eq.network, case.emf)
    faulted = reduce_to_generators(case, scenario.load_scale, fault_bus=scenario.fault_bus)
    fault = power_tables(faulted, case.emf)
    for k in range(traj.n_samples):
        table = fault if traj.t0_index <= k < traj.tcl_index else pre
        assert traj.pe[k].tobytes() == electrical_power(traj.delta[k], table).tobytes(), k


def test_stored_pe_is_the_active_networks_power(bundled_case, bundled_equilibrium, small_plan_lanes):
    # The first RK4 stage of a cycle reuses the Pe stored at its sample, so
    # that Pe must be exactly the active network's, switching samples included.
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=1.0)
    lone = simulate(bundled_case, scenario, bundled_equilibrium)
    _assert_pe_of_active_network(bundled_case, scenario, bundled_equilibrium, lone)
    scenarios, equilibrium, fault = small_plan_lanes
    batch, _ = _plan_batch(bundled_case, equilibrium.lanes(slice(6)), fault[:6])
    for b, lane_scenario in enumerate(scenarios[:6]):
        lane_eq = equilibrium.lanes(b)
        _assert_pe_of_active_network(bundled_case, lane_scenario, lane_eq, batch.lanes(b))


# --- Fixed point and accuracy -------------------------------------------------


def test_no_fault_run_holds_equilibrium(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=None, observation_horizon_s=5.0
    )
    traj = simulate(bundled_case, scenario, bundled_equilibrium)
    drift = np.max(np.abs(traj.delta - bundled_equilibrium.delta0[None, :]))
    assert drift < 1e-9
    assert np.max(np.abs(traj.omega_dev)) < 1e-9


def test_undamped_lossless_run_conserves_energy(pair_case):
    # Released from rest away from equilibrium with no damping and no
    # conductance anywhere, the oscillation must keep its energy.
    reduced = reduce_to_generators(pair_case)
    b12 = reduced.imag[0, 1]
    start = Equilibrium(delta0=np.array([0.4, -0.4]), pm=np.zeros(2), network=reduced)
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=None, observation_horizon_s=5.0
    )
    traj = simulate(pair_case, scenario, start)
    m = pair_case.inertia
    kinetic = 0.5 * (m[None, :] * traj.omega_dev**2).sum(axis=1)
    potential = -b12 * np.cos(traj.delta[:, 0] - traj.delta[:, 1])
    energy = kinetic + potential
    assert np.max(np.abs(energy - energy[0])) < 1e-6


@pytest.mark.parametrize("p, expected_cycles", [(0.5, 19.33), (1.0, 10.87), (1.5, 6.46)])
def test_equal_area_critical_clearing_time(pair_case, p, expected_cycles):
    # Equal-area criterion on the lossless pair: a terminal fault at bus 1
    # cuts the transfer, so the relative angle accelerates freely under p,
    # M d'' = p with M = m1 m2 / (m1 + m2), until cleared; the pre-fault
    # curve 2.5 sin(d) then has to absorb the kinetic energy before
    # d_max = pi - d0.  Labels must flip across t_cr within one cycle.
    reduced = reduce_to_generators(pair_case)
    eq = solve_equilibrium(pair_case, reduced, np.array([p, -p]))
    p_max = 2.5
    m1, m2 = pair_case.inertia
    m_eq = m1 * m2 / (m1 + m2)
    d0 = math.asin(p / p_max)
    d_max = math.pi - d0
    d_cr = math.acos((p * (d_max - d0) + p_max * math.cos(d_max)) / p_max)
    t_cr_cycles = math.sqrt(2.0 * m_eq * (d_cr - d0) / p) * pair_case.base_frequency_hz
    assert t_cr_cycles == pytest.approx(expected_cycles, abs=0.005)
    for cycles, expected in ((math.floor(t_cr_cycles), 1), (math.ceil(t_cr_cycles), -1)):
        scenario = Scenario(
            load_scale=1.0, dispatch_seed=0, fault_bus=1, fault_clearing_cycles=cycles
        )
        assert label(simulate(pair_case, scenario, eq)).value == expected, cycles


def test_step_halving_changes_little(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=2.0
    )
    coarse = simulate(bundled_case, scenario, bundled_equilibrium, substeps_per_cycle=10)
    fine = simulate(bundled_case, scenario, bundled_equilibrium, substeps_per_cycle=20)
    assert np.max(np.abs(coarse.delta - fine.delta)) < 1e-6


def test_rk4_error_falls_sixteenfold_per_halving(bundled_case, bundled_equilibrium):
    # Fourth order: the gap between s and 2s substeps per cycle shrinks by
    # 2^4 each time s doubles.
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=5.0)
    runs = {
        s: simulate(bundled_case, scenario, bundled_equilibrium, substeps_per_cycle=s).delta
        for s in (5, 10, 20, 40, 80)
    }
    gaps = [np.max(np.abs(runs[s] - runs[2 * s])) for s in (5, 10, 20, 40)]
    ratios = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
    assert all(14.0 <= r <= 18.0 for r in ratios), ratios


def test_simulation_is_deterministic(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=5, observation_horizon_s=1.0
    )
    a = simulate(bundled_case, scenario, bundled_equilibrium)
    b = simulate(bundled_case, scenario, bundled_equilibrium)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.omega_dev, b.omega_dev)
    assert np.array_equal(a.pe, b.pe)


def test_common_angle_shift_propagates(pair_case):
    # Shifting every rotor by a constant shifts the whole trajectory.
    reduced = reduce_to_generators(pair_case)
    eq = solve_equilibrium(pair_case, reduced, np.array([0.8, -0.8]))
    shifted = dataclasses.replace(eq, delta0=eq.delta0 + 0.7)
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=2, observation_horizon_s=1.0
    )
    base = simulate(pair_case, scenario, eq)
    moved = simulate(pair_case, scenario, shifted)
    assert np.max(np.abs(moved.delta - base.delta - 0.7)) < 1e-7
    assert np.max(np.abs(moved.omega_dev - base.omega_dev)) < 1e-7


def test_divergence_reports_last_finite_sample(bundled_case, bundled_equilibrium):
    poisoned = dataclasses.replace(bundled_equilibrium, delta0=np.array([np.nan, 0.0, 0.0]))
    scenario = Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=7)
    with pytest.raises(IntegrationDivergedError) as excinfo:
        simulate(bundled_case, scenario, poisoned)
    assert excinfo.value.last_finite_index == -1


# --- Batched integration -----------------------------------------------------


@pytest.fixture(scope="module")
def small_plan_lanes(bundled_case, small_plan):
    """Scenarios of the small-plan cells in plan order, their batched
    equilibrium and their stacked fault-on networks."""
    scenarios = [
        Scenario(load_scale=level, dispatch_seed=_stream_seed(0, k, 0), fault_bus=bus)
        for k, level, _, bus in small_plan.cells()
    ]
    reduced = np.stack([reduce_to_generators(bundled_case, s.load_scale) for s in scenarios])
    fault = np.stack(
        [reduce_to_generators(bundled_case, s.load_scale, fault_bus=s.fault_bus) for s in scenarios]
    )
    pm = np.stack([dispatch_pm(bundled_case, s.load_scale, s.dispatch_seed) for s in scenarios])
    equilibrium, _, failures = solve_equilibrium_batch(bundled_case, reduced, pm)
    assert failures == (None,) * len(scenarios)  # every small-plan cell solves
    return scenarios, equilibrium, fault


def _plan_batch(case, equilibrium, fault):
    """`simulate_batch` at the small plan's timing, a default Scenario's."""
    return simulate_batch(case, equilibrium, fault, 5, 5.0)


def _assert_same_trajectory(a, b):
    for name in ("times_s", "delta", "omega_dev", "pm", "pe", "inertia"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.t0_index, a.tcl_index) == (b.t0_index, b.tcl_index)


@pytest.mark.parametrize("order", ["plan", "reversed"])
def test_batch_lanes_equal_lone_runs(bundled_case, small_plan_lanes, order):
    scenarios, equilibrium, fault = small_plan_lanes
    lanes = np.arange(len(scenarios))
    lanes = lanes if order == "plan" else lanes[::-1]
    scenarios = [scenarios[k] for k in lanes]
    batch, first_bad = _plan_batch(bundled_case, equilibrium.lanes(lanes), fault[lanes])
    assert batch.delta.shape == (len(lanes), batch.n_samples, bundled_case.n_generators)
    assert batch.pm.shape == (len(lanes), bundled_case.n_generators)
    assert np.array_equal(first_bad, np.full(len(lanes), batch.n_samples))
    for b, (scenario, k) in enumerate(zip(scenarios, lanes)):
        lone = simulate(bundled_case, scenario, equilibrium.lanes(k))
        _assert_same_trajectory(batch.lanes(b), lone)


def test_batch_masks_a_diverged_lane(bundled_case, small_plan_lanes):
    scenarios, equilibrium, fault = small_plan_lanes
    clean, _ = _plan_batch(bundled_case, equilibrium, fault)
    # Lane 3 repeated, the copy starting from a NaN angle.
    lanes = [0, 1, 2, 3] + list(range(3, len(scenarios)))
    mixed_eq = equilibrium.lanes(lanes)
    mixed_eq.delta0[3] = [np.nan, 0.0, 0.0]
    mixed, first_bad = _plan_batch(bundled_case, mixed_eq, fault[lanes])
    assert first_bad[3] == 0
    others = np.arange(len(first_bad)) != 3
    assert np.all(first_bad[others] == mixed.n_samples)
    _assert_same_trajectory(mixed.lanes(others), clean)


def test_batch_reports_a_lane_that_overflows_mid_run(bundled_case, small_plan_lanes):
    # A finite start whose acceleration overflows in the first RK4 step:
    # sample 1 is the first non-finite one.  The overflow must neither warn
    # nor touch the other lanes.
    _, equilibrium, fault = small_plan_lanes
    clean, _ = _plan_batch(bundled_case, equilibrium, fault)
    pm = equilibrium.pm.copy()
    pm[3] = [1e308, 0.0, -1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed, first_bad = _plan_batch(
            bundled_case, dataclasses.replace(equilibrium, pm=pm), fault
        )
    assert first_bad[3] == 1
    others = np.arange(len(first_bad)) != 3
    assert np.all(first_bad[others] == mixed.n_samples)
    _assert_same_trajectory(mixed.lanes(others), clean.lanes(others))


def test_batched_labels_noise_and_features_equal_per_lane_calls(bundled_case, small_plan_lanes):
    # One call over every lane gives the bytes of one call per lane.
    batch, _ = _plan_batch(bundled_case, *small_plan_lanes[1:])
    seeds = list(range(100, 100 + batch.delta.shape[0]))
    labels = label(batch)
    noisy = inject_noise(batch, 0.02, seeds)
    rows = extract_features(batch)
    noisy_rows = extract_features(noisy)
    for b, seed in enumerate(seeds):
        lone = batch.lanes(b)
        lone_label = label(lone)
        assert labels.value[b] == lone_label.value
        assert labels.max_spread_deg[b].tobytes() == lone_label.max_spread_deg.tobytes()
        assert rows[b].tobytes() == extract_features(lone).tobytes()
        lone_noisy = inject_noise(lone, 0.02, seed)
        for name in ("delta", "omega_dev", "pe"):
            assert getattr(noisy, name)[b].tobytes() == getattr(lone_noisy, name).tobytes()
        assert noisy_rows[b].tobytes() == extract_features(lone_noisy).tobytes()
    with pytest.raises(InvalidArgumentError, match="one noise seed per lane"):
        inject_noise(batch, 0.02, seeds[:-1])


def test_lane_on_its_intact_network_equals_a_no_fault_run(bundled_case, small_plan_lanes):
    # A fault-on network equal to the lane's intact one is no fault at all.
    scenarios, equilibrium, fault = small_plan_lanes
    fault = fault.copy()
    fault[4] = equilibrium.network[4]
    batch, _ = _plan_batch(bundled_case, equilibrium, fault)
    unfaulted = dataclasses.replace(scenarios[4], fault_bus=None)
    _assert_same_trajectory(batch.lanes(4), simulate(bundled_case, unfaulted, equilibrium.lanes(4)))


@pytest.mark.parametrize(
    "cycles, horizon",
    [(0, 1.0), (2.5, 1.0), (True, 1.0), (5, 0.0), (5, -1.0), (5, math.nan), (5, math.inf)],
)
def test_batch_rejects_bad_timing(bundled_case, bundled_equilibrium, cycles, horizon):
    fault = reduce_to_generators(bundled_case, 1.0, fault_bus=7)[None]
    with pytest.raises(InvalidArgumentError):
        simulate_batch(bundled_case, bundled_equilibrium.lanes(None), fault, cycles, horizon)


def test_batch_rejects_bad_shapes(bundled_case, bundled_equilibrium):
    one = bundled_equilibrium.lanes(None)
    fault = reduce_to_generators(bundled_case, 1.0, fault_bus=7)[None]
    with pytest.raises(InvalidArgumentError, match="a batch needs lanes"):
        simulate_batch(bundled_case, one.lanes(slice(0)), fault[:0], 5, 1.0)
    bad = [
        (one.lanes([0, 0]), fault),  # two equilibrium lanes, one fault network
        (one, np.concatenate([fault, fault])),  # one equilibrium lane, two fault networks
        (dataclasses.replace(one, network=one.network[:, :2]), fault),
        (one, fault[0]),  # a lone fault network, no lane axis
        (one, fault[:, :2]),
    ]
    for equilibrium, fault_network in bad:
        with pytest.raises(InvalidArgumentError, match="a batch needs lanes"):
            simulate_batch(bundled_case, equilibrium, fault_network, 5, 1.0)


# --- Stability labelling ------------------------------------------------------


def test_label_thresholds():
    n, g = 12, 2
    base = np.zeros((n, g))

    spread_100 = base.copy()
    spread_100[6, 1] = np.deg2rad(100.0)
    assert label(make_trajectory(spread_100)).value == 1

    spread_400 = base.copy()
    spread_400[6, 1] = np.deg2rad(400.0)
    out = label(make_trajectory(spread_400))
    assert out.value == -1
    assert out.max_spread_deg > INSTABILITY_THRESHOLD_DEG

    # Exactly at the threshold still counts as stable: pick the largest
    # radian spread whose degree value does not exceed the threshold.
    r = np.deg2rad(INSTABILITY_THRESHOLD_DEG)
    while np.degrees(r) > INSTABILITY_THRESHOLD_DEG:
        r = np.nextafter(r, 0.0)
    spread_360 = base.copy()
    spread_360[6, 1] = r
    out = label(make_trajectory(spread_360))
    assert out.value == 1
    assert abs(out.max_spread_deg - 360.0) < 1e-9


def test_label_strictness_at_measured_spread():
    # The smallest radian spread whose degree value exceeds the threshold
    # is the first one labelled unstable; the spread just below is stable.
    r = np.deg2rad(INSTABILITY_THRESHOLD_DEG)
    while np.degrees(r) <= INSTABILITY_THRESHOLD_DEG:
        r = np.nextafter(r, np.inf)
    delta = np.zeros((12, 2))
    delta[5, 1] = r
    traj = make_trajectory(delta)
    assert max_angle_divergence(traj) > INSTABILITY_THRESHOLD_DEG
    assert label(traj).value == -1
    delta[5, 1] = np.nextafter(r, 0.0)
    assert label(make_trajectory(delta)).value == 1


def test_spread_ignores_pre_fault_window():
    delta = np.zeros((12, 2))
    delta[1, 1] = 9.0  # huge excursion, but before inception
    traj = make_trajectory(delta)
    assert max_angle_divergence(traj) == 0.0
    assert label(traj).value == 1


def test_label_margin_sign():
    delta = np.zeros((12, 2))
    delta[8, 1] = np.deg2rad(90.0)
    out = label(make_trajectory(delta))
    assert isinstance(out, StabilityLabel)
    assert INSTABILITY_THRESHOLD_DEG - out.max_spread_deg == pytest.approx(270.0, abs=1e-9)


def test_faulted_bundled_run_is_analyzable(faulted_trajectory):
    spread = max_angle_divergence(faulted_trajectory)
    assert np.isfinite(spread)
    assert spread > 0
    out = label(faulted_trajectory)
    assert out.value in (-1, 1)


# --- CSV dump -----------------------------------------------------------------


def test_trajectory_csv_layout(faulted_trajectory):
    buf = io.StringIO()
    trajectory_to_csv(faulted_trajectory, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t_s,gen,delta_rad,omega_dev,pm_pu,pe_pu"
    assert len(lines) == 1 + faulted_trajectory.n_samples * faulted_trajectory.n_generators
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[1] == "1"
    assert float(first[2]) == faulted_trajectory.delta[0, 0]
