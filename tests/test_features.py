"""Feature extraction oracles: every Tz value on a hand-built trajectory."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tsakit.errors import InvalidArgumentError
from tsakit.features import (
    FEATURE_NAMES,
    SUBSET_SLICES,
    Standardizer,
    extract_f1,
    extract_f2,
    extract_f3,
    extract_features,
    subset_columns,
)
from tsakit.simulator import Scenario, Trajectory, simulate

# One fully hand-checkable trajectory: three machines, fault on at sample 2,
# cleared at sample 7, inertias chosen so accelerations and kinetic energies
# come out as short decimals.
M = np.array([0.5, 0.25, 0.125])
PM_ROW = np.array([1.0, 0.8, 0.6])


@pytest.fixture()
def toy_trajectory():
    n = 20
    pe = np.zeros((n, 3))
    omega = np.zeros((n, 3))
    delta = np.zeros((n, 3))

    pe[1] = [1.0, 0.8, 0.6]   # pre-fault balance
    pe[2] = [0.4, 0.6, 0.5]   # first fault-on sample
    pe[6] = [0.7, 1.1, 0.9]   # last fault-on sample

    omega[3] = [0.2, -0.4, 0.1]
    omega[6] = [0.3, -0.2, 0.4]
    omega[10] = [0.1, 0.2, 0.3]
    omega[13] = [-0.2, 0.1, 0.2]
    omega[16] = [0.0, -0.1, 0.4]

    delta[2] = [0.30, 0.25, 0.20]
    delta[6] = [0.9, 0.7, 1.1]
    delta[10] = [1.0, 1.4, 1.2]
    delta[13] = [2.0, 1.0, 1.5]
    delta[16] = [0.5, 2.5, 1.5]

    return Trajectory(
        times_s=np.arange(n) / 60.0,
        delta=delta,
        omega_dev=omega,
        pm=PM_ROW.copy(),
        pe=pe,
        t0_index=2,
        tcl_index=7,
        inertia=M.copy(),
    )


def test_inception_subset_matches_hand_values(toy_trajectory):
    # a = (pm - pe[2]) / M = [1.2, 0.8, 0.8]; KE one cycle later from
    # omega[3]; the pre/post power jump peaks at machine 1.
    expected = np.array(
        [
            0.8,            # mean mechanical input
            2.8 / 3.0,      # mean acceleration
            8.0 / 225.0,    # population variance of the acceleration
            0.3,            # mean power imbalance
            0.02,           # peak kinetic energy one cycle past inception
            0.6,            # largest power jump across inception
            0.30,           # angle of the fastest-accelerating machine
        ]
    )
    assert_allclose(extract_f1(toy_trajectory), expected, rtol=0, atol=1e-12)


def test_clearing_subset_matches_hand_values(toy_trajectory):
    # At sample 6: pm - pe = [0.3, -0.3, -0.3], a = [0.6, -1.2, -2.4],
    # KE = [0.0225, 0.005, 0.01].
    expected = np.array([0.9, 3.0, 0.0125, 0.9, 0.01, 0.0225, 0.0375])
    assert_allclose(extract_f2(toy_trajectory), expected, rtol=0, atol=1e-12)


def test_recovery_subset_matches_hand_values(toy_trajectory):
    # Read at samples 10, 13 and 16 (three, six and nine cycles past
    # clearing): peak KE, KE of the leading machine, angle spread.
    expected = np.array(
        [0.005625, 0.01, 0.01, 0.005, 0.01, 0.00125, 0.4, 1.0, 2.0]
    )
    assert_allclose(extract_f3(toy_trajectory), expected, rtol=0, atol=1e-12)


def test_extract_features_concatenates_in_order(toy_trajectory):
    row = extract_features(toy_trajectory)
    assert len(FEATURE_NAMES) == 23
    assert row.shape == (23,)
    assert_allclose(row[SUBSET_SLICES["F1"]], extract_f1(toy_trajectory), rtol=0, atol=0)
    assert_allclose(row[SUBSET_SLICES["F2"]], extract_f2(toy_trajectory), rtol=0, atol=0)
    assert_allclose(row[SUBSET_SLICES["F3"]], extract_f3(toy_trajectory), rtol=0, atol=0)


def test_argmax_features_break_ties_low():
    # Power-of-two values so the intended ties are exact in binary floats.
    n = 20
    m = np.array([1.0, 0.5, 0.25])
    pe = np.zeros((n, 3))
    omega = np.zeros((n, 3))
    delta = np.zeros((n, 3))
    delta[2] = [0.125, 0.5, 0.25]
    delta[6] = [0.9, 0.7, 1.1]
    omega[6] = [0.5, 0.5, 1.0]  # KE = [0.125, 0.0625, 0.125]
    traj = Trajectory(
        times_s=np.arange(n) / 60.0,
        delta=delta,
        omega_dev=omega,
        pm=np.array([1.0, 0.5, 0.25]),
        pe=pe,
        t0_index=2,
        tcl_index=7,
        inertia=m,
    )

    acc = (traj.pm - traj.pe[2]) / m
    assert acc[0] == acc[1] == acc[2]  # three-way exact tie
    assert extract_f1(traj)[6] == traj.delta[2, 0]

    ke = 0.5 * m * traj.omega_dev[6] ** 2
    assert ke[0] == ke[2] > ke[1]  # exact tie between machines 0 and 2
    assert extract_f2(traj)[3] == traj.delta[6, 0]


def test_kinetic_features_scale_quadratically(toy_trajectory):
    doubled = dataclasses.replace(toy_trajectory, omega_dev=2.0 * toy_trajectory.omega_dev)
    base = extract_features(toy_trajectory)
    scaled = extract_features(doubled)
    energy_cols = [4, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # Tz5, Tz10, Tz12..Tz20
    other_cols = [k for k in range(23) if k not in energy_cols]
    assert_allclose(scaled[energy_cols], 4.0 * base[energy_cols], rtol=1e-12)
    assert_allclose(scaled[other_cols], base[other_cols], rtol=0, atol=0)


def test_angle_shift_moves_only_angle_readings(toy_trajectory):
    shift = 0.45
    moved = dataclasses.replace(toy_trajectory, delta=toy_trajectory.delta + shift)
    base = extract_features(toy_trajectory)
    out = extract_features(moved)
    angle_cols = [6, 10]  # Tz7 and Tz11 read a single rotor angle
    spread_cols = [20, 21, 22]  # Tz21..Tz23 are differences
    for k in range(23):
        if k in angle_cols:
            assert out[k] == pytest.approx(base[k] + shift, abs=1e-12)
        elif k in spread_cols:
            assert out[k] == pytest.approx(base[k], abs=1e-12)
        else:
            assert out[k] == base[k]


def test_energy_readings_obey_order_relations(faulted_trajectory):
    tz = dict(zip(FEATURE_NAMES, extract_features(faulted_trajectory)))
    assert tz["Tz14"] >= tz["Tz13"] >= tz["Tz10"] >= 0.0  # sum >= max >= mean
    assert tz["Tz13"] >= tz["Tz12"] >= 0.0                # max >= leader's KE
    for j in range(3):
        assert tz[f"Tz{15 + j}"] >= tz[f"Tz{18 + j}"] >= 0.0
        assert tz[f"Tz{21 + j}"] >= 0.0
    assert tz["Tz3"] >= 0.0


def test_quiet_system_yields_null_disturbance_features(bundled_case, bundled_equilibrium):
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=None, observation_horizon_s=0.5
    )
    traj = simulate(bundled_case, scenario, bundled_equilibrium)
    tz = dict(zip(FEATURE_NAMES, extract_features(traj)))
    assert tz["Tz1"] == pytest.approx(np.mean(bundled_equilibrium.pm), abs=1e-12)
    for name in ("Tz2", "Tz3", "Tz4", "Tz5", "Tz6", "Tz8", "Tz9", "Tz10",
                 "Tz12", "Tz13", "Tz14", "Tz15", "Tz16", "Tz17", "Tz18",
                 "Tz19", "Tz20"):
        assert abs(tz[name]) < 1e-9, name
    spread0 = bundled_equilibrium.delta0.max() - bundled_equilibrium.delta0.min()
    for name in ("Tz21", "Tz22", "Tz23"):
        assert tz[name] == pytest.approx(spread0, abs=1e-9)


def test_recovery_subset_needs_nine_cycles(toy_trajectory):
    cut = dataclasses.replace(
        toy_trajectory,
        times_s=toy_trajectory.times_s[:15],
        delta=toy_trajectory.delta[:15],
        omega_dev=toy_trajectory.omega_dev[:15],
        pe=toy_trajectory.pe[:15],
    )
    with pytest.raises(InvalidArgumentError):
        extract_f3(cut)


def test_subset_columns_layout():
    assert subset_columns("F1") == slice(0, 7)
    assert subset_columns("F2") == slice(7, 14)
    assert subset_columns("F3") == slice(14, 23)
    assert subset_columns("union") == slice(0, 23)
    with pytest.raises(InvalidArgumentError):
        subset_columns("F4")


# --- Standardization ----------------------------------------------------------


def test_standardizer_population_statistics():
    x = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 2.0]])
    std = Standardizer.fit(x)
    assert_allclose(std.mean, [3.0, 2.0], rtol=0, atol=0)
    assert_allclose(std.std, [np.sqrt(8.0 / 3.0), 1.0], rtol=0, atol=1e-15)
    assert list(std.zero_variance) == [False, True]
    z = std.transform(x)
    assert_allclose(z[:, 0], np.array([-2.0, 0.0, 2.0]) / np.sqrt(8.0 / 3.0), atol=1e-15)
    assert_allclose(z[:, 1], 0.0, rtol=0, atol=0)


def test_standardizer_single_row_transform():
    x = np.array([[1.0, 5.0], [3.0, 7.0]])
    std = Standardizer.fit(x)
    row = std.transform(x[0])
    assert row.shape == (2,)
    assert_allclose(row, std.transform(x)[0], rtol=0, atol=0)


def test_standardizer_rejects_degenerate_input():
    with pytest.raises(InvalidArgumentError):
        Standardizer.fit(np.zeros((0, 3)))
    with pytest.raises(InvalidArgumentError):
        Standardizer.fit(np.zeros(5))


@settings(deadline=None, max_examples=50)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(4, 12), st.integers(1, 5)),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_standardized_columns_are_centred_and_unit(x):
    std = Standardizer.fit(x)
    z = std.transform(x)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    live = ~std.zero_variance
    assert_allclose(z[:, live].std(axis=0), 1.0, rtol=0, atol=1e-9)
    assert np.all(z[:, std.zero_variance] == 0.0)
