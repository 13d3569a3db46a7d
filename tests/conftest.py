"""Shared fixtures: small hand-checkable systems and one bundled-case run."""

import pathlib

import numpy as np
import pytest

from tsakit.network import (
    Branch,
    Bus,
    Generator,
    Load,
    NetworkCase,
    load_bundled_case,
    reduce_to_generators,
    solve_equilibrium,
)
from tsakit.simulator import Scenario, simulate


@pytest.fixture(scope="session")
def pair_case():
    """Lossless two-machine system with a closed-form operating point.

    Internal node 1 and 2 are joined by the series chain xd + x_line + xd
    = 0.1 + 0.2 + 0.1, so the reduced admittance is -2.5j between them and
    the synchronizing coefficient E1 E2 B12 equals 2.5.
    """
    return NetworkCase(
        case_id="pair",
        base_frequency_hz=60.0,
        buses=(Bus(1), Bus(2)),
        branches=(Branch(1, 2, complex(0.0, -5.0)),),
        generators=(
            Generator(bus=1, m=0.05, d=0.0, xd=0.1, emf=1.0),
            Generator(bus=2, m=0.02, d=0.0, xd=0.1, emf=1.0),
        ),
        loads=(),
    )


@pytest.fixture(scope="session")
def lossy_case():
    """Two machines, a resistive tie and one load; nothing degenerate."""
    return NetworkCase(
        case_id="lossy",
        base_frequency_hz=60.0,
        buses=(Bus(1, shunt=complex(0.0, 0.05)), Bus(2), Bus(3)),
        branches=(
            Branch(1, 3, complex(1.0, -8.0)),
            Branch(2, 3, complex(1.5, -6.0)),
        ),
        generators=(
            Generator(bus=1, m=0.04, d=0.03, xd=0.12, emf=1.05),
            Generator(bus=2, m=0.02, d=0.02, xd=0.18, emf=1.02),
        ),
        loads=(Load(bus=3, p=1.1, q=0.4),),
    )


@pytest.fixture(scope="session")
def bundled_case():
    return load_bundled_case()


@pytest.fixture(scope="session")
def bundled_equilibrium(bundled_case):
    """Uniform dispatch of the nominal demand on the bundled case."""
    reduced = reduce_to_generators(bundled_case)
    pm = np.full(
        bundled_case.n_generators,
        bundled_case.total_load_p / bundled_case.n_generators,
    )
    return solve_equilibrium(bundled_case, reduced, pm)


@pytest.fixture(scope="session")
def faulted_trajectory(bundled_case, bundled_equilibrium):
    """One disturbed run on the bundled case, shared by feature tests."""
    scenario = Scenario(
        load_scale=1.0,
        dispatch_seed=0,
        fault_bus=7,
        fault_clearing_cycles=5,
        observation_horizon_s=2.0,
    )
    return simulate(bundled_case, scenario, bundled_equilibrium)


DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def toy_dataset():
    """Committed two-blob set: (24, 4) observables and 0/1 classes."""
    rows = []
    labels = []
    for line in (DATA_DIR / "toy_classifier.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        rows.append([float(v) for v in parts[:-1]])
        labels.append(int(parts[-1]))
    return np.array(rows), np.array(labels)


@pytest.fixture(scope="session")
def toy_grams(toy_dataset):
    """Two Gaussian Gram matrices over the first and last feature pair."""
    from tsakit.features import Standardizer
    from tsakit.kernels import GAUSSIAN, KernelSpec, base_gram, median_width

    x, _ = toy_dataset
    grams = []
    for cols in (slice(0, 2), slice(2, 4)):
        xs = Standardizer.fit(x[:, cols]).transform(x[:, cols])
        grams.append(base_gram(xs, KernelSpec(kind=GAUSSIAN, sigma=median_width(xs))))
    return grams


@pytest.fixture(scope="session")
def small_plan():
    """Compact grid on the bundled case: 18 cells, both outcomes, no failures."""
    from tsakit.kb import ScenarioPlan

    return ScenarioPlan(
        fault_buses=(7, 8, 9),
        load_levels=(1.05, 1.25),
        dispatches_per_level=3,
        master_seed=0,
    )


@pytest.fixture(scope="session")
def small_kb(bundled_case, small_plan):
    from tsakit.kb import generate_kb

    return generate_kb(bundled_case, small_plan)


@pytest.fixture(scope="session")
def noisy_small_kb(bundled_case, small_plan):
    from tsakit.kb import generate_kb

    return generate_kb(bundled_case, small_plan, noise_max_rel_error=0.01)
