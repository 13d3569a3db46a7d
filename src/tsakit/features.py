"""Disturbance-stage feature extraction.

Twenty-three scalar features are read off a sampled trajectory in three
groups tied to the fault process: F1 at fault inception, F2 at the end of
the fault-on window, F3 over the early recovery.  Together with Z-score
standardization they are the only inputs the classifier ever sees.

Throughout, a_i = (Pm_i - Pe_i) / M_i is the rotor acceleration and
KE_i = M_i w_i^2 / 2 the kinetic energy deviation of machine i.  Argmax
selections break ties toward the lowest generator index, which is what
`numpy.argmax` already does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .simulator import Trajectory

FEATURE_NAMES = tuple(f"Tz{i}" for i in range(1, 24))

# Column layout of the 23-vector, by subset.
SUBSET_SLICES = {"F1": slice(0, 7), "F2": slice(7, 14), "F3": slice(14, 23)}

F3_OFFSETS_CYCLES = (3, 6, 9)


def subset_columns(name: str) -> slice:
    """Columns of the 23-vector a named subset reads; 'union' takes all."""
    if name == "union":
        return slice(0, len(FEATURE_NAMES))
    if name not in SUBSET_SLICES:
        raise InvalidArgumentError(f"unknown subset {name!r}")
    return SUBSET_SLICES[name]


def _acceleration(trajectory: Trajectory, k: int) -> np.ndarray:
    return (trajectory.pm - trajectory.pe[k]) / trajectory.inertia


def _kinetic_energy(trajectory: Trajectory, k: int) -> np.ndarray:
    return 0.5 * trajectory.inertia * trajectory.omega_dev[k] ** 2


def extract_f1(trajectory: Trajectory) -> np.ndarray:
    """Fault-inception subset Tz1..Tz7.

    Evaluated at the first fault-on sample, except Tz1 which reads the
    (time-constant) mechanical input, Tz6 which compares against the last
    pre-fault sample, and Tz5 which looks one cycle past inception.
    """
    k0 = trajectory.t0_index
    if k0 + 1 >= trajectory.n_samples:
        raise InvalidArgumentError("trajectory ends too soon after fault inception")
    acc = _acceleration(trajectory, k0)
    ke_next = _kinetic_energy(trajectory, k0 + 1)
    imbalance = trajectory.pm - trajectory.pe[k0]
    tz1 = float(np.mean(trajectory.pm))
    tz2 = float(np.mean(acc))
    tz3 = float(np.mean((acc - acc.mean()) ** 2))
    tz4 = float(np.mean(imbalance))
    tz5 = float(np.max(ke_next))
    tz6 = float(np.max(np.abs(trajectory.pe[k0 - 1] - trajectory.pe[k0])))
    tz7 = float(trajectory.delta[k0, int(np.argmax(acc))])
    return np.array([tz1, tz2, tz3, tz4, tz5, tz6, tz7])


def extract_f2(trajectory: Trajectory) -> np.ndarray:
    """Fault-clearing subset Tz8..Tz14, read at the last fault-on sample."""
    if trajectory.tcl_index <= trajectory.t0_index:
        raise InvalidArgumentError("fault clearing precedes inception")
    k = trajectory.tcl_index - 1
    acc = _acceleration(trajectory, k)
    ke = _kinetic_energy(trajectory, k)
    tz8 = float(np.sum(np.abs(trajectory.pm - trajectory.pe[k])))
    tz9 = float(acc.max() - acc.min())
    tz10 = float(np.mean(ke))
    tz11 = float(trajectory.delta[k, int(np.argmax(ke))])
    tz12 = float(ke[int(np.argmax(trajectory.delta[k]))])
    tz13 = float(ke.max())
    tz14 = float(ke.sum())
    return np.array([tz8, tz9, tz10, tz11, tz12, tz13, tz14])


def extract_f3(trajectory: Trajectory) -> np.ndarray:
    """Recovery subset Tz15..Tz23 at 3, 6 and 9 cycles past clearing."""
    ks = [trajectory.tcl_index + off for off in F3_OFFSETS_CYCLES]
    if ks[-1] >= trajectory.n_samples:
        raise InvalidArgumentError(
            f"trajectory needs at least {ks[-1] + 1} samples for the recovery subset"
        )
    max_ke = []
    ke_of_lead = []
    spread = []
    for k in ks:
        ke = _kinetic_energy(trajectory, k)
        d = trajectory.delta[k]
        max_ke.append(float(ke.max()))
        ke_of_lead.append(float(ke[int(np.argmax(d))]))
        spread.append(float(d.max() - d.min()))
    return np.array(max_ke + ke_of_lead + spread)


def extract_features(trajectory: Trajectory) -> np.ndarray:
    """All 23 features in Tz1..Tz23 order."""
    return np.concatenate(
        [extract_f1(trajectory), extract_f2(trajectory), extract_f3(trajectory)]
    )


@dataclass(frozen=True)
class Standardizer:
    """Z-score transform with population statistics.

    Constant columns are flagged and map to exactly zero rather than
    dividing by a vanishing spread.
    """

    mean: np.ndarray
    std: np.ndarray
    zero_variance: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidArgumentError("need a non-empty 2-D sample matrix")
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population divisor
        zero = std < 1e-12
        return cls(mean=mean, std=np.where(zero, 1.0, std), zero_variance=zero)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.std
        return np.where(self.zero_variance, 0.0, z)
