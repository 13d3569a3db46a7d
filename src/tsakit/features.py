"""Disturbance-stage feature extraction.

Twenty-three scalar features are read off a sampled trajectory in three
groups tied to the fault process: F1 at fault inception, F2 at the end of
the fault-on window, F3 over the early recovery.  Together with Z-score
standardization they are the only inputs the classifier ever sees.

Throughout, a_i = (Pm_i - Pe_i) / M_i is the rotor acceleration and
KE_i = M_i w_i^2 / 2 the kinetic energy deviation of machine i.  Argmax
selections break ties toward the lowest generator index, which is what
`numpy.argmax` already does.

Every extractor indexes samples as `[..., k, :]` and reduces over the
machine axis, so one call reads a lone trajectory or a batch (a row per lane).
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


def _acceleration(trajectory: Trajectory, k) -> np.ndarray:
    return (trajectory.pm - trajectory.pe[..., k, :]) / trajectory.inertia


def _kinetic_energy(trajectory: Trajectory, k) -> np.ndarray:
    return 0.5 * trajectory.inertia * trajectory.omega_dev[..., k, :] ** 2


def _at_argmax(values: np.ndarray, key: np.ndarray) -> np.ndarray:
    """`values` at the machine where `key` peaks (lowest index on ties)."""
    pick = np.argmax(key, axis=-1)[..., None]
    return np.take_along_axis(values, pick, axis=-1)[..., 0]


def extract_f1(trajectory: Trajectory) -> np.ndarray:
    """Fault-inception subset Tz1..Tz7.

    Evaluated at the first fault-on sample, except Tz1 which reads the
    (time-constant) mechanical input, Tz6 which compares against the last
    pre-fault sample, and Tz5 which looks one cycle past inception.
    """
    k0 = trajectory.t0_index
    acc = _acceleration(trajectory, k0)
    tz1 = np.mean(trajectory.pm, axis=-1)
    tz2 = np.mean(acc, axis=-1)
    tz3 = np.mean((acc - acc.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
    tz4 = np.mean(trajectory.pm - trajectory.pe[..., k0, :], axis=-1)
    tz5 = np.max(_kinetic_energy(trajectory, k0 + 1), axis=-1)
    tz6 = np.max(np.abs(trajectory.pe[..., k0 - 1, :] - trajectory.pe[..., k0, :]), axis=-1)
    tz7 = _at_argmax(trajectory.delta[..., k0, :], acc)
    return np.stack([tz1, tz2, tz3, tz4, tz5, tz6, tz7], axis=-1)


def extract_f2(trajectory: Trajectory) -> np.ndarray:
    """Fault-clearing subset Tz8..Tz14, read at the last fault-on sample."""
    k = trajectory.tcl_index - 1
    acc = _acceleration(trajectory, k)
    ke = _kinetic_energy(trajectory, k)
    delta = trajectory.delta[..., k, :]
    tz8 = np.sum(np.abs(trajectory.pm - trajectory.pe[..., k, :]), axis=-1)
    tz9 = acc.max(axis=-1) - acc.min(axis=-1)
    tz10 = np.mean(ke, axis=-1)
    tz11 = _at_argmax(delta, ke)
    tz12 = _at_argmax(ke, delta)
    tz13 = ke.max(axis=-1)
    tz14 = ke.sum(axis=-1)
    return np.stack([tz8, tz9, tz10, tz11, tz12, tz13, tz14], axis=-1)


def extract_f3(trajectory: Trajectory) -> np.ndarray:
    """Recovery subset Tz15..Tz23 at 3, 6 and 9 cycles past clearing."""
    ks = [trajectory.tcl_index + off for off in F3_OFFSETS_CYCLES]
    if ks[-1] >= trajectory.n_samples:
        raise InvalidArgumentError(
            f"trajectory needs at least {ks[-1] + 1} samples for the recovery subset"
        )
    ke = _kinetic_energy(trajectory, ks)  # (..., 3, n): one row per offset
    d = trajectory.delta[..., ks, :]
    spread = d.max(axis=-1) - d.min(axis=-1)
    return np.concatenate([ke.max(axis=-1), _at_argmax(ke, d), spread], axis=-1)


def extract_features(trajectory: Trajectory) -> np.ndarray:
    """All 23 features in Tz1..Tz23 order: (23,) or (n_lanes, 23)."""
    return np.concatenate(
        [extract_f1(trajectory), extract_f2(trajectory), extract_f3(trajectory)], axis=-1
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
