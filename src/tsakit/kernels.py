"""Gram matrices and convex kernel mixtures.

Two base kernels are supported: the Gaussian kernel
exp(-||x - z||^2 / (2 sigma^2)) and the inhomogeneous polynomial kernel
(x . z + c)^d.  A composite kernel space is a convex combination of base
Gram matrices; the mixture weights live on the probability simplex and are
validated everywhere they enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import InvalidArgumentError, SimplexViolationError

GAUSSIAN = "gaussian"
POLYNOMIAL = "polynomial"

# Short codes used in scheme strings and report tables.
KIND_CODES = {"Kg": GAUSSIAN, "Kp": POLYNOMIAL}
CODE_OF_KIND = {v: k for k, v in KIND_CODES.items()}

SIMPLEX_SUM_TOL = 1e-9
SIMPLEX_NEG_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    sigma: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            if self.sigma is None or not (0 < self.sigma < math.inf):
                raise InvalidArgumentError("gaussian kernel needs a finite sigma > 0")
        elif self.kind == POLYNOMIAL:
            if int(self.degree) != self.degree or self.degree < 1:
                raise InvalidArgumentError("polynomial degree must be a positive integer")
            if not (0 <= self.offset < math.inf):
                raise InvalidArgumentError("polynomial offset must be finite and non-negative")
        else:
            raise InvalidArgumentError(f"unknown kernel kind {self.kind!r}")


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise InvalidArgumentError("samples must form a 2-D matrix")
    return x


def median_width(x: np.ndarray) -> float:
    """Median pairwise distance, the usual default Gaussian width.

    Falls back to 1.0 when fewer than two samples exist or every pair
    coincides.
    """
    x = _as_matrix(x)
    if x.shape[0] < 2:
        return 1.0
    d = pdist(x)
    med = float(np.median(d))
    return med if med > 0 else 1.0


def cross_gram(x: np.ndarray, z: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """K[i, j] = k(x_i, z_j)."""
    x = _as_matrix(x)
    z = _as_matrix(z)
    if x.shape[1] != z.shape[1]:
        raise InvalidArgumentError("sample dimensions do not match")
    if spec.kind == GAUSSIAN:
        sq = cdist(x, z, metric="sqeuclidean")
        return np.exp(-sq / (2.0 * spec.sigma**2))
    return (x @ z.T + spec.offset) ** spec.degree


def base_gram(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Symmetric Gram matrix of one base kernel over a sample set."""
    x = _as_matrix(x)
    g = cross_gram(x, x, spec)
    if spec.kind == GAUSSIAN:
        np.fill_diagonal(g, 1.0)
    return 0.5 * (g + g.T)


def validate_simplex(beta: np.ndarray) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size < 1:
        raise SimplexViolationError("mixture weights must form a 1-D vector")
    if not np.all(beta >= -SIMPLEX_NEG_TOL):
        raise SimplexViolationError(f"negative or non-finite mixture weight in {beta!r}")
    if not abs(float(beta.sum()) - 1.0) <= SIMPLEX_SUM_TOL:
        raise SimplexViolationError(f"mixture weights sum to {float(beta.sum())!r}, not 1")
    return beta


def compose(grams, beta) -> np.ndarray:
    """Convex combination of equally sized Gram matrices."""
    beta = validate_simplex(beta)
    if len(grams) != beta.size:
        raise InvalidArgumentError("one weight per Gram matrix is required")
    shape = grams[0].shape
    for g in grams:
        if g.shape != shape:
            raise InvalidArgumentError("Gram matrices must share a shape")
    out = np.zeros(shape)
    for w, g in zip(beta, grams):
        out += w * g
    return out
