"""Base kernels, the median width heuristic, and convex Gram mixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from tsakit.errors import InvalidArgumentError, SimplexViolationError, TsaKitError
from tsakit.kernels import (
    GAUSSIAN,
    POLYNOMIAL,
    KernelSpec,
    base_gram,
    compose,
    cross_gram,
    median_width,
    validate_simplex,
)

GAUSS_1 = KernelSpec(kind=GAUSSIAN, sigma=1.0)
POLY_2 = KernelSpec(kind=POLYNOMIAL)


def random_gram(rng, n, kind):
    x = rng.normal(size=(n, rng.integers(1, 6)))
    if kind == GAUSSIAN:
        return base_gram(x, KernelSpec(kind=GAUSSIAN, sigma=median_width(x)))
    return base_gram(x, POLY_2)


# --- Point values -------------------------------------------------------------


def test_gaussian_point_values():
    x = np.array([[0.0, 0.0]])
    z = np.array([[1.0, 0.0], [1.0, 1.0]])
    k = cross_gram(x, z, GAUSS_1)
    # exp(-1/2) and exp(-1) for squared distances 1 and 2 at sigma = 1.
    assert_allclose(k, [[0.6065306597126334, 0.36787944117144233]], rtol=0, atol=1e-15)


def test_gaussian_width_rescales_distances():
    x = np.array([[0.0]])
    z = np.array([[3.0]])
    wide = cross_gram(x, z, KernelSpec(kind=GAUSSIAN, sigma=3.0))
    assert_allclose(wide, [[0.6065306597126334]], rtol=0, atol=1e-15)


def test_polynomial_point_values():
    x = np.array([[1.0, 2.0]])
    z = np.array([[3.0, -1.0], [0.0, 0.0]])
    k = cross_gram(x, z, POLY_2)
    assert_array_equal(k, [[4.0, 1.0]])  # (1 + 1)^2 and (0 + 1)^2
    cubic = KernelSpec(kind=POLYNOMIAL, degree=3, offset=0.5)
    assert_allclose(cross_gram(x, z, cubic), [[1.5**3, 0.5**3]], rtol=0, atol=1e-15)


def test_gaussian_decays_with_distance():
    x = np.zeros((1, 2))
    z = np.array([[0.5, 0.0], [1.0, 0.0], [2.0, 0.0]])
    k = cross_gram(x, z, GAUSS_1)[0]
    assert k[0] > k[1] > k[2] > 0.0


def test_gaussian_wide_limit_is_all_ones():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    g = base_gram(x, KernelSpec(kind=GAUSSIAN, sigma=1e6))
    assert_allclose(g, np.ones((6, 6)), rtol=0, atol=1e-9)


def test_gaussian_narrow_limit_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    g = base_gram(x, KernelSpec(kind=GAUSSIAN, sigma=1e-6))
    assert_allclose(g, np.eye(6), rtol=0, atol=1e-12)


# --- Gram structure -----------------------------------------------------------


def test_gaussian_gram_diagonal_is_exactly_one():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=100.0, size=(15, 4))
    g = base_gram(x, KernelSpec(kind=GAUSSIAN, sigma=median_width(x)))
    assert_array_equal(np.diag(g), np.ones(15))


def test_grams_are_exactly_symmetric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 3))
    for spec in (GAUSS_1, POLY_2):
        g = base_gram(x, spec)
        assert_array_equal(g, g.T)


def test_base_and_cross_grams_agree():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    for spec in (GAUSS_1, POLY_2):
        g = base_gram(x, spec)
        k = cross_gram(x, x, spec)
        assert_allclose(g, 0.5 * (k + k.T), rtol=0, atol=1e-12)


def test_grams_are_positive_semidefinite():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        for kind in (GAUSSIAN, POLYNOMIAL):
            g = random_gram(rng, n, kind)
            assert np.linalg.eigvalsh(g).min() > -1e-9


def test_convex_mixture_stays_positive_semidefinite():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        grams = [random_gram(rng, n, GAUSSIAN), random_gram(rng, n, POLYNOMIAL)]
        beta = rng.dirichlet([1.0, 1.0])
        mixed = compose(grams, beta)
        assert np.linalg.eigvalsh(mixed).min() > -1e-9


def test_cross_gram_validates_dimensions():
    with pytest.raises(InvalidArgumentError):
        cross_gram(np.zeros((2, 3)), np.zeros((2, 4)), GAUSS_1)
    with pytest.raises(InvalidArgumentError):
        cross_gram(np.zeros((2, 2, 2)), np.zeros((2, 2)), GAUSS_1)


def test_one_dimensional_input_is_a_row():
    k = cross_gram(np.array([1.0, 0.0]), np.array([1.0, 0.0]), POLY_2)
    assert k.shape == (1, 1)
    assert k[0, 0] == 4.0  # (1 + 1)^2


# --- Width heuristic ----------------------------------------------------------


def test_median_width_small_set():
    x = np.array([[0.0], [1.0], [3.0]])  # pairwise distances 1, 3, 2
    assert median_width(x) == 2.0


def test_median_width_fallbacks():
    assert median_width(np.zeros((1, 4))) == 1.0
    assert median_width(np.zeros((5, 4))) == 1.0


def test_median_width_scales_linearly():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 3))
    assert median_width(3.0 * x) == pytest.approx(3.0 * median_width(x), rel=1e-12)


# --- Spec validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=GAUSSIAN),
        dict(kind=GAUSSIAN, sigma=0.0),
        dict(kind=GAUSSIAN, sigma=-1.0),
        dict(kind=POLYNOMIAL, degree=0),
        dict(kind=POLYNOMIAL, degree=2.5),
        dict(kind=POLYNOMIAL, offset=-0.1),
        dict(kind="linear"),
        dict(kind=GAUSSIAN, sigma=np.inf),
        dict(kind=POLYNOMIAL, offset=np.nan),
        dict(kind=POLYNOMIAL, offset=np.inf),
    ],
)
def test_kernel_spec_rejects(kwargs):
    with pytest.raises(InvalidArgumentError):
        KernelSpec(**kwargs)


# --- Simplex and composition ---------------------------------------------------


def test_validate_simplex_accepts_boundary_noise():
    beta = np.array([0.5, 0.5 - 1e-13, 1e-13])
    out = validate_simplex(beta)
    assert out.shape == (3,)
    validate_simplex(np.array([1.0]))
    validate_simplex(np.array([0.25, 0.75 + 5e-10]))  # inside the sum tolerance


@pytest.mark.parametrize(
    "beta",
    [
        np.array([0.6, 0.5]),
        np.array([1.0 + 5e-9]),
        np.array([-1e-9, 1.0 + 1e-9]),
        np.zeros((2, 2)),
        np.array([]),
        np.array([np.nan, 0.5, 0.5]),
        np.array([np.nan]),
    ],
)
def test_validate_simplex_rejects(beta):
    with pytest.raises(SimplexViolationError):
        validate_simplex(beta)


def test_simplex_violation_is_a_package_error():
    assert issubclass(SimplexViolationError, TsaKitError)


def test_compose_is_the_stated_mixture():
    rng = np.random.default_rng(8)
    g1 = random_gram(rng, 7, GAUSSIAN)
    g2 = random_gram(rng, 7, POLYNOMIAL)
    beta = np.array([0.3, 0.7])
    assert_allclose(compose([g1, g2], beta), 0.3 * g1 + 0.7 * g2, rtol=0, atol=1e-12)


def test_compose_validates_inputs():
    g = np.eye(3)
    with pytest.raises(InvalidArgumentError):
        compose([g], np.array([0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        compose([g, np.eye(4)], np.array([0.5, 0.5]))
    with pytest.raises(SimplexViolationError):
        compose([g, g], np.array([0.7, 0.7]))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_normalized_weights_compose_any_gram_set(raw, seed):
    beta = np.asarray(raw) / np.sum(raw)
    rng = np.random.default_rng(seed)
    grams = [random_gram(rng, 5, GAUSSIAN) for _ in raw]
    recomposed = sum(b * g for b, g in zip(beta, grams))
    assert np.max(np.abs(compose(grams, beta) - recomposed)) <= 1e-12
