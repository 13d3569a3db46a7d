"""Variational kernel-mixture probit: update oracles, bound, prediction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from tsakit.errors import (
    DegenerateLabelsError,
    FormatError,
    InvalidArgumentError,
    NumericalFailureError,
)
from tsakit.features import Standardizer
from tsakit.kernels import GAUSSIAN, KernelSpec, base_gram, median_width, validate_simplex
from tsakit.mkprobit import (
    GAMMA_PRIOR_RATE,
    GAMMA_PRIOR_SHAPE,
    JITTER,
    TrainedModel,
    _quadrature_probabilities,
    _solve_spd,
    _truncated_moments,
    init_state,
    load_model,
    lower_bound,
    model_from_document,
    model_probabilities,
    model_to_document,
    predictive_distribution,
    resample_beta,
    save_model,
    train,
    update_auxiliaries,
    update_regressors_and_scales,
)


def make_blobs(n_per, seed, spread=1.0, shift=1.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=shift, scale=spread, size=(n_per, 4))
    b = rng.normal(loc=-shift, scale=spread, size=(n_per, 4))
    x = np.vstack([a, b])
    t = np.array([0] * n_per + [1] * n_per)
    order = rng.permutation(len(t))
    return x[order], t[order]


def fit_plain_model(x, targets, seed=0, max_iters=200):
    """Single Gaussian kernel over all columns, wrapped for prediction."""
    std = Standardizer.fit(x)
    xs = std.transform(x)
    spec = KernelSpec(kind=GAUSSIAN, sigma=median_width(xs))
    state = train([base_gram(xs, spec)], targets, seed=seed, max_iters=max_iters)
    return TrainedModel(
        subset_names=("union",),
        standardizers=(std,),
        kernel_specs=(spec,),
        beta=state.beta.copy(),
        w_mean=state.w_mean.copy(),
        w_cov_diag=np.einsum("cii->ci", state.w_cov).copy(),
        train_features=(xs,),
        class_labels=(0, 1),
        converged=state.converged,
        lb_trace=tuple(state.lb_trace),
    )


# --- Truncated auxiliary moments ------------------------------------------------


def test_truncated_moments_match_monte_carlo():
    m = np.array([[0.5], [-0.3], [0.1]])
    targets = np.array([0])
    y, log_z = _truncated_moments(m, targets)

    rng = np.random.default_rng(42)
    draws = rng.normal(loc=m[:, 0], scale=1.0, size=(1_000_000, 3))
    keep = (draws[:, 0] > draws[:, 1]) & (draws[:, 0] > draws[:, 2])
    assert_allclose(np.exp(log_z[0]), keep.mean(), rtol=0, atol=3e-3)
    assert_allclose(y[:, 0], draws[keep].mean(axis=0), rtol=0, atol=8e-3)


def test_truncated_moments_preserve_mean_sum():
    rng = np.random.default_rng(11)
    m = rng.normal(scale=2.0, size=(4, 50))
    targets = rng.integers(0, 4, size=50)
    y, _ = _truncated_moments(m, targets)
    assert np.max(np.abs(y.sum(axis=0) - m.sum(axis=0))) < 1e-9


@pytest.mark.parametrize("a", [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
def test_two_class_moments_have_closed_form(a):
    # With two classes the truncation mass is Phi(a / sqrt(2)) and the
    # rival mean shifts down by phi(a / sqrt(2)) / sqrt(2) over that mass.
    m = np.array([[a], [0.0]])
    y, log_z = _truncated_moments(m, np.array([0]))
    z_exact = ndtr(a / np.sqrt(2.0))
    hazard = norm.pdf(a / np.sqrt(2.0)) / np.sqrt(2.0) / z_exact
    assert_allclose(log_z[0], log_ndtr(a / np.sqrt(2.0)), rtol=0, atol=1e-12)
    assert_allclose(y[1, 0], -hazard, rtol=1e-12, atol=0)
    assert_allclose(y[0, 0], a + hazard, rtol=1e-12, atol=1e-12)


def test_two_class_moments_hold_from_deep_tail_to_certainty():
    # The same identities over d in [-30, 8], where Z falls to 1e-100; the
    # hazard is formed in log space so the oracle itself stays exact.
    d = np.linspace(-30.0, 8.0, 381)
    y, log_z = _truncated_moments(np.vstack([d, np.zeros_like(d)]), np.zeros(d.size, dtype=int))
    x = d / np.sqrt(2.0)
    hazard = np.exp(norm.logpdf(x) - log_ndtr(x)) / np.sqrt(2.0)
    assert_allclose(log_z, log_ndtr(x), rtol=0, atol=1e-12)
    assert_allclose(-y[1], hazard, rtol=1e-12, atol=0)
    assert_allclose(y[0], d + hazard, rtol=1e-12, atol=1e-12)


def test_auxiliary_update_flags_non_finite_state(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    state.w_mean[:] = np.nan
    with pytest.raises(NumericalFailureError):
        update_auxiliaries(state)


def test_auxiliary_consistency_after_training(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = train(toy_grams, targets, seed=5, max_iters=30)
    m = state.w_mean @ state.k_eff
    assert np.max(np.abs(state.y_mean.sum(axis=0) - m.sum(axis=0))) < 1e-9


# --- Regressor and scale updates -------------------------------------------------


def test_regressor_update_matches_ridge_formula():
    # Identity Gram: every weight is an independent scalar ridge problem
    # with unit prior scale, so cov = 1/(k^2 + 1) and mean = k y/(k^2 + 1).
    targets = np.array([0, 1])
    state = init_state([np.eye(2)], targets)
    update_regressors_and_scales(state)
    k = 1.0 + JITTER
    gain = k / (k**2 + 1.0)
    for c in range(2):
        assert_allclose(state.w_cov[c], np.eye(2) / (k**2 + 1.0), rtol=1e-12)
        assert_allclose(state.w_mean[c], gain * state.y_mean[c], rtol=1e-12)
        assert_allclose(state.w_logdet[c], -2.0 * np.log(k**2 + 1.0), rtol=1e-12)
    assert_allclose(state.scale_shape, GAMMA_PRIOR_SHAPE + 0.5, rtol=0, atol=0)
    expected_rate = GAMMA_PRIOR_RATE + 0.5 * (gain**2 + 1.0 / (k**2 + 1.0))
    assert_allclose(state.scale_rate, expected_rate, rtol=1e-12)


def test_solve_spd_inverts_and_reports_logdet():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    spd = a @ a.T + 8.0 * np.eye(8)
    cov, logdet, extra = _solve_spd(spd)
    assert extra == 0.0
    assert_allclose(cov @ spd, np.eye(8), rtol=0, atol=1e-10)
    sign, expected = np.linalg.slogdet(cov)
    assert sign > 0
    assert_allclose(logdet, expected, rtol=0, atol=1e-10)


def test_solve_spd_escalates_regularisation():
    cov, _, extra = _solve_spd(np.diag([1.0, -1e-7]))
    assert extra == 1e-6
    assert np.all(np.isfinite(cov))


def test_solve_spd_gives_up_on_hopeless_input():
    with pytest.raises(NumericalFailureError):
        _solve_spd(-np.eye(3))


# --- Lower bound ------------------------------------------------------------------


def test_fixed_mixture_sweeps_never_decrease_bound(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    previous = None
    for _ in range(30):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        bound = lower_bound(state)
        if previous is not None:
            assert bound >= previous - 1e-8
        previous = bound


def test_bound_monotone_under_skewed_fixed_mixture(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    state.set_beta(np.array([0.8, 0.2]))
    previous = None
    for _ in range(15):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        bound = lower_bound(state)
        if previous is not None:
            assert bound >= previous - 1e-8
        previous = bound


def test_training_converges_and_improves_bound(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = train(toy_grams, targets, seed=0)
    assert state.converged
    assert len(state.lb_trace) < 200
    assert state.lb_trace[-1] >= state.lb_trace[0]
    validate_simplex(state.beta)


def test_mixture_stays_on_simplex_every_iteration(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    seeds = np.random.SeedSequence(9).spawn(25)
    for it in range(25):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        resample_beta(state, seed=seeds[it])
        validate_simplex(state.beta)
        assert abs(float(state.beta.sum()) - 1.0) < 1e-12


def test_training_is_deterministic(toy_grams, toy_dataset):
    _, targets = toy_dataset
    a = train(toy_grams, targets, seed=3, max_iters=40)
    b = train(toy_grams, targets, seed=3, max_iters=40)
    assert a.lb_trace == b.lb_trace
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.w_mean, b.w_mean)
    c = train(toy_grams, targets, seed=4, max_iters=40)
    assert not np.array_equal(a.beta, c.beta)


def test_label_swap_mirrors_the_posterior(toy_grams, toy_dataset):
    _, targets = toy_dataset
    a = train(toy_grams, targets, seed=6, max_iters=30)
    b = train(toy_grams, 1 - targets, seed=6, max_iters=30)
    assert np.max(np.abs(a.w_mean - b.w_mean[::-1])) < 1e-9
    assert np.max(np.abs(a.beta - b.beta)) < 1e-9
    assert abs(a.lb_trace[-1] - b.lb_trace[-1]) < 1e-7


def test_identical_spaces_get_balanced_mixture(toy_grams, toy_dataset):
    _, targets = toy_dataset
    g = toy_grams[0]
    finals = [
        train([g, g.copy()], targets, seed=seed, max_iters=40).beta[0]
        for seed in range(20)
    ]
    assert abs(float(np.mean(finals)) - 0.5) < 0.1


def test_single_space_skips_resampling(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state([toy_grams[0]], targets)
    rho_before = state.rho.copy()
    out = resample_beta(state, seed=0)
    assert np.array_equal(out, np.array([1.0]))
    assert np.array_equal(state.rho, rho_before)


# --- State construction ------------------------------------------------------------


@pytest.mark.parametrize(
    "targets",
    [np.array([]), np.zeros((2, 2), dtype=int), np.array([-1, 0]), np.array([0, 3])],
)
def test_init_state_rejects_bad_targets(targets):
    with pytest.raises(InvalidArgumentError):
        init_state([np.eye(len(np.atleast_1d(targets)) or 1)], targets, n_classes=2)


def test_init_state_rejects_single_class():
    with pytest.raises(DegenerateLabelsError):
        init_state([np.eye(3)], np.array([1, 1, 1]))


def test_init_state_rejects_mismatched_gram():
    with pytest.raises(InvalidArgumentError):
        init_state([np.eye(3)], np.array([0, 1]))


def test_init_state_starting_point(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    n = len(targets)
    assert_allclose(state.beta, [0.5, 0.5], rtol=0, atol=0)
    assert np.array_equal(state.w_mean, np.zeros((2, n)))
    assert state.y_mean[targets, np.arange(n)].min() == 1.0
    composite = 0.5 * toy_grams[0] + 0.5 * toy_grams[1]
    assert_allclose(state.k_eff, composite + JITTER * np.eye(n), rtol=0, atol=1e-15)


# --- Prediction ----------------------------------------------------------------------


@pytest.mark.parametrize("a", [-3.0, -1.5, 0.0, 0.7, 2.5])
def test_two_class_probability_closed_form(a):
    mean = np.array([[a, 0.0]])
    spread = np.ones((1, 2))
    probs = _quadrature_probabilities(mean, spread)
    assert_allclose(probs[0, 0], ndtr(a / np.sqrt(2.0)), rtol=1e-12, atol=0)
    assert_allclose(probs[0].sum(), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0])
def test_two_class_probability_with_unequal_spreads(ratio):
    # P(class 0) = Phi((m0 - m1) / sqrt(v0^2 + v1^2)).  The 128-node rule
    # holds this to 1e-12 for spread ratios up to 2 (at 3 it is near 1e-10).
    d = np.linspace(-8.0, 8.0, 161)
    for v0, v1 in [(1.0, ratio), (ratio, 1.0), (2.2, 2.2 * ratio), (1.3 * ratio, 1.3)]:
        mean = np.column_stack([d * np.hypot(v0, v1), np.zeros_like(d)])
        spread = np.column_stack([np.full_like(d, v0), np.full_like(d, v1)])
        probs = _quadrature_probabilities(mean, spread)
        assert_allclose(probs[:, 0], ndtr(d), rtol=1e-12, atol=0)
        assert_allclose(probs[:, 1], ndtr(-d), rtol=1e-12, atol=0)


def test_raw_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 8))
        mean = rng.uniform(-5.0, 5.0, size=(n, c))
        spread = rng.uniform(1.0, 3.0, size=(n, c))
        probs = _quadrature_probabilities(mean, spread)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-6
        assert probs.min() >= 0.0


def test_separable_blobs_classify_cleanly():
    x_train, t_train = make_blobs(30, seed=20)
    x_test, t_test = make_blobs(20, seed=21)
    model = fit_plain_model(x_train, t_train)
    probs, _, _ = model_probabilities(model, x_test)
    accuracy = np.mean(np.argmax(probs, axis=1) == t_test)
    assert accuracy >= 0.98


def test_model_probability_plumbing():
    x_train, t_train = make_blobs(15, seed=22)
    model = fit_plain_model(x_train, t_train, max_iters=60)
    x_query = x_train[:5]
    normed, mean, spread = model_probabilities(model, x_query)
    raw = _quadrature_probabilities(mean, spread)
    assert np.max(np.abs(raw.sum(axis=1) - 1.0)) < 1e-6
    assert np.all(spread >= 1.0)  # unit link noise plus a quadratic form
    assert_allclose(normed.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(normed, raw / raw.sum(axis=1, keepdims=True))

    single = predictive_distribution(model, x_query[0])
    assert single.probabilities.shape == (2,)
    assert single.label in model.class_labels
    assert single.label == model.class_labels[int(np.argmax(single.probabilities))]


def test_swapped_labels_swap_probabilities():
    x_train, t_train = make_blobs(15, seed=23)
    x_test, _ = make_blobs(10, seed=24)
    a = fit_plain_model(x_train, t_train, max_iters=60)
    b = fit_plain_model(x_train, 1 - t_train, max_iters=60)
    pa, _, _ = model_probabilities(a, x_test)
    pb, _, _ = model_probabilities(b, x_test)
    assert np.max(np.abs(pa - pb[:, ::-1])) < 1e-9


# --- Persistence ----------------------------------------------------------------------


def test_model_document_round_trip_is_byte_stable(tmp_path):
    x_train, t_train = make_blobs(12, seed=25)
    model = fit_plain_model(x_train, t_train, max_iters=40)
    text = model_to_document(model)
    clone = model_from_document(text)
    assert model_to_document(clone) == text

    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    x_query = x_train[:4]
    p0, m0, s0 = model_probabilities(model, x_query)
    p1, m1, s1 = model_probabilities(loaded, x_query)
    assert np.array_equal(p0, p1)
    assert np.array_equal(m0, m1)
    assert np.array_equal(s0, s1)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("not json", "JSON"),
        ("[1, 2]", "object"),
        ('{"model_format": 99}', "format"),
        ('{"model_format": 1}', "field"),
    ],
)
def test_model_document_rejects_malformed(text, fragment):
    with pytest.raises(FormatError) as excinfo:
        model_from_document(text)
    assert fragment in str(excinfo.value)
