"""Variational kernel-mixture probit: update oracles, bound, prediction."""

import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import digamma, gammaln, log_ndtr, ndtr
from scipy.stats import norm

from tsakit import mkprobit
from tsakit.errors import (
    DegenerateLabelsError,
    FormatError,
    InvalidArgumentError,
    NumericalFailureError,
)
from tsakit.features import Standardizer
from tsakit.kernels import (
    GAUSSIAN,
    POLYNOMIAL,
    KernelSpec,
    base_gram,
    compose,
    median_width,
    validate_simplex,
)
from tsakit.mkprobit import (
    GAMMA_PRIOR_RATE,
    GAMMA_PRIOR_SHAPE,
    JITTER,
    SCALE_SHAPE,
    TrainedModel,
    _class_probabilities,
    _mixture_terms,
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


def fit_plain_model(x, targets, max_iters=200):
    """Single Gaussian kernel over all columns, wrapped for prediction."""
    std = Standardizer.fit(x)
    xs = std.transform(x)
    spec = KernelSpec(kind=GAUSSIAN, sigma=median_width(xs))
    state = train([base_gram(xs, spec)], targets, max_iters=max_iters)
    return TrainedModel(
        subset_names=("union",),
        standardizers=(std,),
        kernel_specs=(spec,),
        beta=state.beta.copy(),
        w_mean=state.w_mean,
        w_cov_diag=np.diag(state.w_cov),
        train_features=(xs,),
        class_labels=(0, 1),
        converged=state.converged,
        lb_trace=tuple(state.lb_trace),
    )


# --- Quadrature oracle ----------------------------------------------------------
#
# The general C-class link expectations of the model family, evaluated by a
# 128-node Gauss-Hermite rule over a shared standard-normal variable u.  They
# share no code with the closed forms they check.

_GH_X, _GH_W = np.polynomial.hermite.hermgauss(128)
_U = np.sqrt(2.0) * _GH_X       # nodes of a standard normal expectation
_UW = _GH_W / np.sqrt(np.pi)    # matching weights, summing to one


def quadrature_truncated_moments(m, targets):
    """E[y_jn] = m_jn - E_u[pdf_j prod_{l != i,j} cdf_l] / Z_n for rivals j of
    the true class i, Z_n = E_u[prod_{l != i} cdf_l], with pdf/cdf taken at
    u + m_in - m_ln; the true class absorbs the sum of corrections."""
    n_classes, n = m.shape
    idx = np.arange(n)
    m_true = m[targets, idx]
    arg = _U[None, None, :] + (m_true[None, :] - m)[:, :, None]     # (C, N, GH)
    rival = np.ones((n_classes, n), dtype=bool)
    rival[targets, idx] = False
    log_cdf = np.where(rival[:, :, None], log_ndtr(arg), 0.0)
    sum_log = log_cdf.sum(axis=0)                                    # (N, GH)
    z = np.exp(sum_log) @ _UW
    log_pdf = -0.5 * arg**2 - 0.5 * np.log(2.0 * np.pi)
    corr = np.where(rival, (np.exp(log_pdf + sum_log[None] - log_cdf) @ _UW) / z, 0.0)
    y = m - corr
    y[targets, idx] = m_true + corr.sum(axis=0)
    return y, np.log(z)


def quadrature_probabilities(mean, spread):
    """P(class c) = E_u prod_{j != c} Phi((u v_c + m_c - m_j) / v_j)."""
    n, c = mean.shape
    probs = np.empty((n, c))
    for ci in range(c):
        shifted = _U[None, :, None] * spread[:, None, ci : ci + 1]  # (n, GH, 1)
        arg = (shifted + (mean[:, None, ci : ci + 1] - mean[:, None, :])) / spread[:, None, :]
        log_terms = log_ndtr(arg)
        log_terms[:, :, ci] = 0.0
        probs[:, ci] = np.exp(log_terms.sum(axis=2)) @ _UW
    return probs


# --- Truncated auxiliary moments ------------------------------------------------


def test_truncated_moments_match_monte_carlo():
    # The model sees class 0's mean as the half-difference of the two means;
    # the shift it returns moves the true class up and the rival down.
    m = np.array([[0.5, -0.4], [-0.3, 0.2]])
    targets = np.array([0, 1])
    half = (m[0] - m[1]) / 2.0
    y, log_z = _truncated_moments(half, targets)
    shift = y - half

    rng = np.random.default_rng(42)
    for n, t in enumerate(targets):
        draws = rng.normal(loc=m[:, n], scale=1.0, size=(1_000_000, 2))
        keep = draws[:, t] > draws[:, 1 - t]
        assert_allclose(np.exp(log_z[n]), keep.mean(), rtol=0, atol=3e-3)
        expected = m[:, n] + [shift[n], -shift[n]]
        assert_allclose(expected, draws[keep].mean(axis=0), rtol=0, atol=8e-3)


def test_truncated_moments_rank_the_true_class_first():
    # Conditioning on y_true > y_rival keeps E[y_true] > E[y_rival], whatever
    # the means: the hazard must outweigh a mean on the wrong side, down to
    # d = m_true - m_rival = -30.  Class 1's auxiliaries are -y, so the
    # margin is (1 - 2t) y.
    rng = np.random.default_rng(11)
    d = np.concatenate([rng.normal(scale=4.0, size=50), np.linspace(-30.0, 8.0, 50)])
    targets = rng.integers(0, 2, size=d.size)
    sign = 1 - 2 * targets
    y, _ = _truncated_moments(sign * d / 2.0, targets)
    assert np.all(sign * y > 0.0)


@pytest.mark.parametrize("a", [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
def test_two_class_moments_have_closed_form(a):
    # With two classes the truncation mass is Phi(a / sqrt(2)) and the
    # rival mean shifts down by phi(a / sqrt(2)) / sqrt(2) over that mass.
    # Means (a, 0) reach the model as class 0's half-difference a / 2.
    half = np.array([a / 2.0])
    y, log_z = _truncated_moments(half, np.array([0]))
    z_exact = ndtr(a / np.sqrt(2.0))
    hazard = norm.pdf(a / np.sqrt(2.0)) / np.sqrt(2.0) / z_exact
    assert_allclose(log_z[0], log_ndtr(a / np.sqrt(2.0)), rtol=0, atol=1e-12)
    assert_allclose(y[0] - half[0], hazard, rtol=1e-12, atol=0)
    assert_allclose(y[0] + half[0], a + hazard, rtol=1e-12, atol=1e-12)


def test_two_class_moments_hold_from_deep_tail_to_certainty():
    # The same identities over d in [-30, 8], where Z falls to 1e-100; the
    # hazard is formed in log space so the oracle itself stays exact.  The
    # model stores the shift on top of the half-difference d / 2, so the
    # expected shift is read back through the same addition.
    d = np.linspace(-30.0, 8.0, 381)
    half = d / 2.0
    y, log_z = _truncated_moments(half, np.zeros(d.size, dtype=int))
    x = d / np.sqrt(2.0)
    hazard = np.exp(norm.logpdf(x) - log_ndtr(x)) / np.sqrt(2.0)
    assert_allclose(log_z, log_ndtr(x), rtol=0, atol=1e-12)
    assert_allclose(y - half, (half + hazard) - half, rtol=1e-12, atol=0)
    assert_allclose(y, half + hazard, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("true_class", [0, 1])
def test_truncated_moments_match_quadrature_oracle(true_class):
    # d = m_true - m_rival over [-30, 8].  The model passes class 0's mean,
    # the half-difference; the oracle reads the full two-row mean (m, -m),
    # and for log Z also that mean with an offset of 0.7 on both rows.  The
    # rival correction agrees to 1e-12 relative, log Z to 1e-12 absolute.
    d = np.linspace(-30.0, 8.0, 381)
    targets = np.full(d.size, true_class)
    half = (1 - 2 * true_class) * d / 2.0
    y, log_z = _truncated_moments(half, targets)
    m = np.vstack([half, -half])
    y_ref, log_z_ref = quadrature_truncated_moments(m, targets)
    _, log_z_offset = quadrature_truncated_moments(m + 0.7, targets)
    y = np.vstack([y, -y])
    rival = 1 - true_class
    assert_allclose(log_z, log_z_ref, rtol=0, atol=1e-12)
    assert_allclose(log_z, log_z_offset, rtol=0, atol=1e-12)
    assert_allclose(m[rival] - y[rival], m[rival] - y_ref[rival], rtol=1e-12, atol=0)
    assert_allclose(y, y_ref, rtol=1e-12, atol=1e-12)


def test_auxiliary_update_flags_non_finite_state(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    state.w_mean[:] = np.nan
    with pytest.raises(NumericalFailureError):
        update_auxiliaries(state)


def test_auxiliary_consistency_after_training(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = train(toy_grams, targets, max_iters=30)
    assert state.y_mean.shape == targets.shape
    assert np.all((1 - 2 * targets) * state.y_mean > 0.0)


# --- Regressor and scale updates -------------------------------------------------


def test_regressor_update_matches_ridge_formula():
    # Identity Gram: every weight is an independent scalar ridge problem
    # with unit prior scale, so cov = 1/(k^2 + 1) and mean = k y/(k^2 + 1).
    targets = np.array([0, 1])
    state = init_state([np.eye(2)], targets)
    assert np.all(SCALE_SHAPE / state.scale_rate == GAMMA_PRIOR_SHAPE / GAMMA_PRIOR_RATE)
    update_regressors_and_scales(state)
    k = 1.0 + JITTER
    gain = k / (k**2 + 1.0)
    assert_allclose(state.w_cov, np.eye(2) / (k**2 + 1.0), rtol=1e-12)
    assert_allclose(state.w_mean, gain * state.y_mean, rtol=1e-12)
    assert_allclose(state.w_logdet, -2.0 * np.log(k**2 + 1.0), rtol=1e-12)
    expected_rate = GAMMA_PRIOR_RATE + 0.5 * (gain**2 + 1.0 / (k**2 + 1.0))
    assert_allclose(state.scale_rate, expected_rate, rtol=1e-12)


def strict_upper(n):
    return np.triu(np.ones((n, n), bool), 1)


def test_solve_spd_inverts_and_reports_logdet():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(8, 8))
    spd = a @ a.T + 8.0 * np.eye(8)
    cov, logdet, extra = _solve_spd(spd, np.zeros(8), strict_upper(8))
    assert extra == 0.0
    assert_allclose(cov @ spd, np.eye(8), rtol=0, atol=1e-10)
    sign, expected = np.linalg.slogdet(cov)
    assert sign > 0
    assert_allclose(logdet, expected, rtol=0, atol=1e-10)


def test_solve_spd_escalates_regularisation():
    cov, _, extra = _solve_spd(np.diag([1.0, -1e-7]), np.zeros(2), strict_upper(2))
    assert extra == 1e-6
    assert np.all(np.isfinite(cov))


def test_solve_spd_gives_up_on_hopeless_input():
    with pytest.raises(NumericalFailureError):
        _solve_spd(-np.eye(3), np.zeros(3), strict_upper(3))


def test_solve_spd_matches_dense_inverse():
    rng = np.random.default_rng(31)
    n = 60
    a = rng.normal(size=(n, n))
    k_sq = a @ a.T
    ridge = rng.uniform(0.5, 2.0, size=n)
    k_before = k_sq.copy()
    cov, logdet, extra = _solve_spd(k_sq, ridge, strict_upper(n))
    precision = k_sq + np.diag(ridge)
    assert extra == 0.0
    assert np.array_equal(k_sq, k_before)
    assert _relative_error(cov, np.linalg.inv(precision)) <= 1e-12
    assert_allclose(logdet, -np.linalg.slogdet(precision)[1], rtol=1e-12)
    assert np.array_equal(cov, cov.T)
    assert cov.flags.c_contiguous


def test_solve_spd_escalation_restarts_from_the_input():
    # The failed factorisation at extra = 0 overwrites its buffer; the next
    # attempt must invert k_sq + diag(ridge) + 1e-6 I, not the wreckage.
    # One eigenvalue of the precision is -0.5e-6 and the others lie in
    # [0.2e-6, 1e-6], so the jittered matrix is well conditioned.
    rng = np.random.default_rng(32)
    n = 12
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigenvalues = np.append(-0.5, rng.uniform(0.2, 1.0, size=n - 1)) * 1e-6
    ridge = rng.uniform(0.1, 0.3, size=n) * 1e-6
    k_sq = (q * eigenvalues) @ q.T - np.diag(ridge)
    cov, logdet, extra = _solve_spd(k_sq, ridge, strict_upper(n))
    assert extra == 1e-6
    jittered = k_sq + np.diag(ridge) + 1e-6 * np.eye(n)
    assert _relative_error(cov, np.linalg.inv(jittered)) <= 1e-12
    assert_allclose(logdet, -np.linalg.slogdet(jittered)[1], rtol=1e-12)
    assert np.array_equal(cov, cov.T)


def test_regressor_update_temporaries_stay_small():
    rng = np.random.default_rng(33)
    n = 200
    x = rng.normal(size=(n, 4))
    targets = (x[:, 0] > 0).astype(int)
    spec = KernelSpec(kind=GAUSSIAN, sigma=median_width(x))
    state = init_state([base_gram(x, spec)], targets)
    update_regressors_and_scales(state)
    tracemalloc.start()
    try:
        update_regressors_and_scales(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


def per_class_moments(m, targets):
    """The per-class link: (2, N) means in, both classes' auxiliaries out."""
    sign = 1.0 - 2.0 * targets
    x = sign * (m[0] - m[1]) / np.sqrt(2.0)
    log_z = log_ndtr(x)
    shift = sign * np.exp(norm.logpdf(x) - log_z) / np.sqrt(2.0)
    return m + np.stack([shift, -shift]), log_z


def per_class_bound(w, cov, logdet, shape, rate, k_eff, k_eff_sq, targets):
    """The variational bound summed class by class over (2, ...) factors."""
    _, log_z = per_class_moments(w @ k_eff, targets)
    bound = log_z.sum() - 0.5 * sum(np.sum(c * k_eff_sq) for c in cov)
    e_alpha = shape / rate
    e_log_alpha = digamma(shape) - np.log(rate)
    w_sq = w**2 + np.stack([np.diag(c) for c in cov])
    bound += 0.5 * np.sum(e_log_alpha) - 0.5 * np.sum(e_alpha * w_sq)
    bound += 0.5 * np.sum(logdet) + 0.5 * w.size
    a0, b0 = GAMMA_PRIOR_SHAPE, GAMMA_PRIOR_RATE
    prior = (a0 - 1.0) * e_log_alpha - b0 * e_alpha + a0 * np.log(b0) - gammaln(a0)
    entropy = shape - np.log(rate) + gammaln(shape) + (1.0 - shape) * digamma(shape)
    return bound + np.sum(prior + entropy)


def test_single_regressor_matches_per_class_updates(toy_grams, toy_dataset):
    # The model family solves each class's posterior on its own auxiliaries
    # and sums the bound class by class.  With class 1's auxiliaries at -y
    # both must agree with the single regressor the state keeps.
    _, targets = toy_dataset
    state = train(toy_grams, targets, max_iters=4)
    aux = np.stack([state.y_mean, -state.y_mean])
    shape = np.full((2, len(targets)), SCALE_SHAPE)
    rate = np.stack([state.scale_rate] * 2)
    solves = [
        _solve_spd(state.k_eff_sq, shape[c] / rate[c], state.upper) for c in range(2)
    ]
    cov = np.stack([s[0] for s in solves])
    logdet = np.array([s[1] for s in solves])
    w = np.stack([cov[c] @ (state.k_eff @ aux[c]) for c in range(2)])
    rate = GAMMA_PRIOR_RATE + 0.5 * (w**2 + np.stack([np.diag(c) for c in cov]))

    update_regressors_and_scales(state)
    assert_allclose(np.stack([state.w_mean, -state.w_mean]), w, rtol=1e-12, atol=0)
    for c in range(2):
        assert_allclose(state.w_cov, cov[c], rtol=1e-12, atol=0)
        assert_allclose(state.w_logdet, logdet[c], rtol=1e-12, atol=0)
        assert_allclose(state.scale_rate, rate[c], rtol=1e-12, atol=0)

    update_auxiliaries(state)
    aux, _ = per_class_moments(w @ state.k_eff, targets)
    assert_allclose(np.stack([state.y_mean, -state.y_mean]), aux, rtol=1e-12, atol=0)

    resample_beta(state)
    expected = per_class_bound(
        np.stack([state.w_mean, -state.w_mean]),
        np.stack([state.w_cov] * 2),
        np.full(2, state.w_logdet),
        np.full((2, len(targets)), SCALE_SHAPE),
        np.stack([state.scale_rate] * 2),
        state.k_eff,
        state.k_eff_sq,
        targets,
    )
    assert_allclose(lower_bound(state), expected, rtol=1e-12, atol=0)


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
    state = train(toy_grams, targets)
    assert state.converged
    assert len(state.lb_trace) < 200
    assert state.lb_trace[-1] >= state.lb_trace[0]
    validate_simplex(state.beta)


def test_mixture_stays_on_simplex_every_iteration(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    for _ in range(25):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        resample_beta(state)
        validate_simplex(state.beta)
        assert abs(float(state.beta.sum()) - 1.0) < 1e-12


def test_training_is_deterministic(toy_grams, toy_dataset):
    _, targets = toy_dataset
    a = train(toy_grams, targets, max_iters=40)
    b = train(toy_grams, targets, max_iters=40)
    assert a.lb_trace == b.lb_trace
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.w_mean, b.w_mean)


def test_label_swap_mirrors_the_posterior(toy_grams, toy_dataset):
    _, targets = toy_dataset
    a = train(toy_grams, targets, max_iters=30)
    b = train(toy_grams, 1 - targets, max_iters=30)
    assert np.max(np.abs(a.w_mean + b.w_mean)) < 1e-9
    assert np.max(np.abs(a.beta - b.beta)) < 1e-9
    assert abs(a.lb_trace[-1] - b.lb_trace[-1]) < 1e-7


def test_identical_spaces_get_balanced_mixture(toy_grams, toy_dataset):
    # Every mixture of two equal spaces scores the same, and a tie keeps
    # the uniform start.
    _, targets = toy_dataset
    g = toy_grams[0]
    state = train([g, g.copy()], targets, max_iters=40)
    assert state.beta.tolist() == [0.5, 0.5]


def test_single_space_skips_resampling(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state([toy_grams[0]], targets)
    k_eff = state.k_eff
    out = resample_beta(state)
    assert np.array_equal(out, np.array([1.0]))
    assert state.k_eff is k_eff


def _toy_spaces(toy_dataset, kinds):
    """One Gram per kernel kind, each over a different pair of toy columns."""
    x, _ = toy_dataset
    grams = []
    for k, kind in enumerate(kinds):
        cols = [k % 4, (k + 1) % 4]
        xs = Standardizer.fit(x[:, cols]).transform(x[:, cols])
        sigma = median_width(xs) if kind == GAUSSIAN else None
        grams.append(base_gram(xs, KernelSpec(kind=kind, sigma=sigma)))
    return grams


def _mixture_score(state, beta):
    """g(beta) = -||y - w K^beta||^2 - tr(Sigma (K^beta)^2), formed directly."""
    k = compose(state.grams, beta)
    resid = state.y_mean - state.w_mean @ k
    return -float(resid @ resid) - float(np.trace(state.w_cov @ k @ k))


def _relative_error(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("kinds", [(GAUSSIAN, POLYNOMIAL), (POLYNOMIAL, GAUSSIAN, GAUSSIAN)])
def test_stacked_products_match_direct_sums(toy_dataset, kinds):
    # The composite and its square from the stacked arrays match the
    # jittered sum and its square, and Q is a a' + tr(Sigma K~s K~t) with
    # each trace taken on its own.
    _, targets = toy_dataset
    rng = np.random.default_rng(7)
    raw = _toy_spaces(toy_dataset, kinds)
    jittered = [g + JITTER * np.eye(len(targets)) for g in raw]
    state = init_state(raw, targets)
    for _ in range(3):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        beta = rng.dirichlet(np.ones(len(kinds)))
        state.set_beta(beta)
        assert _relative_error(state.k_eff, compose(jittered, beta)) <= 1e-12
        assert _relative_error(state.k_eff_sq, state.k_eff @ state.k_eff) <= 1e-12

        a = np.stack([state.w_mean @ g for g in jittered])
        trace = [[np.trace(state.w_cov @ gs @ gt) for gt in jittered] for gs in jittered]
        b, q = _mixture_terms(state)
        assert _relative_error(q, a @ a.T + np.array(trace)) <= 1e-12
        assert _relative_error(b, a @ state.y_mean) <= 1e-12


def test_state_grams_carry_the_jitter_once(toy_grams, toy_dataset):
    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    n = len(targets)
    assert state.grams.shape == (2, n, n)
    assert state.products.shape == (2, 2, n, n)
    for g, raw in zip(state.grams, toy_grams):
        assert np.array_equal(g, raw + JITTER * np.eye(n))
    assert not np.shares_memory(state.grams, toy_grams[0])


@pytest.mark.parametrize(
    "kinds",
    [(GAUSSIAN, GAUSSIAN), (GAUSSIAN, POLYNOMIAL, GAUSSIAN), (POLYNOMIAL, POLYNOMIAL, GAUSSIAN)],
)
def test_mixture_update_beats_every_point_of_a_simplex_grid(toy_dataset, kinds):
    # Brute force over the 0.01 grid, scored from the composite itself.
    _, targets = toy_dataset
    state = init_state(_toy_spaces(toy_dataset, kinds), targets)
    ticks = itertools.product(range(101), repeat=len(kinds) - 1)
    grid = [np.append(c, 100 - sum(c)) / 100.0 for c in ticks if sum(c) <= 100]
    for _ in range(3):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        resample_beta(state)
        best = _mixture_score(state, state.beta)
        top = max(_mixture_score(state, c) for c in grid)
        assert best >= top - 1e-9 * abs(top)


@pytest.mark.parametrize(
    "kinds",
    [
        (GAUSSIAN, GAUSSIAN),
        (GAUSSIAN, POLYNOMIAL),
        (GAUSSIAN, GAUSSIAN, GAUSSIAN),
        (POLYNOMIAL, GAUSSIAN, POLYNOMIAL),
    ],
)
def test_training_bound_never_falls(toy_dataset, kinds):
    _, targets = toy_dataset
    trace = np.array(train(_toy_spaces(toy_dataset, kinds), targets).lb_trace)
    drops = trace[:-1] - trace[1:]
    assert np.all(drops <= 1e-12 * np.abs(trace[:-1]))


# --- State construction ------------------------------------------------------------


@pytest.mark.parametrize(
    "targets",
    [
        np.array([]),
        np.zeros((2, 2), dtype=int),
        np.array([-1, 0]),
        np.array([0, 3]),
        np.array([0, 1, 2]),
    ],
)
def test_init_state_rejects_bad_targets(targets):
    with pytest.raises(InvalidArgumentError):
        init_state([np.eye(len(np.atleast_1d(targets)) or 1)], targets)


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
    assert np.array_equal(state.w_mean, np.zeros(n))
    assert np.array_equal(state.y_mean, np.where(targets == 0, 1.0, -1.0))
    composite = 0.5 * toy_grams[0] + 0.5 * toy_grams[1]
    assert_allclose(state.k_eff, composite + JITTER * np.eye(n), rtol=0, atol=1e-15)


# --- Prediction ----------------------------------------------------------------------


@pytest.mark.parametrize("a", [-3.0, -1.5, 0.0, 0.7, 2.5])
def test_two_class_probability_closed_form(a):
    # Class means (a/2, -a/2) at unit spreads: P(class 0) = Phi(a / sqrt(2)).
    probs = _class_probabilities(np.array([0.5 * a]), np.ones(1))
    assert_allclose(probs[0, 0], ndtr(a / np.sqrt(2.0)), rtol=1e-12, atol=0)
    assert_allclose(probs[0].sum(), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1.5, 2.0])
def test_two_class_probability_matches_quadrature_oracle(scale):
    # The class means are (m, -m) with equal spreads s; the 128-node oracle
    # takes both per-class columns.
    d = np.linspace(-8.0, 8.0, 161)
    for s in [1.0, scale, 2.2 * scale, 1.3 * scale]:
        mean = d * s / np.sqrt(2.0)
        spread = np.full_like(d, s)
        probs = _class_probabilities(mean, spread)
        assert_allclose(probs[:, 0], ndtr(d), rtol=1e-12, atol=0)
        assert_allclose(probs[:, 1], ndtr(-d), rtol=1e-12, atol=0)
        oracle = quadrature_probabilities(
            np.column_stack([mean, -mean]), np.column_stack([spread, spread])
        )
        assert_allclose(probs, oracle, rtol=1e-12, atol=0)


def test_raw_probabilities_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        mean = rng.uniform(-5.0, 5.0, size=n)
        spread = rng.uniform(1.0, 3.0, size=n)
        probs = _class_probabilities(mean, spread)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
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
    probs, mean, spread = model_probabilities(model, x_query)
    assert mean.shape == spread.shape == (5,)
    assert np.all(spread >= 1.0)  # unit link noise plus a quadratic form
    assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(probs, _class_probabilities(mean, spread))

    single = predictive_distribution(model, x_query[0])
    assert single.probabilities.shape == (2,)
    assert single.label in model.class_labels
    assert single.label == model.class_labels[int(np.argmax(single.probabilities))]


def test_batch_prediction_block_size_does_not_change_the_result(monkeypatch):
    x_train, t_train = make_blobs(15, seed=26)
    x_query, _ = make_blobs(20, seed=27)
    model = fit_plain_model(x_train, t_train, max_iters=60)
    assert len(x_query) * len(x_train) <= mkprobit.PREDICT_BLOCK_ENTRIES
    whole = model_probabilities(model, x_query)
    # 7 rows per block: five full blocks and a short one
    monkeypatch.setattr(mkprobit, "PREDICT_BLOCK_ENTRIES", 7 * len(x_train))
    blocked = model_probabilities(model, x_query)
    for a, b in zip(whole, blocked):
        assert_allclose(b, a, rtol=1e-12, atol=1e-15)


def test_batch_prediction_temporaries_stay_small():
    x_train, t_train = make_blobs(50, seed=28)
    x_query, _ = make_blobs(500, seed=29)
    model = fit_plain_model(x_train, t_train, max_iters=20)
    whole_batch_kernel = len(x_query) * len(x_train) * 8   # 800 KB
    tracemalloc.start()
    try:
        model_probabilities(model, x_query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole_batch_kernel / 2


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
        ('{"model_format": 1}', "format"),
        ('{"model_format": 2}', "field"),
    ],
)
def test_model_document_rejects_malformed(text, fragment):
    with pytest.raises(FormatError) as excinfo:
        model_from_document(text)
    assert fragment in str(excinfo.value)
