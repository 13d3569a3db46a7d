"""Variational multiple-kernel probit classification of two classes.

The model couples S kernel spaces through a convex mixture of their Gram
matrices.  Class c keeps a regressor w_c over the N training samples with
an automatic-relevance Gamma prior on each weight's precision; latent
auxiliary responses y_cn carry the probit link: sample n belongs to the
class whose auxiliary response is largest.  Stability assessment has two
classes (stable, unstable), for which the link has closed forms.  Class 1's
regressor is the negation of class 0's, so one Gaussian posterior is kept.

Inference is mean-field coordinate ascent.  Regressor posteriors are
Gaussian with covariance (K K' + A)^-1, auxiliary posteriors are
truncated Gaussians whose means shift by a normal hazard, scale
posteriors stay Gamma, and the mixture weights take the point estimate
that maximises the bound given the other factors: a concave quadratic on
the simplex, solved exactly.  The variational lower bound below is exact
for the partially maximised auxiliary factor, so no update can decrease
it, and training draws no random numbers.

Training keeps the jittered Grams K~s = K_s + JITTER I as one (S, N, N)
array and their products K~s K~t as one (S, S, N, N) array, formed once
per fit, so adopting a mixture and updating it are one contraction each.
Each regressor update copies K_beta^2 once into a Fortran-ordered buffer,
adds the ridge to its diagonal in place, and has LAPACK factor and invert
that buffer where it lies; the inverse's lower triangle is mirrored
through a strict-upper mask that is also formed once per fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.special import digamma, gammaln, log_ndtr, ndtr

from .errors import (
    DegenerateLabelsError,
    FormatError,
    InvalidArgumentError,
    NumericalFailureError,
    json_real,
    json_typed,
    read_text,
)
from .features import FEATURE_NAMES, Standardizer, subset_columns
from .kernels import KernelSpec, cross_gram, validate_simplex

N_CLASSES = 2
JITTER = 1e-8
JITTER_ESCALATION = (0.0, 1e-6, 1e-4)
GAMMA_PRIOR_SHAPE = 1e-3
GAMMA_PRIOR_RATE = 1e-3
# Each precision governs one weight, so its Gamma posterior has this shape.
SCALE_SHAPE = GAMMA_PRIOR_SHAPE + 0.5
# Constant terms of the bound's Gamma prior and entropy.
_DIGAMMA_SCALE_SHAPE = float(digamma(SCALE_SHAPE))
_GAMMALN_SCALE_SHAPE = float(gammaln(SCALE_SHAPE))
_GAMMALN_A0 = float(gammaln(GAMMA_PRIOR_SHAPE))
_A0_LOG_B0 = GAMMA_PRIOR_SHAPE * math.log(GAMMA_PRIOR_RATE)
MAX_ITERS = 200
BOUND_REL_TOL = 1e-5
# Batch prediction takes the query rows in blocks of about this many
# kernel entries, so each temporary holds at most 64 KiB.  The allocator
# serves blocks that small from memory it already holds; whole-batch
# temporaries of some hundred KiB are mapped and faulted in afresh on
# some calls and not on others, depending on what the process freed
# before, and a batch then costs up to half as much again.
PREDICT_BLOCK_ENTRIES = 8192
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ProbitMKLState:
    """Mutable training state; every posterior factor lives here."""

    grams: np.ndarray            # (S, N, N) jittered Grams K~s = K_s + JITTER I
    products: np.ndarray         # (S, S, N, N), [s, t] = K~s K~t
    upper: np.ndarray            # (N, N) bool, True strictly above the diagonal
    beta: np.ndarray             # (S,) mixture weights on the simplex
    targets: np.ndarray          # (N,) class indices, 0 or 1
    k_eff: np.ndarray            # sum_s beta_s K~s
    k_eff_sq: np.ndarray         # k_eff @ k_eff, from the products
    w_mean: np.ndarray           # (N,) class 0's; class 1's is its negation
    w_cov: np.ndarray            # (N, N), shared by both classes
    w_logdet: float              # cached log|Sigma|
    scale_rate: np.ndarray       # (N,), each precision's Gamma shape being SCALE_SHAPE
    y_mean: np.ndarray           # (N,) class 0's auxiliary means
    converged: bool = False
    lb_trace: list = field(default_factory=list)
    messages: list = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return int(self.targets.shape[0])

    def set_beta(self, beta: np.ndarray) -> None:
        """Adopt a new mixture; k_eff^2 = sum_st beta_s beta_t K~s K~t."""
        beta = validate_simplex(beta)
        self.k_eff = np.tensordot(beta, self.grams, 1)
        self.k_eff_sq = np.tensordot(np.outer(beta, beta), self.products, 2)
        self.beta = beta


def init_state(grams, targets) -> ProbitMKLState:
    """Set up posteriors at their documented starting point.

    Targets are class indices 0 or 1, both present.  Regressor means
    start at zero with unit covariance, scale precisions at their Gamma
    prior mean, auxiliary means at +1 for the sample's own class and -1
    for the other, and the mixture uniform over the kernel spaces.  The
    jittered Grams and their pairwise products are formed here, once per
    fit, with the strict-upper mask the regressor solve mirrors through;
    this is the only place JITTER enters.
    """
    targets = np.asarray(targets, dtype=int)
    if targets.ndim != 1 or targets.size == 0:
        raise InvalidArgumentError("targets must be a non-empty 1-D integer array")
    if not np.all((targets == 0) | (targets == 1)):
        raise InvalidArgumentError("targets must be class indices 0 or 1")
    if np.unique(targets).size < 2:
        raise DegenerateLabelsError("training data holds fewer than two classes")
    n = targets.size
    s = len(grams)
    for g in grams:
        if np.asarray(g).shape != (n, n):
            raise InvalidArgumentError("each Gram matrix must be N x N for N samples")

    grams = np.array(grams, dtype=float)
    grams.reshape(s, n * n)[:, :: n + 1] += JITTER
    state = ProbitMKLState(
        grams=grams,
        products=grams[:, None] @ grams[None, :],
        upper=np.triu(np.ones((n, n), bool), 1),
        beta=np.full(s, 1.0 / s),
        targets=targets,
        k_eff=np.empty((n, n)),
        k_eff_sq=np.empty((n, n)),
        w_mean=np.zeros(n),
        w_cov=np.eye(n),
        w_logdet=0.0,
        # SCALE_SHAPE / rate is the prior mean GAMMA_PRIOR_SHAPE / GAMMA_PRIOR_RATE.
        scale_rate=np.full(n, SCALE_SHAPE / (GAMMA_PRIOR_SHAPE / GAMMA_PRIOR_RATE)),
        y_mean=1.0 - 2.0 * targets,
    )
    state.set_beta(state.beta)
    return state


def _solve_spd(k_sq: np.ndarray, ridge: np.ndarray, upper: np.ndarray):
    """Inverse of k_sq + diag(ridge) and its log-determinant, by Cholesky.

    Each attempt copies k_sq into one Fortran-ordered buffer, adds the
    ridge and then the escalating extra jitter to its diagonal, and has
    LAPACK factor and invert the buffer in place.  A failed factorisation
    has overwritten the buffer, so the next attempt starts again from
    k_sq.  The inverse's lower triangle is mirrored onto the entries
    `upper` marks, and the C-ordered transpose is returned.
    """
    for extra in JITTER_ESCALATION:
        buf = np.array(k_sq, order="F")
        diagonal = np.einsum("ii->i", buf)
        diagonal += ridge
        diagonal += extra
        chol, info = dpotrf(buf, lower=1, overwrite_a=1)
        if info != 0:
            continue
        # dpotri overwrites the factor, so its diagonal is read first.
        logdet_cov = -2.0 * float(np.sum(np.log(np.diag(chol))))
        cov, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            continue
        np.copyto(cov, cov.T, where=upper)
        return cov.T, logdet_cov, extra
    raise NumericalFailureError(
        "regressor precision stayed non-positive-definite after jitter escalation"
    )


def update_regressors_and_scales(state: ProbitMKLState) -> None:
    """Refresh the Gaussian regressor posterior, then its ARD scales."""
    state.w_cov, state.w_logdet, extra = _solve_spd(
        state.k_eff_sq, SCALE_SHAPE / state.scale_rate, state.upper
    )
    if extra > 0.0:
        state.messages.append(f"regressor solve needed extra jitter {extra:g}")
    state.w_mean = state.w_cov @ (state.k_eff @ state.y_mean)
    w_sq = state.w_mean**2 + np.diag(state.w_cov)
    state.scale_rate = GAMMA_PRIOR_RATE + 0.5 * w_sq


def _truncated_moments(m: np.ndarray, targets: np.ndarray):
    """Class 0's truncated-Gaussian auxiliary means, plus log truncation mass.

    For sample n with true class i and rival j the auxiliary vector is
    N(m_n, I) conditioned on y_in > y_jn, m_0n = m[n] and m_1n = -m[n].  With
    x = (m_in - m_jn) / sqrt(2),

        Z_n     = Phi(x),
        E[y_in] = m_in + h,   E[y_jn] = m_jn - h,   h = phi(x) / (sqrt(2) Phi(x)),

    so class 1's auxiliary means stay the negation of class 0's.  log Z
    comes from `log_ndtr`, which stays exact deep in the tail, and the
    hazard is formed from it.
    """
    sign = 1.0 - 2.0 * targets                      # +1 where class 0 is true
    x = sign * (m - (-m)) / math.sqrt(2.0)
    log_z = log_ndtr(x)
    shift = sign * np.exp(-0.5 * x**2 - 0.5 * _LOG_2PI - log_z) / math.sqrt(2.0)
    return m + shift, log_z


def update_auxiliaries(state: ProbitMKLState) -> None:
    m = state.w_mean @ state.k_eff
    y, _ = _truncated_moments(m, state.targets)
    if not np.all(np.isfinite(y)):
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise NumericalFailureError(f"auxiliary update went non-finite at sample {bad}")
    state.y_mean = y


def _mixture_terms(state: ProbitMKLState):
    """b and Q of the bound's beta terms g = const + 2 b'beta - beta'Q beta."""
    a = state.w_mean @ state.grams
    # tr(Sigma P) = sum(Sigma * P'), = sum(Sigma * P) as Sigma is symmetric.
    q = a @ a.T + np.tensordot(state.products, state.w_cov, 2)
    return a @ state.y_mean, q


def resample_beta(state: ProbitMKLState) -> np.ndarray:
    """Move the mixture to the maximiser of the bound given the other factors.

    The bound's beta terms are g = -||y - w K^beta||^2 - tr(Sigma (K^beta)^2)
    = const + 2 b'beta - beta'Q beta with a_s = w K~s, b = a y and Q_st =
    a_s.a_t + tr(Sigma K~s K~t).  Each support solves its slice of the
    bordered KKT system [[Q, 1], [1', 0]] [beta; nu] = [b; 1].  The best
    non-negative solution over the supports is adopted only if it scores
    strictly higher, so a tie keeps the current mixture.  A single space is
    returned unchanged.
    """
    s = len(state.grams)
    if s == 1:
        return state.beta
    b, q = _mixture_terms(state)
    kkt = np.ones((s + 1, s + 1))
    kkt[:s, :s] = q
    kkt[s, s] = 0.0
    rhs = np.append(b, 1.0)

    def score(beta):
        return 2.0 * b @ beta - beta @ q @ beta

    best = state.beta
    for bits in range(1, 2**s):
        idx = [i for i in range(s) if bits >> i & 1]
        rows = idx + [s]
        try:
            x = np.linalg.solve(kkt[np.ix_(rows, rows)], rhs[rows])[:-1]
        except np.linalg.LinAlgError:
            continue
        if not (np.all(x >= 0.0) and x.sum() > 0.0):
            continue
        candidate = np.zeros(s)
        candidate[idx] = x / x.sum()
        if score(candidate) > score(best):
            best = candidate
    if best is not state.beta:
        state.set_beta(best)
    return state.beta


def lower_bound(state: ProbitMKLState) -> float:
    """Variational lower bound with the auxiliary factor at its optimum.

    Three pieces: the log truncation mass of each sample minus the
    predictive-variance penalty, the Gaussian regressor term against its
    ARD prior, and the Gamma scale term against its prior.  Requires the
    cached regressor covariance to match the current posterior.
    """
    m = state.w_mean @ state.k_eff
    _, log_z = _truncated_moments(m, state.targets)
    # Class 1's factors mirror class 0's, so each per-class term counts twice.
    bound = float(log_z.sum()) - float(np.sum(state.w_cov * state.k_eff_sq))

    e_alpha = SCALE_SHAPE / state.scale_rate
    log_rate = np.log(state.scale_rate)
    e_log_alpha = _DIGAMMA_SCALE_SHAPE - log_rate
    w_sq = state.w_mean**2 + np.diag(state.w_cov)
    bound += float(np.sum(e_log_alpha)) - float(np.sum(e_alpha * w_sq))
    bound += state.w_logdet + state.n_samples

    a0, b0 = GAMMA_PRIOR_SHAPE, GAMMA_PRIOR_RATE
    prior = (a0 - 1.0) * e_log_alpha - b0 * e_alpha + _A0_LOG_B0 - _GAMMALN_A0
    entropy = (
        SCALE_SHAPE
        - log_rate
        + _GAMMALN_SCALE_SHAPE
        + (1.0 - SCALE_SHAPE) * _DIGAMMA_SCALE_SHAPE
    )
    bound += 2.0 * float(np.sum(prior + entropy))
    if not np.isfinite(bound):
        raise NumericalFailureError("variational lower bound is not finite")
    return bound


def train(grams, targets, max_iters: int = MAX_ITERS) -> ProbitMKLState:
    """Run coordinate ascent to convergence of the lower bound.

    Stops once the relative bound change stays below BOUND_REL_TOL for two
    consecutive iterations, or after `max_iters`.  The fit is a function
    of the Gram matrices and targets alone.
    """
    state = init_state(grams, targets)
    previous = None
    streak = 0
    for _ in range(max_iters):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        resample_beta(state)
        bound = lower_bound(state)
        state.lb_trace.append(bound)
        if previous is not None:
            rel = abs(bound - previous) / max(1.0, abs(bound))
            streak = streak + 1 if rel < BOUND_REL_TOL else 0
            if streak >= 2:
                state.converged = True
                break
        previous = bound
    return state


# ---------------------------------------------------------------------------
# Trained artefact and prediction.


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray
    label: int


@dataclass(frozen=True)
class TrainedModel:
    """Everything prediction needs, detached from the training run.

    `w_mean` and `w_cov_diag` are class 0's regressor posterior, (N,) each.
    `class_labels[c]` maps class index c back to the external label; index
    order is meaningful because argmax ties resolve to the first entry.
    """

    subset_names: tuple
    standardizers: tuple
    kernel_specs: tuple
    beta: np.ndarray
    w_mean: np.ndarray
    w_cov_diag: np.ndarray
    train_features: tuple
    class_labels: tuple
    converged: bool
    lb_trace: tuple

    @property
    def n_features(self) -> int:
        """Width of the raw rows the model reads.

        Stage subsets index the 23 Tz columns; a 'union' model reads every
        column it was fitted on.
        """
        if self.subset_names == ("union",):
            return int(self.standardizers[0].mean.size)
        return len(FEATURE_NAMES)


def _composite_rows(model: TrainedModel, raw: np.ndarray) -> np.ndarray:
    """Mixture kernel rows between query samples and the training set.

    beta was checked on the simplex where it entered the model, so the
    weighted sum is formed here without `compose`'s checks.
    """
    rows = 0.0
    for name, std, spec, train_x, weight in zip(
        model.subset_names, model.standardizers, model.kernel_specs, model.train_features,
        model.beta,
    ):
        part = cross_gram(std.transform(raw[:, subset_columns(name)]), train_x, spec)
        rows = rows + weight * part
    return rows


def _class_probabilities(mean: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """[Phi(x), Phi(-x)] with x = (m - (-m)) / sqrt(s^2 + s^2) = sqrt(2) m / s."""
    x = math.sqrt(2.0) * mean / spread
    return np.column_stack([ndtr(x), ndtr(-x)])


def model_probabilities(model: TrainedModel, raw: np.ndarray):
    """Class probabilities for a batch of raw feature rows, (n, 2).

    Also returns class 0's predictive mean and spread, (n,) each.  The raw
    rows are standardized internally with the model's own transforms, and
    taken in blocks of PREDICT_BLOCK_ENTRIES kernel entries.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    if raw.ndim != 2 or raw.shape[1] != model.n_features:
        raise InvalidArgumentError(
            f"feature rows must hold {model.n_features} values, got shape {raw.shape}"
        )
    mean = np.empty(raw.shape[0])
    spread = np.empty(raw.shape[0])
    step = max(1, PREDICT_BLOCK_ENTRIES // model.w_mean.size)
    for start in range(0, raw.shape[0], step):
        rows = slice(start, start + step)
        k = _composite_rows(model, raw[rows])
        mean[rows] = k @ model.w_mean
        spread[rows] = np.sqrt(1.0 + k**2 @ model.w_cov_diag)
    return _class_probabilities(mean, spread), mean, spread


def predictive_distribution(model: TrainedModel, sample) -> Prediction:
    """Full predictive law for one raw feature row."""
    probs = model_probabilities(model, sample)[0][0]
    label = model.class_labels[int(np.argmax(probs))]
    return Prediction(probabilities=probs, label=int(label))


# ---------------------------------------------------------------------------
# Model document, versioned and byte-stable.

MODEL_FORMAT = 2


def _standardizer_to_doc(s: Standardizer) -> dict:
    return {
        "mean": s.mean.tolist(),
        "std": s.std.tolist(),
        "zero_variance": [bool(z) for z in s.zero_variance],
    }


def _standardizer_from_doc(doc: dict) -> Standardizer:
    return Standardizer(
        mean=json_real(doc["mean"], "standardizer mean", 1),
        std=json_real(doc["std"], "standardizer std", 1),
        zero_variance=np.array(
            [json_typed(z, bool, "zero_variance") for z in doc["zero_variance"]], dtype=bool
        ),
    )


def _spec_from_doc(doc: dict) -> KernelSpec:
    return KernelSpec(
        kind=doc["kind"],
        sigma=None if doc["sigma"] is None else json_real(doc["sigma"], "sigma"),
        degree=json_typed(doc["degree"], int, "degree"),
        offset=json_real(doc["offset"], "offset"),
    )


def model_to_document(model: TrainedModel) -> str:
    doc = {
        "model_format": MODEL_FORMAT,
        "subset_names": list(model.subset_names),
        "standardizers": [_standardizer_to_doc(s) for s in model.standardizers],
        "kernel_specs": [asdict(s) for s in model.kernel_specs],
        "beta": model.beta.tolist(),
        "w_mean": model.w_mean.tolist(),
        "w_cov_diag": model.w_cov_diag.tolist(),
        "train_features": [x.tolist() for x in model.train_features],
        "class_labels": list(model.class_labels),
        "converged": bool(model.converged),
        "lb_trace": list(model.lb_trace),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def model_from_document(text: str) -> TrainedModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"model document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("model_format") != MODEL_FORMAT:
        raise FormatError(
            f"unsupported model format {doc.get('model_format')!r}"
            if isinstance(doc, dict)
            else "model document must be a JSON object"
        )
    try:
        model = TrainedModel(
            subset_names=tuple(doc["subset_names"]),
            standardizers=tuple(_standardizer_from_doc(d) for d in doc["standardizers"]),
            kernel_specs=tuple(_spec_from_doc(d) for d in doc["kernel_specs"]),
            beta=json_real(doc["beta"], "beta", 1),
            w_mean=json_real(doc["w_mean"], "w_mean", 1),
            w_cov_diag=json_real(doc["w_cov_diag"], "w_cov_diag", 1),
            train_features=tuple(json_real(x, "train_features", 2) for x in doc["train_features"]),
            class_labels=tuple(json_typed(c, int, "class label") for c in doc["class_labels"]),
            converged=json_typed(doc["converged"], bool, "converged"),
            lb_trace=tuple(json_real(doc["lb_trace"], "lb_trace", 1).tolist()),
        )
        _check_agreement(model)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"model document has a missing or corrupt field: {exc}") from None
    return model


def _check_agreement(model: TrainedModel) -> None:
    """Refuse a model whose parts do not fit together."""
    if len(model.class_labels) != N_CLASSES:
        raise FormatError(f"model document must name {N_CLASSES} class labels")
    values = (model.beta, model.w_mean, model.w_cov_diag, *model.train_features)
    values += tuple(v for std in model.standardizers for v in (std.mean, std.std))
    if not all(np.all(np.isfinite(v)) for v in values) or np.any(model.w_cov_diag < 0.0):
        raise FormatError("model values must be finite, and w_cov_diag non-negative")
    validate_simplex(model.beta)
    parts = (model.standardizers, model.kernel_specs, model.train_features, model.beta)
    if any(len(p) != len(model.subset_names) for p in parts):
        raise FormatError(
            "model document needs one standardizer, kernel, feature block and beta per subset"
        )
    n = len(model.train_features[0])
    if any(x.ndim != 2 or len(x) != n for x in model.train_features) or any(
        w.shape != (n,) for w in (model.w_mean, model.w_cov_diag)
    ):
        raise FormatError(f"w_mean and w_cov_diag must hold N = {n} entries, one per row")
    for name, std, x in zip(model.subset_names, model.standardizers, model.train_features):
        width = x.shape[1] if name == "union" else len(FEATURE_NAMES[subset_columns(name)])
        if {x.shape[1:], std.mean.shape, std.std.shape, std.zero_variance.shape} != {(width,)}:
            raise FormatError(f"subset {name}: standardizer and features must be {width} wide")


def save_model(model: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_document(model))


def load_model(path) -> TrainedModel:
    return model_from_document(read_text(path))
