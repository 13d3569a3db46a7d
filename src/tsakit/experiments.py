"""Classification schemes, sweeps, and report emission.

A scheme names which feature subsets enter the classifier and which base
kernel each subset uses, written `F1(Kg)+F2(Kp)+F3(Kp)` or `union(Kg)`.
Preset tables cover the single-subset/fusion ladder (table4), the eight
Gaussian/polynomial combinations over all three subsets (table5), and the
measurement-noise pair (table6).

Reported accuracies are medians over independent seeds; a seed fixes the
train/test split, and training is a function of the training rows alone.
Report files carry only deterministic columns so a rerun with the same
seed is byte-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, require_count
from .features import Standardizer, subset_columns
from .kb import KnowledgeBase, Split, split as make_split
from .kernels import GAUSSIAN, KIND_CODES, CODE_OF_KIND, KernelSpec, base_gram, median_width
from .mkprobit import TrainedModel, model_probabilities, train

# Class index 0 carries the stable label so that argmax ties stay stable.
CLASS_LABELS = (1, -1)

NOISE_MODES = ("clean", "test-noisy", "train-and-test-noisy")


@dataclass(frozen=True)
class SchemeSpec:
    subsets: tuple
    kernels: tuple  # kernel kind per subset
    noise_mode: str = "clean"
    scheme_id: str = ""

    def __post_init__(self):
        if len(self.subsets) != len(self.kernels) or not self.subsets:
            raise InvalidArgumentError("need one kernel kind per subset")
        if len(set(self.subsets)) != len(self.subsets):
            raise InvalidArgumentError("subsets must be distinct")
        if "union" in self.subsets and len(self.subsets) > 1:
            raise InvalidArgumentError("'union' cannot be combined with stage subsets")
        for s in self.subsets:
            subset_columns(s)  # raises on unknown names
        for k in self.kernels:
            if k not in CODE_OF_KIND:
                raise InvalidArgumentError(f"unknown kernel kind {k!r}")
        if self.noise_mode not in NOISE_MODES:
            raise InvalidArgumentError(f"unknown noise mode {self.noise_mode!r}")

    @property
    def combination(self) -> str:
        return "+".join(
            f"{s}({CODE_OF_KIND[k]})" for s, k in zip(self.subsets, self.kernels)
        )


def parse_scheme(text: str, scheme_id: str = "") -> SchemeSpec:
    """Parse `F1(Kg)+F3(Kp)` style scheme strings."""
    subsets = []
    kinds = []
    for token in text.strip().split("+"):
        token = token.strip()
        if not (token.endswith(")") and "(" in token):
            raise InvalidArgumentError(
                f"bad scheme token {token!r}; expected e.g. 'F1(Kg)'"
            )
        name, code = token[:-1].split("(", 1)
        if code not in KIND_CODES:
            raise InvalidArgumentError(f"unknown kernel code {code!r} in {token!r}")
        subsets.append(name.strip())
        kinds.append(KIND_CODES[code])
    return SchemeSpec(subsets=tuple(subsets), kernels=tuple(kinds), scheme_id=scheme_id)


def table4_schemes() -> tuple:
    """Gaussian-kernel ladder: single subsets, the flat union, and fusions."""
    groups = [
        ("F1",), ("F2",), ("F3",), ("union",),
        ("F1", "F2"), ("F1", "F3"), ("F2", "F3"), ("F1", "F2", "F3"),
    ]
    return tuple(
        SchemeSpec(
            subsets=g, kernels=(GAUSSIAN,) * len(g), scheme_id=str(i)
        )
        for i, g in enumerate(groups, start=1)
    )


def table5_schemes() -> tuple:
    """All kernel-kind assignments over the three stage subsets."""
    out = []
    for i, codes in enumerate(itertools.product(("Kp", "Kg"), repeat=3), start=9):
        out.append(
            SchemeSpec(
                subsets=("F1", "F2", "F3"),
                kernels=tuple(KIND_CODES[c] for c in codes),
                scheme_id=str(i),
            )
        )
    return tuple(out)


def table6_schemes() -> tuple:
    """Measurement-noise pair on the all-Gaussian three-subset scheme."""
    base = dict(subsets=("F1", "F2", "F3"), kernels=(GAUSSIAN,) * 3)
    return (
        SchemeSpec(noise_mode="test-noisy", scheme_id="17", **base),
        SchemeSpec(noise_mode="train-and-test-noisy", scheme_id="18", **base),
    )


SCHEME_TABLES = {
    "table4": table4_schemes,
    "table5": table5_schemes,
    "table6": table6_schemes,
}


def metrics(y_true: np.ndarray, y_pred: np.ndarray) -> dict:
    """Accuracy plus the 2x2 stable/unstable confusion counts."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise InvalidArgumentError("need matching non-empty label vectors")
    for arr in (y_true, y_pred):
        bad = set(np.unique(arr)) - {-1, 1}
        if bad:
            raise InvalidArgumentError(f"labels must be +1 or -1, found {sorted(bad)}")
    return {
        "accuracy": float(np.mean(y_true == y_pred)),
        "stable_as_stable": int(np.sum((y_true == 1) & (y_pred == 1))),
        "stable_as_unstable": int(np.sum((y_true == 1) & (y_pred == -1))),
        "unstable_as_stable": int(np.sum((y_true == -1) & (y_pred == 1))),
        "unstable_as_unstable": int(np.sum((y_true == -1) & (y_pred == -1))),
    }


def split_stream(seed: int) -> np.random.SeedSequence:
    """The run seed's first child stream; every scheme splits the rows from it."""
    require_count(seed, "seed", minimum=0)
    return np.random.SeedSequence(int(seed)).spawn(1)[0]


def labels_to_targets(labels: np.ndarray) -> np.ndarray:
    known = np.isin(labels, CLASS_LABELS)
    if not known.all():
        raise InvalidArgumentError(f"label {labels[~known][0]} is not in {CLASS_LABELS}")
    return (labels == CLASS_LABELS[1]).astype(int)


def train_model(
    kb: KnowledgeBase,
    train_indices: np.ndarray,
    scheme: SchemeSpec,
    seed=None,
) -> TrainedModel:
    """Fit one scheme on the given rows of a knowledge base.

    Standardizers and Gaussian widths (median heuristic) are fit on the
    training rows only, then frozen into the returned model.  Training
    draws no random numbers; `seed` is accepted and ignored so callers
    that pass a training seed positionally keep working.
    """
    raw = kb.feature_matrix[np.asarray(train_indices, dtype=int)]
    targets = labels_to_targets(kb.labels[np.asarray(train_indices, dtype=int)])

    standardizers = []
    specs = []
    grams = []
    train_features = []
    for name, kind in zip(scheme.subsets, scheme.kernels):
        x = raw[:, subset_columns(name)]
        std = Standardizer.fit(x)
        xs = std.transform(x)
        if kind == GAUSSIAN:
            spec = KernelSpec(kind=kind, sigma=median_width(xs))
        else:
            spec = KernelSpec(kind=kind)
        standardizers.append(std)
        specs.append(spec)
        grams.append(base_gram(xs, spec))
        train_features.append(xs)

    state = train(grams, targets)
    return TrainedModel(
        subset_names=tuple(scheme.subsets),
        standardizers=tuple(standardizers),
        kernel_specs=tuple(specs),
        beta=state.beta.copy(),
        w_mean=state.w_mean,
        w_cov_diag=np.diag(state.w_cov).copy(),  # a view would keep the (N, N) matrix alive
        train_features=tuple(train_features),
        class_labels=CLASS_LABELS,
        converged=state.converged,
        lb_trace=tuple(state.lb_trace),
    )


def evaluate_model(model: TrainedModel, kb: KnowledgeBase, indices=None) -> dict:
    """Metrics of a model over (part of) a knowledge base."""
    if indices is None:
        indices = np.arange(kb.n_samples)
    indices = np.asarray(indices, dtype=int)
    raw = kb.feature_matrix[indices]
    probs, _, _ = model_probabilities(model, raw)
    pred = np.array([model.class_labels[k] for k in np.argmax(probs, axis=1)])
    return metrics(kb.labels[indices], pred)


@dataclass(frozen=True)
class SchemeResult:
    scheme: SchemeSpec
    seed: int
    n_train: int
    n_test: int
    accuracy: float
    confusion: dict
    iterations: int
    converged: bool
    beta: tuple
    final_bound: float


def _check_alignment(kb: KnowledgeBase, noisy_kb: KnowledgeBase) -> None:
    if noisy_kb.n_samples != kb.n_samples:
        raise InvalidArgumentError("noisy knowledge base does not match sample count")
    if noisy_kb.ids != kb.ids or not np.array_equal(noisy_kb.labels, kb.labels):
        raise InvalidArgumentError(
            "noisy knowledge base is not aligned with the clean one "
            "(scenario ids or labels differ)"
        )


def run_scheme(
    kb: KnowledgeBase,
    data_split: Split,
    scheme: SchemeSpec,
    seed: int,
    noisy_kb: KnowledgeBase | None = None,
) -> SchemeResult:
    """Train one scheme on the split's train side, score its test side.

    `seed` is the run seed the split came from, recorded in the result.
    """
    if scheme.noise_mode != "clean":
        if noisy_kb is None:
            raise InvalidArgumentError(
                f"scheme {scheme.combination} needs a noisy companion knowledge base"
            )
        _check_alignment(kb, noisy_kb)
    train_kb = noisy_kb if scheme.noise_mode == "train-and-test-noisy" else kb
    test_kb = noisy_kb if scheme.noise_mode != "clean" else kb

    model = train_model(train_kb, data_split.train_indices, scheme)
    result = evaluate_model(model, test_kb, data_split.test_indices)
    confusion = {k: v for k, v in result.items() if k != "accuracy"}
    return SchemeResult(
        scheme=scheme,
        seed=int(seed),
        n_train=len(data_split.train_indices),
        n_test=len(data_split.test_indices),
        accuracy=result["accuracy"],
        confusion=confusion,
        iterations=len(model.lb_trace),
        converged=model.converged,
        beta=tuple(float(b) for b in model.beta),
        final_bound=float(model.lb_trace[-1]),
    )


@dataclass(frozen=True)
class SweepReport:
    results: tuple  # SchemeResult cells, scheme-major then seed
    medians: dict   # scheme_id -> median accuracy
    n_train: int
    seeds: tuple
    kb_hash: str = ""


def sweep(
    kb: KnowledgeBase,
    schemes,
    seeds,
    n_train: int,
    noisy_kb: KnowledgeBase | None = None,
    kb_hash: str = "",
) -> SweepReport:
    """Run every scheme over every seed; each seed fixes its own split.

    Two schemes under the same seed see identical partitions.  An empty
    scheme or seed list is refused.
    """
    if len(schemes) == 0 or len(seeds) == 0:
        raise InvalidArgumentError("a sweep needs at least one scheme and one seed")
    results = []
    medians = {}
    for scheme in schemes:
        accs = []
        for s in seeds:
            data_split = make_split(kb, n_train, seed=split_stream(s))
            res = run_scheme(kb, data_split, scheme, s, noisy_kb=noisy_kb)
            results.append(res)
            accs.append(res.accuracy)
        medians[scheme.scheme_id or scheme.combination] = float(np.median(accs))
    return SweepReport(
        results=tuple(results),
        medians=medians,
        n_train=n_train,
        seeds=tuple(int(s) for s in seeds),
        kb_hash=kb_hash,
    )


def report_to_csv(report: SweepReport) -> str:
    """Deterministic CSV: per-cell rows plus a median row per scheme.

    Wall-clock timing stays out of the file so reruns are byte-identical.
    """
    lines = []
    if report.kb_hash:
        lines.append(f"# kb_sha256={report.kb_hash}")
    lines.append(f"# n_train={report.n_train} seeds={','.join(str(s) for s in report.seeds)}")
    lines.append(
        "scheme_id,combination,noise_mode,seed,n_train,n_test,accuracy,"
        "stable_as_stable,stable_as_unstable,unstable_as_stable,unstable_as_unstable,"
        "iterations,converged"
    )
    seen = []
    for res in report.results:
        sid = res.scheme.scheme_id or res.scheme.combination
        if sid not in seen:
            seen.append(sid)
        c = res.confusion
        lines.append(
            f"{sid},{res.scheme.combination},{res.scheme.noise_mode},{res.seed},"
            f"{res.n_train},{res.n_test},{res.accuracy!r},"
            f"{c['stable_as_stable']},{c['stable_as_unstable']},"
            f"{c['unstable_as_stable']},{c['unstable_as_unstable']},"
            f"{res.iterations},{res.converged}"
        )
    for sid in seen:
        example = next(r for r in report.results if (r.scheme.scheme_id or r.scheme.combination) == sid)
        lines.append(
            f"{sid},{example.scheme.combination},{example.scheme.noise_mode},median,"
            f"{report.n_train},{example.n_test},{report.medians[sid]!r},,,,,,"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plot data emission.


def lb_trace_csv(lb_trace, fh) -> None:
    fh.write("iteration,lower_bound\n")
    for i, v in enumerate(lb_trace, start=1):
        fh.write(f"{i},{float(v)!r}\n")


def svg_line_chart(series, fh, title: str = "", x_label: str = "", y_label: str = "") -> None:
    """Self-contained SVG with one polyline per named series.

    `series` is a list of (name, xs, ys).  Purely for eyeballing runs; no
    styling knobs.
    """
    width, height, margin = 720, 440, 64
    xs_all = np.concatenate([np.asarray(x, float) for _, x, _ in series])
    ys_all = np.concatenate([np.asarray(y, float) for _, _, y in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-size="16">{title}</text>'
        )
    for lab, v in ((f"{x_lo:.6g}", x_lo), (f"{x_hi:.6g}", x_hi)):
        parts.append(
            f'<text x="{sx(v):.1f}" y="{height - margin + 18:.1f}" text-anchor="middle" '
            f'font-size="12">{lab}</text>'
        )
    for lab, v in ((f"{y_lo:.6g}", y_lo), (f"{y_hi:.6g}", y_hi)):
        parts.append(
            f'<text x="{margin - 6:.1f}" y="{sy(v) + 4:.1f}" text-anchor="end" '
            f'font-size="12">{lab}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
            f'font-size="13">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>'
        )
    for k, (name, xs, ys) in enumerate(series):
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        color = palette[k % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * k + 12}" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    fh.write("\n".join(parts) + "\n")
