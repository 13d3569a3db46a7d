"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the toolkit and prints a
single verdict line with the measured numbers, so a plain

    pytest tests/test_acceptance.py -v -s

reads as a checklist.  The trend checks regenerate a full knowledge base
from the bundled case and run the preset scheme tables over five seeds;
expect the module to take on the order of fifteen minutes.
"""

import time

import numpy as np
import pytest
from scipy.special import ndtr

from tsakit import cli
from tsakit.experiments import (
    sweep,
    table4_schemes,
    table6_schemes,
)
from tsakit.features import Standardizer
from tsakit.kb import ScenarioPlan, generate_kb, kb_from_text, kb_to_text
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
    TrainedModel,
    _class_probabilities,
    _truncated_moments,
    init_state,
    lower_bound,
    model_from_document,
    model_probabilities,
    model_to_document,
    resample_beta,
    train,
    update_auxiliaries,
    update_regressors_and_scales,
)
from tsakit.network import Equilibrium, reduce_to_generators, solve_equilibrium
from tsakit.simulator import Scenario, Trajectory, label, simulate

_TIMINGS = {}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- Heavy shared inputs -----------------------------------------------------


def _acceptance_plan() -> ScenarioPlan:
    return ScenarioPlan(
        fault_buses=(2, 3, 4, 5, 6, 7, 8, 9),
        dispatches_per_level=6,
        master_seed=0,
    )


@pytest.fixture(scope="module")
def acceptance_kb(bundled_case):
    started = time.perf_counter()
    kb = generate_kb(bundled_case, _acceptance_plan())
    _TIMINGS["kb_gen"] = time.perf_counter() - started
    return kb


@pytest.fixture(scope="module")
def noisy_acceptance_kb(bundled_case):
    return generate_kb(bundled_case, _acceptance_plan(), noise_max_rel_error=0.01)


@pytest.fixture(scope="module")
def table4_report(acceptance_kb):
    started = time.perf_counter()
    report = sweep(
        acceptance_kb,
        table4_schemes(),
        seeds=(0, 1, 2, 3, 4),
        n_train=acceptance_kb.n_samples // 2,
    )
    _TIMINGS["table4"] = time.perf_counter() - started
    return report


# --- Kernel machinery --------------------------------------------------------


def test_kernel_suite(toy_grams, toy_dataset):
    started = time.perf_counter()

    _, targets = toy_dataset
    state = init_state(toy_grams, targets)
    worst_simplex = 0.0
    for _ in range(40):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        resample_beta(state)
        validate_simplex(state.beta)
        worst_simplex = max(worst_simplex, abs(float(state.beta.sum()) - 1.0))

    rng = np.random.default_rng(2024)
    min_eig = np.inf
    diag_exact = True
    for _ in range(50):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 6))
        x = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, d))
        gauss = base_gram(x, KernelSpec(kind=GAUSSIAN, sigma=median_width(x)))
        poly = base_gram(x, KernelSpec(kind=POLYNOMIAL))
        composite = compose([gauss, poly], rng.dirichlet((1.0, 1.0)))
        for g in (gauss, poly, composite):
            min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))
        diag_exact = diag_exact and bool(np.all(np.diag(gauss) == 1.0))

    elapsed = time.perf_counter() - started
    ok = worst_simplex < 1e-12 and min_eig > -1e-9 and diag_exact and elapsed < 10.0
    _report(
        "kernel suite",
        ok,
        f"max |sum(beta)-1|={worst_simplex:.2e} over 40 iterations, "
        f"min eigenvalue={min_eig:.2e} over 50 random Grams, "
        f"gaussian diagonal exact={diag_exact}, {elapsed:.1f}s (< 10s)",
    )


# --- Probit link --------------------------------------------------------------


def test_probit_suite(toy_grams, toy_dataset):
    started = time.perf_counter()
    rng = np.random.default_rng(77)

    worst_sum = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 12))
        mean = rng.uniform(-5.0, 5.0, size=n)
        spread = rng.uniform(1.0, 3.0, size=n)
        probs = _class_probabilities(mean, spread)
        worst_sum = max(worst_sum, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))

    # Class means (g/2, -g/2) at unit spreads: P(class 0) = Phi(g / sqrt(2)).
    grid = np.arange(-3.0, 3.5, 1.0)
    probs = _class_probabilities(0.5 * grid, np.ones_like(grid))
    worst_closed = float(np.max(np.abs(probs[:, 0] - ndtr(grid / np.sqrt(2.0)))))

    # Conditioning on y_true > y_rival keeps E[y_true] > E[y_rival]; class 1's
    # auxiliaries are -y, so the margin (1 - 2t) y must be positive.
    m = rng.normal(scale=2.0, size=200)
    targets = rng.integers(0, 2, size=200)
    y, _ = _truncated_moments(m, targets)
    worst_margin = float(np.min((1 - 2 * targets) * y))

    _, kb_targets = toy_dataset
    state = train(toy_grams, kb_targets, max_iters=30)
    trained_margin = float(np.min((1 - 2 * kb_targets) * state.y_mean))

    elapsed = time.perf_counter() - started
    ok = (
        worst_sum < 1e-6
        and worst_closed < 1e-12
        and worst_margin > 0.0
        and trained_margin > 0.0
        and elapsed < 30.0
    )
    _report(
        "probit suite",
        ok,
        f"max |sum(p)-1|={worst_sum:.2e} over 100 random models, "
        f"two-class closed-form gap={worst_closed:.2e}, "
        f"true-class auxiliary margin={worst_margin:.2e} (random) / "
        f"{trained_margin:.2e} (trained), {elapsed:.1f}s (< 30s)",
    )


# --- Lower bound ----------------------------------------------------------------


def test_lower_bound_suite(toy_grams, toy_dataset):
    started = time.perf_counter()
    _, targets = toy_dataset

    state = init_state(toy_grams, targets)
    worst_drop = 0.0
    previous = None
    for _ in range(30):
        update_regressors_and_scales(state)
        update_auxiliaries(state)
        bound = lower_bound(state)
        if previous is not None:
            worst_drop = max(worst_drop, previous - bound)
        previous = bound

    full = train(toy_grams, targets)
    elapsed = time.perf_counter() - started
    ok = (
        worst_drop < 1e-8
        and full.converged
        and len(full.lb_trace) < 200
        and full.lb_trace[-1] >= full.lb_trace[0]
        and elapsed < 60.0
    )
    _report(
        "lower-bound suite",
        ok,
        f"worst fixed-mixture decrease={worst_drop:.2e}, "
        f"converged={full.converged} in {len(full.lb_trace)} iterations, "
        f"bound {full.lb_trace[0]:.3f} -> {full.lb_trace[-1]:.3f}, "
        f"{elapsed:.1f}s (< 60s)",
    )


# --- Simulator ---------------------------------------------------------------------


def _spread_trajectory(spread_rad: float) -> Trajectory:
    n = 12
    delta = np.zeros((n, 2))
    delta[6, 1] = spread_rad
    return Trajectory(
        times_s=np.arange(n) / 60.0,
        delta=delta,
        omega_dev=np.zeros((n, 2)),
        pm=np.zeros(2),
        pe=np.zeros((n, 2)),
        t0_index=2,
        tcl_index=7,
        inertia=np.ones(2),
    )


def test_simulator_suite(bundled_case, pair_case):
    started = time.perf_counter()

    # Equilibrium hold: no disturbance means nothing moves for 5 s.
    pm = np.full(3, bundled_case.total_load_p / 3)
    reduced = reduce_to_generators(bundled_case, 1.0)
    eq = solve_equilibrium(bundled_case, reduced, pm)
    quiet = simulate(
        bundled_case,
        Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=None),
        eq,
    )
    hold_err = float(np.max(np.abs(quiet.delta - eq.delta0)))

    # Undamped lossless release: the energy integral must stay flat.
    pair_reduced = reduce_to_generators(pair_case, 1.0)
    delta_start = np.array([0.4, -0.4])
    pair_eq_like = Equilibrium(delta0=delta_start, pm=np.zeros(2), network=pair_reduced)
    swingy = simulate(
        pair_case,
        Scenario(load_scale=1.0, dispatch_seed=0, fault_bus=None),
        pair_eq_like,
    )
    m = pair_case.inertia
    b12 = float(pair_reduced.imag[0, 1])
    kinetic = 0.5 * np.sum(m * swingy.omega_dev**2, axis=1)
    potential = -b12 * np.prod(pair_case.emf) * np.cos(
        swingy.delta[:, 0] - swingy.delta[:, 1]
    )
    energy = kinetic + potential
    energy_drift = float(np.max(np.abs(energy - energy[0])))

    # Step halving on a faulted run.
    scenario = Scenario(
        load_scale=1.0, dispatch_seed=0, fault_bus=7, observation_horizon_s=2.0
    )
    coarse = simulate(bundled_case, scenario, eq, substeps_per_cycle=10)
    fine = simulate(bundled_case, scenario, eq, substeps_per_cycle=20)
    step_gap = float(np.max(np.abs(coarse.delta - fine.delta)))

    # Label boundaries, including the exact threshold.
    lab_100 = label(_spread_trajectory(np.radians(100.0))).value
    lab_400 = label(_spread_trajectory(np.radians(400.0))).value
    boundary = _spread_trajectory(np.radians(360.0))
    assert float(np.degrees(np.radians(360.0))) == 360.0
    lab_360 = label(boundary).value

    elapsed = time.perf_counter() - started
    ok = (
        hold_err < 1e-9
        and energy_drift < 1e-6
        and step_gap < 1e-6
        and (lab_100, lab_400, lab_360) == (1, -1, 1)
    )
    _report(
        "simulator suite",
        ok,
        f"5s equilibrium hold={hold_err:.2e} (< 1e-9), "
        f"energy drift={energy_drift:.2e} (< 1e-6), "
        f"step-halving gap={step_gap:.2e} rad (< 1e-6), "
        f"labels 100/400/360 deg = {lab_100:+d}/{lab_400:+d}/{lab_360:+d}, "
        f"{elapsed:.1f}s",
    )


# --- Classifier sanity -----------------------------------------------------------


def _blobs(n_per, seed):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [
            rng.normal(loc=1.5, scale=1.0, size=(n_per, 4)),
            rng.normal(loc=-1.5, scale=1.0, size=(n_per, 4)),
        ]
    )
    t = np.array([0] * n_per + [1] * n_per)
    order = rng.permutation(len(t))
    return x[order], t[order]


def _fit_blob_model(x, targets):
    std = Standardizer.fit(x)
    xs = std.transform(x)
    spec = KernelSpec(kind=GAUSSIAN, sigma=median_width(xs))
    state = train([base_gram(xs, spec)], targets)
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


def test_classifier_sanity():
    started = time.perf_counter()
    x_train, t_train = _blobs(30, seed=20)
    x_test, t_test = _blobs(25, seed=21)

    model = _fit_blob_model(x_train, t_train)
    probs, _, _ = model_probabilities(model, x_test)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == t_test))

    mirrored = _fit_blob_model(x_train, 1 - t_train)
    mirrored_probs, _, _ = model_probabilities(mirrored, x_test)
    swap_gap = float(np.max(np.abs(probs - mirrored_probs[:, ::-1])))

    elapsed = time.perf_counter() - started
    ok = accuracy >= 0.98 and swap_gap < 1e-9
    _report(
        "classifier sanity",
        ok,
        f"held-out accuracy={accuracy:.3f} (>= 0.98), "
        f"label-swap gap={swap_gap:.2e} (< 1e-9), {elapsed:.1f}s",
    )


# --- Fusion trend -----------------------------------------------------------------


def test_fusion_trend(acceptance_kb, table4_report):
    medians = table4_report.medians
    best_single = max(medians["1"], medians["2"], medians["3"])
    fused = medians["8"]
    flat_union = medians["4"]
    elapsed = _TIMINGS["table4"]
    ok = (
        acceptance_kb.n_samples >= 400
        and fused >= best_single
        and fused >= flat_union - 0.01
        and elapsed < 1200.0
    )
    _report(
        "fusion trend",
        ok,
        f"kb={acceptance_kb.n_samples} samples "
        f"(generated in {_TIMINGS['kb_gen']:.0f}s), "
        f"three-subset fusion median={fused:.4f} vs best single subset="
        f"{best_single:.4f} and flat union={flat_union:.4f}, "
        f"all medians={ {k: round(v, 4) for k, v in medians.items()} }, "
        f"sweep {elapsed:.0f}s (< 1200s)",
    )


# Held-out samples classified right (of 226) and iterations for each table4
# fit at N = 226 over seeds 0-4; all 40 fits converged.  The single-kernel
# schemes 1-4 were recorded before the probit link took its closed form,
# the fusions 5-8 when the exact mixture update replaced the sampler.
TABLE4_CELLS = {
    "1": [(220, 98), (218, 97), (220, 88), (215, 98), (218, 104)],
    "2": [(222, 94), (217, 99), (219, 84), (211, 108), (220, 108)],
    "3": [(221, 92), (220, 95), (222, 94), (220, 98), (220, 94)],
    "4": [(221, 99), (218, 92), (222, 86), (217, 95), (220, 95)],
    "5": [(222, 98), (219, 99), (221, 88), (213, 107), (219, 94)],
    "6": [(221, 92), (220, 94), (222, 90), (220, 97), (220, 89)],
    "7": [(221, 89), (220, 94), (222, 91), (220, 93), (220, 90)],
    "8": [(221, 89), (220, 91), (222, 85), (220, 84), (220, 84)],
}


def test_table4_cells_match_reference(table4_report):
    # A gate at realistic size: (accuracy, iterations, converged) of every
    # fit, read off the sweep the trend checks already run.
    got = {}
    for r in table4_report.results:
        got.setdefault(r.scheme.scheme_id, []).append((r.accuracy, r.iterations, r.converged))
    differing = [
        sid
        for sid, cells in TABLE4_CELLS.items()
        if got.get(sid) != [(k / 226, it, True) for k, it in cells]
    ]
    _report(
        "table4 cells",
        table4_report.seeds == (0, 1, 2, 3, 4) and not differing,
        f"{len(table4_report.results)} fits at N={table4_report.n_train}, "
        f"schemes differing from the recorded cells: {differing or 'none'}",
    )


# --- Noise trend -------------------------------------------------------------------


def test_noise_trend(acceptance_kb, noisy_acceptance_kb, table4_report):
    started = time.perf_counter()
    report = sweep(
        acceptance_kb,
        table6_schemes(),
        seeds=(0, 1, 2, 3, 4),
        n_train=acceptance_kb.n_samples // 2,
        noisy_kb=noisy_acceptance_kb,
    )
    elapsed = time.perf_counter() - started

    test_noisy = report.medians["17"]
    retrained = report.medians["18"]
    clean = table4_report.medians["8"]
    ok = (
        test_noisy <= retrained
        and abs(retrained - clean) <= 0.03
        and elapsed < 600.0
    )
    _report(
        "noise trend",
        ok,
        f"clean-trained-on-noisy median={test_noisy:.4f} <= "
        f"noise-retrained median={retrained:.4f}, "
        f"|retrained - clean {clean:.4f}| = {abs(retrained - clean):.4f} (<= 0.03), "
        f"sweep {elapsed:.0f}s (< 600s)",
    )


# --- Determinism and round-trips ------------------------------------------------------


def test_determinism_round_trip(tmp_path, capsys):
    started = time.perf_counter()
    gen_args = [
        "gen-kb",
        "--levels",
        "1.05,1.25",
        "--dispatches",
        "3",
        "--fault-buses",
        "7,8,9",
    ]
    kb_a, kb_b = tmp_path / "kb_a.txt", tmp_path / "kb_b.txt"
    assert cli.main(gen_args + ["--out", str(kb_a)]) == 0
    assert cli.main(gen_args + ["--out", str(kb_b)]) == 0
    gen_identical = kb_a.read_bytes() == kb_b.read_bytes()

    train_args = ["train", "--kb", str(kb_a), "--train-size", "12"]
    model_a, model_b = tmp_path / "m_a.txt", tmp_path / "m_b.txt"
    assert cli.main(train_args + ["--out", str(model_a)]) == 0
    assert cli.main(train_args + ["--out", str(model_b)]) == 0
    train_identical = model_a.read_bytes() == model_b.read_bytes()

    sweep_args = [
        "sweep",
        "--kb",
        str(kb_a),
        "--schemes",
        "F1(Kg);F2(Kg)",
        "--seeds",
        "2",
        "--train-size",
        "12",
    ]
    sweep_a, sweep_b = tmp_path / "s_a.csv", tmp_path / "s_b.csv"
    assert cli.main(sweep_args + ["--out", str(sweep_a)]) == 0
    assert cli.main(sweep_args + ["--out", str(sweep_b)]) == 0
    sweep_identical = sweep_a.read_bytes() == sweep_b.read_bytes()
    capsys.readouterr()

    kb_text = kb_a.read_text()
    kb_round = kb_to_text(kb_from_text(kb_text)) == kb_text
    model_text = model_a.read_text()
    model_round = model_to_document(model_from_document(model_text)) == model_text

    elapsed = time.perf_counter() - started
    ok = gen_identical and train_identical and sweep_identical and kb_round and model_round
    _report(
        "determinism and round-trip",
        ok,
        f"gen-kb identical={gen_identical}, train identical={train_identical}, "
        f"sweep identical={sweep_identical}, kb round-trip={kb_round}, "
        f"model round-trip={model_round}, {elapsed:.1f}s",
    )
