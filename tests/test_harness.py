"""Scheme grammar, sweep reports, and the command-line front end."""

import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

from tsakit import cli
from tsakit.errors import InvalidArgumentError
from tsakit.experiments import (
    CLASS_LABELS,
    SCHEME_TABLES,
    SchemeSpec,
    evaluate_model,
    labels_to_targets,
    lb_trace_csv,
    metrics,
    parse_scheme,
    report_to_csv,
    run_scheme,
    split_stream,
    svg_line_chart,
    sweep,
    table4_schemes,
    table5_schemes,
    table6_schemes,
    train_model,
)
from tsakit.kb import kb_to_text, save_kb, split
from tsakit.kernels import GAUSSIAN, POLYNOMIAL
from tsakit.mkprobit import load_model, predictive_distribution
from tsakit.network import bundled_case_path


@pytest.fixture(scope="module")
def small_split(small_kb):
    return split(small_kb, n_train=12, seed=0)


@pytest.fixture(scope="module")
def kb_file(small_kb, tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "kb.txt"
    save_kb(small_kb, path)
    return path


@pytest.fixture(scope="module")
def noisy_kb_file(noisy_small_kb, tmp_path_factory):
    path = tmp_path_factory.mktemp("kb") / "kb_noisy.txt"
    save_kb(noisy_small_kb, path)
    return path


@pytest.fixture(scope="module")
def model_file(kb_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    rc = cli.main(
        ["train", "--kb", str(kb_file), "--train-size", "12", "--out", str(path)]
    )
    assert rc == 0
    return path


# --- Metrics and label plumbing ---------------------------------------------------


def test_metrics_oracle():
    y_true = np.array([1, 1, -1, -1, 1])
    y_pred = np.array([1, -1, -1, 1, 1])
    m = metrics(y_true, y_pred)
    assert m == {
        "accuracy": 0.6,
        "stable_as_stable": 2,
        "stable_as_unstable": 1,
        "unstable_as_stable": 1,
        "unstable_as_unstable": 1,
    }


@pytest.mark.parametrize(
    "y_true, y_pred",
    [
        ([1, -1], [1]),
        ([], []),
        ([1, 0], [1, 1]),
        ([1, 1], [1, 2]),
    ],
)
def test_metrics_rejects_bad_labels(y_true, y_pred):
    with pytest.raises(InvalidArgumentError):
        metrics(np.array(y_true), np.array(y_pred))


def test_labels_to_targets_orders_stable_first():
    assert CLASS_LABELS == (1, -1)
    assert labels_to_targets(np.array([1, -1, 1])).tolist() == [0, 1, 0]
    with pytest.raises(InvalidArgumentError):
        labels_to_targets(np.array([1, 0]))


# --- Scheme grammar --------------------------------------------------------------


def test_parse_scheme_round_trips():
    spec = parse_scheme("F1(Kg)+F2(Kp)")
    assert spec.subsets == ("F1", "F2")
    assert spec.kernels == (GAUSSIAN, POLYNOMIAL)
    assert spec.combination == "F1(Kg)+F2(Kp)"
    assert parse_scheme("union(Kg)").subsets == ("union",)
    assert parse_scheme(" F1(Kg) + F3(Kg) ").combination == "F1(Kg)+F3(Kg)"


@pytest.mark.parametrize("text", ["F1", "F1(Kx)", "F1[Kg]", "(Kg)+(Kp)"])
def test_parse_scheme_rejects_bad_tokens(text):
    with pytest.raises(InvalidArgumentError):
        parse_scheme(text)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(subsets=("F1", "F1"), kernels=(GAUSSIAN, GAUSSIAN)),
        dict(subsets=("union", "F1"), kernels=(GAUSSIAN, GAUSSIAN)),
        dict(subsets=("F1",), kernels=()),
        dict(subsets=(), kernels=()),
        dict(subsets=("F9",), kernels=(GAUSSIAN,)),
        dict(subsets=("F1",), kernels=("sigmoid",)),
        dict(subsets=("F1",), kernels=(GAUSSIAN,), noise_mode="loud"),
    ],
)
def test_scheme_spec_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        SchemeSpec(**kwargs)


def test_preset_tables():
    t4 = table4_schemes()
    assert [s.scheme_id for s in t4] == [str(i) for i in range(1, 9)]
    assert t4[0].subsets == ("F1",)
    assert t4[3].subsets == ("union",)
    assert t4[7].subsets == ("F1", "F2", "F3")
    assert all(set(s.kernels) == {GAUSSIAN} for s in t4)
    assert all(s.noise_mode == "clean" for s in t4)

    t5 = table5_schemes()
    assert [s.scheme_id for s in t5] == [str(i) for i in range(9, 17)]
    assert all(s.subsets == ("F1", "F2", "F3") for s in t5)
    assert len({s.kernels for s in t5}) == 8
    assert t5[0].kernels == (POLYNOMIAL,) * 3
    assert t5[-1].kernels == (GAUSSIAN,) * 3

    t6 = table6_schemes()
    assert [s.scheme_id for s in t6] == ["17", "18"]
    assert [s.noise_mode for s in t6] == ["test-noisy", "train-and-test-noisy"]
    assert all(s.combination == "F1(Kg)+F2(Kg)+F3(Kg)" for s in t6)

    assert set(SCHEME_TABLES) == {"table4", "table5", "table6"}


# --- Training and scoring ----------------------------------------------------------


def test_train_and_evaluate_fit_together(small_kb, small_split):
    scheme = parse_scheme("F1(Kg)+F2(Kg)+F3(Kg)")
    model = train_model(small_kb, small_split.train_indices, scheme, seed=0)
    assert model.class_labels == CLASS_LABELS
    assert len(model.beta) == 3

    on_train = evaluate_model(model, small_kb, small_split.train_indices)
    counts = [v for k, v in on_train.items() if k != "accuracy"]
    assert sum(counts) == len(small_split.train_indices)
    agree = on_train["stable_as_stable"] + on_train["unstable_as_unstable"]
    assert on_train["accuracy"] == agree / len(small_split.train_indices)

    everywhere = evaluate_model(model, small_kb)
    assert sum(v for k, v in everywhere.items() if k != "accuracy") == small_kb.n_samples


def test_model_accepts_feature_vector_queries(small_kb, small_split):
    scheme = parse_scheme("F1(Kg)+F3(Kp)")
    model = train_model(small_kb, small_split.train_indices, scheme, seed=1)
    pred = predictive_distribution(model, small_kb.feature_matrix[0])
    assert pred.label in CLASS_LABELS
    assert pred.probabilities.shape == (2,)
    assert abs(pred.probabilities.sum() - 1.0) < 1e-12


def test_run_scheme_reports_the_cell(small_kb, small_split):
    res = run_scheme(small_kb, small_split, parse_scheme("F2(Kg)"), seed=0)
    assert res.n_train == 12
    assert res.n_test == small_kb.n_samples - 12
    assert 0.0 <= res.accuracy <= 1.0
    assert sum(res.confusion.values()) == res.n_test
    assert res.iterations >= 2
    assert abs(sum(res.beta) - 1.0) < 1e-12
    assert res.seed == 0
    assert np.isfinite(res.final_bound)


def test_noisy_modes_pick_the_right_sides(small_kb, small_split, noisy_small_kb):
    spec17, spec18 = table6_schemes()
    with pytest.raises(InvalidArgumentError, match="companion"):
        run_scheme(small_kb, small_split, spec17, seed=0)

    r17 = run_scheme(small_kb, small_split, spec17, seed=0, noisy_kb=noisy_small_kb)
    r18 = run_scheme(small_kb, small_split, spec18, seed=0, noisy_kb=noisy_small_kb)
    clean = run_scheme(
        small_kb, small_split, parse_scheme("F1(Kg)+F2(Kg)+F3(Kg)"), seed=0
    )
    # test-noisy shares the clean training run, so the bound trace agrees
    assert r17.final_bound == clean.final_bound
    assert r18.n_test == r17.n_test
    assert 0.0 <= r17.accuracy <= 1.0 and 0.0 <= r18.accuracy <= 1.0


def test_misaligned_noisy_companion_is_refused(small_kb, small_split, noisy_small_kb):
    scheme = table6_schemes()[0]
    short = dataclasses.replace(
        noisy_small_kb,
        feature_matrix=noisy_small_kb.feature_matrix[:-1],
        labels=noisy_small_kb.labels[:-1],
        ids=noisy_small_kb.ids[:-1],
    )
    with pytest.raises(InvalidArgumentError, match="sample count"):
        run_scheme(small_kb, small_split, scheme, seed=0, noisy_kb=short)

    renamed = dataclasses.replace(noisy_small_kb, ids=("zz",) + noisy_small_kb.ids[1:])
    with pytest.raises(InvalidArgumentError, match="aligned"):
        run_scheme(small_kb, small_split, scheme, seed=0, noisy_kb=renamed)

    relabelled = dataclasses.replace(noisy_small_kb, labels=-noisy_small_kb.labels)
    with pytest.raises(InvalidArgumentError, match="aligned"):
        run_scheme(small_kb, small_split, scheme, seed=0, noisy_kb=relabelled)


# --- Sweeps and reports --------------------------------------------------------------


def test_sweep_collects_medians(small_kb):
    schemes = (parse_scheme("F1(Kg)", scheme_id="a"), parse_scheme("F2(Kg)", scheme_id="b"))
    report = sweep(small_kb, schemes, seeds=(0, 1, 2), n_train=12, kb_hash="deadbeef")
    assert len(report.results) == 6
    assert set(report.medians) == {"a", "b"}
    for sid in ("a", "b"):
        accs = [r.accuracy for r in report.results if r.scheme.scheme_id == sid]
        assert report.medians[sid] == float(np.median(accs))
    assert report.seeds == (0, 1, 2)
    assert report.n_train == 12

    # same seed means the same split for every scheme
    a0 = [r for r in report.results if r.scheme.scheme_id == "a"][0]
    b0 = [r for r in report.results if r.scheme.scheme_id == "b"][0]
    assert a0.n_test == b0.n_test

    # a cell is run_scheme under its seed, on the seed's split stream
    assert run_scheme(small_kb, split(small_kb, 12, seed=split_stream(0)), schemes[0], 0) == a0


def test_report_csv_is_deterministic(small_kb):
    schemes = (parse_scheme("F1(Kg)", scheme_id="1"),)
    a = report_to_csv(sweep(small_kb, schemes, seeds=(0, 1), n_train=12, kb_hash="ff"))
    b = report_to_csv(sweep(small_kb, schemes, seeds=(0, 1), n_train=12, kb_hash="ff"))
    assert a == b

    lines = a.splitlines()
    assert lines[0] == "# kb_sha256=ff"
    assert lines[1] == "# n_train=12 seeds=0,1"
    assert lines[2].startswith("scheme_id,combination,noise_mode,seed,")
    body = lines[3:]
    assert len(body) == 2 + 1  # one row per seed plus the median row
    assert body[-1].split(",")[3] == "median"
    acc = float(body[0].split(",")[6])
    assert 0.0 <= acc <= 1.0


def test_lb_trace_csv_layout():
    fh = io.StringIO()
    lb_trace_csv([-10.0, -9.5, -9.25], fh)
    assert fh.getvalue() == "iteration,lower_bound\n1,-10.0\n2,-9.5\n3,-9.25\n"


def test_svg_chart_smoke():
    fh = io.StringIO()
    xs = np.arange(5.0)
    svg_line_chart(
        [("one", xs, xs**2), ("two", xs, 1.0 - xs)],
        fh,
        title="demo",
        x_label="t",
        y_label="v",
    )
    text = fh.getvalue()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "demo" in text and ">one<" in text and ">two<" in text


# --- Command line ----------------------------------------------------------------------


def test_cli_simulate_writes_a_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = cli.main(
        [
            "simulate",
            "--fault-bus",
            "7",
            "--horizon",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "label=" in printed and "samples=61" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,gen,delta_rad,omega_dev,pm_pu,pe_pu"
    assert len(lines) == 1 + 61 * 3


def test_cli_usage_errors_exit_one(capsys):
    assert cli.main(["simulate"]) == 1  # missing --out
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_cli_missing_file_exits_one(tmp_path, capsys):
    rc = cli.main(
        ["train", "--kb", str(tmp_path / "nope.txt"), "--train-size", "5", "--out", "x"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_numerical_failure_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--load-scale", "3.0", "--out", str(tmp_path / "t.csv")]
    )
    assert rc == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_cli_gen_kb_matches_library_output(tmp_path, small_kb, capsys):
    out = tmp_path / "kb.txt"
    args = [
        "gen-kb",
        "--levels",
        "1.05,1.25",
        "--dispatches",
        "3",
        "--fault-buses",
        "7,8,9",
        "--out",
        str(out),
    ]
    assert cli.main(args) == 0
    assert "planned=18 kept=18" in capsys.readouterr().out
    assert out.read_text() == kb_to_text(small_kb)

    again = tmp_path / "kb2.txt"
    assert cli.main(args[:-1] + [str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_cli_default_fault_buses_skip_reference(bundled_case):
    buses = cli.default_fault_buses(bundled_case)
    assert bundled_case.generators[0].bus not in buses
    assert len(buses) == bundled_case.n_buses - 1


def test_cli_train_is_reproducible(kb_file, model_file, tmp_path, capsys):
    model = load_model(model_file)
    assert len(model.beta) == 3
    assert len(model.lb_trace) >= 2
    again = tmp_path / "model2.txt"
    rc = cli.main(
        ["train", "--kb", str(kb_file), "--train-size", "12", "--out", str(again)]
    )
    assert rc == 0
    assert "test_accuracy=" in capsys.readouterr().out
    assert again.read_bytes() == model_file.read_bytes()


def test_cli_eval_prints_metrics(kb_file, model_file, capsys):
    rc = cli.main(["eval", "--model", str(model_file), "--kb", str(kb_file)])
    assert rc == 0
    printed = capsys.readouterr().out
    for key in ("accuracy=", "stable_as_stable=", "unstable_as_unstable="):
        assert key in printed


def test_cli_predict_emits_one_line_per_row(model_file, small_kb, tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    mat = small_kb.feature_matrix[:3]
    rows.write_text(
        "\n".join(" ".join(repr(float(v)) for v in row) for row in mat) + "\n"
    )
    rc = cli.main(["predict", "--model", str(model_file), "--features", str(rows)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        fields = line.split()
        assert fields[0] in ("+1", "-1")
        probs = [float(v) for v in fields[1:]]
        assert len(probs) == 2
        assert abs(sum(probs) - 1.0) < 1e-5


def test_cli_predict_rejects_garbage(model_file, tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    rows.write_text("not numbers at all\n")
    rc = cli.main(["predict", "--model", str(model_file), "--features", str(rows)])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_predict_rejects_non_finite_row(value, model_file, small_kb, tmp_path, capsys):
    rows = tmp_path / "rows.txt"
    good = " ".join(repr(float(v)) for v in small_kb.feature_matrix[0])
    bad = " ".join([value] + [repr(float(v)) for v in small_kb.feature_matrix[1][1:]])
    rows.write_text(good + "\n" + bad + "\n")
    rc = cli.main(["predict", "--model", str(model_file), "--features", str(rows)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: feature line 2")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cli_refuses_kb_with_non_finite_feature(command, kb_file, model_file, tmp_path, capsys):
    lines = kb_file.read_text().splitlines()
    record = json.loads(lines[2])
    record["features"][5] = float("nan")
    lines[2] = json.dumps(record)
    bad = tmp_path / "bad_kb.txt"
    bad.write_text("\n".join(lines) + "\n")
    if command == "train":
        argv = ["train", "--kb", str(bad), "--train-size", "12", "--out", str(tmp_path / "m")]
    else:
        argv = ["eval", "--model", str(model_file), "--kb", str(bad)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 3:")
    assert "non-finite" in captured.err


@pytest.mark.parametrize(
    "target, old, new",
    [
        ("kb", b'"dispatches_per_level":3', b'"dispatches_per_level":"x"'),
        ("kb", b'"noise_max_rel_error":0.0', b'"noise_max_rel_error":"x"'),
        ("kb", b'"discarded":[]', b'"discarded":5'),
        ("kb", b"{", b"\xff{"),
        ("model", b'"degree":2', b'"degree":"two"'),
        ("model", b'"beta":[', b'"beta":["a",'),
        ("model", b"{", b"\xff{"),
        ("features", b"0", b"\xff0"),
        ("case", b"format", b"\xffformat"),
        ("traj", b"0.0,1,0.1", b"x,1,0.1"),
        ("traj", b"t_s", b"\xfft_s"),
        ("kb", b'"dispatches_per_level":3', b'"dispatches_per_level":1e400'),
        ("case", b"\n1      0.0    0.0", b"\ninf    0.0    0.0"),
        ("case", b"\n1      0.0    0.0", b"\nnan    0.0    0.0"),
        ("case", b"\n1      0.0    0.0", b"\n1.5    0.0    0.0"),
        ("case", b"0.048", b"nan"),
        ("kb", b'"label":1}', b'"label":1.5}'),
        ("kb", b'"label":1}', b'"label":true}'),
        ("kb", b'"dispatches_per_level":3', b'"dispatches_per_level":3.9'),
        ("kb", b'"fault_clearing_cycles":5', b'"fault_clearing_cycles":5.7'),
        ("kb", b'"master_seed":0', b'"master_seed":0.5'),
        ("kb", b'"master_seed":0', b'"master_seed":-1'),
        ("model", b'"degree":2', b'"degree":2.7'),
        ("model", b'"class_labels":[1,-1]', b'"class_labels":[1.4,-1.2]'),
        ("model", b'"converged":true', b'"converged":"no"'),
    ],
    ids=[
        "kb-plan-field", "kb-noise-field", "kb-discarded-field", "kb-not-utf8",
        "model-degree", "model-beta", "model-not-utf8", "rows-not-utf8", "case-not-utf8",
        "traj-field", "traj-not-utf8", "kb-plan-overflow", "case-bus-inf", "case-bus-nan",
        "case-bus-fraction", "case-inertia-nan", "kb-label-fraction", "kb-label-bool",
        "kb-dispatches-fraction", "kb-clearing-fraction", "kb-seed-fraction", "kb-seed-negative",
        "model-degree-fraction", "model-labels-fraction", "model-converged-string",
    ],
)
def test_cli_malformed_input_exits_one(
    target, old, new, kb_file, model_file, small_kb, tmp_path, capsys
):
    rows = tmp_path / "rows.txt"
    rows.write_text(" ".join(repr(float(v)) for v in small_kb.feature_matrix[0]) + "\n")
    traj = tmp_path / "traj.csv"
    traj.write_text("t_s,gen,delta_rad,omega_dev,pm_pu,pe_pu\n0.0,1,0.1,0.0,0.5,0.5\n")
    paths = {
        "kb": kb_file,
        "model": model_file,
        "features": rows,
        "case": bundled_case_path(),
        "traj": traj,
    }
    data = pathlib.Path(paths[target]).read_bytes()
    assert old in data
    paths[target] = tmp_path / "bad"
    paths[target].write_bytes(data.replace(old, new, 1))
    if target == "case":
        argv = ["simulate", "--case", str(paths["case"]), "--out", str(tmp_path / "t.csv")]
    elif target == "traj":
        argv = ["plot", "swing", "--traj", str(paths["traj"]), "--out", str(tmp_path / "s.svg")]
    elif target == "features":
        argv = ["predict", "--model", str(paths["model"]), "--features", str(paths["features"])]
    else:
        argv = ["eval", "--model", str(paths["model"]), "--kb", str(paths["kb"])]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def _cut_beta(doc):
    doc["beta"] = [0.5]


def _one_beta(doc):
    doc["beta"] = [1.0]


def _short_w_mean(doc):
    doc["w_mean"] = doc["w_mean"][:-1]


def _nan_w_mean(doc):
    doc["w_mean"][0] = float("nan")


def _nan_beta(doc):
    doc["beta"][0] = float("nan")


def _negative_w_cov_diag(doc):
    doc["w_cov_diag"] = [-50.0] * len(doc["w_cov_diag"])


def _three_classes(doc):
    doc["class_labels"].append(0)


def _short_standardizer(doc):
    for key in ("mean", "std", "zero_variance"):
        doc["standardizers"][0][key] = doc["standardizers"][0][key][:-1]


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize(
    "damage",
    [
        _cut_beta,
        _one_beta,
        _short_w_mean,
        _nan_w_mean,
        _nan_beta,
        _negative_w_cov_diag,
        _three_classes,
        _short_standardizer,
    ],
    ids=[
        "beta-cut",
        "beta-one-entry",
        "w-mean-short",
        "w-mean-nan",
        "beta-nan",
        "w-cov-diag-negative",
        "three-classes",
        "standardizer-short",
    ],
)
def test_cli_refuses_model_that_disagrees_with_itself(
    command, damage, kb_file, model_file, small_kb, tmp_path, capsys
):
    # The default scheme fits three subsets to two classes; each damaged
    # document is still valid JSON with every field present.
    doc = json.loads(model_file.read_text())
    assert len(doc["subset_names"]) == 3
    damage(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rows = tmp_path / "rows.txt"
    rows.write_text(" ".join(repr(float(v)) for v in small_kb.feature_matrix[0]) + "\n")
    if command == "predict":
        argv = ["predict", "--model", str(bad), "--features", str(rows)]
    else:
        argv = ["eval", "--model", str(bad), "--kb", str(kb_file)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_gen_kb_rejects_repeated_cells(tmp_path, capsys):
    out = str(tmp_path / "kb.txt")
    assert cli.main(["gen-kb", "--fault-buses", "7,7", "--out", out]) == 1
    assert cli.main(["gen-kb", "--levels", "1.05,1.049", "--out", out]) == 1
    assert capsys.readouterr().err.count("error:") == 2


def test_cli_gen_kb_refuses_nan_noise(tmp_path, capsys):
    # NaN fails every comparison, so the range check must be written to catch it.
    out = tmp_path / "kb.txt"
    assert cli.main(["gen-kb", "--noise", "nan", "--out", str(out)]) == 1
    assert "noise" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["F1(Kg)", "F3(Kg)"])
@pytest.mark.parametrize("width", [22, 24])
def test_cli_predict_rejects_wrong_row_width(kb_file, small_kb, scheme, width, tmp_path, capsys):
    # A single-subset model reads only its own columns, so nothing but the
    # width check stops a short or long row from being scored.
    model = tmp_path / "model.json"
    train = ["train", "--kb", str(kb_file), "--scheme", scheme, "--train-size", "12"]
    assert cli.main(train + ["--out", str(model)]) == 0
    row = np.resize(small_kb.feature_matrix[0], width)
    rows = tmp_path / "rows.txt"
    rows.write_text(" ".join(repr(float(v)) for v in row) + "\n")
    capsys.readouterr()
    rc = cli.main(["predict", "--model", str(model), "--features", str(rows)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "23 values" in captured.err


def test_cli_sweep_is_reproducible(kb_file, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = [
        "sweep",
        "--kb",
        str(kb_file),
        "--schemes",
        "F1(Kg);F2(Kg)",
        "--seeds",
        "2",
        "--train-size",
        "12",
    ]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b)]) == 0
    printed = capsys.readouterr().out
    assert "median_accuracy=" in printed
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("# kb_sha256=")


def test_cli_sweep_table6_needs_companion(kb_file, noisy_kb_file, tmp_path, capsys):
    out = tmp_path / "t6.csv"
    base = [
        "sweep",
        "--kb",
        str(kb_file),
        "--schemes",
        "table6",
        "--seeds",
        "1",
        "--train-size",
        "12",
        "--out",
        str(out),
    ]
    assert cli.main(base) == 1
    assert cli.main(base + ["--noisy-kb", str(noisy_kb_file)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert ",test-noisy," in text and ",train-and-test-noisy," in text


def test_cli_plot_bound_and_swing(model_file, tmp_path, capsys):
    csv_out = tmp_path / "bound.csv"
    assert cli.main(["plot", "bound", "--model", str(model_file), "--out", str(csv_out)]) == 0
    assert csv_out.read_text().startswith("iteration,lower_bound\n")

    svg_out = tmp_path / "bound.svg"
    assert cli.main(["plot", "bound", "--model", str(model_file), "--out", str(svg_out)]) == 0
    assert svg_out.read_text().startswith("<svg ")

    traj = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--fault-bus", "9", "--horizon", "1.0", "--out", str(traj)]) == 0
    swing = tmp_path / "swing.svg"
    assert cli.main(["plot", "swing", "--traj", str(traj), "--out", str(swing)]) == 0
    text = swing.read_text()
    assert text.count("<polyline") == 3

    assert cli.main(["plot", "swing", "--out", str(tmp_path / "x.svg")]) == 1
    capsys.readouterr()
