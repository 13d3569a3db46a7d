"""Mutated documents never escape the readers as anything but bad input.

Each reader gets a valid document with a few lines deleted, duplicated or
garbled, and numbers swapped for non-finite, overflowing, signed-zero,
fractional or boolean spellings.  The outcome must be a value or an InvalidArgumentError (which
FormatError extends), the errors the CLI turns into exit code 1.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsakit import cli
from tsakit.errors import FormatError, InvalidArgumentError
from tsakit.experiments import parse_scheme, split_stream, train_model
from tsakit.kb import kb_from_text, split
from tsakit.mkprobit import model_from_document, model_to_document
from tsakit.network import bundled_case_path, parse_case

DATA_DIR = pathlib.Path(__file__).parent / "data"

HOSTILE_NUMBERS = (
    "nan", "inf", "-inf", "1e400", "-0", "NaN", "Infinity", "-Infinity", "1.5", "true"
)
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@st.composite
def mutated(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(("delete", "duplicate", "garble", "number")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, line)
        elif op == "garble":
            start = draw(st.integers(min_value=0, max_value=len(line)))
            stop = draw(st.integers(min_value=start, max_value=min(len(line), start + 8)))
            lines[i] = line[:start] + draw(st.text(max_size=4)) + line[stop:]
        else:
            numbers = list(NUMBER.finditer(line))
            if numbers:
                m = draw(st.sampled_from(numbers))
                hostile = draw(st.sampled_from(HOSTILE_NUMBERS))
                lines[i] = line[: m.start()] + hostile + line[m.end() :]
    return "\n".join(lines) + "\n"


def _read_case(text, _):
    case = parse_case(text)
    numbers = [v for g in case.generators for v in (g.m, g.d, g.xd, g.emf)]
    numbers += [case.base_frequency_hz] + [ld.p for ld in case.loads]
    assert np.all(np.isfinite(numbers))


def _read_kb(text, _):
    assert np.all(np.isfinite(kb_from_text(text).feature_matrix))


def _read_model(text, _):
    model_from_document(text)


def _read_trajectory(text, scratch):
    path = scratch / "traj.csv"
    path.write_text(text, encoding="utf-8")
    assert np.all(np.isfinite(cli._read_trajectory_csv(path)))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    kb_text = (DATA_DIR / "small_kb_reference.txt").read_text(encoding="utf-8")
    kb = kb_from_text(kb_text)
    part = split(kb, 8, seed=split_stream(0))
    model = train_model(kb, part.train_indices, parse_scheme("F1(Kg)+F2(Kp)"))
    trajectory = (DATA_DIR / "trajectory_reference.csv").read_text(encoding="utf-8")
    return tmp_path_factory.mktemp("fuzz"), {
        "case": pathlib.Path(bundled_case_path()).read_text(encoding="utf-8"),
        "kb": kb_text,
        "model": model_to_document(model),
        "trajectory": "\n".join(trajectory.splitlines()[:40]) + "\n",
    }


READERS = {"case": _read_case, "kb": _read_kb, "model": _read_model, "trajectory": _read_trajectory}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_mutated_documents_are_values_or_bad_input(documents, kind):
    scratch, texts = documents
    READERS[kind](texts[kind], scratch)  # the unmutated document reads

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated(texts[kind]))
    def check(text):
        try:
            READERS[kind](text, scratch)
        except InvalidArgumentError:
            pass

    check()


# (document, line, path to the field, value): each real-valued field set to
# a JSON boolean, which Python would otherwise read as the number 0 or 1.
BOOLEAN_REALS = [
    ("kb", 0, ("plan", "load_levels"), [True, 1.25]),
    ("kb", 0, ("plan", "observation_horizon_s"), True),
    ("kb", 0, ("noise_max_rel_error",), False),
    ("kb", 1, ("features", 0), True),
    ("model", 0, ("kernel_specs", 0, "sigma"), True),
    ("model", 0, ("kernel_specs", 1, "offset"), True),
    ("model", 0, ("beta",), [True, False]),
    ("model", 0, ("w_mean", 0), True),
    ("model", 0, ("w_cov_diag", 0), False),
    ("model", 0, ("standardizers", 0, "mean", 0), True),
    ("model", 0, ("standardizers", 1, "std", 0), True),
    ("model", 0, ("train_features", 0, 0, 0), True),
    ("model", 0, ("lb_trace", 0), True),
]


@pytest.mark.parametrize(
    "kind, line, path, value",
    BOOLEAN_REALS,
    ids=[f"{kind}-{'.'.join(map(str, path))}" for kind, _, path, _ in BOOLEAN_REALS],
)
def test_booleans_are_not_reals(documents, kind, line, path, value):
    _, texts = documents
    docs = [json.loads(text) for text in texts[kind].splitlines()]
    parent = docs[line]
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(FormatError):
        READERS[kind]("\n".join(json.dumps(d) for d in docs) + "\n", None)


# A header plan whose horizon no plan accepts: no generator writes it, and
# the reader refuses it like any other bad field.
@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_kb_header_horizon_must_be_positive_and_finite(documents, value):
    _, texts = documents
    lines = texts["kb"].splitlines()
    header = json.loads(lines[0])
    header["plan"]["observation_horizon_s"] = value
    with pytest.raises(FormatError, match="horizon") as excinfo:
        _read_kb("\n".join([json.dumps(header)] + lines[1:]) + "\n", None)
    assert excinfo.value.line == 1


# An empty sweep or a negative horizon is refused before anything is written.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-kb", "--horizon", "-1"], "observation horizon must be positive and finite"),
        (["sweep", "--seeds", "0"], "a sweep needs at least one scheme and one seed"),
        (["sweep", "--schemes", ";"], "a sweep needs at least one scheme and one seed"),
    ],
    ids=["gen-kb-negative-horizon", "sweep-no-seeds", "sweep-no-schemes"],
)
def test_empty_sweep_or_negative_horizon_is_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    if argv[0] == "sweep":
        argv = argv + ["--kb", str(DATA_DIR / "small_kb_reference.txt"), "--train-size", "8"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# An empty comma list is refused, not read as "flag not given" (which would
# run the default grid).
@pytest.mark.parametrize(
    "argv",
    [["--levels", ","], ["--fault-buses", ",", "--dispatches", "1"]],
    ids=["levels", "fault-buses"],
)
def test_empty_comma_list_is_bad_input(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert cli.main(["gen-kb", *argv, "--out", str(out)]) == 1
    assert "invalid comma-separated" in capsys.readouterr().err
    assert not out.exists()


# Horizons whose sample arrays numpy could not index: refused before the
# run integrates anything.  (A horizon that merely needs gigabytes would be
# accepted and run for days, so none is tried here.)
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--horizon", "1e300"],
        ["simulate", "--horizon", "1e18"],
        ["simulate", "--horizon", "1.7e308"],
        ["gen-kb", "--levels", "1.0", "--dispatches", "1", "--fault-buses", "7", "--horizon", "1e300"],
    ],
    ids=["simulate-1e300", "simulate-1e18", "simulate-1.7e308", "gen-kb-1e300"],
)
def test_absurd_horizon_is_bad_input(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err
    assert not out.exists()


# numpy seeds its generators from non-negative integers only; a negative
# seed is refused where it enters, not deep inside numpy.
@pytest.mark.parametrize(
    "argv, what",
    [
        (["gen-kb", "--seed", "-1"], "master_seed"),
        (["simulate", "--fault-bus", "7", "--dispatch-seed", "-1"], "dispatch_seed"),
        (["train", "--train-size", "8", "--seed", "-1"], "seed"),
        (["sweep", "--train-size", "8", "--seeds", "1", "--seed-base", "-1"], "seed"),
    ],
    ids=["gen-kb", "simulate", "train", "sweep"],
)
def test_negative_seed_is_bad_input(tmp_path, capsys, argv, what):
    out = tmp_path / "out.txt"
    if argv[0] in ("train", "sweep"):
        argv = argv + ["--kb", str(DATA_DIR / "small_kb_reference.txt")]
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {what} must be at least 0\n"
    assert not out.exists()


# A horizon numpy could index but memory cannot hold: the series allocation
# fails and is refused as bad input.  Run only under a capped address space,
# since a host that overcommits memory could grant the allocation and touch it.
ADDRESS_SPACE_CAP = 4 * 2**30

CAPPED_MAIN = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))
from tsakit import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--fault-bus", "7", "--horizon", "1e12"],
        ["gen-kb", "--levels", "1.0", "--dispatches", "1", "--fault-buses", "7", "--horizon", "1e12"],
    ],
    ids=["simulate-1e12", "gen-kb-1e12"],
)
def test_horizon_beyond_memory_is_bad_input(tmp_path, argv):
    out = tmp_path / "out.txt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: observation horizon needs 6e+13 samples"), run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()
