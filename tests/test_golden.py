"""Pinned output digests: KB texts, a model document, a trajectory, a sweep.

The determinism tests elsewhere compare two runs of the same code; these
compare against digests recorded from an earlier commit, so output drift
between commits fails here.  The digests hold for numpy 2.4.6 and scipy
1.17.1; a different BLAS, numpy or scipy build may legitimately move the
last bits of the model document and would need them recorded afresh.
"""

import hashlib
import io

from tsakit.experiments import (
    SCHEME_TABLES,
    parse_scheme,
    report_to_csv,
    seed_streams,
    sweep,
    train_model,
)
from tsakit.kb import dispatch_shares, kb_to_text, split
from tsakit.mkprobit import model_to_document
from tsakit.network import reduce_to_generators, solve_equilibrium
from tsakit.simulator import Scenario, simulate, trajectory_to_csv

SMALL_KB_SHA256 = "9686010c3ff49d4e0b7d4ab1f210d5b24687169646a52b18ded5f285ffb22f9a"
# The same plan with noise_max_rel_error = 0.01.
NOISY_SMALL_KB_SHA256 = "4978c96a814622833c7c85ce0c61d7e1328d0fdbd33cdbd9a8e9716ed03044d4"
MODEL_SHA256 = "a94ae7c7f39957a9dcf5bba5c45fbfed52f8cb319c0c58707c1c39dec7dead24"
# `tsakit simulate --fault-bus 7 --load-scale 1.1` writes this CSV.
TRAJECTORY_SHA256 = "f6d9354eee1acf34942540d1b145b344eb2afa1f24910ed7387818cec746a611"
# table4 over seed 0 at n_train = 12, no KB hash line.
SWEEP_CSV_SHA256 = "eea2949c58941de18fbb7eaa6f14c36563a911ec7ca1ca4e1496cec5bd6de7be"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_small_kb_text_matches_pinned_digest(small_kb):
    assert _sha256(kb_to_text(small_kb)) == SMALL_KB_SHA256


def test_noisy_small_kb_text_matches_pinned_digest(noisy_small_kb):
    assert _sha256(kb_to_text(noisy_small_kb)) == NOISY_SMALL_KB_SHA256


def test_model_document_matches_pinned_digest(small_kb):
    split_seed, train_seed = seed_streams(0)
    part = split(small_kb, 12, seed=split_seed)
    scheme = parse_scheme("F1(Kg)+F2(Kg)+F3(Kp)")
    model = train_model(small_kb, part.train_indices, scheme, train_seed)
    assert _sha256(model_to_document(model)) == MODEL_SHA256


def test_trajectory_csv_matches_pinned_digest(bundled_case):
    level = 1.1
    pm = dispatch_shares(bundled_case.n_generators, 0) * (bundled_case.total_load_p * level)
    eq = solve_equilibrium(bundled_case, reduce_to_generators(bundled_case, level), pm)
    scenario = Scenario(load_scale=level, dispatch_seed=0, fault_bus=7)
    out = io.StringIO()
    trajectory_to_csv(simulate(bundled_case, scenario, eq), out)
    assert _sha256(out.getvalue()) == TRAJECTORY_SHA256


def test_sweep_csv_matches_pinned_digest(small_kb):
    report = sweep(small_kb, SCHEME_TABLES["table4"](), [0], n_train=12)
    assert _sha256(report_to_csv(report)) == SWEEP_CSV_SHA256
