"""Pinned output digests: the KB text and one model document.

The determinism tests elsewhere compare two runs of the same code; these
compare against digests recorded from an earlier commit, so output drift
between commits fails here.  The digests hold for numpy 2.4.6 and scipy
1.17.1; a different BLAS, numpy or scipy build may legitimately move the
last bits of the model document and would need them recorded afresh.
"""

import hashlib

import numpy as np

from tsakit.experiments import parse_scheme, train_model
from tsakit.kb import kb_to_text, split
from tsakit.mkprobit import model_to_document

SMALL_KB_SHA256 = "9686010c3ff49d4e0b7d4ab1f210d5b24687169646a52b18ded5f285ffb22f9a"
MODEL_SHA256 = "a94ae7c7f39957a9dcf5bba5c45fbfed52f8cb319c0c58707c1c39dec7dead24"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_small_kb_text_matches_pinned_digest(small_kb):
    assert _sha256(kb_to_text(small_kb)) == SMALL_KB_SHA256


def test_model_document_matches_pinned_digest(small_kb):
    split_seed, train_seed = np.random.SeedSequence(0).spawn(2)
    part = split(small_kb, 12, seed=split_seed)
    scheme = parse_scheme("F1(Kg)+F2(Kg)+F3(Kp)")
    model = train_model(small_kb, part.train_indices, scheme, train_seed)
    assert _sha256(model_to_document(model)) == MODEL_SHA256
