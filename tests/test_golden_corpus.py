"""Replay the golden corpus on the engine.

``tests/golden_corpus.json`` holds sha256 digests of contended, faulty,
preempted and streamed runs — the scenarios
:class:`~repro.core.reference.ReferenceSimulator` cannot check.  The
digests were recorded with two independent engines that agreed on every
case; any change to a schedule, metric, policy stat, dynamics stat or
service metric of these runs fails here.  Re-record with
``PYTHONPATH=src python -m tests.golden_corpus`` only for an intended
semantic change.
"""

from __future__ import annotations

import json

import pytest

from tests.golden_corpus import CORPUS_PATH, build_cases, case_digest

CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["cases"]


def test_corpus_matches_recorder():
    """The file holds exactly the recorder's cases (so a newly shipped
    policy fails here until the corpus is re-recorded)."""
    recorded = [(c["id"], c["kind"], c["params"]) for c in CORPUS]
    assert recorded == [(c["id"], c["kind"], c["params"]) for c in build_cases()]


@pytest.mark.parametrize("case", CORPUS, ids=[c["id"] for c in CORPUS])
def test_replay(case):
    assert case_digest(case) == case["digest"]
