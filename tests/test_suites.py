from __future__ import annotations

import hlc.suites
from hlc.suites import run_embedding, run_sgr


def test_a_tree_that_fails_its_check_is_a_discrepancy(monkeypatch):
    """The suites check every tree they get: with a checker that refuses
    everything, each accepted word and each derived sequent is reported."""
    monkeypatch.setattr(hlc.suites, "check_derivation", lambda tree: "refused")
    report = run_sgr(seed=0)
    assert report["accepted"] == ["aaabbbb", "aabbb", "abb", "b"]
    assert report["discrepancies"] == [
        {"word": w, "check": "refused"} for w in ("b", "abb", "aabbb", "aaabbbb")
    ]
    report = run_embedding(seed=0, samples=0)
    assert report["failures"] > 0
    assert all(d == {"sequent": d["sequent"], "check": "refused"} for d in report["discrepancies"])

