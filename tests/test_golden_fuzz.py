"""Golden fuzz reports: the sha256 of `run_fuzz(...).to_json()` for the two
generator streams the acceptance criteria use, so that a change to the
rewrite engine or the harness cannot move a byte of the report, its step
statistics included, while every case still passes.

The hashes were taken before the innermost evaluator was compiled per
symbol, with the report's JSON encoded as UTF-8.
"""

from __future__ import annotations

import hashlib

import pytest

from levelcanon.harness import GenConfig, run_fuzz

GOLDEN = [
    (GenConfig(seed=707, max_size=50),
     "4ca679a16cb8b21f0ca09f14394783d24a93140b6f46aaf63db277ecadb6cff7"),
    (GenConfig(seed=808, max_size=12),
     "b54f4e522761ba38be1512dc1aa34b540c9c8d52149b72f1868e0b39d841aa58"),
]


@pytest.mark.parametrize("cfg, digest", GOLDEN, ids=["707-50", "808-12"])
def test_fuzz_report_matches_its_golden_hash(cfg, digest):
    report = run_fuzz(cfg, 1000).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == digest
