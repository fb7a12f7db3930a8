"""The correctness check must catch a single wrong packet.

Run from the repository root:  python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import check, inputs, workloads  # noqa: E402
from repro.platform import PlatformConfig  # noqa: E402


@pytest.fixture(scope="module")
def legs():
    """A small dc_trace slice through the default path and the oracle."""
    trace = inputs.timestamped_trace(7, inputs.TraceShape(flows=40, content_share=0.2))
    dc = workloads.DcTrace()
    default, oracle = (
        check.run_packets(dc.setup(config), inputs.clone_all(trace), use_timestamps=True)
        for config in (PlatformConfig(), PlatformConfig(**workloads.ORACLE))
    )
    return default, oracle


def altered(leg, index, field, value):
    outcomes = list(leg.outcomes)
    dropped, egress, latency = outcomes[index]
    outcomes[index] = {
        "latency": (dropped, egress, value),
        "egress": (dropped, value, latency),
    }[field]
    return replace(leg, outcomes=outcomes)


def test_default_path_matches_oracle(legs):
    default, oracle = legs
    verification = check.compare(oracle, [default])
    assert verification.ok
    assert verification.share == 1.0
    assert verification.packets == len(oracle.outcomes) > 100


def test_one_altered_latency_drops_share(legs):
    default, oracle = legs
    index = len(default.outcomes) // 2
    latency = default.outcomes[index][2]
    verification = check.compare(oracle, [altered(default, index, "latency", latency + 1.0)])
    assert verification.share == (verification.packets - 1) / verification.packets < 1.0
    assert not verification.ok


def test_one_altered_egress_byte_drops_share(legs):
    default, oracle = legs
    index = len(default.outcomes) // 3
    egress = default.outcomes[index][1]
    flipped = egress[:-1] + bytes([egress[-1] ^ 1])
    verification = check.compare(oracle, [altered(default, index, "egress", flipped)])
    assert verification.share < 1.0
    assert not verification.ok


def test_missing_packet_drops_share(legs):
    default, oracle = legs
    verification = check.compare(oracle, [replace(default, outcomes=default.outcomes[:-1])])
    assert verification.share < 1.0


def test_stats_mismatch_fails_without_moving_share(legs):
    default, oracle = legs
    stats = [dict(default.stats[0], fast_packets=default.stats[0]["fast_packets"] + 1)]
    verification = check.compare(oracle, [replace(default, stats=stats)])
    assert verification.share == 1.0
    assert not verification.ok
