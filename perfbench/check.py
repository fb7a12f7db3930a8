"""Correctness of a run against the oracle, packet by packet.

A *leg* is one configuration's run of the verification slice: per packet
its fate (dropped or delivered, egress bytes) and its simulated latency,
plus every runtime's ``stats()`` and the run totals.  Latencies are
paired by position in the order ``LoadResult.latencies_ns`` reports them
(completion order), which every lane shares with the oracle.

A packet counts as correct only when every compared leg agrees with the
oracle on all three values; ``correct_share`` is the correct share of
the slice.  Stats and totals are not per packet, so a mismatch there
fails the run's ``correct`` flag without moving the share.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from itertools import zip_longest
from typing import List, Optional, Sequence, Tuple

#: (dropped, egress bytes, simulated latency ns); ``None`` marks a value
#: a leg did not produce (a missing packet or latency)
Outcome = Tuple[Optional[bool], Optional[bytes], Optional[float]]


@dataclass
class Leg:
    outcomes: List[Outcome]
    stats: List[dict]
    #: (offered, delivered, dropped, makespan_ns)
    totals: tuple


@dataclass
class Verification:
    packets: int
    matched: int
    stats_equal: bool
    totals_equal: bool

    @property
    def share(self) -> float:
        return self.matched / self.packets if self.packets else 0.0

    @property
    def ok(self) -> bool:
        return self.packets > 0 and self.matched == self.packets and self.stats_equal \
            and self.totals_equal


def packet_fates(packets) -> List[Tuple[bool, bytes]]:
    """(dropped, egress bytes) of packets a run has finished with."""
    return [(packet.dropped, packet.serialize()) for packet in packets]


def outcomes(fates: Sequence[Tuple[bool, bytes]], latencies: Sequence[float]) -> List[Outcome]:
    paired = []
    for fate, latency in zip_longest(fates, latencies):
        dropped, egress = fate if fate is not None else (None, None)
        paired.append((dropped, egress, None if latency is None else float(latency)))
    return paired


def totals(result) -> tuple:
    return (result.offered, result.delivered, result.dropped, result.makespan_ns)


def run_packets(platform, packets, use_timestamps: bool = False) -> Leg:
    """One platform's loaded run of a packet list, as a leg."""
    result = platform.run_load(packets, use_timestamps=use_timestamps)
    return Leg(outcomes(packet_fates(packets), result.latencies_ns),
               [platform.runtime.stats()], totals(result))


def compare(oracle: Leg, legs: Sequence[Leg]) -> Verification:
    """Score every leg against the oracle, packet by packet."""
    size = max([len(oracle.outcomes)] + [len(leg.outcomes) for leg in legs])
    expected = oracle.outcomes + [(None, None, None)] * (size - len(oracle.outcomes))
    matched = 0
    for index, want in enumerate(expected):
        if all(index < len(leg.outcomes) and leg.outcomes[index] == want for leg in legs):
            matched += 1
    return Verification(
        packets=size,
        matched=matched,
        stats_equal=all(leg.stats == oracle.stats for leg in legs),
        totals_equal=all(leg.totals == oracle.totals for leg in legs),
    )


def latency_hash(latencies: Sequence[float]) -> str:
    """Short digest of the exact latency list (informational)."""
    return hashlib.sha256(array("d", latencies).tobytes()).hexdigest()[:16]
