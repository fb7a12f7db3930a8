"""Seeded workload inputs, built by the benchmark's own code.

The program receives only what this module hands it: a columnar
``PacketBatch`` (churn_batch) or lists of ``Packet`` objects (dc_trace,
cluster_ft).  None of it goes through ``repro.traffic``'s generators, so a
change there cannot silently change a workload, and input building stays
outside every timed region.

Distributions that would make the work per run depend on the seed are
*stratified*: flow sizes are drawn at jittered, evenly spaced quantiles
and the large-payload and rule-content shares are exact counts.  The seed
still decides addresses, ports, which flow gets which size, which packet
gets which payload, packet order and arrival times, but every seed gives
the same amount of work of the same shape, so run-to-run spread measures
the host and not the dice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Sequence

import numpy as np

from repro.net.flow import FiveTuple, PROTO_TCP, PROTO_UDP
from repro.net.headers import TCP_ACK, TCP_FIN, TCP_SYN
from repro.net.packet import Packet
from repro.traffic.columnar import KIND_DATA, PacketBatch

#: largest prime below 2**24: an affine map modulo it permutes the
#: 10.0.0.0/8 host space, so churn flows get distinct seeded sources
_HOST_PRIME = 16_777_213
_BASE_SEQ = 1000

# -- churn_batch -------------------------------------------------------------


def churn_batch(seed: int, flows: int, packets_per_flow: int = 10, block: int = 4096,
                payload_len: int = 18) -> PacketBatch:
    """``flows`` UDP flows of ``packets_per_flow`` packets, ``block`` live at once.

    Flows run in back-to-back blocks; inside a block packets go round
    robin in a seeded flow order, so the concurrent flow count is the
    block size while the total flow count sets the table churn.
    """
    rng = np.random.default_rng([seed, 1])
    f = np.arange(flows, dtype=np.int64)
    scale = int(rng.integers(1, _HOST_PRIME))
    shift = int(rng.integers(0, _HOST_PRIME))
    src_ip = (10 << 24) + 1 + (scale * f + shift) % _HOST_PRIME
    src_port = rng.integers(1024, 65536, flows, dtype=np.int64)
    dst_ip = (172 << 24) + (16 << 16) + 1 + rng.integers(0, 16, flows, dtype=np.int64)
    dst_port = np.array([53, 123, 443, 4789], dtype=np.int64)[rng.integers(0, 4, flows)]

    flow_chunks, ordinal_chunks = [], []
    for start in range(0, flows, block):
        width = min(block, flows - start)
        order = start + rng.permutation(width).astype(np.int64)
        flow_chunks.append(np.tile(order, packets_per_flow))
        ordinal_chunks.append(np.repeat(np.arange(packets_per_flow, dtype=np.int64), width))
    flow_index = np.concatenate(flow_chunks)
    ordinal = np.concatenate(ordinal_chunks)
    n = len(flow_index)
    step = max(payload_len, 1)
    return PacketBatch(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        np.full(flows, PROTO_UDP, dtype=np.uint8),
        np.zeros(flows, dtype=np.uint8),
        flow_index,
        np.full(n, KIND_DATA, dtype=np.uint8),
        ordinal,
        _BASE_SEQ + ordinal * step,
        np.full(n, payload_len, dtype=np.int64),
        uniform_payload=rng.bytes(payload_len),
    )


def fresh_batch(batch: PacketBatch) -> PacketBatch:
    """A new batch over the same columns, without the per-batch caches
    an earlier run warmed, so every timed pass starts equally cold."""
    return PacketBatch(
        batch.flow_src_ip, batch.flow_dst_ip, batch.flow_src_port, batch.flow_dst_port,
        batch.flow_proto, batch.flow_handshake, batch.flow_index, batch.kind,
        batch.ordinal, batch.seq, batch.size, timestamp_ns=batch.timestamp_ns,
        uniform_payload=batch.payload_for(0, 0),
    )


# -- datacenter traces (dc_trace, cluster_ft) --------------------------------

#: Snort rule contents of the dc_trace chain: fixed, so every seed sees
#: the same rule set and the same Snort set-up cost
_RULE_RNG = random.Random(0x5EED)
RULE_CONTENTS: List[bytes] = [
    "".join(_RULE_RNG.choice("abcdefghijklmnopqrstuvwxyz0123456789-")
            for __ in range(_RULE_RNG.randint(8, 14))).encode()
    for __ in range(24)
]


def snort_rules_text() -> str:
    """24 content rules, alternating alert/log, every fourth one ``nocase``."""
    lines = []
    for index, content in enumerate(RULE_CONTENTS):
        action = "alert" if index % 2 == 0 else "log"
        nocase = " nocase;" if index % 4 == 3 else ""
        lines.append(
            f'{action} tcp any any -> any any (msg:"perfbench rule {index}"; '
            f'content:"{content.decode()}";{nocase} sid:{9100 + index};)'
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TraceShape:
    """Benson-style datacenter trace parameters."""

    flows: int
    lognormal_mu: float = 2.0
    lognormal_sigma: float = 0.9
    elephant_share: float = 0.05
    pareto_alpha: float = 1.3
    pareto_scale: float = 20.0
    max_packets: int = 300
    small_payload: int = 26
    large_payload: int = 1400
    large_share: float = 0.3
    #: share of data packets that carry a Snort rule content
    content_share: float = 0.0


def _stratified(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` jittered evenly spaced quantiles in (0, 1)."""
    return (np.arange(count) + rng.random(count)) / count


def flow_sizes(rng: np.random.Generator, shape: TraceShape) -> np.ndarray:
    """Data packets per flow: log-normal body, Pareto tail, stratified."""
    elephants = int(round(shape.flows * shape.elephant_share))
    mice = shape.flows - elephants
    normal = NormalDist(shape.lognormal_mu, shape.lognormal_sigma)
    body = np.exp([normal.inv_cdf(q) for q in _stratified(rng, mice)])
    tail = shape.pareto_scale * (1.0 - _stratified(rng, elephants)) ** (-1.0 / shape.pareto_alpha)
    sizes = np.clip(np.rint(np.concatenate([body, tail])), 1, shape.max_packets)
    return rng.permutation(sizes.astype(np.int64))


def _exact_mask(rng: np.random.Generator, count: int, share: float) -> np.ndarray:
    mask = np.zeros(count, dtype=bool)
    mask[rng.permutation(count)[: int(round(count * share))]] = True
    return mask


def _five_tuples(rng: np.random.Generator, flows: int) -> List[FiveTuple]:
    """Distinct client->server TCP tuples: 10.1.x.y clients, 16 servers."""
    seen = set()
    tuples = []
    ports = (80, 443, 8080, 11211)
    while len(tuples) < flows:
        client = (10 << 24) | (1 << 16) | (int(rng.integers(1, 250)) << 8) | int(rng.integers(1, 250))
        server = (10 << 24) | (2 << 16) | int(rng.integers(1, 17))
        key = FiveTuple(client, server, 20000 + int(rng.integers(0, 40000)),
                        ports[int(rng.integers(0, 4))], PROTO_TCP)
        if key not in seen:
            seen.add(key)
            tuples.append(key)
    return tuples


def trace_flows(seed: int, shape: TraceShape) -> List[List[Packet]]:
    """Per-flow packet lists (SYN, data, FIN) of a seeded datacenter trace."""
    rng = np.random.default_rng([seed, 2])
    tuples = _five_tuples(rng, shape.flows)
    sizes = flow_sizes(rng, shape)
    data_total = int(sizes.sum())
    large = _exact_mask(rng, data_total, shape.large_share)
    content = _exact_mask(rng, data_total, shape.content_share)
    pools = {
        length: [rng.bytes(length) for __ in range(64)]
        for length in (shape.small_payload, shape.large_payload)
    }
    picks = rng.integers(0, 64, data_total)
    rules = rng.integers(0, len(RULE_CONTENTS), data_total)
    offsets = rng.random(data_total)

    flows = []
    cursor = 0
    for five_tuple, size in zip(tuples, sizes.tolist()):
        seq = _BASE_SEQ
        packets = [Packet.from_five_tuple(five_tuple, tcp_flags=TCP_SYN, seq=seq)]
        seq += 1
        for __ in range(size):
            length = shape.large_payload if large[cursor] else shape.small_payload
            payload = pools[length][picks[cursor]]
            if content[cursor]:
                pattern = RULE_CONTENTS[rules[cursor]]
                at = int(offsets[cursor] * (length - len(pattern)))
                payload = payload[:at] + pattern + payload[at + len(pattern):]
            packets.append(Packet.from_five_tuple(five_tuple, payload=payload,
                                                  tcp_flags=TCP_ACK, seq=seq))
            seq += max(len(payload), 1)
            cursor += 1
        packets.append(Packet.from_five_tuple(five_tuple, tcp_flags=TCP_FIN | TCP_ACK, seq=seq))
        flows.append(packets)
    return flows


def timestamped_trace(seed: int, shape: TraceShape, mean_flow_gap_ns: float = 20_000.0,
                      burst: int = 4, intra_burst_gap_ns: float = 1_000.0,
                      mean_off_gap_ns: float = 60_000.0) -> List[Packet]:
    """ON/OFF arrival timestamps: flows start at exponential offsets and
    send bursts of ``burst`` packets; the result is globally time-ordered."""
    rng = np.random.default_rng([seed, 3])
    flows = trace_flows(seed, shape)
    starts = np.cumsum(rng.exponential(mean_flow_gap_ns, len(flows)))
    packets = []
    for start, flow in zip(starts.tolist(), flows):
        index = np.arange(len(flow))
        gaps = np.where(index % burst == 0,
                        rng.exponential(mean_off_gap_ns, len(flow)), intra_burst_gap_ns)
        gaps[0] = 0.0
        for packet, stamp in zip(flow, (start + np.cumsum(gaps)).tolist()):
            packet.timestamp_ns = stamp
            packets.append(packet)
    packets.sort(key=lambda packet: packet.timestamp_ns)
    return packets


def interleaved_trace(seed: int, shape: TraceShape) -> List[Packet]:
    """The trace's flows merged in a seeded order, per-flow order kept
    (the cluster windows replay it back to back)."""
    rng = np.random.default_rng([seed, 4])
    flows = trace_flows(seed, shape)
    owner = np.repeat(np.arange(len(flows)), [len(flow) for flow in flows])
    rng.shuffle(owner)
    cursors = [0] * len(flows)
    packets = []
    for flow in owner.tolist():
        packets.append(flows[flow][cursors[flow]])
        cursors[flow] += 1
    return packets


def clone_all(packets: Sequence[Packet]) -> List[Packet]:
    """Fresh copies for one pass: the program rewrites packets in place."""
    return [packet.clone() for packet in packets]
