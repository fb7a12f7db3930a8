"""NAT port exhaustion drops the new flow instead of aborting the run.

Twenty UDP flows through a four-port MazuNAT: the first four flows get a
port, the other sixteen are dropped at the NAT (``Drop()`` header action,
counted in ``port_exhaustion_drops``), and the loaded run completes with
the default configuration equal to the oracle packet for packet.
"""

import pytest

from repro.core.framework import SpeedyBox
from repro.ft.txstate import SharedPortPool, TransactionalStore
from repro.nf import MazuNAT, Monitor
from repro.platform import BessPlatform, PlatformConfig
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.generator import clone_packets
from tests.integration.helpers import nf_by_name, run_lockstep

ORACLE = PlatformConfig(compiled_flows=False, analytic_replay=False, batch_lane=False)
PORTS = (10000, 10003)


def udp_packets(flows=20, packets=3):
    specs = [
        FlowSpec.udp(f"10.0.0.{i + 1}", "172.16.0.9", 40000 + i, 53, packets=packets, payload=b"q")
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def private_nat():
    return MazuNAT("nat", port_range=PORTS)


def pooled_nat():
    return MazuNAT("nat", port_range=PORTS, port_pool=SharedPortPool(TransactionalStore(), PORTS))


def run_leg(build_nat, packets, config=None):
    runtime = SpeedyBox([build_nat(), Monitor("mon")])
    result = BessPlatform(runtime, config=config).run_load(packets)
    fates = [(p.dropped, None if p.dropped else p.serialize()) for p in packets]
    return result, runtime, fates


@pytest.mark.parametrize("build_nat", [private_nat, pooled_nat], ids=["private", "shared_pool"])
def test_exhaustion_drops_new_flows_and_run_completes(build_nat):
    packets = udp_packets()
    result, runtime, fates = run_leg(build_nat, clone_packets(packets))
    assert result.offered == 60
    assert result.delivered == 4 * 3
    assert result.dropped == 16 * 3

    delivered_flows = {p.five_tuple() for p, (dropped, __) in zip(packets, fates) if not dropped}
    assert len(delivered_flows) == 4
    nat = nf_by_name(runtime, "nat")
    # The refused flows' first packets hit the allocator; the rest replay
    # the recorded Drop() without touching the NAT.
    assert nat.port_exhaustion_drops == 16
    assert sorted(port for __, port in nat.mappings.values()) == list(range(10000, 10004))

    oracle, oracle_rt, oracle_fates = run_leg(build_nat, clone_packets(packets), ORACLE)
    assert fates == oracle_fates
    assert list(result.latencies_ns) == list(oracle.latencies_ns)
    assert (result.delivered, result.dropped, result.makespan_ns) == (
        oracle.delivered, oracle.dropped, oracle.makespan_ns,
    )
    assert runtime.stats() == oracle_rt.stats()


def test_refused_flow_stays_dropped_after_a_port_frees():
    # A TCP flow closes and frees its port while a refused flow is still
    # sending: the refused flow keeps its Drop verdict on both the
    # original chain and SpeedyBox, so the two stay packet-identical.
    specs = [
        FlowSpec.tcp("10.0.0.1", "172.16.0.9", 1000, 80, packets=2, payload=b"a", fin=True),
        FlowSpec.tcp("10.0.0.2", "172.16.0.9", 1001, 80, packets=6, payload=b"b"),
    ]
    packets = TrafficGenerator(specs, interleave="round_robin").packets()
    baseline, speedybox, base_packets, __, __ = run_lockstep(
        lambda: [MazuNAT("nat", port_range=(10000, 10000)), Monitor("mon")], packets
    )
    refused = [p for p in base_packets if p.five_tuple().src_port == 1001]
    assert refused and all(p.dropped for p in refused)
    assert nf_by_name(baseline, "nat").mappings == nf_by_name(speedybox, "nat").mappings == {}
