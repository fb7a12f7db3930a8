"""Unit tests for Monitor and MazuNAT (repro.nf.monitor, repro.nf.mazunat)."""

import pytest

from repro.core.local_mat import NullInstrumentationAPI
from repro.net import FiveTuple, Packet
from repro.net.addresses import ip_to_int, ip_to_str
from repro.nf.mazunat import MazuNAT, NatPortExhausted
from repro.nf.monitor import Monitor


def make_packet(src="10.0.0.1", dst="172.16.0.9", sport=1000, dport=80, payload=b"", fid=1):
    packet = Packet.from_five_tuple(FiveTuple.make(src, dst, sport, dport), payload=payload)
    packet.metadata["fid"] = fid
    return packet


class TestMonitor:
    def test_counts_packets_and_bytes(self):
        monitor = Monitor("m")
        packet = make_packet(payload=b"x" * 10)
        key = packet.five_tuple()
        monitor.process(packet, NullInstrumentationAPI())
        monitor.process(make_packet(payload=b"x" * 10), NullInstrumentationAPI())
        counters = monitor.flow_counters(key)
        assert counters.packets == 2
        assert counters.bytes == 2 * packet.byte_length()

    def test_flows_tracked_separately(self):
        monitor = Monitor("m")
        monitor.process(make_packet(sport=1000), NullInstrumentationAPI())
        monitor.process(make_packet(sport=2000), NullInstrumentationAPI())
        assert len(monitor.counters) == 2
        assert monitor.total_packets() == 2

    def test_unseen_flow_reads_zero(self):
        monitor = Monitor("m")
        counters = monitor.flow_counters(FiveTuple.make("9.9.9.9", "8.8.8.8", 1, 2))
        assert counters.packets == 0

    def test_reset(self):
        monitor = Monitor("m")
        monitor.process(make_packet(), NullInstrumentationAPI())
        monitor.reset()
        assert monitor.total_packets() == 0


class TestMazuNATOutbound:
    def test_rewrites_source(self):
        nat = MazuNAT("nat", external_ip="203.0.113.1", internal_prefix="10.0.0.0/8")
        packet = make_packet()
        nat.process(packet, NullInstrumentationAPI())
        assert ip_to_str(packet.ip.src_ip) == "203.0.113.1"
        assert packet.l4.src_port >= nat.port_lo
        assert nat.translations == 1

    def test_mapping_is_stable_per_flow(self):
        nat = MazuNAT("nat")
        first = make_packet()
        nat.process(first, NullInstrumentationAPI())
        second = make_packet()
        nat.process(second, NullInstrumentationAPI())
        assert first.l4.src_port == second.l4.src_port

    def test_different_flows_get_different_ports(self):
        nat = MazuNAT("nat")
        a = make_packet(sport=1000)
        b = make_packet(sport=2000)
        nat.process(a, NullInstrumentationAPI())
        nat.process(b, NullInstrumentationAPI())
        assert a.l4.src_port != b.l4.src_port

    def test_port_exhaustion_raises(self):
        # The allocator raises; process() turns that into a counted drop.
        nat = MazuNAT("nat", port_range=(10000, 10001))
        nat.process(make_packet(sport=1), NullInstrumentationAPI())
        nat.process(make_packet(sport=2), NullInstrumentationAPI())
        with pytest.raises(NatPortExhausted):
            nat.allocate_port()
        refused = make_packet(sport=3)
        nat.process(refused, NullInstrumentationAPI())
        assert refused.dropped
        assert nat.port_exhaustion_drops == 1
        assert len(nat.mappings) == 2

    def test_released_port_is_reused(self):
        nat = MazuNAT("nat", port_range=(10000, 10001))
        packet = make_packet(sport=1)
        nat.process(packet, NullInstrumentationAPI())
        original_flow = FiveTuple.make("10.0.0.1", "172.16.0.9", 1, 80)
        assert nat.release_mapping(original_flow)
        nat.process(make_packet(sport=2), NullInstrumentationAPI())
        nat.process(make_packet(sport=3), NullInstrumentationAPI())  # reuses freed port


class _RebuildingNAT(MazuNAT):
    """Reference allocator: rebuilds the in-use port set on every call."""

    def allocate_port(self) -> int:
        in_use = {port for __, port, __ in self.reverse}
        while self._free_ports:
            port = self._free_ports.pop()
            if port not in in_use:
                return port
        while self._next_port <= self.port_hi:
            port = self._next_port
            self._next_port += 1
            if port not in in_use:
                return port
        raise NatPortExhausted("reference pool exhausted")


class TestMazuNATAllocationSequence:
    def test_sequence_matches_rebuilt_in_use_set(self):
        import random

        rng = random.Random(7)
        nats = [cls("nat", port_range=(10000, 10040)) for cls in (MazuNAT, _RebuildingNAT)]
        live = []
        for step in range(400):
            choice = rng.random()
            if choice < 0.5 or not live:
                sport = 2000 + step
                packets = [make_packet(sport=sport) for __ in nats]
                for nat, packet in zip(nats, packets):
                    nat.process(packet, NullInstrumentationAPI())
                assert packets[0].dropped == packets[1].dropped
                if not packets[0].dropped:
                    live.append(FiveTuple.make("10.0.0.1", "172.16.0.9", sport, 80))
            elif choice < 0.75:
                flow = live.pop(rng.randrange(len(live)))
                assert [nat.release_mapping(flow) for nat in nats] == [True, True]
            elif choice < 0.9:
                # A flow migrated in from a peer holds a port this
                # allocator never handed out.
                port = 10000 + step % 41
                if any(held == port for __, held in nats[0].mappings.values()):
                    continue
                flow = FiveTuple.make("10.0.0.2", "172.16.0.9", 50000 + step, 80)
                for nat in nats:
                    nat.import_flow_state(flow, (flow, nat.external_ip, port))
                live.append(flow)
            else:
                flow = live.pop(rng.randrange(len(live)))
                assert nats[0].export_flow_state(flow) == nats[1].export_flow_state(flow)
            assert nats[0].mappings == nats[1].mappings
            assert nats[0]._next_port == nats[1]._next_port
            assert nats[0]._ports_in_use.keys() == {port for __, port, __ in nats[0].reverse}


class TestMazuNATInbound:
    def test_reverse_translation(self):
        nat = MazuNAT("nat", external_ip="203.0.113.1")
        outbound = make_packet()
        nat.process(outbound, NullInstrumentationAPI())
        ext_port = outbound.l4.src_port

        inbound = Packet.from_five_tuple(
            FiveTuple.make("172.16.0.9", "203.0.113.1", 80, ext_port)
        )
        inbound.metadata["fid"] = 2
        nat.process(inbound, NullInstrumentationAPI())
        assert ip_to_str(inbound.ip.dst_ip) == "10.0.0.1"
        assert inbound.l4.dst_port == 1000

    def test_unknown_inbound_forwarded_untranslated(self):
        nat = MazuNAT("nat")
        inbound = Packet.from_five_tuple(FiveTuple.make("172.16.0.9", "203.0.113.1", 80, 5555))
        inbound.metadata["fid"] = 3
        before = inbound.serialize()
        nat.process(inbound, NullInstrumentationAPI())
        assert inbound.serialize() == before

    def test_is_internal(self):
        nat = MazuNAT("nat", internal_prefix="10.0.0.0/8")
        assert nat.is_internal(ip_to_int("10.255.0.1"))
        assert not nat.is_internal(ip_to_int("11.0.0.1"))

    def test_invalid_port_range_rejected(self):
        with pytest.raises(ValueError):
            MazuNAT("nat", port_range=(200, 100))

    def test_reset_clears_mappings(self):
        nat = MazuNAT("nat")
        nat.process(make_packet(), NullInstrumentationAPI())
        nat.reset()
        assert not nat.mappings
        assert not nat.reverse
        assert nat.translations == 0
