"""MazuNAT: source NAT in the style of Click's mazu-nat.click (§VI-C).

Translates the IP and port of flows leaving an internal subnet: the
source address is rewritten to the NAT's external IP and the source port
to a freshly allocated external port.  Return traffic addressed to an
allocated (external-IP, port) pair is rewritten back.  ICMP handling is
omitted, matching the paper ("we omit irrelevant functionalities such as
ICMP packet handling").

Per the paper's Observation 1, once a mapping is allocated for a flow the
same MODIFY applies to all its packets — MazuNAT records exactly that in
its Local MAT.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple, Union

from repro.core.actions import Drop, Forward, Modify
from repro.core.local_mat import InstrumentationAPI
from repro.net.addresses import ip_to_int
from repro.net.flow import FiveTuple
from repro.net.packet import Packet, PacketField
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation


class NatPortExhausted(RuntimeError):
    """No free external ports remain."""


class MazuNAT(NetworkFunction):
    """Source NAT with sequential port allocation and a free list."""

    def __init__(
        self,
        name: str = "mazunat",
        external_ip: str = "203.0.113.1",
        internal_prefix: str = "10.0.0.0/8",
        port_range: Tuple[int, int] = (10000, 60000),
        port_pool=None,
    ):
        super().__init__(name)
        #: optional :class:`repro.ft.txstate.SharedPortPool` — when set,
        #: external ports come from cluster-shared transactional state
        #: instead of this instance's private allocator, so replicas of a
        #: NAT can never double-allocate a port and recovery replay
        #: re-acquires idempotently
        self.port_pool = port_pool
        self.external_ip = ip_to_int(external_ip)
        prefix, __, length = internal_prefix.partition("/")
        self._internal_base = ip_to_int(prefix)
        self._internal_len = int(length) if length else 32
        self.port_lo, self.port_hi = port_range
        if self.port_lo > self.port_hi:
            raise ValueError(f"invalid port range: {port_range!r}")
        self._next_port = self.port_lo
        self._free_ports: Set[int] = set()
        #: internal five-tuple -> (external ip, external port)
        self.mappings: Dict[FiveTuple, Tuple[int, int]] = {}
        #: (external ip, external port, proto) -> internal five-tuple
        self.reverse: Dict[Tuple[int, int, int], FiveTuple] = {}
        #: external port -> number of live mappings holding it
        self._ports_in_use: Dict[int, int] = {}
        #: outbound flows refused a port: dropped until they close, the
        #: same verdict a recorded Drop() replays on the fast path
        self._exhausted: Set[FiveTuple] = set()
        self.translations = 0
        self.port_exhaustion_drops = 0

    # -- address-space helpers ----------------------------------------------

    def is_internal(self, address: int) -> bool:
        if self._internal_len == 0:
            return True
        mask = (0xFFFFFFFF << (32 - self._internal_len)) & 0xFFFFFFFF
        return (address & mask) == (self._internal_base & mask)

    def allocate_port(self) -> int:
        # Ports held by *imported* mappings were never handed out by this
        # allocator, so both sources must skip anything already mapped —
        # without the guard a migrated-in flow's external port could be
        # double-allocated.
        in_use = self._ports_in_use
        while self._free_ports:
            port = self._free_ports.pop()
            if port not in in_use:
                return port
        while self._next_port <= self.port_hi:
            port = self._next_port
            self._next_port += 1
            if port not in in_use:
                return port
        raise NatPortExhausted(
            f"{self.name}: external port pool {self.port_lo}-{self.port_hi} exhausted"
        )

    def _map(self, internal: FiveTuple, ext_ip: int, ext_port: int) -> None:
        if internal in self.mappings:
            self._unmap(internal)
        self.mappings[internal] = (ext_ip, ext_port)
        self.reverse[(ext_ip, ext_port, internal.protocol)] = internal
        self._ports_in_use[ext_port] = self._ports_in_use.get(ext_port, 0) + 1

    def _unmap(self, internal: FiveTuple) -> Tuple[int, int]:
        ext_ip, ext_port = self.mappings.pop(internal)
        self.reverse.pop((ext_ip, ext_port, internal.protocol), None)
        holders = self._ports_in_use[ext_port] - 1
        if holders:
            self._ports_in_use[ext_port] = holders
        else:
            del self._ports_in_use[ext_port]
        return ext_ip, ext_port

    def release_mapping(self, flow: FiveTuple) -> bool:
        if flow not in self.mappings:
            return False
        __, ext_port = self._unmap(flow)
        if self.port_pool is not None:
            self.port_pool.release(flow)
        else:
            self._free_ports.add(ext_port)
        return True

    # -- packet processing ---------------------------------------------------

    def _outbound_action(self, flow: FiveTuple) -> Union[Modify, Drop]:
        mapping = self.mappings.get(flow)
        if mapping is None:
            if flow in self._exhausted:
                return Drop()
            self.charge(Operation.NAT_PORT_ALLOC)
            try:
                if self.port_pool is not None:
                    # Idempotent per flow: a recovery replay of this packet
                    # re-acquires the *same* port the pre-crash run got.
                    port = self.port_pool.acquire(flow)
                else:
                    port = self.allocate_port()
            except NatPortExhausted:
                # Covers the shared pool's PortPoolExhausted (a subclass).
                self._exhausted.add(flow)
                return Drop()
            self._map(flow, self.external_ip, port)
            mapping = self.mappings[flow]
        ext_ip, ext_port = mapping
        return Modify.set(src_ip=ext_ip, src_port=ext_port)

    def _inbound_action(self, flow: FiveTuple) -> Optional[Modify]:
        internal = self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))
        if internal is None:
            return None
        return Modify.set(dst_ip=internal.src_ip, dst_port=internal.src_port)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        flow = packet.five_tuple()
        fid = api.nf_extract_fid(packet)

        self.charge(Operation.EXACT_MATCH_LOOKUP)
        if self.is_internal(flow.src_ip):
            action: Union[Modify, Drop, None] = self._outbound_action(flow)
        else:
            action = self._inbound_action(flow)

        if action is None:
            # Unknown inbound traffic: a real MazuNAT drops it; we forward
            # to keep chains composable and record nothing but FORWARD.
            api.add_header_action(fid, Forward())
            return
        if isinstance(action, Drop):
            # Port exhaustion drops the new flow instead of aborting the run.
            self.port_exhaustion_drops += 1
            self.charge(Operation.DROP_FREE)
            packet.drop()
            api.add_header_action(fid, action)
            return

        self.translations += 1
        self.charge(Operation.FIELD_WRITE, len(action.ops))
        self.charge(Operation.CHECKSUM_UPDATE)
        action.apply(packet)
        api.add_header_action(fid, action)

    def handle_flow_close(self, packet: Packet) -> None:
        flow = packet.five_tuple()
        self._exhausted.discard(flow)
        if not self.release_mapping(flow):
            # Fast-path FIN packets already carry the rewritten header;
            # map back through the reverse table.
            internal = self.reverse.get((flow.src_ip, flow.src_port, flow.protocol))
            if internal is not None:
                self.release_mapping(internal)

    # -- migration hooks (repro.scale) ---------------------------------------

    def flow_through(self, flow: FiveTuple) -> FiveTuple:
        mapping = self.mappings.get(flow)
        if mapping is not None:
            ext_ip, ext_port = mapping
            return flow._replace(src_ip=ext_ip, src_port=ext_port)
        internal = self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))
        if internal is not None:
            return flow._replace(dst_ip=internal.src_ip, dst_port=internal.src_port)
        return flow

    def _mapping_key(self, flow: FiveTuple) -> Optional[FiveTuple]:
        """The internal (outbound) tuple owning the flow's mapping, if any."""
        if flow in self.mappings:
            return flow
        return self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))

    def export_flow_state(self, flow: FiveTuple):
        internal = self._mapping_key(flow)
        if internal is None:
            return None
        ext_ip, ext_port = self._unmap(internal)
        # The port does NOT return to the free list: the mapping still
        # owns it, just on another replica now.
        return (internal, ext_ip, ext_port)

    def import_flow_state(self, flow: FiveTuple, state) -> None:
        internal, ext_ip, ext_port = state
        self._map(internal, ext_ip, ext_port)
        self._free_ports.discard(ext_port)

    def state_snapshot(self, flow: FiveTuple):
        internal = self._mapping_key(flow)
        if internal is None:
            return None
        return (internal, self.mappings[internal])

    def reset(self) -> None:
        super().reset()
        self.mappings.clear()
        self.reverse.clear()
        self._ports_in_use.clear()
        self._exhausted.clear()
        self._free_ports.clear()
        self._next_port = self.port_lo
        self.translations = 0
        self.port_exhaustion_drops = 0
