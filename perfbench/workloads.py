"""The three workloads: their program set-up, timed run and oracle check.

Each workload separates the phases the benchmark times apart:

- ``build_inputs(seed)`` makes the seeded inputs (``input_build_s``);
- ``setup()`` constructs every program object up to ready-for-first-
  packet (``setup_s``);
- ``fresh(inputs)`` copies the inputs for one pass, untimed, because the
  program rewrites packets in place;
- ``run(program, pass_input)`` is the timed phase (``pkts_per_s``) and
  returns a :class:`PassResult`;
- ``verify(seed)`` runs a reduced slice of the same workload and seed
  through the default configuration and through the oracle, untimed.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench import check, inputs
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.ft import FaultTolerance, SharedAggregate, SharedPortPool, TransactionalStore
from repro.nf import AclRule, Backend, IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.synthetic import SyntheticNF
from repro.obs import AuditLog, FlowSpanRecorder, MetricsRegistry
from repro.obs.forensics import ForensicsEngine
from repro.obs.health import HealthModel
from repro.obs.promexport import write_prometheus
from repro.obs.timeseries import TimeSeries
from repro.platform import BessPlatform, OpenNetVMPlatform, PlatformConfig
from repro.platform.base import LoadResult
from repro.scale import ScaleCluster
from repro.stats.summary import percentile_sorted

#: the reference configuration every default run is compared against:
#: interpreted processing, the generator DES, no batch lane
ORACLE = dict(compiled_flows=False, analytic_replay=False, batch_lane=False)


def _unwrapped(chain):
    return chain


@dataclass
class PassResult:
    """What one timed pass produced (simulated outputs, host-time free)."""

    offered: int
    delivered: int
    dropped: int
    makespan_ns: float
    latencies_ns: List[float]
    runtimes: List[SpeedyBox] = field(default_factory=list)
    lane_stats: Optional[dict] = None

    @property
    def conserved(self) -> bool:
        return self.offered == self.delivered + self.dropped

    def digest(self) -> Dict[str, object]:
        """The simulated outputs, summarised: equal across passes of one
        seed, and changed when a change alters the simulated model."""
        ordered = sorted(self.latencies_ns)
        return {
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "sim_mpps": (self.delivered + self.dropped) / (self.makespan_ns / 1e3)
            if self.makespan_ns > 0 else 0.0,
            "sim_p50_us": percentile_sorted(ordered, 0.50) / 1e3 if ordered else 0.0,
            "sim_p99_us": percentile_sorted(ordered, 0.99) / 1e3 if ordered else 0.0,
            "latency_sha256": check.latency_hash(self.latencies_ns),
        }


def _from_load(result, runtimes, lane_stats=None) -> PassResult:
    return PassResult(result.offered, result.delivered, result.dropped, result.makespan_ns,
                      list(result.latencies_ns), runtimes, lane_stats)


# -- churn_batch -------------------------------------------------------------


class ChurnBatch:
    """1M-packet columnar churn through the 3-NF rewrite chain on BESS.

    100k ten-packet UDP flows, 4096 live at once, against 8192-entry
    flow tables: new-flow admission and eviction teardown dominate, and
    the batch lane plus the vector Lindley replay carry the run.
    """

    name = "churn_batch"
    flows = 100_000
    capacity = 8192
    #: verification slice: 1.5x the table capacity, so it still evicts
    verify_flows = 12_288

    def build_inputs(self, seed: int):
        return inputs.churn_batch(seed, self.flows)

    @staticmethod
    def chain():
        return [
            SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
            SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
            SyntheticNF("mon", sf_payload_class=None),
        ]

    def setup(self, config: Optional[PlatformConfig] = None, nf_wrap=_unwrapped):
        runtime = SpeedyBox(nf_wrap(self.chain)(), max_tracked_flows=self.capacity,
                            max_flows=self.capacity)
        return BessPlatform(runtime, config=config)

    def fresh(self, batch):
        return inputs.fresh_batch(batch)

    def run(self, platform, batch) -> PassResult:
        return _from_load(platform.run_load(batch), [platform.runtime], platform.last_lane_stats)

    def verify(self, seed: int) -> check.Verification:
        """Lane vs oracle on latency and stats; the per-packet compiled
        path vs oracle on drops and egress bytes (the lane rewrites no
        packets, so its bytes are the compiled closures')."""
        batch = inputs.churn_batch(seed, self.verify_flows)
        lane = self.setup()
        lane_result = lane.run_load(inputs.fresh_batch(batch))
        compiled = check.run_packets(self.setup(), batch.to_packets())
        oracle = check.run_packets(self.setup(PlatformConfig(**ORACLE)), batch.to_packets())
        lane_outcomes = check.outcomes(
            [(dropped, egress) for dropped, egress, __ in compiled.outcomes],
            lane_result.latencies_ns,
        )
        return check.compare(
            oracle,
            [compiled, check.Leg(lane_outcomes, [lane.runtime.stats()],
                                 check.totals(lane_result))],
        )


# -- dc_trace ----------------------------------------------------------------


def _ipfilter():
    """Drops memcached traffic from one client /16 — a few percent of flows."""
    return IPFilter("ipfilter", rules=[AclRule.make(src="10.1.7.0/24", dst_ports=(11211, 11211))])


class DcTrace:
    """Timestamped datacenter trace through chain 2 on OpenNetVM.

    IPFilter + Snort + Monitor; the trace's ON/OFF arrival gaps feed the
    replay (``use_timestamps=True``), which keeps the batch lane out, so
    the per-packet compiled fast path and Snort's payload inspection
    carry the run.
    """

    name = "dc_trace"
    shape = inputs.TraceShape(flows=700, content_share=0.2)
    verify_shape = inputs.TraceShape(flows=250, content_share=0.2)

    def build_inputs(self, seed: int):
        return inputs.timestamped_trace(seed, self.shape)

    @staticmethod
    def chain():
        return [_ipfilter(), SnortIDS("snort", inputs.snort_rules_text()), Monitor("monitor")]

    def setup(self, config: Optional[PlatformConfig] = None, nf_wrap=_unwrapped):
        return OpenNetVMPlatform(SpeedyBox(nf_wrap(self.chain)()), config=config)

    def fresh(self, packets):
        return inputs.clone_all(packets)

    def run(self, platform, packets) -> PassResult:
        return _from_load(platform.run_load(packets, use_timestamps=True), [platform.runtime])

    def verify(self, seed: int) -> check.Verification:
        trace = inputs.timestamped_trace(seed, self.verify_shape)
        legs = [
            check.run_packets(self.setup(config), inputs.clone_all(trace), use_timestamps=True)
            for config in (PlatformConfig(), PlatformConfig(**ORACLE))
        ]
        return check.compare(legs[1], legs[:1])


# -- cluster_ft --------------------------------------------------------------


def _backends():
    return [Backend.make(f"b{i}", f"192.168.50.{i + 1}", 9000) for i in range(4)]


@dataclass
class ClusterProgram:
    """A cluster with every obs sink and checkpointing FT attached."""

    cluster: ScaleCluster
    ft: FaultTolerance
    metrics: MetricsRegistry
    audit: AuditLog
    spans: FlowSpanRecorder
    timeseries: TimeSeries
    health: HealthModel
    forensics: ForensicsEngine


class ClusterFt:
    """Chain 1 on a 4-replica BESS cluster, fed as consecutive windows.

    Every obs sink is on, FT checkpoints every 512 packets per replica,
    and between windows a seeded migration churn runs beside a Maglev
    backend failure or recovery (Event Table writes).  The only workload
    that exercises dispatch, migration, the DES replay (metrics force
    it), the obs sinks and checkpoint capture.
    """

    name = "cluster_ft"
    replicas = 4
    windows = 4
    checkpoint_interval = 512
    migrations_per_window = 24
    gap_ns = 250.0
    shape = inputs.TraceShape(flows=420)
    verify_shape = inputs.TraceShape(flows=150)

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def build_inputs(self, seed: int):
        return seed, inputs.interleaved_trace(seed, self.shape)

    @staticmethod
    def chain(port_pool: SharedPortPool, aggregate: SharedAggregate):
        """Chain 1 with the cluster-shared NAT port pool and monitor total:
        replicas with private port allocators would hand out the same
        external port twice once flows migrate between them."""
        return [
            MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8",
                    port_pool=port_pool),
            MaglevLoadBalancer("maglev", backends=_backends(), table_size=4099),
            Monitor("monitor", aggregate=aggregate),
            _ipfilter(),
        ]

    def setup(self, config: Optional[PlatformConfig] = None,
              nf_wrap=_unwrapped) -> ClusterProgram:
        metrics = MetricsRegistry()
        audit = AuditLog()
        store = TransactionalStore(audit=audit)
        chain = functools.partial(self.chain, SharedPortPool(store),
                                  SharedAggregate(store, name="monitor_total"))
        spans = FlowSpanRecorder(every=64)
        timeseries = TimeSeries(window_packets=256, registry=metrics)
        health = HealthModel(timeseries=timeseries, audit=audit)
        forensics = ForensicsEngine(audit=audit)
        forensics.detector.attach(timeseries)
        cluster = ScaleCluster(
            nf_wrap(chain), platform="bess", replicas=self.replicas, config=config,
            metrics=metrics, audit=audit, spans=spans, timeseries=timeseries,
            forensics=forensics,
        )
        ft = FaultTolerance(cluster, checkpoint_interval=self.checkpoint_interval,
                            store=store, forensics=forensics)
        return ClusterProgram(cluster, ft, metrics, audit, spans, timeseries, health, forensics)

    def fresh(self, built):
        seed, packets = built
        return seed, inputs.clone_all(packets)

    def _between_windows(self, cluster: ScaleCluster, seed: int, window: int) -> None:
        """Seeded migration churn, then a Maglev backend fails (even
        boundaries) or recovers (odd ones) on every replica."""
        cluster.churn_flows(self.migrations_per_window, seed=seed * 1009 + window)
        backend = f"b{(seed + window // 2) % 4}"
        for replica in cluster.replicas.values():
            maglev = replica.runtime.nf_by_name["maglev"]
            if window % 2 == 0:
                maglev.fail_backend(backend)
            else:
                maglev.recover_backend(backend)

    def _windows(self, program: ClusterProgram, seed: int, packets, write_to=None):
        cluster = program.cluster
        size = -(-len(packets) // self.windows)
        results = []
        for window in range(self.windows):
            if window:
                self._between_windows(cluster, seed, window - 1)
            chunk = packets[window * size:(window + 1) * size]
            results.append(cluster.run_load(chunk, inter_arrival_ns=self.gap_ns).total)
        if write_to is not None:
            export_obs(program, write_to)
        # The windows' packets, latencies and drops taken as one run.
        return LoadResult.merged(results)

    def run(self, program: ClusterProgram, pass_input) -> PassResult:
        seed, packets = pass_input
        total = self._windows(program, seed, packets, write_to=self.out_dir)
        return PassResult(total.offered, total.delivered, total.dropped, total.makespan_ns,
                          total.latencies_ns, _runtimes(program))

    def verify(self, seed: int) -> check.Verification:
        trace = inputs.interleaved_trace(seed, self.verify_shape)
        legs = []
        for config in (PlatformConfig(), PlatformConfig(**ORACLE)):
            program = self.setup(config)
            packets = inputs.clone_all(trace)
            total = self._windows(program, seed, packets)
            legs.append(check.Leg(
                check.outcomes(check.packet_fates(packets), total.latencies_ns),
                [runtime.stats() for runtime in _runtimes(program)],
                check.totals(total),
            ))
        return check.compare(legs[1], legs[:1])


def _runtimes(program: ClusterProgram) -> List[SpeedyBox]:
    return [replica.runtime for replica in program.cluster.replicas.values()]


def export_obs(program: ClusterProgram, out_dir: Path) -> None:
    """Write every obs sink's artifact (part of the timed cluster pass)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    program.timeseries.finish()
    (out_dir / "metrics.json").write_text(
        json.dumps(program.metrics.snapshot(), sort_keys=True) + "\n")
    write_prometheus(program.metrics, out_dir / "metrics.prom")
    program.audit.write_jsonl(out_dir / "audit.jsonl")
    program.spans.write_jsonl(out_dir / "spans.jsonl")
    program.timeseries.write_jsonl(out_dir / "timeseries.jsonl")
    program.forensics.write_jsonl(out_dir / "forensics.jsonl")


def make(name: str, out_dir: Path):
    """The workload object for a ``--workload`` name."""
    factories: Dict[str, Callable[[], object]] = {
        ChurnBatch.name: ChurnBatch,
        DcTrace.name: DcTrace,
        ClusterFt.name: lambda: ClusterFt(out_dir),
    }
    if name not in factories:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(factories)}")
    return factories[name]()
