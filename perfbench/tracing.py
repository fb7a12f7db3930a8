"""The traced run: spans around calls into each layer, from outside it.

:class:`Tracer` patches the public entry points of each layer with
wrappers that record a span — name, start, end, parent span and a
per-name call number (the packet number for per-packet layers, the
window number for per-window ones) — into an in-memory list, written
out once at the end.  Methods are patched on their classes before the
program is built, so handlers the runtime binds into compiled closures
(Snort's recorded ``inspect``) bind the wrapper too.  Where a count sits
behind a closure no wrapper can see, :func:`layer_metrics` reads the
program's own counters instead.

Self time is a span's duration minus the time its child spans cover;
the spans of a pass reconcile with its wall time through
``trace.unattributed_share``, the share no layer span covers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List

from perfbench import workloads
from repro.core.batchlane import BatchLane
from repro.core.framework import SpeedyBox
from repro.ft.checkpoint import CheckpointManager
from repro.ft.failover import FaultTolerance
from repro.ft.pktlog import PacketLog
from repro.ft.txstate import TransactionalStore
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SnortIDS
from repro.nf.maglev import MaglevTable
from repro.obs.forensics import ForensicsEngine
from repro.obs.health import HealthModel
from repro.obs.registry import Counter, Gauge, Histogram, _BoundGauge
from repro.obs.timeseries import TimeSeries
from repro.platform import base as platform_base
from repro.scale import cluster as scale_cluster
from repro.sim import analytic as sim_analytic
from repro.sim.engine import Engine

#: span name -> the (owner, attribute) pairs it wraps
SPANS = {
    "platform.run_load": [(platform_base.Platform, "run_load")],
    "platform.functional": [(platform_base.Platform, "_functional_pass"),
                            (platform_base.Platform, "_functional_pass_lean")],
    "platform.process": [(platform_base.Platform, "process")],
    "core.process": [(SpeedyBox, "process")],
    "core.batchlane.run": [(BatchLane, "run")],
    "nf.mazunat.process": [(MazuNAT, "process")],
    "nf.maglev.process": [(MaglevLoadBalancer, "process")],
    "nf.ipfilter.process": [(IPFilter, "process")],
    "nf.monitor.process": [(Monitor, "process")],
    "nf.snort.process": [(SnortIDS, "process")],
    "nf.snort.inspect": [(SnortIDS, "inspect")],
    "nf.maglev.rebuild": [(MaglevTable, "rebuild")],
    "sim.analytic": [(platform_base, "analytic_replay"), (scale_cluster, "analytic_replay")],
    "sim.vector": [(sim_analytic, "analytic_replay_vector")],
    "sim.des": [(Engine, "run")],
    "scale.dispatch": [(scale_cluster.ScaleCluster, "run_load")],
    "scale.migrate": [(scale_cluster.ScaleCluster, "migrate_flow")],
    "ft.dispatch": [(FaultTolerance, "note_dispatch")],
    "ft.checkpoint": [(CheckpointManager, "snapshot_replica"),
                      (CheckpointManager, "snapshot_flow")],
    "ft.txn": [(TransactionalStore, "run")],
    "obs.timeseries": [(TimeSeries, "record"), (TimeSeries, "finish"),
                       (TimeSeries, "ingest_result")],
    "obs.health": [(HealthModel, "observe_window")],
    "obs.forensics": [(ForensicsEngine, "observe_run"), (ForensicsEngine, "observe_batch")],
    "obs.export": [(workloads, "export_obs")],
}

#: count-only wrappers (too frequent or too small for a span each)
COUNTS = {
    "obs.metric_updates": [(Counter, "_inc"), (Histogram, "_observe"), (Gauge, "set"),
                           (Gauge, "inc"), (_BoundGauge, "set"), (_BoundGauge, "inc")],
    "ft.log_appends": [(PacketLog, "append")],
}

NF_NAMES = ("mazunat", "maglev", "ipfilter", "monitor", "snort")

#: every per-layer metric a traced run reports, in the README's order
PER_LAYER = (
    "core.batchlane.run_s", "core.batchlane.admitted", "core.batchlane.admit_share",
    "platform.batch_lane_share", "core.classifier_evictions", "core.consolidations",
    "sim.vector_s", "nf.snort.inspect_calls", "nf.snort.inspect_s", "sim.analytic_s",
    "sim.analytic_runs", "core.process_calls", "core.process_self_s", "core.fast_share",
    "platform.run_load_s", "platform.functional_self_s",
    *(f"nf.{nf}.{what}" for nf in NF_NAMES for what in ("process_calls", "process_s")),
    "nf.maglev.table_rebuilds", "core.events_triggered", "sim.des_s", "sim.des_runs",
    "scale.dispatch_self_s", "scale.migrations", "scale.migrate_s", "scale.packets_buffered",
    "ft.checkpoints", "ft.flows_captured", "ft.checkpoint_s", "ft.capture_ns_per_flow",
    "ft.checkpoint_dirty_share", "ft.log_appends", "ft.txn_runs", "ft.txn_s",
    "obs.metric_updates", "obs.audit_events",
    "obs.span_records", "obs.timeseries_s", "obs.health_s", "obs.forensics_s", "obs.export_s",
    "nf.setup_s", "scale.setup_s", "trace.unattributed_share", "trace.overhead",
    "input_build_s",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ns_per_flow"):
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name == "trace.overhead":
        return "ratio"
    return "count"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        #: [name, start, end, parent index, call number]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: replica id -> flow keys dispatched since its last checkpoint
        self._dirty: Dict[int, set] = defaultdict(set)
        self.dirty_captured = 0
        self.replica_captured = 0
        self._saved = []

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()
        self._dirty.clear()
        self.dirty_captured = 0
        self.replica_captured = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, calls[name]]
            calls[name] += 1
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dirty_hooks(self) -> None:
        """Track which flows each replica dispatched since its last
        checkpoint (``ft.checkpoint_dirty_share``)."""
        dirty = self._dirty
        note_dispatch = FaultTolerance.note_dispatch
        snapshot_replica = CheckpointManager.snapshot_replica

        def on_dispatch(ft, packet, key, replica_id):
            result = note_dispatch(ft, packet, key, replica_id)
            dirty[replica_id].add(key)
            return result

        def on_snapshot(manager, replica_id, *args, **kwargs):
            homes = manager.cluster.flow_homes()
            self.dirty_captured += sum(
                1 for key in dirty.pop(replica_id, ()) if homes.get(key) == replica_id
            )
            captured = snapshot_replica(manager, replica_id, *args, **kwargs)
            self.replica_captured += captured
            return captured

        self._patch(FaultTolerance, "note_dispatch", on_dispatch)
        self._patch(CheckpointManager, "snapshot_replica", on_snapshot)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self._dirty_hooks()
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for name, targets in COUNTS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrap_chain(self, chain: Callable) -> Callable:
        """The chain factory, timed as ``nf.setup`` spans."""
        return self._span("nf.setup", chain)

    # -- analysis ------------------------------------------------------------

    def totals(self):
        """Seconds per span name, inclusive and self; seconds per layer
        in spans with no ancestor of the same layer; seconds covered by
        root spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[3] >= 0:
                child[record[3]] += record[2] - record[1]
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        outermost: Dict[str, float] = defaultdict(float)
        roots = 0.0
        for index, (name, start, end, parent, __) in enumerate(spans):
            inclusive[name] += end - start
            own[name] += end - start - child[index]
            if parent < 0:
                roots += end - start
            layer = name.split(".", 1)[0]
            while parent >= 0 and not spans[parent][0].startswith(layer + "."):
                parent = spans[parent][3]
            if parent < 0:
                outermost[layer] += end - start
        return inclusive, own, outermost, roots

    def write(self, path) -> int:
        """Write the spans as JSON lines (times in ns from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, start, end, parent, call) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "call": call,
                    "start_ns": round((start - origin) * 1e9),
                    "end_ns": round((end - origin) * 1e9),
                }) + "\n")
        return len(self.spans)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, program, result, wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    inclusive, own, outermost, roots = tracer.totals()
    calls, counts = tracer.calls, tracer.counts
    stats = [runtime.stats() for runtime in result.runtimes]
    packets = sum(s["packets"] for s in stats)
    lane = result.lane_stats or {}
    metrics = {
        "core.batchlane.run_s": inclusive["core.batchlane.run"],
        "core.batchlane.admitted": lane.get("admitted", 0),
        "core.batchlane.admit_share": _share(lane.get("admitted", 0), result.offered),
        "platform.batch_lane_share": _share(lane.get("span_packets", 0), result.offered),
        "core.classifier_evictions": sum(s["classifier_evictions"] for s in stats),
        "core.consolidations": sum(s["consolidations"] for s in stats),
        "core.process_calls": calls["core.process"],
        "core.process_self_s": own["core.process"],
        "core.fast_share": _share(sum(s["fast_packets"] for s in stats), packets),
        "core.events_triggered": sum(s["events_triggered"] for s in stats),
        "sim.vector_s": inclusive["sim.vector"],
        "sim.analytic_s": inclusive["sim.analytic"],
        "sim.analytic_runs": calls["sim.analytic"],
        "sim.des_s": inclusive["sim.des"],
        "sim.des_runs": calls["sim.des"],
        "platform.run_load_s": outermost["platform"],
        "platform.functional_self_s": own["platform.functional"] + own["platform.process"],
        "nf.snort.inspect_calls": calls["nf.snort.inspect"],
        "nf.snort.inspect_s": inclusive["nf.snort.inspect"],
        "nf.maglev.table_rebuilds": calls["nf.maglev.rebuild"],
        "scale.dispatch_self_s": own["scale.dispatch"],
        "scale.migrations": calls["scale.migrate"],
        "scale.migrate_s": inclusive["scale.migrate"],
        "ft.log_appends": counts["ft.log_appends"],
        "ft.checkpoint_s": inclusive["ft.checkpoint"],
        "ft.txn_runs": calls["ft.txn"],
        "ft.txn_s": inclusive["ft.txn"],
        "obs.metric_updates": counts["obs.metric_updates"],
        "obs.timeseries_s": inclusive["obs.timeseries"],
        "obs.health_s": inclusive["obs.health"],
        "obs.forensics_s": inclusive["obs.forensics"],
        "obs.export_s": inclusive["obs.export"],
        "trace.unattributed_share": _share(wall_s - roots, wall_s),
    }
    for nf in NF_NAMES:
        metrics[f"nf.{nf}.process_calls"] = calls[f"nf.{nf}.process"]
        metrics[f"nf.{nf}.process_s"] = inclusive[f"nf.{nf}.process"]
    cluster_program = isinstance(program, workloads.ClusterProgram)
    # CheckpointManager.flows_captured is never incremented by the program;
    # its registry twin ft_flows_captured_total is.
    captured = program.metrics.snapshot().get("ft_flows_captured_total", 0) \
        if cluster_program else 0
    metrics.update({
        "scale.packets_buffered": program.cluster.packets_buffered if cluster_program else 0,
        "ft.checkpoints": program.ft.checkpoints.checkpoints_taken if cluster_program else 0,
        "ft.flows_captured": captured,
        "ft.capture_ns_per_flow": _share(inclusive["ft.checkpoint"] * 1e9, captured),
        "ft.checkpoint_dirty_share": _share(tracer.dirty_captured, tracer.replica_captured),
        "obs.audit_events": len(program.audit) if cluster_program else 0,
        "obs.span_records": len(program.spans.records) if cluster_program else 0,
    })
    return metrics
