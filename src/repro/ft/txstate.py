"""Transactional shared state across chain replicas (TransNFV-style).

Most NF state partitions cleanly by flow, and ``repro.scale`` moves it
between replicas as a unit.  Two pieces of the paper's chains do *not*
partition: the NAT's external port pool (a port handed to replica A must
never be handed to replica B) and the monitor's cluster-wide aggregate
counters.  TransNFV's answer is to treat such state as a shared store
with transactional access rather than to partition it ad hoc; this
module supplies that store, sized for the simulator's single-threaded
interleaving model.

:class:`TransactionalStore` is a versioned key-value store with
optimistic concurrency: a :class:`Transaction` records the version of
every key it reads, stages its writes, and at commit validates that no
read key changed underneath it — per-key serialized commit, abort on
conflict.  Two properties matter for fault tolerance:

- **Idempotent commits.**  A transaction may carry a ``txn_id``; the
  store remembers applied ids, so replaying a packet whose state update
  already committed (recovery replays the input log *through the normal
  pipeline*) re-runs the transaction body but commits exactly once.
- **Survivability.**  The store lives outside every replica, so a
  replica death loses none of it — the recovered flow finds its NAT
  port allocation exactly where it left it.

:class:`SharedPortPool` and :class:`SharedAggregate` are the two
clients the chains use (``MazuNAT(port_pool=...)``,
``Monitor(aggregate=...)``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.flow import FiveTuple
from repro.nf.mazunat import NatPortExhausted
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY


class TxnConflict(RuntimeError):
    """A read key changed between read and commit (optimistic abort)."""


class TransactionalStore:
    """Versioned key-value store with optimistic per-key commit/abort."""

    def __init__(
        self,
        audit: AuditLog = NULL_AUDIT,
        audit_commits: bool = False,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ):
        self.audit = audit
        #: emit ``txn_commit`` for every commit (aborts always audit);
        #: off by default so per-packet aggregate updates don't flood
        #: the decision log.
        self.audit_commits = audit_commits
        self._values: Dict[Any, Any] = {}
        self._versions: Dict[Any, int] = {}
        self._applied: Dict[Any, Any] = {}
        self.commits = 0
        self.aborts = 0
        self.replays_deduped = 0
        # Registry mirrors of the plain counters, so windowed telemetry
        # sees txn activity as per-window deltas (health's retry-rate
        # signal); off by default like every other metrics surface.
        self._m_commits = metrics.counter(
            "txn_commits_total", "transactions committed"
        )
        self._m_aborts = metrics.counter(
            "txn_aborts_total", "optimistic-conflict aborts"
        )
        self._m_deduped = metrics.counter(
            "txn_replays_deduped_total", "replayed transactions skipped as applied"
        )

    # -- direct reads (no isolation needed) ---------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        return self._values.get(key, default)

    def version(self, key: Any) -> int:
        return self._versions.get(key, 0)

    def keys(self) -> List[Any]:
        return list(self._values)

    def applied(self, txn_id: Any) -> bool:
        """Has a transaction with this id already committed?"""
        return txn_id in self._applied

    def result_of(self, txn_id: Any) -> Any:
        """The committed result of an applied transaction id."""
        return self._applied.get(txn_id)

    # -- transactions -------------------------------------------------------

    def transaction(self, txn_id: Any = None, audit_commit: Optional[bool] = None) -> "Transaction":
        return Transaction(
            self,
            txn_id=txn_id,
            audit_commit=self.audit_commits if audit_commit is None else audit_commit,
        )

    def run(
        self,
        fn: Callable[["Transaction"], Any],
        txn_id: Any = None,
        max_retries: int = 8,
        audit_commit: Optional[bool] = None,
    ) -> Any:
        """Run ``fn(txn)`` and commit, retrying on optimistic conflicts.

        With a ``txn_id`` that already committed, ``fn`` is skipped and
        the remembered result returned — the exactly-once guarantee the
        recovery replay leans on.
        """
        if txn_id is not None and txn_id in self._applied:
            self.replays_deduped += 1
            self._m_deduped.inc()
            return self._applied[txn_id]
        for __ in range(max_retries):
            txn = self.transaction(txn_id=txn_id, audit_commit=audit_commit)
            result = fn(txn)
            try:
                txn.commit(result=result)
            except TxnConflict:
                continue
            return result
        raise TxnConflict(f"transaction {txn_id!r} aborted {max_retries} times")

    # -- commit machinery (called by Transaction) ---------------------------

    def _commit(self, txn: "Transaction", result: Any) -> None:
        for key, version in txn.reads.items():
            if self._versions.get(key, 0) != version:
                self.aborts += 1
                self._m_aborts.inc()
                self.audit.emit(
                    "txn_abort",
                    txn=_render_id(txn.txn_id),
                    key=_render_id(key),
                    expected=version,
                    found=self._versions.get(key, 0),
                )
                raise TxnConflict(
                    f"key {key!r} moved from version {version} to "
                    f"{self._versions.get(key, 0)}"
                )
        for key, value in txn.writes.items():
            if value is _DELETED:
                self._values.pop(key, None)
            else:
                self._values[key] = value
            self._versions[key] = self._versions.get(key, 0) + 1
        self.commits += 1
        self._m_commits.inc()
        if txn.txn_id is not None:
            self._applied[txn.txn_id] = result
        if txn.audit_commit:
            self.audit.emit(
                "txn_commit",
                txn=_render_id(txn.txn_id),
                reads=len(txn.reads),
                writes=len(txn.writes),
            )

    def __repr__(self) -> str:
        return (
            f"<TransactionalStore {len(self._values)} keys, "
            f"{self.commits} commits, {self.aborts} aborts>"
        )


class _Deleted:
    def __repr__(self):  # pragma: no cover - debug aid
        return "<deleted>"


_DELETED = _Deleted()


def _render_id(value: Any) -> str:
    return repr(value) if not isinstance(value, str) else value


class Transaction:
    """One optimistic transaction: read versions, staged writes."""

    def __init__(self, store: TransactionalStore, txn_id: Any = None, audit_commit: bool = False):
        self.store = store
        self.txn_id = txn_id
        self.audit_commit = audit_commit
        self.reads: Dict[Any, int] = {}
        self.writes: Dict[Any, Any] = {}
        self.committed = False

    def get(self, key: Any, default: Any = None) -> Any:
        if key in self.writes:
            staged = self.writes[key]
            return default if staged is _DELETED else staged
        self.reads.setdefault(key, self.store.version(key))
        return self.store.get(key, default)

    def set(self, key: Any, value: Any) -> None:
        self.writes[key] = value

    def delete(self, key: Any) -> None:
        self.writes[key] = _DELETED

    def commit(self, result: Any = None) -> None:
        if self.committed:
            raise RuntimeError("transaction already committed")
        self.store._commit(self, result)
        self.committed = True

    def abort(self, reason: str = "caller abort") -> None:
        self.store.aborts += 1
        self.store.audit.emit(
            "txn_abort", txn=_render_id(self.txn_id), key="", expected=-1,
            found=-1, reason=reason,
        )
        self.reads.clear()
        self.writes.clear()


class PortPoolExhausted(NatPortExhausted):
    """No free external ports remain in the shared pool.

    A :class:`NatPortExhausted`, so a NAT drops the new flow whichever
    allocator refused it.
    """


class SharedPortPool:
    """Cluster-global NAT port allocator on the transactional store.

    Allocation is sequential with an ordered free list, exactly like the
    per-replica allocator it replaces — so a single-runtime reference
    chain and an N-replica cluster hand out identical ports for the same
    packet order.  ``acquire`` is **idempotent per flow**: the second
    call for the same internal five-tuple returns the existing port.
    That one property does double duty — it makes recovery replay
    deterministic (the replayed first packet finds the original
    allocation) *and* it is what prevents cross-replica double
    allocation, since every replica allocates through this pool.
    """

    def __init__(
        self,
        store: TransactionalStore,
        port_range: Tuple[int, int] = (10000, 60000),
        name: str = "natpool",
    ):
        self.store = store
        self.name = name
        self.port_lo, self.port_hi = port_range
        if self.port_lo > self.port_hi:
            raise ValueError(f"invalid port range: {port_range!r}")
        store.run(self._init_txn, txn_id=(name, "init"))

    def _init_txn(self, txn: Transaction) -> None:
        txn.set((self.name, "next"), self.port_lo)
        txn.set((self.name, "free"), ())

    # -- allocation ---------------------------------------------------------

    def acquire(self, flow: FiveTuple) -> int:
        """The external port owned by ``flow``, allocating on first use."""

        def body(txn: Transaction) -> int:
            existing = txn.get((self.name, "byflow", flow))
            if existing is not None:
                return existing
            free: Tuple[int, ...] = txn.get((self.name, "free"), ())
            if free:
                port, free = free[0], free[1:]
                txn.set((self.name, "free"), free)
            else:
                port = txn.get((self.name, "next"), self.port_lo)
                if port > self.port_hi:
                    raise PortPoolExhausted(
                        f"{self.name}: shared port pool "
                        f"{self.port_lo}-{self.port_hi} exhausted"
                    )
                txn.set((self.name, "next"), port + 1)
            txn.set((self.name, "byflow", flow), port)
            txn.set((self.name, "owner", port), flow)
            return port

        return self.store.run(body, audit_commit=self.store.audit_commits)

    def release(self, flow: FiveTuple) -> bool:
        """Return the flow's port to the free list (idempotent)."""

        def body(txn: Transaction) -> bool:
            port = txn.get((self.name, "byflow", flow))
            if port is None:
                return False
            txn.delete((self.name, "byflow", flow))
            txn.delete((self.name, "owner", port))
            free: Tuple[int, ...] = txn.get((self.name, "free"), ())
            if port not in free:
                txn.set((self.name, "free"), free + (port,))
            return True

        return self.store.run(body, audit_commit=self.store.audit_commits)

    # -- introspection ------------------------------------------------------

    def port_of(self, flow: FiveTuple) -> Optional[int]:
        return self.store.get((self.name, "byflow", flow))

    def owner_of(self, port: int) -> Optional[FiveTuple]:
        return self.store.get((self.name, "owner", port))

    def allocated(self) -> Dict[FiveTuple, int]:
        out: Dict[FiveTuple, int] = {}
        for key in self.store.keys():
            if isinstance(key, tuple) and key[:2] == (self.name, "byflow"):
                out[key[2]] = self.store.get(key)
        return out

    def __repr__(self) -> str:
        return f"<SharedPortPool {self.name} {len(self.allocated())} allocated>"


class SharedAggregate:
    """Cluster-wide counters with exactly-once increments.

    The monitor's per-flow counters partition by flow and migrate with
    it; the *cluster total* does not.  Each increment carries a
    deterministic transaction id — ``(flow key, per-flow packet count
    after the increment)`` — so a recovery replay that re-runs the same
    packet re-offers the same id and the store dedupes it: the aggregate
    counts every packet exactly once no matter how many times the
    pipeline saw it.
    """

    def __init__(self, store: TransactionalStore, name: str = "aggregate"):
        self.store = store
        self.name = name

    def add(self, txn_id: Any, packets: int = 1, bytes_: int = 0) -> bool:
        """Apply one increment; returns False when it was a replay dupe."""
        full_id = (self.name, txn_id)
        if self.store.applied(full_id):
            self.store.replays_deduped += 1
            return False

        def body(txn: Transaction) -> bool:
            txn.set(
                (self.name, "packets"),
                txn.get((self.name, "packets"), 0) + packets,
            )
            txn.set(
                (self.name, "bytes"), txn.get((self.name, "bytes"), 0) + bytes_
            )
            return True

        return self.store.run(body, txn_id=full_id)

    @property
    def packets(self) -> int:
        return self.store.get((self.name, "packets"), 0)

    @property
    def bytes(self) -> int:
        return self.store.get((self.name, "bytes"), 0)

    def __repr__(self) -> str:
        return f"<SharedAggregate {self.name} {self.packets}pkt/{self.bytes}B>"
