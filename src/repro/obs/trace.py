"""Cycle-level event tracing for the timing simulator.

A :class:`TraceSession` records typed events and spans emitted by the
instrumented simulator — warp issue and stall spans per SM, the
L1 access→miss→MSHR→fill lifecycle, L2 service spans, DRAM bank-busy
and bus-transfer spans per channel, interconnect link occupancy — into
a bounded ring buffer, each tagged with the *data object* whose
traffic caused it.  Attribution uses two complementary mechanisms:

* the **request context** — the LD/ST unit stamps the session with the
  owning object's name before descending into the shared memory
  hierarchy, so every event the nested calls emit inherits an exact
  label (replica transactions included);
* the **address-space map** (:class:`ObjectMap`) — a sorted-interval
  resolver built from the application's :class:`DeviceMemory`
  allocations, used when no context is active (e.g. stores).

Alongside discrete events, an interval sampler captures per-N-cycle
time series (IPC, MSHR occupancy, DRAM row-hit rate, per-object read
bandwidth); the series both exports as Perfetto counter tracks (see
:mod:`repro.obs.perfetto`) and folds into a
:class:`~repro.obs.metrics.MetricsRegistry`.

Instrumentation is *attach-time*: each component's ``_attach_tracer``
(in the ``sim`` and ``arch`` modules) interns its emission sites and
sets the component's ``_trace`` attribute, which guards the trace-only
blocks of its hot methods.  A simulation without a tracer skips those
blocks on a ``None`` check — no events, no allocations.

Everything recorded is deterministic for a given (trace, config,
sampling seed): timestamps are simulated cycles, sampling uses a
dedicated seeded RNG, and no wall-clock value ever enters an event —
which makes byte-comparison of exported traces a valid reproducibility
check.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.address_space import DataObject, DeviceMemory
    from repro.obs.metrics import MetricsRegistry

#: Event categories a session can record (``TraceConfig.categories``
#: filters against these).
TRACE_CATEGORIES = (
    "kernel",   # per-kernel timeline spans
    "warp",     # warp issue instants and stall spans
    "cache",    # L1 lifecycle: misses, fills, merges, evictions
    "l2",       # L2 slice service spans
    "dram",     # bank-busy and bus-transfer spans
    "noc",      # interconnect link occupancy
    "mshr",     # MSHR occupancy counters and structural stalls
)

#: Attribution label for traffic that resolves to no known data object
#: (e.g. replica regions when no request context is active).
UNATTRIBUTED = "(unattributed)"

#: Ring slots per record: ``site_id, ts, dur, obj, args``.
_RECORD_SLOTS = 5

# ----------------------------------------------------------------------
# Track numbering (Perfetto pid/tid space).  Processes group tracks:
# one per SM, one per L2 slice / DRAM channel / NoC partition, plus a
# timeline and a counter process.
PID_TIMELINE = 1
PID_COUNTERS = 2
#: Campaign-lifecycle process: campaign/chunk spans, per-run outcome
#: instants and adaptive stop decisions (see
#: :func:`repro.obs.perfetto.campaign_lifecycle_events`).  Its clock
#: is the run index, not simulated cycles.
PID_CAMPAIGN = 3
PID_SM_BASE = 100
PID_L2_BASE = 300
PID_DRAM_BASE = 400
PID_NOC_BASE = 500

TID_MAIN = 0
#: Campaign-lifecycle thread tracks under :data:`PID_CAMPAIGN`.
TID_CAMPAIGN_SPANS = 0
TID_CAMPAIGN_RUNS = 1
TID_CAMPAIGN_DECISIONS = 2
#: Thread track of an SM's LD/ST unit (L1/MSHR lifecycle events).
TID_LDST = 9000
#: Thread track of a DRAM channel's shared data bus.
TID_DRAM_BUS = 9001


class TraceEvent(NamedTuple):
    """One recorded event, directly mappable to a ``trace_events`` entry.

    ``ph`` follows the Chrome trace-event phase codes this subsystem
    emits: ``"X"`` (complete span, ``dur`` cycles), ``"i"`` (instant)
    or ``"C"`` (counter sample; values live in ``args``).
    """

    ts: int
    dur: int
    ph: str
    cat: str
    name: str
    pid: int
    tid: int
    obj: str | None
    args: dict[str, Any] | None


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of one :class:`TraceSession`.

    ``max_events`` bounds the ring buffer (oldest events are evicted
    first and counted in ``TraceSession.dropped``).  ``sample_rate``
    thins the high-frequency event classes (cache lifecycle, DRAM and
    NoC spans, issue instants) with a dedicated RNG seeded by
    ``seed`` — structural events (kernel spans, stalls) are always
    kept.  ``interval_cycles`` is the time-series sampling period.
    """

    max_events: int = 65536
    interval_cycles: int = 1024
    sample_rate: float = 1.0
    seed: int = 20210621
    categories: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.max_events <= 0:
            raise ConfigError("max_events must be positive")
        if self.interval_cycles <= 0:
            raise ConfigError("interval_cycles must be positive")
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigError("sample_rate must be in [0, 1]")
        if self.categories is not None:
            unknown = set(self.categories) - set(TRACE_CATEGORIES)
            if unknown:
                raise ConfigError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"known: {TRACE_CATEGORIES}"
                )


class ObjectMap:
    """Sorted-interval resolver from device addresses to object names.

    Built from the application's address space; replica regions and
    alignment pads resolve to ``None``.  Lookups are O(log n) bisects —
    only ever paid while tracing is enabled.
    """

    def __init__(self, objects: Iterable["DataObject"]):
        from repro.arch.address_space import BLOCK_BYTES

        spans = sorted(
            (obj.base_addr,
             obj.base_addr + obj.n_blocks * BLOCK_BYTES,
             obj.name)
            for obj in objects
        )
        self._bases = [s[0] for s in spans]
        self._ends = [s[1] for s in spans]
        self._names = [s[2] for s in spans]

    @classmethod
    def from_memory(cls, memory: "DeviceMemory") -> "ObjectMap":
        return cls(memory.objects)

    def resolve(self, addr: int) -> str | None:
        """Name of the object whose (block-padded) span covers ``addr``."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._names[i]
        return None

    def __len__(self) -> int:
        return len(self._names)


@dataclass
class ObjectTraceStats:
    """Per-object traffic attribution accumulated by a session.

    Unlike the ring buffer these totals are never evicted, so the
    attribution summary covers the *whole* run even when the event
    buffer wrapped.
    """

    loads: int = 0
    l1_misses: int = 0
    mshr_merges: int = 0
    stall_cycles: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_reads: int = 0
    dram_busy_cycles: int = 0
    dram_bus_cycles: int = 0
    noc_bytes: int = 0
    read_bytes: int = 0

    def to_dict(self) -> dict[str, int]:
        """All counters as a plain dict (JSON-summary shape)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class TraceSession:
    """Bounded, sampled, object-attributed event recorder.

    One session instruments one simulation (``simulate_trace`` /
    ``simulate_app`` with ``tracer=...``).  The hooks communicate
    through three tiny pieces of shared state:

    * :attr:`now` — the cycle of the load/store currently descending
      the hierarchy (components below the LD/ST unit have their own
      precise times and ignore it);
    * :attr:`ctx_obj` — the data object owning the in-flight request,
      stamped by the LD/ST unit as each request enters;
    * :attr:`last_stall_reason` — set by the LD/ST unit on structural
      stalls so the SM-level hook can label the warp's stall span.

    **Hot-path layout.**  The recorder never builds a
    :class:`TraceEvent` while the simulation runs.  Everything static
    about an emission site — phase, category, name, pid, tid and the
    ``args`` key tuple — is interned once at hook-attach time into a
    *site id* (:meth:`site`), and :meth:`record` appends only the
    dynamic payload ``site, ts, dur, obj, args`` to a flat ring list,
    five slots per record.  Keeping no per-record tuple alive spares
    most events a garbage-collected allocation, so a traced run does
    not trigger the collector much more often than an untraced one.
    The ring is bounded by amortized compaction: appends run
    until twice ``max_events``, then the oldest half is sliced off in
    one C-level ``del``, so steady-state memory stays within
    2 × ``max_events`` records while the per-event cost is a single
    list extend.  Named events (``TraceEvent``), ``args`` dicts and
    formatted strings are materialized lazily by :attr:`events` at
    export time — deferred stringification keeps allocation churn out
    of the simulated loop.
    """

    def __init__(self, config: TraceConfig | None = None):
        self.config = config or TraceConfig()
        cap = self.config.max_events
        self._cap = cap
        self._compact_at = 2 * cap * _RECORD_SLOTS
        #: Flat ring storage: ``site_id, ts, dur, obj, args`` slots, one
        #: record after another.
        self._buf: list = []
        #: Records compacted away so far (evicted ring entries).
        self._trimmed = 0
        #: Interned site descriptors:
        #: ``(ph, cat, name, pid, tid, argkeys)``.
        self._sites: list[tuple] = []
        self._site_ids: dict[tuple, int] = {}
        # Hook-shared request context.
        self.now = 0
        self.ctx_obj: str | None = None
        self.last_stall_reason: str | None = None
        self._rng = random.Random(self.config.seed)
        self._object_map: ObjectMap | None = None
        self._categories = (
            set(self.config.categories)
            if self.config.categories is not None else None
        )
        self.object_stats: defaultdict[str, ObjectTraceStats] = \
            defaultdict(ObjectTraceStats)
        #: Interval time-series samples, in cycle order.
        self.samples: list[dict[str, Any]] = []
        self._interval_obj_bytes: dict[str, int] = {}
        self._process_names: dict[int, str] = {}
        self._thread_names: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def set_object_map(self, memory: "DeviceMemory") -> None:
        """Install the address-space map used to attribute raw addresses."""
        self._object_map = ObjectMap.from_memory(memory)

    def attribute(self, addr: int) -> str:
        """Owning object of ``addr``: request context first, then the
        address-space map, then :data:`UNATTRIBUTED`."""
        if self.ctx_obj is not None:
            return self.ctx_obj
        if self._object_map is not None:
            name = self._object_map.resolve(addr)
            if name is not None:
                return name
        return UNATTRIBUTED

    def obj(self, name: str) -> ObjectTraceStats:
        """The attribution accumulator for object ``name``."""
        return self.object_stats[name]

    # ------------------------------------------------------------------
    # Sampling and emission
    # ------------------------------------------------------------------
    def sampled(self) -> bool:
        """Deterministic coin flip for high-frequency event classes."""
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    def register_track(
        self, pid: int, name: str,
        tid: int | None = None, tid_name: str | None = None,
    ) -> None:
        """Name a process (and optionally one of its threads)."""
        self._process_names.setdefault(pid, name)
        if tid is not None and tid_name is not None:
            self._thread_names.setdefault((pid, tid), tid_name)

    @property
    def process_names(self) -> dict[int, str]:
        return dict(self._process_names)

    @property
    def thread_names(self) -> dict[tuple[int, int], str]:
        return dict(self._thread_names)

    def site(
        self,
        cat: str,
        name: str,
        pid: int,
        tid: int,
        ph: str = "X",
        argkeys: tuple[str, ...] | None = None,
    ) -> int:
        """Intern a static emission-site descriptor; returns its id.

        Hooks call this once at attach time and pass the id to
        :meth:`record` per event.  A filtered-out category interns to
        ``-1``, which :meth:`record` discards — the category check is
        thereby paid once per site instead of once per event.
        ``argkeys``, when given, names the slots of the raw ``args``
        tuple :meth:`record` receives; :attr:`events` zips them back
        into the ``args`` dict at export time.
        """
        if self._categories is not None and cat not in self._categories:
            return -1
        key = (ph, cat, name, pid, tid, argkeys)
        sid = self._site_ids.get(key)
        if sid is None:
            sid = len(self._sites)
            self._sites.append(key)
            self._site_ids[key] = sid
        return sid

    def record(
        self, sid: int, ts: int, dur: int,
        obj: str | None = None, args: Any = None,
    ) -> None:
        """Record one event at an interned site (the hot path).

        ``args`` is either a prebuilt dict or a raw tuple matching the
        site's ``argkeys``; both are materialized only at export.
        """
        if sid < 0:
            return
        buf = self._buf
        buf += (sid, ts, dur, obj, args)
        if len(buf) >= self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Evict the over-capacity prefix of the ring in one slice.

        Hot hooks extend :attr:`_buf` directly (bypassing
        :meth:`record`; they may hold the list itself, which is only
        ever trimmed in place, never rebound) and rely on the interval
        sampler's :meth:`add_sample` calling this, so the ring's memory
        bound is enforced at interval granularity on that path.  The
        :attr:`events`/:attr:`emitted`/:attr:`dropped` accessors are
        compaction-timing independent — they slice/count from
        ``_trimmed`` plus the live tail — so *when* compaction runs
        never changes any output.
        """
        buf = self._buf
        cut = len(buf) - self._cap * _RECORD_SLOTS
        if cut > 0:
            del buf[:cut]
            self._trimmed += cut // _RECORD_SLOTS

    def emit(
        self,
        cat: str,
        name: str,
        ts: int,
        dur: int,
        pid: int,
        tid: int,
        obj: str | None = None,
        args: dict[str, Any] | None = None,
        ph: str = "X",
    ) -> None:
        """Record one event; oldest events are evicted when the ring is
        full (and counted in :attr:`dropped`).

        Convenience wrapper over :meth:`site` + :meth:`record` for
        cold call sites (kernel spans, tests); hot hooks pre-intern.
        """
        self.record(self.site(cat, name, pid, tid, ph), ts, dur, obj, args)

    def instant(
        self, cat: str, name: str, ts: int, pid: int, tid: int,
        obj: str | None = None, args: dict[str, Any] | None = None,
    ) -> None:
        """Record a zero-duration event."""
        self.emit(cat, name, ts, 0, pid, tid, obj, args, ph="i")

    def counter(
        self, cat: str, name: str, ts: int, pid: int,
        values: dict[str, float],
    ) -> None:
        """Record a counter sample (one series per ``values`` key)."""
        self.emit(cat, name, ts, 0, pid, TID_MAIN, None, values, ph="C")

    @property
    def emitted(self) -> int:
        """Events recorded (category-filtered emissions excluded)."""
        return self._trimmed + len(self._buf) // _RECORD_SLOTS

    @property
    def dropped(self) -> int:
        """Events evicted from the bounded ring (oldest first)."""
        over = self.emitted - self._cap
        return over if over > 0 else 0

    @property
    def events(self) -> list[TraceEvent]:
        """The newest ``max_events`` records, materialized in order.

        Event names, ``args`` dicts and :class:`TraceEvent` objects
        are built here — at export/inspection time — not while the
        simulation runs.
        """
        slots = iter(self._buf[-self._cap * _RECORD_SLOTS:])
        sites = self._sites
        out: list[TraceEvent] = []
        for sid, ts, dur, obj, args in zip(*[slots] * _RECORD_SLOTS):
            ph, cat, name, pid, tid, argkeys = sites[sid]
            if argkeys is not None and type(args) is tuple:
                args = dict(zip(argkeys, args))
            out.append(
                TraceEvent(ts, dur, ph, cat, name, pid, tid, obj, args)
            )
        return out

    # ------------------------------------------------------------------
    # Interval time series
    # ------------------------------------------------------------------
    def account_read_bytes(self, obj_name: str, nbytes: int) -> None:
        """Credit DRAM read bytes to ``obj_name`` for the current
        sampling interval (and the whole-run attribution totals)."""
        self.object_stats[obj_name].read_bytes += nbytes
        bucket = self._interval_obj_bytes
        bucket[obj_name] = bucket.get(obj_name, 0) + nbytes

    def add_sample(self, cycle: int, **series: float) -> None:
        """Close the current interval: record one time-series sample and
        the per-object read-bandwidth bucket, then reset the bucket."""
        if len(self._buf) >= self._compact_at:
            self._compact()
        bucket = self._interval_obj_bytes
        obj_bytes = dict(sorted(bucket.items()))
        bucket.clear()  # same dict object: hooks hold a reference
        sample = {"cycle": int(cycle)}
        sample.update(series)
        sample["object_read_bytes"] = obj_bytes
        self.samples.append(sample)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def object_summary(self) -> dict[str, dict[str, int]]:
        """Whole-run per-object attribution, sorted by object name."""
        return {
            name: stats.to_dict()
            for name, stats in sorted(self.object_stats.items())
        }

    def publish_metrics(self, metrics: "MetricsRegistry") -> None:
        """Fold the session's aggregates into a metrics registry."""
        metrics.inc("trace.events.emitted", self.emitted)
        metrics.inc("trace.events.kept",
                    min(self._cap, len(self._buf) // _RECORD_SLOTS))
        metrics.inc("trace.events.dropped", self.dropped)
        metrics.inc("trace.samples", len(self.samples))
        for sample in self.samples:
            metrics.observe("trace.interval.ipc", sample.get("ipc", 0.0))
            metrics.observe(
                "trace.interval.mshr_occupancy",
                sample.get("mshr_occupancy", 0.0),
            )
            if sample.get("dram_requests", 0):
                metrics.observe(
                    "trace.interval.row_hit_pct",
                    100.0 * sample.get("row_hit_rate", 0.0),
                )
        for name, stats in sorted(self.object_stats.items()):
            metrics.inc(f"trace.object.{name}.read_bytes",
                        stats.read_bytes)
            metrics.inc(f"trace.object.{name}.loads", stats.loads)
