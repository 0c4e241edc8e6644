"""Miss Status Holding Registers for the L1 data cache.

MSHRs bound the number of outstanding misses per SM and merge repeated
misses to the same cache line into one downstream request — both
first-order effects for GPU memory-level parallelism.  When the file is
full (or a line's merge capacity is exhausted) the LD/ST unit stalls,
which is one of the structural hazards the timing simulator models.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MshrStats:
    allocations: int = 0
    merges: int = 0
    full_stalls: int = 0
    merge_stalls: int = 0


class MshrFile:
    """Tracks outstanding misses keyed by cache-line address."""

    def __init__(self, n_entries: int, max_merged: int):
        if n_entries <= 0 or max_merged <= 0:
            raise ValueError("MSHR sizes must be positive")
        self.n_entries = n_entries
        self.max_merged = max_merged
        self._entries: dict[int, int] = {}  # line addr -> merged count
        self.stats = MshrStats()
        #: ``(session, ring, always, occupancy_site, merge_stall_site,
        #: full_stall_site, occupancy_args)`` while a trace session is
        #: attached (``ring``: the session's event list; ``always``:
        #: nothing is sampled out).
        self._trace = None

    def probe(self, line_addr: int) -> str:
        """What would happen if a miss to ``line_addr`` arrived now?

        Returns ``"allocate"`` (new entry available), ``"merge"``
        (existing entry has room), or ``"stall"``.
        """
        entries = self._entries
        count = entries.get(line_addr)
        if count is None:
            return "allocate" if len(entries) < self.n_entries else "stall"
        return "merge" if count < self.max_merged else "stall"

    def add(self, line_addr: int) -> bool:
        """Register a miss.  Returns True if a *new* downstream request
        must be sent, False if it merged into an existing one.

        Raises ``RuntimeError`` if called while ``probe`` says stall —
        callers must check first.
        """
        outcome = self.probe(line_addr)
        if outcome == "stall":
            # A misuse, not a stall the LD/ST unit observed: the stall
            # counters stay untouched (``record_stall`` owns them).
            raise RuntimeError("MSHR add() while full; probe() first")
        if outcome == "allocate":
            self._entries[line_addr] = 1
            self.stats.allocations += 1
        else:
            self._entries[line_addr] += 1
            self.stats.merges += 1
        if self._trace is not None:
            self._trace_occupancy()
        return outcome == "allocate"

    def record_stall(self, line_addr: int) -> None:
        """Account a stall observed by the LD/ST unit."""
        merge = line_addr in self._entries
        if merge:
            self.stats.merge_stalls += 1
        else:
            self.stats.full_stalls += 1
        if self._trace is not None:
            tracer, buf, _always, _site, merge_stall, full_stall, _occ = \
                self._trace
            sid = merge_stall if merge else full_stall
            if sid >= 0:
                buf += (sid, tracer.now, 0, None, None)

    def release(self, line_addr: int) -> int:
        """Retire the entry when the fill returns; yields merged count."""
        try:
            merged = self._entries.pop(line_addr)
        except KeyError:
            raise KeyError(
                f"MSHR release for line {line_addr:#x} with no entry"
            ) from None
        if self._trace is not None:
            self._trace_occupancy()
        return merged

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def _attach_tracer(self, tracer, pid: int, tid: int = 0) -> None:
        """Trace this file's (sampled) occupancy as a counter on the
        owning SM's main track and its structural stalls as instants on
        track ``(pid, tid)``, at the request context's cycle."""
        from repro.obs.trace import TID_MAIN

        self._trace = (
            tracer,
            tracer._buf,
            tracer.config.sample_rate >= 1.0,
            tracer.site("mshr", f"mshr[{pid}]", pid, TID_MAIN, ph="C",
                        argkeys=("outstanding",)),
            tracer.site("mshr", "merge-stall", pid, tid, ph="i"),
            tracer.site("mshr", "full-stall", pid, tid, ph="i"),
            # Occupancy is bounded by the file size, so every counter
            # ``args`` tuple is interned once and shared.
            tuple((i,) for i in range(self.n_entries + 1)),
        )

    def _trace_occupancy(self) -> None:
        tracer, buf, always, site, _merge, _full, occupancy = self._trace
        if (always or tracer.sampled()) and site >= 0:
            buf += (site, tracer.now, 0, None, occupancy[len(self._entries)])
