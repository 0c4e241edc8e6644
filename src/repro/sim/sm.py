"""Streaming multiprocessor model: CTA residency and warp issue.

Each SM keeps a queue of CTAs assigned to it, admits them up to the
``max_ctas_per_sm``/``max_warps_per_sm`` limits, and every cycle
issues up to ``issue_width`` warp-instructions round-robin across
ready resident warps.  When no warp can issue, the SM's clock jumps to
the earliest warp-resume time — the event-driven shortcut that keeps
simulation cost proportional to work, not to cycles.
"""

from __future__ import annotations

from operator import attrgetter

from repro.arch.config import GpuConfig
from repro.kernels.trace import Compute, CtaTrace, Load, Store
from repro.sim.ldst import _FAR_FUTURE, LdstUnit, SimStats
from repro.sim.warp import WarpRunner

_resume_time = attrgetter("resume_time")


class _ResidentCta:
    __slots__ = ("warps", "remaining")

    def __init__(self, cta: CtaTrace):
        self.warps = [WarpRunner(w) for w in cta.warps]
        self.remaining = sum(1 for w in self.warps if not w.done)


class SmCore:
    """One SM: CTA admission, warp scheduling, LD/ST issue."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        ldst: LdstUnit,
        stats: SimStats,
    ):
        self.sm_id = sm_id
        self.config = config
        self.ldst = ldst
        self.stats = stats
        self.cycle = 0
        self._cta_queue: list[CtaTrace] = []
        self._resident: list[_ResidentCta] = []
        self._warps: list[WarpRunner] = []
        self._warp_cta: dict[int, _ResidentCta] = {}
        self._rr = 0
        self._issue_width = config.issue_width
        #: ``(session, ring, always, pid, stall_sites, slot_args)``
        #: while a trace session is attached (``ring``: the session's
        #: flat event list; ``always``: nothing is sampled out).
        self._trace = None

    # ------------------------------------------------------------------
    # Kernel orchestration
    # ------------------------------------------------------------------
    def start_kernel(self, ctas: list[CtaTrace], start_cycle: int) -> None:
        """Queue this SM's share of a kernel's CTAs."""
        if self._warps or self._cta_queue:
            raise RuntimeError(f"SM{self.sm_id} still busy")
        self.cycle = max(self.cycle, start_cycle)
        self._cta_queue = list(ctas)
        self._rr = 0
        self._admit()

    def _admit(self) -> None:
        while self._cta_queue:
            cta = self._cta_queue[0]
            if len(self._resident) >= self.config.max_ctas_per_sm:
                return
            if len(self._warps) + len(cta.warps) \
                    > self.config.max_warps_per_sm:
                # Admit at least one CTA even if oversized, otherwise a
                # CTA larger than the warp limit would deadlock.
                if self._warps:
                    return
            self._cta_queue.pop(0)
            resident = _ResidentCta(cta)
            self._resident.append(resident)
            for warp in resident.warps:
                if not warp.done:
                    warp.resume_time = self.cycle
                    self._warps.append(warp)
                    self._warp_cta[id(warp)] = resident

    @property
    def active(self) -> bool:
        return bool(self._warps or self._cta_queue)

    # ------------------------------------------------------------------
    # Cycle execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Issue at the current cycle, then advance the local clock.

        Returns :attr:`active` after the step, so the simulator's drain
        loop need not read it again.
        """
        cycle = self.cycle
        warps = self._warps
        n = len(warps)
        rr = self._rr
        slots = self._issue_width
        trace = self._trace
        issued_any = False
        retired = False
        # Round-robin from ``rr``.  No resident warp is done at step
        # entry (``_retire`` drops them), and a warp that finishes
        # here is not visited again.
        for warp in warps[rr:] + warps[:rr] if rr else warps:
            if warp.resume_time > cycle:
                continue
            used = self._issue(warp, slots)
            if used:
                issued_any = True
                slots -= used
                if trace is not None and warp.resume_time <= cycle:
                    # A sampled issue instant on the warp's own track,
                    # after every event of the issued transactions.  A
                    # warp that stalled part-way (its resume time moved
                    # past this cycle) gets its stall span instead.
                    tracer, buf, always, pid, _stalls, slot_args = trace
                    if always or tracer.sampled():
                        sid = warp.issue_site
                        if sid is None:
                            sid = warp.issue_site = tracer.site(
                                "warp", "issue", pid, warp.warp_id,
                                ph="i", argkeys=("slots",))
                        if sid >= 0:
                            buf += (sid, cycle, 0, None, slot_args[used])
            if warp.done:
                retired = True
            if not slots:
                break
        if retired:
            self._retire()
            n = len(self._warps)
        if n:
            self._rr = (rr + 1) % n

        if not (self._warps or self._cta_queue):
            return False
        if issued_any:
            self.cycle = cycle + 1
            return True
        # Nothing could issue: jump to the earliest resume time.
        next_time = min(map(_resume_time, self._warps),
                        default=_FAR_FUTURE)
        self.cycle = next_time if next_time > cycle + 1 else cycle + 1
        return True

    def _issue(self, warp: WarpRunner, slots: int) -> int:
        inst = warp.insts[warp.pc]
        # Dispatch on the exact instruction type, loads first: most
        # calls are loads, and most of those re-poll a stalled one.
        kind = type(inst)
        if kind is Load:
            obj, addrs = inst
            n_addrs = len(addrs)
            txn = first = warp.txn_index
            end = first + slots
            if end > n_addrs:
                end = n_addrs
            cycle = self.cycle
            load = self.ldst.load
            while txn < end:
                ready, stall_until = load(cycle, obj, addrs[txn])
                if stall_until is not None:
                    used = txn - first
                    if used:
                        warp.txn_index = txn
                        self.stats.instructions += used
                    warp.resume_time = stall_until
                    if self._trace is not None:
                        tracer = self._trace[0]
                        reason = tracer.last_stall_reason
                        tracer.last_stall_reason = None
                        self._trace_stall(reason, warp, obj)
                    return used
                txn += 1
                if ready > warp.outstanding_max:
                    warp.outstanding_max = ready
            used = txn - first
            warp.txn_index = txn
            self.stats.instructions += used
            if txn >= n_addrs:
                warp.advance()
        elif kind is Compute:
            count, wait = inst
            if wait and warp.outstanding_max > self.cycle:
                self.stats.stalls.memory_wait += 1
                warp.resume_time = warp.outstanding_max
                if self._trace is not None:
                    self._trace_stall("memory_wait", warp, None)
                return 0
            if wait:
                warp.outstanding_max = 0
            remaining = warp.compute_remaining or count
            used = slots if slots < remaining else remaining
            warp.compute_remaining = remaining - used
            self.stats.instructions += used
            if used == remaining:
                warp.advance()
        elif kind is Store:
            addrs = inst.addrs
            used = 0
            while warp.txn_index < len(addrs) and used < slots:
                self.ldst.store(self.cycle, addrs[warp.txn_index])
                used += 1
                warp.txn_index += 1
                self.stats.instructions += 1
            if warp.txn_index >= len(addrs):
                warp.advance()
        else:
            raise TypeError(f"unknown instruction {inst!r}")
        return used

    # ------------------------------------------------------------------
    # Cycle-level tracing
    # ------------------------------------------------------------------
    def _attach_tracer(self, tracer) -> None:
        """Trace this SM: per-warp stall spans (always kept — stalls
        are the structural events the paper's overhead analysis cares
        about) and sampled issue instants, each on the warp's own
        thread track inside this SM's process group.  Per-warp sites
        are interned lazily, on first use; each warp keeps its issue
        site (``WarpRunner.issue_site``)."""
        from repro.obs.trace import PID_SM_BASE, TID_LDST

        pid = PID_SM_BASE + self.sm_id
        tracer.register_track(pid, f"SM {self.sm_id}", TID_LDST, "LD/ST")
        self.ldst._attach_tracer(tracer, pid)
        # ``used`` never exceeds the issue width, so every issue
        # instant's ``args`` tuple is interned once and shared.
        slot_args = tuple(
            (i,) for i in range(self.config.issue_width + 1))
        self._trace = (tracer, tracer._buf,
                       tracer.config.sample_rate >= 1.0, pid, {},
                       slot_args)

    def _trace_stall(self, reason: str, warp: WarpRunner, obj) -> None:
        # A stalled warp has not advanced, so its current instruction
        # names the object it is blocked on.
        tracer, buf, _always, pid, stall_sites, _args = self._trace
        key = (reason, warp.warp_id)
        sid = stall_sites.get(key)
        if sid is None:
            sid = stall_sites[key] = tracer.site(
                "warp", "stall:" + reason, pid, warp.warp_id)
        if sid >= 0:
            dur = warp.resume_time - self.cycle
            buf += (sid, self.cycle, dur if dur > 1 else 1, obj, None)

    def _retire(self) -> None:
        finished_ctas = set()
        for warp in self._warps:
            if warp.done:
                resident = self._warp_cta.pop(id(warp), None)
                if resident is not None:
                    resident.remaining -= 1
                    if resident.remaining == 0:
                        finished_ctas.add(id(resident))
        self._warps = [w for w in self._warps if not w.done]
        if finished_ctas:
            self._resident = [
                r for r in self._resident if id(r) not in finished_ctas
            ]
            self._admit()
