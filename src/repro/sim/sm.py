"""Streaming multiprocessor model: CTA residency and warp issue.

Each SM keeps a queue of CTAs assigned to it, admits them up to the
``max_ctas_per_sm``/``max_warps_per_sm`` limits, and every cycle
issues up to ``issue_width`` warp-instructions round-robin across
ready resident warps.  When no warp can issue, the SM's clock jumps to
the earliest warp-resume time — the event-driven shortcut that keeps
simulation cost proportional to work, not to cycles.
"""

from __future__ import annotations

from repro.arch.config import GpuConfig
from repro.kernels.trace import Compute, CtaTrace, Load, Store
from repro.sim.ldst import LdstUnit, SimStats
from repro.sim.warp import WarpRunner

_FAR_FUTURE = 1 << 62


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
        #: ``(session, always, pid, stall_sites, issue_sites,
        #: slot_args)`` while a trace session is attached (``always``:
        #: nothing is sampled out).
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
    def step(self) -> None:
        """Issue at the current cycle, then advance the local clock."""
        slots = self.config.issue_width
        n = len(self._warps)
        issued_any = False
        retired = False
        scanned = 0
        while slots > 0 and scanned < n:
            warp = self._warps[(self._rr + scanned) % n]
            scanned += 1
            if warp.done or warp.resume_time > self.cycle:
                continue
            used = self._issue(warp, slots)
            if used:
                issued_any = True
                slots -= used
            if warp.done:
                retired = True
        if retired:
            self._retire()
            n = len(self._warps)
        if n:
            self._rr = (self._rr + 1) % max(n, 1)

        if not self.active:
            return
        if issued_any:
            self.cycle += 1
            return
        # Nothing could issue: jump to the earliest resume time.
        next_time = _FAR_FUTURE
        for warp in self._warps:
            if not warp.done and warp.resume_time < next_time:
                next_time = warp.resume_time
        self.cycle = max(self.cycle + 1, next_time)

    def _issue(self, warp: WarpRunner, slots: int) -> int:
        inst = warp.current()
        if isinstance(inst, Compute):
            if inst.wait and warp.outstanding_max > self.cycle:
                self.stats.stalls.memory_wait += 1
                warp.resume_time = warp.outstanding_max
                if self._trace is not None:
                    self._trace_stall("memory_wait", warp, None)
                return 0
            if inst.wait:
                warp.outstanding_max = 0
            if warp.compute_remaining == 0:
                warp.compute_remaining = inst.count
            used = min(slots, warp.compute_remaining)
            warp.compute_remaining -= used
            self.stats.instructions += used
            if warp.compute_remaining == 0:
                warp.advance()
        elif isinstance(inst, Load):
            used = 0
            while warp.txn_index < len(inst.addrs) and used < slots:
                addr = inst.addrs[warp.txn_index]
                ready, stall_until = self.ldst.load(
                    self.cycle, inst.obj, addr
                )
                if stall_until is not None:
                    warp.resume_time = max(stall_until, self.cycle + 1)
                    if self._trace is not None:
                        tracer = self._trace[0]
                        reason = tracer.last_stall_reason
                        tracer.last_stall_reason = None
                        self._trace_stall(reason, warp, inst.obj)
                    return used
                used += 1
                warp.txn_index += 1
                self.stats.instructions += 1
                if ready > warp.outstanding_max:
                    warp.outstanding_max = ready
            if warp.txn_index >= len(inst.addrs):
                warp.advance()
        elif isinstance(inst, Store):
            used = 0
            while warp.txn_index < len(inst.addrs) and used < slots:
                self.ldst.store(self.cycle, inst.addrs[warp.txn_index])
                used += 1
                warp.txn_index += 1
                self.stats.instructions += 1
            if warp.txn_index >= len(inst.addrs):
                warp.advance()
        else:
            raise TypeError(f"unknown instruction {inst!r}")
        trace = self._trace
        if trace is not None and used:
            # A sampled issue instant on the warp's own track.
            tracer, always, pid, _stalls, issue_sites, slot_args = trace
            if always or tracer.sampled():
                wid = warp.trace.warp_id
                sid = issue_sites.get(wid)
                if sid is None:
                    sid = issue_sites[wid] = tracer.site(
                        "warp", "issue", pid, wid, ph="i",
                        argkeys=("slots",))
                if sid >= 0:
                    tracer._buf.extend((sid, self.cycle, 0, None,
                                        slot_args[used]))
        return used

    # ------------------------------------------------------------------
    # Cycle-level tracing
    # ------------------------------------------------------------------
    def _attach_tracer(self, tracer) -> None:
        """Trace this SM: per-warp stall spans (always kept — stalls
        are the structural events the paper's overhead analysis cares
        about) and sampled issue instants, each on the warp's own
        thread track inside this SM's process group.  Per-warp sites
        are interned lazily, on first use."""
        from repro.obs.trace import PID_SM_BASE, TID_LDST

        pid = PID_SM_BASE + self.sm_id
        tracer.register_track(pid, f"SM {self.sm_id}", TID_LDST, "LD/ST")
        self.ldst._attach_tracer(tracer, pid)
        # ``used`` never exceeds the issue width, so every issue
        # instant's ``args`` tuple is interned once and shared.
        slot_args = tuple(
            (i,) for i in range(self.config.issue_width + 1))
        self._trace = (tracer, tracer.config.sample_rate >= 1.0, pid,
                       {}, {}, slot_args)

    def _trace_stall(self, reason: str, warp: WarpRunner, obj) -> None:
        # A stalled warp has not advanced, so its current instruction
        # names the object it is blocked on.
        tracer, _always, pid, stall_sites, _issues, _args = self._trace
        key = (reason, warp.warp_id)
        sid = stall_sites.get(key)
        if sid is None:
            sid = stall_sites[key] = tracer.site(
                "warp", "stall:" + reason, pid, warp.warp_id)
        if sid >= 0:
            tracer._buf.extend((sid, self.cycle,
                                max(warp.resume_time - self.cycle, 1),
                                obj, None))

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
