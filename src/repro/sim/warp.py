"""Per-warp execution state for the timing simulator."""

from __future__ import annotations

from repro.kernels.trace import WarpTrace


class WarpRunner:
    """Tracks one resident warp's progress through its instruction
    stream.

    ``outstanding_max`` is the latest readiness time among the demand
    loads issued since the last scoreboard wait — the in-order core
    stalls a ``wait`` compute instruction until then (and a structural
    stall parks the warp at ``resume_time``).
    """

    __slots__ = (
        "trace",
        "insts",
        "pc",
        "compute_remaining",
        "txn_index",
        "outstanding_max",
        "resume_time",
        "done",
        "issue_site",
    )

    def __init__(self, trace: WarpTrace):
        self.trace = trace
        self.insts = trace.insts
        self.pc = 0
        self.compute_remaining = 0
        self.txn_index = 0
        self.outstanding_max = 0
        self.resume_time = 0
        self.done = not trace.insts
        #: The interned issue-instant site of a traced run (``None``
        #: until the warp first issues under a trace session).
        self.issue_site = None

    @property
    def warp_id(self) -> int:
        return self.trace.warp_id

    def advance(self) -> None:
        """Move to the next instruction; mark done at stream end."""
        self.pc += 1
        self.compute_remaining = 0
        self.txn_index = 0
        if self.pc >= len(self.insts):
            self.done = True
