"""Trace-driven GPU timing simulator.

The simulator replays :class:`~repro.kernels.trace.AppTrace` warp
instruction streams on a model of the Table I GPU:

* SMs issue up to ``issue_width`` warp-instructions per cycle from
  their resident warps (greedy round-robin), hiding memory latency by
  switching warps — the latency-tolerance property the paper's
  detection scheme leans on;
* loads probe a per-SM L1 with an MSHR file (merge + structural
  stalls), misses travel over per-partition interconnect links to L2
  slices and on to DRAM channels with row-buffer state;
* the LD/ST unit implements the paper's replication: on an L1 miss to
  a protected object it emits one transaction per replica copy;
  detection resumes the warp on the *first* returning copy (lazy
  compare, bounded by the pending-compare queue) while correction
  waits for all three.

A simulation takes its protection as a
:class:`~repro.core.protection.ProtectionSpec`, uniform or mixed per
object: ``simulate_app(app, protection=ProtectionSpec.parse(
"r=detection,p=correction"))``; the default is the baseline.  Outputs
are cycle counts and the "L1-cache missed accesses" metric of
Figure 7.
"""

from repro.sim.metrics import SimReport
from repro.sim.simulator import simulate_app, simulate_trace

__all__ = ["SimReport", "simulate_app", "simulate_trace"]
