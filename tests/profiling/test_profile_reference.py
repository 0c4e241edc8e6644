"""``profile_trace`` against a per-address reference tally.

The reference below is the plain loop the profile is defined by: one
counter bump per read transaction, and one set of warp ids per block
and kernel.  ``profile_trace`` must agree with it on every field and
on the insertion order of every dict, which the Figure 3/4 curves and
the Table III shares iterate in.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.kernels.registry import ALL_APPLICATIONS, create_app
from repro.kernels.trace import AppTrace, Load
from repro.profiling.access_profile import profile_trace

CASES = [(app, "small") for app in ALL_APPLICATIONS] + [("C-NN", "default")]


def reference_profile(trace: AppTrace) -> dict:
    """Per-address tally of reads and distinct reading warps."""
    block_reads: Counter[int] = Counter()
    object_reads: Counter[str] = Counter()
    kernel_block_warps: dict[str, dict[int, int]] = {}
    kernel_warps: dict[str, int] = {}
    for kernel in trace.kernels:
        warps_seen: dict[int, set[int]] = defaultdict(set)
        n_warps = 0
        for warp in kernel.iter_warps():
            n_warps += 1
            for inst in warp.insts:
                if isinstance(inst, Load):
                    object_reads[inst.obj] += len(inst.addrs)
                    for addr in inst.addrs:
                        block_reads[addr] += 1
                        warps_seen[addr].add(warp.warp_id)
        kernel_block_warps[kernel.name] = {
            addr: len(s) for addr, s in warps_seen.items()}
        kernel_warps[kernel.name] = max(n_warps, 1)
    return {
        "block_reads": dict(block_reads),
        "object_reads": dict(object_reads),
        "kernel_block_warps": kernel_block_warps,
        "kernel_warps": kernel_warps,
    }


def ordered(value):
    """A dict as its item list, nested dicts included, so that ``==``
    compares insertion order too."""
    if isinstance(value, dict):
        return [(k, ordered(v)) for k, v in value.items()]
    return value


@pytest.mark.parametrize("app,scale", CASES)
def test_profile_matches_reference(app, scale):
    application = create_app(app, scale=scale)
    memory = application.fresh_memory()
    trace = application.build_trace(memory)
    profile = profile_trace(trace, memory)
    reference = reference_profile(trace)
    assert profile.app_name == trace.app_name
    for field, expected in reference.items():
        assert ordered(getattr(profile, field)) == ordered(expected), field
