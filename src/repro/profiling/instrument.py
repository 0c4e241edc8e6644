"""Instrumentation-style automated profiling for unknown applications.

The paper identifies hot data objects by manual source-code analysis
and notes the process "can be automated with binary instrumentation
tools such as NVBit" (Section IV-C).  This module is that automation:
:func:`discover`, a one-call pipeline that goes from an application's
memory trace to its discovered hot objects without consulting the
app's declared (source-analysis) answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.address_space import DeviceMemory
from repro.kernels.base import GpuApplication
from repro.profiling.access_profile import AccessProfile, profile_trace
from repro.profiling.hot_blocks import classify_hot_blocks
from repro.profiling.hot_objects import discover_hot_objects
from repro.runtime.cache import app_context


@dataclass
class DiscoveryResult:
    """Outcome of automated hot-object discovery for one application."""

    app_name: str
    profile: AccessProfile
    hot_objects: list[str]
    declared_hot: set[str]

    @property
    def matches_declaration(self) -> bool:
        """Did instrumentation find the same hot set the paper's manual
        source analysis declares?"""
        return set(self.hot_objects) == self.declared_hot


def discover(
    app: GpuApplication,
    memory: DeviceMemory | None = None,
    hot_factor: float = 8.0,
) -> DiscoveryResult:
    """Full automated pipeline: trace -> profile -> hot blocks -> hot
    objects, ignoring the app's declared answers (then reporting
    agreement with them)."""
    context = app_context(app)
    if memory is None:
        memory = context.pristine
    profile = profile_trace(context.trace, memory)
    classification = classify_hot_blocks(profile, hot_factor=hot_factor)
    hot = discover_hot_objects(profile, memory, classification)
    return DiscoveryResult(
        app_name=app.name,
        profile=profile,
        hot_objects=hot,
        declared_hot=set(app.hot_object_names),
    )
