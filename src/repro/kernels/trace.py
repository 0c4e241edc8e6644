"""Warp-level memory trace representation.

A trace is the sequence of instructions each warp issues, with memory
instructions already coalesced into 128-byte block transactions (the
granularity at which the L1, L2 and DRAM operate and at which the
paper counts accesses).

Instruction kinds:

* :class:`Compute` — ``count`` back-to-back single-issue ALU
  instructions; if ``wait`` is true the warp must first drain its
  outstanding demand loads (scoreboard load-use dependency).
* :class:`Load` — a read of ``obj`` generating one transaction per
  address in ``addrs`` (block-aligned byte addresses).
* :class:`Store` — write-through store transactions.

Instructions are immutable NamedTuples, and a kernel may put the same
instance in many warps (C-NN builds each distinct weight and window
read once).  Consumers must neither mutate an instruction nor key on
its identity; two equal instructions are the same instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.errors import TraceError


class Compute(NamedTuple):
    count: int
    wait: bool = False


class Load(NamedTuple):
    obj: str
    addrs: tuple[int, ...]


class Store(NamedTuple):
    obj: str
    addrs: tuple[int, ...]


Instruction = Compute | Load | Store


@dataclass
class WarpTrace:
    """One warp's instruction stream.  ``warp_id`` is unique within its
    kernel; ``active_lanes`` records divergence for bookkeeping."""

    warp_id: int
    insts: list[Instruction] = field(default_factory=list)

    def validate(self) -> None:
        """Raise TraceError on malformed instructions."""
        for i, inst in enumerate(self.insts):
            if isinstance(inst, Compute):
                if inst.count <= 0:
                    raise TraceError(
                        f"warp {self.warp_id} inst {i}: "
                        f"compute count {inst.count} must be positive"
                    )
            elif isinstance(inst, (Load, Store)):
                if not inst.addrs:
                    raise TraceError(
                        f"warp {self.warp_id} inst {i}: empty address list"
                    )
                for addr in inst.addrs:
                    if addr < 0:
                        raise TraceError(
                            f"warp {self.warp_id} inst {i}: "
                            f"negative address {addr}"
                        )
            else:
                raise TraceError(
                    f"warp {self.warp_id} inst {i}: unknown kind "
                    f"{type(inst).__name__}"
                )

    @property
    def n_load_transactions(self) -> int:
        return sum(
            len(inst.addrs) for inst in self.insts if isinstance(inst, Load)
        )


@dataclass
class CtaTrace:
    """A co-operative thread array: the unit of SM assignment."""

    cta_id: int
    warps: list[WarpTrace] = field(default_factory=list)


@dataclass
class KernelTrace:
    """One kernel launch: a grid of CTAs."""

    name: str
    ctas: list[CtaTrace] = field(default_factory=list)

    @property
    def n_warps(self) -> int:
        return sum(len(cta.warps) for cta in self.ctas)

    def iter_warps(self) -> Iterator[WarpTrace]:
        """All warps in CTA order."""
        for cta in self.ctas:
            yield from cta.warps

    def validate(self) -> None:
        """Check warp-id uniqueness and per-warp well-formedness."""
        seen: set[int] = set()
        for warp in self.iter_warps():
            if warp.warp_id in seen:
                raise TraceError(
                    f"kernel {self.name}: duplicate warp id {warp.warp_id}"
                )
            seen.add(warp.warp_id)
            warp.validate()


@dataclass
class AppTrace:
    """The full application: kernels launched in order."""

    app_name: str
    kernels: list[KernelTrace] = field(default_factory=list)

    def validate(self) -> None:
        """Validate every kernel; an app needs at least one."""
        if not self.kernels:
            raise TraceError(f"{self.app_name}: trace has no kernels")
        for kernel in self.kernels:
            kernel.validate()

    @property
    def total_load_transactions(self) -> int:
        return sum(
            warp.n_load_transactions
            for kernel in self.kernels
            for warp in kernel.iter_warps()
        )

    def iter_loads(self) -> Iterator[tuple[str, int, Load]]:
        """Yield (kernel name, warp id, load) for every load."""
        for kernel in self.kernels:
            for warp in kernel.iter_warps():
                for inst in warp.insts:
                    if isinstance(inst, Load):
                        yield kernel.name, warp.warp_id, inst
