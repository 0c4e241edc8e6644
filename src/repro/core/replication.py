"""Replica management: duplicate/triplicate protected data objects.

Each copy lives at a distinct DRAM address (a fresh allocation), so in
the timing model replica transactions hash to different L2 slices and
DRAM banks, and in the fault model a fault in one copy leaves the
others intact — the property the majority vote relies on.

Replicas are created at protection time from the pristine data, before
any fault is injected, mirroring the paper's flow where the runtime
stores the copies at application load time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.address_space import (
    BLOCK_BYTES,
    DataObject,
    DeviceMemory,
)
from repro.core.protection import EXTRA_COPIES, ProtectionSpec
from repro.errors import ConfigError, SpecError


def replica_name(object_name: str, copy_index: int) -> str:
    """Device-memory name of the ``copy_index``-th replica (1-based)."""
    return f"{object_name}#copy{copy_index}"


@dataclass(frozen=True)
class ReplicaSet:
    """The primary object plus its replica allocations."""

    primary: DataObject
    replicas: tuple[DataObject, ...]

    @property
    def n_copies(self) -> int:
        """Total copies including the primary."""
        return 1 + len(self.replicas)

    def all_copies(self) -> tuple[DataObject, ...]:
        """Primary first, then the replicas."""
        return (self.primary, *self.replicas)


def require_read_only(obj: DataObject) -> None:
    """Raise :class:`ConfigError` unless ``obj`` may be protected: the
    schemes replicate read-only objects only."""
    if not obj.read_only:
        raise ConfigError(
            f"cannot protect writable object {obj.name!r}: the "
            "schemes replicate read-only input data only"
        )


def protected_object(memory: DeviceMemory, name: str) -> DataObject:
    """Look up the object ``name`` to protect, before any replica is
    built: :class:`SpecError` if ``memory`` has no such object,
    :class:`ConfigError` if it is writable."""
    if not memory.has_object(name):
        raise SpecError(f"cannot protect {name!r}: no object has that name")
    obj = memory.object(name)
    require_read_only(obj)
    return obj


#: Channel x bank mapping period (6 channels x 16 banks in Table I);
#: replica bases are colored modulo this so copy traffic spreads over
#: different channels and banks than the primary's.
_MAPPING_PERIOD_BLOCKS = 96
#: Block-index shift per copy; 7 is coprime with both 6 and 16, so
#: copy k lands on a different channel *and* a different bank.
_COLOR_STRIDE_BLOCKS = 7


def create_replicas(
    memory: DeviceMemory,
    objects: list[DataObject],
    extra_copies: int,
    populate: bool = True,
) -> dict[str, ReplicaSet]:
    """Allocate and populate ``extra_copies`` replicas per object.

    Detection uses 1 extra copy (duplication); correction uses 2
    (triplication).  Only read-only objects may be protected — the
    paper's schemes never replicate writable data, whose copies would
    need coherent updates.

    Replica base addresses are *colored*: padded so that copy ``k`` of
    a block maps to a different memory channel and DRAM bank than the
    primary.  Without this, a copy offset that is a multiple of the
    channel x bank interleaving period would put every copy of a block
    in the same bank (different row), serializing the copy fetches and
    destroying row locality.

    Replicas already present in ``memory`` (same name) are reused
    as-is instead of re-allocated: a campaign prepares the replica
    image once on a base memory and copy-on-write clones it per run,
    so rebuilding the scheme on a clone must bind to the existing
    allocations rather than grow the address space.

    ``populate=False`` runs the allocator dry: replica objects are
    allocated (and colored) but their data is never copied in.
    """
    if extra_copies < 1:
        raise ConfigError("replication needs at least one extra copy")
    replica_sets: dict[str, ReplicaSet] = {}
    for obj in objects:
        require_read_only(obj)
        pristine = None
        primary_block = obj.base_addr // BLOCK_BYTES
        replicas = []
        for copy_idx in range(1, extra_copies + 1):
            name = replica_name(obj.name, copy_idx)
            if memory.has_object(name):
                replicas.append(memory.object(name))
                continue
            if populate and pristine is None:
                pristine = memory.read_pristine(obj)
            target_phase = (
                primary_block + copy_idx * _COLOR_STRIDE_BLOCKS
            ) % _MAPPING_PERIOD_BLOCKS
            current_block = memory.bytes_allocated // BLOCK_BYTES
            pad = (target_phase - current_block) % _MAPPING_PERIOD_BLOCKS
            memory.reserve_blocks(pad)
            replica = memory.alloc(
                name,
                obj.shape,
                obj.dtype,
                read_only=True,
            )
            if populate:
                memory.write_object(replica, pristine)
            replicas.append(replica)
        replica_sets[obj.name] = ReplicaSet(obj, tuple(replicas))
    return replica_sets


def replicate_spec(
    memory: DeviceMemory,
    spec: ProtectionSpec,
    populate: bool = True,
) -> dict[str, ReplicaSet]:
    """Allocate the replicas ``spec`` describes: ``EXTRA_COPIES[scheme]``
    per protected object, object by object in spec order.

    The one allocation both layers share, so a spec lays out the same
    address map in the functional reader
    (:class:`~repro.core.schemes.ReplicatedScheme`) and in the timing
    model (:func:`~repro.sim.simulator.build_protection`, which needs
    only the address offsets and runs it with ``populate=False``).
    """
    replica_sets: dict[str, ReplicaSet] = {}
    for name, scheme in spec.assignments:
        replica_sets.update(create_replicas(
            memory, [protected_object(memory, name)], EXTRA_COPIES[scheme],
            populate=populate))
    return replica_sets


def majority_vote(
    copies: list[np.ndarray],
) -> tuple[np.ndarray, int]:
    """Per-bit majority over three byte arrays.

    Returns (voted bytes, number of corrected bytes in the primary).
    ``maj = (a & b) | (a & c) | (b & c)`` computed bytewise is exactly
    a per-bit 2-of-3 vote — the paper's correction hardware.
    """
    if len(copies) != 3:
        raise ConfigError(
            f"majority vote requires exactly 3 copies, got {len(copies)}"
        )
    a, b, c = (np.asarray(copy, dtype=np.uint8) for copy in copies)
    if not (a.shape == b.shape == c.shape):
        raise ConfigError("replica size mismatch in majority vote")
    voted = (a & b) | (a & c) | (b & c)
    corrected = int(np.count_nonzero(voted != a))
    return voted, corrected
