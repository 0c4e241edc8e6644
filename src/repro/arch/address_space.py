"""Simulated GPU device memory: allocator, data objects, fault overlays.

The fault model of the paper (after Luo et al.) injects *permanent
stuck-at* faults into 128-byte data memory blocks of the application
address space.  Permanence matters: a stuck cell re-asserts its value
after every write.  We model this with per-byte OR/AND-NOT overlay
masks applied on every read, so kernels always observe the fault while
the pristine data stays available for ground-truth comparison.

Kernels do not get raw views into the buffer; they read and write
through :meth:`DeviceMemory.read_object` / ``write_object``, which is
where the overlays (and, for protected objects, the replication
schemes) interpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import AddressError, AllocationError

#: Cache/memory block granularity used throughout the paper.
BLOCK_BYTES = 128


@dataclass(frozen=True)
class DataObject:
    """A named, block-aligned allocation in device memory.

    Mirrors a CUDA ``cudaMalloc`` region passed to a kernel: it has a
    base address, an element dtype and shape, and a read-only flag (the
    paper's hot data objects are always read-only kernel inputs).
    """

    name: str
    base_addr: int
    dtype: np.dtype
    shape: tuple[int, ...]
    read_only: bool = True

    @cached_property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    @cached_property
    def n_blocks(self) -> int:
        return -(-self.nbytes // BLOCK_BYTES)

    @cached_property
    def end_addr(self) -> int:
        """One past the last byte of the object's data."""
        return self.base_addr + self.nbytes

    def block_addr(self, block_index: int) -> int:
        """Byte address of the object's ``block_index``-th 128B block."""
        if not 0 <= block_index < self.n_blocks:
            raise AddressError(
                f"{self.name}: block {block_index} outside "
                f"[0, {self.n_blocks})"
            )
        return self.base_addr + block_index * BLOCK_BYTES

    def block_addrs(self) -> range:
        """All block base addresses covering this object."""
        return range(
            self.base_addr, self.base_addr + self.n_blocks * BLOCK_BYTES,
            BLOCK_BYTES,
        )

    def element_block(self, flat_index: int) -> int:
        """Object-relative block index holding flat element ``flat_index``."""
        byte = flat_index * self.dtype.itemsize
        if not 0 <= byte < self.nbytes:
            raise AddressError(
                f"{self.name}: element {flat_index} out of range"
            )
        return byte // BLOCK_BYTES


@dataclass(frozen=True)
class StuckAtOverlay:
    """Stuck-at fault masks for one byte of memory.

    Read value is ``(raw | or_mask) & ~and_mask``: bits in ``or_mask``
    are stuck at 1, bits in ``and_mask`` are stuck at 0.
    """

    or_mask: int
    and_mask: int

    def apply(self, raw: int) -> int:
        """Read value of a raw byte through the stuck bits."""
        return (raw | self.or_mask) & ~self.and_mask & 0xFF

    def merged_with(self, other: "StuckAtOverlay") -> "StuckAtOverlay":
        """Combine two overlays on the same byte (later faults win ties)."""
        or_mask = (self.or_mask | other.or_mask) & ~other.and_mask
        and_mask = (self.and_mask | other.and_mask) & ~other.or_mask
        return StuckAtOverlay(or_mask & 0xFF, and_mask & 0xFF)


class DeviceMemory:
    """Byte-addressable simulated device memory with a bump allocator.

    Allocations are aligned to :data:`BLOCK_BYTES` so every data object
    starts on a cache-block boundary, exactly as ``cudaMalloc``
    guarantees (256B alignment on real hardware).
    """

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024):
        if capacity_bytes <= 0 or capacity_bytes % BLOCK_BYTES:
            raise AllocationError(
                "capacity must be a positive multiple of the block size"
            )
        self.capacity = capacity_bytes
        self._buf: np.ndarray | None = np.zeros(capacity_bytes,
                                                dtype=np.uint8)
        #: Copy-on-write state.  A regular memory owns ``_buf`` and has
        #: ``_base is None``.  A :meth:`cow_clone` twin instead shares
        #: its source's buffer read-only via ``_base`` (valid for the
        #: first ``_base_limit`` bytes) and materializes private,
        #: per-object segments in ``_private`` only when written.
        self._base: np.ndarray | None = None
        self._base_limit = 0
        self._private: dict[str, np.ndarray] = {}
        self._next_free = 0
        self._objects: dict[str, DataObject] = {}
        self._overlays: dict[int, StuckAtOverlay] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float32,
        read_only: bool = True,
    ) -> DataObject:
        """Allocate a named, block-aligned object and return its handle."""
        if name in self._objects:
            raise AllocationError(f"object {name!r} already allocated")
        if isinstance(shape, int):
            shape = (shape,)
        np_dtype = np.dtype(dtype)
        obj = DataObject(name, self._next_free, np_dtype, tuple(shape),
                         read_only)
        if obj.nbytes <= 0:
            raise AllocationError(f"object {name!r} has zero size")
        aligned = obj.n_blocks * BLOCK_BYTES
        if self._next_free + aligned > self.capacity:
            raise AllocationError(
                f"out of device memory allocating {name!r} "
                f"({aligned} bytes, {self.capacity - self._next_free} free)"
            )
        self._next_free += aligned
        self._objects[name] = obj
        return obj

    def reserve_blocks(self, n_blocks: int) -> None:
        """Skip ``n_blocks`` of address space (alignment/coloring pad).

        Used by the replica allocator to steer copies onto different
        memory channels and DRAM banks than their primaries.
        """
        if n_blocks < 0:
            raise AllocationError("cannot reserve a negative pad")
        pad = n_blocks * BLOCK_BYTES
        if self._next_free + pad > self.capacity:
            raise AllocationError("out of device memory reserving pad")
        self._next_free += pad

    def clone(self) -> "DeviceMemory":
        """A pristine copy: same allocations and contents, no faults.

        Campaigns set an application up once and clone per run, which
        avoids regenerating inputs thousands of times.  Only the
        allocated prefix of the buffer is copied.
        """
        twin = DeviceMemory.__new__(DeviceMemory)
        twin.capacity = self.capacity
        twin._buf = np.zeros(self.capacity, dtype=np.uint8)
        if self._next_free:
            twin._buf[: self._next_free] = self._raw_range(
                0, self._next_free
            )
        twin._base = None
        twin._base_limit = 0
        twin._private = {}
        twin._next_free = self._next_free
        twin._objects = dict(self._objects)
        twin._overlays = {}
        return twin

    def cow_clone(self) -> "DeviceMemory":
        """A copy-on-write twin: reads share this memory's buffer.

        The twin sees the same allocations and contents but copies
        nothing up front; a private per-object segment is materialized
        only when the twin *writes* an object.  Fault overlays are
        per-twin metadata already, so injections never touch the shared
        buffer.  The source must not be mutated while the twin is
        alive — exactly the campaign contract, where the prepared
        per-campaign image is frozen and each run clones it.
        """
        if self._base is not None:
            # Chained COW: flatten through a materialized copy whose
            # buffer the new twin keeps alive by reference.
            return self.clone().cow_clone()
        twin = DeviceMemory.__new__(DeviceMemory)
        twin.capacity = self.capacity
        twin._buf = None
        twin._base = self._buf
        twin._base_limit = self._next_free
        twin._private = {}
        twin._next_free = self._next_free
        twin._objects = dict(self._objects)
        twin._overlays = {}
        return twin

    @property
    def is_cow(self) -> bool:
        """Whether this memory is a copy-on-write clone."""
        return self._base is not None

    @property
    def cow_dirty_names(self) -> frozenset[str] | None:
        """Objects whose bytes may differ from the clone-time image.

        ``None`` means writes are not tracked (regular memories);
        callers needing the guarantee must then assume anything may
        have been written.  For a COW clone this is exactly the set of
        privately materialized objects.
        """
        if self._base is None:
            return None
        return frozenset(self._private)

    @property
    def private_bytes(self) -> int:
        """Bytes privately materialized by this COW clone."""
        return sum(seg.nbytes for seg in self._private.values())

    def clone_with_faults(self) -> "DeviceMemory":
        """Like :meth:`clone`, but the stuck-at overlays come along.

        Used by redundant-execution baselines: each redundant run gets
        a fresh copy of the state but sees the *same* permanent faults
        (they live in the physical cells, not in the copy)."""
        twin = self.clone()
        twin._overlays = dict(self._overlays)
        return twin

    def object(self, name: str) -> DataObject:
        """Look up a live allocation by name."""
        try:
            return self._objects[name]
        except KeyError:
            raise AddressError(f"no object named {name!r}") from None

    def has_object(self, name: str) -> bool:
        """Whether an allocation with this name exists."""
        return name in self._objects

    @property
    def objects(self) -> list[DataObject]:
        return list(self._objects.values())

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    def object_at(self, addr: int) -> DataObject:
        """The object whose allocation covers byte address ``addr``."""
        for obj in self._objects.values():
            if obj.base_addr <= addr < obj.base_addr + \
                    obj.n_blocks * BLOCK_BYTES:
                return obj
        raise AddressError(f"address {addr:#x} is not allocated")

    # ------------------------------------------------------------------
    # Data access (kernels and schemes go through these)
    # ------------------------------------------------------------------
    def write_object(self, obj: DataObject, values: np.ndarray) -> None:
        """Store ``values`` into the object (ignores stuck-at overlays:
        the cells physically latch whatever survives, and the overlay is
        re-applied on read)."""
        arr = np.ascontiguousarray(values, dtype=obj.dtype)
        if arr.shape != obj.shape:
            arr = arr.reshape(obj.shape)
        raw = arr.view(np.uint8).reshape(-1)
        self._writable(obj)[:] = raw

    def read_object(self, obj: DataObject) -> np.ndarray:
        """Read the object as a fresh ndarray with faults applied."""
        raw = self._read_range(obj.base_addr, obj.nbytes)
        return raw.view(obj.dtype).reshape(obj.shape)

    def read_block(self, addr: int, nbytes: int = BLOCK_BYTES) -> np.ndarray:
        """Read raw bytes (with faults applied) starting at ``addr``."""
        if not 0 <= addr <= self.capacity - nbytes:
            raise AddressError(f"block read at {addr:#x} out of range")
        return self._read_range(addr, nbytes)

    def read_byte(self, addr: int) -> int:
        """Read one byte (with faults applied) at ``addr``."""
        if not 0 <= addr < self.capacity:
            raise AddressError(f"byte read at {addr:#x} out of range")
        raw = int(self._raw_range(addr, 1)[0])
        overlay = self._overlays.get(addr)
        return overlay.apply(raw) if overlay else raw

    def read_pristine(self, obj: DataObject) -> np.ndarray:
        """Ground-truth read that ignores fault overlays (for oracles)."""
        raw = self._raw_range(obj.base_addr, obj.nbytes)
        return raw.view(obj.dtype).reshape(obj.shape)

    def _writable(self, obj: DataObject) -> np.ndarray:
        """The mutable byte storage of an object's data bytes.

        For a COW clone this materializes (once) a private copy of the
        object — the copy-on-write step.
        """
        if self._base is None:
            return self._buf[obj.base_addr:obj.base_addr + obj.nbytes]
        seg = self._private.get(obj.name)
        if seg is None:
            if obj.end_addr <= self._base_limit:
                seg = self._base[
                    obj.base_addr:obj.base_addr + obj.nbytes
                ].copy()
            else:
                # Allocated after the clone: nothing shared to copy.
                seg = np.zeros(obj.nbytes, dtype=np.uint8)
            self._private[obj.name] = seg
        return seg

    def _raw_range(self, addr: int, nbytes: int) -> np.ndarray:
        """A fresh copy of raw storage bytes (no overlays applied)."""
        if self._base is None:
            return self._buf[addr:addr + nbytes].copy()
        end = addr + nbytes
        data = np.zeros(nbytes, dtype=np.uint8)
        shared_end = min(end, self._base_limit)
        if shared_end > addr:
            data[: shared_end - addr] = self._base[addr:shared_end]
        for name, seg in self._private.items():
            obj = self._objects[name]
            lo = max(addr, obj.base_addr)
            hi = min(end, obj.end_addr)
            if lo < hi:
                data[lo - addr:hi - addr] = seg[
                    lo - obj.base_addr:hi - obj.base_addr
                ]
        return data

    def _read_range(self, addr: int, nbytes: int) -> np.ndarray:
        data = self._raw_range(addr, nbytes)
        if self._overlays:
            for byte_addr, overlay in self._overlays.items():
                off = byte_addr - addr
                if 0 <= off < nbytes:
                    data[off] = overlay.apply(int(data[off]))
        return data

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_stuck_at(
        self, byte_addr: int, bit_in_byte: int, stuck_value: int
    ) -> None:
        """Make one bit of one byte permanently read as ``stuck_value``."""
        if not 0 <= byte_addr < self.capacity:
            raise AddressError(f"fault address {byte_addr:#x} out of range")
        if not 0 <= bit_in_byte < 8:
            raise AddressError(f"bit {bit_in_byte} outside byte")
        if stuck_value not in (0, 1):
            raise AddressError("stuck_value must be 0 or 1")
        mask = 1 << bit_in_byte
        new = (
            StuckAtOverlay(mask, 0)
            if stuck_value
            else StuckAtOverlay(0, mask)
        )
        existing = self._overlays.get(byte_addr)
        self._overlays[byte_addr] = (
            existing.merged_with(new) if existing else new
        )

    def inject_stuck_mask(
        self, byte_addr: int, or_mask: int, and_mask: int
    ) -> None:
        """Install several stuck bits of one byte in one step.

        Equivalent to the sequence of :meth:`inject_stuck_at` calls the
        masks were folded from (bit-disjoint masks; an existing overlay
        on the byte is merged with later-faults-win semantics).
        """
        if not 0 <= byte_addr < self.capacity:
            raise AddressError(f"fault address {byte_addr:#x} out of range")
        if or_mask & ~0xFF or and_mask & ~0xFF or or_mask & and_mask:
            raise AddressError(
                f"invalid stuck masks {or_mask:#x}/{and_mask:#x}"
            )
        new = StuckAtOverlay(or_mask, and_mask)
        existing = self._overlays.get(byte_addr)
        self._overlays[byte_addr] = (
            existing.merged_with(new) if existing else new
        )

    def clear_faults(self) -> None:
        """Remove every injected stuck-at overlay."""
        self._overlays.clear()

    @property
    def fault_count(self) -> int:
        """Number of distinct faulted bits currently injected."""
        return sum(
            (o.or_mask | o.and_mask).bit_count()
            for o in self._overlays.values()
        )

    def overlay_offsets(self, obj: DataObject) -> list[int]:
        """Sorted object-relative byte offsets carrying stuck bits."""
        base, end = obj.base_addr, obj.end_addr
        return sorted(
            addr - base for addr in self._overlays if base <= addr < end
        )
