"""The detection and detection-and-correction resilience schemes.

Functionally (this module), a scheme is a *reader*: kernel code pulls
its inputs through ``scheme.read(obj)``.  Reads of unprotected objects
pass straight through to device memory; reads of protected objects
fan out to every replica copy and either

* **detect** — bit-compare the two copies and raise
  :class:`~repro.errors.FaultDetected` on any mismatch (the paper's
  *terminate* signal; the user reruns the application), or
* **correct** — take a per-bit majority over the three copies and
  return the voted data.

One :class:`ReplicatedScheme` built from a
:class:`~repro.core.protection.ProtectionSpec` does both, per object,
so a per-object mix of the two schemes is no special case;
:class:`DetectionScheme` and :class:`CorrectionScheme` are its uniform
spellings.  Timing behaviour (lazy comparison, stall-for-all-copies,
replica bandwidth) lives in :mod:`repro.sim.ldst`, built from the same
spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.address_space import (
    BLOCK_BYTES,
    DataObject,
    DeviceMemory,
)
from repro.core.hardware import HardwareBudget
from repro.core.protection import (
    EXTRA_COPIES,
    PROTECTION_SCHEMES,
    ProtectionSpec,
)
from repro.core.replication import (
    ReplicaSet,
    majority_vote,
    replicate_spec,
)
from repro.errors import ConfigError, FaultDetected


@dataclass
class SchemeStats:
    """Counters a scheme accumulates over one application run."""

    protected_reads: int = 0
    unprotected_reads: int = 0
    comparisons: int = 0
    corrected_bytes: int = 0
    corrected_reads: int = 0


class BaselineScheme:
    """No protection: every read passes straight to memory."""

    scheme_name = "baseline"

    def __init__(self, memory: DeviceMemory):
        self.memory = memory
        self.protected_names: frozenset[str] = frozenset()
        self.stats = SchemeStats()

    def read(self, obj: DataObject) -> np.ndarray:
        """Plain device-memory read (faults included, unchecked)."""
        self.stats.unprotected_reads += 1
        return self.memory.read_object(obj)


class ReplicatedScheme:
    """The replicated reader a :class:`ProtectionSpec` describes.

    Each protected object gets ``EXTRA_COPIES[scheme]`` replicas and
    is read by its copy count: two copies compare and terminate on a
    mismatch (detection), three copies vote (correction).  Uniform and
    mixed specs take this one path, and every read tallies into the
    one :class:`SchemeStats`.  The start-address table is budgeted at
    4 B per replica copy (Section IV-C).
    """

    def __init__(
        self,
        memory: DeviceMemory,
        spec: ProtectionSpec,
        budget: HardwareBudget | None = None,
    ):
        if spec.is_baseline:
            raise ConfigError(
                "replication: protect at least one object "
                "(use BaselineScheme for none)"
            )
        self.memory = memory
        (budget or HardwareBudget()).check_copies(
            sum(EXTRA_COPIES[scheme] for _name, scheme in spec.assignments),
            n_protected_loads=len(spec.objects),  # >=1 PC per object
        )
        self.replica_sets: dict[str, ReplicaSet] = replicate_spec(
            memory, spec)
        self.protected_names = frozenset(self.replica_sets)
        self.stats = SchemeStats()

    def read(self, obj: DataObject) -> np.ndarray:
        """Read ``obj``, checking it against its replicas if protected."""
        replica_set = self.replica_sets.get(obj.name)
        if replica_set is None:
            self.stats.unprotected_reads += 1
            return self.memory.read_object(obj)
        self.stats.protected_reads += 1
        self.stats.comparisons += 1
        if replica_set.n_copies == 2:
            return self._compare(replica_set)
        return self._vote(replica_set)

    def _divergence_offsets(self, replica_set: ReplicaSet) \
            -> list[int] | None:
        """Byte offsets at which the copies can possibly differ.

        On a copy-on-write memory whose copies are all still clean
        (never privately written), every copy's raw bytes equal the
        shared clone-time image, so the copies can only differ at
        bytes carrying a fault overlay.  Returns those offsets
        (object-relative, sorted, padding excluded); ``None`` means no
        such guarantee exists and the caller must compare in full.
        """
        dirty = self.memory.cow_dirty_names
        if dirty is None:
            return None
        copies = replica_set.all_copies()
        if any(copy.name in dirty for copy in copies):
            return None
        nbytes = replica_set.primary.nbytes
        suspects: set[int] = set()
        for copy in copies:
            suspects.update(
                off for off in self.memory.overlay_offsets(copy)
                if off < nbytes
            )
        return sorted(suspects)

    def _compare(self, replica_set: ReplicaSet) -> np.ndarray:
        """Detection: bit-compare the two copies, terminate on any
        mismatch.

        The comparison is *lazy* in the timing model (execution
        proceeds on the first copy's arrival); functionally it is
        evaluated before the data is consumed, which is equivalent
        because a detected mismatch terminates the run either way.
        """
        primary_obj = replica_set.primary
        suspects = self._divergence_offsets(replica_set)
        if suspects is not None:
            # Fast path: only overlay-carrying bytes can mismatch, so
            # compare those alone instead of materializing the replica.
            replica_obj = replica_set.replicas[0]
            for off in suspects:
                a = self.memory.read_byte(primary_obj.base_addr + off)
                b = self.memory.read_byte(replica_obj.base_addr + off)
                if a != b:
                    raise FaultDetected(primary_obj.name,
                                        off // BLOCK_BYTES)
            return self.memory.read_object(primary_obj)
        primary = self.memory.read_object(primary_obj)
        replica = self.memory.read_object(replica_set.replicas[0])
        a = primary.view(np.uint8).reshape(-1)
        b = replica.view(np.uint8).reshape(-1)
        mismatch = np.nonzero(a != b)[0]
        if mismatch.size:
            block = int(mismatch[0]) // BLOCK_BYTES
            raise FaultDetected(primary_obj.name, block)
        return primary

    def _vote(self, replica_set: ReplicaSet) -> np.ndarray:
        """Correction: per-bit majority over the three copies.

        Execution stalls (in the timing model) until all three copies
        arrive; the voted value is what the computation consumes, so
        any fault confined to a single copy is transparently corrected.
        """
        primary_obj = replica_set.primary
        suspects = self._divergence_offsets(replica_set)
        if suspects is not None:
            # Fast path: the copies agree everywhere except (possibly)
            # at overlay bytes, so vote those alone and patch them into
            # the primary in place of a full three-way materialization.
            primary = self.memory.read_object(primary_obj)
            if suspects:
                flat = primary.view(np.uint8).reshape(-1)
                corrected = 0
                for off in suspects:
                    a, b, c = (
                        self.memory.read_byte(copy.base_addr + off)
                        for copy in replica_set.all_copies()
                    )
                    voted = (a & b) | (a & c) | (b & c)
                    if voted != flat[off]:
                        flat[off] = voted
                        corrected += 1
                if corrected:
                    self.stats.corrected_bytes += corrected
                    self.stats.corrected_reads += 1
            return primary
        copies = [
            self.memory.read_object(c).view(np.uint8).reshape(-1)
            for c in replica_set.all_copies()
        ]
        voted, corrected = majority_vote(copies)
        if corrected:
            self.stats.corrected_bytes += corrected
            self.stats.corrected_reads += 1
        return (
            voted.view(primary_obj.dtype)
            .reshape(primary_obj.shape)
            .copy()
        )


class _UniformScheme(ReplicatedScheme):
    """One scheme over a list of objects: the uniform spelling of a
    :class:`ReplicatedScheme`."""

    def __init__(
        self,
        memory: DeviceMemory,
        protected_objects: list[DataObject],
        budget: HardwareBudget | None = None,
    ):
        super().__init__(memory, ProtectionSpec.uniform(
            self.scheme_name, [obj.name for obj in protected_objects]),
            budget)


class DetectionScheme(_UniformScheme):
    """Duplication + bitwise comparison + terminate on mismatch."""

    scheme_name = "detection"
    extra_copies = EXTRA_COPIES["detection"]


class CorrectionScheme(_UniformScheme):
    """Triplication + per-bit majority vote."""

    scheme_name = "correction"
    extra_copies = EXTRA_COPIES["correction"]


SCHEME_NAMES = ("baseline", *PROTECTION_SCHEMES)


def make_protection(
    memory: DeviceMemory,
    spec: ProtectionSpec,
    budget: HardwareBudget | None = None,
):
    """Factory: build the reader a :class:`ProtectionSpec` describes —
    :class:`BaselineScheme` for the baseline (a spec protecting
    nothing), else one :class:`ReplicatedScheme`, uniform or mixed."""
    if spec.is_baseline:
        return BaselineScheme(memory)
    return ReplicatedScheme(memory, spec, budget)
