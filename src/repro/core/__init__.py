"""The paper's contribution: data-centric partial-replication schemes.

* :mod:`replication` — replica allocation of protected data objects at
  distinct DRAM addresses.
* :mod:`hardware` — the Section IV-C hardware budget: start-address
  table, load-instruction table, comparator, pending-compare queue.
* :mod:`protection` — :class:`ProtectionSpec`, the one protection
  descriptor: which objects are protected, and with which scheme each.
* :mod:`schemes` — the readers a spec builds through
  :func:`make_protection`: :class:`BaselineScheme` (no protection) or
  one :class:`ReplicatedScheme` that reads each protected object by its
  copy count — duplication + lazy bitwise compare +
  terminate-on-mismatch, or triplication + per-bit majority vote.
  :class:`DetectionScheme` and :class:`CorrectionScheme` are its
  uniform spellings.
* :mod:`manager` — :class:`ReliabilityManager`, the end-to-end API
  tying profiling, protection, fault campaigns and the timing
  simulator together.
"""

from repro.core.hardware import HardwareBudget
from repro.core.manager import ReliabilityManager
from repro.core.replication import ReplicaSet, create_replicas
from repro.core.schemes import (
    BaselineScheme,
    CorrectionScheme,
    DetectionScheme,
    make_protection,
)

__all__ = [
    "HardwareBudget",
    "ReliabilityManager",
    "ReplicaSet",
    "create_replicas",
    "BaselineScheme",
    "CorrectionScheme",
    "DetectionScheme",
    "make_protection",
]
