"""Applies fault specifications to device memory.

Two application paths share one overlay algebra:

* :func:`apply_faults` — per-bit installation: one
  :meth:`~repro.arch.address_space.DeviceMemory.inject_stuck_at` call
  per stuck bit, merging into any existing overlay as it goes.
* :func:`merge_fault_masks` + :func:`apply_faults_merged` — the
  campaign's lane path (single runs and batched sweeps alike): every
  fault's bits are first folded into one ``(or_mask, and_mask)`` pair
  per byte (later faults win ties, exactly like
  :meth:`~repro.arch.address_space.StuckAtOverlay.merged_with`), then
  installed with a single dict write per touched byte.  The analytic
  classifier reuses the folded masks directly for its visible-divergence
  analysis, so classification and execution agree on the overlay
  semantics by construction.

Both paths leave the memory with identical overlays for the same fault
list.
"""

from __future__ import annotations

from repro.arch.address_space import DeviceMemory
from repro.faults.model import FaultSpec


def overlay_read_value(raw: int, or_mask: int, and_mask: int) -> int:
    """The value a faulted byte reads back as under the overlay algebra.

    Stuck-at-1 bits OR in, stuck-at-0 bits mask out — the single
    expression both the batch classifier and the provenance analyzer
    compare against raw bytes, kept here so analysis and injection can
    never disagree on the semantics.
    """
    return (raw | or_mask) & ~and_mask & 0xFF


def apply_faults(memory: DeviceMemory, faults: list[FaultSpec]) -> int:
    """Install the stuck-at overlays for every fault; returns the number
    of stuck bits injected."""
    injected = 0
    for fault in faults:
        for byte_addr, bit, value in fault.byte_level_faults():
            memory.inject_stuck_at(byte_addr, bit, value)
            injected += 1
    return injected


def merge_fault_masks(
    faults: list[FaultSpec],
) -> dict[int, tuple[int, int]]:
    """Fold every fault's stuck bits into per-byte overlay masks.

    Returns ``{byte_addr: (or_mask, and_mask)}`` — the read value of a
    faulted byte is ``(raw | or_mask) & ~and_mask``.  When several
    faults hit the same bit, the later fault in the list wins, matching
    the merge order of sequential :func:`apply_faults` injection.
    """
    merged: dict[int, tuple[int, int]] = {}
    for fault in faults:
        for byte_addr, (f_or, f_and) in fault.byte_masks().items():
            m_or, m_and = merged.get(byte_addr, (0, 0))
            # The later fault's bits override the earlier overlay.
            merged[byte_addr] = (
                (m_or & ~f_and) | f_or,
                (m_and & ~f_or) | f_and,
            )
    return merged


def apply_faults_merged(
    memory: DeviceMemory, masks: dict[int, tuple[int, int]]
) -> int:
    """Install pre-merged per-byte overlay masks (one write per byte).

    ``masks`` comes from :func:`merge_fault_masks`; the resulting
    overlays are identical to scalar :func:`apply_faults` of the same
    fault list.  Returns the number of stuck bits injected.
    """
    injected = 0
    for byte_addr, (or_mask, and_mask) in masks.items():
        memory.inject_stuck_mask(byte_addr, or_mask, and_mask)
        injected += (or_mask | and_mask).bit_count()
    return injected
