"""Memory-access coalescing: lane addresses -> block transactions.

The generic coalescer, kept with the tests as the reference the trace
scaffold's arithmetic helpers (:mod:`repro.kernels.common`) are
checked against.  A warp's 32 lanes each compute a byte address; the LD/ST unit merges
addresses falling in the same 128-byte block into a single memory
transaction.  This is where the paper's access-count structure comes
from:

* a broadcast (``r[i]``, all lanes read the same element) is 1
  transaction;
* a unit-stride access (``A[i*NY + j]`` with ``j`` the lane index, 4B
  elements) spans exactly one block: 1 transaction;
* a stride-2 access spans two blocks: 2 transactions;
* a column-major access (stride >= 128B, e.g. ``a[i*n + j]`` with
  ``i`` the lane index) degenerates to one transaction per lane: 32.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.address_space import BLOCK_BYTES, DataObject
from repro.errors import TraceError


def coalesce_indices(
    obj: DataObject, lane_indices: Sequence[int] | np.ndarray
) -> tuple[int, ...]:
    """Coalesce per-lane flat element indices into block transactions.

    ``lane_indices`` holds one flat element index per active lane
    (inactive lanes are simply omitted — predicated-off lanes issue no
    address).  Returns the sorted, de-duplicated block base addresses.
    """
    idx = np.asarray(lane_indices, dtype=np.int64)
    if idx.size == 0:
        raise TraceError(f"coalesce on {obj.name}: no active lanes")
    n_elements = int(np.prod(obj.shape, dtype=np.int64))
    if idx.min() < 0 or idx.max() >= n_elements:
        raise TraceError(
            f"coalesce on {obj.name}: lane index outside "
            f"[0, {n_elements}) (got {idx.min()}..{idx.max()})"
        )
    byte_addrs = obj.base_addr + idx * obj.dtype.itemsize
    blocks = np.unique(byte_addrs // BLOCK_BYTES) * BLOCK_BYTES
    return tuple(int(b) for b in blocks)


def broadcast_transaction(obj: DataObject, flat_index: int) -> tuple[int]:
    """The single transaction of a warp-wide broadcast load."""
    return coalesce_indices(obj, [flat_index])  # type: ignore[return-value]


def strided_transactions(
    obj: DataObject, start: int, stride: int, lanes: int
) -> tuple[int, ...]:
    """Transactions for lanes reading ``start + lane*stride`` elements."""
    if lanes <= 0:
        raise TraceError("strided access needs at least one lane")
    indices = start + stride * np.arange(lanes, dtype=np.int64)
    return coalesce_indices(obj, indices)
