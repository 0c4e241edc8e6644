"""Fault-site (block) selection policies.

Two experiments in the paper select blocks differently:

* the *motivation* experiment (Figs 5-6) picks blocks uniformly from
  either the hot set or the rest-of-memory set, to contrast their
  vulnerability;
* the *evaluation* experiment (Figs 8-9) picks blocks from the entire
  application space with probability proportional to each block's
  L1-missed access count, because only missed accesses travel to the
  fault-prone L2/DRAM.

``--selection stratified`` (:func:`stratify_by_object`) draws from the
same read-weighted distribution as :func:`access_weighted_selection`,
split into one weighted stratum per data object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.arch.address_space import BLOCK_BYTES
from repro.errors import ConfigError
from repro.utils.rng import RngStream


class UniformSampler:
    """Uniform without-replacement draws from a fixed address pool.

    A plain picklable class (not a closure) so selections can cross
    process boundaries when a campaign fans out over workers.
    """

    def __init__(self, pool: Sequence[int]):
        self.pool = tuple(pool)

    def __call__(self, rng: RngStream, n_blocks: int) -> list[int]:
        picks = rng.sample_indices(len(self.pool), n_blocks)
        return [self.pool[i] for i in picks]


class WeightedSampler:
    """Weighted without-replacement draws from a fixed address pool.

    Normalizes the weight vector once at construction; each draw then
    consumes the generator exactly like
    :meth:`~repro.utils.rng.RngStream.weighted_indices`, keeping
    outcomes bit-identical while skipping the per-run normalization.
    Picklable, like :class:`UniformSampler`.
    """

    def __init__(self, pool: Sequence[int], weights: Sequence[int]):
        self.pool = tuple(pool)
        self.weights = tuple(weights)
        w = np.asarray(self.weights, dtype=np.float64)
        self._nonzero = int(np.count_nonzero(w))
        self._p = w / w.sum()

    def __getstate__(self):
        return {"pool": self.pool, "weights": self.weights}

    def __setstate__(self, state):
        self.__init__(state["pool"], state["weights"])

    def __call__(self, rng: RngStream, n_blocks: int) -> list[int]:
        if n_blocks > self._nonzero:
            raise ValueError(
                f"cannot draw {n_blocks} distinct indices from "
                f"{self._nonzero} non-zero-weight items"
            )
        picks = rng.prepared_weighted_indices(self._p, n_blocks)
        return [self.pool[i] for i in picks]


@dataclass(frozen=True)
class BlockSelection:
    """A named block-sampling policy."""

    name: str
    #: callable(rng, n_blocks) -> list of block addresses
    sampler: Callable[[RngStream, int], list[int]]
    population: int

    def pick(self, rng: RngStream, n_blocks: int) -> list[int]:
        """Select ``n_blocks`` distinct blocks.

        When the population is smaller than ``n_blocks`` (e.g. the
        5-block experiment against A-Laplacian's 3 hot blocks) every
        block in the population is faulted instead — the maximum
        injectable damage for that space.
        """
        if n_blocks <= 0:
            raise ConfigError("must select at least one block")
        n_blocks = min(n_blocks, self.population)
        addrs = self.sampler(rng, n_blocks)
        if len(set(addrs)) != n_blocks:
            raise ConfigError(f"{self.name}: sampler returned duplicates")
        return addrs


def uniform_selection(addrs: Sequence[int], name: str = "uniform") \
        -> BlockSelection:
    """Uniform sampling without replacement from a fixed block set."""
    pool = sorted(set(addrs))
    if not pool:
        raise ConfigError(f"{name}: empty block population")
    return BlockSelection(name, UniformSampler(pool), len(pool))


def hot_selection(hot_addrs: Sequence[int]) -> BlockSelection:
    """Uniform over the hot memory blocks (Fig 5, hot arm)."""
    return uniform_selection(hot_addrs, name="hot-blocks")


def rest_selection(rest_addrs: Sequence[int]) -> BlockSelection:
    """Uniform over the non-hot blocks (Fig 5, rest arm)."""
    return uniform_selection(rest_addrs, name="rest-blocks")


def _weighted(counts: dict[int, int], name: str) -> BlockSelection:
    items = sorted(
        (addr, count) for addr, count in counts.items() if count > 0
    )
    if not items:
        raise ConfigError(f"{name} selection: no weighted blocks")
    pool = [addr for addr, _count in items]
    weights = [count for _addr, count in items]
    return BlockSelection(name, WeightedSampler(pool, weights), len(pool))


def miss_weighted_selection(miss_counts: dict[int, int]) -> BlockSelection:
    """Probability proportional to simulated per-block L1 misses.

    This is the literal Fig 8 policy.  Note the scale caveat: at this
    repo's reduced input sizes the hot objects fit comfortably in the
    16KB L1 (at the paper's sizes they are commensurate with it and
    thrash), so the literal policy starves hot blocks of faults.  The
    evaluation benches therefore default to
    :func:`access_weighted_selection`; see DESIGN.md.
    """
    return _weighted(miss_counts, "miss-weighted")


def access_weighted_selection(
    read_counts: dict[int, int]
) -> BlockSelection:
    """Probability proportional to per-block read transactions.

    Equivalent to the Fig 8 miss-weighted policy under the paper-scale
    assumption that the L1 is thrashed by streaming data (every read
    transaction is then an L2/DRAM fetch, i.e. a fault-exposure
    event).  This restores, at reduced scale, the exposure pattern the
    paper's full-size workloads have.
    """
    return _weighted(read_counts, "access-weighted")


# ----------------------------------------------------------------------
# Stratified sampling over fault sites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Stratum:
    """One disjoint slice of the fault-site population.

    ``weight`` is the stratum's share of the target exposure
    distribution (e.g. its fraction of all read transactions) — the
    ``W_h`` that recombines per-stratum tallies into an unbiased
    overall estimate via
    :func:`repro.utils.stats.stratified_interval`.
    """

    name: str
    weight: float
    selection: BlockSelection


class StratifiedSampler:
    """Capacity-aware two-stage draws over disjoint strata.

    Each of the ``n_blocks`` slots first draws a stratum with
    probability proportional to the stratum weights (a stratum whose
    remaining capacity is exhausted drops out of the draw), then the
    per-stratum counts are realized with each stratum's own
    without-replacement sampler.  All draws consume the one ``rng``
    stream sequentially, so outcomes are a pure function of the run
    seed — stratification changes *where* faults land, never breaks
    the campaign's determinism contract.  Picklable, like the flat
    samplers.
    """

    def __init__(self, strata: Sequence[Stratum]):
        self.strata = tuple(strata)

    def __call__(self, rng: RngStream, n_blocks: int) -> list[int]:
        caps = [s.selection.population for s in self.strata]
        counts = [0] * len(caps)
        for _ in range(n_blocks):
            weights = [
                s.weight if counts[i] < caps[i] else 0.0
                for i, s in enumerate(self.strata)
            ]
            counts[rng.weighted_index(weights)] += 1
        picks: list[int] = []
        for count, stratum in zip(counts, self.strata):
            if count:
                picks.extend(stratum.selection.pick(rng, count))
        return picks


@dataclass(frozen=True)
class StratifiedSelection(BlockSelection):
    """A block selection partitioned into named, weighted strata.

    Behaves exactly like any :class:`BlockSelection` toward the
    campaign; additionally exposes the strata and an address →
    stratum-index resolver so per-stratum tallies can be rebuilt from
    run records after the fact.
    """

    strata: tuple[Stratum, ...] = field(default=())

    def stratum_of(self, addr: int) -> int:
        """Index of the stratum whose pool holds block ``addr``."""
        mapping = self.__dict__.get("_addr_stratum")
        if mapping is None:
            mapping = {}
            for i, stratum in enumerate(self.strata):
                for a in stratum.selection.sampler.pool:
                    mapping[a] = i
            object.__setattr__(self, "_addr_stratum", mapping)
        try:
            return mapping[addr]
        except KeyError:
            raise ConfigError(
                f"{self.name}: block {addr:#x} is in no stratum"
            ) from None


def stratified_selection(
    strata: Sequence[Stratum], name: str = "stratified"
) -> StratifiedSelection:
    """Compose disjoint strata into one selection policy.

    Every stratum's underlying sampler must expose its block ``pool``
    (all policies in this module do); pools must be pairwise disjoint
    so each fault site belongs to exactly one stratum and the
    recombined estimate stays unbiased.
    """
    strata = tuple(strata)
    if not strata:
        raise ConfigError(f"{name}: no strata")
    seen: set[int] = set()
    population = 0
    total_weight = 0.0
    for stratum in strata:
        if stratum.weight < 0:
            raise ConfigError(
                f"{name}: stratum {stratum.name!r} has negative weight"
            )
        total_weight += stratum.weight
        pool = getattr(stratum.selection.sampler, "pool", None)
        if pool is None:
            raise ConfigError(
                f"{name}: stratum {stratum.name!r} sampler exposes no "
                "block pool"
            )
        overlap = seen.intersection(pool)
        if overlap:
            raise ConfigError(
                f"{name}: stratum {stratum.name!r} overlaps an earlier "
                f"stratum at block {min(overlap):#x}"
            )
        seen.update(pool)
        population += stratum.selection.population
    if total_weight <= 0:
        raise ConfigError(f"{name}: stratum weights must not all be zero")
    return StratifiedSelection(
        name, StratifiedSampler(strata), population, strata
    )


def stratify_by_object(
    read_counts: dict[int, int],
    objects: Iterable,
    name: str = "stratified",
) -> StratifiedSelection:
    """One stratum per data object, weighted by its read share.

    Within a stratum blocks are drawn access-weighted, so the overall
    exposure distribution matches :func:`access_weighted_selection`
    while every object is guaranteed proportional representation —
    the variance-reduction move for campaigns whose SDC rates differ
    strongly between objects.
    """
    strata = []
    for obj in objects:
        end = obj.base_addr + obj.n_blocks * BLOCK_BYTES
        counts = {
            addr: count for addr, count in read_counts.items()
            if obj.base_addr <= addr < end and count > 0
        }
        if not counts:
            continue
        strata.append(Stratum(
            obj.name,
            float(sum(counts.values())),
            _weighted(counts, f"object:{obj.name}"),
        ))
    if not strata:
        raise ConfigError(f"{name}: no object has read-weighted blocks")
    return stratified_selection(strata, name)
