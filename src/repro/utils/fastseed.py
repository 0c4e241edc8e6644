"""Vectorized seed derivation and cheap Generator construction.

The batched propagation engine plans thousands of per-run fault draws
per second, and the reference planner pays two ``SeedSequence``
derivations plus two ``default_rng`` constructions per run — more time
than the draws themselves.  This module reimplements exactly the two pieces of
numpy that dominate that cost:

* :func:`derive_seeds` — ``SeedSequence(entropy=root,
  spawn_key=(k,)).generate_state(1, uint64) >> 1`` for a whole vector
  of keys at once (the entropy-pool hash runs as uint32 array sweeps
  across lanes);
* :func:`make_generator` — a ``Generator`` seeded identically to
  ``np.random.default_rng(seed)`` but built by injecting the PCG64
  state computed directly from the seed's entropy pool, which is
  roughly 10x cheaper than the constructor.

Both are *emulations* of numpy internals, so they are trusted only
after :func:`self_check` has compared them against the real
implementation in this process; callers must fall back to the
reference planner when it fails.  The check is cheap and runs once per process.

:func:`weighted_choice` mirrors ``Generator.choice(n, size=k,
replace=False, p=p)`` draw-for-draw (the same uniform variates are
consumed from the generator), because numpy's implementation of that
call carries large constant overhead per invocation.
"""

from __future__ import annotations

import numpy as np

#: SeedSequence entropy-pool constants (numpy _bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

#: PCG64 LCG multiplier; seeding performs two LCG steps around the
#: initial-state addition (O'Neill's pcg64_srandom).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _int_to_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words (numpy's coercion)."""
    if value < 0:
        raise ValueError("seed entropy must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hash(value: np.ndarray, hash_const: np.uint32):
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A
    value = value * hash_const
    value = value ^ (value >> _XSHIFT)
    return value, hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _entropy_pool(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Run SeedSequence's ``mix_entropy`` over lane columns.

    ``columns[i]`` holds assembled-entropy word ``i`` for every lane;
    the pool state comes back as ``_POOL_SIZE`` lane columns.
    """
    n = columns[0].shape[0]
    zero = np.zeros(n, np.uint32)
    pool: list[np.ndarray] = [zero] * _POOL_SIZE
    hash_const = _INIT_A
    for i in range(_POOL_SIZE):
        src = columns[i] if i < len(columns) else zero
        pool[i], hash_const = _hash(src, hash_const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, hash_const = _hash(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], hashed)
    for i_src in range(_POOL_SIZE, len(columns)):
        for i_dst in range(_POOL_SIZE):
            hashed, hash_const = _hash(columns[i_src], hash_const)
            pool[i_dst] = _mix(pool[i_dst], hashed)
    return pool


def _generate_state(pool: list[np.ndarray], n_uint32: int) \
        -> list[np.ndarray]:
    """SeedSequence's ``generate_state`` output words, per lane."""
    out: list[np.ndarray] = []
    hash_const = _INIT_B
    for i in range(n_uint32):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B
        value = value * hash_const
        value = value ^ (value >> _XSHIFT)
        out.append(value)
    return out


def _uint64_pairs(words: list[np.ndarray]) -> list[np.ndarray]:
    """Combine uint32 lane columns into little-endian uint64 columns."""
    return [
        words[2 * i].astype(np.uint64)
        | (words[2 * i + 1].astype(np.uint64) << np.uint64(32))
        for i in range(len(words) // 2)
    ]


def derive_seeds(root_seed: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.utils.rng.derive_seed` over ``keys``.

    Equals ``[derive_seed(root_seed, int(k)) for k in keys]`` bit for
    bit.  ``keys`` must be non-negative and fit in uint32 (run and
    child indices always do).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size and int(keys.max()) >> 32:
        raise ValueError("spawn keys must fit in 32 bits")
    root_words = _int_to_words(root_seed)
    # With a spawn key present, SeedSequence pads the entropy words to
    # the pool size before appending the key words.
    while len(root_words) < _POOL_SIZE:
        root_words.append(0)
    n = keys.shape[0]
    columns = [np.full(n, w, np.uint32) for w in root_words]
    columns.append(keys.astype(np.uint32))
    with np.errstate(over="ignore"):
        pool = _entropy_pool(columns)
        words = _generate_state(pool, 2)
        (combined,) = _uint64_pairs(words)
    return combined >> np.uint64(1)


def derive_child_seeds(seeds: np.ndarray, key: int) -> np.ndarray:
    """Vectorized ``derive_seed(seed, key)`` over per-lane parent seeds.

    ``seeds`` are 63-bit derived seeds (two entropy words, padded to
    the pool size exactly as :func:`derive_seeds` pads the root).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if key < 0 or key >> 32:
        raise ValueError("spawn keys must fit in 32 bits")
    n = seeds.shape[0]
    zero = np.zeros(n, np.uint32)
    columns = [
        (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
        (seeds >> np.uint64(32)).astype(np.uint32),
        zero,
        zero,
        np.full(n, key, np.uint32),
    ]
    with np.errstate(over="ignore"):
        pool = _entropy_pool(columns)
        words = _generate_state(pool, 2)
        (combined,) = _uint64_pairs(words)
    return combined >> np.uint64(1)


def generator_state_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, uint64)`` per lane.

    Returns four uint64 lane columns — the words PCG64 is seeded from.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    # A seed below 2**32 coerces to one entropy word and the pool is
    # zero-filled past it; hashing an explicit hi word of zero is
    # identical, so one shape covers both cases.
    with np.errstate(over="ignore"):
        pool = _entropy_pool([lo, hi])
        words = _generate_state(pool, 8)
        return _uint64_pairs(words)


def pcg64_state(w0: int, w1: int, w2: int, w3: int) -> tuple[int, int]:
    """PCG64 (state, inc) seeded from its four ``generate_state`` words."""
    initstate = (w0 << 64) | w1
    initseq = (w2 << 64) | w3
    inc = ((initseq << 1) | 1) & _MASK128
    state = inc  # first LCG step from state 0: 0 * MULT + inc
    state = (state + initstate) & _MASK128
    state = (state * _PCG64_MULT + inc) & _MASK128
    return state, inc


def reseed(
    bit_generator: np.random.PCG64, w0: int, w1: int, w2: int, w3: int
) -> None:
    """Re-seed an existing PCG64 in place from four state words.

    State injection costs ~2us versus ~30us for constructing a fresh
    bit generator, so a batch planner keeps one PCG64 (and one
    Generator wrapping it) and re-seeds it per lane — lanes draw
    sequentially, never concurrently.
    """
    state, inc = pcg64_state(w0, w1, w2, w3)
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def make_generator(w0: int, w1: int, w2: int, w3: int) \
        -> np.random.Generator:
    """A Generator bitwise-identical to ``default_rng(seed)`` whose
    SeedSequence produced these four state words."""
    bit_generator = np.random.PCG64(0)
    reseed(bit_generator, w0, w1, w2, w3)
    return np.random.Generator(bit_generator)


def weighted_choice(
    generator: np.random.Generator, p: np.ndarray, k: int
) -> list[int]:
    """Exact emulation of ``generator.choice(p.size, size=k,
    replace=False, p=p)`` for pre-normalized ``p``.

    Consumes the generator state identically to the real call (same
    uniform draws in the same order), so a campaign may mix this with
    the reference planner without perturbing reproducibility.
    """
    n_uniq = 0
    p = p.copy()
    found = np.zeros(k, dtype=np.int64)
    while n_uniq < k:
        x = generator.random((k - n_uniq,))
        if n_uniq > 0:
            p[found[0:n_uniq]] = 0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        new = cdf.searchsorted(x, side="right")
        _, unique_indices = np.unique(new, return_index=True)
        unique_indices.sort()
        new = new.take(unique_indices)
        found[n_uniq:n_uniq + new.size] = new
        n_uniq += new.size
    return [int(i) for i in found]


_SELF_CHECK: bool | None = None


def self_check() -> bool:
    """Whether the emulations match this process's numpy, verified once.

    Exercises seed derivation, generator construction, and the
    weighted-choice emulation against the real implementations; any
    mismatch (a future numpy changing SeedSequence/PCG64/choice
    internals) disables the fast path rather than corrupting
    reproducibility.
    """
    global _SELF_CHECK
    if _SELF_CHECK is not None:
        return _SELF_CHECK
    try:
        _SELF_CHECK = _run_self_check()
    except Exception:
        _SELF_CHECK = False
    return _SELF_CHECK


def _run_self_check() -> bool:
    from repro.utils.rng import derive_seed

    roots = [0, 20210621, 2**31 - 1, 2**40 + 12345]
    keys = np.array([0, 1, 7, 1023, 2**31], dtype=np.uint64)
    for root in roots:
        fast = derive_seeds(root, keys)
        for i, key in enumerate(keys):
            if int(fast[i]) != derive_seed(root, int(key)):
                return False
    seeds = derive_seeds(20210621, np.arange(8, dtype=np.uint64))
    for key in (0, 3):
        children = derive_child_seeds(seeds, key)
        for i in range(seeds.shape[0]):
            if int(children[i]) != derive_seed(int(seeds[i]), key):
                return False
    words = generator_state_words(seeds)
    for i in range(seeds.shape[0]):
        fast_gen = make_generator(*(int(w[i]) for w in words))
        ref_gen = np.random.default_rng(int(seeds[i]))
        if not np.array_equal(fast_gen.random(4), ref_gen.random(4)):
            return False
        if int(fast_gen.integers(0, 32)) != int(ref_gen.integers(0, 32)):
            return False
    p = np.abs(np.sin(np.arange(1, 301, dtype=np.float64)))
    p /= p.sum()
    for seed in (3, 99, 4242):
        for k in (1, 3):
            ref_gen = np.random.default_rng(seed)
            fast_gen = np.random.default_rng(seed)
            want = [int(i) for i in
                    ref_gen.choice(p.size, size=k, replace=False, p=p)]
            if weighted_choice(fast_gen, p, k) != want:
                return False
            if not np.array_equal(ref_gen.random(2), fast_gen.random(2)):
                return False
    return True
