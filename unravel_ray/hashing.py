"""Vectorized 64-bit string hashing over Arrow buffers.

Every keyed exchange (``relational._key_hash`` in hash_exchange, which
hash_join co-groups through) needs a partitioning hash over string keys that is

  * a pure function of the VALUE (same bucket on both join sides, at any
    parallelism, in any batch) — never of position or batch layout;
  * fully vectorized — no per-row Python;
  * only used for PLACEMENT, so the exact function is free to change —
    join/dedup OUTPUT values never depend on which bucket a row rode in.

Implementation: a segmented polynomial fold over the raw UTF-8 buffer,
``h(s) = Σ byte[i] · P^i  (mod 2^64)`` computed for every row at once via
a wraparound cumsum difference (no reduceat — empty strings fall out as
0 naturally), then a splitmix64-style finalizer with the length mixed in.
All numpy uint64; per-batch cost is O(total bytes), zero Python loops.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(1099511628211)          # FNV-1a prime as the poly base
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)  # splitmix64 finalizer constants
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * _MIX1
    h = (h ^ (h >> np.uint64(27))) * _MIX2
    return h ^ (h >> np.uint64(31))


_CHUNK_BYTES = 1 << 26  # 64 MiB of flattened payload per kernel pass


def hash_strings(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 value-hash of a string/binary Arrow array, vectorized.

    Nulls and empty strings hash to the same (finalized-zero) constant;
    join semantics never compare null keys, so placement is all that
    matters. Dictionary arrays are hashed through their decoded values.

    Scratch memory: the segmented fold materializes several
    O(total_bytes) int64 temporaries (~40x the UTF-8 payload). Intended
    for SHORT values — join keys, grams, bucket tags; when a batch's
    flattened payload exceeds ``_CHUNK_BYTES`` (long-text columns), rows
    are processed in bounded slices so peak scratch stays flat
    (ADVICE r4).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    elif pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    else:
        raise TypeError(f"hash_strings: unsupported type {arr.type}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], off_dtype,
                            count=arr.offset + n + 1)[arr.offset:]
    starts = offsets[:-1].astype(np.int64)
    lens = (offsets[1:].astype(np.int64) - starts)
    if arr.null_count:
        # null slots may carry garbage offsets in theory; force length 0
        valid = ~np.asarray(arr.is_null())
        lens = np.where(valid, lens, 0)
    total = int(lens.sum())
    if total == 0:
        return _splitmix(lens.astype(np.uint64))
    if total > _CHUNK_BYTES and n > 1:
        # bounded-scratch path for long values: recurse on row slices
        # whose payload fits the chunk budget (a single over-budget row
        # still processes alone — n > 1 guards the recursion)
        cum = np.cumsum(lens)
        out = np.empty(n, np.uint64)
        prev = 0
        while prev < n:
            base = int(cum[prev - 1]) if prev else 0
            # largest b with slice payload (cum[b-1] - base) <= budget
            b = int(np.searchsorted(cum, base + _CHUNK_BYTES, side="right"))
            b = min(max(b, prev + 1), n)
            out[prev:b] = hash_strings(arr.slice(prev, b - prev))
            prev = b
        return out
    data = np.frombuffer(bufs[2], np.uint8, count=int(bufs[2].size))
    seg0 = np.concatenate(([0], np.cumsum(lens)[:-1]))         # flat starts
    flat_pos = np.arange(total, dtype=np.int64) - np.repeat(seg0, lens)
    src = np.repeat(starts, lens) + flat_pos
    maxlen = int(lens.max())
    pw = np.empty(maxlen, np.uint64)
    pw[0] = np.uint64(1)
    if maxlen > 1:
        np.cumprod(np.full(maxlen - 1, _P, np.uint64), out=pw[1:])
    weighted = data[src].astype(np.uint64) * pw[flat_pos]
    cs = np.concatenate(([np.uint64(0)], np.cumsum(weighted, dtype=np.uint64)))
    seg_end = seg0 + lens
    h = cs[seg_end] - cs[seg0]          # wraparound-safe segment sums
    return _splitmix(h * _P + lens.astype(np.uint64))
