"""Small shared helpers: seeded RNG plumbing, exact integer row packing and
grouping equal keys.

Packed row codes, like ``process.sample_codes``' block codes, come in the
smallest unsigned dtype that holds the code space (``np.min_scalar_type``),
so sorting them moves no more bytes than the codes need."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def _seed_sequence(seed) -> np.random.SeedSequence:
    """The seed as a SeedSequence; InputError for one numpy rejects (say, < 0)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}") from None


def make_rng(seed) -> np.random.Generator:
    """Build a Generator from an int seed, a SeedSequence, or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_seed_sequence(seed))


def child_seed(seed, i: int) -> np.random.SeedSequence:
    """The i-th child SeedSequence, derived statelessly.

    Unlike SeedSequence.spawn this never advances a counter, so deriving
    child i twice gives the same stream; repeated estimator calls with one
    seed are bit-identical.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("cannot derive children from a live Generator; pass a seed")
    seq = _seed_sequence(seed)
    return np.random.SeedSequence(seq.entropy, spawn_key=tuple(seq.spawn_key) + (int(i),))


def spawn_seeds(seed, n: int) -> list:
    """Derive n independent child SeedSequences deterministically."""
    return [child_seed(seed, i) for i in range(n)]


def box_codes(arr: np.ndarray, lo, ranges, dtype) -> np.ndarray:
    """Mixed-radix codes of the rows of an (n, d) int64 array lying in the
    box lo + [0, ranges) (Python ints per column, last column least
    significant), in an unsigned dtype that holds every code.

    Built in place in dtype: unsigned arithmetic is exact modulo 2^bits and
    every final code is below prod(ranges), so a wrap of a partial code (or
    of a column cast to dtype) is undone by the end.
    """
    wrap = 1 << 8 * np.dtype(dtype).itemsize
    codes, base = arr[:, 0].astype(dtype), lo[0]
    for c in range(1, len(lo)):
        codes *= ranges[c] % wrap
        codes += arr[:, c].astype(dtype)
        base = base * ranges[c] + lo[c]
    codes -= base % wrap
    return codes


def pack_rows(arr: np.ndarray):
    """Injectively encode integer rows as codes of the smallest unsigned dtype
    holding prod(ranges) - 1, or None when prod(ranges) reaches 2^62.

    Packing is exact (``box_codes`` over the rows' bounding box: mixed radix
    over per-column ranges), so equality of codes is equality of rows.
    """
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        return None
    cols = [arr[:, c] for c in range(arr.shape[1])]
    lo = [int(col.min()) for col in cols]
    ranges = [int(col.max()) - m + 1 for col, m in zip(cols, lo)]
    size = math.prod(ranges)
    if size >= 2**62:
        return None
    return box_codes(arr, lo, ranges, np.min_scalar_type(size - 1))


def row_codes(arr: np.ndarray) -> np.ndarray:
    """Codes equal exactly when rows are: ``pack_rows``' narrow unsigned
    codes, else (a code space of 2^62 or more) np.unique's int64 inverse."""
    codes = pack_rows(arr)
    if codes is None:
        codes = np.unique(np.asarray(arr, dtype=np.int64), axis=0, return_inverse=True)[1]
    return codes.reshape(-1)


def count_distinct_rows(arr: np.ndarray) -> int:
    """Distinct rows of an integer array: row codes (8 to 64 bits wide, as
    the code space needs), sorted and compared with their neighbours
    (np.unique hashes int64 input on numpy 2.4, slower)."""
    codes = np.sort(row_codes(arr))
    return int(codes.size > 0) + int(np.count_nonzero(codes[1:] != codes[:-1]))


def group_keys(keys: np.ndarray):
    """Group equal keys with one stable argsort: each group's first index
    into keys, each key's group and each group's size, groups in key order
    (np.unique's return_index, return_inverse and return_counts)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(fresh)
    counts = np.diff(starts, append=len(keys))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.repeat(np.arange(len(starts)), counts)
    return order[starts], inverse, counts
