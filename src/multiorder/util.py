"""Small shared helpers: seeded RNG plumbing and exact integer row packing."""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

SeedLike = "int | np.random.SeedSequence | np.random.Generator"


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


def pack_rows(arr: np.ndarray):
    """Injectively encode integer rows as int64 scalars, or None on overflow.

    Packing is exact (mixed-radix over per-column ranges, last column least
    significant), so equality of codes is equality of rows.
    """
    arr = np.asarray(arr, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        return None
    cols = [arr[:, c] for c in range(arr.shape[1])]
    mins = [int(col.min()) for col in cols]
    ranges = [int(col.max()) - m + 1 for col, m in zip(cols, mins)]
    if math.prod(ranges) >= 2**62:
        return None
    codes = np.zeros(arr.shape[0], dtype=np.int64)
    for col, m, r in zip(cols, mins, ranges):
        codes = codes * r + (col - m)
    return codes


def row_codes(arr: np.ndarray) -> np.ndarray:
    """Int64 codes below 2^62, equal exactly when rows are (packed, else np.unique's inverse)."""
    codes = pack_rows(arr)
    if codes is None:
        codes = np.unique(np.asarray(arr, dtype=np.int64), axis=0, return_inverse=True)[1]
    return codes.reshape(-1)


def count_distinct_rows(arr: np.ndarray) -> int:
    """Distinct rows of an integer array: row codes, sorted and compared
    with their neighbours (np.unique hashes int64 input on numpy 2.4, slower)."""
    codes = np.sort(row_codes(arr))
    return int(codes.size > 0) + int(np.count_nonzero(codes[1:] != codes[:-1]))
