import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder.util import count_distinct_rows, group_keys, pack_rows


def reference_codes(arr):
    """Mixed-radix codes over per-column ranges, last column least significant."""
    rows = [tuple(int(x) for x in row) for row in arr]
    d = len(rows[0])
    mins = [min(r[c] for r in rows) for c in range(d)]
    ranges = [max(r[c] for r in rows) - mins[c] + 1 for c in range(d)]
    strides = [math.prod(ranges[c + 1 :]) for c in range(d)]
    return [sum((r[c] - mins[c]) * strides[c] for c in range(d)) for r in rows]


def random_rows(seed, n, d, lo, hi):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=(n, d), dtype=np.int64)


CASES = [
    random_rows(1, 500, 1, -40, 40),
    random_rows(2, 3000, 2, -30, 10),  # negative coordinates, many repeats
    random_rows(3, 3000, 3, -7, 8),
    random_rows(4, 200, 2, -(10**9), 10**9),  # wide ranges, few repeats
    np.array([[-3, 5]], dtype=np.int64),  # single row
    np.array([[2, -1, 4]] * 6, dtype=np.int64),  # one row repeated
    np.array([[0], [-1], [0], [5], [-1]], dtype=np.int64),
]


@pytest.mark.parametrize("arr", CASES, ids=lambda a: f"n{a.shape[0]}d{a.shape[1]}")
def test_count_distinct_rows_matches_set_of_tuples(arr):
    expected = len({tuple(int(x) for x in row) for row in arr})
    assert count_distinct_rows(arr) == expected


def code_space(arr):
    """prod(ranges): the number of cells in the rows' bounding box."""
    return math.prod(int(arr[:, c].max()) - int(arr[:, c].min()) + 1 for c in range(arr.shape[1]))


@pytest.mark.parametrize("arr", CASES, ids=lambda a: f"n{a.shape[0]}d{a.shape[1]}")
def test_pack_rows_is_mixed_radix_over_column_ranges(arr):
    codes = pack_rows(arr)
    assert codes.dtype == np.min_scalar_type(code_space(arr) - 1)
    assert codes.tolist() == reference_codes(arr)
    # equal codes exactly when rows are equal
    pairs = {(int(c), tuple(int(x) for x in row)) for c, row in zip(codes, arr)}
    assert len({c for c, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)


def box_rows(seed, ranges, base):
    """Both corners of the box base + [0, ranges) and 200 random rows in it."""
    lo, hi = np.array(base), np.array(base) + ranges - 1
    inner = np.random.default_rng(seed).integers(lo, hi, size=(200, len(ranges)), endpoint=True)
    return np.concatenate([[lo, hi], inner, inner[:20]]).astype(np.int64)


@pytest.mark.parametrize("ranges, dtype", [
    ((16, 16), np.uint8),
    ((256,), np.uint8),  # one column as wide as the dtype
    ((1, 256), np.uint8),  # its radix, 2^8, wraps to 0 in uint8
    ((16, 17), np.uint16),
    ((257,), np.uint16),
    ((256, 256), np.uint16),
    ((2, 1, 32768), np.uint16),
    ((256, 257), np.uint32),
    ((65536, 65536), np.uint32),
    ((1, 2**32), np.uint32),
    ((65536, 65537), np.uint64),
    ((3, 2**31, 2**29 - 1), np.uint64),  # just below 2^62
])
@pytest.mark.parametrize("base", [0, -(2**40), 2**62])
def test_pack_rows_in_the_smallest_unsigned_dtype(ranges, dtype, base):
    arr = box_rows(len(ranges), np.array(ranges), [base - r // 2 for r in ranges])
    assert code_space(arr) == math.prod(ranges)
    codes = pack_rows(arr)
    assert codes.dtype == dtype
    assert codes.tolist() == reference_codes(arr)
    assert codes.max() == math.prod(ranges) - 1
    assert count_distinct_rows(arr) == len({tuple(row) for row in arr.tolist()})


def test_pack_rows_rejects_empty_and_non_matrix_input():
    assert pack_rows(np.zeros((0, 2), dtype=np.int64)) is None
    assert pack_rows(np.arange(4)) is None
    assert count_distinct_rows(np.zeros((0, 2), dtype=np.int64)) == 0


def test_overflow_falls_back_to_exact_count():
    big = 2**31
    # column ranges 2^31 * 2^31 = 2^62: too wide to pack
    arr = np.array(
        [[0, 0], [big - 1, big - 1], [0, big - 1], [big - 1, 0], [0, 0], [0, big - 1]],
        dtype=np.int64,
    )
    assert pack_rows(arr) is None
    assert count_distinct_rows(arr) == 4
    # one less in a single range fits, and the largest code is exact
    fits = arr.copy()
    fits[fits[:, 1] == big - 1, 1] = big - 2
    codes = pack_rows(fits)
    assert codes is not None
    assert codes.tolist() == reference_codes(fits)
    assert int(codes.max()) == (big - 1) * (big - 1) + (big - 2)
    assert count_distinct_rows(fits) == 4


def test_pack_rows_exact_where_partial_codes_wrap():
    top = 2**63 - 1
    # codes * range + col passes 2^63 before -= min brings each code back
    arr = np.array([[0, top], [3, top - 2], [1, top], [3, top - 1]], dtype=np.int64)
    assert pack_rows(arr).tolist() == reference_codes(arr) == [2, 9, 5, 10]
    assert count_distinct_rows(arr) == 4


def test_overflow_with_extreme_coordinates():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    arr = np.array([[lo, 1], [hi, 1], [lo, 1], [0, -1]], dtype=np.int64)
    assert pack_rows(arr) is None
    assert count_distinct_rows(arr) == 3


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.int64, np.uint8, np.uint16]))
def test_group_keys_matches_np_unique(data, dtype):
    info = np.iinfo(dtype)
    lo = data.draw(st.integers(int(info.min), int(info.max)))
    hi = data.draw(st.integers(lo, min(int(info.max), lo + 40)))
    keys = np.array(data.draw(st.lists(st.integers(lo, hi), max_size=60)), dtype=dtype)
    first, inverse, counts = group_keys(keys)
    _, want_first, want_inverse, want_counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    assert first.tolist() == want_first.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    assert counts.tolist() == want_counts.tolist()


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_group_keys_of_no_keys(dtype):
    assert [a.size for a in group_keys(np.array([], dtype=dtype))] == [0, 0, 0]
