import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder import folner, groups, orders, process, tiling
from multiorder.errors import (
    DimensionMismatchError,
    InputError,
    InvalidIncrementsError,
    OutOfWindowError,
)
from multiorder.groups import GroupSpec
from multiorder.orders import Comparison, IncrementWindow, OrderWindow

LINE = GroupSpec.line()
GRID = GroupSpec.grid(2)


def natural_window(lo, hi):
    return OrderWindow(LINE, lo, hi, [(i,) for i in range(lo, hi + 1)])


def alternating_window():
    spec = tiling.builtin("dyadic_alternating")
    return tiling.expand(tiling.Address(spec, 2, "I", (1, 2)))


def sampled_windows(name, level, count, seed):
    spec = tiling.builtin(name)
    out = []
    for i, sub in enumerate(np.random.SeedSequence(seed).spawn(count)):
        out.append(tiling.expand(tiling.sample_address(spec, level, sub)))
    return out


def test_window_validation():
    with pytest.raises(InputError):
        OrderWindow(LINE, 1, 3, [(1,), (2,), (3,)])  # must contain position 0
    with pytest.raises(InputError):
        OrderWindow(LINE, 0, 1, [(5,), (6,)])  # cell(0) not identity
    with pytest.raises(InputError):
        OrderWindow(LINE, -1, 1, [(1,), (0,), (1,)])  # repeated cell
    with pytest.raises(InputError):
        OrderWindow(LINE, 0, 2, [(0,), (1,)])  # wrong count


def test_windows_spanning_2_to_the_63_are_refused():
    top = (1 << 63) - 1
    with pytest.raises(InputError, match="window cells must span less than 2\\^63"):
        OrderWindow(LINE, -1, 1, [(-top - 1,), (0,), (top,)])
    with pytest.raises(InputError, match="increments rebuild must span less than 2\\^63"):
        IncrementWindow(GRID, -1, 1, [(0, top), (0, top)])
    with pytest.raises(InputError, match="increments rebuild"):
        IncrementWindow(LINE, 0, 2, [(top,), (1,)])  # the last cell would be 2^63
    # a span of 2^63 - 1 is kept exactly by increments, act and the rebuild
    w = OrderWindow(GRID, -1, 1, [(-(1 << 62), 5), (0, 0), ((1 << 62) - 1, -5)])
    iw = orders.to_increments(w)
    assert iw.incr(-1) == (1 << 62, -5) and iw.incr(0) == ((1 << 62) - 1, -5)
    assert IncrementWindow(GRID, -1, 1, iw.array.tolist()) == iw
    assert orders.from_increments(iw) == w
    assert orders.act(w, w.cell(1)).cell(-2) == (-top, 10)


def test_succ_and_compare_on_alternating_example():
    w = alternating_window()
    assert orders.interval(w, w.lo, w.hi) == [(1,), (0,), (3,), (2,)]
    assert orders.succ(w, (0,)) == (3,)
    assert orders.succ(w, (1,)) == (0,)
    assert orders.compare(w, (1,), (0,)) is Comparison.LESS
    assert orders.compare(w, (2,), (3,)) is Comparison.GREATER
    assert orders.compare(w, (3,), (3,)) is Comparison.EQUAL
    with pytest.raises(OutOfWindowError):
        orders.succ(w, (2,))  # position hi has no in-window successor
    with pytest.raises(OutOfWindowError):
        orders.compare(w, (1,), (9,))


def test_increments_of_alternating_example():
    w = alternating_window()
    iw = orders.to_increments(w)
    assert iw.incr(-1) == (-1,)  # cell 1 -> 0
    assert iw.incr(0) == (3,)  # cell 0 -> 3
    assert iw.incr(1) == (-1,)  # cell 3 -> 2
    with pytest.raises(OutOfWindowError):
        iw.incr(2)


def test_from_increments_anchors_at_identity():
    iw = IncrementWindow(LINE, 0, 2, [(3,), (-1,)])
    w = orders.from_increments(iw)
    assert orders.interval(w, w.lo, w.hi) == [(0,), (3,), (2,)]
    assert w.cell(0) == (0,)


def test_from_increments_rejects_revisit():
    iw = IncrementWindow(LINE, 0, 2, [(1,), (-1,)])
    with pytest.raises(InvalidIncrementsError):
        orders.from_increments(iw)


def large_hilbert_window():
    """An expanded Hilbert level-7 address: 16384 cells."""
    (w,) = sampled_windows("hilbert", 7, 1, seed=4242)
    assert len(w) == 16384
    return w


def test_index_of_scan_on_large_window():
    w = large_hilbert_window()
    rng = np.random.default_rng(8)
    probes = [w.lo, -1, 0, 1, w.hi] + [int(p) for p in rng.integers(w.lo, w.hi + 1, 200)]
    for pos in probes:
        if w.lo <= pos <= w.hi:
            assert w.index_of(w.cell(pos)) == pos
            assert w.contains(w.cell(pos))
    # same first coordinate as a window cell, second coordinate just outside
    top = int(w.array[:, 1].max())
    missing = (int(w.array[0, 0]), top + 1)
    with pytest.raises(OutOfWindowError):
        w.index_of(missing)
    assert not w.contains(missing)
    with pytest.raises(OutOfWindowError):
        orders.act(w, missing)


def test_index_of_same_for_tuple_and_array_elements():
    w = large_hilbert_window()
    rng = np.random.default_rng(12)
    for pos in rng.integers(w.lo, w.hi + 1, 20):
        row = w.array[pos - w.lo]
        as_tuple = tuple(int(x) for x in row)
        assert w.index_of(row) == w.index_of(as_tuple) == w.index_of(list(row)) == pos
    line = natural_window(-3, 4)
    assert line.index_of(np.int64(2)) == line.index_of(2) == line.index_of((2,)) == 2


def test_from_increments_rejects_revisit_on_large_grid_window():
    w = large_hilbert_window()
    incr = orders.to_increments(w).array.copy()
    incr[-1] = w.array[0] - w.array[-2]  # the last step lands on the first cell
    iw = IncrementWindow(GRID, w.lo, w.hi, incr)
    with pytest.raises(InvalidIncrementsError):
        orders.from_increments(iw)


@pytest.mark.parametrize(
    "name,level", [("dyadic_standard", 6), ("dyadic_alternating", 6), ("hilbert", 4)]
)
def test_round_trip_on_sampled_windows(name, level):
    for w in sampled_windows(name, level, 25, seed=707 + level):
        assert orders.from_increments(orders.to_increments(w)) == w


def test_act_on_natural_window():
    w = natural_window(-2, 2)
    w2 = orders.act(w, (1,))
    assert (w2.lo, w2.hi) == (-3, 1)
    assert w2.cell(0) == (0,)
    for i in range(w2.lo, w2.hi + 1):
        assert w2.cell(i) == (i,)


def test_act_identity_and_composition():
    for w in sampled_windows("hilbert", 4, 6, seed=11):
        e = groups.identity(w.group)
        assert orders.act(w, e) == w
        ks = [k for k in (-7, -1, 2, 5) if w.lo <= k <= w.hi]
        for k in ks:
            g = w.cell(k)
            w2 = orders.act(w, g)
            for m in (-1, 1, 3):
                if w2.lo <= m <= w2.hi:
                    h = w2.cell(m)
                    assert orders.act(w2, h) == orders.act(
                        w, groups.compose(w.group, h, g)
                    )


@pytest.mark.parametrize(
    "name,level", [("dyadic_standard", 6), ("dyadic_alternating", 6), ("hilbert", 4)]
)
def test_act_cocycle_identities(name, level):
    rng = np.random.default_rng(99)
    for w in sampled_windows(name, level, 10, seed=23 + level):
        for k in rng.integers(w.lo, w.hi + 1, size=4):
            k = int(k)
            g = w.cell(k)
            w2 = orders.act(w, g)
            assert (w2.lo, w2.hi) == (w.lo - k, w.hi - k)
            # position identity: cell'(i) = cell(i+k) * g^{-1}
            ginv = groups.inverse(w.group, g)
            for i in rng.integers(w2.lo, w2.hi + 1, size=6):
                i = int(i)
                assert w2.cell(i) == groups.compose(w.group, w.cell(i + k), ginv)
            # the inverse of the moved anchor sits at position -k
            assert w2.cell(-k) == ginv
            # relational form: a before b iff their translates stay ordered
            idx = rng.integers(w.lo, w.hi + 1, size=6)
            for a_i, b_i in zip(idx[::2], idx[1::2]):
                a, b = w.cell(int(a_i)), w.cell(int(b_i))
                a2 = groups.compose(w.group, a, ginv)
                b2 = groups.compose(w.group, b, ginv)
                assert orders.compare(w, a, b) is orders.compare(w2, a2, b2)


def test_inverse_of_successor_is_not_predecessor_in_general():
    # On the square system the order is not translation-like: there is a
    # window and a k with cell(k)^{-1} != cell(-k).
    found = False
    for w in sampled_windows("hilbert", 4, 20, seed=5):
        for k in (1, 2, 3):
            if w.lo <= -k and k <= w.hi:
                if groups.inverse(w.group, w.cell(k)) != w.cell(-k):
                    found = True
    assert found


def test_interval():
    w = alternating_window()
    assert orders.interval(w, -1, 2) == [(1,), (0,), (3,), (2,)]
    assert orders.interval(w, 0, 0) == [(0,)]
    assert orders.interval(w, 1, 0) == []
    with pytest.raises(OutOfWindowError):
        orders.interval(w, -2, 0)


def test_interval_view_behaves_like_the_tuple_list():
    w = sampled_windows("hilbert", 3, 1, seed=4)[0]
    rows = [tuple(r) for r in w.array.tolist()]
    for i, j in ((w.lo, w.hi), (-3, 5), (0, 0), (2, w.hi)):
        view, want = orders.interval(w, i, j), rows[i - w.lo: j - w.lo + 1]
        assert view == want and want == view and view == orders.interval(w, i, j)
        assert not (view != want) and not (want != view)
        other = want[:-1] + [(7, 7)]
        assert view != other and other != view and not (view == other)
        assert view != want[:-1] and view != tuple(want)
        assert len(view) == len(want) and repr(view) == repr(want)
        for k in range(-len(want), len(want)):
            assert view[k] == want[k]
        for sl in (slice(None), slice(1, -1), slice(-3, None), slice(None, None, -2),
                   slice(5, 2), slice(-100, 100, 3)):
            assert view[sl] == want[sl]
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                view[k]
        got = list(view)
        assert got == want and all(type(c) is tuple for c in got)
        assert all(type(x) is int for c in got for x in c)
        assert want[0] in view and view.index(want[-1]) == len(want) - 1
    empty = orders.interval(w, 1, 0)
    assert not empty and empty == [] and [] == empty and repr(empty) == "[]"
    assert empty.array.shape == (0, 2)


def test_interval_view_is_an_unhashable_read_only_window_slice():
    w = sampled_windows("hilbert", 3, 1, seed=4)[0]
    view = orders.interval(w, -2, 6)
    with pytest.raises(TypeError):
        hash(view)
    with pytest.raises(TypeError):
        {view}
    assert np.shares_memory(view.array, w.array)
    assert np.array_equal(view.array, w.rows(-2, 6)) and view.array.dtype == np.int64
    assert not view.array.flags.writeable
    with pytest.raises(ValueError):
        view.array[0, 0] = 1
    with pytest.raises(AttributeError):
        view.array = w.array
    assert groups.as_cell_array(w.group, view) is view.array
    with pytest.raises(DimensionMismatchError):
        groups.as_cell_array(GroupSpec.grid(3), view)


def test_array_readers_take_an_interval_view_without_tuples(monkeypatch):
    w = sampled_windows("hilbert", 4, 1, seed=8)[0]
    cross = folner.unit_cross(w.group)
    overlay = process.PeriodicOverlay(process.Bernoulli(w.group, (0.3, 0.7)), (2, 3))
    whole, mid, anchor = (orders.interval(w, i, j) for i, j in ((w.lo, w.hi), (-3, 4), (0, 0)))
    want = {
        "ratios": [folner.invariance_ratio(w.group, v.array.copy(), cross) for v in (whole, mid)],
        "growth": [folner.interval_growth(w, v.array.copy(), 2, side)
                   for v in (mid, anchor) for side in ("forward", "backward")],
        "codes": process.sample_codes(overlay, mid.array.copy(), 40, 3).tolist(),
    }

    def no_tuples(arr):
        raise AssertionError("groups.cell_tuples called")

    monkeypatch.setattr(groups, "cell_tuples", no_tuples)
    assert {
        "ratios": [folner.invariance_ratio(w.group, v, cross) for v in (whole, mid)],
        "growth": [folner.interval_growth(w, v, 2, side)
                   for v in (mid, anchor) for side in ("forward", "backward")],
        "codes": process.sample_codes(overlay, mid, 40, 3).tolist(),
    } == want


def test_json_round_trips():
    w = alternating_window()
    assert OrderWindow.from_json(w.to_json()) == w
    iw = orders.to_increments(w)
    assert IncrementWindow.from_json(iw.to_json()) == iw
    assert w != iw and iw != w
    # a ranking of the 3x3 box that is not its lexicographic order
    r = orders.OrderRanking(GRID, {tuple(c): 5 * i % 9
                                   for i, c in enumerate(groups.box(GRID, 1).tolist())})
    assert orders.OrderRanking.from_json(r.to_json()) == r


def test_window_json_rejects_gaps():
    w = alternating_window()
    obj = w.to_json()
    obj["cells"] = obj["cells"][:-1]
    with pytest.raises(InputError):
        OrderWindow.from_json(obj)


@st.composite
def injective_windows(draw):
    """Any injective window on Z or Z^2: distinct cells of a small box in
    any order, anchored at any position (every cell translated so that the
    anchor's cell is the identity)."""
    group = draw(st.sampled_from([LINE, GRID]))
    cells = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * group.d),
                          min_size=1, max_size=16, unique=True))
    anchor = draw(st.integers(0, len(cells) - 1))
    rows = np.array(cells, dtype=np.int64) - np.array(cells[anchor], dtype=np.int64)
    return OrderWindow(group, -anchor, len(cells) - 1 - anchor, rows.tolist())


@settings(max_examples=150, deadline=None)
@given(w=injective_windows())
def test_increments_and_json_round_trip_on_any_window(w):
    iw = orders.to_increments(w)
    for i in range(w.lo, w.hi):
        assert groups.compose(w.group, iw.incr(i), w.cell(i)) == w.cell(i + 1)
    assert orders.from_increments(iw) == w
    assert OrderWindow.from_json(json.loads(json.dumps(w.to_json()))) == w
    assert IncrementWindow.from_json(json.loads(json.dumps(iw.to_json()))) == iw


@settings(max_examples=150, deadline=None)
@given(w=injective_windows(), data=st.data())
def test_act_cocycle_on_any_window(w, data):
    k = data.draw(st.integers(w.lo, w.hi), label="k")
    m = data.draw(st.integers(w.lo - k, w.hi - k), label="m")
    moved = orders.act(w, w.cell(k))
    assert (moved.lo, moved.hi) == (w.lo - k, w.hi - k)
    assert orders.act(moved, moved.cell(m)) == orders.act(w, w.cell(k + m))


@settings(max_examples=150, deadline=None)
@given(w=injective_windows(), data=st.data())
def test_compare_and_succ_follow_positions_on_any_window(w, data):
    i = data.draw(st.integers(w.lo, w.hi), label="i")
    j = data.draw(st.integers(w.lo, w.hi), label="j")
    a, b = w.cell(i), w.cell(j)
    assert orders.compare(w, a, b) is Comparison((i > j) - (i < j))
    assert orders.compare(w, b, a).value == -orders.compare(w, a, b).value
    if i < w.hi:
        assert orders.succ(w, a) == w.cell(i + 1)
    else:
        with pytest.raises(OutOfWindowError):
            orders.succ(w, a)
