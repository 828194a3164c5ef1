import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multiorder import folner, groups, orders, tiling, util
from multiorder.errors import InputError, OutOfWindowError
from multiorder.groups import GroupSpec
from multiorder.orders import OrderWindow

LINE = GroupSpec.line()
GRID = GroupSpec.grid(2)


def natural_window(lo, hi):
    return OrderWindow(LINE, lo, hi, [(i,) for i in range(lo, hi + 1)])


def square(k):
    side = 1 << k
    return [(x, y) for x in range(side) for y in range(side)]


def test_unit_cross():
    assert set(groups.cell_tuples(folner.unit_cross(LINE))) == {(-1,), (0,), (1,)}
    assert set(groups.cell_tuples(folner.unit_cross(GRID))) == {
        (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_interval_ratio_exact(n):
    F = [(i,) for i in range(n + 1)]
    assert folner.invariance_ratio(LINE, F, [(0,), (1,)]) == Fraction(1, n + 1)
    assert folner.invariance_ratio(LINE, F, folner.unit_cross(LINE)) == Fraction(
        2, n + 1
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_square_cross_ratio_exact(k):
    got = folner.invariance_ratio(GRID, square(k), folner.unit_cross(GRID))
    assert got == Fraction(4 * (1 << k), 1 << (2 * k)) == Fraction(4, 1 << k)


def set_ratio(F, K):
    """|KF symmetric-difference F| / |F| by Python set arithmetic."""
    fs = {tuple(int(x) for x in f) for f in F}
    kf = {tuple(a + int(b) for a, b in zip(f, k)) for k in K for f in fs}
    return Fraction(len(kf ^ fs), len(fs))


def test_array_path_agrees_with_set_oracle():
    rng = np.random.default_rng(17)
    pts = {(int(x), int(y)) for x, y in rng.integers(0, 90, size=(6000, 2))}
    K = folner.unit_cross(GRID)
    got = folner.invariance_ratio(GRID, pts, K)
    kf = {(x + a, y + b) for (a, b) in K for (x, y) in pts}
    assert got == Fraction(len(kf ^ pts), len(pts))


@pytest.mark.parametrize("case", ["k_without_identity", "duplicated_f", "near_2_40"])
def test_ratio_same_for_tuple_and_array_input(case):
    rng = np.random.default_rng(23)
    F = rng.integers(-6, 6, size=(50, 2))
    K = np.array([[1, 0], [0, 2], [-3, 1]])
    if case == "duplicated_f":
        F = np.concatenate([F, F[:20], F[:5]])
        K = np.concatenate([K, [[0, 0], [1, 0]]])
    if case == "near_2_40":
        # rows spread over 2^40 in both columns cannot be packed into int64
        F = np.concatenate([F, F + 2**40, F - 2**40])
        K = np.concatenate([K, [[2**40, -2**40]]])
        assert util.pack_rows(np.concatenate([F, F + K[-1]])) is None
    F = F.astype(np.int64)
    K = K.astype(np.int64)
    tuples_f = [tuple(int(x) for x in row) for row in F]
    tuples_k = {tuple(int(x) for x in row) for row in K}
    got = folner.invariance_ratio(GRID, F, K)
    assert got == folner.invariance_ratio(GRID, tuples_f, tuples_k)
    assert got == folner.invariance_ratio(GRID, F, tuples_k)
    assert got == set_ratio(tuples_f, tuples_k)


@pytest.mark.parametrize("case", ["repeated_k", "f_outside_kf", "d3_spread_2_40"])
def test_one_sort_ratio_matches_set_oracle(case):
    rng = np.random.default_rng(31)
    d = 3 if case == "d3_spread_2_40" else 2
    F = rng.integers(-5, 5, size=(40, d))
    if case == "repeated_k":
        K = np.array([[1, 0], [1, 0], [0, 0], [0, -1], [0, -1], [1, 0]])
    elif case == "f_outside_kf":
        # no identity in K and a far shift: part of F lies outside KF
        K = np.array([[7, 0], [0, 3]])
        kf = set(map(tuple, (F[None] + K[:, None]).reshape(-1, d).tolist()))
        assert not set(map(tuple, F.tolist())) <= kf
    else:
        F = np.concatenate([F, F + 2**40, F - [2**40, 0, 2**40]])
        K = np.array([[0, 0, 0], [1, 0, 0], [0, -1, 0], [2**40, 0, -2**40], [1, 0, 0]])
        assert util.pack_rows(np.concatenate([F, F + K[3]])) is None
    spec = GroupSpec.grid(d)
    got = folner.invariance_ratio(spec, F.astype(np.int64), K.astype(np.int64))
    assert got == set_ratio(F.tolist(), K.tolist())
    assert got == folner.invariance_ratio(spec, F.tolist(), list(map(tuple, K.tolist())))


def test_ratio_rejects_products_outside_int64():
    top, bottom = 2**63 - 1, -2**63
    with pytest.raises(InputError):
        folner.invariance_ratio(LINE, [(bottom,), (top,)], [(1,)])
    with pytest.raises(InputError):
        folner.invariance_ratio(GRID, [(0, bottom)], [(0, -1)])
    F, K = [(top - 1,), (top,)], [(0,), (-1,)]
    assert folner.invariance_ratio(LINE, F, K) == set_ratio(F, K) == Fraction(1, 2)


cell_sets = {
    d: st.lists(st.tuples(*[st.integers(-8, 8)] * d), min_size=1, max_size=25)
    for d in (1, 2)
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2]))
def test_ratio_matches_set_count_property(data, d):
    F = data.draw(cell_sets[d])
    K = data.draw(cell_sets[d])
    spec = GroupSpec.grid(d)
    assert folner.invariance_ratio(spec, F, K) == set_ratio(F, K)


def test_ratio_translation_invariant():
    rng = np.random.default_rng(4)
    pts = [(int(x), int(y)) for x, y in rng.integers(0, 12, size=(40, 2))]
    pts = list(set(pts))
    K = folner.unit_cross(GRID)
    base = folner.invariance_ratio(GRID, pts, K)
    for g in [(3, -7), (-20, 5)]:
        moved = [(x + g[0], y + g[1]) for x, y in pts]
        assert folner.invariance_ratio(GRID, moved, K) == base


def test_ratio_monotone_under_larger_k():
    K1 = folner.unit_cross(GRID)
    K2 = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    rng = np.random.default_rng(10)
    for _ in range(5):
        pts = {(int(x), int(y)) for x, y in rng.integers(0, 9, size=(30, 2))}
        assert folner.invariance_ratio(GRID, pts, K1) <= folner.invariance_ratio(
            GRID, pts, K2
        )


def test_invariance_ratio_rejects_empty():
    with pytest.raises(InputError):
        folner.invariance_ratio(LINE, [], [(0,)])
    with pytest.raises(InputError):
        folner.invariance_ratio(LINE, [(0,)], [])


def test_audit_intervals_standard():
    w = natural_window(-5, 40)
    recs = folner.audit_intervals(w, [(0,), (1,)], [0, 5, 10])
    assert [(r.size, r.ratio) for r in recs] == [
        (1, Fraction(1)),
        (6, Fraction(1, 6)),
        (11, Fraction(1, 11)),
    ]
    with pytest.raises(OutOfWindowError):
        folner.audit_intervals(w, [(0,), (1,)], [41])


def test_alternating_interval_ratio_counts_runs(builtins):
    spec = builtins["dyadic_alternating"]
    for i in range(4):
        addr, _ = tiling.sample_straight_address(
            spec, 8, seed=np.random.SeedSequence((21, i)), need_future=64
        )
        w = tiling.expand(addr)
        for n in (15, 63):
            F = orders.interval(w, 0, n)
            runs = oracles.integer_runs([c[0] for c in F])
            got = folner.invariance_ratio(LINE, F, [(0,), (1,)])
            assert got == Fraction(runs, n + 1)


def test_tile_aligned_anchors(builtins):
    w = tiling.expand(tiling.sample_address(builtins["dyadic_standard"], 6, seed=3))
    anchors = folner.tile_aligned_anchors(w, 16)
    assert anchors == [w.lo + 16 * i for i in range(4)]
    assert all((a - w.lo) % 16 == 0 for a in anchors)
    with pytest.raises(InputError):
        folner.tile_aligned_anchors(w, 0)


@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating"])
def test_dyadic_full_tile_ratios_decay(builtins, name):
    addr = tiling.sample_address(builtins[name], 10, seed=8)
    w = tiling.expand(addr)
    K = folner.unit_cross(LINE)
    worsts = []
    for k in (2, 4, 6):
        recs = folner.full_tile_records(w, K, 1 << k, max_anchors=16)
        ratios = {r.ratio for r in recs}
        # every aligned level-k tile occupies a contiguous integer block
        assert ratios == {Fraction(2, 1 << k)}
        worsts.append(max(r.ratio for r in recs))
    assert worsts[0] > worsts[1] > worsts[2]


def test_hilbert_full_tile_ratios_exact(builtins):
    addr = tiling.sample_address(builtins["hilbert"], 6, seed=8)
    w = tiling.expand(addr)
    K = folner.unit_cross(GRID)
    for k in (1, 2, 3, 4):
        recs = folner.full_tile_records(w, K, 1 << (2 * k), max_anchors=8)
        assert {r.ratio for r in recs} == {Fraction(4, 1 << k)}


def test_interval_growth_of_full_tiles(builtins):
    cases = [("dyadic_standard", 2, 1), ("dyadic_alternating", 4, 5), ("hilbert", 2, 3)]
    for name, k, n in cases:
        spec = builtins[name]
        size = len(spec.curve(k, spec.canonical_label))
        level = k + 2 if name != "hilbert" else k + 1
        addr, _ = tiling.sample_straight_address(
            spec, level, seed=5, need_past=size + n, need_future=size + n
        )
        w = tiling.expand(addr)
        a = next(
            a for a in folner.tile_aligned_anchors(w, size) if a <= 0 <= a + size - 1
        )
        F = orders.interval(w, a, a + size - 1)
        fwd = folner.interval_growth(w, F, n, "forward")
        bwd = folner.interval_growth(w, F, n, "backward")
        assert fwd == bwd == Fraction(size + n, size)


@functools.lru_cache(maxsize=None)
def growth_window(name, seed):
    spec = tiling.builtin(name)
    return tiling.expand(tiling.sample_address(spec, 4 if name == "hilbert" else 8, seed))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(["dyadic_standard", "dyadic_alternating", "hilbert"]),
       seed=st.integers(0, 5), n=st.integers(0, 40), side=st.sampled_from(["forward", "backward"]))
def test_interval_growth_matches_oracle_union(data, name, seed, n, side):
    w = growth_window(name, seed)
    lo, hi = (w.lo, w.hi - n) if side == "forward" else (w.lo + n, w.hi)
    picks = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=30))  # repeats allowed
    F = [w.cell(i) for i in picks]
    union = oracles.interval_from_set(orders.interval(w, w.lo, w.hi), w.lo, F, n, side)
    expected = Fraction(len(union), len(set(F)))
    assert folner.interval_growth(w, F, n, side) == expected
    assert folner.interval_growth(w, w.array[np.array(picks) - w.lo], n, side) == expected


def test_interval_growth_rejects_bad_input():
    # cells 1, 0, 3, 2 in positions -1..2
    w = tiling.expand(tiling.Address(tiling.builtin("dyadic_alternating"), 2, "I", (1, 2)))
    assert folner.interval_growth(w, [(1,), (0,)], 1, "forward") == Fraction(3, 2)
    assert folner.interval_growth(w, [(3,)], 2, "backward") == Fraction(3, 1)
    with pytest.raises(InputError):
        folner.interval_growth(w, [], 1)
    with pytest.raises(InputError):
        folner.interval_growth(w, [(0,)], 1, "sideways")
    with pytest.raises(InputError):
        folner.interval_growth(w, [(0,)], -1)
    # the first g in F's order that is outside, or whose range leaves, names the error
    with pytest.raises(OutOfWindowError, match=r"element \(9,\) not in window"):
        folner.interval_growth(w, [(0,), (9,), (2,)], 1, "forward")
    with pytest.raises(OutOfWindowError, match=r"interval \[2, 3\] outside"):
        folner.interval_growth(w, [(0,), (2,), (9,)], 1, "forward")
    with pytest.raises(OutOfWindowError, match=r"interval \[-2, 0\] outside"):
        folner.interval_growth(w, [(0,)], 2, "backward")


def test_uniform_audit_standard_threshold(builtins):
    res = folner.uniform_audit(
        builtins["dyadic_standard"],
        folner.unit_cross(LINE),
        epsilon=Fraction(1, 10),
        candidates=[16, 32, 64],
        samples=3,
        seed=44,
        level=7,
    )
    assert res.threshold == 32
    for n, stat in res.stats.items():
        assert stat.worst == stat.mean == Fraction(2, n)
        assert stat.count > 0


def test_uniform_audit_alternating(builtins):
    res = folner.uniform_audit(
        builtins["dyadic_alternating"],
        folner.unit_cross(LINE),
        epsilon=Fraction(1, 2),
        candidates=[8, 64],
        samples=2,
        seed=1,
        level=8,
        anchors=6,
    )
    assert res.threshold is not None
    for stat in res.stats.values():
        assert stat.worst >= stat.mean
    again = folner.uniform_audit(
        builtins["dyadic_alternating"],
        folner.unit_cross(LINE),
        epsilon=Fraction(1, 2),
        candidates=[8, 64],
        samples=2,
        seed=1,
        level=8,
        anchors=6,
    )
    assert again == res


def test_uniform_audit_rejects_oversized_candidate(builtins):
    with pytest.raises(InputError):
        folner.uniform_audit(
            builtins["dyadic_standard"],
            folner.unit_cross(LINE),
            epsilon=0.1,
            candidates=[512],
            samples=1,
            seed=0,
            level=3,
        )
