import functools
import hashlib
import json
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multiorder import orders, tiling
from multiorder.errors import BudgetError, InputError, MultiorderError, OutOfWindowError
from multiorder.groups import GroupSpec
from multiorder.tiling import Address, TilingSystemSpec

LINE = GroupSpec.line()


def u_address_of_origin(spec, level):
    """Walk the rule tree picking the child square containing the origin."""
    digits = []
    label = "U"
    cum = np.zeros(2, dtype=np.int64)
    for k in range(level, 0, -1):
        rule = spec.rule(k, label)
        half = 1 << (k - 1)
        for d, (child_label, offset) in enumerate(rule, start=1):
            lo = cum + np.asarray(offset, dtype=np.int64)
            if lo[0] <= 0 < lo[0] + half and lo[1] <= 0 < lo[1] + half:
                digits.append(d)
                cum = lo
                label = child_label
                break
        else:
            raise AssertionError("origin not covered by any child")
    return Address(spec, level, "U", tuple(digits))


@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_dyadic_curves_match_oracle(builtins, name, k):
    spec = builtins[name]
    expected = oracles.dyadic_cells(k, alternating=(name == "dyadic_alternating"))
    assert spec.curve(k, "I").tolist() == [[c] for c in expected]


@pytest.mark.parametrize("label", ["U", "R", "L", "D"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_hilbert_curves_match_oracle(builtins, label, k):
    spec = builtins["hilbert"]
    expected = oracles.hilbert_cells(label, k)
    assert spec.curve(k, label).tolist() == [list(c) for c in expected]


def test_hilbert_level4_matches_golden_file(builtins, data_dir):
    lines = (data_dir / "hilbert_level4.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,x,y"
    rows = []
    for line in lines[1:]:
        rank, x, y = (int(v) for v in line.split(","))
        rows.append((rank, x, y))
    assert [r[0] for r in rows] == list(range(256))
    golden = [[x, y] for _, x, y in rows]
    assert builtins["hilbert"].curve(4, "U").tolist() == golden
    assert [tuple(c) for c in golden] == oracles.hilbert_cells("U", 4)


def test_level2_expansion_example(builtins):
    w = tiling.expand(Address(builtins["dyadic_alternating"], 2, "I", (1, 2)))
    assert (w.lo, w.hi) == (-1, 2)
    assert orders.interval(w, w.lo, w.hi) == [(1,), (0,), (3,), (2,)]


def test_standard_expansion_is_the_natural_order(builtins):
    spec = builtins["dyadic_standard"]
    for digits in [(1, 1, 1), (2, 1, 2), (2, 2, 2), (1, 2, 1)]:
        w = tiling.expand(Address(spec, 3, "I", digits))
        assert orders.interval(w, w.lo, w.hi) == [(i,) for i in range(w.lo, w.hi + 1)]
        rank = sum((d - 1) << k for k, d in enumerate(reversed(digits)))
        assert w.lo == -rank


def test_anchor_rank_of_origin_in_square_curve(builtins):
    spec = builtins["hilbert"]
    for k in range(1, 6):
        addr = u_address_of_origin(spec, k)
        curve = spec.curve(k, "U")
        where = int(np.nonzero((curve == 0).all(axis=1))[0][0])
        assert tiling.anchor_rank(addr) == where == (4**k - 4) // 3 + 1


def test_anchor_rank_counts_unequal_children():
    # Level-2 shape A = A + B with |A| = 2 and |B| = 1 at level 1, so the
    # child start ranks are 0 and 2, not multiples of one child size.
    o = ("o", (0,))
    shapes = {
        0: {"o": frozenset({(0,)})},
        1: {"A": frozenset({(0,), (1,)}), "B": frozenset({(0,)})},
        2: {"A": frozenset({(0,), (1,), (2,)})},
    }
    rules = {
        1: {"A": (o, ("o", (1,))), "B": (o,)},
        2: {"A": (("A", (0,)), ("B", (2,)))},
    }
    spec = TilingSystemSpec.from_tables(LINE, "unequal", shapes, rules, "A", 2)
    assert tiling.validate_spec(spec, 2).ok
    for digits, rank in [((1, 1), 0), ((1, 2), 1), ((2, 1), 2)]:
        addr = Address(spec, 2, "A", digits)
        assert tiling.anchor_rank(addr) == rank
        w = tiling.expand(addr)
        assert orders.interval(w, w.lo, w.hi) == [(c - rank,) for c in range(3)]


def walked_tile(addr, k):
    """The level-k central tile's label and anchored cells, placed by the walk:
    the identity sits at the tile's recorded rank."""
    label = addr._walk.labels[addr.level - k]
    curve = addr.spec.curve(k, label)
    return label, curve - curve[addr._walk.ranks[addr.level - k]]


def test_central_tile_translation_and_nesting(builtins):
    spec = builtins["dyadic_standard"]
    for digits in [(1, 1, 2, 1), (2, 2, 2, 1)]:
        label, tile = walked_tile(Address(spec, 4, "I", digits), 2)
        assert label == "I" and tile.ravel().tolist() == [-2, -1, 0, 1]
    for name in ("dyadic_alternating", "hilbert"):
        s = builtins[name]
        level = 4 if name == "hilbert" else 6
        addr = tiling.sample_address(s, level, seed=31)
        prev = None
        for k in range(0, level + 1):
            cells = {tuple(c) for c in walked_tile(addr, k)[1].tolist()}
            if prev is not None:
                assert prev <= cells
            prev = cells


def violation_multiset(report) -> Counter:
    return Counter((v.level, v.label, v.kind, v.witness) for v in report.violations)


def assert_matches_oracle(spec, level):
    report = tiling.validate_spec(spec, level)
    assert violation_multiset(report) == Counter(oracles.validate_spec(spec, level))
    return report


def test_validate_builtins_clean(builtins):
    for name, spec in builtins.items():
        level = 4 if name == "hilbert" else 7
        report = assert_matches_oracle(spec, level)
        assert report.ok, report.violations


def corrupted_spec(rule_children, level1_cells=(0, 1)):
    shapes = {
        0: {"o": frozenset({(0,)})},
        1: {"I": frozenset((c,) for c in level1_cells)},
    }
    rules = {1: {"I": tuple(rule_children)}}
    return TilingSystemSpec.from_tables(LINE, "broken", shapes, rules, "I", 1)


def test_validate_reports_overlap_with_witness():
    spec = corrupted_spec([("o", (0,)), ("o", (0,))])
    report = assert_matches_oracle(spec, 1)
    kinds = {(v.kind, v.witness) for v in report.violations}
    assert ("overlapping_children", (0,)) in kinds
    assert ("uncovered_cell", (1,)) in kinds


def test_validate_reports_other_defects():
    report = assert_matches_oracle(corrupted_spec([("o", (0,)), ("o", (2,))]), 1)
    kinds = {(v.kind, v.witness) for v in report.violations}
    assert ("cell_outside_parent", (2,)) in kinds
    assert ("uncovered_cell", (1,)) in kinds

    report = assert_matches_oracle(corrupted_spec([("o", (0,)), ("x", (1,))]), 1)
    assert any(v.kind == "unknown_child" and v.witness == "x"
               for v in report.violations)

    shapes = {
        0: {"o": frozenset({(0,)})},
        1: {"I": frozenset({(1,), (2,)})},
    }
    spec = TilingSystemSpec.from_tables(LINE, "broken", shapes, {1: {}}, "I", 1)
    report = assert_matches_oracle(spec, 1)
    kinds = {v.kind for v in report.violations}
    assert "missing_identity" in kinds and "missing_rule" in kinds


@pytest.mark.parametrize("offset, level1_cells", [(2**63 - 1, (0, 1)), (-2**63, (-1, 0))])
def test_validate_rejects_offsets_leaving_int64(offset, level1_cells):
    shapes = {
        0: {"o": [(0,)]},
        1: {"I": [(c,) for c in level1_cells]},
        2: {"I": [(0,)]},
    }
    rules = {
        1: {"I": tuple(("o", (c,)) for c in level1_cells)},
        2: {"I": (("I", (offset,)),)},
    }
    spec = TilingSystemSpec.from_tables(LINE, "far", shapes, rules, "I", 2)
    with pytest.raises(InputError):
        tiling.validate_spec(spec, 2)


def test_shape_cells_are_distinct_sorted_int64_rows():
    shapes = {
        0: {"o": [(0,), (0,)]},
        1: {"I": frozenset({(1,), (0,)}), "J": [(2,), (0,), (2,)]},
    }
    spec = TilingSystemSpec.from_tables(LINE, "dup", shapes, {1: {}}, "I", 1)
    cells = spec.shapes(1)
    assert cells["I"].tolist() == [[0], [1]] and cells["J"].tolist() == [[0], [2]]
    assert spec.shapes(0)["o"].tolist() == [[0]]
    for arr in cells.values():
        assert arr.dtype == np.int64 and not arr.flags.writeable
    hilbert = tiling.builtin("hilbert").shapes(2)
    assert hilbert["U"] is hilbert["D"]


@st.composite
def tile_tables(draw):
    """Small shape and rule tables on Z or Z^2 with every defect
    validate_spec reports: overlapping children, gaps, cells outside the
    parent, unknown child labels, missing rules and identities, and shapes
    listing a cell twice.  Parent cells start as the union of the child
    translates, so some tables are clean."""
    d = draw(st.integers(1, 2))
    top = draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(-2, 2)] * d)
    zero, one = (0,) * d, (1,) * d
    level0 = draw(st.sampled_from([[zero], [zero], [zero, zero], [one], [zero, one]]))
    shapes, rules = {0: {"o": level0}}, {}
    for k in range(1, top + 1):
        below = shapes[k - 1]
        shapes[k], rules[k] = {}, {}
        for lab in draw(st.lists(st.sampled_from("AB"), min_size=1, max_size=2, unique=True)):
            label = st.sampled_from(sorted(below) * 4 + ["x"])
            children = [(draw(label), zero)] + draw(
                st.lists(st.tuples(label, st.sampled_from([one]) | cell), max_size=2))
            cells = [tuple(a + b for a, b in zip(c, off))
                     for cl, off in children if cl in below for c in below[cl]]
            if cells and not draw(st.integers(0, 2)):  # a child cell outside the parent
                gone = draw(st.sampled_from(cells))
                cells = [c for c in cells if c != gone]
            cells += draw(st.lists(cell, max_size=1))  # a gap, unless a child covers it
            if draw(st.booleans()):
                cells += cells[:1]
            shapes[k][lab] = cells
            if draw(st.integers(0, 4)):
                rules[k][lab] = tuple(children)
    return GroupSpec(d), shapes, rules, top


@settings(max_examples=150, deadline=None)
@given(tables=tile_tables())
def test_validate_matches_tuple_oracle_and_survives_json(tables):
    group, shapes, rules, top = tables
    raw = SimpleNamespace(group=group, shapes=shapes.__getitem__, rules=rules.__getitem__)
    expected = Counter(oracles.validate_spec(raw, top))
    spec = TilingSystemSpec.from_tables(group, "drawn", shapes, rules, "A", top)
    report = tiling.validate_spec(spec, top)
    assert violation_multiset(report) == expected
    json.dumps([v.witness for v in report.violations])
    back = TilingSystemSpec.from_json(json.loads(json.dumps(spec.to_json(top))))
    assert violation_multiset(tiling.validate_spec(back, top)) == expected


def test_address_validation():
    spec = tiling.builtin("dyadic_standard")
    with pytest.raises(InputError):
        Address(spec, 2, "I", (1,))
    with pytest.raises(InputError):
        Address(spec, 2, "I", (1, 3))
    with pytest.raises(InputError):
        Address(spec, 0, "I", ())
    with pytest.raises(InputError):
        Address(spec, 2, "I", (1.5, 1))
    with pytest.raises(InputError):
        Address(spec, 2, "I", (True, 1))
    assert Address(spec, 2, "I", (np.int64(2), 1)).digits == (2, 1)


def rule_arities(addr) -> list:
    """The rule arity of the central tile at levels L, ..., 1."""
    return [len(addr.spec.children(k, label)[0])
            for k, label in zip(range(addr.level, 0, -1), addr._walk.labels)]


def rank_is_straight(addr) -> bool:
    """The package's straightness test, as sample_straight_address applies it."""
    return 0 < tiling.anchor_rank(addr) < addr._walk.sizes[0] - 1


def test_straight_check_runs():
    spec = tiling.builtin("dyadic_standard")
    for digits, runs in (((1, 1, 1, 1, 1), (5, 0, False)), ((2, 2, 2, 2, 2), (0, 5, False)),
                         ((1, 1, 2, 1, 1), (2, 0, True))):
        addr = Address(spec, 5, "I", digits)
        assert rule_arities(addr) == [2] * 5
        assert oracles.digit_runs(digits, rule_arities(addr)) == runs
        assert rank_is_straight(addr) == runs[2]


def fibonacci_spec(max_level: int) -> TilingSystemSpec:
    """The Fibonacci substitution a -> ab, b -> a on the line, from tables."""
    sizes = {0: {"o": 1}}
    shapes, rules = {0: {"o": [(0,)]}}, {}
    for k in range(1, max_level + 1):
        child = "a" if k > 1 else "o"
        below = sizes[k - 1][child]
        rules[k] = {"a": ((child, (0,)), ("b" if k > 1 else "o", (below,))),
                    "b": ((child, (0,)),)}
        sizes[k] = {"a": below + (sizes[k - 1]["b"] if k > 1 else 1), "b": below}
        shapes[k] = {lab: [(i,) for i in range(n)] for lab, n in sizes[k].items()}
    return TilingSystemSpec.from_tables(GroupSpec.line(), "fibonacci", shapes, rules, "a",
                                        max_level)


def all_addresses(spec, level):
    def walk(k, label, digits):
        if k == 0:
            yield digits
            return
        for d, child in enumerate(spec.children(k, label)[0], start=1):
            yield from walk(k - 1, child, digits + (d,))

    for top in spec.rules(level):
        for digits in walk(level, top, ()):
            yield Address(spec, level, top, digits)


def test_straightness_is_read_off_the_anchor_rank(builtins):
    systems = [(builtins["dyadic_standard"], 8), (builtins["dyadic_alternating"], 8),
               (builtins["hilbert"], 4), (fibonacci_spec(8), 8)]
    assert tiling.validate_spec(systems[-1][0], 8).ok
    checked = 0
    for spec, top_level in systems:
        for level in range(1, top_level + 1):
            for addr in all_addresses(spec, level):
                straight = oracles.digit_runs(addr.digits, rule_arities(addr))[2]
                assert straight == rank_is_straight(addr)
                checked += 1
    assert checked == 2608

    for spec, _ in systems:
        for seed in range(10):  # at level 2 a quarter or more of the draws are not straight
            addr, _ = tiling.sample_straight_address(spec, 2, seed)
            assert oracles.digit_runs(addr.digits, rule_arities(addr))[2] and rank_is_straight(addr)


def test_whole_tile_over_the_budget_raises_before_building(builtins):
    with pytest.raises(BudgetError, match="more than the budget"):
        tiling.check_curve_budget(builtins["dyadic_standard"], 23, "I")
    tiling.check_curve_budget(builtins["dyadic_standard"], 22, "I")
    spec = tiling._new_builtin("hilbert")  # cold: the shared spec keeps its curves
    addr = tiling.sample_address(spec, 30, seed=2)
    with pytest.raises(BudgetError):
        tiling.expand(addr)
    assert spec._curve_cache == {}
    assert len(tiling.window(addr, 8, 8)) == 17


def test_window_reaches_past_the_whole_tile_budget():
    # the identity starts the second half of a 2^23-cell tile, so position -1
    # lies only in the level-23 tile, above the whole-tile budget; a private
    # spec frees the level-23 curves (128 MiB) after the test
    spec = tiling._new_builtin("dyadic_standard")
    addr = Address(spec, 23, "I", (2,) + (1,) * 22)
    assert tiling.anchor_rank(addr) == 1 << 22
    w = tiling.window(addr, 1, 0)
    assert w.rows(-1, 0).tolist() == [[-1], [0]]


def test_top_run_length_distribution(builtins):
    spec = builtins["dyadic_standard"]
    samples = 4000
    hits = 0
    for i in range(samples):
        addr = tiling.sample_address(spec, 20, seed=np.random.SeedSequence((8, i)))
        first, last, _ = oracles.digit_runs(addr.digits, rule_arities(addr))
        if first >= 10 or last >= 10:
            hits += 1
    bound = 2 * 2**-10
    assert hits / samples <= bound + 3 * np.sqrt(bound / samples)


def test_sample_address_deterministic_and_in_range(builtins):
    for name, spec in builtins.items():
        level = 4 if name == "hilbert" else 8
        a = tiling.sample_address(spec, level, seed=55)
        b = tiling.sample_address(spec, level, seed=55)
        assert a == b and a.spec is spec
        assert len(a.digits) == level


def test_hilbert_top_labels_near_uniform(builtins):
    spec = builtins["hilbert"]
    labels, probs = tiling.top_shape_distribution(spec)
    assert sorted(labels) == ["D", "L", "R", "U"]
    assert np.allclose(probs, 0.25, atol=1e-12)
    counts = {lab: 0 for lab in labels}
    n = 2000
    for i in range(n):
        addr = tiling.sample_address(spec, 3, seed=np.random.SeedSequence((3, i)))
        counts[addr.top] += 1
    for lab in labels:
        assert abs(counts[lab] / n - 0.25) < 0.05


def test_sample_straight_address_honors_margins(builtins):
    for name, spec in builtins.items():
        level = 5 if name == "hilbert" else 9
        addr, retries = tiling.sample_straight_address(
            spec, level, seed=13, need_past=20, need_future=20
        )
        assert oracles.digit_runs(addr.digits, rule_arities(addr))[2] and rank_is_straight(addr)
        w = tiling.expand(addr)
        assert w.lo <= -20 and w.hi >= 20
        again, _ = tiling.sample_straight_address(
            spec, level, seed=13, need_past=20, need_future=20
        )
        assert again == addr
    # At level 3 only the straight address of rank 1 leaves 6 cells after 0.
    addr, retries = tiling.sample_straight_address(
        builtins["dyadic_standard"], 3, seed=4, need_future=6
    )
    assert addr.digits == (1, 1, 2) and retries > 0
    with pytest.raises(MultiorderError):
        tiling.sample_straight_address(
            builtins["dyadic_standard"], 3, seed=1, need_past=100
        )


# sha256 of json.dumps(builtin(name).to_json(3)), fixed before shapes became arrays.
_TO_JSON_LEVEL3_SHA256 = {
    "dyadic_standard": "bc774c36e2fc5296adf822bce6e4cb1f5d930095ef9fc174ee9dd8dcab5fe828",
    "dyadic_alternating": "fb60c14332ee1f7d103309fe97658e50fe0cff4656c0c4d993e1c70732804d88",
    "hilbert": "54533327772a51a162c37d7a821470475bd5b0b348483c7092b8aec5fdc962e5",
}


def test_json_round_trip(builtins):
    for name, digest in _TO_JSON_LEVEL3_SHA256.items():
        dump = json.dumps(builtins[name].to_json(3)).encode()
        assert hashlib.sha256(dump).hexdigest() == digest, name
    spec = builtins["hilbert"]
    blob = spec.to_json(3)
    back = TilingSystemSpec.from_json(blob)
    for k in range(0, 4):
        if k:
            assert back.rules(k) == spec.rules(k)
        assert back.shapes(k).keys() == spec.shapes(k).keys()
        for lab in spec.labels(k):
            assert np.array_equal(back.shapes(k)[lab], spec.shapes(k)[lab])
            assert np.array_equal(back.curve(k, lab), spec.curve(k, lab))
    assert tiling.validate_spec(back, 3).ok
    with pytest.raises(InputError):
        back.curve(4, "U")


@pytest.mark.parametrize("name", ["penrose", ["hilbert"], None])
def test_unknown_builtin_is_an_input_error_and_caches_nothing(name):
    before = tiling._shared_builtin.cache_info()
    message = f"unknown tiling system {name!r}; choose from {tiling._BUILTIN_NAMES}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        tiling.builtin(name)
    assert tiling._shared_builtin.cache_info() == before


@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating", "hilbert"])
def test_shared_builtin_tables_are_read_only(name):
    spec = tiling.builtin(name)
    assert spec is tiling.builtin(name)
    tiling.expand(tiling.sample_address(spec, 4, seed=3))
    tiling.top_shape_distribution(spec)
    for k in range(1, 4):
        shapes, rules = spec.shapes(k), spec.rules(k)
        with pytest.raises(TypeError):
            shapes[spec.canonical_label] = shapes[spec.canonical_label]
        with pytest.raises(TypeError):
            rules["new"] = ()
    cached = {
        "curves": list(spec._curve_cache.values()),
        "child offsets": [offsets for _, offsets, _ in spec._children_cache.values()],
        "top-law probs": [probs for _, probs in spec._top_law_cache.values()],
        "shapes": [cells for table in spec._shapes_cache.values() for cells in table.values()],
    }
    for kind, arrays in cached.items():
        assert arrays and not any(arr.flags.writeable for arr in arrays), kind


def test_threads_filling_cold_shared_specs_agree(monkeypatch):
    monkeypatch.setattr(tiling, "_shared_builtin", functools.cache(tiling._new_builtin))
    names = ["dyadic_standard", "dyadic_alternating", "hilbert"] * 8

    def windows(spec_of):
        return [tiling.window(tiling.sample_address(spec_of(name), 12, seed), 40, 40)
                for seed, name in enumerate(names)]

    expected = windows(tiling._new_builtin)  # serially, one private spec per draw
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = [f.result(timeout=60) for f in
                   [pool.submit(windows, tiling.builtin) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(run == expected for run in got)


@pytest.mark.parametrize("case", ["missing_shape_table", "missing_rule_table",
                                  "max_level_above_tables", "rule_child_not_a_pair",
                                  "missing_top_level_key", "level_key_not_an_int",
                                  "level_table_not_an_object", "max_level_float",
                                  "max_level_bool"])
def test_from_json_rejects_malformed_tables(builtins, case):
    blob = json.loads(json.dumps(builtins["hilbert"].to_json(3)))
    if case == "missing_shape_table":
        del blob["shapes"]["2"]
    elif case == "missing_rule_table":
        del blob["rules"]["2"]
    elif case == "max_level_above_tables":
        blob["max_level"] = 4
    elif case == "rule_child_not_a_pair":
        blob["rules"]["2"]["U"][0] = ["L"]
    elif case == "missing_top_level_key":
        del blob["rules"]
    elif case == "level_key_not_an_int":
        blob["shapes"]["x"] = blob["shapes"]["3"]
    elif case.startswith("max_level_"):
        # int() would read these as levels 2 and 1, whose tables exist
        blob["max_level"] = 2.9 if case == "max_level_float" else True
    else:
        blob["rules"]["2"] = [1, 2]
    with pytest.raises(InputError):
        TilingSystemSpec.from_json(blob)


def test_builtin_names():
    for name in ("dyadic_standard", "dyadic_alternating", "hilbert"):
        assert tiling.builtin(name).name == name
    with pytest.raises(InputError):
        tiling.builtin("penrose")


_SPECS = {name: tiling.builtin(name) for name in
          ("dyadic_standard", "dyadic_alternating", "hilbert")}
_MAX_LEVEL = {"dyadic_standard": 12, "dyadic_alternating": 12, "hilbert": 6}


@st.composite
def walked_addresses(draw):
    """A random valid address with its walk done by hand on tuples: the
    label and summed offset of the central tile at every level."""
    name = draw(st.sampled_from(sorted(_SPECS)))
    spec = _SPECS[name]
    level = draw(st.integers(1, _MAX_LEVEL[name]))
    label = draw(st.sampled_from(sorted(spec.rules(level))))
    top = label
    cum = (0,) * spec.group.d
    digits, arities, path = [], [], [(label, cum)]
    for k in range(level, 0, -1):
        children = spec.rule(k, label)
        d = draw(st.integers(1, len(children)))
        label, offset = children[d - 1]
        cum = tuple(a + b for a, b in zip(cum, offset))
        digits.append(d)
        arities.append(len(children))
        path.append((label, cum))
    return Address(spec, level, top, tuple(digits)), arities, path


@settings(max_examples=80, deadline=None)
@given(walked=walked_addresses())
def test_address_walk_matches_tuple_oracle(walked):
    addr, arities, path = walked
    spec, level = addr.spec, addr.level
    anchor = np.asarray(path[-1][1], dtype=np.int64)
    curve = spec.curve(level, addr.top)
    row = int(np.nonzero((curve == anchor).all(axis=1))[0][0])
    assert tiling.anchor_rank(addr) == row

    w = tiling.expand(addr)
    assert (w.lo, w.hi) == (-row, len(curve) - 1 - row)
    assert np.array_equal(w.array, curve - anchor)

    zero = (0,) * spec.group.d
    outer = None
    for k in range(level, -1, -1):
        label = addr._walk.labels[level - k]
        oracle_label, oracle_cum = path[level - k]
        assert label == oracle_label
        tile = spec.curve(k, label) + (np.asarray(oracle_cum) - anchor)
        assert addr._walk.ranks[level - k] == int(np.nonzero((tile == 0).all(axis=1))[0][0])
        assert addr._walk.sizes[level - k] == len(tile)
        cells = {tuple(c) for c in tile.tolist()}
        assert zero in cells
        if outer is not None:
            assert cells <= outer
        outer = cells

    assert rule_arities(addr) == arities
    assert oracles.digit_runs(addr.digits, arities)[2] == rank_is_straight(addr)


@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating", "hilbert"])
def test_address_walk_matches_the_offset_summing_walk(builtins, name):
    # 50 sampled addresses at levels 1-12; each oracle window is cut from a
    # central tile of level at most _MAX_LEVEL[name], placed by summed offsets
    spec = builtins[name]
    rng = np.random.default_rng(12)
    for i in range(50):
        addr = tiling.sample_address(spec, 1 + i % 12, seed=i)
        walk = oracles.address_walk(spec, addr.level, addr.top, addr.digits)
        labels, _, ranks, sizes = walk
        assert tiling.anchor_rank(addr) == ranks[0]
        assert addr._walk == (labels, ranks, sizes)
        for _ in range(4):
            k = int(rng.integers(0, min(addr.level, _MAX_LEVEL[name]) + 1))
            r, size = ranks[addr.level - k], sizes[addr.level - k]
            past, future = int(rng.integers(0, r + 1)), int(rng.integers(0, size - r))
            assert np.array_equal(tiling.window(addr, past, future).array,
                                  oracles.walk_window(spec, walk, k, past, future))


def test_sampling_path_never_builds_shapes():
    spec = tiling._new_builtin("hilbert")  # private: the patch below must not leak

    def no_shapes(k):
        raise AssertionError(f"shapes requested at level {k}")

    spec._shapes_fn = no_shapes
    addr, _ = tiling.sample_straight_address(spec, 8, seed=21, need_past=3,
                                             need_future=3)
    other = tiling.sample_address(spec, 8, seed=22)
    for a in (addr, other):
        r = tiling.anchor_rank(a)
        # spans past the level-0 tile, whose curve checks the level-0 shape table
        for past, future in [(1, 2), (3, 3), (40, 40), (700, 700)]:
            if past <= r <= 4**8 - 1 - future:
                tiling.window(a, past, future)
        assert len(tiling.expand(a)) == 4**8


@pytest.mark.parametrize("level", range(1, 9))
@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating", "hilbert"])
def test_window_is_a_slice_of_expand(builtins, name, level):
    spec = builtins[name]
    rng = np.random.default_rng(level)
    for seed in range(4):
        addr = tiling.sample_address(spec, level, seed)
        w = tiling.expand(addr)
        for _ in range(6):
            past, future = int(rng.integers(0, 1 - w.lo)), int(rng.integers(0, 1 + w.hi))
            got = tiling.window(addr, past, future)
            assert (got.lo, got.hi) == (-past, future)
            assert np.array_equal(got.array, w.rows(-past, future))
        for past, future in ((1 - w.lo, 0), (0, 1 + w.hi), (1 - w.lo, 1 + w.hi)):
            with pytest.raises(OutOfWindowError):
                tiling.window(addr, past, future)


def test_child_sizes_build_no_curve():
    spec = tiling._new_builtin("hilbert")  # cold: the shared spec keeps its curves
    for k in range(1, 31):
        for label in spec.rules(k):
            assert spec.children(k, label)[2][-1] == 4**k
    addr = tiling.sample_address(spec, 30, seed=8)
    assert addr._walk.sizes[0] == 4**30
    assert spec._curve_cache == {}


@pytest.mark.parametrize("name", ["dyadic_standard", "dyadic_alternating", "hilbert"])
def test_labels_build_no_shape_table(name):
    spec = tiling._new_builtin(name)  # cold: the shared spec may hold shape tables
    fresh = tiling._new_builtin(name)
    for k in (0, 1, 2, 5, 8):
        assert spec.labels(k) == sorted(fresh.shapes(k))
    assert spec._shapes_cache == {}
    with pytest.raises(InputError, match="level must be >= 0"):
        spec.labels(-1)


def test_labels_keep_the_level_check_of_tables():
    spec = fibonacci_spec(4)
    assert [spec.labels(k) for k in range(5)] == [["o"]] + [["a", "b"]] * 4
    assert spec._shapes_cache == {}
    with pytest.raises(InputError, match="exceeds known levels"):
        spec.labels(5)
