from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from multiorder import folner, groups, orders, process, tiling
from multiorder.errors import DimensionMismatchError, InputError
from multiorder.groups import GroupSpec


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_axioms_exhaustive_on_box2(d):
    spec = GroupSpec.grid(d)
    elems = groups.cell_tuples(groups.box(spec, 2))
    assert elems == sorted(oracles.box(d, 2))
    e = groups.identity(spec)
    for a in elems:
        assert groups.compose(spec, a, e) == a
        assert groups.compose(spec, e, a) == a
        assert groups.compose(spec, a, groups.inverse(spec, a)) == e
    # associativity over every triple
    for a, b, c in product(elems[:: max(1, len(elems) // 25)], repeat=3):
        left = groups.compose(spec, groups.compose(spec, a, b), c)
        right = groups.compose(spec, a, groups.compose(spec, b, c))
        assert left == right


def test_associativity_full_on_line():
    spec = GroupSpec.line()
    elems = sorted(groups.box(spec, 2))
    for a, b, c in product(elems, repeat=3):
        assert groups.compose(spec, groups.compose(spec, a, b), c) == groups.compose(
            spec, a, groups.compose(spec, b, c)
        )


def test_line_accepts_bare_ints():
    spec = GroupSpec.line()
    assert groups.compose(spec, 3, -5) == (-2,)
    assert groups.inverse(spec, 7) == (-7,)


@pytest.mark.parametrize("d", [1, 2])
def test_encoding_round_trip_on_box8(d):
    spec = GroupSpec.grid(d)
    for g in groups.cell_tuples(groups.box(spec, 8)):
        assert groups.decode(spec, groups.encode(g)) == g


def test_box_sizes():
    assert len(groups.box(GroupSpec.line(), 3)) == 7
    assert len(groups.box(GroupSpec.grid(2), 3)) == 49


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_and_unit_cross_are_read_only_arrays(d):
    spec = GroupSpec.grid(d)
    cases = [(groups.box(spec, r), oracles.box(d, r)) for r in (0, 1, 2)]
    cases.append((folner.unit_cross(spec), oracles.unit_cross(d)))
    for arr, oracle in cases:
        assert arr.dtype == np.int64 and arr.shape == (len(oracle), d)
        assert not arr.flags.writeable
        assert set(groups.cell_tuples(arr)) == oracle
    # box rows are lexicographic; the cross is e, then +e_i, then -e_i
    assert groups.cell_tuples(groups.box(spec, 2)) == sorted(oracles.box(d, 2))
    eye = np.eye(d, dtype=np.int64)
    expected = np.concatenate([np.zeros((1, d), dtype=np.int64), eye, -eye])
    assert np.array_equal(folner.unit_cross(spec), expected)


def test_spec_json_round_trip():
    for spec in [GroupSpec.line(), GroupSpec.grid(2), GroupSpec.grid(3)]:
        assert GroupSpec.from_json(spec.to_json()) == spec
    assert GroupSpec.from_json({"kind": "int_line"}) == GroupSpec.line()


def test_dimension_mismatch_rejected():
    spec = GroupSpec.grid(2)
    with pytest.raises(DimensionMismatchError):
        groups.compose(spec, (1, 2), (1,))
    with pytest.raises(DimensionMismatchError):
        groups.element(spec, 5)


def test_bad_inputs_rejected():
    with pytest.raises(InputError):
        GroupSpec(0)
    with pytest.raises(InputError):
        groups.decode(GroupSpec.line(), [1.5])
    with pytest.raises(InputError):
        groups.box(GroupSpec.line(), -1)
    with pytest.raises(InputError):
        GroupSpec.from_json({"kind": "int_line", "d": 3})


@pytest.mark.parametrize("value", ["12", b"12", [1.5, 2], ["a", 1], [True, 0], (1, None), 1.0])
def test_element_rejects_non_integers(value):
    with pytest.raises(InputError):
        groups.element(GroupSpec.grid(2), value)


def test_element_accepts_numpy_integers():
    assert groups.element(GroupSpec.grid(2), (np.int64(3), np.int32(-4))) == (3, -4)
    assert groups.element(GroupSpec.grid(2), np.array([5, 6])) == (5, 6)
    assert groups.element(GroupSpec.line(), np.int64(7)) == (7,)
    assert all(type(x) is int for x in groups.element(GroupSpec.grid(2), np.array([5, 6])))


def test_as_cell_array_coerces_and_passes_arrays_through():
    spec = GroupSpec.grid(2)
    arr = np.array([[1, 2], [3, 4]], dtype=np.int64)
    assert groups.as_cell_array(spec, arr) is arr
    assert np.array_equal(groups.as_cell_array(spec, [(1, 2), [3, 4]]), arr)
    assert groups.as_cell_array(spec, []).shape == (0, 2)
    assert np.array_equal(groups.as_cell_array(GroupSpec.line(), [3, (4,)]), [[3], [4]])
    with pytest.raises(DimensionMismatchError):
        groups.as_cell_array(spec, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(DimensionMismatchError):
        groups.as_cell_array(spec, [(1, 2, 3)])
    with pytest.raises(InputError):
        groups.as_cell_array(spec, [(1, 2.5)])
    with pytest.raises(InputError):
        groups.as_cell_array(spec, [(2**70, 0)])


_scalars = st.one_of(
    st.integers(-2**63, 2**63 - 1),
    st.integers(-2**63, 2**63 - 1),  # twice: most cells should be valid
    st.integers(2**63, 2**70),
    st.integers(-2**70, -2**63 - 1),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.int32, st.integers(-2**31, 2**31 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.uint64, st.integers(2**63, 2**64 - 1)),
    st.booleans(),
    st.builds(np.bool_, st.booleans()),
    st.floats(),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.none(),
)


def _rows(d):
    coords = st.lists(_scalars, min_size=d, max_size=d)
    wrong = st.lists(_scalars, min_size=0, max_size=d + 2)
    row = st.one_of(coords, coords, wrong)
    return st.one_of(row.map(tuple), row, _scalars)


def _collections(d):
    # cells hashable enough for a set: tuples of hashable scalars
    hashable = st.lists(st.lists(_scalars, min_size=d, max_size=d).map(tuple), max_size=6)
    return st.one_of(
        st.lists(_rows(d), max_size=6).map(lambda rows: ("list", rows)),
        st.lists(_rows(d), max_size=6).map(lambda rows: ("tuple", tuple(rows))),
        st.lists(_rows(d), max_size=6).map(lambda rows: ("generator", rows)),
        hashable.map(lambda rows: ("set", set(rows))),
        hashable.map(lambda rows: ("frozenset", frozenset(rows))),
    )


def _outcome(coerce, d, kind, cells):
    """The array, or the exception's type name and message."""
    try:
        arr = coerce(d, iter(cells) if kind == "generator" else cells)
    except Exception as exc:  # compared by type name: the oracle has its own classes
        return type(exc).__name__, str(exc)
    return arr.dtype, arr.shape, arr.tolist()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), d=st.sampled_from([1, 2, 3]))
def test_as_cell_array_matches_per_cell_oracle(data, d):
    kind, cells = data.draw(_collections(d))
    got = _outcome(lambda d, c: groups.as_cell_array(GroupSpec.grid(d), c), d, kind, cells)
    assert got == _outcome(oracles.as_cell_array, d, kind, cells)


def test_as_cell_array_reads_tuples_without_element(monkeypatch):
    spec = tiling.builtin("hilbert")
    w = tiling.expand(tiling.sample_address(spec, 6, 3))
    F = orders.interval(w, w.lo, w.hi)
    cross = oracles.unit_cross(2)  # a frozenset of tuples
    assert len(F) == 4096

    def no_element(spec, value):
        raise AssertionError("groups.element called")

    monkeypatch.setattr(groups, "element", no_element)
    assert np.array_equal(groups.as_cell_array(spec.group, F), w.array)
    assert sorted(groups.as_cell_array(spec.group, cross).tolist()) == sorted(map(list, cross))
    assert folner.invariance_ratio(spec.group, F, cross) == folner.invariance_ratio(
        spec.group, w.array, folner.unit_cross(spec.group))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cell_tuples_match_row_tuples(d):
    rows = np.random.default_rng(d).integers(-2**40, 2**40, size=(37, d))
    for arr in (rows, rows[:0], rows[5:6]):
        got = groups.cell_tuples(arr)
        assert got == list(map(tuple, arr.tolist()))
        assert all(type(x) is int for cell in got for x in cell)
    cells = np.arange(12)[:, None] * np.arange(1, d + 1)  # distinct, identity first
    expected = list(map(tuple, cells.tolist()))
    w = orders.OrderWindow(GroupSpec.grid(d), 0, 11, cells)
    assert orders.interval(w, 3, 2) == []
    assert orders.interval(w, 0, 11) == expected
    bernoulli = process.Bernoulli(GroupSpec.grid(d), (0.5, 0.5))
    assert process.sample(bernoulli, cells, seed=0).cells == tuple(expected)
