from itertools import product

import numpy as np
import pytest

from multiorder import groups
from multiorder.errors import DimensionMismatchError, InputError
from multiorder.groups import GroupSpec


@pytest.mark.parametrize("d", [1, 2, 3])
def test_group_axioms_exhaustive_on_box2(d):
    spec = GroupSpec.grid(d)
    elems = sorted(groups.box(spec, 2))
    assert len(elems) == 5**d
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
    for g in groups.box(spec, 8):
        assert groups.decode(spec, groups.encode(g)) == g


def test_box_sizes():
    assert len(groups.box(GroupSpec.line(), 3)) == 7
    assert len(groups.box(GroupSpec.grid(2), 3)) == 49


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
