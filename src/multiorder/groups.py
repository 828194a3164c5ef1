"""Lattice groups Z^d and finite element sets.

Single elements are plain int tuples of length d; the group law is written
through ``compose``/``inverse`` so callers never assume commutativity even
though the instantiated groups are abelian.  For d = 1 the helpers accept
bare ints.  Cell sets enter and leave every module as (n, d) int64 arrays
(``box`` returns one): ``as_cell_array`` builds one from user input (reading
int tuples in bulk), ``cell_tuples`` reads one back as tuples for the few
views that still list elements.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatchError, InputError

Element = tuple[int, ...]


@dataclass(frozen=True)
class GroupSpec:
    """The integer lattice of a fixed dimension d >= 1."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise InputError(f"group dimension must be an int >= 1, got {self.d!r}")

    @classmethod
    def line(cls) -> "GroupSpec":
        return cls(1)

    @classmethod
    def grid(cls, d: int) -> "GroupSpec":
        return cls(d)

    def to_json(self) -> dict:
        return {"kind": "int_grid", "d": self.d}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError(f"not a group spec: {obj!r}")
        kind = obj["kind"]
        if kind == "int_line":
            d = obj.get("d", 1)
            if d != 1:
                raise InputError("int_line requires d = 1")
            return cls(1)
        if kind == "int_grid":
            if "d" not in obj:
                raise InputError("int_grid requires a dimension field d")
            return cls(int(obj["d"]))
        raise InputError(f"unknown group kind {kind!r}")


def identity(spec: GroupSpec) -> Element:
    return (0,) * spec.d


def element(spec: GroupSpec, value) -> Element:
    """Coerce a bare int (d = 1) or an int sequence to a canonical element.

    Python and numpy integers are accepted; bools, floats and strings are not.
    """
    if isinstance(value, (str, bytes)):
        raise InputError(f"cannot interpret {value!r} as a group element")
    bare = not hasattr(value, "__iter__")
    try:
        vals = (value,) if bare else tuple(value)
        if bool in map(type, vals):
            raise TypeError
        out = tuple(map(operator.index, vals))
    except TypeError:
        raise InputError(f"group element {value!r} must contain only ints") from None
    if len(out) != spec.d:
        if bare:
            raise DimensionMismatchError(f"bare int {value} in dimension {spec.d}")
        raise DimensionMismatchError(
            f"element {out} has length {len(out)}, group dimension is {spec.d}"
        )
    return out


def as_cell_array(spec: GroupSpec, cells) -> np.ndarray:
    """The cells as an (n, d) int64 array, one row per cell in input order.

    An int64 2-d array passes through after the dimension check; length-d
    tuples and lists of exact ints (no bools) are read in bulk, and anything
    else goes through ``element`` cell by cell, with its errors.
    """
    if isinstance(cells, np.ndarray) and cells.dtype == np.int64 and cells.ndim == 2:
        if cells.shape[1] != spec.d:
            raise DimensionMismatchError(f"cells have dimension {cells.shape[1]}, "
                                         f"group dimension is {spec.d}")
        return cells
    rows = list(cells)
    if not (set(map(type, rows)) <= {tuple, list} and set(map(len, rows)) <= {spec.d}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        rows = [element(spec, c) for c in rows]
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, count=len(rows) * spec.d)
    except OverflowError:
        raise InputError("cell coordinates must fit in int64") from None
    return flat.reshape(len(rows), spec.d)


def read_only(arr: np.ndarray) -> np.ndarray:
    """The cells as a C-contiguous int64 array that cannot be written to."""
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def cell_tuples(arr: np.ndarray) -> list[Element]:
    """Rows as int tuples, built column-wise: half the GC-tracked objects of row-wise."""
    return list(zip(*arr.T.tolist()))


def add_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b on int64 cell arrays (broadcast), raising InputError where a
    coordinate sum could leave int64 instead of letting numpy wrap it."""
    if (int(a.min(initial=0)) + int(b.min(initial=0)) < -2**63
            or int(a.max(initial=0)) + int(b.max(initial=0)) >= 2**63):
        raise InputError("sums of cell coordinates must fit in int64")
    return a + b


def compose(spec: GroupSpec, a, b) -> Element:
    """The product a*b (coordinatewise sum on the lattice)."""
    a = element(spec, a)
    b = element(spec, b)
    return tuple(x + y for x, y in zip(a, b))


def inverse(spec: GroupSpec, a) -> Element:
    a = element(spec, a)
    return tuple(-x for x in a)


def box(spec: GroupSpec, radius: int) -> np.ndarray:
    """All elements with sup-norm at most radius: (2*radius+1)^d read-only
    rows in lexicographic order."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    return read_only(np.indices((side,) * spec.d, dtype=np.int64).reshape(spec.d, -1).T - radius)


def encode(g: Element) -> list[int]:
    """Canonical JSON form of an element: a list of ints."""
    return [int(x) for x in g]


def decode(spec: GroupSpec, data) -> Element:
    if not hasattr(data, "__iter__"):
        raise InputError(f"encoded element must be an int array, got {data!r}")
    return element(spec, data)
