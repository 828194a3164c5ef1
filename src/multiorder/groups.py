"""Lattice groups Z^d and finite element sets.

Single elements are plain int tuples of length d.  The groups are abelian
and the law is coordinatewise addition: ``compose``/``inverse`` apply it to
single elements, while cell arrays use int64 arithmetic directly
(``translate``, ``add_cells``).  For d = 1 the helpers accept bare ints.
Cell sets enter and leave every module as (n, d) int64 arrays (``box``
returns one): ``as_cell_array`` builds one from user input (reading int
tuples in bulk), and ``cell_tuples`` reads one back as tuples for the few
views that still list elements.  ``CellRows``, what ``orders.interval``
returns, is one: a list of element tuples over a read-only array, built
only when an element is read, while ``as_cell_array`` takes its array as
it is.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BudgetError, DimensionMismatchError, InputError

BOX_BUDGET = 1 << 22  # cells of a box, the bound of the curve and overlay-phase budgets too

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
            if exact_int(obj.get("d", 1), "group dimension d") != 1:
                raise InputError("int_line requires d = 1")
            return cls(1)
        if kind == "int_grid":
            if "d" not in obj:
                raise InputError("int_grid requires a dimension field d")
            return cls(exact_int(obj["d"], "group dimension d"))
        raise InputError(f"unknown group kind {kind!r}")


def _index(x) -> int:
    """x as an int for Python and numpy integers; TypeError for the rest (bools too)."""
    if type(x) is bool:
        raise TypeError
    return operator.index(x)


def exact_int(value, what: str) -> int:
    """An integer JSON field, read with the check ``element`` applies to
    coordinates: InputError instead of truncating 1.7 or reading true as 1."""
    try:
        return _index(value)
    except TypeError:
        raise InputError(f"{what} must be an int, got {value!r}") from None


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
        out = tuple(map(_index, (value,) if bare else value))
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

    An int64 2-d array, or a ``CellRows`` view's array, passes through
    after the dimension check, without a copy; length-d
    tuples and lists of exact ints (no bools) are read in bulk, and anything
    else goes through ``element`` cell by cell, with its errors.
    """
    if isinstance(cells, CellRows):
        cells = cells.array
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


class CellRows(Sequence):
    """The rows of an (n, d) int64 array as an immutable list of element
    tuples: ``len``, iteration, indexing, slicing, ``repr`` and ``==``
    against lists behave as for ``cell_tuples(array)``, which is built on
    the first element access and kept.  Unhashable, like a list.
    ``array`` is a read-only view of the rows, which ``as_cell_array``
    hands on as it is; a view of a window's rows keeps that window's whole
    array alive."""

    __slots__ = ("_arr", "_tuples")

    def __init__(self, arr: np.ndarray):
        self._arr = read_only(arr.view())  # a view: the caller's array keeps its flags
        self._tuples = None

    @property
    def array(self) -> np.ndarray:
        return self._arr

    def _list(self) -> list[Element]:
        if self._tuples is None:
            self._tuples = cell_tuples(self._arr)
        return self._tuples

    def __len__(self) -> int:
        return len(self._arr)

    def __iter__(self):
        return iter(self._list())

    def __getitem__(self, i):
        return self._list()[i]

    def __eq__(self, other):
        return self._list() == (other._list() if isinstance(other, CellRows) else other)

    def __repr__(self) -> str:
        return repr(self._list())


def check_sums(a: np.ndarray, b: np.ndarray) -> None:
    """InputError where a coordinate of a plus one of b could leave int64."""
    if (int(a.min(initial=0)) + int(b.min(initial=0)) < -2**63
            or int(a.max(initial=0)) + int(b.max(initial=0)) >= 2**63):
        raise InputError("sums of cell coordinates must fit in int64")


def add_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b on int64 cell arrays (broadcast), raising InputError where a
    coordinate sum could leave int64 (``check_sums``) instead of letting
    numpy wrap it."""
    check_sums(a, b)
    return a + b


def translate(rows: np.ndarray, g, out: np.ndarray = None) -> np.ndarray:
    """rows - g for an (n, d) int64 cell array and one cell g (every cell
    times g^-1), into out (a new array by default; rows itself is safe, g
    may be one of its rows), one column at a time: a broadcast row
    subtraction runs numpy's inner loop over only d entries per row."""
    out = np.empty_like(rows) if out is None else out
    for c, x in enumerate(np.asarray(g).tolist()):
        np.subtract(rows[:, c], x, out=out[:, c])
    return out


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
    rows in lexicographic order, or BudgetError, before any, over BOX_BUDGET."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    side = 2 * radius + 1
    if side**spec.d > BOX_BUDGET:
        raise BudgetError(f"box of radius {radius} in Z^{spec.d} has {side**spec.d} cells, "
                          f"more than the budget of {BOX_BUDGET}")
    return read_only(np.indices((side,) * spec.d, dtype=np.int64).reshape(spec.d, -1).T - radius)


def encode(g: Element) -> list[int]:
    """Canonical JSON form of an element: a list of ints."""
    return [int(x) for x in g]


def decode(spec: GroupSpec, data) -> Element:
    if not hasattr(data, "__iter__"):
        raise InputError(f"encoded element must be an int array, got {data!r}")
    return element(spec, data)
