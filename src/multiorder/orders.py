"""Finite windows of anchored orders of type Z on a lattice group.

An order of type Z on the group assigns every element an integer position,
with the identity at position 0.  A window records the positions lo..hi
(lo <= 0 <= hi) of one such order: ``cell(i)`` is the element in position i,
``cell(0)`` is the identity, and distinct positions hold distinct elements.

Three interchangeable forms are supported: the window itself, its increment
sequence (successive differences, which determine the window given the
anchor), and a plain ranking of a finite cell set.  The group acts on
windows by translating the anchor along the order: acting by the element in
position k re-centers the window so that element becomes the new anchor.

Windows and increments hold their cells as one read-only (n, d) int64 array
(``array``, sliced by ``rows``).  Tuples appear only for single elements
(``cell``, ``incr``, ``succ``).  ``interval`` returns a ``groups.CellRows``
view of the rows: it compares and lists like a list of element tuples, and
array readers (``folner``, ``process``) take its rows without reading a
tuple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import (
    DimensionMismatchError,
    InputError,
    InvalidIncrementsError,
    OutOfWindowError,
)
from .groups import Element, GroupSpec
from .util import count_distinct_rows


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class _PositionRows:
    """One read-only (n, d) int64 row per position lo..hi-1+_extra: the
    shared body of OrderWindow (cells, one per position lo..hi) and
    IncrementWindow (increments, one per position lo..hi-1).

    Subclasses name their JSON ``form`` and row ``key`` and add their own
    row checks in ``_check``; rows given as an array with ``_trusted`` skip
    the coercion and those checks.
    """

    __slots__ = ("group", "lo", "hi", "_arr")
    _form = _key = ""
    _extra = 0

    def __init__(self, group: GroupSpec, lo: int, hi: int, rows, *, _trusted=False):
        self.group = group
        self.lo = int(lo)
        self.hi = int(hi)
        if self.lo > 0 or self.hi < 0:
            raise InputError(f"window [{lo}, {hi}] must contain position 0")
        if not (isinstance(rows, np.ndarray) and _trusted):
            rows = groups.as_cell_array(group, rows)
            n_expected = self.hi - self.lo + self._extra
            if rows.shape[0] != n_expected:
                raise InputError(
                    f"window spans {n_expected} positions but {rows.shape[0]} cells given"
                )
            self._check(rows)
        self._arr = groups.read_only(rows)

    def _check(self, rows: np.ndarray) -> None:
        pass

    @property
    def array(self) -> np.ndarray:
        """Read-only (n, d) array; row r is position lo + r."""
        return self._arr

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.group == other.group
            and self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self):
        return hash((self.group, self.lo, self.hi, self._arr.tobytes()))

    def to_json(self) -> dict:
        return {
            "form": self._form,
            "group": self.group.to_json(),
            "lo": self.lo,
            "hi": self.hi,
            self._key: [[self.lo + r, row] for r, row in enumerate(self._arr.tolist())],
        }

    @classmethod
    def from_json(cls, obj: dict):
        """Rebuild from JSON whose ``key`` lists [position, element] pairs
        for exactly lo..hi-1+_extra."""
        spec = GroupSpec.from_json(obj["group"])
        lo, hi = groups.exact_int(obj["lo"], "lo"), groups.exact_int(obj["hi"], "hi")
        by_pos = {}
        for i, enc in obj[cls._key]:
            i = groups.exact_int(i, "position")
            if i in by_pos:
                raise InputError(f"duplicate position {i} in {cls.__name__} JSON")
            by_pos[i] = groups.decode(spec, enc)
        positions = list(range(lo, hi + cls._extra))
        if sorted(by_pos) != positions:
            raise InputError(f"{cls.__name__} JSON {cls._key} must cover exactly "
                             f"{lo}..{hi - 1 + cls._extra}")
        return cls(spec, lo, hi, [by_pos[i] for i in positions])


def _check_span(cells: np.ndarray, what: str) -> None:
    """InputError where the cells span 2^63 or more in some coordinate: a
    difference of two of them, an increment or a cell after act, would wrap."""
    if any(int(hi) - int(lo) >= 2**63 for lo, hi in zip(cells.min(axis=0), cells.max(axis=0))):
        raise InputError(f"{what} must span less than 2^63 in every coordinate")


class OrderWindow(_PositionRows):
    """Positions lo..hi of an anchored order, with cell(0) = identity."""

    __slots__ = ()
    _form, _key, _extra = "window", "cells", 1

    def _check(self, rows: np.ndarray) -> None:
        if not np.array_equal(rows[-self.lo], np.zeros(self.group.d, dtype=np.int64)):
            raise InputError(f"cell(0) must be the identity, got {tuple(rows[-self.lo])}")
        if count_distinct_rows(rows) != rows.shape[0]:
            raise InputError("window cells must be pairwise distinct")
        _check_span(rows, "window cells")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def cell(self, i: int) -> Element:
        if i < self.lo or i > self.hi:
            raise OutOfWindowError(f"position {i} outside window [{self.lo}, {self.hi}]")
        return tuple(int(x) for x in self._arr[i - self.lo])

    def rows(self, i: int, j: int) -> np.ndarray:
        """Read-only (j-i+1, d) array of the cells in positions i..j; no rows
        if i > j."""
        if i > j:
            return self._arr[:0]
        if i < self.lo or j > self.hi:
            raise OutOfWindowError(
                f"interval [{i}, {j}] outside window [{self.lo}, {self.hi}]"
            )
        return self._arr[i - self.lo : j - self.lo + 1]

    def index_of(self, g) -> int:
        g = groups.element(self.group, g)
        mask = np.logical_and.reduce([self._arr[:, c] == x for c, x in enumerate(g)])
        hits = np.nonzero(mask)[0]
        if hits.size == 0:
            raise OutOfWindowError(f"element {g} not in window")
        return self.lo + int(hits[0])

    def contains(self, g) -> bool:
        try:
            self.index_of(g)
            return True
        except (OutOfWindowError, DimensionMismatchError):
            return False

    def __repr__(self) -> str:
        return f"OrderWindow(d={self.group.d}, lo={self.lo}, hi={self.hi}, n={len(self)})"


class IncrementWindow(_PositionRows):
    """Successive differences of an order window over positions lo..hi-1.

    incr(i) composed with cell(i) gives cell(i+1); the anchor cell(0) = e is
    implicit, so the increments plus the range determine the window.
    """

    __slots__ = ()
    _form, _key, _extra = "increments", "incr", 0

    def _check(self, rows: np.ndarray) -> None:
        cells = np.cumsum(np.pad(rows, ((1, 0), (0, 0))), axis=0, dtype=object)  # exact ints
        _check_span(cells, "the cells the increments rebuild")

    def incr(self, i: int) -> Element:
        if i < self.lo or i >= self.hi:
            raise OutOfWindowError(
                f"increment position {i} outside [{self.lo}, {self.hi - 1}]"
            )
        return tuple(int(x) for x in self._arr[i - self.lo])

    def __repr__(self) -> str:
        return f"IncrementWindow(d={self.group.d}, lo={self.lo}, hi={self.hi})"


@dataclass(frozen=True)
class OrderRanking:
    """A bijection from a finite cell set onto ranks 0..n-1."""

    group: GroupSpec
    ranks: dict

    def __post_init__(self):
        n = len(self.ranks)
        if sorted(self.ranks.values()) != list(range(n)):
            raise InputError("ranks must be a bijection onto 0..n-1")

    def ordered(self) -> list[Element]:
        return [c for c, _ in sorted(self.ranks.items(), key=lambda kv: kv[1])]

    def to_json(self) -> dict:
        return {
            "form": "ranking",
            "group": self.group.to_json(),
            "cells": [[groups.encode(c), r] for c, r in sorted(self.ranks.items())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrderRanking":
        spec = GroupSpec.from_json(obj["group"])
        ranks = {groups.decode(spec, enc): groups.exact_int(r, "rank") for enc, r in obj["cells"]}
        return cls(spec, ranks)


def succ(w: OrderWindow, g) -> Element:
    """The order-successor of g, if both g and its successor are in-window."""
    k = w.index_of(g)
    if k >= w.hi:
        raise OutOfWindowError(f"successor of position {k} exceeds window hi={w.hi}")
    return w.cell(k + 1)


def to_increments(w: OrderWindow) -> IncrementWindow:
    diffs = np.diff(w.array, axis=0)
    return IncrementWindow(w.group, w.lo, w.hi, diffs, _trusted=True)


def from_increments(iw: IncrementWindow) -> OrderWindow:
    """Rebuild the window from its increments, anchored at the identity.

    Raises InvalidIncrementsError if the rebuilt cells collide.
    """
    n = iw.hi - iw.lo + 1
    cells = np.zeros((n, iw.group.d), dtype=np.int64)
    if n > 1:
        np.cumsum(iw.array, axis=0, out=cells[1:])
        groups.translate(cells, cells[-iw.lo], out=cells)
    if count_distinct_rows(cells) != n:
        raise InvalidIncrementsError("increments revisit a cell; order not injective")
    return OrderWindow(iw.group, iw.lo, iw.hi, cells, _trusted=True)


def act(w: OrderWindow, g) -> OrderWindow:
    """Translate the window by an in-window element g = cell(k).

    The result spans [lo-k, hi-k] and puts cell'(i) = cell(i+k) * g^(-1),
    so the new anchor is the old position-k element.
    """
    k = w.index_of(g)
    return _shift(w, k)


def _shift(w: OrderWindow, k: int) -> OrderWindow:
    if k == 0:
        return w
    arr = groups.translate(w.array, w.array[k - w.lo])
    return OrderWindow(w.group, w.lo - k, w.hi - k, arr, _trusted=True)


def interval(w: OrderWindow, i: int, j: int) -> groups.CellRows:
    """Cells in positions i..j (inclusive); empty if i > j.  A list of
    element tuples over ``w.rows(i, j)``, which array readers take as it is;
    it keeps the window's array alive."""
    return groups.CellRows(w.rows(i, j))


def compare(w: OrderWindow, a, b) -> Comparison:
    ka = w.index_of(a)
    kb = w.index_of(b)
    if ka < kb:
        return Comparison.LESS
    if ka > kb:
        return Comparison.GREATER
    return Comparison.EQUAL
