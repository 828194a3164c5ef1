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
from .util import count_distinct_rows, make_rng


class Comparison(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _check_count(arr: np.ndarray, n_expected: int) -> np.ndarray:
    if arr.shape[0] != n_expected:
        raise InputError(
            f"window spans {n_expected} positions but {arr.shape[0]} cells given"
        )
    return arr


class OrderWindow:
    """Positions lo..hi of an anchored order, with cell(0) = identity."""

    __slots__ = ("group", "lo", "hi", "_arr")

    def __init__(self, group: GroupSpec, lo: int, hi: int, cells, *, _trusted=False):
        self.group = group
        self.lo = int(lo)
        self.hi = int(hi)
        if isinstance(cells, np.ndarray) and _trusted:
            arr = cells
        else:
            if self.lo > 0 or self.hi < 0:
                raise InputError(f"window [{lo}, {hi}] must contain position 0")
            arr = _check_count(groups.as_cell_array(group, cells), len(self))
            if not np.array_equal(arr[-self.lo], np.zeros(group.d, dtype=np.int64)):
                raise InputError(
                    f"cell(0) must be the identity, got {tuple(arr[-self.lo])}"
                )
            if count_distinct_rows(arr) != arr.shape[0]:
                raise InputError("window cells must be pairwise distinct")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        self._arr = arr

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def array(self) -> np.ndarray:
        """Read-only (n, d) array of cells; row r is position lo + r."""
        return self._arr

    def cell(self, i: int) -> Element:
        if i < self.lo or i > self.hi:
            raise OutOfWindowError(f"position {i} outside window [{self.lo}, {self.hi}]")
        return tuple(int(x) for x in self._arr[i - self.lo])

    def cells(self) -> list[Element]:
        return groups.cell_tuples(self._arr)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderWindow):
            return NotImplemented
        return (
            self.group == other.group
            and self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self):
        return hash((self.group, self.lo, self.hi, self._arr.tobytes()))

    def __repr__(self) -> str:
        return f"OrderWindow(d={self.group.d}, lo={self.lo}, hi={self.hi}, n={len(self)})"

    def to_json(self) -> dict:
        return {
            "form": "window",
            "group": self.group.to_json(),
            "lo": self.lo,
            "hi": self.hi,
            "cells": [[self.lo + r, row] for r, row in enumerate(self._arr.tolist())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrderWindow":
        return _positions_from_json(cls, obj, "cells", 1)


class IncrementWindow:
    """Successive differences of an order window over positions lo..hi-1.

    incr(i) composed with cell(i) gives cell(i+1); the anchor cell(0) = e is
    implicit, so the increments plus the range determine the window.
    """

    __slots__ = ("group", "lo", "hi", "_arr")

    def __init__(self, group: GroupSpec, lo: int, hi: int, incr, *, _trusted=False):
        self.group = group
        self.lo = int(lo)
        self.hi = int(hi)
        if self.lo > 0 or self.hi < 0:
            raise InputError(f"window [{lo}, {hi}] must contain position 0")
        if isinstance(incr, np.ndarray) and _trusted:
            arr = incr
        else:
            arr = _check_count(groups.as_cell_array(group, incr), self.hi - self.lo)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        self._arr = arr

    @property
    def array(self) -> np.ndarray:
        return self._arr

    def incr(self, i: int) -> Element:
        if i < self.lo or i >= self.hi:
            raise OutOfWindowError(
                f"increment position {i} outside [{self.lo}, {self.hi - 1}]"
            )
        return tuple(int(x) for x in self._arr[i - self.lo])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncrementWindow):
            return NotImplemented
        return (
            self.group == other.group
            and self.lo == other.lo
            and self.hi == other.hi
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self):
        return hash((self.group, self.lo, self.hi, self._arr.tobytes()))

    def __repr__(self) -> str:
        return f"IncrementWindow(d={self.group.d}, lo={self.lo}, hi={self.hi})"

    def to_json(self) -> dict:
        return {
            "form": "increments",
            "group": self.group.to_json(),
            "lo": self.lo,
            "hi": self.hi,
            "incr": [[self.lo + r, row] for r, row in enumerate(self._arr.tolist())],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IncrementWindow":
        return _positions_from_json(cls, obj, "incr", 0)


def _positions_from_json(cls, obj: dict, key: str, extra: int):
    """Build a window (extra = 1) or increments (extra = 0) from JSON whose
    `key` lists [position, element] pairs for exactly lo..hi-1+extra."""
    spec = GroupSpec.from_json(obj["group"])
    lo, hi = int(obj["lo"]), int(obj["hi"])
    by_pos = {}
    for i, enc in obj[key]:
        i = int(i)
        if i in by_pos:
            raise InputError(f"duplicate position {i} in {cls.__name__} JSON")
        by_pos[i] = groups.decode(spec, enc)
    positions = list(range(lo, hi + extra))
    if sorted(by_pos) != positions:
        raise InputError(f"{cls.__name__} JSON {key} must cover exactly {lo}..{hi - 1 + extra}")
    return cls(spec, lo, hi, [by_pos[i] for i in positions])


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
        ranks = {groups.decode(spec, enc): int(r) for enc, r in obj["cells"]}
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
        cells -= cells[-iw.lo]
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
    arr = w.array - w.array[k - w.lo]
    return OrderWindow(w.group, w.lo - k, w.hi - k, arr, _trusted=True)


def interval(w: OrderWindow, i: int, j: int) -> list[Element]:
    """Cells in positions i..j (inclusive); empty if i > j."""
    return groups.cell_tuples(w.rows(i, j))


def interval_from_set(w: OrderWindow, F, n: int, side: str = "forward") -> set[Element]:
    """Union of the order intervals from each g in F to its n-th successor
    (side="forward") or from its n-th predecessor to g (side="backward")."""
    if side not in ("forward", "backward"):
        raise InputError(f"side must be 'forward' or 'backward', got {side!r}")
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    out: set[Element] = set()
    for g in F:
        k = w.index_of(g) - (n if side == "backward" else 0)
        out.update(groups.cell_tuples(w.rows(k, k + n)))
    return out


def compare(w: OrderWindow, a, b) -> Comparison:
    ka = w.index_of(a)
    kb = w.index_of(b)
    if ka < kb:
        return Comparison.LESS
    if ka > kb:
        return Comparison.GREATER
    return Comparison.EQUAL


def iid_order(group: GroupSpec, cells, seed) -> OrderRanking:
    """Rank a finite cell set by iid uniform draws (canonical tie-break).

    Cells are put in canonical sorted order, each receives an independent
    64-bit uniform draw, and ranks sort by (draw, cell).  Every ranking of
    the set is attainable and, over seeds, equally likely.  Demonstration
    sampler only: this is not the tiling-based order construction.
    """
    cs = sorted(groups.element(group, c) for c in cells)
    if len(set(cs)) != len(cs):
        raise InputError("cells must be distinct")
    rng = make_rng(seed)
    draws = rng.integers(0, 2**63, size=len(cs), dtype=np.int64)
    order = sorted(range(len(cs)), key=lambda r: (int(draws[r]), cs[r]))
    ranks = {cs[r]: pos for pos, r in enumerate(order)}
    return OrderRanking(group, ranks)
