"""Ordered substitution tiling systems and the orders they induce.

A system fixes, for every level k >= 0, a table of labelled shapes (finite
cell sets containing the identity) and, for k >= 1, a table of one ordered
rule per level-k shape decomposing it exactly into translated level-(k-1)
shapes.  Level 0 holds the single singleton shape.  Expanding a level-L
shape by recursively concatenating child expansions in rule order lays the
shape's cells on a discrete curve.  The built-in systems (two dyadic
interval systems on the line, the Hilbert-curve square system on the plane)
are rows of one table of rules over the boxes [0, 2^k)^d, read by one
builder; builtin(name) gives one shared, read-only spec per name per process.

Both tables are plain dicts keyed by label: a shape table maps each label
to its cells, a rule table maps each label to its ordered (child label,
offset) pairs.  A spec hands them out read-only and holds a shape's cells
as one (n, d) int64 array of sorted rows.  Each spec also caches one child
table per (level, label): child labels, an (arity, d) int64 offset array
and each child's start rank, the prefix sums of the child sizes, summed
over the child tables below.  Curves are built from it too, so drawing an
address builds no curve and reads no shape table.

An address fixes a level-L top shape together with one digit per level
selecting the central subtile, which pins where the identity sits inside
the expanded top tile.  An Address walks its digits down the child table
once, on construction, recording per level the central tile's label and
size and the identity's rank in it.  window(addr, p, f) slices order
positions -p..f from the curve of the lowest central tile holding them, at
any level up to 63; expand is the window over the whole top tile.
An address whose digits all pick the first (or last) child gives a
degenerate order, with the identity at rank 0 (or size - 1) of the top
tile; samplers read straightness off that anchor rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import groups
from .errors import BudgetError, InputError, MissingRuleError, MultiorderError, OutOfWindowError
from .groups import GroupSpec
from .orders import OrderWindow
from .process import choice_cdf, inverse_cdf, stationary_distribution
from .util import child_seed, group_keys, make_rng, row_codes

SINGLETON_LABEL = "o"
MAX_TRIES = 1000  # address draws sample_straight_address makes before giving up
CURVE_BUDGET = 1 << 22  # cells of a whole-tile curve: expand and check_curve_budget


class TilingSystemSpec:
    """Level-indexed shape and rule tables, with memoized expansions.

    shapes_fn(k) returns the level-k shape table {label: cells}, cells any
    collection of cells; rules_fn(k) returns the level-k rule table {label:
    ((child label, offset), ...)}, whose translated level-(k-1) children must
    partition the shape exactly, in curve order.  The two-level dyadic
    system on the line:

        shapes_fn(0) == {"o": [(0,)]}
        shapes_fn(1) == {"I": [(0,), (1,)]}
        shapes_fn(2) == {"I": [(0,), (1,), (2,), (3,)]}
        rules_fn(1) == {"I": (("o", (0,)), ("o", (1,)))}
        rules_fn(2) == {"I": (("I", (0,)), ("I", (2,)))}
    """

    def __init__(self, group: GroupSpec, name: str, shapes_fn, rules_fn,
                 canonical_label: str, max_level=None):
        self.group = group
        self.name = name
        self._shapes_fn = shapes_fn
        self._rules_fn = rules_fn
        self.canonical_label = canonical_label
        self.max_level = max_level
        self._shapes_cache: dict = {}
        self._rules_cache: dict = {}
        self._children_cache: dict = {}
        self._curve_cache: dict = {}
        self._top_law_cache: dict = {}

    def _check_level(self, k: int, floor: int) -> None:
        if k < floor:
            raise InputError(f"level must be >= {floor}, got {k}")
        if self.max_level is not None and k > self.max_level:
            raise InputError(f"level {k} exceeds known levels (max {self.max_level})")

    def shapes(self, k: int) -> MappingProxyType:
        """The level-k shape table (k >= 0) as a read-only {label: read-only
        (n, d) int64 array of the distinct cells, rows in lexicographic order}."""
        self._check_level(k, 0)
        if k not in self._shapes_cache:
            table = self._shapes_fn(k)
            # Labels sharing one cell collection share one array.
            arrays = {id(cells): groups.as_cell_array(self.group, cells)
                      for cells in table.values()}
            arrays = {key: groups.read_only(rows[group_keys(row_codes(rows))[0]])
                      for key, rows in arrays.items()}
            self._shapes_cache[k] = MappingProxyType(
                {lab: arrays[id(cells)] for lab, cells in table.items()})
        return self._shapes_cache[k]

    def rules(self, k: int) -> MappingProxyType:
        """The level-k rule table (k >= 1), read-only: {label: ((child label,
        offset), ...)}."""
        self._check_level(k, 1)
        if k not in self._rules_cache:
            self._rules_cache[k] = MappingProxyType(dict(self._rules_fn(k)))
        return self._rules_cache[k]

    def rule(self, k: int, label: str) -> tuple:
        try:
            return self.rules(k)[label]
        except KeyError:
            raise MissingRuleError(f"no rule for shape {label!r} at level {k}") from None

    def children(self, k: int, label: str) -> tuple:
        """The rule of a level-k shape as (child labels, (arity, d) int64
        offsets, ranks); ranks[i] is the curve rank at which child i starts
        and ranks[-1] is the shape's size, summed over the child tables below
        without building a curve.  Level-0 tiles are singletons."""
        key = (k, label)
        if key not in self._children_cache:
            rule = self.rule(k, label)
            labels = tuple(child_label for child_label, _ in rule)
            offsets = groups.as_cell_array(self.group, [off for _, off in rule])
            offsets.setflags(write=False)
            sizes = (self.children(k - 1, c)[2][-1] if k > 1 else 1 for c in labels)
            self._children_cache[key] = (labels, offsets, (0, *accumulate(sizes)))
        return self._children_cache[key]

    def curve(self, k: int, label: str) -> np.ndarray:
        """The expansion order of a level-k shape as an (size, d) array.

        Row r is the cell visited r-th when the shape is recursively
        decomposed and children are traversed in rule order.
        """
        key = (k, label)
        if key not in self._curve_cache:
            if k == 0:
                if label not in self.shapes(0):
                    raise InputError(f"no shape {label!r} at level 0")
                arr = np.zeros((1, self.group.d), dtype=np.int64)
            else:
                labels, offsets, _ = self.children(k, label)
                if k == 1:  # level-0 tiles are singletons at the origin
                    arr = offsets.copy()
                else:
                    arr = np.concatenate([self.curve(k - 1, c) + off
                                          for c, off in zip(labels, offsets)], axis=0)
            arr.setflags(write=False)
            self._curve_cache[key] = arr
        return self._curve_cache[key]

    def labels(self, k: int) -> list[str]:
        """The sorted level-k labels: the keys of the raw shape table, so no
        shape array is built or cached."""
        self._check_level(k, 0)
        return sorted(self._shapes_fn(k))

    def to_json(self, max_level: int) -> dict:
        """Serialize shape tables and rules up to the given level."""
        shapes = {str(k): {lab: cells.tolist() for lab, cells in self.shapes(k).items()}
                  for k in range(0, max_level + 1)}
        rules = {str(k): {lab: [[cl, groups.encode(groups.element(self.group, off))]
                                for cl, off in r]
                          for lab, r in self.rules(k).items()}
                 for k in range(1, max_level + 1)}
        return {
            "name": self.name,
            "group": self.group.to_json(),
            "canonical_label": self.canonical_label,
            "max_level": max_level,
            "shapes": shapes,
            "rules": rules,
        }

    @classmethod
    def from_tables(cls, group: GroupSpec, name: str, shapes_by_level: dict,
                    rules_by_level: dict, canonical_label: str,
                    max_level: int) -> "TilingSystemSpec":
        """Build a spec from explicit per-level tables: shape tables at every
        level 0..max_level and rule tables at every level 1..max_level, in the
        format of shapes_fn and rules_fn.  The two-level dyadic system:

            shapes_by_level = {0: {"o": [(0,)]}, 1: {"I": [(0,), (1,)]},
                               2: {"I": [(0,), (1,), (2,), (3,)]}}
            rules_by_level = {1: {"I": (("o", (0,)), ("o", (1,)))},
                              2: {"I": (("I", (0,)), ("I", (2,)))}}
        """
        for kind, tables, floor in (("shape", shapes_by_level, 0), ("rule", rules_by_level, 1)):
            missing = [k for k in range(floor, max_level + 1) if k not in tables]
            if missing:
                raise InputError(f"no {kind} table at levels {missing} (max_level {max_level})")
        return cls(group, name, shapes_by_level.__getitem__, rules_by_level.__getitem__,
                   canonical_label, max_level)

    @classmethod
    def from_json(cls, obj: dict) -> "TilingSystemSpec":
        try:
            group = GroupSpec.from_json(obj["group"])
            max_level = groups.exact_int(obj["max_level"], "max_level")
            shapes_by_level = {int(k): {lab: [groups.decode(group, c) for c in cells]
                                        for lab, cells in table.items()}
                               for k, table in obj["shapes"].items()}
            rules_by_level = {int(k): {lab: _decode_rule(group, children)
                                       for lab, children in table.items()}
                              for k, table in obj["rules"].items()}
            return cls.from_tables(group, obj["name"], shapes_by_level, rules_by_level,
                                   obj["canonical_label"], max_level)
        except InputError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed tiling JSON: {type(exc).__name__}: {exc}") from None


def _decode_rule(group: GroupSpec, children) -> tuple:
    for child in children:
        if not (isinstance(child, (list, tuple)) and len(child) == 2 and isinstance(child[0], str)):
            raise InputError(f"rule child must be a [label, element] pair, got {child!r}")
    return tuple((cl, groups.decode(group, off)) for cl, off in children)


class _Walk(NamedTuple):
    """An address's digits walked down the child table, top first."""

    labels: tuple  # central-tile label at levels L, L-1, ..., 0
    ranks: tuple  # identity's curve rank in the central tile at levels L, ..., 0
    sizes: tuple  # curve length of the central tile at levels L, ..., 0


@dataclass(frozen=True)
class Address:
    """A level-L top shape and digits d_L..d_1 selecting central subtiles.

    digits[0] is the top-level digit d_L; digits[-1] is d_1, which picks the
    level-0 singleton holding the identity.
    """

    spec: TilingSystemSpec = field(compare=False)
    level: int
    top: str
    digits: tuple
    _walk: _Walk = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.level < 1:
            raise InputError(f"address level must be >= 1, got {self.level}")
        if len(self.digits) != self.level:
            raise InputError(
                f"address needs {self.level} digits, got {len(self.digits)}"
            )
        if any(type(d) is bool or not isinstance(d, (int, np.integer)) for d in self.digits):
            raise InputError(f"address digits must be ints, got {self.digits!r}")
        labels, starts, sizes = [self.top], [], []
        for k, d in zip(range(self.level, 0, -1), self.digits):
            child_labels, _, child_ranks = self.spec.children(k, labels[-1])
            arity = len(child_labels)
            if not 1 <= d <= arity:
                raise InputError(
                    f"digit d_{k} = {d} out of range 1..{arity} for shape {labels[-1]!r}"
                )
            labels.append(child_labels[d - 1])
            starts.append(child_ranks[d - 1])
            sizes.append(child_ranks[-1])
        ranks = tuple(accumulate(reversed(starts), initial=0))[::-1]
        object.__setattr__(self, "_walk", _Walk(tuple(labels), ranks, (*sizes, 1)))


@dataclass(frozen=True)
class Violation:
    level: int
    label: str
    kind: str
    witness: object = None


@dataclass(frozen=True)
class ValidationReport:
    levels_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_spec(spec: TilingSystemSpec, max_level: int) -> ValidationReport:
    """Check exact-partition, identity-containing, and rule-coverage
    conditions for levels 1..max_level.  Violations are reported as data,
    not raised; witness cells are int tuples, in sorted order per kind."""
    if max_level < 0:
        raise InputError(f"level must be >= 0, got {max_level}")
    violations = []
    e = groups.identity(spec.group)
    for k in range(0, max_level + 1):
        for lab, shape in spec.shapes(k).items():
            if not (shape == 0).all(axis=1).any():
                violations.append(Violation(k, lab, "missing_identity", e))
    if not spec.shapes(0) or any(len(s) != 1 for s in spec.shapes(0).values()):
        violations.append(Violation(0, "", "level_zero_not_singletons", None))
    for k in range(1, max_level + 1):
        shapes_below = spec.shapes(k - 1)
        rules_k = spec.rules(k)
        for lab, shape in spec.shapes(k).items():
            if lab not in rules_k:
                violations.append(Violation(k, lab, "missing_rule", None))
                continue
            children = rules_k[lab]
            offsets = groups.as_cell_array(spec.group, [off for _, off in children])
            unknown = [c for c, _ in children if c not in shapes_below]
            violations.extend(Violation(k, lab, "unknown_child", c) for c in unknown)
            rows = np.concatenate([shape] + [
                groups.add_cells(shapes_below[c], off)
                for (c, _), off in zip(children, offsets) if c in shapes_below])
            # The sort is stable and parent rows are distinct, so a group of
            # equal rows starts with the parent's row if it has one; c child
            # rows in a group overlap c - 1 times.
            first, _, counts = group_keys(row_codes(rows))
            cells = rows[first]
            in_parent = first < len(shape)
            n_child = counts - in_parent
            found = {"overlapping_children": np.repeat(cells, np.maximum(n_child - 1, 0), axis=0)}
            if not unknown:
                found["uncovered_cell"] = cells[n_child == 0]
                found["cell_outside_parent"] = cells[~in_parent]
            violations.extend(Violation(k, lab, kind, tuple(cell))
                              for kind, arr in found.items() for cell in arr.tolist())
    return ValidationReport(max_level, tuple(violations))


def top_shape_distribution(spec: TilingSystemSpec, level: int = 2):
    """Stationary law of the central-tile label chain across levels.

    Built from the child-label count matrix of the rules at the given level
    (the built-ins use the same label set and counts at every level >= 1),
    with rows normalized by rule arity.  Returns (labels, probs), cached on
    the spec per level.
    """
    if level not in spec._top_law_cache:
        rules = spec.rules(level)
        labels = tuple(sorted(rules))
        n = len(labels)
        if {c for r in rules.values() for c, _ in r} != set(labels):
            # Non-stationary label sets (e.g. level 1 over the singleton): the
            # chain has nowhere to mix, so fall back to uniform over top labels.
            probs = np.full(n, 1.0 / n)
        else:
            P = np.zeros((n, n))
            for i, lab in enumerate(labels):
                rule = rules[lab]
                for child_label, _ in rule:
                    P[i, labels.index(child_label)] += 1.0 / len(rule)
            probs = stationary_distribution(P)
        probs.setflags(write=False)
        spec._top_law_cache[level] = (labels, probs)
    return spec._top_law_cache[level]


def sample_address(spec: TilingSystemSpec, level: int, seed) -> Address:
    """Draw an address: top shape from the stationary label law, then one
    independent uniform digit per level."""
    if level < 1:
        raise InputError(f"level must be >= 1, got {level}")
    rng = make_rng(seed)
    labels, probs = top_shape_distribution(spec, min(level, 2))
    top = labels[int(inverse_cdf(choice_cdf(probs), rng.random()))]
    digits, label = [], top
    for k in range(level, 0, -1):
        child_labels = spec.children(k, label)[0]
        d = int(rng.integers(1, len(child_labels) + 1))
        digits.append(d)
        label = child_labels[d - 1]
    return Address(spec, level, top, tuple(digits))


def anchor_rank(addr: Address) -> int:
    """0-based position of the identity in the expansion of the top tile."""
    return addr._walk.ranks[0]


def window(addr: Address, past: int, future: int) -> OrderWindow:
    """Order positions -past..future as an anchored window: rows r-past..r+future
    of the curve of the lowest central tile holding them, r the identity's
    rank there, translated so that row r is the identity.  A central tile's
    curve is a contiguous, translated block of the top tile's curve, so any
    tile holding them gives the same window; OutOfWindowError if none does."""
    walk = addr._walk
    for pos in range(addr.level, -1, -1):
        r = walk.ranks[pos]
        if past <= r <= walk.sizes[pos] - 1 - future:
            base = addr.spec.curve(addr.level - pos, walk.labels[pos])
            return OrderWindow(addr.spec.group, -past, future,
                               groups.translate(base[r - past:r + future + 1], base[r]),
                               _trusted=True)
    raise OutOfWindowError(f"positions [{-past}, {future}] outside the top tile")


def check_curve_budget(spec: TilingSystemSpec, k: int, label: str) -> None:
    """BudgetError if a level-k shape has over CURVE_BUDGET cells, read off the
    child table before any curve is built; window needs no check."""
    size = spec.children(k, label)[2][-1] if k else 1
    if size > CURVE_BUDGET:
        raise BudgetError(f"level-{k} shape {label!r} has {size} cells, "
                          f"more than the budget of {CURVE_BUDGET}")


def expand(addr: Address) -> OrderWindow:
    """The whole addressed top tile as an anchored order window, in budget."""
    check_curve_budget(addr.spec, addr.level, addr._walk.labels[0])
    rank = addr._walk.ranks[0]
    return window(addr, rank, addr._walk.sizes[0] - 1 - rank)


def sample_straight_address(spec: TilingSystemSpec, level: int, seed,
                            need_past: int = 0, need_future: int = 0):
    """Sample addresses until one is straight up to its level and its
    expansion covers [-need_past, need_future], in at most MAX_TRIES draws.
    Returns (address, retries)."""
    for attempt in range(MAX_TRIES):
        addr = sample_address(spec, level, child_seed(seed, attempt))
        # rank 0 (size - 1) exactly when every digit picks the first (last) child
        if (max(need_past, 1) <= anchor_rank(addr)
                <= addr._walk.sizes[0] - 1 - max(need_future, 1)):
            return addr, attempt
    raise MultiorderError(
        f"no straight covering address found in {MAX_TRIES} tries "
        f"(level={level}, need_past={need_past}, need_future={need_future})"
    )


# The built-ins as one table, {name: (d, canonical label, (rules at odd
# levels, rules at even levels))}.  A rule lists (child label, corner) in
# curve order: a corner c in {0,1}^d puts the child at c * 2^(k-1) in the
# level-k box [0, 2^k)^d.  Hilbert labels name the side the curve opens to
# (U up, D down, R right, L left), with x rightward and y upward.
_DYADIC = {"I": (("I", (0,)), ("I", (1,)))}
_HILBERT = {
    "U": (("L", (0, 1)), ("U", (0, 0)), ("U", (1, 0)), ("R", (1, 1))),
    "R": (("D", (1, 0)), ("R", (0, 0)), ("R", (0, 1)), ("U", (1, 1))),
    "L": (("U", (0, 1)), ("L", (1, 1)), ("L", (1, 0)), ("D", (0, 0))),
    "D": (("R", (1, 0)), ("D", (1, 1)), ("D", (0, 1)), ("L", (0, 0))),
}
_BUILTINS = {
    "dyadic_standard": (1, "I", (_DYADIC, _DYADIC)),
    "dyadic_alternating": (1, "I", ({"I": _DYADIC["I"][::-1]}, _DYADIC)),
    "hilbert": (2, "U", (_HILBERT, _HILBERT)),
}
_BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> TilingSystemSpec:
    """One of: dyadic_standard, dyadic_alternating, hilbert.  Each name gives
    one shared spec for the life of the process, so every caller reuses its
    cached child tables, top-label laws and curves; all of them are read-only."""
    if name not in _BUILTIN_NAMES:
        raise InputError(f"unknown tiling system {name!r}; choose from {_BUILTIN_NAMES}")
    return _shared_builtin(name)


def _new_builtin(name: str) -> TilingSystemSpec:
    """A fresh spec of a built-in system, with empty caches, read off its
    row of the table: every label's level-k shape is the box [0, 2^k)^d, and
    level-1 children are the singleton."""
    d, canonical_label, rules_by_parity = _BUILTINS[name]

    def shapes_fn(k):
        box = np.indices((2**k,) * d, dtype=np.int64).reshape(d, -1).T
        return dict.fromkeys(rules_by_parity[0] if k else (SINGLETON_LABEL,), box)

    def rules_fn(k):
        half = 2 ** (k - 1)
        return {lab: tuple((child if k > 1 else SINGLETON_LABEL, tuple(c * half for c in corner))
                           for child, corner in rule)
                for lab, rule in rules_by_parity[(k + 1) % 2].items()}

    return TilingSystemSpec(GroupSpec.grid(d), name, shapes_fn, rules_fn, canonical_label)


_shared_builtin = functools.cache(_new_builtin)
