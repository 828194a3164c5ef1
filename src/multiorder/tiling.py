"""Ordered substitution tiling systems and the orders they induce.

A system fixes, for every level k >= 0, a set of labelled shapes (finite
cell sets containing the identity) and, for k >= 1, one ordered rule per
level-k shape decomposing it exactly into translated level-(k-1) shapes.
Level 0 holds the single singleton shape.  Expanding a level-L shape by
recursively concatenating child expansions in rule order lays the shape's
cells on a discrete curve; the built-in systems are two dyadic interval
systems on the line and the Hilbert-curve square system on the plane.

A shape's cells are one (n, d) int64 array of sorted rows.  Each spec also
caches one child table per (level, label): child labels, an (arity, d)
int64 offset array and each child's start rank, the prefix sums of the
child curve lengths.  Curves are built from it, so drawing and expanding an
address build no Shape.

An address fixes a level-L top shape together with one digit per level
selecting the central subtile, which pins where the identity sits inside
the expanded top tile.  An Address walks its digits down the child table
once, on construction; anchor_rank, straight_check, central_tile and expand
read that walk.  Expansion yields an anchored OrderWindow.  Addresses whose
top digits keep selecting the first (or last) child forever correspond to
degenerate orders; straight_check reports the truncated statistics and
samplers can reject on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import groups
from .errors import InputError, MultiorderError
from .groups import GroupSpec
from .orders import OrderWindow
from .process import choice_cdf, inverse_cdf, stationary_distribution
from .util import child_seed, make_rng, row_codes

SINGLETON_LABEL = "o"


@dataclass(frozen=True)
class Shape:
    """A labelled finite cell set containing the identity.  cells may be any
    collection of cells; TilingSystemSpec.shapes holds them as a read-only
    (n, d) int64 array of the distinct cells, rows in lexicographic order."""

    label: str
    cells: object


@dataclass(frozen=True)
class SubstitutionRule:
    """Ordered decomposition of a level-k shape into level-(k-1) tiles.

    children lists (child_label, offset) pairs; the translated child cell
    sets must partition the parent exactly, in the given order.
    """

    parent: str
    children: tuple

    @property
    def arity(self) -> int:
        return len(self.children)


class TilingSystemSpec:
    """Level-indexed shape tables and rules, with memoized expansions."""

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

    def shapes(self, k: int) -> dict:
        """Labelled shapes at level k (k >= 0)."""
        self._check_level(k, 0)
        if k not in self._shapes_cache:
            table = self._shapes_fn(k)
            # Labels sharing one cell collection share one array.
            arrays = {id(sh.cells): sh.cells for sh in table.values()}
            arrays = {key: _sorted_runs(groups.as_cell_array(self.group, cells))[2]
                      for key, cells in arrays.items()}
            self._shapes_cache[k] = {lab: Shape(sh.label, arrays[id(sh.cells)])
                                     for lab, sh in table.items()}
        return self._shapes_cache[k]

    def rules(self, k: int) -> dict:
        """Rules decomposing level-k shapes into level-(k-1) tiles (k >= 1)."""
        self._check_level(k, 1)
        if k not in self._rules_cache:
            self._rules_cache[k] = dict(self._rules_fn(k))
        return self._rules_cache[k]

    def rule(self, k: int, label: str) -> SubstitutionRule:
        try:
            return self.rules(k)[label]
        except KeyError:
            raise InputError(f"no rule for shape {label!r} at level {k}") from None

    def children(self, k: int, label: str) -> tuple:
        """The rule of a level-k shape as (child labels, (arity, d) int64
        offsets, ranks); ranks[i] is the curve rank at which child i starts
        and ranks[-1] is the shape's size.  Level-0 tiles are singletons."""
        key = (k, label)
        if key not in self._children_cache:
            rule = self.rule(k, label)
            labels = tuple(child_label for child_label, _ in rule.children)
            offsets = groups.as_cell_array(self.group, [off for _, off in rule.children])
            offsets.setflags(write=False)
            sizes = (len(self.curve(k - 1, c)) if k > 1 else 1 for c in labels)
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
        return sorted(self.shapes(k))

    def to_json(self, max_level: int) -> dict:
        """Serialize shape tables and rules up to the given level."""
        shapes = {str(k): {lab: sh.cells.tolist() for lab, sh in self.shapes(k).items()}
                  for k in range(0, max_level + 1)}
        rules = {str(k): {lab: [[cl, groups.encode(groups.element(self.group, off))]
                                for cl, off in r.children]
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
        """Build a spec from explicit per-level tables: shapes at every level
        0..max_level and rules at every level 1..max_level."""
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
            max_level = int(obj["max_level"])
            shapes_by_level = {int(k): {lab: Shape(lab, [groups.decode(group, c) for c in cells])
                                        for lab, cells in table.items()}
                               for k, table in obj["shapes"].items()}
            rules_by_level = {int(k): {lab: _decode_rule(group, lab, children)
                                       for lab, children in table.items()}
                              for k, table in obj["rules"].items()}
            return cls.from_tables(group, obj["name"], shapes_by_level, rules_by_level,
                                   obj["canonical_label"], max_level)
        except InputError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed tiling JSON: {type(exc).__name__}: {exc}") from None


def _decode_rule(group: GroupSpec, label: str, children) -> SubstitutionRule:
    for child in children:
        if not (isinstance(child, (list, tuple)) and len(child) == 2 and isinstance(child[0], str)):
            raise InputError(f"rule child must be a [label, element] pair, got {child!r}")
    return SubstitutionRule(label, tuple((cl, groups.decode(group, off)) for cl, off in children))


def _sorted_runs(rows: np.ndarray):
    """The permutation sorting the rows lexicographically (stable), the
    sorted positions where each run of equal rows starts, and the distinct
    rows in that order, read-only.  Row codes sort as their rows do."""
    codes = row_codes(rows)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(fresh)
    return order, starts, groups.read_only(rows[order[starts]])


class _Walk(NamedTuple):
    """An address's digits walked down the child table, top first."""

    labels: tuple  # central-tile label at levels L, L-1, ..., 0
    offsets: np.ndarray  # (L + 1, d): row i sums the first i chosen offsets
    arities: tuple  # rule arity at levels L, ..., 1
    rank: int  # curve rank of the identity in the top tile


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
        labels, arities, rank = [self.top], [], 0
        steps = np.zeros((self.level + 1, self.spec.group.d), dtype=np.int64)
        for pos, k in enumerate(range(self.level, 0, -1)):
            child_labels, offsets, ranks = self.spec.children(k, labels[-1])
            d = self.digits[pos]
            arity = len(child_labels)
            if not 1 <= d <= arity:
                raise InputError(
                    f"digit d_{k} = {d} out of range 1..{arity} for shape {labels[-1]!r}"
                )
            labels.append(child_labels[d - 1])
            arities.append(arity)
            steps[pos + 1] = offsets[d - 1]
            rank += ranks[d - 1]
        object.__setattr__(self, "_walk", _Walk(tuple(labels), steps.cumsum(axis=0),
                                                tuple(arities), rank))


@dataclass(frozen=True)
class StraightnessReport:
    """Top-run statistics of an address's digit sequence.

    all_first_suffix_len counts how many consecutive levels, from the top
    down, pick the first child; all_last_suffix_len does the same for the
    last child.  The address is straight up to its level iff neither run
    covers every digit.
    """

    all_first_suffix_len: int
    all_last_suffix_len: int
    straight_up_to_level: bool


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
            if not (shape.cells == 0).all(axis=1).any():
                violations.append(Violation(k, lab, "missing_identity", e))
    if not spec.shapes(0) or any(len(s.cells) != 1 for s in spec.shapes(0).values()):
        violations.append(Violation(0, "", "level_zero_not_singletons", None))
    for k in range(1, max_level + 1):
        shapes_below = spec.shapes(k - 1)
        rules_k = spec.rules(k)
        for lab, shape in spec.shapes(k).items():
            if lab not in rules_k:
                violations.append(Violation(k, lab, "missing_rule", None))
                continue
            children = rules_k[lab].children
            offsets = groups.as_cell_array(spec.group, [off for _, off in children])
            unknown = [c for c, _ in children if c not in shapes_below]
            violations.extend(Violation(k, lab, "unknown_child", c) for c in unknown)
            rows = np.concatenate([shape.cells] + [
                groups.add_cells(shapes_below[c].cells, off)
                for (c, _), off in zip(children, offsets) if c in shapes_below])
            # The sort is stable and parent rows are distinct, so a run of equal
            # rows starts with the parent's row if it has one; c child rows in a
            # run overlap c - 1 times.
            order, starts, cells = _sorted_runs(rows)
            in_parent = order[starts] < len(shape.cells)
            n_child = np.diff(np.append(starts, len(rows))) - in_parent
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
        if {c for r in rules.values() for c, _ in r.children} != set(labels):
            # Non-stationary label sets (e.g. level 1 over the singleton): the
            # chain has nowhere to mix, so fall back to uniform over top labels.
            probs = np.full(n, 1.0 / n)
        else:
            P = np.zeros((n, n))
            for i, lab in enumerate(labels):
                rule = rules[lab]
                for child_label, _ in rule.children:
                    P[i, labels.index(child_label)] += 1.0 / rule.arity
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
    digits = []
    label = top
    for k in range(level, 0, -1):
        child_labels = spec.children(k, label)[0]
        d = int(rng.integers(1, len(child_labels) + 1))
        digits.append(d)
        label = child_labels[d - 1]
    return Address(spec, level, top, tuple(digits))


def straight_check(addr: Address) -> StraightnessReport:
    L = addr.level
    first_run = next((i for i, d in enumerate(addr.digits) if d != 1), L)
    last_run = next((i for i, (d, a) in enumerate(zip(addr.digits, addr._walk.arities))
                     if d != a), L)
    return StraightnessReport(first_run, last_run, first_run < L and last_run < L)


def anchor_rank(addr: Address) -> int:
    """0-based position of the identity in the expansion of the top tile."""
    return addr._walk.rank


def expand(addr: Address) -> OrderWindow:
    """Expand the addressed top tile into an anchored order window.

    The window spans [-rank, size-1-rank] where rank is the curve position
    of the identity inside the top tile; cells are the tile's cells in
    curve order, translated so the addressed cell is the identity.
    """
    base = addr.spec.curve(addr.level, addr.top)
    rank = addr._walk.rank
    return OrderWindow(addr.spec.group, -rank, base.shape[0] - 1 - rank,
                       base - addr._walk.offsets[-1], _trusted=True)


def central_tile(addr: Address, k: int):
    """The level-k central tile in anchored coordinates.

    Returns (label, translation): the tile is the level-k shape translated
    by the returned element, and it contains the identity.
    """
    if not 0 <= k <= addr.level:
        raise InputError(f"central tile level {k} outside 0..{addr.level}")
    pos = addr.level - k
    offsets = addr._walk.offsets
    return addr._walk.labels[pos], tuple(int(x) for x in offsets[pos] - offsets[-1])


def sample_straight_address(spec: TilingSystemSpec, level: int, seed,
                            need_past: int = 0, need_future: int = 0,
                            max_tries: int = 1000):
    """Sample addresses until one is straight up to its level and its
    expansion covers [-need_past, need_future].  Returns (address, retries)."""
    for attempt in range(max_tries):
        addr = sample_address(spec, level, child_seed(seed, attempt))
        rank = anchor_rank(addr)
        size = spec.children(level, addr.top)[2][-1]
        if (straight_check(addr).straight_up_to_level and rank >= need_past
                and size - 1 - rank >= need_future):
            return addr, attempt
    raise MultiorderError(
        f"no straight covering address found in {max_tries} tries "
        f"(level={level}, need_past={need_past}, need_future={need_future})"
    )


def speedup(spec: TilingSystemSpec) -> TilingSystemSpec:
    """Compose two levels of rules into one.

    New level k carries the old level-2k shapes; each new rule decomposes
    straight into level-2(k-1) tiles by traversing the two old rule layers
    lexicographically.  Expansions are unchanged: the new curve at level k
    equals the old curve at level 2k.
    """
    group = spec.group

    def shapes_fn(k):
        return spec.shapes(2 * k)

    def rules_fn(k):
        out = {}
        for lab, rule in spec.rules(2 * k).items():
            composed = []
            for mid_label, off1 in rule.children:
                for child_label, off0 in spec.rules(2 * k - 1)[mid_label].children:
                    composed.append((child_label, groups.compose(group, off0, off1)))
            out[lab] = SubstitutionRule(lab, tuple(composed))
        return out

    max_level = None if spec.max_level is None else spec.max_level // 2
    return TilingSystemSpec(group, spec.name + "_x2", shapes_fn, rules_fn,
                            spec.canonical_label, max_level)


def _dyadic_spec(name: str, alternating: bool) -> TilingSystemSpec:
    group = GroupSpec.line()

    def shapes_fn(k):
        if k == 0:
            return {SINGLETON_LABEL: Shape(SINGLETON_LABEL, np.zeros((1, 1), dtype=np.int64))}
        return {"I": Shape("I", np.arange(2**k, dtype=np.int64).reshape(-1, 1))}

    def rules_fn(k):
        child = "I" if k - 1 >= 1 else SINGLETON_LABEL
        left = (child, (0,))
        right = (child, (2 ** (k - 1),))
        if alternating and k % 2 == 1:
            children = (right, left)
        else:
            children = (left, right)
        return {"I": SubstitutionRule("I", children)}

    return TilingSystemSpec(group, name, shapes_fn, rules_fn, canonical_label="I")


# Quadrant layout of each Hilbert shape, children in traversal order.
# Quadrant names: BL/BR/TL/TR with x rightward and y upward; labels name the
# side the curve's opening faces (U up, D down, R right, L left).
_HILBERT_TABLE = {
    "U": (("L", "TL"), ("U", "BL"), ("U", "BR"), ("R", "TR")),
    "R": (("D", "BR"), ("R", "BL"), ("R", "TL"), ("U", "TR")),
    "L": (("U", "TL"), ("L", "TR"), ("L", "BR"), ("D", "BL")),
    "D": (("R", "BR"), ("D", "TR"), ("D", "TL"), ("L", "BL")),
}

_QUADRANT_OFFSETS = {
    "BL": (0, 0),
    "BR": (1, 0),
    "TL": (0, 1),
    "TR": (1, 1),
}


def _hilbert_spec() -> TilingSystemSpec:
    group = GroupSpec.grid(2)

    def shapes_fn(k):
        if k == 0:
            return {SINGLETON_LABEL: Shape(SINGLETON_LABEL, np.zeros((1, 2), dtype=np.int64))}
        cells = np.indices((2**k, 2**k), dtype=np.int64).reshape(2, -1).T
        return {lab: Shape(lab, cells) for lab in _HILBERT_TABLE}

    def rules_fn(k):
        h = 2 ** (k - 1)
        out = {}
        for lab, quads in _HILBERT_TABLE.items():
            children = []
            for child_label, quad in quads:
                cl = child_label if k - 1 >= 1 else SINGLETON_LABEL
                qx, qy = _QUADRANT_OFFSETS[quad]
                children.append((cl, (qx * h, qy * h)))
            out[lab] = SubstitutionRule(lab, tuple(children))
        return out

    return TilingSystemSpec(group, "hilbert", shapes_fn, rules_fn, canonical_label="U")


_BUILTIN_NAMES = ("dyadic_standard", "dyadic_alternating", "hilbert")


def builtin(name: str) -> TilingSystemSpec:
    """One of: dyadic_standard, dyadic_alternating, hilbert."""
    if name == "dyadic_standard":
        return _dyadic_spec(name, alternating=False)
    if name == "dyadic_alternating":
        return _dyadic_spec(name, alternating=True)
    if name == "hilbert":
        return _hilbert_spec()
    raise InputError(f"unknown tiling system {name!r}; choose from {_BUILTIN_NAMES}")
