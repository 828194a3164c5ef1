"""Lattice groups Z^d and finite element sets.

Elements are plain int tuples of length d; the group law is written through
``compose``/``inverse`` so callers never assume commutativity even though the
instantiated groups are abelian.  For d = 1 the helpers accept bare ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    """Coerce a bare int (d = 1) or an int sequence to a canonical element."""
    if isinstance(value, int) and not isinstance(value, bool):
        if spec.d != 1:
            raise DimensionMismatchError(f"bare int {value} in dimension {spec.d}")
        return (value,)
    try:
        out = tuple(int(v) for v in value)
    except TypeError as exc:
        raise InputError(f"cannot interpret {value!r} as a group element") from exc
    if len(out) != spec.d:
        raise DimensionMismatchError(
            f"element {out} has length {len(out)}, group dimension is {spec.d}"
        )
    return out


def compose(spec: GroupSpec, a, b) -> Element:
    """The product a*b (coordinatewise sum on the lattice)."""
    a = element(spec, a)
    b = element(spec, b)
    return tuple(x + y for x, y in zip(a, b))


def inverse(spec: GroupSpec, a) -> Element:
    a = element(spec, a)
    return tuple(-x for x in a)


def box(spec: GroupSpec, radius: int) -> frozenset[Element]:
    """All elements with sup-norm at most radius: (2*radius+1)^d of them."""
    if radius < 0:
        raise InputError(f"radius must be >= 0, got {radius}")
    rng = range(-radius, radius + 1)
    return frozenset(product(rng, repeat=spec.d))


def encode(g: Element) -> list[int]:
    """Canonical JSON form of an element: a list of ints."""
    return [int(x) for x in g]


def decode(spec: GroupSpec, data) -> Element:
    if isinstance(data, (str, bytes)) or not hasattr(data, "__iter__"):
        raise InputError(f"encoded element must be an int array, got {data!r}")
    vals = list(data)
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"encoded element must contain only ints, got {v!r}")
    return element(spec, vals)
