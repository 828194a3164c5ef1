"""Exact invariance audits of order intervals.

All set arithmetic is over integer cell tuples and all ratios are exact
``fractions.Fraction`` values; nothing here is floating point.  Two length
conventions coexist and are documented per function: ``audit_intervals``
takes the position span n of the interval [0, n] (n+1 cells), while
``uniform_audit`` and the full-tile helpers take cell counts (a complete
level-k tile of the square system has 4**k cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups, orders, tiling
from .errors import InputError, OutOfWindowError
from .groups import GroupSpec
from .orders import OrderWindow
from .util import pack_rows, sorted_distinct, spawn_seeds

# Above this many (k, f) pairs the symmetric difference is computed on
# packed int64 codes instead of python sets; both routes are exact.
_ARRAY_PATH_LIMIT = 20000


def unit_cross(spec: GroupSpec) -> frozenset:
    """The identity together with the 2d unit steps."""
    e = groups.identity(spec)
    out = {e}
    for axis in range(spec.d):
        for sign in (1, -1):
            step = [0] * spec.d
            step[axis] = sign
            out.add(tuple(step))
    return frozenset(out)


def _normalize_set(spec: GroupSpec, cells) -> list:
    return [groups.element(spec, c) for c in cells]


def invariance_ratio(spec: GroupSpec, F, K) -> Fraction:
    """|KF symmetric-difference F| / |F|, exactly."""
    Fs = _normalize_set(spec, F)
    Ks = _normalize_set(spec, K)
    if not Fs:
        raise InputError("F must be nonempty")
    if not Ks:
        raise InputError("K must be nonempty")
    if len(Fs) * len(Ks) > _ARRAY_PATH_LIMIT:
        arr_f = np.asarray(Fs, dtype=np.int64)
        arr_k = np.asarray(Ks, dtype=np.int64)
        prod = (arr_k[:, None, :] + arr_f[None, :, :]).reshape(-1, spec.d)
        both = np.concatenate([prod, arr_f], axis=0)
        codes = pack_rows(both)
        if codes is not None:
            kf = sorted_distinct(codes[: prod.shape[0]])
            f = sorted_distinct(codes[prod.shape[0] :])
            sym = np.setxor1d(kf, f, assume_unique=True).size
            return Fraction(int(sym), int(f.size))
    fset = set(Fs)
    kf = {groups.compose(spec, k, g) for k in Ks for g in fset}
    return Fraction(len(kf ^ fset), len(fset))


@dataclass(frozen=True)
class InvarianceRecord:
    size: int
    k_size: int
    ratio: Fraction
    anchor: int = 0


def audit_intervals(w: OrderWindow, K, lengths) -> list[InvarianceRecord]:
    """Invariance of the anchored intervals [0, n] for each span n.

    Each record covers F = interval(w, 0, n), which has n+1 cells; n must
    satisfy 0 <= n <= hi.
    """
    records = []
    Ks = _normalize_set(w.group, K)
    for n in lengths:
        if n < 0 or n > w.hi:
            raise OutOfWindowError(f"span {n} outside window [0, {w.hi}]")
        F = orders.interval(w, 0, n)
        records.append(
            InvarianceRecord(n + 1, len(set(Ks)), invariance_ratio(w.group, F, Ks))
        )
    return records


def tile_aligned_anchors(w: OrderWindow, tile_size: int) -> list[int]:
    """Window positions where a complete top-aligned tile of the given cell
    count starts.  Windows produced by expansion are aligned so that
    position - lo is the curve rank inside the top tile."""
    if tile_size < 1:
        raise InputError(f"tile size must be >= 1, got {tile_size}")
    first = w.lo
    out = []
    a = first
    while a + tile_size - 1 <= w.hi:
        out.append(a)
        a += tile_size
    return out


def full_tile_records(w: OrderWindow, K, tile_size: int,
                      max_anchors=None) -> list[InvarianceRecord]:
    """Invariance records for complete aligned tiles of the given cell count."""
    anchors = tile_aligned_anchors(w, tile_size)
    if max_anchors is not None and len(anchors) > max_anchors:
        picks = np.linspace(0, len(anchors) - 1, max_anchors).round().astype(int)
        anchors = [anchors[i] for i in sorted(set(int(p) for p in picks))]
    Ks = _normalize_set(w.group, K)
    out = []
    for a in anchors:
        F = orders.interval(w, a, a + tile_size - 1)
        out.append(
            InvarianceRecord(tile_size, len(set(Ks)),
                             invariance_ratio(w.group, F, Ks), anchor=a)
        )
    return out


@dataclass(frozen=True)
class LengthStats:
    worst: Fraction
    mean: Fraction
    count: int


@dataclass(frozen=True)
class UniformAuditResult:
    """threshold is the least audited cell count whose every sampled
    interval met the target ratio, or None if none did."""

    epsilon: Fraction
    threshold: object
    stats: dict


def uniform_audit(spec: tiling.TilingSystemSpec, K, epsilon, candidates,
                  samples: int, seed, level: int,
                  anchors: int = 16) -> UniformAuditResult:
    """Audit intervals of each candidate cell count at varied anchors across
    sampled straight orders.

    For each of `samples` straight addresses at the given level, the window
    is expanded and, per candidate count n, `anchors` evenly spaced in-window
    intervals of n cells are measured.  The threshold is the least candidate
    whose worst measured ratio is below epsilon; thresholds are measured, not
    proven least possible.
    """
    eps = Fraction(epsilon).limit_denominator(10**9) if not isinstance(epsilon, Fraction) else epsilon
    cands = sorted(set(int(n) for n in candidates))
    if not cands or cands[0] < 1:
        raise InputError("candidates must be positive cell counts")
    Ks = _normalize_set(spec.group, K)
    sums = {n: Fraction(0) for n in cands}
    worsts = {n: Fraction(0) for n in cands}
    counts = {n: 0 for n in cands}
    for sub in spawn_seeds(seed, samples):
        addr, _ = tiling.sample_straight_address(spec, level, sub)
        w = tiling.expand(addr)
        size = len(w)
        for n in cands:
            if n > size:
                raise InputError(
                    f"candidate count {n} exceeds window size {size}; raise level"
                )
            starts = np.linspace(w.lo, w.hi - n + 1, num=min(anchors, size - n + 1))
            for a in sorted(set(int(round(s)) for s in starts)):
                F = orders.interval(w, a, a + n - 1)
                r = invariance_ratio(spec.group, F, Ks)
                sums[n] += r
                counts[n] += 1
                if r > worsts[n]:
                    worsts[n] = r
    stats = {
        n: LengthStats(worsts[n], sums[n] / counts[n], counts[n]) for n in cands
    }
    threshold = None
    for n in cands:
        if worsts[n] < eps:
            threshold = n
            break
    return UniformAuditResult(eps, threshold, stats)


def interval_growth(w: OrderWindow, F, n: int, side: str = "forward") -> Fraction:
    """|[F, F+n]| / |F| (or the backward analogue), exactly."""
    Fs = _normalize_set(w.group, F)
    if not Fs:
        raise InputError("F must be nonempty")
    union = orders.interval_from_set(w, Fs, n, side)
    return Fraction(len(union), len(set(Fs)))
