"""Exact invariance audits of order intervals.

Cell sets are (n, d) int64 arrays, ``unit_cross`` included (tuple
collections are coerced in bulk by ``groups.as_cell_array``), set sizes
are distinct-row counts (one sort of row codes per ratio), and all ratios
are exact ``fractions.Fraction`` values.
Two length conventions coexist and are documented per function:
``audit_intervals`` takes the position span n of the interval [0, n] (n+1
cells), while ``uniform_audit`` and the full-tile helpers take cell counts
(a complete level-k tile of the square system has 4**k cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups, tiling
from .errors import InputError, OutOfWindowError
from .groups import GroupSpec
from .orders import OrderWindow
from .util import count_distinct_rows, row_codes, spawn_seeds


def unit_cross(spec: GroupSpec) -> np.ndarray:
    """The identity, then the d unit steps +e_i, then -e_i: read-only
    (2d+1, d) rows."""
    eye = np.eye(spec.d, dtype=np.int64)
    return groups.read_only(np.concatenate([np.zeros_like(eye[:1]), eye, -eye]))


def invariance_ratio(spec: GroupSpec, F, K) -> Fraction:
    """|KF symmetric-difference F| / |F|, exactly.

    Repeated cells count once.  2|KF union F| - |KF| - |F| is read off the
    runs of one sort of the row codes of KF ++ F, doubled, plus one on F.
    """
    f = groups.as_cell_array(spec, F)
    k = groups.as_cell_array(spec, K)
    if not len(f):
        raise InputError("F must be nonempty")
    if not len(k):
        raise InputError("K must be nonempty")
    kf = groups.add_cells(k[:, None, :], f[None, :, :]).reshape(-1, spec.d)
    codes = 2 * row_codes(np.concatenate([kf, f]))
    codes[len(kf):] += 1  # one run per cell, its even code (from KF) first
    codes.sort()
    ends = np.append((codes[1:] >> 1) != (codes[:-1] >> 1), True)
    n_union, n_f = int(ends.sum()), int(np.count_nonzero(codes[ends] & 1))
    n_kf = n_union - int(np.count_nonzero(codes[np.roll(ends, 1)] & 1))
    return Fraction(2 * n_union - n_kf - n_f, n_f)


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
    Ks = groups.as_cell_array(w.group, K)
    k_size = count_distinct_rows(Ks)
    for n in lengths:
        if n < 0 or n > w.hi:
            raise OutOfWindowError(f"span {n} outside window [0, {w.hi}]")
        records.append(
            InvarianceRecord(n + 1, k_size, invariance_ratio(w.group, w.rows(0, n), Ks))
        )
    return records


def tile_aligned_anchors(w: OrderWindow, tile_size: int) -> list[int]:
    """Window positions where a complete top-aligned tile of the given cell
    count starts.  Windows produced by expansion are aligned so that
    position - lo is the curve rank inside the top tile."""
    if tile_size < 1:
        raise InputError(f"tile size must be >= 1, got {tile_size}")
    return list(range(w.lo, w.hi - tile_size + 2, tile_size))


def full_tile_records(w: OrderWindow, K, tile_size: int,
                      max_anchors=None) -> list[InvarianceRecord]:
    """Invariance records for complete aligned tiles of the given cell count."""
    anchors = tile_aligned_anchors(w, tile_size)
    if max_anchors is not None and len(anchors) > max_anchors:
        picks = np.linspace(0, len(anchors) - 1, max_anchors).round().astype(int)
        anchors = [anchors[i] for i in sorted(set(int(p) for p in picks))]
    Ks = groups.as_cell_array(w.group, K)
    k_size = count_distinct_rows(Ks)
    return [
        InvarianceRecord(tile_size, k_size,
                         invariance_ratio(w.group, w.rows(a, a + tile_size - 1), Ks),
                         anchor=a)
        for a in anchors
    ]


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
    try:
        eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon).limit_denominator(10**9)
    except (ValueError, OverflowError):
        raise InputError(f"epsilon must be a finite number, got {epsilon!r}") from None
    cands = sorted(set(int(n) for n in candidates))
    if not cands or cands[0] < 1:
        raise InputError("candidates must be positive cell counts")
    if samples < 1 or anchors < 1:
        raise InputError(f"samples and anchors must be >= 1, got {samples} and {anchors}")
    Ks = groups.as_cell_array(spec.group, K)
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
                r = invariance_ratio(spec.group, w.rows(a, a + n - 1), Ks)
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
    """|[F, F+n]| / |F| (or the backward analogue), exactly.

    Each g in F starts the interval of n+1 positions at k = index_of(g)
    (less n backward).  Over the sorted distinct starts k_i the union holds
    (n+1) + sum of min(k_i - k_(i-1), n+1) cells; no cells are built.
    """
    Fs = groups.as_cell_array(w.group, F)
    if not len(Fs):
        raise InputError("F must be nonempty")
    if side not in ("forward", "backward"):
        raise InputError(f"side must be 'forward' or 'backward', got {side!r}")
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    shift = n if side == "backward" else 0
    starts = []
    for g in Fs:
        k = w.index_of(g) - shift
        w.rows(k, k + n)  # OutOfWindowError if the interval leaves the window
        starts.append(k)
    starts = np.unique(starts)
    covered = n + 1 + int(np.minimum(np.diff(starts), n + 1).sum())
    return Fraction(covered, len(starts))
