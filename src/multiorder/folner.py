"""Exact invariance audits of order intervals.

Cell sets are (n, d) int64 arrays, ``unit_cross`` included (tuple
collections are coerced in bulk by ``groups.as_cell_array``), set sizes
are distinct-row counts, and all ratios are exact ``fractions.Fraction``
values.  Every ratio comes from one kernel, ``_ratios``, which sorts the
row codes of a stack of equal-size sets in one call: one sort per tile
size in ``full_tile_records``, one per set elsewhere.  The codes of KF are
F's narrow box codes plus each k's offset, so no KF cell is built unless
the box reaches 2^62 cells.
Two length conventions coexist and are documented per function:
``audit_intervals`` takes the position span n of the interval [0, n] (n+1
cells), while ``uniform_audit`` and the full-tile helpers take cell counts
(a complete level-k tile of the square system has 4**k cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups, tiling
from .errors import InputError, OutOfWindowError
from .groups import GroupSpec
from .orders import OrderWindow
from .util import box_codes, count_distinct_rows, group_keys, row_codes, spawn_seeds


def unit_cross(spec: GroupSpec) -> np.ndarray:
    """The identity, then the d unit steps +e_i, then -e_i: read-only
    (2d+1, d) rows."""
    eye = np.eye(spec.d, dtype=np.int64)
    return groups.read_only(np.concatenate([np.zeros_like(eye[:1]), eye, -eye]))


def _flagged_codes(Fs: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Row codes of KF ++ F for each F of a (t, s, d) stack, doubled, plus
    one on F: a (t, (|K|+1)s) array, equal codes exactly for equal cells of
    one set.

    Each F is packed once over the bounding box of KF and F (F's box
    widened by min(K, 0) and max(K, 0)), in min_scalar_type(2P - 1) for a
    box of P cells.  The mixed radix is linear inside the box, so k·f's
    code is f's plus k's offset (k's ``box_codes`` in a box at the origin):
    one broadcast add per k, exact modulo 2^bits.  A box of 2^62
    cells or more, past ``row_codes``' packing, takes the explicit cells.
    """
    t, s, d = Fs.shape
    groups.check_sums(K, Fs)
    flat = Fs.reshape(-1, d)
    lo = [int(flat[:, c].min()) + min(int(K[:, c].min()), 0) for c in range(d)]
    hi = [int(flat[:, c].max()) + max(int(K[:, c].max()), 0) for c in range(d)]
    ranges = [h - m + 1 for h, m in zip(hi, lo)]
    size = math.prod(ranges)
    if size >= 2**62:
        kf = K[None, :, None, :] + Fs[:, None, :, :]
        codes = row_codes(np.concatenate([kf, Fs[:, None]], axis=1).reshape(-1, d))
        codes = codes.reshape(t, -1, s)
    else:
        dtype = np.min_scalar_type(2 * size - 1)
        offsets = box_codes(K, [0] * d, ranges, dtype)  # K's codes at the origin
        f = box_codes(flat, lo, ranges, dtype).reshape(t, 1, s)
        codes = np.empty((t, len(K) + 1, s), dtype=dtype)
        np.add(f, offsets[:, None], out=codes[:, :-1])
        codes[:, -1:] = f
    codes <<= 1
    codes[:, -1] += 1
    return codes.reshape(t, -1)


def _ratios(Fs: np.ndarray, K: np.ndarray) -> list[Fraction]:
    """|KF symmetric-difference F| / |F| exactly, for each F of a (t, s, d)
    stack of equal-size cell sets; repeated cells count once.

    Sorting each set's row of ``_flagged_codes`` gives one run per cell,
    its even code (from KF) first; |KF symmetric-difference F| is the runs,
    less those ending odd (in F), plus those starting odd.
    """
    if not len(K):
        raise InputError("K must be nonempty")
    codes = _flagged_codes(Fs, K)
    codes.sort(axis=1)
    odd = (codes & 1).astype(bool)
    codes >>= 1
    ends = np.ones(codes.shape, dtype=bool)  # the last entry of each run
    np.not_equal(codes[:, 1:], codes[:, :-1], out=ends[:, :-1])
    runs = np.count_nonzero(ends, axis=1)
    in_f = np.count_nonzero(ends & odd, axis=1)
    only_f = np.count_nonzero(ends[:, :-1] & odd[:, 1:], axis=1) + odd[:, 0]
    return [Fraction(r - f + o, f)
            for r, f, o in zip(runs.tolist(), in_f.tolist(), only_f.tolist())]


def invariance_ratio(spec: GroupSpec, F, K) -> Fraction:
    """|KF symmetric-difference F| / |F|, exactly: the one-set case of
    ``_ratios``.  Repeated cells count once."""
    f = groups.as_cell_array(spec, F)
    k = groups.as_cell_array(spec, K)
    if not len(f):
        raise InputError("F must be nonempty")
    return _ratios(f[None], k)[0]


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
    """Invariance records for complete aligned tiles of the given cell count.

    The picked tiles are one stack for ``_ratios``, so one sort: at most
    (|K|+1)|w| rows, as many as auditing the whole window as one set."""
    anchors = tile_aligned_anchors(w, tile_size)
    if max_anchors is not None and len(anchors) > max_anchors:
        picks = np.linspace(0, len(anchors) - 1, max_anchors).round().astype(int)
        anchors = [anchors[i] for i in sorted(set(int(p) for p in picks))]
    Ks = groups.as_cell_array(w.group, K)
    k_size = count_distinct_rows(Ks)
    if not anchors:
        return []
    tiles = w.array[np.array(anchors)[:, None] - w.lo + np.arange(tile_size)]
    return [InvarianceRecord(tile_size, k_size, ratio, anchor=a)
            for a, ratio in zip(anchors, _ratios(tiles, Ks))]


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
    ratios = {n: [] for n in cands}
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
                ratios[n].append(invariance_ratio(spec.group, w.rows(a, a + n - 1), Ks))
    stats = {n: LengthStats(max(rs), sum(rs) / len(rs), len(rs)) for n, rs in ratios.items()}
    threshold = next((n for n in cands if stats[n].worst < eps), None)
    return UniformAuditResult(eps, threshold, stats)


def interval_growth(w: OrderWindow, F, n: int, side: str = "forward") -> Fraction:
    """|[F, F+n]| / |F| (or the backward analogue), exactly.

    Each g in F starts the interval of n+1 positions at k = index_of(g)
    (less n backward).  Over the sorted distinct starts k_i the union holds
    (n+1) + sum of min(k_i - k_(i-1), n+1) cells; no cells are built.
    One searchsorted of the window's row codes into F's sorted ones finds k.
    """
    Fs = groups.as_cell_array(w.group, F)
    if not len(Fs):
        raise InputError("F must be nonempty")
    if side not in ("forward", "backward"):
        raise InputError(f"side must be 'forward' or 'backward', got {side!r}")
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    shift = n if side == "backward" else 0
    wcodes, fcodes = np.split(row_codes(np.concatenate([w.array, Fs])), [len(w)])
    first, inverse, _ = group_keys(fcodes)
    slot = np.minimum(np.searchsorted(fcodes[first], wcodes), len(first) - 1)
    hit = np.flatnonzero(fcodes[first][slot] == wcodes)
    rows = np.full(len(first), -1)  # each distinct g's window row, -1 if absent
    rows[slot[hit]] = hit
    starts = w.lo - shift + rows  # below w.lo for an absent g
    bad = np.flatnonzero(((starts < w.lo) | (starts + n > w.hi))[inverse])
    if bad.size:  # the first g in F's order that fails raises its OutOfWindowError
        k = w.index_of(Fs[bad[0]]) - shift
        w.rows(k, k + n)
    starts = np.sort(starts)
    covered = n + 1 + int(np.minimum(np.diff(starts), n + 1).sum())
    return Fraction(covered, len(starts))
