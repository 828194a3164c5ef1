"""Seeded entropy estimation along sampled orders.

Everything is in bits.  Every estimate is one signed sum of plug-in block
entropies (empirical cylinder frequencies) from one count of m draws on
one block of cells: block entropy H(all), conditional entropy H(all) -
H(conditioners), remote-past mutual information H(X_0) + H(B) - H(X_0, B).
The per-draw information terms give the mean and a valid standard error;
bias mode "miller_madow" adds the same signed sum of (support size - 1) /
(2*m*ln 2).

Every estimator along sampled orders runs through one driver,
``per_order``: for each order seed it draws a straight address, takes the
window of the positions the statistic reads and evaluates the statistic on
it, fanning the orders out over threads and returning the results in seed
order.  Monte-Carlo aggregation averages the per-order estimates; the
reported standard error is the across-order standard deviation divided by
sqrt(orders).  Reports carry the sampling truncations, the bias mode, and
an undersampling flag raised whenever M < 10 * |alphabet|**(block length).

Windows and blocks of cells are int64 arrays throughout.  A ``Frame`` holds
a window and its symbols in window order; its ``config`` view lists the
cells as tuples only for callers that look symbols up by element, such as
perfbench's ``successor_run`` workload.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import groups, orders, process, tiling
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    InputError,
    OutOfWindowError,
)
from .orders import OrderWindow
from .process import Configuration
from .util import child_seed, group_keys, spawn_seeds

_LN2 = math.log(2.0)
_BIAS_MODES = ("plugin", "miller_madow")
_UNDERSAMPLE_FACTOR = 10


def _check_bias(bias: str) -> None:
    if bias not in _BIAS_MODES:
        raise InputError(f"bias mode must be one of {_BIAS_MODES}, got {bias!r}")


def _check_inputs(proc, group, bias: str = "plugin", n_orders: int = 1) -> None:
    """The checks every estimator shares: bias mode, order count, and the
    process living on the group of the window or tiling system."""
    _check_bias(bias)
    if n_orders < 1:
        raise InputError(f"order count must be >= 1, got {n_orders}")
    if proc.group != group:
        raise DimensionMismatchError(
            f"process group {proc.group} does not match group {group}"
        )


@dataclass(frozen=True)
class EntropyReport:
    """A single estimate with its sampling metadata."""

    estimate: float
    stderr: float
    samples: int
    orders: int
    truncation: int
    bias_mode: str
    undersampled: bool
    gap: int = 0
    resamples: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def plugin_entropy(counts, bias: str = "plugin") -> float:
    """Entropy in bits of the empirical distribution behind the counts.

    counts may be a mapping value->count or a bare count vector; the
    bias correction is meaningful for integer counts.  Empty, negative or
    non-finite (NaN, infinite) counts, and counts whose total is zero or
    overflows, raise InputError.
    """
    _check_bias(bias)
    if hasattr(counts, "values"):
        vals = np.asarray(list(counts.values()), dtype=float)
    else:
        vals = np.asarray(list(counts), dtype=float)
    if vals.size == 0 or not np.isfinite(vals).all() or (vals < 0).any():
        raise InputError("counts must be nonempty, finite and nonnegative")
    with np.errstate(over="ignore"):  # an infinite total is refused below
        total = vals.sum()
    if not 0 < total < np.inf:
        raise InputError("counts must have a positive, finite total")
    pos = vals[vals > 0]
    h = float(-(pos / total * np.log2(pos / total)).sum())
    if bias == "miller_madow":
        h += (pos.size - 1) / (2.0 * total * _LN2)
    return h


def _block_counts(proc, cells, m: int, seed):
    """Draw m blocks on the cells and count them: the sorted support codes
    (base k, last cell least significant) as int64, each draw's index into
    them and their counts.  group_keys groups the codes in the smallest
    unsigned dtype of the code space, as sample_codes returns them (its
    stable argsort is a radix sort for spaces of up to 2**16 codes)."""
    codes = process.sample_codes(proc, cells, m, seed)
    first, inverse, counts = group_keys(codes)
    return codes[first].astype(np.int64), inverse, counts


# weights of H(last cell), H(all cells but the last) and H(all cells)
_BLOCK, _COND, _MI = (0, 0, 1), (0, -1, 1), (1, 1, -1)


def _plugin_estimate(proc, cells, m: int, seed, bias: str, signs):
    """Mean and standard error of the sum of plug-in block entropies weighed
    by signs, from m draws on the cells (the last row is the cell of
    interest).  A block's counts sum over the sorted joint support codes by
    group: code % k for the last cell, the run of code // k for the others
    (no cells count m), the code itself for all; its support is the nonzero
    totals.  Terms add in the order of signs from the first nonzero weight."""
    k = process.alphabet_size(proc)
    codes, inverse, counts = _block_counts(proc, cells, m, seed)
    prefix = codes // k
    runs = np.zeros(codes.size, dtype=np.intp)
    np.cumsum(prefix[1:] != prefix[:-1], out=runs[1:])
    terms, excess = None, 0
    for sign, idx in zip(signs, (codes % k, runs, np.arange(codes.size))):
        if sign:
            totals = np.bincount(idx, weights=counts)
            term = -sign * np.log2(totals[idx] / m)
            terms = term if terms is None else terms + term
            # a Python int, so that the Miller-Madow term leaves est a float
            excess += sign * (int(np.count_nonzero(totals)) - 1)
    est, se = _mean_se(terms[inverse])
    if bias == "miller_madow":
        est += excess / (2.0 * m * _LN2)
    return est, se


def _mean_se(terms):
    """Mean and standard error; one term has standard error 0."""
    terms = np.asarray(terms)
    m = terms.shape[0]
    est = float(terms.mean())
    se = float(terms.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return est, se


def _undersampled(proc, m: int, j: int) -> bool:
    """Whether m draws are too few for blocks of j + 1 cells."""
    return m < _UNDERSAMPLE_FACTOR * process.alphabet_size(proc) ** (j + 1)


def _report(proc, est: float, se: float, m: int, j: int, bias: str,
            orders: int = 1, **extra) -> EntropyReport:
    """The report of an estimate from m draws of blocks of j + 1 cells."""
    return EntropyReport(estimate=est, stderr=se, samples=m, orders=orders,
                         truncation=j, bias_mode=bias,
                         undersampled=_undersampled(proc, m, j), **extra)


def block_entropy_along_order(proc, w: OrderWindow, n: int, m: int, seed,
                              bias: str = "plugin") -> EntropyReport:
    """Per-cell entropy of the block on order positions 0..n."""
    _check_inputs(proc, w.group, bias)
    if n < 0:
        raise InputError(f"block span must be >= 0, got {n}")
    est, se = _plugin_estimate(proc, w.rows(0, n), m, seed, bias, _BLOCK)
    return _report(proc, est / (n + 1), se / (n + 1), m, n, bias)


def cond_entropy_along_order(proc, w: OrderWindow, j: int, m: int, seed,
                             bias: str = "plugin") -> EntropyReport:
    """Entropy of the anchor symbol given the j order-predecessors."""
    _check_inputs(proc, w.group, bias)
    if j < 0:
        raise InputError(f"depth must be >= 0, got {j}")
    est, se = _plugin_estimate(proc, w.rows(-j, 0), m, seed, bias, _COND)
    return _report(proc, est, se, m, j, bias)


def per_order(spec: tiling.TilingSystemSpec, level: int, order_seeds, statistic,
              need_past: int = 0, need_future: int = 0, threads: int = 1):
    """Evaluate a statistic on one sampled straight order per seed.

    For order i with seed s: draw a straight address at the given level from
    child_seed(s, 0) whose top tile covers [-need_past, need_future], and call
    statistic(i, w, s) on w = tiling.window(addr, need_past, need_future),
    which holds exactly those positions (reading others raises
    OutOfWindowError).  The statistic takes its own streams as
    child_seed(s, 1), child_seed(s, 2), ....  Returns the statistics in seed
    order and the total address retries.  Orders run on up to ``threads``
    threads; neither result nor the first error raised (in seed order)
    depends on the count.
    """
    def one(i):
        s = order_seeds[i]
        addr, retries = tiling.sample_straight_address(
            spec, level, child_seed(s, 0), need_past=need_past, need_future=need_future
        )
        return statistic(i, tiling.window(addr, need_past, need_future), s), retries

    if threads <= 1:
        pairs = [one(i) for i in range(len(order_seeds))]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pairs = list(pool.map(one, range(len(order_seeds))))
    return [p[0] for p in pairs], sum(p[1] for p in pairs)


def mc_integral(proc, spec: tiling.TilingSystemSpec, j: int, n_orders: int,
                m: int, level: int, seed, bias: str = "plugin",
                threads: int = 1) -> EntropyReport:
    """Average conditional entropy at depth j over sampled straight orders.

    For each order: sample a straight address at the given level whose top
    tile covers [-j, 0], take that window, and estimate the anchor symbol's
    entropy given its j order-predecessors from m fresh draws.  As j grows
    the average approaches the process entropy rate from above.
    """
    _check_inputs(proc, spec.group, bias, n_orders)
    if j < 0:
        raise InputError(f"depth must be >= 0, got {j}")

    def statistic(i, w, s):
        return _plugin_estimate(proc, w.rows(-j, 0), m, child_seed(s, 1), bias, _COND)[0]

    ests, resamples = per_order(spec, level, spawn_seeds(seed, n_orders), statistic,
                                need_past=j, threads=threads)
    est, se = _mean_se(ests)
    return _report(proc, est, se, m, j, bias, orders=n_orders, resamples=resamples)


@dataclass(frozen=True)
class Frame:
    """A configuration laid out on a window: the window and its symbols in
    window order; ``config`` pairs them with the cells on access."""

    window: OrderWindow
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) != len(self.window):
            raise InputError(f"frame needs one symbol per window cell: "
                             f"{len(self.symbols)} symbols, {len(self.window)} cells")

    @property
    def config(self) -> Configuration:
        return Configuration(tuple(groups.cell_tuples(self.window.array)), self.symbols)


def make_frame(proc, w: OrderWindow, seed) -> Frame:
    _check_inputs(proc, w.group)
    idx = process.sample_many(proc, w.array, 1, seed)[0]
    return Frame(w, tuple(process.symbols_of(proc, idx)))


def successor_step(frame: Frame, k: int) -> Frame:
    """Move the anchor to the order-position-k element.

    The window translates as by act(w, cell(k)), without the lookup (cells
    are distinct, so k names the element), and the symbols keep their
    window order, so the symbol at the new anchor is the old one at
    cell(k).  Steps compose: stepping by k then m equals stepping by k+m.
    """
    w = frame.window
    if k < w.lo or k > w.hi:
        raise OutOfWindowError(f"position {k} outside window [{w.lo}, {w.hi}]")
    return Frame(orders._shift(w, k), frame.symbols)


@dataclass(frozen=True)
class SuccessorConsistencyReport:
    orders: int
    truncation: int
    samples: int
    identical_cells: bool
    bit_identical_estimates: bool
    estimate_direct: float
    estimate_stepped: float
    stderr: float
    bias_mode: str
    undersampled: bool
    resamples: int

    def to_json(self) -> dict:
        return asdict(self)


def successor_consistency(proc, spec: tiling.TilingSystemSpec, j: int,
                          n_orders: int, m: int, level: int, seed,
                          bias: str = "plugin",
                          threads: int = 1) -> SuccessorConsistencyReport:
    """Check that two routes to the depth-j conditioners agree exactly.

    Route one reads order positions -j..0 from the window; route two walks
    j backward successor steps on a framed configuration of that window and
    collects the anchors in original coordinates.  The cell sequences must
    be identical and the conditional-entropy estimates (same sample seed)
    bit-identical; any mismatch raises ConsistencyError, for the first
    failing order whatever the thread count.
    """
    _check_inputs(proc, spec.group, bias, n_orders)
    if j < 1:
        raise InputError(f"depth must be >= 1, got {j}")

    def statistic(i, w, s):
        cells_direct = w.rows(-j, 0)
        frame = make_frame(proc, w, child_seed(s, 1))
        cells_stepped = np.zeros_like(cells_direct)  # the anchor row stays e
        for p in range(j - 1, -1, -1):
            cells_stepped[p] = cells_stepped[p + 1] + frame.window.rows(-1, -1)[0]
            frame = successor_step(frame, -1)

        bad = np.nonzero((cells_direct != cells_stepped).any(axis=1))[0]
        if bad.size:
            p = int(bad[0])
            raise ConsistencyError(
                f"order {i}: conditioner cells differ at position {p - j}: "
                f"direct {tuple(cells_direct[p].tolist())} vs "
                f"stepped {tuple(cells_stepped[p].tolist())}"
            )
        samp_seed = child_seed(s, 2)
        est_a, _ = _plugin_estimate(proc, cells_direct, m, samp_seed, bias, _COND)
        est_b, _ = _plugin_estimate(proc, cells_stepped, m, samp_seed, bias, _COND)
        if est_a != est_b:
            raise ConsistencyError(
                f"order {i}: estimates differ bitwise: {est_a!r} vs {est_b!r}"
            )
        return est_a, est_b

    ests, resamples = per_order(spec, level, spawn_seeds(seed, n_orders), statistic,
                                need_past=j, threads=threads)
    mean_a, se = _mean_se([a for a, _ in ests])
    mean_b, _ = _mean_se([b for _, b in ests])
    return SuccessorConsistencyReport(
        orders=n_orders,
        truncation=j,
        samples=m,
        identical_cells=True,
        bit_identical_estimates=mean_a == mean_b,
        estimate_direct=mean_a,
        estimate_stepped=mean_b,
        stderr=se,
        bias_mode=bias,
        undersampled=_undersampled(proc, m, j),
        resamples=resamples,
    )


@dataclass(frozen=True)
class ShearerResult:
    holds: bool
    slack: float
    lhs: float
    rhs: float


def shearer_check(counts, cells, cover, k: int, margin: float = 1e-9) -> ShearerResult:
    """Check H(F) <= (1/k) * sum over cover members C of H(C).

    counts maps symbol tuples (aligned with the cells list) to weights;
    cover lists subsets of cells, each cell covered at least k times.
    Exact input laws give nonnegative slack up to float rounding; empirical
    counts need a noise margin supplied by the caller.
    """
    cells = [tuple(c) if not isinstance(c, int) else (c,) for c in cells]
    if len(set(cells)) != len(cells) or not cells:
        raise InputError("cells must be distinct and nonempty")
    if k < 1:
        raise InputError(f"cover multiplicity must be >= 1, got {k}")
    norm_cover = []
    for member in cover:
        ms = [tuple(c) if not isinstance(c, int) else (c,) for c in member]
        if not ms or any(c not in cells for c in ms) or len(set(ms)) != len(ms):
            raise InputError("cover members must be nonempty distinct subsets of cells")
        norm_cover.append(ms)
    coverage = {c: 0 for c in cells}
    for ms in norm_cover:
        for c in ms:
            coverage[c] += 1
    lacking = [c for c, v in coverage.items() if v < k]
    if lacking:
        raise InputError(f"cells {lacking} covered fewer than {k} times")
    for key in counts:
        if len(key) != len(cells):
            raise InputError("count keys must align with the cells list")
    lhs = plugin_entropy(counts)
    rhs = 0.0
    pos = {c: i for i, c in enumerate(cells)}
    for ms in norm_cover:
        sel = [pos[c] for c in ms]
        marg: dict = {}
        for key, cnt in counts.items():
            sub = tuple(key[i] for i in sel)
            marg[sub] = marg.get(sub, 0.0) + cnt
        rhs += plugin_entropy(marg)
    rhs /= k
    slack = rhs - lhs
    return ShearerResult(slack >= -margin, slack, lhs, rhs)


def remote_past_mi(proc, spec: tiling.TilingSystemSpec, gap: int, j: int,
                   n_orders: int, m: int, level: int, seed,
                   bias: str = "plugin", threads: int = 1) -> EntropyReport:
    """Mutual information between the anchor symbol and a depth-j block
    starting gap positions into the order past.

    Per order, the block sits on positions -gap-j..-gap-1.  For processes
    with trivial remote past this decays toward zero as the gap grows; the
    overlay's phase keeps it at the marker's phase entropy.
    """
    _check_inputs(proc, spec.group, bias, n_orders)
    if gap < 1 or j < 1:
        raise InputError("gap and depth must be >= 1")

    def statistic(i, w, s):
        cells = np.concatenate([w.rows(-gap - j, -gap - 1), w.rows(0, 0)])
        return _plugin_estimate(proc, cells, m, child_seed(s, 1), bias, _MI)[0]

    ests, resamples = per_order(spec, level, spawn_seeds(seed, n_orders), statistic,
                                need_past=gap + j, threads=threads)
    est, se = _mean_se(ests)
    return _report(proc, est, se, m, j, bias, orders=n_orders, gap=gap,
                   resamples=resamples)
