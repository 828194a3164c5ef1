"""Independent reference implementations used to freeze expected values.

Nothing here imports the package: expansions are recomputed by direct
quadrant/halving recursion over explicit layout tables, entropies by closed
forms, and chain marginals by literal matrix powers, so agreement with the
library is a real cross-check.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, product

import numpy as np

# layout[row][col] = (child label, traversal index); row 0 is the top row,
# x grows rightward, y upward.
HILBERT_LAYOUT = {
    "U": [[("L", 1), ("R", 4)], [("U", 2), ("U", 3)]],
    "R": [[("R", 3), ("U", 4)], [("R", 2), ("D", 1)]],
    "L": [[("U", 1), ("L", 2)], [("D", 4), ("L", 3)]],
    "D": [[("D", 3), ("D", 2)], [("L", 4), ("R", 1)]],
}


def hilbert_cells(label: str, k: int) -> list:
    """Traversal order of the level-k square curve, by direct recursion."""
    if k == 0:
        return [(0, 0)]
    half = 2 ** (k - 1)
    by_index = {}
    for row in (0, 1):
        for col in (0, 1):
            child, idx = HILBERT_LAYOUT[label][row][col]
            dx = col * half
            dy = half if row == 0 else 0
            by_index[idx] = [(x + dx, y + dy) for x, y in hilbert_cells(child, k - 1)]
    out = []
    for idx in (1, 2, 3, 4):
        out.extend(by_index[idx])
    return out


def dyadic_cells(k: int, alternating: bool) -> list:
    """Traversal order of the level-k interval, by direct halving."""
    if k == 0:
        return [0]
    half = 2 ** (k - 1)
    lower = dyadic_cells(k - 1, alternating)
    left = list(lower)
    right = [x + half for x in lower]
    if alternating and k % 2 == 1:
        return right + left
    return left + right


def integer_runs(cells) -> int:
    """Number of maximal runs of consecutive integers in a set of 1d cells."""
    xs = sorted(x if isinstance(x, int) else x[0] for x in cells)
    return 1 + sum(1 for a, b in zip(xs, xs[1:]) if b - a > 1)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def entropy_bits(probs) -> float:
    return float(sum(-p * math.log2(p) for p in probs if p > 0))


def markov_rate(P) -> float:
    """Entropy rate of a stationary chain: sum_i pi_i H(row_i)."""
    P = np.asarray(P, dtype=float)
    w, v = np.linalg.eig(P.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1))])
    pi = pi / pi.sum()
    return float(sum(pi[i] * entropy_bits(P[i]) for i in range(len(pi))))


def digit_runs(digits, arities) -> tuple:
    """The digit-run definition of a straight address: how many levels, from
    the top down, pick the first child, how many pick the last (arities[i]
    children at the i-th level from the top), and whether neither run
    covers every digit."""
    level = len(digits)
    first = next((i for i, d in enumerate(digits) if d != 1), level)
    last = next((i for i, (d, a) in enumerate(zip(digits, arities)) if d != a), level)
    return first, last, first < level and last < level


def address_walk(spec, level: int, top: str, digits) -> tuple:
    """A reference address walk that also sums each central tile's offset,
    on any object with group.d and children(k, label) -> (child labels,
    (arity, d) offsets, child start ranks).  Returns (labels, offsets,
    ranks, sizes), top first: offsets row i sums the first i chosen
    offsets, so the level-k central tile sits at offsets[L - k] in top-tile
    coordinates and the identity at offsets[-1]."""
    labels, starts, sizes = [top], [], []
    steps = np.zeros((level + 1, spec.group.d), dtype=np.int64)
    for pos, k in enumerate(range(level, 0, -1)):
        child_labels, offsets, child_ranks = spec.children(k, labels[-1])
        d = digits[pos]
        labels.append(child_labels[d - 1])
        steps[pos + 1] = offsets[d - 1]
        starts.append(child_ranks[d - 1])
        sizes.append(child_ranks[-1])
    ranks = tuple(accumulate(reversed(starts), initial=0))[::-1]
    return tuple(labels), steps.cumsum(axis=0), ranks, (*sizes, 1)


def walk_window(spec, walk, k: int, past: int, future: int) -> np.ndarray:
    """Anchored cells of order positions -past..future, cut from the level-k
    central tile's curve (curve(k, label) -> (n, d) rows) placed by the
    walk's summed offsets rather than by the identity's rank."""
    labels, offsets, ranks, _ = walk
    pos = len(labels) - 1 - k
    tile = spec.curve(k, labels[pos]) + (offsets[pos] - offsets[-1])
    return tile[ranks[pos] - past:ranks[pos] + future + 1]


def validate_spec(spec, max_level: int) -> list:
    """The tuple reference for tiling.validate_spec, on any object with
    group.d, shapes(k) -> {label: cells} and rules(k) -> {label: ((child
    label, offset), ...)}: every child cell is translated one at a time,
    overlaps are found through a seen dict and coverage through set
    differences.  Returns (level, label, kind, witness) tuples."""
    def cell_set(shape):
        return frozenset(tuple(int(x) for x in c) for c in shape)

    violations = []
    e = (0,) * spec.group.d
    for k in range(0, max_level + 1):
        for lab, shape in spec.shapes(k).items():
            if e not in cell_set(shape):
                violations.append((k, lab, "missing_identity", e))
    if not spec.shapes(0) or any(len(cell_set(s)) != 1 for s in spec.shapes(0).values()):
        violations.append((0, "", "level_zero_not_singletons", None))
    for k in range(1, max_level + 1):
        shapes_k = spec.shapes(k)
        shapes_below = spec.shapes(k - 1)
        rules_k = spec.rules(k)
        for lab in shapes_k:
            if lab not in rules_k:
                violations.append((k, lab, "missing_rule", None))
                continue
            seen: dict = {}
            bad_child = False
            for child_label, offset in rules_k[lab]:
                if child_label not in shapes_below:
                    violations.append((k, lab, "unknown_child", child_label))
                    bad_child = True
                    continue
                off = (offset,) if isinstance(offset, int) else tuple(offset)
                for c in cell_set(shapes_below[child_label]):
                    cell = tuple(x + y for x, y in zip(c, off))
                    if cell in seen:
                        violations.append((k, lab, "overlapping_children", cell))
                    else:
                        seen[cell] = True
            if bad_child:
                continue
            parent_cells = cell_set(shapes_k[lab])
            covered = set(seen)
            for cell in sorted(parent_cells - covered):
                violations.append((k, lab, "uncovered_cell", cell))
            for cell in sorted(covered - parent_cells):
                violations.append((k, lab, "cell_outside_parent", cell))
    return violations


def markov_joint_law(P, pi, cells) -> dict:
    """Exact joint law on sorted 1d cells via literal matrix powers."""
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    xs = sorted(int(c) if isinstance(c, int) else int(c[0]) for c in cells)
    k = P.shape[0]
    out = {}

    def rec(prefix, prob, pos):
        if prob == 0.0:
            return
        if pos == len(xs):
            out[tuple(prefix)] = out.get(tuple(prefix), 0.0) + prob
            return
        if pos == 0:
            step = pi
            for s in range(k):
                rec(prefix + [s], prob * step[s], pos + 1)
        else:
            gap = xs[pos] - xs[pos - 1]
            M = np.linalg.matrix_power(P, gap)
            for s in range(k):
                rec(prefix + [s], prob * M[prefix[-1], s], pos + 1)

    rec([], 1.0, 0)
    return out


def flip_chain_power_offdiag(q: float, n: int) -> float:
    """n-step flip probability of the symmetric binary chain."""
    return (1 - (1 - 2 * q) ** n) / 2


def _child_seed(seed, i: int) -> np.random.SeedSequence:
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(seq.entropy, spawn_key=tuple(seq.spawn_key) + (int(i),))


def markov_sample_many(P, initial, xs, m: int, seed) -> np.ndarray:
    """The per-column Markov line sampler: one rng.random(m) per cell in
    sorted order, the first column by the initial law's cdf and every later
    column by the cdf row of the gap's matrix power at the previous symbol.
    Returns (m, len(xs)) symbol indices in the given cell order."""
    rng = np.random.default_rng(seed)
    xs = np.asarray(xs, dtype=np.int64)
    P = np.asarray(P, dtype=float)
    n = len(xs)
    order = np.argsort(xs)
    sorted_x = xs[order]
    out_sorted = np.empty((m, n), dtype=np.int64)
    u = rng.random(m)
    out_sorted[:, 0] = np.searchsorted(np.cumsum(np.asarray(initial)), u, side="right")
    for idx in range(1, n):
        gap = int(sorted_x[idx] - sorted_x[idx - 1])
        step_cum = np.cumsum(np.linalg.matrix_power(P, gap), axis=1)
        u = rng.random(m)
        out_sorted[:, idx] = (u[:, None] > step_cum[out_sorted[:, idx - 1]]).sum(axis=1)
    out = np.empty((m, n), dtype=np.int64)
    out[:, order] = out_sorted
    return out


def bernoulli_sample_many(probs, m: int, n: int, seed) -> np.ndarray:
    """Independent draws by Generator.choice: (m, n) symbol indices."""
    rng = np.random.default_rng(seed)
    return rng.choice(len(probs), size=(m, n), p=np.asarray(probs))


def overlay_sample_many(base_sample, period, cells, m: int, seed) -> np.ndarray:
    """A periodic marker with uniform phase over base draws: the phase from
    child stream 0, the base from child stream 1 via base_sample(cells, m,
    seed); symbol = base index * |period| + marker index (row-major)."""
    rng = np.random.default_rng(_child_seed(seed, 0))
    phases = [rng.integers(0, p, size=m, dtype=np.int64) for p in period]
    base = base_sample(cells, m, _child_seed(seed, 1))
    marker = np.zeros((m, len(cells)), dtype=np.int64)
    for axis, p in enumerate(period):
        coords = np.array([c[axis] for c in cells], dtype=np.int64)
        marker = marker * p + (coords[None, :] + phases[axis][:, None]) % p
    return base * math.prod(period) + marker


def overlay_sample_per_cell(base_sample, period, cells, m: int, seed) -> np.ndarray:
    """overlay_sample_many one cell at a time, in Python ints: each cell's
    column is its base draws times |period| plus, per draw, the row-major
    index of the marker (cell + phase) mod period."""
    rng = np.random.default_rng(_child_seed(seed, 0))
    phases = [rng.integers(0, p, size=m, dtype=np.int64).tolist() for p in period]
    base = base_sample(cells, m, _child_seed(seed, 1))
    out = np.empty((m, len(cells)), dtype=np.int64)
    for j, cell in enumerate(cells):
        for r in range(m):
            mark = 0
            for axis, p in enumerate(period):
                mark = mark * p + (int(cell[axis]) + phases[axis][r]) % p
            out[r, j] = int(base[r, j]) * math.prod(period) + mark
    return out


def overlay_marker_term(period, target, conditioners) -> float:
    """H(M at S + target) - H(M at S) of a periodic marker with uniform
    phase, S the conditioner cells: every phase's marker row (one column per
    cell, marker (cell + phase) mod period per axis), distinct rows counted
    by np.unique."""
    cells = [tuple(c) for c in conditioners] + [tuple(target)]
    rows = np.array([[tuple((c + f) % p for c, f, p in zip(cell, phase, period))
                      for cell in cells]
                     for phase in product(*(range(p) for p in period))],
                    dtype=np.int64).reshape(math.prod(period), len(cells), len(period))

    def pattern_entropy(patterns):
        flat = patterns.reshape(len(patterns), -1)
        counts = np.unique(flat, axis=0, return_counts=True)[1]
        return entropy_bits(counts / len(flat))

    return pattern_entropy(rows) - pattern_entropy(rows[:, :-1])


def block_counts(samples: np.ndarray, k: int):
    """np.unique over the rows encoded base k (last column least
    significant): sorted support codes, each row's index, counts."""
    weights = k ** np.arange(samples.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.unique(samples.astype(np.int64) @ weights,
                     return_inverse=True, return_counts=True)


def plugin_estimate(samples: np.ndarray, k: int, bias: str, signs):
    """The signed sum of plug-in block entropies (weights for the last
    column, the other columns and all columns) with one np.unique per block
    over the joint support codes: mean, standard error and the Miller-Madow
    term, term by term as entropy._plugin_estimate adds them."""
    m = samples.shape[0]
    codes, inverse, counts = block_counts(samples, k)
    terms, excess = None, 0
    for sign, block in zip(signs, (codes % k, codes // k, codes)):
        if sign:
            _, idx = np.unique(block, return_inverse=True)
            totals = np.bincount(idx, weights=counts)
            term = -sign * np.log2(totals[idx] / m)
            terms = term if terms is None else terms + term
            excess += sign * (totals.size - 1)
    est, se = mean_se(terms[inverse])
    if bias == "miller_madow":
        est += excess / (2.0 * m * math.log(2.0))
    return est, se


def block_terms(samples: np.ndarray, k: int):
    """Per-row -log2 of the empirical probability of the row's block, plus
    the block's support size; a block of no cells has zero terms."""
    m, n = samples.shape
    if n == 0:
        return np.zeros(m), 1
    weights = np.array([k**p for p in range(n - 1, -1, -1)], dtype=np.int64)
    codes = samples.astype(np.int64) @ weights
    _, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
    return -np.log2(counts[inverse] / m), int(counts.size)


def mean_se(terms):
    terms = np.asarray(terms)
    m = terms.shape[0]
    se = float(terms.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return float(terms.mean()), se


def cond_estimate(samples: np.ndarray, k: int, bias: str):
    """H(last column | other columns) from draws, counting the joint and
    the conditioner blocks separately."""
    m = samples.shape[0]
    joint, kj = block_terms(samples, k)
    cond, kc = block_terms(samples[:, :-1], k)
    est, se = mean_se(joint - cond)
    if bias == "miller_madow":
        est += (kj - kc) / (2.0 * m * math.log(2.0))
    return est, se


def mutual_information(samples: np.ndarray, k: int, bias: str) -> float:
    """I(last column; other columns) from draws, counting the joint, the
    block and the last column separately."""
    m = samples.shape[0]
    joint, kj = block_terms(samples, k)
    block, kb = block_terms(samples[:, :-1], k)
    target, kt = block_terms(samples[:, -1:], k)
    mi, _ = mean_se(target + block - joint)
    if bias == "miller_madow":
        mi += (kt + kb - kj - 1) / (2.0 * m * math.log(2.0))
    return mi


class InputError(ValueError):
    """Stands in for the package's InputError: compared by name and message."""


class DimensionMismatchError(InputError):
    """Stands in for the package's DimensionMismatchError."""


def element(d: int, value) -> tuple:
    """The per-cell reference for groups.element: a bare int (d = 1) or an
    int sequence as a tuple of Python ints; bools, floats and strings are
    rejected."""
    if isinstance(value, (str, bytes)):
        raise InputError(f"cannot interpret {value!r} as a group element")
    bare = not hasattr(value, "__iter__")
    try:
        vals = (value,) if bare else tuple(value)
        if bool in map(type, vals):
            raise TypeError
        out = tuple(map(operator.index, vals))
    except TypeError:
        raise InputError(f"group element {value!r} must contain only ints") from None
    if len(out) != d:
        if bare:
            raise DimensionMismatchError(f"bare int {value} in dimension {d}")
        raise DimensionMismatchError(f"element {out} has length {len(out)}, group dimension is {d}")
    return out


def as_cell_array(d: int, cells) -> np.ndarray:
    """The per-cell reference for groups.as_cell_array on anything but an
    int64 2-d array: every cell through ``element``, then one np.array."""
    rows = [element(d, c) for c in cells]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), d)
    except OverflowError:
        raise InputError("cell coordinates must fit in int64") from None


def box(d: int, radius: int) -> frozenset:
    """The reference for groups.box: every int d-tuple of sup-norm at most
    radius, as a set."""
    rng = range(-radius, radius + 1)
    return frozenset(product(rng, repeat=d))


def unit_cross(d: int) -> frozenset:
    """The reference for folner.unit_cross: the identity and the 2d unit
    steps, as a set."""
    out = {(0,) * d}
    for axis in range(d):
        for sign in (1, -1):
            step = [0] * d
            step[axis] = sign
            out.add(tuple(step))
    return frozenset(out)


def interval_from_set(cells, lo: int, F, n: int, side: str = "forward") -> set:
    """The set-building reference for the union folner.interval_growth
    counts.  cells lists a window's cells as tuples for positions lo, lo+1,
    ...; the union runs over the intervals from each g in F to its n-th
    successor (forward) or from its n-th predecessor to g (backward), all
    assumed inside the window."""
    pos = {c: lo + r for r, c in enumerate(cells)}
    out = set()
    for g in F:
        k = pos[tuple(g)] - (n if side == "backward" else 0)
        out.update(cells[k - lo : k - lo + n + 1])
    return out
