"""Reference values and property checks for the benchmark's output checks.

Nothing here imports the package under test: window properties are checked
with Python sets and plain array arithmetic, Folner ratios are counted with
sets of cell tuples, and entropies come from closed forms and literal 2x2
matrix powers.  Every check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LN2 = math.log(2.0)

# How many standard errors an estimate may stray from its exact value.  The
# checks run on every op of every run (thousands of estimates per benchmark
# session), so the band is wide enough that a correct estimator never leaves
# it: a 6-sigma normal excursion has probability 2e-9.
SIGMAS = 6.0


# --- windows -------------------------------------------------------------

def top_tile_size(tiling_name: str, level: int) -> int:
    return 4**level if tiling_name == "hilbert" else 2**level


def check_window(tiling_name: str, level: int, lo: int, hi: int, arr) -> list:
    """Properties every expanded window must have.

    cells pairwise distinct, the identity at position 0, length equal to the
    top tile size; Hilbert windows are unit-step paths filling a 2^L square,
    dyadic windows fill 2^L consecutive integers (dyadic_standard in
    increasing order).
    """
    arr = np.asarray(arr)
    size = top_tile_size(tiling_name, level)
    out = []
    if hi - lo + 1 != size or arr.shape[0] != size:
        out.append(f"window [{lo}, {hi}] with {arr.shape[0]} cells, top tile has {size}")
        return out
    if lo > 0 or hi < 0 or any(arr[-lo]):
        out.append("position 0 does not hold the identity")
    if len(set(map(tuple, arr.tolist()))) != size:
        out.append("window cells are not pairwise distinct")
    span = arr.max(axis=0) - arr.min(axis=0)
    steps = arr[1:] - arr[:-1]
    if tiling_name == "hilbert":
        side = 2**level
        if np.any(span != side - 1):
            out.append(f"cells span {span.tolist()}, not a {side}x{side} square")
        if np.any(np.abs(steps).sum(axis=1) != 1):
            out.append("Hilbert window is not a unit-step path")
    else:
        if np.any(span != size - 1):
            out.append(f"cells span {span.tolist()}, not {size} consecutive integers")
        if tiling_name == "dyadic_standard" and np.any(steps != 1):
            out.append("dyadic_standard window is not in increasing order")
    return out


def check_increments(lo: int, hi: int, arr, inc_lo: int, inc_hi: int, inc) -> list:
    """to_increments must give the successive row differences."""
    arr = np.asarray(arr)
    if (inc_lo, inc_hi) != (lo, hi):
        return [f"increments span [{inc_lo}, {inc_hi}], window [{lo}, {hi}]"]
    if not np.array_equal(np.asarray(inc), arr[1:] - arr[:-1]):
        return ["increments differ from the row differences"]
    return []


def check_same_window(lo: int, hi: int, arr, lo2: int, hi2: int, arr2) -> list:
    """from_increments must restore the window exactly."""
    if (lo2, hi2) != (lo, hi) or not np.array_equal(np.asarray(arr2), np.asarray(arr)):
        return ["from_increments did not restore the window"]
    return []


def check_act(lo: int, hi: int, arr, k: int, lo2: int, hi2: int, arr2) -> list:
    """act(w, cell(k)) holds the rows shifted by k, minus cell(k)."""
    arr = np.asarray(arr)
    if (lo2, hi2) != (lo - k, hi - k):
        return [f"act by position {k} spans [{lo2}, {hi2}], expected [{lo - k}, {hi - k}]"]
    if not np.array_equal(np.asarray(arr2), arr - arr[k - lo]):
        return [f"act by position {k} does not translate the rows by cell({k})"]
    return []


# --- Folner ratios -------------------------------------------------------

def unit_cross(d: int) -> list:
    out = [(0,) * d]
    for axis in range(d):
        for sign in (1, -1):
            step = [0] * d
            step[axis] = sign
            out.append(tuple(step))
    return out


def folner_ratio(F, K) -> Fraction:
    """|KF symmetric-difference F| / |F|, counted with Python sets."""
    fset = {tuple(c) for c in F}
    kf = {tuple(a + b for a, b in zip(k, c)) for k in K for c in fset}
    return Fraction(len(kf ^ fset), len(fset))


def check_tile_ratio(level: int, size: int, ratio) -> list:
    """A complete level-k Hilbert tile is a 2^k square: under the unit cross
    its outer boundary has 4 * 2^k cells, so the ratio is exactly 4 / 2^k."""
    expected = Fraction(4, 2**level)
    if size != 4**level or ratio != expected:
        return [f"level-{level} tile of {size} cells has ratio {ratio}, expected {expected}"]
    return []


def check_square(cells, level: int) -> list:
    arr = np.asarray(cells)
    side = 2**level
    span = arr.max(axis=0) - arr.min(axis=0)
    if arr.shape[0] != side * side or np.any(span != side - 1):
        return [f"level-{level} tile is not a {side}x{side} square"]
    return []


# --- entropies -----------------------------------------------------------

def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def info_sd(joint, axis: int) -> float:
    """Standard deviation of -log2 p(x_target | rest) under the exact joint
    law, with the target on the given axis: the per-draw spread of the
    conditional-entropy estimator's information terms."""
    joint = np.asarray(joint, dtype=float)
    cond = joint.sum(axis=axis, keepdims=True)
    pos = joint > 0
    info = np.zeros_like(joint)
    info[pos] = -np.log2((joint / np.broadcast_to(cond, joint.shape))[pos])
    mean = float((joint * info).sum())
    return math.sqrt(max(float((joint * (info - mean) ** 2).sum()), 0.0))


def stationary(P) -> np.ndarray:
    """Stationary law of a 2-state chain [[1-p, p], [q, 1-q]]: (q, p)/(p+q)."""
    p, q = float(P[0][1]), float(P[1][0])
    return np.array([q, p]) / (p + q)


def markov_joint(P, pi, a=None, b=None) -> tuple:
    """Exact law of (X_a, X_0, X_b) for a stationary chain, a < 0 < b, either
    side optional.  Returns (joint, target_axis)."""
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if a is None:
        joint = pi.copy()
    else:
        joint = pi[:, None] * np.linalg.matrix_power(P, -a)
    axis = joint.ndim - 1
    if b is not None:
        joint = joint[..., None] * np.linalg.matrix_power(P, b)
    return joint, axis


def markov_cond_entropy(P, pi, a=None, b=None) -> tuple:
    """H(X_0 | X_a, X_b) in bits and the per-draw information spread."""
    joint, axis = markov_joint(P, pi, a, b)
    h = entropy_bits(joint) - entropy_bits(joint.sum(axis=axis))
    return h, info_sd(joint, axis)


def nearest_neighbours(cells) -> tuple:
    """The nearest cell below 0 and the nearest above 0 (None if absent)."""
    xs = [int(c[0]) if not isinstance(c, (int, np.integer)) else int(c) for c in cells]
    below = [x for x in xs if x < 0]
    above = [x for x in xs if x > 0]
    return (max(below) if below else None, min(above) if above else None)


def bias_allowance(support: int, m: int) -> float:
    """The whole first-order plug-in bias term for a law on `support` joint
    symbols; the Miller-Madow correction removes most of it, so what is left
    stays below this."""
    return support / (2.0 * m * LN2)


def tolerance(stderr: float, per_draw_sd: float, m: int, n_orders: int,
              support: int) -> float:
    """Band around an exact value: SIGMAS standard errors (the report's
    across-order stderr, or the exact per-draw spread over m * n_orders draws
    if that is larger) plus the bias allowance."""
    floor = per_draw_sd / math.sqrt(m * n_orders)
    return SIGMAS * max(stderr, floor) + bias_allowance(support, m)
