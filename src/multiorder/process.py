"""Stationary symbol processes on lattice groups with exact finite laws.

Three variants: independent draws per cell (Bernoulli), a stationary
two-sided Markov chain on the line sampled exactly at arbitrary cell sets
via transition-matrix powers, and a deterministic periodic marker with
uniformly random phase overlaid on a base process (the remote-past test
process: the phase is recoverable from any far-away marker cell).

Sampling is seeded and exact: marginals on a requested cell set follow the
true finite-dimensional law, with no burn-in or approximation.  One draw
kernel, ``_draw_blocks``, yields the symbols of m draws a block of cells at
a time, in the smallest unsigned dtype that holds the alphabet:

- Bernoulli: one ``rng.random((m, n))`` block; each symbol is the count of
  entries of numpy's normalised cdf (``choice_cdf``) at most its uniform,
  over the first k - 1 entries (``inverse_cdf``), so the draw has the bytes
  of ``Generator.choice(k, size=(m, n), p=probs)``.
- Markov chain: one ``rng.random((n, m))`` and one column per cell in
  sorted order, the first by ``inverse_cdf`` of the initial law, each
  later one the count of thresholds its uniform exceeds, read from
  cumulative transition powers computed once per distinct gap.
- Overlay: the base's blocks times the number of phases, plus the marker.

``sample_many`` writes the blocks into an (m, n) int64 symbol array;
``sample_codes`` folds each block straight into one base-k int64 code per
draw, so the estimators never build the symbol array.

Exact laws read one law tensor (one axis per cell) for Bernoulli and the
chain, and the marker patterns of all prod(period) phases (``_markers``,
shared with the sampler) for the overlay.  ``exact_conditional_entropy``
covers all three variants at any depth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from . import groups
from .errors import BudgetError, DimensionMismatchError, InputError
from .groups import GroupSpec
from .util import count_distinct_rows, make_rng, spawn_seeds

_PROB_TOL = 1e-12
_ENUM_BUDGET = 1 << 22


def _check_probs(probs) -> tuple:
    p = tuple(float(x) for x in probs)
    if not p:
        raise InputError("probability vector must be nonempty")
    if not all(math.isfinite(x) and x >= 0 for x in p):
        raise InputError(f"probabilities must be finite and >= 0: {p}")
    if abs(sum(p) - 1.0) > _PROB_TOL:
        raise InputError(f"probabilities must sum to 1 within {_PROB_TOL}: sum={sum(p)}")
    return p


@dataclass(frozen=True)
class Bernoulli:
    """Independent identical draws at every cell of the group."""

    group: GroupSpec
    probs: tuple
    alphabet: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _check_probs(self.probs))
        alpha = self.alphabet
        if alpha is None:
            alpha = tuple(range(len(self.probs)))
        else:
            alpha = tuple(alpha)
        if len(alpha) != len(self.probs) or len(set(alpha)) != len(alpha):
            raise InputError("alphabet must be distinct symbols matching probs")
        object.__setattr__(self, "alphabet", alpha)

    def to_json(self) -> dict:
        return {
            "variant": "bernoulli",
            "group": self.group.to_json(),
            "probs": list(self.probs),
            "alphabet": list(self.alphabet),
        }


@dataclass(frozen=True)
class MarkovLine:
    """A stationary Markov chain indexed by the line (d = 1 only)."""

    transition: tuple
    alphabet: tuple = None
    initial: tuple = None

    def __post_init__(self):
        rows = tuple(_check_probs(row) for row in self.transition)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise InputError("transition matrix must be square")
        object.__setattr__(self, "transition", rows)
        alpha = self.alphabet
        if alpha is None:
            alpha = tuple(range(k))
        else:
            alpha = tuple(alpha)
        if len(alpha) != k or len(set(alpha)) != len(alpha):
            raise InputError("alphabet must be distinct symbols matching the matrix")
        object.__setattr__(self, "alphabet", alpha)
        if self.initial is None:
            init = tuple(float(x) for x in stationary_distribution(self.matrix))
        else:
            init = _check_probs(self.initial)
            if len(init) != k:
                raise InputError("initial law must match the matrix size")
            drift = np.abs(np.asarray(init) @ self.matrix - np.asarray(init)).max()
            if drift > 1e-9:
                raise InputError(f"initial law is not stationary (drift {drift:.2e})")
        object.__setattr__(self, "initial", init)

    @property
    def group(self) -> GroupSpec:
        return GroupSpec.line()

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.transition, dtype=float)

    def to_json(self) -> dict:
        return {
            "variant": "markov_line",
            "transition": [list(r) for r in self.transition],
            "alphabet": list(self.alphabet),
        }


@dataclass(frozen=True)
class PeriodicOverlay:
    """Pairs (base symbol, marker) where the marker is a fixed periodic
    pattern with uniformly random phase, independent of the base."""

    base: object
    period: tuple
    marker_alphabet: tuple = None

    def __post_init__(self):
        per = self.period
        if isinstance(per, int):
            per = (per,)
        per = tuple(groups.exact_int(p, "period entry") for p in per)
        if any(p < 1 for p in per) or not per:
            raise InputError(f"period entries must be >= 1: {per}")
        if len(per) != self.base.group.d:
            raise DimensionMismatchError(
                f"period {per} has length {len(per)}, group dimension is {self.base.group.d}"
            )
        object.__setattr__(self, "period", per)
        count = math.prod(per)
        marks = self.marker_alphabet
        if marks is None:
            if len(per) == 1:
                marks = tuple(range(per[0]))
            else:
                marks = tuple(_cartesian(*(range(p) for p in per)))
        else:
            marks = tuple(marks)
        if len(marks) != count or len(set(marks)) != len(marks):
            raise InputError(f"marker alphabet must hold {count} distinct symbols")
        object.__setattr__(self, "marker_alphabet", marks)

    @property
    def group(self) -> GroupSpec:
        return self.base.group

    @property
    def alphabet(self) -> tuple:
        return tuple(
            (b, m) for b in self.base.alphabet for m in self.marker_alphabet
        )

    def to_json(self) -> dict:
        return {
            "variant": "periodic_overlay",
            "base": self.base.to_json(),
            "period": list(self.period),
        }


ProcessSpec = (Bernoulli, MarkovLine, PeriodicOverlay)


def from_json(obj: dict):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise InputError(f"not a process spec: {obj!r}")
    var = obj["variant"]
    if var == "bernoulli":
        group = GroupSpec.from_json(obj.get("group", {"kind": "int_line", "d": 1}))
        alphabet = tuple(obj["alphabet"]) if "alphabet" in obj else None
        return Bernoulli(group, tuple(obj["probs"]), alphabet)
    if var == "markov_line":
        alphabet = tuple(obj["alphabet"]) if "alphabet" in obj else None
        return MarkovLine(tuple(tuple(r) for r in obj["transition"]), alphabet)
    if var == "periodic_overlay":
        return PeriodicOverlay(from_json(obj["base"]), tuple(obj["period"]))
    raise InputError(f"unknown process variant {var!r}")


@dataclass(frozen=True)
class Configuration:
    """Symbols observed on a finite cell set."""

    cells: tuple
    symbols: tuple

    def __post_init__(self):
        if len(self.cells) != len(self.symbols):
            raise InputError("one symbol per cell required")
        if len(set(self.cells)) != len(self.cells):
            raise InputError("configuration cells must be distinct")

    def __getitem__(self, cell):
        try:
            return self.symbols[self.cells.index(cell)]
        except ValueError:
            raise KeyError(cell) from None

    def as_dict(self) -> dict:
        return dict(zip(self.cells, self.symbols))


def alphabet_size(spec) -> int:
    if isinstance(spec, PeriodicOverlay):
        return alphabet_size(spec.base) * math.prod(spec.period)
    return len(spec.alphabet)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """The stationary law of a row-stochastic matrix.

    It is unique exactly when some state is reachable from every state (one
    closed class); otherwise the solve is singular and InputError is raised.
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    if P.shape != (k, k):
        raise InputError("transition matrix must be square")
    reach = (P > 0) | np.eye(k, dtype=bool)
    for via in range(k):
        reach |= reach[:, via:via + 1] & reach[via]
    if not reach.all(axis=0).any():
        raise InputError("transition matrix has no unique stationary law")
    A = P.T - np.eye(k)
    A[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _check_cells(spec, cells) -> np.ndarray:
    arr = groups.as_cell_array(spec.group, cells)
    if count_distinct_rows(arr) != len(arr):
        raise InputError("cells must be distinct")
    return arr


def choice_cdf(probs) -> np.ndarray:
    """The cumulative law as ``Generator.choice`` builds it: the running
    sum, divided by its last entry."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def inverse_cdf(cdf, u):
    """Symbols for a uniform or an array of uniforms u in [0, 1): the
    number of the first k - 1 entries of cdf that are <= u, in the smallest
    unsigned dtype holding k - 1.  Wherever u < cdf[-1] this is the
    right-side insertion point of u in cdf; index k is never returned, even
    when cdf[-1] < 1."""
    out = np.min_scalar_type(len(cdf) - 1).type(0)
    # one comparison at least (never true for one symbol), so an array u
    # gives an array of its shape
    for c in cdf[:-1].tolist() or [math.inf]:
        out += u >= c
    return out


def _draw_blocks(spec, cs, m: int, seed):
    """Yield (cell index or indices into cs, symbols) until every cell is
    drawn; symbols has shape (m,) for one index and (m, len(indices)) for
    several."""
    if not isinstance(spec, ProcessSpec):
        raise InputError(f"unknown process variant {type(spec).__name__}")
    n = len(cs)
    if n == 0:
        return
    if isinstance(spec, Bernoulli):
        yield slice(None), inverse_cdf(choice_cdf(spec.probs), make_rng(seed).random((m, n)))
    elif isinstance(spec, MarkovLine):
        order = np.argsort(cs[:, 0]).tolist()
        xs = cs[order, 0].tolist()
        u = make_rng(seed).random((n, m))
        prev = inverse_cdf(np.cumsum(spec.initial), u[0])
        yield order[0], prev
        thresholds = {}
        for c in range(1, n):
            gap = xs[c] - xs[c - 1]
            if gap not in thresholds:
                # the last cumulative column never counts; u < 1, so a
                # threshold row that is >= 1 throughout adds nothing
                cum = np.cumsum(_transition_power(spec.matrix, gap), axis=1)[:, :-1].T
                thresholds[gap] = cum[cum.min(axis=1) < 1.0]
            col = np.zeros(m, dtype=prev.dtype)
            for row in thresholds[gap]:
                col += u[c] > row.take(prev)
            yield order[c], col
            prev = col
    else:
        phase_seed, base_seed = spawn_seeds(seed, 2)
        rng = make_rng(phase_seed)
        phases = np.stack(
            [rng.integers(0, p, size=m, dtype=np.int64) for p in spec.period], axis=1
        )
        count = np.int64(math.prod(spec.period))
        for idx, block in _draw_blocks(spec.base, cs, m, base_seed):
            yield idx, block * count + _markers(spec, cs[idx], phases).reshape(block.shape)


def _markers(spec: PeriodicOverlay, cells: np.ndarray, phases=None) -> np.ndarray:
    """Row-major marker indices, one row per phase and one column per cell
    (cells an (n, d) array, or one (d,) cell for a single column); phases
    is an (m, d) array, by default all prod(period) phases in row-major
    order.  Cells are reduced mod period before the phase is added, so no
    int64 coordinate overflows."""
    per = np.asarray(spec.period, dtype=np.int64)
    if phases is None:
        phases = np.indices(spec.period).reshape(len(per), -1).T
    strides = np.cumprod(np.r_[1, per[:0:-1]])[::-1]
    return ((cells % per + phases[:, None, :]) % per) @ strides


def _check_draw(spec, cells, m: int) -> np.ndarray:
    cs = _check_cells(spec, cells)
    if m < 1:
        raise InputError(f"sample count must be >= 1, got {m}")
    return cs


def sample_many(spec, cells, m: int, seed) -> np.ndarray:
    """Draw m independent configurations; returns (m, len(cells)) symbol
    indices into the variant's alphabet, exact in law."""
    cs = _check_draw(spec, cells, m)
    out = np.empty((m, len(cs)), dtype=np.int64)
    for idx, block in _draw_blocks(spec, cs, m, seed):
        out[:, idx] = block
    return out


def sample_codes(spec, cells, m: int, seed) -> np.ndarray:
    """The m draws of sample_many(spec, cells, m, seed), each folded into
    one base-k int64 code (k the alphabet size, the last cell least
    significant), without building the (m, len(cells)) symbol array."""
    cs = _check_draw(spec, cells, m)
    k, n = alphabet_size(spec), len(cs)
    if k**n >= 2**62:
        raise BudgetError(f"cannot encode {n}-cell blocks over {k} symbols exactly")
    dt = np.min_scalar_type(k**n - 1)  # fold in the code space's smallest dtype
    weights = (k ** np.arange(n - 1, -1, -1, dtype=np.int64)).astype(dt)
    codes = np.zeros(m, dtype=dt)
    for idx, block in _draw_blocks(spec, cs, m, seed):
        for w, col in zip(np.atleast_1d(weights[idx]), block.reshape(m, -1).T):
            codes += w * col.astype(dt, copy=False)
    return codes.astype(np.int64)


def symbols_of(spec, indices: np.ndarray) -> list:
    alpha = spec.alphabet
    return [alpha[int(i)] for i in indices]


def sample(spec, cells, seed) -> Configuration:
    """One seeded exact draw on the given cells, as a tuple-keyed view.

    Kept because perfbench's tracer wraps ``process.sample`` by name; the
    package itself draws through ``sample_many``.
    """
    cs = _check_cells(spec, cells)
    idx = sample_many(spec, cs, 1, seed)[0]
    return Configuration(tuple(groups.cell_tuples(cs)), tuple(symbols_of(spec, idx)))


def _entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    pos = p[p > 0]
    return float(-(pos * np.log2(pos)).sum())


def exact_entropy_rate(spec) -> float:
    """Per-cell entropy in bits; the overlay's marker adds zero."""
    if isinstance(spec, Bernoulli):
        return _entropy_bits(np.asarray(spec.probs))
    if isinstance(spec, MarkovLine):
        P = spec.matrix
        pi = np.asarray(spec.initial)
        return float(sum(pi[i] * _entropy_bits(P[i]) for i in range(len(pi))))
    if isinstance(spec, PeriodicOverlay):
        return exact_entropy_rate(spec.base)
    raise InputError(f"unknown process variant {type(spec).__name__}")


def phase_entropy(spec: PeriodicOverlay) -> float:
    """Entropy of the overlay's random phase in bits (the exact amount of
    remote-past information carried by the marker)."""
    if not isinstance(spec, PeriodicOverlay):
        raise InputError("phase entropy is defined for the overlay variant only")
    return float(np.log2(math.prod(spec.period)))


def _transition_power(P: np.ndarray, gap: int) -> np.ndarray:
    """P**gap for a gap >= 1 of any size, by repeated squaring as in
    np.linalg.matrix_power, with the rows of each product divided by their
    sums so that rounding does not compound over the squarings."""
    def product(a, b):
        c = a @ b
        return c / c.sum(axis=1, keepdims=True)

    result, square = None, P
    while gap:
        gap, bit = divmod(gap, 2)
        if bit:
            result = square if result is None else product(result, square)
        if gap:
            square = product(square, square)
    return result


def _law_tensor(spec, cs: np.ndarray) -> np.ndarray:
    """Exact joint law of a Bernoulli or MarkovLine process on the cells:
    one axis per cell, in the given order."""
    k, n = len(spec.alphabet), len(cs)
    if k**n > _ENUM_BUDGET:
        raise BudgetError(f"exact law over {n} cells with {k} symbols exceeds budget")
    if isinstance(spec, Bernoulli):
        return functools.reduce(np.multiply.outer, [spec.probs] * n, np.ones(()))
    order = np.argsort(cs[:, 0])
    xs = cs[order, 0].tolist()  # Python ints: gaps of 2**63 or more do not wrap
    law = np.asarray(spec.initial) if n else np.ones(())
    for a, b in zip(xs, xs[1:]):
        law = np.einsum("...i,ij->...ij", law, _transition_power(spec.matrix, b - a))
    return np.transpose(law, np.argsort(order))


def _pattern_entropy(rows: np.ndarray) -> float:
    """Entropy in bits of the law that gives each row equal weight."""
    return _entropy_bits(np.unique(rows, axis=0, return_counts=True)[1] / len(rows))


def exact_cylinder_law(spec, cells) -> dict:
    """Exact joint law on the given cells: {symbol tuple: probability}.

    Tuples align with the given cell order; zero-probability assignments
    are omitted.
    """
    cs = _check_cells(spec, cells)
    if isinstance(spec, (Bernoulli, MarkovLine)):
        law = _law_tensor(spec, cs)
        hit, alpha = law > 0, spec.alphabet
        keys = (tuple(alpha[i] for i in key) for key in np.argwhere(hit).tolist())
        return dict(zip(keys, law[hit].tolist()))
    if isinstance(spec, PeriodicOverlay):
        base_law = exact_cylinder_law(spec.base, cs)
        count = math.prod(spec.period)
        marker_law: dict = {}
        for row in _markers(spec, cs).tolist():
            key = tuple(spec.marker_alphabet[i] for i in row)
            marker_law[key] = marker_law.get(key, 0.0) + 1.0 / count
        return {tuple(zip(bkey, mkey)): bp * mp
                for bkey, bp in base_law.items() for mkey, mp in marker_law.items()}
    raise InputError(f"unknown process variant {type(spec).__name__}")


def exact_conditional_entropy(spec, target, conditioners) -> float:
    """H(symbol at target | symbols on conditioners), exactly, in bits, for
    every variant and any number of conditioner cells.

    A MarkovLine reads only the nearest conditioner below and above the
    target (Markov property); an overlay adds to its base's value the
    marker term H(M_{S+target}) - H(M_S) over all prod(period) phases.
    """
    conds = _check_cells(spec, conditioners)
    tgt = groups.element(spec.group, target)
    if bool((conds == tgt).all(axis=1).any()):
        return 0.0
    if isinstance(spec, Bernoulli):
        return _entropy_bits(np.asarray(spec.probs))
    if isinstance(spec, MarkovLine):
        xs, t = conds[:, 0], tgt[0]
        near = np.r_[t, np.sort(xs[xs < t])[-1:], np.sort(xs[xs > t])[:1]]
        law = _law_tensor(spec, near.reshape(-1, 1))
        return _entropy_bits(law) - _entropy_bits(law.sum(axis=0))
    if isinstance(spec, PeriodicOverlay):
        markers = _markers(spec, np.concatenate([conds, [tgt]]))
        return (exact_conditional_entropy(spec.base, tgt, conds)
                + _pattern_entropy(markers) - _pattern_entropy(markers[:, :-1]))
    raise InputError(f"unknown process variant {type(spec).__name__}")
