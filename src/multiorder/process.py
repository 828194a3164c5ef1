"""Stationary symbol processes on lattice groups with exact finite laws.

Three variants: independent draws per cell (Bernoulli), a stationary
two-sided Markov chain on the line sampled exactly at arbitrary cell sets
via transition-matrix powers, and a deterministic periodic marker with
uniformly random phase overlaid on a base process (the remote-past test
process: the phase is recoverable from any far-away marker cell).

Sampling is seeded and exact: marginals on a requested cell set follow the
true finite-dimensional law, with no burn-in or approximation.  One draw
kernel, ``_draw``, returns the symbols of m draws on n cells as one (n, m)
matrix in the smallest unsigned dtype that holds the alphabet:

- Bernoulli: the transpose of one ``rng.random((m, n))`` block; each symbol
  is the count of entries of numpy's normalised cdf (``choice_cdf``) at
  most its uniform, over the first k - 1 entries (``inverse_cdf``), so the
  draw has the bytes of ``Generator.choice(k, size=(m, n), p=probs)``.
- Markov chain: one ``rng.random((n, m))``; rows fill in sorted cell
  order, the first by ``inverse_cdf`` of the initial law, each later one
  counting in place the thresholds its uniform exceeds, read from the
  cumulative transition power of its gap (``_thresholds``, cached per
  transition matrix and gap across draws).
- Overlay (int64): the base's matrix times the number of phases, plus markers.

``sample_many`` is its (m, n) int64 transpose; ``sample_codes`` folds its
rows by Horner's rule into one base-k code per draw in the code space's
smallest unsigned dtype, so the estimators never build the symbol array.

Exact laws read one law tensor (one axis per cell) for Bernoulli and the
chain; the overlay's marker at any one cell fixes its phase, so its marker
entropy needs no phase table.  ``exact_conditional_entropy`` covers all
three variants at any depth, and ``exact_entropy_rate`` is its one-step case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


def _check_alphabet(alphabet, k: int) -> tuple:
    """k distinct hashable symbols as a tuple, 0..k-1 by default."""
    try:
        alpha = tuple(range(k) if alphabet is None else alphabet)
        if len(alpha) == k and len(set(alpha)) == k:
            return alpha
    except TypeError:  # not iterable, or a symbol is not hashable
        pass
    raise InputError(f"alphabet must be {k} distinct hashable symbols, got {alphabet!r}")


@dataclass(frozen=True)
class Bernoulli:
    """Independent identical draws at every cell of the group."""

    group: GroupSpec
    probs: tuple
    alphabet: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _check_probs(self.probs))
        object.__setattr__(self, "alphabet", _check_alphabet(self.alphabet, len(self.probs)))

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
    initial: tuple = field(init=False)  # the stationary law

    def __post_init__(self):
        rows = tuple(_check_probs(row) for row in self.transition)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise InputError("transition matrix must be square")
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "alphabet", _check_alphabet(self.alphabet, k))
        object.__setattr__(self, "initial",
                           tuple(float(x) for x in stationary_distribution(self.matrix)))

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

    def __post_init__(self):
        per = self.period
        if isinstance(per, int):
            per = (per,)
        per = tuple(groups.exact_int(p, "period entry") for p in per)
        if any(p < 1 for p in per) or not per:
            raise InputError(f"period entries must be >= 1: {per}")
        if len(per) != _group(self.base).d:
            raise DimensionMismatchError(
                f"period {per} has length {len(per)}, group dimension is {self.base.group.d}"
            )
        object.__setattr__(self, "period", per)
        if math.prod(per) > _ENUM_BUDGET:
            raise BudgetError(f"period {per} has {math.prod(per)} phases, "
                              f"more than the budget of {_ENUM_BUDGET}")

    @property
    def group(self) -> GroupSpec:
        return self.base.group

    @property
    def alphabet(self) -> tuple:
        return tuple(symbols_of(self, np.arange(alphabet_size(self))))

    def to_json(self) -> dict:
        return {
            "variant": "periodic_overlay",
            "base": self.base.to_json(),
            "period": list(self.period),
        }


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


def _group(spec) -> GroupSpec:
    """The group of a process spec; InputError for anything that is not one."""
    if not isinstance(spec, (Bernoulli, MarkovLine, PeriodicOverlay)):
        raise InputError(f"unknown process variant {type(spec).__name__}")
    return spec.group


def _check_cells(spec, cells) -> np.ndarray:
    arr = groups.as_cell_array(_group(spec), cells)
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


def _draw(spec, cs, m: int, seed) -> np.ndarray:
    """The symbols of m draws on the cells cs: one (len(cs), m) matrix
    whose rows follow the cell order, in the smallest unsigned dtype that
    holds the alphabet (int64 for an overlay); spec is a checked variant."""
    if isinstance(spec, Bernoulli):
        return inverse_cdf(choice_cdf(spec.probs), make_rng(seed).random((m, len(cs)))).T
    if isinstance(spec, MarkovLine):
        order = np.argsort(cs[:, 0]).tolist()
        xs = cs[order, 0].tolist()
        u = make_rng(seed).random((len(cs), m))
        out = np.zeros((len(cs), m), dtype=np.min_scalar_type(len(spec.alphabet) - 1))
        # the first cell in x order by the initial law (no row on no cells)
        out[order[:1]] = inverse_cdf(np.cumsum(spec.initial), u[:1])
        for c in range(1, len(cs)):
            row, prev = out[order[c]], out[order[c - 1]]
            for th in _thresholds(spec.transition, xs[c] - xs[c - 1]):
                row += u[c] > th.take(prev)
        return out
    phase_seed, base_seed = spawn_seeds(seed, 2)
    rng = make_rng(phase_seed)
    phases = np.stack(
        [rng.integers(0, p, size=m, dtype=np.int64) for p in spec.period], axis=1
    )
    base = _draw(spec.base, cs, m, base_seed).astype(np.int64, copy=False)
    return _markers(spec, cs, phases, out=base)


@functools.lru_cache(maxsize=1024)
def _thresholds(transition: tuple, gap: int) -> np.ndarray:
    """Read-only rows r of P**gap's cumulative law of symbols 0..r, one
    entry per previous symbol; the next symbol is the number a uniform
    exceeds.  Rows >= 1 throughout never count (u < 1) and are left out."""
    cum = np.cumsum(_transition_power(np.asarray(transition, dtype=float), gap), axis=1)[:, :-1].T
    rows = cum[cum.min(axis=1) < 1.0]
    rows.setflags(write=False)
    return rows


def _markers(spec: PeriodicOverlay, cells: np.ndarray, phases=None, out=None) -> np.ndarray:
    """out * prod(period) plus the row-major marker indices, as one (n, m)
    int64 matrix with one row per cell of the (n, d) array cells and one
    column per phase, folded into out in place by Horner's rule (zeros by
    default, giving the bare indices); phases is an (m, d) array, by
    default all prod(period) phases in row-major order.  Per dimension,
    cell mod p plus phase is below 2p, so it is summed in the smallest
    unsigned dtype holding 2p - 1, where subtracting p wraps above the sum
    unless the sum is >= p: the minimum of the two reduces it mod p, with
    no int64 temporary."""
    if phases is None:
        phases = np.indices(spec.period).reshape(len(spec.period), -1).T
    if out is None:
        out = np.zeros((len(cells), len(phases)), dtype=np.int64)
    for c, p in enumerate(spec.period):
        dt = np.min_scalar_type(2 * p - 1)
        s = (cells[:, c] % p).astype(dt)[:, None] + phases[:, c].astype(dt)
        np.minimum(s, s - p, out=s)
        out *= p
        out += s
    return out


def _marker_symbols(spec: PeriodicOverlay, marks: np.ndarray) -> list:
    """The markers at row-major marker indices: the index itself on the
    line, the tuple of its coordinates in higher dimensions."""
    if len(spec.period) == 1:
        return marks.tolist()
    return list(zip(*(c.tolist() for c in np.unravel_index(marks, spec.period))))


def _check_draw(spec, cells, m: int) -> np.ndarray:
    cs = _check_cells(spec, cells)
    if m < 1:
        raise InputError(f"sample count must be >= 1, got {m}")
    return cs


def sample_many(spec, cells, m: int, seed) -> np.ndarray:
    """Draw m independent configurations; returns (m, len(cells)) symbol
    indices into the variant's alphabet, exact in law."""
    cs = _check_draw(spec, cells, m)
    return np.ascontiguousarray(_draw(spec, cs, m, seed).T, dtype=np.int64)


def sample_codes(spec, cells, m: int, seed) -> np.ndarray:
    """The m draws of sample_many(spec, cells, m, seed), each folded into
    one base-k code (k the alphabet size, the last cell least significant)
    in the smallest unsigned dtype that holds k**len(cells) - 1."""
    cs = _check_draw(spec, cells, m)
    k, n = alphabet_size(spec), len(cs)
    if k**n >= 2**62:
        raise BudgetError(f"cannot encode {n}-cell blocks over {k} symbols exactly")
    dt = np.min_scalar_type(k**n - 1)
    codes = np.zeros(m, dtype=dt)
    # Horner's rule, k only between rows: on one cell k may not fit dt (k = 256)
    for c, row in enumerate(_draw(spec, cs, m, seed)):
        if c:
            codes *= k
        codes += row.astype(dt, copy=False)
    return codes


def symbols_of(spec, indices: np.ndarray) -> list:
    """The symbols at the given alphabet indices.  An overlay's index is
    b * P + m over P phases, decoded without building the whole ``alphabet``."""
    if isinstance(spec, PeriodicOverlay):
        base, mark = np.divmod(np.asarray(indices, dtype=np.int64), math.prod(spec.period))
        return list(zip(symbols_of(spec.base, base), _marker_symbols(spec, mark)))
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
    """Per-cell entropy in bits: H(X_e1 | X_e), e the identity and e1 the
    first unit step, which is the rate of every variant.  Bernoulli cells
    are independent, so it is H(X_e).  A chain is Markov, so X_e screens off
    the rest of the past and it is sum_i pi_i H(P_i).  An overlay's marker
    at one cell fixes the phase, a factor of finite entropy and so of zero
    rate, and adds nothing once X_e is given."""
    e = groups.identity(_group(spec))
    return exact_conditional_entropy(spec, (1, *e[1:]), [e])


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
    base_law = exact_cylinder_law(spec.base, cs)
    # one distinct marker row per phase (the one empty row on no cells),
    # sharing the symbols of one decoding of every marker
    marks = _marker_symbols(spec, np.arange(math.prod(spec.period)))
    rows = list(zip(*([marks[i] for i in row] for row in _markers(spec, cs).tolist())))
    rows = rows or [()]
    mp = 1.0 / len(rows)
    return {tuple(zip(bkey, mkey)): bp * mp for bkey, bp in base_law.items() for mkey in rows}


def exact_conditional_entropy(spec, target, conditioners) -> float:
    """H(symbol at target | symbols on conditioners), exactly, in bits, for
    every variant and any number of conditioner cells.

    A MarkovLine reads only the nearest conditioner below and above the
    target (Markov property); an overlay adds to its base's value the
    marker term H(M_{S+target}) - H(M_S): the phase entropy for an empty S,
    else 0, since the marker at any one cell fixes the phase.
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
    return (exact_conditional_entropy(spec.base, tgt, conds)
            + (0.0 if len(conds) else phase_entropy(spec)))
