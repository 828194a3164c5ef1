import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multiorder import process, tiling
from multiorder.errors import BudgetError, DimensionMismatchError, InputError
from multiorder.groups import GroupSpec
from multiorder.process import Bernoulli, MarkovLine, PeriodicOverlay

LINE = GroupSpec.line()
GRID = GroupSpec.grid(2)

FLIP = ((0.9, 0.1), (0.1, 0.9))
THREE = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))


def flip_chain():
    return MarkovLine(transition=FLIP, alphabet=(0, 1))


def fair_line():
    return Bernoulli(LINE, (0.5, 0.5))


def test_bernoulli_validation():
    with pytest.raises(InputError):
        Bernoulli(LINE, (0.5, 0.6))
    with pytest.raises(InputError):
        Bernoulli(LINE, (1.1, -0.1))
    with pytest.raises(InputError):
        Bernoulli(LINE, (0.5, 0.5), alphabet=("a",))


def test_bernoulli_cube_law_is_uniform():
    spec = Bernoulli(GRID, (0.5, 0.5))
    cells = [(x, y) for x in range(3) for y in range(3)]
    law = process.exact_cylinder_law(spec, cells)
    assert len(law) == 512
    assert all(p == 2.0**-9 for p in law.values())


def test_bernoulli_empirical_frequency():
    spec = fair_line()
    cells = [(i,) for i in range(10**4)]
    idx = process.sample_many(spec, cells, 1, seed=2)[0]
    assert abs(float(np.mean(idx == 0)) - 0.5) < 0.015


def test_markov_joint_law_matches_power_oracle():
    chain = flip_chain()
    pi = chain.initial
    for cells in ([(0,), (5,)], [(-3,), (1,), (2,)]):
        law = process.exact_cylinder_law(chain, sorted(cells))
        want = oracles.markov_joint_law(FLIP, pi, cells)
        assert set(law) == set(want)
        for key, p in want.items():
            assert law[key] == pytest.approx(p, abs=1e-12)


def test_markov_law_in_caller_cell_order():
    chain = flip_chain()
    fwd = process.exact_cylinder_law(chain, [(0,), (5,)])
    rev = process.exact_cylinder_law(chain, [(5,), (0,)])
    for (a, b), p in fwd.items():
        assert rev[(b, a)] == pytest.approx(p, abs=1e-15)


def test_markov_law_translation_invariant():
    chain = flip_chain()
    a = process.exact_cylinder_law(chain, [(0,), (5,)])
    b = process.exact_cylinder_law(chain, [(7,), (12,)])
    assert a == b


def test_markov_empirical_joint_tv():
    chain = flip_chain()
    cells = [(0,), (5,)]
    m = 10**6
    draws = process.sample_many(chain, cells, m, seed=5)
    law = process.exact_cylinder_law(chain, cells)
    tv = 0.0
    for (a, b), p in law.items():
        emp = float(np.mean((draws[:, 0] == a) & (draws[:, 1] == b)))
        tv += abs(emp - p)
    assert tv / 2 < 0.01


def test_markov_marginals_stationary_under_shift():
    chain = flip_chain()
    for cell in [(-2,), (0,), (3,)]:
        law = process.exact_cylinder_law(chain, [cell])
        assert law[(0,)] == pytest.approx(0.5, abs=1e-12)
    m = 10**5
    base = process.sample_many(chain, [(i,) for i in range(-2, 3)], m, seed=9)
    shifted = process.sample_many(chain, [(i + 7,) for i in range(-2, 3)], m, seed=10)
    for col in range(5):
        f0 = float(np.mean(base[:, col] == 0))
        f1 = float(np.mean(shifted[:, col] == 0))
        assert abs(f0 - 0.5) < 0.01 and abs(f1 - 0.5) < 0.01


def test_markov_law_and_draws_exact_at_huge_gaps():
    # The flip chain forgets its state, so cells 2**64 - 1 or 2**52 apart
    # carry independent fair bits; rounding must not compound over the
    # squarings of the transition power, nor the int64 gap wrap.
    chain = flip_chain()
    for cells in ([(2**63 - 1,), (-2**63,)], [(0,), (2**52,)]):
        law = process.exact_cylinder_law(chain, cells)
        assert set(law) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for p in law.values():
            assert p == pytest.approx(0.25, abs=1e-12)
    draws = process.sample_many(chain, [(0,), (2**52,)], 20000, seed=3)
    assert abs(float(np.mean(draws[:, 1] == 0)) - 0.5) < 0.015


def test_markov_validation():
    with pytest.raises(InputError):
        MarkovLine(transition=((0.9, 0.2), (0.1, 0.9)), alphabet=(0, 1))
    with pytest.raises(InputError):
        MarkovLine(transition=((1.0,), (0.0, 1.0)), alphabet=(0, 1))
    for reducible in (((1.0, 0.0), (0.0, 1.0)),
                      ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, 0.5))):
        with pytest.raises(InputError, match="no unique stationary law"):
            MarkovLine(transition=reducible)


@settings(max_examples=80, deadline=None)
@given(
    transition=st.sampled_from([FLIP, THREE]),
    xs=st.lists(st.integers(-40, 40), min_size=1, max_size=9, unique=True),
    m=st.sampled_from([1, 7, 300]),
    seed=st.integers(0, 2**32 - 1),
    period=st.sampled_from([None, 2, 3]),
)
@example(transition=FLIP, xs=[5, -3, 0, 2, 11, 8, -1], m=300, seed=1, period=None)
@example(transition=THREE, xs=[6, 0, 4, 2, 9, -7], m=7, seed=2, period=None)
@example(transition=THREE, xs=[4], m=1, seed=3, period=None)
@example(transition=FLIP, xs=[3, -2, 1, 0, 7], m=300, seed=4, period=2)
def test_markov_sample_many_matches_per_column_reference(transition, xs, m, seed, period):
    chain = MarkovLine(transition=transition)
    cells = [(x,) for x in xs]

    def reference(cs, count, s):
        return oracles.markov_sample_many(chain.matrix, chain.initial,
                                          [c[0] for c in cs], count, s)

    if period is None:
        got, want = process.sample_many(chain, cells, m, seed), reference(cells, m, seed)
    else:
        overlay = PeriodicOverlay(chain, period)
        got = process.sample_many(overlay, cells, m, seed)
        want = oracles.overlay_sample_many(reference, (period,), cells, m, seed)
    assert got.shape == (m, len(cells))
    np.testing.assert_array_equal(got, want)


COORD = st.integers(-2**62, 2**62)


@settings(max_examples=60, deadline=None)
@given(
    cells=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8, unique=True),
    m=st.sampled_from([1, 7, 300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(cells=[(2**62, -2**62), (-2**62, 2**62), (0, 0), (1, -1), (-3, 5)], m=300, seed=1)
def test_grid_overlay_sample_many_matches_reference(cells, m, seed):
    probs = (0.3, 0.7)
    overlay = PeriodicOverlay(Bernoulli(GRID, probs), (2, 3))

    def reference(cs, count, s):
        return oracles.bernoulli_sample_many(probs, count, len(cs), s)

    want = oracles.overlay_sample_many(reference, (2, 3), cells, m, seed)
    np.testing.assert_array_equal(process.sample_many(overlay, cells, m, seed), want)


def test_chain_thresholds_are_cached_read_only_rows():
    chain = MarkovLine(transition=THREE)
    cells = [(0,), (1,), (3,), (7,), (8,)]  # gaps 1, 2, 4, 1
    process._thresholds.cache_clear()
    first = process.sample_many(chain, cells, 50, seed=9)
    assert process._thresholds.cache_info()[:2] == (1, 3)  # hits, misses
    again = process.sample_many(chain, cells, 50, seed=9)
    assert process._thresholds.cache_info()[:2] == (5, 3)
    assert again.tobytes() == first.tobytes()
    rows = process._thresholds(chain.transition, 2)
    assert rows.shape == (2, 3) and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0.5


def normalised(weights) -> tuple:
    w = np.asarray(weights, dtype=float)
    return tuple(w / w.sum())


WEIGHTS = st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any)


@settings(max_examples=120, deadline=None)
@given(
    weights=WEIGHTS,
    m=st.sampled_from([1, 7, 300]),
    n=st.sampled_from([0, 1, 5]),
    d=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=[0, 3, 0, 1, 0], m=300, n=5, d=2, seed=1)
@example(weights=[2], m=7, n=5, d=1, seed=2)
def test_bernoulli_draws_match_generator_choice(weights, m, n, d, seed):
    probs = normalised(weights)
    spec = Bernoulli(LINE if d == 1 else GRID, probs)
    cells = [(i,) * d for i in range(n)]
    got = process.sample_many(spec, cells, m, seed)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, oracles.bernoulli_sample_many(probs, m, n, seed))


@settings(max_examples=120, deadline=None)
@given(weights=WEIGHTS, seed=st.integers(0, 2**32 - 1))
def test_scalar_inverse_cdf_matches_generator_choice(weights, seed):
    probs = np.asarray(normalised(weights))
    u = np.random.default_rng(seed).random()
    want = np.random.default_rng(seed).choice(len(probs), p=probs)
    assert int(process.inverse_cdf(process.choice_cdf(probs), u)) == want


def test_inverse_cdf_never_returns_the_alphabet_size():
    top = 1 - 2**-53  # the largest uniform below 1
    cdf = np.array([0.25, 0.5, 1 - 1e-12])
    assert np.searchsorted(cdf, top, side="right") == 3
    assert int(process.inverse_cdf(cdf, top)) == 2
    assert process.inverse_cdf(cdf, np.full((2, 3), top)).tolist() == [[2] * 3] * 2


def test_markov_draws_stay_in_the_alphabet_when_cdfs_end_below_one(monkeypatch):
    short = 5e-13
    chain = MarkovLine(transition=((0.9, 0.1 - short), (0.1, 0.9 - short)))

    class Top:
        """Every uniform at the largest double below 1."""

        def random(self, shape):
            return np.full(shape, 1 - 2**-53)

    monkeypatch.setattr(process, "make_rng", lambda seed: Top())
    cells = [(0,), (1,), (3,), (7,)]
    assert process.sample_many(chain, cells, 3, seed=0).tolist() == [[1] * 4] * 3
    assert process.sample_codes(chain, cells, 3, seed=0).tolist() == [15] * 3


def test_sample_codes_budget():
    with pytest.raises(BudgetError):
        process.sample_codes(fair_line(), [(i,) for i in range(62)], 1, seed=0)


@pytest.mark.parametrize("variant", ["bernoulli", "markov"])
@pytest.mark.parametrize("alphabet", [[[0], [1]], ({}, "b"), ("a", "a"), ("a",), 5])
def test_alphabet_must_be_distinct_hashable_symbols(variant, alphabet):
    with pytest.raises(InputError, match="alphabet must be 2 distinct hashable symbols"):
        if variant == "bernoulli":
            Bernoulli(LINE, (0.5, 0.5), alphabet=alphabet)
        else:
            MarkovLine(transition=FLIP, alphabet=alphabet)


@pytest.mark.parametrize("which", ["bernoulli", "markov", "overlay"])
def test_draws_on_no_cells(which):
    spec = {
        "bernoulli": fair_line(),
        "markov": flip_chain(),
        "overlay": PeriodicOverlay(base=fair_line(), period=(3,)),
    }[which]
    got = process.sample_many(spec, np.zeros((0, 1), dtype=np.int64), 5, seed=1)
    assert got.shape == (5, 0) and got.dtype == np.int64
    assert process.sample_codes(spec, [], 5, seed=1).tolist() == [0] * 5


@pytest.mark.parametrize("m", [1, 64])
@pytest.mark.parametrize("name,period",
                         [("dyadic_standard", (4,)), ("dyadic_standard", (200,)),
                          ("hilbert", (2, 3))],
                         ids=["line_period_4", "line_period_200", "grid_period_2x3"])
def test_wide_overlay_draw_matches_per_cell_reference(name, period, m):
    spec = tiling.builtin(name)
    w = tiling.expand(tiling.sample_address(spec, {1: 12, 2: 6}[spec.group.d], 5))
    assert len(w) == 4096
    probs = (0.3, 0.7)
    overlay = PeriodicOverlay(Bernoulli(spec.group, probs), period)

    def reference(cs, count, s):
        return oracles.bernoulli_sample_many(probs, count, len(cs), s)

    want = oracles.overlay_sample_per_cell(reference, period, w.array.tolist(), m, 17)
    np.testing.assert_array_equal(process.sample_many(overlay, w.array, m, 17), want)


def test_nested_overlay_sample_many_matches_reference():
    overlay = OVERLAYS["nested"]
    cells = [(x,) for x in (5, -2, 0, 11, 7)]

    def bernoulli(cs, count, s):
        return oracles.bernoulli_sample_many((0.5, 0.5), count, len(cs), s)

    def inner(cs, count, s):
        return oracles.overlay_sample_many(bernoulli, (3,), cs, count, s)

    for m, seed in ((1, 0), (300, 12)):
        want = oracles.overlay_sample_many(inner, (4,), cells, m, seed)
        np.testing.assert_array_equal(process.sample_many(overlay, cells, m, seed), want)


def test_stationary_distribution_solver():
    P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    pi = process.stationary_distribution(P)
    assert np.allclose(pi @ P, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    # one closed class after transient states: still unique
    absorbing = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    assert process.stationary_distribution(absorbing).tolist() == [0.0, 0.0, 1.0]


def test_exact_entropy_rates():
    assert process.exact_entropy_rate(flip_chain()) == pytest.approx(
        oracles.binary_entropy(0.1), abs=1e-12
    )
    assert process.exact_entropy_rate(flip_chain()) == pytest.approx(
        0.4689955936, abs=1e-9
    )
    b = Bernoulli(LINE, (0.25, 0.75))
    assert process.exact_entropy_rate(b) == pytest.approx(
        oracles.entropy_bits([0.25, 0.75]), abs=1e-12
    )
    overlay = PeriodicOverlay(base=b, period=(2,))
    assert process.exact_entropy_rate(overlay) == process.exact_entropy_rate(b)
    assert process.exact_entropy_rate(MarkovLine(transition=THREE)) == pytest.approx(
        oracles.markov_rate(THREE), abs=1e-12
    )
    grid = Bernoulli(GRID, (0.2, 0.3, 0.5))
    assert process.exact_entropy_rate(grid) == pytest.approx(
        oracles.entropy_bits([0.2, 0.3, 0.5]), abs=1e-12
    )
    innermost = {"line": oracles.markov_rate(THREE), "grid": oracles.entropy_bits([0.2, 0.3, 0.5]),
                 "nested": oracles.entropy_bits([0.5, 0.5])}
    for name, overlay in OVERLAYS.items():
        assert process.exact_entropy_rate(overlay) == pytest.approx(innermost[name], abs=1e-12)
    with pytest.raises(InputError, match="unknown process variant"):
        process.exact_entropy_rate(object())
    with pytest.raises(InputError, match="unknown process variant"):
        process.exact_conditional_entropy(object(), 0, [])


def test_exact_conditional_entropy_flip_chain():
    chain = flip_chain()
    rate = oracles.binary_entropy(0.1)
    assert process.exact_conditional_entropy(chain, (0,), [(-1,)]) == pytest.approx(
        rate, abs=1e-12
    )
    q3 = oracles.flip_chain_power_offdiag(0.1, 3)
    assert q3 == pytest.approx(0.244, abs=1e-12)
    got = process.exact_conditional_entropy(chain, (0,), [(-3,)])
    assert got == pytest.approx(oracles.binary_entropy(q3), abs=1e-12)
    assert got == pytest.approx(0.8016291, abs=1e-6)
    # conditioning beyond the nearest cell changes nothing for a chain
    both = process.exact_conditional_entropy(chain, (0,), [(-1,), (-2,)])
    assert both == pytest.approx(rate, abs=1e-12)
    h0 = process.exact_conditional_entropy(chain, (0,), [])
    assert h0 == pytest.approx(1.0, abs=1e-12)
    assert h0 >= got >= rate
    assert process.exact_conditional_entropy(chain, (0,), [(0,), (-1,)]) == 0.0


def test_conditional_entropy_reads_the_nearest_conditioner_at_any_depth():
    chain = flip_chain()
    nearest = process.exact_conditional_entropy(chain, (0,), [(-1,)])
    assert nearest == pytest.approx(oracles.binary_entropy(0.1), abs=1e-12)
    for depth in (13, 200):
        past = [(-i,) for i in range(1, depth + 1)]
        assert process.exact_conditional_entropy(chain, (0,), past) == nearest


def test_overlay_conditional_entropy_adds_no_marker_term_once_the_phase_is_known():
    chain = flip_chain()
    overlay = PeriodicOverlay(base=chain, period=(3,))
    for past in ([(-1,), (-2,)], [(-3,)], [(-i,) for i in range(1, 14)]):
        got = process.exact_conditional_entropy(overlay, (0,), past)
        assert got == pytest.approx(
            process.exact_conditional_entropy(chain, (0,), past), abs=1e-15)
    # with no conditioner the marker adds the whole phase entropy
    assert process.exact_conditional_entropy(overlay, (0,), []) == pytest.approx(
        1.0 + math.log2(3), abs=1e-12)


OVERLAY_CASES = [(period, base) for period in [(1,), (2,), (3,), (12,)]
                 for base in ("fair_line", "three_chain")]
OVERLAY_CASES += [(period, "grid") for period in [(2, 3), (4, 4)]]


@pytest.mark.parametrize("period, base", OVERLAY_CASES)
def test_overlay_conditional_entropy_matches_the_phase_enumeration(period, base):
    base = {"fair_line": fair_line(), "three_chain": MarkovLine(transition=THREE),
            "grid": Bernoulli(GRID, (0.3, 0.7))}[base]
    overlay = PeriodicOverlay(base=base, period=period)
    rng = np.random.default_rng(sum(period))
    d = len(period)
    for n in range(5):
        for among in (False, True):
            if among and not n:
                continue
            rows = np.unique(rng.integers(-9, 10, size=(n, d)), axis=0)
            cells = [tuple(row) for row in rows.tolist()]
            target = cells[-1] if among else tuple(rng.integers(20, 30, size=d).tolist())
            base_value = process.exact_conditional_entropy(base, target, cells)
            got = process.exact_conditional_entropy(overlay, target, cells)
            want = base_value + oracles.overlay_marker_term(period, target, cells)
            assert got == pytest.approx(want, abs=1e-12)
            if cells:
                assert got == base_value


def test_overlay_at_the_phase_budget_builds_no_phase_table():
    base = Bernoulli(GRID, (0.3, 0.7))
    overlay = PeriodicOverlay(base=base, period=(2048, 2048))
    assert repr(overlay) == f"PeriodicOverlay(base={base!r}, period=(2048, 2048))"
    base_value = process.exact_conditional_entropy(base, (5, 5), [])
    assert process.exact_conditional_entropy(overlay, (5, 5), [(0, 0), (-3, 7)]) == base_value
    assert process.exact_conditional_entropy(overlay, (5, 5), []) == base_value + 22.0


def test_grid_overlay_alphabet_and_symbols_are_marker_coordinates():
    overlay = PeriodicOverlay(base=Bernoulli(GRID, (0.5, 0.5)), period=(2, 3))
    assert overlay.alphabet == (
        (0, (0, 0)), (0, (0, 1)), (0, (0, 2)), (0, (1, 0)), (0, (1, 1)), (0, (1, 2)),
        (1, (0, 0)), (1, (0, 1)), (1, (0, 2)), (1, (1, 0)), (1, (1, 1)), (1, (1, 2)),
    )
    got = process.symbols_of(overlay, np.array([0, 5, 7, 11]))
    assert got == [(0, (0, 0)), (0, (1, 2)), (1, (0, 1)), (1, (1, 2))]
    assert all(type(x) is int for _, marker in got for x in marker)


def _law_entropy(spec, cells) -> float:
    law = process.exact_cylinder_law(spec, cells).values()
    return math.fsum(-p * math.log2(p) for p in law)


CONDITIONAL_PROCESSES = {
    "bernoulli_line": Bernoulli(LINE, (0.2, 0.0, 0.8)),
    "bernoulli_grid": Bernoulli(GRID, (0.3, 0.7)),
    "flip_chain": flip_chain(),
    "three_chain": MarkovLine(transition=THREE, alphabet=("a", "b", "c")),
    "overlay_chain": PeriodicOverlay(base=MarkovLine(transition=THREE), period=(3,)),
    "overlay_grid": PeriodicOverlay(base=Bernoulli(GRID, (0.3, 0.7)), period=(2, 3)),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(CONDITIONAL_PROCESSES)),
    data=st.data(),
)
def test_conditional_entropy_matches_the_difference_of_law_entropies(name, data):
    spec = CONDITIONAL_PROCESSES[name]
    coord = st.integers(-6, 6)
    cell = st.tuples(*[coord] * spec.group.d)
    cells = data.draw(st.lists(cell, min_size=0, max_size=8, unique=True), label="S")
    target = data.draw(st.sampled_from(cells) | cell if cells else cell, label="target")
    got = process.exact_conditional_entropy(spec, target, cells)
    joint = cells + [target] * (target not in cells)
    want = _law_entropy(spec, joint) - _law_entropy(spec, cells)
    assert got == pytest.approx(want, abs=1e-12)


def test_cylinder_law_budget():
    spec = fair_line()
    cells = [(i,) for i in range(23)]
    with pytest.raises(BudgetError):
        process.exact_cylinder_law(spec, cells)


def test_overlay_alphabet_and_single_cell_law():
    overlay = PeriodicOverlay(base=fair_line(), period=(2,))
    assert overlay.alphabet == ((0, 0), (0, 1), (1, 0), (1, 1))
    law = process.exact_cylinder_law(overlay, [(0,)])
    assert len(law) == 4
    for p in law.values():
        assert p == pytest.approx(0.25, abs=1e-12)
    assert process.phase_entropy(overlay) == pytest.approx(1.0, abs=1e-12)
    grid_overlay = PeriodicOverlay(base=Bernoulli(GRID, (0.5, 0.5)), period=(2, 3))
    assert process.phase_entropy(grid_overlay) == pytest.approx(
        math.log2(6), abs=1e-12
    )


def test_overlay_marker_moves_with_the_cell():
    overlay = PeriodicOverlay(base=fair_line(), period=(2,))
    cells = [(0,), (1,), (5,)]
    idx = process.sample_many(overlay, cells, 400, seed=12)
    marker = idx % 2
    assert np.all((marker[:, 1] - marker[:, 0]) % 2 == 1)
    assert np.all((marker[:, 2] - marker[:, 0]) % 2 == 1)
    phase_freq = float(np.mean(marker[:, 0] == 0))
    assert abs(phase_freq - 0.5) < 0.1
    law = process.exact_cylinder_law(overlay, cells)
    for key, p in law.items():
        markers = [m for _, m in key]
        assert (markers[1] - markers[0]) % 2 == 1


@pytest.mark.parametrize("base", ["bernoulli", "markov"])
def test_overlay_marker_is_exact_at_the_top_of_int64(base):
    overlay = PeriodicOverlay(base={"bernoulli": fair_line(), "markov": flip_chain()}[base],
                              period=(3,))
    top = 2**63 - 1
    cells = [(top,), (top - 1,), (top - 3,)]
    marker = process.sample_many(overlay, cells, 200, seed=4) % 3
    # adding the phase to top must not wrap int64
    assert np.all((marker[:, 0] - marker[:, 1]) % 3 == 1)
    assert np.all(marker[:, 0] == marker[:, 2])
    for key in process.exact_cylinder_law(overlay, cells):
        assert (key[0][1] - key[1][1]) % 3 == 1 and key[0][1] == key[2][1]


OVERLAYS = {
    "line": PeriodicOverlay(base=MarkovLine(THREE, alphabet=("a", "b", "c")), period=(5,)),
    "grid": PeriodicOverlay(base=Bernoulli(GRID, (0.2, 0.3, 0.5)), period=(2, 3)),
    "nested": PeriodicOverlay(base=PeriodicOverlay(base=fair_line(), period=(3,)), period=(4,)),
}


@pytest.mark.parametrize("name", sorted(OVERLAYS))
def test_overlay_symbols_of_matches_alphabet(name, monkeypatch):
    overlay = OVERLAYS[name]
    alphabet = overlay.alphabet
    idx = np.random.default_rng(9).integers(0, len(alphabet), size=40)
    want = [alphabet[i] for i in idx.tolist()]
    assert process.symbols_of(overlay, idx) == want
    assert process.symbols_of(overlay, idx[:0]) == []

    def whole_alphabet(self):
        raise AssertionError("symbols_of built the whole overlay alphabet")

    monkeypatch.setattr(PeriodicOverlay, "alphabet", property(whole_alphabet))
    assert process.symbols_of(overlay, idx) == want


def test_overlay_validation():
    with pytest.raises(DimensionMismatchError):
        PeriodicOverlay(base=fair_line(), period=(2, 2))
    base = {"variant": "bernoulli", "probs": [0.5, 0.5]}
    for period in ([2.7], [True]):
        with pytest.raises(InputError, match="period entry must be an int"):
            process.from_json({"variant": "periodic_overlay", "base": base, "period": period})


@pytest.mark.parametrize("which", ["bernoulli", "markov", "overlay"])
def test_sampling_deterministic_per_seed(which):
    spec = {
        "bernoulli": fair_line(),
        "markov": flip_chain(),
        "overlay": PeriodicOverlay(base=fair_line(), period=(2,)),
    }[which]
    cells = [(i,) for i in range(-3, 4)]
    a = process.sample_many(spec, cells, 50, seed=33)
    b = process.sample_many(spec, cells, 50, seed=33)
    c = process.sample_many(spec, cells, 50, seed=34)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("which", ["bernoulli", "markov", "overlay", "overlay_grid"])
def test_sample_many_same_for_tuple_and_array_cells(which):
    spec = {
        "bernoulli": fair_line(),
        "markov": flip_chain(),
        "overlay": PeriodicOverlay(base=fair_line(), period=(3,)),
        "overlay_grid": PeriodicOverlay(base=Bernoulli(GRID, (0.3, 0.7)), period=(2, 3)),
    }[which]
    rng = np.random.default_rng(41)
    d = spec.group.d
    arr = rng.choice(60, size=9, replace=False).reshape(9, 1) - 30
    if d == 2:
        arr = np.concatenate([arr, rng.integers(-5, 5, size=(9, 1))], axis=1)
    arr = arr.astype(np.int64)
    tuples = [tuple(int(x) for x in row) for row in arr]
    got = process.sample_many(spec, arr, 40, seed=8)
    assert np.array_equal(got, process.sample_many(spec, tuples, 40, seed=8))
    assert process.sample(spec, arr, seed=3) == process.sample(spec, tuples, seed=3)
    with pytest.raises(InputError):
        process.sample_many(spec, np.concatenate([arr, arr[:1]]), 4, seed=8)


def test_exact_conditional_entropy_target_among_conditioners():
    chain = flip_chain()
    assert process.exact_conditional_entropy(chain, (1,), [(0,), (1,)]) == 0.0
    assert process.exact_conditional_entropy(fair_line(), (1,), [(1,)]) == 0.0
    # a conditioner sharing no full row with the target does not count
    grid = Bernoulli(GRID, (0.5, 0.5))
    assert process.exact_conditional_entropy(grid, (1, 2), [(1, 0), (0, 2)]) == 1.0


def test_sample_configuration():
    chain = flip_chain()
    cells = [(2,), (0,), (-1,)]
    cfg = process.sample(chain, cells, seed=6)
    assert cfg.cells == tuple(cells)
    assert len(cfg.symbols) == 3
    assert cfg[(0,)] == cfg.symbols[1]
    assert cfg.as_dict() == dict(zip(cfg.cells, cfg.symbols))
    with pytest.raises(InputError):
        process.sample(chain, [(0,), (0,)], seed=1)


def test_process_json_round_trip():
    specs = [
        Bernoulli(GRID, (0.25, 0.75), alphabet=("a", "b")),
        flip_chain(),
        PeriodicOverlay(base=fair_line(), period=(2,)),
    ]
    for spec in specs:
        back = process.from_json(spec.to_json())
        assert back == spec
    with pytest.raises(InputError):
        process.from_json({"variant": "poisson"})
