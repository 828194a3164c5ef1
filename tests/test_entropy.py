import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multiorder import cli, entropy, orders, process, tiling, util
from multiorder.entropy import Frame, make_frame, successor_step
from multiorder.errors import (
    ConsistencyError,
    DimensionMismatchError,
    InputError,
    OutOfWindowError,
)
from multiorder.groups import GroupSpec
from multiorder.orders import OrderWindow
from multiorder.process import Bernoulli, MarkovLine, PeriodicOverlay

LINE = GroupSpec.line()
GRID = GroupSpec.grid(2)
FLIP = ((0.9, 0.1), (0.1, 0.9))
RATE = oracles.binary_entropy(0.1)


def flip_chain():
    return MarkovLine(transition=FLIP, alphabet=(0, 1))


def natural_window(lo, hi):
    return OrderWindow(LINE, lo, hi, [(i,) for i in range(lo, hi + 1)])


def alternating_order(level, seed, need_past=0, need_future=0):
    spec = tiling.builtin("dyadic_alternating")
    addr, _ = tiling.sample_straight_address(
        spec, level, seed, need_past=need_past, need_future=need_future
    )
    return tiling.expand(addr)


def test_plugin_entropy_small_counts():
    expected = 2.0 - 0.75 * math.log2(3.0)
    assert entropy.plugin_entropy({"a": 3, "b": 1}) == pytest.approx(
        expected, abs=1e-12
    )
    assert entropy.plugin_entropy([3, 1]) == pytest.approx(expected, abs=1e-12)
    corrected = entropy.plugin_entropy({"a": 3, "b": 1}, bias="miller_madow")
    assert corrected - expected == pytest.approx(1.0 / (8.0 * math.log(2)), abs=1e-12)
    assert entropy.plugin_entropy({"a": 4, "b": 0}) == 0.0
    with pytest.raises(InputError):
        entropy.plugin_entropy({"a": 1}, bias="jackknife")


def test_block_entropy_fair_coin():
    proc = Bernoulli(LINE, (0.5, 0.5))
    rep = entropy.block_entropy_along_order(
        proc, natural_window(-2, 8), 4, 20000, seed=3, bias="miller_madow"
    )
    assert rep.estimate == pytest.approx(1.0, abs=0.01)
    assert not rep.undersampled
    assert rep.truncation == 4 and rep.samples == 20000


def test_block_entropy_flip_chain_closed_form():
    rep = entropy.block_entropy_along_order(
        flip_chain(), natural_window(-2, 12), 9, 10**5, seed=11, bias="miller_madow"
    )
    expected = (1.0 + 9.0 * RATE) / 10.0
    assert rep.estimate == pytest.approx(expected, abs=0.02)
    assert rep.stderr < 0.01


def test_block_entropy_matches_exact_law_on_sampled_order():
    w = alternating_order(7, seed=21, need_future=8)
    chain = flip_chain()
    cells = orders.interval(w, 0, 6)
    law = process.exact_cylinder_law(chain, cells)
    exact = entropy.plugin_entropy(law) / 7.0
    rep = entropy.block_entropy_along_order(
        chain, w, 6, 10**5, seed=2, bias="miller_madow"
    )
    assert rep.estimate == pytest.approx(exact, abs=0.01)


def test_cond_entropy_depth_zero_is_marginal():
    proc = Bernoulli(LINE, (0.25, 0.75))
    rep = entropy.cond_entropy_along_order(
        proc, natural_window(-2, 2), 0, 40000, seed=7, bias="miller_madow"
    )
    assert rep.estimate == pytest.approx(oracles.entropy_bits([0.25, 0.75]), abs=0.01)


def test_cond_entropy_nearest_predecessor():
    rep = entropy.cond_entropy_along_order(
        flip_chain(), natural_window(-4, 4), 1, 10**5, seed=19, bias="miller_madow"
    )
    assert rep.estimate == pytest.approx(RATE, abs=0.01)


def test_cond_entropy_matches_exact_on_sampled_order():
    w = alternating_order(8, seed=5, need_past=4)
    chain = flip_chain()
    cells = orders.interval(w, -4, -1)
    exact = process.exact_conditional_entropy(chain, (0,), cells)
    rep = entropy.cond_entropy_along_order(
        chain, w, 4, 10**5, seed=23, bias="miller_madow"
    )
    assert rep.estimate == pytest.approx(exact, abs=0.01)


def test_undersampling_flag():
    chain = flip_chain()
    w = natural_window(-8, 2)
    assert entropy.cond_entropy_along_order(chain, w, 6, 100, seed=1).undersampled
    assert not entropy.cond_entropy_along_order(chain, w, 1, 10000, seed=1).undersampled


def test_mc_integral_standard_order_hits_rate():
    spec = tiling.builtin("dyadic_standard")
    rep = entropy.mc_integral(
        flip_chain(), spec, j=2, n_orders=6, m=30000, level=8, seed=41,
        bias="miller_madow",
    )
    assert rep.estimate == pytest.approx(RATE, abs=0.01)
    assert rep.orders == 6 and rep.truncation == 2
    assert rep.stderr < 0.005


def test_mc_integral_iid_square():
    spec = tiling.builtin("hilbert")
    rep = entropy.mc_integral(
        Bernoulli(GRID, (0.5, 0.5)), spec, j=2, n_orders=8, m=4000, level=4,
        seed=13, bias="miller_madow",
    )
    assert rep.estimate == pytest.approx(1.0, abs=0.02)


def test_mc_integral_depth_monotone_within_noise():
    spec = tiling.builtin("dyadic_alternating")
    chain = flip_chain()
    shallow = entropy.mc_integral(
        chain, spec, j=1, n_orders=10, m=20000, level=8, seed=3, bias="miller_madow"
    )
    deep = entropy.mc_integral(
        chain, spec, j=6, n_orders=10, m=20000, level=8, seed=3, bias="miller_madow"
    )
    assert deep.estimate <= shallow.estimate + 3 * (deep.stderr + shallow.stderr)
    assert deep.estimate >= RATE - 0.02


def test_mc_integral_deterministic_and_thread_invariant():
    spec = tiling.builtin("dyadic_alternating")
    chain = flip_chain()
    kwargs = dict(j=3, n_orders=5, m=4000, level=8, seed=77, bias="plugin")
    a = entropy.mc_integral(chain, spec, **kwargs)
    b = entropy.mc_integral(chain, spec, **kwargs)
    c = entropy.mc_integral(chain, spec, threads=2, **kwargs)
    assert a == b == c
    assert a.resamples >= 0


def test_mc_integral_input_errors():
    spec = tiling.builtin("dyadic_standard")
    with pytest.raises(InputError):
        entropy.mc_integral(flip_chain(), spec, j=-1, n_orders=2, m=10, level=4, seed=0)
    with pytest.raises(InputError):
        entropy.mc_integral(flip_chain(), spec, j=1, n_orders=0, m=10, level=4, seed=0)
    with pytest.raises(DimensionMismatchError):
        entropy.mc_integral(
            Bernoulli(GRID, (0.5, 0.5)), spec, j=1, n_orders=2, m=10, level=4, seed=0
        )


def test_successor_consistency_rejects_no_orders():
    spec = tiling.builtin("dyadic_alternating")
    for n_orders in (0, -1):
        with pytest.raises(InputError):
            entropy.successor_consistency(flip_chain(), spec, j=2, n_orders=n_orders,
                                          m=10, level=4, seed=0)


def test_successor_step_moves_anchor():
    chain = flip_chain()
    w = natural_window(-3, 3)
    frame = make_frame(chain, w, seed=9)
    stepped = successor_step(frame, 2)
    assert (stepped.window.lo, stepped.window.hi) == (-5, 1)
    assert stepped.config[(0,)] == frame.config[(2,)]
    assert stepped.config.symbols == frame.config.symbols
    # stepping is additive and invertible
    spec = tiling.builtin("hilbert")
    addr, _ = tiling.sample_straight_address(spec, 3, seed=2, need_past=5, need_future=5)
    hframe = make_frame(Bernoulli(GRID, (0.5, 0.5)), tiling.expand(addr), seed=4)
    assert successor_step(successor_step(hframe, 2), 1) == successor_step(hframe, 3)
    assert successor_step(successor_step(hframe, 3), -3) == hframe


def test_frame_validation():
    w = natural_window(-1, 1)
    frame = Frame(w, (0, 1, 1))
    assert frame.config.cells == ((-1,), (0,), (1,))
    assert frame.config[(1,)] == 1
    for symbols in [(0, 1), (0, 1, 1, 0), ()]:
        with pytest.raises(InputError):
            Frame(w, symbols)



def test_successor_step_rejects_positions_outside_window():
    frame = make_frame(flip_chain(), natural_window(-3, 3), seed=9)
    for k in (-4, 4):
        with pytest.raises(OutOfWindowError):
            successor_step(frame, k)


def test_successor_step_builds_no_index():
    # A 65 536-cell Hilbert window and a 1024-cell dyadic one: four unit
    # steps back equal one act by cell(-4), with the symbols kept in order.
    spec = tiling.builtin("hilbert")
    addr, _ = tiling.sample_straight_address(spec, 8, seed=3, need_past=4)
    windows = [tiling.expand(addr), alternating_order(10, seed=3, need_past=4)]
    procs = [Bernoulli(GRID, (0.5, 0.5)), flip_chain()]
    for w, proc in zip(windows, procs):
        start = make_frame(proc, w, seed=1)
        frame = start
        for _ in range(4):
            frame = successor_step(frame, -1)
        assert frame.window == orders.act(w, w.cell(-4))
        assert frame.symbols == start.symbols


def test_successor_step_equals_act_by_cell():
    spec = tiling.builtin("hilbert")
    addr, _ = tiling.sample_straight_address(spec, 5, seed=8, need_past=5, need_future=5)
    w = tiling.expand(addr)
    frame = make_frame(Bernoulli(GRID, (0.3, 0.7)), w, seed=2)
    rng = np.random.default_rng(17)
    for k in rng.integers(w.lo, w.hi + 1, size=12):
        k = int(k)
        moved = orders.act(w, w.cell(k))
        expected = process.Configuration(tuple(orders.interval(moved, moved.lo, moved.hi)),
                                         frame.config.symbols)
        stepped = successor_step(frame, k)
        assert stepped.window == moved
        assert stepped.config == expected


def assert_run_matches_golden(golden, tmp_path, monkeypatch):
    """Run golden/config.json at one and two threads; every output file must
    equal the golden copy byte for byte."""
    (tmp_path / "config.json").write_bytes((golden / "config.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    expected = sorted(p.name for p in golden.iterdir() if p.name != "config.json")
    for threads in ("1", "2"):
        assert cli.main(["entropy", "run", "--config", "config.json",
                         "--threads", threads]) == 0
        produced = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert produced == expected
        for name in produced:
            assert (tmp_path / "out" / name).read_bytes() == (golden / name).read_bytes(), name


def test_successor_report_matches_golden(tmp_path, data_dir, monkeypatch):
    assert_run_matches_golden(data_dir / "successor_golden", tmp_path, monkeypatch)


def test_every_estimator_kind_matches_golden(tmp_path, data_dir, monkeypatch):
    # mc_integral at 5 orders and at 1, remote_past_mi on the overlay,
    # successor_consistency on Hilbert, block_entropy and cond_entropy.
    golden = data_dir / "estimators_golden"
    assert_run_matches_golden(golden, tmp_path, monkeypatch)
    kinds = [line.split(",")[1] for line in
             (golden / "aggregate.csv").read_text().splitlines()[1:]]
    assert sorted(set(kinds)) == ["block_entropy", "cond_entropy", "mc_integral",
                                  "remote_past_mi", "successor_consistency"]
    assert kinds.count("mc_integral") == 2


def test_successor_consistency_routes_agree():
    rep = entropy.successor_consistency(
        flip_chain(), tiling.builtin("dyadic_alternating"), j=5, n_orders=4,
        m=2000, level=8, seed=55, bias="miller_madow",
    )
    assert rep.identical_cells and rep.bit_identical_estimates
    assert rep.estimate_direct == rep.estimate_stepped
    assert rep.orders == 4 and rep.truncation == 5
    again = entropy.successor_consistency(
        flip_chain(), tiling.builtin("dyadic_alternating"), j=5, n_orders=4,
        m=2000, level=8, seed=55, bias="miller_madow",
    )
    assert again == rep


def test_successor_consistency_thread_invariant():
    kwargs = dict(j=4, n_orders=5, m=1000, level=8, seed=56, bias="miller_madow")
    spec = tiling.builtin("dyadic_alternating")
    one = entropy.successor_consistency(flip_chain(), spec, threads=1, **kwargs)
    two = entropy.successor_consistency(flip_chain(), spec, threads=2, **kwargs)
    assert one == two
    assert one == entropy.successor_consistency(flip_chain(), spec, **kwargs)


@pytest.mark.parametrize("threads", [1, 2])
def test_successor_consistency_detects_tampering(monkeypatch, threads):
    # The direct route reads the conditioners and the anchor as window rows -3..0.
    real = orders.OrderWindow.rows

    def garbled(w, a, b):
        out = real(w, a, b)
        if len(out) == 4:
            out = out[[1, 0, 2, 3]]
        return out

    monkeypatch.setattr(orders.OrderWindow, "rows", garbled)
    # Both orders fail; the first in order index is reported at any thread count.
    with pytest.raises(ConsistencyError) as err:
        entropy.successor_consistency(
            flip_chain(), tiling.builtin("dyadic_alternating"), j=3, n_orders=2,
            m=100, level=6, seed=7, threads=threads,
        )
    assert str(err.value) == ("order 0: conditioner cells differ at position -3: "
                              "direct (-2,) vs stepped (-13,)")


def test_shearer_exact_partition_is_tight():
    proc = Bernoulli(LINE, (0.25, 0.75))
    cells = [(0,), (1,)]
    law = process.exact_cylinder_law(proc, cells)
    res = entropy.shearer_check(law, cells, [[(0,)], [(1,)]], k=1)
    assert res.holds
    assert res.slack == pytest.approx(0.0, abs=1e-12)


def test_shearer_exact_chain_slack():
    chain = flip_chain()
    cells = [(0,), (1,)]
    law = process.exact_cylinder_law(chain, cells)
    res = entropy.shearer_check(law, cells, [[(0,)], [(1,)]], k=1)
    assert res.holds
    assert res.slack == pytest.approx(1.0 - RATE, abs=1e-9)
    cells3 = [(0,), (1,), (2,)]
    law3 = process.exact_cylinder_law(chain, cells3)
    cover = [[(0,), (1,)], [(1,), (2,)], [(0,), (2,)]]
    res3 = entropy.shearer_check(law3, cells3, cover, k=2)
    assert res3.holds and res3.slack > 0.3
    assert res3.lhs == pytest.approx(1.0 + 2.0 * RATE, abs=1e-9)


def test_shearer_empirical_counts():
    chain = flip_chain()
    cells = [(0,), (1,), (2,), (3,)]
    idx = process.sample_many(chain, cells, 20000, seed=3)
    counts: dict = {}
    for row in idx:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    cover = [[(0,), (1,)], [(2,), (3,)]]
    res = entropy.shearer_check(counts, cells, cover, k=1, margin=0.02)
    assert res.holds


def test_shearer_validation():
    law = {(0, 0): 0.5, (1, 1): 0.5}
    cells = [(0,), (1,)]
    with pytest.raises(InputError):
        entropy.shearer_check(law, cells, [[(0,)]], k=1)  # cell (1,) uncovered
    with pytest.raises(InputError):
        entropy.shearer_check(law, cells, [[(0,)], [(1,)]], k=2)
    with pytest.raises(InputError):
        entropy.shearer_check(law, cells, [[(5,)], [(1,)]], k=1)
    with pytest.raises(InputError):
        entropy.shearer_check({(0,): 1.0}, cells, [[(0,)], [(1,)]], k=1)


def test_remote_past_mi_iid_is_small():
    spec = tiling.builtin("dyadic_standard")
    proc = Bernoulli(LINE, (0.5, 0.5))
    rep = entropy.remote_past_mi(
        spec=spec, proc=proc, gap=2, j=3, n_orders=6, m=5000, level=8, seed=17,
        bias="miller_madow",
    )
    assert abs(rep.estimate) < 0.02
    plain = entropy.remote_past_mi(
        spec=spec, proc=proc, gap=2, j=3, n_orders=6, m=5000, level=8, seed=17,
        bias="plugin",
    )
    assert plain.estimate > -0.005  # plug-in MI bias is positive


def test_remote_past_mi_overlay_recovers_phase():
    overlay = PeriodicOverlay(base=Bernoulli(LINE, (0.5, 0.5)), period=(2,))
    rep = entropy.remote_past_mi(
        spec=tiling.builtin("dyadic_alternating"), proc=overlay, gap=3, j=6,
        n_orders=6, m=30000, level=8, seed=29, bias="miller_madow",
    )
    assert rep.estimate == pytest.approx(
        process.phase_entropy(overlay), abs=0.05
    )


def test_remote_past_mi_decays_with_gap():
    spec = tiling.builtin("dyadic_standard")
    chain = flip_chain()
    near = entropy.remote_past_mi(
        spec=spec, proc=chain, gap=1, j=2, n_orders=4, m=20000, level=8, seed=31,
        bias="miller_madow",
    )
    far = entropy.remote_past_mi(
        spec=spec, proc=chain, gap=10, j=2, n_orders=4, m=20000, level=8, seed=31,
        bias="miller_madow",
    )
    assert far.estimate < near.estimate
    assert abs(far.estimate) < 0.01


def test_remote_past_threads_do_not_change_reports():
    overlay = PeriodicOverlay(base=Bernoulli(LINE, (0.5, 0.5)), period=(2,))
    kwargs = dict(
        spec=tiling.builtin("dyadic_alternating"), proc=overlay, gap=2, j=3,
        n_orders=4, m=2000, level=7, seed=3, bias="plugin",
    )
    assert entropy.remote_past_mi(**kwargs) == entropy.remote_past_mi(
        threads=3, **kwargs
    )


def test_report_serialization():
    rep = entropy.cond_entropy_along_order(
        flip_chain(), natural_window(-2, 2), 1, 1000, seed=0
    )
    blob = rep.to_json()
    assert blob["bias_mode"] == "plugin"
    assert set(blob) == {
        "estimate", "stderr", "samples", "orders", "truncation", "bias_mode",
        "undersampled", "gap", "resamples",
    }


THREE = ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.25, 0.25, 0.5))
COUNT_PROCESSES = {
    "flip": flip_chain,
    "three_state": lambda: MarkovLine(transition=THREE),
    "overlay": lambda: PeriodicOverlay(flip_chain(), 2),
    "deterministic": lambda: Bernoulli(LINE, (1.0, 0.0)),
}


def same_bits(a, b):
    """Equal floats with equal sign of zero."""
    return repr(tuple(map(float, a))) == repr(tuple(map(float, b)))


@pytest.mark.parametrize("bias", ["plugin", "miller_madow"])
@pytest.mark.parametrize("j", [0, 1, 3])
@pytest.mark.parametrize("name", sorted(COUNT_PROCESSES))
def test_cond_estimate_matches_separate_counts(name, j, bias):
    proc = COUNT_PROCESSES[name]()
    cond = [(-2 * p - 1,) for p in range(j)][::-1]
    m = 700
    got = entropy._plugin_estimate(proc, cond + [(0,)], m, 19, bias, entropy._COND)
    draws = process.sample_many(proc, cond + [(0,)], m, 19)
    want = oracles.cond_estimate(draws, process.alphabet_size(proc), bias)
    assert same_bits(got, want)


@pytest.mark.parametrize("bias", ["plugin", "miller_madow"])
@pytest.mark.parametrize("name", sorted(COUNT_PROCESSES))
def test_order_estimators_match_separate_counts(name, bias):
    proc = COUNT_PROCESSES[name]()
    k = process.alphabet_size(proc)
    spec = tiling.builtin("dyadic_alternating")
    seeds = util.spawn_seeds(23, 3)
    gap, j, m = 2, 2, 400

    def remote(i, w, s):
        cells = np.concatenate([w.rows(-gap - j, -gap - 1), np.zeros((1, 1), np.int64)])
        draws = process.sample_many(proc, cells, m, util.child_seed(s, 1))
        return oracles.mutual_information(draws, k, bias)

    def cond(i, w, s):
        cells = np.concatenate([w.rows(-j, -1), np.zeros((1, 1), np.int64)])
        draws = process.sample_many(proc, cells, m, util.child_seed(s, 1))
        return oracles.cond_estimate(draws, k, bias)[0]

    rep = entropy.remote_past_mi(proc, spec, gap, j, 3, m, 6, 23, bias)
    ests, _ = entropy.per_order(spec, 6, seeds, remote, need_past=gap + j)
    assert same_bits((rep.estimate, rep.stderr), oracles.mean_se(ests))
    rep = entropy.mc_integral(proc, spec, j, 3, m, 6, 23, bias)
    ests, _ = entropy.per_order(spec, 6, seeds, cond, need_past=j)
    assert same_bits((rep.estimate, rep.stderr), oracles.mean_se(ests))

    w = natural_window(-3, 3)
    rep = entropy.block_entropy_along_order(proc, w, 3, m, 29, bias)
    terms, support = oracles.block_terms(process.sample_many(proc, w.rows(0, 3), m, 29), k)
    est, se = oracles.mean_se(terms)
    if bias == "miller_madow":
        est += (support - 1) / (2.0 * m * math.log(2.0))
    assert same_bits((rep.estimate, rep.stderr), (est / 4, se / 4))


BLOCK_PROCESSES = {
    "bernoulli_grid": lambda: Bernoulli(GRID, (0.2, 0.0, 0.5, 0.3)),
    "three_state": lambda: MarkovLine(transition=THREE),
    "overlay_chain": lambda: PeriodicOverlay(MarkovLine(transition=THREE), 2),
    "overlay_grid": lambda: PeriodicOverlay(Bernoulli(GRID, (0.5, 0.5)), (2, 3)),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(BLOCK_PROCESSES)),
    xs=st.lists(st.integers(-60, 60), min_size=1, max_size=10, unique=True),
    m=st.sampled_from([1, 7, 300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="three_state", xs=list(range(0, -38, -1)), m=300, seed=5)  # uint64 keys
@example(name="three_state", xs=[4, -1, 7, 0, 2, -6, 9, 3, -2], m=300, seed=6)  # uint16
@example(name="bernoulli_grid", xs=[3, 0, -2, 5, 1, 8, -7, 2], m=300, seed=7)  # uint16
def test_block_counts_match_unique_over_sample_many(name, xs, m, seed):
    proc = BLOCK_PROCESSES[name]()
    cells = [(x,) * proc.group.d for x in xs]
    k = process.alphabet_size(proc)
    draws = process.sample_many(proc, cells, m, seed)
    weights = k ** np.arange(len(cells) - 1, -1, -1, dtype=np.int64)
    np.testing.assert_array_equal(process.sample_codes(proc, cells, m, seed), draws @ weights)
    got = entropy._block_counts(proc, cells, m, seed)
    for g, want in zip(got, oracles.block_counts(draws, k)):
        assert g.dtype == want.dtype
        np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("name", ["flip", "bernoulli"])
def test_cond_estimate_peak_memory(name):
    """One estimate on 7 cells never holds the uniforms and an (m, 7) int64
    symbol array at once: its traced peak stays below 1.75 uniform arrays."""
    proc = flip_chain() if name == "flip" else Bernoulli(LINE, (0.3, 0.7))
    m, cond = 16384, [(-2 * p - 1,) for p in range(6)]
    entropy._plugin_estimate(proc, cond + [(0,)], m, 3, "miller_madow", entropy._COND)
    tracemalloc.start()
    try:
        entropy._plugin_estimate(proc, cond + [(0,)], m, 3, "miller_madow", entropy._COND)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * m * 7 * 8
