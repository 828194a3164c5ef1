"""Tests of the benchmark itself: smoke runs of every workload, and proof that
each output check rejects a deliberately wrong output.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout.  The package's own test suite does not
collect this directory.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import exact  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from multiorder import orders, tiling  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FLIP_P = [[0.9, 0.1], [0.1, 0.9]]


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


# --- smoke runs ----------------------------------------------------------

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_end_to_end(workload):
    done = run_bench(workload, 5, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_run_traced():
    done = run_bench("successor_run", 6, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["entropy.successor_step.calls"]["value"] > 0


def test_per_layer_metrics_match_the_tracer():
    names = set(tracing.metric_units()) | {"trace.ops_per_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("window_audit", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    from multiorder import orders as orders_mod
    monkeypatch.delattr(orders_mod, "to_increments")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["orders.to_increments"]
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["orders.to_increments.self_ms"]["value"] == 0


def test_speed_correction_scales_by_the_nearby_probe():
    ref = speed.REFERENCE_PROBE_MS
    wall = [100.0] * 30
    probes = [ref] * 10 + [2 * ref] * 10 + [ref] * 10
    out = speed.corrected(wall, probes)
    assert out[:6] == [100.0] * 6 and out[-6:] == [100.0] * 6
    assert out[15] == 50.0
    # one outlying probe does not move its neighbours' correction
    probes[5] = 10 * ref
    assert speed.corrected(wall, probes)[:6] == [100.0] * 6
    assert speed.probe_ms() > 0


# --- exact reference values ----------------------------------------------

def test_markov_conditional_entropy_against_enumeration():
    P = np.array(FLIP_P)
    pi = exact.stationary(P)
    cells = list(range(-3, 3))
    law = {}
    for xs in product((0, 1), repeat=len(cells)):
        p = pi[xs[0]]
        for u, v in zip(xs, xs[1:]):
            p *= P[u, v]
        law[xs] = p

    def h_given(keep):
        joint, cond = {}, {}
        for xs, p in law.items():
            key = tuple(xs[cells.index(c)] for c in keep)
            joint[key + (xs[cells.index(0)],)] = joint.get(key + (xs[cells.index(0)],), 0) + p
            cond[key] = cond.get(key, 0) + p
        return exact.entropy_bits(list(joint.values())) - exact.entropy_bits(list(cond.values()))

    for a, b in ((-1, None), (None, 1), (-3, 2), (-1, 1), (-2, None)):
        keep = [c for c in (a, b) if c is not None]
        assert exact.markov_cond_entropy(P, pi, a, b)[0] == pytest.approx(h_given(keep), abs=1e-12)
    assert exact.markov_cond_entropy(P, pi, a=-1)[0] == pytest.approx(0.4690, abs=1e-4)
    assert exact.entropy_bits([0.3, 0.7]) == pytest.approx(0.8813, abs=1e-4)


def test_folner_ratio_of_a_square():
    square = [(x, y) for x in range(4) for y in range(4)]
    assert exact.folner_ratio(square, exact.unit_cross(2)) == Fraction(16, 16)
    assert exact.check_square(square, 2) == []


# --- window_audit checks -------------------------------------------------

@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    wl = workloads.WindowAudit(3, tmp_path_factory.mktemp("audit"))
    return wl, wl._run(1)


def test_window_audit_outputs_pass(audit):
    wl, outputs = audit
    assert wl.check_outputs(*outputs) == []
    assert wl.check([wl.op(1), wl.op(2)]) == []


def swap_rows(w, r1, r2):
    arr = w.array.copy()
    arr[[r1, r2]] = arr[[r2, r1]]
    return orders.OrderWindow(w.group, w.lo, w.hi, arr)


@pytest.mark.parametrize("which", ["dyadic_standard", "dyadic_alternating", "hilbert"])
def test_swapped_window_cell_is_rejected(audit, which):
    wl, (wins, tiles, intervals) = audit
    idx = next(n for n, win in enumerate(wins) if win[0] == which)
    name, level, w, inc, back, k, moved = wins[idx]
    rows = [r for r in (0, 1, len(w) - 2, len(w) - 1) if r != -w.lo][:2]
    bad = swap_rows(w, *rows)
    assert (exact.check_window(name, level, bad.lo, bad.hi, bad.array)
            + exact.check_increments(bad.lo, bad.hi, bad.array, inc.lo, inc.hi, inc.array))
    tampered = list(wins)
    tampered[idx] = (name, level, bad, inc, back, k, moved)
    assert wl.check_outputs(tampered, tiles, intervals)


def test_tile_ratio_off_by_one_cell_is_rejected(audit):
    wl, (wins, tiles, intervals) = audit
    level, k, size, anchor, ratio = tiles[-1]
    assert exact.check_tile_ratio(k, size, ratio) == []
    off = ratio + Fraction(1, size)
    assert exact.check_tile_ratio(k, size, off)
    rec = wl.op(1)
    rec["tiles"][-1] = (level, k, size, anchor, off)
    assert wl.check([rec])


def test_interval_ratio_off_by_one_cell_is_rejected(audit):
    wl, (wins, tiles, intervals) = audit
    level, a, F, ratio = intervals[0]
    bad = intervals[:]
    bad[0] = (level, a, F, ratio + Fraction(1, len(F)))
    assert wl.check_outputs(wins, tiles, bad)


def test_wrong_act_is_rejected(audit):
    wl, (wins, tiles, intervals) = audit
    name, level, w, inc, back, k, moved = wins[0]
    other = k + 1 if k < w.hi else k - 1
    wrong = orders.act(w, w.cell(other))
    assert exact.check_act(w.lo, w.hi, w.array, k, wrong.lo, wrong.hi, wrong.array)


# --- entropy_run and successor_run checks --------------------------------

def reports_with(rec, name, change):
    payload = json.loads(rec["files"][f"{name}.json"])
    change(payload["report"])
    out = dict(rec, files=dict(rec["files"]))
    out["files"][f"{name}.json"] = json.dumps(payload).encode()
    return out


@pytest.fixture(scope="module")
def entropy_op(tmp_path_factory):
    wl = workloads.EntropyRun(4, tmp_path_factory.mktemp("entropy"))
    return wl, wl.op(1)


def test_entropy_outputs_pass(entropy_op):
    wl, rec = entropy_op
    assert wl.check_op(rec) == []
    assert wl.check_api() == []


@pytest.mark.parametrize("name", ["flip_standard", "bernoulli_hilbert", "overlay_mi"])
@pytest.mark.parametrize("shift", [0.05, -0.05])
def test_estimate_shifted_by_005_bit_is_rejected(entropy_op, name, shift):
    wl, rec = entropy_op

    def move(report):
        report["estimate"] += shift

    assert wl.check_op(reports_with(rec, name, move))


def test_wrong_undersampled_flag_is_rejected(entropy_op):
    wl, rec = entropy_op

    def flip(report):
        report["undersampled"] = not report["undersampled"]

    assert wl.check_op(reports_with(rec, "flip_standard", flip))


def test_failed_exit_is_rejected(entropy_op):
    wl, rec = entropy_op
    assert wl.check_op(dict(rec, exit=2))


@pytest.fixture(scope="module")
def successor_op(tmp_path_factory):
    wl = workloads.SuccessorRun(4, tmp_path_factory.mktemp("successor"))
    return wl, wl.op(1)


def test_successor_outputs_pass(successor_op):
    wl, rec = successor_op
    assert wl.check_op(rec) == []
    assert wl.check_api() == []


def test_false_bit_identical_estimates_is_rejected(successor_op):
    wl, rec = successor_op

    def falsify(report):
        report["bit_identical_estimates"] = False

    assert wl.check_op(reports_with(rec, "flip_alternating_steps", falsify))


def test_differing_stepped_estimate_is_rejected(successor_op):
    wl, rec = successor_op

    def nudge(report):
        report["estimate_stepped"] = report["estimate_direct"] + 1e-12

    assert wl.check_op(reports_with(rec, "bernoulli_hilbert_steps", nudge))


def test_window_sizes_match_tiles():
    for name, level in workloads.WindowAudit.WINDOWS:
        spec = tiling.builtin(name)
        assert spec.curve(level, spec.canonical_label).shape[0] == exact.top_tile_size(name, level)
