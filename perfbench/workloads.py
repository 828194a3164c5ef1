"""The benchmark's workloads: set-up, one op, and the output checks.

A workload is built once (its set-up), then ``op(i)`` runs op i: the same
recipe every time, with a fresh seed derived from the workload seed and i.
Ops call only the package's public functions, or ``cli.main`` in-process.
``op`` returns a small record; ``check(records)`` runs after the timed phase
and returns the problems it found (an empty list when every output passed).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np
from multiorder import cli, entropy, folner, orders, process, tiling

import exact


def op_seed(seed: int, i: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, i])


def check_seed(seed: int, t: int) -> np.random.SeedSequence:
    """Seeds for the untimed API checks, apart from every op's seed."""
    return np.random.SeedSequence(seed, spawn_key=(t,))


def spread(n: int, count: int) -> list:
    """Up to `count` indices evenly spread over range(n), first and last
    included."""
    return sorted({int(round(x)) for x in np.linspace(0, n - 1, min(n, count))})


class WindowAudit:
    """Window algebra and Folner audits: tiling, orders, folner, groups.

    One op samples ADDRESSES addresses of each of WINDOWS, expands each,
    converts it to increments and back, and acts by a random in-window cell.
    On the first level-6 and level-8 Hilbert windows it then audits complete
    level-k tiles (TILES: level and count per window) and intervals of
    INTERVAL_CELLS cells (the whole level-6 window, L8_INTERVALS random
    intervals of the level-8 window) under the unit cross.
    """

    name = "window_audit"
    tail_percentile = 90
    WINDOWS = (("dyadic_standard", 10), ("dyadic_alternating", 12),
               ("hilbert", 6), ("hilbert", 8))
    ADDRESSES = 2
    TILES = ((1, 8), (2, 8), (3, 4), (4, 2))
    INTERVAL_CELLS = 4096
    L8_INTERVALS = 2
    CHECKED_OPS = 6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.specs = {name: tiling.builtin(name) for name, _ in self.WINDOWS}
        for name, level in self.WINDOWS:
            spec = self.specs[name]
            for label in spec.labels(level):
                spec.curve(level, label)
        self.cross = folner.unit_cross(self.specs["hilbert"].group)
        # Random weights for the op's output fingerprint.
        self.weights = np.random.default_rng(seed).integers(
            -2**31, 2**31, size=2 * 4**8, dtype=np.int64)

    def _run(self, i: int):
        rng = np.random.default_rng(op_seed(self.seed, i))
        wins = []
        for name, level in self.WINDOWS:
            spec = self.specs[name]
            for _ in range(self.ADDRESSES):
                addr = tiling.sample_address(spec, level, int(rng.integers(2**63)))
                w = tiling.expand(addr)
                inc = orders.to_increments(w)
                back = orders.from_increments(inc)
                k = int(rng.integers(w.lo, w.hi + 1))
                moved = orders.act(w, w.cell(k))
                wins.append((name, level, w, inc, back, k, moved))
        audited = [win for win in wins if win[0] == "hilbert"][::self.ADDRESSES]
        tiles = []
        intervals = []
        for _, level, w, *_ in audited:
            for k, count in self.TILES:
                for rec in folner.full_tile_records(w, self.cross, 4**k, max_anchors=count):
                    tiles.append((level, k, rec.size, rec.anchor, rec.ratio))
            if len(w) == self.INTERVAL_CELLS:
                starts = [w.lo]
            else:
                starts = rng.integers(w.lo, w.hi - self.INTERVAL_CELLS + 2,
                                      size=self.L8_INTERVALS).tolist()
            for a in starts:
                F = orders.interval(w, a, a + self.INTERVAL_CELLS - 1)
                intervals.append((level, a, F, folner.invariance_ratio(w.group, F, self.cross)))
        return wins, tiles, intervals

    def _fingerprint(self, arr) -> int:
        flat = arr.ravel()
        return int(flat @ self.weights[: flat.size])

    def _record(self, i, wins, tiles, intervals) -> dict:
        fp = self._fingerprint
        return {
            "i": i,
            "windows": [(w.lo, w.hi, fp(w.array), fp(inc.array), fp(back.array), k,
                         moved.lo, fp(moved.array))
                        for _, _, w, inc, back, k, moved in wins],
            "tiles": tiles,
            "intervals": [(level, a, ratio) for level, a, _, ratio in intervals],
        }

    def op(self, i: int) -> dict:
        return self._record(i, *self._run(i))

    def check(self, records: list) -> list:
        problems = []
        # Two audited windows; the level-6 one is itself one interval.
        n_tiles = 2 * sum(count for _, count in self.TILES)
        n_intervals = 1 + self.L8_INTERVALS
        for rec in records:
            if len(rec["tiles"]) != n_tiles or len(rec["intervals"]) != n_intervals:
                problems.append(f"op {rec['i']}: {len(rec['tiles'])} tiles and "
                                f"{len(rec['intervals'])} intervals audited, expected "
                                f"{n_tiles} and {n_intervals}")
            for _, k, size, _, ratio in rec["tiles"]:
                problems += [f"op {rec['i']}: {p}" for p in exact.check_tile_ratio(k, size, ratio)]
        # Full checks on a spread of ops: re-run each (ops are deterministic in
        # their seed), confirm the re-run reproduces the timed op's outputs,
        # and check every output against the benchmark's own computations.
        for idx in spread(len(records), self.CHECKED_OPS):
            rec = records[idx]
            outputs = self._run(rec["i"])
            if self._record(rec["i"], *outputs) != rec:
                problems.append(f"op {rec['i']}: re-run outputs differ from the timed op")
            problems += [f"op {rec['i']}: {p}" for p in self.check_outputs(*outputs)]
        return problems

    def check_outputs(self, wins, tiles, intervals) -> list:
        problems = []
        audited = {}
        for name, level, w, inc, back, k, moved in wins:
            arr = w.array
            problems += exact.check_window(name, level, w.lo, w.hi, arr)
            problems += exact.check_increments(w.lo, w.hi, arr, inc.lo, inc.hi, inc.array)
            problems += exact.check_same_window(w.lo, w.hi, arr, back.lo, back.hi, back.array)
            problems += exact.check_act(w.lo, w.hi, arr, k, moved.lo, moved.hi, moved.array)
            if name == "hilbert":
                audited.setdefault(level, w)
        for level, k, size, anchor, ratio in tiles:
            w = audited[level]
            problems += exact.check_tile_ratio(k, size, ratio)
            problems += exact.check_square(w.array[anchor - w.lo: anchor - w.lo + size], k)
        cross = exact.unit_cross(2)
        for level, a, F, ratio in intervals:
            w = audited[level]
            rows = [tuple(r) for r in w.array[a - w.lo: a - w.lo + self.INTERVAL_CELLS].tolist()]
            if list(F) != rows:
                problems.append(f"interval at {a} differs from window rows")
            own = exact.folner_ratio(rows, cross)
            if ratio != own:
                problems.append(f"interval at {a}: ratio {ratio}, own count gives {own}")
        return problems


FLIP = {"variant": "markov_line", "transition": [[0.9, 0.1], [0.1, 0.9]],
        "alphabet": [0, 1]}
BERNOULLI_GRID = {"variant": "bernoulli", "probs": [0.3, 0.7],
                  "group": {"kind": "int_grid", "d": 2}}
OVERLAY = {"variant": "periodic_overlay",
           "base": {"variant": "bernoulli", "probs": [0.5, 0.5]}, "period": [2]}


def _experiment(name, kind, tiling_name, level, proc, **params):
    params["bias"] = "miller_madow"
    return {"name": name, "kind": kind, "tiling": {"name": tiling_name, "level": level},
            "process": proc, "params": params}


def alphabet_size(proc: dict) -> int:
    if proc["variant"] == "periodic_overlay":
        return alphabet_size(proc["base"]) * int(np.prod(proc["period"]))
    return len(proc.get("alphabet") or proc.get("probs") or proc["transition"])


class CliWorkload:
    """An op is ``multiorder entropy run`` on one config with a fresh master
    seed, run in-process through ``cli.main`` with ``--threads 1``; the op
    ends when its reports are read back."""

    tail_percentile = 90
    EXPERIMENTS: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir) / self.name
        self.out = self.dir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.files = [f"{e['name']}.json" for e in self.EXPERIMENTS] + ["aggregate.csv"]

    def master_seed(self, i: int) -> int:
        return int(op_seed(self.seed, i).generate_state(1)[0])

    def op(self, i: int, threads: int = 1) -> dict:
        config = {"version": 1, "seed": self.master_seed(i), "output_dir": str(self.out),
                  "experiments": list(self.EXPERIMENTS)}
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["entropy", "run", "--config", str(self.config_path),
                         "--threads", str(threads)])
        files = {}
        for fname in self.files:
            path = self.out / fname
            if path.exists():
                files[fname] = path.read_bytes()
        return {"i": i, "seed": config["seed"], "exit": code, "files": files,
                "report_bytes": sum(len(b) for b in files.values())}

    def check_op(self, rec: dict) -> list:
        """Checks that hold for every op's outputs."""
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}"]
        missing = [f for f in self.files if f not in rec["files"]]
        if missing:
            return [f"missing outputs {missing}"]
        problems = []
        rows = list(csv.reader(io.StringIO(rec["files"]["aggregate.csv"].decode())))
        names = [(e["name"], e["kind"]) for e in self.EXPERIMENTS]
        if [tuple(r[:2]) for r in rows[1:]] != names:
            problems.append("aggregate.csv rows do not list the experiments in order")
        for exp in self.EXPERIMENTS:
            payload = json.loads(rec["files"][f"{exp['name']}.json"])
            if payload["name"] != exp["name"] or payload["seed"] != rec["seed"]:
                problems.append(f"{exp['name']}: report is not this op's")
                continue
            rep = payload["report"]
            p = exp["params"]
            k = alphabet_size(exp["process"])
            if rep["undersampled"] != (p["samples"] < 10 * k ** (p["j"] + 1)):
                problems.append(f"{exp['name']}: undersampled={rep['undersampled']} "
                                f"with m={p['samples']}, k={k}, j={p['j']}")
            problems += [f"{exp['name']}: {msg}" for msg in self.check_report(exp, rep)]
        return problems

    def check(self, records: list) -> list:
        problems = []
        for rec in records:
            problems += [f"op {rec['i']}: {p}" for p in self.check_op(rec)]
        if records:
            first = records[0]
            for threads in self.RERUN_THREADS:
                again = self.op(first["i"], threads)
                if again["files"] != first["files"]:
                    problems.append(f"op {first['i']}: re-run with --threads {threads} "
                                    "gave different bytes")
        return problems + self.check_api()


class EntropyRun(CliWorkload):
    """Many draws on at most 7 cells: process.sample_many and block
    encoding/counting dominate; small windows, no stepping, no audits.

    Draw arrays are (samples, j + 1) int64: 16384 x 7 x 8 B = 0.9 MiB, and
    8192 x 4 x 8 B for the overlay, so each fits the 2 MiB L2 of one core.
    """

    name = "entropy_run"
    J = 6
    M = 16384
    ORDERS = 6
    EXPERIMENTS = (
        _experiment("flip_alternating", "mc_integral", "dyadic_alternating", 10, FLIP,
                    j=J, orders=ORDERS, samples=M),
        _experiment("flip_standard", "mc_integral", "dyadic_standard", 10, FLIP,
                    j=J, orders=ORDERS, samples=M),
        _experiment("bernoulli_hilbert", "mc_integral", "hilbert", 4, BERNOULLI_GRID,
                    j=J, orders=ORDERS, samples=M),
        _experiment("overlay_mi", "remote_past_mi", "dyadic_alternating", 10, OVERLAY,
                    gap=8, j=3, orders=ORDERS, samples=8192),
    )
    RERUN_THREADS = (1, 2)
    # Orders sampled for the per-order exact check along dyadic_alternating.
    API_ORDERS = 4

    def check_report(self, exp: dict, rep: dict) -> list:
        """The estimate against the exact value, within SIGMAS standard errors
        plus the bias allowance (see exact.tolerance)."""
        p = exp["params"]
        m, n, j = p["samples"], p["orders"], p["j"]
        P = FLIP["transition"]
        if exp["name"] == "flip_standard":
            # dyadic_standard puts cells -j..-1 in the past: H = h(0.1).
            target, sd = exact.markov_cond_entropy(P, exact.stationary(P), a=-1)
            band = (target, target)
            support = 2 ** (j + 1)
        elif exp["name"] == "flip_alternating":
            # Every per-order value lies between H(X_0 | X_-1, X_1) and H(X_0).
            low, _ = exact.markov_cond_entropy(P, exact.stationary(P), a=-1, b=1)
            _, sd = exact.markov_cond_entropy(P, exact.stationary(P), a=-1)
            band = (low, 1.0)
            support = 2 ** (j + 1)
        elif exp["name"] == "bernoulli_hilbert":
            probs = BERNOULLI_GRID["probs"]
            target = exact.entropy_bits(probs)
            sd = float(np.sqrt(sum(q * (np.log2(q) + target) ** 2 for q in probs)))
            band = (target, target)
            support = 2 ** (j + 1)
        else:
            # Overlay MI: the anchor's marker is a function of the phase that
            # any block cell reveals, the base is independent: log2 2 = 1 bit.
            band, sd = (1.0, 1.0), 0.0
            support = 2 * 2 ** (j + 1)
        tol = exact.tolerance(rep["stderr"], sd, m, n, support)
        est = rep["estimate"]
        if not band[0] - tol <= est <= band[1] + tol:
            return [f"estimate {est:.5f} outside [{band[0]:.5f}, {band[1]:.5f}] +- {tol:.5f}"]
        return []

    def check_api(self) -> list:
        """Per-order check along dyadic_alternating through the public API:
        cond_entropy_along_order against the exact H(X_0 | X_a, X_b) from the
        nearest past cells a < 0 < b (Markov property)."""
        spec = tiling.builtin("dyadic_alternating")
        proc = process.from_json(FLIP)
        P = FLIP["transition"]
        j, m = self.J, self.M
        problems = []
        for t in range(self.API_ORDERS):
            addr_seed, samp_seed = check_seed(self.seed, t).spawn(2)
            addr, _ = tiling.sample_straight_address(spec, 10, addr_seed, need_past=j)
            w = tiling.expand(addr)
            past = w.array[-j - w.lo: -w.lo]
            a, b = exact.nearest_neighbours(past)
            target, sd = exact.markov_cond_entropy(P, exact.stationary(P), a, b)
            rep = entropy.cond_entropy_along_order(proc, w, j, m, samp_seed,
                                                   bias="miller_madow")
            tol = exact.tolerance(rep.stderr, sd, m, 1, 2 ** (j + 1))
            if abs(rep.estimate - target) > tol:
                problems.append(f"order {t} (a={a}, b={b}): estimate {rep.estimate:.5f}, "
                                f"exact {target:.5f} +- {tol:.5f}")
        return problems


class SuccessorRun(CliWorkload):
    """Walks the successor map one step at a time: orders.act/index_of,
    OrderWindow.cells and Frame rebuilding dominate.  process draws one
    configuration over a whole window (many cells, one draw), the opposite
    use of that layer from entropy_run."""

    name = "successor_run"
    J = 16
    EXPERIMENTS = (
        _experiment("flip_alternating_steps", "successor_consistency", "dyadic_alternating",
                    10, FLIP, j=J, orders=1, samples=64),
        _experiment("bernoulli_hilbert_steps", "successor_consistency", "hilbert", 4,
                    BERNOULLI_GRID, j=J, orders=3, samples=64),
    )
    RERUN_THREADS = (1,)
    # (tiling, level, process) of the frames walked by the untimed API check.
    API_FRAMES = (("dyadic_alternating", 10, FLIP), ("dyadic_alternating", 10, FLIP),
                  ("hilbert", 4, BERNOULLI_GRID), ("hilbert", 4, BERNOULLI_GRID))

    def check_report(self, exp: dict, rep: dict) -> list:
        problems = []
        if not (rep["identical_cells"] and rep["bit_identical_estimates"]):
            problems.append("the two routes to the conditioners disagree")
        if rep["estimate_direct"] != rep["estimate_stepped"]:
            problems.append(f"estimate_direct {rep['estimate_direct']!r} != "
                            f"estimate_stepped {rep['estimate_stepped']!r}")
        p = exp["params"]
        if (rep["orders"], rep["truncation"], rep["samples"]) != (p["orders"], p["j"], p["samples"]):
            problems.append("report does not echo orders, depth and samples")
        # A Miller-Madow conditional entropy of a binary symbol lies in
        # [0, 1 + (min(m, 2^(j+1)) - 1) / (2 m ln 2)].
        m = p["samples"]
        top = 1.0 + exact.bias_allowance(min(m, 2 ** (p["j"] + 1)) - 1, m)
        if not 0.0 <= rep["estimate_direct"] <= top:
            problems.append(f"estimate {rep['estimate_direct']} outside [0, {top:.4f}]")
        return problems

    def check_api(self) -> list:
        """Walk j steps of -1 with successor_step on sampled frames: the
        anchors visited, in original coordinates, are exactly rows -j..-1 of
        the window, each stepped window is the original translated, and
        stepping by k then by m equals stepping by k + m."""
        problems = []
        j = self.J
        for t, (tiling_name, level, proc_json) in enumerate(self.API_FRAMES):
            seed = check_seed(self.seed, t)
            addr_seed, frame_seed, step_seed = seed.spawn(3)
            spec = tiling.builtin(tiling_name)
            addr, _ = tiling.sample_straight_address(spec, level, addr_seed, need_past=j)
            w = tiling.expand(addr)
            frame = entropy.make_frame(process.from_json(proc_json), w, frame_seed)
            where = f"frame {t} ({tiling_name})"
            offset = np.zeros(w.array.shape[1], dtype=np.int64)
            visited = []
            cur = frame
            for step in range(1, j + 1):
                offset = offset + cur.window.array[-1 - cur.window.lo]
                visited.append(offset)
                cur = entropy.successor_step(cur, -1)
                if (cur.window.lo != w.lo + step
                        or not np.array_equal(cur.window.array, w.array - offset)
                        or cur.config.symbols != frame.config.symbols):
                    problems.append(f"{where}: step {step} is not the window translated")
                    break
            if not np.array_equal(np.array(visited[::-1]), w.array[-j - w.lo: -w.lo]):
                problems.append(f"{where}: walk did not visit rows -{j}..-1")
            rng = np.random.default_rng(step_seed)
            k = int(rng.integers(w.lo, w.hi + 1))
            m = int(rng.integers(w.lo - k, w.hi - k + 1))
            two = entropy.successor_step(entropy.successor_step(frame, k), m)
            one = entropy.successor_step(frame, k + m)
            if ((two.window.lo, two.window.hi) != (one.window.lo, one.window.hi)
                    or not np.array_equal(two.window.array, one.window.array)
                    or two.config != one.config):
                problems.append(f"{where}: stepping by {k} then {m} differs from {k + m}")
        return problems


WORKLOADS = {wl.name: wl for wl in (WindowAudit, EntropyRun, SuccessorRun)}
