"""Speed correction for a shared host.

The host this benchmark was built on switches between speed states: a fixed
pure-Python loop took 290-490 ms from one second to the next, with no steal
time, and raw wall times of one code version spread by 20-40% between runs.
So after every op the driver times a fixed probe that uses nothing from the
package, and each reported time is the measured wall time multiplied by
REFERENCE_PROBE_MS / (median probe time of the ops around it): the time the
op would take on a machine on which the probe takes REFERENCE_PROBE_MS.  The
probe runs outside the op's timing; the driver prints the raw wall-clock
figures too.
"""

import gc
import time

# About the probe's time right after an op on the 2-vCPU host the reference
# figures come from, so corrected times read close to wall times.
REFERENCE_PROBE_MS = 2.0
# Each op is corrected by the median probe of the ops within NEIGHBOURS of
# it: short enough to follow the host's speed states (they last seconds),
# long enough to damp the probe's own noise.
NEIGHBOURS = 4


def probe_ms() -> float:
    """Wall time of the probe: tuple, dict and set work like the package's
    cell handling.  (Pure-Python work tracked the ops' slowdowns better than
    a probe with numpy sort/cumsum/unique in it, on every workload.)  The
    garbage collector is paused so that a collection the op owes is not
    charged to the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        cells = [(i, i * 7 % 13) for i in range(3000)]
        index = {c: i for i, c in enumerate(cells)}
        moved = set(cells) ^ {(x + 1, y) for x, y in cells}
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    del index, moved
    return elapsed * 1e3


def factor(probe: float) -> float:
    """Multiplier from measured wall time to corrected time."""
    return REFERENCE_PROBE_MS / probe


def corrected(wall_ms: list, probes: list) -> list:
    """Each op's wall time, corrected by the median probe around it."""
    out = []
    for i, t in enumerate(wall_ms):
        near = sorted(probes[max(0, i - NEIGHBOURS): i + NEIGHBOURS + 1])
        out.append(t * factor(near[len(near) // 2]))
    return out
