"""Host-speed calibration: a fixed pure-Python loop timed around each task.

On a shared host the speed of a core swings by up to ~1.9x within seconds
(other guests contend for the same cores), and a run of the same code can
land in a fast or a slow stretch.  Interpreter-bound work slows by about the
same factor as this loop, so the benchmark times the loop right before and
right after each task and reports the task at *reference speed*: its wall
time times ``REFERENCE_S`` over the loop's mean time around it.

``REFERENCE_S`` is the loop's least time on an uncontended core of the
machine the benchmark was tuned on (Intel Xeon, 2 vCPUs, Python 3.11), so a
time at reference speed reads as the time the task takes on such a core.
Set-up pieces are calibrated by passes of the loop right after them: a
core that has just woken up runs the first milliseconds slowly, which would
misstate the speed of the piece that follows.
"""

import time

REFERENCE_S = 1.2e-3
_N = 8000


def loop_seconds() -> float:
    """Wall time of one pass of the fixed loop (about a millisecond)."""
    t0 = time.perf_counter()
    acc, x, seen, out = 0, 0.5, {}, []
    for i in range(_N):
        acc = (acc + i * i) % 1_000_003
        x = x * 1.000001 + 1e-9
        seen[i & 255] = acc
        out.append((i, acc))
    return time.perf_counter() - t0


def factor(*loop_times: float) -> float:
    """Reference speed over the speed the loop saw in ``loop_times``."""
    return REFERENCE_S * len(loop_times) / sum(loop_times)


def factor_now() -> float:
    """``factor`` from three passes of the loop now, on a warm core."""
    return factor(*(loop_seconds() for _ in range(3)))
