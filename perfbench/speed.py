"""Host speed calibration.

On a shared host the CPU speed that one process gets drifts by a third or
more within minutes, and an operation's CPU time drifts with it.  So the
benchmark runs a fixed kernel, which does not touch shapeforge, between
operations, and divides each timing by the kernel's mean time over the
run.  Multiplied by the kernel's time at reference speed, a timing is in
seconds at reference speed.

Two probes: the kernel in the benchmark's own process, for operations that
run in it, and ``python3 perfbench/speed.py`` as a child with the pinned
environment, whose user + system time (interpreter start-up and the
kernel) calibrates operations that are child processes.

    python3 perfbench/speed.py          # run the kernel once and exit
"""

from __future__ import annotations

import time

# The unit of speed: a probe's mean CPU time at reference speed.  On the
# 2-vCPU Xeon machine the benchmark was made on (CPython 3.11.7) the
# in-process probe ranged 1.5-2.7 ms and the child's 75-105 ms within a
# day; these are round values inside those ranges.
KERNEL_REF_S = 0.002
CHILD_REF_S = 0.09

KERNEL_REPEATS = 3  # kernel runs per in-process probe

_TEXT = "((..((...))..)).." * 300


def kernel() -> int:
    """Big-integer recurrence and a bracket scan: the two kinds of work the
    workloads do."""
    m = [1, 1]
    for n in range(2, 1500):
        m.append(((2 * n + 1) * m[-1] + 3 * (n - 1) * m[-2]) // (n + 2))
    pairs, stack = {}, []
    for i, c in enumerate(_TEXT):
        if c == "(":
            stack.append(i)
        elif c == ")":
            pairs[stack.pop()] = i
    return len(pairs) + (m[-1] & 1)


def kernel_s() -> float:
    """Mean CPU time of the kernel in this process."""
    c0 = time.process_time()
    for _ in range(KERNEL_REPEATS):
        kernel()
    return (time.process_time() - c0) / KERNEL_REPEATS


if __name__ == "__main__":
    kernel()
