"""A fixed reference loop that measures how fast the machine runs right now.

On a small shared virtual machine the speed drifts by 10-30 % over minutes
(measured on a 2-core KVM guest), with everything a process does slowing
together. Timing this loop between operations and scaling each operation's
time by REFERENCE_S over the loop's median time near that operation cancels
most of that drift. The loop uses what vanetsim's hot paths use: interpreted
Python with dict stores, XOR of 1 KiB Python ints, NumPy calls on small
arrays, and NumPy passes over arrays of 1.6 MB, which compete for memory
bandwidth like a near-stationary trip's arrivals do. It never calls
vanetsim, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# About the loop's median time on the 2-core Xeon KVM guest (2.1 GHz) that
# recorded the baseline; a reference second (unit ref_s) is a second at the
# speed where the loop takes this long.
REFERENCE_S = 0.020

_BLOCKS = [int.from_bytes(np.random.default_rng(i).bytes(1024), "big") for i in range(64)]


def reference_loop() -> float:
    """Run the loop once; return its wall time in seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    acc, table = 0, {}
    for i in range(18000):
        acc ^= _BLOCKS[i & 63]
        table[i & 255] = acc & 0xFFFF
    for _ in range(450):
        x = rng.uniform(0.0, 1.0, 100)
        int((x > 0.5).sum())
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, 200_000)
        float(np.abs(x - 0.3)[x > 0.5].sum())
    return time.perf_counter() - start
