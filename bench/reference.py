"""A fixed reference task, timed next to each workload invocation as a yardstick.

On a shared host the speed of one core drifts by up to a factor of two over
tens of seconds, as neighbours load the caches and memory.  Every timed
invocation of the program is bracketed by runs of this script, and the
benchmark reports the ratio of the invocation's wall time to theirs: both
see the same phase of the host, so the ratio keeps what the program costs
and drops most of the drift.  The task steps 10k points of the Nesterov
example at once with plain numpy, as ``engine.run_many`` does under
``census``; of the tasks tried, it tracked the drift of all three
workloads best.  It does not import descentlab and never changes, so a
change to the program moves only the numerator.

    python3 bench/reference.py

It prints a checksum so the work cannot be skipped.
"""

from __future__ import annotations

import numpy as np


def batch() -> float:
    x0s = np.empty((10_000, 2))
    for t in range(x0s.shape[0]):
        x0s[t] = -2.0 + 4.0 * np.random.default_rng([7, t]).random(2)
    x = x0s.copy()
    active = np.arange(x.shape[0])
    k = 0
    while active.size and k < 1000:
        u, v = x[:, 0], x[:, 1]
        f = 0.5 * u * u + 0.25 * v ** 4 - 0.5 * v * v
        g = np.stack([u, v * v * v - v], axis=-1)
        gn = np.sqrt(np.sum(g * g, axis=-1))
        done = (gn <= 1e-6) | ~np.isfinite(f) | np.any(np.abs(x) > 2.0, axis=-1)
        keep = ~done
        active = active[keep]
        x = x[keep] - 0.09 * g[keep]
        k += 1
    labels = [int(np.sign(v)) for v in x0s[:, 1]]
    return float(k + sum(labels))


if __name__ == "__main__":
    print(batch())
