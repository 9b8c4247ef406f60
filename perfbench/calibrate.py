"""Reference computation used to factor machine speed out of timings.

On a shared machine the speed of a core drifts by 10-40% over tens of
seconds, far more than the run-to-run spread a regression bound can
tolerate. The benchmark therefore times this fixed computation next to
every op and scales the op's wall time to a machine on which it takes
exactly ``NOMINAL_S``. The computation is pure Python modular matrix
arithmetic at both moduli the workloads use, so it slows down with the
same kind of contention the program does. It does not depend on the
program and must never change, or figures before and after the change
stop being comparable.
"""

import time

NOMINAL_S = 0.050
_Q = (1009, 2**64 - 59)
_N = 50


def reference_s() -> float:
    """Wall time of one fixed 50x50x50 product at each modulus."""
    t0 = time.perf_counter()
    for q in _Q:
        a = [(i * 2654435761 + 12345) % q for i in range(_N * _N)]
        b = [(i * 40503 + 999) % q for i in range(_N * _N)]
        out = [0] * (_N * _N)
        for i in range(_N):
            row = i * _N
            for t in range(_N):
                av = a[row + t]
                base = t * _N
                for j in range(_N):
                    out[row + j] = (out[row + j] + av * b[base + j]) % q
    return time.perf_counter() - t0
