"""Set-up time of one workload in this fresh interpreter.

    python3 perfbench/setup_probe.py <build lib> <workload> <op seed>

Times ``import smbmm`` (through the workload module, which also imports
the harness) plus the first, cold op, then checks that op's products.
The time is scaled to the nominal reference speed measured just before
and just after, as for timed ops. Prints one JSON line:
setup_s ([scaled, raw]), attempted, failed.
"""

import json
import sys
import time

from calibrate import NOMINAL_S, reference_s


def main():
    lib, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, lib)
    before = reference_s()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload]
    records = wl.run(wl.make(seed))
    raw = time.perf_counter() - t0
    after = reference_s()
    chk = workloads.check(records, wl.runs_per_op)
    scaled = raw * NOMINAL_S / ((before + after) / 2)
    print(json.dumps({"setup_s": [scaled, raw], "attempted": chk.attempted, "failed": chk.failed}))


if __name__ == "__main__":
    main()
