"""Protocol benchmark for smbmm: end-to-end run metrics or a per-layer trace.

    python3 perfbench/run.py --workload smbmm-worked-48 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The package is first built from
source with ``setup.py build`` into ``.bench_build/`` and imported from
there (a compiled kernel is used only if that build produces one).

``--trace 0`` measures the untraced program: a warm-up op, three fresh
interpreters that each import smbmm and run one cold op (``setup_s``),
then ops back to back until their summed wall time reaches
``--seconds``. ``--trace 1`` alternates untraced and traced ops for the
same time and reports per-layer figures (see tracing.py), after checking
every traced count against its closed form and replaying the first
traced op to confirm its counts repeat exactly.

Every product of every op is checked bit-exactly against
``matmul_oracle``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric with its unit and the run's provenance.
See README.md for the workloads and the layer-to-metric map.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import NOMINAL_S, reference_s

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
LIB = BUILD / "lib"

SETUP_PROBES = 3

# Per-layer metrics of the final line in --trace 1 (units by suffix).
# The trace line before it also carries the batch-only phases
# (common_randomness, server.noise_poly, decode.solve_stack,
# field.cauchy_vandermonde), which are structurally 0 on the ssmm workload.
PER_LAYER = (
    "harness.glue.ms", "harness.load.ms", "harness.oracle.ms",
    "encode.ms", "server.ms", "server.wall.ms", "server.calls", "decode.ms",
    "field.solve.calls", "field.solve.ms",
    "matrix.matmul.calls", "matrix.matmul.ms", "matrix.assemble.ms",
    "matrix.random.elems",
) + tuple(
    f"kernels.{k}.{s}"
    for k in ("matmul_mod", "axpy_mod", "lu_factor_mod", "lu_solve_mod")
    for s in ("calls", "ms", "ops", "bytes")
)
UNITS = {"ms": "ms", "calls": "count", "elems": "count", "ops": "MAC", "bytes": "B"}


def unit_of(name):
    return UNITS[name.rsplit(".", 1)[1]]


def build():
    """Build the package from this checkout into .bench_build/lib."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "smbmm").is_dir():
        sys.exit(f"perfbench: no smbmm source tree (setup.py, src/smbmm) under {ROOT}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build",
         "--build-base", str(BUILD / "setup"), "--build-lib", str(LIB)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"perfbench: build failed with exit code {proc.returncode}")
    sys.path.insert(0, str(LIB))


def provenance(workload, seed):
    import smbmm

    try:
        importlib.import_module("smbmm._kernels._fastcore")
        fastcore_error = None
    except ImportError as exc:
        fastcore_error = f"{type(exc).__name__}: {exc}"
    return {
        "workload": workload,
        "seed": seed,
        "kernel_backend": smbmm.kernel_backend,
        "fastcore_import_error": fastcore_error,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Checked runs of one benchmark run, and the (q, K, N, variant) seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.params = Counter()

    def add(self, chk):
        self.attempted += chk.attempted
        self.failed += chk.failed
        self.params[chk.params] += 1


class Clock:
    """Times ops and scales each to the nominal reference speed.

    The reference computation runs after every op (and once before the
    first), outside the timed region; an op's scale factor uses the
    mean of the two references around it.
    """

    def __init__(self):
        gc.collect()
        self.ref = reference_s()
        self.refs = [self.ref]

    def op(self, wl, op_seed, tally, runner=None):
        """Run, time and check one op; returns (scaled s, raw s, verified elements, scale)."""
        from workloads import check

        arg = wl.make(op_seed)
        before = self.ref
        t0 = time.perf_counter()
        try:
            records = runner(wl.run, arg) if runner else wl.run(arg)
        except Exception as exc:  # counted as a failed op; the run goes on
            records = None
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0
        chk = check(records, wl.runs_per_op)
        tally.add(chk)
        gc.collect()
        self.ref = reference_s()
        self.refs.append(self.ref)
        scale = NOMINAL_S / ((before + self.ref) / 2)
        return dt * scale, dt, chk.out_elems, scale


def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_probe(workload, seed, tally):
    """import smbmm plus one cold op, in a fresh interpreter; scaled seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(LIB), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: setup probe failed")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.attempted += out["attempted"]
    tally.failed += out["failed"]
    return out["setup_s"]


def measure(wl, seed, seconds):
    from workloads import op_seeds

    tally = Tally()
    clock = Clock()
    clock.op(wl, next(op_seeds(wl.name, seed, "warmup")), tally)
    probe_seeds = op_seeds(wl.name, seed, "setup")
    setups = [setup_probe(wl.name, next(probe_seeds), tally) for _ in range(SETUP_PROBES)]

    scaled, raw, elems = [], [], 0
    seeds = op_seeds(wl.name, seed, "timed")
    while sum(raw) < seconds:
        t, dt, n, _ = clock.op(wl, next(seeds), tally)
        scaled.append(t)
        raw.append(dt)
        elems += n
    metrics = {
        "run_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "run_ms_tail": (percentile(scaled, wl.tail_percentile) * 1e3, "ms"),
        "out_elems_per_s": (elems / sum(scaled), "1/s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "samples": len(scaled),
        "tail_percentile": wl.tail_percentile,
        "fail_ratio": tally.failed / tally.attempted,
        "raw_run_ms_p50": statistics.median(raw) * 1e3,
        "raw_setup_s": [r for _, r in setups],
        "reference_ms_median": statistics.median(clock.refs) * 1e3,
    }
    return tally, metrics, notes


def measure_traced(wl, seed, seconds):
    from tracing import Trace, TraceCheckError
    from workloads import op_seeds

    tally = Tally()
    clock = Clock()
    clock.op(wl, next(op_seeds(wl.name, seed, "warmup")), tally)

    seeds = op_seeds(wl.name, seed, "timed")
    plain, traced, per_op, dumps = [], [], [], []
    first, elapsed = None, 0.0
    while elapsed < seconds or not traced:
        op_seed = next(seeds)
        if len(plain) <= len(traced):
            t, dt, _, _ = clock.op(wl, op_seed, tally)
            plain.append(t)
            elapsed += dt
            continue
        tr = Trace()
        t, dt, _, scale = clock.op(wl, op_seed, tally, runner=tr.op)
        elapsed += dt
        tr.check(wl.runs_per_op)
        traced.append(t)
        per_op.append(tr.metrics(scale))
        dumps.append(tr.dump())
        if first is None:
            first = op_seed

    replay = Trace()
    _, _, _, scale = clock.op(wl, first, tally, runner=replay.op)
    replay.check(wl.runs_per_op)
    again = replay.metrics(scale)
    counts = {k: v for k, v in per_op[0].items() if not k.endswith(".ms")}
    differ = {k: (v, again[k]) for k, v in counts.items() if again[k] != v}
    if differ:
        raise TraceCheckError(f"traced counts differ on a replay of the same op: {differ}")

    report = {k: (v if k in counts else statistics.median(m[k] for m in per_op), unit_of(k))
              for k, v in per_op[0].items()}
    report["trace_overhead_ms"] = (
        (statistics.median(traced) - statistics.median(plain)) * 1e3, "ms")
    metrics = {k: report[k] for k in PER_LAYER + ("trace_overhead_ms",)}
    notes = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "run_ms_p50_traced": statistics.median(traced) * 1e3,
        "run_ms_p50_untraced": statistics.median(plain) * 1e3,
        "counts_from": "first traced op, replayed once; ms figures are medians over traced ops",
        "ops_and_bytes": "computed from argument sizes, 8-byte words; not measured",
        "fail_ratio": tally.failed / tally.attempted,
        "trace": {k: v for k, (v, _u) in sorted(report.items())},
    }
    out = BUILD / "perfbench" / f"trace-{wl.name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": wl.name, "seed": seed, "ops": dumps}))
    notes["trace_file"] = str(out.relative_to(ROOT))
    return tally, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    build()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    prov = provenance(wl.name, args.seed)
    run = measure_traced if args.trace else measure
    tally, metrics, notes = run(wl, args.seed, args.seconds)
    prov["ops"] = [
        {"count": n, "runs": [dict(zip(("q", "K", "N", "variant"), p)) if p else None
                              for p in params]}
        for params, n in sorted(tally.params.items(), key=lambda kv: -kv[1])
    ]

    print("provenance " + json.dumps(prov))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
