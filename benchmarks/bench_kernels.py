"""Benchmark the compiled kernels against the pure-Python fallback.

Times the three hot paths (GF(q) matmul, cached-LU solve, encoder axpy)
and one full batch-protocol run per backend, and the pure-Python
product oracle (``matrix.matmul_oracle``) at the same matmul size, so
the cost of checking a product shows next to the cost of computing it.

    python benchmarks/bench_kernels.py [--q 1009] [--repeat 3]
"""

import argparse
import random
import time

from smbmm._kernels import pure

try:
    from smbmm._kernels import _fastcore as fast
except ImportError:
    fast = None


def _time(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(q, repeat):
    rnd = random.Random(42)
    n = 96
    a = [rnd.randrange(q) for _ in range(n * n)]
    b = [rnd.randrange(q) for _ in range(n * n)]
    rhs = [rnd.randrange(q) for _ in range(n)]
    vec = [rnd.randrange(q) for _ in range(4096)]
    dst = [0] * 4096

    rows = []
    for name, mod in [("pure", pure)] + ([("compiled", fast)] if fast else []):
        t_mm = _time(lambda: mod.matmul_mod(a, b, n, n, n, q), repeat)
        lu = mod.lu_factor_mod(a, n, q)
        t_lu = _time(lambda: mod.lu_factor_mod(a, n, q), repeat)
        t_solve = _time(
            lambda: [mod.lu_solve_mod(*lu, n, rhs, q) for _ in range(64)], repeat
        )
        t_axpy = _time(
            lambda: [mod.axpy_mod(dst, vec, 17, q) for _ in range(200)], repeat
        )
        rows.append((name, t_mm, t_lu, t_solve, t_axpy))
    return n, rows, bench_oracle(a, b, n, q, repeat)


def bench_oracle(a, b, n, q, repeat):
    from smbmm.field import FieldConfig
    from smbmm.matrix import BlockMatrix, matmul_oracle

    field = FieldConfig(q)
    ma, mb = BlockMatrix(n, n, a, field), BlockMatrix(n, n, b, field)
    return _time(lambda: matmul_oracle(ma, mb), repeat)


def bench_protocol(repeat):
    from smbmm.batch import (
        SmbmmParams, decode_smbmm, encode_smbmm,
        gen_common_randomness, server_compute_smbmm,
    )
    from smbmm.matrix import random_matrix
    from smbmm.rng import Stream

    params = SmbmmParams.make(2, 3, 2, 2, 3, 2, 2, n_servers=85, q=1009, variant="a")
    st = Stream(7)
    batch_a = [random_matrix(12, 12, params.field, st.derive(f"A{i}")) for i in range(4)]
    batch_b = [random_matrix(12, 12, params.field, st.derive(f"B{i}")) for i in range(4)]

    def full_run():
        shares = encode_smbmm(batch_a, batch_b, params, noise_seed=3)
        cr = gen_common_randomness(params, 4, (6, 6))
        responses = [server_compute_smbmm(s, cr, params) for s in shares]
        decode_smbmm(responses[: params.threshold], params)

    return _time(full_run, repeat)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=int, default=1009)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    n, rows, t_oracle = bench_kernels(args.q, args.repeat)
    print(f"kernel benchmarks, q={args.q}, {n}x{n} systems (best of {args.repeat}):")
    print(f"{'backend':<10} {'matmul':>10} {'lu_factor':>10} {'64 solves':>10} {'200 axpy':>10}")
    for name, t_mm, t_lu, t_solve, t_axpy in rows:
        print(f"{name:<10} {t_mm*1e3:>9.2f}ms {t_lu*1e3:>9.2f}ms "
              f"{t_solve*1e3:>9.2f}ms {t_axpy*1e3:>9.2f}ms")
    if len(rows) == 2:
        speedups = [p / c for p, c in zip(rows[0][1:], rows[1][1:])]
        print("speedup    " + " ".join(f"{s:>9.1f}x" for s in speedups))
    else:
        print("(compiled backend not built; showing pure only)")
    print(f"{'oracle':<10} {t_oracle*1e3:>9.2f}ms  (matmul_oracle, pure Python, any backend)")

    t = bench_protocol(args.repeat)
    from smbmm import kernel_backend
    print(f"\nfull batch run (K=76, N=85, 12x12 data), {kernel_backend} backend: {t*1e3:.1f} ms")


if __name__ == "__main__":
    main()
