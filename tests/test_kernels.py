"""Parity between the pure-Python and compiled kernel backends.

The compiled module is built from the shipped ``_fastcore.c`` into a
temporary directory, so nothing is written into the source tree. These
tests run wherever a C compiler exists and skip, with the compiler's
output, only where that build fails. Everything else runs against
whichever backend was selected at import.
"""

import importlib.util
import os
import random
import re
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from smbmm import _kernels
from smbmm._kernels import pure
from smbmm.batch import (
    CommonRandomness,
    SmbmmParams,
    decode_smbmm,
    encode_smbmm,
    eval_noise_poly,
    gen_common_randomness,
    server_compute_smbmm,
)
from smbmm.errors import ShapeError
from smbmm.field import FieldConfig, SquareSystem
from smbmm.matrix import BlockMatrix, assemble, matmul_oracle, partition, random_matrix
from smbmm.rng import Stream
from smbmm.ssmm import (
    SsmmParams,
    SsmmResponse,
    decode_ssmm,
    encode_ssmm,
    eval_stack,
    server_compute_ssmm,
    solve_stack,
)

from oracles import matmul_loops

SOURCE = Path(__file__).resolve().parents[1] / "src" / "smbmm" / "_kernels" / "_fastcore.c"
MODULI = [5, 101, 257, 7919, (1 << 61) - 1, 18446744073709551557]
Q64 = 2**64 - 59
# both sides of the u64-accumulator limit: 4294967291 is the largest
# prime below 2**32, 4294967311 the smallest above it
CHUNK_MODULI = [2**31 - 1, 4294967291, 4294967311, Q64]
KERNELS = ("matmul_mod", "axpy_mod", "lu_factor_mod", "lu_solve_mod")

_BUILD = """
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

ext = Extension("smbmm._kernels._fastcore", [sys.argv[1]])
cmd = build_ext(Distribution({"ext_modules": [ext]}))
cmd.build_lib = cmd.build_temp = sys.argv[2]
cmd.ensure_finalized()
cmd.run()
print(cmd.get_ext_fullpath(ext.name))
"""


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    """_fastcore compiled from the shipped C source into a temporary directory."""
    if not SOURCE.is_file():
        pytest.skip(f"no C source at {SOURCE}")
    out = tmp_path_factory.mktemp("fastcore")
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD, str(SOURCE), str(out)],
        cwd=out, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        pytest.skip(f"_fastcore.c does not build here:\n{proc.stdout}{proc.stderr}")
    path = proc.stdout.strip().splitlines()[-1]
    spec = importlib.util.spec_from_file_location("smbmm._kernels._fastcore", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_kernels(fast, monkeypatch):
    """Route every protocol kernel call through the compiled functions."""
    for name in KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(fast, name))


@pytest.fixture(params=["pure", "compiled"])
def either_kernels(request, monkeypatch):
    """Route every kernel call through one backend, then the other."""
    impl = pure if request.param == "pure" else request.getfixturevalue("fast")
    for name in KERNELS:
        monkeypatch.setattr(_kernels, name, getattr(impl, name))


def test_backend_selected():
    assert _kernels.backend in ("pure", "compiled")


@pytest.mark.parametrize("q", MODULI)
def test_matmul_parity(fast, q):
    rnd = random.Random(q)
    for _ in range(6):
        n, k, m = rnd.randint(1, 7), rnd.randint(1, 7), rnd.randint(1, 7)
        a = [rnd.randrange(q) for _ in range(n * k)]
        b = [rnd.randrange(q) for _ in range(k * m)]
        assert pure.matmul_mod(a, b, n, k, m, q) == fast.matmul_mod(a, b, n, k, m, q)


# the noise polynomial (1 x K @ K x block) and one encoder side
# (N x T @ T x block) of the worked batch run at 48x48 data
@pytest.mark.parametrize("shape", [(1, 76, 576), (85, 14, 384)])
@pytest.mark.parametrize("q", [1009, Q64])
def test_matmul_parity_protocol_shapes(fast, q, shape):
    n, k, m = shape
    rnd = random.Random(n * k * m + q)
    a = [rnd.randrange(q) for _ in range(n * k)]
    b = [rnd.randrange(q) for _ in range(k * m)]
    expect = matmul_loops(a, b, n, k, m, q)
    assert pure.matmul_mod(a, b, n, k, m, q) == expect
    assert fast.matmul_mod(a, b, n, k, m, q) == expect


@pytest.mark.parametrize("q", MODULI)
def test_axpy_parity(fast, q):
    rnd = random.Random(q + 1)
    for _ in range(6):
        d1 = [rnd.randrange(q) for _ in range(9)]
        d2 = list(d1)
        s = [rnd.randrange(q) for _ in range(9)]
        c = rnd.randrange(q)
        pure.axpy_mod(d1, s, c, q)
        fast.axpy_mod(d2, s, c, q)
        assert d1 == d2


@pytest.mark.parametrize("q", MODULI)
def test_lu_parity_and_correctness(fast, q):
    rnd = random.Random(q + 2)
    solved = 0
    while solved < 5:
        n = rnd.randint(1, 9)
        mat = [rnd.randrange(q) for _ in range(n * n)]
        try:
            lu1 = pure.lu_factor_mod(mat, n, q)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                fast.lu_factor_mod(mat, n, q)
            continue
        lu2 = fast.lu_factor_mod(mat, n, q)
        assert all(list(x) == list(y) for x, y in zip(lu1, lu2))
        rhs = [rnd.randrange(q) for _ in range(n)]
        x1 = pure.lu_solve_mod(*lu1, n, rhs, q)
        assert x1 == fast.lu_solve_mod(*lu2, n, rhs, q)
        # check against the original system
        assert [sum(mat[i * n + j] * x1[j] for j in range(n)) % q
                for i in range(n)] == rhs
        solved += 1


def test_lu_singular_raises(fast):
    mat = [1, 2, 2, 4]
    with pytest.raises(ZeroDivisionError):
        pure.lu_factor_mod(mat, 2, 7)
    with pytest.raises(ZeroDivisionError):
        fast.lu_factor_mod(mat, 2, 7)


def test_worked_ssmm_run_on_compiled_kernels(compiled_kernels):
    params = SsmmParams.make(2, 3, 2, 2, 3, 30, Q64, variant="a")
    st = Stream(7)
    a = random_matrix(12, 12, params.field, st.derive("A"))
    b = random_matrix(12, 12, params.field, st.derive("B"))
    shares = encode_ssmm(a, b, params, st.derive("noise").next_u64())
    responses = [server_compute_ssmm(s) for s in shares[5:]]
    assert decode_ssmm(responses, params) == matmul_oracle(a, b)


def test_worked_smbmm_run_on_compiled_kernels(compiled_kernels):
    params = SmbmmParams.make(2, 3, 2, 2, 3, 2, 2, 85, 1009, variant="a")
    st = Stream(8)
    batch_a = [random_matrix(12, 12, params.field, st.derive(f"A/{i}")) for i in range(4)]
    batch_b = [random_matrix(12, 12, params.field, st.derive(f"B/{i}")) for i in range(4)]
    shares = encode_smbmm(batch_a, batch_b, params, st.derive("noise").next_u64())
    cr = gen_common_randomness(params, st.derive("cr").next_u64(), (6, 6))
    responses = [server_compute_smbmm(s, cr, params) for s in shares[9:]]
    assert decode_smbmm(responses, params) == [
        matmul_oracle(a, b) for a, b in zip(batch_a, batch_b)
    ]


@pytest.mark.parametrize("q", [5, 1009, Q64])
def test_unreduced_construction_sites_return_residues(either_kernels, q):
    # every site that wraps its list without the constructor's v % q
    # pass must still hand out entries in [0, q); all-(q - 1) operands
    # give the largest sums
    fld = FieldConfig(q)
    top = BlockMatrix(4, 6, [q - 1] * 24, fld)
    rnd = random_matrix(6, 4, fld, Stream(q))
    xs = [1, 2, q - 1]
    system = SquareSystem(fld, [[pow(x, c, q) for c in range(3)] for x in xs])
    used = [SsmmResponse(i, BlockMatrix(2, 2, [q - 1, 0, i, q - 1], fld)) for i in range(3)]
    small = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 1, q, sharing_only=True)
    top_cr = CommonRandomness(small, (BlockMatrix(2, 2, [q - 1] * 4, fld),) * small.threshold)
    sites = {
        "random_matrix": [rnd],
        "matmul": [top.matmul(rnd), top.matmul(BlockMatrix(6, 2, [q - 1] * 12, fld))],
        "matmul_oracle": [matmul_oracle(top, rnd)],
        "partition": [blk for row in partition(top, 2, 3) for blk in row],
        "assemble": [assemble(partition(rnd, 3, 2))],
        "eval_stack": eval_stack([[q - 1] * 2, [1, q - 1]], [top, top], 4, 6, fld),
        "solve_stack": solve_stack(system, used, [0, 2]),
        "eval_noise_poly": [eval_noise_poly(top_cr, small, small.alphas[0])],
    }
    for site, mats in sites.items():
        for mat in mats:
            assert all(type(v) is int and 0 <= v < q for v in mat.data), site


def _chunk(q):
    """Terms the compiled matmul_mod adds between reductions: u64 row
    accumulators below 2**32, else a u128 sum until it wraps."""
    if q < 2**32:
        return (2**64 - 1 - (q - 1)) // (q - 1) ** 2
    return (2**128 - 1) // (q - 1) ** 2


def _chunk_lengths(q):
    # one chunk, one past it, and two and three chunks plus one; the
    # u128 chunk just above 2**32 is about 2**64, so it is capped
    c = min(_chunk(q), 8)
    return sorted({*range(1, c + 2), 2 * c + 1, 3 * c + 1})


def test_chunk_lengths_at_the_edges():
    assert _chunk(2**31 - 1) == 4
    assert _chunk(4294967291) == 1
    assert _chunk(Q64) == 1


@pytest.mark.parametrize("q", CHUNK_MODULI)
def test_matmul_chunk_edges(fast, q):
    rnd = random.Random(q)
    for k in _chunk_lengths(q):
        top = ([q - 1] * 3 * k, [q - 1] * k * 5)
        rand = ([rnd.randrange(q) for _ in range(3 * k)], [rnd.randrange(q) for _ in range(k * 5)])
        for a, b in (top, rand):
            expect = matmul_loops(a, b, 3, k, 5, q)
            assert pure.matmul_mod(a, b, 3, k, 5, q) == expect, k
            assert fast.matmul_mod(a, b, 3, k, 5, q) == expect, k


@pytest.mark.parametrize("q", CHUNK_MODULI)
def test_lu_solve_chunk_edges(fast, q):
    # lu_solve_mod is a plain triangular solve, so any packed L\U works;
    # row i of the back substitution is a dot product of n - 1 - i terms
    rnd = random.Random(q + 3)
    for n in [k + 1 for k in _chunk_lengths(q)]:
        perm = list(range(n))
        rnd.shuffle(perm)
        top = ([q - 1] * n * n, [q - 1] * n, [q - 1] * n)
        rand = (
            [rnd.randrange(q) for _ in range(n * n)],
            [rnd.randrange(1, q) for _ in range(n)],
            [rnd.randrange(q) for _ in range(n)],
        )
        for lu, dinv, rhs in (top, rand):
            expect = pure.lu_solve_mod(lu, perm, dinv, n, rhs, q)
            assert fast.lu_solve_mod(lu, perm, dinv, n, rhs, q) == expect, n


def _worked_smbmm_shares():
    params = SmbmmParams.make(2, 3, 2, 2, 3, 2, 2, 85, 1009, variant="a")
    st = Stream(8)
    batch_a = [random_matrix(12, 12, params.field, st.derive(f"A/{i}")) for i in range(4)]
    batch_b = [random_matrix(12, 12, params.field, st.derive(f"B/{i}")) for i in range(4)]
    return params, encode_smbmm(batch_a, batch_b, params, 3)


def test_mismatched_common_randomness_raises(either_kernels):
    params, shares = _worked_smbmm_shares()
    other = SmbmmParams.make(2, 3, 2, 1, 1, 2, 2, 85, 1009, variant="a")
    assert (params.threshold, other.threshold) == (76, 69)
    with pytest.raises(ShapeError, match="69 masks"):
        server_compute_smbmm(shares[0], gen_common_randomness(other, 4, (6, 6)), params)
    with pytest.raises(ShapeError, match="mask blocks are 6x4"):
        server_compute_smbmm(shares[0], gen_common_randomness(params, 4, (6, 4)), params)


# each operand one entry short or long of its shape
WRONG_LENGTHS = [
    ("matmul_mod", ([1, 2, 3], [1, 2], 2, 2, 1, 7)),
    ("matmul_mod", ([1, 2, 3, 4, 5], [1, 2], 2, 2, 1, 7)),
    ("matmul_mod", ([1, 2, 3, 4], [1], 2, 2, 1, 7)),
    ("matmul_mod", ([1], [1], 500, 500, 500, 7)),
    ("lu_factor_mod", ([1, 2, 3], 2, 7)),
    ("lu_solve_mod", ([1, 0, 0], [0, 1], [1, 1], 2, [1, 2], 7)),
    ("lu_solve_mod", ([1, 0, 0, 1], [0], [1, 1], 2, [1, 2], 7)),
    ("lu_solve_mod", ([1, 0, 0, 1], [0, 1], [1], 2, [1, 2], 7)),
    ("lu_solve_mod", ([1, 0, 0, 1], [0, 1], [1, 1], 2, [1], 7)),
    ("axpy_mod", ([1, 2], [1], 3, 7)),
]

_CALL_WRONG = """
import ast, importlib.util, sys
spec = importlib.util.spec_from_file_location("smbmm._kernels._fastcore", sys.argv[1])
fast = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fast)
for name, args in ast.literal_eval(sys.argv[2]):
    try:
        getattr(fast, name)(*args)
    except ValueError:
        continue
    sys.exit(f"{name}{args} did not raise ValueError")
print("ok")
"""


@pytest.mark.parametrize("name, args", WRONG_LENGTHS)
def test_pure_kernels_reject_wrong_lengths(name, args):
    with pytest.raises(ValueError):
        getattr(pure, name)(*args)


def test_compiled_kernels_reject_wrong_lengths(fast):
    # in a child process, so that a read past a buffer fails this test
    # instead of killing pytest; an out-of-range permutation entry too
    cases = WRONG_LENGTHS + [("lu_solve_mod", ([1, 0, 0, 1], [2, 0], [1, 1], 2, [1, 2], 7))]
    proc = subprocess.run(
        [sys.executable, "-c", _CALL_WRONG, fast.__file__, repr(cases)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stderr


def test_fastcore_compiles_without_warnings(tmp_path):
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    try:
        version = subprocess.run(
            [*cc, "--version"], capture_output=True, text=True, timeout=60
        ).stdout
    except OSError:
        version = ""
    if not re.search(r"gcc|clang|Free Software Foundation", version, re.IGNORECASE):
        pytest.skip(f"the configured compiler {cc[0]!r} is not gcc or clang")
    includes = {sysconfig.get_paths()["include"], sysconfig.get_paths()["platinclude"]}
    proc = subprocess.run(
        [*cc, "-O2", "-Wall", "-Wextra", "-Werror", "-fPIC",
         *(f"-I{path}" for path in sorted(includes)),
         "-c", str(SOURCE), "-o", str(tmp_path / "_fastcore.o")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
