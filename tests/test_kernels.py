"""Parity between the pure-Python and compiled kernel backends.

The compiled module is built from the shipped ``_fastcore.c`` into a
temporary directory, so nothing is written into the source tree. These
tests run wherever a C compiler exists and skip, with the compiler's
output, only where that build fails. Everything else runs against
whichever backend was selected at import.
"""

import importlib.util
import random
import subprocess
import sys
from pathlib import Path

import pytest

from smbmm import _kernels
from smbmm._kernels import pure
from smbmm.batch import (
    SmbmmParams,
    decode_smbmm,
    encode_smbmm,
    gen_common_randomness,
    server_compute_smbmm,
)
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
    sites = {
        "random_matrix": [rnd],
        "matmul": [top.matmul(rnd), top.matmul(BlockMatrix(6, 2, [q - 1] * 12, fld))],
        "matmul_oracle": [matmul_oracle(top, rnd)],
        "partition": [blk for row in partition(top, 2, 3) for blk in row],
        "assemble": [assemble(partition(rnd, 3, 2))],
        "eval_stack": eval_stack([[q - 1] * 2, [1, q - 1]], [top, top], 4, 6, fld),
        "solve_stack": solve_stack(system, used, [0, 2]),
    }
    for site, mats in sites.items():
        for mat in mats:
            assert all(type(v) is int and 0 <= v < q for v in mat.data), site
