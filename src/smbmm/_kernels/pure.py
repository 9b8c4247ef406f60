"""Pure-Python GF(q) kernels.

Reference implementations of the hot inner loops. The compiled module
``_fastcore``, built from the hand-written ``_fastcore.c``, exports the
same four functions with identical semantics; ``smbmm._kernels`` picks
one at import time. Everything works on flat row-major lists of
canonical residues and arbitrary 64-bit prime q. An operand whose
length does not match its shape raises ValueError in both modules.
"""

from operator import mul


def _check_length(name, seq, size):
    if len(seq) != size:
        raise ValueError(f"{name} has length {len(seq)}, its shape needs {size}")


def matmul_mod(a, b, n, k, m, q):
    """(n x k) @ (k x m) over GF(q), flat row-major operands and result.

    Each entry is one exact dot product of a row with a pre-sliced
    column, reduced once.
    """
    _check_length("a", a, n * k)
    _check_length("b", b, k * m)
    cols = [b[j::m] for j in range(m)]
    out = []
    for i in range(n):
        row = a[i * k : (i + 1) * k]
        out.extend(sum(map(mul, row, col)) % q for col in cols)
    return out


def axpy_mod(dst, src, c, q):
    """dst += c * src (elementwise, in place)."""
    _check_length("src", src, len(dst))
    if c:
        for i in range(len(dst)):
            dst[i] = (dst[i] + c * src[i]) % q


def lu_factor_mod(a, n, q):
    """PA = LU with the first nonzero entry of each column as pivot.

    Returns (lu, perm, dinv): packed L (unit diagonal implicit) and U,
    the row permutation, and the inverses of U's diagonal. Raises
    ZeroDivisionError when the matrix is singular.
    """
    _check_length("a", a, n * n)
    lu = [v % q for v in a]
    perm = list(range(n))
    dinv = [0] * n
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if lu[r * n + col]:
                piv = r
                break
        if piv < 0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            pr, cr = piv * n, col * n
            for j in range(n):
                lu[pr + j], lu[cr + j] = lu[cr + j], lu[pr + j]
            perm[piv], perm[col] = perm[col], perm[piv]
        inv_p = pow(lu[col * n + col], q - 2, q)
        dinv[col] = inv_p
        crow = col * n
        for r in range(col + 1, n):
            f = lu[r * n + col]
            if f:
                f = f * inv_p % q
                lu[r * n + col] = f
                rrow = r * n
                for j in range(col + 1, n):
                    lu[rrow + j] = (lu[rrow + j] - f * lu[crow + j]) % q
    return lu, perm, dinv


def lu_solve_mod(lu, perm, dinv, n, rhs, q):
    """Solve L U x = P rhs for one column."""
    _check_length("lu", lu, n * n)
    for name, seq in (("perm", perm), ("dinv", dinv), ("rhs", rhs)):
        _check_length(name, seq, n)
    x = [rhs[perm[i]] for i in range(n)]
    for i in range(1, n):
        s = x[i]
        row = i * n
        for j in range(i):
            s -= lu[row + j] * x[j]
        x[i] = s % q
    for i in range(n - 1, -1, -1):
        s = x[i]
        row = i * n
        for j in range(i + 1, n):
            s -= lu[row + j] * x[j]
        x[i] = s % q * dinv[i] % q
    return x
