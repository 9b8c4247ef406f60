"""Independent reference implementations used as test oracles.

Deliberately naive and separate from the package kernels: plain
Gaussian elimination for rank, schoolbook polynomial arithmetic for
degree bookkeeping, a triple loop for the matrix product. These stay
simple enough to be obviously correct.
"""


def rank_mod(rows, q):
    """Row rank over GF(q) by full Gauss-Jordan elimination."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    rank = 0
    ncols = len(mat[0])
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % q:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [v * inv % q for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % q:
                f = mat[r][col]
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def det_mod(rows, q):
    """Determinant over GF(q) by elimination with row swaps."""
    mat = [list(r) for r in rows]
    n = len(mat)
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if mat[r][col] % q:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det % q
        det = det * mat[col][col] % q
        inv = pow(mat[col][col], q - 2, q)
        for r in range(col + 1, n):
            f = mat[r][col] * inv % q
            if f:
                mat[r] = [(a - f * b) % q for a, b in zip(mat[r], mat[col])]
    return det % q


def poly_mul_scalar(a, b, q):
    """Schoolbook product of coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] = (out[i + j] + av * bv) % q
    return out


def poly_deg(a):
    d = None
    for i, v in enumerate(a):
        if v:
            d = i
    return d


def poly_eval_scalar(a, x, q):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % q
    return acc


def matmul_loops(a, b, n, k, m, q):
    """(n x k) @ (k x m) over GF(q) on flat row-major lists, as the
    textbook triple loop with a reduction after every step."""
    out = [0] * (n * m)
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(k):
                s = (s + a[i * k + t] * b[t * m + j]) % q
            out[i * m + j] = s
    return out
