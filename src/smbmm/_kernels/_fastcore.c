/*
 * Compiled GF(q) kernels: the same four functions, signatures and
 * results as smbmm/_kernels/pure.py.
 *
 * Operands are flat row-major sequences of ints. They are copied into
 * u64 buffers, reduced into [0, q) on the way in, and every loop then
 * runs on those buffers with the GIL released. Any modulus
 * 2 <= q < 2**64 is exact. The wide products need unsigned __int128
 * (gcc or clang on a 64-bit target); where that is missing the build
 * fails and setup.py falls back to the pure kernels.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h> /* also brings in limits.h, stdlib.h and string.h */
#include <stdint.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

/* Where unsigned long is 64 bits, its conversions are the fast ones:
   PyLong_AsUnsignedLongLong takes a byte-array path on some versions. */
#if ULONG_MAX == UINT64_MAX
#define AS_U64 PyLong_AsUnsignedLong
#define FROM_U64 PyLong_FromUnsignedLong
#else
#define AS_U64 PyLong_AsUnsignedLongLong
#define FROM_U64 PyLong_FromUnsignedLongLong
#endif

#define SMALL_Q 0xFFFFFFFFu /* up to here (q - 1)**2 fits in a u64 */

static inline u64 mulmod(u64 a, u64 b, u64 q) {
    return q <= SMALL_Q ? a * b % q : (u64)((u128)a * b % q);
}

static inline u64 submod(u64 a, u64 b, u64 q) {
    return a >= b ? a - b : a + (q - b);
}

static inline u64 addmod(u64 a, u64 b, u64 q) {
    return a >= q - b ? a - (q - b) : a + b;
}

static u64 powmod(u64 a, u64 e, u64 q) {
    u64 r = 1 % q;
    while (e) {
        if (e & 1)
            r = mulmod(r, a, q);
        a = mulmod(a, a, q);
        e >>= 1;
    }
    return r;
}

/* 2**128 mod q: what one wrap of a u128 accumulator is worth. */
static u64 wrap_weight(u64 q) {
    u64 r64 = (UINT64_MAX % q + 1) % q;
    return mulmod(r64, r64, q);
}

/* sum_t a[t] * b[t] mod q with one reduction: a u128 sum plus a count
   of its wraps, folded in at the end. */
static u64 dot_mod(const u64 *a, const u64 *b, Py_ssize_t k, u64 q, u64 wrap) {
    u128 s = 0;
    u64 wraps = 0;
    for (Py_ssize_t t = 0; t < k; t++) {
        u128 p = (u128)a[t] * b[t];
        s += p;
        wraps += s < p;
    }
    return (u64)(((u128)wraps * wrap + s % q) % q);
}

/* a * b as a Py_ssize_t element count whose u64 buffer size fits. */
static int count(Py_ssize_t a, Py_ssize_t b, Py_ssize_t *out) {
    if (a < 0 || b < 0 || (a && b > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(u64) / a)) {
        PyErr_Format(PyExc_ValueError, "bad operand shape %zd x %zd", a, b);
        return -1;
    }
    *out = a * b;
    return 0;
}

static void *alloc(Py_ssize_t n) {
    void *p = malloc(n > 0 ? (size_t)n * sizeof(u64) : 1);
    if (!p)
        PyErr_NoMemory();
    return p;
}

static int parse_q(PyObject *obj, u64 *q) {
    *q = AS_U64(obj);
    if (*q == (u64)-1 && PyErr_Occurred())
        return -1;
    if (*q < 2) {
        PyErr_SetString(PyExc_ValueError, "modulus must be at least 2");
        return -1;
    }
    return 0;
}

/* Copy exactly `size` ints from `seq` into a new buffer. Entries at or
   above `bound` are reduced mod `bound`, or rejected when !reduce. */
static u64 *load(PyObject *seq, Py_ssize_t size, u64 bound, int reduce, const char *name) {
    PyObject *fast = PySequence_Fast(seq, "kernel operands must be sequences");
    u64 *buf = NULL;
    if (!fast)
        return NULL;
    if (PySequence_Fast_GET_SIZE(fast) != size) {
        PyErr_Format(PyExc_ValueError, "%s has length %zd, its shape needs %zd",
                     name, PySequence_Fast_GET_SIZE(fast), size);
        goto fail;
    }
    if (!(buf = alloc(size)))
        goto fail;
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < size; i++) {
        u64 v = AS_U64(items[i]);
        if (v == (u64)-1 && PyErr_Occurred())
            goto fail;
        if (v >= bound) {
            if (!reduce) {
                PyErr_Format(PyExc_ValueError, "%s[%zd] is out of range", name, i);
                goto fail;
            }
            v %= bound;
        }
        buf[i] = v;
    }
    Py_DECREF(fast);
    return buf;
fail:
    free(buf);
    Py_DECREF(fast);
    return NULL;
}

static PyObject *to_list(const u64 *buf, Py_ssize_t size) {
    PyObject *out = PyList_New(size);
    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *v = FROM_U64(buf[i]);
        if (!v) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* q < 2**32: row i of C accumulates in place as u64s (i-t-j order) and
   is reduced only after every `chunk` terms, the most that fit. */
static void matmul_small(const u64 *a, const u64 *b, u64 *c,
                         Py_ssize_t n, Py_ssize_t k, Py_ssize_t m, u64 q) {
    u64 chunk = (UINT64_MAX - (q - 1)) / ((q - 1) * (q - 1));
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 *row = c + i * m, pending = 0;
        memset(row, 0, (size_t)m * sizeof(u64));
        for (Py_ssize_t t = 0; t < k; t++) {
            u64 av = a[i * k + t];
            const u64 *brow = b + t * m;
            if (!av)
                continue;
            if (pending == chunk) {
                for (Py_ssize_t j = 0; j < m; j++)
                    row[j] %= q;
                pending = 0;
            }
            for (Py_ssize_t j = 0; j < m; j++)
                row[j] += av * brow[j];
            pending++;
        }
        for (Py_ssize_t j = 0; j < m; j++)
            row[j] %= q;
    }
}

/* q >= 2**32: each entry is one dot_mod of a row of A with a row of
   bt, the transpose of B. */
static void matmul_wide(const u64 *a, const u64 *b, u64 *bt, u64 *c,
                        Py_ssize_t n, Py_ssize_t k, Py_ssize_t m, u64 q) {
    u64 wrap = wrap_weight(q);
    for (Py_ssize_t t = 0; t < k; t++)
        for (Py_ssize_t j = 0; j < m; j++)
            bt[j * k + t] = b[t * m + j];
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = 0; j < m; j++)
            c[i * m + j] = dot_mod(a + i * k, bt + j * k, k, q, wrap);
}

static PyObject *matmul_mod(PyObject *Py_UNUSED(self), PyObject *args) {
    PyObject *a_obj, *b_obj, *q_obj, *out = NULL;
    Py_ssize_t n, k, m, nk, km, nm;
    u64 q, *a = NULL, *b = NULL, *bt = NULL, *c = NULL;
    if (!PyArg_ParseTuple(args, "OOnnnO:matmul_mod", &a_obj, &b_obj, &n, &k, &m, &q_obj)
        || parse_q(q_obj, &q) < 0 || count(n, k, &nk) < 0 || count(k, m, &km) < 0
        || count(n, m, &nm) < 0)
        return NULL;
    if (!(a = load(a_obj, nk, q, 1, "a")) || !(b = load(b_obj, km, q, 1, "b"))
        || !(c = alloc(nm)) || (q > SMALL_Q && !(bt = alloc(km))))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    if (q <= SMALL_Q)
        matmul_small(a, b, c, n, k, m, q);
    else
        matmul_wide(a, b, bt, c, n, k, m, q);
    Py_END_ALLOW_THREADS
    out = to_list(c, nm);
done:
    free(a), free(b), free(bt), free(c);
    return out;
}

static PyObject *axpy_mod(PyObject *Py_UNUSED(self), PyObject *args) {
    PyObject *dst, *src_obj, *c_obj, *q_obj;
    u64 q, c, *src;
    if (!PyArg_ParseTuple(args, "O!OOO:axpy_mod", &PyList_Type, &dst, &src_obj, &c_obj, &q_obj)
        || parse_q(q_obj, &q) < 0)
        return NULL;
    c = AS_U64(c_obj);
    if (c == (u64)-1 && PyErr_Occurred())
        return NULL;
    c %= q;
    if (!(src = load(src_obj, PyList_GET_SIZE(dst), q, 1, "src")))
        return NULL;
    for (Py_ssize_t i = 0; c && i < PyList_GET_SIZE(dst); i++) {
        u64 d = AS_U64(PyList_GET_ITEM(dst, i));
        PyObject *v;
        if ((d == (u64)-1 && PyErr_Occurred())
            || !(v = FROM_U64(addmod(d % q, mulmod(c, src[i], q), q)))
            || PyList_SetItem(dst, i, v) < 0) {
            free(src);
            return NULL;
        }
    }
    free(src);
    Py_RETURN_NONE;
}

/* PA = LU in place, pivoting on the first nonzero entry of each
   column. Returns -1 when the matrix is singular. */
static int lu_factor(u64 *lu, u64 *perm, u64 *dinv, Py_ssize_t n, u64 q) {
    for (Py_ssize_t col = 0; col < n; col++)
        perm[col] = (u64)col;
    for (Py_ssize_t col = 0; col < n; col++) {
        Py_ssize_t piv = col;
        while (piv < n && !lu[piv * n + col])
            piv++;
        if (piv == n)
            return -1;
        u64 *prow = lu + col * n;
        if (piv != col) {
            u64 *other = lu + piv * n, tmp;
            for (Py_ssize_t j = 0; j < n; j++)
                tmp = other[j], other[j] = prow[j], prow[j] = tmp;
            tmp = perm[piv], perm[piv] = perm[col], perm[col] = tmp;
        }
        u64 inv = powmod(prow[col], q - 2, q);
        dinv[col] = inv;
        for (Py_ssize_t r = col + 1; r < n; r++) {
            u64 *row = lu + r * n;
            if (!row[col])
                continue;
            u64 f = mulmod(row[col], inv, q);
            row[col] = f;
            for (Py_ssize_t j = col + 1; j < n; j++)
                row[j] = submod(row[j], mulmod(f, prow[j], q), q);
        }
    }
    return 0;
}

static PyObject *lu_factor_mod(PyObject *Py_UNUSED(self), PyObject *args) {
    PyObject *a_obj, *q_obj, *out = NULL;
    Py_ssize_t n, nn;
    u64 q, *lu = NULL, *perm = NULL, *dinv = NULL;
    int singular;
    if (!PyArg_ParseTuple(args, "OnO:lu_factor_mod", &a_obj, &n, &q_obj)
        || parse_q(q_obj, &q) < 0 || count(n, n, &nn) < 0)
        return NULL;
    if (!(lu = load(a_obj, nn, q, 1, "a")) || !(perm = alloc(n)) || !(dinv = alloc(n)))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    singular = lu_factor(lu, perm, dinv, n, q);
    Py_END_ALLOW_THREADS
    if (singular) {
        PyErr_SetString(PyExc_ZeroDivisionError, "singular matrix");
    } else {
        PyObject *l = to_list(lu, nn), *p = to_list(perm, n), *d = to_list(dinv, n);
        if (l && p && d)
            out = PyTuple_Pack(3, l, p, d);
        Py_XDECREF(l); Py_XDECREF(p); Py_XDECREF(d);
    }
done:
    free(lu), free(perm), free(dinv);
    return out;
}

static PyObject *lu_solve_mod(PyObject *Py_UNUSED(self), PyObject *args) {
    PyObject *lu_obj, *perm_obj, *dinv_obj, *rhs_obj, *q_obj, *out = NULL;
    Py_ssize_t n, nn;
    u64 q, *lu = NULL, *perm = NULL, *dinv = NULL, *rhs = NULL, *x = NULL;
    if (!PyArg_ParseTuple(args, "OOOnOO:lu_solve_mod", &lu_obj, &perm_obj, &dinv_obj, &n,
                          &rhs_obj, &q_obj)
        || parse_q(q_obj, &q) < 0 || count(n, n, &nn) < 0)
        return NULL;
    if (!(lu = load(lu_obj, nn, q, 1, "lu")) || !(perm = load(perm_obj, n, (u64)n, 0, "perm"))
        || !(dinv = load(dinv_obj, n, q, 1, "dinv")) || !(rhs = load(rhs_obj, n, q, 1, "rhs"))
        || !(x = alloc(n)))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    u64 wrap = wrap_weight(q);
    for (Py_ssize_t i = 0; i < n; i++)
        x[i] = submod(rhs[perm[i]], dot_mod(lu + i * n, x, i, q, wrap), q);
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        u64 s = dot_mod(lu + i * n + i + 1, x + i + 1, n - i - 1, q, wrap);
        x[i] = mulmod(submod(x[i], s, q), dinv[i], q);
    }
    Py_END_ALLOW_THREADS
    out = to_list(x, n);
done:
    free(lu), free(perm), free(dinv), free(rhs), free(x);
    return out;
}

static PyMethodDef methods[] = {
    {"matmul_mod", matmul_mod, METH_VARARGS,
     "matmul_mod(a, b, n, k, m, q)\n\n(n x k) @ (k x m) over GF(q), flat row-major operands and result."},
    {"axpy_mod", axpy_mod, METH_VARARGS,
     "axpy_mod(dst, src, c, q)\n\ndst += c * src (elementwise, in place)."},
    {"lu_factor_mod", lu_factor_mod, METH_VARARGS,
     "lu_factor_mod(a, n, q)\n\nPA = LU with first-nonzero pivoting; returns (lu, perm, dinv)."},
    {"lu_solve_mod", lu_solve_mod, METH_VARARGS,
     "lu_solve_mod(lu, perm, dinv, n, rhs, q)\n\nSolve L U x = P rhs for one column."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcore",
    .m_doc = "Compiled GF(q) kernels; same contract as smbmm._kernels.pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__fastcore(void) {
    return PyModule_Create(&module);
}
