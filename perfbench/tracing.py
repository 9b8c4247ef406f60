"""Outside-in trace of one op: spans and counters recorded by wrappers.

Nothing in the program is edited. For the duration of one op the public
functions of each layer are replaced, at the module (or class) attribute
where callers look them up, by wrappers that record

* a span (name, start, end, parent span) for each protocol phase, and
* counters (calls, busy ns, and sizes computed from the arguments) for
  the fine-grained calls: kernels, solves, block products, random draws.

Spans and counters live in memory. Each thread keeps its own span stack
and counter table, so pool threads never share a mutable table. A
server span starts on a pool thread with an empty stack; its parent is
the innermost open span of the thread that entered the op, which is the
``run`` span waiting on the pool.

Before any figure is used, :meth:`Trace.check` compares the counts with
closed forms from the run's own config and record, so a wrapper that
misses calls fails loudly.
"""

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns

from smbmm import _kernels, batch, harness, ssmm
from smbmm.field import SquareSystem
from smbmm.matrix import BlockMatrix

WORD = 8  # bytes per field element in the computed byte counts


class TraceCheckError(RuntimeError):
    """A traced count disagrees with its closed form."""


# Work of each kernel computed from its argument sizes (not measured):
# multiply-accumulates, and 8-byte words read plus written.
def _matmul_size(a, b, n, k, m, q):
    return n * k * m, WORD * (n * k + k * m + n * m)


def _axpy_size(dst, src, c, q):
    return len(dst), WORD * 3 * len(dst)


def _lu_factor_size(a, n, q):
    return (n - 1) * n * (2 * n - 1) // 6, WORD * (2 * n * n + 2 * n)


def _lu_solve_size(lu, perm, dinv, n, rhs, q):
    return n * n, WORD * (n * n + 4 * n)


def _random_size(rows, cols, field, stream):
    return (rows * cols,)


KERNEL_SIZES = {
    "matmul_mod": _matmul_size,
    "axpy_mod": _axpy_size,
    "lu_factor_mod": _lu_factor_size,
    "lu_solve_mod": _lu_solve_size,
}

# Counter and span names reported for every op.
COUNTERS = ("field.solve", "matrix.matmul", "matrix.assemble") + tuple(
    f"kernels.{k}" for k in KERNEL_SIZES
)
SPANS = (
    "harness.load", "harness.oracle", "encode", "common_randomness",
    "server", "server.noise_poly", "decode", "decode.solve_stack",
    "field.cauchy_vandermonde",
)


class Trace:
    """Spans and counters of one op; use :meth:`op` to run it traced."""

    def __init__(self):
        self.spans = []   # (id, name, parent id, start ns, end ns)
        self.runs = []    # (run span id, RunRecord)
        self.op_id = None
        self._tables = []  # one counter table per thread: (owner, key) -> value
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None

    # -- recording ------------------------------------------------------

    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.table = defaultdict(int)
            self._tables.append(local.table)
        return local

    def _owner(self, stack):
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else None

    def _span(self, name, fn, keep_result=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._thread().stack
            parent = self._owner(stack)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, name, parent, t0, t1))
            if keep_result:
                self.runs.append((sid, result))
            return result

        return wrapper

    def _count(self, key, fn, size=None, size_names=("ops", "bytes")):
        k_calls, k_ns = key + ".calls", key + ".ns"
        k_sizes = tuple(f"{key}.{name}" for name in size_names)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._thread()
            owner = self._owner(local.stack)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                table = local.table
                table[owner, k_calls] += 1
                table[owner, k_ns] += dt
                if size is not None:
                    for k, v in zip(k_sizes, size(*args, **kwargs)):
                        table[owner, k] += v

        return wrapper

    def _targets(self):
        span, count = self._span, self._count
        run = functools.partial(span, "run", keep_result=True)

        def draws(f):
            return count("matrix.random", f, _random_size, ("elems",))

        targets = [
            (harness, "run_smbmm", run),
            (harness, "run_ssmm", run),
            (harness, "random_matrix", lambda f: span("harness.load", draws(f))),
            (harness, "matmul_oracle", lambda f: span("harness.oracle", f)),
            (batch, "encode_smbmm", lambda f: span("encode", f)),
            (ssmm, "encode_ssmm", lambda f: span("encode", f)),
            (batch, "gen_common_randomness", lambda f: span("common_randomness", f)),
            (batch, "server_compute_smbmm", lambda f: span("server", f)),
            (ssmm, "server_compute_ssmm", lambda f: span("server", f)),
            (batch, "eval_noise_poly", lambda f: span("server.noise_poly", f)),
            (batch, "decode_smbmm", lambda f: span("decode", f)),
            (ssmm, "decode_ssmm", lambda f: span("decode", f)),
            (batch, "solve_response_stack", lambda f: span("decode.solve_stack", f)),
            (batch, "build_cauchy_vandermonde",
             lambda f: span("field.cauchy_vandermonde", f)),
            (batch, "random_matrix", draws),
            (ssmm, "random_matrix", draws),
            (batch, "assemble", lambda f: count("matrix.assemble", f)),
            (ssmm, "assemble", lambda f: count("matrix.assemble", f)),
            (BlockMatrix, "matmul", lambda f: count("matrix.matmul", f)),
            (SquareSystem, "solve", lambda f: count("field.solve", f)),
        ]
        for name, size in KERNEL_SIZES.items():
            targets.append(
                (_kernels, name,
                 lambda f, name=name, size=size: count(f"kernels.{name}", f, size))
            )
        return targets

    def op(self, fn, arg):
        """Run ``fn(arg)`` as one traced op and return its result.

        The wrappers are in place only while the op runs; an attribute
        the layer map names but the program lacks makes it raise.
        """
        saved = []
        try:
            for owner, attr, wrap in self._targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            self._root = self._thread().stack
            return self._span("op", fn)(arg)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.op_id = next((sid for sid, name, *_ in self.spans if name == "op"), None)

    # -- reading --------------------------------------------------------

    def _parents(self):
        return {sid: parent for sid, _name, parent, _t0, _t1 in self.spans}

    def counted(self, key, under=None):
        """Total of one counter, optionally only below span ``under``."""
        parents = self._parents()
        total = 0
        for table in self._tables:
            for (owner, k), v in table.items():
                if k != key:
                    continue
                if under is not None:
                    node = owner
                    while node is not None and node != under:
                        node = parents.get(node)
                    if node is None:
                        continue
                total += v
        return total

    def check(self, runs_expected):
        """Compare the counts of every run with their closed forms."""
        problems = []
        if len(self.runs) != runs_expected:
            problems.append(f"{len(self.runs)} run spans, expected {runs_expected}")
        for run_id, rec in self.runs:
            cfg = rec.config
            children = [(name, sid) for sid, name, parent, _, _ in self.spans
                        if parent == run_id]
            block = (cfg.rows // cfg.m) * (cfg.cols // cfg.n)
            servers = sum(1 for name, _ in children if name == "server")
            want = cfg.n_servers - len(rec.straggler_indices)
            if servers != want:
                problems.append(f"server.calls {servers} != N - stragglers = {want}")
            decodes = [sid for name, sid in children if name == "decode"]
            if len(decodes) != 1:
                problems.append(f"{len(decodes)} decode spans in one run")
            for d in decodes:
                solves = self.counted("field.solve.calls", under=d)
                if solves != block:
                    problems.append(f"field.solve.calls {solves} != (rows/m)(cols/n) = {block}")
                factors = self.counted("kernels.lu_factor_mod.calls", under=d)
                if factors != 1:
                    problems.append(f"{factors} lu_factor_mod calls in one decode")
            drawn = sum(self.counted("matrix.random.elems", under=sid)
                        for name, sid in children if name == "common_randomness")
            want = rec.costs.randomness_count * block
            if drawn != want:
                problems.append(
                    f"common-randomness elems {drawn} != randomness_count x block = {want}"
                )
        if problems:
            raise TraceCheckError("; ".join(problems))

    def metrics(self, scale=1.0):
        """Per-op figures: span times, self time, counters (ms and counts).

        Times are multiplied by ``scale`` (the op's reference-speed factor).
        """
        ms = defaultdict(float)
        children = defaultdict(list)
        by_id = {}
        for sid, name, parent, t0, t1 in self.spans:
            by_id[sid] = (name, t0, t1)
            children[parent].append((t0, t1))
            if name in SPANS:
                ms[name] += (t1 - t0) * scale / 1e6

        def self_ns(sid):
            _, start, end = by_id[sid]
            covered, reach = 0, start
            for t0, t1 in sorted(children[sid]):
                t0, t1 = max(t0, reach), min(t1, end)
                if t1 > t0:
                    covered += t1 - t0
                    reach = t1
            return end - start - covered

        glue = self_ns(self.op_id) + sum(self_ns(sid) for sid, _ in self.runs)
        server_wall = 0
        for run_id, _ in self.runs:
            spans = [(t0, t1) for _, name, parent, t0, t1 in self.spans
                     if name == "server" and parent == run_id]
            if spans:
                server_wall += max(t1 for _, t1 in spans) - min(t0 for t0, _ in spans)

        totals = defaultdict(int)
        for table in self._tables:
            for (_owner, key), v in table.items():
                totals[key] += v

        out = {f"{name}.ms": ms[name] for name in SPANS}
        out["harness.glue.ms"] = glue * scale / 1e6
        out["server.wall.ms"] = server_wall * scale / 1e6
        out["server.calls"] = sum(1 for _, name, *_ in self.spans if name == "server")
        out["matrix.random.elems"] = totals["matrix.random.elems"]
        for key in COUNTERS:
            out[f"{key}.calls"] = totals[f"{key}.calls"]
            out[f"{key}.ms"] = totals[f"{key}.ns"] * scale / 1e6
        for name in KERNEL_SIZES:
            out[f"kernels.{name}.ops"] = totals[f"kernels.{name}.ops"]
            out[f"kernels.{name}.bytes"] = totals[f"kernels.{name}.bytes"]
        return out

    def dump(self):
        """Spans and counters as plain data for the trace file."""
        counters = defaultdict(int)
        for table in self._tables:
            for (owner, key), v in table.items():
                counters[f"{owner}:{key}"] += v
        return {
            "op": self.op_id,
            "spans": [list(s) for s in self.spans],
            "counters": dict(counters),
        }
