"""The benchmark's workloads: the configs each op gets, the op itself,
and the bit-exact check of every product it returns.

An op is one ``harness.run_smbmm`` / ``harness.run_ssmm`` call, or one
whole ``harness.sweep`` call for the sweep workload. Each op gets a
fresh seed, so data, noise and straggler set differ from op to op and
nothing keyed by seed can be reused between ops. The program receives
only the generated configs; the check below regenerates the inputs the
harness drew and compares every decoded product with ``matmul_oracle``.
"""

import random
from dataclasses import dataclass
from typing import Callable

from smbmm import harness
from smbmm.field import FieldConfig
from smbmm.harness import SmbmmRunConfig, SsmmRunConfig, StragglerModel
from smbmm.matrix import matmul_oracle, random_matrix
from smbmm.rng import Stream

Q64 = 2**64 - 59  # largest prime below 2**64


def _smbmm_worked_48(seed):
    return SmbmmRunConfig(
        2, 3, 2, 2, 3, 2, 2, q=1009, n_servers=85, rows=48, inner=48, cols=48,
        seed=seed, variant="a", stragglers=StragglerModel.random_count(9),
    )


def _ssmm_worked_96_q64(seed):
    return SsmmRunConfig(
        2, 3, 2, 2, 3, q=Q64, n_servers=30, rows=96, inner=96, cols=96,
        seed=seed, variant="a", stragglers=StragglerModel.random_count(5),
    )


_SWEEP_CELLS = tuple(
    SmbmmRunConfig(
        2, 3, 2, x_a, x_b, 2, 2, q=1009, n_servers=90, rows=6, inner=6, cols=6,
        variant="auto", stragglers=StragglerModel.random_count(3),
    )
    for x_a in (1, 2, 3)
    for x_b in (1, 2, 3)
)


def _run_single(cfg):
    if isinstance(cfg, SmbmmRunConfig):
        return [harness.run_smbmm(cfg)]
    return [harness.run_ssmm(cfg)]


def _run_sweep(master_seed):
    records, _csv = harness.sweep(_SWEEP_CELLS, master_seed)
    return records


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; README.md says why each was chosen."""

    name: str
    make: Callable   # op seed -> op input
    run: Callable    # op input -> list of RunRecord (None for a cell that raised)
    runs_per_op: int
    # highest percentile with >= 10 ops above it in a 30 s run on 2 cores;
    # the 1.2-1.8 s ops get only 18-27 samples, so for them it is the median
    tail_percentile: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("smbmm-worked-48", _smbmm_worked_48, _run_single, 1, 50),
        Workload("ssmm-worked-96-q64", _ssmm_worked_96_q64, _run_single, 1, 50),
        Workload("smbmm-sweep-tiny", lambda seed: seed, _run_sweep, len(_SWEEP_CELLS), 75),
    )
}


def op_seeds(workload: str, seed: int, purpose: str):
    """Endless, reproducible stream of op seeds for one (workload, seed)."""
    rnd = random.Random(f"{workload}/{seed}/{purpose}")
    while True:
        yield rnd.getrandbits(63)


def _inputs(cfg, count):
    """The matrices the harness draws for a random data source."""
    src_seed = cfg.data.seed if cfg.data is not None else cfg.seed
    field = FieldConfig(cfg.q)
    st = Stream(src_seed).derive("data")
    batch_a = [random_matrix(cfg.rows, cfg.inner, field, st.derive(f"A/{i}"))
               for i in range(count)]
    batch_b = [random_matrix(cfg.inner, cfg.cols, field, st.derive(f"B/{i}"))
               for i in range(count)]
    return batch_a, batch_b


@dataclass
class Check:
    """Outcome of checking the runs of one op."""

    attempted: int = 0
    failed: int = 0
    out_elems: int = 0   # elements of products that matched the oracle
    params: tuple = ()   # (q, K, N, variant) per run


def check(records, runs_per_op) -> Check:
    """Compare every product with matmul_oracle on regenerated inputs.

    A run counts as failed when it raised (a None record, or None for the
    whole op), when the harness's own ``passed`` is false, or when any
    product differs from the oracle.
    """
    out = Check(attempted=runs_per_op)
    params = []
    if records is None or len(records) != runs_per_op:
        out.failed = runs_per_op
        return out
    for rec in records:
        if rec is None:
            out.failed += 1
            params.append(None)
            continue
        cfg = rec.config
        count = getattr(cfg, "g", 1) * getattr(cfg, "l", 1)
        params.append((cfg.q, rec.threshold, cfg.n_servers, rec.costs.variant))
        batch_a, batch_b = _inputs(cfg, count)
        expected = [matmul_oracle(a, b) for a, b in zip(batch_a, batch_b)]
        if rec.passed and list(rec.products) == expected:
            out.out_elems += count * cfg.rows * cfg.cols
        else:
            out.failed += 1
    out.params = tuple(params)
    return out
