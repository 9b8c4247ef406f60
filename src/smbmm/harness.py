"""In-process simulation of the two sources, N servers and the user.

A run distributes encoded shares (and, for the batch protocol, the
server-shared randomness), erases the straggler set, runs the surviving
servers one after another in server-index order, decodes from the first
K responses, and checks the result bit-exactly against the plain
product oracle. Realized element counts are compared against the
closed-form cost report with exact rational arithmetic.

Straggling is modelled as erasure: a straggler simply never responds.
"""

import io
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import batch, ssmm
from .costs import CostReport
from .errors import ConfigError, SmbmmError, TooManyStragglers
from .matrix import BlockMatrix, load_matrix, matmul_oracle, random_matrix
from .rng import Stream


@dataclass(frozen=True)
class StragglerModel:
    """Either a fixed erased set or a seeded random erasure count."""

    mode: str  # "fixed" | "random"
    indices: tuple = ()
    count: int = 0

    @classmethod
    def fixed(cls, indices):
        return cls("fixed", tuple(sorted(set(indices))), len(set(indices)))

    @classmethod
    def random_count(cls, count):
        if count < 0:
            raise ConfigError("straggler count must be nonnegative")
        return cls("random", (), count)

    @classmethod
    def none(cls):
        return cls.random_count(0)

    def pick(self, n_servers, threshold, stream: Stream) -> frozenset:
        if self.mode == "fixed":
            chosen = set(self.indices)
            if any(i < 0 or i >= n_servers for i in chosen):
                raise ConfigError("straggler index out of range")
        else:
            if self.count > n_servers:
                raise ConfigError("more stragglers than servers")
            pool = list(range(n_servers))
            sub = stream.derive("stragglers")
            for i in range(self.count):
                j = i + sub.next_below(n_servers - i)
                pool[i], pool[j] = pool[j], pool[i]
            chosen = set(pool[: self.count])
        if len(chosen) > n_servers - threshold:
            raise TooManyStragglers(
                f"{len(chosen)} stragglers exceed the budget {n_servers - threshold}"
            )
        return frozenset(chosen)


@dataclass(frozen=True)
class DataSource:
    """Random matrices from a seed, or fixture files."""

    kind: str  # "random" | "files"
    seed: int = 0
    a_paths: tuple = ()
    b_paths: tuple = ()

    @classmethod
    def random(cls, seed):
        return cls("random", seed=seed)

    @classmethod
    def files(cls, a_paths, b_paths):
        return cls("files", a_paths=tuple(a_paths), b_paths=tuple(b_paths))


@dataclass(frozen=True)
class SsmmRunConfig:
    m: int
    p: int
    n: int
    x_a: int
    x_b: int
    q: int
    n_servers: int
    rows: int   # lam
    inner: int  # xi
    cols: int   # theta
    seed: int = 0
    variant: str = "auto"
    data: DataSource = None
    stragglers: StragglerModel = field(default_factory=StragglerModel.none)

    def params(self) -> ssmm.SsmmParams:
        return ssmm.SsmmParams.make(
            self.m, self.p, self.n, self.x_a, self.x_b,
            self.n_servers, self.q, variant=self.variant,
        )


@dataclass(frozen=True)
class SmbmmRunConfig:
    m: int
    p: int
    n: int
    x_a: int
    x_b: int
    g: int
    l: int
    q: int
    n_servers: int
    rows: int
    inner: int
    cols: int
    seed: int = 0
    variant: str = "auto"
    data: DataSource = None
    stragglers: StragglerModel = field(default_factory=StragglerModel.none)

    def params(self) -> batch.SmbmmParams:
        return batch.SmbmmParams.make(
            self.m, self.p, self.n, self.x_a, self.x_b, self.g, self.l,
            self.n_servers, self.q, variant=self.variant,
        )


@dataclass(frozen=True)
class RunRecord:
    protocol: str
    config: object
    seed: int
    threshold: int
    straggler_indices: tuple
    responding: tuple
    used: tuple
    products: tuple
    ok: bool
    cost_match: bool
    realized_upload_a: int
    realized_upload_b: int
    realized_download: int
    costs: CostReport
    wall_ms: float

    @property
    def passed(self) -> bool:
        return self.ok and self.cost_match


def _load_batch(cfg, fieldcfg, count):
    src = cfg.data or DataSource.random(cfg.seed)
    if src.kind == "random":
        st = Stream(src.seed).derive("data")
        batch_a = [
            random_matrix(cfg.rows, cfg.inner, fieldcfg, st.derive(f"A/{i}"))
            for i in range(count)
        ]
        batch_b = [
            random_matrix(cfg.inner, cfg.cols, fieldcfg, st.derive(f"B/{i}"))
            for i in range(count)
        ]
        return batch_a, batch_b
    if src.kind == "files":
        if len(src.a_paths) != count or len(src.b_paths) != count:
            raise ConfigError(f"need {count} files per source")
        batch_a = [load_matrix(p, fieldcfg) for p in src.a_paths]
        batch_b = [load_matrix(p, fieldcfg) for p in src.b_paths]
        return batch_a, batch_b
    raise ConfigError(f"unknown data source {src.kind!r}")


def run_ssmm(cfg: SsmmRunConfig) -> RunRecord:
    start = time.perf_counter()
    params = cfg.params()
    k = params.threshold
    master = Stream(cfg.seed)
    (a_mat,), (b_mat,) = _load_batch(cfg, params.field, 1)

    shares = ssmm.encode_ssmm(
        a_mat, b_mat, params, noise_seed=master.derive("noise").next_u64()
    )
    stragglers = cfg.stragglers.pick(cfg.n_servers, k, master)
    responses = [
        ssmm.server_compute_ssmm(s) for s in shares if s.server_index not in stragglers
    ]
    used = responses[:k]
    decoded = ssmm.decode_ssmm(used, params)
    ok = decoded == matmul_oracle(a_mat, b_mat)

    costs = ssmm.cost_report_ssmm(params)
    up_a = cfg.n_servers * (cfg.rows // cfg.m) * (cfg.inner // cfg.p)
    up_b = cfg.n_servers * (cfg.inner // cfg.p) * (cfg.cols // cfg.n)
    down = k * (cfg.rows // cfg.m) * (cfg.cols // cfg.n)
    cost_match = (
        Fraction(up_a, cfg.rows * cfg.inner) == costs.upload_a
        and Fraction(up_b, cfg.inner * cfg.cols) == costs.upload_b
        and Fraction(down, cfg.rows * cfg.cols) == costs.download
    )
    return RunRecord(
        protocol="ssmm",
        config=cfg,
        seed=cfg.seed,
        threshold=k,
        straggler_indices=tuple(sorted(stragglers)),
        responding=tuple(r.server_index for r in responses),
        used=tuple(r.server_index for r in used),
        products=(decoded,),
        ok=ok,
        cost_match=cost_match,
        realized_upload_a=up_a,
        realized_upload_b=up_b,
        realized_download=down,
        costs=costs,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


def run_smbmm(cfg: SmbmmRunConfig) -> RunRecord:
    start = time.perf_counter()
    params = cfg.params()
    k = params.threshold
    gl = params.batch_size
    master = Stream(cfg.seed)
    batch_a, batch_b = _load_batch(cfg, params.field, gl)

    shares = batch.encode_smbmm(
        batch_a, batch_b, params, noise_seed=master.derive("noise").next_u64()
    )
    cr = batch.gen_common_randomness(
        params,
        master.derive("common-randomness").next_u64(),
        (cfg.rows // cfg.m, cfg.cols // cfg.n),
    )
    stragglers = cfg.stragglers.pick(cfg.n_servers, k, master)
    responses = [
        batch.server_compute_smbmm(s, cr, params)
        for s in shares
        if s.server_index not in stragglers
    ]
    used = responses[:k]
    decoded = batch.decode_smbmm(used, params)
    expected = [matmul_oracle(a, b) for a, b in zip(batch_a, batch_b)]
    ok = decoded == expected

    costs = batch.cost_report_smbmm(params)
    up_a = cfg.n_servers * cfg.g * (cfg.rows // cfg.m) * (cfg.inner // cfg.p)
    up_b = cfg.n_servers * cfg.g * (cfg.inner // cfg.p) * (cfg.cols // cfg.n)
    down = k * (cfg.rows // cfg.m) * (cfg.cols // cfg.n)
    cost_match = (
        Fraction(up_a, gl * cfg.rows * cfg.inner) == costs.upload_a
        and Fraction(up_b, gl * cfg.inner * cfg.cols) == costs.upload_b
        and Fraction(down, gl * cfg.rows * cfg.cols) == costs.download
        and cr.random_count == costs.randomness_count
    )
    return RunRecord(
        protocol="smbmm",
        config=cfg,
        seed=cfg.seed,
        threshold=k,
        straggler_indices=tuple(sorted(stragglers)),
        responding=tuple(r.server_index for r in responses),
        used=tuple(r.server_index for r in used),
        products=tuple(decoded),
        ok=ok,
        cost_match=cost_match,
        realized_upload_a=up_a,
        realized_upload_b=up_b,
        realized_download=down,
        costs=costs,
        wall_ms=(time.perf_counter() - start) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "cell", "protocol", "m", "p", "n", "x_a", "x_b", "g", "l", "q",
    "variant", "K", "N", "stragglers", "pass", "U_A", "U_B", "D", "rho",
    "error", "wall_ms",
]


def _csv_row(cell, cfg, record, error, timing):
    is_batch = isinstance(cfg, SmbmmRunConfig)
    vals = {
        "cell": cell,
        "protocol": "smbmm" if is_batch else "ssmm",
        "m": cfg.m, "p": cfg.p, "n": cfg.n,
        "x_a": cfg.x_a, "x_b": cfg.x_b,
        "g": cfg.g if is_batch else "",
        "l": cfg.l if is_batch else "",
        "q": cfg.q,
        "variant": record.costs.variant if record else cfg.variant,
        "K": record.threshold if record else "",
        "N": cfg.n_servers,
        "stragglers": len(record.straggler_indices) if record else "",
        "pass": str(record.passed).lower() if record else "false",
        "U_A": str(record.costs.upload_a) if record else "",
        "U_B": str(record.costs.upload_b) if record else "",
        "D": str(record.costs.download) if record else "",
        "rho": str(record.costs.randomness) if record else "",
        "error": error or "",
        "wall_ms": f"{record.wall_ms:.3f}" if (record and timing) else "0",
    }
    return [str(vals[c]) for c in CSV_COLUMNS]


def sweep(configs, master_seed: int, timing: bool = False):
    """Run every cell, deriving its seed from the master seed and index.

    A cell that raises an ``SmbmmError`` (a bad parameter set, too
    many stragglers) is recorded in the CSV and the sweep continues;
    any other exception is a program fault and propagates.
    Returns (records, csv_text); with timing disabled (the default) the
    CSV is byte-identical across reruns with the same master seed.
    """
    if not configs:
        raise ConfigError("sweep grid is empty")
    master = Stream(master_seed)
    records = []
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for cell, cfg in enumerate(configs):
        seed = master.derive(f"cell/{cell}").next_u64()
        cfg = _reseed(cfg, seed)
        record, error = None, None
        try:
            if isinstance(cfg, SmbmmRunConfig):
                record = run_smbmm(cfg)
            else:
                record = run_ssmm(cfg)
        except SmbmmError as exc:  # recorded, sweep continues
            error = f"{type(exc).__name__}: {exc}"
        records.append(record)
        out.write(",".join(_csv_row(cell, cfg, record, error, timing)) + "\n")
    return records, out.getvalue()


def _reseed(cfg, seed):
    kind = type(cfg)
    kwargs = {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}
    kwargs["seed"] = seed
    if kwargs.get("data") is None or kwargs["data"].kind == "random":
        kwargs["data"] = DataSource.random(seed)
    return kind(**kwargs)
