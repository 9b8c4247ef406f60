"""Single secure matrix multiplication.

One product C = AB is computed through N servers. Each source masks its
partitioned matrix with uniform noise blocks at carefully staggered
exponents, servers multiply their two encoded shares, and the user
interpolates the product polynomial from any K responses and reads the
desired blocks out of fixed coefficient positions.

Two mirror-image exponent layouts exist. The "A-major" layout strides
A's row blocks by (np + X_B) and reaches threshold
(m+1)(np+X_B)+X_A-X_B-1; the "B-major" layout strides B's column blocks
by (mp + X_A) and reaches (n+1)(mp+X_A)+X_B-X_A-1. Either can be
forced; "auto" picks the smaller threshold.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .costs import CostReport
from .errors import (
    DuplicatePoint,
    InsufficientResponses,
    ParamError,
    PointError,
    ShapeError,
)
from .field import FieldConfig, SquareSystem
from .matrix import BlockMatrix, PartitionSpec, assemble, partition, random_matrix
from .rng import Stream

A_MAJOR = "a"
B_MAJOR = "b"


@dataclass(frozen=True)
class ThresholdPair:
    a_major: int
    b_major: int

    @property
    def k(self) -> int:
        return min(self.a_major, self.b_major)

    @property
    def best_variant(self) -> str:
        # ties go to the A-major layout
        return A_MAJOR if self.a_major <= self.b_major else B_MAJOR

    def of(self, variant: str) -> int:
        return self.a_major if variant == A_MAJOR else self.b_major

    # the batch protocol's names: K' (A-major) and K'' (B-major)
    @property
    def k_prime(self) -> int:
        return self.a_major

    @property
    def k_double_prime(self) -> int:
        return self.b_major


def recovery_threshold_ssmm(m, p, n, x_a, x_b) -> ThresholdPair:
    """Recovery thresholds of both encoding layouts."""
    if min(m, p, n, x_a, x_b) < 1:
        raise ParamError("all parameters must be at least 1")
    k_a = (m + 1) * (n * p + x_b) + x_a - x_b - 1
    k_b = (n + 1) * (m * p + x_a) + x_b - x_a - 1
    return ThresholdPair(k_a, k_b)


def _plan(m, p, n, x_a, x_b, variant):
    """Exponent layout: block/noise exponent maps and the desired-index map.

    All maps take 1-based block indices and return exponents of alpha.
    "span" is the coefficient span of the strided side below its noise
    blocks. With X_A = X_B = 0 this is the noiseless entangled layout.
    """
    if variant == A_MAJOR:
        stride = n * p + x_b
        span = (m - 1) * stride + n * p
        return {
            "a_block": lambda k, l: (l - 1) + (k - 1) * stride,
            "a_noise": lambda x: span + (x - 1),
            "b_block": lambda l, j: (p - l) + (j - 1) * p,
            "b_noise": lambda x: n * p + (x - 1),
            "desired": lambda k, j: (k - 1) * stride + j * p - 1,
            "span": span,
        }
    if variant == B_MAJOR:
        stride = m * p + x_a
        span = (n - 1) * stride + m * p
        return {
            "a_block": lambda k, l: (l - 1) + (k - 1) * p,
            "a_noise": lambda x: m * p + (x - 1),
            "b_block": lambda l, j: (p - l) + (j - 1) * stride,
            "b_noise": lambda x: span + (x - 1),
            "desired": lambda k, j: (j - 1) * stride + k * p - 1,
            "span": span,
        }
    raise ParamError(f"unknown variant {variant!r}")


def noise_exponents(m, p, n, x_a, x_b, variant, side):
    """Exponents carrying the noise blocks of one source (audit hook).

    The batch protocol's first sub-encoder uses the same layout, so the
    exponents hold for both protocols.
    """
    plan = _plan(m, p, n, x_a, x_b, variant)
    count = x_a if side == "a" else x_b
    fn = plan["a_noise"] if side == "a" else plan["b_noise"]
    return [fn(x) for x in range(1, count + 1)]


def encoder_terms(plan, grid_a, grid_b, noise_a=(), noise_b=()):
    """(exponent, block) terms of the A and B encoders under one plan:
    data blocks row-major over the block grid, then the noise blocks."""
    a_terms = [
        (plan["a_block"](k, l), blk)
        for k, row in enumerate(grid_a, 1)
        for l, blk in enumerate(row, 1)
    ]
    a_terms += [(plan["a_noise"](x), z) for x, z in enumerate(noise_a, 1)]
    b_terms = [
        (plan["b_block"](l, j), blk)
        for l, row in enumerate(grid_b, 1)
        for j, blk in enumerate(row, 1)
    ]
    b_terms += [(plan["b_noise"](x), z) for x, z in enumerate(noise_b, 1)]
    return a_terms, b_terms


def eval_terms(terms, t, q, rows, cols, field) -> BlockMatrix:
    """Evaluate sum of block * t**exp."""
    acc = [0] * (rows * cols)
    for exp, mat in terms:
        _kernels.axpy_mod(acc, mat.data, pow(t, exp, q), q)
    return BlockMatrix(rows, cols, acc, field)


@dataclass(frozen=True)
class SsmmParams:
    partition: PartitionSpec
    x_a: int
    x_b: int
    n_servers: int
    field: FieldConfig
    alphas: tuple
    variant: str

    def __post_init__(self):
        if self.x_a < 1 or self.x_b < 1:
            raise ParamError("security levels must be at least 1")
        if self.variant not in (A_MAJOR, B_MAJOR):
            raise ParamError(f"unknown variant {self.variant!r}")
        if self.field.q < self.n_servers + 1:
            raise ParamError("field too small for N distinct nonzero points")
        if len(self.alphas) != self.n_servers:
            raise PointError("need one evaluation point per server")
        if len(set(a % self.field.q for a in self.alphas)) != len(self.alphas):
            raise PointError("evaluation points must be distinct")
        if any(a % self.field.q == 0 for a in self.alphas):
            raise PointError("evaluation points must be nonzero")
        if self.n_servers < self.threshold:
            raise ParamError(
                f"N={self.n_servers} below recovery threshold {self.threshold}"
            )

    @classmethod
    def make(cls, m, p, n, x_a, x_b, n_servers, q, variant="auto", alphas=None):
        """Default evaluation points are 1..N."""
        pair = recovery_threshold_ssmm(m, p, n, x_a, x_b)
        if variant == "auto":
            variant = pair.best_variant
        field = FieldConfig(q)
        if alphas is None:
            alphas = tuple(range(1, n_servers + 1))
        return cls(
            PartitionSpec(m, p, n), x_a, x_b, n_servers, field, tuple(alphas), variant
        )

    @property
    def thresholds(self) -> ThresholdPair:
        part = self.partition
        return recovery_threshold_ssmm(part.m, part.p, part.n, self.x_a, self.x_b)

    @property
    def threshold(self) -> int:
        return self.thresholds.of(self.variant)


@dataclass(frozen=True)
class SsmmShare:
    server_index: int
    a_share: BlockMatrix
    b_share: BlockMatrix


@dataclass(frozen=True)
class SsmmResponse:
    server_index: int
    y: BlockMatrix


def encode_ssmm(a: BlockMatrix, b: BlockMatrix, params: SsmmParams, noise_seed: int):
    """Per-server encoded share pairs (A-tilde(alpha_i), B-tilde(alpha_i))."""
    part = params.partition
    m, p, n = part.m, part.p, part.n
    if a.cols != b.rows:
        raise ShapeError("inner dimensions differ")
    if a.rows % m or a.cols % p or b.cols % n:
        raise ShapeError("matrix dimensions not divisible by the partition")
    grid_a = partition(a, m, p)
    grid_b = partition(b, p, n)
    plan = _plan(m, p, n, params.x_a, params.x_b, params.variant)

    root = Stream(noise_seed)
    src1 = root.derive("ssmm/source1-noise")
    src2 = root.derive("ssmm/source2-noise")
    field = params.field
    ar, ac = a.rows // m, a.cols // p
    br, bc = b.rows // p, b.cols // n
    noise_a = [random_matrix(ar, ac, field, src1) for _ in range(params.x_a)]
    noise_b = [random_matrix(br, bc, field, src2) for _ in range(params.x_b)]

    a_terms, b_terms = encoder_terms(plan, grid_a, grid_b, noise_a, noise_b)

    q = field.q
    shares = []
    for i, alpha in enumerate(params.alphas):
        shares.append(
            SsmmShare(
                i,
                eval_terms(a_terms, alpha, q, ar, ac, field),
                eval_terms(b_terms, alpha, q, br, bc, field),
            )
        )
    return shares


def server_compute_ssmm(share: SsmmShare) -> SsmmResponse:
    return SsmmResponse(share.server_index, share.a_share.matmul(share.b_share))


def select_responses(responses, params):
    """The first K responses, checked for a usable decode.

    Rejects too few responses, server indices outside the point list,
    repeated server indices, and blocks whose shape differs from the
    first response's.
    """
    k = params.threshold
    responses = list(responses)
    if len(responses) < k:
        raise InsufficientResponses(f"got {len(responses)} responses, need {k}")
    used = responses[:k]
    indices = [r.server_index for r in used]
    if any(not 0 <= i < len(params.alphas) for i in indices):
        raise PointError(f"server index outside 0..{len(params.alphas) - 1}")
    if len(set(indices)) != len(indices):
        raise DuplicatePoint("duplicate server index among responses")
    shape = (used[0].y.rows, used[0].y.cols)
    if any((r.y.rows, r.y.cols) != shape for r in used):
        raise ShapeError("response blocks differ in shape")
    return used


def solve_stack(system, used, positions):
    """Solve the factored system once per scalar position of the
    response blocks and keep the listed solution coordinates, each as
    one block."""
    br, bc = used[0].y.rows, used[0].y.cols
    out = [[0] * (br * bc) for _ in positions]
    for e in range(br * bc):
        solved = system.solve([r.y.data[e] for r in used])
        for data, pos in zip(out, positions):
            data[e] = solved[pos]
    return [BlockMatrix(br, bc, data, system.field) for data in out]


def decode_ssmm(responses, params: SsmmParams) -> BlockMatrix:
    """Interpolate the product polynomial from K responses and assemble C.

    Uses the first K responses of the list; any K-subset gives the same
    answer. The Vandermonde system is factored once and reused across
    all scalar positions of the response blocks.
    """
    used = select_responses(responses, params)
    q = params.field.q
    xs = [params.alphas[r.server_index] % q for r in used]
    system = SquareSystem(params.field, [[pow(x, c, q) for c in range(len(xs))] for x in xs])

    part = params.partition
    desired = _plan(part.m, part.p, part.n, params.x_a, params.x_b, params.variant)["desired"]
    blocks = solve_stack(
        system, used,
        [desired(kk, jj) for kk in range(1, part.m + 1) for jj in range(1, part.n + 1)],
    )
    return assemble([blocks[i * part.n : (i + 1) * part.n] for i in range(part.m)])


_ENC_A = "O~(lam*xi*N*(log N)^2 / (m*p))"
_ENC_B = "O~(xi*theta*N*(log N)^2 / (n*p))"
_SERVER = "O(lam*xi*theta / (m*p*n))"
_DECODE = "O~(lam*theta*K*(log K)^2 / (m*n))"


def cost_report_ssmm(params: SsmmParams) -> CostReport:
    part = params.partition
    pair = params.thresholds
    k = params.threshold
    notes = []
    if k != pair.k:
        notes.append(
            f"variant {params.variant!r} threshold {k} exceeds the better "
            f"variant's {pair.k}"
        )
    return CostReport(
        recovery_threshold=k,
        threshold_a_major=pair.a_major,
        threshold_b_major=pair.b_major,
        variant=params.variant,
        upload_a=Fraction(params.n_servers, part.m * part.p),
        upload_b=Fraction(params.n_servers, part.n * part.p),
        download=Fraction(k, part.m * part.n),
        randomness=Fraction(0),
        randomness_count=0,
        encoding_complexity_a=_ENC_A,
        encoding_complexity_b=_ENC_B,
        server_complexity=_SERVER,
        decoding_complexity=_DECODE,
        notes=tuple(notes),
    )
