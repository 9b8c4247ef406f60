"""Secure multi-party batch matrix multiplication.

G*L products are computed at once. Each group h gets its own set of
poles f_{h,l}; the per-matrix sub-encoders are polynomials in the
shifted variable (f_{h,l} - alpha), the group encoders combine them
with Cauchy weights so that every desired block lands on a pole
dimension while all cross-product interference collapses onto a shared
monomial tail of phi+1 dimensions. Servers add a noise polynomial built
from common randomness with the exact same pole structure, which masks
every decoded coordinate except the pinned-zero desired positions.
Encoding (per group and side) and the noise polynomial (per server) are
one weight-matrix product each over stacked blocks.

Decoding writes the K responses as (V1 V2) x = y where V1 is a
Cauchy-Vandermonde matrix and V2 stacks one lower-triangular Toeplitz
block of alignment coefficients per (group, matrix) plus an identity
tail; the system is factored once and reused across all scalar
positions of the response blocks.

Index bookkeeping, per variant ("A-major" shown, "B-major" mirrors it
with the roles of (m, X_A) and (n, X_B) exchanged):

    psi    = (m-1)(np+X_B) + np     coefficient span of the l=1 encoder
    kappa  = mpn                    span of the l>=2 encoders
    phi    = (L-1)mnp + np + X_A + (m-1)X_B - 2   interference tail
    Gamma  = {(k-1)(np+X_B) + jp - 1}             desired slots, l=1
    Lambda = {(k-1)np + jp - 1}                   desired slots, l>=2

All exponent layouts come from ssmm._plan: the l=1 sub-encoder is the
single-product encoder, the l>=2 ones are that encoder with X_A = X_B = 0.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _kernels
from .costs import CostReport
from .errors import (
    BatchSizeError,
    HypothesisViolation,
    ParamError,
    PointError,
    PoleCollision,
    ShapeError,
)
from .field import FieldConfig, SquareSystem, build_cauchy_vandermonde, shifted_power_expand
from .matrix import BlockMatrix, PartitionSpec, assemble, partition, random_matrix
from .rng import Stream
from .ssmm import (
    A_MAJOR,
    B_MAJOR,
    ThresholdPair,
    _plan,
    encoder_terms,
    eval_stack,
    eval_terms,
    recovery_threshold_ssmm,
    select_responses,
    solve_stack,
)

__all__ = [
    "DerivedIndices",
    "SmbmmParams",
    "SmbmmShare",
    "SmbmmResponse",
    "CommonRandomness",
    "recovery_threshold_smbmm",
    "derive_indices",
    "build_sub_encoders",
    "encode_smbmm",
    "gen_common_randomness",
    "eval_noise_poly",
    "eval_terms",
    "server_compute_smbmm",
    "solve_response_stack",
    "decode_smbmm",
    "cost_report_smbmm",
    "alignment_coefficients",
]


def _check_hypothesis(m, p, n, x_a, x_b, g, l):
    if min(p, x_a, x_b, g) < 1:
        raise ParamError("p, X_A, X_B and G must be at least 1")
    if m <= 1 or n <= 1:
        raise HypothesisViolation("batch strategy requires m > 1 and n > 1")
    if l < 2:
        raise HypothesisViolation("batch strategy requires L >= 2")


def recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l) -> ThresholdPair:
    """Both variant thresholds; the strategy achieves their minimum."""
    _check_hypothesis(m, p, n, x_a, x_b, g, l)
    base = (l * g + l - 1) * m * p * n
    k1 = base + n * p + x_a + (g + 1) * (m - 1) * x_b - 1
    k2 = base + m * p + x_b + (g + 1) * (n - 1) * x_a - 1
    return ThresholdPair(k1, k2)


@dataclass(frozen=True)
class DerivedIndices:
    """Spans, degrees and desired-slot index sets for one variant."""

    psi: int
    kappa: int
    phi: int
    delta: int
    tail_degree: int  # degree of the l>=2 sub-encoder products
    gamma: tuple      # desired slots inside [0, psi)
    lam: tuple        # desired slots inside [0, kappa)
    gamma_of: dict    # (k, j) -> slot, 1-based block indices
    lam_of: dict


@lru_cache(maxsize=256)
def derive_indices(m, p, n, x_a, x_b, g, l, variant) -> DerivedIndices:
    _check_hypothesis(m, p, n, x_a, x_b, g, l)
    first = _plan(m, p, n, x_a, x_b, variant)
    rest = _plan(m, p, n, 0, 0, variant)
    cells = [(k, j) for k in range(1, m + 1) for j in range(1, n + 1)]
    gamma_of = {c: first["desired"](*c) for c in cells}
    lam_of = {c: rest["desired"](*c) for c in cells}
    if variant == A_MAJOR:
        phi = (l - 1) * m * n * p + n * p + x_a + (m - 1) * x_b - 2
    else:
        phi = (l - 1) * m * n * p + m * p + x_b + (n - 1) * x_a - 2
    # the l=1 sub-encoder product is the single-product polynomial
    delta = recovery_threshold_ssmm(m, p, n, x_a, x_b).of(variant) - 1
    gamma = tuple(sorted(gamma_of.values()))
    lam = tuple(sorted(lam_of.values()))
    if len(gamma) != m * n or len(lam) != m * n:
        raise ParamError("desired slots collide; invalid parameters")
    return DerivedIndices(
        first["span"], rest["span"], phi, delta, m * p * n + p - 2,
        gamma, lam, gamma_of, lam_of,
    )


@dataclass(frozen=True)
class SmbmmParams:
    partition: PartitionSpec
    x_a: int
    x_b: int
    g: int
    l: int
    n_servers: int
    field: FieldConfig
    poles: tuple   # batch order: (h-1)*L + (l-1)
    alphas: tuple
    variant: str
    # audit escape hatch: study the sharing phase with fewer servers
    # than the recovery threshold (decoding is impossible then)
    sharing_only: bool = False

    def __post_init__(self):
        part = self.partition
        _check_hypothesis(part.m, part.p, part.n, self.x_a, self.x_b, self.g, self.l)
        if self.variant not in (A_MAJOR, B_MAJOR):
            raise ParamError(f"unknown variant {self.variant!r}")
        gl = self.g * self.l
        if self.field.q < gl + 1:
            raise ParamError("field too small for G*L poles")
        if self.n_servers and self.field.q < self.n_servers + gl:
            raise ParamError("field too small for N points plus G*L poles")
        if len(self.poles) != gl:
            raise PointError(f"need {gl} poles, got {len(self.poles)}")
        if len(set(p % self.field.q for p in self.poles)) != gl:
            raise PointError("poles must be distinct")
        if len(self.alphas) != self.n_servers:
            raise PointError("need one evaluation point per server")
        if len(set(a % self.field.q for a in self.alphas)) != len(self.alphas):
            raise PointError("evaluation points must be distinct")
        if {a % self.field.q for a in self.alphas} & {p % self.field.q for p in self.poles}:
            raise PointError("evaluation points must avoid the poles")
        if self.n_servers == 0:
            # offline mode: encoder algebra only, no sharing phase
            return
        if not self.sharing_only and self.n_servers < self.threshold:
            raise ParamError(
                f"N={self.n_servers} below recovery threshold {self.threshold}"
            )

    @classmethod
    def make(cls, m, p, n, x_a, x_b, g, l, n_servers, q,
             variant="auto", poles=None, alphas=None, sharing_only=False):
        """Default points: poles 1..GL, alphas GL+1..GL+N."""
        pair = recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l)
        if variant == "auto":
            variant = pair.best_variant
        field = FieldConfig(q)
        gl = g * l
        if poles is None:
            poles = tuple(range(1, gl + 1))
        if alphas is None:
            taken = {pole % q for pole in poles}
            alphas = []
            for v in range(1, q):
                if len(alphas) == n_servers:
                    break
                if v not in taken:
                    alphas.append(v)
            if len(alphas) < n_servers and 0 not in taken:
                alphas.append(0)  # admissible here, unlike the single-product scheme
            if len(alphas) < n_servers:
                raise ParamError(
                    "field too small for N evaluation points distinct from the poles"
                )
            alphas = tuple(alphas)
        return cls(
            PartitionSpec(m, p, n), x_a, x_b, g, l, n_servers,
            field, tuple(poles), tuple(alphas), variant, sharing_only,
        )

    @property
    def thresholds(self) -> ThresholdPair:
        part = self.partition
        return recovery_threshold_smbmm(
            part.m, part.p, part.n, self.x_a, self.x_b, self.g, self.l
        )

    @property
    def threshold(self) -> int:
        return self.thresholds.of(self.variant)

    @property
    def indices(self) -> DerivedIndices:
        part = self.partition
        return derive_indices(
            part.m, part.p, part.n, self.x_a, self.x_b, self.g, self.l, self.variant
        )

    def pole(self, h: int, ell: int) -> int:
        """Pole f_{h,ell}, 1-based."""
        return self.poles[(h - 1) * self.l + (ell - 1)]

    @property
    def batch_size(self) -> int:
        return self.g * self.l


@dataclass(frozen=True)
class SmbmmShare:
    server_index: int
    a_parts: tuple  # one encoded A block per group
    b_parts: tuple


@dataclass(frozen=True)
class SmbmmResponse:
    server_index: int
    y: BlockMatrix


# ---------------------------------------------------------------------------
# Sub-encoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubEncoderSet:
    """Coefficient terms of P/Q per (h, ell), in the shifted variable
    t = (f_{h,ell} - alpha). Terms are (exponent, block) pairs."""

    p_terms: dict
    q_terms: dict

    def product_terms(self, h, ell, q):
        """Coefficient blocks of P*Q as {exponent: flat data list}."""
        out = {}
        for ea, ma in self.p_terms[(h, ell)]:
            for eb, mb in self.q_terms[(h, ell)]:
                prod = ma.matmul(mb)
                tgt = out.get(ea + eb)
                if tgt is None:
                    out[ea + eb] = list(prod.data)
                else:
                    for i, v in enumerate(prod.data):
                        tgt[i] = (tgt[i] + v) % q
        return out


def _check_batch(batch_a, batch_b, params):
    part = params.partition
    gl = params.batch_size
    if len(batch_a) != gl or len(batch_b) != gl:
        raise BatchSizeError(f"batch must hold exactly {gl} matrices")
    a0, b0 = batch_a[0], batch_b[0]
    for a, b in zip(batch_a, batch_b):
        if a.rows != a0.rows or a.cols != a0.cols:
            raise ShapeError("A matrices must share one shape")
        if b.rows != b0.rows or b.cols != b0.cols:
            raise ShapeError("B matrices must share one shape")
        if a.cols != b.rows:
            raise ShapeError("inner dimensions differ")
    if a0.rows % part.m or a0.cols % part.p or b0.cols % part.n:
        raise ShapeError("matrix dimensions not divisible by the partition")


def build_sub_encoders(batch_a, batch_b, params: SmbmmParams, noise_seed: int) -> SubEncoderSet:
    """Per-(h, ell) coefficient terms; only ell=1 carries noise blocks."""
    _check_batch(batch_a, batch_b, params)
    part = params.partition
    m, p, n = part.m, part.p, part.n
    field = params.field
    a0, b0 = batch_a[0], batch_b[0]
    ar, ac = a0.rows // m, a0.cols // p
    br, bc = b0.rows // p, b0.cols // n

    root = Stream(noise_seed)
    src1 = root.derive("smbmm/source1-noise")
    src2 = root.derive("smbmm/source2-noise")

    first = _plan(m, p, n, params.x_a, params.x_b, params.variant)
    rest = _plan(m, p, n, 0, 0, params.variant)
    p_terms, q_terms = {}, {}
    for h in range(1, params.g + 1):
        noise_a = [random_matrix(ar, ac, field, src1) for _ in range(params.x_a)]
        noise_b = [random_matrix(br, bc, field, src2) for _ in range(params.x_b)]
        for ell in range(1, params.l + 1):
            idx = (h - 1) * params.l + (ell - 1)
            grid_a = partition(batch_a[idx], m, p)
            grid_b = partition(batch_b[idx], p, n)
            if ell == 1:
                terms = encoder_terms(first, grid_a, grid_b, noise_a, noise_b)
            else:
                terms = encoder_terms(rest, grid_a, grid_b)
            p_terms[(h, ell)], q_terms[(h, ell)] = terms
    return SubEncoderSet(p_terms, q_terms)


def _span(params, ell):
    return params.indices.psi if ell == 1 else params.indices.kappa


def _encoder_weights(params, h, alpha, i, enc):
    """Weight rows of group h's A and B encoders at one point, over the
    terms of all ell in order: the A side scales ell's terms by the
    other poles' powers, the B side by the inverse of ell's own."""
    q = params.field.q
    ts, pole_pows = [], []
    for ell in range(1, params.l + 1):
        t = (params.pole(h, ell) - alpha) % q
        if t == 0:
            raise PoleCollision(f"alpha_{i} hits pole f_({h},{ell})")
        ts.append(t)
        pole_pows.append(pow(t, _span(params, ell), q))
    a_row, b_row = [], []
    for ell, t in enumerate(ts, 1):
        cofactor = 1
        for other in range(params.l):
            if other != ell - 1:
                cofactor = cofactor * pole_pows[other] % q
        inv_pow = params.field.inv(pole_pows[ell - 1])
        a_row += [cofactor * pow(t, e, q) % q for e, _ in enc.p_terms[(h, ell)]]
        b_row += [inv_pow * pow(t, e, q) % q for e, _ in enc.q_terms[(h, ell)]]
    return a_row, b_row


def encode_smbmm(batch_a, batch_b, params: SmbmmParams, noise_seed: int):
    """Per-server share: one encoded (A, B) pair per group.

    The A encoder is multiplied through by the pole product, so it is a
    polynomial evaluation; the B encoder divides each sub-encoder by its
    own pole power. Each (group, side) is one N x T weight matrix times
    the T stacked sub-encoder blocks of all ell.
    """
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed)
    part = params.partition
    field = params.field
    a0, b0 = batch_a[0], batch_b[0]
    ar, ac = a0.rows // part.m, a0.cols // part.p
    br, bc = b0.rows // part.p, b0.cols // part.n
    ells = range(1, params.l + 1)

    a_groups, b_groups = [], []
    for h in range(1, params.g + 1):
        rows = [_encoder_weights(params, h, alpha, i, enc)
                for i, alpha in enumerate(params.alphas)]
        a_blocks = [blk for ell in ells for _, blk in enc.p_terms[(h, ell)]]
        b_blocks = [blk for ell in ells for _, blk in enc.q_terms[(h, ell)]]
        a_groups.append(eval_stack([a for a, _ in rows], a_blocks, ar, ac, field))
        b_groups.append(eval_stack([b for _, b in rows], b_blocks, br, bc, field))
    return [
        SmbmmShare(i, tuple(g[i] for g in a_groups), tuple(g[i] for g in b_groups))
        for i in range(len(params.alphas))
    ]


# ---------------------------------------------------------------------------
# Alignment coefficients and the decode stack layout
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def alignment_coefficients(params: SmbmmParams):
    """c-coefficient table per (h, ell).

    For ell=1 these expand the product of the other poles' powers in the
    variable (f_{h,1} - alpha), truncated/zero-padded to length psi; for
    ell>=2 the expansion of the remaining pole powers in
    (f_{h,ell} - alpha), truncated to length kappa. Entry 0 is always
    nonzero while the poles are distinct.
    """
    field = params.field
    table = {}
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            factors = []
            for other in range(1, params.l + 1):
                if other != ell:
                    factors.append((params.pole(h, other), _span(params, other)))
            poly = shifted_power_expand(field, params.pole(h, ell), factors)
            span = _span(params, ell)
            coeffs = list(poly.coeffs[:span])
            coeffs += [0] * (span - len(coeffs))
            table[(h, ell)] = tuple(coeffs)
    return table


def stack_offsets(params: SmbmmParams):
    """Start offset of each (h, ell) block in the decode stack, plus the
    offset of the monomial tail."""
    idx = params.indices
    offsets = {}
    pos = 0
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            offsets[(h, ell)] = pos
            pos += idx.psi if ell == 1 else idx.kappa
    return offsets, pos  # pos == tail offset; stack size = pos + phi + 1


# ---------------------------------------------------------------------------
# Common randomness and the noise polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommonRandomness:
    """Server-shared masks, one per decode-stack coordinate.

    Desired coordinates (Gamma slots of each ell=1 block, Lambda slots
    of each ell>=2 block) are pinned to exact zero matrices and drawn
    from no stream; everything else is uniform.
    """

    params: SmbmmParams
    masks: tuple  # length == stack size == K

    @property
    def random_count(self) -> int:
        return len(self.masks) - len(pinned_positions(self.params))

    @cached_property
    def stacked(self) -> list:
        """All mask data as one flat K x (block size) row-major list,
        built on first use and shared by every server."""
        return [v for mask in self.masks for v in mask.data]


@lru_cache(maxsize=64)
def pinned_positions(params: SmbmmParams) -> frozenset:
    idx = params.indices
    offsets, _ = stack_offsets(params)
    pinned = set()
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            base = offsets[(h, ell)]
            slots = idx.gamma if ell == 1 else idx.lam
            pinned.update(base + r for r in slots)
    return frozenset(pinned)


def gen_common_randomness(params: SmbmmParams, seed: int, block_shape) -> CommonRandomness:
    """Draw the mask set; block_shape is (lam/m, theta/n)."""
    rows, cols = block_shape
    stream = Stream(seed).derive("smbmm/common-randomness")
    _, tail = stack_offsets(params)
    size = tail + params.indices.phi + 1
    pinned = pinned_positions(params)
    zero = BlockMatrix.zeros(rows, cols, params.field)
    masks = []
    for pos in range(size):
        if pos in pinned:
            masks.append(zero)
        else:
            masks.append(random_matrix(rows, cols, params.field, stream))
    return CommonRandomness(params, tuple(masks))


def _pole_weight_rows(params, h, ell, alpha):
    """Weights w_r = sum_{s=r+1}^{span} c_{span-s} / (f-alpha)^{s-r}.

    These are exactly the decode-stack coefficients multiplying slot r
    of block (h, ell) in a server response.
    """
    field = params.field
    q = field.q
    span = _span(params, ell)
    c = alignment_coefficients(params)[(h, ell)]
    t = (params.pole(h, ell) - alpha) % q
    if t == 0:
        raise PoleCollision("noise polynomial evaluated at a pole")
    inv_t = field.inv(t)
    inv_pows = [1] * (span + 1)
    for d in range(1, span + 1):
        inv_pows[d] = inv_pows[d - 1] * inv_t % q
    weights = []
    for r in range(span):
        w = 0
        for d in range(1, span - r + 1):
            cv = c[span - r - d]
            if cv:
                w += cv * inv_pows[d]
        weights.append(w % q)
    return weights


def response_row_weights(params: SmbmmParams, alpha):
    """Stack-coordinate weights of one server's response (audit hook).

    Returns the length-K list w with Y_i = sum_pos w[pos] * stack[pos].
    """
    q = params.field.q
    weights = []
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            weights.extend(_pole_weight_rows(params, h, ell, alpha))
    v = 1
    for _ in range(params.indices.phi + 1):
        weights.append(v)
        v = v * (alpha % q) % q
    return weights


def eval_noise_poly(cr: CommonRandomness, params: SmbmmParams, alpha) -> BlockMatrix:
    """Noise polynomial evaluation: same pole structure as the responses.

    One (1 x K) @ (K x block size) product of the response weights with
    the stacked masks.
    """
    first = cr.masks[0]
    weights = response_row_weights(params, alpha)
    data = _kernels.matmul_mod(
        weights, cr.stacked, 1, len(weights), first.rows * first.cols, params.field.q
    )
    return BlockMatrix(first.rows, first.cols, data, params.field)


def server_compute_smbmm(share: SmbmmShare, cr: CommonRandomness,
                         params: SmbmmParams) -> SmbmmResponse:
    """Y_i = sum_h A~^h(alpha_i) B~^h(alpha_i) + S(alpha_i).

    The group sum is one product [A~^1 | ... | A~^G] @ [B~^1; ...; B~^G].
    """
    y = eval_noise_poly(cr, params, params.alphas[share.server_index])
    rows, inner = share.a_parts[0].rows, share.a_parts[0].cols
    a_cat = [
        v
        for r in range(rows)
        for a in share.a_parts
        for v in a.data[r * inner : (r + 1) * inner]
    ]
    b_cat = [v for b in share.b_parts for v in b.data]
    prod = _kernels.matmul_mod(
        a_cat, b_cat, rows, len(share.a_parts) * inner, y.cols, params.field.q
    )
    # BlockMatrix reduces the sums mod q
    data = [u + v for u, v in zip(prod, y.data)]
    return SmbmmResponse(share.server_index, BlockMatrix(y.rows, y.cols, data, params.field))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode_system(params: SmbmmParams, xs):
    """K x K matrix (V1 V2) built blockwise: each Cauchy column block of
    V1 is folded with its Toeplitz block; the monomial tail passes
    through the identity.

    One dense LU solve against the folded product keeps the exactness
    story simple; solving against V1 alone and back-substituting the
    triangular Toeplitz blocks would save a K^2-per-block fold if
    decoding ever becomes the bottleneck.
    """
    idx = params.indices
    field = params.field
    q = field.q
    pole_list = []
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            pole_list.append((params.pole(h, ell), _span(params, ell)))
    v1 = build_cauchy_vandermonde(field, xs, pole_list, idx.phi + 1)
    coeffs = alignment_coefficients(params)
    rows = []
    for v1row in v1:
        row = []
        off = 0
        for h in range(1, params.g + 1):
            for ell in range(1, params.l + 1):
                span = _span(params, ell)
                c = coeffs[(h, ell)]
                seg = v1row[off : off + span]
                for r in range(span):
                    s = 0
                    for u in range(r, span):
                        cv = c[u - r]
                        if cv:
                            s += seg[u] * cv
                    row.append(s % q)
                off += span
        row.extend(v1row[off:])
        rows.append(row)
    return SquareSystem(field, rows)


def solve_response_stack(responses, params: SmbmmParams):
    """Solve (V1 V2) x = y for every scalar position.

    Returns the full masked coefficient stack as K block matrices:
    H+Z for the pole blocks, U+Z for the monomial tail.
    """
    used = select_responses(responses, params)
    system = _decode_system(params, [params.alphas[r.server_index] for r in used])
    return solve_stack(system, used, range(params.threshold))


def decode_smbmm(responses, params: SmbmmParams):
    """All G*L products, in batch order, from any K responses."""
    stack = solve_response_stack(responses, params)
    idx = params.indices
    offsets, _ = stack_offsets(params)
    part = params.partition
    m, n = part.m, part.n
    products = []
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            base = offsets[(h, ell)]
            slot_of = idx.gamma_of if ell == 1 else idx.lam_of
            grid = [
                [stack[base + slot_of[(k, j)]] for j in range(1, n + 1)]
                for k in range(1, m + 1)
            ]
            products.append(assemble(grid))
    return products


_ENC_A = "O~(lam*xi*N*(log N)^2 / (L*m*p))"
_ENC_B = "O~(xi*theta*N*(log N)^2 / (L*n*p))"
_SERVER = "O(lam*xi*theta / (L*m*p*n))"
_DECODE = "O~(lam*theta*K*(log K)^2 / (L*G*m*n))"


def cost_report_smbmm(params: SmbmmParams) -> CostReport:
    part = params.partition
    pair = params.thresholds
    k = params.threshold
    glmn = params.g * params.l * part.m * part.n
    notes = []
    if pair.k_prime != pair.k_double_prime:
        notes.append(
            f"variant thresholds differ: A-major K'={pair.k_prime}, "
            f"B-major K''={pair.k_double_prime}; this run uses "
            f"{params.variant!r} with K={k}"
        )
    return CostReport(
        recovery_threshold=k,
        threshold_a_major=pair.k_prime,
        threshold_b_major=pair.k_double_prime,
        variant=params.variant,
        upload_a=Fraction(params.n_servers, params.l * part.m * part.p),
        upload_b=Fraction(params.n_servers, params.l * part.n * part.p),
        download=Fraction(k, glmn),
        randomness=Fraction(k, glmn) - 1,
        randomness_count=k - glmn,
        encoding_complexity_a=_ENC_A,
        encoding_complexity_b=_ENC_B,
        server_complexity=_SERVER,
        decoding_complexity=_DECODE,
        notes=tuple(notes),
    )
