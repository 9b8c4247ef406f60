"""Executable security checks.

Two families:

* certify_server_privacy: for every X-subset of servers (exhaustive or
  deterministically sampled), the square matrix of noise-block
  coefficients seen by that subset must be nonsingular; with uniform
  noise this makes the masked shares an exact one-time pad of the
  subset's view. A singular matrix is a build-stopping failure.

* enumerate_leakage: tiny-scale exhaustive distribution checks. For
  single-product shares the full (data x noise) space is enumerated per
  subset and the adversary's view distribution must be identical for
  every data assignment: statistical distance exactly 0. For the batch
  user view, each masked decode coordinate is enumerated over its mask
  with everything else pinned; the coordinate values are computed
  algebraically (coefficient extraction and polynomial division), so
  small fields that cannot host a full sharing phase still audit
  exactly.
"""

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import batch as _batch
from . import ssmm as _ssmm
from .errors import (
    EnumerationBudgetExceeded,
    ParamError,
    SingularNoiseMatrix,
)
from .field import FieldConfig, Poly, SquareSystem, poly_add, poly_divmod, poly_mul
from .matrix import BlockMatrix, random_matrix
from .rng import Stream

DEFAULT_BUDGET = 10_000_000
_EXHAUSTIVE_LIMIT = 20


# ---------------------------------------------------------------------------
# Server-side privacy certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrivacyCertificate:
    protocol: str
    side: str
    security_level: int
    n_servers: int
    subsets: tuple
    groups_checked: int = 1

    @property
    def subsets_checked(self) -> int:
        return len(self.subsets)


def assert_nonsingular(fieldcfg: FieldConfig, grid, context: str):
    if SquareSystem(fieldcfg, grid).is_singular():
        raise SingularNoiseMatrix(f"singular noise-coefficient matrix: {context}")


def ssmm_noise_grid(fieldcfg: FieldConfig, alphas, exponents):
    """Noise-coefficient matrix [alpha_i ** e_x] for raw points.

    No validation: feeding alpha=0 here shows exactly why nonzero
    points are a construction precondition.
    """
    q = fieldcfg.q
    return [[pow(a % q, e, q) for e in exponents] for a in alphas]


def _smbmm_noise_coeff(params, h, side, noise_exp, alpha):
    """Coefficient of one noise block inside the group-h share at alpha."""
    fieldcfg = params.field
    q = fieldcfg.q
    t1 = (params.pole(h, 1) - alpha) % q
    if side == "a":
        cof = 1
        for ell in range(2, params.l + 1):
            t = (params.pole(h, ell) - alpha) % q
            cof = cof * pow(t, params.indices.kappa, q) % q
        return cof * pow(t1, noise_exp, q) % q
    return fieldcfg.pow(t1, noise_exp - params.indices.psi)


def _pick_subsets(n_servers, x, max_subsets, seed):
    if max_subsets is None:
        if n_servers > _EXHAUSTIVE_LIMIT:
            raise ParamError(
                f"N={n_servers} too large to enumerate subsets; pass max_subsets"
            )
        return [tuple(s) for s in itertools.combinations(range(n_servers), x)]
    stream = Stream(seed).derive("audit/subsets")
    seen = set()
    subsets = []
    attempts = 0
    while len(subsets) < max_subsets and attempts < 50 * max_subsets:
        attempts += 1
        pool = list(range(n_servers))
        for i in range(x):
            j = i + stream.next_below(n_servers - i)
            pool[i], pool[j] = pool[j], pool[i]
        s = tuple(sorted(pool[:x]))
        if s not in seen:
            seen.add(s)
            subsets.append(s)
    return subsets


def certify_server_privacy(params, side, max_subsets=None, seed=0) -> PrivacyCertificate:
    """Check nonsingularity of every noise-coefficient matrix.

    ``side`` is "a" or "b". Raises SingularNoiseMatrix on any failure;
    that must never happen when the parameter invariants hold.
    """
    if side not in ("a", "b"):
        raise ParamError("side must be 'a' or 'b'")
    if not isinstance(params, (_ssmm.SsmmParams, _batch.SmbmmParams)):
        raise ParamError(f"unsupported params type {type(params).__name__}")
    x = params.x_a if side == "a" else params.x_b
    subsets = _pick_subsets(params.n_servers, x, max_subsets, seed)
    part = params.partition
    exps = _ssmm.noise_exponents(
        part.m, part.p, part.n, params.x_a, params.x_b, params.variant, side
    )

    if isinstance(params, _ssmm.SsmmParams):
        for sub in subsets:
            grid = ssmm_noise_grid(
                params.field, [params.alphas[i] for i in sub], exps
            )
            assert_nonsingular(params.field, grid, f"ssmm side={side} subset={sub}")
        return PrivacyCertificate("ssmm", side, x, params.n_servers, tuple(subsets))

    for h in range(1, params.g + 1):
        for sub in subsets:
            grid = [
                [
                    _smbmm_noise_coeff(params, h, side, e, params.alphas[i])
                    for e in exps
                ]
                for i in sub
            ]
            assert_nonsingular(
                params.field, grid, f"smbmm side={side} group={h} subset={sub}"
            )
    return PrivacyCertificate(
        "smbmm", side, x, params.n_servers, tuple(subsets), params.g
    )


# ---------------------------------------------------------------------------
# Tiny-scale exhaustive leakage enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeakageReport:
    protocol: str
    side: str
    q: int
    cases: int
    distances: dict          # configuration label -> Fraction
    method: str
    notes: tuple = field(default_factory=tuple)

    @property
    def max_distance(self) -> Fraction:
        return max(self.distances.values(), default=Fraction(0))

    def to_dict(self):
        return {
            "protocol": self.protocol,
            "side": self.side,
            "q": self.q,
            "cases": self.cases,
            "max_distance": str(self.max_distance),
            "distances": {k: str(v) for k, v in self.distances.items()},
            "method": self.method,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"leakage audit: {self.protocol} (side={self.side}, q={self.q})",
            f"cases enumerated: {self.cases}",
            f"method: {self.method}",
            f"max statistical distance: {self.max_distance}",
        ]
        for key in sorted(self.distances):
            lines.append(f"  {key}: {self.distances[key]}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def _max_pairwise_distance(counters, total):
    """Exact max total-variation distance between view distributions."""
    worst = Fraction(0)
    labels = list(counters)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            c1, c2 = counters[labels[i]], counters[labels[j]]
            diff = sum(abs(c1.get(v, 0) - c2.get(v, 0)) for v in set(c1) | set(c2))
            worst = max(worst, Fraction(diff, 2 * total))
    return worst


def _all_tuples(q, length):
    return itertools.product(range(q), repeat=length)


def enumerate_leakage(protocol, params, *, side="a", coordinate=None,
                      data_samples=4, seed=0, budget=DEFAULT_BUDGET) -> LeakageReport:
    if protocol == "ssmm_share":
        if not isinstance(params, _ssmm.SsmmParams):
            raise ParamError("ssmm_share leakage needs single-product parameters")
        return _ssmm_share_leakage(params, side, budget)
    if protocol == "smbmm_user_view":
        if not isinstance(params, _batch.SmbmmParams):
            raise ParamError("smbmm_user_view leakage needs batch parameters")
        return _smbmm_user_view_leakage(params, coordinate, data_samples, seed, budget)
    raise ParamError(f"unknown leakage protocol {protocol!r}")


def _ssmm_share_leakage(params, side, budget) -> LeakageReport:
    """Exhaust data x noise for every X-subset of servers, 1x1 blocks."""
    part = params.partition
    m, p, n = part.m, part.p, part.n
    q = params.field.q
    plan = _ssmm._plan(m, p, n, params.x_a, params.x_b, params.variant)
    noise_exps = _ssmm.noise_exponents(m, p, n, params.x_a, params.x_b, params.variant, side)
    x = len(noise_exps)
    if side == "a":
        block_exps = [plan["a_block"](k, l)
                      for k in range(1, m + 1) for l in range(1, p + 1)]
    else:
        block_exps = [plan["b_block"](l, j)
                      for l in range(1, p + 1) for j in range(1, n + 1)]

    subsets = [tuple(s) for s in itertools.combinations(range(params.n_servers), x)]
    n_data = q ** len(block_exps)
    n_noise = q ** x
    cases = n_data * n_noise * len(subsets)
    if cases > budget:
        raise EnumerationBudgetExceeded(f"{cases} cases exceed budget {budget}")

    # per-server weights of each data entry and noise entry
    data_w = {i: [pow(params.alphas[i], e, q) for e in block_exps]
              for i in range(params.n_servers)}
    noise_w = {i: [pow(params.alphas[i], e, q) for e in noise_exps]
               for i in range(params.n_servers)}

    distances = {}
    for sub in subsets:
        counters = {}
        for data in _all_tuples(q, len(block_exps)):
            ctr = Counter()
            base = {
                i: sum(w * d for w, d in zip(data_w[i], data)) % q for i in sub
            }
            for noise in _all_tuples(q, x):
                view = tuple(
                    (base[i] + sum(w * z for w, z in zip(noise_w[i], noise))) % q
                    for i in sub
                )
                ctr[view] += 1
            counters[data] = ctr
        distances[f"subset={sub}"] = _max_pairwise_distance(counters, n_noise)
    return LeakageReport(
        protocol="ssmm_share",
        side=side,
        q=q,
        cases=cases,
        distances=distances,
        method="exhaustive enumeration of data and noise per subset",
    )


def _shifted_to_alpha(fieldcfg, pole, terms) -> Poly:
    """Scalar terms {(exp, 1x1 block)} in t=(pole-alpha) as a poly in alpha."""
    base = Poly.make(fieldcfg, [pole, -1])
    out = Poly.zero(fieldcfg)
    for exp, mat in terms:
        term = Poly.make(fieldcfg, [mat.data[0]])
        for _ in range(exp):
            term = poly_mul(term, base)
        out = poly_add(out, term)
    return out


def _tail_values(params, enc):
    """Interference coefficients U_r, summed over groups, 1x1 blocks.

    The group product equals (polynomial A-encoder * B-numerator) over
    the pole product; the monomial tail is the quotient of that exact
    division, so U falls out of polynomial long division.
    """
    fieldcfg = params.field
    idx = params.indices
    spans = [idx.psi] + [idx.kappa] * (params.l - 1)
    tail = [0] * (idx.phi + 1)
    for h in range(1, params.g + 1):
        pole_polys = []
        for ell in range(1, params.l + 1):
            base = Poly.make(fieldcfg, [params.pole(h, ell), -1])
            powp = Poly.make(fieldcfg, [1])
            for _ in range(spans[ell - 1]):
                powp = poly_mul(powp, base)
            pole_polys.append(powp)
        delta = Poly.make(fieldcfg, [1])
        for pp in pole_polys:
            delta = poly_mul(delta, pp)
        a_poly = Poly.zero(fieldcfg)
        b_num = Poly.zero(fieldcfg)
        for ell in range(1, params.l + 1):
            cof = Poly.make(fieldcfg, [1])
            for other in range(1, params.l + 1):
                if other != ell:
                    cof = poly_mul(cof, pole_polys[other - 1])
            p_alpha = _shifted_to_alpha(fieldcfg, params.pole(h, ell),
                                        enc.p_terms[(h, ell)])
            q_alpha = _shifted_to_alpha(fieldcfg, params.pole(h, ell),
                                        enc.q_terms[(h, ell)])
            a_poly = poly_add(a_poly, poly_mul(cof, p_alpha))
            b_num = poly_add(b_num, poly_mul(cof, q_alpha))
        quot, _ = poly_divmod(poly_mul(a_poly, b_num), delta)
        for r, c in enumerate(quot.coeffs):
            tail[r] = (tail[r] + c) % fieldcfg.q
    return tail


def _stack_base_values(params, batch_a, batch_b, noise_seed):
    """Unmasked decode-stack values (H for pole blocks, U for the tail),
    as scalars; requires 1x1 blocks."""
    enc = _batch.build_sub_encoders(batch_a, batch_b, params, noise_seed)
    offsets, tail_off = _batch.stack_offsets(params)
    idx = params.indices
    q = params.field.q
    values = [0] * (tail_off + idx.phi + 1)
    for h in range(1, params.g + 1):
        for ell in range(1, params.l + 1):
            span = idx.psi if ell == 1 else idx.kappa
            prod = enc.product_terms(h, ell, q)
            base = offsets[(h, ell)]
            for r in range(span):
                data = prod.get(r)
                values[base + r] = data[0] if data else 0
    for r, u in enumerate(_tail_values(params, enc)):
        values[tail_off + r] = u
    return values


def _smbmm_user_view_leakage(params, coordinate, data_samples, seed, budget) -> LeakageReport:
    """Per masked coordinate: enumerate its mask over F_q with all else
    pinned; the view is (stack value + mask), tabulated per data set."""
    part = params.partition
    m, p, n = part.m, part.p, part.n
    q = params.field.q
    pinned = _batch.pinned_positions(params)
    _, tail_off = _batch.stack_offsets(params)
    size = tail_off + params.indices.phi + 1
    coords = [c for c in range(size) if c not in pinned]
    if coordinate is not None:
        if coordinate in pinned:
            raise ParamError(f"coordinate {coordinate} is a desired slot, not masked")
        coords = [coordinate]

    stream = Stream(seed)
    fieldcfg = params.field
    gl = params.batch_size
    datasets = {}
    datasets["zeros"] = (
        [BlockMatrix.zeros(m, p, fieldcfg) for _ in range(gl)],
        [BlockMatrix.zeros(p, n, fieldcfg) for _ in range(gl)],
    )
    datasets["ones"] = (
        [BlockMatrix(m, p, [1] * (m * p), fieldcfg) for _ in range(gl)],
        [BlockMatrix(p, n, [1] * (p * n), fieldcfg) for _ in range(gl)],
    )
    for s in range(data_samples):
        st = stream.derive(f"audit/data/{s}")
        datasets[f"sample{s}"] = (
            [random_matrix(m, p, fieldcfg, st.derive(f"A/{i}")) for i in range(gl)],
            [random_matrix(p, n, fieldcfg, st.derive(f"B/{i}")) for i in range(gl)],
        )

    cases = len(coords) * len(datasets) * q
    if cases > budget:
        raise EnumerationBudgetExceeded(f"{cases} cases exceed budget {budget}")

    noise_seed = stream.derive("audit/source-noise").next_u64()
    base_per_dataset = {
        label: _stack_base_values(params, a, b, noise_seed)
        for label, (a, b) in datasets.items()
    }

    distances = {}
    for coord in coords:
        counters = {}
        for label, base in base_per_dataset.items():
            ctr = Counter()
            for z in range(q):
                ctr[(base[coord] + z) % q] += 1
            counters[label] = ctr
        distances[f"coordinate={coord}"] = _max_pairwise_distance(counters, q)
    return LeakageReport(
        protocol="smbmm_user_view",
        side="user",
        q=q,
        cases=cases,
        distances=distances,
        method=(
            "per-coordinate mask enumeration; coordinate values computed "
            "algebraically (product coefficients and polynomial division)"
        ),
        notes=(
            "coordinatewise surrogate: each masked coordinate is checked "
            "separately, justified by the nonsingular decode system "
            "certified via certify_server_privacy and the Cauchy-"
            "Vandermonde invertibility property",
        ),
    )
