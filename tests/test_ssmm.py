import pytest

from smbmm.errors import (
    DuplicatePoint,
    InsufficientResponses,
    ParamError,
    PointError,
    ShapeError,
)
from smbmm.field import FieldConfig
from smbmm.matrix import BlockMatrix, matmul_oracle, random_matrix
from smbmm.rng import Stream
from smbmm.ssmm import (
    A_MAJOR,
    B_MAJOR,
    SsmmParams,
    SsmmResponse,
    _plan,
    cost_report_ssmm,
    decode_ssmm,
    encode_ssmm,
    noise_exponents,
    recovery_threshold_ssmm,
    server_compute_ssmm,
)

from oracles import poly_deg, poly_mul_scalar


def test_thresholds_worked_example():
    pair = recovery_threshold_ssmm(2, 3, 2, 2, 3)
    assert pair.a_major == 25  # the worked-example layout
    assert pair.b_major == 24
    assert pair.k == 24 and pair.best_variant == B_MAJOR


def test_thresholds_trivial_and_derived():
    pair = recovery_threshold_ssmm(1, 1, 1, 1, 1)
    assert (pair.a_major, pair.b_major, pair.k) == (3, 3, 3)
    assert pair.best_variant == A_MAJOR  # ties go to the A-major layout
    pair = recovery_threshold_ssmm(2, 1, 3, 1, 2)
    assert (pair.a_major, pair.b_major, pair.k) == (13, 12, 12)


def _symbolic_threshold(m, p, n, x_a, x_b, variant, q=101, seed=0):
    """Degree oracle: build scalar encoders with random data and noise,
    multiply them symbolically, and count coefficients."""
    st = Stream(seed)
    plan = _plan(m, p, n, x_a, x_b, variant)
    a_poly = [0] * (plan["a_noise"](x_a) + 1)
    for k in range(1, m + 1):
        for l in range(1, p + 1):
            a_poly[plan["a_block"](k, l)] = st.next_below(q)
    for x in range(1, x_a + 1):
        a_poly[plan["a_noise"](x)] = 1 + st.next_below(q - 1)
    b_poly = [0] * (plan["b_noise"](x_b) + 1)
    for l in range(1, p + 1):
        for j in range(1, n + 1):
            b_poly[plan["b_block"](l, j)] = st.next_below(q)
    for x in range(1, x_b + 1):
        b_poly[plan["b_noise"](x)] = 1 + st.next_below(q - 1)
    return poly_deg(poly_mul_scalar(a_poly, b_poly, q)) + 1


@pytest.mark.parametrize("params", [
    (2, 3, 2, 2, 3), (1, 1, 1, 1, 1), (2, 1, 3, 1, 2),
    (3, 2, 2, 1, 1), (1, 2, 3, 3, 2), (2, 2, 2, 3, 3),
])
def test_threshold_matches_symbolic_degree(params):
    pair = recovery_threshold_ssmm(*params)
    assert _symbolic_threshold(*params, A_MAJOR, seed=1) == pair.a_major
    assert _symbolic_threshold(*params, B_MAJOR, seed=2) == pair.b_major


def test_noise_exponents_worked_example():
    assert noise_exponents(2, 3, 2, 2, 3, A_MAJOR, "a") == [15, 16]
    assert noise_exponents(2, 3, 2, 2, 3, A_MAJOR, "b") == [6, 7, 8]


def test_degree_bookkeeping_identity():
    # deg(A-encoder) + deg(B-encoder) = K - 1 in both layouts
    for args in [(2, 3, 2, 2, 3), (1, 1, 1, 2, 1), (3, 1, 2, 1, 3)]:
        m, p, n, x_a, x_b = args
        pair = recovery_threshold_ssmm(*args)
        for variant, k in ((A_MAJOR, pair.a_major), (B_MAJOR, pair.b_major)):
            plan = _plan(m, p, n, x_a, x_b, variant)
            deg_a = plan["a_noise"](x_a)
            deg_b = plan["b_noise"](x_b)
            assert deg_a + deg_b == k - 1


def test_params_validation():
    with pytest.raises(ParamError):
        SsmmParams.make(1, 1, 1, 1, 1, 2, 101)  # N below threshold
    with pytest.raises(PointError):
        SsmmParams.make(1, 1, 1, 1, 1, 4, 101, alphas=[0, 1, 2, 3])
    with pytest.raises(PointError):
        SsmmParams.make(1, 1, 1, 1, 1, 4, 101, alphas=[1, 1, 2, 3])
    with pytest.raises(ParamError):
        SsmmParams.make(2, 3, 2, 2, 3, 30, 29)  # q too small for N


def test_variant_auto_selection():
    p = SsmmParams.make(2, 3, 2, 2, 3, 30, 257)
    assert p.variant == B_MAJOR and p.threshold == 24
    p = SsmmParams.make(2, 1, 3, 1, 2, 15, 101)
    assert p.variant == B_MAJOR and p.threshold == 12


def test_encode_formula_collapse_trivial_case():
    # m=p=n=1, X=1: the A share is A + Z*alpha, so (share - A)/alpha is
    # the same constant for every server
    params = SsmmParams.make(1, 1, 1, 1, 1, 5, 101, variant=A_MAJOR)
    fld = params.field
    a = BlockMatrix.from_rows([[17]], fld)
    b = BlockMatrix.from_rows([[23]], fld)
    shares = encode_ssmm(a, b, params, noise_seed=7)
    zs = {
        fld.div(fld.sub(s.a_share.data[0], 17), params.alphas[i])
        for i, s in enumerate(shares)
    }
    assert len(zs) == 1


def test_encode_rejects_bad_shapes():
    params = SsmmParams.make(2, 3, 2, 2, 3, 30, 257)
    fld = params.field
    a = random_matrix(5, 6, fld, Stream(1))  # 5 not divisible by 2
    b = random_matrix(6, 6, fld, Stream(2))
    with pytest.raises(ShapeError):
        encode_ssmm(a, b, params, 1)
    with pytest.raises(ShapeError):
        encode_ssmm(random_matrix(4, 6, fld, Stream(1)),
                    random_matrix(4, 6, fld, Stream(2)), params, 1)


def test_server_compute_trivial():
    fld = FieldConfig(7)
    from smbmm.ssmm import SsmmShare
    share = SsmmShare(0, BlockMatrix.from_rows([[3]], fld),
                      BlockMatrix.from_rows([[5]], fld))
    assert server_compute_ssmm(share).y.data == [1]
    share = SsmmShare(1, BlockMatrix.zeros(1, 1, fld),
                      BlockMatrix.from_rows([[5]], fld))
    assert server_compute_ssmm(share).y.is_zero()


def test_responses_lie_on_one_polynomial():
    # interpolating H from the first K responses must reproduce every
    # remaining server's response exactly
    from smbmm.field import poly_eval, poly_interpolate
    params = SsmmParams.make(2, 1, 2, 1, 1, 14, 101, variant=A_MAJOR)
    st = Stream(3)
    a = random_matrix(2, 1, params.field, st.derive("a"))
    b = random_matrix(1, 2, params.field, st.derive("b"))
    responses = [server_compute_ssmm(s) for s in encode_ssmm(a, b, params, 5)]
    k = params.threshold
    h = poly_interpolate(
        params.field,
        [(params.alphas[r.server_index], r.y.entry(0, 0)) for r in responses[:k]],
    )
    for r in responses[k:]:
        assert poly_eval(h, params.alphas[r.server_index]) == r.y.entry(0, 0)


def _pipeline(params, rows, inner, cols, seed):
    st = Stream(seed)
    a = random_matrix(rows, inner, params.field, st.derive("a"))
    b = random_matrix(inner, cols, params.field, st.derive("b"))
    responses = [server_compute_ssmm(s)
                 for s in encode_ssmm(a, b, params, st.derive("z").next_u64())]
    return a, b, responses


def test_decode_trivial_parameters():
    params = SsmmParams.make(1, 1, 1, 1, 1, 6, 101, variant=A_MAJOR)
    a, b, responses = _pipeline(params, 2, 2, 2, 9)
    assert decode_ssmm(responses[: params.threshold], params) == matmul_oracle(a, b)


def test_decode_worked_example_and_failure_modes():
    params = SsmmParams.make(2, 3, 2, 2, 3, 30, 257, variant=A_MAJOR)
    assert params.threshold == 25
    a, b, responses = _pipeline(params, 12, 12, 12, 1)
    expect = matmul_oracle(a, b)
    assert decode_ssmm(responses[:25], params) == expect
    assert decode_ssmm(responses[5:], params) == expect
    with pytest.raises(InsufficientResponses):
        decode_ssmm(responses[:24], params)
    with pytest.raises(DuplicatePoint):
        decode_ssmm([responses[0]] + responses[:24], params)


@pytest.mark.parametrize("index", [4, 99, -1])
def test_decode_rejects_out_of_range_server_index(index):
    params = SsmmParams.make(1, 1, 1, 1, 1, 4, 101)
    _, _, responses = _pipeline(params, 2, 2, 2, 11)
    bad = [SsmmResponse(index, responses[0].y)] + responses[1:]
    with pytest.raises(PointError):
        decode_ssmm(bad, params)


def test_decode_rejects_mismatched_response_shape():
    # a 1x4 block among 2x2 ones used to decode to a wrong product silently
    params = SsmmParams.make(1, 1, 1, 1, 1, 4, 101)
    _, _, responses = _pipeline(params, 2, 2, 2, 12)
    flat = BlockMatrix(1, 4, responses[0].y.data, params.field)
    with pytest.raises(ShapeError):
        decode_ssmm([SsmmResponse(0, flat)] + responses[1:], params)
    with pytest.raises(ShapeError):
        decode_ssmm(responses[:2] + [SsmmResponse(2, flat)], params)


def test_randomized_oracle_equivalence_and_subset_invariance():
    # light version of the acceptance property suite
    st = Stream(2024)
    for draw in range(20):
        m = 1 + st.next_below(3)
        p = 1 + st.next_below(3)
        n = 1 + st.next_below(3)
        x_a = 1 + st.next_below(3)
        x_b = 1 + st.next_below(3)
        q = (101, 257)[st.next_below(2)]
        variant = (A_MAJOR, B_MAJOR)[st.next_below(2)]
        pair = recovery_threshold_ssmm(m, p, n, x_a, x_b)
        k = pair.of(variant)
        n_servers = k + 1 + st.next_below(4)
        params = SsmmParams.make(m, p, n, x_a, x_b, n_servers, q, variant=variant)
        u, w = 1 + st.next_below(2), 1 + st.next_below(2)
        a, b, responses = _pipeline(params, m * u, p, n * w, 3000 + draw)
        expect = matmul_oracle(a, b)
        decoded = {}
        for s in range(3):
            pool = list(responses)
            sub = Stream(5000 + draw * 10 + s)
            for i in range(k):
                j = i + sub.next_below(len(pool) - i)
                pool[i], pool[j] = pool[j], pool[i]
            decoded[s] = decode_ssmm(pool[:k], params)
        assert all(d == expect for d in decoded.values())


def test_decode_moderate_matrix_sizes():
    params = SsmmParams.make(3, 3, 3, 2, 2, 45, 257, variant=A_MAJOR)
    a, b, responses = _pipeline(params, 36, 36, 36, 4242)
    k = params.threshold
    assert decode_ssmm(responses[:k], params) == matmul_oracle(a, b)


def test_cost_report_worked_example():
    from fractions import Fraction
    params = SsmmParams.make(2, 3, 2, 2, 3, 30, 257, variant=A_MAJOR)
    rep = cost_report_ssmm(params)
    assert rep.recovery_threshold == 25
    assert rep.upload_a == Fraction(30, 6) == Fraction(5)
    assert rep.upload_b == Fraction(5)
    assert rep.download == Fraction(25, 4)
    assert rep.randomness == 0 and rep.randomness_count == 0
    assert rep.notes  # records that the fixed layout is not the minimum
