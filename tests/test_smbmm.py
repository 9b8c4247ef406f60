from fractions import Fraction

import pytest

from smbmm.batch import (
    CommonRandomness,
    SmbmmParams,
    SmbmmResponse,
    SmbmmShare,
    alignment_coefficients,
    build_sub_encoders,
    cost_report_smbmm,
    decode_smbmm,
    derive_indices,
    encode_smbmm,
    eval_noise_poly,
    gen_common_randomness,
    pinned_positions,
    recovery_threshold_smbmm,
    response_row_weights,
    server_compute_smbmm,
    solve_response_stack,
    stack_offsets,
)
from smbmm.errors import (
    BatchSizeError,
    HypothesisViolation,
    InsufficientResponses,
    PointError,
    ShapeError,
)
from smbmm.matrix import BlockMatrix, matmul_oracle, random_matrix
from smbmm.rng import Stream
from smbmm.ssmm import A_MAJOR, B_MAJOR


def test_thresholds_worked_example():
    t = recovery_threshold_smbmm(2, 3, 2, 2, 3, 2, 2)
    assert t.k_prime == 76
    assert t.k_double_prime == 74
    assert t.k == 74 and t.best_variant == B_MAJOR


def test_thresholds_small_symmetric_case():
    t = recovery_threshold_smbmm(2, 1, 2, 1, 1, 1, 2)
    assert (t.k_prime, t.k_double_prime, t.k) == (16, 16, 16)
    assert t.best_variant == A_MAJOR  # tie goes to the A-major layout


def test_thresholds_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        recovery_threshold_smbmm(1, 1, 2, 1, 1, 1, 2)
    with pytest.raises(HypothesisViolation):
        recovery_threshold_smbmm(2, 1, 1, 1, 1, 1, 2)
    with pytest.raises(HypothesisViolation):
        recovery_threshold_smbmm(2, 1, 2, 1, 1, 2, 1)


def test_threshold_equals_stack_dimension_count():
    # K = G*psi + G(L-1)*kappa + phi + 1 for each variant
    st = Stream(8)
    for _ in range(50):
        m, n = 2 + st.next_below(2), 2 + st.next_below(2)
        p = 1 + st.next_below(3)
        x_a, x_b = 1 + st.next_below(3), 1 + st.next_below(3)
        g, l = 1 + st.next_below(2), 2 + st.next_below(2)
        t = recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l)
        for variant, k in ((A_MAJOR, t.k_prime), (B_MAJOR, t.k_double_prime)):
            idx = derive_indices(m, p, n, x_a, x_b, g, l, variant)
            assert g * idx.psi + g * (l - 1) * idx.kappa + idx.phi + 1 == k


def test_derived_indices_worked_example():
    idx = derive_indices(2, 3, 2, 2, 3, 2, 2, A_MAJOR)
    assert idx.psi == 15 and idx.kappa == 12
    assert idx.phi == 21 and idx.delta == 24
    assert idx.tail_degree == 13
    assert idx.gamma == (2, 5, 11, 14)
    assert idx.lam == (2, 5, 8, 11)
    assert all(0 <= r < idx.psi for r in idx.gamma)
    assert all(0 <= r < idx.kappa for r in idx.lam)


def test_derived_indices_and_sub_encoders_b_major_worked_example():
    idx = derive_indices(2, 3, 2, 2, 3, 2, 2, B_MAJOR)
    assert idx.psi == 14 and idx.kappa == 12
    assert idx.phi == 21 and idx.delta == 23
    assert idx.tail_degree == 13
    assert idx.gamma == (2, 5, 10, 13)
    assert idx.lam == (2, 5, 8, 11)

    params = _example_params(variant=B_MAJOR)
    batch_a, batch_b = _batches(params, 12, 12, 12, 1)
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed=2)
    # terms are listed blocks first (row-major over the block grid), then noise
    p1 = [e for e, _ in enc.p_terms[(1, 1)]]
    q1 = [e for e, _ in enc.q_terms[(1, 1)]]
    assert p1 == [0, 1, 2, 3, 4, 5] + [6, 7]
    assert q1 == [2, 10, 1, 9, 0, 8] + [14, 15, 16]
    assert [e for e, _ in enc.p_terms[(1, 2)]] == [0, 1, 2, 3, 4, 5]
    assert [e for e, _ in enc.q_terms[(1, 2)]] == [2, 8, 1, 7, 0, 6]


def _example_params(variant=A_MAJOR, q=1009, n_servers=85):
    return SmbmmParams.make(2, 3, 2, 2, 3, 2, 2, n_servers, q, variant=variant)


def _batches(params, rows, inner, cols, seed):
    st = Stream(seed)
    gl = params.batch_size
    batch_a = [random_matrix(rows, inner, params.field, st.derive(f"A/{i}"))
               for i in range(gl)]
    batch_b = [random_matrix(inner, cols, params.field, st.derive(f"B/{i}"))
               for i in range(gl)]
    return batch_a, batch_b


def test_sub_encoder_exponents_worked_example():
    params = _example_params()
    batch_a, batch_b = _batches(params, 12, 12, 12, 1)
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed=2)
    # noise terms sit at the top of the first sub-encoder only
    p_exps = sorted(e for e, _ in enc.p_terms[(1, 1)])
    q_exps = sorted(e for e, _ in enc.q_terms[(1, 1)])
    assert p_exps[-2:] == [15, 16]
    assert q_exps[-3:] == [6, 7, 8]
    # second sub-encoder: entangled layout, stride np = 6 for the A side
    assert sorted(e for e, _ in enc.p_terms[(1, 2)]) == [0, 1, 2, 6, 7, 8]
    assert sorted(e for e, _ in enc.q_terms[(1, 2)]) == [0, 1, 2, 3, 4, 5]


def test_sub_encoder_product_degrees():
    params = _example_params(q=257, n_servers=80)
    batch_a, batch_b = _batches(params, 2, 3, 2, 5)
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed=4)
    idx = params.indices
    q = params.field.q
    for h in (1, 2):
        prod1 = enc.product_terms(h, 1, q)
        top = max(e for e, data in prod1.items() if any(data))
        assert top == idx.delta
        prod2 = enc.product_terms(h, 2, q)
        top2 = max(e for e, data in prod2.items() if any(data))
        assert top2 == idx.tail_degree


def test_desired_slots_hold_block_products():
    # H at the Gamma/Lambda slots equals the corresponding block product
    params = _example_params(q=257, n_servers=80)
    batch_a, batch_b = _batches(params, 2, 3, 2, 7)
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed=6)
    idx = params.indices
    q = params.field.q
    part = params.partition
    from smbmm.matrix import partition as split
    for h in (1, 2):
        for ell in (1, 2):
            flat = (h - 1) * params.l + (ell - 1)
            prod = enc.product_terms(h, ell, q)
            slot_of = idx.gamma_of if ell == 1 else idx.lam_of
            ga = split(batch_a[flat], part.m, part.p)
            gb = split(batch_b[flat], part.p, part.n)
            for k in range(1, part.m + 1):
                for j in range(1, part.n + 1):
                    acc = matmul_oracle(ga[k - 1][0], gb[0][j - 1])
                    for l in range(1, part.p):
                        acc = acc.add(matmul_oracle(ga[k - 1][l], gb[l][j - 1]))
                    assert prod[slot_of[(k, j)]] == acc.data


def test_encoder_division_free_route_matches_rational_route():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 20, 101)
    batch_a, batch_b = _batches(params, 2, 1, 2, 9)
    enc = build_sub_encoders(batch_a, batch_b, params, noise_seed=8)
    shares = encode_smbmm(batch_a, batch_b, params, noise_seed=8)
    fld = params.field
    q = fld.q
    idx = params.indices
    from smbmm.batch import eval_terms
    for i in (0, 3, 7, 11, 19):
        alpha = params.alphas[i]
        h = 1
        delta = 1
        parts_p, parts_q = [], []
        for ell in (1, 2):
            span = idx.psi if ell == 1 else idx.kappa
            t = (params.pole(h, ell) - alpha) % q
            delta = delta * pow(t, span, q) % q
        acc_a = None
        acc_b = None
        for ell in (1, 2):
            span = idx.psi if ell == 1 else idx.kappa
            t = (params.pole(h, ell) - alpha) % q
            inv_pow = fld.inv(pow(t, span, q))
            pv = eval_terms(enc.p_terms[(h, ell)], t, q, 1, 1, fld).scaled(inv_pow)
            qv = eval_terms(enc.q_terms[(h, ell)], t, q, 1, 1, fld).scaled(inv_pow)
            acc_a = pv if acc_a is None else acc_a.add(pv)
            acc_b = qv if acc_b is None else acc_b.add(qv)
        assert shares[i].a_parts[0] == acc_a.scaled(delta)
        assert shares[i].b_parts[0] == acc_b


def test_common_randomness_worked_example():
    params = _example_params()
    cr = gen_common_randomness(params, 3, (6, 6))
    assert cr.random_count == 60
    assert len(cr.masks) == 76
    idx = params.indices
    offsets, tail = stack_offsets(params)
    pinned = pinned_positions(params)
    # mn pinned slots inside every (h, ell) block, none in the tail
    for h in (1, 2):
        for ell in (1, 2):
            base = offsets[(h, ell)]
            span = idx.psi if ell == 1 else idx.kappa
            inside = [p - base for p in pinned if base <= p - 0 < base + span]
            expect = idx.gamma if ell == 1 else idx.lam
            assert sorted(inside) == list(expect)
            for r in expect:
                assert cr.masks[base + r].is_zero()
    assert all(p < tail for p in pinned)
    # enumerated count equals the closed form K - G*L*m*n
    assert len(cr.masks) - len(pinned) == params.threshold - 4 * 4


def test_eval_noise_poly_zero_masks():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 16, 101)
    zero = BlockMatrix.zeros(1, 1, params.field)
    cr = CommonRandomness(params, tuple(zero for _ in range(params.threshold)))
    assert eval_noise_poly(cr, params, params.alphas[0]).is_zero()


def test_noise_poly_decodes_back_to_masks():
    # responses made of S(alpha_i) alone must solve to exactly the masks
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 16, 101)
    cr = gen_common_randomness(params, 5, (1, 2))
    responses = [
        SmbmmResponse(i, eval_noise_poly(cr, params, a))
        for i, a in enumerate(params.alphas)
    ]
    stack = solve_response_stack(responses, params)
    assert list(stack) == list(cr.masks)


def test_alignment_constant_terms_nonzero():
    params = _example_params(q=257, n_servers=80)
    table = alignment_coefficients(params)
    q = params.field.q
    idx = params.indices
    for h in (1, 2):
        c1 = table[(h, 1)]
        expect = pow(params.pole(h, 2) - params.pole(h, 1), idx.kappa, q)
        assert c1[0] == expect % q != 0
        # zero-padding convention: (L-1)*kappa < s < psi
        assert list(c1[idx.kappa + 1:]) == [0] * (idx.psi - idx.kappa - 1)
        c2 = table[(h, 2)]
        expect = pow(params.pole(h, 1) - params.pole(h, 2), idx.psi, q)
        assert c2[0] == expect % q != 0


def test_server_response_matches_closed_form():
    # Y_i must equal sum over stack slots of weight * (value + mask)
    from smbmm.audit import _stack_base_values
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 16, 101)
    batch_a, batch_b = _batches(params, 2, 1, 2, 13)
    shares = encode_smbmm(batch_a, batch_b, params, noise_seed=14)
    cr = gen_common_randomness(params, 15, (1, 1))
    base = _stack_base_values(params, batch_a, batch_b, noise_seed=14)
    q = params.field.q
    for i in (0, 5, 10):
        y = server_compute_smbmm(shares[i], cr, params).y
        weights = response_row_weights(params, params.alphas[i])
        expect = 0
        for w, v, mask in zip(weights, base, cr.masks):
            expect = (expect + w * ((v + mask.entry(0, 0)) % q)) % q
        assert y.entry(0, 0) == expect


def test_server_compute_zero_share_and_randomness():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 16, 101)
    fld = params.field
    zero_small = BlockMatrix.zeros(1, 1, fld)
    share = SmbmmShare(0, (BlockMatrix.zeros(1, 1, fld),),
                       (BlockMatrix.zeros(1, 2, fld),))
    cr = CommonRandomness(params, tuple(
        BlockMatrix.zeros(1, 2, fld) for _ in range(params.threshold)))
    resp = server_compute_smbmm(share, cr, params)
    assert resp.y.is_zero()
    assert resp.y.rows == 1 and resp.y.cols == 2
    assert zero_small.is_zero()


def _full_run(params, rows, inner, cols, seed):
    batch_a, batch_b = _batches(params, rows, inner, cols, seed)
    shares = encode_smbmm(batch_a, batch_b, params, noise_seed=seed + 1)
    cr = gen_common_randomness(
        params, seed + 2, (rows // params.partition.m, cols // params.partition.n))
    responses = [server_compute_smbmm(s, cr, params) for s in shares]
    expected = [matmul_oracle(a, b) for a, b in zip(batch_a, batch_b)]
    return responses, expected


def test_decode_small_end_to_end():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 18, 257)
    responses, expected = _full_run(params, 4, 2, 4, 100)
    k = params.threshold
    assert decode_smbmm(responses[:k], params) == expected
    assert decode_smbmm(responses[2:], params) == expected
    with pytest.raises(InsufficientResponses):
        decode_smbmm(responses[: k - 1], params)


def test_decode_worked_example_both_variants():
    for variant, k in ((A_MAJOR, 76), (B_MAJOR, 74)):
        params = _example_params(variant=variant)
        assert params.threshold == k
        responses, expected = _full_run(params, 12, 12, 12, 200)
        sub = Stream(43)
        pool = list(responses)
        for i in range(k):
            j = i + sub.next_below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        assert decode_smbmm(pool[:k], params) == expected


def test_decode_moderate_matrix_sizes():
    # bigger blocks than the worked examples: 24x24 data, 12x12 responses
    params = SmbmmParams.make(2, 2, 2, 1, 1, 1, 2, 30, 257)
    responses, expected = _full_run(params, 24, 24, 24, 4242)
    assert decode_smbmm(responses[: params.threshold], params) == expected


def test_randomized_oracle_and_subset_invariance():
    st = Stream(77)
    for draw in range(10):
        m, n = 2, 2 + st.next_below(2)
        p = 1 + st.next_below(2)
        x_a, x_b = 1 + st.next_below(2), 1 + st.next_below(2)
        g, l = 1 + st.next_below(2), 2
        variant = (A_MAJOR, B_MAJOR)[st.next_below(2)]
        t = recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l)
        k = t.of(variant)
        n_servers = k + 2 + st.next_below(3)
        params = SmbmmParams.make(m, p, n, x_a, x_b, g, l, n_servers, 257,
                                  variant=variant)
        responses, expected = _full_run(params, m, p, n, 900 + draw)
        seen = []
        for s in range(2):
            pool = list(responses)
            sub = Stream(7000 + draw * 10 + s)
            for i in range(k):
                j = i + sub.next_below(len(pool) - i)
                pool[i], pool[j] = pool[j], pool[i]
            seen.append(decode_smbmm(pool[:k], params))
        assert seen[0] == expected and seen[1] == expected


def test_decode_larger_groupings():
    # three and four matrices per group, both layouts
    cases = [(2, 2, 3, 1, 2, 1, 3, A_MAJOR), (3, 1, 2, 2, 1, 2, 3, B_MAJOR),
             (2, 1, 2, 1, 1, 1, 4, A_MAJOR), (2, 1, 2, 1, 1, 3, 2, B_MAJOR)]
    for m, p, n, x_a, x_b, g, l, variant in cases:
        k = recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l).of(variant)
        params = SmbmmParams.make(m, p, n, x_a, x_b, g, l, k + 3, 257,
                                  variant=variant)
        responses, expected = _full_run(params, m, p, n, 777)
        assert decode_smbmm(responses[3 : 3 + k], params) == expected


def test_decode_rejects_duplicate_responses():
    from smbmm.errors import DuplicatePoint
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 17, 101)
    responses, _ = _full_run(params, 2, 1, 2, 55)
    k = params.threshold
    with pytest.raises(DuplicatePoint):
        decode_smbmm([responses[0]] + responses[: k - 1], params)


@pytest.mark.parametrize("index", [18, 99, -1])
def test_decode_rejects_out_of_range_server_index(index):
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 18, 101)
    responses, _ = _full_run(params, 2, 1, 2, 56)
    bad = [SmbmmResponse(index, responses[0].y)] + responses[1:]
    with pytest.raises(PointError):
        decode_smbmm(bad, params)


def test_decode_rejects_mismatched_response_shape():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 18, 101)
    responses, _ = _full_run(params, 4, 1, 4, 57)  # 2x2 response blocks
    flat = BlockMatrix(1, 4, responses[0].y.data, params.field)
    with pytest.raises(ShapeError):
        decode_smbmm([SmbmmResponse(0, flat)] + responses[1:], params)
    with pytest.raises(ShapeError):
        solve_response_stack(responses[:5] + [SmbmmResponse(5, flat)] + responses[6:],
                             params)


def test_default_points_fill_tight_fields():
    # q = N + G*L exactly: every admissible element including zero is
    # used as an evaluation point, and decoding still works
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, n_servers=17, q=19)
    assert params.threshold == 16
    assert 0 in params.alphas
    assert len(set(params.alphas)) == 17
    assert not set(params.alphas) & set(params.poles)
    responses, expected = _full_run(params, 2, 1, 2, 88)
    assert decode_smbmm(responses[: params.threshold], params) == expected
    # one more server would have nowhere to evaluate
    from smbmm.errors import ParamError
    with pytest.raises(ParamError):
        SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, n_servers=18, q=19)


def test_encode_validation_errors():
    params = SmbmmParams.make(2, 1, 2, 1, 1, 1, 2, 16, 101)
    batch_a, batch_b = _batches(params, 2, 1, 2, 3)
    with pytest.raises(BatchSizeError):
        encode_smbmm(batch_a[:1], batch_b, params, 1)
    bad_a = [random_matrix(3, 1, params.field, Stream(i)) for i in range(2)]
    with pytest.raises(ShapeError):
        encode_smbmm(bad_a, batch_b, params, 1)


def test_cost_report_worked_example_and_discrepancy_note():
    params = _example_params(variant=A_MAJOR)
    rep = cost_report_smbmm(params)
    assert rep.recovery_threshold == 76
    assert rep.threshold_a_major == 76 and rep.threshold_b_major == 74
    assert rep.download == Fraction(19, 4)
    assert rep.randomness == Fraction(15, 4)
    assert rep.randomness_count == 60
    assert rep.upload_a == Fraction(85, 12)
    assert rep.upload_b == Fraction(85, 12)
    # rho = D - 1 always; at K = G*L*m*n the amount would hit zero
    assert rep.randomness == rep.download - 1
    assert any("74" in note for note in rep.notes)


def test_randomness_count_formula_random_draws():
    st = Stream(111)
    for _ in range(50):
        m, n = 2 + st.next_below(2), 2 + st.next_below(2)
        p = 1 + st.next_below(3)
        x_a, x_b = 1 + st.next_below(3), 1 + st.next_below(3)
        g, l = 1 + st.next_below(3), 2 + st.next_below(2)
        variant = (A_MAJOR, B_MAJOR)[st.next_below(2)]
        t = recovery_threshold_smbmm(m, p, n, x_a, x_b, g, l)
        k = t.of(variant)
        idx = derive_indices(m, p, n, x_a, x_b, g, l, variant)
        enumerated = (
            g * (idx.psi - len(idx.gamma))
            + g * (l - 1) * (idx.kappa - len(idx.lam))
            + idx.phi + 1
        )
        assert enumerated == k - g * l * m * n
