import pytest

from smbmm.errors import (
    DegeneratePole,
    DuplicatePoint,
    ParamError,
    PoleCollision,
    ShapeError,
    SingularSystem,
    ZeroInverse,
)
from smbmm.field import (
    FieldConfig,
    Poly,
    SquareSystem,
    build_cauchy_vandermonde,
    build_toeplitz_lower,
    is_prime,
    poly_divmod,
    poly_eval,
    poly_interpolate,
    poly_mul,
    shifted_power_expand,
)
from smbmm.rng import Stream

from oracles import det_mod, rank_mod


def test_field_config_rejects_composites_and_tiny_moduli():
    with pytest.raises(ParamError):
        FieldConfig(9)
    with pytest.raises(ParamError):
        FieldConfig(4)
    with pytest.raises(ParamError):
        FieldConfig(3)
    FieldConfig(5)
    FieldConfig(18446744073709551557)  # largest 64-bit prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 101, 257, 1009, 7919}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n)), n
    for p in primes:
        assert is_prime(p)


def test_fp_arith_worked_values():
    f = FieldConfig(7)
    assert f.mul(3, 5) == 1
    assert f.inv(1) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)
    with pytest.raises(ZeroInverse):
        f.div(3, 0)


def test_fp_arith_axioms_exhaustive_q7():
    f = FieldConfig(7)
    for a in range(7):
        assert f.add(a, f.sub(0, a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == a * b % 7
    assert f.pow(3, -2) == f.inv(f.mul(3, 3))


def test_poly_eval_worked_values():
    f = FieldConfig(7)
    assert poly_eval(Poly.make(f, [1, 2]), 3) == 0
    assert poly_eval(Poly.zero(f), 5) == 0
    assert Poly.zero(f).degree is None


def test_poly_interpolate_worked_values():
    f = FieldConfig(7)
    p = poly_interpolate(f, [(1, 2), (2, 4)])
    assert p.coeffs == (0, 2)  # 2x
    p = poly_interpolate(f, [(0, 5)])
    assert p.coeffs == (5,)
    with pytest.raises(DuplicatePoint):
        poly_interpolate(f, [(1, 2), (1, 3)])


def test_poly_interpolate_without_points_is_a_param_error():
    with pytest.raises(ParamError):
        poly_interpolate(FieldConfig(7), [])


def test_poly_interpolate_recovers_known_degree_6():
    f = FieldConfig(101)
    st = Stream(11)
    coeffs = [st.next_below(101) for _ in range(7)]
    coeffs[-1] = coeffs[-1] or 1
    p = Poly.make(f, coeffs)
    pts = [(x, poly_eval(p, x)) for x in range(1, 8)]
    assert poly_interpolate(f, pts).coeffs == p.coeffs


@pytest.mark.parametrize("degree", [0, 1, 5, 17, 64])
def test_interpolation_round_trip_degrees(degree):
    f = FieldConfig(257)
    st = Stream(1000 + degree)
    coeffs = [st.next_below(257) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or 1
    p = Poly.make(f, coeffs)
    pts = [(x, poly_eval(p, x)) for x in range(degree + 1)]
    back = poly_interpolate(f, pts)
    assert back.coeffs == p.coeffs
    # re-evaluate at held-out points
    for x in range(degree + 1, degree + 11):
        assert poly_eval(back, x % 257) == poly_eval(p, x % 257)


def test_poly_divmod_round_trip():
    f = FieldConfig(101)
    st = Stream(3)
    a = Poly.make(f, [st.next_below(101) for _ in range(12)])
    b = Poly.make(f, [st.next_below(101) for _ in range(4)] + [1])
    quot, rem = poly_divmod(a, b)
    from smbmm.field import poly_add
    recon = poly_add(poly_mul(quot, b), rem)
    assert recon.coeffs == a.coeffs
    assert rem.degree is None or rem.degree < b.degree


def test_shifted_power_expand_worked_values():
    f = FieldConfig(7)
    assert shifted_power_expand(f, 1, [(2, 1)]).coeffs == (1, 1)
    assert shifted_power_expand(f, 1, [(2, 2)]).coeffs == (1, 2, 1)
    with pytest.raises(DegeneratePole):
        shifted_power_expand(f, 1, [(1, 1)])


def test_shifted_power_expand_evaluation_oracle():
    # compare both sides at random alpha: prod (pole-α)^e vs the
    # expansion evaluated in t = base-α
    f = FieldConfig(101)
    st = Stream(17)
    base, factors = 3, [(5, 2), (9, 3)]
    p = shifted_power_expand(f, base, factors)
    for _ in range(50):
        alpha = st.next_below(101)
        direct = 1
        for pole, e in factors:
            direct = direct * pow(pole - alpha, e, 101) % 101
        assert poly_eval(p, (base - alpha) % 101) == direct


def test_shifted_power_expand_constant_term():
    f = FieldConfig(257)
    st = Stream(23)
    for _ in range(50):
        base = st.next_below(257)
        factors = []
        used = {base}
        for _ in range(3):
            pole = st.next_below(257)
            while pole in used:
                pole = (pole + 1) % 257
            used.add(pole)
            factors.append((pole, 1 + st.next_below(4)))
        p = shifted_power_expand(f, base, factors)
        c0 = 1
        for pole, e in factors:
            c0 = c0 * pow(pole - base, e, 257) % 257
        assert p.coeffs[0] == c0 != 0


def test_cauchy_vandermonde_worked_values():
    f = FieldConfig(7)
    assert build_cauchy_vandermonde(f, [3], [], 1) == [[1]]
    grid = build_cauchy_vandermonde(f, [3, 4], [(1, 1)], 1)
    assert grid == [[3, 1], [2, 1]]
    with pytest.raises(PoleCollision):
        build_cauchy_vandermonde(f, [1, 4], [(1, 1)], 1)
    with pytest.raises(ShapeError):
        build_cauchy_vandermonde(f, [3, 4, 5], [(1, 1)], 1)
    with pytest.raises(DuplicatePoint):
        build_cauchy_vandermonde(f, [3, 4, 5], [(1, 1), (1, 1)], 1)


def test_cauchy_vandermonde_nonsingular_quoted_shape():
    f = FieldConfig(101)
    alphas = [a for a in range(10, 40) if a not in (5, 9)][:20]
    grid = build_cauchy_vandermonde(f, alphas, [(5, 7), (9, 6)], 7)
    assert rank_mod(grid, 101) == 20


@pytest.mark.parametrize("q", [101, 257, 7919])
def test_cauchy_vandermonde_nonsingular_random_draws(q):
    # lighter copy of the acceptance property: 20 draws per field here
    f = FieldConfig(q)
    st = Stream(q)
    for _ in range(20):
        n_poles = 1 + st.next_below(3)
        used = set()
        poles = []
        for _ in range(n_poles):
            d = st.next_below(q)
            while d in used:
                d = (d + 1) % q
            used.add(d)
            poles.append((d, 1 + st.next_below(4)))
        width = 1 + st.next_below(5)
        total = sum(e for _, e in poles) + width
        alphas = []
        while len(alphas) < total:
            a = st.next_below(q)
            if a not in used:
                used.add(a)
                alphas.append(a)
        grid = build_cauchy_vandermonde(f, alphas, poles, width)
        assert rank_mod(grid, q) == total


def test_toeplitz_worked_values():
    assert build_toeplitz_lower([1]) == [[1]]
    assert build_toeplitz_lower([1, 2]) == [[1, 0], [2, 1]]
    assert build_toeplitz_lower([1, 2, 3]) == [[1, 0, 0], [2, 1, 0], [3, 2, 1]]


def test_toeplitz_without_coefficients_is_a_param_error():
    with pytest.raises(ParamError):
        build_toeplitz_lower([])


def test_toeplitz_nonsingular_iff_leading_nonzero():
    q = 101
    st = Stream(31)
    c = [1 + st.next_below(q - 1)] + [st.next_below(q) for _ in range(4)]
    t = build_toeplitz_lower(c)
    assert det_mod(t, q) == pow(c[0], 5, q) != 0
    c[0] = 0
    assert det_mod(build_toeplitz_lower(c), q) == 0


def test_solve_square_worked_values():
    f = FieldConfig(7)
    ident = SquareSystem(f, [[1, 0], [0, 1]])
    assert ident.solve([5, 6]) == [5, 6]
    swap = SquareSystem(f, [[0, 1], [1, 0]])
    assert swap.solve([2, 5]) == [5, 2]
    singular = SquareSystem(f, [[1, 1], [2, 2]])
    with pytest.raises(SingularSystem):
        singular.solve([1, 1])
    assert singular.is_singular()


def test_solve_square_multiply_round_trip():
    q = 101
    f = FieldConfig(q)
    st = Stream(47)
    rows = [[st.next_below(q) for _ in range(8)] for _ in range(8)]
    while rank_mod(rows, q) < 8:
        rows = [[st.next_below(q) for _ in range(8)] for _ in range(8)]
    system = SquareSystem(f, rows)
    y = [st.next_below(q) for _ in range(8)]
    rhs = [sum(rows[i][j] * y[j] for j in range(8)) % q for i in range(8)]
    assert system.solve(rhs) == y
    # factorization reused across columns
    cols = [[st.next_below(q) for _ in range(8)] for _ in range(5)]
    for col, sol in zip(cols, system.solve_many(cols)):
        assert [sum(rows[i][j] * sol[j] for j in range(8)) % q for i in range(8)] == col
