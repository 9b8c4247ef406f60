"""Exact arithmetic over a prime field GF(q) and the structured linear
algebra the decoders rely on.

Field elements are plain ints in [0, q); :class:`FieldConfig` carries
the modulus and the arithmetic. Polynomials are coefficient lists with
index r holding the coefficient of x**r.
"""

from dataclasses import dataclass, field as dc_field

from . import _kernels
from .errors import (
    DegeneratePole,
    DuplicatePoint,
    ParamError,
    PoleCollision,
    ShapeError,
    SingularSystem,
    ZeroInverse,
)

# Witness set proving primality for every n < 3.3e24 (covers 64-bit moduli).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Prime modulus plus the field operations."""

    q: int

    def __post_init__(self):
        if self.q < 5:
            raise ParamError(f"modulus must be at least 5, got {self.q}")
        if self.q >= 1 << 64:
            raise ParamError("modulus must fit in 64 bits")
        if not is_prime(self.q):
            raise ParamError(f"modulus {self.q} is not prime")

    def element(self, v: int) -> int:
        return v % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroInverse("zero has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.q

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a % self.q, e, self.q)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _normalize(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return list(coeffs[:n])


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial; coeffs[r] is the coefficient of x**r.

    Trailing zeros are stripped on construction; the zero polynomial has
    an empty coefficient list and degree None.
    """

    field: FieldConfig
    coeffs: tuple

    @classmethod
    def make(cls, field: FieldConfig, coeffs) -> "Poly":
        return cls(field, tuple(_normalize([c % field.q for c in coeffs])))

    @classmethod
    def zero(cls, field: FieldConfig) -> "Poly":
        return cls(field, ())

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: int) -> int:
        return poly_eval(self, x)


def poly_eval(p: Poly, x: int) -> int:
    """Horner evaluation."""
    q = p.field.q
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % q
    return acc


def poly_add(a: Poly, b: Poly) -> Poly:
    q = a.field.q
    n = max(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i, c in enumerate(a.coeffs):
        out[i] = c
    for i, c in enumerate(b.coeffs):
        out[i] = (out[i] + c) % q
    return Poly.make(a.field, out)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a.coeffs or not b.coeffs:
        return Poly.zero(a.field)
    q = a.field.q
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, av in enumerate(a.coeffs):
        if av:
            for j, bv in enumerate(b.coeffs):
                out[i + j] = (out[i + j] + av * bv) % q
    return Poly.make(a.field, out)


def poly_divmod(a: Poly, b: Poly):
    """Quotient and remainder of a by b over the field."""
    if not b.coeffs:
        raise ZeroInverse("polynomial division by zero")
    q = a.field.q
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead_inv = pow(b.coeffs[-1], q - 2, q)
    quot = [0] * max(0, len(rem) - db)
    for top in range(len(rem) - 1, db - 1, -1):
        f = rem[top] * lead_inv % q
        if f:
            quot[top - db] = f
            for i, bc in enumerate(b.coeffs):
                rem[top - db + i] = (rem[top - db + i] - f * bc) % q
    return Poly.make(a.field, quot), Poly.make(a.field, rem[:db] if db else [])


def poly_interpolate(field: FieldConfig, points) -> Poly:
    """Unique polynomial of degree < len(points) through the points.

    Newton's divided differences, O(K^2). Raises DuplicatePoint when two
    x-coordinates coincide.
    """
    pts = list(points)
    if not pts:
        raise ParamError("need at least one point")
    xs = [x % field.q for x, _ in pts]
    ys = [y % field.q for _, y in pts]
    if len(set(xs)) != len(xs):
        raise DuplicatePoint("interpolation points share an x-coordinate")
    q = field.q
    n = len(xs)
    # divided difference table, in place
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            num = (dd[i] - dd[i - 1]) % q
            den = (xs[i] - xs[i - level]) % q
            dd[i] = num * pow(den, q - 2, q) % q
    # expand the Newton form back to monomial coefficients
    coeffs = [0] * n
    coeffs[0] = dd[n - 1]
    deg = 0
    for i in range(n - 2, -1, -1):
        # coeffs := coeffs * (x - xs[i]) + dd[i]
        deg += 1
        for j in range(deg, 0, -1):
            coeffs[j] = (coeffs[j - 1] - xs[i] * coeffs[j]) % q
        coeffs[0] = (dd[i] - xs[i] * coeffs[0]) % q
    return Poly.make(field, coeffs)


def shifted_power_expand(field: FieldConfig, base_pole: int, factor_poles) -> Poly:
    """Rewrite prod (pole_j - x)**e_j as a polynomial in t = (base_pole - x).

    Each factor (pole_j - x) equals t + (pole_j - base_pole), so the
    result is a product of binomials; the constant term is
    prod (pole_j - base_pole)**e_j, nonzero whenever the poles are
    distinct from the base.
    """
    q = field.q
    base = base_pole % q
    coeffs = [1]
    for pole, exponent in factor_poles:
        d = (pole - base) % q
        if d == 0:
            raise DegeneratePole(f"factor pole {pole} equals the base pole")
        for _ in range(exponent):
            # multiply by (t + d)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] = (nxt[i] + c * d) % q
                nxt[i + 1] = (nxt[i + 1] + c) % q
            coeffs = nxt
    return Poly.make(field, coeffs)


# ---------------------------------------------------------------------------
# Structured matrices and exact solving
# ---------------------------------------------------------------------------


def build_cauchy_vandermonde(field: FieldConfig, alphas, poles, vander_width: int):
    """Rows over the alphas: pole-reciprocal columns then monomial columns.

    ``poles`` is a list of (pole, multiplicity) pairs. For a pole d with
    multiplicity e the columns run 1/(d-a)**e, ..., 1/(d-a); the
    Vandermonde tail is 1, a, ..., a**(width-1). The matrix is square
    when len(alphas) == sum of multiplicities + vander_width.
    """
    alphas = [a % field.q for a in alphas]
    if len(set(alphas)) != len(alphas):
        raise DuplicatePoint("evaluation points must be distinct")
    pole_vals = [p % field.q for p, _ in poles]
    if len(set(pole_vals)) != len(pole_vals):
        raise DuplicatePoint("poles must be distinct")
    total = sum(e for _, e in poles) + vander_width
    if len(alphas) != total:
        raise ShapeError(
            f"{len(alphas)} rows cannot form a square system of width {total}"
        )
    q = field.q
    rows = []
    for a in alphas:
        row = []
        for pole, mult in poles:
            diff = (pole - a) % q
            if diff == 0:
                raise PoleCollision(f"evaluation point {a} hits pole {pole}")
            inv = pow(diff, q - 2, q)
            # descending powers: 1/(d-a)^mult first
            powers = [inv]
            for _ in range(mult - 1):
                powers.append(powers[-1] * inv % q)
            row.extend(reversed(powers))
        v = 1
        for _ in range(vander_width):
            row.append(v)
            v = v * a % q
        rows.append(row)
    return rows


def build_toeplitz_lower(c):
    """n x n lower-triangular Toeplitz matrix with first column c."""
    if not c:
        raise ParamError("need at least one coefficient")
    n = len(c)
    return [[c[i - j] if i >= j else 0 for j in range(n)] for i in range(n)]


class SquareSystem:
    """K x K system over GF(q) with a cached LU factorization.

    The factorization is computed on first solve and reused across
    right-hand sides; instances are read-only afterwards, so concurrent
    solves are safe.
    """

    def __init__(self, field: FieldConfig, rows):
        self.field = field
        self.n = len(rows)
        flat = []
        for row in rows:
            if len(row) != self.n:
                raise ShapeError("system matrix must be square")
            flat.extend(v % field.q for v in row)
        self._flat = flat
        self._lu = None

    def _factor(self):
        if self._lu is None:
            try:
                self._lu = _kernels.lu_factor_mod(self._flat, self.n, self.field.q)
            except ZeroDivisionError:
                raise SingularSystem("matrix is singular over GF(q)") from None
        return self._lu

    def is_singular(self) -> bool:
        try:
            self._factor()
        except SingularSystem:
            return True
        return False

    def solve(self, column):
        """Solve for one right-hand side column."""
        if len(column) != self.n:
            raise ShapeError("right-hand side length mismatch")
        lu, perm, dinv = self._factor()
        rhs = [v % self.field.q for v in column]
        return _kernels.lu_solve_mod(lu, perm, dinv, self.n, rhs, self.field.q)

    def solve_many(self, columns):
        return [self.solve(col) for col in columns]
