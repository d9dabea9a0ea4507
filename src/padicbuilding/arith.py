"""Exact scalar arithmetic over Q with a p-adic valuation.

The base field K is the rationals carrying the valuation v_p, so every
field operation is exact.  Totally ramified extensions L = K[pi]/(pi^e - p)
are supported through coefficient vectors in the power basis; their
valuation has the closed form min_i(v_p(a_i) + i/e), which is exact
because the fractional parts i/e are pairwise distinct.

Absolute values are never materialized as real numbers: a value is either
zero or q^l for a rational exponent l, and only l is stored (log scale,
base q = p).

Linear algebra takes and returns `Fraction` matrices, but computes on
Python ints inside: the elimination kernel is fraction-free (Bareiss), so
every division in it is exact, and `Fraction` appears only at the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import DivisionByZeroError, SingularMatrixError

INF = math.inf


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeContext:
    """Ambient parameters: prime p, dimension n, ramification index e.

    The residue field has q = p elements; |x| = q^(-v(x)).
    """

    p: int
    n: int
    e: int = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 2:
            raise ValueError("need dimension n >= 2")
        if self.e < 1:
            raise ValueError("need ramification index e >= 1")

    @property
    def q(self) -> int:
        return self.p


def _int_val(m: int, p: int) -> int:
    # p-adic valuation of a nonzero integer; dividing by p^(2^k) on a
    # squaring ladder takes O(log v) big divisions instead of v of them
    m = abs(m)
    if m % p:
        return 0
    ladder = [p]
    while m % ladder[-1] == 0:
        m //= ladder[-1]
        ladder.append(ladder[-1] * ladder[-1])
    # p^(2^k) for every k < len(ladder) - 1 has been divided out, and what
    # remains has valuation below 2^(len(ladder) - 1): read its bits downwards
    v = (1 << (len(ladder) - 1)) - 1
    for k in range(len(ladder) - 2, -1, -1):
        if m % ladder[k] == 0:
            m //= ladder[k]
            v += 1 << k
    return v


def val_k(c, ctx: PrimeContext):
    """Valuation v_p on K = Q, normalized with v(p) = 1.  v(0) = +inf."""
    c = Fraction(c)
    if c == 0:
        return INF
    return _int_val(c.numerator, ctx.p) - _int_val(c.denominator, ctx.p)


@total_ordering
@dataclass(frozen=True)
class LogValue:
    """A nonnegative real of the form q^log, or zero (log is None).

    Multiplication adds exponents with zero absorbing; the ordering agrees
    with the usual order on reals since q > 1.
    """

    log: Fraction | None

    @staticmethod
    def finite(log) -> "LogValue":
        return LogValue(Fraction(log))

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(None)

    @property
    def is_zero(self) -> bool:
        return self.log is None

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return LogValue(None)
        return LogValue(self.log + other.log)

    def __pow__(self, k: int) -> "LogValue":
        if k == 0:
            return LogValue(Fraction(0))
        if k < 0:
            raise ValueError("negative powers not supported")
        if self.is_zero:
            return LogValue(None)
        return LogValue(self.log * k)

    def shift(self, delta) -> "LogValue":
        """Multiply by q^delta (zero stays zero)."""
        if self.is_zero:
            return self
        return LogValue(self.log + Fraction(delta))

    def __lt__(self, other: "LogValue") -> bool:
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.log < other.log

    def __repr__(self):
        return "LogValue(zero)" if self.is_zero else f"LogValue(q^{self.log})"


ZERO_VALUE = LogValue(None)
ONE_VALUE = LogValue(Fraction(0))


def abs_k(c, ctx: PrimeContext) -> LogValue:
    """|c| = q^(-v(c)) as a LogValue; |0| = zero."""
    v = val_k(c, ctx)
    if v == INF:
        return ZERO_VALUE
    return LogValue.finite(-v)


# ---------------------------------------------------------------------------
# Eisenstein extension L = K[pi]/(pi^e - p)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LScalar:
    """Element sum a_i pi^i of L in the power basis, pi^e = p."""

    coeffs: tuple


def l_scalar(coeffs, ctx: PrimeContext) -> LScalar:
    cs = [Fraction(c) for c in coeffs]
    if len(cs) > ctx.e:
        raise ValueError(f"expected at most {ctx.e} coefficients, got {len(cs)}")
    cs.extend([Fraction(0)] * (ctx.e - len(cs)))
    return LScalar(tuple(cs))


def l_from_k(c, ctx: PrimeContext) -> LScalar:
    return l_scalar([Fraction(c)], ctx)


def l_pi(ctx: PrimeContext) -> LScalar:
    """The uniformizer pi (equals p when e = 1)."""
    if ctx.e == 1:
        return l_scalar([ctx.p], ctx)
    return l_scalar([0, 1], ctx)


def l_is_zero(z: LScalar) -> bool:
    return all(c == 0 for c in z.coeffs)


def val_l(z: LScalar, ctx: PrimeContext):
    """Valuation on L extending v_p: min_i (v_p(a_i) + i/e); v(0) = +inf."""
    best = INF
    for i, a in enumerate(z.coeffs):
        if a == 0:
            continue
        v = Fraction(val_k(a, ctx)) + Fraction(i, ctx.e)
        if v < best:
            best = v
    return best


def l_add(z: LScalar, w: LScalar) -> LScalar:
    return LScalar(tuple(a + b for a, b in zip(z.coeffs, w.coeffs)))


def l_neg(z: LScalar) -> LScalar:
    return LScalar(tuple(-a for a in z.coeffs))


def l_sub(z: LScalar, w: LScalar) -> LScalar:
    return LScalar(tuple(a - b for a, b in zip(z.coeffs, w.coeffs)))


def l_mul(z: LScalar, w: LScalar, ctx: PrimeContext) -> LScalar:
    """Product in L, reduced by pi^e = p."""
    e, p = ctx.e, ctx.p
    out = [Fraction(0)] * e
    for i, a in enumerate(z.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(w.coeffs):
            if b == 0:
                continue
            k = i + j
            out[k % e] += a * b * (p ** (k // e))
    return LScalar(tuple(out))


def l_scale(c, z: LScalar) -> LScalar:
    c = Fraction(c)
    return LScalar(tuple(c * a for a in z.coeffs))


def _l_mul_matrix(z: LScalar, ctx: PrimeContext):
    # matrix of multiplication by z on L viewed as K^e (power basis)
    e, p = ctx.e, ctx.p
    rows = [[Fraction(0)] * e for _ in range(e)]
    for i, a in enumerate(z.coeffs):
        if a == 0:
            continue
        for j in range(e):
            k = i + j
            rows[k % e][j] += a * (p ** (k // e))
    return tuple(tuple(r) for r in rows)


def l_inv(z: LScalar, ctx: PrimeContext) -> LScalar:
    """Multiplicative inverse in L; exact (z * l_inv(z) = 1)."""
    if l_is_zero(z):
        raise DivisionByZeroError("inverse of zero in L")
    m = _l_mul_matrix(z, ctx)
    one = tuple([Fraction(1)] + [Fraction(0)] * (ctx.e - 1))
    return LScalar(solve_linear(m, one))


def k_rank(zs, ctx: PrimeContext) -> int:
    """Rank over K of LScalars viewed as coefficient vectors in K^e."""
    if not zs:
        raise ValueError("k_rank of empty family")
    return rank([z.coeffs for z in zs])


# ---------------------------------------------------------------------------
# Exact linear algebra over K (matrices are tuples of row tuples)
# ---------------------------------------------------------------------------

def vec(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


def mat(rows) -> tuple:
    rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def identity(n: int) -> tuple:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_vec(m, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v, strict=True)) for row in m)


def _integer_rows(rows) -> tuple:
    # each rational row times the lcm of its denominators, and those lcms
    ints, scales = [], []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return ints, scales


def mat_mul(a, b) -> tuple:
    """Exact product: (R^-1 A)(B C^-1) with A, B integer, one Fraction per entry."""
    arows, rs = _integer_rows(a)
    bcols, cs = _integer_rows(list(zip(*b, strict=True)))
    return tuple(tuple(Fraction(sum(x * y for x, y in zip(row, col, strict=True)), r * c)
                       for col, c in zip(bcols, cs))
                 for row, r in zip(arows, rs))


def mat_col(m, j) -> tuple:
    return tuple(row[j] for row in m)


def mat_from_cols(cols) -> tuple:
    return tuple(tuple(c[i] for c in cols) for i in range(len(cols[0])))


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v) -> tuple:
    c = Fraction(c)
    return tuple(c * a for a in v)


def _eliminate(rows, ncols: int, reduce: bool = True):
    """Fraction-free (Bareiss) row reduction of integer rows, in place.

    Pivots are sought in the first `ncols` columns; row operations act on
    whole rows, so augmented columns ride along.  Each step replaces every
    other row x by (lead * x - f * pivot_row) // prev, where lead is the new
    pivot, f the row's entry in the pivot column and prev the previous
    pivot; by Sylvester's identity every entry stays a minor of the input,
    so the division is exact.  The entries below each pivot are cleared;
    with `reduce` the entries above are cleared too (Gauss-Jordan), and
    then every pivot equals the returned d, so the reduced echelon form is
    the pivot rows divided by d.  Returns (pivot columns, d, sign), where
    sign is that of the row permutation; for a square full-rank input,
    sign * d is its determinant.
    """
    nrows = len(rows)
    pivots = []
    prev, sign = 1, 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        lead = top[col]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            f = rows[i][col]
            if f:
                rows[i] = [(lead * x - f * y) // prev for x, y in zip(rows[i], top)]
            elif lead != prev:
                rows[i] = [lead * x // prev for x in rows[i]]
        prev = lead
        pivots.append(col)
        r += 1
    return pivots, prev, sign


def _reduced(rows, ncols: int):
    """Reduced echelon of rational rows: (pivot columns, integer rows, d).

    Row i of the reduced echelon form is the integer row i divided by d.
    """
    ints, _ = _integer_rows(rows)
    pivots, d, _ = _eliminate(ints, ncols)
    return pivots, ints, d


def solve_linear(m, b) -> tuple:
    """Solve m x = b exactly for square invertible m."""
    n = len(m)
    if any(len(r) != n for r in m) or len(b) != n:
        raise ValueError("solve_linear needs a square system")
    pivots, a, d = _reduced([list(row) + [bi] for row, bi in zip(m, b)], n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(Fraction(row[n], d) for row in a)


def _inverse_parts(m):
    """(N, d) with N an integer matrix, d > 0 and m^-1 = N / d; None if singular.

    Row i of m joined to the unit row e_i is scaled by one integer s_i, so
    the reduction of [S m | S] ends in [d I | d m^-1] and no column needs
    rescaling afterwards.  N and d are divided by their common gcd.
    """
    n = len(m)
    pivots, a, d = _reduced([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(m)], n)
    if len(pivots) < n:
        return None
    inv = [row[n:] for row in a]
    g = math.gcd(d, *(x for row in inv for x in row))
    if d < 0:
        g = -g
    return tuple(tuple(x // g for x in row) for row in inv), d // g


def mat_inverse(m) -> tuple:
    parts = _inverse_parts(m)
    if parts is None:
        raise SingularMatrixError("matrix is singular")
    num, d = parts
    return tuple(tuple(Fraction(x, d) for x in row) for row in num)


def mat_det(m) -> Fraction:
    """Determinant by fraction-free forward elimination."""
    n = len(m)
    ints, scales = _integer_rows(m)
    pivots, d, sign = _eliminate(ints, n, reduce=False)
    return Fraction(sign * d, math.prod(scales)) if len(pivots) == n else Fraction(0)


def rank(vectors) -> int:
    """Rank of a family of equal-length vectors over Q."""
    rows, _ = _integer_rows([list(map(Fraction, v)) for v in vectors])
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]), reduce=False)[0])


def reduced_echelon(vectors) -> list:
    """Canonical basis of the span: reduced echelon, pivots 1, sorted by pivot.

    Used as the normal form for subspaces (kernels), so equality of spans
    becomes equality of lists.
    """
    rows = [list(map(Fraction, v)) for v in vectors]
    if not rows:
        return []
    pivots, a, d = _reduced(rows, len(rows[0]))
    return [tuple(Fraction(x, d) for x in row) for row in a[:len(pivots)]]


def _kernel_and_pivots(m):
    """`nullspace(m)` together with the pivot columns of m's row reduction."""
    if not m:
        raise ValueError("nullspace of empty matrix")
    ncols = len(m[0])
    pivots, rows, d = _reduced([list(map(Fraction, r)) for r in m], ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = Fraction(-rows[i][fc], d)
        basis.append(tuple(x))
    return (reduced_echelon(basis) if basis else []), pivots


def nullspace(m) -> list:
    """Canonical basis of {x : m x = 0} for a rectangular matrix m."""
    return _kernel_and_pivots(m)[0]
