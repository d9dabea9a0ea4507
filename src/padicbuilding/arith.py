"""Exact scalar arithmetic over Q with a p-adic valuation.

The base field K is the rationals carrying the valuation v_p, so every
field operation is exact.  Totally ramified extensions L = K[pi]/(pi^e - p)
are supported through coefficient vectors in the power basis; their
valuation has the closed form min_i(v_p(a_i) + i/e), which is exact
because the fractional parts i/e are pairwise distinct.

Absolute values are never materialized as real numbers: a value is either
zero or q^l for a rational exponent l, and only l is stored (log scale,
base q = p).
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
    # p-adic valuation of a nonzero integer
    v = 0
    m = abs(m)
    while m % p == 0:
        m //= p
        v += 1
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
    rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    return rows


def identity(n: int) -> tuple:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_vec(m, v) -> tuple:
    return tuple(sum(a * x for a, x in zip(row, v, strict=True)) for row in m)


def mat_mul(a, b) -> tuple:
    bt = list(zip(*b, strict=True))
    return tuple(tuple(sum(x * y for x, y in zip(row, col, strict=True)) for col in bt)
                 for row in a)


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
    """Row-reduce `rows`, a list of row lists, in place.

    Pivots are sought in the first `ncols` columns; row operations act on
    whole rows, so augmented columns ride along.  The entries below each
    pivot are cleared.  With `reduce` the entries above are cleared too and
    every pivot row is scaled to lead with 1, giving the reduced echelon
    form; without it the pass is the forward half only.  Returns the pivot
    columns and the signed product of the pivots, which is the determinant
    when the first `ncols` columns are square and of full rank.
    """
    nrows = len(rows)
    pivots = []
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        lead = rows[r][col]
        det *= lead
        inv = 1 / Fraction(lead)
        # entries left of col vanish in the pivot row, so only the tail moves
        tail = rows[r][col:]
        for i in range(0 if reduce else r + 1, nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i][col:] = [x - f * y for x, y in zip(rows[i][col:], tail)]
        if reduce:
            rows[r][col:] = [x * inv for x in tail]
        pivots.append(col)
        r += 1
    return pivots, det


def solve_linear(m, b) -> tuple:
    """Solve m x = b exactly for square invertible m."""
    n = len(m)
    if any(len(r) != n for r in m) or len(b) != n:
        raise ValueError("solve_linear needs a square system")
    a = [list(row) + [bi] for row, bi in zip(m, b)]
    if len(_eliminate(a, n)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(row[n] for row in a)


def mat_inverse(m) -> tuple:
    n = len(m)
    a = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    if len(_eliminate(a, n)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(row[n:]) for row in a)


def mat_det(m) -> Fraction:
    """Determinant by fraction-exact forward elimination."""
    n = len(m)
    pivots, det = _eliminate([list(row) for row in m], n, reduce=False)
    return det if len(pivots) == n else Fraction(0)


def rank(vectors) -> int:
    """Rank of a family of equal-length vectors over Q."""
    rows = [list(map(Fraction, v)) for v in vectors]
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
    pivots, _ = _eliminate(rows, len(rows[0]))
    return [tuple(row) for row in rows[:len(pivots)]]


def _kernel_and_pivots(m):
    """`nullspace(m)` together with the pivot columns of m's row reduction."""
    if not m:
        raise ValueError("nullspace of empty matrix")
    ncols = len(m[0])
    rows = [list(map(Fraction, r)) for r in m]
    pivots, _ = _eliminate(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -rows[i][fc]
        basis.append(tuple(x))
    return (reduced_echelon(basis) if basis else []), pivots


def nullspace(m) -> list:
    """Canonical basis of {x : m x = 0} for a rectangular matrix m."""
    return _kernel_and_pivots(m)[0]
