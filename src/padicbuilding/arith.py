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

from .errors import DomainError, SingularMatrixError

INF = math.inf
_ZERO, _ONE = Fraction(0), Fraction(1)      # shared by identity(); Fractions are immutable
_EXACT_TYPES = frozenset((int, Fraction))   # entry types the matrix helpers take as they are


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every m below _PRIME_LIMIT (Sorenson and Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Exact for m < _PRIME_LIMIT; larger m are refused."""
    if m >= _PRIME_LIMIT:
        raise ValueError(f"p = {m} is too large: primes below {_PRIME_LIMIT} are supported")
    if m < 2:
        return False
    for a in _PRIME_BASES:
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
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
        if any(type(x) is not int for x in (self.p, self.n, self.e)):
            raise ValueError(f"p, n and e must be integers, got {self.p!r}, {self.n!r}, {self.e!r}")
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


def _rational(x) -> Fraction:
    """x as a Fraction: a Fraction as it is, a float as the decimal its repr shows."""
    try:
        return x if type(x) is Fraction else Fraction(repr(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError, TypeError):
        if isinstance(x, float) and not math.isfinite(x):
            raise DomainError(f"not a finite number: {x}") from None
        raise DomainError(f"not a rational number: {x!r}") from None


def val_k(c, ctx: PrimeContext):
    """Valuation v_p on K = Q, normalized with v(p) = 1.  v(0) = +inf."""
    c = _rational(c)
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
        return LogValue(_rational(log))

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
        return LogValue(self.log + _rational(delta))

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
    """Element sum a_i pi^i of L in the power basis, pi^e = p; the coefficients are read by vec."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", vec(self.coeffs))


def l_scalar(coeffs, ctx: PrimeContext) -> LScalar:
    cs = tuple(_sequence(coeffs))
    if len(cs) > ctx.e:
        raise DomainError(f"expected at most {ctx.e} coefficients, got {len(cs)}")
    return LScalar(cs + (_ZERO,) * (ctx.e - len(cs)))


def _check_l_coeffs(zs, ctx: PrimeContext):
    # l_scalar pads to ctx.e coefficients; a scalar built at another e would be misread
    if any(len(z.coeffs) != ctx.e for z in zs):
        raise DomainError(f"every scalar needs e = {ctx.e} coefficients")


def l_from_k(c, ctx: PrimeContext) -> LScalar:
    return l_scalar([c], ctx)


def l_pi(ctx: PrimeContext) -> LScalar:
    """The uniformizer pi (equals p when e = 1)."""
    if ctx.e == 1:
        return l_scalar([ctx.p], ctx)
    return l_scalar([0, 1], ctx)


def l_is_zero(z: LScalar) -> bool:
    return all(c == 0 for c in z.coeffs)


def val_l(z: LScalar, ctx: PrimeContext):
    """Valuation on L extending v_p: min_i (v_p(a_i) + i/e); v(0) = +inf."""
    _check_l_coeffs([z], ctx)
    best = INF
    for i, a in enumerate(z.coeffs):
        if a == 0:
            continue
        v = Fraction(val_k(a, ctx)) + Fraction(i, ctx.e)
        if v < best:
            best = v
    return best


def _same_length(z: LScalar, w: LScalar):
    if len(z.coeffs) != len(w.coeffs):
        raise DomainError(f"scalars have {len(z.coeffs)} and {len(w.coeffs)} coefficients")


def l_add(z: LScalar, w: LScalar) -> LScalar:
    _same_length(z, w)
    return LScalar(tuple(a + b for a, b in zip(z.coeffs, w.coeffs)))


def l_neg(z: LScalar) -> LScalar:
    return LScalar(tuple(-a for a in z.coeffs))


def l_sub(z: LScalar, w: LScalar) -> LScalar:
    _same_length(z, w)
    return LScalar(tuple(a - b for a, b in zip(z.coeffs, w.coeffs)))


def l_mul(z: LScalar, w: LScalar, ctx: PrimeContext) -> LScalar:
    """Product in L, reduced by pi^e = p."""
    _check_l_coeffs([z, w], ctx)
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
    c = _rational(c)
    return LScalar(tuple(c * a for a in z.coeffs))


def k_rank(zs, ctx: PrimeContext) -> int:
    """Rank over K of LScalars viewed as coefficient vectors in K^e."""
    if not zs:
        raise DomainError("k_rank of empty family")
    _check_l_coeffs(zs, ctx)
    return rank([z.coeffs for z in zs])


# ---------------------------------------------------------------------------
# Exact linear algebra over K (matrices are tuples of row tuples)
# ---------------------------------------------------------------------------

def _sequence(xs):
    # xs as given; a string is not a sequence of its characters, and a non-iterable no sequence
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):
        raise DomainError(f"not a sequence of entries: {xs!r}")
    return xs


def vec(xs) -> tuple:
    """The one reader of a sequence of scalars, each entry read by _rational."""
    return tuple(map(_rational, _sequence(xs)))


def mat(rows) -> tuple:
    rows = tuple(map(vec, _sequence(rows)))
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("ragged matrix")
    return rows


def identity(n: int) -> tuple:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def _exact(rows) -> list:
    """The rows as tuples, their ints and Fractions as they are; a row that is not a tuple
    of them is checked to be a sequence, and read by vec if it holds anything else."""
    return [row if type(row) is tuple and _EXACT_TYPES.issuperset(map(type, row)) else
            _exact_row(row) for row in _sequence(rows)]


def _exact_row(row) -> tuple:
    row = tuple(_sequence(row))
    return row if _EXACT_TYPES.issuperset(map(type, row)) else vec(row)


def mat_vec(m, v) -> tuple:
    (v,) = _exact([v])
    return tuple(sum(a * x for a, x in zip(row, v, strict=True)) for row in _exact(m))


def _integer_rows(rows) -> tuple:
    # each rational row times the lcm of its denominators, and those lcms
    ints, scales = [], []
    for row in rows:
        pairs = [x.as_integer_ratio() for x in row]
        den = math.lcm(*[d for _, d in pairs])
        ints.append([a * (den // d) for a, d in pairs])
        scales.append(den)
    return ints, scales


def mat_mul(a, b) -> tuple:
    """Exact product: (R^-1 A)(B C^-1) with A, B integer, one Fraction per entry."""
    arows, rs = _integer_rows(_exact(a))
    bcols, cs = _integer_rows(_exact(zip(*b, strict=True)))
    return tuple(tuple(Fraction(sum(x * y for x, y in zip(row, col, strict=True)), r * c)
                       for col, c in zip(bcols, cs))
                 for row, r in zip(arows, rs))


def mat_col(m, j) -> tuple:
    return tuple(row[j] for row in m)


def mat_from_cols(cols) -> tuple:
    return tuple(tuple(c[i] for c in cols) for i in range(len(cols[0])))


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(*_exact([u, v]), strict=True))


def vec_sub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(*_exact([u, v]), strict=True))


def vec_scale(c, v) -> tuple:
    c = _rational(c)
    return tuple(c * a for a in _exact([v])[0])


def _eliminate(rows, ncols: int, reduce: bool = True, start: int = 1):
    """Fraction-free (Bareiss) row reduction of integer rows, in place.

    Pivots are sought in the first `ncols` columns; row operations act on
    whole rows, so augmented columns ride along.  Each step replaces every
    other row x by (lead * x - f * pivot_row) // prev, where lead is the new
    pivot, f the row's entry in the pivot column and prev the previous
    pivot; by Sylvester's identity every entry stays a minor of the input,
    so the division is exact.  A row with f = 0 would only be rescaled by
    lead / prev, so rescaling is lazy: each row records the pivot (its level)
    its entries belong to, an update of it divides by that level, not by
    prev, and it is rescaled by prev / level only when it becomes the pivot
    row or at the end, where a forward pass leaves each pivot row as it was
    used.  Rows, pivots, d and sign are those of eager rescaling.  The
    entries below each pivot are cleared; with `reduce` the entries above
    are cleared too (Gauss-Jordan), and then every pivot equals the returned
    d, so the reduced echelon form is the pivot rows divided by d.  `start`
    is the pivot the rows already belong to: rows s * m, with s times every
    minor of m an integer (the right half of a Gauss-Jordan pass with pivot
    s), continue from start = s, and every entry stays s times a minor of m.
    Returns (pivot columns, d, sign), where sign is that of the row
    permutation; for a square full-rank m, sign * d = start * det m.
    """
    nrows = len(rows)
    level = [start] * nrows
    pivots = []
    prev, sign = start, 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        if level[r] != prev:
            rows[r] = [x * prev // level[r] for x in rows[r]]
        top = rows[r]
        lead = top[col]
        for i in range(0 if reduce else r + 1, nrows):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(lead * x - f * y) // level[i] for x, y in zip(rows[i], top)]
                level[i] = lead
        level[r] = prev = lead
        pivots.append(col)
        r += 1
    for i in range(0 if reduce else r, nrows):
        if level[i] != prev:
            rows[i] = [x * prev // level[i] for x in rows[i]]
    return pivots, prev, sign


def _reduced(rows, ncols: int):
    """Reduced echelon of rational rows: (pivot columns, integer rows, d).

    Row i of the reduced echelon form is the integer row i divided by d.
    """
    ints, _ = _integer_rows(rows)
    pivots, d, _ = _eliminate(ints, ncols)
    return pivots, ints, d


def solve_linear(m, b) -> tuple:
    """Solve m x = b exactly for square invertible m, as mat_inverse(m) b."""
    inv = mat_inverse(mat(m))
    if len(b) != len(m):
        raise DomainError(f"right-hand side has {len(b)} entries, expected {len(m)}")
    return mat_vec(inv, vec(b))


def _inverse_parts(m):
    """(N, d, det m) with N an integer matrix, d != 0 and m^-1 = N / d; None if singular.

    Row i of m joined to the unit row e_i is scaled by one integer s_i, so
    the reduction of [S m | S] ends in [d I | d m^-1] with d = sign det(S m),
    and no column needs rescaling afterwards.  N / d is not in lowest terms.
    """
    n = len(m)
    a, scales = _integer_rows([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(m)])
    pivots, d, sign = _eliminate(a, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in a], d, Fraction(sign * d, math.prod(scales))


def mat_inverse(m) -> tuple:
    rows = _exact(m)
    if any(len(row) != len(rows) for row in rows):
        raise DomainError("matrix is not square")
    parts = _inverse_parts(rows)
    if parts is None:
        raise SingularMatrixError("matrix is singular")
    num, d, _ = parts
    return tuple(tuple(Fraction(x, d) for x in row) for row in num)


def mat_det(m) -> Fraction:
    """Determinant by fraction-free forward elimination."""
    ints, scales = _integer_rows(_exact(m))
    n = len(ints)
    if any(len(row) != n for row in ints):
        raise DomainError("matrix is not square")
    pivots, d, sign = _eliminate(ints, n, reduce=False)
    return Fraction(sign * d, math.prod(scales)) if len(pivots) == n else Fraction(0)


def rank(vectors) -> int:
    """Rank of a family of equal-length vectors over Q."""
    rows, _ = _integer_rows(mat(vectors))
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0]), reduce=False)[0])


def reduced_echelon(vectors) -> list:
    """Canonical basis of the span: reduced echelon, pivots 1, sorted by pivot.

    Used as the normal form for subspaces (kernels), so equality of spans
    becomes equality of lists.
    """
    rows = mat(vectors)
    if not rows:
        return []
    pivots, a, d = _reduced(rows, len(rows[0]))
    return [tuple(Fraction(x, d) for x in row) for row in a[:len(pivots)]]


def _kernel_and_pivots(m):
    """`nullspace(m)` and the pivot columns of m's row reduction.  With R / d the reduced
    echelon form of m, free column f gives the integer kernel row with d at f and -R_i[f]
    at pivot i; one elimination takes those rows to the unique basis nullspace returns."""
    if not m:
        raise DomainError("nullspace of empty matrix")
    ncols = len(m[0])
    pivots, rows, d = _reduced(mat(m), ncols)
    row_at = dict(zip(pivots, rows))
    basis = [[d if c == f else -row_at[c][f] if c in row_at else 0 for c in range(ncols)]
             for f in range(ncols) if f not in row_at]
    d = _eliminate(basis, ncols)[1]
    return [tuple(Fraction(x, d) for x in row) for row in basis], pivots


def nullspace(m) -> list:
    """Canonical basis of {x : m x = 0} for a rectangular matrix m."""
    return _kernel_and_pivots(m)[0]
