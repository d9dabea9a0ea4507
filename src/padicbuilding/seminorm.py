"""Diagonal seminorms on V = K^n and their exact calculus.

A seminorm here is stored in diagonalized form: an invertible basis matrix
(columns w_1..w_n) together with one value per column, either q^l for a
rational l or zero.  Evaluation expands a vector in the basis and takes
the maximum of |coordinate| * column value; by construction this satisfies
the scaling and ultrametric axioms.  Every seminorm admits such a
presentation, and `orthogonalize` produces one for the restriction of a
norm to a subspace.

Values are kept in log scale (see arith.LogValue); no real number is ever
formed, so equality questions are decided exactly.

Each seminorm carries the inverse of its basis in integer form, N / d,
computed once when it is built (or derived from its parent's), so that
evaluation runs on Python ints: a vector's denominators are cleared once,
and only integer dot products and their p-adic valuations follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .apartment import ApartmentPoint, apartment_point
from .arith import (
    ZERO_VALUE,
    LogValue,
    PrimeContext,
    _int_val,
    _integer_rows,
    _inverse_parts,
    _kernel_and_pivots,
    identity,
    l_is_zero,
    mat,
    mat_col,
    mat_det,  # noqa: F401  -- kept bound: the benchmark tracer wraps each module's mat_det
    mat_from_cols,
    mat_mul,
    mat_vec,
    reduced_echelon,
    val_k,
)
from .errors import (
    DependentInputError,
    DomainError,
    KernelMismatchError,
    NotCanonicalBasisError,
    SingularMatrixError,
    ZeroFunctionalError,
)


@dataclass(frozen=True)
class DiagonalSeminorm:
    """Seminorm in diagonal form: basis columns w_i with values gamma(w_i)."""

    basis: tuple
    values: tuple
    ctx: PrimeContext
    # (N, d): integer matrix N and integer d > 0 with basis^-1 = N / d
    _inv: tuple = field(compare=False, repr=False)

    def column(self, i: int) -> tuple:
        return mat_col(self.basis, i)

    @property
    def n(self) -> int:
        return len(self.values)

    def is_norm(self) -> bool:
        return all(not v.is_zero for v in self.values)


def diagonal_seminorm(basis, values, ctx: PrimeContext) -> DiagonalSeminorm:
    basis = mat(basis)
    values = tuple(values)
    n = ctx.n
    if len(basis) != n or any(len(r) != n for r in basis):
        raise DomainError(f"basis must be {n}x{n}")
    if len(values) != n:
        raise DomainError("one value per basis column required")
    if all(v.is_zero for v in values):
        raise DomainError("seminorm must not vanish identically")
    inv = _inverse_parts(basis)
    if inv is None:
        raise SingularMatrixError("basis is singular")
    return DiagonalSeminorm(basis, values, ctx, inv)


def evaluate(g: DiagonalSeminorm, v) -> LogValue:
    """gamma(v) = max_i |lambda_i| gamma(w_i) where v = sum lambda_i w_i.

    With v = w / D for an integer vector w, lambda_i = (N_i . w) / (d D), so
    only the integer dot products N_i . w need a valuation.
    """
    (w,), (den,) = _integer_rows([[x if type(x) is Fraction else Fraction(x) for x in v]])
    num, d = g._inv
    p = g.ctx.p
    best = None
    for row, val in zip(num, g.values, strict=True):
        if val.is_zero:
            continue
        s = sum(a * x for a, x in zip(row, w, strict=True))
        if s:
            cand = val.log - _int_val(s, p)
            if best is None or cand > best:
                best = cand
    if best is None:
        return ZERO_VALUE
    return LogValue.finite(best + _int_val(d, p) + _int_val(den, p))


def kernel_of(g: DiagonalSeminorm) -> list:
    """Canonical (reduced echelon) basis of ker gamma = span of zero columns."""
    cols = [g.column(i) for i, v in enumerate(g.values) if v.is_zero]
    return reduced_echelon(cols)


def compose_with(g: DiagonalSeminorm, m) -> DiagonalSeminorm:
    """The translate gamma o m^{-1}: transport the basis, keep the values."""
    m = mat(m)
    m_inv = _inverse_parts(m)
    if m_inv is None:
        raise SingularMatrixError("group element must be invertible")
    # (m basis)^-1 = basis^-1 m^-1 = (N M) / (d e)
    (num, d), (m_num, e) = g._inv, m_inv
    cols = list(zip(*m_num))
    prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in num]
    div = math.gcd(d * e, *(x for row in prod for x in row))
    inv = tuple(tuple(x // div for x in row) for row in prod), d * e // div
    return DiagonalSeminorm(mat_mul(m, g.basis), g.values, g.ctx, inv)


def scale_seminorm(g: DiagonalSeminorm, delta) -> DiagonalSeminorm:
    """Multiply the seminorm by q^delta."""
    return DiagonalSeminorm(g.basis, tuple(v.shift(delta) for v in g.values), g.ctx, g._inv)


# ---------------------------------------------------------------------------
# The apartment chart
# ---------------------------------------------------------------------------

def phi_from_apartment(x: ApartmentPoint, ctx: PrimeContext) -> DiagonalSeminorm:
    """Standard-basis seminorm with value q^(-x_i) on the piece, zero off it."""
    if not set(x.piece) <= set(range(1, ctx.n + 1)):
        raise DomainError(f"piece {x.piece} does not fit dimension {ctx.n}")
    values = []
    for i in range(1, ctx.n + 1):
        if i in x.piece:
            values.append(LogValue.finite(-x.exponent(i)))
        else:
            values.append(ZERO_VALUE)
    unit = tuple(tuple(int(i == j) for j in range(ctx.n)) for i in range(ctx.n))
    return DiagonalSeminorm(identity(ctx.n), tuple(values), ctx, (unit, 1))


def phi_inverse(g: DiagonalSeminorm) -> ApartmentPoint:
    """Apartment coordinates of a standard-basis seminorm."""
    if g.basis != identity(g.n):
        raise NotCanonicalBasisError("seminorm is not in the standard basis")
    piece = [i + 1 for i, v in enumerate(g.values) if not v.is_zero]
    exps = [-g.values[i - 1].log for i in piece]
    return apartment_point(piece, exps)


# ---------------------------------------------------------------------------
# Equality and equivalence
# ---------------------------------------------------------------------------

def equals(g1: DiagonalSeminorm, g2: DiagonalSeminorm) -> bool:
    """Exact equality of seminorms as functions on V.

    It suffices to compare on the two bases: if gamma agrees with a
    seminorm on a basis with respect to which the latter is canonical, the
    ultrametric inequality forces gamma <= it, and symmetrically.
    """
    if g1.ctx != g2.ctx:
        raise DomainError("seminorms live over different contexts")
    for i in range(g1.n):
        if evaluate(g2, g1.column(i)) != g1.values[i]:
            return False
    for i in range(g2.n):
        if evaluate(g1, g2.column(i)) != g2.values[i]:
            return False
    return True


def canonical_class(g: DiagonalSeminorm) -> DiagonalSeminorm:
    """Deterministic representative of the homothety class.

    Kernel columns are replaced by the reduced-echelon basis of the kernel;
    the remaining columns are sorted by value (largest first, ties broken
    by the column entries) and all values are shifted so the leading one
    becomes q^0.
    """
    nonker = [(g.values[i], g.column(i)) for i in range(g.n) if not g.values[i].is_zero]
    nonker.sort(key=lambda vc: (-vc[0].log, vc[1]))
    shift = -nonker[0][0].log
    cols = [c for _, c in nonker] + kernel_of(g)
    values = [v.shift(shift) for v, _ in nonker] + [ZERO_VALUE] * (g.n - len(nonker))
    return diagonal_seminorm(mat_from_cols(cols), values, g.ctx)


def class_equals(g1: DiagonalSeminorm, g2: DiagonalSeminorm) -> bool:
    """Equality up to a positive constant multiple q^c."""
    if g1.ctx != g2.ctx:
        raise DomainError("seminorms live over different contexts")
    if kernel_of(g1) != kernel_of(g2):
        return False
    lead = next(i for i in range(g1.n) if not g1.values[i].is_zero)
    w = g1.column(lead)
    v2 = evaluate(g2, w)
    delta = g1.values[lead].log - v2.log
    return equals(g1, scale_seminorm(g2, delta))


# ---------------------------------------------------------------------------
# Ultrametric orthogonalization
# ---------------------------------------------------------------------------

def _weight(ctx, cs, x, j):
    # log of |x_j| q^{c_j}; None encodes zero
    if x[j] == 0:
        return None
    return cs[j] - val_k(x[j], ctx)


def _reduce_family(coords, companions, cs, ctx):
    """Column reduction making the family diagonal for max_j |x_j| q^{c_j}.

    Claims a private dominant coordinate per vector and keeps every other
    vector strictly below its own norm there.  Each reduction step either
    removes a claimed coordinate from the dominant set at constant norm or
    drops the norm within the discrete exponent grid, so the loop
    terminates; a vector reduced to zero witnesses dependence.
    """
    dim = len(cs)
    claimed = {}
    tops = []
    for k in range(len(coords)):
        r = list(coords[k])
        comp = list(companions[k])
        while True:
            weights = [_weight(ctx, cs, r, j) for j in range(dim)]
            finite = [w for w in weights if w is not None]
            if not finite:
                raise DependentInputError("input vectors are linearly dependent")
            g = max(finite)
            dom = [j for j in range(dim) if weights[j] == g]
            dom_claimed = [j for j in dom if j in claimed]
            if not dom_claimed:
                j_star = min(j for j in dom if j not in claimed)
                claimed[j_star] = k
                # keep earlier vectors strictly subdominant at the new pivot
                for i in range(k):
                    wi = _weight(ctx, cs, coords[i], j_star)
                    if wi is not None and wi == tops[i]:
                        a = coords[i][j_star] / r[j_star]
                        coords[i] = [x - a * y for x, y in zip(coords[i], r)]
                        companions[i] = [x - a * y for x, y in zip(companions[i], comp)]
                tops.append(g)
                break
            j = dom_claimed[0]
            i = claimed[j]
            a = r[j] / coords[i][j]
            r = [x - a * y for x, y in zip(r, coords[i])]
            comp = [x - a * y for x, y in zip(comp, companions[i])]
        coords[k] = r
        companions[k] = comp
    return coords, companions, tops


def orthogonalize(us, ambient: DiagonalSeminorm) -> list:
    """Basis of span(us) making the restriction of `ambient` canonical.

    The output spans the same subspace and satisfies
    ambient(sum l_i u'_i) = max |l_i| ambient(u'_i) for all coefficients.
    Requires `ambient` to be a norm and the input to be independent.
    """
    if not ambient.is_norm():
        raise DomainError("ambient seminorm must be a norm")
    us = [tuple(Fraction(x) for x in u) for u in us]
    if not us:
        return []
    if len(us) > ambient.n or any(len(u) != ambient.n for u in us):
        raise DomainError("expected at most n vectors of length n")
    num, d = ambient._inv
    coords = [[c / d for c in mat_vec(num, u)] for u in us]
    cs = [v.log for v in ambient.values]
    _, companions, _ = _reduce_family(coords, [list(u) for u in us], cs, ambient.ctx)
    return [tuple(c) for c in companions]


# ---------------------------------------------------------------------------
# Norms pulled back from L-valued functionals
# ---------------------------------------------------------------------------

def pullback_from_functional(zs, ctx: PrimeContext) -> DiagonalSeminorm:
    """Diagonalize v |-> |z_1 v_1 + ... + z_n v_n|_L as a seminorm on K^n.

    The functional is a K-linear map K^n -> L; on L the power basis is
    already diagonal for | |_L because the exponents i/e have distinct
    fractional parts.  Orthogonalizing the images of a complement of the
    kernel and appending a kernel basis with zero values yields an exact
    diagonal presentation.
    """
    zs = list(zs)
    if len(zs) != ctx.n:
        raise DomainError(f"expected {ctx.n} functional entries")
    if all(l_is_zero(z) for z in zs):
        raise ZeroFunctionalError("functional is zero")
    zmat = mat([[zs[i].coeffs[j] for i in range(ctx.n)] for j in range(ctx.e)])
    ker, pivot_cols = _kernel_and_pivots(zmat)
    cs = [Fraction(-j, ctx.e) for j in range(ctx.e)]
    coords = [list(mat_col(zmat, i)) for i in pivot_cols]
    companions = [[Fraction(1 if t == i else 0) for t in range(ctx.n)] for i in pivot_cols]
    coords, companions, tops = _reduce_family(coords, companions, cs, ctx)
    cols = [tuple(c) for c in companions] + list(ker)
    values = [LogValue.finite(t) for t in tops] + [ZERO_VALUE] * len(ker)
    return diagonal_seminorm(mat_from_cols(cols), values, ctx)


def pullback_value(zs, v, ctx: PrimeContext) -> LogValue:
    """Direct evaluation q^(-val_L(z(v))), the oracle for the pullback."""
    from .arith import l_add, l_scale, l_scalar, val_l

    acc = l_scalar([0], ctx)
    for z, x in zip(zs, v):
        acc = l_add(acc, l_scale(x, z))
    val = val_l(acc, ctx)
    if val == float("inf"):
        return ZERO_VALUE
    return LogValue.finite(-val)


# ---------------------------------------------------------------------------
# Quantitative comparison of norms
# ---------------------------------------------------------------------------

def distance_constants(g1: DiagonalSeminorm, g2: DiagonalSeminorm):
    """Tight constants (s, t) with g1 <= q^s g2 and g2 <= q^t g1."""
    if not (g1.is_norm() and g2.is_norm()):
        raise KernelMismatchError("distance constants need norms (trivial kernels)")
    s = max(evaluate(g1, g2.column(i)).log - g2.values[i].log for i in range(g2.n))
    t = max(evaluate(g2, g1.column(i)).log - g1.values[i].log for i in range(g1.n))
    return s, t
