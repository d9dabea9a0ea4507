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

Each seminorm stores its kernel columns (those at zero values) in place as
the reduced echelon basis of ker: diagonal_seminorm reduces them, so a
seminorm's basis does not depend on how its kernel was presented, and
kernel_of only reads them.  It also carries v_p(det basis) and, in integer
form N / d, the live rows of its basis inverse: those at nonzero values,
the coordinate functionals of V / ker (a kernel column's row is None).
diagonal_seminorm derives both by inverting its basis (compose_with builds
the moved basis through it), pullback_from_functional in closed form from
its own reduction; canonical_class only reorders the live rows.  So
evaluation runs on Python ints: a vector's denominators are cleared once,
and only integer dot products and their p-adic valuations follow; and
(class) equality takes one tight bound and a volume test (_volume), not a
bound each way.  The bound, the volume test and canonical_class's sort run
on integer logs too, with one Fraction per result.

Orthogonalization and the pullback of a norm from an L-valued functional
share one reduction kernel, a single forward pass that also runs on ints:
each vector is cleared at the earlier vectors' pivots and then pivots on
its heaviest coordinate, so every entry is a ratio of minors of the input.
Each vector is one integer row over one positive denominator, kept
gcd-reduced, and the exponents c_j of the target norm are put over one
common denominator S, so every weight S log(|x_j| q^{c_j}) is an integer;
evaluate compares its live logs over one common denominator the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul

from .apartment import ApartmentPoint, apartment_point
from .arith import (
    INF,
    ZERO_VALUE,
    LogValue,
    PrimeContext,
    _check_l_coeffs,
    _exact,
    _int_val,
    _integer_rows,
    _inverse_parts,
    _reduced,
    identity,
    l_add,
    l_scalar,
    l_scale,
    mat,
    mat_col,
    mat_det,
    mat_from_cols,
    mat_mul,
    reduced_echelon,
    val_k,
    val_l,
    vec,
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
    # (N, d), d > 0: row i of N / d is row i of basis^-1 when value i is nonzero,
    # else None; d and the live entries of N are coprime
    _inv: tuple = field(compare=False, repr=False)
    _vdet: int = field(compare=False, repr=False)  # v_p(det basis)

    def column(self, i: int) -> tuple:
        return mat_col(self.basis, i)

    @property
    def n(self) -> int:
        return len(self.values)

    def is_norm(self) -> bool:
        return all(not v.is_zero for v in self.values)


def diagonal_seminorm(basis, values, ctx: PrimeContext) -> DiagonalSeminorm:
    """The seminorm with value values[i] on column i; kernel columns go to reduced echelon form."""
    basis = mat(basis)
    values = tuple(values)
    n = ctx.n
    if len(basis) != n or any(len(r) != n for r in basis):
        raise DomainError(f"basis must be {n}x{n}")
    if len(values) != n:
        raise DomainError("one value per basis column required")
    if all(v.is_zero for v in values):
        raise DomainError("seminorm must not vanish identically")
    parts = _inverse_parts(basis)
    if parts is None:
        raise SingularMatrixError("basis is singular")
    num, d, det = parts
    cols = list(zip(*basis))
    ker = [c for c, v in zip(cols, values) if v.is_zero]
    piv = [next(j for j, a in enumerate(c) if a) for c in ker]
    if piv != sorted(set(piv)) or any(c[j] != int(s == t) for s, c in enumerate(ker)
                                      for t, j in enumerate(piv)):
        echelon = reduced_echelon(ker)
        piv = [next(j for j, a in enumerate(r) if a) for r in echelon]
        det /= mat_det([[c[j] for c in ker] for j in piv])    # K = R C: C is K on R's pivots
        rest = iter(echelon)
        basis = mat_from_cols([next(rest) if v.is_zero else c for c, v in zip(cols, values)])
    rows = [None if v.is_zero else row for row, v in zip(num, values)]
    div = math.gcd(d, *(x for row in rows if row is not None for x in row)) * (-1 if d < 0 else 1)
    inv = tuple(None if row is None else tuple(x // div for x in row) for row in rows), d // div
    return DiagonalSeminorm(basis, values, ctx, inv, val_k(det, ctx))


def evaluate(g: DiagonalSeminorm, v) -> LogValue:
    """gamma(v) = max_i |lambda_i| gamma(w_i) where v = sum lambda_i w_i.

    With v = w / D for an integer vector w, lambda_i = (N_i . w) / (d D), so
    only the integer dot products N_i . w need a valuation.  With the live logs
    over one denominator S, the max is taken on the integers S log(|lambda_i| gamma(w_i)).
    """
    (w,), (den,) = _integer_rows(_exact([v]))
    num, d = g._inv
    if len(w) != len(num):
        raise DomainError(f"vector has {len(w)} entries, expected {len(num)}")
    p = g.ctx.p
    live = [(row, c.log.as_integer_ratio()) for row, c in zip(num, g.values) if c.log is not None]
    s = math.lcm(*(b for _, (_, b) in live))
    best = None
    for row, (a, b) in live:
        t = sum(map(mul, row, w))
        if t:
            cand = a * (s // b) - s * _int_val(t, p)
            if best is None or cand > best:
                best = cand
    if best is None:
        return ZERO_VALUE
    return LogValue(Fraction(best + s * (_int_val(d, p) + _int_val(den, p)), s))


def kernel_of(g: DiagonalSeminorm) -> list:
    """Canonical (reduced echelon) basis of ker gamma: the zero columns, stored that way."""
    return [g.column(i) for i, v in enumerate(g.values) if v.is_zero]


def _group_matrix(m, n: int) -> list:
    """The rows of the n x n group element m, each entry read once, as arith._exact reads them."""
    rows = _exact(m)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DomainError(f"group element must be {n}x{n}")
    return rows


def compose_with(g: DiagonalSeminorm, m) -> DiagonalSeminorm:
    """The translate gamma o m^{-1}: diagonal_seminorm inverts the moved basis m basis afresh."""
    try:
        return diagonal_seminorm(mat_mul(_group_matrix(m, g.ctx.n), g.basis), g.values, g.ctx)
    except SingularMatrixError:
        raise SingularMatrixError("group element must be invertible") from None


def scale_seminorm(g: DiagonalSeminorm, delta) -> DiagonalSeminorm:
    """Multiply the seminorm by q^delta."""
    return replace(g, values=tuple(v.shift(delta) for v in g.values))


# ---------------------------------------------------------------------------
# The apartment chart
# ---------------------------------------------------------------------------

def phi_from_apartment(x: ApartmentPoint, ctx: PrimeContext) -> DiagonalSeminorm:
    """Standard-basis seminorm with value q^(-x_i) on the piece, zero off it."""
    x.checked(ctx.n)
    values = tuple(LogValue.finite(-x.exponent(i)) if i in x.piece else ZERO_VALUE
                   for i in range(1, ctx.n + 1))
    unit = tuple(tuple(int(i == j) for j in range(ctx.n)) if i + 1 in x.piece else None
                 for i in range(ctx.n))
    return DiagonalSeminorm(identity(ctx.n), values, ctx, (unit, 1), 0)


def phi_inverse(g: DiagonalSeminorm) -> ApartmentPoint:
    """Apartment coordinates of a standard-basis seminorm, whatever basis its kernel came in."""
    if g.basis != identity(g.n):
        raise NotCanonicalBasisError("seminorm is not in the standard basis")
    piece = [i + 1 for i, v in enumerate(g.values) if not v.is_zero]
    exps = [-g.values[i - 1].log for i in piece]
    return apartment_point(piece, exps)


# ---------------------------------------------------------------------------
# Equality and equivalence
# ---------------------------------------------------------------------------

def _log_bound(g1: DiagonalSeminorm, g2: DiagonalSeminorm):
    """The least s with g1 <= q^s g2 on V, or None when there is none.

    g2 is diagonal in its basis, so by the ultrametric inequality the bound
    holds on V once it holds on g2's columns, and it is attained on one of
    them (Goldman-Iwahori 1963).  A column in g2's kernel on which g1 is
    nonzero admits no s.  The running maximum is kept as an integer pair.
    """
    if (g1.ctx.p, g1.ctx.n) != (g2.ctx.p, g2.ctx.n):
        raise DomainError("seminorms live over different contexts")
    best = None
    for col, c in zip(zip(*g2.basis), g2.values):
        v = evaluate(g1, col).log
        if v is not None:
            if c.log is None:
                return None
            (x, y), (u, w) = v.as_integer_ratio(), c.log.as_integer_ratio()
            if best is None or (x * w - u * y) * best[1] > best[0] * y * w:
                best = x * w - u * y, y * w
    return None if best is None else Fraction(*best)


def _volume(g1: DiagonalSeminorm, g2: DiagonalSeminorm, s=0) -> bool:
    """Whether g1 and q^s g2 agree in k, their count of nonzero values c_i, and in vol.

    vol = sum log c_i + v_p(det basis), with the kernel columns in the stored
    reduced echelon form, so it does not depend on how the kernel was
    presented.  A tight g1 <= q^s g2 is an equality iff both agree: equal k
    make the kernels equal, and on V / ker the two have a common orthogonal
    basis (Goldman-Iwahori 1963).  vol(g1) = vol(g2) + k s is tested on
    integers, each seminorm's logs over their lcm.
    """
    (l1, l2), (d1, d2) = _integer_rows([[v.log for v in g.values if v.log is not None]
                                        for g in (g1, g2)])
    a, b = s.as_integer_ratio()
    return len(l1) == len(l2) and (sum(l1) + g1._vdet * d1) * d2 * b \
        == ((sum(l2) + g2._vdet * d2) * b + len(l2) * a * d2) * d1


def equals(g1: DiagonalSeminorm, g2: DiagonalSeminorm) -> bool:
    """Exact equality of seminorms as functions on V: g1 <= g2 tightly, and equal volumes."""
    return _log_bound(g1, g2) == 0 and _volume(g1, g2)


def canonical_class(g: DiagonalSeminorm) -> DiagonalSeminorm:
    """Deterministic representative of the homothety class.

    The nonzero columns are sorted by value (largest first, ties broken by
    the column entries) and all values are shifted so the leading one
    becomes q^0; the kernel columns, already in reduced echelon form, follow.
    The sort and the shift run on the logs over their lcm S.  Reordering
    columns reorders the carried live rows of N / d and leaves v_p(det basis) alone.
    """
    cols = list(zip(*g.basis))
    nonker = [i for i, v in enumerate(g.values) if v.log is not None]
    (logs,), (s,) = _integer_rows([[g.values[i].log for i in nonker]])
    live = sorted(zip(logs, nonker), key=lambda li: (-li[0], cols[li[1]]))
    ker = [c for c, v in zip(cols, g.values) if v.log is None]
    num, d = g._inv
    inv = tuple(num[i] for _, i in live) + (None,) * len(ker), d
    values = [LogValue(Fraction(log - live[0][0], s)) for log, _ in live] + [ZERO_VALUE] * len(ker)
    return DiagonalSeminorm(tuple(zip(*[cols[i] for _, i in live], *ker)), tuple(values),
                            g.ctx, inv, g._vdet)


def class_equals(g1: DiagonalSeminorm, g2: DiagonalSeminorm) -> bool:
    """Equality up to a positive constant: g1 <= q^s g2 tightly, and equal volumes."""
    s = _log_bound(g1, g2)
    return s is not None and _volume(g1, g2, s)


# ---------------------------------------------------------------------------
# Ultrametric orthogonalization
# ---------------------------------------------------------------------------

def _reduced_row(row, den):
    # row / den with den > 0 and the gcd of den and every entry divided out
    g = math.gcd(den, *row)
    if den < 0:
        g = -g
    return [x // g for x in row], den // g


def _cleared(a, da, b, j):
    # a - (a_j / b_j) b for the rows a / da and b / db: db cancels, leaving
    # (b_j a - a_j b) / (da b_j), whose entry j is zero
    aj, bj = a[j], b[j]
    return _reduced_row([bj * x - aj * y for x, y in zip(a, b)], da * bj)


def _reduce_family(rows, dens, cs, p):
    """One forward pass making the family diagonal for max_j |x_j| q^{c_j}, in place.

    Vector k is the integer row rows[k] = [coords | companion] over the
    positive integer dens[k]; the companion rides along every update.  With
    S the common denominator of the c_j, the weight of coordinate j is the
    integer S c_j - S v_p(R_j), so pivots are decided on integers.  Vector k
    is cleared at the pivots of the earlier vectors, in order, and pivots
    on its heaviest coordinate, the least j on a tie; a vector that clears
    to zero is dependent on the earlier ones and gets no pivot.  Each vector
    is then zero at every earlier pivot and attains its norm at its own, so
    for the first t with the largest |l_t| gamma(w_t) the sum of the l_t w_t
    has exactly that size at t's pivot: the family is orthogonal.  By
    Cramer's rule every entry is a ratio of minors of the input.  A unit
    companion e_k stays e_k minus earlier ones: over D it is D at k and 0
    after k.  Returns each vector's (pivot, norm exponent), or None.
    """
    (scaled,), (s,) = _integer_rows([cs])
    live, out = [], []
    for k, (r, d) in enumerate(zip(rows, dens)):
        for b, j in live:
            if r[j]:
                r, d = _cleared(r, d, b, j)
        rows[k], dens[k] = r, d
        weights = [(w - s * _int_val(x, p), -j) for j, (w, x) in enumerate(zip(scaled, r)) if x]
        if weights:
            top, j = max(weights)
            live.append((r, -j))
        out.append((-j, Fraction(top + s * _int_val(d, p), s)) if weights else None)
    return out


def orthogonalize(us, ambient: DiagonalSeminorm) -> list:
    """Basis of span(us) making the restriction of `ambient` canonical.

    The output spans the same subspace and satisfies
    ambient(sum l_i u'_i) = max |l_i| ambient(u'_i) for all coefficients.
    Requires `ambient` to be a norm and the input to be independent; a
    dependent vector clears to zero in the reduction.  With u = U / D_u
    and the carried inverse N / d of the ambient basis, each vector enters
    the reduction as the integer row [N U | d U] over d D_u: its
    coordinates in the ambient basis and, alongside, itself.
    """
    if not ambient.is_norm():
        raise DomainError("ambient seminorm must be a norm")
    us = list(map(vec, us))
    if not us:
        return []
    if len(us) > ambient.n or any(len(u) != ambient.n for u in us):
        raise DomainError("expected at most n vectors of length n")
    num, d = ambient._inv
    ints, scales = _integer_rows(us)
    rows, dens = [], []
    for u, du in zip(ints, scales):
        row, den = _reduced_row([sum(map(mul, nr, u)) for nr in num]
                                + [d * x for x in u], d * du)
        rows.append(row)
        dens.append(den)
    if None in _reduce_family(rows, dens, [v.log for v in ambient.values], ambient.ctx.p):
        raise DependentInputError("input vectors are linearly dependent")
    return [tuple(Fraction(x, den) for x in row[ambient.n:]) for row, den in zip(rows, dens)]


# ---------------------------------------------------------------------------
# Norms pulled back from L-valued functionals
# ---------------------------------------------------------------------------

def pullback_from_functional(zs, ctx: PrimeContext) -> DiagonalSeminorm:
    """Diagonalize v |-> |z_1 v_1 + ... + z_n v_n|_L as a seminorm on K^n.

    The power basis of L is diagonal for | |_L (the exponents i/e have
    distinct fractional parts), so one reduction of the rows [z_i | e_i],
    in index order, diagonalizes it.  A vector R / D with pivot q gives the
    column R_e / g (g the gcd of its companion R_e), valued at its norm
    times |D / g|; one Bareiss reduction (final pivot d) of those that
    clear to zero gives ker's reduced echelon basis.  No inversion follows:
    R_k is zero at earlier pivots, so z(v)_{q_t} = sum_{k<=t} a_k R_k[q_t] / g_k
    yields the live inverse rows a_t by forward substitution.  The live
    block is triangular with diagonal D_k / g_k, and the kernel block on
    the free indices has determinant +-prod D_f / d (Sylvester's identity),
    so v_p(det basis) = sum_live v_p(D_k / g_k) + sum_free v_p(D_f) - v_p(d).
    """
    zs = list(zs)
    if len(zs) != ctx.n:
        raise DomainError(f"expected {ctx.n} functional entries")
    _check_l_coeffs(zs, ctx)
    zrows = [z.coeffs for z in zs]     # read by LScalar
    if not any(map(any, zrows)):
        raise ZeroFunctionalError("functional is zero")
    n, e, p = ctx.n, ctx.e, ctx.p
    rows, dens = _integer_rows([[*z, *unit] for z, unit in zip(zrows, identity(n))])
    found = _reduce_family(rows, dens, [Fraction(-j, e) for j in range(e)], p)
    live = [(row, den, *hit, math.gcd(*row[e:])) for row, den, hit in zip(rows, dens, found) if hit]
    _, ker, dk = _reduced([row[e:] for row, hit in zip(rows, found) if hit is None], n)
    # row t of [U | Z]: sum_k (a_k / g_k) R_k[q_t] = z(v)_{q_t}, with U lower triangular
    eqs, eds = _integer_rows([[row[q] for row, *_ in live] + [z[q] for z in zrows]
                              for _, _, q, _, _ in live])
    for t in range(len(live)):
        for k in range(t):
            if eqs[t][k]:
                eqs[t], eds[t] = _cleared(eqs[t], eds[t], eqs[k], k)
    inv = [_reduced_row([g * x for x in eq[len(live):]], eq[t])
           for t, ((*_, g), eq) in enumerate(zip(live, eqs))]
    d = math.lcm(*(da for _, da in inv))
    vdet = sum(_int_val(den, p) for den in dens) - _int_val(dk, p) \
        - sum(_int_val(g, p) for *_, g in live)
    cols = [[Fraction(x // g) for x in row[e:]] for row, *_, g in live]
    return DiagonalSeminorm(tuple(zip(*cols, *([Fraction(x, dk) for x in r] for r in ker))),
                            tuple(LogValue(top + _int_val(g, p) - _int_val(den, p))
                                  for _, den, _, top, g in live) + (ZERO_VALUE,) * len(ker), ctx,
                            (tuple(tuple(x * (d // da) for x in a) for a, da in inv)
                             + (None,) * len(ker), d), vdet)


def pullback_value(zs, v, ctx: PrimeContext) -> LogValue:
    """Direct evaluation q^(-val_L(z(v))), the oracle for the pullback."""
    if len(zs) != ctx.n or len(v) != ctx.n:
        raise DomainError(f"functional has {len(zs)} entries, vector {len(v)}: expected {ctx.n}")
    _check_l_coeffs(zs, ctx)
    acc = l_scalar([0], ctx)
    for z, x in zip(zs, v):
        acc = l_add(acc, l_scale(x, z))
    val = val_l(acc, ctx)
    if val == INF:
        return ZERO_VALUE
    return LogValue.finite(-val)


# ---------------------------------------------------------------------------
# Quantitative comparison of norms
# ---------------------------------------------------------------------------

def distance_constants(g1: DiagonalSeminorm, g2: DiagonalSeminorm):
    """Tight constants (s, t) with g1 <= q^s g2 and g2 <= q^t g1."""
    if not (g1.is_norm() and g2.is_norm()):
        raise KernelMismatchError("distance constants need norms (trivial kernels)")
    return _log_bound(g1, g2), _log_bound(g2, g1)
