"""Monomial points of analytified projective space and the reduction map.

A monomial point is a multiplicative seminorm on the polynomial ring
Sym V determined by a basis w_1..w_n and per-column radii: a polynomial
written in the w's is sent to the largest |coefficient| * product of
radii^exponents.  Restricting to degree one recovers a diagonal seminorm
on V (the reduction r); extending a diagonal seminorm multiplicatively is
the section j, and r o j is the identity.

Rational points enter through functionals: a K- or L-valued linear form z
induces the seminorm v -> |z(v)|, whose class is the reduction of the
corresponding projective point.  The point lies in the hyperplane
complement iff the induced seminorm is a norm.

Evaluation substitutes the integer form N / d of the inverse basis into a
polynomial whose denominators were cleared once, so the rewrite runs on
Python ints and each coefficient's valuation is read off in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    ZERO_VALUE,
    LogValue,
    PrimeContext,
    _int_val,
    _integer_rows,
    _inverse_parts,
    k_rank,
    l_is_zero,
    mat,
    mat_det,
    mat_from_cols,
    nullspace,
    val_k,
)
from .building import BuildingPoint, building_point
from .errors import DomainError, SingularMatrixError, ZeroFunctionalError
from .seminorm import (
    class_equals,
    diagonal_seminorm,
    pullback_from_functional,
)


@dataclass(frozen=True)
class MonomialPoint:
    """Multiplicative seminorm on Sym V: basis columns with radii."""

    basis: tuple
    radii: tuple
    ctx: PrimeContext


def monomial_point(basis, radii, ctx: PrimeContext) -> MonomialPoint:
    basis = mat(basis)
    radii = tuple(radii)
    if len(radii) != ctx.n or len(basis) != ctx.n or any(len(r) != ctx.n for r in basis):
        raise DomainError(f"need {ctx.n} columns and radii")
    if all(r.is_zero for r in radii):
        raise DomainError("at least one radius must be nonzero")
    if mat_det(basis) == 0:
        raise SingularMatrixError("basis is singular")
    return MonomialPoint(basis, radii, ctx)


def gauss_point(ctx: PrimeContext) -> MonomialPoint:
    from .arith import identity

    return monomial_point(identity(ctx.n), (LogValue.finite(0),) * ctx.n, ctx)


# ---------------------------------------------------------------------------
# Sparse polynomials in the coordinates v_1..v_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialSymV:
    """Sparse polynomial: sorted (exponent multi-index, coefficient) pairs."""

    terms: tuple
    nvars: int

    def degree(self) -> int:
        return max((sum(nu) for nu, _ in self.terms), default=-1)


def polynomial(terms, nvars: int) -> PolynomialSymV:
    acc = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for nu, c in items:
        nu = tuple(int(k) for k in nu)
        if len(nu) != nvars or any(k < 0 for k in nu):
            raise DomainError(f"bad multi-index {nu}")
        c = Fraction(c)
        acc[nu] = acc.get(nu, Fraction(0)) + c
    cleaned = sorted((nu, c) for nu, c in acc.items() if c != 0)
    return PolynomialSymV(tuple(cleaned), nvars)


def poly_mul(f: PolynomialSymV, g: PolynomialSymV) -> PolynomialSymV:
    if f.nvars != g.nvars:
        raise DomainError("variable count mismatch")
    return polynomial(_dict_mul(dict(f.terms), dict(g.terms)), f.nvars)


# ---------------------------------------------------------------------------
# Evaluation of monomial points
# ---------------------------------------------------------------------------

def _dict_mul(f: dict, g: dict) -> dict:
    out = {}
    for nu1, c1 in f.items():
        for nu2, c2 in g.items():
            nu = tuple(a + b for a, b in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return {nu: c for nu, c in out.items() if c != 0}


def _rewrite_in_basis(num, f: PolynomialSymV) -> tuple:
    """Integer coefficients of f in the basis whose inverse is num / d.

    With f = F / D for an integer polynomial F, substituting the integer
    forms v_i = sum_j num[j][i] w_j into F gives sum c_mu w^mu, and then
    f = sum c_mu / (D d^|mu|) w^mu: every term of F that contributes to
    w^mu has degree |mu|.  Returns ({mu: c_mu}, D).
    """
    n = len(num)
    forms = []
    for i in range(n):
        form = {}
        for j in range(n):
            if num[j][i] != 0:
                form[tuple(int(k == j) for k in range(n))] = num[j][i]
        forms.append(form)
    (ints,), (den,) = _integer_rows([[c for _, c in f.terms]])
    out = {}
    for (nu, _), a in zip(f.terms, ints):
        term = {(0,) * n: a}
        for i, k in enumerate(nu):
            for _ in range(k):
                term = _dict_mul(term, forms[i])
        for mu, c in term.items():
            out[mu] = out.get(mu, 0) + c
    return {mu: c for mu, c in out.items() if c != 0}, den


def alpha_evaluate(p: MonomialPoint, f: PolynomialSymV, max_degree: int = 8) -> LogValue:
    """sup over monomials of |coefficient| * prod radii^exponents.

    The polynomial is first rewritten exactly in the point's own basis.
    Conventions: radius^0 = 1 (so constants evaluate to their absolute
    value) and zero^k = zero for k > 0.
    """
    if f.nvars != p.ctx.n:
        raise DomainError("variable count mismatch")
    if f.degree() > max_degree:
        raise DomainError(f"degree {f.degree()} exceeds cap {max_degree}")
    num, d = _inverse_parts(p.basis)
    coeffs, den = _rewrite_in_basis(num, f)
    q = p.ctx.p
    vd, vden = _int_val(d, q), _int_val(den, q)
    # the radii's logs as integers over one common denominator
    (rad,), (scale,) = _integer_rows([[0 if r.is_zero else r.log for r in p.radii]])
    best = None
    for mu, c in coeffs.items():
        if any(k and r.is_zero for r, k in zip(p.radii, mu)):
            continue
        # scale * (-v(c / (D d^|mu|)) + sum_k mu_k log r_k)
        log = scale * (vden + sum(mu) * vd - _int_val(c, q)) + sum(k * r for r, k in zip(rad, mu))
        if best is None or log > best:
            best = log
    return ZERO_VALUE if best is None else LogValue.finite(Fraction(best, scale))


def check_multiplicative(p: MonomialPoint, f: PolynomialSymV,
                         g: PolynomialSymV) -> bool:
    """Exact test alpha(f g) = alpha(f) alpha(g)."""
    cap = max(8, f.degree() + g.degree())
    return alpha_evaluate(p, poly_mul(f, g), cap) == \
        alpha_evaluate(p, f, cap) * alpha_evaluate(p, g, cap)


def monomial_class_equals(p1: MonomialPoint, p2: MonomialPoint) -> bool:
    """Equality as points of projective analytic space.

    Two monomial seminorms are equivalent when they differ by c^degree for
    a single constant c; a monomial point is the multiplicative extension
    of its degree-one part, so the classes of those parts decide equality.
    """
    return class_equals(*(diagonal_seminorm(p.basis, p.radii, p.ctx) for p in (p1, p2)))


# ---------------------------------------------------------------------------
# Reduction r and section j
# ---------------------------------------------------------------------------

def j_section(b: BuildingPoint) -> MonomialPoint:
    """Extend a seminorm class multiplicatively to the polynomial ring."""
    s = b.seminorm
    return monomial_point(s.basis, s.values, s.ctx)


def r_reduce_monomial(p: MonomialPoint) -> BuildingPoint:
    """Restrict a monomial seminorm to degree one; satisfies r o j = id."""
    return building_point(diagonal_seminorm(p.basis, p.radii, p.ctx))


def r_reduce_rational(z, ctx: PrimeContext) -> BuildingPoint:
    """Reduction of a K-rational projective point given by the functional z.

    The induced seminorm |z(v)| has the hyperplane z = 0 as kernel, so the
    image is always a boundary point whose quotient is one-dimensional.
    """
    z = [Fraction(t) for t in z]
    if len(z) != ctx.n:
        raise DomainError(f"expected {ctx.n} entries")
    if all(t == 0 for t in z):
        raise ZeroFunctionalError("functional is zero")
    ker = nullspace(mat([z]))
    lead = next(i for i, t in enumerate(z) if t != 0)
    e_lead = tuple(Fraction(1 if k == lead else 0) for k in range(ctx.n))
    cols = [e_lead] + list(ker)
    values = [LogValue.finite(-val_k(z[lead], ctx))] + [ZERO_VALUE] * len(ker)
    return building_point(diagonal_seminorm(mat_from_cols(cols), values, ctx))


@dataclass(frozen=True)
class LFunctional:
    """Nonzero linear form with coefficients in the Eisenstein extension."""

    z: tuple
    ctx: PrimeContext


def l_functional(zs, ctx: PrimeContext) -> LFunctional:
    zs = tuple(zs)
    if len(zs) != ctx.n:
        raise DomainError(f"expected {ctx.n} entries")
    if all(l_is_zero(z) for z in zs):
        raise ZeroFunctionalError("functional is zero")
    return LFunctional(zs, ctx)


def r_reduce_L_point(zf: LFunctional) -> BuildingPoint:
    """Reduction of the point with coordinates z: the class of v -> |z(v)|."""
    return building_point(pullback_from_functional(list(zf.z), zf.ctx))


def in_omega(zf: LFunctional) -> bool:
    """Hyperplane-complement test: no K-rational hyperplane contains z.

    Equivalent to the entries of z being K-linearly independent, and to
    the reduction being an interior (kernel-free) point.
    """
    return k_rank(list(zf.z), zf.ctx) == zf.ctx.n
