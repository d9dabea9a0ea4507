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

A point carries its degree-one seminorm, and with it the integer form
N / d of the inverse basis, so evaluation inverts nothing: it substitutes
N / d into a polynomial whose denominators were cleared once, so the
rewrite runs on Python ints and each coefficient's valuation is read off
in closed form.  Only the live columns (nonzero radius) enter the
substituted forms: a zero radius sends every monomial in its column to 0.
Exponent vectors are packed into one integer each (Kronecker
substitution), so multiplying two monomials is adding two ints; each power
of a substituted form is computed once per call, and sorted terms reuse
the product over their common exponent prefix.  check_multiplicative
rewrites f and g once each: substitution is a ring homomorphism, so
alpha(f g) comes from the packed product of the two rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    ZERO_VALUE,
    LogValue,
    PrimeContext,
    _check_l_coeffs,
    _int_val,
    _integer_rows,
    _rational,
    identity,
    k_rank,
    l_from_k,
    l_is_zero,
)
from .building import BuildingPoint, building_point
from .errors import DomainError, ZeroFunctionalError
from .seminorm import (
    DiagonalSeminorm,
    class_equals,
    diagonal_seminorm,
    pullback_from_functional,
)


@dataclass(frozen=True)
class MonomialPoint:
    """j(gamma), the multiplicative extension of a seminorm gamma on V; radii = its values."""

    seminorm: DiagonalSeminorm
    _section: BuildingPoint | None = field(default=None, compare=False, repr=False)  # b of j(b)

    basis = property(lambda self: self.seminorm.basis)
    radii = property(lambda self: self.seminorm.values)
    ctx = property(lambda self: self.seminorm.ctx)


def monomial_point(basis, radii, ctx: PrimeContext) -> MonomialPoint:
    return MonomialPoint(diagonal_seminorm(basis, radii, ctx))


def gauss_point(ctx: PrimeContext) -> MonomialPoint:
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


def _exponent(k) -> int:
    x = _rational(k)
    if x.denominator != 1:
        raise DomainError(f"multi-index entry {k!r} is not an integer")
    return x.numerator


def polynomial(terms, nvars: int) -> PolynomialSymV:
    acc = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for nu, c in items:
        nu = tuple(k if type(k) is int else _exponent(k) for k in nu)
        if len(nu) != nvars or any(k < 0 for k in nu):
            raise DomainError(f"bad multi-index {nu}")
        c = _rational(c)
        acc[nu] = acc.get(nu, Fraction(0)) + c
    cleaned = sorted((nu, c) for nu, c in acc.items() if c != 0)
    return PolynomialSymV(tuple(cleaned), nvars)


# ---------------------------------------------------------------------------
# Packed exponents: mu <-> sum_j mu_j B^(n-1-j)
#
# While every total degree stays below B no exponent reaches B, so adding
# two keys never carries: multiplying monomials is adding their keys, and
# the integer order of the keys is the lexicographic order of the mu's.
# ---------------------------------------------------------------------------

def _places(base: int, n: int) -> list:
    return [base ** (n - 1 - j) for j in range(n)]


def _packed_mul(f: dict, g: dict) -> dict:
    out = {}
    get = out.get
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# Evaluation of monomial points
# ---------------------------------------------------------------------------

# alpha_evaluate refuses polynomials of higher degree, and check_multiplicative
# factors whose degrees sum above twice it: the rewrite runs on the live
# columns only, so its size grows like (degree + n_live choose n_live)
_MAX_DEGREE = 8


def _point_parts(p: MonomialPoint) -> tuple:
    """(N, live columns, (p, v(d), integer radius logs last first, their denominator))."""
    num, d = p.seminorm._inv
    (rad,), (scale,) = _integer_rows([[0 if r.is_zero else r.log for r in p.radii]])
    live = [j for j, r in enumerate(p.radii) if not r.is_zero]
    return num, live, (p.ctx.p, _int_val(d, p.ctx.p), rad[::-1], scale)


def _rewrite_in_basis(num, live, f: PolynomialSymV, base: int) -> tuple:
    """Integer coefficients of f in the basis whose inverse is num / d.

    With f = F / D for an integer polynomial F, substituting the integer
    forms L_i = sum_{j live} num[j][i] w_j for v_i in F gives sum c_mu w^mu,
    and f = sum c_mu / (D d^|mu|) w^mu on the live columns: every term of F
    that contributes to w^mu has degree |mu|, and w_j = 0 for the columns of
    zero radius is a ring homomorphism dropping only monomials of value 0.
    Monomials are packed with the given base B > deg f.  The powers L_i^k
    are computed once, and since the terms are sorted a term reuses the
    product over the exponent prefix it shares with the term before it.
    Returns ({packed mu: c_mu}, D); some c_mu may be 0.
    """
    n = len(num)
    places = _places(base, n)
    powers = [[{0: 1}, {places[j]: num[j][i] for j in live if num[j][i]}]
              for i in range(n)]
    (ints,), (den,) = _integer_rows([[c for _, c in f.terms]])
    out = {}
    get = out.get
    # prefix[i] is the product of L_j^nu_j over j < i for the current term
    prefix = [{0: 1}] + [None] * (n - 1)
    prev = (-1,) * n  # no exponent is -1, so the first term starts at 0
    for (nu, _), a in zip(f.terms, ints):
        start = 0
        while start < n - 1 and nu[start] == prev[start]:
            start += 1
        prev = nu
        for i in range(start, n):
            pw = powers[i]
            while len(pw) <= nu[i]:
                pw.append(_packed_mul(pw[-1], pw[1]))
            if i + 1 < n:
                prefix[i + 1] = _packed_mul(prefix[i], pw[nu[i]]) if nu[i] else prefix[i]
        # the last factor goes straight into the sum
        for k1, c1 in prefix[n - 1].items():
            c1 *= a
            for k2, c2 in powers[n - 1][nu[n - 1]].items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return out, den


def _alpha(parts: tuple, coeffs: dict, den: int, base: int) -> LogValue:
    """alpha of the rewrite sum coeffs[mu] / (den d^|mu|) w^mu packed with base."""
    q, vd, rad, scale = parts
    vden = _int_val(den, q)
    best = None
    for key, c in coeffs.items():
        if not c:
            continue
        size = log = 0
        for r in rad:
            key, k = divmod(key, base)
            if k:
                size += k
                log += k * r
        # scale * (-v(c / (D d^|mu|)) + sum_k mu_k log r_k) is at most this, as v(c) >= 0
        log += scale * (vden + size * vd)
        if best is None or log > best:
            log -= scale * _int_val(c, q)
            best = log if best is None else max(best, log)
    return ZERO_VALUE if best is None else LogValue.finite(Fraction(best, scale))


def alpha_evaluate(p: MonomialPoint, f: PolynomialSymV) -> LogValue:
    """sup over monomials of |coefficient| * prod radii^exponents.

    The polynomial is first rewritten exactly in the point's own basis:
    its denominators are cleared once, the carried integer inverse N / d
    of the basis is substituted on Python ints with each exponent vector packed
    into one integer, each power of a substituted form computed once and
    the columns of zero radius dropped; every surviving key is unpacked
    once to read |mu| and the radii, and the closed-form valuation of its
    coefficient is read only when the term could still raise the maximum.
    Conventions: radius^0 = 1 (so constants evaluate to their absolute
    value) and zero^k = zero for k > 0.
    """
    if f.nvars != p.ctx.n:
        raise DomainError("variable count mismatch")
    degree = f.degree()
    if degree > _MAX_DEGREE:
        raise DomainError(f"degree {degree} exceeds cap {_MAX_DEGREE}")
    num, live, parts = _point_parts(p)
    return _alpha(parts, *_rewrite_in_basis(num, live, f, degree + 1), degree + 1)


def check_multiplicative(p: MonomialPoint, f: PolynomialSymV,
                         g: PolynomialSymV) -> bool:
    """Exact test alpha(f g) = alpha(f) alpha(g), with one rewrite of each factor."""
    if f.nvars != p.ctx.n or g.nvars != p.ctx.n:
        raise DomainError("variable count mismatch")
    # no total degree of f, g or f g reaches the base, so no key carries
    base = max(f.degree(), 0) + max(g.degree(), 0) + 1
    if base > 2 * _MAX_DEGREE + 1:
        raise DomainError(f"degree sum {base - 1} exceeds cap {2 * _MAX_DEGREE}")
    num, live, parts = _point_parts(p)
    (cf, df), (cg, dg) = (_rewrite_in_basis(num, live, h, base) for h in (f, g))
    # substitution is a ring homomorphism: f g rewrites to the product, over D_f D_g
    return (_alpha(parts, _packed_mul(cf, cg), df * dg, base)
            == _alpha(parts, cf, df, base) * _alpha(parts, cg, dg, base))


def monomial_class_equals(p1: MonomialPoint, p2: MonomialPoint) -> bool:
    """Equality as points of projective analytic space.

    Two monomial seminorms are equivalent when they differ by c^degree for
    a single constant c; a monomial point is the multiplicative extension
    of its degree-one part, so the classes of those parts decide equality.
    """
    return class_equals(p1.seminorm, p2.seminorm)


# ---------------------------------------------------------------------------
# Reduction r and section j
# ---------------------------------------------------------------------------

def j_section(b: BuildingPoint) -> MonomialPoint:
    """Extend b multiplicatively to the polynomial ring; the point remembers b for r."""
    return MonomialPoint(b.seminorm, b)


def r_reduce_monomial(p: MonomialPoint) -> BuildingPoint:
    """Restrict a monomial seminorm to degree one; satisfies r o j = id.

    A point built by j_section(b) remembers b, and r returns that b as is."""
    return p._section or building_point(p.seminorm)


def r_reduce_rational(z, ctx: PrimeContext) -> BuildingPoint:
    """Reduction of a K-rational projective point given by the functional z.

    This is the L-point reduction of z read in L: the class of v -> |z(v)|.
    Its kernel is the hyperplane z = 0, so the image is always a boundary
    point whose quotient is one-dimensional.
    """
    return r_reduce_L_point(l_functional([l_from_k(t, ctx) for t in z], ctx))


@dataclass(frozen=True)
class LFunctional:
    """Nonzero linear form with coefficients in the Eisenstein extension."""

    z: tuple
    ctx: PrimeContext


def l_functional(zs, ctx: PrimeContext) -> LFunctional:
    zs = tuple(zs)
    if len(zs) != ctx.n:
        raise DomainError(f"expected {ctx.n} entries")
    _check_l_coeffs(zs, ctx)
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
