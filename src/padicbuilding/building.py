"""Points of the compactified building and the PGL_n action.

A point is a homothety class of seminorms on V; the chart (g, x) with g in
GL_n(K) and x in the compactified apartment presents the class of
phi(x) o g^-1.  Two charts present the same point when those seminorms
agree up to scaling.  Both are diagonal in a standard basis, so the tight
bound between them is a maximum over the valuations of one matrix,
g1^-1 g2 (Goldman-Iwahori); chart equivalence and the stabilizer P_x are
decided from those valuations, without building a seminorm.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .apartment import (
    ApartmentPoint,
    MonomialElement,
    Root,
    act_monomial,
    f_point,
    f_sigma,
)
from .arith import (
    INF,
    PrimeContext,
    _int_mat_mul,
    _int_val,
    _inverse_parts,
    identity,
    mat,
    mat_det,
    mat_mul,
    val_k,
)
from .errors import DomainError, SingularMatrixError, SubspaceNotPreservedError
from .seminorm import (
    DiagonalSeminorm,
    canonical_class,
    class_equals,
    compose_with,
    kernel_of,
    phi_from_apartment,
)


@dataclass(frozen=True, eq=False)
class BuildingPoint:
    """Seminorm class in canonical gauge; equality is class equality."""

    seminorm: DiagonalSeminorm

    def __eq__(self, other):
        if not isinstance(other, BuildingPoint):
            return NotImplemented
        return class_equals(self.seminorm, other.seminorm)

    __hash__ = None

    def kernel(self) -> list:
        return kernel_of(self.seminorm)


def building_point(g: DiagonalSeminorm) -> BuildingPoint:
    return BuildingPoint(canonical_class(g))


@dataclass(frozen=True)
class ChartPoint:
    """Chart presentation (g, x) of the point g(phi(x))."""

    g: tuple
    x: ApartmentPoint


@dataclass(frozen=True)
class ElementaryUnipotent:
    """Root-group element: identity matrix plus `entry` in position (i, j)."""

    root: Root
    entry: Fraction


def unipotent_matrix(u: ElementaryUnipotent, n: int) -> tuple:
    rows = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    rows[u.root.i - 1][u.root.j - 1] = Fraction(u.entry)
    return mat(rows)


def from_chart(c: ChartPoint, ctx: PrimeContext) -> BuildingPoint:
    """The building point g(phi(x)) presented by the chart (g, x)."""
    return building_point(compose_with(phi_from_apartment(c.x, ctx), c.g))


def act_group(g, b: BuildingPoint) -> BuildingPoint:
    """Left action gamma -> gamma o g^{-1} on seminorm classes."""
    return building_point(compose_with(b.seminorm, g))


def _chart_parts(g, x: ApartmentPoint, n: int):
    """(G, e, N, d) with g = G / e and g^-1 = N / d, for a chart (g, x) checked against n."""
    if len(g) != n or any(len(row) != n for row in g):
        raise DomainError(f"group element must be {n}x{n}")
    if x.piece[-1] > n:                 # pieces are sorted and start at 1 or above
        raise DomainError(f"piece {x.piece} does not fit dimension {n}")
    g = mat(g)
    inv = _inverse_parts(g)
    if inv is None:
        raise SingularMatrixError("group element must be invertible")
    e = math.lcm(*(a.denominator for row in g for a in row))
    return [[a.numerator * (e // a.denominator) for a in row] for row in g], e, *inv


def _bound(rows, d, x: ApartmentPoint, y: ApartmentPoint, p: int):
    """The least s with phi(x)(m v) <= q^s phi(y)(v) for all v, where m = rows / d.

    phi(y) is diagonal in the standard basis, so by the ultrametric
    inequality the bound holds once it holds on every e_j, where it reads
    max_i q^(-x_i - v(m_ij)) <= q^(s - y_j).  So s is the maximum of
    y_j - x_i - v(rows_ij) + v(d) over the nonzero rows_ij with i in I_x;
    None when such an entry has j outside I_y (phi(y)(e_j) = 0 < phi(x)(m e_j)).
    """
    ys = dict(zip(y.piece, y.exponents))
    best = None
    for i, xi in zip(x.piece, x.exponents):
        for j, a in enumerate(rows[i - 1], 1):
            if a:
                yj = ys.get(j)
                if yj is None:
                    return None
                cand = yj - xi - _int_val(a, p)
                if best is None or cand > best:
                    best = cand
    return best + _int_val(d, p)


def _same_class(m, m_inv, x: ApartmentPoint, y: ApartmentPoint, p: int) -> bool:
    # phi(x) o m and phi(y) agree up to scaling iff the tight bounds both ways cancel;
    # m and m_inv are (integer rows, integer denominator)
    s = _bound(*m, x, y, p)
    t = None if s is None else _bound(*m_inv, y, x, p)
    return t is not None and s + t == 0


def chart_equivalent(c1: ChartPoint, c2: ChartPoint, ctx: PrimeContext) -> bool:
    """Whether two charts present the same point of the building.

    With g1 = G1 / e1, g1^-1 = N1 / d1 and likewise for g2, this holds iff the
    tight bounds of phi(x1) o g1^-1 g2 against phi(x2) and of phi(x2) o g2^-1 g1
    against phi(x1) exist and cancel; g1^-1 g2 = N1 G2 / (d1 e2).
    """
    g1, e1, n1, d1 = _chart_parts(c1.g, c1.x, ctx.n)
    g2, e2, n2, d2 = _chart_parts(c2.g, c2.x, ctx.n)
    return _same_class((_int_mat_mul(n1, g2), d1 * e2), (_int_mat_mul(n2, g1), d2 * e1),
                       c1.x, c2.x, ctx.p)


def in_stabilizer_P_x(g, x: ApartmentPoint, ctx: PrimeContext) -> bool:
    """Membership in the stabilizer of the class of phi(x).

    The chart test on (I, x) and (g, x): the tight bounds of phi(x) o g and of
    phi(x) o g^-1 against phi(x) exist and cancel (Bruhat-Tits' valuation
    description of P_x).
    """
    g, e, num, d = _chart_parts(g, x, ctx.n)
    return _same_class((g, e), (num, d), x, x, ctx.p)


def in_U_a_sigma(u: ElementaryUnipotent, points, ctx: PrimeContext) -> bool:
    """Root-group filtration test v(entry) >= f_Sigma(a).

    The conventions for infinite thresholds fall out of v(0) = +infinity:
    threshold +infinity admits only the identity, -infinity admits all.
    """
    return val_k(u.entry, ctx) >= f_sigma(points, u.root)


def fixes_pointwise(m: MonomialElement, points) -> bool:
    """Whether the monomial element fixes every point of the set."""
    return all(act_monomial(m, x) == x for x in points)


def sigma_project(g, piece) -> tuple:
    """Induced matrix on the quotient V / span(v_i : i not in piece).

    Requires g to preserve that subspace; the result is written in the
    basis of the residual coordinates.
    """
    g = mat(g)
    n = len(g)
    if any(len(row) != n for row in g):
        raise DomainError("g must be square")
    inside = sorted(set(piece))
    if not set(inside) <= set(range(1, n + 1)):
        raise DomainError(f"piece {tuple(inside)} has an index outside 1..{n}")
    outside = [i for i in range(1, n + 1) if i not in inside]
    for j in outside:
        for i in inside:
            if g[i - 1][j - 1] != 0:
                raise SubspaceNotPreservedError(
                    f"column {j} leaves the complement of {tuple(inside)}"
                )
    return mat([[g[i - 1][j - 1] for j in inside] for i in inside])


# ---------------------------------------------------------------------------
# Random stabilizer elements (deterministic under an explicit seed)
# ---------------------------------------------------------------------------

def _random_unit(p: int, rng) -> int:
    # k-th entry of [c for c in 1..p^2-1 if p does not divide c] followed by
    # their negatives: the draw of rng.choice over that list, without
    # building its 2(p^2 - p) entries
    half = p * p - p
    k = rng.randrange(2 * half)
    sign, k = (1, k) if k < half else (-1, k - half)
    return sign * (k // (p - 1) * p + k % (p - 1) + 1)


def _admissible_unipotent(x, ctx, bound, rng):
    n = ctx.n
    i, j = rng.sample(range(1, n + 1), 2)
    f = f_point(x, Root(i, j))
    if f == INF:
        return identity(n)
    lo = -bound if f == -INF else ceil(f)
    v = rng.randint(lo, lo + bound)
    omega = Fraction(rng.randint(1, ctx.p - 1)) * Fraction(ctx.p) ** v
    return unipotent_matrix(ElementaryUnipotent(Root(i, j), omega), n)


def _fixing_permutation(x, ctx, rng):
    # permute indices with equal exponents, and the off-piece indices freely
    groups = {}
    for i in range(1, ctx.n + 1):
        key = x.exponent(i) if i in x.piece else "off"
        groups.setdefault(key, []).append(i)
    image = {}
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        image.update(dict(zip(members, shuffled)))
    rows = [[Fraction(0)] * ctx.n for _ in range(ctx.n)]
    for j in range(1, ctx.n + 1):
        rows[image[j] - 1][j - 1] = Fraction(1)
    return mat(rows)


def _fixing_diagonal(x, ctx, bound, rng):
    # units everywhere; off the piece any p-power is allowed
    diag = []
    for i in range(1, ctx.n + 1):
        d = Fraction(_random_unit(ctx.p, rng))
        if i not in x.piece:
            d *= Fraction(ctx.p) ** rng.randint(-bound, bound)
        diag.append(d)
    return mat([[diag[a] if a == b else Fraction(0) for b in range(ctx.n)]
                for a in range(ctx.n)])


def sample_P_x_generators(x: ApartmentPoint, count: int, bound: int,
                          ctx: PrimeContext, seed: int = 0) -> list:
    """Random products of admissible unipotents and monomials fixing x.

    Every returned matrix stabilizes the class of phi(x); an empty factor
    list yields the identity.  `bound` caps valuations and unit sizes.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = identity(ctx.n)
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                factor = _admissible_unipotent(x, ctx, bound, rng)
            elif kind == 1:
                factor = _fixing_permutation(x, ctx, rng)
            else:
                factor = _fixing_diagonal(x, ctx, bound, rng)
            g = mat_mul(g, factor)
        if mat_det(g) == 0:
            raise SingularMatrixError("sampler produced a singular matrix")
        out.append(g)
    return out
