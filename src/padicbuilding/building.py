"""Points of the compactified building and the PGL_n action.

A point is a homothety class of seminorms on V; the chart (g, x) with g in
GL_n(K) and x in the compactified apartment presents the class of
phi(x) o g^-1.  Two charts present the same point when those seminorms
agree up to scaling, that is when phi(x1) o m and phi(x2) do for
m = g1^-1 g2.  The tight bound s of the first by the second is a maximum
over the valuations of m, because phi(x2) is diagonal in the standard
basis.  The reverse bound is not needed: two norms always have a common
orthogonal basis (Goldman-Iwahori 1963; any two points of the building
lie in a common apartment), so q^s phi(x2) and phi(x1) o m are equal
exactly when their volumes on V / ker phi(x2) agree; that volume and the
invertibility of m are read off passes over its diagonal blocks.  So chart
equivalence and the stabilizer P_x build no seminorm and invert no g.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .apartment import (
    ApartmentPoint,
    MonomialElement,
    Root,
    _piece,
    _points,
    act_monomial,
    f_point,
    f_sigma,
)
from .arith import (
    INF,
    PrimeContext,
    _eliminate,
    _int_val,
    _integer_rows,
    _reduced,
    identity,
    mat,
    mat_det,
    val_k,
)
from .errors import DomainError, SingularMatrixError, SubspaceNotPreservedError
from .seminorm import (
    DiagonalSeminorm,
    _group_matrix,
    canonical_class,
    class_equals,
    compose_with,
    kernel_of,
    phi_from_apartment,
)


@dataclass(frozen=True, eq=False)
class BuildingPoint:
    """Seminorm class in canonical gauge; equality is class equality, False across p or n."""

    seminorm: DiagonalSeminorm

    def __eq__(self, other):
        if not isinstance(other, BuildingPoint):
            return NotImplemented
        a, b = self.seminorm, other.seminorm
        return (a.ctx.p, a.ctx.n) == (b.ctx.p, b.ctx.n) and class_equals(a, b)

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
    u.root.checked(n)
    rows = [list(row) for row in identity(n)]
    rows[u.root.i - 1][u.root.j - 1] = u.entry
    return mat(rows)


def from_chart(c: ChartPoint, ctx: PrimeContext) -> BuildingPoint:
    """The building point g(phi(x)) presented by the chart (g, x)."""
    return building_point(compose_with(phi_from_apartment(c.x, ctx), c.g))


def act_group(g, b: BuildingPoint) -> BuildingPoint:
    """Left action gamma -> gamma o g^{-1} on seminorm classes."""
    return building_point(compose_with(b.seminorm, g))


def _checked(g, x: ApartmentPoint, n: int) -> list:
    """The rows of g as _group_matrix reads them, once the chart (g, x) is checked against n."""
    g = _group_matrix(g, n)
    x.checked(n)
    return g


def _bound(rows, x: ApartmentPoint, xs, ys: dict, scale: int, p: int):
    """scale * the least s with phi(x)(m v) <= q^s phi(y)(v) for all v, m = rows.

    xs and ys (keyed by index) are the exponents of x and y times their
    common denominator `scale`, so everything is an integer.  phi(y) is
    diagonal in the standard basis, so by the ultrametric inequality the
    bound holds once it holds on every e_j, where it reads
    max_i q^(-x_i - v(m_ij)) <= q^(s - y_j).  So s is the maximum of
    y_j - x_i - v(m_ij) over the nonzero m_ij with i in I_x; None when such
    an entry has j outside I_y (phi(y)(e_j) = 0 < phi(x)(m e_j)), and when
    there is no such entry.
    """
    best = None
    for i, xi in zip(x.piece, xs):
        for j, a in enumerate(rows[i - 1], 1):
            if a:
                yj = ys.get(j)
                if yj is None:
                    return None
                cand = yj - xi - scale * _int_val(a, p)
                if best is None or cand > best:
                    best = cand
    return best


def _same_class(rows, d: int, g2, x: ApartmentPoint, y: ApartmentPoint, p: int) -> bool:
    """Whether phi(x) o m and phi(y) agree up to scaling, for m = rows / d.

    rows is a square integer matrix, d times every minor of m is an integer,
    and g2 is singular exactly when m is; then SingularMatrixError is raised.

    With k = |I_x| = |I_y| and s the tight bound of phi(x) o m <= q^s phi(y),
    the two agree up to scaling iff
        -sum x_i - v(det m[I_x, I_y]) = k s - sum y_j.
    Both sides are the log volume of a norm on V / ker phi(y): of phi(x) o m
    and of q^s phi(y).  The two norms have a common orthogonal basis
    (Goldman-Iwahori; any two points of the building lie in a common
    apartment), on which the first is at most the second, so the volumes
    agree exactly when the norms do; on rows both sides shift by k v(d).  If
    s exists, m[I_x, complement of I_y] = 0, so m is invertible iff m[I_x, I_y]
    and m[off I_x, off I_y] are, which forward passes continued from d decide;
    the first one's k-th pivot is +-d det m[I_x, I_y].  Else mat_det(g2) decides.
    """
    k = len(x.piece)
    (row,), (scale,) = _integer_rows([[*x.exponents, *y.exponents]])
    xs, ys = row[:k], dict(zip(y.piece, row[k:]))
    s = _bound(rows, x, xs, ys, scale, p)
    if s is None or k != len(y.piece):
        if mat_det(g2) == 0:
            raise SingularMatrixError("group element must be invertible")
        return False
    piece = [[rows[i - 1][j - 1] for j in ys] for i in x.piece]
    off = [[a for j, a in enumerate(row, 1) if j not in ys]
           for i, row in enumerate(rows, 1) if i not in x.piece]
    for block in (piece, off):
        if block and len(_eliminate(block, len(block), reduce=False, start=d)[0]) < len(block):
            raise SingularMatrixError("group element must be invertible")
    vdet = _int_val(piece[k - 1][k - 1], p) + (k - 1) * _int_val(d, p)
    return -sum(xs) - scale * vdet == k * s - sum(ys.values())


def chart_equivalent(c1: ChartPoint, c2: ChartPoint, ctx: PrimeContext) -> bool:
    """Whether two charts present the same point of the building.

    (g1, x1) and (g2, x2) do iff phi(x1) o g1^-1 g2 and phi(x2) agree up to
    scaling.  One Gauss-Jordan pass over [g1 | g2] ends in [d I | M] with
    g1^-1 g2 = M / d; the class test takes one tight bound on M and passes
    over its two diagonal blocks from d, whose entries stay minors of [g1 | g2].
    """
    n = ctx.n
    g1, g2 = _checked(c1.g, c1.x, n), _checked(c2.g, c2.x, n)
    pivots, rows, d = _reduced([[*r1, *r2] for r1, r2 in zip(g1, g2)], n)
    if len(pivots) < n:
        raise SingularMatrixError("group element must be invertible")
    return _same_class([row[n:] for row in rows], d, g2, c1.x, c2.x, ctx.p)


def in_stabilizer_P_x(g, x: ApartmentPoint, ctx: PrimeContext) -> bool:
    """Membership in the stabilizer of the class of phi(x).

    The chart test on (I, x) and (g, x), phi(x) o g against phi(x), run on
    the integer G = e g from d = 1 (see _same_class): no inverse is formed.
    """
    n = ctx.n
    g = _checked(g, x, n)
    (flat,), _ = _integer_rows([[a for row in g for a in row]])
    return _same_class([flat[i:i + n] for i in range(0, n * n, n)], 1, g, x, x, ctx.p)


def in_U_a_sigma(u: ElementaryUnipotent, points, ctx: PrimeContext) -> bool:
    """Root-group filtration test v(entry) >= f_Sigma(a).

    The conventions for infinite thresholds fall out of v(0) = +infinity:
    threshold +infinity admits only the identity, -infinity admits all.
    """
    a = u.root.checked(ctx.n)
    return val_k(u.entry, ctx) >= f_sigma([x.checked(ctx.n) for x in _points(points)], a)


def fixes_pointwise(m: MonomialElement, points) -> bool:
    """Whether the monomial element fixes every point of the set."""
    return all(act_monomial(m, x) == x for x in _points(points))


def sigma_project(g, piece) -> tuple:
    """Induced matrix on the quotient V / span(v_i : i not in piece).

    Requires g to preserve that subspace; the result is written in the
    basis of the residual coordinates.
    """
    g = mat(g)
    n = len(g)
    if any(len(row) != n for row in g):
        raise DomainError("g must be square")
    inside = tuple(sorted(_piece(piece)))
    if not inside:
        raise DomainError("empty piece")
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
# Random stabilizer elements (deterministic under an explicit seed).  A product
# is carried as its list of columns and each factor is applied as a column
# operation, so no factor matrix is built and no matrix product runs.
# ---------------------------------------------------------------------------

def _random_unit(p: int, rng) -> int:
    # k-th entry of [c for c in 1..p^2-1 if p does not divide c] followed by
    # their negatives: the draw of rng.choice over that list, without
    # building its 2(p^2 - p) entries
    half = p * p - p
    k = rng.randrange(2 * half)
    sign, k = (1, k) if k < half else (-1, k - half)
    return sign * (k // (p - 1) * p + k % (p - 1) + 1)


def _admissible_unipotent(cols, x, ctx, bound, rng):
    # times 1 + omega e_ij: column j gains omega times column i
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    f = f_point(x, Root(i, j))
    if f == INF:
        return
    lo = -bound if f == -INF else ceil(f)
    v = rng.randint(lo, lo + bound)
    omega = Fraction(rng.randint(1, ctx.p - 1)) * Fraction(ctx.p) ** v
    cols[j - 1] = [a + omega * b if b else a for a, b in zip(cols[j - 1], cols[i - 1])]


def _fixing_permutation(cols, x, ctx, rng):
    # permute indices with equal exponents, and the off-piece indices freely;
    # times the matrix with a 1 at (image[j], j): column j becomes column image[j]
    groups = {}
    for i in range(1, ctx.n + 1):
        key = x.exponent(i) if i in x.piece else "off"
        groups.setdefault(key, []).append(i)
    image = {}
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        image.update(dict(zip(members, shuffled)))
    cols[:] = [cols[image[j] - 1] for j in range(1, ctx.n + 1)]


def _fixing_diagonal(cols, x, ctx, bound, rng):
    # units everywhere; off the piece any p-power is allowed; column i scales by the i-th
    for i in range(1, ctx.n + 1):
        d = Fraction(_random_unit(ctx.p, rng))
        if i not in x.piece:
            d *= Fraction(ctx.p) ** rng.randint(-bound, bound)
        cols[i - 1] = [d * a if a else a for a in cols[i - 1]]


def sample_P_x_generators(x: ApartmentPoint, count: int, bound: int,
                          ctx: PrimeContext, seed: int = 0) -> list:
    """Random products of admissible unipotents and monomials fixing x.

    Every returned matrix stabilizes the class of phi(x); an empty factor
    list yields the identity.  `bound` >= 0 caps valuations and unit sizes.
    Each factor is applied to the product's columns as a column operation.
    The product is invertible, as every factor is: 1 + omega e_ij with i != j,
    a permutation, or a diagonal of p-adic units times powers of p.
    """
    if type(count) is not int or type(bound) is not int:
        raise DomainError(f"count and bound must be integers, got {count!r} and {bound!r}")
    if count < 1:
        raise DomainError("count must be >= 1")
    if bound < 0:
        raise DomainError("bound must be >= 0")
    x.checked(ctx.n)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        cols = list(identity(ctx.n))    # the identity's rows are its columns
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                _admissible_unipotent(cols, x, ctx, bound, rng)
            elif kind == 1:
                _fixing_permutation(cols, x, ctx, rng)
            else:
                _fixing_diagonal(cols, x, ctx, bound, rng)
        out.append(tuple(zip(*cols)))
    return out
