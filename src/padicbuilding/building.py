"""Points of the compactified building and the PGL_n action.

A point is a homothety class of seminorms on V; charts (g, x) with g in
GL_n(K) and x in the compactified apartment present the same point when
the transported seminorms agree up to scaling, so every relation question
is decided directly in the seminorm model.
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
    act_monomial,
    f_point,
    f_sigma,
)
from .arith import INF, PrimeContext, identity, mat, mat_det, mat_mul, val_k
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


def chart_equivalent(c1: ChartPoint, c2: ChartPoint, ctx: PrimeContext) -> bool:
    """Whether two charts present the same point of the building."""
    return from_chart(c1, ctx) == from_chart(c2, ctx)


def in_stabilizer_P_x(g, x: ApartmentPoint, ctx: PrimeContext) -> bool:
    """Membership in the stabilizer of the class of phi(x)."""
    gx = phi_from_apartment(x, ctx)
    return class_equals(compose_with(gx, g), gx)


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
    inside = sorted(set(piece))
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
