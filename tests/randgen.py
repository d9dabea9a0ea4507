"""Seeded random generators shared by the test modules."""

import random
from fractions import Fraction
from math import ceil, inf

from padicbuilding import (
    ElementaryUnipotent,
    LogValue,
    MonomialElement,
    Root,
    apartment_point,
    diagonal_seminorm,
    f_point,
    l_scalar,
    monomial_element,
    polynomial,
    unipotent_matrix,
)
from padicbuilding.arith import identity, mat, mat_mul


def rand_fraction(rng, num=6, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vector(rng, n, num=6, den=4):
    return tuple(rand_fraction(rng, num, den) for _ in range(n))


def rand_nonzero_vector(rng, n, num=6, den=4):
    while True:
        v = rand_vector(rng, n, num, den)
        if any(x != 0 for x in v):
            return v


def rand_point(rng, n, interior=None, den=4):
    """Random apartment point; boundary pieces included unless interior=True."""
    if interior is None:
        interior = rng.random() < 0.5
    if interior:
        piece = list(range(1, n + 1))
    else:
        size = rng.randint(1, n - 1)
        piece = sorted(rng.sample(range(1, n + 1), size))
    return apartment_point(piece, [rand_fraction(rng, den=den) for _ in piece])


def rand_integer_point(rng, n, interior=None):
    if interior is None:
        interior = rng.random() < 0.5
    if interior:
        piece = list(range(1, n + 1))
    else:
        size = rng.randint(1, n - 1)
        piece = sorted(rng.sample(range(1, n + 1), size))
    return apartment_point(piece, [rng.randint(-5, 5) for _ in piece])


def rand_monomial(rng, n, integral=True, den=4) -> MonomialElement:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    if integral:
        trans = [rng.randint(-4, 4) for _ in range(n)]
    else:
        trans = [rand_fraction(rng, den=den) for _ in range(n)]
    return monomial_element(perm, trans)


def rand_invertible(rng, n, p, steps=4):
    """Random GL_n(Q) element: product of elementary, permutation and
    diagonal factors with controlled entries."""
    g = identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        rows = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rand_fraction(rng, 4, 2)
        elif kind == 1:
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[Fraction(1 if a == perm[b] else 0) for b in range(n)]
                    for a in range(n)]
        else:
            for i in range(n):
                rows[i][i] = Fraction(rng.choice([1, -1, 2, 3, p])) \
                    * Fraction(1, rng.choice([1, 1, p]))
        g = mat_mul(g, mat(rows))
    return g


def violating_unipotent(rng, x, ctx):
    """A root-group element outside the stabilizer of phi(x): an entry below
    the threshold f_x(a_ij) inside the piece, or any nonzero entry from the
    piece into the kernel directions."""
    inside = list(x.piece)
    outside = [i for i in range(1, ctx.n + 1) if i not in x.piece]
    cases = []
    if len(inside) >= 2:
        cases.append("below")
    if inside and outside:
        cases.append("outward")
    case = rng.choice(cases)
    if case == "below":
        i, j = rng.sample(inside, 2)
        f = f_point(x, Root(i, j))
        omega = Fraction(ctx.p) ** (ceil(f) - 1)
    else:
        i = rng.choice(inside)
        j = rng.choice(outside)
        omega = Fraction(ctx.p) ** rng.randint(-2, 2)
    return unipotent_matrix(ElementaryUnipotent(Root(i, j), omega), ctx.n)


def reference_sample_P_x(x, count, bound, ctx, seed=0):
    """The P_x sampler as a product of dense factor matrices.

    It draws from `random.Random(seed)` in the library's order, with the unit
    drawn by `choice` over the whole unit list, so only small primes are
    practical.  Each factor is built as a matrix and multiplied on the right.
    """
    n, p = ctx.n, ctx.p
    units = [c for c in range(1, p * p) if c % p != 0]
    units += [-c for c in units]
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = identity(n)
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                i, j = rng.sample(range(1, n + 1), 2)
                f = f_point(x, Root(i, j))
                if f == inf:
                    continue
                lo = -bound if f == -inf else ceil(f)
                v = rng.randint(lo, lo + bound)
                omega = Fraction(rng.randint(1, p - 1)) * Fraction(p) ** v
                factor = unipotent_matrix(ElementaryUnipotent(Root(i, j), omega), n)
            elif kind == 1:
                groups = {}
                for i in range(1, n + 1):
                    groups.setdefault(x.exponent(i) if i in x.piece else "off", []).append(i)
                image = {}
                for members in groups.values():
                    shuffled = members[:]
                    rng.shuffle(shuffled)
                    image.update(zip(members, shuffled))
                factor = mat([[1 if a == image[b] else 0 for b in range(1, n + 1)]
                              for a in range(1, n + 1)])
            else:
                diag = []
                for i in range(1, n + 1):
                    d = Fraction(rng.choice(units))
                    if i not in x.piece:
                        d *= Fraction(p) ** rng.randint(-bound, bound)
                    diag.append(d)
                factor = mat([[diag[a] if a == b else 0 for b in range(n)] for a in range(n)])
            g = mat_mul(g, factor)
        out.append(g)
    return out


def rand_values(rng, n, allow_zero=True):
    """Random per-column values, at least one nonzero."""
    while True:
        vals = []
        for _ in range(n):
            if allow_zero and rng.random() < 0.3:
                vals.append(LogValue.zero())
            else:
                vals.append(LogValue.finite(rand_fraction(rng)))
        if any(not v.is_zero for v in vals):
            return tuple(vals)


def rand_seminorm(rng, ctx, allow_kernel=True, steps=3):
    basis = rand_invertible(rng, ctx.n, ctx.p, steps)
    return diagonal_seminorm(basis, rand_values(rng, ctx.n, allow_kernel), ctx)


def rand_norm(rng, ctx, steps=3):
    return rand_seminorm(rng, ctx, allow_kernel=False, steps=steps)


def rand_lscalar(rng, ctx, zero_ok=True):
    while True:
        z = l_scalar([rand_fraction(rng) if rng.random() < 0.7 else 0
                      for _ in range(ctx.e)], ctx)
        if zero_ok or any(c != 0 for c in z.coeffs):
            return z


def rand_direction(rng, n):
    """Random non-constant integer direction (so the limit is a boundary point)."""
    while True:
        d = [rng.randint(0, 4) for _ in range(n)]
        if len(set(d)) > 1:
            return [Fraction(t) for t in d]


def rand_poly(rng, n, max_deg=3, max_terms=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        nu = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            nu[rng.randrange(n)] += 1
        c = rand_fraction(rng, 8, 4)
        if c == 0:
            c = Fraction(1)
        terms.append((tuple(nu), c))
    return polynomial(terms, n)


def fraction_mul(f: dict, g: dict) -> dict:
    """Product of {exponent tuple: Fraction} dicts, on tuples, zeros dropped."""
    out = {}
    for nu1, c1 in f.items():
        for nu2, c2 in g.items():
            nu = tuple(a + b for a, b in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return {nu: c for nu, c in out.items() if c != 0}


def reference_product(f, g):
    """The product f g, computed independently of the library's packed integers."""
    return polynomial(fraction_mul(dict(f.terms), dict(g.terms)), f.nvars)
