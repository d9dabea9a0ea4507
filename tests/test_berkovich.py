import random
from fractions import Fraction

import pytest

from padicbuilding import (
    LogValue,
    PrimeContext,
    abs_k,
    act_group,
    alpha_evaluate,
    apartment_point,
    building_point,
    check_multiplicative,
    gauss_point,
    in_omega,
    interior_point,
    j_section,
    l_from_k,
    l_functional,
    l_pi,
    l_scalar,
    monomial_class_equals,
    monomial_point,
    phi_from_apartment,
    polynomial,
    r_reduce_L_point,
    r_reduce_monomial,
    r_reduce_rational,
)
from padicbuilding.arith import identity, mat, mat_mul
from padicbuilding.berkovich import poly_mul
from padicbuilding.errors import DomainError, ZeroFunctionalError
from padicbuilding.seminorm import scale_seminorm

from randgen import (
    rand_invertible,
    rand_lscalar,
    rand_poly,
    rand_seminorm,
    rand_values,
)

CTX2 = PrimeContext(2, 2)
CTX22 = PrimeContext(2, 2, 2)
ONE = LogValue.finite(0)
ZERO = LogValue.zero()


def test_alpha_evaluate_examples():
    gp = gauss_point(CTX2)
    f = polynomial([((2, 0), 2), ((1, 1), 1)], 2)
    assert alpha_evaluate(gp, f) == ONE
    c = polynomial([((0, 0), Fraction(3, 4))], 2)
    assert alpha_evaluate(gp, c) == abs_k(Fraction(3, 4), CTX2)
    degenerate = monomial_point(identity(2), (ONE, ZERO), CTX2)
    assert alpha_evaluate(degenerate, polynomial([((0, 1), 1)], 2)) == ZERO
    assert alpha_evaluate(gp, polynomial([], 2)) == ZERO


def test_alpha_degree_cap():
    gp = gauss_point(CTX2)
    f = polynomial([((9, 0), 1)], 2)
    with pytest.raises(DomainError):
        alpha_evaluate(gp, f)
    assert alpha_evaluate(gp, f, max_degree=9) == ONE


def test_alpha_in_transported_basis():
    # basis (v1, v1+v2): alpha of v2 = (second column) - (first column)
    basis = mat([[1, 1], [0, 1]])
    p = monomial_point(basis, (ONE, LogValue.finite(-1)), CTX2)
    v2 = polynomial([((0, 1), 1)], 2)
    # v2 = w2 - w1, so alpha(v2) = max(q^0, q^-1) = 1
    assert alpha_evaluate(p, v2) == ONE


def test_check_multiplicative_examples():
    gp = gauss_point(CTX2)
    one = polynomial([((0, 0), 1)], 2)
    rng = random.Random(2)
    f = rand_poly(rng, 2)
    assert check_multiplicative(gp, f, one)
    p1 = monomial_point(identity(2), (LogValue.finite(1), ONE), CTX2)
    v1 = polynomial([((1, 0), 1)], 2)
    assert check_multiplicative(p1, v1, v1)
    assert alpha_evaluate(p1, poly_mul(v1, v1)) == LogValue.finite(2)


def test_monomial_class_equals_examples():
    gp = gauss_point(CTX2)
    shifted = monomial_point(gp.basis,
                             tuple(r.shift(3) for r in gp.radii), CTX2)
    assert monomial_class_equals(gp, shifted)
    other = monomial_point(identity(2), (ONE, LogValue.finite(-1)), CTX2)
    assert not monomial_class_equals(gp, other)
    # same seminorm presented in a different basis
    rebased = monomial_point(mat([[1, 1], [0, 1]]), (ONE, ONE), CTX2)
    assert monomial_class_equals(gp, rebased)


def test_j_section_examples():
    b = building_point(phi_from_apartment(interior_point([0, 0]), CTX2))
    assert monomial_class_equals(j_section(b), gauss_point(CTX2))
    bdry = building_point(phi_from_apartment(apartment_point([1], [0]), CTX2))
    jp = j_section(bdry)
    assert set(jp.radii) == {ONE, ZERO}
    scaled = building_point(scale_seminorm(bdry.seminorm, 5))
    assert monomial_class_equals(j_section(scaled), jp)


def test_reduction_section_identity():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        b = building_point(rand_seminorm(rng, ctx, steps=2))
        assert r_reduce_monomial(j_section(b)) == b
    gp = gauss_point(CTX2)
    assert r_reduce_monomial(gp) == building_point(
        phi_from_apartment(interior_point([0, 0]), CTX2))
    bd = monomial_point(identity(2), (ONE, ZERO), CTX2)
    assert r_reduce_monomial(bd).kernel() == [(0, 1)]


def test_reduction_equivariance():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3]), n)
        p = monomial_point(rand_invertible(rng, n, ctx.p), rand_values(rng, n), ctx)
        g = rand_invertible(rng, n, ctx.p)
        moved = monomial_point(mat_mul(g, p.basis), p.radii, ctx)
        assert r_reduce_monomial(moved) == act_group(g, r_reduce_monomial(p))


def test_r_reduce_rational_examples():
    b = r_reduce_rational([1, 0], CTX2)
    assert b.kernel() == [(0, 1)]
    b2 = r_reduce_rational([1, 1], CTX2)
    assert b2.kernel() == [(1, -1)]
    assert r_reduce_rational([Fraction(3), Fraction(3)], CTX2) == b2
    with pytest.raises(ZeroFunctionalError):
        r_reduce_rational([0, 0], CTX2)


def test_r_reduce_l_point_examples():
    z = l_functional([l_from_k(1, CTX22), l_pi(CTX22)], CTX22)
    b = r_reduce_L_point(z)
    expected = building_point(
        phi_from_apartment(interior_point([0, Fraction(1, 2)]), CTX22))
    assert b == expected
    # K-valued entries agree with the rational reduction
    zk = l_functional([l_from_k(2, CTX22), l_from_k(3, CTX22)], CTX22)
    assert r_reduce_L_point(zk) == r_reduce_rational([2, 3], CTX22)
    # z = (1, 1+pi) spans L over K, so the class has full rank
    z2 = l_functional([l_from_k(1, CTX22), l_scalar([1, 1], CTX22)], CTX22)
    assert r_reduce_L_point(z2).kernel() == []


def test_in_omega_examples():
    assert in_omega(l_functional([l_from_k(1, CTX22), l_pi(CTX22)], CTX22))
    assert not in_omega(l_functional([l_from_k(1, CTX22), l_from_k(1, CTX22)], CTX22))
    assert not in_omega(l_functional([l_from_k(1, CTX22), l_scalar([0], CTX22)], CTX22))
    with pytest.raises(ZeroFunctionalError):
        l_functional([l_scalar([0], CTX22)] * 2, CTX22)


def test_omega_dichotomy_random():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 3)
        e = rng.choice([1, 2, 3, 4])
        ctx = PrimeContext(rng.choice([2, 3, 5]), n, e)
        zs = [rand_lscalar(rng, ctx) for _ in range(n)]
        if all(all(c == 0 for c in z.coeffs) for z in zs):
            continue
        zf = l_functional(zs, ctx)
        assert in_omega(zf) == (r_reduce_L_point(zf).kernel() == [])


def _reference_alpha(p, f):
    # the Fraction rewrite alpha_evaluate replaced: substitute the rational
    # inverse basis, expand, then take |coefficient| * prod radii^exponents
    from padicbuilding.arith import mat_inverse

    n = p.ctx.n
    binv = mat_inverse(p.basis)
    forms = [polynomial([(tuple(int(k == j) for k in range(n)), binv[j][i]) for j in range(n)], n)
             for i in range(n)]
    out = polynomial([], n)
    for nu, a in f.terms:
        term = polynomial([((0,) * n, a)], n)
        for i, k in enumerate(nu):
            for _ in range(k):
                term = poly_mul(term, forms[i])
        out = polynomial(list(out.terms) + list(term.terms), n)
    best = ZERO
    for mu, c in out.terms:
        value = abs_k(c, p.ctx)
        for r, k in zip(p.radii, mu):
            if k:
                value = value * (r ** k)
        best = max(best, value)
    return best


def test_alpha_evaluate_matches_fraction_rewrite():
    rng = random.Random(61)
    constants = zero_radii = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        p = monomial_point(rand_invertible(rng, n, ctx.p, steps=rng.randint(1, 4)),
                           rand_values(rng, n), ctx)
        zero_radii += any(r.is_zero for r in p.radii)
        polys = [rand_poly(rng, n, max_deg=6, max_terms=4),
                 polynomial([((0,) * n, Fraction(rng.randint(1, 9), rng.choice([1, ctx.p, 4])))], n),
                 polynomial([], n)]
        for f in polys:
            constants += f.degree() == 0
            assert alpha_evaluate(p, f) == _reference_alpha(p, f)
    assert constants >= 300 and zero_radii > 50
