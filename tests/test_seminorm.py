import math
import random
from fractions import Fraction

import pytest

from padicbuilding import (
    LogValue,
    PrimeContext,
    abs_k,
    act_monomial,
    apartment_point,
    class_equals,
    compose_with,
    diagonal_seminorm,
    distance_constants,
    equals,
    evaluate,
    interior_point,
    kernel_of,
    l_from_k,
    l_pi,
    l_scalar,
    monomial_matrix,
    orthogonalize,
    phi_from_apartment,
    phi_inverse,
    pullback_from_functional,
)
from padicbuilding.arith import identity, mat, mat_vec, rank, vec_add, vec_scale
from padicbuilding.errors import (
    DependentInputError,
    DomainError,
    KernelMismatchError,
    NotCanonicalBasisError,
    SingularMatrixError,
    ZeroFunctionalError,
)
from padicbuilding.seminorm import canonical_class, pullback_value, scale_seminorm

from randgen import (
    rand_fraction,
    rand_lscalar,
    rand_monomial,
    rand_norm,
    rand_point,
    rand_seminorm,
    rand_vector,
)

CTX2 = PrimeContext(2, 2)
CTX22 = PrimeContext(2, 2, 2)

ZERO = LogValue.zero()
ONE = LogValue.finite(0)


def gauge_norm(ctx):
    return phi_from_apartment(interior_point([0] * ctx.n), ctx)


def test_constructor_validation():
    with pytest.raises(SingularMatrixError):
        diagonal_seminorm([[1, 2], [2, 4]], (ONE, ONE), CTX2)
    with pytest.raises(DomainError):
        diagonal_seminorm(identity(2), (ZERO, ZERO), CTX2)
    with pytest.raises(DomainError):
        diagonal_seminorm(identity(2), (ONE,), CTX2)


def test_evaluate_examples():
    g = phi_from_apartment(interior_point([0, 1]), CTX2)
    assert evaluate(g, [1, 1]) == ONE
    gk = diagonal_seminorm(identity(2), (ONE, ZERO), CTX2)
    assert evaluate(gk, [0, 1]) == ZERO
    assert evaluate(gk, [0, 0]) == ZERO


def test_evaluate_rejects_wrong_length():
    g = phi_from_apartment(interior_point([0, 1]), CTX2)
    with pytest.raises(ValueError):
        evaluate(g, [1, 1, 1])
    with pytest.raises(ValueError):
        evaluate(g, [1])


def test_evaluate_axioms_bulk():
    # scaling and ultrametric axioms on 10^4 random triples
    rng = random.Random(42)
    for p in (2, 3, 5):
        ctx = PrimeContext(p, 3)
        for _ in range(3400):
            g = rand_seminorm(rng, ctx, steps=2)
            v = rand_vector(rng, 3)
            w = rand_vector(rng, 3)
            lam = rand_fraction(rng)
            assert evaluate(g, vec_scale(lam, v)) == abs_k(lam, ctx) * evaluate(g, v)
            m = max(evaluate(g, v), evaluate(g, w))
            assert not m < evaluate(g, vec_add(v, w))


def test_kernel_examples():
    assert kernel_of(gauge_norm(CTX2)) == []
    g = diagonal_seminorm(identity(2), (ONE, ZERO), CTX2)
    assert kernel_of(g) == [(0, 1)]
    g2 = diagonal_seminorm(mat([[1, 1], [0, 1]]), (ZERO, ONE), CTX2)
    assert kernel_of(g2) == [(1, 0)]
    assert evaluate(g2, (1, 0)) == ZERO


def test_compose_examples():
    g = gauge_norm(CTX2)
    assert compose_with(g, identity(2)) == g
    moved = compose_with(g, mat([[2, 0], [0, 1]]))
    target = phi_from_apartment(interior_point([0, 1]), CTX2)
    assert class_equals(moved, target)
    elem = mat([[1, Fraction(1, 2)], [0, 1]])
    shifted = compose_with(g, elem)
    assert shifted.basis == mat([[1, Fraction(1, 2)], [0, 1]])
    with pytest.raises(SingularMatrixError):
        compose_with(g, mat([[1, 1], [1, 1]]))


def test_compose_is_translation_of_argument():
    rng = random.Random(6)
    from randgen import rand_invertible
    from padicbuilding.arith import mat_inverse

    for _ in range(150):
        ctx = PrimeContext(3, 3)
        g = rand_seminorm(rng, ctx, steps=2)
        h = rand_invertible(rng, 3, 3, steps=3)
        moved = compose_with(g, h)
        hinv = mat_inverse(h)
        for _ in range(5):
            v = rand_vector(rng, 3)
            assert evaluate(moved, v) == evaluate(g, mat_vec(hinv, v))


def test_phi_examples():
    g = phi_from_apartment(interior_point([0, 0]), CTX2)
    assert g.values == (ONE, ONE)
    g2 = phi_from_apartment(interior_point([0, 1]), CTX2)
    assert g2.values == (ONE, LogValue.finite(-1))
    g3 = phi_from_apartment(apartment_point([1], [0]), CTX2)
    assert g3.values == (ONE, ZERO)


def test_phi_inverse_examples():
    x = interior_point([0, 1])
    assert phi_inverse(phi_from_apartment(x, CTX2)) == x
    g = diagonal_seminorm(identity(2), (LogValue.finite(3), LogValue.finite(4)), CTX2)
    assert phi_inverse(g) == interior_point([0, -1])
    g2 = diagonal_seminorm(identity(2), (ONE, ZERO), CTX2)
    assert phi_inverse(g2) == apartment_point([1], [0])
    with pytest.raises(NotCanonicalBasisError):
        phi_inverse(diagonal_seminorm(mat([[1, 1], [0, 1]]), (ONE, ONE), CTX2))


def test_phi_round_trip_random():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(2, 5)
        ctx = PrimeContext(3, n)
        x = rand_point(rng, n)
        assert phi_inverse(phi_from_apartment(x, ctx)) == x


def test_equals_examples():
    g = gauge_norm(CTX2)
    assert equals(g, g)
    h = diagonal_seminorm(mat([[1, 1], [0, 1]]), (ONE, ONE), CTX2)
    assert equals(g, h)
    assert not equals(g, phi_from_apartment(interior_point([0, 1]), CTX2))


def test_equals_matches_sampling_oracle():
    rng = random.Random(77)
    for _ in range(150):
        ctx = PrimeContext(3, 3)
        g1 = rand_seminorm(rng, ctx, steps=2)
        if rng.random() < 0.5:
            # construct an equal pair: reshuffle the presentation through
            # a change of basis that preserves the seminorm
            g2 = canonical_class(g1)
            g2 = scale_seminorm(g2, -g2.values[0].log + g1.values[0].log) \
                if not g1.values[0].is_zero else g2
            expect = equals(g1, g2)
        else:
            g2 = rand_seminorm(rng, ctx, steps=2)
            expect = equals(g1, g2)
        if expect:
            for _ in range(1000):
                v = rand_vector(rng, 3)
                assert evaluate(g1, v) == evaluate(g2, v)
        else:
            panel = [g1.column(i) for i in range(3)] + [g2.column(i) for i in range(3)]
            assert any(evaluate(g1, v) != evaluate(g2, v) for v in panel)


def test_class_equals_examples():
    g = phi_from_apartment(interior_point([0, 1]), CTX2)
    assert class_equals(g, scale_seminorm(g, 2))
    gk = diagonal_seminorm(identity(2), (ONE, ZERO), CTX2)
    assert not class_equals(g, gk)
    rng = random.Random(15)
    for _ in range(100):
        n = rng.randint(2, 4)
        ctx = PrimeContext(5, n)
        m = rand_monomial(rng, n)
        x = rand_point(rng, n)
        lhs = phi_from_apartment(act_monomial(m, x), ctx)
        rhs = compose_with(phi_from_apartment(x, ctx), monomial_matrix(m, ctx))
        assert class_equals(lhs, rhs)


def test_canonical_class_gauge():
    rng = random.Random(16)
    for _ in range(100):
        ctx = PrimeContext(2, 4)
        g = rand_seminorm(rng, ctx)
        c = canonical_class(g)
        assert class_equals(g, c)
        finite = [v for v in c.values if not v.is_zero]
        assert finite[0] == ONE
        assert all(not finite[k] < finite[k + 1] for k in range(len(finite) - 1))
        # idempotent up to equality of presentations
        assert canonical_class(c) == c


def test_orthogonalize_examples():
    g = gauge_norm(CTX2)
    # already canonical family is untouched
    basis = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))]
    assert orthogonalize(basis, g) == basis
    # reduction example: {v1, v1 + 2 v2} -> {v1, 2 v2}
    out = orthogonalize([(1, 0), (1, 2)], g)
    assert out == [(1, 0), (0, 2)]
    # power basis of L over K is already orthogonal for the pulled-back norm
    ambient = diagonal_seminorm(identity(2), (ONE, LogValue.finite(Fraction(-1, 2))),
                                CTX22)
    fam = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert orthogonalize(fam, ambient) == fam
    with pytest.raises(DependentInputError):
        orthogonalize([(1, 1), (2, 2)], g)
    with pytest.raises(DomainError):
        orthogonalize([(1, 0)], diagonal_seminorm(identity(2), (ONE, ZERO), CTX2))


def _check_max_property(ambient, family, rng, trials=40):
    vals = [evaluate(ambient, u) for u in family]
    for _ in range(trials):
        lams = [rand_fraction(rng) for _ in family]
        v = (Fraction(0),) * ambient.n
        for lam, u in zip(lams, family):
            v = vec_add(v, vec_scale(lam, u))
        expected = max(
            (abs_k(lam, ambient.ctx) * val for lam, val in zip(lams, vals)),
            default=LogValue.zero(),
        )
        assert evaluate(ambient, v) == expected


def test_orthogonalize_random():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 5)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        ambient = rand_norm(rng, ctx, steps=2)
        m = rng.randint(1, n)
        while True:
            us = [rand_vector(rng, n) for _ in range(m)]
            if rank(us) == m:
                break
        out = orthogonalize(us, ambient)
        assert rank(list(us) + list(out)) == m  # same span
        _check_max_property(ambient, out, rng)


def test_pullback_examples():
    z = [l_from_k(1, CTX22), l_pi(CTX22)]
    g = pullback_from_functional(z, CTX22)
    assert g.basis == identity(2)
    assert g.values == (ONE, LogValue.finite(Fraction(-1, 2)))
    g2 = pullback_from_functional([l_from_k(1, CTX22), l_scalar([0], CTX22)], CTX22)
    assert g2.values == (ONE, ZERO)
    assert kernel_of(g2) == [(0, 1)]
    g3 = pullback_from_functional([l_from_k(1, CTX22), l_from_k(1, CTX22)], CTX22)
    assert kernel_of(g3) == [(1, -1)]
    with pytest.raises(ZeroFunctionalError):
        pullback_from_functional([l_scalar([0], CTX22)] * 2, CTX22)


def test_pullback_agrees_with_direct_evaluation():
    rng = random.Random(3)
    for p, e in ((2, 2), (3, 3), (5, 4), (2, 1)):
        for n in (2, 3):
            ctx = PrimeContext(p, n, e)
            for _ in range(8):
                zs = [rand_lscalar(rng, ctx) for _ in range(n)]
                if all(all(c == 0 for c in z.coeffs) for z in zs):
                    continue
                g = pullback_from_functional(zs, ctx)
                for _ in range(60):
                    v = rand_vector(rng, n)
                    assert evaluate(g, v) == pullback_value(zs, v, ctx)


def test_distance_constants_examples():
    g = gauge_norm(CTX2)
    assert distance_constants(g, g) == (0, 0)
    h = phi_from_apartment(interior_point([0, 1]), CTX2)
    assert distance_constants(g, h) == (1, 0)
    s, t = distance_constants(scale_seminorm(g, 3), h)
    assert (s, t) == (1 + 3, 0 - 3)
    with pytest.raises(KernelMismatchError):
        distance_constants(g, diagonal_seminorm(identity(2), (ONE, ZERO), CTX2))


def test_distance_constants_are_tight_bounds():
    rng = random.Random(31)
    for _ in range(60):
        ctx = PrimeContext(3, 3)
        g1 = rand_norm(rng, ctx, steps=2)
        g2 = rand_norm(rng, ctx, steps=2)
        s, t = distance_constants(g1, g2)
        tight_s = tight_t = False
        for _ in range(40):
            v = rand_vector(rng, 3)
            a, b = evaluate(g1, v), evaluate(g2, v)
            if a.is_zero:
                continue
            assert not b.shift(s) < a
            assert not a.shift(t) < b
        for i in range(3):
            w = g2.column(i)
            if evaluate(g1, w) == evaluate(g2, w).shift(s):
                tight_s = True
        for i in range(3):
            w = g1.column(i)
            if evaluate(g2, w) == evaluate(g1, w).shift(t):
                tight_t = True
        assert tight_s and tight_t


# ---------------------------------------------------------------------------
# The carried integer inverse against the Fraction path
# ---------------------------------------------------------------------------

def _reference_evaluate(g, v):
    # expand v in the basis with the Fraction inverse, then take the max
    from padicbuilding.arith import mat_inverse, val_k

    best = ZERO
    for lam, val in zip(mat_vec(mat_inverse(g.basis), v), g.values):
        if lam != 0 and not val.is_zero:
            best = max(best, val.shift(-val_k(lam, g.ctx)))
    return best


def _p_vector(rng, n, p):
    # entries whose denominators are often divisible by p, sometimes zero
    return tuple(Fraction(rng.choice([0, rng.randint(-12, 12)]), rng.choice([1, 2, p, p * p, 3 * p]))
                 for _ in range(n))


def _carried_inverse(g):
    num, d = g._inv
    assert d > 0 and all(isinstance(x, int) for row in num for x in row)
    assert math.gcd(d, *(x for row in num for x in row)) == 1
    return tuple(tuple(Fraction(x, d) for x in row) for row in num)


def test_evaluate_matches_fraction_expansion():
    from padicbuilding.arith import mat_inverse

    rng = random.Random(51)
    for n in range(2, 7):
        kernels = 0
        for _ in range(250):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n)
            g = rand_seminorm(rng, ctx, steps=rng.randint(1, 4))
            assert _carried_inverse(g) == mat_inverse(g.basis)
            kernels += not g.is_norm()
            vs = [_p_vector(rng, n, ctx.p) for _ in range(6)]
            vs += [(Fraction(0),) * n, g.column(rng.randrange(n))]
            for v in vs:
                assert evaluate(g, v) == _reference_evaluate(g, v)
        assert kernels > 30


def test_compose_chains_carry_the_inverse_of_the_product():
    from padicbuilding.arith import mat_inverse, mat_mul
    from randgen import rand_invertible

    rng = random.Random(52)
    for _ in range(200):
        n = rng.randint(2, 5)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        g = rand_seminorm(rng, ctx, steps=2) if rng.random() < 0.7 \
            else phi_from_apartment(rand_point(rng, n), ctx)
        product = identity(n)
        for _ in range(rng.randint(1, 4)):
            h = rand_invertible(rng, n, ctx.p, steps=3)
            g = compose_with(g, h)
            product = mat_mul(h, product)
            assert _carried_inverse(g) == mat_inverse(g.basis)
        start_inverse = mat_inverse(mat_mul(mat_inverse(product), g.basis))
        assert _carried_inverse(g) == mat_mul(start_inverse, mat_inverse(product))
        assert _carried_inverse(scale_seminorm(g, Fraction(1, 3))) == _carried_inverse(g)
        v = _p_vector(rng, n, ctx.p)
        assert evaluate(g, v) == _reference_evaluate(g, v)


def test_carried_inverse_is_invisible():
    from padicbuilding.arith import _inverse_parts
    from padicbuilding.seminorm import DiagonalSeminorm
    from padicbuilding.serialize import seminorm_to_doc

    rng = random.Random(53)
    for _ in range(50):
        ctx = PrimeContext(3, 3)
        g = rand_seminorm(rng, ctx)
        num, d = _inverse_parts(g.basis)
        other = DiagonalSeminorm(g.basis, g.values, ctx, (tuple(tuple(3 * x for x in r) for r in num), 3 * d))
        assert other == g and hash(other) == hash(g)
        assert repr(other) == repr(g) and "_inv" not in repr(g)
        assert seminorm_to_doc(other) == seminorm_to_doc(g)
        assert set(seminorm_to_doc(g)) == {"basis", "values"}
