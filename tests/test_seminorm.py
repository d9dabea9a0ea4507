import json
import math
import random
from fractions import Fraction
from functools import reduce

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
    l_add,
    l_from_k,
    l_pi,
    l_scalar,
    l_scale,
    monomial_matrix,
    monomial_point,
    orthogonalize,
    phi_from_apartment,
    phi_inverse,
    pullback_from_functional,
)
from padicbuilding import serialize
from padicbuilding.arith import (
    LScalar,
    identity,
    mat,
    mat_col,
    mat_det,
    mat_from_cols,
    mat_inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    reduced_echelon,
    val_k,
    vec_add,
    vec_scale,
)
from padicbuilding.cli import main as cli_main
from padicbuilding.errors import (
    DependentInputError,
    DomainError,
    KernelMismatchError,
    NotCanonicalBasisError,
    SingularMatrixError,
    ZeroFunctionalError,
)
from padicbuilding.seminorm import _log_bound, canonical_class, pullback_value, scale_seminorm

from randgen import (
    rand_fraction,
    rand_invertible,
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
    with pytest.raises(DomainError, match="3 entries, expected 2"):
        evaluate(g, [1, 1, 1])
    with pytest.raises(DomainError, match="1 entries, expected 2"):
        evaluate(g, [1])
    # a zero column skips its row, so the length is checked before any row is read
    gk = diagonal_seminorm(identity(2), (ONE, ZERO), CTX2)
    with pytest.raises(DomainError, match="3 entries, expected 2"):
        evaluate(gk, [1, 1, 1])


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


def _scattered_values(rng, n, zeros):
    # n values, `zeros` of them zero, at random positions
    vals = [LogValue.finite(rand_fraction(rng)) for _ in range(n - zeros)] + [ZERO] * zeros
    rng.shuffle(vals)
    return vals


def _with_zeros(rng, basis, zeros, ctx):
    return diagonal_seminorm(basis, _scattered_values(rng, ctx.n, zeros), ctx)


def _live_inverse(g, inverse=None):
    # the rows of `inverse` (basis^-1 by default) at g's nonzero values, over
    # one denominator in lowest terms, and None at g's zero values
    rows = [None if v.is_zero else row for row, v in zip(inverse or mat_inverse(g.basis), g.values)]
    d = math.lcm(*(x.denominator for row in rows if row is not None for x in row))
    return tuple(None if row is None else tuple(int(x * d) for x in row) for row in rows), d


def test_canonical_class_derives_the_inverse_of_its_basis():
    # the carried live rows of the canonical basis's inverse, reordered from
    # the input's, are the ones a fresh inversion gives; kernels arrive
    # scattered, already in echelon form (a canonical basis with its columns
    # permuted), or from the pullback of an L-valued functional
    rng = random.Random(54)
    cases = 0
    for n in range(2, 7):
        zero_counts = set()
        for k in range(420):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n, 1 + k % 3)
            zeros = rng.randint(0, n - 1)
            g = _with_zeros(rng, rand_invertible(rng, n, ctx.p, rng.randint(1, 4)), zeros, ctx)
            if k % 3 == 1:
                c = canonical_class(g)
                order = list(range(n))
                rng.shuffle(order)
                g = diagonal_seminorm(mat_from_cols([c.column(i) for i in order]),
                                      [c.values[i] for i in order], ctx)
            elif k % 3 == 2:
                zs = [rand_lscalar(rng, ctx) for _ in range(n)]
                if all(z.coeffs == (0,) * ctx.e for z in zs):
                    continue
                g = pullback_from_functional(zs, ctx)
            zero_counts.add(sum(v.is_zero for v in g.values))
            c = canonical_class(g)
            assert c._inv == _live_inverse(c), (g.basis, g.values)
            cases += 1
        assert zero_counts == set(range(n)), (n, zero_counts)
    assert cases >= 2000


def test_orthogonalize_examples():
    g = gauge_norm(CTX2)
    # already canonical family is untouched
    basis = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))]
    assert orthogonalize(basis, g) == basis
    # reduction example: {v1, v1 + 2 v2} -> {v1, 2 v2}
    out = orthogonalize([(1, 0), (1, 2)], g)
    assert out == [(1, 0), (0, 2)]
    assert orthogonalize([], g) == []
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


def test_pullback_reads_a_hand_built_scalar_as_l_scalar_does():
    # an LScalar built directly holds its coefficients unread; the pullback reads each once,
    # a float as its repr and a string as a rational, so it agrees with the oracle on the
    # scalars l_scalar reads from the same coefficients
    for ctx, coeffs in ((PrimeContext(2, 2), [(0.1,), (1,)]),
                        (PrimeContext(2, 2), [("1/10",), (1,)]),
                        (PrimeContext(3, 2, 2), [(0.5, "2/9"), ("3", 0.25)])):
        zs = [LScalar(c) for c in coeffs]
        read = [l_scalar(c, ctx) for c in coeffs]
        g = pullback_from_functional(zs, ctx)
        for v in ((1, 0), (0, 1), (1, 1), (2, -5), (Fraction(1, 3), 4)):
            assert evaluate(g, v) == pullback_value(read, v, ctx)
    g = pullback_from_functional([LScalar((0.1,)), LScalar((1,))], PrimeContext(2, 2))
    assert evaluate(g, (1, 0)) == LogValue.finite(1)
    assert pullback_value([LScalar((0.1,)), LScalar((1,))], (1, 0), PrimeContext(2, 2)) == \
        LogValue.finite(1)
    with pytest.raises(ZeroFunctionalError):
        pullback_from_functional([LScalar(("0",)), LScalar((0.0,))], PrimeContext(2, 2))


@pytest.mark.parametrize("zs, v", [(2, 3), (3, 2), (1, 1)])
def test_pullback_value_refuses_a_size_mismatch(zs, v):
    with pytest.raises(DomainError, match=f"functional has {zs} entries, vector {v}: expected 2"):
        pullback_value([l_from_k(1, CTX22)] * zs, [Fraction(1)] * v, CTX22)


def test_pullbacks_refuse_a_scalar_built_at_another_e():
    ctx1, ctx3 = PrimeContext(3, 2), PrimeContext(3, 2, 3)
    wide = [l_pi(ctx3), l_from_k(1, ctx3)]            # (pi, 1), read at e = 1
    narrow = [l_from_k(1, ctx1), l_from_k(2, ctx1)]   # one coefficient each, read at e = 3
    for zs, ctx in ((wide, ctx1), (narrow, ctx3)):
        with pytest.raises(DomainError, match=f"^every scalar needs e = {ctx.e} coefficients$"):
            pullback_value(zs, (1, 0), ctx)
        with pytest.raises(DomainError, match=f"^every scalar needs e = {ctx.e} coefficients$"):
            pullback_from_functional(zs, ctx)


def test_chart_and_pullback_refuse_a_size_mismatch():
    with pytest.raises(DomainError, match=r"^piece \(1, 3\) does not fit dimension 2$"):
        phi_from_apartment(apartment_point([1, 3], [0, 1]), CTX2)
    with pytest.raises(DomainError, match="^expected 2 functional entries$"):
        pullback_from_functional([l_from_k(1, CTX22)] * 3, CTX22)


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

def _reference_evaluate(g, v, basis=None):
    # expand v in the basis (g's by default) with the Fraction inverse, then take the max
    from padicbuilding.arith import mat_inverse, val_k

    best = ZERO
    for lam, val in zip(mat_vec(mat_inverse(basis or g.basis), v), g.values):
        if lam != 0 and not val.is_zero:
            best = max(best, val.shift(-val_k(lam, g.ctx)))
    return best


def _p_vector(rng, n, p):
    # entries whose denominators are often divisible by p, sometimes zero
    return tuple(Fraction(rng.choice([0, rng.randint(-12, 12)]), rng.choice([1, 2, p, p * p, 3 * p]))
                 for _ in range(n))


def test_evaluate_matches_fraction_expansion():
    rng = random.Random(51)
    for n in range(2, 7):
        kernels = 0
        for _ in range(250):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n)
            g = rand_seminorm(rng, ctx, steps=rng.randint(1, 4))
            assert g._inv == _live_inverse(g)
            kernels += not g.is_norm()
            vs = [_p_vector(rng, n, ctx.p) for _ in range(6)]
            vs += [(Fraction(0),) * n, g.column(rng.randrange(n))]
            for v in vs:
                assert evaluate(g, v) == _reference_evaluate(g, v)
        assert kernels > 30


def test_compose_chains_carry_the_inverse_of_the_product():
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
            assert g._inv == _live_inverse(g)
        start_inverse = mat_inverse(mat_mul(mat_inverse(product), g.basis))
        assert g._inv == _live_inverse(g, mat_mul(start_inverse, mat_inverse(product)))
        assert scale_seminorm(g, Fraction(1, 3))._inv == g._inv
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
        num, d, _ = _inverse_parts(g.basis)
        other = DiagonalSeminorm(g.basis, g.values, ctx, (tuple(tuple(3 * x for x in r) for r in num), 3 * d),
                                 g._vdet + 1)
        assert other == g and hash(other) == hash(g)
        assert repr(other) == repr(g) and "_inv" not in repr(g) and "_vdet" not in repr(g)
        assert seminorm_to_doc(other) == seminorm_to_doc(g)
        assert set(seminorm_to_doc(g)) == {"basis", "values"}


# ---------------------------------------------------------------------------
# Comparisons through the tight bound against the pairwise tests they replace
# ---------------------------------------------------------------------------

def _oracle_equals(g1, g2):
    # agreement on both bases
    return all(evaluate(g2, g1.column(i)) == g1.values[i] for i in range(g1.n)) and \
        all(evaluate(g1, g2.column(i)) == g2.values[i] for i in range(g2.n))


def _oracle_class_equals(g1, g2):
    # equal kernels, then equality once g2 is rescaled to match g1 on one column
    if kernel_of(g1) != kernel_of(g2):
        return False
    lead = next(i for i in range(g1.n) if not g1.values[i].is_zero)
    delta = g1.values[lead].log - evaluate(g2, g1.column(lead)).log
    return _oracle_equals(g1, scale_seminorm(g2, delta))


def _oracle_distance(g1, g2):
    return max(evaluate(g1, g2.column(i)).log - g2.values[i].log for i in range(g2.n))


def _with_kernel(rng, ctx, dim):
    vals = _scattered_values(rng, ctx.n, dim)
    return diagonal_seminorm(rand_invertible(rng, ctx.n, ctx.p, steps=3), vals, ctx)


def _rebased(rng, g, scaled=True):
    """The same seminorm in another diagonal basis, then rescaled unless scaled=False.

    Columns become u p^k w_i with value shifted by -k, are permuted, and
    pick up multiples of other columns small enough to stay dominated.
    """
    p, n = g.ctx.p, g.n
    cols = [list(g.column(i)) for i in range(n)]
    vals = list(g.values)
    for i in range(n):
        k = rng.randint(-2, 2)
        u = rng.choice([1, -1, p + 1, 1 - p])
        cols[i] = [u * Fraction(p) ** k * x for x in cols[i]]
        vals[i] = vals[i].shift(-k)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        if vals[i].is_zero and not vals[j].is_zero:
            continue
        # |lam| vals[j] <= vals[i] keeps the basis diagonal with the same values
        k = 0 if vals[j].is_zero else math.ceil(vals[j].log - vals[i].log) + rng.randint(0, 2)
        lam = rng.choice([1, -1, 3]) * Fraction(p) ** k
        cols[i] = [x + lam * y for x, y in zip(cols[i], cols[j])]
    order = list(range(n))
    rng.shuffle(order)
    g2 = diagonal_seminorm(mat_from_cols([cols[i] for i in order]), [vals[i] for i in order], g.ctx)
    return scale_seminorm(g2, rand_fraction(rng)) if scaled else g2


def _perturbed(rng, g):
    vals = list(g.values)
    i = rng.randrange(g.n)
    if vals[i].is_zero:
        vals[i] = LogValue.finite(rand_fraction(rng))
    elif rng.random() < 0.5 and sum(not v.is_zero for v in vals) > 1:
        vals[i] = ZERO
    else:
        vals[i] = vals[i].shift(rng.choice([-1, 1, Fraction(1, 2)]))
    return diagonal_seminorm(g.basis, vals, g.ctx)


def test_comparisons_agree_with_the_pairwise_oracle():
    from padicbuilding.building import sample_P_x_generators

    rng = random.Random(61)
    seen = {"class": 0, "not class": 0, "equal": 0, "kernel dims": set()}
    for n in range(2, 6):
        for p in (2, 3, 5):
            ctx = PrimeContext(p, n)
            for trial in range(48):
                kind = trial % 4
                g1 = _with_kernel(rng, ctx, trial // 4 % n)
                if kind == 0:
                    g2 = _rebased(rng, g1)
                elif kind == 1:
                    # a stabilizer element of phi(x), transported by the same basis
                    x = rand_point(rng, n)
                    b = rand_invertible(rng, n, p, steps=3)
                    s = sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
                    g1 = compose_with(phi_from_apartment(x, ctx), b)
                    g2 = compose_with(phi_from_apartment(x, ctx), mat_mul(b, s))
                elif kind == 2:
                    g2 = _perturbed(rng, _rebased(rng, g1))
                else:
                    g2 = _with_kernel(rng, ctx, rng.randrange(n))
                if rng.random() < 0.3:
                    g2 = scale_seminorm(g2, rng.randint(-3, 3))
                for a, b in ((g1, g2), (g2, g1), (g1, g1)):
                    same_class = _oracle_class_equals(a, b)
                    assert class_equals(a, b) == same_class
                    assert equals(a, b) == _oracle_equals(a, b)
                    if a.is_norm() and b.is_norm():
                        assert distance_constants(a, b) == (_oracle_distance(a, b),
                                                            _oracle_distance(b, a))
                    seen["class" if same_class else "not class"] += 1
                    seen["equal"] += equals(a, b) and a is not b
                seen["kernel dims"].add(n - sum(not v.is_zero for v in g1.values))
    assert seen["class"] > 900 and seen["not class"] > 300 and seen["equal"] > 50
    assert seen["kernel dims"] == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# One bound and a volume against the two-bound comparisons they replace
# ---------------------------------------------------------------------------

def _two_bound_equals(g1, g2):
    return _log_bound(g1, g2) == 0 and _log_bound(g2, g1) == 0


def _two_bound_class_equals(g1, g2):
    s = _log_bound(g1, g2)
    t = None if s is None else _log_bound(g2, g1)
    return t is not None and s + t == 0


def _vdet_checked(g):
    # the carried v_p(det basis) is the valuation of a fresh determinant
    assert g._vdet == val_k(mat_det(g.basis), g.ctx), (g.basis, g._vdet)
    return g


def _record_calls(monkeypatch, name):
    """Make seminorm.<name> record each call's (args, result) in the returned list."""
    from padicbuilding import seminorm

    calls = []

    def recorded(*args, _inner=getattr(seminorm, name)):
        calls.append((args, _inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(seminorm, name, recorded)
    return calls


def _kernel_mixed(rng, g):
    """The same seminorm after adding multiples of each kernel column to every other column."""
    cols = [list(g.column(i)) for i in range(g.n)]
    for j, v in enumerate(g.values):
        if v.is_zero:
            for i in range(g.n):
                if i != j:
                    cols[i] = [x + rand_fraction(rng) * y for x, y in zip(cols[i], cols[j])]
    return diagonal_seminorm(mat_from_cols(cols), g.values, g.ctx)


def _chain(rng, ctx, dim):
    """A seminorm with a kernel of dimension dim, built through a random constructor chain."""
    n = ctx.n
    kind = rng.randrange(4)
    if kind == 0:
        g = _with_kernel(rng, ctx, dim)
    else:
        piece = sorted(rng.sample(range(1, n + 1), n - dim))
        g = phi_from_apartment(apartment_point(piece, [rand_fraction(rng) for _ in piece]), ctx)
        for _ in range(rng.randint(kind - 1, 2)):
            g = _vdet_checked(compose_with(_vdet_checked(g), rand_invertible(rng, n, ctx.p, steps=3)))
    if rng.random() < 0.3:
        g = scale_seminorm(_vdet_checked(g), rand_fraction(rng))
    if rng.random() < 0.3:
        g = canonical_class(_vdet_checked(g))
    return _vdet_checked(g)


def _dropped(rng, ctx, dim):
    """(g1, g2): phi(x) with the index i left out of the piece, and phi(x), where x_i = 0.

    Both are rebased, and g1 <= g2 with equal volumes, though the ranks differ.
    """
    n = ctx.n
    piece = sorted(rng.sample(range(1, n + 1), n - dim + 1))
    xs = [rand_fraction(rng) for _ in piece]
    i = rng.randrange(len(piece))
    xs[i] = Fraction(0)
    g1 = phi_from_apartment(apartment_point(piece, xs), ctx)
    rest = piece[:i] + piece[i + 1:]
    g2 = phi_from_apartment(apartment_point(rest, xs[:i] + xs[i + 1:]), ctx)
    return _rebased(rng, g2, scaled=rng.random() < 0.5), _rebased(rng, g1, scaled=rng.random() < 0.5)


def test_one_bound_comparisons_agree_with_the_two_bound_oracle(monkeypatch):
    # construction takes mat_det only of the change C from a kernel presented
    # outside echelon form, K = R C; some of those changes have v_p(det C) != 0
    from padicbuilding.building import BuildingPoint, building_point, sample_P_x_generators

    rng = random.Random(71)
    pairs = 0
    kinds = set()
    changes = _record_calls(monkeypatch, "mat_det")
    for n in range(2, 7):
        for p in (2, 3, 5):
            ctx = PrimeContext(p, n, 1 + rng.randrange(3))
            seen = set()
            changes.clear()
            for trial in range(72):
                dim = trial % n
                kind = trial // n % 7
                g1 = _chain(rng, ctx, dim)
                if kind == 0:
                    g2 = _rebased(rng, g1, scaled=rng.random() < 0.5)
                elif kind == 1:
                    m = rand_invertible(rng, n, p, steps=3)
                    g1, g2 = compose_with(g1, m), compose_with(_kernel_mixed(rng, g1), m)
                elif kind == 2:
                    g2 = _perturbed(rng, _rebased(rng, g1))
                elif kind == 3 and dim > 0:
                    g1, g2 = _dropped(rng, ctx, dim)
                elif kind == 4:
                    x = rand_point(rng, n)
                    b = rand_invertible(rng, n, p, steps=3)
                    s = sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
                    g1 = compose_with(phi_from_apartment(x, ctx), b)
                    g2 = compose_with(phi_from_apartment(x, ctx), mat_mul(b, s))
                elif kind == 5:
                    zs = [rand_lscalar(rng, ctx) for _ in range(n)]
                    if all(z.coeffs == (0,) * ctx.e for z in zs):
                        zs[0] = l_pi(ctx)
                    g1 = pullback_from_functional(zs, ctx)
                    g2 = canonical_class(_rebased(rng, g1))
                else:
                    g2 = _chain(rng, ctx, rng.choice([dim, rng.randrange(n)]))
                kinds.add(kind)
                g2 = _vdet_checked(g2)
                for g in (g1, g2):
                    _vdet_checked(g)
                    seen.add(("kernel dim", sum(v.is_zero for v in g.values)))
                for a, b in ((g1, g2), (g2, g1)):
                    same_class, same = _two_bound_class_equals(a, b), _two_bound_equals(a, b)
                    assert class_equals(a, b) == same_class, (a, b)
                    assert equals(a, b) == same, (a, b)
                    assert (BuildingPoint(a) == BuildingPoint(b)) == same_class
                    assert (building_point(a) == building_point(b)) == same_class
                    seen.add(("class", same_class))
                    seen.add(("equal", same))
                    pairs += 1
            if any(val_k(det, ctx) for _, det in changes):
                seen.add("v_p(det C) != 0")
            assert {("class", True), ("class", False), ("equal", True), ("equal", False),
                    "v_p(det C) != 0"} | {("kernel dim", k) for k in range(n)} <= seen, (n, p, seen)
    assert kinds == set(range(7))
    assert pairs >= 2000


def test_comparisons_take_one_bound():
    from padicbuilding import seminorm
    from padicbuilding.building import building_point

    rng = random.Random(72)
    calls = []
    original = seminorm._log_bound

    def counted(g1, g2):
        calls.append((g1, g2))
        return original(g1, g2)

    seminorm._log_bound = counted
    try:
        for _ in range(120):
            n = rng.randint(2, 5)
            ctx = PrimeContext(rng.choice([2, 3, 5]), n)
            g1 = _chain(rng, ctx, rng.randrange(n))
            g2 = _rebased(rng, g1) if rng.random() < 0.5 else _chain(rng, ctx, rng.randrange(n))
            b1, b2 = building_point(g1), building_point(g2)
            for compare in (class_equals, equals):
                calls.clear()
                compare(g1, g2)
                assert calls == [(g1, g2)]
            calls.clear()
            same = b1 == b2
            assert len(calls) == 1 and same == class_equals(g1, g2)
    finally:
        seminorm._log_bound = original


def test_diagonal_seminorm_reduces_exactly_the_kernels_not_in_echelon_form(monkeypatch):
    # construction reduces the kernel columns when they are not in echelon form
    # already, and kernel_of only reads the stored columns; kernels arrive
    # scattered over a random basis, as a canonical basis with its columns
    # permuted, or from the pullback of an L-valued functional (echelon)
    rng = random.Random(73)
    calls = _record_calls(monkeypatch, "reduced_echelon")
    seen = set()
    for n in range(2, 7):
        for trial in range(60):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n)
            if trial % 3 == 2:
                zs = [rand_lscalar(rng, ctx, zero_ok=False)] + [rand_lscalar(rng, ctx) for _ in range(n - 1)]
                calls.clear()
                g = pullback_from_functional(zs, ctx)
                assert calls == []
                assert kernel_of(g) == nullspace([[z.coeffs[j] for z in zs] for j in range(ctx.e)])
            else:
                if trial % 3 == 0:
                    values = _scattered_values(rng, n, trial % n)
                    basis = rand_invertible(rng, n, ctx.p, steps=3)
                else:
                    c, order = canonical_class(_with_kernel(rng, ctx, trial % n)), rng.sample(range(n), n)
                    basis = mat_from_cols([c.column(i) for i in order])
                    values = [c.values[i] for i in order]
                given = [mat_col(basis, i) for i, v in enumerate(values) if v.is_zero]
                want = reduced_echelon(given)
                calls.clear()
                g = diagonal_seminorm(basis, values, ctx)
                assert len(calls) == (0 if want == given else 1)
                seen.add(want == given)
                calls.clear()
                assert kernel_of(g) == want and calls == []
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# The one-pass reduction against the claim-and-descend Fraction reduction
# ---------------------------------------------------------------------------

def _oracle_val(x, p):
    # v_p of a nonzero rational by repeated division
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _oracle_weight(p, cs, x, j):
    # log of |x_j| q^{c_j}; None encodes zero
    if x[j] == 0:
        return None
    return cs[j] - _oracle_val(x[j], p)


def _oracle_reduce_family(coords, companions, cs, p, hits):
    # the Fraction column reduction that claims a dominant coordinate per vector and
    # descends until it finds one; hits counts the updates that keep an earlier vector
    # strictly subdominant at a new pivot
    dim = len(cs)
    claimed = {}
    tops = []
    for k in range(len(coords)):
        r = list(coords[k])
        comp = list(companions[k])
        while True:
            weights = [_oracle_weight(p, cs, r, j) for j in range(dim)]
            finite = [w for w in weights if w is not None]
            if not finite:
                raise DependentInputError("input vectors are linearly dependent")
            g = max(finite)
            dom = [j for j in range(dim) if weights[j] == g]
            dom_claimed = [j for j in dom if j in claimed]
            if not dom_claimed:
                j_star = min(j for j in dom if j not in claimed)
                claimed[j_star] = k
                for i in range(k):
                    wi = _oracle_weight(p, cs, coords[i], j_star)
                    if wi is not None and wi == tops[i]:
                        hits[0] += 1
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


def _oracle_orthogonalize(us, ambient, hits):
    from padicbuilding.arith import mat_inverse

    us = [tuple(Fraction(x) for x in u) for u in us]
    inv = mat_inverse(ambient.basis)
    coords = [list(mat_vec(inv, u)) for u in us]
    cs = [v.log for v in ambient.values]
    _, companions, _ = _oracle_reduce_family(coords, [list(u) for u in us], cs, ambient.ctx.p, hits)
    return [tuple(c) for c in companions]


def _oracle_pullback(zs, ctx, hits):
    from padicbuilding.arith import _kernel_and_pivots, mat_col

    zmat = mat([[zs[i].coeffs[j] for i in range(ctx.n)] for j in range(ctx.e)])
    ker, pivot_cols = _kernel_and_pivots(zmat)
    cs = [Fraction(-j, ctx.e) for j in range(ctx.e)]
    coords = [list(mat_col(zmat, i)) for i in pivot_cols]
    companions = [[Fraction(1 if t == i else 0) for t in range(ctx.n)] for i in pivot_cols]
    _, companions, tops = _oracle_reduce_family(coords, companions, cs, ctx.p, hits)
    cols = [tuple(c) for c in companions] + list(ker)
    values = [LogValue.finite(t) for t in tops] + [ZERO] * len(ker)
    return diagonal_seminorm(mat_from_cols(cols), values, ctx)


def _p_power_entry(rng, p):
    # zero, a small rational, or one carrying p^k for |k| <= 20
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.6:
        return Fraction(rng.choice([1, -1, 2, p + 1]), rng.choice([1, p]))
    return Fraction(rng.choice([1, -1, 3, 1 - p])) * Fraction(p) ** rng.randint(-20, 20)


def _p_power_family(rng, n, m, p):
    return [[_p_power_entry(rng, p) for _ in range(n)] for _ in range(m)]


def _combined(rng, vs, p):
    # vs with one vector replaced by a combination of the others
    t = rng.randrange(len(vs))
    lams = [_p_power_entry(rng, p) for _ in vs]
    combo = [sum(lam * v[c] for s, (lam, v) in enumerate(zip(lams, vs)) if s != t)
             for c in range(len(vs[0]))]
    return vs[:t] + [combo] + vs[t + 1:]


def _finitely_dependent(rng, vs, p):
    # a zero vector, or a multiple of the first vector second: dependent
    # families the Fraction reduction takes to a zero vector in finitely many
    # steps (a general combination may never reach zero, see below)
    vs = [list(v) for v in vs]
    if len(vs) == 1 or rng.random() < 0.4:
        vs[rng.randrange(len(vs))] = [Fraction(0)] * len(vs[0])
    else:
        lam = _p_power_entry(rng, p)
        vs[1] = [lam * x for x in vs[0]]
    return vs


def test_reduction_kernel_matches_the_fraction_reduction():
    rng = random.Random(71)
    combos = random.Random(73)      # the combinations draw apart, so rng makes the same cases
    hits = [0]
    seen = {"ortho": 0, "dependent": 0, "pullback": 0, "pullback kernel": 0}
    for n in range(2, 7):
        for p in (2, 3, 5):
            for e in range(1, 5):
                ctx = PrimeContext(p, n, e)
                for case in range(20):
                    m = 1 + case % n
                    basis = rand_invertible(rng, n, p, steps=rng.randint(0, 3))
                    scale = [Fraction(p) ** rng.choice([0, 0, rng.randint(-20, 20)]) for _ in range(n)]
                    basis = mat_mul(basis, [[scale[i] if i == j else 0 for j in range(n)]
                                            for i in range(n)])
                    values = [LogValue.finite(Fraction(rng.randint(-3 * e, 3 * e), e))
                              for _ in range(n)]
                    ambient = diagonal_seminorm(basis, values, ctx)
                    us = _p_power_family(rng, n, m, p)
                    if case % 6 == 5:
                        us = _finitely_dependent(rng, us, p)
                    if rank(us) < m:
                        with pytest.raises(DependentInputError):
                            _oracle_orthogonalize(us, ambient, [0])
                        with pytest.raises(DependentInputError):
                            orthogonalize(us, ambient)
                        seen["dependent"] += 1
                    else:
                        # the basis itself may differ: the same span, orthogonal for the
                        # ambient norm, and with m = n a presentation of the ambient norm
                        out = orthogonalize(us, ambient)
                        oracle = _oracle_orthogonalize(us, ambient, hits)
                        assert len(out) == m and rank(out + oracle) == m
                        _check_max_property(ambient, out, combos, trials=8)
                        if m == n:
                            values = [evaluate(ambient, u) for u in out]
                            assert equals(diagonal_seminorm(mat_from_cols(out), values, ctx),
                                          ambient)
                        seen["ortho"] += 1
                for case in range(16):
                    # the functional's e x n coefficient matrix, of full or lower rank
                    cols = _p_power_family(rng, n, e, p)
                    if e > 1 and case % 4 == 3:
                        cols = _combined(rng, cols, p)
                    zs = [l_scalar([cols[j][i] for j in range(e)], ctx) for i in range(n)]
                    if all(c == 0 for z in zs for c in z.coeffs):
                        continue
                    g = pullback_from_functional(zs, ctx)
                    assert equals(g, _oracle_pullback(zs, ctx, hits))
                    seen["pullback"] += 1
                    seen["pullback kernel"] += not g.is_norm()
    assert seen["ortho"] + seen["dependent"] + seen["pullback"] >= 2000
    assert seen["dependent"] > 150 and seen["pullback kernel"] > 300
    assert hits[0] > 0, seen


def test_orthogonalize_refuses_dependent_families_that_never_reduce_to_zero():
    # the third vector is -64 u_1 - 128 u_2; a claim-and-descend reduction
    # subtracts the first two from it in turn forever, each step only
    # lowering its norm, while clearing it at the two earlier pivots leaves zero
    ctx = PrimeContext(2, 3, 4)
    us = [(1, 0, Fraction(-1, 128)), (Fraction(-129, 256), 0, Fraction(-1, 256)), (Fraction(1, 2), 0, 1)]
    ambient = diagonal_seminorm([[1, -2, 0], [0, 1, 0], [0, 1, 1]],
                                [LogValue.finite(Fraction(t, 4)) for t in (9, 7, -3)], ctx)
    assert rank(us) == 2
    with pytest.raises(DependentInputError):
        orthogonalize(us, ambient)
    rng = random.Random(72)
    for _ in range(200):
        n = rng.randint(2, 5)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        us = _combined(rng, _p_power_family(rng, n, rng.randint(2, n), ctx.p), ctx.p)
        with pytest.raises(DependentInputError):
            orthogonalize(us, rand_norm(rng, ctx, steps=2))


def _hadamard_square(rows):
    # the square of the Hadamard bound: no minor of these integer rows exceeds its root
    return math.prod(sum(x * x for x in row) for row in rows)


def _within(entries, bound):
    return all(x.numerator ** 2 <= bound and x.denominator ** 2 <= bound for x in entries)


def test_reduction_entries_stay_within_the_hadamard_bound_at_n_24(capsys):
    # every entry is a ratio of minors of the input, so sizes stay polynomial in n
    rng = random.Random(74)
    n, ctx = 24, PrimeContext(3, 24)
    us = [[rng.randrange(-32, 32) for _ in range(n)] for _ in range(n)]
    ambient = diagonal_seminorm(identity(n), [LogValue.finite(rng.randint(-4, 4)) for _ in range(n)],
                                ctx)
    out = orthogonalize(us, ambient)
    assert len(out) == n and _within((x for u in out for x in u), _hadamard_square(us))
    _check_max_property(ambient, out, rng, trials=10)

    ctx = PrimeContext(3, n, n)
    zs = [l_scalar([rng.randrange(-32, 32) for _ in range(n)], ctx) for _ in range(n)]
    g = pullback_from_functional(zs, ctx)
    rows = [[*z.coeffs, *(int(t == i) for t in range(n))] for i, z in enumerate(zs)]
    assert _within((x for row in g.basis for x in row), _hadamard_square(rows))
    cols = [g.column(i) for i in range(n)]
    assert [pullback_value(zs, c, ctx) for c in cols] == list(g.values)
    for _ in range(10):
        lams = [rand_fraction(rng) for _ in cols]
        v = [sum(lam * c[t] for lam, c in zip(lams, cols)) for t in range(n)]
        assert pullback_value(zs, v, ctx) == max(abs_k(lam, ctx) * val
                                                 for lam, val in zip(lams, g.values))

    argv = ["ortho", "--p", "3", "--n", str(n), "--us", json.dumps(serialize.matrix_to_doc(us)),
            "--ambient", json.dumps(serialize.seminorm_to_doc(ambient))]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["vectors"] == serialize.matrix_to_doc(out)


# ---------------------------------------------------------------------------
# The pullback's closed forms against the inversion they replace
# ---------------------------------------------------------------------------

def _inverting_pullback(zs, ctx):
    """The pullback built the way the closed forms replace: the kernel and pivot columns of
    the coefficient matrix, the reduction of the pivot rows alone, and diagonal_seminorm,
    which inverts the basis and takes v_p(det basis) from that elimination."""
    from padicbuilding.arith import _int_val, _integer_rows, _kernel_and_pivots
    from padicbuilding.seminorm import _reduce_family

    zrows = [z.coeffs for z in zs]
    ker, pivot_cols = _kernel_and_pivots(list(zip(*zrows)))
    e, p = ctx.e, ctx.p
    rows, dens = _integer_rows([list(zrows[i]) + [int(t == i) for t in range(ctx.n)]
                                for i in pivot_cols])
    hits = _reduce_family(rows, dens, [Fraction(-j, e) for j in range(e)], p)
    cols, values = [], []
    for row, den, (_, top) in zip(rows, dens, hits):
        g = math.gcd(*row[e:])
        cols.append([x // g for x in row[e:]])
        values.append(LogValue(top + _int_val(g, p) - _int_val(den, p)))
    return diagonal_seminorm(mat_from_cols(cols + list(ker)), values + [ZERO] * len(ker), ctx)


def _assert_same_presentation(g, want):
    # every field, the carried ones too, and each basis entry a Fraction as mat makes it
    assert (g.basis, g.values, g._inv, g._vdet) == (want.basis, want.values, want._inv, want._vdet)
    assert all(type(x) is Fraction for row in g.basis for x in row)


def _functional_of_rank(rng, ctx, r):
    # n scalars spanning at most r dimensions over K: r base scalars at random places, and
    # zeros or combinations of them elsewhere; entries may be zero or carry p^k, |k| <= 20
    while True:
        base = [[_p_power_entry(rng, ctx.p) for _ in range(ctx.e)] for _ in range(r)]
        rows = [[Fraction(0)] * ctx.e if rng.random() < 0.2 else
                [sum(lam * b[j] for lam, b in zip(lams, base)) for j in range(ctx.e)]
                for lams in ([rng.choice([0, 1, -1, 2, ctx.p]) for _ in base]
                             for _ in range(ctx.n - r))] + base
        rng.shuffle(rows)
        if any(map(any, rows)):
            return [l_scalar(row, ctx) for row in rows]


def test_pullback_closed_forms_match_the_inverting_construction():
    # basis, values, the live inverse rows and v_p(det basis) equal those of the
    # construction that inverts the basis, on every rank of functional
    rng = random.Random(75)
    cases = 0
    for n in range(2, 8):
        for e in range(1, 5):
            for p in (2, 3, 5, 7):
                ctx = PrimeContext(p, n, e)
                ranks = set()
                for case in range(32):
                    zs = _functional_of_rank(rng, ctx, 1 + case % min(n, e))
                    g = pullback_from_functional(zs, ctx)
                    _assert_same_presentation(g, _inverting_pullback(zs, ctx))
                    ranks.add(n - len(kernel_of(g)))
                    cases += 1
                assert ranks == set(range(1, min(n, e) + 1)), (n, e, p, ranks)
    assert cases >= 3000


@pytest.mark.parametrize("n", [16, 24])
def test_pullback_closed_forms_match_the_inverting_construction_when_dense(n):
    rng = random.Random(76 + n)
    for p in (2, 3):
        ctx = PrimeContext(p, n, n)
        zs = [l_scalar([Fraction(rng.randrange(-32, 32), rng.randrange(1, 64)) for _ in range(n)],
                       ctx) for _ in range(n)]
        g = pullback_from_functional(zs, ctx)
        assert g.is_norm()
        _assert_same_presentation(g, _inverting_pullback(zs, ctx))


def _check_pullback(zs, ctx, rng):
    g = pullback_from_functional(zs, ctx)
    _assert_same_presentation(g, _inverting_pullback(zs, ctx))
    assert g._inv == _live_inverse(g)
    for _ in range(10):
        v = [rand_fraction(rng) for _ in range(ctx.n)]
        assert evaluate(g, v) == pullback_value(zs, v, ctx)
    return g


def test_pullback_turns_zero_entries_into_unit_kernel_columns():
    # a zero entry's row clears to zero at once, so its unit vector is a kernel column
    rng = random.Random(77)
    ctx = PrimeContext(3, 5, 2)
    zs = [l_scalar([0], ctx), l_scalar([1, 2], ctx), l_scalar([0, 0], ctx),
          l_scalar([Fraction(1, 3), 9], ctx), l_scalar([], ctx)]
    g = _check_pullback(zs, ctx, rng)
    assert kernel_of(g) == [tuple(Fraction(int(i == j)) for j in range(5)) for i in (0, 2, 4)]
    assert [v.is_zero for v in g.values] == [False, False, True, True, True]


def test_pullback_of_a_rational_functional_has_a_hyperplane_kernel():
    # e = 1: one live column, and the n - 1 kernel vectors span the hyperplane z = 0
    rng = random.Random(78)
    for n in range(2, 8):
        for p in (2, 3, 5):
            ctx = PrimeContext(p, n)
            z = [_p_power_entry(rng, p) for _ in range(n)]
            if not any(z):
                z[rng.randrange(n)] = Fraction(p)
            g = _check_pullback([l_from_k(t, ctx) for t in z], ctx, rng)
            assert sum(v.is_zero for v in g.values) == n - 1
            assert kernel_of(g) == nullspace([z])
            assert g._inv[0][1:] == (None,) * (n - 1)


def test_pullback_of_full_rank_has_no_kernel():
    # r = n: every row keeps a pivot, so no kernel reduction and a full live inverse
    rng = random.Random(79)
    for n in range(2, 7):
        for e in (n, n + 1):
            ctx = PrimeContext(rng.choice([2, 3, 5, 7]), n, e)
            while True:
                zs = [l_scalar([_p_power_entry(rng, ctx.p) for _ in range(e)], ctx) for _ in range(n)]
                if rank([z.coeffs for z in zs]) == n:
                    break
            g = _check_pullback(zs, ctx, rng)
            assert g.is_norm() and kernel_of(g) == [] and None not in g._inv[0]


@pytest.mark.parametrize("us", [
    [(1, 2, 0), (2, 4, 0), (0, 1, 1)],
    [(0, 0, 0), (1, 0, 0)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (Fraction(1, 3), 3, 0, 0), (0, 0, 1, 0)],
], ids=["multiple", "zero-first", "combination"])
def test_orthogonalize_refuses_a_dependent_vector_before_an_independent_one(us):
    # the pass goes on past the dependent vector; the refusal comes after it, as before
    ambient = gauge_norm(PrimeContext(3, len(us[0])))
    with pytest.raises(DependentInputError, match="^input vectors are linearly dependent$"):
        orthogonalize(us, ambient)


# ---------------------------------------------------------------------------
# Every constructor carries the live rows of the inverse basis, and only those
# ---------------------------------------------------------------------------

_CONSTRUCTORS = ("diagonal_seminorm", "phi_from_apartment", "compose_with", "scale_seminorm",
                 "canonical_class", "pullback_from_functional", "monomial_point")


def _constructed(rng, kind, ctx, zeros):
    """A seminorm with about `zeros` zero values, scattered, made last by the named constructor."""
    n = ctx.n
    if kind == "phi_from_apartment":
        piece = sorted(rng.sample(range(1, n + 1), n - zeros))
        return phi_from_apartment(apartment_point(piece, [rand_fraction(rng) for _ in piece]), ctx)
    if kind == "pullback_from_functional":
        # n - zeros scalars of L, independent over K when e = n - zeros, and their combinations
        ctx = PrimeContext(ctx.p, n, n - zeros)
        ws = [rand_lscalar(rng, ctx, zero_ok=False) for _ in range(n - zeros)]
        zs = ws + [reduce(l_add, (l_scale(rng.randint(-3, 3), w) for w in ws)) for _ in range(zeros)]
        rng.shuffle(zs)
        return pullback_from_functional(zs, ctx)
    basis = rand_invertible(rng, n, ctx.p, rng.randint(1, 4))
    g = _with_zeros(rng, basis, zeros, ctx)
    if kind == "compose_with":
        return compose_with(g, rand_invertible(rng, n, ctx.p, steps=3))
    if kind == "scale_seminorm":
        return scale_seminorm(g, rand_fraction(rng))
    if kind == "canonical_class":
        return canonical_class(g)
    if kind == "monomial_point":
        return monomial_point(basis, g.values, ctx).seminorm
    return g


def test_every_constructor_carries_only_the_live_rows_of_the_inverse(monkeypatch):
    # row i of the carried N / d is None exactly where value i is zero, and
    # the other rows are those of basis^-1 over one denominator in lowest terms;
    # the kernel columns are stored in echelon form, and many constructions
    # were given them outside it (construction reduced them)
    rng = random.Random(93)
    made = dict.fromkeys(_CONSTRUCTORS, 0)
    scattered = 0
    reductions = _record_calls(monkeypatch, "reduced_echelon")
    for n in range(2, 9):
        zero_counts = set()
        for k in range(308):
            kind = _CONSTRUCTORS[k % len(_CONSTRUCTORS)]
            reductions.clear()
            g = _constructed(rng, kind, PrimeContext(rng.choice([2, 3, 5, 7]), n), k // 7 % n)
            scattered += bool(reductions)
            assert g._inv == _live_inverse(g), (kind, g.basis, g.values)
            assert all(type(x) is int for row in g._inv[0] if row is not None for x in row)
            assert reduced_echelon(kernel_of(g)) == kernel_of(g), (kind, g.basis, g.values)
            zero_counts.add(sum(v.is_zero for v in g.values))
            made[kind] += 1
        assert zero_counts == set(range(n)), (n, zero_counts)
    assert min(made.values()) >= 300 and sum(made.values()) >= 2000 and scattered > 500


def test_construction_puts_the_kernel_columns_in_echelon_form_in_place():
    # the zero-value columns become the reduced echelon basis of their span, at
    # the same positions, and nothing else moves: the live columns, the live
    # rows of the inverse and the function on V are those of the input
    rng = random.Random(94)
    cases = reduced = 0
    for n in range(2, 7):
        for p in (2, 3, 5):
            ctx = PrimeContext(p, n)
            zero_counts = set()
            for k in range(140):
                basis = rand_invertible(rng, n, p, rng.randint(1, 4))
                values = _scattered_values(rng, n, k % n)
                g = diagonal_seminorm(basis, values, ctx)
                zeros = [i for i, v in enumerate(values) if v.is_zero]
                given = [mat_col(basis, i) for i in zeros]
                echelon = reduced_echelon(given)
                reduced += echelon != given
                assert [g.column(i) for i in zeros] == echelon == kernel_of(g)
                assert all(g.column(i) == mat_col(basis, i) for i in range(n) if i not in zeros)
                assert g._inv == _live_inverse(g, mat_inverse(basis))
                assert g._vdet == val_k(mat_det(g.basis), ctx)
                for v in [_p_vector(rng, n, p) for _ in range(3)] + [mat_col(basis, rng.randrange(n))]:
                    assert evaluate(g, v) == _reference_evaluate(g, v, basis)
                zero_counts.add(len(zeros))
                cases += 1
            assert zero_counts == set(range(n))
    assert cases >= 2000 and reduced > 1000
    # a seminorm no longer depends on how its kernel was presented
    half = diagonal_seminorm([[1, 3], [0, 2]], (ONE, ZERO), CTX2)
    assert half == diagonal_seminorm([[1, 6], [0, 4]], (ONE, ZERO), CTX2)
    assert hash(half) == hash(diagonal_seminorm([[1, 6], [0, 4]], (ONE, ZERO), CTX2))
    assert half.basis == mat([[1, 1], [0, Fraction(2, 3)]])
    assert phi_inverse(diagonal_seminorm([[1, 0], [0, 2]], (ONE, ZERO), CTX2)) == apartment_point([1], [0])


# ---------------------------------------------------------------------------
# canonical_class on canonical input, and r o j
# ---------------------------------------------------------------------------

def _parts(g):
    return g.basis, g.values, g._inv, g._vdet


def test_canonical_class_of_a_canonical_seminorm_is_itself(monkeypatch):
    # canonical_class gives back the basis, values and carried inverse of a
    # canonical seminorm, also of a copy rebuilt by diagonal_seminorm; kernels
    # arrive scattered over a random basis, so outside echelon form, and
    # construction reduces them; r(j(b)) is b itself, and what j remembers
    # stays out of equality and hash
    from padicbuilding import building_point, j_section, r_reduce_monomial

    rng = random.Random(91)
    cases = scattered = 0
    reductions = _record_calls(monkeypatch, "reduced_echelon")
    for n in range(2, 7):
        zero_counts = set()
        for k in range(600):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n, 1 + k % 2)
            zeros = k % n
            reductions.clear()
            g = _with_zeros(rng, rand_invertible(rng, n, ctx.p, rng.randint(1, 4)), zeros, ctx)
            scattered += bool(reductions)
            zero_counts.add(zeros)
            c = canonical_class(g)
            assert _parts(canonical_class(c)) == _parts(c)
            rebuilt = diagonal_seminorm(c.basis, c.values, ctx)
            assert _parts(canonical_class(rebuilt)) == _parts(c), (g.basis, g.values)
            b = building_point(g)
            j = j_section(b)
            assert r_reduce_monomial(j) is b
            plain = monomial_point(b.seminorm.basis, b.seminorm.values, ctx)
            assert j == plain and hash(j) == hash(plain)
            cases += 1
        assert zero_counts == set(range(n))
    assert cases >= 3000 and scattered > 1000


def test_canonical_class_regauges_a_scaled_or_translated_canonical_seminorm():
    # a scaled or translated canonical seminorm is no longer gauged, and
    # canonical_class gives back a gauged representative of its class
    rng = random.Random(92)
    for n in range(2, 6):
        for _ in range(40):
            ctx = PrimeContext(rng.choice([2, 3, 5]), n)
            c = canonical_class(rand_seminorm(rng, ctx, steps=rng.randint(1, 3)))
            for delta in (1, Fraction(-1, 2), Fraction(1, 3)):
                assert _parts(canonical_class(scale_seminorm(c, delta))) == _parts(c)
            moved = compose_with(c, rand_invertible(rng, n, ctx.p, steps=2))
            regauged = canonical_class(moved)
            assert regauged.values[0] == ONE and class_equals(regauged, moved)
    c = canonical_class(diagonal_seminorm(identity(2), (ONE, LogValue.finite(-1)), CTX2))
    assert canonical_class(scale_seminorm(c, 1)).values == (ONE, LogValue.finite(-1))


# ---------------------------------------------------------------------------
# evaluate on integer logs against the Fraction loop it replaces
# ---------------------------------------------------------------------------

def _fraction_loop_evaluate(g, v):
    # the maximum taken on Fraction logs: one subtraction and one comparison per live row
    from padicbuilding.arith import _int_val, _integer_rows

    (w,), (den,) = _integer_rows([[Fraction(x) for x in v]])
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
        return ZERO
    return LogValue.finite(best + _int_val(d, p) + _int_val(den, p))


def _evaluate_cases(rng, g):
    # Fraction, int and str entries, the zero vector and a kernel vector
    n = g.n
    v = _p_vector(rng, n, g.ctx.p)
    ker = [g.column(i) for i in range(n) if g.values[i].is_zero]
    vs = [v, tuple(rng.randint(-40, 40) * g.ctx.p ** rng.randint(0, 3) for _ in range(n)),
          tuple(str(x) for x in _p_vector(rng, n, g.ctx.p)), (0,) * n]
    if ker:
        vs.append(vec_scale(rand_fraction(rng, 6, 6) or 1, rng.choice(ker)))
    return vs


def test_evaluate_matches_the_fraction_loop():
    rng = random.Random(93)
    pairs, kernels, dens, kinds = 0, 0, set(), set()
    for n in range(2, 7):
        for k in range(220):
            e = (1, 2, 3, 4)[k % 4]
            ctx = PrimeContext(rng.choice([2, 3, 5]), n, e)
            if k % 4 == 0:
                g = rand_seminorm(rng, ctx, steps=rng.randint(1, 4))
            else:
                zs = [rand_lscalar(rng, ctx, zero_ok=False)] + [rand_lscalar(rng, ctx) for _ in range(n - 1)]
                g = pullback_from_functional(zs, ctx)
            if k % 3 == 0:
                g = scale_seminorm(g, Fraction(1, 3))
            dens.update(v.log.denominator for v in g.values if not v.is_zero)
            kernels += not g.is_norm()
            for v in _evaluate_cases(rng, g):
                want = _fraction_loop_evaluate(g, v)
                assert evaluate(g, v) == want, (g, v)
                assert want == _reference_evaluate(g, [Fraction(x) for x in v])
                kinds.add("zero" if want.is_zero else type(v[0]).__name__)
                pairs += 1
    assert pairs >= 5000 and kernels > 300 and {2, 3, 4} <= dens
    assert kinds == {"zero", "Fraction", "int", "str"}
