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
    kernel_of,
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
from padicbuilding.arith import ZERO_VALUE, identity, mat, mat_from_cols, mat_mul, nullspace, val_k, vec
from padicbuilding.errors import DomainError, SingularMatrixError, ZeroFunctionalError
from padicbuilding.seminorm import diagonal_seminorm, scale_seminorm
from padicbuilding.serialize import building_point_to_doc

from randgen import (
    fraction_mul,
    rand_fraction,
    rand_invertible,
    rand_lscalar,
    rand_poly,
    rand_seminorm,
    rand_values,
    reference_product,
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


def test_polynomial_and_alpha_refuse_bad_exponents_and_variable_counts():
    with pytest.raises(DomainError, match=r"^bad multi-index \(1, -1\)$"):
        polynomial([((1, -1), 1)], 2)
    with pytest.raises(DomainError, match=r"^bad multi-index \(1,\)$"):
        polynomial([((1,), 1)], 2)
    with pytest.raises(DomainError, match="^variable count mismatch$"):
        alpha_evaluate(gauss_point(CTX2), polynomial([((1, 0, 0), 1)], 3))


def test_alpha_degree_cap():
    gp = gauss_point(CTX2)
    f = polynomial([((9, 0), 1)], 2)
    with pytest.raises(DomainError):
        alpha_evaluate(gp, f)


def test_check_multiplicative_degree_cap():
    # the factors' degrees may sum to twice alpha_evaluate's cap and no more;
    # a zero factor counts as degree 0
    gp, zero = gauss_point(CTX2), polynomial([], 2)

    def power(i, k):
        return polynomial([((k * (i == 0), k * (i == 1)), 1)], 2)

    assert check_multiplicative(gp, power(0, 8), power(1, 8))
    assert check_multiplicative(gp, power(0, 16), zero)
    for f, g in ((power(0, 9), power(1, 8)), (power(0, 8), power(0, 9)),
                 (power(1, 17), zero), (power(0, 17), power(1, 0))):
        with pytest.raises(DomainError, match="^degree sum 17 exceeds cap 16$"):
            check_multiplicative(gp, f, g)


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
    assert alpha_evaluate(p1, polynomial([((2, 0), 1)], 2)) == LogValue.finite(2)


def test_check_multiplicative_refuses_wrong_variable_counts_before_multiplying(monkeypatch):
    import padicbuilding.berkovich as berkovich

    def no_rewrite(*args):
        raise AssertionError("a polynomial was rewritten before the variable counts were checked")

    monkeypatch.setattr(berkovich, "_rewrite_in_basis", no_rewrite)
    gp = gauss_point(CTX2)
    v2 = polynomial([((1, 0), 1)], 2)
    v3 = polynomial([((0, 1, 1), 2)], 3)
    for f, g in ((v3, v3), (v2, v3), (v3, v2)):
        with pytest.raises(DomainError):
            check_multiplicative(gp, f, g)


def test_monomial_point_refuses_a_singular_basis_and_all_zero_radii():
    with pytest.raises(SingularMatrixError, match="^basis is singular$"):
        monomial_point(mat([[1, 2], [2, 4]]), (ONE, ONE), CTX2)
    with pytest.raises(DomainError, match="^seminorm must not vanish identically$"):
        monomial_point(identity(2), (ZERO, ZERO), CTX2)


def test_a_monomial_point_is_its_seminorm():
    b = building_point(rand_seminorm(random.Random(5), CTX2))
    assert j_section(b).seminorm is b.seminorm
    rng = random.Random(6)
    basis, radii = rand_invertible(rng, 3, 3), rand_values(rng, 3)
    p1, p2 = (monomial_point(basis, radii, PrimeContext(3, 3)) for _ in range(2))
    assert p1 is not p2 and p1 == p2 and hash(p1) == hash(p2)
    assert (p1.basis, p1.radii, p1.ctx) == (mat(basis), tuple(radii), PrimeContext(3, 3))


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


def test_monomial_class_equals_does_not_depend_on_the_basis_scale():
    # the Gauss point presented by the basis p*I with radii q^-1
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            ctx = PrimeContext(p, n)
            gp = gauss_point(ctx)
            scaled = monomial_point(mat([[p * x for x in row] for row in identity(n)]), (LogValue.finite(-1),) * n, ctx)
            assert monomial_class_equals(gp, scaled) and monomial_class_equals(scaled, gp)
            assert r_reduce_monomial(gp) == r_reduce_monomial(scaled)


def test_rebased_monomial_points_stay_equal():
    # w_i -> p^k_i w_i with radii shifted by -k_i presents the same point
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        pt = monomial_point(rand_invertible(rng, n, ctx.p), rand_values(rng, n), ctx)
        ks = [rng.randint(-3, 3) for _ in range(n)]
        basis = mat([[x * Fraction(ctx.p) ** k for x, k in zip(row, ks)] for row in pt.basis])
        rebased = monomial_point(basis, tuple(r.shift(-k) for r, k in zip(pt.radii, ks)), ctx)
        shift = rng.randint(-2, 2)
        scaled = monomial_point(pt.basis, tuple(r.shift(shift) for r in pt.radii), ctx)
        assert monomial_class_equals(pt, rebased) and monomial_class_equals(rebased, scaled)
        for _ in range(5):
            f = rand_poly(rng, n)
            assert alpha_evaluate(pt, f) == alpha_evaluate(rebased, f)
        if sum(not r.is_zero for r in pt.radii) > 1:
            i = next(i for i, r in enumerate(pt.radii) if not r.is_zero)
            radii = list(pt.radii)
            radii[i] = radii[i].shift(1)
            assert not monomial_class_equals(pt, monomial_point(pt.basis, radii, ctx))


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


def _r_reduce_rational_oracle(z, ctx):
    # the direct construction r_reduce_rational used before it went through the
    # L-point pullback: a unit column at the first nonzero entry, valued |z_lead|,
    # followed by a basis of the hyperplane z = 0, valued zero; entries are read
    # as every library entry point reads a rational
    z = list(vec(z))
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


def _rational_entry(rng, p):
    kind = rng.random()
    if kind < 0.25:
        return Fraction(0)
    if kind < 0.5:
        return rng.choice([1, -1]) * Fraction(p) ** rng.randint(-3, 3)
    return rand_fraction(rng, 10, 6)


def test_r_reduce_rational_matches_the_direct_construction():
    rng = random.Random(4242)
    cases = 0
    while cases < 2000:
        ctx = PrimeContext(rng.choice([2, 3, 5, 7]), rng.randint(2, 6), rng.randint(1, 3))
        z = [_rational_entry(rng, ctx.p) for _ in range(ctx.n)]
        if all(t == 0 for t in z):
            continue
        got, want = r_reduce_rational(z, ctx), _r_reduce_rational_oracle(z, ctx)
        assert building_point_to_doc(got) == building_point_to_doc(want)
        assert got.seminorm == want.seminorm and got.seminorm._inv == want.seminorm._inv
        cases += 1


@pytest.mark.parametrize("z", [
    [1, 2, 3], [1], [0, 0], ["zap", 1], [None, 1], ["1/0", 1], [1, "zap", 3],
])
def test_r_reduce_rational_errors_match_the_direct_construction(z):
    with pytest.raises(Exception) as want:
        _r_reduce_rational_oracle(z, CTX2)
    with pytest.raises(want.type) as got:
        r_reduce_rational(z, CTX2)
    assert type(got.value) is want.type and str(got.value) == str(want.value)


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


def test_l_functional_refuses_a_scalar_built_at_another_e():
    ctx1, ctx3 = PrimeContext(3, 2), PrimeContext(3, 2, 3)
    for zs, ctx in (([l_pi(ctx3), l_from_k(1, ctx3)], ctx1),
                    ([l_from_k(1, ctx1), l_from_k(2, ctx1)], ctx3)):
        with pytest.raises(DomainError, match=f"^every scalar needs e = {ctx.e} coefficients$"):
            l_functional(zs, ctx)


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
    forms = [{tuple(int(k == j) for k in range(n)): binv[j][i] for j in range(n) if binv[j][i]}
             for i in range(n)]
    out = {}
    for nu, a in f.terms:
        term = {(0,) * n: a}
        for i, k in enumerate(nu):
            for _ in range(k):
                term = fraction_mul(term, forms[i])
        for mu, c in term.items():
            out[mu] = out.get(mu, 0) + c
    best = ZERO
    for mu, c in out.items():
        if c == 0:
            continue
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


def _monomial_of_degree(rng, n, degree):
    nu = [0] * n
    for _ in range(degree):
        nu[rng.randrange(n)] += 1
    return tuple(nu)


def _prefix_sharing_poly(rng, n, degree, count, p):
    # a term of the given degree and neighbours that agree with it on a
    # prefix of the exponents, so the sorted terms share prefixes; some
    # neighbours carry p^2 or p^3, so an upper bound that assumes v(c) = 0
    # can make them look larger than they are
    head = _monomial_of_degree(rng, n, degree)
    terms = {head: rand_fraction(rng) or 1}
    for j in rng.sample(range(n), count):
        nu = head[:j] + _monomial_of_degree(rng, n - j, rng.randint(0, degree - sum(head[:j])))
        terms.setdefault(nu, (rand_fraction(rng) or 1) * p ** rng.choice([0, 2, 3]))
    return polynomial(terms, n)


def test_alpha_evaluate_matches_fraction_rewrite_up_to_the_degree_cap():
    # pure powers v_i^deg fill one packed place up to deg, so a packing base
    # of deg rather than deg + 1 carries.  Every count of zero radii from 0
    # to n - 1 occurs at each n.  The odd powers have an integer coefficient
    # divisible by p^2 or p^3, so every coefficient of their rewrite is, the
    # maximising one included: alpha must read v(c), not its bound v(c) >= 0.
    rng = random.Random(67)
    powers = 0
    zero_counts = set()
    for n in (2, 3, 4, 5, 6):
        for degree in (7, 8):
            for k in range(8):
                ctx = PrimeContext(rng.choice([2, 3, 5]), n)
                radii = list(rand_values(rng, n, allow_zero=False))
                for j in rng.sample(range(n), k % n):
                    radii[j] = ZERO
                zero_counts.add((n, k % n))
                p = monomial_point(rand_invertible(rng, n, ctx.p, steps=rng.randint(2, 8)), radii, ctx)
                coefficients = [rng.randint(1, 9) * ctx.p ** rng.randint(2, 3) if i % 2
                                else rand_fraction(rng) or 1 for i in range(n)]
                polys = [polynomial([(tuple(degree * (j == i) for j in range(n)), c)], n)
                         for i, c in enumerate(coefficients)]
                powers += len(polys)
                polys += [_prefix_sharing_poly(rng, n, degree, min(n, 3), ctx.p) for _ in range(3)]
                for f in polys:
                    assert f.degree() == degree
                    assert alpha_evaluate(p, f) == _reference_alpha(p, f), (p, f)
    assert zero_counts == {(n, z) for n in (2, 3, 4, 5, 6) for z in range(n)}
    assert powers == 2 * 8 * (2 + 3 + 4 + 5 + 6)


def test_check_multiplicative_at_the_packing_edges():
    # zero, constant and dense factors, and pure powers v_i^a v_i^b whose
    # product fills one packed place: a base below deg f + deg g + 1 carries
    rng = random.Random(71)
    oracles = 0
    for case in range(400):
        kind = case % 4
        n = rng.randint(2, 4) if kind < 3 else rng.randint(2, 3)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        p = monomial_point(rand_invertible(rng, n, ctx.p, steps=rng.randint(1, 3)),
                           rand_values(rng, n), ctx)
        if kind == 0:
            f, g = rand_poly(rng, n, max_deg=rng.randint(0, 4), max_terms=4), polynomial([], n)
        elif kind == 1:
            f = rand_poly(rng, n, max_deg=rng.randint(0, 4), max_terms=4)
            g = polynomial([((0,) * n, Fraction(rng.randint(1, 9), rng.choice([1, ctx.p, 4])))], n)
        elif kind == 2:
            f, g = (rand_poly(rng, n, max_deg=rng.randint(1, 4), max_terms=5) for _ in range(2))
        else:
            i, total = rng.randrange(n), 2 + case // 4 % 15
            a = rng.randint(1, total - 1)
            f, g = (polynomial([(tuple(k * (j == i) for j in range(n)), rand_fraction(rng) or 1)], n)
                    for k in (a, total - a))
        for a, b in ((f, g), (g, f)):
            assert check_multiplicative(p, a, b), (p, a, b)
        product = reference_product(f, g)
        if product.degree() <= 8:
            oracles += 1
            assert alpha_evaluate(p, product) == alpha_evaluate(p, f) * alpha_evaluate(p, g)
    assert oracles >= 340


def test_evaluating_a_built_point_eliminates_nothing_and_rewrites_each_factor_once(monkeypatch):
    # the point carries its seminorm's inverse: no elimination runs after it is
    # built; building it inverts the basis, and when the kernel columns are not
    # in echelon form, reduces them and takes the determinant of the change
    import padicbuilding.arith as arith
    import padicbuilding.berkovich as berkovich

    calls = []
    for module, name in ((arith, "_eliminate"), (berkovich, "_rewrite_in_basis")):
        def counted(*args, _name=name, _inner=getattr(module, name), **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rng = random.Random(73)
    reduced = set()
    for _ in range(20):
        basis, radii = rand_invertible(rng, 3, 2), rand_values(rng, 3)
        p = monomial_point(basis, radii, PrimeContext(2, 3))
        kernel = [tuple(row[i] for row in basis) for i, r in enumerate(radii) if r.is_zero]
        needs_reducing = kernel != kernel_of(p.seminorm)
        assert calls == ["_eliminate"] * (3 if needs_reducing else 1)
        reduced.add(needs_reducing)
        calls.clear()
        f, g = rand_poly(rng, 3), rand_poly(rng, 3)
        check_multiplicative(p, f, g)
        assert calls == ["_rewrite_in_basis", "_rewrite_in_basis"]
        calls.clear()
        alpha_evaluate(p, f)
        assert calls == ["_rewrite_in_basis"]
        calls.clear()
    assert reduced == {True, False}


def test_check_multiplicative_compares_the_fraction_rewrite_alphas(monkeypatch):
    # the answer is True on every input, so check the three values it
    # compares instead: alpha(f g), alpha(f) and alpha(g), in that order,
    # at points with every count of zero radii from 0 to n - 1
    import padicbuilding.berkovich as berkovich

    alphas = []

    def recorded(*args, _inner=berkovich._alpha):
        alphas.append(_inner(*args))
        return alphas[-1]

    monkeypatch.setattr(berkovich, "_alpha", recorded)
    rng = random.Random(79)
    zero_counts, finite = set(), 0
    for case in range(120):
        n = 2 + case % 3
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        radii = list(rand_values(rng, n, allow_zero=False))
        for j in rng.sample(range(n), case // 3 % n):
            radii[j] = ZERO
        zero_counts.add((n, case // 3 % n))
        p = monomial_point(rand_invertible(rng, n, ctx.p, steps=rng.randint(1, 3)), radii, ctx)
        f, g = (rand_poly(rng, n, max_deg=3, max_terms=4) for _ in range(2))
        alphas.clear()
        assert check_multiplicative(p, f, g)
        expected = [_reference_alpha(p, h) for h in (reference_product(f, g), f, g)]
        assert alphas == expected, (p, f, g)
        finite += any(r.is_zero for r in radii) and not expected[0].is_zero
    assert zero_counts == {(n, z) for n in (2, 3, 4) for z in range(n)} and finite >= 40


def test_rational_and_l_point_reductions_agree_across_e():
    z = [3, 4]
    ramified = l_functional([l_from_k(t, CTX22) for t in z], CTX22)
    assert r_reduce_rational(z, CTX2) == r_reduce_L_point(ramified)


def test_polynomial_rejects_fractional_exponents():
    for nu in ((1.5, 0), (Fraction(1, 2), 1), (0, Fraction(7, 3))):
        with pytest.raises(DomainError, match="not an integer"):
            polynomial([(nu, 1)], 2)
    integral = polynomial([((Fraction(2), Fraction(4, 2)), 3)], 2)
    assert integral == polynomial([((2, 2), 3)], 2)
    assert all(type(k) is int for k in integral.terms[0][0])


def test_monomial_point_needs_a_square_basis():
    with pytest.raises(DomainError):
        monomial_point(((1, 0, 0), (0, 1, 0)), (LogValue.finite(0), LogValue.finite(0)),
                       PrimeContext(2, 2))
