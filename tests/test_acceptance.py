"""Acceptance suite: every check is an exact equality of rationals or
tagged values; no tolerances anywhere.  Each criterion prints one
PASS/FAIL line (run with -s to see them on success)."""

import random
from contextlib import contextmanager
from fractions import Fraction

from padicbuilding import (
    INF,
    ChartPoint,
    LogValue,
    PrimeContext,
    Root,
    abs_k,
    act_group,
    act_monomial,
    alpha_evaluate,
    building_point,
    chart_equivalent,
    check_multiplicative,
    class_equals,
    compose_with,
    diagonal_seminorm,
    evaluate,
    f_point,
    gamma_membership,
    in_omega,
    in_stabilizer_P_x,
    interior_point,
    j_section,
    l_functional,
    l_scale,
    monomial_element,
    monomial_inverse,
    monomial_matrix,
    monomial_point,
    open_box,
    orthogonalize,
    phi_from_apartment,
    phi_inverse,
    r_reduce_L_point,
    r_reduce_monomial,
    ray_limit,
    sample_P_x_generators,
)
from padicbuilding.arith import identity, mat_mul, rank, vec_add, vec_scale
from padicbuilding.seminorm import pullback_value

from randgen import (
    rand_direction,
    rand_fraction,
    rand_integer_point,
    rand_invertible,
    rand_lscalar,
    rand_monomial,
    rand_norm,
    rand_point,
    rand_poly,
    rand_seminorm,
    rand_values,
    rand_vector,
    reference_product,
    violating_unipotent,
)

PRIMES = (2, 3, 5)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def rand_ctx(rng, nmax=4, e=1):
    return PrimeContext(rng.choice(PRIMES), rng.randint(2, nmax), e)


def test_criterion_01_n_equivariance():
    rng = random.Random(1001)
    with criterion(1, "N-equivariance of the apartment chart (1000 cases)"):
        for _ in range(1000):
            ctx = rand_ctx(rng)
            x = rand_point(rng, ctx.n)
            m = rand_monomial(rng, ctx.n)
            lhs = phi_from_apartment(act_monomial(m, x), ctx)
            rhs = compose_with(phi_from_apartment(x, ctx), monomial_matrix(m, ctx))
            assert class_equals(lhs, rhs)


def test_criterion_02_section_identity():
    rng = random.Random(1002)
    with criterion(2, "reduction after section is the identity (1000 cases)"):
        for _ in range(1000):
            ctx = rand_ctx(rng)
            b = building_point(rand_seminorm(rng, ctx, steps=2))
            assert r_reduce_monomial(j_section(b)) == b
            # j(b) carries b's marked seminorm; an unmarked copy of it is canonicalized in full
            unmarked = monomial_point(b.seminorm.basis, b.seminorm.values, ctx)
            r = r_reduce_monomial(unmarked)
            assert r == b and (r.seminorm.basis, r.seminorm.values) == (b.seminorm.basis, b.seminorm.values)


def test_criterion_03_stabilizer_identity():
    rng = random.Random(1003)
    with criterion(3, "sampled stabilizer elements fix, violators move (500 x 40)"):
        for trial in range(500):
            ctx = rand_ctx(rng)
            if trial % 2 == 0:
                x = rand_integer_point(rng, ctx.n)
            else:
                x = rand_point(rng, ctx.n)
            for g in sample_P_x_generators(x, 20, 3, ctx, seed=trial):
                assert in_stabilizer_P_x(g, x, ctx)
            for _ in range(20):
                u = violating_unipotent(rng, x, ctx)
                assert not in_stabilizer_P_x(u, x, ctx)


def test_criterion_04_ray_convergence():
    rng = random.Random(1004)
    with criterion(4, "pointwise ray convergence and basic-open tails (100 rays)"):
        for _ in range(100):
            n = rng.randint(3, 4)
            ctx = PrimeContext(rng.choice(PRIMES), n)
            x0 = rand_point(rng, n, interior=True)
            d = rand_direction(rng, n)
            limit = ray_limit(x0, d)
            piece = limit.piece
            i0 = piece[0]
            dmin = min(d)

            def at(s):
                return interior_point([e + s * t for e, t in zip(x0.exponents, d)])

            # piece coordinates equal the limit values from the very start,
            # complementary ones strictly decrease toward zero
            for s in range(1, 21):
                y = at(s)
                for i in piece:
                    assert y.exponent(i) - y.exponent(i0) == \
                        limit.exponent(i) - limit.exponent(i0)
            off = [i for i in range(1, n + 1) if i not in piece]
            for i in off:
                rel = [at(s).exponent(i) - at(s).exponent(i0) for s in range(1, 21)]
                vals = [LogValue.finite(-r) for r in rel]
                assert all(b < a for a, b in zip(vals, vals[1:]))

            # the limit equals the inverse chart of the pointwise value limit
            vals = []
            for i in range(1, n + 1):
                if i in piece:
                    vals.append(LogValue.finite(-(x0.exponent(i) - x0.exponent(i0))))
                else:
                    vals.append(LogValue.zero())
            pointwise = diagonal_seminorm(identity(n), vals, ctx)
            assert phi_inverse(pointwise) == limit

            # tails land in tested basic opens containing the limit
            if len(piece) < n:
                for t0 in (0, rng.randint(2, 12)):
                    width = rng.randint(1, 3)
                    center = [x0.exponents[k] + t0 * (d[k] - dmin)
                              for k in range(n)]
                    center = [c - center[0] for c in center]
                    box = open_box([(c - width, c + width) for c in center[1:]])
                    if not gamma_membership(limit, box, piece):
                        continue
                    gaps = [d[k] - dmin for k in range(n) if d[k] > dmin]
                    bound = max(abs(c) for c in center) \
                        + max(abs(e) for e in x0.exponents) + width + 1
                    s_thr = int(2 * bound / min(gaps)) + t0 + 1
                    assert gamma_membership(at(s_thr), box, piece)
                    states = [gamma_membership(at(s), box, piece)
                              for s in range(1, 21)]
                    for a, b in zip(states, states[1:]):
                        assert b or not a


def _perturbing_monomial(y, n, rng):
    # a monomial element realizable over K that moves the point y
    if len(y.piece) == 1:
        other = rng.choice([i for i in range(1, n + 1) if i not in y.piece])
        perm = list(range(1, n + 1))
        i = y.piece[0]
        perm[i - 1], perm[other - 1] = perm[other - 1], perm[i - 1]
        m = monomial_element(perm, [0] * n)
    else:
        target = rng.choice(y.piece[1:])
        trans = [rng.randint(1, 3) if i == target else 0 for i in range(1, n + 1)]
        m = monomial_element(list(range(1, n + 1)), trans)
    assert act_monomial(m, y) != y
    return m


def test_criterion_05_chart_relation():
    rng = random.Random(1005)
    with criterion(5, "chart relation: equivalent pairs agree, perturbed differ (500 + 500)"):
        for trial in range(500):
            ctx = rand_ctx(rng)
            x = rand_point(rng, ctx.n)
            g = rand_invertible(rng, ctx.n, ctx.p)
            h = sample_P_x_generators(x, 1, 2, ctx, seed=trial)[0]
            m = rand_monomial(rng, ctx.n)
            y = act_monomial(monomial_inverse(m), x)
            good = ChartPoint(
                mat_mul(mat_mul(g, h), monomial_matrix(m, ctx)), y)
            assert chart_equivalent(ChartPoint(g, x), good, ctx)

            pert = _perturbing_monomial(y, ctx.n, rng)
            bad = ChartPoint(
                mat_mul(good.g, monomial_matrix(pert, ctx)), y)
            assert not chart_equivalent(ChartPoint(g, x), bad, ctx)


def test_criterion_06_reduction_equivariance():
    rng = random.Random(1006)
    with criterion(6, "reduction commutes with the group action (200 cases)"):
        for _ in range(200):
            ctx = rand_ctx(rng)
            p = monomial_point(rand_invertible(rng, ctx.n, ctx.p),
                               rand_values(rng, ctx.n), ctx)
            g = rand_invertible(rng, ctx.n, ctx.p)
            moved = monomial_point(mat_mul(g, p.basis), p.radii, ctx)
            assert r_reduce_monomial(moved) == act_group(g, r_reduce_monomial(p))


def test_criterion_07_multiplicativity():
    rng = random.Random(1007)
    with criterion(7, "monomial seminorms are multiplicative (500 cases)"):
        for _ in range(500):
            ctx = PrimeContext(rng.choice(PRIMES), rng.randint(2, 3))
            p = monomial_point(rand_invertible(rng, ctx.n, ctx.p, steps=2),
                               rand_values(rng, ctx.n), ctx)
            f = rand_poly(rng, ctx.n, max_deg=4, max_terms=3)
            g = rand_poly(rng, ctx.n, max_deg=4, max_terms=3)
            lhs = alpha_evaluate(p, reference_product(f, g))
            assert lhs == alpha_evaluate(p, f) * alpha_evaluate(p, g)
            assert check_multiplicative(p, f, g)


def test_criterion_08_orthogonalization_oracle():
    rng = random.Random(1008)
    with criterion(8, "orthogonalization span/max-property and pullback oracle"):
        for _ in range(500):
            n = rng.randint(2, 5)
            ctx = PrimeContext(rng.choice(PRIMES), n)
            ambient = rand_norm(rng, ctx, steps=2)
            m = rng.randint(1, n)
            while True:
                us = [rand_vector(rng, n) for _ in range(m)]
                if rank(us) == m:
                    break
            out = orthogonalize(us, ambient)
            assert rank(list(us) + list(out)) == m
            vals = [evaluate(ambient, u) for u in out]
            for _ in range(100):
                lams = [rand_fraction(rng) for _ in range(m)]
                v = (Fraction(0),) * n
                for lam, u in zip(lams, out):
                    v = vec_add(v, vec_scale(lam, u))
                expected = max(
                    abs_k(lam, ctx) * val for lam, val in zip(lams, vals))
                assert evaluate(ambient, v) == expected

        from padicbuilding import pullback_from_functional

        for _ in range(30):
            e = rng.choice([1, 2, 3, 4])
            n = rng.randint(2, 3)
            ctx = PrimeContext(rng.choice(PRIMES), n, e)
            zs = [rand_lscalar(rng, ctx) for _ in range(n)]
            if all(all(c == 0 for c in z.coeffs) for z in zs):
                zs[0] = l_scale(1, rand_lscalar(rng, ctx, zero_ok=False))
            g = pullback_from_functional(zs, ctx)
            for _ in range(1000):
                v = rand_vector(rng, n)
                assert evaluate(g, v) == pullback_value(zs, v, ctx)


def test_criterion_09_boundary_f_table():
    rng = random.Random(1009)
    with criterion(9, "boundary thresholds match the ray oracle (200 rays)"):
        for _ in range(200):
            n = rng.randint(2, 4)
            x0 = rand_point(rng, n, interior=True)
            d = rand_direction(rng, n)
            limit = ray_limit(x0, d)
            piece = set(limit.piece)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    a = Root(i, j)
                    f = f_point(limit, a)
                    di, dj = d[i - 1], d[j - 1]
                    if i in piece and j in piece:
                        # a(x(s)) is constant; f is its negative
                        assert di == dj
                        assert f == x0.exponent(j) - x0.exponent(i)
                    elif i in piece:
                        # a -> -infinity along every ray into the limit
                        assert dj > di
                        assert f == INF
                    else:
                        assert f == -INF
                        if j in piece:
                            assert di > dj  # a -> +infinity on this ray
                        else:
                            # witness ray with a -> +infinity, same limit
                            dw = list(d)
                            dw[i - 1] = max(d) + 1
                            assert ray_limit(x0, dw) == limit
                            assert dw[i - 1] > dw[j - 1]


def test_criterion_10_omega_dichotomy():
    rng = random.Random(1010)
    with criterion(10, "hyperplane-complement membership = trivial kernel (200 cases)"):
        for trial in range(200):
            n = rng.randint(2, 3)
            e = rng.choice([1, 2, 3, 4])
            ctx = PrimeContext(rng.choice(PRIMES), n, e)
            zs = [rand_lscalar(rng, ctx) for _ in range(n)]
            if trial % 3 == 0:
                # force a K-rational dependency on a nonzero base entry
                zs[0] = rand_lscalar(rng, ctx, zero_ok=False)
                zs[1] = l_scale(rand_fraction(rng), zs[0])
            elif all(all(c == 0 for c in z.coeffs) for z in zs):
                zs[0] = rand_lscalar(rng, ctx, zero_ok=False)
            zf = l_functional(zs, ctx)
            assert in_omega(zf) == (r_reduce_L_point(zf).kernel() == [])
