import math
import random
from fractions import Fraction

import pytest

from padicbuilding import (
    ChartPoint,
    ElementaryUnipotent,
    PrimeContext,
    Root,
    act_group,
    act_monomial,
    apartment_point,
    building_point,
    chart_equivalent,
    class_equals,
    compose_with,
    f_point,
    f_sigma,
    fixes_pointwise,
    from_chart,
    gamma_membership,
    in_stabilizer_P_x,
    in_U_a_sigma,
    interior_point,
    monomial_element,
    monomial_identity,
    monomial_inverse,
    monomial_matrix,
    nu_translation,
    open_box,
    phi_from_apartment,
    s_project,
    sample_P_x_generators,
    sigma_project,
    unipotent_matrix,
)
from padicbuilding import arith as arith_module
from padicbuilding import building as building_module
from padicbuilding import seminorm as seminorm_module
from padicbuilding.arith import identity, mat, mat_mul
from padicbuilding.building import _random_unit
from padicbuilding.errors import (
    DomainError,
    NotSubPieceError,
    SingularMatrixError,
    SubspaceNotPreservedError,
)

from randgen import (
    rand_fraction,
    rand_integer_point,
    rand_invertible,
    rand_monomial,
    rand_point,
    reference_sample_P_x,
    violating_unipotent,
)

CTX2 = PrimeContext(2, 2)
CTX3 = PrimeContext(3, 3)


def test_from_chart_examples():
    x = rand_point(random.Random(1), 3)
    ctx = PrimeContext(2, 3)
    b = from_chart(ChartPoint(identity(3), x), ctx)
    assert b == building_point(phi_from_apartment(x, ctx))
    # diag(p,1) moves the origin to the gauge point (0,1)
    b2 = from_chart(ChartPoint(mat([[2, 0], [0, 1]]), interior_point([0, 0])), CTX2)
    assert b2 == building_point(phi_from_apartment(interior_point([0, 1]), CTX2))
    # kernel transport: kernel of g(phi(x)) is g * V_{off piece}
    g = mat([[1, 1], [0, 1]])
    bx = apartment_point([1], [0])
    b3 = from_chart(ChartPoint(g, bx), CTX2)
    assert b3.kernel() == [(1, 1)]  # g * v_2 = v_1 + v_2, normalized


def test_act_group_functorial():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 4)
        ctx = PrimeContext(3, n)
        x = rand_point(rng, n)
        g = rand_invertible(rng, n, 3)
        h = rand_invertible(rng, n, 3)
        b = from_chart(ChartPoint(h, x), ctx)
        assert act_group(g, b) == from_chart(ChartPoint(mat_mul(g, h), x), ctx)
        assert act_group(identity(n), b) == b
        gh = mat_mul(g, h)
        assert act_group(gh, b) == act_group(g, act_group(h, b))


def test_unipotent_fixes_boundary_kernel_direction():
    # kernel span(v_1): any entry in the root a_12 acts trivially
    x = apartment_point([2], [0])
    for omega in (Fraction(1), Fraction(5, 3), Fraction(-7)):
        u = unipotent_matrix(ElementaryUnipotent(Root(1, 2), omega), 2)
        b = building_point(phi_from_apartment(x, CTX2))
        assert act_group(u, b) == b


def test_chart_equivalent_examples():
    x = interior_point([0, 1])
    c = ChartPoint(identity(2), x)
    assert chart_equivalent(c, c, CTX2)
    n_elt = monomial_element([2, 1], [0, -1])
    n_mat = monomial_matrix(n_elt, CTX2)
    y = act_monomial(monomial_inverse(n_elt), x)
    assert chart_equivalent(c, ChartPoint(n_mat, y), CTX2)
    assert not chart_equivalent(
        ChartPoint(identity(2), interior_point([0, 0])),
        ChartPoint(identity(2), interior_point([0, 1])),
        CTX2,
    )


def test_stabilizer_examples():
    assert in_stabilizer_P_x(mat([[1, 1], [1, 0]]), interior_point([0, 0]), CTX2)
    x = interior_point([0, 1])
    f = f_point(x, Root(1, 2))
    u_at = unipotent_matrix(ElementaryUnipotent(Root(1, 2), Fraction(2) ** f), 2)
    u_below = unipotent_matrix(ElementaryUnipotent(Root(1, 2), Fraction(2) ** (f - 1)), 2)
    assert in_stabilizer_P_x(u_at, x, CTX2)
    assert not in_stabilizer_P_x(u_below, x, CTX2)


def test_stabilizer_dichotomy_on_boundary():
    rng = random.Random(12)
    for _ in range(120):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        x = rand_point(rng, n, interior=False)
        inside = list(x.piece)
        outside = [i for i in range(1, n + 1) if i not in x.piece]
        omega = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        i = rng.choice(outside)
        j = rng.choice([t for t in range(1, n + 1) if t != i])
        u = unipotent_matrix(ElementaryUnipotent(Root(i, j), omega), n)
        assert in_stabilizer_P_x(u, x, ctx)
        if outside and inside:
            i2, j2 = rng.choice(inside), rng.choice(outside)
            u2 = unipotent_matrix(ElementaryUnipotent(Root(i2, j2), omega), n)
            assert not in_stabilizer_P_x(u2, x, ctx)


def test_in_U_a_sigma_conventions():
    b = apartment_point([1], [0])  # f(a_21) = -inf, f(a_12) = +inf
    for omega in (Fraction(1), Fraction(1, 8), Fraction(40)):
        assert in_U_a_sigma(ElementaryUnipotent(Root(2, 1), omega), [b], CTX2)
        assert not in_U_a_sigma(ElementaryUnipotent(Root(1, 2), omega), [b], CTX2)
    assert in_U_a_sigma(ElementaryUnipotent(Root(1, 2), Fraction(0)), [b], CTX2)
    x = interior_point([0, 1])
    assert in_U_a_sigma(ElementaryUnipotent(Root(1, 2), Fraction(2)), [x], CTX2)
    assert not in_U_a_sigma(ElementaryUnipotent(Root(1, 2), Fraction(1)), [x], CTX2)


def test_in_U_a_sigma_refuses_a_root_outside_n():
    u = ElementaryUnipotent(Root(5, 1), Fraction(1))
    with pytest.raises(DomainError, match=r"root \(5, 1\) has an index outside 1..2"):
        in_U_a_sigma(u, [interior_point([0, 1])], CTX2)


def test_in_U_a_sigma_refuses_a_point_outside_n():
    u = ElementaryUnipotent(Root(1, 2), Fraction(1))
    with pytest.raises(DomainError, match=r"^piece \(1, 2, 3\) does not fit dimension 2$"):
        in_U_a_sigma(u, [interior_point([0, 1]), apartment_point([1, 2, 3], [0, 5, 9])], CTX2)


def test_in_U_a_sigma_matches_stabilizer():
    rng = random.Random(18)
    for _ in range(150):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3]), n)
        x = rand_integer_point(rng, n)
        i, j = rng.sample(range(1, n + 1), 2)
        v = rng.randint(-4, 4)
        u = ElementaryUnipotent(Root(i, j), Fraction(ctx.p) ** v)
        member = in_U_a_sigma(u, [x], ctx)
        fixes = in_stabilizer_P_x(unipotent_matrix(u, n), x, ctx)
        assert member == fixes


def test_fixes_pointwise():
    x = interior_point([0, 0])
    swap = monomial_element([2, 1], [0, 0])
    assert fixes_pointwise(monomial_identity(2), [x])
    assert fixes_pointwise(swap, [x])
    assert not fixes_pointwise(swap, [x, interior_point([0, 1])])
    shift = monomial_element([1, 2], [0, 3])
    assert not fixes_pointwise(shift, [x])


def test_sample_generators_stabilize():
    rng = random.Random(23)
    for seed in range(6):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        x = rand_point(rng, n)
        gens = sample_P_x_generators(x, 10, 3, ctx, seed)
        assert len(gens) == 10
        for g in gens:
            assert in_stabilizer_P_x(g, x, ctx)
    # deterministic under the seed
    a = sample_P_x_generators(interior_point([0, 1]), 5, 2, CTX2, 7)
    b = sample_P_x_generators(interior_point([0, 1]), 5, 2, CTX2, 7)
    assert a == b
    with pytest.raises(DomainError):
        sample_P_x_generators(interior_point([0, 1]), 0, 2, CTX2, 7)


def test_sigma_project_examples():
    assert sigma_project(identity(2), [1, 2]) == identity(2)
    # g preserves span(v_1) iff its (2,1) entry vanishes; quotient is [d]
    g = mat([[3, 5], [0, 7]])
    assert sigma_project(g, [2]) == mat([[7]])
    swap = mat([[0, 1], [1, 0]])
    with pytest.raises(SubspaceNotPreservedError):
        sigma_project(swap, [2])


@pytest.mark.parametrize("g, piece, message", [
    ([[1, 0, 0], [0, 1, 0]], [1], "square"),
    ([[1, 0], [0, 1], [0, 0]], [1], "square"),
    ([[1, 0], [0, 1]], [1, 3], "outside 1..2"),
    ([[1, 0], [0, 1]], [0, 1], "outside 1..2"),
    ([[1, 0], [0, 1]], [], "empty piece"),
])
def test_sigma_project_refuses_a_size_mismatch(g, piece, message):
    with pytest.raises(DomainError, match=message) as exc:
        sigma_project(g, piece)
    assert not isinstance(exc.value, SubspaceNotPreservedError)


def test_sigma_project_nu_compatibility():
    # translation of the projected diagonal = projection of the translation
    rng = random.Random(30)
    for _ in range(100):
        n = rng.randint(2, 5)
        ctx = PrimeContext(rng.choice([2, 3]), n)
        diag = [Fraction(ctx.p) ** rng.randint(-3, 3) * rng.choice([1, -1, 3])
                for _ in range(n)]
        g = mat([[diag[a] if a == b else 0 for b in range(n)] for a in range(n)])
        size = rng.randint(2, n)
        inside = sorted(rng.sample(range(1, n + 1), size))
        small = sigma_project(g, inside)
        small_ctx = PrimeContext(ctx.p, size)
        small_nu = nu_translation([small[k][k] for k in range(size)], small_ctx)
        big_nu = nu_translation(diag, ctx)
        x = rand_point(rng, n, interior=True)
        moved = s_project(act_monomial(big_nu, x), inside)
        # transport the projected action through the index renumbering
        relabel = {i: k + 1 for k, i in enumerate(inside)}
        proj = s_project(x, inside)
        small_x = apartment_point([relabel[i] for i in proj.piece], proj.exponents)
        small_moved = act_monomial(small_nu, small_x)
        expect = apartment_point([relabel[i] for i in moved.piece], moved.exponents)
        assert small_moved == expect


def test_chart_relation_well_defined():
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randint(2, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n)
        x = rand_point(rng, n)
        g = rand_invertible(rng, n, ctx.p)
        h = sample_P_x_generators(x, 1, 2, ctx, seed=trial)[0]
        m = rand_monomial(rng, n)
        pair1 = ChartPoint(g, x)
        pair2 = ChartPoint(mat_mul(mat_mul(g, h), monomial_matrix(m, ctx)),
                           act_monomial(monomial_inverse(m), x))
        assert chart_equivalent(pair1, pair2, ctx)


def test_building_point_kernel_and_eq():
    b = building_point(phi_from_apartment(apartment_point([2], [0]), CTX2))
    assert b.kernel() == [(1, 0)]
    assert b != building_point(phi_from_apartment(interior_point([0, 0]), CTX2))
    assert b == building_point(
        compose_with(phi_from_apartment(apartment_point([2], [0]), CTX2),
                     mat([[5, 0], [0, 5]])))


def test_points_over_different_contexts_are_unequal():
    x2, x3 = interior_point([0, 0]), interior_point([0, 0, 0])
    b = building_point(phi_from_apartment(x2, CTX2))
    others = [building_point(phi_from_apartment(x2, PrimeContext(3, 2))),   # another p
              building_point(phi_from_apartment(x3, PrimeContext(2, 3)))]   # another n
    for other in others:
        assert not b == other and b != other and not other == b
        assert b not in [other] and other not in [b]
        with pytest.raises(DomainError):
            class_equals(b.seminorm, other.seminorm)
    assert b in others + [b] and b != 3 and not b == 3
    # e only says how L-valued inputs are read; the seminorm lives on K^n
    ramified = building_point(phi_from_apartment(x2, PrimeContext(2, 2, 2)))
    assert b == ramified and ramified == b and not b != ramified
    assert class_equals(b.seminorm, ramified.seminorm)


def test_random_unit_draws_what_choice_over_the_unit_list_draws():
    for p in (2, 3, 5, 7, 11):
        units = [c for c in range(1, p * p) if c % p != 0]
        pool = units + [-c for c in units]
        a, b = random.Random(p), random.Random(p)
        assert [_random_unit(p, a) for _ in range(500)] == [b.choice(pool) for _ in range(500)]


def test_sampler_matches_the_matrix_product_reference():
    # 2 000 cases: n = 2..6, p in {2, 3, 5, 7}, every bound 0..4 and count 1..5,
    # interior and boundary pieces
    rng = random.Random(14)
    for n in range(2, 7):
        for p in (2, 3, 5, 7):
            ctx = PrimeContext(p, n)
            for k in range(100):
                x = rand_point(rng, n, interior=k % 2 == 0)
                bound, count, seed = k % 5, k // 20 + 1, rng.randrange(1 << 30)
                got = sample_P_x_generators(x, count, bound, ctx, seed)
                assert got == reference_sample_P_x(x, count, bound, ctx, seed)
                assert all(type(a) is Fraction for g in got for row in g for a in row)


def test_sampler_refuses_a_negative_bound_whatever_the_seed():
    # before any draw: the answer used to depend on whether a draw reached randint(lo, lo - 1)
    x = interior_point([0, 1, 2])
    for seed in range(40):
        with pytest.raises(DomainError, match="bound must be >= 0"):
            sample_P_x_generators(x, 1, -1, PrimeContext(3, 3), seed)


@pytest.mark.parametrize("count, bound", [(1.5, 1), (1, 1.5), (True, 1), (1, False)],
                         ids=["count.float", "bound.float", "count.bool", "bound.bool"])
def test_sampler_refuses_a_count_or_bound_that_is_not_an_int(count, bound, monkeypatch):
    # before any draw: 1.5 used to escape from range or randrange, and True to count as 1
    monkeypatch.setattr(building_module.random, "Random", None)
    with pytest.raises(DomainError, match="^count and bound must be integers, got "):
        sample_P_x_generators(interior_point([0, 1, 2]), count, bound, PrimeContext(3, 3))


X01 = interior_point([0, 1])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: s_project(X01, [1, "a"]), DomainError, r"invalid piece \(1, 'a'\)",
                 id="s_project.mixed"),
    pytest.param(lambda: s_project(X01, [[1]]), DomainError, r"invalid piece \(\[1\],\)",
                 id="s_project.unhashable"),
    pytest.param(lambda: sigma_project(identity(2), [1, "a"]), DomainError,
                 r"invalid piece \(1, 'a'\)", id="sigma_project.mixed"),
    pytest.param(lambda: sigma_project(identity(2), [[1]]), DomainError,
                 r"invalid piece \(\[1\],\)", id="sigma_project.unhashable"),
    pytest.param(lambda: f_sigma([X01, 5], Root(1, 2)), DomainError,
                 "expected a set of apartment points", id="f_sigma"),
    pytest.param(lambda: in_U_a_sigma(ElementaryUnipotent(Root(1, 2), 1), [X01, 5],
                                      PrimeContext(2, 2)), DomainError,
                 "expected a set of apartment points", id="in_U_a_sigma"),
    pytest.param(lambda: fixes_pointwise(monomial_identity(2), [X01, 5]), DomainError,
                 "expected a set of apartment points", id="fixes_pointwise"),
    # shapes refused before keep their error and message
    pytest.param(lambda: s_project(X01, [True]), DomainError, r"invalid piece \(True,\)",
                 id="s_project.bool"),
    pytest.param(lambda: s_project(X01, [1.0]), DomainError, r"invalid piece \(1\.0,\)",
                 id="s_project.float"),
    pytest.param(lambda: sigma_project(identity(2), [1.0]), DomainError, r"invalid piece \(1\.0,\)",
                 id="sigma_project.float"),
    pytest.param(lambda: sigma_project(identity(2), [True]), DomainError, r"invalid piece \(True,\)",
                 id="sigma_project.bool"),
    pytest.param(lambda: s_project(X01, [1, 5]), NotSubPieceError,
                 r"\(1, 5\) is not a nonempty subset of \(1, 2\)", id="s_project.not_subset"),
    # a repeated index was read as the set it makes, and answered
    pytest.param(lambda: s_project(X01, [2, 2]), DomainError, r"invalid piece \(2, 2\)",
                 id="s_project.repeated"),
    pytest.param(lambda: sigma_project(identity(3), [1, 1]), DomainError,
                 r"invalid piece \(1, 1\)", id="sigma_project.repeated"),
    pytest.param(lambda: gamma_membership(interior_point([0, 1, 2]), open_box([(0, 1), (0, 1)]),
                                          [1, 1]), DomainError,
                 r"invalid piece \(1, 1\)", id="gamma_membership.repeated"),
    # a one-shot iterator is read once, so the refusal still names its entries
    pytest.param(lambda: s_project(interior_point([0, 1, 2]), iter([True])), DomainError,
                 r"invalid piece \(True,\)", id="s_project.iterator"),
    pytest.param(lambda: sigma_project(identity(2), iter([1.0])), DomainError,
                 r"invalid piece \(1\.0,\)", id="sigma_project.iterator"),
    pytest.param(lambda: gamma_membership(interior_point([0, 1, 2]), open_box([(0, 1), (0, 1)]),
                                          iter([[1]])), DomainError,
                 r"invalid piece \(\[1\],\)", id="gamma_membership.iterator"),
])
def test_a_mixed_or_unhashable_piece_or_point_set_is_a_domain_error(call, error, message):
    # these escaped as a bare TypeError from sorting or hashing, or an AttributeError
    with pytest.raises(DomainError, match=f"^{message}$") as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: [1, 1], r"invalid piece \(1, 1\)", id="repeated"),
    pytest.param(lambda: [True], r"invalid piece \(True,\)", id="bool"),
    pytest.param(lambda: [1.0], r"invalid piece \(1\.0,\)", id="float"),
    pytest.param(lambda: [[1]], r"invalid piece \(\[1\],\)", id="unhashable"),
    pytest.param(lambda: "12", "not a sequence of entries: '12'", id="string"),
    pytest.param(lambda: iter([1, 1]), r"invalid piece \(1, 1\)", id="repeated.iterator"),
    pytest.param(lambda: iter([True]), r"invalid piece \(True,\)", id="bool.iterator"),
    pytest.param(lambda: iter([1.0]), r"invalid piece \(1\.0,\)", id="float.iterator"),
    pytest.param(lambda: iter([[1]]), r"invalid piece \(\[1\],\)", id="unhashable.iterator"),
    pytest.param(lambda: iter("12"), r"invalid piece \('1', '2'\)", id="string.iterator"),
])
def test_every_piece_reader_refuses_a_malformed_piece_alike(make, message):
    # apartment_point had its own reader: it refused [1, 1], which the others read as {1},
    # and named "12" by its characters where the others refused it as a string
    y, size = interior_point([0, 1, 2]), len(list(make()))
    readers = {"apartment_point": lambda piece: apartment_point(piece, [0] * size),
               "s_project": lambda piece: s_project(y, piece),
               "sigma_project": lambda piece: sigma_project(identity(3), piece),
               "gamma_membership": lambda piece: gamma_membership(
                   y, open_box([(0, 1), (0, 1)]), piece)}
    for name, read in readers.items():
        with pytest.raises(DomainError, match=f"^{message}$") as caught:
            read(make())
        assert type(caught.value) is DomainError, name


def test_sample_generators_at_a_large_prime():
    ctx = PrimeContext(2 ** 61 - 1, 3)
    x = apartment_point([1, 3], [0, 2])
    for h in sample_P_x_generators(x, 20, 3, ctx, seed=4):
        assert in_stabilizer_P_x(h, x, ctx)


# ---------------------------------------------------------------------------
# The valuation bound against the seminorm model
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5)


def stabilizer_oracle(g, x, ctx):
    # the transported seminorm compared with phi(x) in the seminorm model
    gx = phi_from_apartment(x, ctx)
    return class_equals(compose_with(gx, g), gx)


def chart_oracle(c1, c2, ctx):
    return from_chart(c1, ctx) == from_chart(c2, ctx)


def point_of_size(rng, n, size):
    piece = sorted(rng.sample(range(1, n + 1), size))
    return apartment_point(piece, [rand_fraction(rng) for _ in piece])


def settings():
    for n in range(2, 7):
        for p in PRIMES:
            for size in range(1, n + 1):
                yield n, PrimeContext(p, n), size


def test_stabilizer_agrees_with_the_seminorm_model():
    rng = random.Random(61)
    cases = 0
    for n, ctx, size in settings():
        answers = set()
        for _ in range(34):
            x = point_of_size(rng, n, size)
            gens = sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))
            for g in (gens[0], violating_unipotent(rng, x, ctx), rand_invertible(rng, n, ctx.p)):
                expect = stabilizer_oracle(g, x, ctx)
                assert in_stabilizer_P_x(g, x, ctx) == expect, (g, x, ctx)
                answers.add(expect)
                cases += 1
        assert answers == {True, False}, (n, ctx.p, size)
    assert cases >= 6000


def test_chart_equivalence_agrees_with_the_seminorm_model():
    rng = random.Random(62)
    pairs = 0
    for n, ctx, size in settings():
        answers = set()
        for _ in range(12):
            x = point_of_size(rng, n, size)
            g = rand_invertible(rng, n, ctx.p)
            c1 = ChartPoint(g, x)
            m = rand_monomial(rng, n)
            h = sample_P_x_generators(x, 1, 2, ctx, seed=rng.randrange(1 << 30))[0]
            y = act_monomial(monomial_inverse(m), x)
            gm = mat_mul(mat_mul(g, h), monomial_matrix(m, ctx))
            i, j = rng.sample(range(1, n + 1), 2)
            nudge = unipotent_matrix(ElementaryUnipotent(Root(i, j), rand_fraction(rng)), n)
            independent = ChartPoint(rand_invertible(rng, n, ctx.p),
                                     point_of_size(rng, n, rng.randint(1, n)))
            for c2 in (ChartPoint(gm, y), ChartPoint(mat_mul(gm, nudge), y), independent):
                expect = chart_oracle(c1, c2, ctx)
                assert chart_equivalent(c1, c2, ctx) == expect, (c1, c2, ctx)
                assert chart_equivalent(c2, c1, ctx) == expect
                answers.add(expect)
                pairs += 1
        assert answers == {True, False}, (n, ctx.p, size)
    assert pairs >= 2000


WRONG_SHAPES = [
    [[1, 0], [0, 1]],                               # 2x2 against n = 3
    [[1, 0, 0], [0, 1, 0]],                         # too few rows
    [[1, 0, 0], [0, 1], [0, 0, 1]],                 # a short row
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],     # too many columns
]


@pytest.mark.parametrize("g", WRONG_SHAPES)
def test_relations_refuse_a_matrix_of_the_wrong_shape(g):
    x = interior_point([0, 1, 2])
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        in_stabilizer_P_x(g, x, CTX3)
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        chart_equivalent(ChartPoint(identity(3), x), ChartPoint(g, x), CTX3)
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        chart_equivalent(ChartPoint(g, x), ChartPoint(identity(3), x), CTX3)


@pytest.mark.parametrize("g", WRONG_SHAPES + [[[1, 0, 0, 0]] * 4])
def test_group_action_refuses_a_matrix_of_the_wrong_shape(g):
    # the last shape is 4x4 against n = 3
    x = interior_point([0, 1, 2])
    phi = phi_from_apartment(x, CTX3)
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        compose_with(phi, g)
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        act_group(g, building_point(phi))
    with pytest.raises(DomainError, match="^group element must be 3x3$"):
        from_chart(ChartPoint(g, x), CTX3)


@pytest.mark.parametrize("g", [["10", "01"], ["12", "34"], 5, [[1, 0], 5], [b"10", b"01"]])
def test_a_group_element_that_is_no_matrix_of_numbers_is_a_domain_error(g):
    # a string row is not read as its digits, nor is an entry without a length a bare
    # TypeError: seminorm._group_matrix refuses both, for every relation and action
    x = interior_point([0, 1])
    phi = phi_from_apartment(x, CTX2)
    for call in (lambda: in_stabilizer_P_x(g, x, CTX2), lambda: compose_with(phi, g),
                 lambda: act_group(g, building_point(phi)),
                 lambda: chart_equivalent(ChartPoint(g, x), ChartPoint(identity(2), x), CTX2),
                 lambda: from_chart(ChartPoint(g, x), CTX2)):
        with pytest.raises(DomainError, match="^not a sequence of entries: ") as caught:
            call()
        assert any(entry.name == "_group_matrix" for entry in caught.traceback)


def test_relations_refuse_a_piece_outside_the_dimension():
    x = apartment_point([1, 3], [0, 1])
    with pytest.raises(DomainError, match="does not fit dimension 2"):
        in_stabilizer_P_x(identity(2), x, CTX2)
    with pytest.raises(DomainError, match="does not fit dimension 2"):
        chart_equivalent(ChartPoint(identity(2), interior_point([0, 0])),
                         ChartPoint(identity(2), x), CTX2)


def test_relations_refuse_a_singular_matrix():
    x = interior_point([0, 1])
    singular = mat([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError, match="group element must be invertible"):
        in_stabilizer_P_x(singular, x, CTX2)
    with pytest.raises(SingularMatrixError, match="group element must be invertible"):
        chart_equivalent(ChartPoint(singular, x), ChartPoint(identity(2), x), CTX2)
    with pytest.raises(SingularMatrixError, match="group element must be invertible"):
        compose_with(phi_from_apartment(x, CTX2), singular)


def _mixed(rng, g, seen):
    # the entries of g, each as an int, a Fraction, a float or an "a/b" string that reads as it
    def one(x):
        kinds = ["fraction", "string"] + ["int"] * (x.denominator == 1)
        kinds += ["float"] * (Fraction(repr(float(x))) == x)
        kind = rng.choice(kinds)
        seen.add(kind)
        return {"int": int, "float": float, "fraction": Fraction,
                "string": lambda y: f"{y.numerator}/{y.denominator}"}[kind](x)
    return [[one(Fraction(x)) for x in row] for row in g]


def test_relations_read_a_group_element_once_and_never_through_mat(monkeypatch):
    # the answers on Fraction matrices, then again with mat unusable and the
    # entries of the two charts read from mixed types
    rng = random.Random(66)
    cases = []
    for n, ctx, size in settings():
        x = point_of_size(rng, n, size)
        g = mat_mul(rand_invertible(rng, n, ctx.p), monomial_matrix(rand_monomial(rng, n), ctx))
        h = sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
        for k in (h, violating_unipotent(rng, x, ctx)):
            gk = mat_mul(g, k)
            cases.append((ctx, x, g, k, gk, in_stabilizer_P_x(k, x, ctx),
                          chart_equivalent(ChartPoint(g, x), ChartPoint(gk, x), ctx)))

    def refuse(*args):
        raise AssertionError("a group element went through mat")
    for module in (building_module, seminorm_module, arith_module):
        monkeypatch.setattr(module, "mat", refuse)
    seen, answers = set(), set()
    for ctx, x, g, k, gk, in_stab, equiv in cases:
        assert in_stabilizer_P_x(_mixed(rng, k, seen), x, ctx) == in_stab
        c1, c2 = ChartPoint(_mixed(rng, g, seen), x), ChartPoint(_mixed(rng, gk, seen), x)
        assert chart_equivalent(c1, c2, ctx) == chart_equivalent(c2, c1, ctx) == equiv
        answers.update((in_stab, equiv))
    assert answers == {True, False} and seen == {"int", "fraction", "float", "string"}
    x = interior_point([0, 1, 2])
    for g in WRONG_SHAPES:
        with pytest.raises(DomainError, match="^group element must be 3x3$"):
            in_stabilizer_P_x(g, x, CTX3)
        with pytest.raises(DomainError, match="^group element must be 3x3$"):
            chart_equivalent(ChartPoint(identity(3), x), ChartPoint(g, x), CTX3)
    singular = [[1, "2"], [2.0, Fraction(4)]]
    x = interior_point([0, 1])
    with pytest.raises(SingularMatrixError, match="^group element must be invertible$"):
        in_stabilizer_P_x(singular, x, CTX2)
    with pytest.raises(SingularMatrixError, match="^group element must be invertible$"):
        chart_equivalent(ChartPoint(singular, x), ChartPoint(identity(2), x), CTX2)


def _zero_column(g, j):
    return mat([[0 if c == j - 1 else a for c, a in enumerate(row)] for row in g])


def test_relations_refuse_a_matrix_singular_only_off_the_piece():
    # a stabilizer element with an off-piece column zeroed keeps the bound and
    # the block on the piece; only the block off the piece is singular
    rng = random.Random(63)
    cases = 0
    for n, ctx, size in settings():
        if size == n:
            continue
        for _ in range(3):
            x = point_of_size(rng, n, size)
            g = sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
            j = rng.choice([i for i in range(1, n + 1) if i not in x.piece])
            singular = _zero_column(g, j)
            h = rand_invertible(rng, n, ctx.p)
            with pytest.raises(SingularMatrixError, match="group element must be invertible"):
                in_stabilizer_P_x(singular, x, ctx)
            with pytest.raises(SingularMatrixError, match="group element must be invertible"):
                chart_equivalent(ChartPoint(h, x), ChartPoint(mat_mul(h, singular), x), ctx)
            with pytest.raises(SingularMatrixError, match="group element must be invertible"):
                chart_equivalent(ChartPoint(mat_mul(h, singular), x), ChartPoint(h, x), ctx)
            cases += 1
    assert cases >= 100


def test_relations_refuse_a_singular_matrix_without_a_bound():
    x = interior_point([0, 1, 2])
    y = apartment_point([1], [0])
    singular = mat([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError, match="group element must be invertible"):
        chart_equivalent(ChartPoint(identity(3), x), ChartPoint(singular, y), CTX3)
    with pytest.raises(SingularMatrixError, match="group element must be invertible"):
        in_stabilizer_P_x(singular, y, CTX3)
    rng = random.Random(64)
    cases = 0
    for n, ctx, size in settings():
        for _ in range(4):
            x = point_of_size(rng, n, size)
            y = point_of_size(rng, n, rng.choice([k for k in range(1, n + 1) if k != size]))
            g = rand_invertible(rng, n, ctx.p)
            singular = _zero_column(g, rng.randint(1, n))
            with pytest.raises(SingularMatrixError, match="group element must be invertible"):
                chart_equivalent(ChartPoint(g, x), ChartPoint(singular, y), ctx)
            cases += 1
    assert cases >= 200


def _dense(rng, count):
    # seeded 6-bit rationals over denominators up to 63
    return [Fraction(rng.randrange(-32, 32), rng.randrange(1, 64)) for _ in range(count)]


def _dense_chart(rng, n, piece):
    g = tuple(tuple(_dense(rng, n)) for _ in range(n))
    return ChartPoint(g, apartment_point(piece, [0, *_dense(rng, len(piece) - 1)]))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_the_class_test_keeps_its_entries_minors_of_the_input(n, monkeypatch):
    # continued from the Gauss-Jordan pivot, every entry the class test's pass
    # leaves is an n x n minor of the integer [g1 | g2], so it lies within the
    # Hadamard bound of those rows; a pass from 1 grows to about k times that
    sizes = []

    def recording(rows, *args, **kwargs):
        out = arith_module._eliminate(rows, *args, **kwargs)
        sizes.append(max(abs(a).bit_length() for row in rows for a in row))
        return out

    monkeypatch.setattr(building_module, "_eliminate", recording)
    rng = random.Random(n)
    ctx = PrimeContext(3, n)
    interior = list(range(1, n + 1))
    c1, c2 = _dense_chart(rng, n, interior), _dense_chart(rng, n, interior)
    cb = _dense_chart(rng, n, sorted(rng.sample(interior, n // 2)))
    h = sample_P_x_generators(cb.x, 1, 2, ctx, seed=n)[0]
    for a, b, expect in ((c1, c2, False), (cb, ChartPoint(mat_mul(cb.g, h), cb.x), True)):
        sizes.clear()
        assert chart_equivalent(a, b, ctx) is expect
        rows, _ = arith_module._integer_rows([[*r1, *r2] for r1, r2 in zip(a.g, b.g)])
        hadamard = _hadamard_bits(rows)
        assert sizes and max(sizes) <= hadamard, (sizes, hadamard)


def _hadamard_bits(rows):
    # bit length bound on every minor of the rows: the product of their lengths
    return math.floor(sum(math.log2(sum(x * x for x in row)) for row in rows) / 2) + 1


def _dense_member(rng, n, piece):
    # the block on the piece is I + 3 * (entries in -2..2), a p-adic unit for
    # p = 3, the rows on the piece are 0 off it, and the other rows are dense
    return tuple(
        tuple(Fraction(int(i == j) + 3 * rng.randint(-2, 2)) if j in piece else Fraction(0)
              for j in range(1, n + 1)) if i in piece else tuple(_dense(rng, n))
        for i in range(1, n + 1))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_the_stabilizer_test_keeps_each_block_within_its_own_minors(n, monkeypatch):
    # the rows on the piece are 0 off it, so the class test passes over the two
    # diagonal blocks of the integer G apart; every entry of a pass is a minor
    # of its own block, where one pass over all of G multiplies the piece
    # block's determinant into the entries off the piece
    passes = []

    def recording(rows, *args, **kwargs):
        block = tuple(map(tuple, rows))
        out = arith_module._eliminate(rows, *args, **kwargs)
        passes.append((block, max(abs(a).bit_length() for row in rows for a in row)))
        return out

    monkeypatch.setattr(building_module, "_eliminate", recording)
    rng = random.Random(n)
    piece = sorted(rng.sample(range(1, n + 1), n // 2))
    off = [i for i in range(1, n + 1) if i not in piece]
    g = _dense_member(rng, n, piece)
    assert in_stabilizer_P_x(g, apartment_point(piece, [0] * len(piece)), PrimeContext(3, n))
    (flat,), _ = arith_module._integer_rows([[a for row in g for a in row]])
    bounds = {}
    for ix in (piece, off):
        block = tuple(tuple(flat[(i - 1) * n + j - 1] for j in ix) for i in ix)
        bounds[block] = _hadamard_bits(block)
    reached = [(bits, bounds.get(block)) for block, bits in passes]
    assert len(reached) == 2 and all(b is not None and bits <= b for bits, b in reached), (
        reached, sorted(bounds.values()))


def test_unipotent_matrix_refuses_a_root_outside_the_dimension():
    with pytest.raises(DomainError, match="outside 1..2"):
        unipotent_matrix(ElementaryUnipotent(Root(1, 3), Fraction(1)), 2)
    with pytest.raises(DomainError, match="outside 1..3"):
        unipotent_matrix(ElementaryUnipotent(Root(0, 2), Fraction(1)), 3)


def test_sampler_refuses_a_point_outside_the_dimension():
    with pytest.raises(DomainError, match=r"^piece \(1, 2, 3\) does not fit dimension 2$"):
        sample_P_x_generators(interior_point([0, 1, 2]), 1, 1, PrimeContext(2, 2))
