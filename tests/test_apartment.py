import random
import re
from fractions import Fraction

import pytest

from padicbuilding import (
    INF,
    PrimeContext,
    Root,
    act_monomial,
    apartment_point,
    dual_flip,
    f_point,
    f_sigma,
    gamma_membership,
    interior_point,
    monomial_compose,
    monomial_element,
    monomial_identity,
    monomial_inverse,
    monomial_matrix,
    nu_translation,
    open_box,
    ray_limit,
    root_eval,
    s_project,
)
from padicbuilding.errors import (
    DomainError,
    IndexOutsidePieceError,
    NotSubPieceError,
    ZeroDiagonalError,
)

from randgen import rand_direction, rand_fraction, rand_monomial, rand_point, rand_vector

CTX = PrimeContext(2, 3)


def test_gauge_normalization():
    x = apartment_point([2, 1], [5, 3])
    assert x.piece == (1, 2)
    assert x.exponents == (Fraction(0), Fraction(2))
    y = apartment_point([1, 3], [Fraction(1, 2), 1])
    assert y.exponents == (0, Fraction(1, 2))
    with pytest.raises(DomainError):
        apartment_point([], [])
    with pytest.raises(DomainError):
        apartment_point([1, 1], [0, 0])


def test_apartment_point_refuses_unequal_piece_and_exponent_lengths():
    # zip would silently truncate the longer of the two
    with pytest.raises(DomainError, match="^piece has 3 indices but 2 exponents$"):
        apartment_point([1, 2, 3], [0, 1])
    with pytest.raises(DomainError, match="^piece has 2 indices but 3 exponents$"):
        apartment_point([1, 2], [0, 1, 5])


def test_gauge_matches_the_always_subtracting_normalization():
    # int, Fraction and mixed exponents, with zero and nonzero gauges at min(I)
    rng = random.Random(14)
    cases = [([1, 2, 3], [0, 2, -1]), ([3, 1], [2, Fraction(-7, 3)]), ([2], [4]),
             ([2, 4], [Fraction(0), 5]), ([1, 3], [Fraction(1, 2), Fraction(1)])]
    for _ in range(300):
        piece = rng.sample(range(1, 7), rng.randint(1, 6))
        cases.append((piece, [rng.choice([rng.randint(-3, 3), rand_fraction(rng)])
                              if rng.random() < 0.8 else 0 for _ in piece]))
    for piece, exps in cases:
        pairs = sorted(zip(piece, exps))
        x = apartment_point(piece, exps)
        assert x.exponents == tuple(Fraction(t) - Fraction(pairs[0][1]) for _, t in pairs)
        assert all(type(t) is Fraction for t in x.exponents)


def test_root_eval_examples():
    x = interior_point([0, 1])
    assert root_eval(Root(1, 2), x) == -1
    assert root_eval(Root(1, 2), interior_point([3, 3])) == 0
    x3 = interior_point([0, 1, 2])
    assert root_eval(Root(3, 1), x3) == 2
    with pytest.raises(IndexOutsidePieceError):
        root_eval(Root(1, 2), apartment_point([1], [0]))
    with pytest.raises(DomainError):
        Root(2, 2)


@pytest.mark.parametrize("i, j", [(True, 2), (2, 1.0), ("1", 2), ([1], 2)],
                         ids=["bool", "float", "str", "unhashable"])
def test_a_root_takes_only_int_indices(i, j):
    # True and 1.0 passed checked(n) and built a unipotent matrix; [1] escaped checked(n) as a
    # bare TypeError
    message = re.escape(f"root needs int indices, got ({i!r}, {j!r})")
    with pytest.raises(DomainError, match=f"^{message}$") as caught:
        Root(i, j)
    assert type(caught.value) is DomainError


def test_nu_translation_examples():
    m = nu_translation([2, 1], PrimeContext(2, 2))
    assert m.perm == (1, 2)
    assert m.trans == (Fraction(0), Fraction(1))
    # scalar diagonals act trivially in PGL
    c = nu_translation([6, 6, 6], PrimeContext(3, 3))
    assert c.trans == (0, 0, 0)
    m2 = nu_translation([1, 4], PrimeContext(2, 2))
    assert m2.trans == (Fraction(0), Fraction(-2))
    with pytest.raises(ZeroDiagonalError):
        nu_translation([1, 0], PrimeContext(2, 2))


def test_nu_translation_refuses_a_size_mismatch():
    with pytest.raises(DomainError, match="diagonal has 3 entries, expected 2"):
        nu_translation([2, 4, 8], PrimeContext(2, 2))


def test_act_monomial_examples():
    w = monomial_element([2, 1], [0, 0])
    x = interior_point([0, 1])
    assert act_monomial(w, x) == interior_point([0, -1])
    assert act_monomial(monomial_identity(2), x) == x
    assert act_monomial(w, apartment_point([1], [0])).piece == (2,)


def test_act_monomial_refuses_a_piece_outside_its_size():
    w = monomial_element([2, 1], [0, 0])
    with pytest.raises(DomainError, match="size 2"):
        act_monomial(w, interior_point([0, 1, 2]))
    with pytest.raises(DomainError, match="size 2"):
        act_monomial(w, apartment_point([3], [0]))


def test_monomial_element_refuses_a_non_integral_permutation():
    with pytest.raises(DomainError, match=r"^not a permutation of 1\.\.2: \(1\.9, 2\.2\)$"):
        monomial_element([1.9, 2.2], [0, 0])
    for perm in ([Fraction(3, 2), 2], [1, Fraction(5, 2), 3], ["3/2", 1]):
        with pytest.raises(DomainError, match="not a permutation"):
            monomial_element(perm, [0] * len(perm))
    # integral values of other types still read as the permutation they name
    m = monomial_element([2.0, Fraction(1), "3", "4.0"], [0, 0, 0, 0])
    assert m.perm == (2, 1, 3, 4) and all(type(w) is int for w in m.perm)


def test_a_piece_or_a_permutation_takes_only_integer_indices():
    # an index below 1 is refused too, named as given
    for piece, shown in (([1, 2.5], r"\(1, 2\.5\)"), ([True, 2], r"\(True, 2\)"),
                         ([2, "1"], r"\(2, '1'\)"), ([0, 1], r"\(0, 1\)"),
                         ([2, 0], r"\(2, 0\)")):
        with pytest.raises(DomainError, match=rf"^invalid piece {shown}$"):
            apartment_point(piece, [0, 1])
    # a string is not read as its characters, as no piece reader reads it so
    with pytest.raises(DomainError, match="^not a sequence of entries: '12'$"):
        apartment_point("12", [0, 1])
    for perm in ("21", b"21", 21):
        with pytest.raises(DomainError, match="^not a sequence of entries: "):
            monomial_element(perm, [0, 0])
    assert apartment_point([2, 1], [1, 0]) == apartment_point((1, 2), [0, 1])


def test_open_box_refuses_an_interval_that_is_not_a_pair():
    # a string is refused, not read as its characters
    for ivs in ([(0, 1, 2)], [(0, 1), (0,)], [()], ["12", (0, 5)], [(0, 5), b"12"]):
        with pytest.raises(DomainError, match=r"^every interval must be a pair \(lo, hi\)$"):
            open_box(ivs)


def test_entry_points_take_fractions_as_they_are_and_convert_the_rest():
    ctx = PrimeContext(3, 2)
    third = Fraction(1, 3)
    assert open_box([(third, 1)]).intervals[0][0] is third
    assert open_box([("1/3", 1.0)]) == open_box([(third, Fraction(1))])
    assert monomial_element([1, 2], [third, 1]).trans == (0, Fraction(2, 3))
    assert monomial_element([1, 2], ["0", "1/3"]) == monomial_element([1, 2], [0, third])
    assert nu_translation([third, "9/2"], ctx) == nu_translation([Fraction(1, 3), Fraction(9, 2)], ctx)
    assert nu_translation([third, 9], ctx).trans == (0, -3)
    x0 = interior_point([0, 1, 2])
    assert ray_limit(x0, [third, "1/3", 1]) == ray_limit(x0, [third, third, Fraction(1)])


def test_monomial_compose_refuses_a_size_mismatch():
    with pytest.raises(DomainError, match="^size mismatch$"):
        monomial_compose(monomial_identity(2), monomial_identity(3))


def test_monomial_group_law():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 5)
        m1 = rand_monomial(rng, n, integral=False)
        m2 = rand_monomial(rng, n, integral=False)
        x = rand_point(rng, n)
        assert act_monomial(monomial_compose(m1, m2), x) == \
            act_monomial(m1, act_monomial(m2, x))
        inv = monomial_inverse(m1)
        assert monomial_compose(m1, inv) == monomial_identity(n)
        assert act_monomial(inv, act_monomial(m1, x)) == x


def test_monomial_matrix_requires_integrality():
    m = monomial_element([1, 2], [0, Fraction(1, 2)])
    with pytest.raises(DomainError):
        monomial_matrix(m, PrimeContext(2, 2))


def test_monomial_matrix_refuses_an_element_of_another_size():
    m = monomial_element([2, 1, 3], [0, 1, 2])
    with pytest.raises(DomainError, match="^monomial element has size 3, expected 2$"):
        monomial_matrix(m, PrimeContext(2, 2))
    assert len(monomial_matrix(m, PrimeContext(2, 3))) == 3


def test_s_project_examples():
    x = interior_point([0, 1, 2])
    assert s_project(x, [1, 2]) == apartment_point([1, 2], [0, 1])
    assert s_project(x, [1, 2, 3]) == x
    assert s_project(x, [2]) == apartment_point([2], [0])
    with pytest.raises(NotSubPieceError):
        s_project(apartment_point([1, 2], [0, 1]), [3])
    with pytest.raises(NotSubPieceError):
        s_project(x, [])


def test_projection_permutation_compatibility():
    # w o s_I = s_w(I) o w
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(2, 5)
        x = rand_point(rng, n, interior=True)
        size = rng.randint(1, n)
        sub = sorted(rng.sample(range(1, n + 1), size))
        w = rand_monomial(rng, n)
        w = monomial_element(w.perm, [0] * n)
        lhs = act_monomial(w, s_project(x, sub))
        rhs = s_project(act_monomial(w, x), [w.apply_index(i) for i in sub])
        assert lhs == rhs


def test_dual_flip():
    assert dual_flip(interior_point([0, 1])) == interior_point([0, -1])
    zero = interior_point([0, 0, 0])
    assert dual_flip(zero) == zero
    rng = random.Random(4)
    for _ in range(100):
        x = rand_point(rng, rng.randint(2, 5))
        assert dual_flip(dual_flip(x)) == x


def test_ray_limit_examples():
    x0 = interior_point([0, 0, 0])
    assert ray_limit(x0, [0, 0, 1]) == apartment_point([1, 2], [0, 0])
    x1 = interior_point([1, 2, 3])
    assert ray_limit(x1, [7, 7, 7]) == x1
    assert ray_limit(x1, [1, 2, 3]) == apartment_point([1], [0])
    with pytest.raises(DomainError):
        ray_limit(apartment_point([1, 2], [0, 0]), [0, 0, 1])


def test_point_operations_build_what_apartment_point_builds():
    # each operation builds its result from (index, exponent) pairs it has already checked;
    # the public reader, given the same pairs, must build the same point
    rng = random.Random(28)
    for _ in range(2000):
        n = rng.randint(2, 6)
        x = rand_point(rng, n, den=9)
        m = rand_monomial(rng, n, integral=False, den=9)
        sub = rng.sample(x.piece, rng.randint(1, len(x.piece)))
        x0 = rand_point(rng, n, interior=True, den=9)
        d = rand_vector(rng, n, 2, 9)
        cases = [
            (act_monomial(m, x), [(m.apply_index(i), x.exponent(i) + m.trans[m.apply_index(i) - 1])
                                  for i in x.piece]),
            (s_project(x, sub), [(i, x.exponent(i)) for i in sub]),
            (dual_flip(x), [(i, -x.exponent(i)) for i in x.piece]),
            (ray_limit(x0, d), [(i, x0.exponent(i)) for i in x0.piece if d[i - 1] == min(d)]),
        ]
        for got, pairs in cases:
            rng.shuffle(pairs)
            want = apartment_point([i for i, _ in pairs], [t for _, t in pairs])
            assert got.piece == want.piece and got.exponents == want.exponents
            assert all(type(i) is int for i in got.piece)
            assert all(type(t) is Fraction for t in got.exponents)
            assert got.exponents[0] == 0


def test_ray_limit_refuses_a_base_point_larger_than_the_direction():
    # an interior base point used to be called a boundary one
    with pytest.raises(DomainError, match=r"^direction has 2 entries, base point piece \(1, 2, 3\) needs 3$"):
        ray_limit(interior_point([0, 1, 2]), [1, 2])
    with pytest.raises(DomainError, match=r"^direction has 3 entries, base point piece \(2, 4\) needs 4$"):
        ray_limit(apartment_point([2, 4], [0, 1]), [0, 0, 1])


def test_f_point_examples():
    x = interior_point([0, 1])
    assert f_point(x, Root(1, 2)) == 1
    assert f_point(x, Root(2, 1)) == -1
    b = apartment_point([1], [0])
    assert f_point(b, Root(2, 1)) == -INF
    assert f_point(b, Root(1, 2)) == INF


def test_f_sigma_examples():
    x = interior_point([0, 1])
    assert f_sigma([x], Root(1, 2)) == f_point(x, Root(1, 2))
    y = interior_point([0, 0])
    assert f_sigma([y, x], Root(1, 2)) == 1
    b = apartment_point([1], [0])
    assert f_sigma([x, b], Root(1, 2)) == INF
    with pytest.raises(DomainError):
        f_sigma([], Root(1, 2))


def test_f_sigma_monotone():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 4)
        pts = [rand_point(rng, n) for _ in range(4)]
        a = Root(*rng.sample(range(1, n + 1), 2))
        assert f_sigma(pts[:2], a) <= f_sigma(pts, a)


def test_f_point_permutation_equivariance():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 5)
        x = rand_point(rng, n)
        i, j = rng.sample(range(1, n + 1), 2)
        w = rand_monomial(rng, n)
        w = monomial_element(w.perm, [0] * n)
        lhs = f_point(act_monomial(w, x), Root(w.apply_index(i), w.apply_index(j)))
        assert lhs == f_point(x, Root(i, j))


def test_gamma_membership_examples():
    # n=2, I={1}, box x_2 in (-1, 1)
    box = open_box([(-1, 1)])
    assert gamma_membership(interior_point([0, 5]), box, [1]) is True
    assert gamma_membership(interior_point([0, -5]), box, [1]) is False
    assert gamma_membership(apartment_point([1], [0]), box, [1]) is True
    # reachable boundary point by construction: s_I(u + delta) for u = center
    box3 = open_box([(0, 2), (0, 2)])
    y = apartment_point([1, 2], [0, 1])
    assert gamma_membership(y, box3, [1, 2]) is True
    # piece not containing I
    assert gamma_membership(apartment_point([2], [0]), box, [1]) is False
    with pytest.raises(DomainError):
        gamma_membership(interior_point([0, 0]), box, [1, 2])
    with pytest.raises(DomainError):
        gamma_membership(interior_point([0, 0]), box, [])


def test_gamma_membership_box_edges_are_strict():
    # I = {1,2}: the x_2 coordinate must lie strictly inside the interval
    box = open_box([(0, 2), (-9, 9)])
    inside = apartment_point([1, 2], [0, 1])
    edge = apartment_point([1, 2], [0, 2])
    assert gamma_membership(inside, box, [1, 2]) is True
    assert gamma_membership(edge, box, [1, 2]) is False


GAMMA_Y, GAMMA_BOX = interior_point([0, 1, 2]), open_box([(0, 1), (0, 1)])


def test_gamma_membership_refuses_an_unhashable_piece():
    # it escaped as a bare TypeError from building the index set
    with pytest.raises(DomainError, match=r"^invalid piece \(\[1\],\)$"):
        gamma_membership(GAMMA_Y, GAMMA_BOX, [[1]])


def test_gamma_membership_refuses_a_bool_index():
    # True == 1 passed the subset test and answered True
    with pytest.raises(DomainError, match=r"^invalid piece \(True,\)$"):
        gamma_membership(GAMMA_Y, GAMMA_BOX, [True])
    assert gamma_membership(GAMMA_Y, GAMMA_BOX, [1]) is True


def test_gamma_membership_refuses_a_float_index():
    # 1.0 == 1 passed the subset test and answered True
    with pytest.raises(DomainError, match=r"^invalid piece \(1\.0,\)$"):
        gamma_membership(GAMMA_Y, GAMMA_BOX, [1.0])


def test_gamma_membership_accepts_constructed_witnesses():
    # any point assembled as s_J(u + delta) from a box element must be a member
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 5)
        centers = [rand_fraction(rng) for _ in range(n - 1)]
        box = open_box([(c - rng.randint(1, 3), c + rng.randint(1, 3))
                        for c in centers])
        size = rng.randint(1, n - 1)
        piece = sorted(rng.sample(range(1, n + 1), size))
        u = [Fraction(0)] + [c + Fraction(rng.randint(-1, 1), 2) for c in centers]
        delta = [Fraction(0) if i in piece else Fraction(rng.randint(0, 5))
                 for i in range(1, n + 1)]
        sup = sorted(set(piece) | {i for i in range(1, n + 1) if rng.random() < 0.5})
        y = s_project(interior_point([a + b for a, b in zip(u, delta)]), sup)
        assert gamma_membership(y, box, piece) is True


def _tail_threshold(x0, d, box, piece):
    # s beyond which the off-J constraints of the box system are slack
    dmin = min(d)
    bound = max(abs(hi) + abs(lo) for lo, hi in box.intervals) \
        + max(abs(e) for e in x0.exponents) + 1
    gaps = [d[j - 1] - dmin for j in range(1, len(d) + 1) if d[j - 1] > dmin]
    return int(2 * bound / min(gaps)) + 1 if gaps else 1


def test_ray_limit_consistent_with_gamma_membership():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(3, 4)
        x0 = rand_point(rng, n, interior=True)
        d = rand_direction(rng, n)
        limit = ray_limit(x0, d)
        big = set(limit.piece)
        size = rng.randint(1, len(big))
        sub = sorted(rng.sample(sorted(big), size))
        if len(sub) == n:
            continue
        centers = [rand_fraction(rng) for _ in range(n - 1)]
        box = open_box([(c - rng.randint(1, 4), c + rng.randint(1, 4))
                        for c in centers])
        s0 = _tail_threshold(x0, d, box, sub)
        at = lambda s: interior_point([e + s * t for e, t in zip(x0.exponents, d)])
        member_limit = gamma_membership(limit, box, sub)
        member_tail = gamma_membership(at(s0), box, sub)
        assert member_limit == member_tail
        # membership along the ray is monotone: once in, stays in
        states = [gamma_membership(at(s), box, sub) for s in range(1, 8)]
        for a, b in zip(states, states[1:]):
            assert b or not a


def test_gamma_membership_rejects_piece_outside_dimension():
    box = open_box([(-1, 1), (-1, 1)])
    with pytest.raises(DomainError):
        gamma_membership(apartment_point([1, 7], [0, 1]), box, [1])


# ---------------------------------------------------------------------------
# Fourier-Motzkin reference oracle for gamma_membership
# ---------------------------------------------------------------------------

def _fm_feasible(constraints, nvars):
    # Fourier-Motzkin elimination; constraints are (coeffs, rhs, strict)
    # meaning sum(coeffs * x) <= rhs, strict for "<".
    cons = [(tuple(c), Fraction(r), s) for c, r, s in constraints]
    for v in range(nvars):
        uppers, lowers, rest = [], [], []
        for c, r, s in cons:
            if c[v] > 0:
                uppers.append((c, r, s))
            elif c[v] < 0:
                lowers.append((c, r, s))
            else:
                rest.append((c, r, s))
        cons = rest
        for cu, ru, su in uppers:
            au = cu[v]
            for cl, rl, sl in lowers:
                al = cl[v]
                coeffs = tuple(au * cl[k] - al * cu[k] for k in range(nvars))
                cons.append((coeffs, au * rl - al * ru, su or sl))
    return all(r > 0 if s else r >= 0 for _, r, s in cons)


def fm_gamma_membership(y, box, piece, strict=True):
    """The basic-open system of gamma_membership, solved by Fourier-Motzkin.

    Variables x[i-2] = u_i for i in 2..n (u_1 = 0) and x[n-1] = c, the
    gauge constant.  The u_i are eliminated before c, which keeps the
    elimination small; the answer does not depend on the order.  With
    strict=False the box is closed, so the system describes the closure.
    """
    n = box.n
    if not set(piece) <= set(y.piece):
        return False
    cons = []

    def coeffs(i, sign, with_c=False):
        c = [Fraction(0)] * n
        if i >= 2:
            c[i - 2] = Fraction(sign)
        if with_c:
            c[n - 1] = Fraction(sign)
        return c

    for k, (lo, hi) in enumerate(box.intervals):
        cons.append((coeffs(k + 2, -1), -lo, strict))        # u_i > lo
        cons.append((coeffs(k + 2, +1), hi, strict))         # u_i < hi
    for j in y.piece:
        yj = y.exponent(j)
        cons.append((coeffs(j, +1, True), yj, False))        # u_j + c <= y_j
        if j in piece:
            cons.append((coeffs(j, -1, True), -yj, False))   # u_j + c >= y_j
    return _fm_feasible(cons, n)


def _gamma_instance(rng):
    # u near the box (inside and out), drift of either sign off I, quarter
    # steps so that points on the strict bounds occur
    n = rng.randint(2, 5)
    ivs = []
    for _ in range(n - 1):
        lo = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
        ivs.append((lo, lo + Fraction(rng.randint(1, 12), rng.choice([1, 2, 4]))))
    i_set = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    extra = [i for i in range(1, n + 1) if i not in i_set and rng.random() < 0.5]
    piece = sorted(i_set + extra)
    u = [Fraction(0)] + [lo + (hi - lo) * Fraction(rng.randint(-2, 10), 8) for lo, hi in ivs]
    c = Fraction(rng.randint(-8, 8), 2)
    coords = [u[i - 1] + c + (0 if i in i_set else Fraction(rng.randint(-4, 12), 4))
              for i in piece]
    return apartment_point(piece, coords), open_box(ivs), i_set


def test_gamma_membership_matches_fourier_motzkin():
    rng = random.Random(5)
    answers = []
    for _ in range(3000):
        y, box, i_set = _gamma_instance(rng)
        member = gamma_membership(y, box, i_set)
        assert member == fm_gamma_membership(y, box, i_set), (y, box, i_set)
        one = "in I" if 1 in i_set else "in piece" if 1 in y.piece else "outside"
        answers.append((member, one, y.piece == tuple(i_set)))
    # both answers occur for every position of index 1 and both piece shapes
    for one in ("in I", "in piece", "outside"):
        for equal in (True, False):
            if one == "in piece" and equal:
                continue
            assert {m for m, o, e in answers if o == one and e == equal} == {True, False}


def _coprime_gamma_instance(rng):
    # denominators 1..9, so the common denominator is seldom a power of 2;
    # u takes a box end and the drift is 0 often enough that y lands exactly
    # on a strict bound
    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 9))

    n = rng.randint(2, 5)
    ivs = []
    for _ in range(n - 1):
        lo = frac(-9, 9)
        ivs.append((lo, lo + frac(1, 9)))
    i_set = sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    extra = [i for i in range(1, n + 1) if i not in i_set and rng.random() < 0.5]
    piece = sorted(i_set + extra)
    u = [Fraction(0)] + [rng.choice((lo, hi, lo + (hi - lo) * frac(-2, 10))) for lo, hi in ivs]
    c = frac(-9, 9)
    coords = [u[i - 1] + c + (0 if i in i_set else rng.choice((0, frac(-9, 9)))) for i in piece]
    return apartment_point(piece, coords), open_box(ivs), i_set


def test_gamma_membership_matches_fourier_motzkin_on_coprime_denominators():
    rng = random.Random(9)
    answers = []
    for _ in range(2000):
        y, box, i_set = _coprime_gamma_instance(rng)
        member = gamma_membership(y, box, i_set)
        assert member == fm_gamma_membership(y, box, i_set), (y, box, i_set)
        # in the closure but not in Gamma: y lies exactly on a strict bound
        edge = not member and fm_gamma_membership(y, box, i_set, strict=False)
        one = "in I" if 1 in i_set else "in piece" if 1 in y.piece else "outside"
        answers.append((member, one, edge))
    # both answers, and points on a strict bound, for every position of index 1
    for one in ("in I", "in piece", "outside"):
        assert {m for m, o, _ in answers if o == one} == {True, False}
        assert sum(e for _, o, e in answers if o == one) >= 40
