import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicbuilding import (
    INF,
    ElementaryUnipotent,
    LogValue,
    PrimeContext,
    Root,
    abs_k,
    apartment_point,
    diagonal_seminorm,
    evaluate,
    f_sigma,
    fixes_pointwise,
    gamma_membership,
    in_U_a_sigma,
    interior_point,
    k_rank,
    l_add,
    l_from_k,
    l_mul,
    l_pi,
    l_scalar,
    l_scale,
    monomial_element,
    monomial_identity,
    nu_translation,
    open_box,
    orthogonalize,
    phi_from_apartment,
    ray_limit,
    s_project,
    sigma_project,
    solve_linear,
    val_k,
    val_l,
)
from padicbuilding.arith import (
    _PRIME_LIMIT,
    ZERO_VALUE,
    LScalar,
    _eliminate,
    _int_val,
    _is_prime,
    _integer_rows,
    _inverse_parts,
    _kernel_and_pivots,
    identity,
    l_is_zero,
    l_sub,
    mat,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    reduced_echelon,
    vec,
    vec_add,
    vec_sub,
)
from padicbuilding.errors import DomainError, SingularMatrixError

from randgen import rand_fraction, rand_lscalar

CTX2 = PrimeContext(2, 2)
CTX3 = PrimeContext(3, 2)
CTX22 = PrimeContext(2, 2, 2)


def test_prime_context_validation():
    with pytest.raises(ValueError):
        PrimeContext(4, 2)
    with pytest.raises(ValueError):
        PrimeContext(2, 1)
    with pytest.raises(ValueError):
        PrimeContext(2, 2, 0)
    assert CTX2.q == 2


@pytest.mark.parametrize("args", [(2, 2.5), (2, 2, 1.5), (2.5, 2), (2, Fraction(2)), (True, 2),
                                  (2, True), (2, 2, True), ("2", 2), (Fraction(2), 2), (2, 2, None)])
def test_prime_context_refuses_a_parameter_that_is_not_an_int(args):
    # refused before the primality test runs, which would take pow of a non-int
    with pytest.raises(ValueError, match=r"^p, n and e must be integers, got "):
        PrimeContext(*args)


def test_val_k_examples():
    assert val_k(12, CTX2) == 2
    assert val_k(0, CTX2) == INF
    assert val_k(Fraction(1, 3), CTX3) == -1


def test_val_k_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_fraction(rng, 20, 9)
        b = rand_fraction(rng, 20, 9)
        if a == 0 or b == 0:
            continue
        assert val_k(a * b, CTX3) == val_k(a, CTX3) + val_k(b, CTX3)
    assert val_k(3, CTX3) == 1


def test_abs_k_examples():
    assert abs_k(12, CTX2) == LogValue.finite(-2)
    assert abs_k(0, CTX2) == LogValue.zero()
    assert abs_k(1, CTX2) == LogValue.finite(0)


def test_abs_k_ultrametric_bulk():
    # multiplicative, and |a+b| <= max with equality on distinct values
    for p in (2, 3, 5):
        ctx = PrimeContext(p, 2)
        rng = random.Random(p)
        for _ in range(3500):
            a = rand_fraction(rng, 30, 12)
            b = rand_fraction(rng, 30, 12)
            assert abs_k(a * b, ctx) == abs_k(a, ctx) * abs_k(b, ctx)
            m = max(abs_k(a, ctx), abs_k(b, ctx))
            s = abs_k(a + b, ctx)
            assert not m < s
            if abs_k(a, ctx) != abs_k(b, ctx):
                assert s == m


def test_logvalue_ordering_and_power():
    z = LogValue.zero()
    one = LogValue.finite(0)
    small = LogValue.finite(Fraction(-3, 2))
    assert z < small < one
    assert max(z, one, small) == one
    assert small * one == small
    assert small ** 2 == LogValue.finite(-3)
    assert z ** 3 == z
    assert z ** 0 == one
    assert small.shift(Fraction(3, 2)) == one
    assert z.shift(5) == z


def test_val_l_examples():
    assert val_l(l_scalar([1, 1], CTX22), CTX22) == 0
    assert val_l(l_scalar([2, 1], CTX22), CTX22) == Fraction(1, 2)
    assert val_l(l_scalar([0, 0], CTX22), CTX22) == INF


def test_l_field_op_examples():
    pi = l_pi(CTX22)
    assert l_mul(pi, pi, CTX22) == l_scalar([2, 0], CTX22)
    a = l_scalar([1, 1], CTX22)
    b = l_scalar([1, -1], CTX22)
    assert l_mul(a, b, CTX22) == l_from_k(-1, CTX22)


def test_l_mul_ring_laws():
    rng = random.Random(5)
    for e in (1, 2, 3, 4):
        ctx = PrimeContext(3, 2, e)
        for _ in range(40):
            z, w, u = (l_scalar([rand_fraction(rng) for _ in range(e)], ctx) for _ in range(3))
            c = rand_fraction(rng)
            assert l_mul(z, w, ctx) == l_mul(w, z, ctx)
            assert l_mul(l_mul(z, w, ctx), u, ctx) == l_mul(z, l_mul(w, u, ctx), ctx)
            assert l_mul(z, l_add(w, u), ctx) == l_add(l_mul(z, w, ctx), l_mul(z, u, ctx))
            assert l_mul(z, l_from_k(c, ctx), ctx) == l_scale(c, z)


def test_val_l_multiplicative():
    rng = random.Random(7)
    for p, e in ((2, 2), (3, 3), (5, 4)):
        ctx = PrimeContext(p, 2, e)
        for _ in range(300):
            z = l_scalar([rand_fraction(rng) for _ in range(e)], ctx)
            w = l_scalar([rand_fraction(rng) for _ in range(e)], ctx)
            if l_is_zero(z) or l_is_zero(w):
                continue
            assert val_l(l_mul(z, w, ctx), ctx) == val_l(z, ctx) + val_l(w, ctx)


def test_val_l_extends_val_k():
    rng = random.Random(13)
    ctx = PrimeContext(5, 2, 3)
    for _ in range(100):
        c = rand_fraction(rng, 30, 12)
        assert val_l(l_from_k(c, ctx), ctx) == val_k(c, ctx)


def test_solve_linear_examples():
    b = (Fraction(3), Fraction(-2))
    assert solve_linear(identity(2), b) == b
    m = mat([[1, 1], [0, 1]])
    assert solve_linear(m, (0, 1)) == (Fraction(-1), Fraction(1))
    m2 = mat([[2, 0], [0, 1]])
    assert solve_linear(m2, (1, 0)) == (Fraction(1, 2), Fraction(0))
    with pytest.raises(SingularMatrixError):
        solve_linear(mat([[1, 2], [2, 4]]), (1, 0))


def test_solve_linear_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 5)
        while True:
            m = mat([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
            if mat_det(m) != 0:
                break
        b = tuple(rand_fraction(rng) for _ in range(n))
        assert mat_vec(m, solve_linear(m, b)) == b
        assert mat_mul(m, mat_inverse(m)) == identity(n)


def test_k_rank_examples():
    one = l_from_k(1, CTX22)
    pi = l_pi(CTX22)
    assert k_rank([one, pi], CTX22) == 2
    assert k_rank([one, one], CTX22) == 1
    z1 = l_scalar([1, 1], CTX22)
    z2 = l_scalar([2, 2], CTX22)
    assert k_rank([z1, z2], CTX22) == 1


def test_rank_and_nullspace():
    m = mat([[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    ns = nullspace(m)
    assert len(ns) == 2
    for v in ns:
        assert mat_vec(m, v) == (0, 0)


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _rand_rank_matrix(rng, rows, cols, r):
    # product of a rows x r and an r x cols factor: rank at most r
    a = [[rand_fraction(rng) for _ in range(r)] for _ in range(rows)]
    b = [[rand_fraction(rng) for _ in range(cols)] for _ in range(r)]
    return mat_mul(mat(a), mat(b)) if r else mat([[0] * cols for _ in range(rows)])


def test_elimination_derived_functions():
    rng = random.Random(21)
    seen = set()
    for trial in range(180):
        kind = trial % 3
        n = rng.randint(1, 6)
        if kind == 0:                                  # square, usually invertible
            m = mat([[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
        elif kind == 1:                                # square, rank deficient
            m = _rand_rank_matrix(rng, n, n, rng.randint(0, n - 1))
        else:                                          # rectangular
            rows = rng.choice([k for k in range(1, 7) if k != n])
            m = _rand_rank_matrix(rng, rows, n, rng.randint(0, min(rows, n)))
        nrows, ncols = len(m), len(m[0])
        r = rank(m)
        if nrows == ncols:
            det = mat_det(m)
            assert det == _cofactor_det(m)
            assert (det != 0) == (r == n)
            if det != 0:
                assert mat_mul(mat_inverse(m), m) == identity(n)
                seen.add("invertible")
            else:
                with pytest.raises(SingularMatrixError):
                    mat_inverse(m)
                seen.add("singular")
        else:
            seen.add("rectangular")
        echelon = reduced_echelon(m)
        assert len(echelon) == r
        assert reduced_echelon(echelon) == echelon
        assert rank(list(m) + echelon) == r
        ns = nullspace(m)
        assert len(ns) == ncols - r
        assert rank(ns) == len(ns)
        for x in ns:
            assert mat_vec(m, x) == (0,) * nrows
    assert seen == {"invertible", "singular", "rectangular"}


def _reference_pivot_columns(m):
    # the Gauss-Jordan pivot search seminorm.pullback_from_functional once had
    rows = [list(r) for r in m]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def test_kernel_and_pivots_on_functional_matrices():
    rng = random.Random(8)
    for _ in range(200):
        n, e = rng.randint(2, 4), rng.randint(1, 4)
        ctx = PrimeContext(rng.choice([2, 3, 5]), n, e)
        zs = [rand_lscalar(rng, ctx) for _ in range(n)]
        zmat = mat([[zs[i].coeffs[j] for i in range(n)] for j in range(e)])
        ker, pivots = _kernel_and_pivots(zmat)
        assert pivots == _reference_pivot_columns(zmat)
        assert ker == nullspace(zmat)


def test_degenerate_arguments_are_refused():
    with pytest.raises(ValueError, match="^negative powers not supported$"):
        LogValue.finite(1) ** -1
    with pytest.raises(DomainError, match="^k_rank of empty family$"):
        k_rank([], CTX22)
    with pytest.raises(DomainError, match="^right-hand side has 3 entries, expected 2$"):
        solve_linear(identity(2), (1, 2, 3))
    with pytest.raises(DomainError, match="^matrix is not square$"):
        solve_linear([[1, 2, 3], [4, 5, 6]], (1, 2))
    with pytest.raises(DomainError, match="^nullspace of empty matrix$"):
        nullspace([])


def test_matrix_helpers_reject_length_mismatch():
    with pytest.raises(ValueError):
        mat_vec(identity(2), (1, 2, 3))
    with pytest.raises(ValueError):
        mat_vec(identity(3), (1, 2))
    with pytest.raises(ValueError):
        mat_mul(identity(2), identity(3))
    with pytest.raises(ValueError):
        vec_add((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        vec_sub((1, 2, 3), (1,))
    assert vec_sub((1, 2, 3), (1, 1, 1)) == (0, 1, 2)


def test_a_ragged_matrix_is_a_domain_error():
    from padicbuilding.building import sigma_project

    with pytest.raises(DomainError, match="ragged matrix"):
        mat([[1, 0], [0]])
    with pytest.raises(DomainError, match="ragged matrix"):
        sigma_project([[1, 0], [0]], [1])
    for family in ([[1, 2, 3], [4, 5]], [(1, 2), (3,)]):
        for fn in (rank, reduced_echelon, nullspace):
            with pytest.raises(DomainError, match="^ragged matrix$"):
                fn(family)


def test_determinant_and_inverse_refuse_a_non_square_matrix():
    for m in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(DomainError, match="^matrix is not square$"):
            mat_det(m)
        with pytest.raises(DomainError, match="^matrix is not square$"):
            mat_inverse(m)


def test_l_add_sub():
    a = l_scalar([1, 2], CTX22)
    b = l_scalar([3, -1], CTX22)
    assert l_add(a, b) == l_scalar([4, 1], CTX22)
    assert l_sub(a, b) == l_scalar([-2, 3], CTX22)


def test_scalar_arithmetic_refuses_a_scalar_built_at_another_e():
    # a scalar padded to e = 3 read at e = 1 used to be truncated or misread:
    # l_add gave (2,), val_l of pi gave 1 and l_mul of pi gave (9,)
    ctx1, ctx3 = PrimeContext(3, 2), PrimeContext(3, 2, 3)
    one, pi = l_scalar([1], ctx1), l_pi(ctx3)
    for op in (l_add, l_sub):
        with pytest.raises(DomainError, match="^scalars have 3 and 1 coefficients$"):
            op(l_scalar([1, 1, 1], ctx3), one)
    with pytest.raises(DomainError, match="^every scalar needs e = 1 coefficients$"):
        val_l(pi, ctx1)
    with pytest.raises(DomainError, match="^every scalar needs e = 1 coefficients$"):
        l_mul(pi, pi, ctx1)
    with pytest.raises(DomainError, match="^every scalar needs e = 1 coefficients$"):
        l_mul(one, pi, ctx1)
    with pytest.raises(DomainError, match="^every scalar needs e = 3 coefficients$"):
        k_rank([pi, one], ctx3)
    assert val_l(pi, ctx3) == Fraction(1, 3) and l_mul(pi, pi, ctx3) == l_scalar([0, 0, 1], ctx3)


def _naive_int_val(m, p):
    v, m = 0, abs(m)
    while m % p == 0:
        m //= p
        v += 1
    return v


def test_int_val_ladder_matches_naive_loop():
    rng = random.Random(31)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 101])
        m = rng.choice([1, -1]) * rng.randint(1, 10 ** rng.randint(1, 40))
        if rng.random() < 0.7:
            m *= p ** rng.randint(0, 300)
        assert _int_val(m, p) == _naive_int_val(m, p)
    for p in (2, 3, 5):
        for k in (0, 1, 2, 3, 7, 8, 63, 64, 65, 1023, 1024, 20000):
            for u in (1, -1, p + 1, -(p * p - 1), 10 ** 30 * p + 1):
                assert _int_val(p ** k * u, p) == k
    assert _naive_int_val(3 ** 2000 * 7, 3) == 2000


# ---------------------------------------------------------------------------
# The Fraction Gauss-Jordan elimination as an oracle for the integer kernel
# ---------------------------------------------------------------------------

def _fraction_eliminate(rows, ncols, reduce=True):
    # the rational-arithmetic kernel arith._eliminate replaced
    nrows = len(rows)
    pivots = []
    det = Fraction(1)
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        lead = rows[r][col]
        det *= lead
        inv = 1 / Fraction(lead)
        tail = rows[r][col:]
        for i in range(0 if reduce else r + 1, nrows):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i][col:] = [x - f * y for x, y in zip(rows[i][col:], tail)]
        if reduce:
            rows[r][col:] = [x * inv for x in tail]
        pivots.append(col)
        r += 1
    return pivots, det


def _oracle_rref(m):
    rows = [list(map(Fraction, r)) for r in m]
    pivots, _ = _fraction_eliminate(rows, len(rows[0]))
    return pivots, rows


def _oracle_inverse(m):
    n = len(m)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    if len(_fraction_eliminate(a, n)[0]) < n:
        return None
    return tuple(tuple(row[n:]) for row in a)


def _oracle_det(m):
    pivots, det = _fraction_eliminate([list(map(Fraction, r)) for r in m], len(m), reduce=False)
    return det if len(pivots) == len(m) else 0


def _oracle_kernel_and_pivots(m):
    pivots, rows = _oracle_rref(m)
    ncols = len(m[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            x[pc] = -rows[i][fc]
        basis.append(tuple(x))
    if basis:
        kp, krows = _oracle_rref(basis)
        basis = [tuple(r) for r in krows[:len(kp)]]
    return basis, pivots


def _p_fraction(rng, p):
    # entries whose denominators are often divisible by p
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, p, p * p, 2 * p]))


def _p_rank_matrix(rng, p, rows, cols, r):
    a = [[_p_fraction(rng, p) for _ in range(r)] for _ in range(rows)]
    b = [[_p_fraction(rng, p) for _ in range(cols)] for _ in range(r)]
    return mat_mul(mat(a), mat(b)) if r else mat([[0] * cols for _ in range(rows)])


def test_integer_kernel_agrees_with_fraction_oracle():
    rng = random.Random(41)
    seen = set()
    for trial in range(600):
        p = rng.choice([2, 3, 5])
        kind = trial % 3
        n = rng.randint(1, 6)
        if kind == 0:                                  # square, usually invertible
            m = mat([[_p_fraction(rng, p) for _ in range(n)] for _ in range(n)])
        elif kind == 1:                                # square, rank deficient
            m = _p_rank_matrix(rng, p, n, n, rng.randint(0, n - 1))
        else:                                          # rectangular
            rows = rng.choice([k for k in range(1, 7) if k != n])
            m = _p_rank_matrix(rng, p, rows, n, rng.randint(0, min(rows, n)))
        pivots, rref = _oracle_rref(m)
        assert rank(m) == len(pivots)
        assert reduced_echelon(m) == [tuple(r) for r in rref[:len(pivots)]]
        assert _kernel_and_pivots(m) == _oracle_kernel_and_pivots(m)
        assert nullspace(m) == _oracle_kernel_and_pivots(m)[0]
        if len(m) != len(m[0]):
            seen.add("rectangular")
            continue
        assert mat_det(m) == _oracle_det(m)
        oracle = _oracle_inverse(m)
        parts = _inverse_parts(m)
        b = tuple(_p_fraction(rng, p) for _ in range(n))
        if oracle is None:
            seen.add("singular")
            assert parts is None
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
            with pytest.raises(SingularMatrixError):
                solve_linear(m, b)
            continue
        seen.add("invertible")
        num, d, det = parts
        assert det == _oracle_det(m)
        # N / d is as the elimination leaves it; the seminorm that keeps it reduces it
        assert d != 0 and all(isinstance(x, int) for row in num for x in row)
        assert tuple(tuple(Fraction(x, d) for x in row) for row in num) == oracle
        if n >= 2:
            values = [ZERO_VALUE if (trial + i) % 3 == 0 else LogValue.finite(Fraction(i, 2))
                      for i in range(n)]
            live, d = diagonal_seminorm(m, values, PrimeContext(p, n))._inv
            assert d > 0 and math.gcd(d, *(x for row in live if row for x in row)) == 1
            assert [row and tuple(Fraction(x, d) for x in row) for row in live] == \
                [None if v.is_zero else row for row, v in zip(oracle, values)]
        assert mat_inverse(m) == oracle
        assert solve_linear(m, b) == tuple(sum(a * x for a, x in zip(row, b)) for row in oracle)
    assert seen == {"invertible", "singular", "rectangular"}


# ---------------------------------------------------------------------------
# The eagerly rescaling Bareiss kernel as an oracle for the lazy one
# ---------------------------------------------------------------------------

def _eager_eliminate(rows, ncols, reduce=True, start=1):
    # the kernel arith._eliminate replaced: every row not updated by a pivot
    # is still rescaled by lead / prev at that step
    nrows = len(rows)
    pivots = []
    prev, sign = start, 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        lead = top[col]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            f = rows[i][col]
            if f:
                rows[i] = [(lead * x - f * y) // prev for x, y in zip(rows[i], top)]
            elif lead != prev:
                rows[i] = [lead * x // prev for x in rows[i]]
        prev = lead
        pivots.append(col)
        r += 1
    return pivots, prev, sign


def _assert_matches_eager(rows, ncols, start=1):
    for reduce in (True, False):
        eager, lazy = [list(r) for r in rows], [list(r) for r in rows]
        expected = _eager_eliminate(eager, ncols, reduce, start)
        assert _eliminate(lazy, ncols, reduce, start) == expected, (rows, ncols, reduce, start)
        assert lazy == eager, (rows, ncols, reduce, start)


def _p_int(rng, p):
    # a signed unit, a small integer or a power of p
    return rng.choice([1, -1]) * rng.choice([1, rng.randint(2, 9), p, p ** rng.randint(2, 4)])


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _monomial_times_elementary(rng, n, p):
    # a monomial matrix (permutation times p-powers and units) times a few factors 1 + c e_ij
    perm = rng.sample(range(n), n)
    m = [[_p_int(rng, p) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] += _p_int(rng, p)
        m = _int_matmul(m, e)
    return m


def _dense(rng, nrows, ncols, p):
    return [[_p_int(rng, p) if rng.random() < 0.8 else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def _rank_deficient(rng, nrows, ncols, p):
    r = rng.randint(0, min(nrows, ncols) - 1)
    return _int_matmul(_dense(rng, nrows, r, p), _dense(rng, r, ncols, p)) if r else \
        [[0] * ncols for _ in range(nrows)]


def _continued_case(rng, n, p):
    """(B, M, d): M is the right half of [A | B] reduced to [d I | M], A invertible."""
    while True:
        a = _monomial_times_elementary(rng, n, p)
        if len(_eager_eliminate([list(r) for r in a], n)[0]) == n:
            break
    b = rng.choice([_monomial_times_elementary, lambda r, k, q: _dense(r, k, k, q),
                    lambda r, k, q: _rank_deficient(r, k, k, q)])(rng, n, p)
    ab = [ra + rb for ra, rb in zip(a, b)]
    d = _eager_eliminate(ab, n)[1]
    return b, [row[n:] for row in ab], d


def _elimination_case(rng, kind):
    """(integer rows, ncols, start) of one kind, shaped as the package's callers shape them."""
    p = rng.choice([2, 3, 5])
    n = rng.randint(1, 6)
    if kind == "sparse":
        return _monomial_times_elementary(rng, n, p), n, 1
    if kind == "dense":
        width = rng.randint(1, 12)
        return _dense(rng, n, width, p), rng.randint(0, width), 1
    if kind == "deficient":
        width = rng.randint(1, 12)
        return _rank_deficient(rng, n, width, p), rng.randint(1, width), 1
    if kind == "inverse":           # [S m | S], as _inverse_parts reduces it
        m = rng.choice([_monomial_times_elementary, lambda r, k, q: _dense(r, k, k, q)])(rng, n, p)
        s = [_p_int(rng, p) for _ in range(n)]
        return [[x * s[i] for x in row] + [s[i] * int(i == j) for j in range(n)]
                for i, row in enumerate(m)], n, 1
    if kind == "continued":         # the right half of a reduced [A | B], from its pivot
        _, m, d = _continued_case(rng, n, p)
        return m, n, d
    # [g1 | g2], as chart_equivalent reduces it, g2 = g1 times a monomial matrix
    g1 = _monomial_times_elementary(rng, n, p)
    g2 = _int_matmul(g1, _monomial_times_elementary(rng, n, p))
    if rng.random() < 0.2:          # a singular g1
        g1[rng.randrange(n)] = [0] * n
    return [r1 + r2 for r1, r2 in zip(g1, g2)], n, 1


ELIMINATION_KINDS = ("sparse", "dense", "deficient", "inverse", "charts", "continued")


def test_lazy_elimination_matches_the_eager_kernel():
    rng = random.Random(48)
    ranks = set()
    for trial in range(6000):
        rows, ncols, start = _elimination_case(rng, ELIMINATION_KINDS[trial % len(ELIMINATION_KINDS)])
        _assert_matches_eager(rows, ncols, start)
        ranks.add(len(_eliminate([list(r) for r in rows], ncols, start=start)[0])
                  < min(len(rows), ncols))
    assert ranks == {True, False}


def test_continued_elimination_ends_at_the_determinant_of_the_right_half():
    # [A | B] reduces to [d I | d A^-1 B]; continued from d, the last pivot of a
    # forward pass is d det(A^-1 B) = +-det B, and a singular B leaves a column unpivoted
    rng = random.Random(49)
    seen = set()
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 6)
        b, m, d = _continued_case(rng, n, p)
        det = mat_det(b)
        pivots, last, _ = _eliminate(m, n, reduce=False, start=d)
        assert (len(pivots) == n) == (det != 0), (b, m, d)
        if det:
            assert abs(last) == abs(det), (b, m, d)
        seen.add(det != 0)
    assert seen == {True, False}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_lazy_elimination_matches_the_eager_kernel_property(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    entry = st.sampled_from([0, 0, 0, 1, -1, p, -p, p * p]) | st.integers(-60, 60)
    nrows, width = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                              min_size=nrows, max_size=nrows))
    _assert_matches_eager(rows, data.draw(st.integers(0, width)))


def test_mat_mul_agrees_with_fraction_products():
    rng = random.Random(43)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        a = mat([[_p_fraction(rng, p) for _ in range(k)] for _ in range(r)])
        b = mat([[_p_fraction(rng, p) for _ in range(c)] for _ in range(k)])
        expected = tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                               for j in range(c)) for i in range(r))
        got = mat_mul(a, b)
        assert got == expected
        assert all(type(x) is Fraction for row in got for x in row)


def _property_integer_rows(rows):
    # the reading through numerator and denominator that as_integer_ratio replaced
    ints, scales = [], []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return ints, scales


def test_integer_rows_matches_the_property_reading():
    rng = random.Random(47)
    entry = {
        "int": lambda: rng.randint(-40, 40),
        "fraction": lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 36)),
        "zero": lambda: rng.choice([0, Fraction(0)]),
        "bool": lambda: rng.choice([True, False]),
    }
    seen = set()
    for _ in range(500):
        kinds = rng.choice([["int"], ["fraction"], ["int", "fraction", "zero"], list(entry)])
        rows = [[entry[rng.choice(kinds)]() for _ in range(rng.randint(0, 7))]
                for _ in range(rng.randint(0, 4))]
        ints, scales = _integer_rows(rows)
        assert (ints, scales) == _property_integer_rows(rows)
        assert all(type(x) is int for row in ints for x in row)
        for row, irow, den in zip(rows, ints, scales):
            assert den > 0 and [Fraction(x, den) for x in irow] == row
            seen.update(type(x).__name__ for x in row)
            seen.add("empty" if not row else "negative" if any(x < 0 for x in row) else "other")
    assert _integer_rows([[]]) == ([[]], [1]) and _integer_rows([]) == ([], [])
    assert seen >= {"int", "Fraction", "bool", "empty", "negative", "other"}


def test_entry_points_keep_their_values_without_rewrapping():
    # val_k and LogValue.finite take a Fraction as it is and convert anything else
    half = Fraction(-3, 4)
    assert LogValue.finite(half).log is half
    for x in (-3, "-3/4", Fraction(6, -8), 12, "1/12"):
        assert LogValue.finite(x) == LogValue(Fraction(x))
        assert val_k(x, CTX2) == val_k(Fraction(x), CTX2)
        assert type(LogValue.finite(x).log) is Fraction
    assert val_k(0, CTX2) == val_k(Fraction(0), CTX2) == INF


def _float_entry_points():
    # (name, call): each call puts x at one float-taking entry point of the library
    from padicbuilding import ElementaryUnipotent, Root, polynomial, unipotent_matrix
    from padicbuilding.arith import vec_scale

    phi = phi_from_apartment(interior_point([0, 0]), CTX2)
    tenth = Fraction(1, 10)
    return [
        ("val_k", lambda x: val_k(x, CTX2)),
        ("LogValue.finite", LogValue.finite),
        ("LogValue.shift", lambda x: LogValue.finite(0).shift(x)),
        ("l_scalar", lambda x: l_scalar([x], CTX2)),
        ("l_from_k", lambda x: l_from_k(x, CTX2)),
        ("l_scale", lambda x: l_scale(x, l_scalar([1], CTX2))),
        ("vec", lambda x: vec([x])),
        ("vec_scale", lambda x: vec_scale(x, (1,))),
        ("mat", lambda x: mat([[x]])),
        ("mat_det", lambda x: mat_det([[x, 0], [0, 1]])),
        ("mat_inverse", lambda x: mat_inverse([[x, 0], [0, 1]])),
        ("mat_mul.left", lambda x: mat_mul([[x, 1]], [[1], [1]])),
        ("mat_mul.right", lambda x: mat_mul([[1, 1]], [[x], [1]])),
        ("mat_vec.matrix", lambda x: mat_vec([[x, 0], [0, 1]], (1, 1))),
        ("mat_vec.vector", lambda x: mat_vec([[1, 0], [0, 1]], (x, 1))),
        ("vec_add", lambda x: vec_add((x, 1), (0, 0))),
        ("vec_sub", lambda x: vec_sub((0, 0), (x, 1))),
        ("vec_scale.vector", lambda x: vec_scale(1, (x,))),
        ("solve_linear", lambda x: solve_linear(identity(2), [x, 0])),
        ("solve_linear.matrix", lambda x: solve_linear([[x, 0], [0, 1]], [1, 0])),
        ("apartment_point", lambda x: apartment_point([1, 2], [0, x])),
        ("monomial_element.perm", lambda x: monomial_element([1, 20 * x], [0, 0])),
        ("monomial_element.trans", lambda x: monomial_element([1, 2], [0, x])),
        ("nu_translation", lambda x: nu_translation([1, x], CTX2)),
        ("ray_limit", lambda x: ray_limit(interior_point([0, 0]), [x, tenth])),
        ("open_box", lambda x: open_box([(0, x)])),
        ("evaluate", lambda x: evaluate(phi, [x, 0])),
        ("orthogonalize", lambda x: orthogonalize([[x, 0]], phi)),
        ("polynomial", lambda x: polynomial({(1, 0): x}, 2)),
        ("polynomial.exponent", lambda x: polynomial({(10 * x, 0): 1}, 2)),
        ("unipotent_matrix", lambda x: unipotent_matrix(ElementaryUnipotent(Root(1, 2), x), 2)),
    ]


def test_a_float_reads_as_the_decimal_it_shows():
    # 0.1 is 1/10 at every entry point, not 3602879701896397/2^55; a
    # non-finite float is refused as a DomainError wherever it enters
    for name, call in _float_entry_points():
        assert call(0.1) == call(Fraction(1, 10)), name
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"^not a finite number: -?(nan|inf)$"):
                call(bad)
    assert val_k(0.1, CTX2) == -1 and val_k(1e-05, CTX2) == val_k("1/100000", CTX2)
    assert LogValue.finite(0.1) == LogValue(Fraction(1, 10))
    assert LogValue.finite(2.5).shift(0.1).log == Fraction(13, 5)


def test_a_non_rational_input_is_a_domain_error():
    # a string that is no rational, a zero denominator and a value of another
    # type are refused as a DomainError at every entry point, not as the
    # ValueError, ZeroDivisionError or TypeError that Fraction raises
    for name, call in _float_entry_points():
        for bad in ("x", "1/0", (1,)):
            with pytest.raises(DomainError, match=r"^not a rational number: "):
                call(bad)
    with pytest.raises(DomainError, match=r"^not a rational number: '1/0'$"):
        val_k("1/0", CTX2)
    with pytest.raises(DomainError, match=r"^not a rational number: None$"):
        val_k(None, CTX2)
    for intervals in ([5], [(0, 1), None]):
        with pytest.raises(DomainError, match=r"^every interval must be a pair \(lo, hi\)$"):
            open_box(intervals)


def _phi2():
    return phi_from_apartment(interior_point([0, 1]), CTX2)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: vec("12"), id="vec"),
    pytest.param(lambda: vec(b"12"), id="vec.bytes"),
    pytest.param(lambda: vec(5), id="vec.int"),
    pytest.param(lambda: mat(["12", "34"]), id="mat"),
    pytest.param(lambda: mat(5), id="mat.int"),
    pytest.param(lambda: mat([[1, 2], 5]), id="mat.row"),
    pytest.param(lambda: mat_det(["12", "34"]), id="mat_det"),
    pytest.param(lambda: mat_det(5), id="mat_det.int"),
    pytest.param(lambda: mat_det([[1, 0], 5]), id="mat_det.row"),
    pytest.param(lambda: mat_inverse(["12", "34"]), id="mat_inverse"),
    pytest.param(lambda: mat_inverse(5), id="mat_inverse.int"),
    pytest.param(lambda: mat_mul(["12"], [[1], [2]]), id="mat_mul"),
    pytest.param(lambda: mat_vec(identity(2), "11"), id="mat_vec"),
    pytest.param(lambda: vec_add("12", (1, 2)), id="vec_add"),
    pytest.param(lambda: rank(["12"]), id="rank"),
    pytest.param(lambda: l_scalar("12", CTX22), id="l_scalar"),
    pytest.param(lambda: evaluate(_phi2(), "11"), id="evaluate"),
    pytest.param(lambda: diagonal_seminorm(["10", "01"], _phi2().values, CTX2),
                 id="diagonal_seminorm"),
    pytest.param(lambda: orthogonalize(["10"], _phi2()), id="orthogonalize"),
    pytest.param(lambda: nu_translation("12", CTX2), id="nu_translation"),
    pytest.param(lambda: ray_limit(interior_point([0, 1]), "01"), id="ray_limit"),
    pytest.param(lambda: apartment_point([1, 2], "01"), id="apartment_point"),
    pytest.param(lambda: apartment_point(5, [0]), id="apartment_point.piece"),
    pytest.param(lambda: interior_point(5), id="interior_point"),
    pytest.param(lambda: open_box(5), id="open_box"),
    pytest.param(lambda: LScalar("12"), id="LScalar"),
    pytest.param(lambda: monomial_element("21", [0, 0]), id="monomial_element.perm"),
    pytest.param(lambda: monomial_element([2, 1], "00"), id="monomial_element.trans"),
    pytest.param(lambda: sigma_project(["10", "01"], [1]), id="sigma_project"),
    pytest.param(lambda: sigma_project(identity(2), 5), id="sigma_project.piece"),
    pytest.param(lambda: s_project(interior_point([0, 1]), 5), id="s_project"),
    pytest.param(lambda: gamma_membership(interior_point([0, 1]), open_box([(0, 1)]), 5),
                 id="gamma_membership"),
    pytest.param(lambda: f_sigma(5, Root(1, 2)), id="f_sigma"),
    pytest.param(lambda: in_U_a_sigma(ElementaryUnipotent(Root(1, 2), 1), 5, CTX2), id="in_U_a_sigma"),
    pytest.param(lambda: fixes_pointwise(monomial_identity(2), 5), id="fixes_pointwise"),
])
def test_a_string_or_a_non_iterable_is_not_a_sequence(call):
    # a string is not read as its characters (so "12" is not (1, 2)), and an
    # entry without a length is not a bare TypeError
    with pytest.raises(DomainError, match=r"^not a sequence of entries: (b?'\d+'|5)$"):
        call()


def test_a_hand_built_scalar_is_read_as_l_scalar_reads_it():
    # LScalar reads its coefficients through vec, a float as its repr and a string as a
    # rational, so the L arithmetic computes on exact values
    assert l_add(LScalar((0.1,)), LScalar((0.2,))).coeffs == (Fraction(3, 10),)
    assert LScalar((0.5, "2/9")) == l_scalar([Fraction(1, 2), Fraction(2, 9)], CTX22)
    assert type(l_scalar([1], CTX22).coeffs[0]) is Fraction
    from padicbuilding.seminorm import pullback_value

    assert pullback_value([LScalar(("1/10",)), LScalar((1,))], [1, 0], CTX2) == LogValue.finite(1)
    with pytest.raises(DomainError, match=r"^not a rational number: 'x'$"):
        LScalar(("x",))


def test_l_scalar_refuses_too_many_coefficients_as_a_domain_error():
    with pytest.raises(DomainError, match=r"^expected at most 2 coefficients, got 3$"):
        l_scalar([1, 2, 3], CTX22)
    with pytest.raises(DomainError, match=r"^expected at most 1 coefficients, got 2$"):
        l_scalar([1, 2], CTX2)


def test_identity_equals_the_fresh_fraction_matrix():
    # identity shares two Fraction constants; the matrix is the same as built afresh
    for n in range(7):
        got = identity(n)
        assert got == tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        assert all(type(x) is Fraction for row in got for x in row)
        assert mat_mul(got, got) == got


def _trial_division(m):
    return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


def test_is_prime_matches_trial_division():
    assert [m for m in range(10 ** 5) if _is_prime(m)] == \
        [m for m in range(10 ** 5) if _trial_division(m)]
    # strong pseudoprimes to several of the bases stay composite
    for m in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(m)


def test_large_primes_are_fast_and_bounded():
    t0 = time.perf_counter()
    assert PrimeContext(2 ** 61 - 1, 2).p == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError, match="not prime"):
        PrimeContext(2 ** 61 + 1, 2)
    with pytest.raises(ValueError, match="too large"):
        PrimeContext(2 ** 89 - 1, 2)       # prime, but above the proven range
    with pytest.raises(ValueError, match="too large"):
        _is_prime(_PRIME_LIMIT)
