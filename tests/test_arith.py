import math
import random
from fractions import Fraction

import pytest

from padicbuilding import (
    INF,
    LogValue,
    PrimeContext,
    abs_k,
    k_rank,
    l_add,
    l_from_k,
    l_inv,
    l_mul,
    l_pi,
    l_scalar,
    solve_linear,
    val_k,
    val_l,
)
from padicbuilding.arith import (
    _int_val,
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
    vec_add,
)
from padicbuilding.errors import DivisionByZeroError, SingularMatrixError

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
    assert l_inv(pi, CTX22) == l_scalar([0, Fraction(1, 2)], CTX22)
    a = l_scalar([1, 1], CTX22)
    b = l_scalar([1, -1], CTX22)
    assert l_mul(a, b, CTX22) == l_from_k(-1, CTX22)
    with pytest.raises(DivisionByZeroError):
        l_inv(l_scalar([0, 0], CTX22), CTX22)


def test_l_inv_round_trip():
    rng = random.Random(5)
    for e in (1, 2, 3, 4):
        ctx = PrimeContext(3, 2, e)
        for _ in range(40):
            z = l_scalar([rand_fraction(rng) for _ in range(e)], ctx)
            if l_is_zero(z):
                continue
            assert l_mul(z, l_inv(z, ctx), ctx) == l_from_k(1, ctx)


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


def test_matrix_helpers_reject_length_mismatch():
    with pytest.raises(ValueError):
        mat_vec(identity(2), (1, 2, 3))
    with pytest.raises(ValueError):
        mat_vec(identity(3), (1, 2))
    with pytest.raises(ValueError):
        mat_mul(identity(2), identity(3))
    with pytest.raises(ValueError):
        vec_add((1, 2), (1, 2, 3))


def test_l_add_sub():
    a = l_scalar([1, 2], CTX22)
    b = l_scalar([3, -1], CTX22)
    assert l_add(a, b) == l_scalar([4, 1], CTX22)
    assert l_sub(a, b) == l_scalar([-2, 3], CTX22)


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
        num, d = parts
        assert d > 0 and all(isinstance(x, int) for row in num for x in row)
        assert math.gcd(d, *(x for row in num for x in row)) == 1
        assert tuple(tuple(Fraction(x, d) for x in row) for row in num) == oracle
        assert mat_inverse(m) == oracle
        assert solve_linear(m, b) == tuple(sum(a * x for a, x in zip(row, b)) for row in oracle)
    assert seen == {"invertible", "singular", "rectangular"}


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
