"""The chart class test against the three-determinant class test it replaces.

`building._same_class` decides a chart pair with one forward pass over
M = d g1^-1 g2, continued from the Gauss-Jordan pivot d.  `_oracle_same_class`
below is the earlier version: a fresh Bareiss pass from 1 on the block
M[I_x, I_y], mat_det of the block off the pieces, and mat_det(M) when there
is no bound.  Every answer of `chart_equivalent` (both ways) and of
`in_stabilizer_P_x` must match it exactly, SingularMatrixError included, on
seeded pairs at n = 2..7.
"""

import random
from collections import Counter

from padicbuilding import PrimeContext, apartment_point
from padicbuilding.arith import _eliminate, _int_val, _integer_rows, _reduced, identity, mat, mat_det, mat_mul
from padicbuilding.building import (
    ChartPoint,
    _bound,
    _checked,
    chart_equivalent,
    in_stabilizer_P_x,
    sample_P_x_generators,
)
from padicbuilding.errors import SingularMatrixError

from randgen import rand_fraction, rand_invertible, violating_unipotent


# ---------------------------------------------------------------------------
# The three-determinant version
# ---------------------------------------------------------------------------

def _oracle_same_class(rows, x, y, p):
    k = len(x.piece)
    (row,), (scale,) = _integer_rows([[*x.exponents, *y.exponents]])
    xs, ys = row[:k], dict(zip(y.piece, row[k:]))
    s = _bound(rows, x, xs, ys, scale, p)
    if s is None or k != len(y.piece):
        if mat_det(rows) == 0:
            raise SingularMatrixError("group element must be invertible")
        return False
    n = len(rows)
    off_x = [i for i in range(1, n + 1) if i not in x.piece]
    off_y = [j for j in range(1, n + 1) if j not in ys]
    block = [[rows[i - 1][j - 1] for j in y.piece] for i in x.piece]
    pivots, det, _ = _eliminate(block, k, reduce=False)
    off_block = [[rows[i - 1][j - 1] for j in off_y] for i in off_x]
    if len(pivots) < k or off_x and mat_det(off_block) == 0:
        raise SingularMatrixError("group element must be invertible")
    return -sum(xs) - scale * _int_val(det, p) == k * s - sum(ys.values())


def _oracle_chart_equivalent(c1, c2, ctx):
    n = ctx.n
    g1, g2 = _checked(c1.g, c1.x, n), _checked(c2.g, c2.x, n)
    pivots, rows, _ = _reduced([[*r1, *r2] for r1, r2 in zip(g1, g2)], n)
    if len(pivots) < n:
        raise SingularMatrixError("group element must be invertible")
    return _oracle_same_class([row[n:] for row in rows], c1.x, c2.x, ctx.p)


def _oracle_in_stabilizer_P_x(g, x, ctx):
    n = ctx.n
    (flat,), _ = _integer_rows([[a for row in _checked(g, x, n) for a in row]])
    return _oracle_same_class([flat[i:i + n] for i in range(0, n * n, n)], x, x, ctx.p)


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------

KINDS = ("P_x move", "violating", "unrelated", "singular", "singular in P_x")


def _point(rng, n, size):
    piece = sorted(rng.sample(range(1, n + 1), size))
    return apartment_point(piece, [rand_fraction(rng) for _ in piece])


def _kill_column(h, j, rng):
    # column j of h zeroed, or made twice another column
    rows = [list(r) for r in h]
    other, twice = rng.choice([c for c in range(len(rows)) if c != j]), rng.random() < 0.5
    for r in rows:
        r[j] = 2 * r[other] if twice else 0
    return mat(rows)


def _case(rng, kind):
    """(ctx, chart 1, chart 2, the stabilizer question's g, its point)."""
    n, p = rng.randint(2, 7), rng.choice([2, 3, 5])
    ctx = PrimeContext(p, n)
    x = _point(rng, n, rng.randint(1, n))
    g1 = rand_invertible(rng, n, p)
    y, h = x, identity(n)
    if kind in ("P_x move", "singular in P_x"):
        for gen in sample_P_x_generators(x, rng.randint(1, 3), 2, ctx, seed=rng.randrange(1 << 30)):
            h = mat_mul(h, gen)
        if kind == "singular in P_x":
            # on the piece or off it: the bound still exists, and the pass must see the singular block
            h = _kill_column(h, rng.randrange(n), rng)
    elif kind == "violating":
        h = violating_unipotent(rng, x, ctx)
    elif kind == "unrelated":
        h, y = rand_invertible(rng, n, p), _point(rng, n, rng.randint(1, n))
    else:
        h = _kill_column(rand_invertible(rng, n, p), rng.randrange(n), rng)
        if rng.random() < 0.5:
            y = _point(rng, n, rng.randint(1, n))
    return ctx, ChartPoint(g1, x), ChartPoint(mat_mul(g1, h), y), h, x


def _answer(f, *args):
    try:
        return f(*args)
    except SingularMatrixError as e:
        return ("SingularMatrixError", str(e))


def test_the_continued_class_test_agrees_with_the_three_determinant_oracle():
    rng = random.Random(31)
    answers = Counter()
    for trial in range(3000):
        kind = KINDS[trial % len(KINDS)]
        ctx, c1, c2, h, x = _case(rng, kind)
        for new, old, args in (
            (chart_equivalent, _oracle_chart_equivalent, (c1, c2, ctx)),
            (chart_equivalent, _oracle_chart_equivalent, (c2, c1, ctx)),
            (in_stabilizer_P_x, _oracle_in_stabilizer_P_x, (h, x, ctx)),
        ):
            got, want = _answer(new, *args), _answer(old, *args)
            assert got == want, (kind, trial, args)
            answers[kind, want if isinstance(want, bool) else want[0]] += 1
    # every kind reaches the answers it is built for
    assert answers["P_x move", True] >= 1500
    assert answers["violating", False] >= 1200
    assert answers["unrelated", False] >= 1200
    assert answers["singular", "SingularMatrixError"] >= 1800
    assert answers["singular in P_x", "SingularMatrixError"] >= 1800
