"""The integer class test against the Fraction class test it replaces.

`_log_bound`, `_volume`, `equals`, `class_equals` and `canonical_class` keep
their logs and bounds as integers over a common denominator.  The
`_fraction_*` functions below are the earlier versions, which subtract and
compare `Fraction` logs; every answer of the new code must match theirs
exactly, on seeded pairs of related and unrelated seminorms.
"""

import dataclasses
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from padicbuilding import (
    LogValue,
    PrimeContext,
    class_equals,
    compose_with,
    diagonal_seminorm,
    distance_constants,
    equals,
    evaluate,
    phi_from_apartment,
    pullback_from_functional,
)
from padicbuilding.arith import ZERO_VALUE, _int_val, _integer_rows, mat_from_cols, vec
from padicbuilding.building import sample_P_x_generators
from padicbuilding.errors import DomainError, KernelMismatchError
from padicbuilding.seminorm import DiagonalSeminorm, _log_bound, canonical_class, scale_seminorm

from randgen import rand_fraction, rand_invertible, rand_lscalar, rand_point, rand_seminorm


# ---------------------------------------------------------------------------
# The Fraction versions
# ---------------------------------------------------------------------------

def _fraction_evaluate(g, v):
    (w,), (den,) = _integer_rows([vec(v)])
    num, d = g._inv
    if len(w) != len(num):
        raise DomainError(f"vector has {len(w)} entries, expected {len(num)}")
    p = g.ctx.p
    s = math.lcm(*(val.log.denominator for val in g.values if val.log is not None))
    best = None
    for row, val in zip(num, g.values, strict=True):
        if val.log is None:
            continue
        t = sum(map(mul, row, w))
        if t:
            cand = val.log.numerator * (s // val.log.denominator) - s * _int_val(t, p)
            if best is None or cand > best:
                best = cand
    if best is None:
        return ZERO_VALUE
    return LogValue(Fraction(best + s * (_int_val(d, p) + _int_val(den, p)), s))


def _fraction_log_bound(g1, g2):
    if (g1.ctx.p, g1.ctx.n) != (g2.ctx.p, g2.ctx.n):
        raise DomainError("seminorms live over different contexts")
    best = None
    for i, c in enumerate(g2.values):
        v = _fraction_evaluate(g1, g2.column(i))
        if not v.is_zero:
            if c.is_zero:
                return None
            s = v.log - c.log
            best = s if best is None else max(best, s)
    return best


def _fraction_volume(g, s=0):
    (logs,), (den,) = _integer_rows([[v.log for v in g.values if not v.is_zero]])
    return len(logs), Fraction(sum(logs) + g._vdet * den, den) + len(logs) * s


def _fraction_equals(g1, g2):
    return _fraction_log_bound(g1, g2) == 0 and _fraction_volume(g1) == _fraction_volume(g2)


def _fraction_class_equals(g1, g2):
    s = _fraction_log_bound(g1, g2)
    return s is not None and _fraction_volume(g1) == _fraction_volume(g2, s)


def _fraction_canonical_class(g):
    cols = list(zip(*g.basis))
    nonker = [i for i, v in enumerate(g.values) if not v.is_zero]
    nonker.sort(key=lambda i: (-g.values[i].log, cols[i]))
    shift = -g.values[nonker[0]].log
    ker = [c for c, v in zip(cols, g.values) if v.is_zero]
    num, d = g._inv
    inv = tuple(num[i] for i in nonker) + (None,) * len(ker), d
    values = [g.values[i].shift(shift) for i in nonker] + [ZERO_VALUE] * len(ker)
    return DiagonalSeminorm(tuple(zip(*[cols[i] for i in nonker], *ker)), tuple(values),
                            g.ctx, inv, g._vdet)


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------

def _seminorm(rng, ctx):
    if rng.random() < 0.6:
        return rand_seminorm(rng, ctx, steps=rng.randint(1, 3))
    zs = [rand_lscalar(rng, ctx, zero_ok=False)] + [rand_lscalar(rng, ctx) for _ in range(ctx.n - 1)]
    return pullback_from_functional(zs, ctx)


def _kernel_unreduced(rng, g):
    """g given with its kernel columns recombined and added to the live columns."""
    cols = [list(c) for c in zip(*g.basis)]
    ker = [j for j, v in enumerate(g.values) if v.is_zero]
    for i in range(g.n):
        for j in ker:
            if i != j:
                c = rand_fraction(rng) if i not in ker else Fraction(rng.choice([0, 1, -2]))
                cols[i] = [x + c * y for x, y in zip(cols[i], cols[j])]
    return diagonal_seminorm(mat_from_cols(cols), g.values, g.ctx)


def _moved_by_stabilizer(rng, ctx):
    """(g, g'), g' the translate of g by a conjugate of a sampled P_x element."""
    x = rand_point(rng, ctx.n)
    g0 = phi_from_apartment(x, ctx)
    m = sample_P_x_generators(x, 1, 2, ctx, seed=rng.randrange(1 << 30))[0]
    h = rand_invertible(rng, ctx.n, ctx.p, steps=2)
    return compose_with(g0, h), compose_with(compose_with(g0, m), h)


def _other_kernel(rng, g):
    """g with one value moved to or from zero, so the kernel dimensions differ."""
    vals = list(g.values)
    live = [i for i, v in enumerate(vals) if not v.is_zero]
    dead = [i for i, v in enumerate(vals) if v.is_zero]
    if dead and (len(live) == 1 or rng.random() < 0.5):
        vals[rng.choice(dead)] = LogValue.finite(rand_fraction(rng))
    else:
        vals[rng.choice(live)] = ZERO_VALUE
    return diagonal_seminorm(g.basis, vals, g.ctx)


KINDS = ("rescaled", "stabilizer", "kernel", "unrelated", "kernel_dims")


def _pair(rng, ctx, kind):
    if kind == "stabilizer":
        return _moved_by_stabilizer(rng, ctx)
    g = _seminorm(rng, ctx)
    if kind == "rescaled":
        return g, scale_seminorm(g, rand_fraction(rng, 9, 7))
    if kind == "kernel":
        if g.is_norm():
            g = _other_kernel(rng, g)
        other = _kernel_unreduced(rng, g)
        return g, scale_seminorm(other, rand_fraction(rng)) if rng.random() < 0.5 else other
    if kind == "unrelated":
        return g, _seminorm(rng, ctx)
    return g, _other_kernel(rng, g)


def _vectors(rng, n):
    ints = [rng.randint(-30, 30) for _ in range(n)]
    fracs = [rand_fraction(rng, 9, 12) for _ in range(n)]
    floats = [rng.choice([0.1, -0.5, 1.25, 3.0, -2.2, 1e-3, 0.0]) for _ in range(n)]
    return [ints, fracs, floats, [0] * n]


def _parts(g):
    return g.basis, g.values, g.ctx, g._inv, g._vdet


def test_integer_class_test_matches_the_fraction_class_test():
    rng = random.Random(3030)
    pairs, equal, seen, verdicts = 0, 0, set(), set()
    for trial in range(3150):
        n = 2 + trial % 6
        ctx = PrimeContext((2, 3, 5)[trial // 6 % 3], n, 1 + trial // 18 % 2)
        kind = KINDS[trial // 36 % len(KINDS)]
        a, b = _pair(rng, ctx, kind)
        for g1, g2 in ((a, b), (b, a)):
            bound = _log_bound(g1, g2)
            want = _fraction_log_bound(g1, g2)
            assert bound == want and type(bound) is type(want), (g1, g2)
            same_class = class_equals(g1, g2)
            assert same_class == _fraction_class_equals(g1, g2), (g1, g2)
            same = equals(g1, g2)
            assert same == _fraction_equals(g1, g2), (g1, g2)
            equal += same
            verdicts.add((kind, same_class))
        if a.is_norm() and b.is_norm():
            assert distance_constants(a, b) == (_fraction_log_bound(a, b), _fraction_log_bound(b, a))
        else:
            with pytest.raises(KernelMismatchError):
                distance_constants(a, b)
        for g in (a, b):
            c = canonical_class(g)
            want = _fraction_canonical_class(g)
            assert _parts(c) == _parts(want), g
            assert all(type(v.log) is Fraction for v in c.values if not v.is_zero)
            for v in _vectors(rng, n):
                assert evaluate(g, v) == _fraction_evaluate(g, v), (g, v)
        pairs += 1
        seen.add((n, ctx.p, ctx.e, kind))
    assert pairs >= 3000 and equal > 100 and len(seen) == 6 * 3 * 2 * len(KINDS)
    # every related pair is decided equal, and no pair with unequal kernel dimensions is
    assert {v for k, v in verdicts if k in ("rescaled", "stabilizer", "kernel")} == {True}
    assert {v for k, v in verdicts if k == "kernel_dims"} == {False}
    assert ("unrelated", False) in verdicts


def test_evaluate_reads_a_float_as_its_repr():
    rng = random.Random(31)
    for n in range(2, 6):
        g = rand_seminorm(rng, PrimeContext(rng.choice([2, 3, 5]), n))
        v = [rng.choice([0.1, -0.3, 2.5, 1e-4, 7.0]) for _ in range(n)]
        assert evaluate(g, v) == evaluate(g, [Fraction(repr(x)) for x in v]) \
            == _fraction_evaluate(g, v)
        assert evaluate(g, [0] * n) == evaluate(g, (0.0,) * n) == ZERO_VALUE


def test_seminorm_fields_are_the_presentation_and_the_carried_inverse():
    # the class test derives everything it needs on each call; no cached field
    assert [f.name for f in dataclasses.fields(DiagonalSeminorm)] == \
        ["basis", "values", "ctx", "_inv", "_vdet"]
