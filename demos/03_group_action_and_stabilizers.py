"""The PGL_n action on the compactified building.

Presents points by charts (g, x), decides chart equivalence from the
valuations of g1^-1 g2, and tests stabilizer membership for root-group
elements against the filtration thresholds.

Run:  python3 demos/03_group_action_and_stabilizers.py
"""

from fractions import Fraction

from padicbuilding import (
    ChartPoint,
    ElementaryUnipotent,
    PrimeContext,
    Root,
    act_monomial,
    chart_equivalent,
    f_point,
    from_chart,
    in_stabilizer_P_x,
    in_U_a_sigma,
    interior_point,
    monomial_element,
    monomial_inverse,
    monomial_matrix,
    nu_translation,
    sample_P_x_generators,
    unipotent_matrix,
)
from padicbuilding.arith import identity, mat_mul

ctx = PrimeContext(p=2, n=2)
x = interior_point([0, 1])

print("== monomial elements act by permutation plus translation ==")
t = nu_translation([2, 1], ctx)
print(f"  nu(diag(2,1)) translates by {t.trans}")
print(f"  it moves {x.exponents} to {act_monomial(t, x).exponents}")
w = monomial_element([2, 1], [0, 0])
print(f"  the swap sends {x.exponents} to {act_monomial(w, x).exponents}")

print()
print("== the same building point in two charts ==")
n_elt = monomial_element([2, 1], [0, -1])
y = act_monomial(monomial_inverse(n_elt), x)
c1 = ChartPoint(identity(2), x)
c2 = ChartPoint(monomial_matrix(n_elt, ctx), y)
print(f"  chart 1: g = id,            x = {x.piece}/{x.exponents}")
print(f"  chart 2: g = monomial rep,  x = {y.piece}/{y.exponents}")
print(f"  equivalent: {chart_equivalent(c1, c2, ctx)}")
print(f"  both reduce to kernel-free classes: {from_chart(c1, ctx).kernel() == []}")

print()
print("== stabilizers and the root-group filtration ==")
f = f_point(x, Root(1, 2))
print(f"  threshold for a_12 at x: f = {f}")
for v in (f, f - 1):
    omega = Fraction(2) ** int(v)
    u = ElementaryUnipotent(Root(1, 2), omega)
    fixes = in_stabilizer_P_x(unipotent_matrix(u, 2), x, ctx)
    member = in_U_a_sigma(u, [x], ctx)
    print(f"  entry of valuation {v}: filtration member = {member}, "
          f"fixes the point = {fixes}")

print()
print("== sampled stabilizer elements (deterministic under a seed) ==")
gens = sample_P_x_generators(x, count=3, bound=2, ctx=ctx, seed=5)
for k, g in enumerate(gens):
    print(f"  generator {k}: {g}  -> stabilizes: {in_stabilizer_P_x(g, x, ctx)}")

print()
print("== products of stabilizer elements stay in the stabilizer ==")
prod = identity(2)
for g in gens:
    prod = mat_mul(prod, g)
print(f"  product stabilizes: {in_stabilizer_P_x(prod, x, ctx)}")
