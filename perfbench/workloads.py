"""Seeded inputs for the four benchmark workloads.

A generator returns one batch: a list of `Op` whose mix of kinds, sizes
and primes is fixed, so every batch asks the same shape of questions and
only the values come from the seeded generator.  Each `Op` carries the
answer its construction guarantees, and the runner checks every output
against it.

Ops reach the library through module attributes (`building.chart_equivalent`,
not a name imported here), so the tracer's wrappers see the top-level call
as well as the nested ones.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from math import ceil, inf
from typing import Any, Callable

from padicbuilding import apartment, arith, berkovich, building, cli, seminorm

PRIMES = (2, 3, 5)


@dataclass
class Op:
    """One question: `fn(*args)` must satisfy `check(output, expected)`.

    `defect` marks a catalogued known defect of the program: the op is
    run and counted like any other, and its failure is expected.
    """

    kind: str
    fn: Callable
    args: tuple
    expected: Any
    check: Callable | None = None
    defect: bool = False

    def ok(self, out) -> bool:
        if self.check is None:
            return out == self.expected
        return self.check(out, self.expected)


def _api(module, name):
    def call(*args):
        return getattr(module, name)(*args)
    return call


# ---------------------------------------------------------------------------
# Random inputs (own arithmetic, so construction does not rely on the code
# being measured)
# ---------------------------------------------------------------------------

def rfrac(rng, num=6, den=4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rnonzero(rng, num=6, den=4) -> Fraction:
    while True:
        x = rfrac(rng, num, den)
        if x:
            return x


def gauged(pairs):
    """(piece, exponents) of the apartment point with these coordinates."""
    pairs = sorted(pairs)
    base = Fraction(pairs[0][1])
    return tuple(i for i, _ in pairs), tuple(Fraction(v) - base for _, v in pairs)


def rand_point(rng, n, interior):
    piece = list(range(1, n + 1)) if interior else sorted(rng.sample(range(1, n + 1), n - 1))
    return apartment.apartment_point(piece, [rfrac(rng) for _ in piece])


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def eye(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def rand_invertible(rng, n, p, steps=4):
    """Product of elementary, permutation and diagonal factors."""
    g = eye(n)
    for _ in range(steps):
        rows = [list(r) for r in eye(n)]
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rfrac(rng, 4, 2)
        elif kind == 1:
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[Fraction(int(a == perm[b])) for b in range(n)] for a in range(n)]
        else:
            for i in range(n):
                rows[i][i] = Fraction(rng.choice([1, -1, 2, 3, p]), rng.choice([1, 1, p]))
        g = matmul(g, rows)
    return g


def rand_values(rng, n, zeros):
    """Per-column values with exactly `zeros` zero entries (zeros < n)."""
    off = set(rng.sample(range(n), zeros))
    return tuple(arith.LogValue.zero() if i in off else arith.LogValue.finite(rfrac(rng))
                 for i in range(n))


def rank_matrix(rng, rows, cols, r):
    """rows x cols matrix of rank exactly r: (lower-trapezoid) x (echelon)."""
    a = [[rnonzero(rng) if i == k else (rfrac(rng) if i > k else Fraction(0))
          for k in range(r)] for i in range(rows)]
    c = [[rnonzero(rng) if j == k else (rfrac(rng) if j > k else Fraction(0))
          for j in range(cols)] for k in range(r)]
    z = matmul(a, c)
    order = list(range(cols))
    rng.shuffle(order)
    return tuple(tuple(row[j] for j in order) for row in z)


def vp(x: Fraction, p: int) -> int:
    def ival(m):
        m, v = abs(m), 0
        while m % p == 0:
            m, v = m // p, v + 1
        return v
    return ival(x.numerator) - ival(x.denominator)


# ---------------------------------------------------------------------------
# classes: relations between building points, n = 2..6
# ---------------------------------------------------------------------------

def violating_unipotent(rng, x, ctx):
    """A unipotent that moves phi(x): an entry below the threshold f_x(a_ij)
    inside the piece, or any nonzero entry from the piece into the kernel."""
    inside = list(x.piece)
    if len(inside) >= 2:
        i, j = rng.sample(inside, 2)
        f = x.exponent(j) - x.exponent(i)
        entry = Fraction(ctx.p) ** (ceil(f) - 1)
    else:
        i = inside[0]
        j = rng.choice([k for k in range(1, ctx.n + 1) if k not in inside])
        entry = Fraction(ctx.p) ** rng.randint(-2, 2)
    rows = [list(r) for r in eye(ctx.n)]
    rows[i - 1][j - 1] = entry
    return tuple(tuple(r) for r in rows)


def perturbing_monomial(rng, y, n):
    """An integral monomial element that moves the apartment point y."""
    if len(y.piece) == 1:
        other = rng.choice([i for i in range(1, n + 1) if i not in y.piece])
        perm = list(range(1, n + 1))
        i = y.piece[0]
        perm[i - 1], perm[other - 1] = perm[other - 1], perm[i - 1]
        return apartment.monomial_element(perm, [0] * n)
    target = rng.choice(y.piece[1:])
    trans = [rng.randint(1, 3) if i == target else 0 for i in range(1, n + 1)]
    return apartment.monomial_element(range(1, n + 1), trans)


def rand_monomial(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return apartment.monomial_element(perm, [rng.randint(-4, 4) for _ in range(n)])


def section_identity(b):
    return berkovich.r_reduce_monomial(berkovich.j_section(b)) == b


def classes(rng):
    stab = _api(building, "in_stabilizer_P_x")
    equiv = _api(building, "chart_equivalent")
    ops = []
    for n in range(2, 7):
        for k, p in enumerate(PRIMES):
            ctx = arith.PrimeContext(p, n)
            x = rand_point(rng, n, interior=k != 1)
            g = building.sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
            ops.append(Op(f"stab_true/n{n}", stab, (g, x, ctx), True))
            ops.append(Op(f"stab_false/n{n}", stab, (violating_unipotent(rng, x, ctx), x, ctx), False))

            g = rand_invertible(rng, n, p)
            m = rand_monomial(rng, n)
            y = apartment.act_monomial(apartment.monomial_inverse(m), x)
            gm = matmul(g, apartment.monomial_matrix(m, ctx))
            c1 = building.ChartPoint(g, x)
            ops.append(Op(f"chart_true/n{n}", equiv, (c1, building.ChartPoint(gm, y), ctx), True))
            pert = apartment.monomial_matrix(perturbing_monomial(rng, y, n), ctx)
            bad = building.ChartPoint(matmul(gm, pert), y)
            ops.append(Op(f"chart_false/n{n}", equiv, (c1, bad, ctx), False))

            s = seminorm.diagonal_seminorm(rand_invertible(rng, n, p, steps=3),
                                           rand_values(rng, n, (0, 1, n // 2)[k]), ctx)
            ops.append(Op(f"section/n{n}", section_identity, (building.building_point(s),), True))
    return ops


# ---------------------------------------------------------------------------
# topology: the compactified apartment, n = 2..5 (no prime enters)
# ---------------------------------------------------------------------------

def rand_box(rng, n):
    ivs = []
    for _ in range(n - 1):
        lo = rfrac(rng, 4, 2)
        ivs.append((lo, lo + rng.randint(1, 3) + Fraction(rng.randint(0, 3), 4)))
    return apartment.open_box(ivs)


def gamma_case(rng, n, box, i_set, full_piece, member):
    """(y, I) with y = s_J(u + delta), u inside the box and delta >= 0 off I.

    J is all of 1..n when `full_piece`, else I.  A non-member shifts one
    coordinate of I by more than the box and drift can absorb.
    """
    his = [Fraction(0)] + [hi for _, hi in box.intervals]
    los = [Fraction(0)] + [lo for lo, _ in box.intervals]
    u = [Fraction(0)] + [lo + (hi - lo) * Fraction(rng.randint(1, 7), 8)
                         for lo, hi in box.intervals]
    delta = [Fraction(0) if i in i_set else Fraction(rng.randint(0, 12), 4)
             for i in range(1, n + 1)]
    piece = list(range(1, n + 1)) if full_piece else sorted(i_set)
    coords = {i: u[i - 1] + delta[i - 1] for i in piece}
    if not member:
        coords[rng.choice(sorted(i_set))] += 2 * (max(his) - min(los)) + 4
    y = apartment.apartment_point(list(coords), list(coords.values()))
    return y, list(i_set)


def f_expected(points, i, j):
    def one(x):
        if i in x.piece and j in x.piece:
            return x.exponent(j) - x.exponent(i)
        return -inf if i not in x.piece else inf
    return max(one(x) for x in points)


def _point_is(out, expected):
    return (out.piece, out.exponents) == expected


def topology(rng):
    gamma = _api(apartment, "gamma_membership")
    ops = []
    for n in range(2, 6):
        box = rand_box(rng, n)
        for size in range(1, n):
            # Whether 1 lies in I changes the Fourier-Motzkin cost about
            # tenfold, so each batch holds both kinds in a fixed proportion.
            with_1 = [1] + rng.sample(range(2, n + 1), size - 1)
            without_1 = rng.sample(range(2, n + 1), size)
            for i_set, full, member in ((with_1, True, True), (with_1, False, True),
                                        (with_1, True, False), (without_1, True, True),
                                        (without_1, True, False)):
                y, piece = gamma_case(rng, n, box, sorted(i_set), full, member)
                ops.append(Op(f"gamma/n{n}/I{size}", gamma, (y, box, piece), member))
        for _ in range(5):
            x0 = rand_point(rng, n, interior=True)
            d = [rng.randint(0, 4) for _ in range(n)]
            d[rng.randrange(n)] = 5          # never constant
            low = [i for i in range(1, n + 1) if d[i - 1] == min(d)]
            ops.append(Op(f"ray_limit/n{n}", _api(apartment, "ray_limit"),
                          (x0, [Fraction(t) for t in d]),
                          gauged((i, x0.exponent(i)) for i in low), _point_is))

            pts = (rand_point(rng, n, interior=True), rand_point(rng, n, interior=False))
            i, j = rng.sample(range(1, n + 1), 2)
            ops.append(Op(f"f_sigma/n{n}", _api(apartment, "f_sigma"),
                          (pts, apartment.Root(i, j)), f_expected(pts, i, j)))

            x = rand_point(rng, n, interior=rng.random() < 0.5)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            trans = [rfrac(rng) for _ in range(n)]
            m = apartment.monomial_element(perm, trans)
            moved = gauged((perm[i - 1], x.exponent(i) + trans[perm[i - 1] - 1]) for i in x.piece)
            ops.append(Op(f"act_monomial/n{n}", _api(apartment, "act_monomial"), (m, x),
                          moved, _point_is))

            sub = sorted(rng.sample(x.piece, rng.randint(1, len(x.piece))))
            ops.append(Op(f"s_project/n{n}", _api(apartment, "s_project"), (x, sub),
                          gauged((i, x.exponent(i)) for i in sub), _point_is))
            ops.append(Op(f"dual_flip/n{n}", _api(apartment, "dual_flip"), (x,),
                          gauged((i, -x.exponent(i)) for i in x.piece), _point_is))
    return ops


# ---------------------------------------------------------------------------
# reduction: projective analytic points, fresh bases in every batch
# ---------------------------------------------------------------------------

def linear_forms(rng, basis, count):
    """`count` forms B c with known coordinates c in the point's basis."""
    n = len(basis)
    forms = []
    for _ in range(count):
        c = [rfrac(rng) if rng.random() < 0.75 else Fraction(0) for _ in range(n)]
        c[rng.randrange(n)] = rnonzero(rng)
        forms.append((matvec(basis, c), c))
    return forms


def form_product(forms, n):
    acc = {(0,) * n: Fraction(1)}
    for a, _ in forms:
        nxt = {}
        for nu, c in acc.items():
            for i, ai in enumerate(a):
                if ai:
                    mu = nu[:i] + (nu[i] + 1,) + nu[i + 1:]
                    nxt[mu] = nxt.get(mu, 0) + c * ai
        acc = {mu: c for mu, c in nxt.items() if c}
    return berkovich.polynomial(list(acc.items()), n)


def form_value(c, radii, p):
    """alpha of the form with basis coordinates c: max_j |c_j| r_j, as a log."""
    logs = [r.log - vp(cj, p) for cj, r in zip(c, radii) if cj and not r.is_zero]
    return max(logs) if logs else None


def product_value(forms, radii, p):
    logs = [form_value(c, radii, p) for _, c in forms]
    if any(v is None for v in logs):
        return arith.LogValue.zero()
    return arith.LogValue.finite(sum(logs))


def kernel_dimension_pair(zf):
    return (berkovich.in_omega(zf), len(berkovich.r_reduce_L_point(zf).kernel()))


def ortho_holds(out, expected):
    """Same span, and the max-property on fixed random combinations."""
    us, ambient, combos = expected
    if len(out) != len(us) or arith.rank(list(us) + list(out)) != len(us):
        return False
    vals = [seminorm.evaluate(ambient, u) for u in out]
    for lams in combos:
        v = [sum(lam * u[t] for lam, u in zip(lams, out)) for t in range(ambient.n)]
        best = max(arith.abs_k(lam, ambient.ctx) * val for lam, val in zip(lams, vals))
        if seminorm.evaluate(ambient, v) != best:
            return False
    return True


def reduction(rng):
    alpha = _api(berkovich, "alpha_evaluate")
    mult = _api(berkovich, "check_multiplicative")
    ops = []
    for n in range(2, 5):
        for k, p in enumerate(PRIMES):
            ctx = arith.PrimeContext(p, n)
            for degree in (2, 4, 6):
                basis = rand_invertible(rng, n, p, steps=3)
                radii = rand_values(rng, n, (0, 1, 0)[k])
                point = berkovich.monomial_point(basis, radii, ctx)
                forms = linear_forms(rng, basis, degree)
                ops.append(Op(f"alpha/n{n}/d{degree}", alpha, (point, form_product(forms, n)),
                              product_value(forms, radii, p)))

            basis = rand_invertible(rng, n, p, steps=3)
            point = berkovich.monomial_point(basis, rand_values(rng, n, 0), ctx)
            f = form_product(linear_forms(rng, basis, 3), n)
            g = form_product(linear_forms(rng, basis, 2), n)
            ops.append(Op(f"multiplicative/n{n}", mult, (point, f, g), True))

    for n in (2, 3):
        for e in (2, 3, 4):
            ctx = arith.PrimeContext(PRIMES[(n + e) % 3], n, e)
            top = min(n, e)
            for r in (top, top - 1):
                z = rank_matrix(rng, e, n, r)
                zf = berkovich.l_functional(
                    [arith.l_scalar([z[i][j] for i in range(e)], ctx) for j in range(n)], ctx)
                ops.append(Op(f"l_point/n{n}/e{e}", kernel_dimension_pair, (zf,), (r == n, n - r)))

    for n in range(2, 6):
        for k, p in enumerate(PRIMES):
            ctx = arith.PrimeContext(p, n)
            ambient = seminorm.diagonal_seminorm(rand_invertible(rng, n, p, steps=3),
                                                 rand_values(rng, n, 0), ctx)
            m = n - 1 if k == 1 else n
            us = list(rank_matrix(rng, m, n, m))
            combos = [[rfrac(rng) for _ in range(m)] for _ in range(3)]
            ops.append(Op(f"orthogonalize/n{n}", _api(seminorm, "orthogonalize"),
                          (us, ambient), (us, ambient, combos), ortho_holds))
    return ops


# ---------------------------------------------------------------------------
# cli: in-process cli.main over all 13 commands plus malformed requests
# ---------------------------------------------------------------------------

def fs(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def vdoc(v):
    return [fs(x) for x in v]


def mdoc(m):
    return [vdoc(r) for r in m]


def lvdoc(v):
    return "zero" if v.is_zero else {"log": fs(v.log)}


def pdoc(x):
    return {"I": list(x.piece), "x": vdoc(x.exponents)}


def sdoc(g):
    return {"basis": mdoc(g.basis), "values": [lvdoc(v) for v in g.values]}


def bdoc(b):
    doc = sdoc(b.seminorm)
    doc["kernel"] = mdoc(b.kernel())
    return doc


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def envelope_is(out, expected):
    code, stdout, stderr = out
    return code == 0 and stderr == "" and json.loads(stdout) == expected


def error_is(out, codes):
    """Exit code in `codes`, nothing on stdout, one JSON error envelope on stderr."""
    code, stdout, stderr = out
    if code not in codes or stdout:
        return False
    try:
        doc = json.loads(stderr)
    except ValueError:
        return False
    return isinstance(doc, dict) and doc.get("ok") is False


def cli_request(cmd, p, n, e, flags, result):
    argv = [cmd, "--p", str(p), "--n", str(n)] + (["--e", str(e)] if e != 1 else [])
    for flag, value in flags:
        argv += [flag, value if isinstance(value, str) else json.dumps(value)]
    expected = {"ok": True, "command": cmd, "config": {"p": p, "n": n, "e": e},
                "result": result, "regauged": False}
    return Op(f"cli/{cmd}/n{n}", run_cli, (tuple(argv),), expected, envelope_is)


def cli_valid(rng, n, p):
    """One well-formed request per command; answers by construction or
    from direct library calls re-emitted by this module's own writer."""
    ctx = arith.PrimeContext(p, n)
    truth = n != 3                      # n = 3 asks the negative questions
    x = rand_point(rng, n, interior=rng.random() < 0.5)
    ops = []

    vals = [lvdoc(arith.LogValue.finite(-x.exponent(i))) if i in x.piece else "zero"
            for i in range(1, n + 1)]
    ops.append(cli_request("phi", p, n, 1, [("--point", pdoc(x))],
                           {"basis": mdoc(eye(n)), "values": vals}))
    ops.append(cli_request("phi-inv", p, n, 1,
                           [("--seminorm", {"basis": mdoc(eye(n)), "values": vals})], pdoc(x)))

    if n < 4:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        trans = [Fraction(0)] + [rfrac(rng) for _ in range(n - 1)]
        piece, exps = gauged((perm[i - 1], x.exponent(i) + trans[perm[i - 1] - 1])
                             for i in x.piece)
        ops.append(cli_request("act", p, n, 1,
                               [("--m", {"perm": perm, "trans": vdoc(trans)}), ("--point", pdoc(x))],
                               {"I": list(piece), "x": vdoc(exps)}))
    else:
        s = seminorm.diagonal_seminorm(rand_invertible(rng, n, p), rand_values(rng, n, 1), ctx)
        g = rand_invertible(rng, n, p)
        b = building.act_group(g, building.building_point(s))
        ops.append(cli_request("act", p, n, 1, [("--g", mdoc(g)), ("--seminorm", sdoc(s))], bdoc(b)))

    g = rand_invertible(rng, n, p)
    m = rand_monomial(rng, n)
    y = apartment.act_monomial(apartment.monomial_inverse(m), x)
    gm = matmul(g, apartment.monomial_matrix(m, ctx))
    if not truth:
        gm = matmul(gm, apartment.monomial_matrix(perturbing_monomial(rng, y, n), ctx))
    ops.append(cli_request("equiv", p, n, 1,
                           [("--c1", {"g": mdoc(g), "x": pdoc(x)}), ("--c2", {"g": mdoc(gm), "x": pdoc(y)})],
                           {"equivalent": truth}))

    h = (building.sample_P_x_generators(x, 1, 3, ctx, seed=rng.randrange(1 << 30))[0]
         if truth else violating_unipotent(rng, x, ctx))
    ops.append(cli_request("stab", p, n, 1, [("--g", mdoc(h)), ("--point", pdoc(x))],
                           {"in_stabilizer": truth}))

    pts = (rand_point(rng, n, interior=True), rand_point(rng, n, interior=False))
    i, j = rng.sample(range(1, n + 1), 2)
    f = f_expected(pts, i, j)
    f_doc = "inf" if f == inf else "-inf" if f == -inf else fs(f)
    ops.append(cli_request("fsigma", p, n, 1, [("--sigma", [pdoc(t) for t in pts]), ("--root", [i, j])],
                           {"f": f_doc}))

    x0 = rand_point(rng, n, interior=True)
    d = [rng.randint(0, 4) for _ in range(n)]
    low = [t for t in range(1, n + 1) if d[t - 1] == min(d)]
    piece, exps = gauged((t, x0.exponent(t)) for t in low)
    ops.append(cli_request("ray-limit", p, n, 1, [("--x0", pdoc(x0)), ("--d", vdoc(d))],
                           {"I": list(piece), "x": vdoc(exps)}))

    box = rand_box(rng, n)
    size = rng.randint(2, n) - 1 if truth else 2
    y, i_set = gamma_case(rng, n, box, sorted(rng.sample(range(1, n + 1), size)), True, truth)
    ops.append(cli_request("gamma-member", p, n, 1,
                           [("--y", pdoc(y)),
                            ("--box", {"intervals": [[fs(lo), fs(hi)] for lo, hi in box.intervals]}),
                            ("--I", i_set)], {"member": truth}))

    if n == 2:
        z = [rnonzero(rng)] + [rfrac(rng) for _ in range(n - 1)]
        b = berkovich.r_reduce_rational(z, ctx)
        ops.append(cli_request("reduce", p, n, 1, [("--kind", "rational"), ("--z", vdoc(z))], bdoc(b)))
    elif n == 3:
        lctx = arith.PrimeContext(p, n, 2)
        z = rank_matrix(rng, 2, n, 2)
        cols = [[z[r][c] for r in range(2)] for c in range(n)]
        b = berkovich.r_reduce_L_point(berkovich.l_functional(
            [arith.l_scalar(c, lctx) for c in cols], lctx))
        ops.append(cli_request("reduce", p, n, 2, [("--kind", "l-point"), ("--z", [vdoc(c) for c in cols])],
                               bdoc(b)))
    else:
        mp = berkovich.monomial_point(rand_invertible(rng, n, p), rand_values(rng, n, 1), ctx)
        b = berkovich.r_reduce_monomial(mp)
        ops.append(cli_request("reduce", p, n, 1,
                               [("--kind", "monomial"),
                                ("--mp", {"basis": mdoc(mp.basis), "radii": [lvdoc(r) for r in mp.radii]})],
                               bdoc(b)))

    s = seminorm.diagonal_seminorm(rand_invertible(rng, n, p), rand_values(rng, n, 1), ctx)
    j = berkovich.j_section(building.building_point(s))
    ops.append(cli_request("section", p, n, 1, [("--b", sdoc(s))],
                           {"basis": mdoc(j.basis), "radii": [lvdoc(r) for r in j.radii]}))

    r = min(n, 2) if truth else 1
    z = rank_matrix(rng, 2, n, r)
    ops.append(cli_request("omega", p, n, 2, [("--z", [[fs(z[t][c]) for t in range(2)] for c in range(n)])],
                           {"in_omega": r == n}))

    ambient = seminorm.diagonal_seminorm(rand_invertible(rng, n, p), rand_values(rng, n, 0), ctx)
    us = rank_matrix(rng, n - 1, n, n - 1)
    out = seminorm.orthogonalize(list(us), ambient)
    ops.append(cli_request("ortho", p, n, 1, [("--us", mdoc(us)), ("--ambient", sdoc(ambient))],
                           {"vectors": mdoc(out)}))

    seed = rng.randrange(1000)
    gens = building.sample_P_x_generators(x, 3, 2, ctx, seed)
    ops.append(cli_request("sample-px", p, n, 1,
                           [("--point", pdoc(x)), ("--count", "3"), ("--bound", "2"), ("--seed", str(seed))],
                           {"generators": [mdoc(t) for t in gens]}))
    return ops


def cli_malformed(rng):
    """Requests that must end in one JSON error envelope with a fixed code.

    The `defect` cases are bounded inputs that the program answers today
    instead of rejecting; they stay in the mix and count as failed.
    """
    p = rng.choice(PRIMES)
    x = json.dumps(pdoc(rand_point(rng, 2, interior=True)))
    pt3 = json.dumps(pdoc(rand_point(rng, 3, interior=True)))
    base = ["--p", str(p), "--n", "2"]
    cases = [
        ("unknown-command", ["frobnicate"] + base, {4}, False),
        ("bad-json", ["phi"] + base + ["--point", x[:-3]], {3}, False),
        ("missing-p", ["phi", "--n", "2", "--point", x], {3}, False),
        ("p-not-prime", ["phi", "--p", "4", "--n", "2", "--point", x], {2}, False),
        ("singular-basis", ["phi-inv"] + base + [
            "--seminorm", '{"basis":[["1/1","2/1"],["1/2","1/1"]],"values":[{"log":"0/1"},"zero"]}'],
         {2}, False),
        ("zero-denominator", ["phi"] + base + ["--point", '{"I":[1,2],"x":["0/1","1/0"]}'], {3}, False),
        ("exponents-not-array", ["phi"] + base + ["--point", '{"I":[1,2],"x":5}'], {3}, True),
        ("exponent-grammar", ["phi"] + base + ["--point", '{"I":[1,2],"x":["0/1","1e3"]}'], {3}, True),
        ("act-perm-size", ["act"] + base + [
            "--m", '{"perm":[2,3,1],"trans":["0/1","0/1","0/1"]}', "--point", x], {2, 3}, True),
        ("fsigma-root-range", ["fsigma"] + base + ["--sigma", f"[{x}]", "--root", "[1,5]"], {2, 3}, True),
        ("gamma-box-size", ["gamma-member", "--p", str(p), "--n", "3", "--y", pt3,
                            "--box", '{"intervals":[["-1/1","1/1"]]}', "--I", "[1]"], {2, 3}, True),
        ("gamma-piece-range", ["gamma-member", "--p", str(p), "--n", "3",
                               "--y", '{"I":[1,7],"x":["0/1","1/1"]}',
                               "--box", '{"intervals":[["-1/1","1/1"],["-1/1","1/1"]]}', "--I", "[1]"],
         {2, 3}, True),
    ]
    return [Op(f"cli/error/{name}", run_cli, (tuple(argv),), codes, error_is, defect)
            for name, argv, codes, defect in cases]


def cli_mix(rng):
    ops = []
    for n in range(2, 5):
        ops += cli_valid(rng, n, PRIMES[n % 3])
    return ops + cli_malformed(rng)


WORKLOADS = {"classes": classes, "topology": topology, "reduction": reduction, "cli": cli_mix}


def batch(workload: str, seed: int, index: int) -> list:
    """Batch `index` of a workload; index 0 is the warm-up batch."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{index}"))
