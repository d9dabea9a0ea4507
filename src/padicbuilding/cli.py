"""Command-line frontend over JSON documents.

Every subcommand takes the configuration flags --p --n [--e] plus payload
flags holding inline JSON or @file references, and writes a single JSON
envelope to stdout.  Exit codes: 0 ok, 2 domain error, 3 parse error,
4 unknown command.  Randomized commands require an explicit --seed so
runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import apartment, berkovich, building, seminorm, serialize
from .arith import PrimeContext
from .errors import DomainError, ParseError

COMMANDS = ("phi", "phi-inv", "act", "equiv", "stab", "fsigma", "ray-limit",
            "gamma-member", "reduce", "section", "omega", "ortho", "sample-px")

_USAGE = """usage: padicbuilding COMMAND --p P --n N [--e E] [payload flags]

commands:
  phi           apartment point -> diagonal seminorm        (--point)
  phi-inv       standard-basis seminorm -> apartment point  (--seminorm)
  act           monomial on a point (--m --point) or matrix on a
                seminorm class (--g --seminorm)
  equiv         chart equivalence                           (--c1 --c2)
  stab          stabilizer membership                       (--g --point)
  fsigma        filtration threshold of a point set         (--sigma --root)
  ray-limit     boundary limit of a ray                     (--x0 --d)
  gamma-member  basic-open membership                       (--y --box --I)
  reduce        reduction to the building (--kind monomial|rational|l-point,
                --mp or --z)
  section       building point -> monomial point            (--b)
  omega         hyperplane-complement test                  (--z)
  ortho         orthogonalize vectors in an ambient norm    (--us --ambient)
  sample-px     random stabilizer elements                  (--point --count
                --bound --seed)

payload flags accept inline JSON or @path-to-file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, self.prog)


def _payload(raw, where):
    if raw is None:
        raise ParseError("missing required payload", where)
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(str(exc), where)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", where)


def _parser(cmd, *flags, ints=(), required_ints=()):
    p = _Parser(prog=f"padicbuilding {cmd}", add_help=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    for f in flags:
        p.add_argument(f)
    for f in ints:
        p.add_argument(f, type=int)
    for f in required_ints:
        p.add_argument(f, type=int, required=True)
    return p


def _point_arg(raw, where):
    return serialize.apartment_point_from_doc(_payload(raw, where), where)


def _dispatch(cmd, argv):
    # returns (result document, regauged flag, ctx)
    if cmd == "phi":
        args = _parser(cmd, "--point").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        x, rg = _point_arg(args.point, "--point")
        return serialize.seminorm_to_doc(seminorm.phi_from_apartment(x, ctx)), rg, ctx

    if cmd == "phi-inv":
        args = _parser(cmd, "--seminorm").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        g = serialize.seminorm_from_doc(_payload(args.seminorm, "--seminorm"), ctx)
        return serialize.apartment_point_to_doc(seminorm.phi_inverse(g)), False, ctx

    if cmd == "act":
        args = _parser(cmd, "--m", "--point", "--g", "--seminorm").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        if args.m is not None:
            m, rg1 = serialize.monomial_from_doc(_payload(args.m, "--m"))
            x, rg2 = _point_arg(args.point, "--point")
            y = apartment.act_monomial(m, x)
            return serialize.apartment_point_to_doc(y), rg1 or rg2, ctx
        if args.g is not None:
            g = serialize.matrix_from_doc(_payload(args.g, "--g"), "--g")
            s = serialize.seminorm_from_doc(_payload(args.seminorm, "--seminorm"), ctx)
            b = building.act_group(g, building.building_point(s))
            return serialize.building_point_to_doc(b), False, ctx
        raise ParseError("act needs either --m with --point or --g with --seminorm")

    if cmd == "equiv":
        args = _parser(cmd, "--c1", "--c2").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        c1, rg1 = serialize.chart_from_doc(_payload(args.c1, "--c1"), "--c1")
        c2, rg2 = serialize.chart_from_doc(_payload(args.c2, "--c2"), "--c2")
        eq = building.chart_equivalent(c1, c2, ctx)
        return {"equivalent": eq}, rg1 or rg2, ctx

    if cmd == "stab":
        args = _parser(cmd, "--g", "--point").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        g = serialize.matrix_from_doc(_payload(args.g, "--g"), "--g")
        x, rg = _point_arg(args.point, "--point")
        return {"in_stabilizer": building.in_stabilizer_P_x(g, x, ctx)}, rg, ctx

    if cmd == "fsigma":
        args = _parser(cmd, "--sigma", "--root").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        doc = _payload(args.sigma, "--sigma")
        if not isinstance(doc, list) or not doc:
            raise ParseError("expected a nonempty array of points", "--sigma")
        rg = False
        points = []
        for k, item in enumerate(doc):
            x, r = serialize.apartment_point_from_doc(item, f"--sigma[{k}]")
            points.append(x)
            rg = rg or r
        a = serialize.root_from_doc(_payload(args.root, "--root"), "--root")
        return {"f": serialize.extended_to_doc(apartment.f_sigma(points, a))}, rg, ctx

    if cmd == "ray-limit":
        args = _parser(cmd, "--x0", "--d").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        x0, rg = _point_arg(args.x0, "--x0")
        d = serialize.vector_from_doc(_payload(args.d, "--d"), "--d")
        y = apartment.ray_limit(x0, d)
        return serialize.apartment_point_to_doc(y), rg, ctx

    if cmd == "gamma-member":
        args = _parser(cmd, "--y", "--box", "--I").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        y, rg = _point_arg(args.y, "--y")
        box = serialize.box_from_doc(_payload(args.box, "--box"), "--box")
        if box.n != ctx.n:
            raise DomainError(f"box has {box.n - 1} intervals, expected {ctx.n - 1}")
        piece = _payload(args.I, "--I")
        if not isinstance(piece, list) or not all(isinstance(i, int) for i in piece):
            raise ParseError("expected an array of indices", "--I")
        return {"member": apartment.gamma_membership(y, box, piece)}, rg, ctx

    if cmd == "reduce":
        args = _parser(cmd, "--kind", "--mp", "--z").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        if args.kind == "monomial":
            p = serialize.monomial_point_from_doc(_payload(args.mp, "--mp"), ctx)
            b = berkovich.r_reduce_monomial(p)
        elif args.kind == "rational":
            z = serialize.vector_from_doc(_payload(args.z, "--z"), "--z")
            b = berkovich.r_reduce_rational(z, ctx)
        elif args.kind == "l-point":
            zf = serialize.lfunctional_from_doc(_payload(args.z, "--z"), ctx, "--z")
            b = berkovich.r_reduce_L_point(zf)
        else:
            raise ParseError("--kind must be monomial, rational or l-point")
        return serialize.building_point_to_doc(b), False, ctx

    if cmd == "section":
        args = _parser(cmd, "--b").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        s = serialize.seminorm_from_doc(_payload(args.b, "--b"), ctx, "--b")
        p = berkovich.j_section(building.building_point(s))
        return serialize.monomial_point_to_doc(p), False, ctx

    if cmd == "omega":
        args = _parser(cmd, "--z").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        zf = serialize.lfunctional_from_doc(_payload(args.z, "--z"), ctx, "--z")
        return {"in_omega": berkovich.in_omega(zf)}, False, ctx

    if cmd == "ortho":
        args = _parser(cmd, "--us", "--ambient").parse_args(argv)
        ctx = PrimeContext(args.p, args.n, args.e)
        us = serialize.matrix_from_doc(_payload(args.us, "--us"), "--us")
        ambient = serialize.seminorm_from_doc(_payload(args.ambient, "--ambient"), ctx)
        out = seminorm.orthogonalize(list(us), ambient)
        return {"vectors": serialize.matrix_to_doc(out)}, False, ctx

    if cmd == "sample-px":
        parser = _parser(cmd, "--point", ints=("--count", "--bound"),
                         required_ints=("--seed",))
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise ParseError("--seed must be a nonnegative integer")
        ctx = PrimeContext(args.p, args.n, args.e)
        x, rg = _point_arg(args.point, "--point")
        count = args.count if args.count is not None else 5
        bound = args.bound if args.bound is not None else 3
        gens = building.sample_P_x_generators(x, count, bound, ctx, args.seed)
        return {"generators": [serialize.matrix_to_doc(g) for g in gens]}, rg, ctx

    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    cmd = argv[0]
    if cmd not in COMMANDS:
        _fail("UnknownCommand", f"unknown command {cmd!r}")
        return 4
    try:
        result, regauged, ctx = _dispatch(cmd, argv[1:])
    except ParseError as exc:
        _fail("ParseError", str(exc))
        return 3
    except (DomainError, ValueError) as exc:
        name = type(exc).__name__
        code = name[:-5] if name.endswith("Error") else name
        _fail(code or "Domain", str(exc))
        return 2
    envelope = {
        "ok": True,
        "command": cmd,
        "config": {"p": ctx.p, "n": ctx.n, "e": ctx.e},
        "result": result,
        "regauged": regauged,
    }
    print(json.dumps(envelope, sort_keys=True))
    return 0


def _fail(code, message):
    print(json.dumps({"ok": False, "error": code, "message": message},
                     sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
