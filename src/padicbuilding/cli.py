"""Command-line frontend over JSON documents.

Every subcommand takes the configuration flags --p --n [--e] plus payload
flags holding inline JSON or @file references, and writes a single JSON
envelope to stdout.  Exit codes: 0 ok, 2 domain error, 3 parse error,
4 unknown command.  A payload whose JSON lacks its documented type is
exit 3; every refusal of its decoded values, relations between fields
included, is the library's own error, exit 2.  Randomized commands
require an explicit --seed so runs are reproducible.  A payload its mode
does not read is exit 3, not dropped: `act --m` takes no --g or
--seminorm, `act --g` no --point, and `reduce` takes --mp only with
--kind monomial and --z only without it.  `COMMANDS` declares each
command once; `_parse` reads flags with argparse's grammar and messages,
without argparse.
"""

from __future__ import annotations

import json
import re
import sys

from . import apartment, berkovich, building, seminorm, serialize
from .arith import PrimeContext
from .errors import DomainError, ParseError

# Caps that bound the work a short request can ask for; exceeding one is exit 2.
_CAPS = {"--n": 64, "--e": 64, "--count": 1000, "--bound": 64}
# An @file payload longer than this is exit 3; it fits a 64 x 64 matrix of 1000-digit rationals.
_PAYLOAD_BYTES = 16 << 20
_ENCODER = json.JSONEncoder(sort_keys=True)       # writes both envelopes
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")    # argparse reads such a token as a value


def _given(value, where):
    if value is None:
        raise ParseError("missing required payload", where)
    return value


def _payload(raw, where):
    try:
        if _given(raw, where).startswith("@"):
            with open(raw[1:], "rb") as fh:
                data = fh.read(_PAYLOAD_BYTES + 1)
            if len(data) > _PAYLOAD_BYTES:
                raise ParseError(f"payload file is longer than {_PAYLOAD_BYTES} bytes", where)
            raw = data.decode("utf-8")
        return json.loads(raw)
    except OSError as exc:
        raise ParseError(str(exc), where)
    except UnicodeDecodeError as exc:
        raise ParseError(f"payload file is not UTF-8: {exc}", where)
    except (json.JSONDecodeError, RecursionError) as exc:    # RecursionError: nested too deep
        raise ParseError(f"invalid JSON: {exc}", where)


def _capped(value, flag):
    if value > _CAPS[flag]:
        raise DomainError(f"{flag} is {value}, at most {_CAPS[flag]} is supported")
    return value


class _Request:
    """`read` hands a flag's value to its reader; a reader decodes JSON through serialize
    and checks it against ctx (the last four leave that to the library, which checks
    sizes itself).  `regauged` records whether a reader repaired a gauge."""

    def __init__(self, ctx):
        self.ctx, self.n, self.regauged = ctx, ctx.n, False

    def read(self, flag, reader, args):
        name = flag.strip("[]")
        if reader in (int, str) or (args[name] is None and name != flag):
            return args[name]
        return getattr(self, reader)(_payload(args[name], name), name)

    def point(self, doc, where):
        x, regauged = serialize.apartment_point_from_doc(doc, where)
        self.regauged |= regauged
        return x.checked(self.n)

    def points(self, doc, where):
        if not isinstance(doc, list) or not doc:
            raise ParseError("expected a nonempty array of points", where)
        return [self.point(item, f"{where}[{k}]") for k, item in enumerate(doc)]

    def matrix(self, doc, where):
        g = serialize.matrix_from_doc(doc, where)
        if len(g) != self.n or len(g[0]) != self.n:
            raise DomainError(f"{where}: expected {self.n} rows of {self.n} entries")
        return g

    def chart(self, doc, where):
        if not isinstance(doc, dict) or not {"g", "x"} <= set(doc):
            raise ParseError("expected {\"g\": ..., \"x\": ...}", where)
        g = self.matrix(doc["g"], where + ".g")
        return building.ChartPoint(g, self.point(doc["x"], where + ".x"))

    def monomial(self, doc, where):
        m, regauged = serialize.monomial_from_doc(doc, where)
        if m.n != self.n:
            raise DomainError(f"permutation has length {m.n}, expected {self.n}")
        self.regauged |= regauged
        return m

    def root(self, doc, where):
        return serialize.root_from_doc(doc, where).checked(self.n)

    def box(self, doc, where):
        box = serialize.box_from_doc(doc, where)
        if box.n != self.n:
            raise DomainError(f"box has {box.n - 1} intervals, expected {self.n - 1}")
        return box

    def indices(self, doc, where):
        if not isinstance(doc, list) or not all(type(i) is int for i in doc):
            raise ParseError("expected an array of indices", where)
        return doc

    def vector(self, doc, where):
        v = serialize.vector_from_doc(doc, where)
        if len(v) != self.n:
            raise DomainError(f"{where}: expected {self.n} entries, got {len(v)}")
        return v

    def vectors(self, doc, where):
        return serialize.matrix_from_doc(doc, where)

    def seminorm(self, doc, where):
        return serialize.seminorm_from_doc(doc, self.ctx, where)

    def functional(self, doc, where):
        return serialize.lfunctional_from_doc(doc, self.ctx, where)


def _unread(payloads, mode):
    for flag, value in payloads.items():
        if value is not None:
            raise ParseError(f"not read with {mode}", flag)


def _act(ctx, m, x, g, s):
    if m is not None:
        _unread({"--g": g, "--seminorm": s}, "--m")
        return serialize.apartment_point_to_doc(apartment.act_monomial(m, _given(x, "--point")))
    if g is not None:
        _unread({"--point": x}, "--g")
        b = building.act_group(g, building.building_point(_given(s, "--seminorm")))
        return serialize.building_point_to_doc(b)
    raise ParseError("act needs either --m with --point or --g with --seminorm")


def _reduce(ctx, kind, mp, z):
    # the kind says how to read the payload: --z is a rational vector or an L-functional
    if kind == "monomial":
        _unread({"--z": z}, "--kind monomial")
        b = berkovich.r_reduce_monomial(
            serialize.monomial_point_from_doc(_payload(mp, "--mp"), ctx, "--mp"))
    elif kind == "rational":
        _unread({"--mp": mp}, "--kind rational")
        b = berkovich.r_reduce_rational(serialize.vector_from_doc(_payload(z, "--z"), "--z"), ctx)
    elif kind == "l-point":
        _unread({"--mp": mp}, "--kind l-point")
        zf = serialize.lfunctional_from_doc(_payload(z, "--z"), ctx, "--z")
        b = berkovich.r_reduce_L_point(zf)
    else:
        raise ParseError("--kind must be monomial, rational or l-point")
    return serialize.building_point_to_doc(b)


def _sample(ctx, x, count, bound, seed):
    if seed < 0:
        raise ParseError("--seed must be a nonnegative integer")
    count = _capped(5 if count is None else count, "--count")
    bound = _capped(3 if bound is None else bound, "--bound")
    # admissible unipotents raise p to exponents as large as the coordinates
    if any(abs(c) > _CAPS["--bound"] for c in x.exponents):
        raise DomainError(f"sample-px needs coordinates of size at most {_CAPS['--bound']}")
    gens = building.sample_P_x_generators(x, count, bound, ctx, seed)
    return {"generators": [serialize.matrix_to_doc(g) for g in gens]}


# command -> (handler, {flag: reader}, summary).  A reader names a _Request method, or is
# int or str for a flag passed on as _parse read it; a flag in brackets is optional.
# The handler gets ctx and the decoded payloads in flag order and returns the result.
COMMANDS = {
    "phi": (lambda ctx, x: serialize.seminorm_to_doc(seminorm.phi_from_apartment(x, ctx)),
            {"--point": "point"}, "apartment point -> diagonal seminorm"),
    "phi-inv": (lambda ctx, g: serialize.apartment_point_to_doc(seminorm.phi_inverse(g)),
                {"--seminorm": "seminorm"}, "standard-basis seminorm -> apartment point"),
    "act": (_act, {"[--m]": "monomial", "[--point]": "point", "[--g]": "matrix",
                   "[--seminorm]": "seminorm"}, "monomial on a point, matrix on a seminorm class"),
    "equiv": (lambda ctx, c1, c2: {"equivalent": building.chart_equivalent(c1, c2, ctx)},
              {"--c1": "chart", "--c2": "chart"}, "chart equivalence"),
    "stab": (lambda ctx, g, x: {"in_stabilizer": building.in_stabilizer_P_x(g, x, ctx)},
             {"--g": "matrix", "--point": "point"}, "stabilizer membership"),
    "fsigma": (lambda ctx, xs, a: {"f": serialize.extended_to_doc(apartment.f_sigma(xs, a))},
               {"--sigma": "points", "--root": "root"}, "filtration threshold of a point set"),
    "ray-limit": (lambda ctx, x0, d: serialize.apartment_point_to_doc(apartment.ray_limit(x0, d)),
                  {"--x0": "point", "--d": "vector"}, "boundary limit of a ray"),
    "gamma-member": (lambda ctx, y, box, i: {"member": apartment.gamma_membership(y, box, i)},
                     {"--y": "point", "--box": "box", "--I": "indices"}, "basic-open membership"),
    "reduce": (_reduce, {"--kind": str, "[--mp]": str, "[--z]": str},
               "reduction to the building; kind is monomial, rational or l-point"),
    "section": (lambda ctx, s: serialize.monomial_point_to_doc(
                    berkovich.j_section(building.building_point(s))),
                {"--b": "seminorm"}, "building point -> monomial point"),
    "omega": (lambda ctx, zf: {"in_omega": berkovich.in_omega(zf)},
              {"--z": "functional"}, "hyperplane-complement test"),
    "ortho": (lambda ctx, u, g: {"vectors": serialize.matrix_to_doc(seminorm.orthogonalize(u, g))},
              {"--us": "vectors", "--ambient": "seminorm"}, "orthogonalize in an ambient norm"),
    "sample-px": (_sample, {"--point": "point", "[--count]": int, "[--bound]": int, "--seed": int},
                  "random stabilizer elements"),
}


def _flag_table(flags):
    """{option: (dest, is int)} in argparse's order, the defaults and the required options."""
    table = {"--p": ("p", True), "--n": ("n", True), "--e": ("e", True)}
    table.update((f.strip("[]"), (f.strip("[]"), r is int)) for f, r in flags.items())
    required = ["--p", "--n"] + [f for f, r in flags.items() if r is int and f[0] != "["]
    return table, {**dict.fromkeys(dest for dest, _ in table.values()), "e": 1}, required


_FLAGS = {cmd: _flag_table(flags) for cmd, (_, flags, _) in COMMANDS.items()}


def _option(token, table, where):
    """None for a value, else (the option or None if unknown, its `=` value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    matches = [name] if name in table else [option for option in table if option.startswith(name)]
    if len(matches) > 1:
        raise ParseError(f"ambiguous option: {token} could match {', '.join(matches)}", where)
    if matches:
        return matches[0], value if eq else None
    return None if " " in token or _NEGATIVE.match(token) else (None, None)


def _parse(cmd, flags, argv):
    """argv as argparse read it, with its errors in argparse's order: an ambiguous prefix
    anywhere, a missing or non-int value, a missing required flag, unrecognized tokens."""
    table, defaults, required = flags
    where = f"padicbuilding {cmd}"
    end = argv.index("--") if "--" in argv else len(argv)      # `--` and all after it are extras
    found = [_option(token, table, where) for token in argv[:end]] + [(None, None)]
    args, extras, k = dict(defaults), [], 0
    while k < end:
        option, value = found[k] or (None, None)
        k += 1
        if option is None:
            extras.append(argv[k - 1])
            continue
        if value is None:
            if found[k] is not None:
                raise ParseError(f"argument {option}: expected one argument", where)
            value, k = argv[k], k + 1
        dest, is_int = table[option]
        try:
            args[dest] = int(value) if is_int else value
        except ValueError:
            raise ParseError(f"argument {option}: invalid int value: {value!r}", where)
    missing = [option for option in required if args[table[option][0]] is None]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}", where)
    extras += argv[end:]
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}", where)
    return args


_HELP = "\n".join(
    ["usage: padicbuilding COMMAND --p P --n N [--e E] [payload flags]", "", "commands:"]
    + [f"  {cmd:<13} {summary}\n  {'':<13} {' '.join(flags)}"
       for cmd, (_, flags, summary) in COMMANDS.items()]
    + ["", "payload flags accept inline JSON or @path-to-file; flags in brackets are optional.",
       "limits: " + ", ".join(f"{flag} <= {cap}" for flag, cap in _CAPS.items())])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(_HELP)
        return 0
    cmd = argv[0]
    if cmd not in COMMANDS:
        return _fail("UnknownCommand", f"unknown command {cmd!r}", 4)
    handler, flags, _ = COMMANDS[cmd]
    try:
        args = _parse(cmd, _FLAGS[cmd], argv[1:])
        ctx = PrimeContext(args["p"], _capped(args["n"], "--n"), _capped(args["e"], "--e"))
        req = _Request(ctx)
        result = handler(ctx, *[req.read(flag, reader, args) for flag, reader in flags.items()])
    except ParseError as exc:
        return _fail("ParseError", str(exc), 3)
    except (DomainError, ValueError) as exc:
        return _fail(type(exc).__name__.removesuffix("Error"), str(exc), 2)
    print(_ENCODER.encode({"ok": True, "command": cmd, "result": result, "regauged": req.regauged,
                           "config": {"p": ctx.p, "n": ctx.n, "e": ctx.e}}))
    return 0


def _fail(code, message, status):
    print(_ENCODER.encode({"ok": False, "error": code, "message": message}), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
