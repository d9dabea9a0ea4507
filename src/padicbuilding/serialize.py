"""JSON document conversion for every public type.

Rationals travel as "num/den" strings and round-trip bit-exactly; inputs
are reduced on read and re-emitted reduced.  On read a rational is a JSON
integer or a string of the form -?digits(/digits)?, each part at most
1000 digits long; anything else is a ParseError, so no input string makes
the parser do unbounded work.  Apartment points and
monomial elements are re-gauged on read, and readers report whether that
happened so callers can flag it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import apartment, arith, berkovich, building, seminorm
from .errors import ParseError


def frac_to_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


_MAX_DIGITS = 1000
_INT_BOUND = 10 ** _MAX_DIGITS
_RATIONAL = re.compile(r"-?[0-9]{1,%d}(/[0-9]{1,%d})?" % (_MAX_DIGITS, _MAX_DIGITS))


def frac_from_str(doc, where="rational") -> Fraction:
    if isinstance(doc, bool) or not isinstance(doc, (str, int)):
        raise ParseError("expected a \"num/den\" string", where)
    if isinstance(doc, int):
        if abs(doc) >= _INT_BOUND:
            raise ParseError(f"integer has more than {_MAX_DIGITS} digits", where)
        return Fraction(doc)
    if _RATIONAL.fullmatch(doc) is None:
        raise ParseError(f"bad rational {doc[:40]!r}: expected -?digits(/digits)? "
                         f"with at most {_MAX_DIGITS} digits per part", where)
    num, _, den = doc.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {doc!r}: {exc}", where)


def extended_to_doc(t):
    if t == math.inf:
        return "inf"
    if t == -math.inf:
        return "-inf"
    return frac_to_str(t)


def logvalue_to_doc(v: arith.LogValue):
    return "zero" if v.is_zero else {"log": frac_to_str(v.log)}


def logvalue_from_doc(doc, where="value") -> arith.LogValue:
    if doc == "zero":
        return arith.ZERO_VALUE
    if isinstance(doc, dict) and set(doc) == {"log"}:
        return arith.LogValue.finite(frac_from_str(doc["log"], where + ".log"))
    raise ParseError("expected \"zero\" or {\"log\": \"a/b\"}", where)


def vector_to_doc(v):
    return [frac_to_str(x) for x in v]


def vector_from_doc(doc, where="vector"):
    if not isinstance(doc, list) or not doc:
        raise ParseError("expected a nonempty array", where)
    return tuple(frac_from_str(x, f"{where}[{k}]") for k, x in enumerate(doc))


def matrix_to_doc(m):
    return [vector_to_doc(row) for row in m]


def matrix_from_doc(doc, where="matrix"):
    if not isinstance(doc, list) or not doc:
        raise ParseError("expected a nonempty row array", where)
    rows = [vector_from_doc(r, f"{where}[{k}]") for k, r in enumerate(doc)]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix", where)
    return arith.mat(rows)


def lscalar_to_doc(z: arith.LScalar):
    return vector_to_doc(z.coeffs)


def lscalar_from_doc(doc, ctx, where="scalar") -> arith.LScalar:
    if not isinstance(doc, list):
        raise ParseError("expected a coefficient array", where)
    coeffs = [frac_from_str(x, f"{where}[{k}]") for k, x in enumerate(doc)]
    try:
        return arith.l_scalar(coeffs, ctx)
    except ValueError as exc:
        raise ParseError(str(exc), where)


def apartment_point_to_doc(x: apartment.ApartmentPoint):
    return {"I": list(x.piece), "x": vector_to_doc(x.exponents)}


def apartment_point_from_doc(doc, where="point"):
    """Returns (point, regauged): gauge violations are repaired and flagged."""
    if not isinstance(doc, dict) or not {"I", "x"} <= set(doc):
        raise ParseError("expected {\"I\": [...], \"x\": [...]}", where)
    piece = doc["I"]
    if not isinstance(piece, list) or not all(isinstance(i, int) for i in piece):
        raise ParseError("piece must be an array of indices", where + ".I")
    if not isinstance(doc["x"], list):
        raise ParseError("exponents must be an array", where + ".x")
    exps = [frac_from_str(t, f"{where}.x[{k}]") for k, t in enumerate(doc["x"])]
    if len(exps) != len(piece):
        raise ParseError("piece and exponent lengths differ", where)
    try:
        point = apartment.apartment_point(piece, exps)
    except Exception as exc:
        raise ParseError(str(exc), where)
    given = dict(zip(piece, exps))
    regauged = any(point.exponent(i) != given[i] for i in point.piece)
    return point, regauged


def monomial_to_doc(m: apartment.MonomialElement):
    return {"perm": list(m.perm), "trans": vector_to_doc(m.trans)}


def monomial_from_doc(doc, where="monomial"):
    if not isinstance(doc, dict) or not {"perm", "trans"} <= set(doc):
        raise ParseError("expected {\"perm\": [...], \"trans\": [...]}", where)
    if not isinstance(doc["trans"], list):
        raise ParseError("translation must be an array", where + ".trans")
    trans = [frac_from_str(t, f"{where}.trans[{k}]") for k, t in enumerate(doc["trans"])]
    try:
        m = apartment.monomial_element(doc["perm"], trans)
    except Exception as exc:
        raise ParseError(str(exc), where)
    regauged = tuple(trans) != m.trans
    return m, regauged


def root_to_doc(a: apartment.Root):
    return [a.i, a.j]


def root_from_doc(doc, where="root"):
    if not (isinstance(doc, list) and len(doc) == 2
            and all(isinstance(t, int) for t in doc)):
        raise ParseError("expected [i, j]", where)
    try:
        return apartment.Root(doc[0], doc[1])
    except Exception as exc:
        raise ParseError(str(exc), where)


def box_to_doc(u: apartment.OpenBox):
    return {"intervals": [[frac_to_str(lo), frac_to_str(hi)] for lo, hi in u.intervals]}


def box_from_doc(doc, where="box"):
    if not isinstance(doc, dict) or "intervals" not in doc:
        raise ParseError("expected {\"intervals\": [[lo, hi], ...]}", where)
    if not isinstance(doc["intervals"], list):
        raise ParseError("intervals must be an array", where + ".intervals")
    ivs = []
    for k, pair in enumerate(doc["intervals"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError("expected [lo, hi]", f"{where}.intervals[{k}]")
        ivs.append((frac_from_str(pair[0], f"{where}.intervals[{k}][0]"),
                    frac_from_str(pair[1], f"{where}.intervals[{k}][1]")))
    try:
        return apartment.open_box(ivs)
    except Exception as exc:
        raise ParseError(str(exc), where)


def seminorm_to_doc(g: seminorm.DiagonalSeminorm):
    return {"basis": matrix_to_doc(g.basis),
            "values": [logvalue_to_doc(v) for v in g.values]}


def seminorm_from_doc(doc, ctx, where="seminorm"):
    if not isinstance(doc, dict) or not {"basis", "values"} <= set(doc):
        raise ParseError("expected {\"basis\": ..., \"values\": [...]}", where)
    basis = matrix_from_doc(doc["basis"], where + ".basis")
    values = [logvalue_from_doc(v, f"{where}.values[{k}]")
              for k, v in enumerate(doc["values"])]
    return seminorm.diagonal_seminorm(basis, values, ctx)


def chart_to_doc(c: building.ChartPoint):
    return {"g": matrix_to_doc(c.g), "x": apartment_point_to_doc(c.x)}


def chart_from_doc(doc, where="chart"):
    if not isinstance(doc, dict) or not {"g", "x"} <= set(doc):
        raise ParseError("expected {\"g\": ..., \"x\": ...}", where)
    g = matrix_from_doc(doc["g"], where + ".g")
    x, regauged = apartment_point_from_doc(doc["x"], where + ".x")
    return building.ChartPoint(g, x), regauged


def building_point_to_doc(b: building.BuildingPoint):
    doc = seminorm_to_doc(b.seminorm)
    doc["kernel"] = matrix_to_doc(b.kernel()) if b.kernel() else []
    return doc


def monomial_point_to_doc(p: berkovich.MonomialPoint):
    return {"basis": matrix_to_doc(p.basis),
            "radii": [logvalue_to_doc(r) for r in p.radii]}


def monomial_point_from_doc(doc, ctx, where="monomial-point"):
    if not isinstance(doc, dict) or not {"basis", "radii"} <= set(doc):
        raise ParseError("expected {\"basis\": ..., \"radii\": [...]}", where)
    basis = matrix_from_doc(doc["basis"], where + ".basis")
    radii = [logvalue_from_doc(r, f"{where}.radii[{k}]")
             for k, r in enumerate(doc["radii"])]
    return berkovich.monomial_point(basis, radii, ctx)


def polynomial_to_doc(f: berkovich.PolynomialSymV):
    return [{"nu": list(nu), "c": frac_to_str(c)} for nu, c in f.terms]


def polynomial_from_doc(doc, nvars, where="polynomial"):
    if not isinstance(doc, list):
        raise ParseError("expected an array of terms", where)
    terms = []
    for k, item in enumerate(doc):
        if not isinstance(item, dict) or not {"nu", "c"} <= set(item):
            raise ParseError("expected {\"nu\": [...], \"c\": \"a/b\"}", f"{where}[{k}]")
        terms.append((tuple(item["nu"]), frac_from_str(item["c"], f"{where}[{k}].c")))
    try:
        return berkovich.polynomial(terms, nvars)
    except Exception as exc:
        raise ParseError(str(exc), where)


def lfunctional_to_doc(zf: berkovich.LFunctional):
    return {"z": [lscalar_to_doc(z) for z in zf.z]}


def lfunctional_from_doc(doc, ctx, where="functional"):
    if isinstance(doc, dict) and "z" in doc:
        doc = doc["z"]
    if not isinstance(doc, list):
        raise ParseError("expected {\"z\": [[...], ...]} or an array", where)
    zs = [lscalar_from_doc(z, ctx, f"{where}[{k}]") for k, z in enumerate(doc)]
    return berkovich.l_functional(zs, ctx)
