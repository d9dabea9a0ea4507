"""JSON documents the command line reads and writes.

A type has a reader here only when some `cli` payload flag holds it, and a
writer only when some command prints it; every public function is reached
by one of the command line's golden requests.

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
from .errors import DomainError, ParseError


def _is_int_array(doc) -> bool:
    # JSON integers only: true, 2.7 and "2" are rejected, not converted
    return isinstance(doc, list) and all(type(i) is int for i in doc)


def _built(where, build, *args):
    # build(*args) from decoded parts; the library's refusal of them is a ParseError at where
    try:
        return build(*args)
    except (DomainError, ValueError) as exc:
        raise ParseError(str(exc), where)


def frac_to_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"     # an int or a Fraction, both kept in lowest terms


_MAX_DIGITS = 1000
_INT_BOUND = 10 ** _MAX_DIGITS
_RATIONAL = re.compile(r"(-?[0-9]{1,%d})(?:/([0-9]{1,%d}))?" % (_MAX_DIGITS, _MAX_DIGITS))


def frac_from_str(doc, where="rational") -> Fraction:
    if isinstance(doc, bool) or not isinstance(doc, (str, int)):
        raise ParseError("expected a \"num/den\" string", where)
    if isinstance(doc, int):
        if abs(doc) >= _INT_BOUND:
            raise ParseError(f"integer has more than {_MAX_DIGITS} digits", where)
        return Fraction(doc)
    match = _RATIONAL.fullmatch(doc)
    if match is None:
        raise ParseError(f"bad rational {doc[:40]!r}: expected -?digits(/digits)? "
                         f"with at most {_MAX_DIGITS} digits per part", where)
    num, den = match.groups()
    try:     # an integer, from JSON or without "/den", is already in lowest terms
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
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
    return tuple(rows)


def lscalar_from_doc(doc, ctx, where="scalar") -> arith.LScalar:
    if not isinstance(doc, list):
        raise ParseError("expected a coefficient array", where)
    coeffs = [frac_from_str(x, f"{where}[{k}]") for k, x in enumerate(doc)]
    return _built(where, arith.l_scalar, coeffs, ctx)


def apartment_point_to_doc(x: apartment.ApartmentPoint):
    return {"I": list(x.piece), "x": vector_to_doc(x.exponents)}


def apartment_point_from_doc(doc, where="point"):
    """Returns (point, regauged): gauge violations are repaired and flagged."""
    if not isinstance(doc, dict) or not {"I", "x"} <= set(doc):
        raise ParseError("expected {\"I\": [...], \"x\": [...]}", where)
    piece = doc["I"]
    if not _is_int_array(piece):
        raise ParseError("piece must be an array of indices", where + ".I")
    if not isinstance(doc["x"], list):
        raise ParseError("exponents must be an array", where + ".x")
    exps = [frac_from_str(t, f"{where}.x[{k}]") for k, t in enumerate(doc["x"])]
    if len(exps) != len(piece):
        raise ParseError("piece and exponent lengths differ", where)
    point = _built(where, apartment.apartment_point, piece, exps)
    given = dict(zip(piece, exps))
    regauged = any(point.exponent(i) != given[i] for i in point.piece)
    return point, regauged


def monomial_from_doc(doc, where="monomial"):
    if not isinstance(doc, dict) or not {"perm", "trans"} <= set(doc):
        raise ParseError("expected {\"perm\": [...], \"trans\": [...]}", where)
    if not _is_int_array(doc["perm"]):
        raise ParseError("permutation must be an array of indices", where + ".perm")
    if not isinstance(doc["trans"], list):
        raise ParseError("translation must be an array", where + ".trans")
    trans = [frac_from_str(t, f"{where}.trans[{k}]") for k, t in enumerate(doc["trans"])]
    m = _built(where, apartment.monomial_element, doc["perm"], trans)
    regauged = tuple(trans) != m.trans
    return m, regauged


def root_from_doc(doc, where="root"):
    if not (_is_int_array(doc) and len(doc) == 2):
        raise ParseError("expected [i, j]", where)
    return _built(where, apartment.Root, doc[0], doc[1])


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
    return _built(where, apartment.open_box, ivs)


def seminorm_to_doc(g: seminorm.DiagonalSeminorm):
    return {"basis": matrix_to_doc(g.basis),
            "values": [logvalue_to_doc(v) for v in g.values]}


def _basis_and_values(doc, key, where):
    # {"basis": matrix, key: [LogValue, ...]}, the shape of seminorms and monomial points
    if not isinstance(doc, dict) or not {"basis", key} <= set(doc):
        raise ParseError(f"expected {{\"basis\": ..., \"{key}\": [...]}}", where)
    basis = matrix_from_doc(doc["basis"], where + ".basis")
    if not isinstance(doc[key], list):
        raise ParseError(f"{key} must be an array", f"{where}.{key}")
    return basis, [logvalue_from_doc(v, f"{where}.{key}[{k}]") for k, v in enumerate(doc[key])]


def seminorm_from_doc(doc, ctx, where="seminorm"):
    return seminorm.diagonal_seminorm(*_basis_and_values(doc, "values", where), ctx)


def building_point_to_doc(b: building.BuildingPoint):
    return {**seminorm_to_doc(b.seminorm), "kernel": matrix_to_doc(b.kernel())}


def monomial_point_to_doc(p: berkovich.MonomialPoint):
    return {"basis": matrix_to_doc(p.basis),
            "radii": [logvalue_to_doc(r) for r in p.radii]}


def monomial_point_from_doc(doc, ctx, where="monomial-point"):
    return berkovich.monomial_point(*_basis_and_values(doc, "radii", where), ctx)


def lfunctional_from_doc(doc, ctx, where="functional"):
    if isinstance(doc, dict) and "z" in doc:
        doc = doc["z"]
    if not isinstance(doc, list):
        raise ParseError("expected {\"z\": [[...], ...]} or an array", where)
    zs = [lscalar_from_doc(z, ctx, f"{where}[{k}]") for k, z in enumerate(doc)]
    return berkovich.l_functional(zs, ctx)
