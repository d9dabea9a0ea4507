"""The compactified apartment of PGL_n and its monomial-group action.

A point of the interior apartment A is a real cocharacter class
x_1 eta_1 + ... + x_n eta_n modulo the relation eta_1 + ... + eta_n = 0;
we store exponent vectors modulo constants, gauge-fixed so the exponent
at the smallest index is zero.  The boundary attaches one copy A_I of the
apartment of PGL(V/V_{complement of I}) for every nonempty proper subset
I of {1..n}; a boundary point keeps exponents only on its piece I.

Only points with rational exponents are representable, which keeps every
operation exact and is dense in each piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import _ZERO, INF, PrimeContext, _integer_rows, _rational, _sequence, val_k, vec
from .errors import (
    DomainError,
    IndexOutsidePieceError,
    NotSubPieceError,
    ZeroDiagonalError,
)


@dataclass(frozen=True)
class ApartmentPoint:
    """Point of the compactified apartment: a piece I and gauged exponents on I.

    apartment_point reads I through _piece; the point operations rely on what it sets up: sorted,
    distinct int indices >= 1 and Fraction exponents, 0 at min(I), unchecked on a hand-built point.
    """

    piece: tuple
    exponents: tuple

    def exponent(self, i: int) -> Fraction:
        try:
            return self.exponents[self.piece.index(i)]
        except ValueError:
            raise IndexOutsidePieceError(f"index {i} not in piece {self.piece}")

    def checked(self, n: int) -> ApartmentPoint:
        """This point, once its piece is found in 1..n."""
        if self.piece[-1] > n:              # pieces are sorted and start at 1 or above
            raise DomainError(f"piece {self.piece} does not fit dimension {n}")
        return self


_INT_TYPE, _POINT_TYPE = frozenset({int}), frozenset({ApartmentPoint})   # exact types, no subclass


def _piece(piece) -> tuple:
    """The one reader of a piece: its entries as given, distinct ints; callers check the range."""
    piece = tuple(_sequence(piece))     # an iterator is read once, so a refusal can name it
    # exact types first, so only ints are hashed: True and 1.0 would pass a subset test
    if not _INT_TYPE.issuperset(map(type, piece)) or len(set(piece)) < len(piece):
        raise DomainError(f"invalid piece {piece}")
    return piece


def apartment_point(piece, exponents) -> ApartmentPoint:
    """Build a point, sorting the piece and enforcing the gauge at min(I)."""
    piece, exponents = _piece(piece), vec(exponents)
    if len(piece) != len(exponents):
        raise DomainError(f"piece has {len(piece)} indices but {len(exponents)} exponents")
    if not piece:
        raise DomainError("empty piece")
    if min(piece) < 1:
        raise DomainError(f"invalid piece {piece}")
    return _point(zip(piece, exponents))


def _point(pairs) -> ApartmentPoint:
    """The point of (index, Fraction) pairs with distinct int indices >= 1, sorted and gauged."""
    idxs, exps = zip(*sorted(pairs))
    return ApartmentPoint(idxs, (_ZERO, *(x - exps[0] for x in exps[1:])) if exps[0] else exps)


def interior_point(exponents) -> ApartmentPoint:
    """Interior point of the n-apartment from a full exponent vector."""
    exponents = tuple(_sequence(exponents))
    return apartment_point(range(1, len(exponents) + 1), exponents)


@dataclass(frozen=True)
class Root:
    """The root a_ij, the character t -> t_i / t_j of the diagonal torus."""

    i: int
    j: int

    def __post_init__(self):
        if not _INT_TYPE.issuperset((type(self.i), type(self.j))):     # not a bool, float or string
            raise DomainError(f"root needs int indices, got ({self.i!r}, {self.j!r})")
        if self.i == self.j:
            raise DomainError("root needs distinct indices")

    def checked(self, n: int) -> Root:
        """This root, once both of its indices are found in 1..n."""
        if not (1 <= self.i <= n and 1 <= self.j <= n):
            raise DomainError(f"root ({self.i}, {self.j}) has an index outside 1..{n}")
        return self


def root_eval(a: Root, x: ApartmentPoint) -> Fraction:
    """a_ij(x) = x_i - x_j; defined when both indices lie in the piece."""
    return x.exponent(a.i) - x.exponent(a.j)


# ---------------------------------------------------------------------------
# The monomial group N = T >| W and its action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialElement:
    """Permutation w plus translation class, gauge-fixed at index 1.

    Acts on the apartment by x |-> (j |-> x_{w^{-1}(j)} + trans_j), with the
    piece mapped to w(I).  The translation is a vector modulo constants.
    """

    perm: tuple
    trans: tuple

    @property
    def n(self) -> int:
        return len(self.perm)

    def apply_index(self, i: int) -> int:
        return self.perm[i - 1]

    def invert_index(self, j: int) -> int:
        return self.perm.index(j) + 1


def monomial_element(perm, trans) -> MonomialElement:
    perm = tuple(_sequence(perm))
    ws = [w if type(w) is int else _rational(w) for w in perm]
    n = len(ws)
    if sorted(ws) != list(range(1, n + 1)):     # a non-integral entry fails here too
        raise DomainError(f"not a permutation of 1..{n}: {perm}")
    perm = tuple(int(w) for w in ws)
    ts = vec(trans)
    if len(ts) != n:
        raise DomainError("translation length mismatch")
    base = ts[0]
    return MonomialElement(perm, tuple(t - base for t in ts))


def monomial_identity(n: int) -> MonomialElement:
    return monomial_element(range(1, n + 1), [0] * n)


def monomial_compose(m1: MonomialElement, m2: MonomialElement) -> MonomialElement:
    """Group law matching act(m1 m2) = act(m1) o act(m2)."""
    n = m1.n
    if m2.n != n:
        raise DomainError("size mismatch")
    perm = tuple(m1.perm[m2.perm[k] - 1] for k in range(n))
    trans = [m1.trans[j] + m2.trans[m1.invert_index(j + 1) - 1] for j in range(n)]
    return monomial_element(perm, trans)


def monomial_inverse(m: MonomialElement) -> MonomialElement:
    n = m.n
    perm = tuple(m.perm.index(k + 1) + 1 for k in range(n))
    trans = [-m.trans[m.perm[j] - 1] for j in range(n)]
    return monomial_element(perm, trans)


def nu_translation(diag, ctx: PrimeContext) -> MonomialElement:
    """Translation nu(t) = -sum v(d_i) eta_i of a diagonal element t."""
    ds = vec(diag)
    if any(d == 0 for d in ds):
        raise ZeroDiagonalError("diagonal entry is zero")
    if len(ds) != ctx.n:
        raise DomainError(f"diagonal has {len(ds)} entries, expected {ctx.n}")
    return monomial_element(range(1, len(ds) + 1), [-val_k(d, ctx) for d in ds])


def act_monomial(m: MonomialElement, x: ApartmentPoint) -> ApartmentPoint:
    """Apply a monomial element; maps the piece I to w(I)."""
    if x.piece[-1] > m.n:                   # pieces are sorted
        raise DomainError(f"piece {x.piece} does not fit a monomial element of size {m.n}")
    return _point([(j, e + m.trans[j - 1]) for j, e in zip(map(m.apply_index, x.piece), x.exponents)])


def monomial_matrix(m: MonomialElement, ctx: PrimeContext):
    """GL_n(K) representative diag(p^-trans) * (permutation matrix).

    Only gauged translations with integer entries are realizable over K,
    since v(K^*) = Z; rational translations exist as abstract apartment
    motions but not as group elements.
    """
    n = m.n
    if n != ctx.n:
        raise DomainError(f"monomial element has size {n}, expected {ctx.n}")
    for t in m.trans:
        if t.denominator != 1:
            raise DomainError(f"translation {m.trans} is not integral")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n + 1):
        i = m.apply_index(j)
        rows[i - 1][j - 1] = Fraction(ctx.p) ** (-int(m.trans[i - 1]))
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# Boundary projections, duality flip, rays
# ---------------------------------------------------------------------------

def s_project(x: ApartmentPoint, piece) -> ApartmentPoint:
    """Project to a sub-piece, dropping the cocharacters outside it."""
    target = tuple(sorted(_piece(piece)))
    if not target or not set(target) <= set(x.piece):
        raise NotSubPieceError(f"{target} is not a nonempty subset of {x.piece}")
    return _point([(i, x.exponent(i)) for i in target])


def dual_flip(x: ApartmentPoint) -> ApartmentPoint:
    """Sign flip induced by the dual-space identification; an involution."""
    return _point([(i, -e) for i, e in zip(x.piece, x.exponents)])


def ray_limit(x0: ApartmentPoint, direction) -> ApartmentPoint:
    """Limit of x0 + s*d as s -> infinity.

    The limit piece is argmin(d): those coordinates stay bounded relative
    to the minimum while all others drift to +infinity, sending the
    corresponding seminorm values to zero.  Constant d gives back x0.
    """
    d = vec(direction)
    n = len(d)
    if x0.piece[-1] > n:
        raise DomainError(f"direction has {n} entries, base point piece {x0.piece} needs {x0.piece[-1]}")
    if x0.piece != tuple(range(1, n + 1)):
        raise DomainError("ray base point must be interior; project first")
    dmin = min(d)
    return _point([(i, e) for i, e, t in zip(x0.piece, x0.exponents, d) if t == dmin])


# ---------------------------------------------------------------------------
# Filtration function f
# ---------------------------------------------------------------------------

def f_point(x: ApartmentPoint, a: Root):
    """Threshold f_x(a_ij): the infimum of t with x in the closure of {a >= -t}.

    On the interior this is -a(x) = x_j - x_i.  On a boundary piece I the
    closure analysis collapses to three cases: finite x_j - x_i when both
    indices lie in I, -infinity when i is outside I (some approach path
    makes a arbitrarily large), +infinity when i is in I but j is not
    (every approach path sends a to -infinity).
    """
    in_i = a.i in x.piece
    in_j = a.j in x.piece
    if in_i and in_j:
        return x.exponent(a.j) - x.exponent(a.i)
    if not in_i:
        return -INF
    return INF


def _points(points) -> list:
    pts = list(_sequence(points))
    if not _POINT_TYPE.issuperset(map(type, pts)):
        raise DomainError("expected a set of apartment points")
    return pts


def f_sigma(points, a: Root):
    """f for a finite set: sup over the set of the pointwise thresholds."""
    pts = _points(points)
    if not pts:
        raise DomainError("f_sigma of empty set")
    return max(f_point(x, a) for x in pts)


# ---------------------------------------------------------------------------
# Basic opens of the boundary topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpenBox:
    """Open bounded box in the interior apartment, gauge x_1 = 0.

    intervals[k] = (lo, hi) constrains x_{k+2} - x_1, k = 0..n-2.
    """

    intervals: tuple

    @property
    def n(self) -> int:
        return len(self.intervals) + 1


def open_box(intervals) -> OpenBox:
    ivs = tuple(vec(iv) if hasattr(iv, "__iter__") and not isinstance(iv, (str, bytes)) else ()
                for iv in _sequence(intervals))
    if any(len(iv) != 2 for iv in ivs):
        raise DomainError("every interval must be a pair (lo, hi)")
    for lo, hi in ivs:
        if not lo < hi:
            raise DomainError(f"empty interval ({lo}, {hi})")
    return OpenBox(ivs)


def gamma_membership(y: ApartmentPoint, box: OpenBox, piece) -> bool:
    """Decide membership of y in the basic open Gamma attached to (box, I).

    Gamma is the union over J between I and {1..n} of the projections
    s_J(U + Delta_I), where Delta_I is the cone spanned by the eta_i for
    i outside I.  So y is a member when some u in the box (u_1 = 0), some
    drift delta >= 0 supported off I and some gauge constant c give
    y_j = u_j + delta_j + c on the piece of y.  Each u_j meets only c, so
    eliminating it leaves an interval test on c: lo_j < y_j - c < hi_j for
    j in I, lo_j < y_j - c for j in the piece outside I, and at index 1
    (where u_1 = 0) either c = y_1 or c <= y_1.  The test runs on integers:
    the exponents of y and the box ends, over one common denominator.
    """
    n = box.n
    inside = _piece(piece)
    if not 0 < len(inside) < n or min(inside) < 1 or max(inside) > n:     # distinct, so a proper subset
        raise DomainError("need a nonempty proper subset I of {1..n}")
    y.checked(n)
    if not set(y.piece).issuperset(inside):
        return False
    off = int(y.piece[0] == 1)          # the piece is sorted, so y_1 comes first
    ends = [e for j in y.piece[off:] for e in box.intervals[j - 2]]
    (row,), _ = _integer_rows([[*ends, *y.exponents]])
    k = len(ends)
    y1 = row[k]
    # strict bounds on c, None on an unbounded side; c <= y_1 joins upper when 1 is off I
    lower, upper = None, (y1 if off and 1 not in inside else None)
    for j, lo, hi, yj in zip(y.piece[off:], row[0:k:2], row[1:k:2], row[k + off:]):
        if upper is None or yj - lo < upper:
            upper = yj - lo
        if j in inside and (lower is None or yj - hi > lower):
            lower = yj - hi
    if 1 in inside:
        return (lower is None or lower < y1) and (upper is None or y1 < upper)
    return lower is None or lower < upper
