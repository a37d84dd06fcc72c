"""Projective-line geometry over the supported exact fields.

Points are homogeneous pairs, cross-ratios are computed with 2x2
brackets (so no cross-ratio or map formula special-cases the point at
infinity), and the decision procedures answer the central question of
the reconstruction pipeline: when do two cross-ratios generate the same
arithmetic data?
In characteristic zero the answer is near-rigidity: <lam> and <1-lam>
agree exactly when lam1 = lam2 or {lam1, lam2} = {rho, 1/rho}; in
characteristic p it is rigidity up to a power of Frobenius.

The cross ratio, the forced map and the star check take their brackets
in the field's ring, on each point's ring coordinates [num : den]
(fieldarith.ring_parts; [1 : 0] for infinity): in Z over Q, in Z[rho]
over Q(rho) and in F_p[t] over F_p(t).  Each result is reduced to a
field element once, at the end.
"""

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import fppoly
from .exactalg import is_prime
from .fieldarith import (FieldDesc, FpTElem, QElem, QRhoElem, frobenius,
                         is_constant, ring_parts)

EQUAL = "equal"
RHO_PAIR = "rho-pair"
HYPOTHESIS_FAILS = "hypothesis-fails"
CASE_A = "case-a"
CASE_B = "case-b"


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^1 in canonical homogeneous coordinates: [a : 1] for
    affine points, [1 : 0] for infinity."""

    a: object
    b: object

    def __post_init__(self):
        a, b = self.a, self.b
        if a.field != b.field:
            raise ValueError("homogeneous coordinates from different fields")
        one = b.field.one()
        if b.is_zero():
            if a.is_zero():
                raise ValueError("[0 : 0] is not a projective point")
            a = one
        elif b != one:
            a, b = a / b, one
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def affine(cls, value):
        return cls(value, value.field.one())

    @classmethod
    def infinity(cls, field: FieldDesc):
        return cls(field.one(), field.zero())

    @property
    def field(self):
        return self.a.field

    def is_infinity(self) -> bool:
        return self.b.is_zero()


def _check_distinct(pts, message):
    if any(s == t for s, t in itertools.combinations(pts, 2)):
        raise ValueError(message)


@dataclass(frozen=True)
class CuspSet:
    field: FieldDesc
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 3:
            raise ValueError("a cusp set needs at least 3 points")
        for pt in pts:
            if pt.field != self.field:
                raise ValueError("point outside the cusp set's field")
        if len(set(pts)) != len(pts):
            raise ValueError("cusp points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MobiusMap:
    """x -> (m00 x + m01) / (m10 x + m11), scaled so the first nonzero
    entry is 1."""

    m00: object
    m01: object
    m10: object
    m11: object

    def __post_init__(self):
        entries = (self.m00, self.m01, self.m10, self.m11)
        det = self.m00 * self.m11 - self.m01 * self.m10
        if det.is_zero():
            raise ValueError("Mobius map needs nonzero determinant")
        lead = next(e for e in entries if not e.is_zero())
        scaled = tuple(e / lead for e in entries)
        for name, value in zip(("m00", "m01", "m10", "m11"), scaled):
            object.__setattr__(self, name, value)

    def apply(self, x: ProjPoint) -> ProjPoint:
        return ProjPoint(
            self.m00 * x.a + self.m01 * x.b,
            self.m10 * x.a + self.m11 * x.b,
        )


_Ring = namedtuple("_Ring", "infinity mul sub neg quotient mobius")


def _z_mobius(entries):
    # dividing out the content first keeps the normalisation's ints small
    g = math.gcd(*entries)
    return MobiusMap(*(QElem(x // g) for x in entries))


def _zrho_mul(x, y):
    # (a1 + b1 rho)(a2 + b2 rho) with rho^2 = rho - 1
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2


def _zrho_quotient(num, den):
    # num conj(den) / N(den), with conj(a + b rho) = (a + b) - b rho
    a, b = den
    x, y = _zrho_mul(num, (a + b, -b))
    norm = a * a + a * b + b * b
    return QRhoElem(Fraction(x, norm), Fraction(y, norm))


def _poly_mobius(entries, p):
    common = fppoly.ZERO
    for entry in entries:
        common = fppoly.gcd(entry, common, p)
        if common == fppoly.ONE:
            break
    if common != fppoly.ONE:
        entries = (fppoly.divmod_poly(x, common, p)[0] for x in entries)
    return MobiusMap(*(FpTElem(p, x) for x in entries))


_Z = _Ring((1, 0), operator.mul, operator.sub, operator.neg,
           lambda num, den: QElem(Fraction(num, den)), _z_mobius)
_ZRHO = _Ring(((1, 0), (0, 0)), _zrho_mul, lambda x, y: (x[0] - y[0], x[1] - y[1]),
              lambda x: (-x[0], -x[1]), _zrho_quotient,
              lambda entries: MobiusMap(*(QRhoElem(*x) for x in entries)))


def _ring(field: FieldDesc):
    """The coordinate ring of field (Z, Z[rho] or F_p[t]) as the cross
    ratio, the forced map and the star check use it: the coordinates of
    infinity, the ring operations, the field element num/den
    ("quotient") and the MobiusMap of four entries ("mobius").  Over
    F_p[t] the operations look fppoly's functions up at each call, so
    the spans of bench/tracing.py count them."""
    if field.kind == "Q":
        return _Z
    if field.kind == "QRho":
        return _ZRHO
    p = field.p
    return _Ring((fppoly.ONE, fppoly.ZERO), lambda f, g: fppoly.mul(f, g, p),
                 lambda f, g: fppoly.sub(f, g, p), lambda f: fppoly.neg(f, p),
                 lambda num, den: FpTElem(p, num, den),
                 lambda entries: _poly_mobius(entries, p))


def _coordinates(ring, x: ProjPoint):
    """[num : den] in the ring for the point num/den, [1 : 0] at infinity."""
    return ring.infinity if x.b.is_zero() else ring_parts(x.a)


def _bracket(ring, x, y):
    """n_x d_y - n_y d_x for ring coordinates x = (n_x, d_x) and
    y = (n_y, d_y); zero exactly when the two points are equal."""
    return ring.sub(ring.mul(x[0], y[1]), ring.mul(y[0], x[1]))


def cross_ratio(x1: ProjPoint, x2: ProjPoint, x3: ProjPoint, x4: ProjPoint):
    """[x4,x1][x3,x2] / ([x4,x2][x3,x1]), never in {0, 1, infinity} for
    distinct points.

    Each point occurs once above and once below, so rescaling its
    coordinates leaves the quotient alone: the brackets are taken on
    ring coordinates, and the quotient is built once.
    """
    _check_distinct((x1, x2, x3, x4), "cross-ratio needs pairwise-distinct points")
    ring = _ring(x1.field)
    c1, c2, c3, c4 = (_coordinates(ring, x) for x in (x1, x2, x3, x4))
    num = ring.mul(_bracket(ring, c4, c1), _bracket(ring, c3, c2))
    den = ring.mul(_bracket(ring, c4, c2), _bracket(ring, c3, c1))
    return ring.quotient(num, den)


def _standard_map(ring, c1, c2, c3):
    # a matrix of the map taking the triple to (0, infinity, 1): its rows
    # kill c1 and c2, scaled so that c3 lands on 1
    mul, neg = ring.mul, ring.neg
    k1 = _bracket(ring, c3, c2)
    k2 = _bracket(ring, c3, c1)
    return mul(k1, c1[1]), neg(mul(k1, c1[0])), mul(k2, c2[1]), neg(mul(k2, c2[0]))


def mobius_from_triples(p1, p2, p3, q1, q2, q3) -> MobiusMap:
    """The unique map with p_i -> q_i: S_q^-1 S_p, with S_p and S_q the
    standard maps of both triples onto (0, infinity, 1).

    A Möbius map is a matrix up to scalars, so adj(S_q) S_p, taken on
    ring coordinates, stands for S_q^-1 S_p: its entries' content in Z
    or gcd in F_p[t] is divided out, and MobiusMap normalises once.
    """
    _check_distinct((p1, p2, p3), "degenerate source triple")
    _check_distinct((q1, q2, q3), "degenerate target triple")
    ring = _ring(p1.field)
    mul, sub = ring.mul, ring.sub
    a, b, c, d = _standard_map(ring, *(_coordinates(ring, x) for x in (p1, p2, p3)))
    e, f, g, h = _standard_map(ring, *(_coordinates(ring, x) for x in (q1, q2, q3)))
    return ring.mobius((
        sub(mul(h, a), mul(f, c)),
        sub(mul(h, b), mul(f, d)),
        sub(mul(e, c), mul(g, a)),
        sub(mul(e, d), mul(g, b)),
    ))


def twist_point(pt: ProjPoint, n: int) -> ProjPoint:
    """Raise both homogeneous coordinates to the p^n power; n = 0 returns
    pt unchanged over every field.

    Frobenius fixes b in {0, 1}, so ProjPoint makes no division.
    """
    if n == 0:
        return pt
    return ProjPoint(frobenius(pt.a, n), pt.b)


def _check_lambda_domain(lam):
    if lam.is_zero() or lam == lam.field.one():
        raise ValueError("lambda must avoid 0 and 1")


def _check_charp_pair(lam1, lam2):
    if lam1.field != lam2.field:
        raise ValueError("field mismatch")
    if lam1.field.kind != "FpT":
        raise ValueError("function fields only")
    if is_constant(lam1):
        raise ValueError("lam1 must be non-constant")
    _check_lambda_domain(lam2)


def decide_lambda_char0(lam1, lam2) -> str:
    """Decide whether <lam1> = <lam2> and <1-lam1> = <1-lam2> for two
    characteristic-zero cross-ratios.

    By near-rigidity both hold exactly when lam1 = lam2 (EQUAL) or
    {lam1, lam2} = {rho, 1/rho}, with rho the primitive sixth root of
    unity (RHO_PAIR); any other pair is HYPOTHESIS_FAILS.
    """
    if lam1.field != lam2.field:
        raise ValueError("field mismatch")
    if lam1.field.char() != 0:
        raise ValueError("characteristic-zero fields only")
    _check_lambda_domain(lam1)
    _check_lambda_domain(lam2)
    if lam1 == lam2:
        return EQUAL
    if lam1.field.kind == "QRho":
        rho = lam1.field.rho()
        if {lam1, lam2} == {rho, rho.inverse()}:
            return RHO_PAIR
    return HYPOTHESIS_FAILS


def _height(x):
    return max(fppoly.deg(x.num), fppoly.deg(x.den))


def decide_lambda_charp(lam1, lam2):
    """The unique n with lam2 = lam1^(p^n) (for n < 0: lam1 =
    lam2^(p^-n)), or None.  lam1 must be non-constant.

    Heights decide, where the paper compares the cyclic subgroups of lam
    and 1 - lam (multlattice.solve_p_power): Frobenius keeps num and den
    coprime, so it multiplies h(x) = max(deg num, deg den) by p^n, and
    the equation for 1 - lam follows from the one for lam.
    """
    _check_charp_pair(lam1, lam2)
    h1, h2 = _height(lam1), _height(lam2)
    if h2 == 0:
        # a constant is no Frobenius power of the non-constant lam1
        return None
    sign, low, high = (1, lam1, lam2) if h1 <= h2 else (-1, lam2, lam1)
    n, scaled = 0, min(h1, h2)
    while scaled < max(h1, h2):
        scaled *= lam1.field.p
        n += 1
    if scaled != max(h1, h2):
        return None
    return sign * n if frobenius(low, n) == high else None


def _p_exponent(r: Fraction, p: int, bound: int):
    """The k with r = p^k and 0 < |k| <= bound, or None."""
    if r <= 0 or 1 not in (r.numerator, r.denominator):
        return None
    m = max(r.numerator, r.denominator)
    k = round(math.log(m, p))
    if not 0 < k <= bound or p**k != m:
        return None
    return k if r.denominator == 1 else -k


# The most bits of p^bound, counted as bound * bit_length(p), that the
# power-products verb solves for: p = 3, bound = 16384 took 2.2 s (2-core VM).
MAX_POWER_BITS = 2**15


def power_product_solve(p: int, x1: int, y1: int, bound: int):
    """All nonzero integer pairs (x2, y2) in the bound-box with
    (p^x1 - 1)(p^y1 - 1) = (p^x2 - 1)(p^y2 - 1) in Q.

    The product determines the pair up to order, so the result is
    {(x1, y1), (y1, x1)} clipped to the box.  The search stays
    exhaustive in O(bound): each x2 fixes p^y2 = target / (p^x2 - 1) + 1.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if x1 == 0 or y1 == 0:
        raise ValueError("exponents must be nonzero")
    if bound < 1:
        raise ValueError("bound must be positive")
    target = (Fraction(p) ** x1 - 1) * (Fraction(p) ** y1 - 1)
    out = set()
    for x2 in range(-bound, bound + 1):
        if x2 == 0:
            continue
        y2 = _p_exponent(target / (Fraction(p) ** x2 - 1) + 1, p, bound)
        if y2 is not None:
            out.add((x2, y2))
    return out


def _twisted_power_equal(x, y, p, e1, e2):
    # x^(p^e1 - 1) = y^(p^e2 - 1), exponents read in Z[1/p]; raising
    # both sides to p^w makes them integral without changing truth,
    # and x^(p^a - p^b) = frob^a(x) / frob^b(x) keeps degrees linear
    w = max(0, -e1, -e2)
    lhs = frobenius(x, w + e1) / frobenius(x, w)
    rhs = frobenius(y, w + e2) / frobenius(y, w)
    return lhs == rhs


def exponent_case_decide(lam1, lam2, a1, a2, b1, b2, c1, c2) -> str:
    """Decide which exponent pattern explains three twisted-power
    equalities tying lam1 to lam2.

    Checks lam1^(p^a1-1) = lam2^(p^a2-1), the same for lam - 1 with
    (b1, b2), and for lam/(lam - 1) with (c1, c2).  If all three hold,
    the exponents must align columnwise (case A: a1=a2, b1=b2, c1=c2)
    or rowwise (case B: a1=b1=c1 and a2=b2=c2); case A is reported when
    both apply.  A third alignment would be a defect and raises
    RuntimeError.
    """
    _check_charp_pair(lam1, lam2)
    if not (a1 - a2 == b1 - b2 == c1 - c2):
        raise ValueError("exponent differences must agree")
    p = lam1.field.p
    one = lam1.field.one()
    holds = (
        _twisted_power_equal(lam1, lam2, p, a1, a2)
        and _twisted_power_equal(lam1 - one, lam2 - one, p, b1, b2)
        and _twisted_power_equal(
            lam1 / (lam1 - one), lam2 / (lam2 - one), p, c1, c2
        )
    )
    if not holds:
        return HYPOTHESIS_FAILS
    if a1 == a2 and b1 == b2 and c1 == c2:
        return CASE_A
    if a1 == b1 == c1 and a2 == b2 == c2:
        return CASE_B
    raise RuntimeError(
        "twisted-power equalities hold with misaligned exponents: "
        "(%d,%d) (%d,%d) (%d,%d)" % (a1, a2, b1, b2, c1, c2)
    )


def star_check(e: CuspSet) -> bool:
    """True when no 4-subset has a constant cross-ratio (vacuous for
    size 3); the non-isotriviality condition over F_p(t).

    F_p is algebraically closed in F_p(t), so a constant cross-ratio
    lies in F_p minus {0, 1}.  For i < j < k < l with brackets
    B[k][i] = [x_k, x_i], cross_ratio(x_i, x_j, x_k, x_l) = y_l / y_k
    where y_k = B[k][i] / B[k][j], so it is constant exactly when y_k
    and y_l differ by a factor in F_p^*: the four points lie on one
    F_p-rational subline.  The brackets are taken in F_p[t] on
    polynomial coordinates; rescaling those multiplies every y_k of a
    fixed (i, j) by one factor, which leaves the collisions alone.  With
    u = B[k][i], v = B[k][j] and g = gcd(u, v), the pair
    (monic(u/g), monic(v/g)) keys the F_p^* class of y_k, and each pair
    (i, j) looks for a repeated key among k > j: C(n, 2) brackets and
    C(n, 3) gcds.
    """
    if e.field.kind != "FpT":
        raise ValueError("the non-isotriviality check lives over function fields")
    p = e.field.p
    if p == 2:
        # F_2 minus {0, 1} is empty: no cross-ratio can be constant
        return True
    ring = _ring(e.field)
    pts = [_coordinates(ring, x) for x in e.points]
    b = [[_bracket(ring, x, y) for y in pts[:k]] for k, x in enumerate(pts)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            keys = set()
            for row in b[j + 1:]:
                u, v = row[i], row[j]
                g = fppoly.gcd(u, v, p)
                if g != fppoly.ONE:
                    u = fppoly.divmod_poly(u, g, p)[0]
                    v = fppoly.divmod_poly(v, g, p)[0]
                key = (fppoly.monic(u, p), fppoly.monic(v, p))
                if key in keys:
                    return False
                keys.add(key)
    return True
