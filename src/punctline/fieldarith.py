"""Exact arithmetic and unique factorization in Q, Q(rho), and F_p(t).

rho is a primitive 6th root of unity with rho^2 = rho - 1, so
rho^-1 = 1 - rho = conj(rho) and the unit group of Z[rho] is
mu_6 = {rho^j}.  The three fields are the concrete finitely generated
fields the reconstruction pipeline runs over; every element carries its
field descriptor and cross-field arithmetic is rejected.

Canonical irreducibles, so exponent vectors compare across elements:
  Q       positive rational primes
  F_p(t)  monic irreducible polynomials
  Q(rho)  primary associates a + b*rho with a = 2, b = 0 (mod 3) for
          primes away from 3; the ramified prime above 3 is pinned to
          2 - rho (it has no primary associate); inert rational primes
          q = 2 (mod 3) are taken positive (already primary)
"""

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import fppoly
from .exactalg import factor_integer, is_prime


@dataclass(frozen=True)
class FieldDesc:
    kind: str
    p: int = None

    def __post_init__(self):
        if self.kind not in ("Q", "QRho", "FpT"):
            raise ValueError("unknown field kind %r" % (self.kind,))
        if self.kind == "FpT":
            if self.p is None or not is_prime(self.p):
                raise ValueError("FpT needs a prime p, got %r" % (self.p,))
        elif self.p is not None:
            raise ValueError("p is only meaningful for FpT")

    def char(self) -> int:
        return self.p if self.kind == "FpT" else 0

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.kind == "Q":
            return QElem(Fraction(n))
        if self.kind == "QRho":
            return QRhoElem(Fraction(n), Fraction(0))
        return FpTElem(self.p, (n,), fppoly.ONE)

    def rho(self):
        if self.kind != "QRho":
            raise ValueError("rho lives in QRho only")
        return QRhoElem(Fraction(0), Fraction(1))

    def t(self):
        if self.kind != "FpT":
            raise ValueError("t lives in FpT only")
        return FpTElem(self.p, (0, 1), fppoly.ONE)

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind == "FpT":
            out["p"] = self.p
        return out

    @classmethod
    def from_json(cls, data):
        if data.get("kind") == "FpT":
            return cls("FpT", int(data["p"]))
        return cls(data.get("kind"))

    def to_text(self) -> str:
        return "FpT:%d" % self.p if self.kind == "FpT" else self.kind

    @classmethod
    def from_text(cls, text: str):
        text = text.strip()
        if text.startswith("FpT:"):
            return cls("FpT", int(text[4:]))
        return cls(text)


Q = FieldDesc("Q")
QRHO = FieldDesc("QRho")


@functools.cache
def fpt(p: int) -> FieldDesc:
    """The descriptor of F_p(t), built and validated once per prime."""
    return FieldDesc("FpT", p)


class QElem:
    __slots__ = ("value",)
    field = Q

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        return isinstance(other, QElem) and self.value == other.value

    def __hash__(self):
        return hash(("Q", self.value))

    def __repr__(self):
        return "QElem(%s)" % self.value

    def __add__(self, other):
        _same_field(self, other)
        return QElem(self.value + other.value)

    def __sub__(self, other):
        _same_field(self, other)
        return QElem(self.value - other.value)

    def __neg__(self):
        return QElem(-self.value)

    def __mul__(self, other):
        _same_field(self, other)
        return QElem(self.value * other.value)

    def __truediv__(self, other):
        _same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return QElem(self.value / other.value)

    def inverse(self):
        return self.field.one() / self

    def __pow__(self, e: int):
        if e >= 0:
            return QElem(self.value**e)
        return self.inverse() ** (-e)


class QRhoElem:
    __slots__ = ("a", "b")
    field = QRHO

    def __init__(self, a, b):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        return isinstance(other, QRhoElem) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(("QRho", self.a, self.b))

    def __repr__(self):
        return "QRhoElem(%s, %s)" % (self.a, self.b)

    def __add__(self, other):
        _same_field(self, other)
        return QRhoElem(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        _same_field(self, other)
        return QRhoElem(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QRhoElem(-self.a, -self.b)

    def __mul__(self, other):
        # (a1 + b1 rho)(a2 + b2 rho) with rho^2 = rho - 1
        _same_field(self, other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QRhoElem(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    def conj(self):
        # complex conjugation: rho -> 1 - rho = rho^-1
        return QRhoElem(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b + self.b * self.b

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        n = self.norm()
        c = self.conj()
        return QRhoElem(c.a / n, c.b / n)

    def __truediv__(self, other):
        _same_field(self, other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QRhoElem(1, 0)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


class FpTElem:
    __slots__ = ("p", "num", "den", "field")

    def __init__(self, p, num, den=fppoly.ONE):
        num = fppoly.norm(num, p)
        den = fppoly.norm(den, p)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = fppoly.gcd(num, den, p)
        if fppoly.deg(g) > 0:
            num = fppoly.divmod_poly(num, g, p)[0]
            den = fppoly.divmod_poly(den, g, p)[0]
        if den[-1] != 1:
            inv = pow(den[-1], -1, p)
            num = fppoly.scale(num, inv, p)
            den = fppoly.scale(den, inv, p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "field", fpt(p))

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, FpTElem)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash(("FpT", self.p, self.num, self.den))

    def __repr__(self):
        return "FpTElem(p=%d, %s)" % (self.p, elem_to_text(self))

    def __add__(self, other):
        _same_field(self, other)
        p = self.p
        num = fppoly.add(
            fppoly.mul(self.num, other.den, p), fppoly.mul(other.num, self.den, p), p
        )
        return FpTElem(p, num, fppoly.mul(self.den, other.den, p))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FpTElem(self.p, fppoly.neg(self.num, self.p), self.den)

    def __mul__(self, other):
        _same_field(self, other)
        p = self.p
        return FpTElem(
            p, fppoly.mul(self.num, other.num, p), fppoly.mul(self.den, other.den, p)
        )

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return FpTElem(self.p, self.den, self.num)

    def __truediv__(self, other):
        _same_field(self, other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch: %s vs %s" % (a.field, b.field))


def arith(a, b, op: str):
    """CLI-facing dispatcher for the four exact operations."""
    _same_field(a, b)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op in ("*", "x"):
        return a * b
    if op == "/":
        if b.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return a / b
    raise ValueError("unknown operation %r" % op)


# --- text forms ----------------------------------------------------------

def _poly_to_text(f, p):
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            t = "t" if i == 1 else "t^%d" % i
            parts.append(t if c == 1 else "%d*%s" % (c, t))
    return "+".join(parts)


_POLY_TERM = re.compile(r"^([+-]?)(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def _poly_from_text(text, p):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError("bad polynomial %r" % text)
    coeffs = {}
    for term in terms:
        m = _POLY_TERM.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError("bad polynomial term %r" % term)
        c = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(1) == "-":
            c = -c
        e = 0
        if m.group(3):
            e = int(m.group(4)) if m.group(4) else 1
        coeffs[e] = coeffs.get(e, 0) + c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return fppoly.norm(out, p)


def elem_to_text(a) -> str:
    if isinstance(a, QElem):
        return str(a.value)
    if isinstance(a, QRhoElem):
        if a.b == 0:
            return str(a.a)
        rho = "rho" if abs(a.b) == 1 else "%s*rho" % abs(a.b)
        sign = "-" if a.b < 0 else ("+" if a.a != 0 else "")
        head = str(a.a) if a.a != 0 else ""
        if a.a == 0 and a.b < 0:
            sign = "-"
        return "%s%s%s" % (head, sign, rho)
    if isinstance(a, FpTElem):
        num = _poly_to_text(a.num, a.p)
        if a.den == fppoly.ONE:
            return num
        return "(%s)/(%s)" % (num, _poly_to_text(a.den, a.p))
    raise TypeError("not a field element: %r" % (a,))


def elem_from_text(field: FieldDesc, text: str):
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty field element")
    if field.kind == "Q":
        return QElem(Fraction(s))
    if field.kind == "QRho":
        a = Fraction(0)
        b = Fraction(0)
        for term in re.findall(r"[+-]?[^+-]+", s):
            if "rho" in term:
                coeff = term[: term.index("rho")].rstrip("*")
                if coeff in ("", "+"):
                    b += 1
                elif coeff == "-":
                    b -= 1
                else:
                    b += Fraction(coeff)
            else:
                a += Fraction(term)
        return QRhoElem(a, b)
    p = field.p
    if s.startswith("("):
        m = re.match(r"^\((.*)\)/\((.*)\)$", s)
        if not m:
            raise ValueError("bad function-field element %r" % text)
        num = _poly_from_text(m.group(1), p)
        den = _poly_from_text(m.group(2), p)
        return FpTElem(p, num, den)
    if "/" in s:
        num, den = s.split("/", 1)
        return FpTElem(p, _poly_from_text(num, p), _poly_from_text(den, p))
    return FpTElem(p, _poly_from_text(s, p))


# --- factorization -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExponentVector:
    """torsion * product of irreducible^exponent, recomposing exactly."""

    field: FieldDesc
    torsion: object
    factors: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "factors", {k: int(e) for k, e in self.factors.items() if e}
        )

    def __eq__(self, other):
        return (
            isinstance(other, ExponentVector)
            and self.field == other.field
            and self.torsion == other.torsion
            and self.factors == other.factors
        )

    def recompose(self):
        out = self.torsion
        for irr, e in self.factors.items():
            out = out * irr**e
        return out

    def mul(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        factors = dict(self.factors)
        for k, e in other.factors.items():
            factors[k] = factors.get(k, 0) + e
        return ExponentVector(self.field, self.torsion * other.torsion, factors)

    def power(self, e: int):
        return ExponentVector(
            self.field, self.torsion**e, {k: v * e for k, v in self.factors.items()}
        )


_RAMIFIED = QRhoElem(2, -1)  # 2 - rho, the canonical prime above 3

_MU6 = {
    QRhoElem(1, 0): 0,
    QRhoElem(0, 1): 1,
    QRhoElem(-1, 1): 2,
    QRhoElem(-1, 0): 3,
    QRhoElem(0, -1): 4,
    QRhoElem(1, -1): 5,
}


def _eisenstein_divide(z, w):
    # exact division in Z[rho]; returns None if w does not divide z
    n = w.a * w.a + w.a * w.b + w.b * w.b
    c = QRhoElem(w.a + w.b, -w.b)
    prod = QRhoElem(z.a * c.a - z.b * c.b, z.a * c.b + z.b * c.a + z.b * c.b)
    if prod.a % n or prod.b % n:
        return None
    return QRhoElem(prod.a / n, prod.b / n)


def _primary_associate(z):
    # unique associate with a = 2 mod 3 and b = 0 mod 3 (exists iff the
    # norm is coprime to 3)
    cur = z
    for _ in range(6):
        if cur.a % 3 == 2 and cur.b % 3 == 0:
            return cur
        cur = cur * QRhoElem(0, 1)
    raise ValueError("no primary associate: norm divisible by 3")


def _split_prime(p):
    # p = 1 mod 3: find a primary pi with norm p by brute force
    bound = math.isqrt(4 * p // 3) + 2
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + a * b + b * b == p:
                return _primary_associate(QRhoElem(a, b))
    raise RuntimeError("no Eisenstein prime of norm %d found" % p)


def _factor_eisenstein_int(z):
    """Factor a nonzero z in Z[rho]: (mu_6 unit, {canonical prime: exp})."""
    n = int(z.a * z.a + z.a * z.b + z.b * z.b)
    _, rational = factor_integer(n)
    factors = {}
    for q in sorted(rational):
        if q == 3:
            pi = _RAMIFIED
            while True:
                nxt = _eisenstein_divide(z, pi)
                if nxt is None:
                    break
                z = nxt
                factors[pi] = factors.get(pi, 0) + 1
        elif q % 3 == 2:
            qq = QRhoElem(q, 0)
            while True:
                nxt = _eisenstein_divide(z, qq)
                if nxt is None:
                    break
                z = nxt
                factors[qq] = factors.get(qq, 0) + 1
        else:
            pi = _split_prime(q)
            for prime in (pi, _primary_associate(pi.conj())):
                while True:
                    nxt = _eisenstein_divide(z, prime)
                    if nxt is None:
                        break
                    z = nxt
                    factors[prime] = factors.get(prime, 0) + 1
    if z not in _MU6:
        raise RuntimeError("leftover non-unit %r after Eisenstein factorization" % z)
    return z, factors


def factorize(a) -> ExponentVector:
    """Exact factorization into a torsion unit times canonical irreducibles."""
    if a.is_zero():
        raise ValueError("cannot factorize zero")
    f = a.field
    if f.kind == "Q":
        num, den = a.value.numerator, a.value.denominator
        sign, top = factor_integer(num)
        _, bottom = factor_integer(den)
        factors = {QElem(p): e for p, e in top.items()}
        for p, e in bottom.items():
            key = QElem(p)
            factors[key] = factors.get(key, 0) - e
        return ExponentVector(f, QElem(sign), factors)
    if f.kind == "FpT":
        p = f.p
        lead_n, top = fppoly.factor(a.num, p)
        lead_d, bottom = fppoly.factor(a.den, p)
        factors = {FpTElem(p, irr): e for irr, e in top.items()}
        for irr, e in bottom.items():
            key = FpTElem(p, irr)
            factors[key] = factors.get(key, 0) - e
        unit = (lead_n * pow(lead_d, -1, p)) % p
        return ExponentVector(f, FpTElem(p, (unit,)), factors)
    # QRho: clear denominators, factor the Eisenstein integer, then pull
    # the rational denominator back out prime by prime
    d = math.lcm(a.a.denominator, a.b.denominator)
    z = QRhoElem(a.a * d, a.b * d)
    unit, factors = _factor_eisenstein_int(z)
    uexp = _MU6[unit]
    _, dfac = factor_integer(d)
    for q, e in dfac.items():
        if q == 3:
            # 3 = rho * (2 - rho)^2
            uexp -= e
            factors[_RAMIFIED] = factors.get(_RAMIFIED, 0) - 2 * e
        elif q % 3 == 2:
            key = QRhoElem(q, 0)
            factors[key] = factors.get(key, 0) - e
        else:
            pi = _split_prime(q)
            for prime in (pi, _primary_associate(pi.conj())):
                factors[prime] = factors.get(prime, 0) - e
    rho = QRhoElem(0, 1)
    return ExponentVector(f, rho ** (uexp % 6), factors)


# --- small queries --------------------------------------------------------

def frobenius(a, n: int):
    """a^(p^n) over F_p(t), via coefficient spreading."""
    if not isinstance(a, FpTElem):
        raise ValueError("frobenius needs a function-field element")
    if n < 0:
        raise ValueError("frobenius exponent must be nonnegative")
    if n == 0:
        return a
    q = a.p**n
    # spreading preserves coprimality and the monic denominator, so the
    # reducing constructor would redo a large no-op gcd
    out = object.__new__(FpTElem)
    object.__setattr__(out, "p", a.p)
    object.__setattr__(out, "num", fppoly.spread(a.num, q))
    object.__setattr__(out, "den", fppoly.spread(a.den, q))
    object.__setattr__(out, "field", a.field)
    return out


def torsion_generator(field: FieldDesc):
    """Generator of the torsion subgroup of k^times, with its order."""
    if field.kind == "Q":
        return QElem(-1), 2
    if field.kind == "QRho":
        return QRhoElem(0, 1), 6
    p = field.p
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factor_integer(p - 1)[1]):
            return FpTElem(p, (g,)), p - 1
    return FpTElem(p, (1,)), 1  # p = 2: trivial torsion


def torsion_unit_exponent(u) -> int:
    """Discrete log of a torsion unit against the field's torsion generator."""
    gen, order = torsion_generator(u.field)
    cur = u.field.one()
    for j in range(order):
        if cur == u:
            return j
        cur = cur * gen
    raise ValueError("%r is not a torsion unit" % (u,))


def torsion_order(a):
    """Multiplicative order, or None when infinite."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    ev = factorize(a)
    if ev.factors:
        return None
    _, order = torsion_generator(a.field)
    j = torsion_unit_exponent(ev.torsion)
    return order // math.gcd(order, j)


def is_constant(a) -> bool:
    """Membership in the prime constant subfield F_p of F_p(t)."""
    if not isinstance(a, FpTElem):
        raise ValueError("is_constant applies to function-field elements")
    return fppoly.deg(a.num) <= 0 and a.den == fppoly.ONE


def irreducible_sort_key(elem):
    """Deterministic ordering of canonical irreducibles, for output."""
    if isinstance(elem, QElem):
        return (int(elem.value),)
    if isinstance(elem, QRhoElem):
        return (elem.norm(), elem.a, elem.b)
    return (fppoly.deg(elem.num), elem.num)
