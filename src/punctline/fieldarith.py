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

An F_p(t) element is stored in lowest terms with a monic denominator;
its arithmetic relies on that form and keeps it (see FpTElem).  F_p(t)
input is bounded by MAX_DEGREE, in element texts and in Frobenius
twists.
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
        return _reduced(self.p, fppoly.norm((n,), self.p), fppoly.ONE)

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
            return cls("FpT", json_int(data["p"]))
        return cls(data.get("kind"))

    def to_text(self) -> str:
        return "FpT:%d" % self.p if self.kind == "FpT" else self.kind

    @classmethod
    def from_text(cls, text: str):
        text = text.strip()
        if text.startswith("FpT:"):
            return cls("FpT", int(text[4:]))
        return cls(text)


def json_int(value) -> int:
    """A JSON integer as read by json.load; bools, floats and strings are
    rejected rather than truncated or converted."""
    if type(value) is not int:
        raise ValueError("expected an integer, got %r" % (value,))
    return value


Q = FieldDesc("Q")
QRHO = FieldDesc("QRho")


# The largest degree an F_p(t) input may ask for: a term exponent in an
# element text, or the factor p^n by which a Frobenius twist multiplies
# every degree.  Beyond it, input is rejected rather than allocated.
MAX_DEGREE = 2**16


@functools.cache
def fpt(p: int) -> FieldDesc:
    """The descriptor of F_p(t), built and validated once per prime."""
    return FieldDesc("FpT", p)


class _Elem:
    """What the three element types share: immutability, division by
    the inverse, and integer powers by square-and-multiply."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError("immutable")

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


class QElem(_Elem):
    __slots__ = ("value",)
    field = Q

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))

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


class QRhoElem(_Elem):
    __slots__ = ("a", "b")
    field = QRHO

    def __init__(self, a, b):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

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


class FpTElem(_Elem):
    """num/den in F_p(t), always in canonical form: num and den coprime,
    den monic (so 0 is 0/1).  Equality and hashing compare the stored
    tuples, and the arithmetic below relies on its operands being in
    this form: a gcd of the factors (Henrici for products, Knuth for
    sums; TAOCP Vol. 2, 4.5.1) then gives a result already in canonical
    form, which _reduced stores without the full gcd of numerator and
    denominator that __init__ runs on arbitrary input."""

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
        a, b, c, d = self.num, self.den, other.num, other.den
        g = fppoly.ONE if b == fppoly.ONE or d == fppoly.ONE else fppoly.gcd(b, d, p)
        if g == fppoly.ONE:
            # a zero sum here has b = d = 1, so the result is 0/1
            num = fppoly.add(fppoly.mul(a, d, p), fppoly.mul(c, b, p), p)
            return _reduced(p, num, fppoly.mul(b, d, p))
        # a/b + c/d = t / ((b/g)(d/g) g) with t = a (d/g) + c (b/g); t is
        # prime to b/g and to d/g, so only a factor of g can cancel
        b = _exact_div(b, g, p)
        d = _exact_div(d, g, p)
        num = fppoly.add(fppoly.mul(a, d, p), fppoly.mul(c, b, p), p)
        if not num:
            return _reduced(p, fppoly.ZERO, fppoly.ONE)
        num, g = _cancel(num, g, p)
        return _reduced(p, num, fppoly.mul(fppoly.mul(b, d, p), g, p))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _reduced(self.p, fppoly.neg(self.num, self.p), self.den)

    def __mul__(self, other):
        _same_field(self, other)
        p = self.p
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return _reduced(p, fppoly.ZERO, fppoly.ONE)
        # a/b and c/d are in lowest terms, so only a with d and c with b
        # can share factors
        a, d = _cancel(a, d, p)
        c, b = _cancel(c, b, p)
        return _reduced(p, fppoly.mul(a, c, p), fppoly.mul(b, d, p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        p = self.p
        num, den = self.den, self.num
        if den[-1] != 1:
            inv = pow(den[-1], -1, p)
            num = fppoly.scale(num, inv, p)
            den = fppoly.scale(den, inv, p)
        return _reduced(p, num, den)


def _reduced(p, num, den):
    """The FpTElem num/den for data already in canonical form (coprime,
    den monic): the one constructor that skips __init__'s gcd."""
    out = object.__new__(FpTElem)
    object.__setattr__(out, "p", p)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "field", fpt(p))
    return out


def _exact_div(f, g, p):
    # f / g for a monic g that divides f
    return f if g == fppoly.ONE else fppoly.divmod_poly(f, g, p)[0]


def _cancel(f, g, p):
    """(f / h, g / h) for h = gcd(f, g), with f nonzero and g monic (so
    g / h stays monic)."""
    if len(f) == 1 or g == fppoly.ONE:
        return f, g
    h = fppoly.gcd(f, g, p)
    return _exact_div(f, h, p), _exact_div(g, h, p)


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch: %s vs %s" % (a.field, b.field))


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
        if e > MAX_DEGREE:
            raise ValueError(
                "exponent %d in %r exceeds the degree bound %d of FpT:%d"
                % (e, text, MAX_DEGREE, p)
            )
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
        return "%s%s%s" % (head, sign, rho)
    if isinstance(a, FpTElem):
        num = _poly_to_text(a.num, a.p)
        if a.den == fppoly.ONE:
            return num
        return "(%s)/(%s)" % (num, _poly_to_text(a.den, a.p))
    raise TypeError("not a field element: %r" % (a,))


def elem_from_text(field: FieldDesc, text: str):
    """Parse an element text of field; anything malformed, a zero
    denominator included, raises ValueError quoting the text."""
    try:
        return _parse_elem(field, text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in field element %r" % text) from None


def _parse_elem(field: FieldDesc, text: str):
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty field element")
    if field.kind == "Q":
        return QElem(Fraction(s))
    if field.kind == "QRho":
        # terms c, c*rho and rho, each with an optional sign, c anything
        # Fraction reads
        terms = re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise ValueError("bad Q(rho) element %r" % text)
        a = Fraction(0)
        b = Fraction(0)
        for term in terms:
            coeff, is_rho = term, term.endswith("rho")
            if is_rho:
                coeff = term[:-3]
                if coeff in ("", "+", "-"):
                    coeff += "1"
                elif coeff.endswith("*"):
                    coeff = coeff[:-1]
                else:
                    raise ValueError("bad Q(rho) element %r" % text)
            try:
                value = Fraction(coeff)
            except ValueError:
                raise ValueError("bad Q(rho) element %r" % text) from None
            if is_rho:
                b += value
            else:
                a += value
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

@dataclass(frozen=True)
class ExponentVector:
    """torsion * product of irreducible^exponent, recomposing exactly."""

    field: FieldDesc
    torsion: object
    factors: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "factors", {k: int(e) for k, e in self.factors.items() if e}
        )

    def recompose(self):
        out = self.torsion
        for irr, e in self.factors.items():
            out = out * irr**e
        return out


_RAMIFIED = QRhoElem(2, -1)  # 2 - rho, the canonical prime above 3

def _eisenstein_divide(z, w):
    # exact division in Z[rho]; returns None if w does not divide z
    n = w.norm()
    prod = z * w.conj()
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


def _split_prime(q):
    """A primary prime of norm q, for a rational prime q = 1 (mod 3).

    Cornacchia's algorithm (Cohen, A Course in Computational Algebraic
    Number Theory, 1.5.2) writes q = x^2 + 3y^2 from a square root r of
    -3 mod q, and N(x - y + 2y rho) = x^2 + 3y^2.  r = 2w + 1 for a cube
    root of unity w != 1, a power g^((q-1)/3) of some non-cube g."""
    g = 2
    while pow(g, (q - 1) // 3, q) == 1:
        g += 1
    x, r = q, (2 * pow(g, (q - 1) // 3, q) + 1) % q
    while r * r > q:
        x, r = r, x % r
    y = math.isqrt((q - r * r) // 3)
    if r * r + 3 * y * y != q:
        raise RuntimeError("no Eisenstein prime of norm %d found" % q)
    return _primary_associate(QRhoElem(r - y, 2 * y))


def _primes_above(q):
    """The canonical primes of Z[rho] above the rational prime q."""
    if q == 3:
        return (_RAMIFIED,)
    if q % 3 == 2:
        return (QRhoElem(q, 0),)
    pi = _split_prime(q)
    # the conjugate of a primary element is primary
    return (pi, pi.conj())


def _factor_eisenstein_int(z):
    """Factor a nonzero z in Z[rho]: (mu_6 unit, {canonical prime: exp})."""
    _, rational = factor_integer(int(z.norm()))
    factors = {}
    for q in rational:
        for prime in _primes_above(q):
            while (quotient := _eisenstein_divide(z, prime)) is not None:
                z = quotient
                factors[prime] = factors.get(prime, 0) + 1
    # what is left is in Z[rho], so it is a unit (in mu_6) iff of norm 1
    if z.norm() != 1:
        raise RuntimeError("leftover non-unit %r after Eisenstein factorization" % z)
    return z, factors


def ring_parts(a):
    """a as num / den with num and den in the field's ring: ints in Z,
    coprime polynomials in F_p[t], and int pairs (x, y) for x + y rho in
    Z[rho], where den = (d, 0) for the least common denominator d of
    a's two coordinates."""
    if a.field.kind == "Q":
        return a.value.numerator, a.value.denominator
    if a.field.kind == "QRho":
        x, y = a.a, a.b
        d = math.lcm(x.denominator, y.denominator)
        num = (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
        return num, (d, 0)
    return a.num, a.den


def _factor_ring(f, x):
    """Factor a nonzero x of the ring of f: (unit, {canonical
    irreducible: exponent})."""
    if f.kind == "Q":
        sign, primes = factor_integer(x)
        return QElem(sign), {QElem(q): e for q, e in primes.items()}
    if f.kind == "QRho":
        return _factor_eisenstein_int(QRhoElem(*x))
    lead, irreducibles = fppoly.factor(x, f.p)
    return FpTElem(f.p, (lead,)), {FpTElem(f.p, g): e for g, e in irreducibles.items()}


def factorize(a) -> ExponentVector:
    """Exact factorization into a torsion unit times canonical
    irreducibles: numerator and denominator are factored in the field's
    ring, and the torsion unit is the quotient of their units."""
    if a.is_zero():
        raise ValueError("cannot factorize zero")
    num, den = ring_parts(a)
    unit, factors = _factor_ring(a.field, num)
    den_unit, den_factors = _factor_ring(a.field, den)
    for irr, e in den_factors.items():
        factors[irr] = factors.get(irr, 0) - e
    return ExponentVector(a.field, unit / den_unit, factors)


# The largest factorizations an element text may ask for, in bits of the
# norms of its numerator and denominator in the field's ring: |n| in Z,
# a^2 + ab + b^2 in Z[rho], p^deg in F_p[t] (counted as deg *
# bit_length(p)).  Over Z and Z[rho] Pollard rho's time grows with the
# size of the prime factors: a 64-bit semiprime took 0.06 s, an 80-bit
# one 1.0 s.  Over F_p[t] it is polynomial in the degree: at 256 bits
# the slowest polynomial took 0.32 s (p = 3, degree 128), at 512 bits
# 1.8 s (p = 7, degree 170).  Timings on a 2-core VM.
MAX_FACTOR_BITS = {"Q": 64, "QRho": 64, "FpT": 256}


def factor_bits(a) -> int:
    """The bits of the larger norm of a's numerator and denominator, as
    MAX_FACTOR_BITS counts them."""
    if a.field.kind == "FpT":
        return max(fppoly.deg(x) for x in ring_parts(a)) * a.p.bit_length()
    norm = abs if a.field.kind == "Q" else (lambda z: int(QRhoElem(*z).norm()))
    return max(norm(x).bit_length() for x in ring_parts(a))


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
    # spreading preserves coprimality and the monic denominator
    return _reduced(a.p, fppoly.spread(a.num, q), fppoly.spread(a.den, q))


def check_twist(field: FieldDesc, n: int):
    """Reject a Frobenius twist n whose p^n exceeds MAX_DEGREE (twisting
    multiplies every degree by p^n).  From n = MAX_DEGREE.bit_length()
    on, p^n exceeds it for every p, so a huge n is never raised to."""
    if n and field.char() and (
        n >= MAX_DEGREE.bit_length() or field.p**n > MAX_DEGREE
    ):
        raise ValueError(
            "twist %d: p^%d exceeds the degree bound %d of %s"
            % (n, n, MAX_DEGREE, field.to_text())
        )


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
    if u.field.kind == "FpT":
        if not is_constant(u) or u.is_zero():
            raise ValueError("%r is not a torsion unit" % (u,))
        return _discrete_log(u.num[0], gen.num[0], u.p)
    cur = u.field.one()
    for j in range(order):
        if cur == u:
            return j
        cur = cur * gen
    raise ValueError("%r is not a torsion unit" % (u,))


def _discrete_log(h, g, p):
    """The j in [0, p - 1) with g^j = h mod p, for a generator g of F_p^*,
    by Pohlig-Hellman (IEEE Trans. IT 24, 1978): for each prime power q^e
    of p - 1, the base-q digits of j mod q^e, each found among the powers
    of an element of order q; then CRT.  At most the sum of e * q over
    p - 1 = prod q^e products mod p, where a walk through F_p^* takes up
    to p - 1."""
    n = p - 1
    j, m = 0, 1
    for q, e in factor_integer(n)[1].items():
        gq = pow(g, n // q, p)  # of order q
        x = 0
        for k in range(e):
            # (h g^-x)^(n / q^(k+1)) = gq^(k-th digit)
            target = pow(h * pow(g, -x, p), n // q ** (k + 1), p)
            digit, cur = 0, 1
            while cur != target:
                cur = cur * gq % p
                digit += 1
            x += digit * q**k
        qe = q**e
        j += m * ((x - j) * pow(m, -1, qe) % qe)
        m *= qe
    return j


def torsion_order(a):
    """Multiplicative order, or None when infinite."""
    if a.is_zero():
        raise ValueError("zero has no multiplicative order")
    try:
        j = torsion_unit_exponent(a)
    except ValueError:
        return None
    _, order = torsion_generator(a.field)
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
