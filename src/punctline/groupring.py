"""Truncated group rings (Z/M)[A] for finite abelian A.

The profinite statements this package shadows live in completed group
rings; every claim here is phrased at a finite truncation, and the
limit-flavored ones are phrased through the transition maps between
truncation levels (a literal non-zero-divisor claim at a single level
would be false).
"""

import itertools
import math
import re
from dataclasses import dataclass, field

from .exactalg import kernel_mod_m
from .freegroup import ALPHABET


@dataclass(frozen=True)
class AbelianShape:
    """A = Z/N_1 + ... + Z/N_s given by its moduli tuple."""

    moduli: tuple

    def __post_init__(self):
        mods = tuple(int(n) for n in self.moduli)
        if not mods or any(n < 1 for n in mods):
            raise ValueError("moduli must be a nonempty tuple of integers >= 1")
        object.__setattr__(self, "moduli", mods)

    def order(self) -> int:
        return math.prod(self.moduli)

    def reduce(self, key):
        if len(key) != len(self.moduli):
            raise ValueError("key length does not match shape")
        return tuple(int(k) % n for k, n in zip(key, self.moduli))

    def elements(self):
        return itertools.product(*(range(n) for n in self.moduli))


@dataclass(frozen=True)
class GroupRingElem:
    shape: AbelianShape
    M: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("coefficient modulus must be >= 2")
        norm = {}
        for key, c in self.coeffs.items():
            key = self.shape.reduce(key)
            c = (norm.get(key, 0) + int(c)) % self.M
            if c:
                norm[key] = c
            else:
                norm.pop(key, None)
        object.__setattr__(self, "coeffs", norm)

    @classmethod
    def zero(cls, shape, M):
        return cls(shape, M, {})

    @classmethod
    def monomial(cls, shape, M, key, coeff=1):
        if isinstance(key, int):
            key = (key,) + (0,) * (len(shape.moduli) - 1)
        return cls(shape, M, {tuple(key): coeff})

    @classmethod
    def one(cls, shape, M):
        return cls.monomial(shape, M, (0,) * len(shape.moduli))

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compat(self, other):
        if self.shape != other.shape or self.M != other.M:
            raise ValueError("shape or modulus mismatch")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return GroupRingElem(self.shape, self.M, out)

    def __neg__(self):
        return GroupRingElem(self.shape, self.M, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return grmul(self, other)


def grmul(a: GroupRingElem, b: GroupRingElem) -> GroupRingElem:
    """Convolution product."""
    a._compat(b)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            key = a.shape.reduce(tuple(x + y for x, y in zip(k1, k2)))
            out[key] = out.get(key, 0) + c1 * c2
    return GroupRingElem(a.shape, a.M, out)


# The largest group order |A| whose dense |A| x |A| multiplication
# matrix the groupring verb builds.  At |A| = 1024 its annihilators took
# 0.5-6 s and at most 43 MB on a 2-core VM (moduli 1024 and 32,32;
# coefficient moduli up to 30030); at 2048 they took up to 17 s.
MAX_ORDER = 2**10

# The largest coefficient modulus of the groupring verb, which factors it
# and eliminates once per prime power: M = 30030 took 5.0 s at |A| = 1024.
MAX_MODULUS = 2**16


def mult_rows(a: GroupRingElem):
    """Matrix of multiplication by a on the group basis, as a list of
    rows; rows and columns follow a.shape.elements() order."""
    shape = a.shape
    basis = list(shape.elements())
    index = {g: i for i, g in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for col, g in enumerate(basis):
        for k, c in a.coeffs.items():
            h = shape.reduce(tuple(x + y for x, y in zip(k, g)))
            rows[index[h]][col] += c
    return rows


def annihilator_basis(shape: AbelianShape, M: int, a: GroupRingElem):
    """Z/M-module generators of {y : a*y = 0}, via the kernel of the
    multiplication-by-a matrix over the group basis."""
    if a.shape != shape or a.M != M:
        raise ValueError("element does not live in the requested ring")
    basis = list(shape.elements())
    # kernel_mod_m returns only nonzero generators
    return [
        GroupRingElem(shape, M, dict(zip(basis, vec)))
        for vec in kernel_mod_m(mult_rows(a), M)
    ]


def project(a: GroupRingElem, new_moduli) -> GroupRingElem:
    """Coordinatewise coset-sum projection onto a quotient shape; each new
    modulus must divide the one it replaces."""
    new_moduli = tuple(int(n) for n in new_moduli)
    if len(new_moduli) != len(a.shape.moduli):
        raise ValueError("projection must keep the number of coordinates")
    for old, new in zip(a.shape.moduli, new_moduli):
        if new < 1 or old % new != 0:
            raise ValueError("%d does not divide the shape order %d" % (new, old))
    shape = AbelianShape(new_moduli)
    out = {}
    for key, c in a.coeffs.items():
        k = shape.reduce(key)
        out[k] = out.get(k, 0) + c
    return GroupRingElem(shape, a.M, out)


def transition(a: GroupRingElem, m_prime: int) -> GroupRingElem:
    """Project (Z/M)[Z/(k*m')] onto (Z/M)[Z/m'] by summing over cosets."""
    if len(a.shape.moduli) != 1:
        raise ValueError("transition requires a cyclic shape")
    return project(a, (m_prime,))


def limit_regularity_check(n: int, M: int, m_prime: int, k: int) -> bool:
    """Transition-compatibility shadow of regularity of x^n - 1.

    True iff the transition map from level k*m' to level m' sends every
    annihilator generator of x^n - 1 into k*(Z/M)[Z/m'].  n must divide
    m'.
    """
    if n < 1 or M < 2 or m_prime < 1 or k < 1:
        raise ValueError("truncation parameters must be positive (M >= 2)")
    if m_prime % n != 0:
        raise ValueError("n=%d does not divide m'=%d" % (n, m_prime))
    shape = AbelianShape((k * m_prime,))
    a = GroupRingElem.monomial(shape, M, n) - GroupRingElem.one(shape, M)
    divisor = math.gcd(k, M)
    for gen in annihilator_basis(shape, M, a):
        image = transition(gen, m_prime)
        if any(c % divisor != 0 for c in image.coeffs.values()):
            return False
    return True


def gamma_splitting(n: int, p: int) -> int:
    """The element of Z/n that is 0 on the p-part and 1 away from it.

    Needs p | n and n not a power of p, so the result is a genuine
    splitting idempotent exponent: nonzero, yet x^gamma - 1 kills the
    norm of the subgroup it generates.
    """
    if n % p != 0:
        raise ValueError("p must divide the shape order")
    q = 1
    while n % (q * p) == 0:
        q *= p
    m = n // q
    if m == 1:
        raise ValueError("order is a pure p-power; no splitting")
    # CRT: gamma = 0 mod q, 1 mod m
    inv = pow(q, -1, m)
    return (q * inv) % n


_TERM_RE = re.compile(r"([+-]?)\s*(\d+)?\s*(?:\*\s*)?([a-z](?:\^\d+)?(?:\s*\*?\s*[a-z](?:\^\d+)?)*)?\s*")


def parse_elem(shape: AbelianShape, M: int, text: str) -> GroupRingElem:
    """Parse CLI polynomial syntax over the shape: terms like `x^3-1`,
    `2*x*y^2+3`, with variables x, y, z, a, ... naming the coordinates."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty group-ring element")
    out = GroupRingElem.zero(shape, M)
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group(2) is None and m.group(3) is None):
            raise ValueError("bad group-ring element near %r" % s[pos:])
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        key = [0] * len(shape.moduli)
        if m.group(3):
            for piece in re.findall(r"([a-z])(?:\^(\d+))?", m.group(3)):
                idx = ALPHABET.index(piece[0])
                if idx >= len(shape.moduli):
                    raise ValueError("variable %r exceeds shape rank" % piece[0])
                key[idx] += int(piece[1]) if piece[1] else 1
        out = out + GroupRingElem.monomial(shape, M, tuple(key), sign * coeff)
        pos = m.end()
    return out


def term_text(c: int, key) -> str:
    """The term c * x^key for c >= 1, with variables x, y, z, a, ...
    naming the coordinates: 5, x, 2*x^3*y^-1."""
    mono = "*".join(
        ALPHABET[i] + ("" if e == 1 else "^%d" % e) for i, e in enumerate(key) if e
    )
    if not mono:
        return str(c)
    return mono if c == 1 else "%d*%s" % (c, mono)


def elem_text(a: GroupRingElem) -> str:
    if a.is_zero():
        return "0"
    return " + ".join(term_text(a.coeffs[key], key) for key in sorted(a.coeffs))
