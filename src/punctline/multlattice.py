"""Decisions about cyclic subgroups and Kummer layers in k^times.

An element of k^times is a torsion unit times a product of canonical
irreducibles (see :func:`fieldarith.factorize`), so it reads as a
torsion exponent against the field's torsion generator (w = 2, 6, or
p - 1) plus an exponent vector over its support.  The decisions below
compare two elements through that data: the paper's Kummer route, which
reconstruct no longer takes (crossratio decides by near-rigidity and by
heights); forced_map_realizable and the tests keep it as the reference.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import is_prime
from .fieldarith import (
    factorize,
    frobenius,
    irreducible_sort_key,
    torsion_generator,
    torsion_order,
    torsion_unit_exponent,
)


def _p_power(a, p: int, e: int):
    # a^(p^e) for e >= 0; coefficient spreading when p is the
    # characteristic, since p^e overflows square-and-multiply fast
    if e >= 1 and a.field.kind == "FpT" and a.field.p == p:
        return frobenius(a, e)
    return a ** (p**e)


@dataclass(frozen=True)
class KummerInvariant:
    """n-th Kummer layer of a nonzero lam: stands for k(mu_n, lam^(1/n))."""

    n: int
    lam: object

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.lam.is_zero():
            raise ValueError("lam must be nonzero")


def _check_pair(a, b):
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.is_zero() or b.is_zero():
        raise ValueError("zero is not a unit")


def cyclic_equal(a, b) -> bool:
    """Does <a> = <b> in k^times?"""
    _check_pair(a, b)
    if a == b or a == b.inverse():
        return True
    oa = torsion_order(a)
    ob = torsion_order(b)
    if oa is not None or ob is not None:
        # finite cyclic subgroups of the cyclic torsion group coincide
        # exactly when the orders do
        return oa == ob
    return False


def solve_p_power(a, b, p: int):
    """The sigma with <a>^(p^sigma) = <b>: an integer when a is
    non-torsion (unique), "all" when a is torsion and <a> = <b>, else
    None."""
    _check_pair(a, b)
    if not is_prime(p):
        raise ValueError("p must be prime")
    ev_a = factorize(a)
    if not ev_a.factors:
        # no irreducible factors: a is a torsion unit
        return "all" if cyclic_equal(a, b) else None
    ev_b = factorize(b)
    if set(ev_a.factors) != set(ev_b.factors):
        return None
    items = list(ev_a.factors.items())
    pi0, e0 = items[0]
    ratio = Fraction(ev_b.factors[pi0], e0)
    for pi, e in items[1:]:
        if Fraction(ev_b.factors[pi], e) != ratio:
            return None
    if ratio == 0:
        return None
    mag = abs(ratio)
    num, den = mag.numerator, mag.denominator
    sigma = 0
    if den == 1:
        while num % p == 0:
            num //= p
            sigma += 1
        if num != 1:
            return None
    else:
        if num != 1:
            return None
        while den % p == 0:
            den //= p
            sigma -= 1
        if den != 1:
            return None
    # torsion parts must match too: verify the group equation exactly
    if sigma >= 0:
        c = _p_power(a, p, sigma)
        if b == c or b == c.inverse():
            return sigma
        return None
    lifted = _p_power(b, p, -sigma)
    if lifted == a or lifted == a.inverse():
        return sigma
    return None


def _solvable_in_one_unknown(congruences):
    """Whether one integer j meets j * y = x (mod m) for every (x, y, m):
    each congruence reduces by d = gcd(y, m) to one class mod m / d, and
    the classes join by gcd-based CRT, so no modulus is factored."""
    r, mod = 0, 1
    for x, y, m in congruences:
        d = math.gcd(y, m)
        if x % d:
            return False
        m //= d
        c = x // d * pow(y // d, -1, m) % m
        # join j = r (mod mod) with j = c (mod m)
        e = math.gcd(mod, m)
        if (c - r) % e:
            return False
        step = (c - r) // e * pow(mod // e, -1, m // e) % (m // e)
        r, mod = r + mod * step, mod * (m // e)
    return True


def _joint_support(evs):
    sup = set()
    for ev in evs:
        sup.update(ev.factors)
    return sorted(sup, key=irreducible_sort_key)


def kummer_equal(k1: KummerInvariant, k2: KummerInvariant) -> bool:
    """Equality of the Kummer fields k(mu_n, lam^(1/n)), decided inside
    k^times / (k^times)^n.

    Over Q and Q(rho), n divisible by 4 is rejected (mu_4 is missing, so
    the descent that justifies the k-level computation fails there: 16
    is an 8th power in Q(mu_8) but not in Q).  Over F_p(t), n must be
    prime to p.
    """
    lam1, lam2 = k1.lam, k2.lam
    if lam1.field != lam2.field:
        raise ValueError("field mismatch")
    if k1.n != k2.n:
        raise ValueError("Kummer layers differ: %d vs %d" % (k1.n, k2.n))
    n = k1.n
    field = lam1.field
    if field.kind in ("Q", "QRho") and n % 4 == 0:
        raise ValueError("4 | n needs mu_4 in the field")
    if field.kind == "FpT" and math.gcd(n, field.p) != 1:
        raise ValueError("n must be prime to the characteristic")
    if n == 1:
        return True
    ev1 = factorize(lam1)
    ev2 = factorize(lam2)
    support = _joint_support([ev1, ev2])
    _, w = torsion_generator(field)
    g = math.gcd(n, w)
    v1 = [ev1.factors.get(s, 0) for s in support]
    v2 = [ev2.factors.get(s, 0) for s in support]
    t1 = torsion_unit_exponent(ev1.torsion)
    t2 = torsion_unit_exponent(ev2.torsion)

    def member(vec, tau, base_vec, base_tau):
        # one unknown j mod n with vec = j * base_vec mod n and tau =
        # j * base_tau mod g
        congruences = [(x, y, n) for x, y in zip(vec, base_vec)]
        return _solvable_in_one_unknown(congruences + [(tau, base_tau, g)])

    return member(v2, t2, v1, t1) and member(v1, t1, v2, t2)
