"""Multiplicative-lattice decisions in k^times.

A finitely generated subgroup of k^times embeds into Z/w + Z^S: the
torsion exponent against the field's torsion generator (w = 2, 6, or
p - 1), plus the exponent vector over the joint support of canonical
irreducibles.  Every decision below is linear algebra over that
combined lattice, with the torsion modulus carried as an extra relation
row (w, 0, ..., 0).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    IntMatrix,
    hermite_normal_form,
    is_prime,
    kernel_integer,
    smith_normal_form,
)
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
class MultSubgroup:
    field: object
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a subgroup needs at least one generator")
        for g in gens:
            if g.field != self.field:
                raise ValueError("generator outside the subgroup's field")
            if g.is_zero():
                raise ValueError("generators must be nonzero")
        object.__setattr__(self, "generators", gens)


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


@dataclass(frozen=True)
class SubgroupLattice:
    """Free-part description of a subgroup: joint support, Hermite-reduced
    exponent basis over it, and the order of the torsion subgroup."""

    support: tuple
    basis: tuple
    torsion: int


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


def _matvec(m, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in m.entries]


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


def _combined_rows(evs, support):
    rows = []
    for ev in evs:
        tau = torsion_unit_exponent(ev.torsion)
        rows.append([tau] + [ev.factors.get(s, 0) for s in support])
    return rows


def _joint_support(evs):
    sup = set()
    for ev in evs:
        sup.update(ev.factors)
    return sorted(sup, key=irreducible_sort_key)


def subgroup_power_inclusion(g1: MultSubgroup, g2: MultSubgroup, T):
    """Minimal N coprime to T with g1^N contained in g2, or None.

    The valid exponents are exactly the multiples of N0, the exponent of
    the image of g1 in (Z/w + Z^S)/g2, so N0 itself is the answer when
    coprime to T and no exponent works otherwise.
    """
    if g1.field != g2.field:
        raise ValueError("field mismatch")
    T = tuple(T)
    if not T:
        raise ValueError("T must be nonempty")
    evs1 = [factorize(g) for g in g1.generators]
    evs2 = [factorize(g) for g in g2.generators]
    support = _joint_support(evs1 + evs2)
    _, w = torsion_generator(g1.field)
    d = 1 + len(support)
    lattice = [[w] + [0] * len(support)]
    lattice += _combined_rows(evs2, support)
    a_t = [[lattice[j][i] for j in range(len(lattice))] for i in range(d)]
    snf = smith_normal_form(IntMatrix(a_t))
    diag = snf.d.diagonal()
    n0 = 1
    for row in _combined_rows(evs1, support):
        c = _matvec(snf.u, row)
        for i in range(d):
            di = diag[i] if i < min(d, len(lattice)) else 0
            if di == 0:
                if c[i] != 0:
                    return None
            else:
                n0 = math.lcm(n0, di // math.gcd(di, c[i]))
    if any(math.gcd(n0, t) != 1 for t in T):
        return None
    return n0


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
        for j in range(n):
            if all((x - j * y) % n == 0 for x, y in zip(vec, base_vec)) and (
                tau - j * base_tau
            ) % g == 0:
                return True
        return False

    return member(v2, t2, v1, t1) and member(v1, t1, v2, t2)


def exponent_vector_of_subgroup(g: MultSubgroup) -> SubgroupLattice:
    """Hermite-reduced basis of the free image plus the torsion order."""
    evs = [factorize(x) for x in g.generators]
    support = _joint_support(evs)
    taus = [torsion_unit_exponent(ev.torsion) for ev in evs]
    _, w = torsion_generator(g.field)
    vecs = [[ev.factors.get(s, 0) for s in support] for ev in evs]
    basis = tuple(tuple(r) for r in hermite_normal_form(vecs) if any(r))
    # torsion subgroup: combinations of generators landing in the torsion
    if support:
        cols = [[vecs[j][i] for j in range(len(vecs))] for i in range(len(support))]
        kernel = kernel_integer(IntMatrix(cols))
    else:
        kernel = [tuple(1 if i == j else 0 for i in range(len(evs))) for j in range(len(evs))]
    d = w
    for comb in kernel:
        d = math.gcd(d, sum(c * t for c, t in zip(comb, taus)))
    return SubgroupLattice(tuple(support), basis, w // d)
