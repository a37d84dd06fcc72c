import math
import random
from fractions import Fraction

import pytest

from punctline import fieldarith, multlattice
from punctline.fieldarith import (
    Q,
    QRHO,
    QElem,
    QRhoElem,
    factorize,
    fpt,
    irreducible_sort_key,
    torsion_generator,
    torsion_unit_exponent,
)
from punctline.multlattice import (
    KummerInvariant,
    MultSubgroup,
    cyclic_equal,
    exponent_vector_of_subgroup,
    kummer_equal,
    solve_p_power,
    subgroup_power_inclusion,
)

F2T = fpt(2)
F5T = fpt(5)


def q(x):
    return QElem(Fraction(x))


def test_cyclic_equal_examples():
    assert cyclic_equal(q(4), q(Fraction(1, 4)))
    assert not cyclic_equal(q(2), q(4))
    rho = QRHO.rho()
    assert cyclic_equal(rho, rho.inverse())
    # distinct torsion orders (6 vs 3) give distinct cyclic groups
    assert not cyclic_equal(rho, rho * rho)
    assert cyclic_equal(q(-1), q(-1))
    assert not cyclic_equal(q(2), q(-2))
    with pytest.raises(ValueError):
        cyclic_equal(q(0), q(2))
    with pytest.raises(ValueError):
        cyclic_equal(q(2), QRHO.one())


def test_solve_p_power_examples():
    t = F5T.t()
    assert solve_p_power(t, t**9, 3) == 2
    assert solve_p_power(t, t**-3, 3) == 1
    assert solve_p_power(t, t * t, 3) is None
    assert solve_p_power(t**9, t, 3) == -2
    assert solve_p_power(q(-1), q(-1), 3) == "all"
    assert solve_p_power(q(-1), q(4), 3) is None
    # exponent ratio is a p-power but the torsion part breaks equality
    assert solve_p_power(q(2), q(-8), 3) is None
    assert solve_p_power(q(2), q(8), 3) == 1
    with pytest.raises(ValueError):
        solve_p_power(t, t, 4)


def test_solve_p_power_factorizes_each_argument_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return factorize(a)

    # torsion_order reaches factorize through fieldarith, so count both
    monkeypatch.setattr(fieldarith, "factorize", counting)
    monkeypatch.setattr(multlattice, "factorize", counting)
    t = F5T.t()
    assert solve_p_power(t + F5T.one(), (t + F5T.one()) ** 25, 5) == 2
    assert len(calls) == 2


def test_subgroup_power_inclusion_examples():
    g4 = MultSubgroup(Q, (q(4),))
    g2 = MultSubgroup(Q, (q(2),))
    g8 = MultSubgroup(Q, (q(8),))
    g3 = MultSubgroup(Q, (q(3),))
    assert subgroup_power_inclusion(g4, g2, (3,)) == 1
    assert subgroup_power_inclusion(g2, g8, (2,)) == 3
    assert subgroup_power_inclusion(g2, g3, (5,)) is None
    # the sign forces an even exponent, so excluding 2 kills it
    gm2 = MultSubgroup(Q, (q(-2),))
    assert subgroup_power_inclusion(gm2, g2, (3,)) == 2
    assert subgroup_power_inclusion(gm2, g2, (2,)) is None
    with pytest.raises(ValueError):
        subgroup_power_inclusion(g2, g2, ())
    with pytest.raises(ValueError):
        subgroup_power_inclusion(g2, MultSubgroup(QRHO, (QRHO.rho(),)), (3,))


def test_kummer_equal_examples():
    assert kummer_equal(KummerInvariant(3, q(2)), KummerInvariant(3, q(16)))
    assert not kummer_equal(KummerInvariant(2, q(2)), KummerInvariant(2, q(4)))
    # sqrt(-1) and sqrt(-9) generate the same quadratic extension
    assert kummer_equal(KummerInvariant(2, q(-1)), KummerInvariant(2, q(-9)))
    assert not kummer_equal(KummerInvariant(2, q(-1)), KummerInvariant(2, q(9)))
    with pytest.raises(ValueError):
        kummer_equal(KummerInvariant(4, q(2)), KummerInvariant(4, q(3)))
    t = F2T.t()
    with pytest.raises(ValueError):
        kummer_equal(KummerInvariant(2, t), KummerInvariant(2, t + F2T.one()))
    with pytest.raises(ValueError):
        kummer_equal(KummerInvariant(3, q(2)), KummerInvariant(5, q(2)))
    with pytest.raises(ValueError):
        KummerInvariant(0, q(2))
    with pytest.raises(ValueError):
        KummerInvariant(2, q(0))


def test_exponent_vector_of_subgroup_examples():
    lat = exponent_vector_of_subgroup(MultSubgroup(Q, (q(2), q(3))))
    assert lat.support == (q(2), q(3))
    assert lat.basis == ((1, 0), (0, 1))
    assert lat.torsion == 1

    lat = exponent_vector_of_subgroup(MultSubgroup(Q, (q(4),)))
    assert lat.support == (q(2),)
    assert lat.basis == ((2,),)
    assert lat.torsion == 1

    t = F2T.t()
    lat = exponent_vector_of_subgroup(MultSubgroup(F2T, (t, t * (t + F2T.one()))))
    assert lat.support == (t, t + F2T.one())
    assert lat.basis == ((1, 0), (0, 1))
    assert lat.torsion == 1

    lat = exponent_vector_of_subgroup(MultSubgroup(Q, (q(-1), q(2))))
    assert lat.support == (q(2),)
    assert lat.basis == ((1,),)
    assert lat.torsion == 2

    lat = exponent_vector_of_subgroup(MultSubgroup(QRHO, (QRHO.rho(),)))
    assert lat.support == ()
    assert lat.basis == ()
    assert lat.torsion == 6

    # -4 and 2 together trap -1 = (-4) * 2^(-2)
    lat = exponent_vector_of_subgroup(MultSubgroup(Q, (q(-4), q(2))))
    assert lat.torsion == 2


def _random_elem(rng, field, nontorsion=True):
    if field.kind == "Q":
        primes = [q(2), q(3), q(5), q(7)]
        units = [q(1), q(-1)]
    elif field.kind == "QRho":
        primes = [QRhoElem(Fraction(2), Fraction(0)), QRhoElem(Fraction(3), Fraction(1))]
        units = [QRHO.rho() ** j for j in range(6)]
    else:
        t = field.t()
        primes = [t, t + field.one(), t * t + field.from_int(field.p - 1) * t + field.one()]
        units = [field.from_int(j) for j in range(1, field.p)]
    while True:
        a = rng.choice(units)
        for pi in primes:
            a = a * pi ** rng.randint(-2, 2)
        if not nontorsion or factorize(a).factors:
            return a


def test_cyclic_equal_properties():
    rng = random.Random(7)
    for field in (Q, QRHO, F2T, F5T):
        for _ in range(40):
            a = _random_elem(rng, field, nontorsion=False)
            b = _random_elem(rng, field, nontorsion=False)
            c = _random_elem(rng, field, nontorsion=False)
            assert cyclic_equal(a, a)
            assert cyclic_equal(a, a.inverse())
            assert cyclic_equal(a, b) == cyclic_equal(b, a)
            if cyclic_equal(a, b) and cyclic_equal(b, c):
                assert cyclic_equal(a, c)


def test_solve_p_power_roundtrip():
    rng = random.Random(11)
    fields = (Q, QRHO, F2T, F5T)
    for _ in range(500):
        field = rng.choice(fields)
        p = rng.choice([2, 3, 5])
        a = _random_elem(rng, field)
        sigma = rng.randint(0, 3)
        sign = rng.choice([1, -1])
        if rng.random() < 0.5:
            b = a ** (sign * p**sigma)
            assert solve_p_power(a, b, p) == sigma
        else:
            c = _random_elem(rng, field)
            big, small = c ** (p**sigma), c**sign
            assert solve_p_power(big, small, p) == -sigma
        # support mismatch is always rejected
        extra = q(11) if field.kind == "Q" else None
        if extra is not None:
            assert solve_p_power(a, (a**p) * extra, p) is None


def _kummer_subgroup(n, g, tau, vec):
    out = set()
    cur_t, cur_v = 0, tuple(0 for _ in vec)
    for _ in range(n * g):
        out.add((cur_t, cur_v))
        cur_t = (cur_t + tau) % g
        cur_v = tuple((x + y) % n for x, y in zip(cur_v, vec))
    return out


def test_kummer_equal_brute_force():
    rng = random.Random(13)
    for field in (Q, QRHO, F5T):
        _, w = torsion_generator(field)
        for _ in range(60):
            n = rng.randint(1, 9)
            if field.kind in ("Q", "QRho") and n % 4 == 0:
                continue
            if field.kind == "FpT" and math.gcd(n, field.p) != 1:
                continue
            a = _random_elem(rng, field, nontorsion=False)
            b = _random_elem(rng, field, nontorsion=False)
            eva, evb = factorize(a), factorize(b)
            support = sorted(
                set(eva.factors) | set(evb.factors),
                key=irreducible_sort_key,
            )
            g = math.gcd(n, w)
            sa = _kummer_subgroup(
                n,
                g,
                torsion_unit_exponent(eva.torsion) % g,
                [eva.factors.get(s, 0) % n for s in support],
            )
            sb = _kummer_subgroup(
                n,
                g,
                torsion_unit_exponent(evb.torsion) % g,
                [evb.factors.get(s, 0) % n for s in support],
            )
            want = sa == sb
            got = kummer_equal(KummerInvariant(n, a), KummerInvariant(n, b))
            assert got == want


def test_cyclic_power_transfer_generated_instances():
    # a and eps * a^u span the same Kummer layers at every n built from
    # odd primes prime to u, and each of <a>, <a, b> includes into the
    # other after a torsion-size exponent prime to those same primes
    rng = random.Random(17)
    for field in (Q, QRHO, F2T, F5T):
        t_primes = (3, 7, 11, 13) if field.char() == 5 else (3, 5, 7, 11)
        if field.kind == "Q":
            eps_pool = [q(1), q(-1)]
        elif field.kind == "QRho":
            eps_pool = [QRHO.one(), QRHO.from_int(-1)]
        elif field.p == 5:
            eps_pool = [field.from_int(j) for j in range(1, 5)]
        else:
            eps_pool = [field.one()]
        for _ in range(12):
            a = _random_elem(rng, field)
            eps = rng.choice(eps_pool)
            u = rng.choice([1, 2, 4, 8, 16, 17, 23])
            assert all(math.gcd(u, ell) == 1 for ell in t_primes)
            b = eps * a**u
            for ell in t_primes:
                for e in (1, 2):
                    n = ell**e
                    assert kummer_equal(KummerInvariant(n, a), KummerInvariant(n, b))
            g1 = MultSubgroup(field, (a,))
            g2 = MultSubgroup(field, (a, b))
            down = subgroup_power_inclusion(g1, g2, t_primes)
            up = subgroup_power_inclusion(g2, g1, t_primes)
            assert down == 1
            assert up is not None
            assert all(math.gcd(up, ell) == 1 for ell in t_primes)


def test_subgroup_validation():
    with pytest.raises(ValueError):
        MultSubgroup(Q, ())
    with pytest.raises(ValueError):
        MultSubgroup(Q, (q(0),))
    with pytest.raises(ValueError):
        MultSubgroup(Q, (QRHO.one(),))
