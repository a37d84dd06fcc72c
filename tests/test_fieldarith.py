import math
import random
import re
from fractions import Fraction

import pytest

from punctline import fieldarith, fppoly
from punctline.fieldarith import (
    MAX_DEGREE,
    Q,
    QRHO,
    FieldDesc,
    FpTElem,
    QElem,
    QRhoElem,
    check_twist,
    elem_from_text,
    elem_to_text,
    factorize,
    fpt,
    frobenius,
    irreducible_sort_key,
    is_constant,
    torsion_generator,
    torsion_order,
    torsion_unit_exponent,
)

F2T = fpt(2)
F5T = fpt(5)


def rand_elem(rng, field, zero_ok=False):
    if field.kind == "Q":
        while True:
            e = QElem(Fraction(rng.randint(-40, 40), rng.randint(1, 40)))
            if zero_ok or not e.is_zero():
                return e
    if field.kind == "QRho":
        while True:
            e = QRhoElem(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            if zero_ok or not e.is_zero():
                return e
    p = field.p
    while True:
        num = tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
        try:
            e = FpTElem(p, num, den)
        except ZeroDivisionError:
            continue
        if zero_ok or not e.is_zero():
            return e


def test_field_desc():
    assert FieldDesc.from_text("FpT:2") == F2T
    assert FieldDesc.from_text("Q") == Q
    assert FieldDesc.from_json({"kind": "FpT", "p": 5}) == F5T
    assert F5T.to_json() == {"kind": "FpT", "p": 5}
    assert Q.char() == 0 and F5T.char() == 5
    with pytest.raises(ValueError):
        FieldDesc("FpT", 6)
    with pytest.raises(ValueError):
        FieldDesc("R")


def test_arith_frozen():
    assert QElem(Fraction(1, 2)) + QElem(Fraction(1, 3)) == QElem(Fraction(5, 6))
    rho = QRHO.rho()
    assert rho * rho == QRhoElem(-1, 1)  # rho^2 = rho - 1
    t = F2T.t()
    one = F2T.one()
    assert t / (t + one) * ((t + one) / t) == one
    with pytest.raises(ZeroDivisionError):
        one / F2T.zero()
    with pytest.raises(ValueError):
        QElem(1) + rho


def test_field_axioms_random():
    rng = random.Random(600)
    for field in (Q, QRHO, F2T, F5T):
        for _ in range(60):
            a = rand_elem(rng, field, zero_ok=True)
            b = rand_elem(rng, field)
            c = rand_elem(rng, field, zero_ok=True)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert b * b.inverse() == field.one()
            assert a - a == field.zero()
            assert (a / b) * b == a


def test_pow():
    t = F2T.t()
    assert t**3 == t * t * t
    assert (t + F2T.one()) ** -2 == ((t + F2T.one()) ** 2).inverse()
    rho = QRHO.rho()
    assert rho**6 == QRHO.one()
    assert rho**-1 == QRHO.one() - rho  # the unit identity 1 - rho = rho^-1
    assert QElem(Fraction(-2, 3)) ** -3 == QElem(Fraction(-27, 8))
    assert Q.zero() ** 0 == Q.one()
    with pytest.raises(ZeroDivisionError):
        Q.zero() ** -1


def test_factorize_frozen():
    ev = factorize(QElem(12))
    assert ev.torsion == QElem(1)
    assert ev.factors == {QElem(2): 2, QElem(3): 1}

    t2t = elem_from_text(F2T, "t^2+t")
    ev = factorize(t2t)
    assert ev.torsion == F2T.one()
    assert ev.factors == {F2T.t(): 1, elem_from_text(F2T, "t+1"): 1}

    ev = factorize(QRhoElem(3, 0))
    ram = QRhoElem(2, -1)  # 1 - rho^2 = 2 - rho
    assert ev.factors == {ram: 2}
    assert ev.torsion == QRHO.rho()
    assert ev.recompose() == QRhoElem(3, 0)

    with pytest.raises(ValueError):
        factorize(Q.zero())


def test_factorize_roundtrip():
    rng = random.Random(601)
    for field in (Q, QRHO, F2T, F5T):
        for _ in range(500):
            a = rand_elem(rng, field)
            ev = factorize(a)
            assert ev.recompose() == a
            assert torsion_order(ev.torsion) is not None


def test_canonical_irreducibles_non_associate():
    rng = random.Random(602)
    seen = {}
    for field in (Q, QRHO, F2T, F5T):
        irreducibles = set()
        for _ in range(120):
            irreducibles.update(factorize(rand_elem(rng, field)).factors)
        irreducibles = list(irreducibles)
        for i in range(len(irreducibles)):
            for j in range(i + 1, len(irreducibles)):
                # a torsion ratio would make the two irreducibles associates
                ratio = irreducibles[i] / irreducibles[j]
                assert torsion_order(ratio) is None
        seen[field.kind] = len(irreducibles)
    assert all(n >= 3 for n in seen.values())


def test_qrho_primary_convention():
    # split primes: primary associates, conjugate-stable
    for q in (7, 13, 31):
        ev = factorize(QRhoElem(q, 0))
        assert ev.torsion == QRHO.one()
        assert len(ev.factors) == 2
        for pi, e in ev.factors.items():
            assert e == 1
            assert pi.a % 3 == 2 and pi.b % 3 == 0
            assert pi.norm() == q
        pis = list(ev.factors)
        assert pis[0].conj() in (pis[1], pis[1] * QRhoElem(1, 0))
    # inert primes stay rational and positive
    ev = factorize(QRhoElem(10, 0))
    assert ev.factors == {QRhoElem(2, 0): 1, QRhoElem(5, 0): 1}


def test_qrho_denominators():
    ev = factorize(QRhoElem(Fraction(1, 3), 0))
    assert ev.factors == {QRhoElem(2, -1): -2}
    assert ev.recompose() == QRhoElem(Fraction(1, 3), 0)
    assert ev.torsion == QRHO.rho() ** 5  # 3 = rho (2 - rho)^2
    ev = factorize(QRhoElem(Fraction(5, 14), Fraction(-2, 21)))
    assert ev.recompose() == QRhoElem(Fraction(5, 14), Fraction(-2, 21))
    # a split prime in the denominator is the product of its two primes
    ev = factorize(QRhoElem(Fraction(1, 7), 0))
    assert ev.torsion == QRHO.one()
    assert sorted(ev.factors.values()) == [-1, -1]
    assert math.prod(pi.norm() for pi in ev.factors) == 49


def test_split_prime_matches_brute_force():
    """Cornacchia's prime of norm q against a search of the box |a|, |b|
    <= sqrt(4q/3): the same pair of conjugate primary primes."""
    for q in range(7, 3000, 3):
        if not all(q % d for d in range(2, math.isqrt(q) + 1)):
            continue
        bound = math.isqrt(4 * q // 3) + 1
        found = {
            fieldarith._primary_associate(QRhoElem(a, b))
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if a * a + a * b + b * b == q
        }
        pi = fieldarith._split_prime(q)
        assert found == {pi, pi.conj()}, q


def test_frobenius():
    t = F2T.t()
    assert frobenius(t + F2T.one(), 1) == elem_from_text(F2T, "t^2+1")
    assert frobenius(t, 0) == t
    t3 = fpt(3).t()
    assert frobenius(t3, 2) == t3**9
    rng = random.Random(603)
    for _ in range(40):
        a = rand_elem(rng, F5T, zero_ok=True)
        b = rand_elem(rng, F5T, zero_ok=True)
        assert frobenius(a * b, 1) == frobenius(a, 1) * frobenius(b, 1)
        assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
        assert frobenius(a, 2) == frobenius(frobenius(a, 1), 1)
    with pytest.raises(ValueError):
        frobenius(QElem(2), 1)
    with pytest.raises(ValueError):
        frobenius(t, -1)


def test_torsion_order():
    assert torsion_order(QRHO.rho()) == 6
    assert torsion_order(QElem(-1)) == 2
    assert torsion_order(F2T.t()) is None
    assert torsion_order(QElem(5)) is None
    assert torsion_order(fpt(5).from_int(2)) == 4
    assert torsion_order(fpt(7).from_int(2)) == 3
    with pytest.raises(ValueError):
        torsion_order(Q.zero())


def test_torsion_order_matches_factorization_route():
    """torsion_order decides by discrete log alone; the factorisation
    route finds a torsion exactly when no irreducible divides it, with
    order w / gcd(w, j) for the unit's exponent j."""
    rng = random.Random(607)
    cases = torsion = 0
    for field in (Q, QRHO) + tuple(fpt(p) for p in (2, 3, 5, 7, 11, 13)):
        gen, w = torsion_generator(field)
        units = [gen**j for j in range(w)]
        elems = units + [u * rand_elem(rng, field) for u in units for _ in range(4)]
        elems += [rand_elem(rng, field) for _ in range(70)]
        for a in elems:
            ev = factorize(a)
            expect = None
            if not ev.factors:
                expect = w // math.gcd(w, torsion_unit_exponent(ev.torsion))
                torsion += 1
            assert torsion_order(a) == expect, a
            cases += 1
    assert cases >= 700 and torsion >= 80


def test_torsion_generator_and_exponent():
    for field in (Q, QRHO, F2T, F5T, fpt(7)):
        gen, order = torsion_generator(field)
        assert torsion_order(gen) == order
        for j in range(order):
            assert torsion_unit_exponent(gen**j) == j
    with pytest.raises(ValueError):
        torsion_unit_exponent(QElem(3))


def test_is_constant():
    assert is_constant(F5T.from_int(2)) is True
    assert is_constant(F5T.t()) is False
    t = F5T.t()
    one = F5T.one()
    assert is_constant((t + one) / (t + one)) is True
    with pytest.raises(ValueError):
        is_constant(QElem(2))


def test_text_roundtrip():
    rng = random.Random(604)
    for field in (Q, QRHO, F2T, F5T):
        for _ in range(300):
            a = rand_elem(rng, field, zero_ok=True)
            assert elem_from_text(field, elem_to_text(a)) == a
    assert elem_from_text(QRHO, "rho") == QRHO.rho()
    assert elem_from_text(QRHO, "-rho") == -QRHO.rho()
    assert elem_from_text(QRHO, "1/2-3*rho") == QRhoElem(Fraction(1, 2), -3)
    assert elem_from_text(QRHO, "-1/2+3/4*rho") == QRhoElem(Fraction(-1, 2), Fraction(3, 4))
    for bad in ("rho5", "rhorho", "2rho3", "rho/2", "--rho", "1+-rho", "1+rho*"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            elem_from_text(QRHO, bad)
    assert elem_from_text(F2T, "(t^2+1)/(t)") == (F2T.t() ** 2 + F2T.one()) / F2T.t()
    with pytest.raises(ValueError):
        elem_from_text(F2T, "u+1")


def test_sort_key_orders():
    keys = [QElem(2), QElem(3), QElem(5)]
    assert sorted(keys, key=irreducible_sort_key) == keys


def _planted_pair(rng, p):
    """x and y over F_p(t) with a factor planted in x's numerator and
    y's denominator and another in both denominators, so that the
    Henrici and Knuth gcds have something to cancel."""

    def poly(lo, hi):
        return tuple(rng.randrange(p) for _ in range(rng.randint(lo, hi)))

    def nonzero(lo, hi):
        while True:
            f = fppoly.norm(poly(lo, hi), p)
            if f:
                return f

    shared, common = nonzero(2, 4), nonzero(2, 4)
    x = FpTElem(p, fppoly.mul(poly(0, 4), shared, p), fppoly.mul(nonzero(1, 4), common, p))
    y = FpTElem(p, poly(0, 4), fppoly.mul(fppoly.mul(nonzero(1, 4), shared, p), common, p))
    return x, y


def test_fpt_arithmetic_matches_the_canonicalising_constructor():
    """Every operation equals FpTElem(p, naive_num, naive_den): the
    product or sum taken without cancelling, reduced by __init__'s full
    gcd.  Equality compares the stored tuples, so this also checks that
    each result is coprime with a monic denominator."""
    rng = random.Random(1956)
    mul, add, neg = fppoly.mul, fppoly.add, fppoly.neg
    cases = 0
    for _ in range(900):
        p = rng.choice((2, 3, 5, 7, 101))
        x, y = _planted_pair(rng, p)
        if rng.random() < 0.5:
            x, y = y, x
        (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
        assert x * y == FpTElem(p, mul(a, c, p), mul(b, d, p))
        assert x + y == FpTElem(p, add(mul(a, d, p), mul(c, b, p), p), mul(b, d, p))
        assert x - y == FpTElem(p, add(mul(a, d, p), neg(mul(c, b, p), p), p), mul(b, d, p))
        assert -x == FpTElem(p, neg(a, p), b)
        k = rng.randint(0, 3)
        assert x**k == FpTElem(p, _poly_pow(a, k, p), _poly_pow(b, k, p))
        cases += 5
        if y.num:
            assert x / y == FpTElem(p, mul(a, d, p), mul(b, c, p))
            assert y**-k == FpTElem(p, _poly_pow(d, k, p), _poly_pow(c, k, p))
            cases += 2
        if x.num:
            assert x.inverse() == FpTElem(p, b, a)
            cases += 1
        zero = x + (-x)
        assert (zero.num, zero.den) == ((), (1,))
        cases += 1
    assert cases >= 5000
    # a non-monic numerator becomes a monic denominator: (3t+1)/t -> t/(3t+1)
    x = FpTElem(5, (1, 3), (0, 1))
    assert (x.inverse().num, x.inverse().den) == ((0, 2), (2, 1))
    assert x.inverse() == FpTElem(5, (0, 1), (1, 3))
    for p, n in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (101, 1)):
        for _ in range(5):
            x, _ = _planted_pair(rng, p)
            assert frobenius(x, n) == x ** (p**n)


def _poly_pow(f, k, p):
    out = fppoly.ONE
    for _ in range(k):
        out = fppoly.mul(out, f, p)
    return out


def _walk_log(u, gen, order):
    cur = u.field.one()
    for j in range(order):
        if cur == u:
            return j
        cur = cur * gen
    raise AssertionError("not a torsion unit")


def test_discrete_log_matches_the_linear_walk():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        gen, order = torsion_generator(fpt(p))
        for u in range(1, p):
            unit = FpTElem(p, (u,))
            assert torsion_unit_exponent(unit) == _walk_log(unit, gen, order)
    with pytest.raises(ValueError):
        torsion_unit_exponent(F5T.t())
    p = 100003  # p - 1 = 2 * 3 * 7 * 2381
    gen, order = torsion_generator(fpt(p))
    g = gen.num[0]
    rng = random.Random(1978)
    for j in [0, 1, order - 1] + [rng.randrange(order) for _ in range(40)]:
        assert torsion_unit_exponent(FpTElem(p, (pow(g, j, p),))) == j


def test_degree_bounds():
    text = "t^%d+1" % MAX_DEGREE
    assert fppoly.deg(elem_from_text(F2T, text).num) == MAX_DEGREE
    for bad in ("t^%d" % (MAX_DEGREE + 1), "(1)/(t^%d+t)" % 10**12):
        with pytest.raises(ValueError, match="degree bound %d of FpT:2" % MAX_DEGREE):
            elem_from_text(F2T, bad)
    # p^n <= MAX_DEGREE = 2^16: n <= 16 over F_2, n <= 10 over F_3
    for field, top in ((F2T, 16), (fpt(3), 10), (fpt(65521), 1)):
        check_twist(field, top)
        with pytest.raises(ValueError, match="degree bound %d of %s" % (MAX_DEGREE, field.to_text())):
            check_twist(field, top + 1)
    check_twist(Q, 10**30)  # characteristic 0 has its own rejection


def _schoolbook_divmod(f, g, p):
    """Long division that subtracts every term of g at every step: the
    oracle for fppoly.divmod_poly."""
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    for i in range(len(f) - len(g), -1, -1):
        c = f[i + len(g) - 1] * inv_lead % p
        q[i] = c
        for j, b in enumerate(g):
            f[i + j] = (f[i + j] - c * b) % p
    return fppoly.norm(q, p), fppoly.norm(f, p)


def _rand_poly(rng, p, length, density):
    """A polynomial of exactly the given length (0 is the zero
    polynomial) whose lower coefficients are nonzero with the given
    probability."""
    if not length:
        return fppoly.ZERO
    low = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(length - 1)]
    return tuple(low) + (rng.randrange(1, p),)


def test_divmod_poly_matches_schoolbook_division():
    rng = random.Random(4514)
    shapes = {"sparse": 0, "dense": 0, "short": 0}
    for p in (2, 3, 5, 7, 2**61 - 1):
        for _ in range(60):
            density = rng.choice((0.03, 0.07, 0.5, 1.0))
            g = _rand_poly(rng, p, rng.randint(1, 150), density)
            f = _rand_poly(rng, p, rng.randint(0, 300), density)
            q, r = fppoly.divmod_poly(f, g, p)
            assert (q, r) == _schoolbook_divmod(f, g, p), (p, f, g)
            assert fppoly.add(fppoly.mul(q, g, p), r, p) == f
            assert len(r) < len(g)
            shapes["sparse" if density < 0.1 else "dense"] += 1
            shapes["short"] += len(f) < len(g)
    assert min(shapes.values()) >= 30
    with pytest.raises(ZeroDivisionError):
        fppoly.divmod_poly((1, 1), fppoly.ZERO, 5)
