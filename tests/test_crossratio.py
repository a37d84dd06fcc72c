import itertools
import math
import random
from fractions import Fraction

import pytest

from punctline import crossratio, fieldarith, multlattice
from punctline.crossratio import (
    CASE_A,
    CASE_B,
    EQUAL,
    HYPOTHESIS_FAILS,
    RHO_PAIR,
    CuspSet,
    MobiusMap,
    ProjPoint,
    cross_ratio,
    decide_lambda_char0,
    decide_lambda_charp,
    exponent_case_decide,
    mobius_from_triples,
    power_product_solve,
    star_check,
    twist_point,
)
from punctline.fieldarith import (
    Q,
    QRHO,
    QElem,
    QRhoElem,
    factorize,
    fpt,
    frobenius,
    is_constant,
    torsion_generator,
    torsion_unit_exponent,
)
from punctline.multlattice import solve_p_power

F2T = fpt(2)
F3T = fpt(3)
F5T = fpt(5)
F7T = fpt(7)


def q(x):
    return QElem(Fraction(x))


def pt(field, value):
    return ProjPoint.affine(field.from_int(value) if isinstance(value, int) else value)


def inf(field):
    return ProjPoint.infinity(field)


# The Möbius group law and the field-product oracles.  Nothing under src/
# needs them: cross_ratio and mobius_from_triples work on ring
# coordinates, and these state the same things with field elements.

def identity(field):
    return MobiusMap(field.one(), field.zero(), field.zero(), field.one())


def compose(f, g):
    """f after g."""
    return MobiusMap(
        f.m00 * g.m00 + f.m01 * g.m10,
        f.m00 * g.m01 + f.m01 * g.m11,
        f.m10 * g.m00 + f.m11 * g.m10,
        f.m10 * g.m01 + f.m11 * g.m11,
    )


def inverse(f):
    return MobiusMap(f.m11, -f.m01, -f.m10, f.m00)


def field_bracket(x, y):
    """[x, y] = a_x b_y - a_y b_x in the field; zero exactly when x = y."""
    return x.a * y.b - y.a * x.b


def field_collineation(p1, p2, p3):
    """S_p, the map of the triple onto (0, infinity, 1): its rows kill
    p1 and p2, scaled so that p3 lands on 1."""
    k1 = field_bracket(p3, p2)
    k2 = field_bracket(p3, p1)
    return MobiusMap(k1 * p1.b, -(k1 * p1.a), k2 * p2.b, -(k2 * p2.a))


def field_cross_ratio(x1, x2, x3, x4):
    """The cross ratio from field brackets."""
    b = field_bracket
    return (b(x4, x1) * b(x3, x2)) / (b(x4, x2) * b(x3, x1))


def field_forced_map(src, dst):
    """S_q^-1 S_p, the map with src[i] -> dst[i], from field collineations."""
    return compose(inverse(field_collineation(*dst)), field_collineation(*src))


def test_projpoint_canonical():
    assert ProjPoint(q(6), q(2)) == ProjPoint.affine(q(3))
    assert ProjPoint(q(5), q(0)) == ProjPoint.infinity(Q)
    assert ProjPoint.infinity(Q).is_infinity()
    assert not ProjPoint.affine(q(0)).is_infinity()
    with pytest.raises(ValueError):
        ProjPoint(q(0), q(0))
    with pytest.raises(ValueError):
        ProjPoint(q(1), QRHO.one())


def test_cross_ratio_frozen():
    zero, one_pt, infty = pt(Q, 0), pt(Q, 1), inf(Q)
    lam = pt(Q, 5)
    assert cross_ratio(zero, infty, one_pt, lam) == q(5)
    mu = pt(Q, 7)
    got = cross_ratio(one_pt, infty, pt(Q, 3), mu)
    assert got == (q(7) - q(1)) / (q(3) - q(1))
    with pytest.raises(ValueError):
        cross_ratio(zero, zero, one_pt, lam)


def test_cross_ratio_swap_complement():
    rng = random.Random(3)
    for _ in range(50):
        vals = rng.sample(range(-20, 20), 4)
        x1, x2, x3, x4 = (pt(Q, v) for v in vals)
        lam = cross_ratio(x1, x2, x3, x4)
        assert cross_ratio(x3, x2, x1, x4) == Q.one() - lam


def test_cross_ratio_avoids_degenerate_values():
    rng = random.Random(5)
    pool = [inf(Q)] + [pt(Q, v) for v in range(-6, 7)]
    for _ in range(100):
        x1, x2, x3, x4 = rng.sample(pool, 4)
        lam = cross_ratio(x1, x2, x3, x4)
        assert not lam.is_zero()
        assert lam != Q.one()


def test_mobius_from_triples_frozen():
    zero, one_pt, infty = pt(Q, 0), pt(Q, 1), inf(Q)
    ident = mobius_from_triples(zero, infty, one_pt, zero, infty, one_pt)
    assert ident == identity(Q)
    f = mobius_from_triples(one_pt, zero, infty, zero, infty, one_pt)
    # x -> (x - 1)/x
    assert f == MobiusMap(q(1), q(-1), q(1), q(0))
    assert f.apply(one_pt) == zero
    assert f.apply(zero) == infty
    assert f.apply(infty) == one_pt
    with pytest.raises(ValueError):
        mobius_from_triples(zero, zero, one_pt, zero, infty, one_pt)


def test_mobius_apply_frozen():
    recip = MobiusMap(q(0), q(1), q(1), q(0))
    assert recip.apply(inf(Q)) == pt(Q, 0)
    assert recip.apply(pt(Q, 0)) == inf(Q)
    assert identity(Q).apply(pt(Q, 9)) == pt(Q, 9)


def _point_pool(field):
    pool = [ProjPoint.infinity(field)]
    if field.kind == "FpT":
        t = field.t()
        one = field.one()
        cands = [t, t + one, t * t, one / t, t * t + t, (t + one) / t]
        cands += [field.from_int(j) for j in range(field.p)]
    elif field.kind == "QRho":
        rho = field.rho()
        cands = [field.from_int(j) for j in range(-2, 4)]
        cands += [rho, rho + field.one(), rho * field.from_int(2), field.one() - rho]
    else:
        cands = [QElem(Fraction(n, d)) for n in range(-4, 5) for d in (1, 2, 3)]
    seen = set()
    for c in cands:
        if c not in seen:
            pool.append(ProjPoint.affine(c))
            seen.add(c)
    return pool


def test_mobius_group_law_and_invariance():
    rng = random.Random(9)
    for field in (Q, QRHO, F2T, F5T):
        pool = _point_pool(field)
        ident = identity(field)
        for _ in range(200):
            p1, p2, p3, p4 = rng.sample(pool, 4)
            q1, q2, q3 = rng.sample(pool, 3)
            f = mobius_from_triples(p1, p2, p3, q1, q2, q3)
            assert f.apply(p1) == q1
            assert f.apply(p2) == q2
            assert f.apply(p3) == q3
            assert compose(f, inverse(f)) == ident
            assert compose(inverse(f), f) == ident
            lam = cross_ratio(p1, p2, p3, p4)
            twisted = cross_ratio(*(f.apply(x) for x in (p1, p2, p3, p4)))
            assert twisted == lam


def test_mobius_from_triples_and_bracket_match_products():
    """Oracles: the forced map is S_q^-1 S_p built from MobiusMaps, and
    a ring bracket is the field product a_x b_y - a_y b_x times the
    scales of both points' ring coordinates (den, or 1 at infinity)."""
    rng = random.Random(12)
    for field in (Q, QRHO, F2T, F3T, F5T, F7T):
        pool = _point_pool(field)
        infty = pool[0]
        ring = crossratio._ring(field)
        one, zero = ring.infinity
        for x, y in itertools.product(pool, repeat=2):
            cx, cy = (crossratio._coordinates(ring, z) for z in (x, y))
            sx, sy = (one if c[1] == zero else c[1] for c in (cx, cy))
            scale = ring.mul(sx, sy)
            got = ring.quotient(crossratio._bracket(ring, cx, cy), scale)
            assert got == field_bracket(x, y)
        for trial in range(120):
            src = rng.sample(pool, 3)
            dst = rng.sample(pool, 3)
            # put infinity in the source, the target, both or neither
            if trial % 4 in (1, 3) and infty not in src:
                src[rng.randrange(3)] = infty
            if trial % 4 in (2, 3) and infty not in dst:
                dst[rng.randrange(3)] = infty
            assert mobius_from_triples(*src, *dst) == field_forced_map(src, dst)


def _ring_pool(field):
    """Points whose ring coordinates are not the canonical [a : 1]: over
    Q(rho), coordinates with different denominators (1/2 + rho/3 has
    D = 6, which neither denominator is alone), negatives, rho, 1/rho
    and infinity; over Q, negative and non-integral points."""
    if field == QRHO:
        rho = QRHO.rho()
        vals = [QRhoElem(Fraction(a), Fraction(b)) for a, b in (
            ("1/2", "1/3"), ("-3/4", "5/6"), ("-2/5", "-7/3"), ("1/6", "-1/4"),
            ("-2", "0"), ("-5/7", "0"), ("0", "-1/2"), ("0", "0"), ("1", "0"),
        )] + [rho, rho.inverse(), -rho]
    else:
        vals = [q(Fraction(n, d)) for n, d in (
            (-7, 3), (-1, 2), (5, 4), (-9, 1), (11, 6), (0, 1), (3, 10), (-2, 15),
        )]
    return [inf(field)] + [ProjPoint.affine(v) for v in vals]


def test_char0_ring_coordinates_match_field_oracles():
    """Over Q and Q(rho): cross_ratio equals the field-bracket formula on
    every 4-subset of the pools, and the forced map equals S_q^-1 S_p
    and sends each source point to its target."""
    assert fieldarith.ring_parts(QRhoElem(Fraction(1, 2), Fraction(1, 3))) == ((3, 2), (6, 0))
    assert fieldarith.ring_parts(q(Fraction(-7, 3))) == (-7, 3)
    rng = random.Random(1616)
    for field in (Q, QRHO):
        pool = _ring_pool(field)
        for quad in itertools.combinations(pool, 4):
            assert cross_ratio(*quad) == field_cross_ratio(*quad), quad
        for _ in range(300):
            src, dst = rng.sample(pool, 3), rng.sample(pool, 3)
            f = mobius_from_triples(*src, *dst)
            assert f == field_forced_map(src, dst)
            assert [f.apply(x) for x in src] == dst


def test_frobenius_equivariance():
    rng = random.Random(21)
    for field in (F2T, F5T):
        pool = _point_pool(field)
        for _ in range(40):
            quad = rng.sample(pool, 4)
            e = CuspSet(field, tuple(quad))
            n = rng.randint(0, 2)
            lam = cross_ratio(*e.points)
            assert cross_ratio(*(twist_point(x, n) for x in e.points)) == frobenius(lam, n)


def test_decide_lambda_char0_frozen():
    assert decide_lambda_char0(q(Fraction(5, 3)), q(Fraction(5, 3))) == EQUAL
    rho = QRHO.rho()
    assert decide_lambda_char0(rho, rho.inverse()) == RHO_PAIR
    assert decide_lambda_char0(rho.inverse(), rho) == RHO_PAIR
    assert decide_lambda_char0(q(2), q(3)) == HYPOTHESIS_FAILS
    assert decide_lambda_char0(q(2), q(Fraction(1, 2))) == HYPOTHESIS_FAILS
    with pytest.raises(ValueError):
        decide_lambda_char0(q(0), q(2))
    with pytest.raises(ValueError):
        decide_lambda_char0(q(2), q(1))
    with pytest.raises(ValueError):
        decide_lambda_char0(F2T.t(), F2T.t())


def test_decide_lambda_char0_random_pairs_reach_every_verdict():
    rng = random.Random(33)
    rho = QRHO.rho()
    pool_q = [q(Fraction(n, d)) for n in range(-9, 10) for d in (1, 2, 3, 5)]
    pool_q = [v for v in pool_q if not v.is_zero() and v != Q.one()]
    pool_r = [rho**j for j in range(6)] + [
        QRHO.from_int(2),
        rho + rho,
        QRHO.one() - rho,
        rho * QRHO.from_int(3),
    ]
    pool_r = [v for v in pool_r if not v.is_zero() and v != QRHO.one()]
    seen = set()
    for _ in range(1000):
        if rng.random() < 0.5:
            pool = pool_q
        else:
            pool = pool_r
        lam1 = rng.choice(pool)
        mode = rng.random()
        if mode < 0.35:
            lam2 = lam1
        elif mode < 0.45 and lam1.field.kind == "QRho":
            lam1, lam2 = rho, rho.inverse()
        else:
            lam2 = rng.choice(pool)
        verdict = decide_lambda_char0(lam1, lam2)
        seen.add(verdict)
        if lam1 == lam2:
            assert verdict == EQUAL
    assert seen == {EQUAL, RHO_PAIR, HYPOTHESIS_FAILS}


def _order_by_factorization(a):
    # a is torsion exactly when no irreducible divides it
    ev = factorize(a)
    if ev.factors:
        return None
    _, w = torsion_generator(a.field)
    return w // math.gcd(w, torsion_unit_exponent(ev.torsion))


def _anharmonic_pool(field, values):
    """values and their images x^-1, 1-x, 1/(1-x), (x-1)/x, x/(x-1),
    leaving out 0 and 1."""
    one = field.one()
    pool = {}
    for x in values:
        if x.is_zero() or x == one:
            continue
        for y in (x, x.inverse(), one - x, (one - x).inverse(), (x - one) / x,
                  x / (x - one)):
            pool[y] = None
    return list(pool)


def test_decide_lambda_char0_matches_cyclic_subgroup_route():
    """Near-rigidity against the cyclic-subgroup route it replaced:
    <lam1> = <lam2> and <1-lam1> = <1-lam2>, each decided as a = b^(+-1)
    or equal finite orders, with torsion read off factorize.  Where both
    hold the pair must be equal or {rho, 1/rho}."""
    rho = QRHO.rho()
    pool_q = _anharmonic_pool(Q, [
        q(Fraction(n, d)) for n in range(-10, 11) for d in (1, 2, 3, 4, 5, 7)
    ])
    pool_r = _anharmonic_pool(QRHO, [rho**j for j in range(1, 6)] + [
        (QRHO.from_int(a) + QRHO.from_int(b) * rho) / QRHO.from_int(d)
        for a in range(-2, 3) for b in range(-2, 3) for d in (1, 2)
    ])
    assert {rho, rho**2, rho**3, rho**4, rho**5} <= set(pool_r)
    holds = 0
    cases = 0
    for pool in (pool_q, pool_r):
        one = pool[0].field.one()
        order = {x: _order_by_factorization(x) for x in pool}
        order.update((one - x, _order_by_factorization(one - x)) for x in pool)
        inverse = {x: x.inverse() for x in order}

        def same_cyclic(a, b):
            return a == b or a == inverse[b] or (
                order[a] is not None and order[a] == order[b]
            )

        for lam1 in pool:
            for lam2 in pool:
                cases += 1
                verdict = decide_lambda_char0(lam1, lam2)
                if not (same_cyclic(lam1, lam2)
                        and same_cyclic(one - lam1, one - lam2)):
                    assert verdict == HYPOTHESIS_FAILS, (lam1, lam2)
                    continue
                holds += 1
                if lam1 == lam2:
                    assert verdict == EQUAL, (lam1, lam2)
                else:
                    assert {lam1, lam2} == {rho, rho.inverse()}, (lam1, lam2)
                    assert verdict == RHO_PAIR
    assert cases >= 40000
    assert holds == len(pool_q) + len(pool_r) + 2
    assert decide_lambda_char0(rho**2, rho**4) == HYPOTHESIS_FAILS


def test_decide_lambda_charp_frozen():
    t = F2T.t()
    assert decide_lambda_charp(t, t * t) == 1
    assert decide_lambda_charp(t, t) == 0
    assert decide_lambda_charp(t, t + F2T.one()) is None
    assert decide_lambda_charp(t * t, t) == -1
    assert decide_lambda_charp(t, t.inverse()) is None
    with pytest.raises(ValueError):
        decide_lambda_charp(F2T.one(), t)
    # lam2 = 0 and lam2 = 1 fail the same domain check
    for lam2 in (F2T.zero(), F2T.one()):
        with pytest.raises(ValueError, match="lambda must avoid 0 and 1"):
            decide_lambda_charp(t, lam2)
    with pytest.raises(ValueError):
        decide_lambda_charp(q(2), q(2))


def test_decide_lambda_charp_twist_sweep():
    rng = random.Random(41)
    for field in (F2T, F5T):
        t = field.t()
        one = field.one()
        lams = [t, t + one, one / t, (t + one) / t]
        if field.p == 2:
            lams.append(t * t + t)
        for _ in range(20):
            lam = rng.choice(lams)
            n = rng.randint(0, 4)
            lam2 = frobenius(lam, n)
            assert decide_lambda_charp(lam, lam2) == n
            assert decide_lambda_charp(lam2, lam) == -n


def test_decide_lambda_charp_heights_decide_before_frobenius(monkeypatch):
    # heights 1 and 2 are no power of p apart for p > 2, so the answer
    # is None with no Frobenius; at p = 2^61 - 1 a Frobenius of t would
    # need p + 1 coefficients
    calls = []

    def counting(a, n):
        calls.append(n)
        return frobenius(a, n)

    monkeypatch.setattr(crossratio, "frobenius", counting)
    for field in (F3T, fpt(2**61 - 1)):
        t = field.t()
        assert decide_lambda_charp(t, t * t) is None
        assert decide_lambda_charp(t * t, t) is None
    t = F2T.t()
    assert decide_lambda_charp(t * t, t**3) is None  # 2 * 2 overshoots 3
    assert calls == []
    assert decide_lambda_charp(t, t * t) == 1
    assert calls == [1]


def _kummer_route(lam1, lam2):
    """The paper's decision, the oracle for decide_lambda_charp: the
    cyclic subgroups of lam and of 1 - lam must agree up to a p-power,
    and then the Frobenius equation must hold on the nose."""
    p = lam1.field.p
    one = lam1.field.one()
    u = solve_p_power(lam1, lam2, p)
    if u is None or solve_p_power(one - lam1, one - lam2, p) is None:
        return None
    # both hypotheses hold: the equation follows, so a miss is a defect
    if u >= 0:
        assert lam2 == frobenius(lam1, u)
    else:
        assert frobenius(lam2, -u) == lam1
    return u


def _height(x):
    return max(len(x.num), len(x.den)) - 1


def _rand_nonconstant(rng, field, degree):
    t = field.t()
    while True:
        num = sum(
            (field.from_int(rng.randrange(field.p)) * t**i for i in range(degree + 1)),
            field.zero(),
        )
        den = sum(
            (field.from_int(rng.randrange(field.p)) * t**i for i in range(degree + 1)),
            field.zero(),
        )
        if den.is_zero() or num.is_zero():
            continue
        lam = num / den
        if lam != field.one() and not is_constant(lam):
            return lam


def test_decide_lambda_charp_matches_kummer_route():
    rng = random.Random(1011)
    seen = set()
    for field in (F2T, F3T, F5T, F7T):
        p, one = field.p, field.one()
        consts = [field.from_int(c) for c in range(1, p)]
        for i in range(48):
            lam = _rand_nonconstant(rng, field, rng.randint(1, 2))
            n = rng.randint(0, 3 if p == 2 else 2)
            twisted = frobenius(lam, n)
            other = _rand_nonconstant(rng, field, _height(lam))
            cases = [
                twisted,
                twisted.inverse(),
                one - frobenius(one - lam, n),
                rng.choice(consts) * twisted,
                frobenius(other, n),
                other,  # often of equal height: the comparison decides
            ]
            if p > 2:
                cases.append(field.from_int(rng.randrange(2, p)))
            for lam2 in cases:
                if lam2.is_zero() or lam2 == one:
                    continue
                pairs = [(lam, lam2)]
                if not is_constant(lam2):
                    pairs.append((lam2, lam))  # swapped: n <= 0
                for a, b in pairs:
                    got = decide_lambda_charp(a, b)
                    assert got == _kummer_route(a, b), (a, b)
                    seen.add(None if got is None else (got > 0) - (got < 0))
    assert seen == {None, -1, 0, 1}


def test_decide_lambda_charp_never_factorizes(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return factorize(a)

    monkeypatch.setattr(fieldarith, "factorize", counting)
    monkeypatch.setattr(multlattice, "factorize", counting)
    t, one = F5T.t(), F5T.one()
    lam = (t * t + one) / (t + F5T.from_int(2))
    assert decide_lambda_charp(lam, frobenius(lam, 2)) == 2
    assert decide_lambda_charp(frobenius(lam, 1), lam) == -1
    assert decide_lambda_charp(lam, one - frobenius(one - lam, 1)) == 1
    assert decide_lambda_charp(lam, lam.inverse()) is None
    assert decide_lambda_charp(lam, F5T.from_int(3)) is None
    assert calls == []


def test_power_product_solve_frozen():
    assert power_product_solve(2, 1, 3, 6) == {(1, 3), (3, 1)}
    assert power_product_solve(2, 1, -1, 6) == {(1, -1), (-1, 1)}
    assert power_product_solve(3, 2, 2, 6) == {(2, 2)}
    with pytest.raises(ValueError):
        power_product_solve(4, 1, 1, 6)
    with pytest.raises(ValueError):
        power_product_solve(2, 0, 1, 6)
    with pytest.raises(ValueError):
        power_product_solve(2, 1, 1, 0)


def test_power_product_solve_small_box():
    # quick version of the exhaustive acceptance sweep
    for p in (2, 5):
        for x1 in range(-3, 4):
            for y1 in range(-3, 4):
                if x1 == 0 or y1 == 0:
                    continue
                want = {(x1, y1), (y1, x1)}
                assert power_product_solve(p, x1, y1, 3) == want


def _power_product_walk(p, x1, y1, bound):
    """power_product_solve by trying all (2 bound + 1)^2 pairs."""
    target = (Fraction(p) ** x1 - 1) * (Fraction(p) ** y1 - 1)
    box = [e for e in range(-bound, bound + 1) if e]
    return {
        (x2, y2)
        for x2 in box
        for y2 in box
        if (Fraction(p) ** x2 - 1) * (Fraction(p) ** y2 - 1) == target
    }


def test_power_product_solve_matches_the_walk():
    exps = [e for e in range(-6, 7) if e]
    for p in (2, 3, 5, 7):
        for x1, y1 in itertools.product(exps, repeat=2):
            for bound in (1, 2, 5, 8):
                want = _power_product_walk(p, x1, y1, bound)
                assert power_product_solve(p, x1, y1, bound) == want, (p, x1, y1, bound)


def test_exponent_case_decide_frozen():
    t2 = F2T.t()
    assert exponent_case_decide(t2, t2, 1, 1, 1, 1, 1, 1) == CASE_A
    assert exponent_case_decide(t2, t2, 2, 2, 0, 0, 1, 1) == CASE_A
    # same-element, mixed negative exponents, still case A
    assert exponent_case_decide(t2, t2, -1, -1, -2, -2, 0, 0) == CASE_A
    assert exponent_case_decide(t2, t2 * t2, 2, 1, 2, 1, 2, 1) == HYPOTHESIS_FAILS
    assert exponent_case_decide(t2, t2 + F2T.one(), 1, 0, 1, 0, 1, 0) == HYPOTHESIS_FAILS
    with pytest.raises(ValueError):
        exponent_case_decide(t2, t2, 1, 0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        exponent_case_decide(F2T.one(), t2, 1, 1, 1, 1, 1, 1)


def test_exponent_case_decide_case_b():
    # a constant target with all first exponents 0 pins the rowwise case
    t = F5T.t()
    two = F5T.from_int(2)
    for d in (1, 2):
        assert exponent_case_decide(t, two, 0, d, 0, d, 0, d) == CASE_B
    t3 = F3T.t()
    m1 = F3T.from_int(2)
    assert exponent_case_decide(t3, m1, 0, 1, 0, 1, 0, 1) == CASE_B


def test_star_check_examples():
    t = F2T.t()
    e = CuspSet(F2T, (pt(F2T, 0), inf(F2T), pt(F2T, 1), ProjPoint.affine(t)))
    assert star_check(e)
    e_const = CuspSet(F5T, (pt(F5T, 0), inf(F5T), pt(F5T, 1), pt(F5T, 2)))
    assert not star_check(e_const)
    assert star_check(CuspSet(F5T, (pt(F5T, 0), inf(F5T), pt(F5T, 1))))
    t5 = F5T.t()
    e_mixed = CuspSet(
        F5T,
        (pt(F5T, 0), inf(F5T), pt(F5T, 1), pt(F5T, 2), ProjPoint.affine(t5)),
    )
    assert not star_check(e_mixed)
    with pytest.raises(ValueError):
        star_check(CuspSet(Q, (pt(Q, 0), pt(Q, 1), inf(Q))))


def _subline_pool(field):
    # infinity, the constants and their translates by t lie on two
    # F_p-sublines, so 4-sets with a constant cross-ratio are common
    t, one = field.t(), field.one()
    consts = [field.from_int(c) for c in range(field.p)]
    vals = consts + [t + c for c in consts]
    vals += [one / t, one / (t + one), t * t, t * t + t, t * t * t + one]
    return [inf(field)] + sorted((ProjPoint.affine(v) for v in set(vals)), key=repr)


def test_star_check_nonconstancy_matches_direct_computation():
    # the C(n, 4) cross-ratios are the oracle for the subline test
    rng = random.Random(9)
    failing = with_infinity = 0
    for p in (2, 3, 5, 7):
        field = fpt(p)
        pool = _subline_pool(field)
        for _ in range(90):
            pts = tuple(rng.sample(pool, rng.randint(3, 10)))
            want = not any(
                is_constant(cross_ratio(*quad))
                for quad in itertools.combinations(pts, 4)
            )
            assert star_check(CuspSet(field, pts)) == want
            # a constant cross-ratio would lie in F_2 minus {0, 1}
            assert want or p != 2
            failing += not want
            with_infinity += inf(field) in pts
    assert failing >= 100
    assert with_infinity >= 100


# the least n with p^n >= 100, so twisted points have degree >= 100
_DEEP_TWIST = {2: 7, 3: 5, 5: 3, 7: 3}


def _deep_lines(rng, field):
    """Three F_p-sublines through infinity (the constants, t + c and
    t^q + c with q = p^n >= 100), and the n-th twists of random points
    of height 1 or 2, which have degree >= 100."""
    p, t = field.p, field.t()
    n = _DEEP_TWIST[p]
    consts = [field.from_int(c) for c in range(p)]
    lines = [
        [inf(field)] + [ProjPoint.affine(v + c) for c in consts]
        for v in (field.zero(), t, t ** (p**n))
    ]
    twisted = set()
    while len(twisted) < 6:
        lam = _rand_nonconstant(rng, field, rng.randint(1, 2))
        twisted.add(twist_point(ProjPoint.affine(lam), n))
    return lines, sorted(twisted, key=repr)


def _deep_pool(rng, field):
    lines, twisted = _deep_lines(rng, field)
    return list(dict.fromkeys(sum(lines, []) + twisted))


def test_twist_point_equals_the_normalising_constructor():
    rng = random.Random(1341)
    for field in (F2T, F3T, F5T, F7T):
        pool = _deep_pool(rng, field) + _point_pool(field)
        for x in pool:
            for n in range(4):
                got = twist_point(x, n)
                want = ProjPoint(frobenius(x.a, n), frobenius(x.b, n))
                assert (got.a, got.b) == (want.a, want.b)
                assert got == want and hash(got) == hash(want)


def test_charp_cross_ratio_and_forced_map_match_field_formulas():
    """Over F_2..F_7(t), on pools with infinity, constants and twisted
    points of degree >= 100: cross_ratio equals the field-bracket
    formula, and mobius_from_triples equals S_q^-1 S_p built from
    MobiusMaps of the field collineations."""
    rng = random.Random(2718)
    deep = 0
    for field in (F2T, F3T, F5T, F7T):
        pool = _deep_pool(rng, field)
        infty = pool[0]
        for trial in range(15):
            quad = rng.sample(pool, 4)
            assert cross_ratio(*quad) == field_cross_ratio(*quad)
            src, dst = rng.sample(pool, 3), rng.sample(pool, 3)
            if trial % 3 == 0 and infty not in dst:
                dst[rng.randrange(3)] = infty
            assert mobius_from_triples(*src, *dst) == field_forced_map(src, dst)
            deep += any(_height(x.a) >= 100 for x in quad + src + dst)
    assert deep >= 45


def test_star_check_on_deep_twists_matches_direct_computation():
    # the C(n, 4) field-bracket cross ratios are the oracle; points are
    # drawn partly from one F_p-subline, so some 4-sets lie on it
    rng = random.Random(3141)
    failing = passing = 0
    for field in (F2T, F3T, F5T, F7T):
        lines, twisted = _deep_lines(rng, field)
        pool = list(dict.fromkeys(sum(lines, []) + twisted))
        for _ in range(12):
            line = rng.choice(lines)
            pts = rng.sample(line, rng.randint(2, min(4, len(line))))
            pts += [x for x in rng.sample(pool, 4) if x not in pts][:rng.randint(1, 3)]
            if len(pts) < 4:
                pts.append(next(x for x in twisted if x not in pts))
            rng.shuffle(pts)
            want = not any(
                is_constant(field_cross_ratio(*quad))
                for quad in itertools.combinations(pts, 4)
            )
            assert star_check(CuspSet(field, tuple(pts))) == want
            failing += not want
            passing += want
    assert failing >= 10 and passing >= 10
