import random

import pytest

from punctline.exactalg import IntMatrix, solve_mod_m
from punctline.groupring import (
    AbelianShape,
    GroupRingElem,
    annihilator_basis,
    elem_text,
    gamma_splitting,
    grmul,
    limit_regularity_check,
    parse_elem,
    transition,
)

Z2 = AbelianShape((2,))
Z6 = AbelianShape((6,))


def x_minus_1(shape, M, n=1):
    return GroupRingElem.monomial(shape, M, n) - GroupRingElem.one(shape, M)


def in_span(basis, target):
    """Is target an integer combination of basis mod M?"""
    if not basis:
        return target.is_zero()
    M = target.M
    keys = list(target.shape.elements())
    cols = [[b.coeffs.get(k, 0) for b in basis] for k in keys]
    rhs = [target.coeffs.get(k, 0) for k in keys]
    return solve_mod_m(IntMatrix(cols), rhs, M) is not None


def rand_elem(rng, shape, M, support=3):
    coeffs = {}
    for _ in range(support):
        key = tuple(rng.randrange(n) for n in shape.moduli)
        coeffs[key] = rng.randrange(M)
    return GroupRingElem(shape, M, coeffs)


def test_grmul_frozen():
    a = x_minus_1(Z2, 4)
    b = GroupRingElem.one(Z2, 4) + GroupRingElem.monomial(Z2, 4, 1)
    assert grmul(a, b).is_zero()
    rng = random.Random(7)
    c = rand_elem(rng, Z6, 5)
    assert grmul(GroupRingElem.one(Z6, 5), c) == c
    x = GroupRingElem.monomial(Z6, 5, 1)
    xinv = GroupRingElem.monomial(Z6, 5, 5)
    assert grmul(x, xinv) == GroupRingElem.one(Z6, 5)


def test_grmul_mismatch():
    with pytest.raises(ValueError):
        grmul(GroupRingElem.one(Z2, 4), GroupRingElem.one(Z2, 8))
    with pytest.raises(ValueError):
        grmul(GroupRingElem.one(Z2, 4), GroupRingElem.one(Z6, 4))


def test_ring_axioms_random():
    rng = random.Random(8)
    for _ in range(60):
        shape = AbelianShape(tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 2))))
        M = rng.choice([2, 4, 5, 6, 9])
        a, b, c = (rand_elem(rng, shape, M) for _ in range(3))
        assert grmul(a, b) == grmul(b, a)
        assert grmul(grmul(a, b), c) == grmul(a, grmul(b, c))
        assert grmul(a, b + c) == grmul(a, b) + grmul(a, c)
        aug_a, aug_b = (sum(x.coeffs.values()) % M for x in (a, b))
        assert sum(grmul(a, b).coeffs.values()) % M == aug_a * aug_b % M
        assert sum((a + b).coeffs.values()) % M == (aug_a + aug_b) % M


def test_annihilator_frozen():
    basis = annihilator_basis(Z2, 4, x_minus_1(Z2, 4))
    one_plus_x = GroupRingElem.one(Z2, 4) + GroupRingElem.monomial(Z2, 4, 1)
    # annihilator of x-1 in (Z/4)[Z/2] is exactly the multiples of 1+x
    assert in_span(basis, one_plus_x)
    for b in basis:
        assert in_span([one_plus_x], b)

    assert annihilator_basis(Z2, 4, GroupRingElem.one(Z2, 4)) == []

    cube = x_minus_1(Z6, 6, n=3)
    one_plus_x3 = GroupRingElem.one(Z6, 6) + GroupRingElem.monomial(Z6, 6, 3)
    assert not one_plus_x3.is_zero()
    assert in_span(annihilator_basis(Z6, 6, cube), one_plus_x3)


def test_annihilator_spans_exactly():
    rng = random.Random(9)
    shapes = [(2,), (3,), (4,), (6,), (2, 2), (2, 3), (12,), (2, 2, 3), (8,)]
    for moduli in shapes:
        shape = AbelianShape(moduli)
        order = shape.order()
        for M in (2, 3, 4, 6, 8):
            a = x_minus_1(shape, M, n=1) if rng.random() < 0.5 else rand_elem(rng, shape, M)
            basis = annihilator_basis(shape, M, a)
            for b in basis:
                assert grmul(a, b).is_zero()
            if M**order <= 4096:
                import itertools

                for combo in itertools.product(range(M), repeat=order):
                    y = GroupRingElem(shape, M, dict(zip(shape.elements(), combo)))
                    assert grmul(a, y).is_zero() == in_span(basis, y)
            else:
                for _ in range(25):
                    y = rand_elem(rng, shape, M, support=order)
                    if grmul(a, y).is_zero():
                        assert in_span(basis, y)
                    else:
                        assert not in_span(basis, y)


def test_transition_frozen():
    shape8 = AbelianShape((8,))
    total = GroupRingElem(shape8, 6, {(i,): 1 for i in range(8)})
    img = transition(total, 4)
    assert img == GroupRingElem(AbelianShape((4,)), 6, {(j,): 2 for j in range(4)})
    assert transition(GroupRingElem.one(shape8, 6), 4) == GroupRingElem.one(AbelianShape((4,)), 6)
    assert transition(GroupRingElem.monomial(Z6, 5, 1), 3) == GroupRingElem.monomial(
        AbelianShape((3,)), 5, 1
    )
    with pytest.raises(ValueError):
        transition(total, 3)
    with pytest.raises(ValueError):
        transition(GroupRingElem.one(AbelianShape((2, 2)), 4), 2)


def test_transition_respects_mul():
    rng = random.Random(10)
    shape = AbelianShape((12,))
    for _ in range(40):
        a, b = rand_elem(rng, shape, 8), rand_elem(rng, shape, 8)
        for mp in (1, 2, 3, 4, 6, 12):
            assert transition(grmul(a, b), mp) == grmul(transition(a, mp), transition(b, mp))


def test_limit_regularity_frozen():
    assert limit_regularity_check(1, 8, 4, 2) is True
    assert limit_regularity_check(2, 9, 2, 2) is True
    with pytest.raises(ValueError):
        limit_regularity_check(3, 9, 2, 2)
    assert limit_regularity_check(2, 4, 4, 4) is True
    # with k = 0 mod M the target submodule is 0: images must vanish
    shape = AbelianShape((16,))
    a = x_minus_1(shape, 4, n=2)
    for gen in annihilator_basis(shape, 4, a):
        assert transition(gen, 4).is_zero()


def test_limit_regularity_needs_n_dividing_m_prime():
    with pytest.raises(ValueError):
        limit_regularity_check(6, 9, 3, 3)


def test_gamma_splitting():
    assert gamma_splitting(6, 3) == 3
    assert gamma_splitting(6, 2) == 4  # 0 mod 2, 1 mod 3
    assert gamma_splitting(12, 2) == 4  # 0 mod 4, 1 mod 3
    with pytest.raises(ValueError):
        gamma_splitting(8, 2)
    with pytest.raises(ValueError):
        gamma_splitting(6, 5)


def test_gamma_annihilator_nonzero():
    # bi-prime cyclic shapes admit a zero divisor of splitting type
    for n in range(2, 31):
        primes = {p for p in (2, 3, 5, 7, 11, 13) if n % p == 0}
        if len(primes) < 2:
            continue
        shape = AbelianShape((n,))
        for p in primes:
            g = gamma_splitting(n, p)
            a = x_minus_1(shape, 6, n=g)
            assert not a.is_zero()
            assert annihilator_basis(shape, 6, a)


def test_parse_elem_roundtrip():
    shape = AbelianShape((4, 3))
    e = parse_elem(shape, 6, "2*x^3*y - 1 + y^2")
    assert e == GroupRingElem(shape, 6, {(3, 1): 2, (0, 0): -1, (0, 2): 1})
    assert parse_elem(shape, 6, elem_text(e)) == e
    assert parse_elem(Z6, 6, "x^3-1") == x_minus_1(Z6, 6, n=3)
    with pytest.raises(ValueError):
        parse_elem(Z6, 6, "q+1")
    with pytest.raises(ValueError):
        parse_elem(Z6, 6, "y+1")
