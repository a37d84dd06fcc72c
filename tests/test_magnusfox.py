import random

import pytest

from punctline.freegroup import Word, abelianize, parse_word, reduce
from punctline.groupring import AbelianShape, GroupRingElem, grmul
from punctline.magnusfox import (
    LaurentElem,
    MetabelianElem,
    bl_kernel_check,
    centralizer_kernel_shrinks,
    derivative_vector,
    embed,
    fox_derivative,
    fundamental_identity_check,
    magnus_mul,
    metabelian_centralizer_kernel,
    relation_module_basis,
    vector_in_scaled_span,
)

COMM = parse_word("xyXY")


def rand_word(rng, rank, length):
    return reduce([(rng.randint(1, rank), rng.randint(-3, 3)) for _ in range(length)])


def test_fox_frozen():
    x = parse_word("x")
    assert fox_derivative(x, 1) == LaurentElem.one(1)
    xx = parse_word("xx")
    assert fox_derivative(xx, 1) == LaurentElem.one(1) + LaurentElem.gen(1, 1)
    xinv = parse_word("X")
    assert fox_derivative(xinv, 1) == -LaurentElem.gen(1, 1, power=-1)
    one2 = LaurentElem.one(2)
    assert fox_derivative(COMM, 1) == one2 - LaurentElem.gen(2, 2)
    assert fox_derivative(COMM, 2) == LaurentElem.gen(2, 1) - one2


def test_fox_range_errors():
    with pytest.raises(ValueError):
        fox_derivative(parse_word("x"), 3, rank=2)
    with pytest.raises(ValueError):
        fox_derivative(parse_word("xyz"), 1, rank=2)


def test_fundamental_identity_frozen():
    assert fundamental_identity_check(parse_word("xy"), 2)
    assert fundamental_identity_check(COMM, 2)
    assert fundamental_identity_check(Word.identity(), 2)


def test_corpus_identity_and_membership():
    rng = random.Random(501)
    for _ in range(1000):
        rank = rng.randint(1, 3)
        w = rand_word(rng, rank, rng.randint(0, 20))
        assert fundamental_identity_check(w, rank)
        derivs = derivative_vector(w, rank)
        trivial_ab = abelianize(w, rank) == (0,) * rank
        assert (all(d.augmentation() == 0 for d in derivs)) == trivial_ab
        assert bl_kernel_check(derivs) == trivial_ab


def test_bl_kernel_frozen():
    assert bl_kernel_check(derivative_vector(COMM, 2)) is True
    assert bl_kernel_check((LaurentElem.one(2), LaurentElem.zero(2))) is False
    rng = random.Random(502)
    for _ in range(25):
        # beta*(y-1), -beta*(x-1), 0, ... cancels identically
        r = rng.randint(2, 4)
        beta = LaurentElem(
            r,
            {
                tuple(rng.randint(-2, 2) for _ in range(r)): rng.randint(-4, 4)
                for _ in range(3)
            },
        )
        vec = [LaurentElem.zero(r)] * r
        vec[0] = beta * (LaurentElem.gen(r, 2) - LaurentElem.one(r))
        vec[1] = -(beta * (LaurentElem.gen(r, 1) - LaurentElem.one(r)))
        assert bl_kernel_check(vec) is True
    with pytest.raises(ValueError):
        bl_kernel_check((LaurentElem.one(2), LaurentElem.one(3)))


def test_magnus_frozen():
    x, xinv, y = parse_word("x"), parse_word("X"), parse_word("y")
    assert magnus_mul(embed(x, 2), embed(xinv, 2)) == MetabelianElem.identity(2)
    assert magnus_mul(embed(x, 2), embed(y, 2)) == embed(parse_word("xy"), 2)
    c = embed(COMM, 2)
    assert magnus_mul(c, c) == embed(COMM * COMM, 2)


def test_magnus_random():
    rng = random.Random(503)
    for _ in range(150):
        rank = rng.randint(1, 3)
        u, v, w = (rand_word(rng, rank, rng.randint(0, 8)) for _ in range(3))
        eu, ev, ew = embed(u, rank), embed(v, rank), embed(w, rank)
        assert magnus_mul(eu, ev) == embed(u * v, rank)
        assert magnus_mul(magnus_mul(eu, ev), ew) == magnus_mul(eu, magnus_mul(ev, ew))
        assert magnus_mul(eu, eu.inverse()) == MetabelianElem.identity(rank)


def test_metabelian_invariant_enforced():
    with pytest.raises(ValueError):
        MetabelianElem((1, 0), (LaurentElem.zero(2), LaurentElem.zero(2)))


def test_injectivity_shadow():
    # products of conjugated basic commutators on distinct generator pairs
    # stay outside the second derived subgroup: derivative vector nonzero
    rng = random.Random(504)
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(100):
        rank = 3
        rng.shuffle(pairs)
        used = pairs[: rng.randint(1, 3)]
        w = Word.identity()
        exps = []
        for i, j in used:
            e = rng.choice([-2, -1, 1, 2])
            exps.append(e)
            base = reduce([(i, 1), (j, 1), (i, -1), (j, -1)])
            comm = base
            for _ in range(abs(e) - 1):
                comm = comm * base
            if e < 0:
                comm = comm.inverse()
            u = rand_word(rng, rank, rng.randint(0, 4))
            w = w * (u * comm * u.inverse())
        assert abelianize(w, rank) == (0, 0, 0)
        assert any(not d.is_zero() for d in derivative_vector(w, rank))


def test_relation_module_membership():
    basis = relation_module_basis(2, 2, 2)
    shape = AbelianShape((2, 2))
    target = tuple(GroupRingElem(shape, 2, dict(d.coeffs)) for d in derivative_vector(COMM, 2))
    assert any(not c.is_zero() for c in target)
    assert vector_in_scaled_span(basis, 1, target, 2)
    # every basis vector genuinely lies in ker(f)
    for vec in basis:
        total = GroupRingElem.zero(shape, 2)
        for i, c in enumerate(vec):
            step = GroupRingElem.monomial(shape, 2, tuple(1 if j == i else 0 for j in range(2)))
            total = total + grmul(c, step - GroupRingElem.one(shape, 2))
        assert total.is_zero()


def test_centralizer_kernel():
    with pytest.raises(ValueError):
        metabelian_centralizer_kernel(1, 1, 2, 2)
    with pytest.raises(ValueError):
        metabelian_centralizer_kernel(2, 0, 2, 2)
    kern = metabelian_centralizer_kernel(2, 1, 2, 4)
    for vec in kern:
        shape = vec[0].shape
        mult = GroupRingElem.monomial(shape, 4, (1, 0)) - GroupRingElem.one(shape, 4)
        f_total = GroupRingElem.zero(shape, 4)
        for i, c in enumerate(vec):
            assert grmul(mult, c).is_zero()
            step = GroupRingElem.monomial(shape, 4, tuple(1 if j == i else 0 for j in range(2)))
            f_total = f_total + grmul(c, step - GroupRingElem.one(shape, 4))
        assert f_total.is_zero()


# the benchmark's centralizer boxes (r, n, N, n'), n | n' | N, where the
# kernel lands in k*R' for every modulus
THEOREM_BOXES = (
    (2, 1, 2, 1), (2, 1, 2, 2), (2, 2, 2, 2), (2, 1, 3, 1), (3, 1, 2, 1),
    (3, 1, 2, 2), (3, 2, 2, 2), (2, 1, 4, 1), (2, 1, 4, 2), (2, 2, 4, 2),
    (2, 1, 4, 4), (2, 2, 4, 4), (2, 4, 4, 4), (2, 1, 6, 2), (2, 2, 6, 2),
    (2, 1, 6, 3), (2, 3, 6, 3),
)


def test_centralizer_kernel_shrinks():
    assert centralizer_kernel_shrinks(2, 1, 4, 2, 4) is True
    moduli = (2, 3, 4, 6, 8)
    for box in THEOREM_BOXES:
        assert [centralizer_kernel_shrinks(*box, M) for M in moduli] == [True] * 5, box
    # boxes with n not dividing n', where the inclusion fails for some moduli
    frozen = {
        (2, 4, 4, 2): [False, True, False, False, False],
        (2, 3, 6, 2): [True, False, True, False, True],
        (2, 2, 6, 3): [False, True, False, False, False],
    }
    for box, verdicts in frozen.items():
        assert [centralizer_kernel_shrinks(*box, M) for M in moduli] == verdicts, box
