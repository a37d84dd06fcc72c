import random

import pytest

from punctline.exactalg import IntMatrix, smith_normal_form
from punctline.freegroup import (
    CurvePresentation,
    Word,
    abelianization_rank,
    abelianize,
    inertia_abelian_independence,
    inertia_images,
    parse_word,
    presentation_abelianization,
    reduce,
    word_text,
)


def rand_raw(rng, rank, length):
    return [(rng.randint(1, rank), rng.randint(-3, 3)) for _ in range(length)]


def test_reduce_frozen():
    assert reduce([(1, 1), (1, -1)]) == Word(())
    assert reduce([(1, 1), (2, 1), (2, -1), (1, 1)]) == Word(((1, 2),))
    comm = ((1, 1), (2, 1), (1, -1), (2, -1))
    assert reduce(comm) == Word(comm)


def test_reduce_cascade():
    # x y z z^-1 y^-1 x collapses through two merges
    raw = [(1, 1), (2, 1), (3, 1), (3, -1), (2, -1), (1, 1)]
    assert reduce(raw) == Word(((1, 2),))


def test_word_validation():
    with pytest.raises(ValueError):
        Word(((1, 0),))
    with pytest.raises(ValueError):
        Word(((1, 1), (1, 2)))
    with pytest.raises(ValueError):
        Word(((0, 1),))


def test_reduce_idempotent_and_homomorphism():
    rng = random.Random(101)
    for _ in range(300):
        rank = rng.randint(1, 4)
        u = rand_raw(rng, rank, rng.randint(0, 8))
        v = rand_raw(rng, rank, rng.randint(0, 8))
        ru, rv = reduce(u), reduce(v)
        assert reduce(ru.letters) == ru
        assert reduce(list(u) + list(v)) == ru * rv


def test_inverse_and_identity():
    rng = random.Random(102)
    for _ in range(200):
        w = reduce(rand_raw(rng, 3, rng.randint(0, 8)))
        assert w * w.inverse() == Word.identity()
        assert w.inverse().inverse() == w


def test_abelianize_frozen():
    comm = Word(((1, 1), (2, 1), (1, -1), (2, -1)))
    assert abelianize(comm, 2) == (0, 0)
    assert abelianize(reduce([(1, 2), (2, 1)]), 2) == (2, 1)
    assert abelianize(reduce([(1, 1), (2, 1), (1, -1)]), 2) == (0, 1)


def test_abelianize_range_error():
    with pytest.raises(ValueError):
        abelianize(Word(((3, 1),)), 2)


def test_abelianize_reduce_invariant():
    rng = random.Random(103)
    for _ in range(300):
        rank = rng.randint(1, 4)
        raw = rand_raw(rng, rank, rng.randint(0, 10))
        direct = [0] * rank
        for g, e in raw:
            direct[g - 1] += e
        assert abelianize(reduce(raw), rank) == tuple(direct)


def test_parse_word():
    assert parse_word("xyXY") == Word(((1, 1), (2, 1), (1, -1), (2, -1)))
    assert parse_word("xX") == Word.identity()
    assert parse_word("xxz a") == Word(((1, 2), (3, 1), (4, 1)))
    with pytest.raises(ValueError):
        parse_word("x2")


def test_word_text_roundtrip():
    rng = random.Random(104)
    for _ in range(200):
        w = reduce(rand_raw(rng, 5, rng.randint(0, 8)))
        assert parse_word(word_text(w)) == w


def test_presentation_abelianization_frozen():
    assert presentation_abelianization(CurvePresentation(0, 3)) == (0, 0)
    assert presentation_abelianization(CurvePresentation(1, 0)) == (0, 0)
    assert presentation_abelianization(CurvePresentation(2, 0)) == (0,) * 4
    assert presentation_abelianization(CurvePresentation(0, 0)) == ()
    assert presentation_abelianization(CurvePresentation(0, 1)) == ()


def test_presentation_abelianization_matches_smith_form():
    """The closed form against the Smith normal form of the abelianized
    relation: 0 on the 2g generators alpha_i, beta_i, 1 on the r sigma_j."""
    for g in range(12):
        for r in range(15):
            n = 2 * g + r
            expect = ()
            if n:
                row = [0] * (2 * g) + [1] * r
                d = smith_normal_form(IntMatrix([row])).invariant_factors()
                rank = n - sum(1 for x in d if x)
                expect = tuple(x for x in d if x not in (0, 1)) + (0,) * rank
            assert presentation_abelianization(CurvePresentation(g, r)) == expect


def test_rank_grid():
    for g in range(0, 6):
        for r in range(0, 9):
            p = CurvePresentation(g, r)
            factors = presentation_abelianization(p)
            assert all(d == 0 for d in factors)  # always free
            expect = 2 * g + r - 1 if r >= 1 else 2 * g
            assert abelianization_rank(p) == expect


def test_hyperbolic_predicate():
    assert CurvePresentation(0, 3).is_hyperbolic()
    assert not CurvePresentation(0, 2).is_hyperbolic()
    assert not CurvePresentation(1, 0).is_hyperbolic()
    assert CurvePresentation(2, 0).is_hyperbolic()


def test_inertia_images():
    assert inertia_images(CurvePresentation(0, 3)) == ((1, 0), (0, 1), (-1, -1))
    sigma = inertia_images(CurvePresentation(1, 2))
    assert sigma == ((0, 0, 1), (0, 0, -1))


def test_independence_frozen():
    assert inertia_abelian_independence(CurvePresentation(0, 3)) is True
    assert inertia_abelian_independence(CurvePresentation(0, 2)) is False
    assert inertia_abelian_independence(CurvePresentation(1, 2)) is False
    with pytest.raises(ValueError):
        inertia_abelian_independence(CurvePresentation(0, 1))


def test_independence_pattern():
    # holds exactly when r >= 3, regardless of genus
    for g in range(0, 4):
        for r in range(2, 9):
            got = inertia_abelian_independence(CurvePresentation(g, r))
            assert got is (r >= 3)
