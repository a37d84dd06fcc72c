import itertools
import random
from math import gcd

import pytest

from punctline.exactalg import (
    IntMatrix,
    det,
    factor_integer,
    is_prime,
    kernel_mod_m,
    smith_normal_form,
    solve_mod_m,
)


def snf_contract(a):
    """U*A*V == D, divisibility chain, unimodular transforms."""
    res = smith_normal_form(a)
    am = a if isinstance(a, IntMatrix) else IntMatrix(a)
    assert res.u.mul(am).mul(res.v) == res.d
    diag = res.invariant_factors()
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0 or diag[i] != 0:
            assert diag[i] >= 0
        if diag[i] != 0 and diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
        if diag[i] == 0:
            assert diag[i + 1] == 0
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert res.d[i, j] == 0
    assert det(res.u) in (1, -1)
    assert det(res.v) in (1, -1)
    return res


def test_snf_identity():
    res = snf_contract(IntMatrix([[1, 0], [0, 1]]))
    assert res.d == IntMatrix([[1, 0], [0, 1]])


def test_snf_diag_2_3():
    # gcd(2,3)=1 and det=6 force diag(1,6)
    res = snf_contract([[2, 0], [0, 3]])
    assert res.invariant_factors() == (1, 6)


def test_snf_zero_matrix():
    res = snf_contract(IntMatrix([[0, 0], [0, 0]]))
    assert res.d == IntMatrix([[0, 0], [0, 0]])


def test_snf_rectangular_and_random():
    rng = random.Random(1101)
    for _ in range(200):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        a = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        snf_contract(a)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])


def test_factor_small():
    assert factor_integer(12) == (1, {2: 2, 3: 1})
    assert factor_integer(-1) == (-1, {})
    sign, f = factor_integer(10584)
    assert sign == 1 and f == {2: 3, 3: 3, 7: 2}
    recomposed = sign
    for p, e in f.items():
        recomposed *= p**e
    assert recomposed == 10584


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_roundtrip_range():
    for n in itertools.chain(range(-300, 0), range(1, 2000)):
        sign, f = factor_integer(n)
        val = sign
        for p, e in f.items():
            assert is_prime(p)
            val *= p**e
        assert val == n


def test_factor_roundtrip_random_large():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 10**6)
        sign, f = factor_integer(n)
        val = sign
        for p, e in f.items():
            assert is_prime(p)
            val *= p**e
        assert val == n


def brute_kernel(rows, m_mod):
    n = len(rows[0])
    out = set()
    for v in itertools.product(range(m_mod), repeat=n):
        if all(sum(a * x for a, x in zip(row, v)) % m_mod == 0 for row in rows):
            out.add(v)
    return out


def span_mod(gens, n, m_mod):
    if not gens:
        return {(0,) * n}
    out = set()
    for coeffs in itertools.product(range(m_mod), repeat=len(gens)):
        v = [0] * n
        for c, g in zip(coeffs, gens):
            for i in range(n):
                v[i] = (v[i] + c * g[i]) % m_mod
        out.add(tuple(v))
    return out


def test_kernel_mod_m_frozen():
    # [2] over Z/4: solutions of 2v = 0 are {0, 2}
    gens = kernel_mod_m([[2]], 4)
    assert span_mod(gens, 1, 4) == {(0,), (2,)}
    assert kernel_mod_m(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 5) == []
    gens = kernel_mod_m([[0]], 6)
    assert span_mod(gens, 1, 6) == {(v,) for v in range(6)}


def test_kernel_mod_m_matches_enumeration():
    rng = random.Random(23)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        mod = rng.randint(2, 12)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        gens = kernel_mod_m(rows, mod)
        assert span_mod(gens, n, mod) == brute_kernel(rows, mod)


def test_solve_mod_m():
    rng = random.Random(31)
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        mod = rng.randint(2, 11)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [rng.randrange(mod) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x)) % mod for row in rows]
        sol = solve_mod_m(rows, b, mod)
        assert sol is not None
        assert all(
            sum(a * v for a, v in zip(row, sol)) % mod == bb for row, bb in zip(rows, b)
        )
    assert solve_mod_m([[2]], [1], 4) is None


def test_solvers_match_enumeration_and_snf_count():
    """Kernel span and solvability against enumeration of (Z/M)^n, with
    every solution checked; the kernel's generator count against the
    invariant factors of smith_normal_form that are not units mod M."""
    rng = random.Random(4093)
    shapes = ((1, 1), (3, 1), (3, 2), (2, 2), (1, 3), (2, 3), (3, 3))
    for mod in (4, 8, 9, 12, 25, 30):
        divisors = [d for d in range(1, mod + 1) if mod % d == 0]
        cases = [[[0] * n for _ in range(m)] for m, n in ((2, 2), (1, 3), (3, 1))]
        for m, n in shapes:
            # entries times a divisor of M, so pivots of every valuation
            # occur, also in blocks without a unit
            for scales in (divisors, divisors[1:]):
                cases.append(
                    [[rng.randint(-mod, mod) * rng.choice(scales) for _ in range(n)] for _ in range(m)]
                )
        for rows in cases:
            n = len(rows[0])
            kernel, image = set(), set()
            for x in itertools.product(range(mod), repeat=n):
                ax = tuple(sum(a * v for a, v in zip(row, x)) % mod for row in rows)
                image.add(ax)
                if not any(ax):
                    kernel.add(x)
            gens = kernel_mod_m(rows, mod)
            assert all(any(g) for g in gens)
            assert span_mod(gens, n, mod) == kernel
            diag = smith_normal_form(rows).invariant_factors()
            diag += (0,) * (n - len(diag))
            assert len(gens) == sum(1 for d in diag if gcd(d, mod) != 1)
            targets = [tuple(rng.randrange(mod) for _ in rows) for _ in range(4)]
            targets.append(rng.choice(sorted(image)))
            for b in targets:
                sol = solve_mod_m(rows, b, mod)
                assert (sol is not None) == (b in image)
                if sol is not None:
                    assert all(
                        sum(a * v for a, v in zip(row, sol)) % mod == bb for row, bb in zip(rows, b)
                    )


def test_det_bareiss():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[0, 1], [1, 0]]) == -1
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # expansion by minors as the oracle
        def minor_det(mat):
            if len(mat) == 1:
                return mat[0][0]
            total = 0
            for j, val in enumerate(mat[0]):
                if val:
                    sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
                    total += (-1) ** j * val * minor_det(sub)
            return total

        assert det(a) == minor_det(a)
