"""Seeded query generator for the benchmark workloads.

The generator does not call punctline: cusp sets, Mobius maps and
Frobenius twists are built with the benchmark's own arithmetic
(arith.py), serialized to the scenario JSON that `punctline
reconstruct` reads, and kept together with the expected answer.

A workload is a sequence of rounds.  Every round of a workload has the
same make-up (fields, sizes, twists, query kinds, in the same order;
in metabelian-truncations the group sizes and boxes step through fixed
cycles); only the random content differs, so a run made of whole
rounds always measures the same mix.  Round i of a workload under a given seed is
generated from its own random stream, so the same (seed, i) gives the
same queries however many rounds a run uses.
"""

import json
import random
from fractions import Fraction

from arith import (
    ONE,
    RHO,
    ZERO,
    pcross_ratio,
    pfrac_is_constant,
    pgcd,
    pnorm,
    pt_mobius,
    pt_twist,
    ptext,
    rmul,
    rpt_affine,
    rpt_mobius,
    rsub,
    rtext,
)
from checks import char0_realizable, charp_realizable

WORKLOADS = (
    "charp-deep-twist",
    "charp-many-cusps",
    "char0-mixed",
    "metabelian-truncations",
)

# --- F_p(t) scenarios -----------------------------------------------------

_P_INF = ((1,), ())


def _random_fn_point(rng, p, height):
    # x = num/den in lowest terms, den monic, deg num = height > deg den
    while True:
        num = pnorm([rng.randrange(p) for _ in range(height)] + [rng.randrange(1, p)], p)
        den = pnorm([rng.randrange(p) for _ in range(rng.randrange(height))] + [1], p)
        if pgcd(num, den, p) == (1,):
            return num, den


def _star_property(pts, p):
    # no 4-subset with a constant cross ratio, checked with the
    # benchmark's own arithmetic
    n = len(pts)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(c + 1, n):
                    cr = pcross_ratio(pts[a], pts[b], pts[c], pts[d], p)
                    if pfrac_is_constant(cr, p):
                        return False
    return True


def _charp_cusps(rng, p, size, height):
    for _ in range(1000):
        # infinity in first place, so always in the base triple, then
        # cusps of one height: how many constant coordinates the base
        # triple holds changes the cost of a query several times over
        pts = [_P_INF]
        while len(pts) < size:
            pt = _random_fn_point(rng, p, height)
            if pt not in pts:
                pts.append(pt)
        if _star_property(pts, p):
            return pts
    raise RuntimeError("no cusp set with the star property found")


def _charp_mobius(rng, p):
    # x -> a*x + b with a in F_p^* and b of degree 1.  The cost of a
    # query changes several times over with the shape of its twisted
    # coordinates, so every secret map keeps that shape: with a constant
    # determinant, images stay in lowest terms and as sparse as the
    # Frobenius made them, and deg num > deg den and infinity stay put.
    return (rng.randrange(1, p),), (rng.randrange(p), rng.randrange(1, p)), (), (1,)


def _image(m, pt, p):
    # m(pt) = (a*x + b*y, y) for the affine m above: coprime
    # coordinates, the second monic, as pt has them
    x, y = pt_mobius(m, pt, p)
    return (x, y) if y else _P_INF


def _charp_point_json(pt):
    if not pt[1]:
        return "inf"
    return {"num": ptext(pt[0]), "den": ptext(pt[1])}


def _shuffled_pairing(rng, images):
    order = list(range(len(images)))
    rng.shuffle(order)
    e2 = [None] * len(images)
    for i, j in enumerate(order):
        e2[j] = images[i]
    return e2, order


def _transpose(rng, phi):
    i, j = rng.sample(range(len(phi)), 2)
    phi = list(phi)
    phi[i], phi[j] = phi[j], phi[i]
    return phi


def charp_query(rng, p, size, n, side, height, corrupt=False):
    """An F_p(t) query built from a secret (g, n), on cusps whose
    coordinates have the given height before twisting.

    side "E1": E2 = g(E1^(p^n)), twist difference n.
    side "E2": E2^(p^n) = g(E1), twist difference -n; built as
    E1 = h(E2^(p^n)) with g the adjugate of h.
    With corrupt, two entries of phi are swapped and the expected
    answer is the benchmark's own realizability search.
    """
    base = _charp_cusps(rng, p, size, height)
    h = _charp_mobius(rng, p)
    q = p**n
    twisted = [_image(h, pt_twist(pt, q), p) for pt in base]
    if side == "E1":
        e1, images, g, signed = base, twisted, h, n
    else:
        e1, images, signed = twisted, base, -n
        g = (h[3], pnorm([-c for c in h[1]], p), pnorm([-c for c in h[2]], p), h[0])
    e2, phi = _shuffled_pairing(rng, images)
    if corrupt:
        phi = _transpose(rng, phi)
        realizable, d = charp_realizable(e1, e2, phi, p)
        expect = {"kind": "corrupted", "realizable": realizable, "d": d}
    else:
        expect = {"kind": "honest", "n": signed, "g": g}
    data = {
        "field": {"kind": "FpT", "p": p},
        "E1": [_charp_point_json(pt) for pt in e1],
        "E2": [_charp_point_json(pt) for pt in e2],
        "phi": phi,
    }
    expect["p"] = p
    return {"kind": "scenario", "text": json.dumps(data), "expect": expect}


# --- Q and Q(rho) scenarios -------------------------------------------------

_R_INF = (ONE, ZERO)


def _rho_value(rng, rho_field):
    if rho_field:
        return (
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        )
    return (Fraction(rng.randint(-12, 12), rng.randint(1, 6)), Fraction(0))


def _char0_mobius(rng, rho_field):
    def entry():
        if rho_field:
            return (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2)))
        return (Fraction(rng.randint(-3, 3)), Fraction(0))

    while True:
        m = tuple(entry() for _ in range(4))
        if rsub(rmul(m[0], m[3]), rmul(m[1], m[2])) != ZERO:
            return m


def _char0_canonical(pt):
    x = rpt_affine(pt)
    return _R_INF if x is None else (x, ONE)


def _char0_point_json(pt, rho_field):
    x = rpt_affine(pt)
    if x is None:
        return "inf"
    if rho_field:
        return {"num": rtext(x), "den": "1"}
    return {"num": str(x[0].numerator), "den": str(x[0].denominator)}


def _char0_data(rho_field, e1, e2, phi):
    return {
        "field": {"kind": "QRho" if rho_field else "Q"},
        "E1": [_char0_point_json(pt, rho_field) for pt in e1],
        "E2": [_char0_point_json(pt, rho_field) for pt in e2],
        "phi": phi,
    }


def _char0_cusps(rng, size, rho_field):
    pts = []
    if rng.random() < 0.4:
        pts.append(_R_INF)
    while len(pts) < size:
        pt = (_rho_value(rng, rho_field), ONE)
        if pt not in pts:
            pts.append(pt)
    rng.shuffle(pts)
    return pts


def char0_query(rng, size, rho_field, corrupt=False):
    """Honest E2 = g(E1) over Q or Q(rho); with corrupt, two entries of
    phi are swapped and the expectation is the realizability search."""
    e1 = _char0_cusps(rng, size, rho_field)
    g = _char0_mobius(rng, rho_field)
    images = [_char0_canonical(rpt_mobius(g, pt)) for pt in e1]
    e2, phi = _shuffled_pairing(rng, images)
    if corrupt:
        phi = _transpose(rng, phi)
        expect = {"kind": "corrupted", "realizable": char0_realizable(e1, e2, phi), "d": 0}
    else:
        expect = {"kind": "honest", "n": 0, "g": g}
    return {
        "kind": "scenario",
        "text": json.dumps(_char0_data(rho_field, e1, e2, phi)),
        "expect": expect,
    }


def rho_pair_query(rng, size):
    """Cross ratios agree against the base triple at every cusp except
    one, where E1 has rho and E2 has 1/rho = 1 - rho: the exceptional
    pair, which must be flagged and must not verify."""
    rho_inv = rsub(ONE, RHO)
    extra = []
    while len(extra) < size - 3:
        x = _rho_value(rng, True)
        if x not in extra and x not in (ZERO, ONE, RHO, rho_inv):
            extra.append(x)
    k = rng.randrange(len(extra))
    base = [(ZERO, ONE), _R_INF, (ONE, ONE)]
    z1 = base + [(RHO if i == k else x, ONE) for i, x in enumerate(extra)]
    z2 = base + [(rho_inv if i == k else x, ONE) for i, x in enumerate(extra)]
    h1 = _char0_mobius(rng, True)
    h2 = _char0_mobius(rng, True)
    e1 = [_char0_canonical(rpt_mobius(h1, pt)) for pt in z1]
    images = [_char0_canonical(rpt_mobius(h2, pt)) for pt in z2]
    e2, phi = _shuffled_pairing(rng, images)
    return {
        "kind": "scenario",
        "text": json.dumps(_char0_data(True, e1, e2, phi)),
        "expect": {"kind": "rho-pair"},
    }


# --- metabelian queries -----------------------------------------------------


def _reduced(runs):
    stack = []
    for g, e in runs:
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if not stack[-1][1]:
                stack.pop()
        else:
            stack.append([g, e])
    return tuple((g, e) for g, e in stack)


def _random_word(rng, rank):
    return _reduced(
        (rng.randint(1, rank), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(4, 12))
    )


def magnus_query(rng, rank):
    w1 = _random_word(rng, rank)
    w2 = _random_word(rng, rank)
    if w1 and rng.random() < 0.5:
        # let the product cancel across the seam
        w2 = _reduced(tuple((g, -e) for g, e in reversed(w1[-2:])) + w2)
    return {"kind": "magnus", "rank": rank, "w1": w1, "w2": w2}


def annihilator_query(rng, size):
    return {
        "kind": "annihilator",
        "L": size,
        "n": rng.randint(1, size - 1),
        "M": rng.randint(2, 12),
    }


def regularity_query(rng):
    # the criterion-3 box: n <= 4, M <= 8, n | m' <= 8, k <= 6
    n = rng.randint(1, 4)
    return {
        "kind": "regularity",
        "n": n,
        "M": rng.randint(2, 8),
        "m_prime": n * rng.randint(1, 8 // n),
        "k": rng.randint(1, 6),
    }


# boxes (r, n, N, n') with n | n' and N a multiple of n', in three bands
# of matrix size; the cost of a box grows steeply with N^r
_CENTRALIZER_BANDS = (
    ((2, 1, 2, 1), (2, 1, 2, 2), (2, 2, 2, 2), (2, 1, 3, 1), (3, 1, 2, 1),
     (3, 1, 2, 2), (3, 2, 2, 2)),
    ((2, 1, 4, 1), (2, 1, 4, 2), (2, 2, 4, 2), (2, 1, 4, 4), (2, 2, 4, 4),
     (2, 4, 4, 4)),
    ((2, 1, 6, 2), (2, 2, 6, 2), (2, 1, 6, 3), (2, 3, 6, 3)),
)


def centralizer_query(rng, box):
    r, n, big_n, n_prime = box
    return {
        "kind": "centralizer",
        "r": r,
        "n": n,
        "N": big_n,
        "n_prime": n_prime,
        "M": rng.choice((2, 3, 4, 6, 8)),
    }


# --- rounds -----------------------------------------------------------------


# (p, n, side, size) of the queries of a charp-deep-twist round.  The
# cell (5, 2, E1, 5) comes twice: it sits in the middle of the cost
# order, so the median falls inside a block of like queries.
_DEEP_TWIST_CELLS = (
    (3, 2, "E1", 4), (3, 2, "E2", 5), (3, 3, "E1", 6), (3, 3, "E2", 4),
    (5, 2, "E1", 5), (5, 2, "E1", 5), (5, 2, "E2", 6), (5, 3, "E1", 4),
    (5, 3, "E2", 5),
)


def _round_charp_deep_twist(rng, index):
    return [charp_query(rng, p, size, n, side, 2) for p, n, side, size in _DEEP_TWIST_CELLS]


_MANY_CUSP_KINDS = (("E1", 0, False), ("E1", 1, False), ("E2", 1, False), ("E1", 1, True))


def _round_charp_many_cusps(rng, index):
    # a Latin square over (p, kind, size): every round holds each p with
    # each kind once, each p with each size once, each kind with each
    # size once; one query in four is corrupted.  Cusps have height 2,
    # except over F_2, which has too few such points for eleven cusps
    # with the star property
    out = []
    for pi, p in enumerate((2, 3, 5, 7)):
        for ki, (side, n, corrupt) in enumerate(_MANY_CUSP_KINDS):
            size = 8 + (pi + ki) % 4
            out.append(charp_query(rng, p, size, n, side, 3 if p == 2 else 2, corrupt))
    return out


def _round_char0_mixed(rng, index):
    out = []
    for rho_field in (False, True):
        for size in (4, 8, 12):
            out.append(char0_query(rng, size, rho_field))
        for size in (6, 10):
            out.append(char0_query(rng, size, rho_field, corrupt=True))
    out.append(rho_pair_query(rng, 5))
    out.append(rho_pair_query(rng, 9))
    return out


def _round_metabelian(rng, index):
    # the group sizes and boxes, which set the cost, step through fixed
    # cycles with the round index, so every run of whole rounds holds
    # nearly the same mix; words, exponents and moduli come from the
    # seed.  The six cheap Magnus products hold the median and the three
    # dear boxes the 90th percentile, each inside a block of like queries
    # rather than on the edge between two.
    out = [magnus_query(rng, rank) for rank in (2, 3, 4, 2, 3, 4)]
    out.append(annihilator_query(rng, 6 + index % 7))
    out.append(annihilator_query(rng, 13 + index % 12))
    out.append(regularity_query(rng))
    out.append(regularity_query(rng))
    for band, count in zip(_CENTRALIZER_BANDS, (2, 2, 3)):
        out.extend(
            centralizer_query(rng, band[(count * index + j) % len(band)]) for j in range(count)
        )
    return out


_ROUNDS = {
    "charp-deep-twist": _round_charp_deep_twist,
    "charp-many-cusps": _round_charp_many_cusps,
    "char0-mixed": _round_char0_mixed,
    "metabelian-truncations": _round_metabelian,
}


def make_round(workload, seed, index):
    """The queries of round `index` of `workload` under `seed`."""
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    return _ROUNDS[workload](rng, index)


def main(argv=None):
    """Write the queries of the first rounds of a workload as JSON lines."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    for index in range(args.rounds):
        for q in make_round(args.workload, args.seed, index):
            # Fractions in the expected answers are written as "a/b"
            sys.stdout.write(json.dumps(dict(q, round=index), default=str) + "\n")


if __name__ == "__main__":
    main()
