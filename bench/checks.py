"""Independent checks of the program's answers.

Each check tests a property the right answer must have, computed with
the benchmark's own arithmetic (arith.py); none compares against a
stored copy of the program's output.  A check returns None when the
answer is right and a one-line reason when it is wrong.

Answers arrive as plain data (see run.py): a reconstruction outcome is
("rejected",) or ("accepted", w1, w2, f, ambiguity, verified), with the
four entries of f given as (num, den) polynomial pairs over F_p(t) and
as (a, b) pairs for a + b*rho over Q and Q(rho).
"""

from math import gcd

from arith import (
    pcross_ratio,
    pfrac_eq,
    pfrac_height,
    pfrac_is_constant,
    pmul,
    pspread,
    rcross_ratio,
    rmul,
)

# --- realizability of a pairing ---------------------------------------------


def _power_exponent(small, big, p):
    # the e >= 0 with small * p^e == big, else None
    e = 0
    while small < big:
        small *= p
        e += 1
    return e if small == big else None


def charp_realizable(e1, e2, phi, p):
    """Pointwise search over F_p(t): is there a Mobius map f and twists
    (w1, w2) with f(E1^(p^w1)) = E2^(p^w2) along phi?  Returns
    (realizable, w1 - w2).

    The base triple fixes f for each twist pair, so the pairing is
    realizable exactly when every further cusp's cross ratio against
    the base triple matches its partner's after twisting.  Twisting
    multiplies the height of a non-constant cross ratio by p^w, so the
    first extra cusp fixes the only candidate twist difference.
    """
    b1 = e1[:3]
    b2 = [e2[phi[i]] for i in range(3)]
    crs = [
        (pcross_ratio(*b1, e1[i], p), pcross_ratio(*b2, e2[phi[i]], p))
        for i in range(3, len(e1))
    ]
    if not crs:
        return True, 0
    cr1, cr2 = crs[0]
    if pfrac_is_constant(cr1, p) or pfrac_is_constant(cr2, p):
        return False, None
    h1, h2 = pfrac_height(cr1, p), pfrac_height(cr2, p)
    if h1 <= h2:
        d = _power_exponent(h1, h2, p)
    else:
        d = _power_exponent(h2, h1, p)
        d = None if d is None else -d
    if d is None:
        return False, None
    q = p ** abs(d)
    for cr1, cr2 in crs:
        if d >= 0:
            ok = pfrac_eq((pspread(cr1[0], q), pspread(cr1[1], q)), cr2, p)
        else:
            ok = pfrac_eq(cr1, (pspread(cr2[0], q), pspread(cr2[1], q)), p)
        if not ok:
            return False, None
    return True, d


def char0_realizable(e1, e2, phi):
    """Over Q and Q(rho) there is no twist: the pairing is realizable
    exactly when every cross ratio against the base triple matches."""
    b1 = e1[:3]
    b2 = [e2[phi[i]] for i in range(3)]
    return all(
        rcross_ratio(*b1, e1[i]) == rcross_ratio(*b2, e2[phi[i]])
        for i in range(3, len(e1))
    )


# --- reconstruction answers ---------------------------------------------------


def _char0_proportional(f, g):
    # f = c * g for a nonzero scalar c: f is nonzero and every 2x2 minor
    # f_i g_j - f_j g_i vanishes
    if all(x == (0, 0) for x in f):
        return False
    return all(
        rmul(f[i], g[j]) == rmul(f[j], g[i]) for i in range(4) for j in range(i + 1, 4)
    )


def _charp_proportional(f, g, p):
    # f entries are fractions num/den, g entries polynomials: compare
    # f_i g_j den_j with f_j g_i den_i to stay in F_p[t]
    if all(not num for num, _ in f):
        return False
    for i in range(4):
        for j in range(i + 1, 4):
            lhs = pmul(pmul(f[i][0], g[j], p), f[j][1], p)
            rhs = pmul(pmul(f[j][0], g[i], p), f[i][1], p)
            if lhs != rhs:
                return False
    return True


def check_scenario(expect, outcome):
    kind = expect["kind"]
    accepted = outcome[0] == "accepted"
    if kind == "honest":
        if not accepted:
            return "honest pairing rejected"
        _, w1, w2, f, ambiguity, verified = outcome
        if not verified:
            return "honest pairing fails verification"
        if ambiguity is not None:
            return "honest pairing flagged %r" % ambiguity
        if w1 - w2 != expect["n"]:
            return "twist difference %d, expected %d" % (w1 - w2, expect["n"])
        if "p" in expect:
            same = _charp_proportional(f, expect["g"], expect["p"])
        else:
            same = _char0_proportional(f, expect["g"])
        return None if same else "recovered map is not the secret map up to a scalar"
    if kind == "corrupted":
        verified = accepted and outcome[5]
        if verified != expect["realizable"]:
            return "verdict %s on a %s pairing" % (
                "accepted and verified" if verified else "rejected or unverified",
                "realizable" if expect["realizable"] else "unrealizable",
            )
        if verified and outcome[1] - outcome[2] != expect["d"]:
            return "twist difference %d, expected %d" % (
                outcome[1] - outcome[2],
                expect["d"],
            )
        return None
    if kind == "rho-pair":
        if not accepted:
            return "rho pair rejected"
        if outcome[4] != "rho-pair":
            return "rho pair not flagged"
        return "rho pair verifies" if outcome[5] else None
    raise ValueError("unknown expectation %r" % kind)


# --- metabelian answers -------------------------------------------------------


def _prime_divisors(m):
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out.append(m)
    return out


def _rank_mod(rows, q):
    rows = [[x % q for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] * inv % q
                rows[i] = [(x - c * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_annihilator(query, gens):
    """gens: the annihilator generators of x^n - 1 in (Z/M)[Z/L], each as
    its list of L coefficients.  The annihilator is the module of
    functions constant on the cosets of <n>, free on the d = gcd(n, L)
    coset indicators: every generator must be constant on cosets, and
    the generators must span all indicators, i.e. their coset values
    must have rank d modulo every prime dividing M."""
    size, n, m = query["L"], query["n"], query["M"]
    d = gcd(n, size)
    for vec in gens:
        if any((vec[i] - vec[(i + d) % size]) % m for i in range(size)):
            return "annihilator generator is not constant on the cosets of <%d>" % n
    coset_rows = [vec[:d] for vec in gens]
    for q in _prime_divisors(m):
        if _rank_mod(coset_rows, q) < d:
            return "annihilator generators miss a coset indicator mod %d" % q
    return None
