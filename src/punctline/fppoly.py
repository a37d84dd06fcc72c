"""Dense polynomial arithmetic and factorization over F_p.

Polynomials are tuples of coefficients in ascending degree with no
trailing zeros; the zero polynomial is the empty tuple.  Every function
takes the prime p explicitly.  Factorization runs squarefree
decomposition, distinct-degree splitting, then Cantor-Zassenhaus
equal-degree splitting with a PRNG seeded from the input, so repeated
runs factor identically.
"""

import random

ZERO = ()
ONE = (1,)


def norm(coeffs, p):
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def deg(f):
    return len(f) - 1


def add(f, g, p):
    n = max(len(f), len(g))
    return norm([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)], p)


def neg(f, p):
    return tuple((-c) % p for c in f)


def sub(f, g, p):
    return add(f, neg(g, p), p)


def scale(f, c, p):
    return norm([x * c for x in f], p)


def mul(f, g, p):
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return norm(out, p)


def divmod_poly(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    for i in range(len(f) - len(g), -1, -1):
        c = (f[i + len(g) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
    return norm(q, p), norm(f, p)


def mod(f, g, p):
    return divmod_poly(f, g, p)[1]


def monic(f, p):
    if not f:
        return ZERO
    return scale(f, pow(f[-1], -1, p), p)


def gcd(f, g, p):
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def pow_mod(f, e, modulus, p):
    result = mod(ONE, modulus, p)
    base = mod(f, modulus, p)
    while e > 0:
        if e & 1:
            result = mod(mul(result, base, p), modulus, p)
        base = mod(mul(base, base, p), modulus, p)
        e >>= 1
    return result


def derivative(f, p):
    return norm([i * c for i, c in enumerate(f)][1:], p)


def pth_root(f, p):
    """Inverse of g -> g^p on polynomials with only p-multiple exponents
    (c^p = c in F_p, so the root just gathers every p-th coefficient)."""
    if any(c and i % p for i, c in enumerate(f)):
        raise ValueError("polynomial is not a p-th power")
    return tuple(f[i] for i in range(0, len(f), p))


def spread(f, q):
    """f(t) -> f(t^q) by spacing coefficients; with q = p^n this is the
    q-power Frobenius on monic normal forms."""
    if not f:
        return ZERO
    out = [0] * ((len(f) - 1) * q + 1)
    for i, c in enumerate(f):
        out[i * q] = c
    return tuple(out)


def _squarefree(f, p):
    # f monic nonconstant; returns {multiplicity: squarefree monic factor}
    out = {}
    df = derivative(f, p)
    if not df:
        inner = _squarefree(pth_root(f, p), p)
        return {m * p: g for m, g in inner.items()}
    c = gcd(f, df, p)
    w = divmod_poly(f, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = gcd(w, c, p)
        fac = divmod_poly(w, y, p)[0]
        if deg(fac) > 0:
            out[i] = mul(out.get(i, ONE), fac, p)
        w = y
        c = divmod_poly(c, y, p)[0]
        i += 1
    if deg(c) > 0:
        for m, g in _squarefree(pth_root(c, p), p).items():
            out[m * p] = mul(out.get(m * p, ONE), g, p)
    return out


def _distinct_degree(f, p):
    # f monic squarefree; returns [(d, product of degree-d irreducibles)]
    out = []
    h = (0, 1)  # t
    d = 0
    while deg(f) >= 2 * (d + 1):
        d += 1
        h = pow_mod(h, p, f, p)
        g = gcd(sub(h, (0, 1), p), f, p)
        if deg(g) > 0:
            out.append((d, g))
            f = divmod_poly(f, g, p)[0]
            h = mod(h, f, p)
    if deg(f) > 0:
        out.append((deg(f), f))
    return out


def _equal_degree(f, d, p, rng):
    # f monic squarefree, all irreducible factors of degree d
    if deg(f) == d:
        return [f]
    while True:
        h = norm([rng.randrange(p) for _ in range(deg(f))], p)
        if deg(h) < 1:
            continue
        g = gcd(h, f, p)
        if 0 < deg(g) < deg(f):
            pass
        elif p == 2:
            # trace map over F_{2^d}
            tr = ZERO
            cur = mod(h, f, p)
            for _ in range(d):
                tr = add(tr, cur, p)
                cur = mod(mul(cur, cur, p), f, p)
            g = gcd(tr, f, p)
        else:
            g = gcd(sub(pow_mod(h, (p**d - 1) // 2, f, p), ONE, p), f, p)
        if 0 < deg(g) < deg(f):
            rest = divmod_poly(f, g, p)[0]
            return _equal_degree(g, d, p, rng) + _equal_degree(rest, d, p, rng)


def factor(f, p):
    """Full factorization: returns (leading coefficient, {monic irreducible:
    multiplicity}).  Deterministic for a fixed input."""
    f = norm(f, p)
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lead = f[-1]
    f = monic(f, p)
    seed = p
    for c in f:
        seed = seed * p + c + 1
    rng = random.Random(seed)
    out = {}
    if deg(f) == 0:
        return lead, out
    for mult, part in sorted(_squarefree(f, p).items()):
        for d, block in _distinct_degree(part, p):
            for irr in _equal_degree(block, d, p, rng):
                out[irr] = out.get(irr, 0) + mult
    return lead, out
