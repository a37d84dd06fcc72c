"""The benchmark's own exact arithmetic, kept apart from punctline's.

The input generator and the output checks compute with these helpers
only, so a change to the program's arithmetic can neither change a
workload nor make a wrong answer pass its check.

Polynomials over F_p are tuples of coefficients in ascending degree
with no trailing zeros.  Elements of Q(rho), rho^2 = rho - 1, are pairs
(a, b) of Fractions standing for a + b*rho; Q is the part with b = 0.
Points of P^1 are homogeneous pairs over either ring, (1, 0) being
infinity; over F_p(t) both coordinates are polynomials.
"""

from fractions import Fraction

# --- F_p[t] ---------------------------------------------------------------


def pnorm(coeffs, p):
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def padd(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    return pnorm([c + (g[i] if i < len(g) else 0) for i, c in enumerate(f)], p)


def psub(f, g, p):
    return padd(f, tuple(-c for c in g), p)


def pmul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return pnorm(out, p)


def pscale(f, c, p):
    return pnorm([x * c for x in f], p)


def pdivmod(f, g, p):
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(f)
    quo = [0] * max(0, len(f) - len(g) + 1)
    inv = pow(g[-1], -1, p)
    for i in range(len(f) - len(g), -1, -1):
        c = rem[i + len(g) - 1] * inv % p
        if c:
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return pnorm(quo, p), pnorm(rem, p)


def pgcd(f, g, p):
    while g:
        f, g = g, pdivmod(f, g, p)[1]
    return pscale(f, pow(f[-1], -1, p), p) if f else ()


def pspread(f, q):
    """f(t) -> f(t^q); for q a power of p this is f -> f^q over F_p."""
    if not f:
        return ()
    out = [0] * ((len(f) - 1) * q + 1)
    for i, c in enumerate(f):
        out[i * q] = c
    return tuple(out)


def ptext(f):
    """Text form read by punctline's element parser."""
    if not f:
        return "0"
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c:
            mono = "" if i == 0 else ("t" if i == 1 else "t^%d" % i)
            if not mono:
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append("%d*%s" % (c, mono))
    return "+".join(terms)


def pt_twist(pt, q):
    return pspread(pt[0], q), pspread(pt[1], q)


def pt_mobius(m, pt, p):
    """Image of a point under a polynomial matrix (a, b, c, d)."""
    a, b, c, d = m
    x, y = pt
    return (
        padd(pmul(a, x, p), pmul(b, y, p), p),
        padd(pmul(c, x, p), pmul(d, y, p), p),
    )


def pbracket(u, v, p):
    return psub(pmul(u[0], v[1], p), pmul(v[0], u[1], p), p)


def pcross_ratio(x1, x2, x3, x4, p):
    """[x4,x1][x3,x2] / ([x4,x2][x3,x1]) as an unreduced (num, den)."""
    num = pmul(pbracket(x4, x1, p), pbracket(x3, x2, p), p)
    den = pmul(pbracket(x4, x2, p), pbracket(x3, x1, p), p)
    return num, den


def pfrac_eq(u, v, p):
    return pmul(u[0], v[1], p) == pmul(v[0], u[1], p)


def pfrac_height(u, p):
    """max(deg num, deg den) of the reduced fraction."""
    g = pgcd(u[0], u[1], p)
    return max(len(u[0]), len(u[1])) - len(g)


def pfrac_is_constant(u, p):
    num, den = u
    return len(num) == len(den) and pscale(num, den[-1], p) == pscale(den, num[-1], p)


# --- Q(rho) ---------------------------------------------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
RHO = (Fraction(0), Fraction(1))


def radd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def rsub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def rmul(u, v):
    a1, b1 = u
    a2, b2 = v
    return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def rdiv(u, v):
    # v * conj(v) = norm(v), with conj(a + b*rho) = (a + b) - b*rho
    n = v[0] * v[0] + v[0] * v[1] + v[1] * v[1]
    if not n:
        raise ZeroDivisionError("division by zero in Q(rho)")
    c = rmul(u, (v[0] + v[1], -v[1]))
    return (c[0] / n, c[1] / n)


def rtext(u):
    """a + b*rho in the text form read by punctline's element parser."""
    return "%s%s%s*rho" % (u[0], "-" if u[1] < 0 else "+", abs(u[1]))


def rpt_mobius(m, pt):
    a, b, c, d = m
    x, y = pt
    return (radd(rmul(a, x), rmul(b, y)), radd(rmul(c, x), rmul(d, y)))


def rbracket(u, v):
    return rsub(rmul(u[0], v[1]), rmul(v[0], u[1]))


def rcross_ratio(x1, x2, x3, x4):
    num = rmul(rbracket(x4, x1), rbracket(x3, x2))
    den = rmul(rbracket(x4, x2), rbracket(x3, x1))
    return rdiv(num, den)


def rpt_affine(pt):
    """The affine coordinate x/y, or None at infinity."""
    return None if pt[1] == ZERO else rdiv(pt[0], pt[1])
