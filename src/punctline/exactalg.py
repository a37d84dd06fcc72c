"""Exact integer arithmetic: Smith normal form, linear algebra over Z/M,
primality and integer factorization.

Everything here works with arbitrary-precision Python integers.  The main
entry points are :func:`smith_normal_form` (with unimodular transforms),
the derived solvers :func:`kernel_mod_m` / :func:`solve_mod_m`,
:func:`is_prime` and :func:`factor_integer`.
"""

from dataclasses import dataclass
from math import gcd, isqrt


class IntMatrix:
    """Immutable dense integer matrix stored as a tuple of row tuples."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows_of_entries):
        entries = tuple(tuple(int(x) for x in row) for row in rows_of_entries)
        if not entries or not entries[0]:
            raise ValueError("empty matrix rejected")
        if len({len(r) for r in entries}) != 1:
            raise ValueError("ragged rows")
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.entries)),)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        bt = list(zip(*other.entries))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries]
        )

    def diagonal(self):
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U*A*V = D, with U, V unimodular and d1 | d2 | ..."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def invariant_factors(self):
        return self.d.diagonal()


def _as_rows(a):
    if isinstance(a, IntMatrix):
        return [list(r) for r in a.entries]
    return [list(map(int, r)) for r in a]


def smith_normal_form(a):
    """Smith normal form of a nonempty integer matrix.

    Returns an :class:`SNFResult` with ``u * a * v == d``.  Pivots are chosen
    by smallest nonzero absolute value, ties broken by smallest row index
    (then column index), which keeps entry growth tame at the scales used
    here.  Diagonal entries are nonnegative and form a divisibility chain.
    """
    b = _as_rows(a)
    m, n = len(b), len(b[0])
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            b[i], b[j] = b[j], b[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in b:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst -= q * row_src
        if q:
            brow, urow = b[src], u[src]
            b[dst] = [x - q * y for x, y in zip(b[dst], brow)]
            u[dst] = [x - q * y for x, y in zip(u[dst], urow)]

    def add_col(src, dst, q):
        if q:
            for row in b:
                row[dst] -= q * row[src]
            for row in v:
                row[dst] -= q * row[src]

    def pivot_at(t):
        best = None
        pos = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(b[i][j])
                if val and (best is None or val < best):
                    best, pos = val, (i, j)
        return pos

    t = 0
    while t < min(m, n):
        pos = pivot_at(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear the pivot column
            dirty = False
            for i in range(t + 1, m):
                if b[i][t]:
                    q = b[i][t] // b[t][t]
                    add_row(t, i, q)
                    if b[i][t]:
                        swap_rows(t, i)  # strictly smaller remainder becomes pivot
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if b[t][j]:
                    q = b[t][j] // b[t][t]
                    add_col(t, j, q)
                    if b[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if b[i][j] % b[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, -1)  # row_t += row_offender, then re-eliminate
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SNFResult(IntMatrix(b), IntMatrix(u), IntMatrix(v))


def det(a):
    """Exact determinant via fraction-free Bareiss elimination."""
    b = _as_rows(a)
    n = len(b)
    if n != len(b[0]):
        raise ValueError("determinant of non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if b[k][k] == 0:
            for i in range(k + 1, n):
                if b[i][k]:
                    b[k], b[i] = b[i], b[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev
        prev = b[k][k]
    return sign * b[n - 1][n - 1]


def _mat_vec(rows, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def kernel_mod_m(a, m_mod):
    """Generators of {v : a*v == 0 over Z/m_mod} as a Z/m_mod-module.

    `a` may be an IntMatrix or a sequence of rows; entries are read modulo
    m_mod.  Every kernel element is a Z/m_mod-combination of the returned
    tuples (this follows from the Smith decomposition of an integer lift).
    """
    if m_mod < 2:
        raise ValueError("modulus must be >= 2")
    snf = smith_normal_form(a)
    nrows, ncols = snf.d.rows, snf.d.cols
    diag = snf.d.diagonal()
    gens = []
    vcols = list(zip(*snf.v.entries))
    for j in range(ncols):
        dj = diag[j] if j < min(nrows, ncols) else 0
        scale = m_mod // gcd(dj, m_mod)
        if scale % m_mod == 0:
            continue
        gens.append(tuple((scale * x) % m_mod for x in vcols[j]))
    return [g for g in gens if any(g)]


def solve_mod_m(a, b, m_mod):
    """One solution x of a*x == b over Z/m_mod, or None if unsolvable."""
    if m_mod < 2:
        raise ValueError("modulus must be >= 2")
    snf = smith_normal_form(a)
    nrows, ncols = snf.d.rows, snf.d.cols
    diag = snf.d.diagonal()
    c = [x % m_mod for x in _mat_vec(snf.u.entries, list(b))]
    t = [0] * ncols
    for i in range(nrows):
        di = diag[i] if i < min(nrows, ncols) else 0
        g = gcd(di, m_mod)
        if c[i] % g:
            return None
        if i < ncols and di:
            mm = m_mod // g
            t[i] = (c[i] // g) * pow(di // g, -1, mm) % mm
    x = _mat_vec(snf.v.entries, t)
    return tuple(v % m_mod for v in x)


_SMALL_PRIME_BOUND = 10000


def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    # Brent's cycle variant; parameters stepped deterministically.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factor_integer(n):
    """Factor a nonzero integer: returns (sign, {prime: exponent}).

    Trial division up to 10^4, then deterministic Pollard rho on whatever
    survives.  Recomposition sign * prod(p**e) equals the input exactly.
    """
    n = int(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors = {}

    def record(p, e=1):
        factors[p] = factors.get(p, 0) + e

    for p in (2, 3, 5):
        while n % p == 0:
            record(p)
            n //= p
    q = 7
    while q <= _SMALL_PRIME_BOUND and q * q <= n:
        while n % q == 0:
            record(q)
            n //= q
        q += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            record(m)
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return sign, dict(sorted(factors.items()))
