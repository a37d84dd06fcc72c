"""Exact integer arithmetic: linear algebra over Z/M, primality and
integer factorization.

Everything here works with arbitrary-precision Python integers.  The main
entry points are :func:`kernel_mod_m` / :func:`solve_mod_m`,
:func:`is_prime` and :func:`factor_integer`; :func:`smith_normal_form`
and :func:`det` serve only as test oracles.

The solvers over Z/M never lift to Z.  For each prime power q^e exactly
dividing M they diagonalise over the local ring Z/q^e, where an entry of
least q-valuation divides all others, so one elimination pass per pivot
suffices and entries stay below q^e (after J. A. Howell, "Spans in the
module (Z_m)^s", Lin. Multilin. Alg. 19, 1986, and A. Storjohann and
T. Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).
The Chinese remainder theorem joins the prime powers.
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


def _pivot(block, q_e):
    """(g, i, j) for an entry block[i][j] of least valuation, g = its gcd
    with q_e; the first unit if there is one, None if the block is zero."""
    best = None
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            if x:
                g = gcd(x, q_e)
                if g == 1:
                    return 1, i, j
                if best is None or g < best[0]:
                    best = (g, i, j)
    return best


def _local_diagonalise(rows, q_e, rhs):
    """Row operations P and column operations V over the local ring Z/q_e,
    q_e a prime power, with P*rows*V diagonal.

    Each step pivots on an entry of least valuation in the remaining block.
    That pivot divides every entry of the block, so one exact row pass
    clears its column.  The pivot row then leaves the block, and the column
    pass that clears it changes nothing else, so it is only recorded, as a
    factor of V.  rhs goes through the row operations.  Entries stay in
    [0, q_e).

    Returns (pivots, free, residue).  pivots lists (column, g, inverse, c,
    ops) by nondecreasing valuation: the pivot is g times a unit, g a power
    of q, inverse is that unit's inverse, c is the pivot row's entry of
    P*rhs and ops lists the (column, f) of the column pass, each column
    losing f times the pivot column.  free lists the columns left without a
    pivot and residue the entries of P*rhs on the rows left without one.
    """
    block = [[x % q_e for x in row] for row in rows]
    residue = [x % q_e for x in rhs]
    cols = list(range(len(block[0])))  # the original index of each block column
    pivots = []
    while block:
        best = _pivot(block, q_e)
        if best is None:
            break
        g, i, j = best
        prow = block.pop(i)
        cp = residue.pop(i)
        inv = pow(prow.pop(j) // g, -1, q_e)
        col = cols.pop(j)
        for k, row in enumerate(block):
            f = row.pop(j)
            if f:
                f = f // g * inv % q_e
                block[k] = [(x - f * y) % q_e for x, y in zip(row, prow)]
                residue[k] = (residue[k] - f * cp) % q_e
        ops = [(other, y // g * inv % q_e) for other, y in zip(cols, prow) if y]
        pivots.append((col, g, inv, cp, ops))
    return pivots, cols, residue


def _apply_v(pivots, x, q_e):
    """V*x modulo q_e, by back substitution: V is the product of the
    column passes in step order, and the pass of a pivot changes only the
    pivot's coordinate of a vector, so the last pass applies first."""
    for col, _, _, _, ops in reversed(pivots):
        if ops:
            x[col] = (x[col] - sum(f * x[other] for other, f in ops)) % q_e
    return x


def _local_parts(a, m_mod, rhs=None):
    """(q_e, idempotent, local diagonalisation) for each prime power q_e
    exactly dividing m_mod.  Each idempotent is 1 modulo its own prime
    power and 0 modulo the others."""
    if m_mod < 2:
        raise ValueError("modulus must be >= 2")
    rows = a.entries if isinstance(a, IntMatrix) else a
    if not rows or not rows[0] or len({len(r) for r in rows}) != 1:
        raise ValueError("empty or ragged matrix rejected")
    if rhs is None:
        rhs = [0] * len(rows)
    elif len(rhs) != len(rows):
        raise ValueError("right-hand side has %d entries for %d rows" % (len(rhs), len(rows)))
    parts = []
    for q, e in factor_integer(m_mod)[1].items():
        q_e = q**e
        rest = m_mod // q_e
        parts.append((q_e, rest * pow(rest, -1, q_e), _local_diagonalise(rows, q_e, rhs)))
    return parts


def _crt_join(local, m_mod):
    """The vector modulo m_mod that is each local vector modulo its prime
    power; local lists (idempotent, vector) pairs."""
    return tuple(sum(xs) % m_mod for xs in zip(*([idem * x for x in vec] for idem, vec in local)))


def kernel_mod_m(a, m_mod):
    """Generators of {v : a*v == 0 over Z/m_mod} as a Z/m_mod-module.

    `a` may be an IntMatrix or a sequence of rows; entries are read modulo
    m_mod.  Modulo each prime power q_e of m_mod, the kernel is V times the
    kernel of the diagonal matrix: spanned by V*(q_e/g)e_col for each pivot
    g that is not a unit and by V*e_col for each column without a pivot.
    The i-th generators of all prime powers are joined into one, so there
    are as many generators as invariant factors of a (0 for each column
    past the rows) that are not units modulo m_mod.  Every generator is
    nonzero.
    """
    local = []
    for q_e, idem, (pivots, free, _) in _local_parts(a, m_mod):
        n = len(pivots) + len(free)
        starts = [(col, q_e // g) for col, g, _, _, _ in pivots if g > 1]
        starts.extend((col, 1) for col in free)
        gens = []
        for col, value in starts:
            x = [0] * n
            x[col] = value
            gens.append(_apply_v(pivots, x, q_e))
        local.append((idem, gens))
    # a prime power with fewer generators adds zero to the later joins
    count = max(len(gens) for _, gens in local)
    return [
        _crt_join([(idem, gens[i]) for idem, gens in local if i < len(gens)], m_mod)
        for i in range(count)
    ]


def solve_mod_m(a, b, m_mod):
    """One solution x of a*x == b over Z/m_mod, or None if unsolvable:
    modulo each prime power, solve the diagonal system for V^-1 x."""
    local = []
    for q_e, idem, (pivots, free, residue) in _local_parts(a, m_mod, list(b)):
        if any(residue) or any(cp % g for _, g, _, cp, _ in pivots):
            return None
        y = [0] * (len(pivots) + len(free))
        for col, g, inv, cp, _ in pivots:
            y[col] = cp // g * inv % q_e
        local.append((idem, _apply_v(pivots, y, q_e)))
    return _crt_join(local, m_mod)


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
