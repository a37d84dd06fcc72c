"""Fox calculus, the Magnus embedding, and centralizer shadows.

Fox derivatives are taken already abelianized: coefficients live in the
exact Laurent ring Z[Z^r] rather than in the free-group ring, because
every downstream statement (the fundamental identity, the kernel
membership test, the metabelian embedding) only consumes the
abelianized image, and Z[Z^r] arithmetic stays exact.

The centralizer material comes in two flavors.  Over truncated rings it
is linear algebra on the relation module R = ker(f) with f the
sum-of-components map; the limit claims are phrased as transition
compatibility between truncation levels, as in the group-ring module.
Over a finite abelian quotient it is a 2x2 block unipotent trick: a
commutation in the block group forces the quotient image of y into the
cyclic group generated by the image of x, and the witness reports
whether the (1,2)-block comparison certifies that.
"""

import math
from dataclasses import dataclass, field

from .exactalg import IntMatrix, factor_integer, kernel_mod_m, solve_mod_m
from .freegroup import Word, abelianize
from .groupring import AbelianShape, GroupRingElem, project


@dataclass(frozen=True, eq=False)
class LaurentElem:
    """Element of Z[Z^r]: finite map from exponent vectors to integers."""

    rank: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = {}
        for key, c in self.coeffs.items():
            key = tuple(int(k) for k in key)
            if len(key) != self.rank:
                raise ValueError("exponent vector length does not match rank")
            c = norm.get(key, 0) + int(c)
            if c:
                norm[key] = c
            else:
                norm.pop(key, None)
        object.__setattr__(self, "coeffs", norm)

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def monomial(cls, rank, key, coeff=1):
        return cls(rank, {tuple(key): coeff})

    @classmethod
    def one(cls, rank):
        return cls.monomial(rank, (0,) * rank)

    @classmethod
    def gen(cls, rank, i, power=1):
        key = [0] * rank
        key[i - 1] = power
        return cls.monomial(rank, key)

    def is_zero(self):
        return not self.coeffs

    def augmentation(self):
        return sum(self.coeffs.values())

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElem)
            and self.rank == other.rank
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentElem(self.rank, out)

    def __neg__(self):
        return LaurentElem(self.rank, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentElem(self.rank, out)

    def scale(self, c):
        return LaurentElem(self.rank, {k: v * c for k, v in self.coeffs.items()})


def fox_derivative(w: Word, i: int, rank=None) -> LaurentElem:
    """Abelianized Fox derivative of w with respect to generator i.

    Rules: dx_i/dx_i = 1, dx_i^-1/dx_i = -x_i^-1, d(uv) = du + u_bar*dv.
    Runs are differentiated in closed form; the prefix abelianization is
    threaded through rather than recursing letter by letter.
    """
    if rank is None:
        rank = max(w.max_generator(), i)
    if not 1 <= i <= rank:
        raise ValueError("generator %d out of range for rank %d" % (i, rank))
    if w.max_generator() > rank:
        raise ValueError("word uses a generator above rank %d" % rank)
    coeffs = {}
    prefix = [0] * rank
    for g, e in w.letters:
        if g == i:
            rng = range(0, e) if e > 0 else range(e, 0)
            sign = 1 if e > 0 else -1
            for j in rng:
                key = list(prefix)
                key[i - 1] += j
                key = tuple(key)
                coeffs[key] = coeffs.get(key, 0) + sign
        prefix[g - 1] += e
    return LaurentElem(rank, coeffs)


def derivative_vector(w: Word, rank: int):
    return tuple(fox_derivative(w, i, rank) for i in range(1, rank + 1))


def _monomial_of(ab):
    return LaurentElem.monomial(len(ab), ab)


def fundamental_identity_check(w: Word, rank=None) -> bool:
    """(monomial of the abelianization) - 1 = sum_i dw/dx_i * (x_i - 1)."""
    if rank is None:
        rank = max(w.max_generator(), 1)
    lhs = _monomial_of(abelianize(w, rank)) - LaurentElem.one(rank)
    rhs = LaurentElem.zero(rank)
    for i in range(1, rank + 1):
        step = LaurentElem.gen(rank, i) - LaurentElem.one(rank)
        rhs = rhs + fox_derivative(w, i, rank) * step
    return lhs == rhs


def bl_kernel_check(a) -> bool:
    """True iff sum_i a_i * (x_i - 1) = 0 in Z[Z^r]: the membership test
    for derivative vectors of words with trivial abelianization."""
    a = tuple(a)
    if not a:
        raise ValueError("empty vector")
    rank = a[0].rank
    if any(x.rank != rank for x in a):
        raise ValueError("rank mismatch")
    total = LaurentElem.zero(rank)
    for i, x in enumerate(a, start=1):
        total = total + x * (LaurentElem.gen(rank, i) - LaurentElem.one(rank))
    return total.is_zero()


@dataclass(frozen=True, eq=False)
class MetabelianElem:
    """Magnus-embedding image: abelian part plus derivative vector.

    Construction enforces the fundamental identity, so every value of
    this type is the image of an actual free-group element.
    """

    ab: tuple
    deriv: tuple

    def __post_init__(self):
        ab = tuple(int(x) for x in self.ab)
        deriv = tuple(self.deriv)
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "deriv", deriv)
        rank = len(ab)
        if len(deriv) != rank or any(d.rank != rank for d in deriv):
            raise ValueError("derivative vector does not match rank")
        lhs = _monomial_of(ab) - LaurentElem.one(rank)
        rhs = LaurentElem.zero(rank)
        for i, d in enumerate(deriv, start=1):
            rhs = rhs + d * (LaurentElem.gen(rank, i) - LaurentElem.one(rank))
        if lhs != rhs:
            raise ValueError("fundamental identity fails")

    @property
    def rank(self):
        return len(self.ab)

    @classmethod
    def identity(cls, rank):
        return cls((0,) * rank, tuple(LaurentElem.zero(rank) for _ in range(rank)))

    def __eq__(self, other):
        return (
            isinstance(other, MetabelianElem)
            and self.ab == other.ab
            and self.deriv == other.deriv
        )

    def inverse(self):
        rank = self.rank
        neg = tuple(-x for x in self.ab)
        mono = _monomial_of(neg)
        deriv = tuple((-(mono * d)) for d in self.deriv)
        return MetabelianElem(neg, deriv)


def embed(w: Word, rank: int) -> MetabelianElem:
    return MetabelianElem(abelianize(w, rank), derivative_vector(w, rank))


def magnus_mul(u: MetabelianElem, v: MetabelianElem) -> MetabelianElem:
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    ab = tuple(a + b for a, b in zip(u.ab, v.ab))
    mono = _monomial_of(u.ab)
    deriv = tuple(du + mono * dv for du, dv in zip(u.deriv, v.deriv))
    return MetabelianElem(ab, deriv)


# --- truncated relation module -----------------------------------------

def truncate_laurent(a: LaurentElem, N: int, M: int) -> GroupRingElem:
    """Reduce an exact Laurent element into (Z/M)[(Z/N)^r]."""
    shape = AbelianShape((N,) * a.rank)
    return GroupRingElem(shape, M, dict(a.coeffs))


def _ring_basis(r, N):
    shape = AbelianShape((N,) * r)
    basis = list(shape.elements())
    index = {g: i for i, g in enumerate(basis)}
    return shape, basis, index


def _mult_rows(a, shape, basis, index):
    # rows of multiplication-by-a on the group basis
    rows = [[0] * len(basis) for _ in basis]
    for g in basis:
        col = index[g]
        for k, c in a.coeffs.items():
            h = shape.reduce(tuple(x + y for x, y in zip(k, g)))
            rows[index[h]][col] += c
    return rows


def _f_matrix(r, N, M):
    # f: direct sum of r copies of the ring -> ring, (a_i) -> sum a_i (x_i - 1)
    shape, basis, index = _ring_basis(r, N)
    q = len(basis)
    rows = [[0] * (r * q) for _ in range(q)]
    for i in range(r):
        step = GroupRingElem.monomial(shape, M, tuple(1 if j == i else 0 for j in range(r)))
        one = GroupRingElem.one(shape, M)
        a = step - one
        block = _mult_rows(a, shape, basis, index)
        for row in range(q):
            for col in range(q):
                rows[row][i * q + col] = block[row][col]
    return shape, basis, rows


def relation_module_basis(r: int, N: int, M: int):
    """Generators of R = ker(f) at truncation (Z/M)[(Z/N)^r], returned as
    r-tuples of group-ring elements."""
    if r < 2:
        raise ValueError("need rank at least 2")
    shape, basis, rows = _f_matrix(r, N, M)
    q = len(basis)
    out = []
    for vec in kernel_mod_m(IntMatrix(rows), M):
        coords = tuple(
            GroupRingElem(shape, M, {basis[j]: vec[i * q + j] for j in range(q)})
            for i in range(r)
        )
        if any(not c.is_zero() for c in coords):
            out.append(coords)
    return out


def metabelian_centralizer_kernel(r: int, n: int, N: int, M: int):
    """Kernel of multiplication by x_1^n - 1 on the relation module R,
    at truncation (Z/M)[(Z/N)^r]."""
    if r < 2:
        raise ValueError("need rank at least 2")
    if n == 0:
        raise ValueError("n must be nonzero")
    shape, basis, f_rows = _f_matrix(r, N, M)
    index = {g: i for i, g in enumerate(basis)}
    q = len(basis)
    mult = GroupRingElem.monomial(shape, M, (n % N,) + (0,) * (r - 1)) - GroupRingElem.one(shape, M)
    block = _mult_rows(mult, shape, basis, index)
    # stack f on top of the r diagonal copies of multiplication by x_1^n - 1
    rows = [row[:] for row in f_rows]
    for i in range(r):
        for brow in range(q):
            row = [0] * (r * q)
            for bcol in range(q):
                row[i * q + bcol] = block[brow][bcol]
            rows.append(row)
    out = []
    for vec in kernel_mod_m(IntMatrix(rows), M):
        coords = tuple(
            GroupRingElem(shape, M, {basis[j]: vec[i * q + j] for j in range(q)})
            for i in range(r)
        )
        if any(not c.is_zero() for c in coords):
            out.append(coords)
    return out


def vector_in_scaled_span(vectors, scale: int, target, M: int) -> bool:
    """Is target = scale * (combination of vectors) mod M?  All entries are
    r-tuples of group-ring elements on one shape."""
    if not vectors:
        return all(c.is_zero() for c in target)
    shape = target[0].shape
    basis = list(shape.elements())
    cols = []
    rhs = []
    for i, t in enumerate(target):
        for g in basis:
            cols.append([scale * v[i].coeffs.get(g, 0) for v in vectors])
            rhs.append(t.coeffs.get(g, 0))
    return solve_mod_m(IntMatrix(cols), rhs, M) is not None


def centralizer_kernel_shrinks(r: int, n: int, N: int, n_prime: int, M: int) -> bool:
    """Transition shadow: the level-N centralizer kernel, projected to
    group level n_prime, lands in k*R' with k = N/n_prime and R' the
    relation module at level n_prime."""
    if N % n_prime != 0:
        raise ValueError("n_prime must divide N")
    k = N // n_prime
    kernel = metabelian_centralizer_kernel(r, n, N, M)
    low = relation_module_basis(r, n_prime, M)
    for vec in kernel:
        image = tuple(project(c, (n_prime,) * r) for c in vec)
        if not vector_in_scaled_span(low, k, image, M):
            return False
    return True


# --- finite abelian quotient witness ------------------------------------

@dataclass(frozen=True)
class AbelianQuotient:
    """Finite abelian quotient of a free group: target moduli plus the
    image of each free generator."""

    moduli: tuple
    images: tuple

    def __post_init__(self):
        mods = tuple(int(n) for n in self.moduli)
        if not mods or any(n < 1 for n in mods):
            raise ValueError("moduli must be integers >= 1")
        imgs = []
        for img in self.images:
            img = tuple(int(x) % n for x, n in zip(img, mods))
            if len(img) != len(mods):
                raise ValueError("image length does not match moduli")
            imgs.append(img)
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "images", tuple(imgs))

    def rank(self):
        return len(self.images)

    def order(self):
        return math.prod(self.moduli)

    def image_of(self, w: Word):
        vec = [0] * len(self.moduli)
        for g, e in w.letters:
            if g > len(self.images):
                raise ValueError("word uses generator %d beyond the quotient data" % g)
            for j, x in enumerate(self.images[g - 1]):
                vec[j] += e * x
        return tuple(v % n for v, n in zip(vec, self.moduli))


def _order_is(u, m, modulus):
    if math.gcd(u, modulus) != 1 or pow(u, m, modulus) != 1:
        return False
    return all(pow(u, m // p, modulus) != 1 for p in factor_integer(m)[1])


def _unit_of_order(m, modulus, low_modulus):
    """Smallest unit of multiplicative order exactly m both mod modulus and
    mod low_modulus, or None.  Exact order at the low precision is what
    keeps the character faithful after the division step."""
    if m == 1:
        return 1
    for u in range(2, min(modulus, 4000)):
        if _order_is(u, m, modulus) and _order_is(u % low_modulus, m, low_modulus):
            return u
    return None


class _Blocks:
    """2x2 upper-triangular matrices (a, b, c) = [[a, b], [0, c]] over a
    commutative coefficient ring: either Z/ell^K itself (scalar character)
    or the group algebra (Z/ell^K)[G] (regular model)."""

    def __init__(self, quotient, modulus, low_modulus):
        self.modulus = modulus
        u = None
        if len(quotient.moduli) == 1:
            u = _unit_of_order(quotient.moduli[0], modulus, low_modulus)
        self.unit = u
        if u is None:
            self.shape = AbelianShape(quotient.moduli)

    def rho(self, gvec):
        if self.unit is not None:
            return pow(self.unit, gvec[0], self.modulus)
        return GroupRingElem.monomial(self.shape, self.modulus, gvec)

    def one(self):
        if self.unit is not None:
            return 1 % self.modulus
        return GroupRingElem.one(self.shape, self.modulus)

    def zero(self):
        if self.unit is not None:
            return 0
        return GroupRingElem.zero(self.shape, self.modulus)

    def add(self, x, y):
        if self.unit is not None:
            return (x + y) % self.modulus
        return x + y

    def mul(self, x, y):
        if self.unit is not None:
            return (x * y) % self.modulus
        return x * y

    def scale(self, x, c):
        if self.unit is not None:
            return (x * c) % self.modulus
        return x.scale(c)

    def block_mul(self, m1, m2):
        a1, b1, c1 = m1
        a2, b2, c2 = m2
        return (
            self.mul(a1, a2),
            self.add(self.mul(a1, b2), self.mul(b1, c2)),
            self.mul(c1, c2),
        )

    def block_identity(self):
        return (self.one(), self.zero(), self.one())


def cyclic_centralizer_witness(
    quotient: AbelianQuotient, x_index: int, y: Word, alpha: int, ell: int, k: int
) -> bool:
    """Unipotent-block certificate that the quotient image of y lies in
    the cyclic group generated by the image of x_{x_index}.

    Builds 2x2 blocks over Z/ell^K: generator x_index maps to
    [[rho(x), rho(x)], [0, rho(x)]], other generators to
    [[rho(x_j), 0], [0, 1]].  Evaluates Y = psi(y) and
    E = psi(x^(alpha*|G|)) and compares the (1,2) components of Y*E and
    E*Y.  The working precision K = k + v_ell(alpha*|G|) makes the
    comparison equivalent to rho(y) = rho(x)^(exponent sum) mod ell^k.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if k < 1 or ell < 2:
        raise ValueError("need a prime ell and precision k >= 1")
    if not 1 <= x_index <= quotient.rank():
        raise ValueError("x_index out of range")
    # the quotient is abelian, so the image of y always commutes with the
    # image of x^alpha; the domain precondition holds by construction
    e = alpha * quotient.order()
    v = 0
    m = abs(e)
    while m % ell == 0:
        m //= ell
        v += 1
    modulus = ell ** (k + v)
    blocks = _Blocks(quotient, modulus, ell**k)

    acc = blocks.block_identity()
    for g, exp in y.letters:
        if g > quotient.rank():
            raise ValueError("word uses generator %d beyond the quotient data" % g)
        img = quotient.image_of(Word(((g, exp),)))
        a = blocks.rho(img)
        if g == x_index:
            run = (a, blocks.scale(a, exp), a)
        else:
            run = (a, blocks.zero(), blocks.one())
        acc = blocks.block_mul(acc, run)

    x_img = quotient.image_of(Word(((x_index, e),)))
    ex = blocks.rho(x_img)  # identity: |G| kills the image
    big = (ex, blocks.scale(ex, e), ex)
    left = blocks.block_mul(acc, big)
    right = blocks.block_mul(big, acc)
    return left[1] == right[1]
