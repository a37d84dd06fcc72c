"""Fox calculus, the Magnus embedding, and centralizer shadows.

Fox derivatives are taken already abelianized: coefficients live in the
exact Laurent ring Z[Z^r] rather than in the free-group ring, because
every downstream statement (the fundamental identity, the kernel
membership test, the metabelian embedding) only consumes the
abelianized image, and Z[Z^r] arithmetic stays exact.

The centralizer material is linear algebra over truncated rings, on the
relation module R = ker(f) with f the sum-of-components map; the limit
claims are phrased as transition compatibility between truncation
levels, as in the group-ring module.
"""

from dataclasses import dataclass, field

from .exactalg import kernel_mod_m, solve_mod_m
from .freegroup import Word, abelianize
from .groupring import AbelianShape, GroupRingElem, mult_rows, project


@dataclass(frozen=True)
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


def _fox_sum(a, rank):
    """sum_i a_i * (x_i - 1) in Z[Z^rank]."""
    one = LaurentElem.one(rank)
    total = LaurentElem.zero(rank)
    for i, x in enumerate(a, start=1):
        total = total + x * (LaurentElem.gen(rank, i) - one)
    return total


def fundamental_identity_check(w: Word, rank=None) -> bool:
    """(monomial of the abelianization) - 1 = sum_i dw/dx_i * (x_i - 1)."""
    if rank is None:
        rank = max(w.max_generator(), 1)
    lhs = _monomial_of(abelianize(w, rank)) - LaurentElem.one(rank)
    return lhs == _fox_sum(derivative_vector(w, rank), rank)


def bl_kernel_check(a) -> bool:
    """True iff sum_i a_i * (x_i - 1) = 0 in Z[Z^r]: the membership test
    for derivative vectors of words with trivial abelianization."""
    a = tuple(a)
    if not a:
        raise ValueError("empty vector")
    rank = a[0].rank
    if any(x.rank != rank for x in a):
        raise ValueError("rank mismatch")
    return _fox_sum(a, rank).is_zero()


@dataclass(frozen=True)
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
        if _monomial_of(ab) - LaurentElem.one(rank) != _fox_sum(deriv, rank):
            raise ValueError("fundamental identity fails")

    @property
    def rank(self):
        return len(self.ab)

    @classmethod
    def identity(cls, rank):
        return cls((0,) * rank, tuple(LaurentElem.zero(rank) for _ in range(rank)))

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

def _f_matrix(shape, M):
    # f: direct sum of r copies of the ring -> ring, (a_i) -> sum a_i (x_i - 1)
    r = len(shape.moduli)
    one = GroupRingElem.one(shape, M)
    blocks = [
        mult_rows(GroupRingElem.monomial(shape, M, tuple(int(j == i) for j in range(r))) - one)
        for i in range(r)
    ]
    return [[x for block in blocks for x in block[row]] for row in range(len(blocks[0]))]


def _kernel_vectors(rows, shape, M, r):
    """kernel_mod_m of rows, each vector cut into r group-ring elements:
    block i of the columns is coordinate i, in shape.elements() order."""
    basis = list(shape.elements())
    q = len(basis)
    return [
        tuple(GroupRingElem(shape, M, dict(zip(basis, vec[i * q:(i + 1) * q]))) for i in range(r))
        for vec in kernel_mod_m(rows, M)
    ]


def relation_module_basis(r: int, N: int, M: int):
    """Generators of R = ker(f) at truncation (Z/M)[(Z/N)^r], returned as
    r-tuples of group-ring elements."""
    if r < 2:
        raise ValueError("need rank at least 2")
    shape = AbelianShape((N,) * r)
    return _kernel_vectors(_f_matrix(shape, M), shape, M, r)


def metabelian_centralizer_kernel(r: int, n: int, N: int, M: int):
    """Kernel of multiplication by x_1^n - 1 on the relation module R,
    at truncation (Z/M)[(Z/N)^r]."""
    if r < 2:
        raise ValueError("need rank at least 2")
    if n == 0:
        raise ValueError("n must be nonzero")
    shape = AbelianShape((N,) * r)
    block = mult_rows(GroupRingElem.monomial(shape, M, n) - GroupRingElem.one(shape, M))
    q = len(block)
    # stack f on top of the r diagonal copies of multiplication by x_1^n - 1
    rows = _f_matrix(shape, M)
    for i in range(r):
        rows.extend([0] * (i * q) + brow + [0] * ((r - 1 - i) * q) for brow in block)
    return _kernel_vectors(rows, shape, M, r)


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
    return solve_mod_m(cols, rhs, M) is not None


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
