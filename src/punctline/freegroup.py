"""Free-group words and abelianized curve presentations.

Words are stored in run-length form: a sequence of (generator index,
nonzero exponent) pairs with adjacent runs on distinct generators.  The
run-length shape is what the Fox-derivative recursion consumes, so it is
the native representation rather than a flat letter list.

A curve of type (g, r) carries the one-relator presentation on
alpha_1, beta_1, ..., alpha_g, beta_g, sigma_1, ..., sigma_r with the
product of commutators times the product of the sigma_j as its single
relation.  Only the abelianized layer of that presentation lives here.
"""

from dataclasses import dataclass

# CLI letter order: x, y, z name generators 1..3, then a, b, c, ...
ALPHABET = "xyzabcdefghijklmnopqrstuvw"


@dataclass(frozen=True)
class Word:
    """Freely reduced word, run-length encoded."""

    letters: tuple

    def __post_init__(self):
        runs = tuple((int(g), int(e)) for g, e in self.letters)
        for g, e in runs:
            if g < 1:
                raise ValueError("generator index must be >= 1, got %d" % g)
            if e == 0:
                raise ValueError("zero exponent in run on generator %d" % g)
        for (g1, _), (g2, _) in zip(runs, runs[1:]):
            if g1 == g2:
                raise ValueError("adjacent runs share generator %d" % g1)
        object.__setattr__(self, "letters", runs)

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    def __mul__(self, other: "Word") -> "Word":
        return reduce(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=0)


def reduce(raw) -> Word:
    """Freely reduce a raw sequence of (generator, exponent) runs.

    Exponents may be zero or repeated; cancellation cascades, so e.g.
    x y y^-1 x collapses to x^2.
    """
    stack = []
    for g, e in raw:
        g, e = int(g), int(e)
        if g < 1:
            raise ValueError("generator index must be >= 1, got %d" % g)
        if e == 0:
            continue
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([g, e])
    return Word(tuple((g, e) for g, e in stack))


def abelianize(w: Word, r: int):
    """Exponent-sum vector of w in Z^r.

    Raises ValueError when the word uses a generator index above r.
    """
    vec = [0] * r
    for g, e in w.letters:
        if g > r:
            raise ValueError("generator %d out of range for rank %d" % (g, r))
        vec[g - 1] += e
    return tuple(vec)


def parse_word(text: str) -> Word:
    """Parse CLI word syntax: lowercase letters are generators, uppercase
    their inverses, e.g. "xyXY" for the commutator [x, y]."""
    raw = []
    for ch in text:
        if ch.isspace():
            continue
        low = ch.lower()
        if low not in ALPHABET:
            raise ValueError("bad word letter %r" % ch)
        g = ALPHABET.index(low) + 1
        raw.append((g, -1 if ch.isupper() else 1))
    return reduce(raw)


def word_text(w: Word) -> str:
    out = []
    for g, e in w.letters:
        ch = ALPHABET[g - 1]
        out.append((ch.upper() if e < 0 else ch) * abs(e))
    return "".join(out)


@dataclass(frozen=True)
class CurvePresentation:
    """Type (g, r): genus and cusp count, both nonnegative.

    Hyperbolicity (2 - 2g - r < 0) is a predicate, not an invariant;
    non-hyperbolic types are legal values.
    """

    g: int
    r: int

    def __post_init__(self):
        if self.g < 0 or self.r < 0:
            raise ValueError("genus and cusp count must be nonnegative")

    def is_hyperbolic(self) -> bool:
        return 2 - 2 * self.g - self.r < 0


def presentation_abelianization(p: CurvePresentation):
    """Invariant factors of the abelianized one-relator group.

    Returned as a tuple with unit factors dropped and one 0 per free
    summand, so (0, 3) yields (0, 0): free of rank 2.  The commutators
    die, so the relation abelianizes to sigma_1 + ... + sigma_r = 0.  For
    r >= 1 that row has invariant factor 1 and kills one generator: free
    of rank 2g + r - 1.  For r = 0 it is zero: free of rank 2g.
    """
    rank = 2 * p.g + p.r - 1 if p.r else 2 * p.g
    return (0,) * rank


def abelianization_rank(p: CurvePresentation) -> int:
    return sum(1 for d in presentation_abelianization(p) if d == 0)


def inertia_images(p: CurvePresentation):
    """Images of sigma_1..sigma_r in the free abelianization Z^(2g+r-1).

    Basis: alpha/beta images then sigma_1..sigma_{r-1}; sigma_r is the
    eliminated generator, so its image is minus the sum of the others.
    """
    if p.r < 1:
        raise ValueError("no inertia generators when r = 0")
    dim = 2 * p.g + p.r - 1
    vecs = []
    for i in range(p.r - 1):
        v = [0] * dim
        v[2 * p.g + i] = 1
        vecs.append(tuple(v))
    last = [0] * dim
    for i in range(p.r - 1):
        last[2 * p.g + i] = -1
    vecs.append(tuple(last))
    return tuple(vecs)


def _parallel(u, v) -> bool:
    # nonzero integer vectors span intersecting cyclic groups iff some
    # nonzero multiples agree, i.e. iff all 2x2 minors vanish
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True


def inertia_abelian_independence(p: CurvePresentation) -> bool:
    """True iff the cyclic groups generated by the inertia images meet
    pairwise in 0 only.  Requires r >= 2."""
    if p.r < 2:
        raise ValueError("independence needs at least two cusps")
    vecs = inertia_images(p)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if _parallel(vecs[i], vecs[j]):
                return False
    return True
