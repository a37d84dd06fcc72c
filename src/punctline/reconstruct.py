"""End-to-end reconstruction of a twisted Mobius correspondence.

A scenario holds two cusp sets E1, E2 on the projective line over the
same field and a bijection phi between them.  The task: decide whether
some Mobius map f and Frobenius twists (w1, w2) satisfy
f(E1^(p^w1)) = E2^(p^w2) along phi, and if so recover them.  Over Q and
Q(rho) the twists are forced to zero and the per-cusp cross-ratio test
can hit the golden-ratio ambiguity; over F_p(t) each extra cusp yields
its exact Frobenius-twist exponent, and the pairing is realizable
exactly when all of these exponents agree.

Conventions.  E2.points[phi[i]] is the partner of E1.points[i]; the
first three points of E1 (in input order) are the base triple and are
sent to (0, infinity, 1) by the normalizing map, so the coordinate of a
further cusp is the cross ratio against the base triple.  Recovered
twists are normalized to min(w1, w2) = 0.

Every step reads the scenario through three methods: `coordinates`
yields each extra cusp's pair of cross ratios, `forced_map(w1, w2)` is
the map the twisted base triples force, and `maps_onto(f, w1, w2)` is
the pointwise test f(E1^(p^w1)) = E2^(p^w2) along phi.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .crossratio import (
    HYPOTHESIS_FAILS,
    RHO_PAIR,
    CuspSet,
    MobiusMap,
    ProjPoint,
    cross_ratio,
    decide_lambda_char0,
    decide_lambda_charp,
    mobius_from_triples,
    star_check,
    twist_point,
)
from .fieldarith import (
    FieldDesc,
    FpTElem,
    QElem,
    QRhoElem,
    _poly_to_text,
    check_twist,
    elem_from_text,
    elem_to_text,
    frobenius,
    is_constant,
    json_int,
)
from .multlattice import solve_p_power


_REJECTIONS = {
    "cyclic-hypothesis": "cusp %d breaks the cyclic-subgroup hypotheses",
    "no-exponent": "cusp %d admits no Frobenius-twist exponent",
    "exponent-mismatch": "cusps 3 and %d force twist exponents %d and %d",
}


class ReconstructionError(Exception):
    """The cusp data admits no twisted Mobius map compatible with phi.

    cusp is the first extra cusp that fails, reason names the failed
    check (a key of _REJECTIONS), and exponents is (n, n_i), the twist
    exponents of cusps 3 and cusp, for "exponent-mismatch", else ().
    The message is built from these three.
    """

    def __init__(self, cusp: int, reason: str, exponents: tuple = ()):
        super().__init__(_REJECTIONS[reason] % ((cusp,) + exponents))
        self.cusp = cusp
        self.reason = reason
        self.exponents = exponents


@dataclass(frozen=True)
class Scenario:
    """Two cusp sets with a bijection and, optionally, the hidden
    (g, n) that produced E2 = g(E1^(p^n))."""

    field: FieldDesc
    e1: CuspSet
    e2: CuspSet
    phi: tuple
    secret: tuple = None

    def __post_init__(self):
        if self.e1.field != self.field or self.e2.field != self.field:
            raise ValueError("cusp sets must live over the scenario field")
        size = self.e1.size()
        if self.e2.size() != size:
            raise ValueError("cusp sets must have the same size")
        phi = tuple(int(i) for i in self.phi)
        object.__setattr__(self, "phi", phi)
        if sorted(phi) != list(range(size)):
            raise ValueError("phi must be a permutation of 0..size-1")
        if self.secret is not None:
            g, n = self.secret
            object.__setattr__(self, "secret", (g, int(n)))
            if n < 0:
                raise ValueError("secret twist must be nonnegative")
            if n and self.field.char() == 0:
                raise ValueError(
                    "nonzero twist needs positive characteristic"
                )
            check_twist(self.field, n)
            if not self.maps_onto(g, n, 0):
                raise ValueError("secret does not map E1 onto E2 along phi")

    def size(self) -> int:
        return self.e1.size()

    def partner(self, i: int) -> ProjPoint:
        return self.e2.points[self.phi[i]]

    def coordinates(self):
        """Yield (i, lam1, lam2) for each extra cusp i >= 3, lazily: the
        cross ratios of E1[i] and of its partner against the base
        triples."""
        b1 = self.e1.points[:3]
        b2 = tuple(self.partner(i) for i in range(3))
        for i in range(3, self.size()):
            yield (i, cross_ratio(*b1, self.e1.points[i]),
                   cross_ratio(*b2, self.partner(i)))

    def forced_map(self, w1: int, w2: int) -> MobiusMap:
        """The map sending the base triple of E1^(p^w1) to its partners
        in E2^(p^w2)."""
        return mobius_from_triples(
            *(twist_point(pt, w1) for pt in self.e1.points[:3]),
            *(twist_point(self.partner(i), w2) for i in range(3)),
        )

    def maps_onto(self, f: MobiusMap, w1: int, w2: int) -> bool:
        """Does f map E1^(p^w1) onto E2^(p^w2) pointwise along phi?"""
        return all(
            f.apply(twist_point(pt, w1)) == twist_point(self.partner(i), w2)
            for i, pt in enumerate(self.e1.points)
        )


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered twists and map: f(E1^(p^w1)) = E2^(p^w2) along phi.
    ambiguity is None or the rho-pair marker."""

    w1: int
    w2: int
    f: MobiusMap
    ambiguity: str = None

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0 or min(self.w1, self.w2) != 0:
            raise ValueError("twists must be >= 0 with at least one zero")

    def twist_difference(self) -> int:
        return self.w1 - self.w2


# --- scenario generation --------------------------------------------------

def _random_constant(rng, field):
    if field.kind == "Q":
        return QElem(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
    return QRhoElem(
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
    )


def _random_function(rng, field):
    p = field.p
    for _ in range(200):
        num = tuple(rng.randrange(p) for _ in range(rng.randint(2, 3)))
        den = tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))
        if not any(num) or not any(den):
            continue
        val = FpTElem(p, num, den)
        if not is_constant(val):
            return val
    raise RuntimeError("could not sample a non-constant coordinate")


def _sample_points(rng, field, size):
    pts = []
    seen = set()

    def push(pt):
        if pt not in seen:
            seen.add(pt)
            pts.append(pt)

    if field.char() == 0:
        if rng.random() < 0.4:
            push(ProjPoint.infinity(field))
        while len(pts) < size:
            push(ProjPoint.affine(_random_constant(rng, field)))
    else:
        specials = [
            ProjPoint.infinity(field),
            ProjPoint.affine(field.zero()),
            ProjPoint.affine(field.one()),
        ]
        rng.shuffle(specials)
        # at most 3 constant coordinates, and always at least one
        # non-constant one, so twisting is never invisible
        for pt in specials[: rng.randint(0, min(3, size - 1))]:
            push(pt)
        while len(pts) < size:
            push(ProjPoint.affine(_random_function(rng, field)))
    rng.shuffle(pts)
    return tuple(pts)


def _random_mobius(rng, field):
    pool = [field.from_int(i) for i in (-2, -1, 0, 1, 2, 3)]
    if field.kind == "FpT":
        t = field.t()
        pool = pool + [t, t + field.one()]
    while True:
        entries = [rng.choice(pool) for _ in range(4)]
        if entries[0] * entries[3] != entries[1] * entries[2]:
            return MobiusMap(*entries)


def generate_scenario(field, size, seed=0, twist=0) -> Scenario:
    """Random scenario with known secret: sample E1 (retrying until the
    non-constant cross-ratio condition holds in char p), a random
    Mobius g, and set E2 = g(E1^(p^twist)) in shuffled order."""
    if size < 3:
        raise ValueError("size must be at least 3")
    if twist < 0:
        raise ValueError("twist must be nonnegative")
    if twist and field.char() == 0:
        raise ValueError("nonzero twist needs positive characteristic")
    check_twist(field, twist)
    rng = random.Random(seed)
    for _ in range(200):
        e1 = CuspSet(field, _sample_points(rng, field, size))
        if field.char() != 0 and not star_check(e1):
            continue
        g = _random_mobius(rng, field)
        images = [g.apply(twist_point(pt, twist)) for pt in e1.points]
        order = list(range(size))
        rng.shuffle(order)
        pts2 = [None] * size
        for i, j in enumerate(order):
            pts2[j] = images[i]
        return Scenario(field, e1, CuspSet(field, tuple(pts2)),
                        tuple(order), (g, twist))
    raise RuntimeError(
        "could not sample a cusp set meeting the cross-ratio condition"
    )


# --- reconstruction -------------------------------------------------------

def reconstruct_char0(s: Scenario) -> ReconstructionResult:
    """Recover f over Q or Q(rho): per extra cusp the two cross-ratios
    must agree up to the cyclic-subgroup test; a rho-pair verdict is
    reported as an ambiguity, a failed hypothesis is a rejection."""
    if s.field.char() != 0:
        raise ValueError("characteristic-zero scenarios only")
    ambiguity = None
    for i, lam1, lam2 in s.coordinates():
        verdict = decide_lambda_char0(lam1, lam2)
        if verdict == HYPOTHESIS_FAILS:
            raise ReconstructionError(i, "cyclic-hypothesis")
        if verdict == RHO_PAIR:
            ambiguity = RHO_PAIR
    return ReconstructionResult(0, 0, s.forced_map(0, 0), ambiguity)


def reconstruct_charp(s: Scenario) -> ReconstructionResult:
    """Recover (w1, w2, f) over F_p(t).

    Each extra cusp i yields, through the height test of
    decide_lambda_charp, the unique n_i with lam2_i = lam1_i^(p^n_i).
    Equal exponents n_i = n make the two normalizing maps agree after
    twisting, so the pairing is realizable; the first cusp whose
    exponent differs from n_3 is rejected.  Twists are (n, 0) for
    n >= 0, else (0, -n) (no twist for size 3), and f is forced by the
    twisted base triples.
    """
    if s.field.char() == 0:
        raise ValueError("positive-characteristic scenarios only")
    # E1 carries the decision data; any E2 matching some twisted map
    # inherits the condition, and one that matches none is rejected by
    # the per-cusp decisions below
    if not star_check(s.e1):
        raise ValueError(
            "E1 must satisfy the non-constant cross-ratio condition"
        )
    n = 0
    for i, lam1, lam2 in s.coordinates():
        n_i = decide_lambda_charp(lam1, lam2)
        if n_i is None:
            raise ReconstructionError(i, "no-exponent")
        if i == 3:
            n = n_i
        elif n_i != n:
            raise ReconstructionError(i, "exponent-mismatch", (n, n_i))
    w1, w2 = (n, 0) if n >= 0 else (0, -n)
    return ReconstructionResult(w1, w2, s.forced_map(w1, w2))


def reconstruct(s: Scenario) -> ReconstructionResult:
    if s.field.char() == 0:
        return reconstruct_char0(s)
    return reconstruct_charp(s)


def verify_reconstruction(s: Scenario, r: ReconstructionResult) -> bool:
    """Does r.f map E1^(p^w1) onto E2^(p^w2) pointwise along phi?
    Nonzero twists never verify in characteristic zero."""
    if s.field.char() == 0 and (r.w1 or r.w2):
        return False
    return s.maps_onto(r.f, r.w1, r.w2)


def _frobenius_exponent(cr1, cr2, p):
    # the d with cr2 = cr1^(p^d), positive sign only, else None
    d = solve_p_power(cr1, cr2, p)
    if d is None or d == "all":
        return None
    if d >= 0:
        return d if cr2 == frobenius(cr1, d) else None
    return d if frobenius(cr2, -d) == cr1 else None


def forced_map_realizable(s: Scenario) -> bool:
    """Reference decision, independent of the reconstruction pipeline:
    does any twisted Mobius map realize phi?

    The base-triple images force the map and each extra cusp forces the
    twist difference through its cross ratio, so phi is realizable
    exactly when all per-cusp Frobenius exponents exist and agree (in
    characteristic zero: when the cross ratios are equal on the nose).
    """
    exps = set()
    for _, cr1, cr2 in s.coordinates():
        if s.field.char() == 0:
            if cr1 != cr2:
                return False
            continue
        d = _frobenius_exponent(cr1, cr2, s.field.p)
        if d is None:
            return False
        exps.add(d)
    return len(exps) <= 1


# --- JSON serialization ---------------------------------------------------

def _point_to_json(pt):
    if pt.is_infinity():
        return "inf"
    a = pt.a
    if isinstance(a, FpTElem):
        return {
            "num": _poly_to_text(a.num, a.p),
            "den": _poly_to_text(a.den, a.p),
        }
    if isinstance(a, QElem):
        return {"num": str(a.value.numerator), "den": str(a.value.denominator)}
    return {"num": elem_to_text(a), "den": "1"}


def _point_from_json(field, data):
    if data == "inf":
        return ProjPoint.infinity(field)
    if not isinstance(data, dict) or "num" not in data or "den" not in data:
        raise ValueError('expected "inf" or an object with "num" and "den"')
    num = elem_from_text(field, str(data["num"]))
    den = elem_from_text(field, str(data["den"]))
    if den.is_zero():
        raise ValueError("zero denominator")
    return ProjPoint(num, den)


def _cusps_from_json(field, data, name):
    if not isinstance(data, list):
        raise ValueError("scenario field %r: expected a list of points" % name)
    pts = []
    for i, item in enumerate(data):
        try:
            pts.append(_point_from_json(field, item))
        except (ValueError, TypeError) as exc:
            raise ValueError(
                "scenario field %r, point %d: %s" % (name, i, exc)
            ) from None
    try:
        return CuspSet(field, tuple(pts))
    except ValueError as exc:
        raise ValueError("scenario field %r: %s" % (name, exc)) from None


_MOBIUS_KEYS = ("m00", "m01", "m10", "m11")


def mobius_to_json(f: MobiusMap) -> dict:
    return {k: elem_to_text(getattr(f, k)) for k in _MOBIUS_KEYS}


def scenario_to_json(s: Scenario) -> dict:
    out = {
        "field": s.field.to_json(),
        "E1": [_point_to_json(pt) for pt in s.e1.points],
        "E2": [_point_to_json(pt) for pt in s.e2.points],
        "phi": list(s.phi),
        "secret": None,
    }
    if s.secret is not None:
        g, n = s.secret
        out["secret"] = {"g": mobius_to_json(g), "n": n}
    return out


def scenario_from_json(data) -> Scenario:
    """Parse a scenario, raising ValueError naming the offending field."""
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    for key in ("field", "E1", "E2", "phi"):
        if key not in data:
            raise ValueError("missing scenario field %r" % key)
    try:
        field = FieldDesc.from_json(data["field"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError("scenario field 'field': %s" % exc) from None
    e1 = _cusps_from_json(field, data["E1"], "E1")
    e2 = _cusps_from_json(field, data["E2"], "E2")
    try:
        phi = tuple(json_int(i) for i in data["phi"])
    except (ValueError, TypeError) as exc:
        raise ValueError("scenario field 'phi': %s" % exc) from None
    secret = data.get("secret")
    if secret is not None:
        try:
            gd = secret["g"]
            g = MobiusMap(
                *(elem_from_text(field, str(gd[k])) for k in _MOBIUS_KEYS)
            )
            n = json_int(secret["n"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError("scenario field 'secret': %s" % exc) from None
        secret = (g, n)
    return Scenario(field, e1, e2, phi, secret)
