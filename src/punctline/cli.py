"""Command-line front end and property sweeps.

Verbs fall in two groups: one-shot queries (``fox``, ``crossratio``,
``kummer``, ``power-products``, ``star-check``, ``groupring``,
``generate``, ``reconstruct``) and randomized or exhaustive property
sweeps under ``verify``.  Every sweep is also callable in-process
through :func:`run_sweep`, which the test suite reuses.

Exit codes: 0 when the request succeeds or the property holds, 1 when a
property is violated, a reconstruction is rejected, or a yes/no query
answers no, 2 on usage errors (bad flags, malformed input files).
"""

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .crossratio import (
    MAX_POWER_BITS,
    CuspSet,
    EQUAL,
    HYPOTHESIS_FAILS,
    ProjPoint,
    RHO_PAIR,
    cross_ratio,
    decide_lambda_char0,
    power_product_solve,
    star_check,
)
from .fieldarith import (
    MAX_FACTOR_BITS,
    FieldDesc,
    elem_from_text,
    elem_to_text,
    factor_bits,
    frobenius,
    is_constant,
)
from .freegroup import (
    ALPHABET,
    CurvePresentation,
    abelianization_rank,
    abelianize,
    inertia_abelian_independence,
    parse_word,
    reduce,
    word_text,
)
from .groupring import (
    MAX_MODULUS,
    MAX_ORDER,
    AbelianShape,
    GroupRingElem,
    annihilator_basis,
    elem_text,
    gamma_splitting,
    limit_regularity_check,
    parse_elem,
    term_text,
)
from .magnusfox import (
    bl_kernel_check,
    derivative_vector,
    fundamental_identity_check,
)
from .multlattice import KummerInvariant, cyclic_equal, kummer_equal
from .reconstruct import (
    ReconstructionError,
    Scenario,
    forced_map_realizable,
    generate_scenario,
    mobius_to_json,
    reconstruct,
    scenario_from_json,
    scenario_to_json,
    verify_reconstruction,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_SEED = 1729

_SWEEP_FIELDS = ("Q", "QRho", "FpT:2", "FpT:5")


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one property sweep: case count and first failure."""

    name: str
    cases: int
    violations: int
    counterexample: str = None

    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        word = "violation" if self.violations == 1 else "violations"
        return "%s: %d cases, %d %s" % (
            self.name,
            self.cases,
            self.violations,
            word,
        )

    def to_json(self) -> dict:
        return {"property": self.name, "cases": self.cases,
                "violations": self.violations, "counterexample": self.counterexample}


# ---------------------------------------------------------------------------
# sweeps


# The largest bound * bit_length(p) the power-products sweep takes for
# each prime it sweeps: its (2 bound)^2 solves of 2 bound steps each took
# 0.77 s at p = 3, bound = 24 and 0.9 s over the four default primes at
# bound = 16, where bound = 32 took 1.8 s at p = 3 (2-core VM).
MAX_SWEEP_BITS = 48


def _sweep_power_products(rng, p=None, bound=6):
    """Product of (p^x - 1)(p^y - 1) determines {x, y}: compare the
    solver against a table of all products over the box."""
    primes = (2, 3, 5, 7) if p is None else (p,)
    if bound * max(q.bit_length() for q in primes) > MAX_SWEEP_BITS:
        raise ValueError(
            "--bound %d: bound * bit_length(p) exceeds %d" % (bound, MAX_SWEEP_BITS)
        )
    cases = 0
    for q in primes:
        box = [e for e in range(-bound, bound + 1) if e]
        value = {}
        by_value = {}
        for x in box:
            for y in box:
                v = (Fraction(q) ** x - 1) * (Fraction(q) ** y - 1)
                value[(x, y)] = v
                by_value.setdefault(v, set()).add((x, y))
        for x in box:
            for y in box:
                cases += 1
                expected = by_value[value[(x, y)]]
                if expected != {(x, y), (y, x)}:
                    return cases, (
                        "p=%d (x,y)=(%d,%d): product shared by %s"
                        % (q, x, y, sorted(expected))
                    )
                got = power_product_solve(q, x, y, bound)
                if got != expected:
                    return cases, (
                        "p=%d (x,y)=(%d,%d): solver gave %s, table %s"
                        % (q, x, y, sorted(got), sorted(expected))
                    )
    return cases, None


def _sweep_fox_identity(rng, count=1000, max_len=20, max_rank=3):
    """Fundamental identity on random words, and kernel membership of
    the derivative vector iff the abelianization is trivial."""
    cases = 0
    for _ in range(count):
        rank = rng.randint(1, max_rank)
        raw = [
            (rng.randint(1, rank), rng.randint(-3, 3))
            for _ in range(rng.randint(0, max_len))
        ]
        w = reduce(raw)
        cases += 1
        if not fundamental_identity_check(w, rank):
            return cases, "identity fails for %s" % (word_text(w) or "1")
        derivs = derivative_vector(w, rank)
        trivial = abelianize(w, rank) == (0,) * rank
        if bl_kernel_check(derivs) != trivial:
            return cases, (
                "kernel membership disagrees with abelianization for %s"
                % (word_text(w) or "1")
            )
    return cases, None


def _sweep_limit_regularity(rng, n_max=4, m_max=8, mp_max=8, k_max=6):
    """x^n - 1 stays regular in the limit over the whole truncation
    box: every annihilator generator lands in k * (Z/M)[Z/m']."""
    cases = 0
    for n in range(1, n_max + 1):
        for m_prime in range(n, mp_max + 1, n):
            for big_m in range(2, m_max + 1):
                for k in range(1, k_max + 1):
                    cases += 1
                    if not limit_regularity_check(n, big_m, m_prime, k):
                        return cases, "n=%d M=%d m'=%d k=%d" % (
                            n,
                            big_m,
                            m_prime,
                            k,
                        )
    return cases, None


def _sweep_gamma_annihilator(rng, max_order=30, modulus=6):
    """Splitting exponents: for every cyclic shape with at least two
    prime factors, x^gamma - 1 is a nonzero element with nonzero
    annihilator."""
    cases = 0
    for n in range(2, max_order + 1):
        primes = [q for q in (2, 3, 5, 7, 11, 13) if n % q == 0]
        if len(primes) < 2:
            continue
        shape = AbelianShape((n,))
        for q in primes:
            gamma = gamma_splitting(n, q)
            a = GroupRingElem.monomial(shape, modulus, gamma)
            a = a - GroupRingElem.one(shape, modulus)
            cases += 1
            if a.is_zero():
                return cases, "n=%d p=%d: x^gamma - 1 vanished" % (n, q)
            basis = annihilator_basis(shape, modulus, a)
            if not basis:
                return cases, "n=%d p=%d: annihilator is zero" % (n, q)
    return cases, None


def _roundtrip_grid(i):
    # three cusps force a map at any twist, so twist information only
    # exists from size 4 up; the grid pins size 3 to twist 0
    size = 3 + i % 5
    twist = 0 if size == 3 else i % 4
    return size, twist


def _sweep_roundtrip(rng, count=200, fields=_SWEEP_FIELDS):
    """Generated scenarios reconstruct, verify, and recover the secret
    twist difference exactly, over all supported fields."""
    cases = 0
    for text in fields:
        fld = FieldDesc.from_text(text)
        for i in range(count):
            size, twist = _roundtrip_grid(i)
            if fld.char() == 0:
                twist = 0
            s = generate_scenario(
                fld, size, seed=rng.randrange(10**9), twist=twist
            )
            cases += 1
            tag = "field=%s size=%d twist=%d" % (text, size, twist)
            try:
                r = reconstruct(s)
            except ReconstructionError as exc:
                return cases, "%s: rejected (%s)" % (tag, exc)
            if r.ambiguity is not None:
                return cases, "%s: unexpected ambiguity" % tag
            if not verify_reconstruction(s, r):
                return cases, "%s: result fails verification" % tag
            if r.twist_difference() != twist:
                return cases, "%s: recovered twist %d" % (
                    tag,
                    r.twist_difference(),
                )
    return cases, None


def _twist_relation_holds(coords, delta):
    for _, cr1, cr2 in coords:
        if delta >= 0:
            if cr2 != frobenius(cr1, delta):
                return False
        elif cr1 != frobenius(cr2, -delta):
            return False
    return True


def _sweep_twist_uniqueness(rng, count=20, delta_bound=4):
    """The Frobenius twist relation between matched cross-ratios holds
    at the secret twist and, when some coordinate actually moves, at no
    other exponent in the window."""
    cases = 0
    for i in range(count):
        fld = FieldDesc.from_text(("FpT:2", "FpT:5")[i % 2])
        size = 4 + i % 4
        twist = i % 4
        s = generate_scenario(
            fld, size, seed=rng.randrange(10**9), twist=twist
        )
        coords = list(s.coordinates())
        pinned = any(not is_constant(cr1) for _, cr1, _ in coords)
        for delta in range(-delta_bound, delta_bound + 1):
            cases += 1
            holds = _twist_relation_holds(coords, delta)
            want = delta == twist
            if holds != want and (pinned or want):
                return cases, (
                    "field=%s size=%d twist=%d delta=%d: relation %s"
                    % (
                        fld.to_text(),
                        size,
                        twist,
                        delta,
                        "holds" if holds else "fails",
                    )
                )
    return cases, None


def _random_lambda(rng, field):
    # an element outside {0, 1}; over Q(rho) a sixth root of unity one
    # time in four, so that the pair {rho, 1/rho} comes up
    while True:
        lam = field.from_int(rng.randint(-40, 40)) / field.from_int(rng.randint(1, 12))
        if field.kind == "QRho":
            rho = field.rho()
            if rng.random() < 0.25:
                lam = rho ** rng.randint(1, 5)
            else:
                lam = lam + field.from_int(rng.randint(-3, 3)) * rho
        if not lam.is_zero() and lam != field.one():
            return lam


def _sweep_rho_pair(rng, count=1000):
    """Near-rigidity against the paper's hypotheses <lam1> = <lam2> and
    <1-lam1> = <1-lam2>, each checked by cyclic_equal.  Over Q and
    Q(rho), with lam2 equal to lam1, drawn from its anharmonic orbit or
    at random, the verdict fails the hypotheses exactly when they fail
    and is EQUAL exactly when lam1 = lam2."""
    qrho = FieldDesc.from_text("QRho")
    rho = qrho.rho()
    cases = 1
    if decide_lambda_char0(rho, rho.inverse()) != RHO_PAIR:
        return cases, "(rho, 1/rho) not classified as the special pair"
    fields = (FieldDesc.from_text("Q"), qrho)
    for _ in range(count):
        field = rng.choice(fields)
        one = field.one()
        lam1 = _random_lambda(rng, field)
        draw = rng.randrange(3)
        if draw == 0:
            lam2 = lam1
        elif draw == 1:
            lam2 = rng.choice((
                lam1.inverse(), one - lam1, (one - lam1).inverse(),
                (lam1 - one) / lam1, lam1 / (lam1 - one),
            ))
        else:
            lam2 = _random_lambda(rng, field)
        cases += 1
        holds = cyclic_equal(lam1, lam2) and cyclic_equal(one - lam1, one - lam2)
        verdict = decide_lambda_char0(lam1, lam2)
        if (verdict != HYPOTHESIS_FAILS) != holds or (verdict == EQUAL) != (
            lam1 == lam2
        ):
            return cases, "lam1=%s lam2=%s: %s, hypotheses %s" % (
                elem_to_text(lam1),
                elem_to_text(lam2),
                verdict,
                "hold" if holds else "fail",
            )
    return cases, None


def _corrupt_phi(rng, s):
    size = s.size()
    perm = list(range(size))
    while all(perm[j] == j for j in range(size)):
        rng.shuffle(perm)
    phi = tuple(perm[s.phi[i]] for i in range(size))
    return Scenario(s.field, s.e1, s.e2, phi)


def _sweep_negative_soundness(rng, count=100):
    """Corrupted pairings never slip through: an unrealizable pairing is
    rejected or fails verification, and a corruption that happens to be
    realizable is still handled correctly."""
    cases = 0
    attempts = 0
    while cases < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("could not build enough unrealizable pairings")
        fld = FieldDesc.from_text(_SWEEP_FIELDS[attempts % 4])
        size = rng.randint(4, 6)
        twist = 0 if fld.char() == 0 else rng.randint(0, 2)
        s = generate_scenario(
            fld, size, seed=rng.randrange(10**9), twist=twist
        )
        bad = _corrupt_phi(rng, s)
        tag = "field=%s size=%d" % (fld.to_text(), size)
        if forced_map_realizable(bad):
            # the corruption built another honest pairing by accident;
            # it must go through cleanly, but it is not a negative case
            try:
                r = reconstruct(bad)
            except ReconstructionError as exc:
                return cases + 1, "%s: realizable pairing rejected (%s)" % (
                    tag,
                    exc,
                )
            if not verify_reconstruction(bad, r):
                return cases + 1, (
                    "%s: realizable pairing fails verification" % tag
                )
            continue
        cases += 1
        try:
            r = reconstruct(bad)
        except ReconstructionError:
            continue
        if verify_reconstruction(bad, r):
            return cases, "%s: corrupted pairing accepted" % tag
    return cases, None


def _sweep_presentation_rank(rng, g_max=5, r_max=8):
    """Abelianization rank 2g + r - 1 for punctured curves (2g for
    r = 0), and inertia independence exactly from three punctures."""
    cases = 0
    for g in range(g_max + 1):
        for r in range(r_max + 1):
            pres = CurvePresentation(g, r)
            want = 2 * g + r - 1 if r >= 1 else 2 * g
            cases += 1
            if abelianization_rank(pres) != want:
                return cases, "g=%d r=%d: rank %d, expected %d" % (
                    g,
                    r,
                    abelianization_rank(pres),
                    want,
                )
            if r >= 2:
                cases += 1
                if inertia_abelian_independence(pres) != (r >= 3):
                    return cases, "g=%d r=%d: independence %s" % (
                        g,
                        r,
                        inertia_abelian_independence(pres),
                    )
    return cases, None


_SWEEPS = {
    "power-products": (_sweep_power_products, ("p", "bound")),
    "fox-identity": (_sweep_fox_identity, ("count", "max_len", "max_rank")),
    "limit-regularity": (
        _sweep_limit_regularity,
        ("n_max", "m_max", "mp_max", "k_max"),
    ),
    "gamma-annihilator": (_sweep_gamma_annihilator, ("max_order", "modulus")),
    "roundtrip": (_sweep_roundtrip, ("count", "fields")),
    "twist-uniqueness": (_sweep_twist_uniqueness, ("count", "delta_bound")),
    "rho-pair": (_sweep_rho_pair, ("count",)),
    "negative-soundness": (_sweep_negative_soundness, ("count",)),
    "presentation-rank": (_sweep_presentation_rank, ("g_max", "r_max")),
}

SWEEP_NAMES = tuple(_SWEEPS) + ("all",)

# The largest --count of each counted sweep: 30-40 s of work at the
# per-unit times of a 2-core VM (fox-identity 0.29 ms, roundtrip 7.8 ms,
# twist-uniqueness 3.7 ms, rho-pair 0.18 ms, negative-soundness 1.4 ms).
MAX_COUNT = {"fox-identity": 100000, "roundtrip": 5000, "twist-uniqueness": 10000,
             "rho-pair": 200000, "negative-soundness": 25000}


def _run_all(seed):
    """Run every sweep; return the per-sweep results and their total, which
    counts each failing sweep as one violation and quotes the first."""
    results = [run_sweep(name, seed=seed) for name in _SWEEPS]
    bad = [r for r in results if not r.ok()]
    counterexample = (
        "%s: %s" % (bad[0].name, bad[0].counterexample) if bad else None
    )
    total = SweepResult("all", sum(r.cases for r in results), len(bad), counterexample)
    return results, total


def run_sweep(name: str, seed: int = DEFAULT_SEED, **params) -> SweepResult:
    """Run one named property sweep (or 'all') and report its outcome.

    Unknown parameters for the chosen sweep raise ValueError; an empty
    box (count or bound of zero) is a trivial success with zero cases.
    """
    if name == "all":
        if params:
            raise ValueError("'all' does not accept sweep parameters")
        return _run_all(seed)[1]
    if name not in _SWEEPS:
        raise ValueError(
            "unknown property %r; choose from %s"
            % (name, ", ".join(SWEEP_NAMES))
        )
    func, accepted = _SWEEPS[name]
    for key in params:
        if key not in accepted:
            raise ValueError(
                "parameter %r does not apply to sweep %r" % (key, name)
            )
    if "count" in params and params["count"] > MAX_COUNT[name]:
        raise ValueError("--count %d exceeds the bound %d of sweep %r"
                         % (params["count"], MAX_COUNT[name], name))
    rng = random.Random(seed)
    cases, counterexample = func(rng, **params)
    return SweepResult(
        name, cases, 0 if counterexample is None else 1, counterexample
    )


# ---------------------------------------------------------------------------
# text rendering


def laurent_text(a) -> str:
    """Render a multivariate Laurent element with the word alphabet.

    Positive terms come first so the common small values read
    naturally: 1 - y, x - 1, x^-1 - 1.
    """
    if a.is_zero():
        return "0"
    keys = sorted(a.coeffs, key=lambda k: (a.coeffs[k] < 0, k))
    parts = []
    for key in keys:
        c = a.coeffs[key]
        body = term_text(abs(c), key)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _lin_text(a, b) -> str:
    # a*x + b, dropping zero pieces and unit coefficients
    if a.is_zero():
        return elem_to_text(b)
    head = "x" if a == a.field.one() else "(%s)*x" % elem_to_text(a)
    if b.is_zero():
        return head
    return "%s + (%s)" % (head, elem_to_text(b))


def mobius_text(f) -> str:
    num = _lin_text(f.m00, f.m01)
    den = _lin_text(f.m10, f.m11)
    if den == "1":
        return num
    return "(%s) / (%s)" % (num, den)


def _parse_points(field, text):
    pts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "inf":
            pts.append(ProjPoint.infinity(field))
        else:
            pts.append(ProjPoint.affine(elem_from_text(field, chunk)))
    return pts


# ---------------------------------------------------------------------------
# verb handlers


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args) -> int:
    params = {key: getattr(args, key) for key in ("p", "bound", "count")
              if getattr(args, key) is not None}
    if args.property == "all" and not params:
        results, total = _run_all(args.seed)
        if args.json:
            payload = total.to_json()
            payload["sweeps"] = [r.to_json() for r in results]
            print(json.dumps(payload))
        else:
            for r in results:
                print(r.line())
            print(total.line())
        return EXIT_OK if total.ok() else EXIT_VIOLATION
    res = run_sweep(args.property, seed=args.seed, **params)
    lines = [res.line()]
    if res.counterexample is not None:
        lines.append("counterexample: %s" % res.counterexample)
    _emit(args, res.to_json(), lines)
    return EXIT_OK if res.ok() else EXIT_VIOLATION


def _cmd_generate(args) -> int:
    field = FieldDesc.from_text(args.field)
    s = generate_scenario(field, args.size, seed=args.seed, twist=args.twist)
    print(json.dumps(scenario_to_json(s)))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            raw = handle.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError("input is not valid JSON: %s" % exc)
    s = scenario_from_json(data)
    try:
        r = reconstruct(s)
    except ReconstructionError as exc:
        payload = {
            "accepted": False,
            "reason": str(exc),
            "cusp": exc.cusp,
            "code": exc.reason,
            "exponents": list(exc.exponents),
        }
        _emit(args, payload, ["rejected: %s" % exc])
        return EXIT_VIOLATION
    verified = verify_reconstruction(s, r)
    payload = {
        "accepted": True,
        "verified": verified,
        "w1": r.w1,
        "w2": r.w2,
        "twist_difference": r.twist_difference(),
        "f": mobius_to_json(r.f),
        "ambiguity": r.ambiguity,
    }
    lines = [
        "w1=%d w2=%d (twist difference %d)" % (r.w1, r.w2, r.twist_difference()),
        "f: x -> %s" % mobius_text(r.f),
        "verified: %s" % ("true" if verified else "false"),
    ]
    if r.ambiguity is not None:
        lines.append("ambiguity: %s" % r.ambiguity)
    _emit(args, payload, lines)
    return EXIT_OK if verified else EXIT_VIOLATION


def _cmd_fox(args) -> int:
    w = parse_word(args.word)
    rank = args.rank
    if rank is None:
        rank = max(w.max_generator(), 1)
    derivs = derivative_vector(w, rank)
    identity = fundamental_identity_check(w, rank)
    payload = {
        "word": word_text(w),
        "rank": rank,
        "derivatives": [laurent_text(d) for d in derivs],
        "identity": identity,
    }
    lines = [
        "d/d%s: %s" % (ALPHABET[i], laurent_text(d))
        for i, d in enumerate(derivs)
    ]
    lines.append("identity: %s" % ("true" if identity else "false"))
    _emit(args, payload, lines)
    return EXIT_OK if identity else EXIT_VIOLATION


def _cmd_groupring(args) -> int:
    moduli = tuple(int(m) for m in args.moduli.split(","))
    shape = AbelianShape(moduli)
    if shape.order() > MAX_ORDER:
        raise ValueError(
            "--moduli %s: the group order %d exceeds the bound %d"
            % (args.moduli, shape.order(), MAX_ORDER)
        )
    if args.mod > MAX_MODULUS:
        raise ValueError("--mod %d exceeds the bound %d" % (args.mod, MAX_MODULUS))
    a = parse_elem(shape, args.mod, args.elem)
    basis = annihilator_basis(shape, args.mod, a)
    payload = {
        "moduli": list(moduli),
        "mod": args.mod,
        "elem": elem_text(a),
        "annihilator": [elem_text(g) for g in basis],
    }
    lines = ["annihilator generators: %d" % len(basis)]
    lines.extend(elem_text(g) for g in basis)
    _emit(args, payload, lines)
    return EXIT_OK if basis else EXIT_VIOLATION


def _cmd_kummer(args) -> int:
    field = FieldDesc.from_text(args.field)
    a = elem_from_text(field, args.a)
    b = elem_from_text(field, args.b)
    bound = MAX_FACTOR_BITS[field.kind]
    for flag, x in (("--a", a), ("--b", b)):
        if factor_bits(x) > bound:
            raise ValueError(
                "%s: a norm of its numerator or denominator exceeds the "
                "bound of %d bits over %s" % (flag, bound, field.to_text())
            )
    equal = kummer_equal(KummerInvariant(args.n, a), KummerInvariant(args.n, b))
    payload = {"n": args.n, "a": args.a, "b": args.b, "equal": equal}
    _emit(args, payload, ["equal" if equal else "different"])
    return EXIT_OK if equal else EXIT_VIOLATION


def _cmd_crossratio(args) -> int:
    field = FieldDesc.from_text(args.field)
    pts = _parse_points(field, args.points)
    if len(pts) != 4:
        raise ValueError("crossratio needs exactly 4 points, got %d" % len(pts))
    value = cross_ratio(pts[0], pts[1], pts[2], pts[3])
    _emit(args, {"value": elem_to_text(value)}, [elem_to_text(value)])
    return EXIT_OK


def _cmd_power_products(args) -> int:
    if args.bound * args.p.bit_length() > MAX_POWER_BITS:
        raise ValueError(
            "--bound %d: p^bound may exceed %d bits" % (args.bound, MAX_POWER_BITS)
        )
    solutions = sorted(power_product_solve(args.p, args.x, args.y, args.bound))
    payload = {"solutions": [list(s) for s in solutions]}
    lines = ["(%d, %d)" % s for s in solutions]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_star_check(args) -> int:
    field = FieldDesc.from_text(args.field)
    pts = _parse_points(field, args.points)
    holds = star_check(CuspSet(field, tuple(pts)))
    _emit(args, {"holds": holds}, ["holds" if holds else "fails"])
    return EXIT_OK if holds else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punctline",
        description="Exact-arithmetic toolkit for cusp-set reconstruction "
        "and free metabelian group invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable output"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized work (default %d)" % DEFAULT_SEED,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "verify", parents=[common], help="run a property sweep"
    )
    p.add_argument("property", help="one of: %s" % ", ".join(SWEEP_NAMES))
    p.add_argument("--p", type=int, default=None, help="restrict to one prime")
    p.add_argument("--bound", type=int, default=None, help="exponent box size")
    p.add_argument(
        "--count", type=int, default=None, help="randomized case count"
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser(
        "generate", parents=[common], help="emit a scenario as JSON"
    )
    p.add_argument("--field", required=True, help="Q, QRho, or FpT:p")
    p.add_argument("--size", type=int, required=True, help="number of cusps")
    p.add_argument(
        "--twist", type=int, default=0, help="secret twist exponent"
    )
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser(
        "reconstruct",
        parents=[common],
        help="reconstruct the twisted map from a scenario file",
    )
    p.add_argument(
        "--input", required=True, help="scenario JSON path, or - for stdin"
    )
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser(
        "fox", parents=[common], help="free derivatives of a word"
    )
    p.add_argument("--word", required=True, help="word text, e.g. xyXY")
    p.add_argument(
        "--rank", type=int, default=None, help="ambient rank (default: inferred)"
    )
    p.set_defaults(handler=_cmd_fox)

    p = sub.add_parser(
        "groupring",
        parents=[common],
        help="annihilator of an element of (Z/M)[A]",
    )
    p.add_argument(
        "--moduli", required=True, help="cyclic moduli, e.g. 6 or 4,2"
    )
    p.add_argument("--mod", type=int, required=True, help="coefficient modulus")
    p.add_argument("--elem", required=True, help="element text, e.g. x^3-1")
    p.set_defaults(handler=_cmd_groupring)

    p = sub.add_parser(
        "kummer",
        parents=[common],
        help="compare two Kummer layers over one field",
    )
    p.add_argument("--field", required=True, help="Q, QRho, or FpT:p")
    p.add_argument("--n", type=int, required=True, help="Kummer layer")
    p.add_argument("--a", required=True, help="first element")
    p.add_argument("--b", required=True, help="second element")
    p.set_defaults(handler=_cmd_kummer)

    p = sub.add_parser(
        "crossratio", parents=[common], help="cross-ratio of four points"
    )
    p.add_argument("--field", required=True, help="Q, QRho, or FpT:p")
    p.add_argument(
        "--points", required=True, help="comma-separated points; inf allowed"
    )
    p.set_defaults(handler=_cmd_crossratio)

    p = sub.add_parser(
        "power-products",
        parents=[common],
        help="solve (p^x - 1)(p^y - 1) = (p^x2 - 1)(p^y2 - 1) in a box",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(handler=_cmd_power_products)

    p = sub.add_parser(
        "star-check",
        parents=[common],
        help="non-isotriviality: no four cusps with a constant cross-ratio",
    )
    p.add_argument("--field", required=True, help="FpT:p")
    p.add_argument(
        "--points", required=True, help="comma-separated points; inf allowed"
    )
    p.set_defaults(handler=_cmd_star_check)

    return parser


def console_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReconstructionError as exc:
        print("rejected: %s" % exc, file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(console_main())
