"""Seeded fuzzing of the command line's F_p(t) inputs: element texts for
`crossratio` and `kummer`, and generated scenario JSON for `reconstruct`;
then the exit codes of the bounds on `groupring --moduli`, `groupring
--mod`, `power-products --bound`, `verify power-products --bound`,
`verify --count` and `kummer --a/--b`.

Each case applies one mutation (a deleted, duplicated or inserted
character, a huge exponent, a `/0`, or an unbalanced parenthesis) to a
valid input and calls `cli.console_main` in-process.  Whatever the
mutation, the command must answer with exit code 0, 1 or 2: no
exception may escape.  The valid inputs have one-digit exponents, so a
mutated text has degree below 100 unless the mutation writes a huge
exponent, which the degree bound rejects."""

import json
import random

import pytest

from punctline import cli, multlattice
from punctline.crossratio import MAX_POWER_BITS
from punctline.fieldarith import MAX_DEGREE, MAX_FACTOR_BITS, fpt
from punctline.groupring import MAX_MODULUS, MAX_ORDER
from punctline.reconstruct import generate_scenario, scenario_to_json

PRIMES = (2, 3, 5, 7)
POOL = (
    "0", "1", "2", "inf", "t", "t+1", "t^2+t+1", "2*t^3+t", "(t)/(t^2+1)",
    "(t^3+1)/(t^2+t)", "t^5+t^2+1", "(2*t+1)/(t^4+t)", "-t^2", "t^7+3",
)
INSERTS = "t^*+-/()0123456789,. "
HUGE = (MAX_DEGREE + 1, 10**9, 10**40)


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(6)
    if kind == 0 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if kind == 1 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i] + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(INSERTS) + text[i:]
    if kind == 3:
        return text[:i] + "+t^%d" % rng.choice(HUGE) + text[i:]
    if kind == 4:
        return text[:i] + "/0" + text[i:]
    return text[:i] + rng.choice("()") + text[i:]


def run_quietly(capsys, argv):
    code = cli.console_main(argv)
    capsys.readouterr()
    return code


def test_crossratio_and_kummer_survive_mutated_texts(capsys):
    rng = random.Random(2024)
    codes = set()
    for _ in range(150):
        p = rng.choice(PRIMES)
        points = ",".join(rng.sample(POOL, 4))
        argv = ["crossratio", "--field=FpT:%d" % p, "--points=" + mutate(rng, points)]
        codes.add(run_quietly(capsys, argv))
    for _ in range(150):
        p = rng.choice(PRIMES)
        a, b = (rng.choice([x for x in POOL if x not in ("0", "inf")]) for _ in "ab")
        if rng.random() < 0.5:
            a = mutate(rng, a)
        else:
            b = mutate(rng, b)
        n = rng.choice((2, 3, 4, 5, 6))
        argv = ["kummer", "--field=FpT:%d" % p, "--n=%d" % n, "--a=" + a, "--b=" + b]
        codes.add(run_quietly(capsys, argv))
    assert codes <= {0, 1, 2}
    assert 2 in codes and codes & {0, 1}


def _string_slots(data):
    """(container, key) for every element text in a scenario."""
    slots = []
    for name in ("E1", "E2"):
        for pt in data[name]:
            if isinstance(pt, dict):
                slots.extend((pt, k) for k in ("num", "den"))
    g = data["secret"]["g"]
    slots.extend((g, k) for k in g)
    return slots


def test_reconstruct_survives_mutated_scenarios(tmp_path, capsys):
    """Mutations land in one element text, anywhere in the JSON text, or
    on the secret twist n."""
    rng = random.Random(1978)
    path = tmp_path / "scenario.json"
    codes = set()
    for case in range(150):
        p = rng.choice(PRIMES)
        # twist 1 only over F_2 and F_3, so exponents stay one digit
        twist = rng.randint(0, 1) if p <= 3 else 0
        data = scenario_to_json(
            generate_scenario(fpt(p), rng.randint(4, 6), seed=case, twist=twist)
        )
        where = case % 3
        if where == 0:
            holder, key = rng.choice(_string_slots(data))
            holder[key] = mutate(rng, holder[key])
            text = json.dumps(data)
        elif where == 1:
            text = mutate(rng, json.dumps(data))
        else:
            data["secret"]["n"] = rng.choice((-1, 17, 10**30, 1.5, "1", None, True))
            text = json.dumps(data)
        path.write_text(text)
        codes.add(run_quietly(capsys, ["reconstruct", "--input", str(path)]))
    assert codes <= {0, 1, 2}
    assert 2 in codes and 0 in codes


def test_groupring_moduli_bound_exit_codes(capsys, monkeypatch):
    """|A| up to MAX_ORDER is answered; beyond it the verb exits 2
    naming --moduli before any matrix exists."""
    assert MAX_ORDER == 1024
    for moduli in ("1024", "32,32"):
        argv = ["groupring", "--moduli", moduli, "--mod", "6", "--elem", "x^3-1"]
        assert run_quietly(capsys, argv) == 0, moduli

    def no_matrix(*args):
        pytest.fail("an over-bound order reached annihilator_basis")

    # with the bound gone, these would ask for up to 10^60 entries
    monkeypatch.setattr(cli, "annihilator_basis", no_matrix)
    for moduli in ("1025", "2,513", "32,33", "100000", "10,10,10,10", str(10**30)):
        argv = ["groupring", "--moduli", moduli, "--mod", "6", "--elem", "x^3-1"]
        assert cli.console_main(argv) == 2, moduli
        err = capsys.readouterr().err
        assert "--moduli %s" % moduli in err and "exceeds the bound 1024" in err


def test_groupring_mod_bound_exit_codes(capsys, monkeypatch):
    """M up to MAX_MODULUS is answered; beyond it the verb exits 2
    naming --mod before M is factored."""
    assert MAX_MODULUS == 2**16
    for mod in ("30030", "65536"):
        argv = ["groupring", "--moduli", "6", "--mod", mod, "--elem", "x^3-1"]
        assert run_quietly(capsys, argv) == 0, mod

    def no_kernel(*args):
        pytest.fail("an over-bound modulus reached annihilator_basis")

    # the semiprime (2^61 - 1)(2^89 - 1) kept Pollard rho busy past 10 s
    monkeypatch.setattr(cli, "annihilator_basis", no_kernel)
    semiprime = str((2**61 - 1) * (2**89 - 1))
    for mod in ("65537", "510510", semiprime, str(10**40)):
        argv = ["groupring", "--moduli", "2", "--mod", mod, "--elem", "x-1"]
        assert cli.console_main(argv) == 2, mod
        err = capsys.readouterr().err
        assert "--mod %s exceeds the bound 65536" % mod in err


def test_power_products_bound_exit_codes(capsys, monkeypatch):
    """bound * bit_length(p) up to MAX_POWER_BITS is solved; beyond it
    the verb exits 2 naming --bound before any power of p is built."""
    assert MAX_POWER_BITS == 2**15
    big = 2**64 - 59  # a 64-bit prime: 512 * 64 = 2^15
    for p, bound in ((3, 4000), (big, 512)):
        argv = ["power-products", "--p", str(p), "--x", "2", "--y", "5",
                "--bound", str(bound)]
        assert run_quietly(capsys, argv) == 0, (p, bound)

    def no_solve(*args):
        pytest.fail("an over-bound box reached power_product_solve")

    monkeypatch.setattr(cli, "power_product_solve", no_solve)
    for p, bound in ((3, 16385), (3, 20000), (big, 513), (2, 10**30)):
        argv = ["power-products", "--p", str(p), "--x", "2", "--y", "5",
                "--bound", str(bound)]
        assert cli.console_main(argv) == 2, (p, bound)
        err = capsys.readouterr().err
        assert "--bound %d: p^bound may exceed 32768 bits" % bound in err


def test_verify_power_products_bound_exit_codes(capsys, monkeypatch):
    """The sweep takes bound * bit_length(p) up to MAX_SWEEP_BITS for
    every prime it sweeps (2, 3, 5 and 7 without --p); beyond it it
    exits 2 naming --bound before the first solve."""
    assert cli.MAX_SWEEP_BITS == 48
    assert run_quietly(capsys, ["verify", "power-products"]) == 0  # bound 6
    # the table is still built and checked, the solver answers from it
    monkeypatch.setattr(
        cli, "power_product_solve", lambda q, x, y, bound: {(x, y), (y, x)}
    )
    for argv in (["--p", "3", "--bound", "24"], ["--bound", "16"],
                 ["--p", str(2**31 - 1), "--bound", "1"]):
        assert run_quietly(capsys, ["verify", "power-products"] + argv) == 0, argv

    def no_solve(*args):
        pytest.fail("an over-bound box reached power_product_solve")

    monkeypatch.setattr(cli, "power_product_solve", no_solve)
    for argv in (["--p", "3", "--bound", "25"], ["--bound", "17"],
                 ["--p", str(2**31 - 1), "--bound", "2"],
                 ["--p", str(2**61 - 1), "--bound", "1"]):
        assert cli.console_main(["verify", "power-products"] + argv) == 2, argv
        err = capsys.readouterr().err
        assert "--bound %s: bound * bit_length(p) exceeds 48" % argv[-1] in err


def test_kummer_factorization_bound_exit_codes(capsys, monkeypatch):
    """Each of --a and --b is answered while the norms of its numerator
    and denominator stay within MAX_FACTOR_BITS (64 bits over Q and
    Q(rho), deg * bit_length(p) up to 256 over F_p(t)); beyond it the
    verb exits 2 naming the flag before anything is factored."""
    assert MAX_FACTOR_BITS == {"Q": 64, "QRho": 64, "FpT": 256}
    at_bound = (
        ("Q", str(2**64 - 1)),
        ("Q", "1/%d" % (2**64 - 1)),
        ("QRho", str(2**32 - 1)),  # norm (2^32 - 1)^2
        ("QRho", "1000000009"),  # a prime = 1 (mod 3), norm of 60 bits
        ("QRho", "1/%d+1/%d*rho" % (2**32 - 1, 2**32 - 1)),
        ("FpT:2", "t^128+t+1"),
        ("FpT:3", "(t+1)/(t^128+2)"),
        ("FpT:%d" % (2**61 - 1), "t^4+1"),
    )
    def partner(field):
        return "t+1" if field.startswith("FpT") else "2"

    for field, a in at_bound:
        argv = ["kummer", "--field", field, "--n", "5", "--a", a, "--b", partner(field)]
        assert run_quietly(capsys, argv) in (0, 1), argv

    def no_factorize(a):
        pytest.fail("an over-bound element reached factorize")

    monkeypatch.setattr(multlattice, "factorize", no_factorize)
    semiprime = str((2**61 - 1) * (2**89 - 1))
    over_bound = (
        ("Q", semiprime),
        ("Q", str(2**64)),
        ("Q", "1/%d" % 2**64),
        ("QRho", str(2**32)),  # norm 2^64
        ("QRho", "1/%d*rho" % 2**32),
        ("QRho", "%d*rho" % 2**40),
        ("FpT:2", "t^129+t+1"),
        ("FpT:2", "t^250+t+1"),
        ("FpT:3", "(1)/(t^129+2)"),
        ("FpT:%d" % (2**61 - 1), "t^5+1"),
    )
    for field, text in over_bound:
        other = partner(field)
        for flag, a, b in (("--a", text, other), ("--b", other, text)):
            argv = ["kummer", "--field", field, "--n", "5", "--a", a, "--b", b]
            assert cli.console_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "%s: a norm of its numerator or denominator exceeds" % flag in err
            bound = MAX_FACTOR_BITS[field.split(":")[0]]
            assert "the bound of %d bits over %s" % (bound, field) in err


def test_verify_count_bound_exit_codes(capsys, monkeypatch):
    """Each counted sweep takes --count up to its MAX_COUNT; beyond it
    verify exits 2 naming --count and the bound before the sweep runs.
    The sweep bodies are stubbed: only the exit codes are checked."""
    assert cli.MAX_COUNT == {
        "fox-identity": 100000, "roundtrip": 5000, "twist-uniqueness": 10000,
        "rho-pair": 200000, "negative-soundness": 25000,
    }
    counted = {name for name, (_, accepted) in cli._SWEEPS.items() if "count" in accepted}
    assert counted == set(cli.MAX_COUNT)
    ran = []

    def stub(name):
        return lambda rng, count: (ran.append((name, count)), (count, None))[1]

    for name in counted:
        monkeypatch.setitem(cli._SWEEPS, name, (stub(name), cli._SWEEPS[name][1]))
    for name, bound in cli.MAX_COUNT.items():
        assert run_quietly(capsys, ["verify", name, "--count", str(bound)]) == 0, name
        for count in (bound + 1, 10**6, 10**30):
            assert cli.console_main(["verify", name, "--count", str(count)]) == 2, name
            err = capsys.readouterr().err
            assert "--count %d exceeds the bound %d" % (count, bound) in err
    assert ran == list(cli.MAX_COUNT.items())
