"""Command-line surface: exit codes, output formats, sweep plumbing."""

import json

import pytest

from punctline import cli
from punctline.cli import (
    SweepResult,
    console_main,
    laurent_text,
    mobius_text,
    run_sweep,
)
from punctline.crossratio import MobiusMap
from punctline.fieldarith import MAX_DEGREE, FieldDesc
from punctline.groupring import AbelianShape, parse_elem
from punctline.magnusfox import LaurentElem
from punctline.reconstruct import (
    Scenario,
    forced_map_realizable,
    generate_scenario,
    scenario_from_json,
    scenario_to_json,
)

F2T = FieldDesc.from_text("FpT:2")


def run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fox_text_output(capsys):
    code, out, _ = run(capsys, "fox", "--word", "xyXY", "--rank", "2")
    assert code == 0
    assert out.splitlines() == ["d/dx: 1 - y", "d/dy: x - 1", "identity: true"]


def test_fox_json_output_and_inferred_rank(capsys):
    code, out, _ = run(capsys, "fox", "--word", "xyXY", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["derivatives"] == ["1 - y", "x - 1"]
    assert payload["identity"] is True


def test_fox_bad_word_is_usage_error(capsys):
    code, _, err = run(capsys, "fox", "--word", "x3y")
    assert code == 2
    assert "error" in err


def test_laurent_text_rendering():
    assert laurent_text(LaurentElem.zero(2)) == "0"
    assert laurent_text(LaurentElem(2, {(2, -1): 2})) == "2*x^2*y^-1"
    assert laurent_text(LaurentElem(1, {(0,): -3, (1,): 1})) == "x - 3"
    assert laurent_text(LaurentElem(1, {(-1,): 1, (0,): -1})) == "x^-1 - 1"


def test_mobius_text_rendering():
    one, zero = F2T.one(), F2T.zero()
    assert mobius_text(MobiusMap(one, zero, zero, one)) == "x"
    t = F2T.t()
    assert mobius_text(MobiusMap(one, t, t, one)) == "(x + (t)) / ((t)*x + (1))"


def test_verify_line_format(capsys):
    code, out, _ = run(capsys, "verify", "power-products", "--p", "3", "--bound", "2")
    assert code == 0
    assert out == "power-products: 16 cases, 0 violations\n"


def test_verify_unknown_property(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown property" in err


def test_verify_empty_boxes_trivially_pass(capsys):
    code, out, _ = run(capsys, "verify", "fox-identity", "--count", "0")
    assert code == 0
    assert "0 cases, 0 violations" in out
    code, out, _ = run(capsys, "verify", "power-products", "--bound", "0")
    assert code == 0
    assert "0 cases, 0 violations" in out


def test_verify_inapplicable_parameter(capsys):
    code, _, err = run(capsys, "verify", "rho-pair", "--bound", "3")
    assert code == 2
    assert "does not apply" in err


def test_run_sweep_results_are_seeded():
    a = run_sweep("fox-identity", seed=5, count=40)
    b = run_sweep("fox-identity", seed=5, count=40)
    assert a == b
    assert a.cases == 40 and a.ok()


def test_run_sweep_all_rejects_parameters():
    with pytest.raises(ValueError):
        run_sweep("all", count=5)


def fake_registry():
    def good(rng):
        return 3, None

    def bad(rng):
        return 2, "broken pair"

    return {"alpha": (good, ()), "beta": (bad, ())}


def test_all_aggregates_and_reports_first_counterexample(capsys):
    saved = cli._SWEEPS
    cli._SWEEPS = fake_registry()
    try:
        res = run_sweep("all")
        assert res.cases == 5
        assert res.violations == 1
        assert res.counterexample == "beta: broken pair"
        code, out, _ = run(capsys, "verify", "all")
        assert code == 1
        lines = out.splitlines()
        assert "alpha: 3 cases, 0 violations" in lines
        assert "beta: 2 cases, 1 violation" in lines
        assert lines[-1] == "all: 5 cases, 1 violation"
        # every sweep runs, also after a failing one
        registry = fake_registry()
        cli._SWEEPS = {
            "beta": registry["beta"],
            "alpha": registry["alpha"],
            "gamma": (lambda rng: (4, "gamma broke"), ()),
        }
        res = run_sweep("all")
        assert (res.cases, res.violations) == (9, 2)
        assert res.counterexample == "beta: broken pair"
        code, out, _ = run(capsys, "verify", "all", "--json")
        assert code == 1
        payload = json.loads(out)
        assert (payload["cases"], payload["violations"]) == (9, 2)
        assert payload["counterexample"] == "beta: broken pair"
    finally:
        cli._SWEEPS = saved


def test_verify_violation_prints_counterexample(capsys):
    saved = cli._SWEEPS
    cli._SWEEPS = fake_registry()
    try:
        code, out, _ = run(capsys, "verify", "beta")
        assert code == 1
        assert out.splitlines() == [
            "beta: 2 cases, 1 violation",
            "counterexample: broken pair",
        ]
    finally:
        cli._SWEEPS = saved


def test_sweep_result_line_pluralizes():
    assert SweepResult("x", 4, 0).line() == "x: 4 cases, 0 violations"
    assert SweepResult("x", 4, 1, "c").line() == "x: 4 cases, 1 violation"


def test_generate_is_deterministic_and_parses(capsys):
    argv = ("generate", "--field", "FpT:2", "--size", "4", "--twist", "1", "--seed", "7")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    s = scenario_from_json(json.loads(out1))
    assert s.size() == 4
    assert s.secret is not None and s.secret[1] == 1


def test_generate_rejects_char0_twist(capsys):
    code, _, err = run(capsys, "generate", "--field", "Q", "--size", "4", "--twist", "2")
    assert code == 2
    assert "error" in err


def test_reconstruct_roundtrip_via_file(tmp_path, capsys):
    s = generate_scenario(F2T, 4, seed=7, twist=1)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(s)))
    code, out, _ = run(capsys, "reconstruct", "--input", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True
    assert payload["verified"] is True
    assert (payload["w1"], payload["w2"]) == (1, 0)
    assert payload["twist_difference"] == 1


def test_reconstruct_text_output(tmp_path, capsys):
    s = generate_scenario(F2T, 5, seed=3, twist=0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(s)))
    code, out, _ = run(capsys, "reconstruct", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "w1=0 w2=0 (twist difference 0)"
    assert lines[1].startswith("f: x -> ")
    assert lines[2] == "verified: true"


def corrupted_scenario():
    for seed in range(80):
        s = generate_scenario(F2T, 5, seed=seed, twist=1)
        phi = list(s.phi)
        phi[3], phi[4] = phi[4], phi[3]
        bad = Scenario(s.field, s.e1, s.e2, tuple(phi))
        if not forced_map_realizable(bad):
            return bad
    raise AssertionError("no unrealizable corruption found")


def test_reconstruct_rejects_corrupted_pairing(tmp_path, capsys):
    bad = corrupted_scenario()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario_to_json(bad)))
    code, out, _ = run(capsys, "reconstruct", "--input", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["accepted"] is False or payload["verified"] is False


def test_reconstruct_rejection_names_cusp_and_code(tmp_path, capsys):
    cases = (
        ("Q", ("0", "inf", "1", "2"), ("0", "inf", "1", "3"),
         {"accepted": False,
          "reason": "cusp 3 breaks the cyclic-subgroup hypotheses",
          "cusp": 3, "code": "cyclic-hypothesis", "exponents": []}),
        ("FpT:3", ("0", "inf", "1", "t"), ("0", "inf", "1", "t+1"),
         {"accepted": False,
          "reason": "cusp 3 admits no Frobenius-twist exponent",
          "cusp": 3, "code": "no-exponent", "exponents": []}),
        # heights 1 and 2: no exponent, decided without a Frobenius of
        # p + 1 coefficients
        ("FpT:%d" % (2**61 - 1), ("0", "inf", "1", "t"), ("0", "inf", "1", "t^2"),
         {"accepted": False,
          "reason": "cusp 3 admits no Frobenius-twist exponent",
          "cusp": 3, "code": "no-exponent", "exponents": []}),
        ("FpT:2", ("0", "inf", "1", "t", "t+1"), ("0", "inf", "1", "t^2", "t+1"),
         {"accepted": False,
          "reason": "cusps 3 and 4 force twist exponents 1 and 0",
          "cusp": 4, "code": "exponent-mismatch", "exponents": [1, 0]}),
    )

    def point(text):
        return text if text == "inf" else {"num": text, "den": "1"}

    for field, e1, e2, want in cases:
        data = {
            "field": FieldDesc.from_text(field).to_json(),
            "E1": [point(x) for x in e1],
            "E2": [point(x) for x in e2],
            "phi": list(range(len(e1))),
        }
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "reconstruct", "--input", str(path), "--json")
        assert code == 1
        assert json.loads(out) == want
        code, out, _ = run(capsys, "reconstruct", "--input", str(path))
        assert code == 1
        assert out == "rejected: %s\n" % want["reason"]


def test_reconstruct_malformed_input_names_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"kind": "Q"}, "E2": [], "phi": []}')
    code, _, err = run(capsys, "reconstruct", "--input", str(path))
    assert code == 2
    assert "'E1'" in err
    path.write_text("not json at all")
    code, _, err = run(capsys, "reconstruct", "--input", str(path))
    assert code == 2
    assert "JSON" in err


def test_reconstruct_missing_file(capsys):
    code, _, err = run(capsys, "reconstruct", "--input", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_kummer_exit_codes(capsys):
    code, out, _ = run(capsys, "kummer", "--field", "Q", "--n", "3", "--a", "2", "--b", "16")
    assert code == 0 and out == "equal\n"
    code, out, _ = run(capsys, "kummer", "--field", "Q", "--n", "3", "--a", "2", "--b", "3")
    assert code == 1 and out == "different\n"
    code, _, err = run(capsys, "kummer", "--field", "Q", "--n", "4", "--a", "2", "--b", "3")
    assert code == 2
    # membership is solved by gcds in one unknown j mod n, so a huge n
    # costs no walk and no factorisation, even with two large prime factors
    for n in (1000001, 2**61 - 1, (2**61 - 1) * (2**89 - 1)):
        code, out, _ = run(capsys, "kummer", "--field", "Q", "--n", str(n), "--a", "2", "--b", "3")
        assert code == 1 and out == "different\n"
        code, out, _ = run(capsys, "kummer", "--field", "Q", "--n", str(n), "--a", "2", "--b", "8")
        assert code == 0 and out == "equal\n"
    code, _, err = run(capsys, "kummer", "--field", "QRho", "--n", "3", "--a", "rho5", "--b", "rho")
    assert code == 2 and "'rho5'" in err
    # a zero denominator is a usage error naming the text, not a traceback
    for field in ("Q", "QRho", "FpT:2"):
        code, _, err = run(capsys, "kummer", "--field", field, "--n", "3", "--a", "1/0", "--b", "2")
        assert code == 2 and "'1/0'" in err


def test_fpt_degree_bounds_are_usage_errors(tmp_path, capsys):
    """A text exponent or a twist p^n beyond MAX_DEGREE exits 2 with a
    message naming the field and the bound, before anything is built."""
    points = "0,inf,1,t^%d+1" % (MAX_DEGREE + 1)
    code, _, err = run(capsys, "crossratio", "--field", "FpT:2", "--points", points)
    assert code == 2 and "FpT:2" in err and str(MAX_DEGREE) in err
    for field, twist in (("FpT:2", 17), ("FpT:2", 10**30), ("FpT:3", 11)):
        code, _, err = run(
            capsys, "generate", "--field", field, "--size", "4", "--twist", str(twist)
        )
        assert code == 2 and field in err and str(MAX_DEGREE) in err
    data = scenario_to_json(generate_scenario(F2T, 4, seed=7, twist=1))
    data["secret"]["n"] = 17
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "reconstruct", "--input", str(path))
    assert code == 2 and "FpT:2" in err and str(MAX_DEGREE) in err


def test_crossratio_verb(capsys):
    code, out, _ = run(capsys, "crossratio", "--field", "FpT:5", "--points", "0,inf,1,t")
    assert code == 0 and out == "t\n"
    code, out, _ = run(capsys, "crossratio", "--field", "Q", "--points", "0,inf,1,1/2")
    assert code == 0 and out == "1/2\n"
    code, _, err = run(capsys, "crossratio", "--field", "Q", "--points", "0,inf,1")
    assert code == 2
    assert "4 points" in err
    code, _, err = run(capsys, "crossratio", "--field", "Q", "--points", "0,inf,1,1/0")
    assert code == 2 and "'1/0'" in err


def test_power_products_verb(capsys):
    code, out, _ = run(capsys, "power-products", "--p", "3", "--x", "1", "--y", "3")
    assert code == 0
    assert out.splitlines() == ["(1, 3)", "(3, 1)"]
    # each x2 fixes y2, so a bound in the thousands stays a linear search
    code, out, _ = run(capsys, "power-products", "--p", "3", "--x", "2", "--y", "5", "--bound", "4000")
    assert code == 0
    assert out.splitlines() == ["(2, 5)", "(5, 2)"]


def test_star_check_verb(capsys):
    code, out, _ = run(capsys, "star-check", "--field", "FpT:2", "--points", "0,inf,1,t")
    assert code == 0 and out == "holds\n"
    code, out, _ = run(capsys, "star-check", "--field", "FpT:5", "--points", "0,inf,1,2")
    assert code == 1 and out == "fails\n"
    code, _, _ = run(capsys, "star-check", "--field", "Q", "--points", "0,inf,1,2")
    assert code == 2


def test_groupring_verb_exit_codes(capsys):
    code, out, _ = run(capsys, "groupring", "--moduli", "6", "--mod", "6", "--elem", "x^3-1")
    assert code == 0
    assert out.splitlines()[0] == "annihilator generators: 3"
    code, out, _ = run(capsys, "groupring", "--moduli", "5", "--mod", "6", "--elem", "x")
    assert code == 1
    assert out.splitlines()[0] == "annihilator generators: 0"
    code, out, _ = run(capsys, "groupring", "--moduli", "2", "--mod", "6", "--elem", "1+x+x^2")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "annihilator generators: 1"
    # any generator of the annihilator will do, so check its span, not its text:
    # (2 + x)(a + b*x) = (2a + b) + (a + 2b)*x, as x^2 = 1
    gen = parse_elem(AbelianShape((2,)), 6, lines[1])
    g = [gen.coeffs.get((i,), 0) for i in range(2)]
    assert {(c * g[0] % 6, c * g[1] % 6) for c in range(6)} == {
        (a, b) for a in range(6) for b in range(6) if (2 * a + b) % 6 == 0 == (a + 2 * b) % 6
    }


def test_small_sweeps_pass():
    for name, params in [
        ("limit-regularity", dict(n_max=2, m_max=4, mp_max=4, k_max=2)),
        ("gamma-annihilator", dict(max_order=15)),
        ("presentation-rank", dict(g_max=2, r_max=4)),
        ("roundtrip", dict(count=3)),
        ("twist-uniqueness", dict(count=4)),
        ("rho-pair", dict(count=30)),
        ("negative-soundness", dict(count=10)),
    ]:
        res = run_sweep(name, seed=11, **params)
        assert res.ok(), res.counterexample
        assert res.cases > 0
