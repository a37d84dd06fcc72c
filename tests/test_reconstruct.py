"""Scenario generation, reconstruction and verification, end to end."""

import json
import random
import sys

import pytest

from punctline import exactalg, fieldarith
from punctline.crossratio import (
    RHO_PAIR,
    CuspSet,
    MobiusMap,
    ProjPoint,
    cross_ratio,
    mobius_from_triples,
    star_check,
)
from punctline.fieldarith import (
    Q,
    QRHO,
    elem_from_text,
    fpt,
    frobenius,
    is_constant,
)
from punctline.reconstruct import (
    ReconstructionError,
    ReconstructionResult,
    Scenario,
    forced_map_realizable,
    generate_scenario,
    reconstruct,
    reconstruct_char0,
    reconstruct_charp,
    scenario_from_json,
    scenario_to_json,
    verify_reconstruction,
)
from test_crossratio import compose, identity, inverse

F2T = fpt(2)
F3T = fpt(3)
F5T = fpt(5)
FIELDS = (Q, QRHO, F2T, F5T)


def el(field, text):
    return elem_from_text(field, text)


def P(field, text):
    if text == "inf":
        return ProjPoint.infinity(field)
    return ProjPoint.affine(el(field, text))


def cusps(field, *texts):
    return CuspSet(field, tuple(P(field, s) for s in texts))


def scene(field, texts1, texts2, phi, secret=None):
    return Scenario(
        field, cusps(field, *texts1), cusps(field, *texts2), phi, secret
    )


def test_char0_frozen_inversion():
    s = scene(Q, ("0", "inf", "1", "3"), ("inf", "0", "1", "1/3"),
              (0, 1, 2, 3))
    r = reconstruct_char0(s)
    assert (r.w1, r.w2, r.ambiguity) == (0, 0, None)
    assert r.f == MobiusMap(Q.zero(), Q.one(), Q.one(), Q.zero())
    assert verify_reconstruction(s, r)


def test_char0_identity_scenario():
    s = scene(Q, ("0", "inf", "1", "-5"), ("0", "inf", "1", "-5"),
              (0, 1, 2, 3))
    r = reconstruct(s)
    assert r.f == identity(Q)
    assert verify_reconstruction(s, r)


def test_char0_rejects_incompatible_pairing():
    s = scene(Q, ("0", "inf", "1", "2"), ("0", "inf", "1", "3"),
              (0, 1, 2, 3))
    with pytest.raises(ReconstructionError):
        reconstruct_char0(s)


def test_char0_rho_pair_ambiguity():
    s = scene(QRHO, ("0", "inf", "1", "rho"), ("0", "inf", "1", "1-rho"),
              (0, 1, 2, 3))
    r = reconstruct_char0(s)
    assert r.ambiguity == RHO_PAIR
    assert r.f == identity(QRHO)
    # the marked result is not a pointwise match, only equal up to the
    # order-6 pair, so verification reports the mismatch
    assert not verify_reconstruction(s, r)


def _rho_pair_scenario(s):
    """s with one more cusp pair whose coordinates are rho and 1/rho:
    the preimages of rho and 1/rho under the normalizing maps of E1 and
    E2, so the honest map of s does not carry the new pair."""
    field = s.field
    rho = field.rho()
    std = (ProjPoint.affine(field.zero()), ProjPoint.infinity(field),
           ProjPoint.affine(field.one()))
    base2 = tuple(s.e2.points[s.phi[i]] for i in range(3))
    x1 = mobius_from_triples(*std, *s.e1.points[:3]).apply(ProjPoint.affine(rho))
    x2 = mobius_from_triples(*std, *base2).apply(ProjPoint.affine(rho.inverse()))
    n = s.size()
    return Scenario(field, CuspSet(field, s.e1.points + (x1,)),
                    CuspSet(field, s.e2.points + (x2,)), s.phi + (n,))


def test_char0_reconstruct_never_factorizes(monkeypatch):
    """Over Q and Q(rho) near-rigidity decides every cusp by comparing
    values: honest, corrupted and rho-pair scenarios are reconstructed
    and verified without one factorisation."""
    scenarios = []
    for field in (Q, QRHO):
        for seed in range(6):
            s = generate_scenario(field, 5 + seed % 3, seed=seed)
            phi = list(s.phi)
            phi[3], phi[4] = phi[4], phi[3]
            scenarios += [s, Scenario(field, s.e1, s.e2, tuple(phi))]
            if field == QRHO:
                scenarios.append(_rho_pair_scenario(s))
    calls = []
    for original in (fieldarith.factorize, exactalg.factor_integer):
        def counting(*args, original=original):
            calls.append(original.__name__)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("punctline"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
    verdicts = {"accepted": 0, "rejected": 0, RHO_PAIR: 0}
    for s in scenarios:
        try:
            r = reconstruct(s)
        except ReconstructionError:
            verdicts["rejected"] += 1
            continue
        verify_reconstruction(s, r)
        verdicts[r.ambiguity or "accepted"] += 1
    assert verdicts == {"accepted": 12, "rejected": 12, RHO_PAIR: 6}
    assert calls == []


def test_char0_wrong_field_raises():
    s = scene(F2T, ("0", "inf", "1", "t"), ("0", "inf", "1", "t"),
              (0, 1, 2, 3))
    with pytest.raises(ValueError):
        reconstruct_char0(s)
    s0 = scene(Q, ("0", "inf", "1"), ("0", "inf", "1"), (0, 1, 2))
    with pytest.raises(ValueError):
        reconstruct_charp(s0)


def test_charp_frozen_twists():
    s = scene(F2T, ("0", "inf", "1", "t"), ("0", "inf", "1", "t^2"),
              (0, 1, 2, 3))
    r = reconstruct_charp(s)
    assert (r.w1, r.w2) == (1, 0)
    assert r.f == identity(F2T)
    assert verify_reconstruction(s, r)

    up2 = scene(F2T, ("0", "inf", "1", "t"), ("0", "inf", "1", "t^4"),
                (0, 1, 2, 3))
    r2 = reconstruct_charp(up2)
    assert (r2.w1, r2.w2) == (2, 0)
    assert verify_reconstruction(up2, r2)

    down = scene(F2T, ("0", "inf", "1", "t^2"), ("0", "inf", "1", "t"),
                 (0, 1, 2, 3))
    r3 = reconstruct_charp(down)
    assert (r3.w1, r3.w2) == (0, 1)
    assert verify_reconstruction(down, r3)


def test_charp_rejects_unrelated_sets():
    cases = [
        (("0", "inf", "1", "t"), ("0", "inf", "1", "t+1"),
         (3, "no-exponent", ())),
        # cusp 3 forces twist 1 and cusp 4 twist 0
        (("0", "inf", "1", "t", "t+1"), ("0", "inf", "1", "t^2", "t+1"),
         (4, "exponent-mismatch", (1, 0))),
    ]
    for e1, e2, rejection in cases:
        s = scene(F2T, e1, e2, tuple(range(len(e1))))
        with pytest.raises(ReconstructionError) as info:
            reconstruct_charp(s)
        exc = info.value
        assert (exc.cusp, exc.reason, exc.exponents) == rejection
        assert not forced_map_realizable(s)


def test_charp_size3_forced_map():
    s = scene(F2T, ("0", "inf", "t"), ("0", "inf", "t^2"), (0, 1, 2))
    r = reconstruct_charp(s)
    assert (r.w1, r.w2) == (0, 0)
    assert r.f.apply(P(F2T, "t")) == P(F2T, "t^2")
    assert verify_reconstruction(s, r)


def test_charp_identity_size5():
    pts = ("0", "inf", "1", "t", "t+1")
    s = scene(F2T, pts, pts, (0, 1, 2, 3, 4))
    r = reconstruct_charp(s)
    assert (r.w1, r.w2) == (0, 0)
    assert r.f == identity(F2T)
    assert verify_reconstruction(s, r)


def test_charp_shuffled_narrative():
    # E2 = g(E1^(p)) with g = 1/x, handed over in scrambled order:
    # partner(i) = E2[phi[i]]
    g = MobiusMap(F5T.zero(), F5T.one(), F5T.one(), F5T.zero())
    s = scene(
        F5T,
        ("t", "0", "inf", "1", "t+1"),
        ("inf", "1", "(1)/(t^5)", "(1)/(t^5+1)", "0"),
        (2, 0, 4, 1, 3),
        secret=(g, 1),
    )
    r = reconstruct_charp(s)
    assert (r.w1, r.w2) == (1, 0)
    assert r.f == g
    assert r.ambiguity is None
    assert verify_reconstruction(s, r)


def test_generate_scenario_postconditions():
    for field in FIELDS:
        twists = (0,) if field.char() == 0 else (0, 1, 3)
        for size in (3, 5, 7):
            for twist in twists:
                s = generate_scenario(field, size, seed=size + twist,
                                      twist=twist)
                assert s.size() == size
                assert s.field == field
                g, n = s.secret
                assert n == twist
                if field.char() != 0:
                    assert star_check(s.e1)
                    assert any(
                        not pt.is_infinity() and not is_constant(pt.a)
                        for pt in s.e1.points
                    )
    # same seed, same scenario
    a = generate_scenario(F5T, 5, seed=7, twist=2)
    b = generate_scenario(F5T, 5, seed=7, twist=2)
    assert a == b


def test_generate_scenario_domain_errors():
    with pytest.raises(ValueError):
        generate_scenario(Q, 2, seed=0)
    with pytest.raises(ValueError):
        generate_scenario(Q, 4, seed=0, twist=1)
    with pytest.raises(ValueError):
        generate_scenario(F2T, 4, seed=0, twist=-1)


def test_scenario_validation_errors():
    e_q = cusps(Q, "0", "inf", "1")
    with pytest.raises(ValueError):
        Scenario(QRHO, e_q, e_q, (0, 1, 2))
    with pytest.raises(ValueError):
        Scenario(Q, e_q, cusps(Q, "0", "inf", "1", "2"), (0, 1, 2))
    with pytest.raises(ValueError):
        Scenario(Q, e_q, e_q, (0, 1, 1))
    bad_g = MobiusMap(Q.one(), Q.one(), Q.zero(), Q.one())
    with pytest.raises(ValueError):
        Scenario(Q, e_q, e_q, (0, 1, 2), (bad_g, 0))
    with pytest.raises(ValueError):
        Scenario(Q, e_q, e_q, (0, 1, 2), (identity(Q), 1))
    with pytest.raises(ValueError):
        Scenario(Q, e_q, e_q, (0, 1, 2), (identity(Q), -1))


def test_roundtrip_recovers_secret():
    for field in FIELDS:
        for size in (3, 4, 5, 6, 7):
            if field.char() == 0:
                twists = (0,)
            else:
                twists = (0,) if size == 3 else (0, 1, 2, 3)
            for twist in twists:
                s = generate_scenario(field, size, seed=31 * size + twist,
                                      twist=twist)
                r = reconstruct(s)
                assert r.ambiguity is None
                assert verify_reconstruction(s, r)
                assert r.f == s.secret[0]
                if size >= 4:
                    assert r.twist_difference() == twist


def test_size3_reports_minimal_twist():
    # three points force a map at any twist, so the minimal pair wins
    s = generate_scenario(F2T, 3, seed=5, twist=2)
    r = reconstruct(s)
    assert (r.w1, r.w2) == (0, 0)
    assert verify_reconstruction(s, r)


def _realizes(s, delta):
    # a map at twist difference delta exists iff every extra cusp's
    # cross ratio against the base triple satisfies cr2 = cr1^(p^delta);
    # checking the relation directly keeps polynomial degrees linear
    b1 = s.e1.points[:3]
    b2 = tuple(s.partner(i) for i in range(3))
    for i in range(3, s.size()):
        cr1 = cross_ratio(b1[0], b1[1], b1[2], s.e1.points[i])
        cr2 = cross_ratio(b2[0], b2[1], b2[2], s.partner(i))
        if delta >= 0:
            if cr2 != frobenius(cr1, delta):
                return False
        elif cr1 != frobenius(cr2, -delta):
            return False
    return True


def test_twist_difference_unique():
    for field, seeds in ((F2T, (0, 1, 2)), (F5T, (3, 4))):
        for seed in seeds:
            size = 4 + seed % 3
            twist = seed % 4
            s = generate_scenario(field, size, seed=100 + seed, twist=twist)
            reconstruct(s)
            for delta in range(-4, 5):
                assert _realizes(s, delta) == (delta == twist)


def test_mobius_equivariance():
    # replacing E1 by h(E1) must turn the recovered map f into f o h^-1
    cases = (
        (Q, MobiusMap(Q.from_int(1), Q.from_int(2), Q.from_int(1),
                      Q.from_int(1)), 0),
        (QRHO, MobiusMap(QRHO.rho(), QRHO.one(), QRHO.zero(), QRHO.one()), 0),
        (F2T, MobiusMap(F2T.one(), F2T.one(), F2T.zero(), F2T.one()), 1),
        (F5T, MobiusMap(F5T.from_int(2), F5T.from_int(3), F5T.one(),
                        F5T.one()), 2),
    )
    for field, h, twist in cases:
        s = generate_scenario(field, 5, seed=9, twist=twist)
        r = reconstruct(s)
        moved = Scenario(
            field,
            CuspSet(field, tuple(h.apply(pt) for pt in s.e1.points)),
            s.e2,
            s.phi,
            None,
        )
        r2 = reconstruct(moved)
        assert (r2.w1, r2.w2) == (r.w1, r.w2)
        # h has constant prime-field entries in char p, so twisting
        # commutes with it and the composition law is exact
        assert r2.f == compose(r.f, inverse(h))
        assert verify_reconstruction(moved, r2)


def test_negative_soundness_matches_oracle():
    rng = random.Random(20240817)
    rejected = 0
    realizable = 0
    for field in FIELDS:
        for trial in range(12):
            size = rng.randint(4, 6)
            twist = 0 if field.char() == 0 else rng.randint(0, 2)
            s = generate_scenario(field, size, seed=rng.randrange(10**6),
                                  twist=twist)
            perm = list(range(size))
            while perm == list(range(size)):
                rng.shuffle(perm)
            corrupted = Scenario(
                field, s.e1, s.e2, tuple(perm[j] for j in s.phi), None
            )
            if forced_map_realizable(corrupted):
                # the scrambled pairing happens to be a genuine one, so
                # the pipeline must accept it
                r = reconstruct(corrupted)
                assert verify_reconstruction(corrupted, r)
                realizable += 1
                continue
            try:
                r = reconstruct(corrupted)
            except ReconstructionError:
                rejected += 1
            else:
                assert not verify_reconstruction(corrupted, r)
                rejected += 1
    assert rejected >= 30
    assert rejected + realizable == 48


def test_rejection_stops_at_the_first_bad_cusp(monkeypatch):
    # coordinates are taken lazily: a pairing broken at cusp 5 is
    # rejected after the cross ratios of cusps 3, 4 and 5 only (star_check
    # takes no cross ratios)
    for field, code in ((Q, "cyclic-hypothesis"), (F3T, "no-exponent")):
        s = generate_scenario(field, 8, seed=4, twist=0)
        phi = list(s.phi)
        phi[5], phi[6] = phi[6], phi[5]
        broken = Scenario(field, s.e1, s.e2, tuple(phi))
        calls = []

        def counting(*pts):
            calls.append(pts)
            return cross_ratio(*pts)

        monkeypatch.setattr("punctline.reconstruct.cross_ratio", counting)
        with pytest.raises(ReconstructionError, match=r"cusps? (3 and )?5 ") as info:
            reconstruct(broken)
        monkeypatch.undo()
        assert len(calls) == 6
        assert (info.value.cusp, info.value.reason) == (5, code)
        assert info.value.exponents == ()


def test_perturbed_results_fail_verification():
    s = generate_scenario(F5T, 5, seed=3, twist=2)
    r = reconstruct(s)
    assert verify_reconstruction(s, r)
    bumped = ReconstructionResult(r.w1 + 1, r.w2, r.f)
    assert not verify_reconstruction(s, bumped)
    shift = MobiusMap(F5T.one(), F5T.one(), F5T.zero(), F5T.one())
    assert not verify_reconstruction(
        s, ReconstructionResult(r.w1, r.w2, compose(shift, r.f))
    )
    s0 = generate_scenario(Q, 4, seed=3)
    r0 = reconstruct(s0)
    assert not verify_reconstruction(
        s0, ReconstructionResult(1, 0, r0.f)
    )


def test_json_roundtrip():
    for field in FIELDS:
        twist = 0 if field.char() == 0 else 1
        s = generate_scenario(field, 4, seed=11, twist=twist)
        data = json.loads(json.dumps(scenario_to_json(s)))
        assert scenario_from_json(data) == s
        # secret is optional
        bare = Scenario(field, s.e1, s.e2, s.phi, None)
        data2 = json.loads(json.dumps(scenario_to_json(bare)))
        assert data2["secret"] is None
        assert scenario_from_json(data2) == bare


def test_json_points_match_the_affine_value():
    cases = (
        (Q, ({"num": "6", "den": "4"}, {"num": "0", "den": "5"},
             {"num": "-3", "den": "1"}, "inf")),
        (QRHO, ({"num": "2+2*rho", "den": "2"}, {"num": "0", "den": "rho"},
                {"num": "rho", "den": "1-rho"}, "inf")),
        # a non-reduced fraction, a zero numerator, a constant denominator
        (F3T, ({"num": "t^2+t", "den": "t"}, {"num": "0", "den": "t+2"},
               {"num": "t", "den": "2"}, "inf")),
    )
    for field, pts in cases:
        data = {"field": field.to_json(), "E1": list(pts), "E2": list(pts),
                "phi": list(range(len(pts)))}
        parsed = scenario_from_json(data).e1.points
        for item, got in zip(pts, parsed):
            if item == "inf":
                assert got == ProjPoint.infinity(field)
            else:
                num, den = el(field, item["num"]), el(field, item["den"])
                assert got == ProjPoint.affine(num / den)


def test_json_malformed_inputs():
    good = scenario_to_json(generate_scenario(F2T, 4, seed=1, twist=1))
    cases = (
        ([], "JSON object"),
        ({k: v for k, v in good.items() if k != "E1"}, "E1"),
        ({**good, "field": {"kind": "Zp"}}, "field"),
        ({**good, "E1": [{"num": "t"}] + good["E1"][1:]}, "E1"),
        ({**good, "E2": good["E2"][:-1] + [{"num": "t", "den": "0"}]}, "E2"),
        ({**good, "E1": "points"}, "E1"),
        ({**good, "phi": [0, 0, 1, 2]}, "phi"),
        ({**good, "phi": [0, 1, "x", 3]}, "phi"),
        ({**good, "secret": {"g": {"m00": "1"}, "n": 0}}, "secret"),
        ({**good, "secret": {**good["secret"], "g": {**good["secret"]["g"], "m00": "1/0"}}},
         "scenario field 'secret'"),
        # JSON numbers that are not integers are rejected, not truncated
        ({**good, "phi": [0, 1, 2.7, 3]}, "scenario field 'phi'"),
        ({**good, "phi": [0, True, 2, 3]}, "scenario field 'phi'"),
        ({**good, "field": {"kind": "FpT", "p": 5.5}}, "scenario field 'field'"),
        ({**good, "secret": {**good["secret"], "n": 1.5}}, "scenario field 'secret'"),
    )
    for data, fragment in cases:
        with pytest.raises(ValueError) as err:
            scenario_from_json(data)
        assert fragment in str(err.value)
