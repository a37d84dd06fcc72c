"""Tests of the benchmark itself: its generator is deterministic, its
checks accept the program's answers and reject every kind of wrong
answer, and a wrong answer is counted as a failed operation.

    python3 -m pytest bench/test_bench.py
"""

import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from arith import padd
from checks import charp_realizable, check_annihilator, check_scenario
from gen import (
    WORKLOADS,
    annihilator_query,
    char0_query,
    charp_query,
    magnus_query,
    make_round,
    regularity_query,
    rho_pair_query,
)


@pytest.fixture(scope="module")
def prog():
    return run.Program()


def _fails(prog, monkeypatch, query, wrong_answer):
    """Run the query through the runner with the program's answer
    replaced, and say whether the runner counts it as failed."""
    monkeypatch.setattr(prog, "op_" + query["kind"], lambda q: wrong_answer)
    tally = run.Tally()
    tally.add(query, *prog.attempt(query))
    monkeypatch.undo()
    return tally.failed == 1 and tally.wrong == 1


def _right(prog, query):
    answer, _, failure = prog.attempt(query)
    assert failure is None, failure
    return answer


def test_make_round_is_seeded():
    for workload in WORKLOADS[2:]:
        assert make_round(workload, 7, 3) == make_round(workload, 7, 3)
        assert make_round(workload, 7, 3) != make_round(workload, 8, 3)


@pytest.mark.parametrize("side", ["E1", "E2"])
def test_charp_honest_checks(prog, monkeypatch, side):
    q = charp_query(random.Random(1), 3, 5, 1, side, 2)
    answer = _right(prog, q)
    tag, w1, w2, f, ambiguity, verified = answer
    assert w1 - w2 == (1 if side == "E1" else -1)
    perturbed = list(f)
    perturbed[1] = (padd(f[1][0], (1,), 3), f[1][1])
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, tuple(perturbed), ambiguity, verified))
    assert _fails(prog, monkeypatch, q, (tag, w1 + 1, w2, f, ambiguity, verified))
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, f, ambiguity, False))
    assert _fails(prog, monkeypatch, q, ("rejected",))


def test_char0_honest_checks(prog, monkeypatch):
    q = char0_query(random.Random(2), 6, True)
    tag, w1, w2, f, ambiguity, verified = _right(prog, q)
    perturbed = (f[0], (f[1][0] + 1, f[1][1]), f[2], f[3])
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, perturbed, ambiguity, verified))
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, f, "rho-pair", verified))


@pytest.mark.parametrize("maker", [
    lambda rng: charp_query(rng, 5, 8, 1, "E1", 2, corrupt=True),
    lambda rng: char0_query(rng, 8, False, corrupt=True),
])
def test_corrupted_verdict_flip_fails(prog, monkeypatch, maker):
    q = maker(random.Random(3))
    answer = _right(prog, q)
    if q["expect"]["realizable"]:
        flipped = ("rejected",)
    else:
        flipped = ("accepted", 0, 0, answer[3] if len(answer) > 1 else None, None, True)
    assert _fails(prog, monkeypatch, q, flipped)


def test_rho_pair_checks(prog, monkeypatch):
    q = rho_pair_query(random.Random(4), 6)
    tag, w1, w2, f, ambiguity, verified = _right(prog, q)
    assert ambiguity == "rho-pair" and not verified
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, f, None, verified))
    assert _fails(prog, monkeypatch, q, (tag, w1, w2, f, ambiguity, True))


def test_realizability_search():
    # E1 = (0, inf, 1, t, t+1) against E2 = E1^p: realizable at twist 1
    p = 3
    e1 = [((), (1,)), ((1,), ()), ((1,), (1,)), ((0, 1), (1,)), ((1, 1), (1,))]
    e2 = [((), (1,)), ((1,), ()), ((1,), (1,)), ((0, 0, 0, 1), (1,)), ((1, 0, 0, 1), (1,))]
    assert charp_realizable(e1, e2, [0, 1, 2, 3, 4], p) == (True, 1)
    assert charp_realizable(e2, e1, [0, 1, 2, 3, 4], p) == (True, -1)
    assert charp_realizable(e1, e2, [0, 1, 2, 4, 3], p) == (False, None)


def test_magnus_check(prog, monkeypatch):
    q = magnus_query(random.Random(5), 3)
    ab, deriv = _right(prog, q)
    assert _fails(prog, monkeypatch, q, ((ab[0] + 1,) + ab[1:], deriv))


def test_annihilator_checks(prog, monkeypatch):
    q = annihilator_query(random.Random(6), 12)
    q.update(n=4, M=6)
    gens = _right(prog, q)
    not_annihilating = ((gens[0][0] + 1,) + gens[0][1:],) + gens[1:]
    assert check_annihilator(q, not_annihilating) is not None
    assert _fails(prog, monkeypatch, q, not_annihilating)
    # with one generator dropped, some coset indicator is missed
    assert _fails(prog, monkeypatch, q, gens[1:])
    assert _fails(prog, monkeypatch, q, tuple(tuple(2 * x for x in g) for g in gens))


def test_theorem_boxes_must_hold(prog, monkeypatch):
    q = regularity_query(random.Random(7))
    assert _right(prog, q) is True
    assert _fails(prog, monkeypatch, q, False)


def test_crash_counts_as_failed_not_wrong(prog, monkeypatch):
    q = regularity_query(random.Random(8))

    def crash(query):
        raise RuntimeError("boom")

    monkeypatch.setattr(prog, "op_regularity", crash)
    tally = run.Tally()
    tally.add(q, *prog.attempt(q))
    assert (tally.failed, tally.wrong) == (1, 0)


def test_unknown_expectation_is_an_error():
    with pytest.raises(ValueError):
        check_scenario({"kind": "bogus"}, ("rejected",))


def test_traced_counts_repeat():
    first = run.run_traced("metabelian-truncations", 3)
    second = run.run_traced("metabelian-truncations", 3)
    for tally, _ in (first, second):
        assert tally.failed == 0
    counts = [
        {k: v["value"] for k, v in metrics.items() if v["unit"] not in ("s",)}
        for _, metrics in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["magnusfox.embed.calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "char0-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == ["bench"]
