"""Run one benchmark workload against the punctline sources beside it.

    python3 bench/run.py --workload charp-deep-twist --seed 1 --seconds 20 --trace 0

With --trace 0 the run is a closed loop with one client: it executes
whole rounds of queries (see gen.py) one after another, timing each
operation, until the timed operations add up to --seconds and number
at least MIN_OPS, and prints the end-to-end metrics, scaled to the
reference machine's speed (see REFERENCE_KERNEL_S).  With --trace 1 it
executes a fixed number of rounds twice, untraced and then with the
per-layer tracer installed, checks that both passes give identical
answers, and prints the per-layer metrics.  Every answer is checked
independently (checks.py); a wrong answer or an unexpected exception
counts the operation as failed.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from arith import pdivmod, pgcd, pmul  # noqa: E402
from checks import check_annihilator, check_scenario  # noqa: E402
from gen import WORKLOADS, make_round  # noqa: E402

# a timed run goes on, in whole rounds, until it has at least this many
# operations, so that op_p90_ms has ten samples beyond it
MIN_OPS = 100

# rounds per pass of a traced run: fixed, so two traced runs of one
# seed make exactly the same calls
TRACE_ROUNDS = {
    "charp-deep-twist": 10,
    "charp-many-cusps": 2,
    "char0-mixed": 30,
    "metabelian-truncations": 20,
}


# Speed calibration.  The machine this benchmark was built on ran the
# same pure-Python work 15-30 % faster or slower from one minute to the
# next, which swamps any change to the program.  So every run also
# times a fixed kernel of the benchmark's own polynomial arithmetic,
# before each round and once after the last, with the garbage collector
# off, and reports each time multiplied by REFERENCE_KERNEL_S / (median
# kernel time of the run): the time the run would have taken at the
# speed of the reference machine.  The unscaled figures and the factor
# are printed on the line before the result.
REFERENCE_KERNEL_S = 0.8e-3  # the kernel on a 2-core VM under Python 3.11.7
_KERNEL_F = tuple((7 * i + 3) % 11 for i in range(48)) + (1,)
_KERNEL_G = tuple((5 * i + 1) % 11 for i in range(31)) + (1,)


def _kernel_seconds(repeats=10):
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            h = pmul(_KERNEL_F, _KERNEL_G, 11)
            pdivmod(h, _KERNEL_F, 11)
            pgcd(h, pmul(_KERNEL_G, _KERNEL_G, 11), 11)
        return (time.perf_counter() - start) / repeats
    finally:
        gc.enable()


def _process_age():
    """Seconds since this process started; the start time has the
    kernel's clock-tick resolution."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")


class Program:
    """The punctline modules under test and the operations run on them.

    Operations call through module attributes, so the wrappers a
    Tracer installs are seen."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "punctline", "__init__.py")):
            raise SystemExit("bench: no punctline sources at %s" % SRC)
        sys.path.insert(0, SRC)
        import punctline
        from punctline import fieldarith, freegroup, groupring, magnusfox, reconstruct

        if os.path.dirname(os.path.abspath(punctline.__file__)) != os.path.join(SRC, "punctline"):
            raise SystemExit("bench: punctline was imported from %s" % punctline.__file__)
        self.fieldarith = fieldarith
        self.freegroup = freegroup
        self.groupring = groupring
        self.magnusfox = magnusfox
        self.reconstruct = reconstruct

    # --- operations: each returns its answer as plain data -----------

    def _plain_elem(self, e):
        if isinstance(e, self.fieldarith.FpTElem):
            return (e.num, e.den)
        if isinstance(e, self.fieldarith.QElem):
            return (e.value, 0)
        return (e.a, e.b)

    def _plain_metabelian(self, m):
        return m.ab, tuple(tuple(sorted(d.coeffs.items())) for d in m.deriv)

    def op_scenario(self, q):
        rec = self.reconstruct
        s = rec.scenario_from_json(json.loads(q["text"]))
        try:
            r = rec.reconstruct(s)
        except rec.ReconstructionError:
            return ("rejected",)
        verified = rec.verify_reconstruction(s, r)
        f = tuple(self._plain_elem(e) for e in (r.f.m00, r.f.m01, r.f.m10, r.f.m11))
        return ("accepted", r.w1, r.w2, f, r.ambiguity, verified)

    def _embed(self, w, rank):
        return self.magnusfox.embed(self.freegroup.Word(w), rank)

    def op_magnus(self, q):
        mf = self.magnusfox
        prod = mf.magnus_mul(self._embed(q["w1"], q["rank"]), self._embed(q["w2"], q["rank"]))
        return self._plain_metabelian(prod)

    def op_annihilator(self, q):
        gr = self.groupring
        shape = gr.AbelianShape((q["L"],))
        a = gr.GroupRingElem.monomial(shape, q["M"], q["n"]) - gr.GroupRingElem.one(shape, q["M"])
        gens = gr.annihilator_basis(shape, q["M"], a)
        return tuple(tuple(g.coeffs.get((i,), 0) for i in range(q["L"])) for g in gens)

    def op_regularity(self, q):
        return self.groupring.limit_regularity_check(q["n"], q["M"], q["m_prime"], q["k"])

    def op_centralizer(self, q):
        return self.magnusfox.centralizer_kernel_shrinks(
            q["r"], q["n"], q["N"], q["n_prime"], q["M"]
        )

    # --- checks --------------------------------------------------------

    def check(self, q, answer):
        kind = q["kind"]
        if kind == "scenario":
            return check_scenario(q["expect"], answer)
        if kind == "magnus":
            # the Magnus embedding is a homomorphism
            w = self.freegroup.Word(q["w1"]) * self.freegroup.Word(q["w2"])
            want = self._plain_metabelian(self.magnusfox.embed(w, q["rank"]))
            return None if answer == want else "embed(w1*w2) != magnus_mul(embed(w1), embed(w2))"
        if kind == "annihilator":
            return check_annihilator(q, answer)
        # both boxes lie where the theorem applies: n | m' and n | n'
        return None if answer is True else "%s check returned %r on a covered box" % (kind, answer)

    def attempt(self, q):
        """(answer, seconds, failure): failure is None, or why the
        operation counts as failed.  Only the operation is timed."""
        op = getattr(self, "op_" + q["kind"])
        start = time.perf_counter()
        try:
            answer = op(q)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            return None, time.perf_counter() - start, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        return answer, elapsed, self.check(q, answer)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.durations = []

    def add(self, q, answer, elapsed, failure):
        self.attempted += 1
        self.durations.append(elapsed)
        if failure is not None:
            self.failed += 1
            if answer is not None:
                self.wrong += 1
            print("bench: failed %s query: %s" % (q["kind"], failure), file=sys.stderr)


def _setup(workload, seed):
    prog = Program()
    first = make_round(workload, seed, 0)
    # one untimed operation first, so lazy imports and first-call costs
    # stay out of the timed phase; its answer is checked when round 0 runs
    prog.attempt(first[0])
    return prog, first, _process_age()


def run_timed(workload, seed, seconds):
    prog, queries, setup_s = _setup(workload, seed)
    tally = Tally()
    kernel = []
    index = 0
    while sum(tally.durations) < seconds or tally.attempted < MIN_OPS:
        if index:
            queries = make_round(workload, seed, index)
        kernel.append(_kernel_seconds())
        for q in queries:
            tally.add(q, *prog.attempt(q))
        index += 1
    kernel.append(_kernel_seconds())
    slowdown = statistics.median(kernel) / REFERENCE_KERNEL_S
    busy = sum(tally.durations)
    measured = {
        "throughput_ops_s": ((tally.attempted - tally.failed) / busy, "ops/s"),
        "op_p50_ms": (statistics.median(tally.durations) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(tally.durations, n=10)[8] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }
    print("bench: unscaled %s at %.4f times the reference kernel time" % (
        ", ".join("%s=%.6g" % (k, v) for k, (v, _) in measured.items()), slowdown))
    metrics = {
        k: {"value": v * slowdown if u == "ops/s" else v / slowdown, "unit": u}
        for k, (v, u) in measured.items()
    }
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return tally, metrics


def run_traced(workload, seed):
    from tracing import Tracer

    prog, first, _ = _setup(workload, seed)
    queries = first + [q for i in range(1, TRACE_ROUNDS[workload]) for q in make_round(workload, seed, i)]
    tally = Tally()
    answers = []
    for q in queries:
        answer, elapsed, failure = prog.attempt(q)
        answers.append(answer)
        tally.add(q, answer, elapsed, failure)
    untraced_s = sum(tally.durations)
    rejected = 0
    tracer = Tracer()
    tracer.install()
    try:
        for q, untraced_answer in zip(queries, answers):
            answer, elapsed, failure = prog.attempt(q)
            if failure is None and answer != untraced_answer:
                failure = "traced answer differs from the untraced one"
            rejected += answer == ("rejected",)
            tally.add(q, answer, elapsed, failure)
    finally:
        tracer.uninstall()
    traced_s = sum(tally.durations) - untraced_s
    print("bench: untraced pass %.4f s, traced pass %.4f s (unscaled)" % (untraced_s, traced_s))
    return tally, tracer.metrics(rejected, traced_s - untraced_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace:
        tally, metrics = run_traced(args.workload, args.seed)
    else:
        tally, metrics = run_timed(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
