"""Per-layer tracing from outside the program.

Tracer.install replaces the listed public functions of punctline's
modules by timing wrappers, in the module that defines each function
and in every punctline module that imported it by name, and hooks the
constructors whose counts the per-layer metrics need.  Nothing in the
program changes: the wrappers live here and exist only in the process
that installs them.

Each wrapped call records a span; a layer's self time is the span's
duration minus the time spent in wrapped calls beneath it.
"""

import sys
import time

# (module, function) pairs timed as spans; the metric prefix is
# "<module>.<function>"
SPANS = (
    ("fppoly", "gcd"),
    ("fppoly", "divmod_poly"),
    ("fppoly", "mul"),
    ("fppoly", "factor"),
    ("fieldarith", "factorize"),
    ("fieldarith", "frobenius"),
    ("multlattice", "solve_p_power"),
    ("multlattice", "cyclic_equal"),
    ("crossratio", "cross_ratio"),
    ("crossratio", "decide_lambda_charp"),
    ("crossratio", "decide_lambda_char0"),
    ("crossratio", "exponent_case_decide"),
    ("crossratio", "star_check"),
    ("crossratio", "mobius_from_triples"),
    ("reconstruct", "scenario_from_json"),
    ("reconstruct", "reconstruct"),
    ("reconstruct", "verify_reconstruction"),
    ("exactalg", "factor_integer"),
    ("exactalg", "smith_normal_form"),
    ("exactalg", "kernel_mod_m"),
    ("exactalg", "solve_mod_m"),
    ("groupring", "annihilator_basis"),
    ("groupring", "limit_regularity_check"),
    ("groupring", "grmul"),
    ("magnusfox", "fox_derivative"),
    ("magnusfox", "embed"),
    ("magnusfox", "magnus_mul"),
    ("magnusfox", "metabelian_centralizer_kernel"),
    ("magnusfox", "relation_module_basis"),
    ("freegroup", "reduce"),
)

# spans reported by self time only: one call per operation says nothing
_SELF_ONLY = {"reconstruct.scenario_from_json", "reconstruct.reconstruct",
              "reconstruct.verify_reconstruction"}

# name -> (unit, better) for every per-layer metric, in report order
METRICS = {}
for _mod, _fn in SPANS:
    _name = "%s.%s" % (_mod, _fn)
    if _name not in _SELF_ONLY:
        METRICS[_name + ".calls"] = ("count", "lower")
    METRICS[_name + ".self_s"] = ("s", "lower")
METRICS.update({
    "fppoly.coeff_ops": ("count", "lower"),
    "fppoly.max_degree": ("degree", "lower"),
    "fieldarith.fpt_elem.constructed": ("count", "lower"),
    "fieldarith.fpt_elem.reduced_ratio": ("ratio", "higher"),
    "fieldarith.field_desc.constructed": ("count", "lower"),
    "fieldarith.factorize.distinct_ratio": ("ratio", "higher"),
    "crossratio.cross_ratio.distinct_ratio": ("ratio", "higher"),
    "reconstruct.rejected": ("count", "lower"),
    "exactalg.smith_normal_form.entries": ("count", "lower"),
    "magnusfox.metabelian_elem.constructed": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _trimmed_len(poly, p):
    n = len(poly)
    while n and poly[n - 1] % p == 0:
        n -= 1
    return n


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(("%s.%s" % s for s in SPANS), 0)
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.coeff_ops = 0
        self.max_degree = 0
        self.fpt_constructed = 0
        self.fpt_reduced = 0
        self.field_desc_constructed = 0
        self.metabelian_constructed = 0
        self.snf_entries = 0
        self.factorize_args = set()
        self.cross_ratio_args = set()
        self._stack = []
        self._undo = []

    # --- installation ---------------------------------------------------

    def install(self):
        mods = {
            name[len("punctline."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("punctline.")
        }
        for mod_name, fn_name in SPANS:
            orig = getattr(mods[mod_name], fn_name)
            wrapper = self._span("%s.%s" % (mod_name, fn_name), orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, attr, wrapper)
        self._hook_constructors(mods)

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _hook_constructors(self, mods):
        fieldarith = mods["fieldarith"]
        fpt_init = fieldarith.FpTElem.__init__
        desc_post = fieldarith.FieldDesc.__post_init__
        meta_post = mods["magnusfox"].MetabelianElem.__post_init__
        tracer = self

        def fpt_elem_init(elem, p, num, den=(1,)):
            fpt_init(elem, p, num, den)
            tracer.fpt_constructed += 1
            # the denominator lost degree exactly when the gcd was
            # non-trivial; rescaling to monic keeps the degree
            if len(elem.den) < _trimmed_len(den, p):
                tracer.fpt_reduced += 1

        def field_desc_post_init(desc):
            tracer.field_desc_constructed += 1
            desc_post(desc)

        def metabelian_post_init(elem):
            tracer.metabelian_constructed += 1
            meta_post(elem)

        self._set(fieldarith.FpTElem, "__init__", fpt_elem_init)
        self._set(fieldarith.FieldDesc, "__post_init__", field_desc_post_init)
        self._set(mods["magnusfox"].MetabelianElem, "__post_init__", metabelian_post_init)

    # --- counts taken at the span boundaries ----------------------------

    def _degrees(self, *polys):
        top = max(len(f) for f in polys) - 1
        if top > self.max_degree:
            self.max_degree = top

    def _observe_fppoly_mul(self, f, g, p):
        self._degrees(f, g)
        self.coeff_ops += len(f) * len(g)

    def _observe_fppoly_divmod_poly(self, f, g, p):
        self._degrees(f, g)
        self.coeff_ops += max(0, len(f) - len(g) + 1) * len(g)

    def _observe_fppoly_gcd(self, f, g, p):
        self._degrees(f, g)

    def _observe_fppoly_factor(self, f, p):
        self._degrees(f)

    def _observe_fieldarith_factorize(self, a):
        self.factorize_args.add(a)

    def _observe_crossratio_cross_ratio(self, *points):
        self.cross_ratio_args.add(points)

    def _observe_exactalg_smith_normal_form(self, a):
        rows = a.entries if hasattr(a, "entries") else a
        self.snf_entries += len(rows) * len(rows[0])

    # --- report ---------------------------------------------------------

    def metrics(self, rejected, overhead_s):
        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name, calls in self.calls.items():
            if name not in _SELF_ONLY:
                out[name + ".calls"] = calls
            out[name + ".self_s"] = self.self_s[name]
        out.update({
            "fppoly.coeff_ops": self.coeff_ops,
            "fppoly.max_degree": self.max_degree,
            "fieldarith.fpt_elem.constructed": self.fpt_constructed,
            "fieldarith.fpt_elem.reduced_ratio": ratio(self.fpt_reduced, self.fpt_constructed),
            "fieldarith.field_desc.constructed": self.field_desc_constructed,
            "fieldarith.factorize.distinct_ratio": ratio(
                len(self.factorize_args), self.calls["fieldarith.factorize"]),
            "crossratio.cross_ratio.distinct_ratio": ratio(
                len(self.cross_ratio_args), self.calls["crossratio.cross_ratio"]),
            "reconstruct.rejected": rejected,
            "exactalg.smith_normal_form.entries": self.snf_entries,
            "magnusfox.metabelian_elem.constructed": self.metabelian_constructed,
            "trace.overhead_s": overhead_s,
        })
        return {name: {"value": out[name], "unit": METRICS[name][0]} for name in METRICS}
