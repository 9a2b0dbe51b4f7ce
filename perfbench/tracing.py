"""Span tracing at cltlab's public module boundaries, installed from outside.

The tracer replaces public functions with wrappers on every cltlab module
attribute that holds them, because each calling module looks its callees up
in its own namespace (``cltlab.clt.iid_sum_normalized``, not
``cltlab.distributions.iid_sum_normalized``).  Private helpers such as
``_convolve_discrete`` and ``_gk15`` are not spanned.  Spans stay in memory
as ``[name, parent index, start, end, raised]`` and are aggregated, or
written out, when the run ends.

This module imports only the standard library, so that ``python -X
importtime`` charges numpy to cltlab when the CLI launcher uses it.
"""

import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  A dotted attribute is a method looked up
# on its class at call time; finite_space is traced as one layer.
SPANNED = (
    ("numerics", "integrate", "numerics.integrate"),
    ("numerics", "integrate_complex", "numerics.integrate_complex"),
    ("numerics", "integrate_oscillatory", "numerics.integrate_oscillatory"),
    ("numerics", "gaussian_moment", "numerics.gaussian_moment"),
    ("distributions", "iid_sum_normalized", "distributions.iid_sum_normalized"),
    ("distributions", "convolve", "distributions.convolve"),
    ("distributions", "cdf", "distributions.cdf"),
    ("distributions", "quantile", "distributions.quantile"),
    ("distributions", "Density.__post_init__", "distributions.density_build"),
    ("distributions", "sample", "distributions.sample"),
    ("distributions", "mean", "distributions.mean"),
    ("distributions", "variance", "distributions.variance"),
    ("charfuns", "charfun", "charfuns.charfun"),
    ("charfuns", "levy_invert", "charfuns.levy_invert"),
    ("weak_convergence", "cdf_distance", "weak_convergence.cdf_distance"),
    ("weak_convergence", "levy_metric", "weak_convergence.levy_metric"),
    ("weak_convergence", "ConvergenceProbe.__post_init__", "weak_convergence.probe_build"),
    ("clt", "run_clt", "clt.run_clt"),
    ("cli", "main", "cli.main"),
) + tuple(
    ("finite_space", fn, "finite_space")
    for fn in ("are_independent", "expectation", "fair_die_space", "generate_sigma_algebra",
               "is_probability_measure", "product_space", "pushforward", "variance")
)

# cltlab's own integrands, whose evaluations count as integrand points
# alongside the benchmark's callables.
COUNTED = (("distributions", "normal_density"), ("numerics", "sinc"))

# name -> (unit, better) for every per-layer metric, in report order.
LAYER_METRICS = {}
for _layer in dict.fromkeys(span for _, _, span in SPANNED):
    LAYER_METRICS[f"{_layer}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower")
    LAYER_METRICS[f"{_layer}.errors"] = ("count", "lower")
LAYER_METRICS.update({
    "numerics.points_evaluated": ("count", "lower"),
    "distributions.atoms_out": ("count", "lower"),
    "clt.rows": ("count", "higher"),
    "clt.mc_draws_total": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_numpy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _atoms_out(args, kwargs, out):
    return {"distributions.atoms_out": out.points.size} if hasattr(out, "points") else {}


def _clt_rows(args, kwargs, out):
    exp = args[0] if args else kwargs["exp"]
    rows = len(out.rows)
    return {"clt.rows": rows, "clt.mc_draws_total": (exp.mc_draws or 0) * rows}


ON_RETURN = {
    "distributions.iid_sum_normalized": _atoms_out,
    "distributions.convolve": _atoms_out,
    "clt.run_clt": _clt_rows,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.imports = {}  # package -> import seconds, one per traced process
        self._stack = []
        self._patched = []

    def span(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        on_return = ON_RETURN.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                counters.update(on_return(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn):
        """Wrap a scalar (or array) callable so its evaluations are counted;
        an array argument counts its size."""
        counters = self.counters

        def counting(x, *rest, **kwargs):
            counters["numerics.points_evaluated"] += getattr(x, "size", 1)
            return fn(x, *rest, **kwargs)

        return counting

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if name == "cltlab" or name.startswith("cltlab.")]
        for mod, attr, span in SPANNED:
            home = sys.modules.get("cltlab." + mod)
            if home is None:  # cltlab.cli is imported only by the CLI
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self.span(span, cls.__dict__[meth]))
            else:
                orig = getattr(home, attr)
                self._replace_everywhere(mods, orig, self.span(span, orig))
        for mod, attr in COUNTED:
            orig = getattr(sys.modules["cltlab." + mod], attr)
            self._replace_everywhere(mods, orig, self.counted(orig))

    def _replace_everywhere(self, mods, orig, wrapper):
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._patch(m, key, wrapper)

    def _patch(self, obj, attr, value):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patched:
            obj, attr, value = self._patched.pop()
            setattr(obj, attr, value)

    def absorb(self, data):
        """Append spans and counters dumped by another traced process."""
        offset = len(self.spans)
        for name, parent, start, end, raised in data["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1, start, end, raised])
        self.counters.update(data["counters"])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)

    def layer_metrics(self, cycles: int) -> dict:
        """Per-cycle calls, self time and errors for every layer, plus the
        counters.  Self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in LAYER_METRICS}
        for i, (name, _, start, end, raised) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
            out[f"{name}.errors"] += raised
        for name, value in self.counters.items():
            out[name] += value
        return {name: value / cycles for name, value in out.items()}


def import_times(stderr_text: str) -> dict:
    """Cumulative import seconds of cltlab and numpy from -X importtime."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        pkg = parts[2].strip()
        if pkg in ("cltlab", "numpy"):
            found[pkg] = int(parts[1]) * 1e-6
    return found
