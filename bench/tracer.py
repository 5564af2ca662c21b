"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces every public function of every `bisochan.*` module
at each module attribute that binds it (modules import each other's
functions by name, so one function can be bound in several places) and the
check functions in the `checks.CHECKS` registry.  `uninstall` puts the
originals back.  No file under `src/` is edited.

Each call records a span (name, parent span, start, end) in memory.  Self
time is a span's duration minus the durations of its direct children.
Callables handed to the search helpers from another module get spans of
their own, named `<module>.objective`, so objective evaluations count toward
the layer that defines them rather than toward the search loop.
"""

import sys
import time
import types
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("channels", "coefficients", "search", "simplex", "orders", "extremal", "applications", "checks", "cli")
DECISIONS = ("orders.is_degraded", "orders.is_less_noisy", "orders.is_more_capable")
GOLDEN_DECISIONS = ("orders.is_less_noisy", "orders.is_more_capable")

# Per-layer metrics that name one function: "<function>.<stat>".
FUNCTION_METRICS = (
    ("orders.is_less_noisy", "calls"),
    ("orders.is_degraded", "self_ms"), ("orders.is_degraded", "calls"),
    ("orders.is_more_capable", "self_ms"), ("orders.is_more_capable", "calls"),
    ("orders.criterion_profile", "self_ms"),
    ("simplex.lp_feasibility", "self_ms"), ("simplex.lp_feasibility", "calls"),
    ("search.golden_section_max", "calls"),
    ("search.scan_then_golden_max", "calls"),
    ("search.bisect_threshold", "calls"),
    ("channels.parse_channel", "self_ms"),
    ("channels.canonicalize_biso", "self_ms"), ("channels.canonicalize_biso", "calls"),
    ("channels.compose", "calls"),
    ("coefficients.eta_kl_binary_argmax", "self_ms"),
    ("coefficients.capacity_binary_argmax", "self_ms"),
    ("coefficients.coefficient_report", "self_ms"),
    ("coefficients.mutual_information_grid", "self_ms"),
    ("extremal.match_extremal", "self_ms"),
    ("extremal.verify_reverse_alpha", "self_ms"),
    ("extremal.verify_reverse_beta", "self_ms"),
    ("extremal.verify_reverse_gamma", "self_ms"),
    ("extremal.dim3_less_noisy_compare", "self_ms"),
    ("applications.fi_curve_bounds", "self_ms"), ("applications.fi_curve_bounds", "calls"),
)

# Less-noisy pairs whose contraction coefficients agree this closely touch
# at q = 1/2, where the criterion is 4 (eta_W - eta_V).
TOUCHING_ETA_TOL = 1e-9


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith((".calls", ".evals", "_calls", "_ops")):
        return "count"
    return "ratio"


def _short(fn):
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


def _is_package_function(value):
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith("bisochan.")
        and not value.__name__.startswith("_")
    )


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names = []  # span name table; spans store indices into it
        self.span_names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.relations = {}  # span id -> verdict relation or LP feasibility
        self.ln_args = {}  # span id -> (w, v) of an is_less_noisy call
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name):
        name_id = self._name_id(name)
        span_names, parents, starts, ends, stack = self.span_names, self.parents, self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_names)
            span_names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _counted(self, fn, counter):
        def counted(*args):
            self.counts[counter] += 1
            return fn(*args)

        return counted

    def _objective(self, fn):
        """Span for a callable a search helper receives from another module."""
        module = getattr(fn, "__module__", "") or ""
        if not module.startswith("bisochan.") or module == "bisochan.search":
            return fn
        return self._span(fn, module.rsplit(".", 1)[-1] + ".objective")

    def _wrap(self, fn):
        name = _short(fn)
        plain = self._span(fn, name)
        if name in ("search.golden_section_max", "search.bisect_threshold"):
            counter = name + (".evals" if name.endswith("max") else ".pred_calls")

            def search(f, *args, **kwargs):
                return plain(self._counted(self._objective(f), counter), *args, **kwargs)

            return search
        if name in ("search.golden_section_min", "search.scan_then_golden_max"):

            def search(f, *args, **kwargs):
                if kwargs.get("f_grid") is not None:
                    kwargs["f_grid"] = self._objective(kwargs["f_grid"])
                return plain(self._objective(f), *args, **kwargs)

            return search
        if name in DECISIONS or name == "simplex.lp_feasibility":

            def decision(*args, **kwargs):
                sid = len(self.span_names)
                result = plain(*args, **kwargs)
                self.relations[sid] = getattr(result, "relation", None) or getattr(result, "feasible", None)
                if name == "orders.is_less_noisy":
                    self.ln_args[sid] = args[:2]
                return result

            return decision
        return plain

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "bisochan" or n.startswith("bisochan.")]
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if _is_package_function(value):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    self._patched.append((module, attr, value))
        for module, attr, value in self._patched:
            setattr(module, attr, wrappers[id(value)])
        checks = sys.modules["bisochan.checks"]
        self._checks = list(checks.CHECKS)
        checks.CHECKS[:] = [(cid, title, self._span(fn, "checks." + cid)) for cid, title, fn in self._checks]

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched = []
        sys.modules["bisochan.checks"].CHECKS[:] = self._checks

    # -- reduction ----------------------------------------------------------

    def durations(self):
        """(total, self) seconds per span, as arrays indexed by span id."""
        total = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents)
        child = parents >= 0
        own = total - np.bincount(parents[child], weights=total[child], minlength=len(total))
        return total, own

    def metrics(self, n_ops, check_ids, touching):
        """Per-layer metrics of one traced pass over `n_ops` ops.

        `touching(w, v)` classifies an is_less_noisy argument pair; it runs
        after the pass, so classification costs no traced time.
        """
        total, own = self.durations()
        span_names = np.array(self.span_names)
        n_names = len(self.names)
        calls = dict(zip(self.names, np.bincount(span_names, minlength=n_names).tolist()))
        self_s = dict(zip(self.names, np.bincount(span_names, weights=own, minlength=n_names).tolist()))
        total_s = dict(zip(self.names, np.bincount(span_names, weights=total, minlength=n_names).tolist()))
        layer_s = defaultdict(float)
        for name, seconds in self_s.items():
            layer_s[name.split(".", 1)[0]] += seconds

        out = {}
        for fn, stat in FUNCTION_METRICS:
            out[f"{fn}.{stat}"] = calls.get(fn, 0) if stat == "calls" else 1e3 * self_s.get(fn, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * layer_s[layer]

        split = {"touching": [0, 0.0, 0.0], "separated": [0, 0.0, 0.0]}
        for sid, (w, v) in self.ln_args.items():
            entry = split["touching" if touching(w, v) else "separated"]
            entry[0] += 1
            entry[1] += float(own[sid])
            entry[2] += float(total[sid])
        for kind, (n, s, t) in split.items():
            out[f"orders.is_less_noisy.{kind}.calls"] = n
            out[f"orders.is_less_noisy.{kind}.self_ms"] = 1e3 * s
            out[f"orders.is_less_noisy.{kind}.total_ms"] = 1e3 * t
        per_call = {k: (t / n if n else 0.0) for k, (n, _, t) in split.items()}
        out["orders.is_less_noisy.touching_to_separated_ratio"] = (
            per_call["touching"] / per_call["separated"] if per_call["separated"] else 0.0
        )

        decisions = sum(calls.get(d, 0) for d in DECISIONS)
        names = [self.names[self.span_names[sid]] for sid in self.relations]
        verdicts = [r for name, r in zip(names, self.relations.values()) if name in DECISIONS]
        out["orders.undetermined_ratio"] = verdicts.count("undetermined") / decisions if decisions else 0.0
        lp = [r for name, r in zip(names, self.relations.values()) if name == "simplex.lp_feasibility"]
        out["simplex.feasible_ratio"] = lp.count(True) / len(lp) if lp else 0.0
        golden_decisions = sum(calls.get(d, 0) for d in GOLDEN_DECISIONS)
        out["search.golden_section_max.evals"] = self.counts["search.golden_section_max.evals"]
        out["search.bisect_threshold.pred_calls"] = self.counts["search.bisect_threshold.pred_calls"]
        out["search.golden_per_decision"] = (
            calls.get("search.golden_section_max", 0) / golden_decisions if golden_decisions else 0.0
        )
        out["channels.canonicalize_per_op"] = calls.get("channels.canonicalize_biso", 0) / n_ops
        for cid in check_ids:
            out[f"checks.{cid}.wall_ms"] = 1e3 * total_s.get("checks." + cid, 0.0)
        return out

    def write(self, path):
        """Write the spans as a compressed .npz file.

        Arrays: `parent` (span id, -1 for a root), `name` (index into
        `names`), `start_us` (from the first span) and `dur_us`.
        """
        starts = np.array(self.starts)
        t0 = starts[0] if len(starts) else 0.0
        np.savez_compressed(
            path,
            parent=np.array(self.parents, dtype=np.int32),
            name=np.array(self.span_names, dtype=np.int16),
            start_us=(1e6 * (starts - t0)).astype(np.float32),
            dur_us=(1e6 * (np.array(self.ends) - starts)).astype(np.float32),
            names=np.array(self.names),
        )
