"""Per-layer numbers for a traced run, measured from outside the program.

Two sources, both switched on only in a traced run:

* cProfile, the standard library's deterministic profiler.  Self time is
  summed by supkit module; a function outside supkit (a built-in, the
  standard library, a dataclass's generated method) is charged to the
  modules of its callers, in proportion to the time each caller spent in
  it.  Inclusive times and plain call counts are read at a named function.
* counting wrappers put around public functions, for counts the profiler
  cannot give: structures yielded, task runs and leaf tables of the table
  search, extendability prunes, and oracle cache hits.

A metric whose function no longer exists is reported as missing, not as
zero.
"""

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import sys

# metric -> (supkit module, functions in it, what to read from the profile)
PROFILE_METRICS = {
    "syntax.is_classical_calls": ("syntax", ("is_classical",), "calls"),
    "syntax.free_vars_calls": ("syntax", ("free_vars",), "calls"),
    "syntax.classify_calls": ("syntax", ("classify",), "calls"),
    "syntax.to_text_calls": ("syntax", ("to_text",), "calls"),
    "syntax.parse_s": ("syntax", ("parse",), "incl"),
    "models.eval_classical_calls": ("models", ("eval_classical",), "calls"),
    "semantics.eval_scs_s": ("semantics", ("eval_scs",), "incl"),
    "choice.extendable_s": ("choice", ("extendable",), "incl"),
    "choice.oracle_s": ("choice", ("BoundedModelOracle.equivalent",
                                   "TruthTableOracle.equivalent"), "incl"),
    "proofs.check_proof_s": ("proofs", ("check_proof",), "incl"),
    "proofs.lines_checked": ("proofs", ("_check_line",), "calls"),
    "proofs.primitive_form_calls": ("syntax", ("primitive_form",), "calls"),
    "corpus.load_s": ("corpus", ("corpus_entries",), "incl"),
}
SELF_MODULES = ("syntax", "models", "semantics", "choice", "proofs", "cli")
_POOL_FILES = ("/concurrent/", "/multiprocessing/", "/threading.py", "/selectors.py",
               "/queue.py")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_efficiency"):
        return "ratio"
    return "count"


class Tracer:
    """Installs the wrappers and the profiler; ``stop`` removes them."""

    def __init__(self, package):
        self.package = package
        self.package_dir = os.path.dirname(package.__file__)
        self.counts = dict.fromkeys(
            ("models.structures", "choice.task_runs", "choice.leaf_tables",
             "choice.extendable_calls", "choice.extendable_false",
             "choice.oracle_queries", "choice.oracle_hits"), 0)
        self.missing = set()
        self._undo = []
        self.profile = cProfile.Profile()

    # -- wrappers --------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package.__name__
                                      or name.startswith(prefix))]

    def _replace(self, module_name, func_name, make_wrapper, metrics):
        module = sys.modules.get(f"{self.package.__name__}.{module_name}")
        original = getattr(module, func_name, None)
        if original is None:
            self.missing.update(metrics)
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _wrap_method(self, module_name, class_name, method, metrics):
        cls = getattr(sys.modules.get(f"{self.package.__name__}.{module_name}"),
                      class_name, None)
        original = getattr(cls, method, None)
        if original is None:
            self.missing.update(metrics)
            return
        counts = self.counts

        def equivalent(oracle, a, b):
            before = len(getattr(oracle, "_cache", ()))
            result = original(oracle, a, b)
            counts["choice.oracle_queries"] += 1
            if len(getattr(oracle, "_cache", ())) == before:
                counts["choice.oracle_hits"] += 1
            return result

        setattr(cls, method, functools.wraps(original)(equivalent))
        self._undo.append((cls, method, original))

    def _install_wrappers(self):
        counts = self.counts

        def structures(original):
            def wrapper(*args, **kwargs):
                for structure in original(*args, **kwargs):
                    counts["models.structures"] += 1
                    yield structure
            return wrapper

        def enumerate_tables(original):
            def wrapper(task, *args, **kwargs):
                def counted_task(table):
                    counts["choice.task_runs"] += 1
                    return task(table)
                for item in original(counted_task, *args, **kwargs):
                    counts["choice.leaf_tables"] += 1
                    yield item
            return wrapper

        def extendable(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                counts["choice.extendable_calls"] += 1
                if not result:
                    counts["choice.extendable_false"] += 1
                return result
            return wrapper

        self._replace("models", "structures_over", structures, ["models.structures"])
        self._replace("choice", "enumerate_tables", enumerate_tables,
                      ["choice.task_runs", "choice.leaf_tables", "choice.leaf_ratio"])
        self._replace("choice", "extendable", extendable,
                      ["choice.extendable_calls", "choice.prune_ratio"])
        for cls in ("BoundedModelOracle", "TruthTableOracle"):
            self._wrap_method("choice", cls, "equivalent",
                              ["choice.oracle_queries", "choice.oracle_hit_ratio"])

    def start(self):
        self._install_wrappers()
        # Worker processes forked by --jobs would inherit the profiler and
        # run several times slower; their own work is not traced.
        os.register_at_fork(after_in_child=self.profile.disable)
        self.profile.enable()

    def stop(self):
        self.profile.disable()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------

    def _module_of(self, key):
        filename = key[0]
        if os.path.dirname(filename) == self.package_dir:
            return os.path.splitext(os.path.basename(filename))[0]
        if os.path.dirname(filename) == os.path.dirname(os.path.abspath(__file__)):
            return "bench"
        if any(part in filename for part in _POOL_FILES):
            return "pool"   # waiting for --jobs workers, not a supkit layer
        return None

    def _profile_key(self, module_name, qualname):
        """The profiler's key for a supkit function, or None when the
        function does not exist."""
        try:
            obj = importlib.import_module(f"{self.package.__name__}.{module_name}")
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            return None
        code = inspect.unwrap(obj).__code__
        return code.co_filename, code.co_firstlineno, code.co_name

    def _layer_self_times(self, stats):
        shares = {}

        def owners(key, stack=()):
            module = self._module_of(key)
            if module is not None:
                return {module: 1.0}
            if key in shares:
                return shares[key]
            callers = stats[key][4]
            weights = {c: v[2] for c, v in callers.items() if c not in stack}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[0] for c, v in callers.items() if c not in stack}
                total = sum(weights.values())
            out = {}
            for caller, weight in weights.items():
                if caller not in stats:
                    continue
                for module, share in owners(caller, stack + (key,)).items():
                    out[module] = out.get(module, 0.0) + share * weight / total
            if not stack:
                shares[key] = out
            return out

        times = dict.fromkeys(SELF_MODULES, 0.0)
        for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for module, share in owners(key).items():
                if module in times:
                    times[module] += tt * share
        return times

    def metrics(self, models_checked, wall_s, worker_cpu_s, jobs):
        stats = pstats.Stats(self.profile).stats
        out = {f"{m}.self_s": t for m, t in self._layer_self_times(stats).items()}
        for name, (module, funcs, kind) in PROFILE_METRICS.items():
            keys = [k for k in (self._profile_key(module, f) for f in funcs) if k]
            if not keys:
                self.missing.add(name)
                continue
            index = 1 if kind == "calls" else 3
            out[name] = sum(stats[k][index] for k in keys if k in stats)
        c = self.counts
        out["models.structures"] = c["models.structures"]
        out["semantics.models_checked"] = models_checked
        out["choice.task_runs"] = c["choice.task_runs"]
        out["choice.leaf_tables"] = c["choice.leaf_tables"]
        out["choice.leaf_ratio"] = _ratio(c["choice.leaf_tables"], c["choice.task_runs"])
        out["choice.extendable_calls"] = c["choice.extendable_calls"]
        out["choice.prune_ratio"] = _ratio(c["choice.extendable_false"],
                                           c["choice.extendable_calls"])
        out["choice.oracle_queries"] = c["choice.oracle_queries"]
        out["choice.oracle_hit_ratio"] = _ratio(c["choice.oracle_hits"],
                                                c["choice.oracle_queries"])
        out["cli.worker_cpu_s"] = worker_cpu_s
        out["cli.parallel_efficiency"] = (_ratio(worker_cpu_s, wall_s * jobs)
                                          if jobs > 1 else 0.0)
        for name in self.missing:
            out.pop(name, None)
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0
