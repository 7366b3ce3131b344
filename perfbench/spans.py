"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces public functions and methods of the wsmc
modules with wrappers that record one span per call: name, start, end
and parent span.  Spans stay in memory; `Tracer.summary` derives calls,
inclusive and self time per name, and `Tracer.write` dumps the raw spans
when the run ends.  Nothing in the package itself changes.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Callable, Dict, List

# wrapped names per wsmc module; a method is "Class.method"
WRAPPED = {
    "automata": ["canonicalize", "canonical_nfa", "union", "intersection",
                 "complement", "difference", "concat", "left_residual",
                 "right_residual", "up_closure", "down_closure", "up_kernel",
                 "down_kernel", "is_empty", "is_universal", "equal", "subset"],
    "regexes": ["compile_regex", "nfa_to_regex"],
    "regions": ["RegionSpace.union", "RegionSpace.intersection",
                "RegionSpace.complement", "RegionSpace.difference",
                "RegionSpace.up_closure", "RegionSpace.down_closure",
                "RegionSpace.up_kernel", "RegionSpace.down_kernel",
                "RegionSpace.normalize", "RegionSpace.equal", "RegionSpace.subset",
                "RegionSpace.is_empty", "RegionSpace.member"],
    "terms": ["check_guarded"],
    "model": ["parse_model", "parse_region_text", "parse_config", "region_to_text",
              "GlcsModel.pre", "GlcsModel.wpre", "GlcsModel.post",
              "GlcsModel.pre_perf", "GlcsModel.pre_perf_rule",
              "ConfigAlgebra.subset", "ConfigAlgebra.equal"],
    "engine": ["evaluate"],
    "compilers": ["compile_pre_star", "compile_forall_release", "compile_game",
                  "compile_asym_game", "compile_prob_game", "parse_ctl",
                  "eval_ctl", "CompiledProperty.run"],
}

# span names that differ from "<module>.<function>"
RENAMED = {
    "model.ConfigAlgebra.subset": "engine.chain_check",
    "model.ConfigAlgebra.equal": "engine.converge_check",
    "regions.RegionSpace.up_kernel": "regions.kernel",
    "regions.RegionSpace.down_kernel": "regions.kernel",
    "regions.RegionSpace.up_closure": "regions.closure",
    "regions.RegionSpace.down_closure": "regions.closure",
    "compilers.compile_pre_star": "compilers.compile",
    "compilers.compile_forall_release": "compilers.compile",
    "compilers.compile_game": "compilers.compile",
    "compilers.compile_asym_game": "compilers.compile",
    "compilers.compile_prob_game": "compilers.compile",
    "compilers.parse_ctl": "compilers.compile",
}


def span_name(module: str, attr: str) -> str:
    full = "%s.%s" % (module, attr)
    if full in RENAMED:
        return RENAMED[full]
    return "%s.%s" % (module, attr.split(".")[-1])


class Tracer:
    """Span recorder.  Spans are four parallel arrays indexed by span id."""

    def __init__(self):
        self.enabled = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: List[list] = []  # [span id, name id, start, child ns]
        self._depth: Dict[int, int] = {}
        self.calls: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.canon_inputs: set = set()
        self._restore: List[tuple] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int):
        sid = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_end.append(0)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        self._stack.append([sid, nid, start, 0])
        self._depth[nid] = self._depth.get(nid, 0) + 1

    def exit(self):
        end = time.perf_counter_ns()
        sid, nid, start, child = self._stack.pop()
        self.span_end[sid] = end
        dur = end - start
        name = self.names[nid]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        depth = self._depth[nid] - 1
        self._depth[nid] = depth
        if depth == 0:  # count nested calls of one name once
            self.incl_ns[name] = self.incl_ns.get(name, 0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str, observe=None) -> Callable:
        nid = self.name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package):
        """Wrap every entry of WRAPPED in the imported wsmc package."""
        import importlib
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module("%s.%s" % (package.__name__, module_name))
            for attr in attrs:
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, leaf)
                name = span_name(module_name, attr)
                wrapped = self.wrap(original, name, OBSERVERS.get(name))
                self._patch(owner, leaf, original, wrapped)
                if module_name == "engine" and leaf == "evaluate":
                    # compilers bound the function at import time
                    compilers = importlib.import_module(package.__name__ + ".compilers")
                    self._patch(compilers, "evaluate", compilers.evaluate, wrapped)

    def _patch(self, owner, leaf, original, wrapped):
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, wrapped)

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    # -- output -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per span name: calls, inclusive seconds (nested calls of one
        name counted once) and self seconds; plus the counters."""
        out: Dict[str, float] = {}
        for name in self.names:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".s"] = self.incl_ns.get(name, 0) / 1e9
            out[name + ".self_s"] = self.self_ns.get(name, 0) / 1e9
        for check in ("engine.chain_check", "engine.converge_check"):
            out[check + "_s"] = out[check + ".s"]
        out.update(self.counters)
        return out

    def write(self, path: str):
        """Raw spans as gzip'd TSV: id, parent, name, start ns, end ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_name)):
                handle.write("%d\t%d\t%s\t%d\t%d\n" % (
                    sid, self.span_parent[sid], self.names[self.span_name[sid]],
                    self.span_start[sid], self.span_end[sid]))


# -- per-call observations beyond time and calls ----------------------------

def _obs_canonicalize(tracer: Tracer, args, result):
    tracer.count("automata.canonicalize.states_out", result.n_states)
    tracer.canon_inputs.add(args[0])
    tracer.counters["automata.canonicalize.distinct_inputs"] = len(tracer.canon_inputs)


def _obs_normalize(tracer: Tracer, args, result):
    tracer.count("regions.normalize.summands_in", len(args[1].summands))
    tracer.count("regions.normalize.summands_out", len(result.summands))


def _obs_pre_perf_rule(tracer: Tracer, args, result):
    tracer.count("model.pre_perf_rule.nonempty", 1 if result.summands else 0)


def _obs_run(tracer: Tracer, args, result):
    _, stats = result
    runs = [count for counts in stats.iterations.values() for count in counts]
    tracer.count("engine.iterations", sum(runs))
    tracer.count("engine.binder_runs", len(runs))
    tracer.peak("engine.max_value_size", stats.max_value_size)


OBSERVERS = {
    "automata.canonicalize": _obs_canonicalize,
    "regions.normalize": _obs_normalize,
    "model.pre_perf_rule": _obs_pre_perf_rule,
    "engine.evaluate": _obs_run,
}
