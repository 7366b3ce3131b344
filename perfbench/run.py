"""wsmc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload abp-prestar --seed 1 --seconds 55 --trace 0

Runs repetitions of the workload, each in a fresh interpreter
(`worker.py`), until the time is up, and prints as its last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (medians over the
repetitions); with `--trace 1` repetitions alternate between untraced
and traced, and the metrics are the per-layer ones from the traced
repetitions plus the tracing overhead.  Every answer is checked (see
`check.py`); a repetition re-checks only answers it has not seen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src", "wsmc")
WORKLOADS = ("abp-prestar", "relay-games", "random-mix")
MIN_REPS = 3
SETUP_SAMPLES = 2
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; names come from spans.Tracer.summary()
PER_LAYER = {
    "automata.canonicalize.calls": "count",
    "automata.canonicalize.self_s": "s",
    "automata.canonicalize.distinct_inputs": "count",
    "automata.canonicalize.states_out": "count",
    "automata.intersection.calls": "count",
    "automata.intersection.self_s": "s",
    "automata.complement.calls": "count",
    "automata.complement.self_s": "s",
    "automata.subset.calls": "count",
    "automata.subset.self_s": "s",
    "automata.is_empty.calls": "count",
    "regions.normalize.calls": "count",
    "regions.normalize.self_s": "s",
    "regions.normalize.summands_in": "count",
    "regions.normalize.summands_out": "count",
    "regions.union.calls": "count",
    "regions.union.s": "s",
    "regions.complement.calls": "count",
    "regions.complement.s": "s",
    "regions.kernel.calls": "count",
    "regions.closure.calls": "count",
    "regions.closure.s": "s",
    "regions.intersection.calls": "count",
    "regions.intersection.s": "s",
    "regions.equal.calls": "count",
    "regions.equal.s": "s",
    "regions.subset.calls": "count",
    "regions.subset.s": "s",
    "model.pre.calls": "count",
    "model.pre.s": "s",
    "model.wpre.calls": "count",
    "model.pre_perf_rule.calls": "count",
    "model.pre_perf_rule.nonempty_ratio": "ratio",
    "engine.evaluate.s": "s",
    "engine.iterations": "count",
    "engine.binder_runs": "count",
    "engine.max_value_size": "count",
    "engine.chain_check_s": "s",
    "engine.converge_check_s": "s",
    "model.parse_model.s": "s",
    "regexes.compile_regex.calls": "count",
    "regexes.compile_regex.s": "s",
    "compilers.compile.s": "s",
    "terms.check_guarded.s": "s",
    "regexes.nfa_to_regex.calls": "count",
    "regexes.nfa_to_regex.s": "s",
    "trace.overhead_s": "s",
}


def run_worker(workload: str, seed: int, flag: str, verified: set) -> dict:
    """One worker process; `flag` is "", "--trace" or "--setup-only"."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)] + ([flag] if flag else [])
    proc = subprocess.run(cmd, input=json.dumps(sorted(verified)),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench: worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until `seconds` have passed: at least MIN_REPS, or
    with tracing at least one untraced/traced pair.  Stops rather than
    start a repetition (or pair) that would overrun by more than half.
    Between repetitions, SETUP_SAMPLES set-up-only workers sample setup_s.
    Returns the repetitions and the set-up samples."""
    reps, setups, verified = [], [], set()
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            rep = run_worker(workload, seed, "--trace" if traced else "", verified)
            rep["traced"] = traced
            failed = set(rep["failed"])
            verified |= {d for d, qid in zip(rep["digests"], rep["qids"])
                         if qid not in failed}
            reps.append(rep)
            if not traced:
                setups.append(rep["setup_s"])
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(workload, seed, "--setup-only", set())["setup_s"])
        now = time.perf_counter()
        enough = trace or len(reps) >= MIN_REPS
        if enough and now - start + 0.5 * (now - unit_start) >= seconds:
            return reps, setups


def end_to_end(reps: list, setups: list) -> dict:
    """Medians over repetitions; solve_s sums each query's median."""
    solve = [statistics.median(s) for s in zip(*(rep["solve_q"] for rep in reps))]
    values = {
        "setup_s": statistics.median(setups),
        "solve_s": sum(solve),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def query_latency(reps: list) -> list:
    """Interpolated 50th and 90th percentiles over queries of each
    query's median time to verdict (compile + run + member + render)."""
    latency = [statistics.median(c + s for c, s in zip(cs, ss))
               for cs, ss in zip(zip(*(rep["compile_q"] for rep in reps)),
                                 zip(*(rep["solve_q"] for rep in reps)))]
    deciles = statistics.quantiles(latency, n=10, method="inclusive")
    return [deciles[4], deciles[8]]


def per_layer(reps: list) -> dict:
    traced = [rep["layers"] for rep in reps if rep["traced"]]
    plain = [rep["solve_s"] for rep in reps if not rep["traced"]]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = (statistics.median(layers["trace.solve_s"] for layers in traced)
                     - statistics.median(plain))
        elif name == "model.pre_perf_rule.nonempty_ratio":
            value = statistics.median(
                layers.get("model.pre_perf_rule.nonempty", 0)
                / max(1, layers.get("model.pre_perf_rule.calls", 0))
                for layers in traced)
        else:
            value = statistics.median(layers.get(name, 0) for layers in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wsmc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("perfbench: wsmc sources not found at %s" % SRC, file=sys.stderr)
        return 2

    reps, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(rep["queries"] for rep in reps)
    failed = sum(len(rep["failed"]) for rep in reps)
    for rep in reps:
        for line in rep["failures"]:
            print("FAILED %s" % line, file=sys.stderr)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, setups)
    print("# %s seed %d: %d repetitions of %d queries, %d set-up samples"
          % (args.workload, args.seed, len(reps), reps[0]["queries"], len(setups)))
    plain = [rep for rep in reps if not rep["traced"]]
    print("# query time to verdict over %d per-query medians: p50 %.6f s, p90 %.6f s"
          % ((plain[0]["queries"],) + tuple(query_latency(plain))))
    for i, rep in enumerate(reps):
        print("# repetition %d%s: setup_s %.6f solve_s %.6f"
              % (i, " (traced)" if rep["traced"] else "", rep["setup_s"], rep["solve_s"]))
    for name, metric in metrics.items():
        print("# %-40s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
