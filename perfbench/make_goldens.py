"""Compute the golden answer regions of the fixed-model workloads.

    python3 perfbench/make_goldens.py

Evaluates every query of `abp-prestar` and `relay-games` with the wsmc
sources of this checkout, runs the same checks as the benchmark with
the rendered regions as goldens (enumeration against the computed
region, membership against the bounded oracles), and writes
`goldens.json` only if every check passes.  The regions do not depend
on the seed; only the membership questions do, so several seeds are
checked.
"""

from __future__ import annotations

import json
import sys

import worker

SEEDS = (1, 2, 3)


def main() -> int:
    sys.path.insert(0, worker.SRC)
    import wsmc
    import wsmc.compilers
    import wsmc.model
    goldens, problems = {}, []
    for workload in ("abp-prestar", "relay-games"):
        for seed in SEEDS:
            for q in worker.gen.workload_queries(workload, seed):
                model = wsmc.model.parse_model(q.model_text, q.qid)
                cfgs = [wsmc.model.parse_config(c, model) for c in q.members]
                region, verdicts, text = worker.solve_query(
                    wsmc, model, worker.compile_query(wsmc, model, q), cfgs)
                if goldens.setdefault(q.golden, text) != text:
                    problems.append("%s: answer depends on the seed" % q.qid)
                problems += ["%s: %s" % (q.qid, p) for p in worker.verify_query(
                    wsmc, model, q, region, text, verdicts, cfgs, goldens)]
                print("checked %s seed %d" % (q.qid, seed), flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(worker.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
