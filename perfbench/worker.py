"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace | --setup-only]

Reads from stdin a JSON list of answer digests that an earlier
repetition already verified, and prints one JSON object: set-up and
solve times, per-query latencies, peak RSS, answer digests, failures
and, with --trace, the per-layer summary.  The package is imported from
`src/` of the checkout this file sits in, after the clock starts, so
`setup_s` covers the import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

sys.path.insert(0, HERE)
import check  # noqa: E402  (benchmark modules; they do not import wsmc)
import gen  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")

GAME_GOALS = {"game-reach": "reach", "game-inv": "invariant",
              "game-buchi": "buchi", "game-persist": "persistence"}
PROB_GOALS = {"prob-reach-1": "reach_eq1", "prob-inv-pos": "invariant_pos"}
ORACLE_DEPTH = 4
# random-mix models declare the regions P and Q for their ctl query
CTL_FORMULA = "E(P U Q)"


def compile_query(wsmc, model, q: gen.Query):
    """The property as a CompiledProperty (or a CTL formula text)."""
    compilers = wsmc.compilers
    if q.prop == "ctl":
        compilers.parse_ctl(CTL_FORMULA)
        return CTL_FORMULA
    target = wsmc.model.parse_region_text(q.target, model)
    if q.prop == "prestar":
        return compilers.compile_pre_star(model, target)
    if q.prop == "release":
        cond = wsmc.model.parse_region_text(q.cond, model)
        return compilers.compile_forall_release(model, target, cond)
    if q.prop in GAME_GOALS:
        return compilers.compile_game(GAME_GOALS[q.prop], model, q.player, target)
    if q.prop == "asym-reach-B":
        return compilers.compile_asym_game("reach", model, "B", target)
    if q.prop in PROB_GOALS:
        return compilers.compile_prob_game(PROB_GOALS[q.prop], model, q.player, target)
    raise ValueError("unknown property %r" % (q.prop,))


def solve_query(wsmc, model, compiled, configs):
    if isinstance(compiled, str):
        region = wsmc.compilers.eval_ctl(model, compiled, wsmc.Limits())
    else:
        region, _ = compiled.run(wsmc.Limits())
    verdicts = [model.space.member(c, region) for c in configs]
    return region, verdicts, wsmc.model.region_to_text(region, model)


def digest(q: gen.Query, text: str, verdicts) -> str:
    payload = json.dumps([q.qid, q.model_text, q.target, q.cond, q.members,
                          text, verdicts])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run(workload: str, seed: int, trace: bool, verified: set,
        setup_only: bool = False) -> dict:
    queries = gen.workload_queries(workload, seed)
    tracer = None
    t0 = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "wsmc", "__init__.py")):
        raise SystemExit("perfbench: no wsmc sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import wsmc
    import wsmc.compilers
    import wsmc.model
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(wsmc)
        tracer.enabled = True

    # set-up: parse every model text, compile every property
    models = {}
    compiled, configs, compile_s = [], [], []
    for q in queries:
        if q.model_text not in models:
            models[q.model_text] = wsmc.model.parse_model(q.model_text, q.qid)
        model = models[q.model_text]
        start = time.perf_counter()
        compiled.append(compile_query(wsmc, model, q))
        compile_s.append(time.perf_counter() - start)
        configs.append([wsmc.model.parse_config(c, model) for c in q.members])
    setup_s = time.perf_counter() - t0

    if setup_only:
        return {"setup_s": setup_s}

    # solve: evaluate, answer membership, render
    answers, solve_q = [], []
    t1 = time.perf_counter()
    for q, comp, cfgs in zip(queries, compiled, configs):
        start = time.perf_counter()
        answers.append(solve_query(wsmc, models[q.model_text], comp, cfgs))
        solve_q.append(time.perf_counter() - start)
    solve_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.summary()
        layers["trace.solve_s"] = solve_s
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-%d.tsv.gz" % (workload, seed)))
        tracer.uninstall()

    # checks, outside every timed region
    goldens = None
    failures, failed, digests = [], [], []
    for q, (region, verdicts, text), cfgs in zip(queries, answers, configs):
        d = digest(q, text, verdicts)
        digests.append(d)
        if d in verified:
            continue
        if goldens is None:
            goldens = load_goldens()
        try:
            problems = verify_query(wsmc, models[q.model_text], q, region, text,
                                    verdicts, cfgs, goldens)
        except Exception as exc:  # a crash in a check is a failed query
            problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
        if problems:
            failed.append(q.qid)
            failures += ["%s: %s" % (q.qid, p) for p in problems]
    return {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb,
            "compile_q": compile_s, "solve_q": solve_q, "queries": len(queries),
            "qids": [q.qid for q in queries],
            "failed": failed, "failures": failures, "digests": digests, "layers": layers}


def load_goldens() -> dict:
    with open(GOLDENS, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- verification -------------------------------------------------------------

def verify_query(wsmc, model, q, region, text, verdicts, cfgs, goldens) -> list:
    from wsmc import oracle
    info = check.ModelInfo(q.model_text)
    rendered = check.TextRegion(text, info)
    sides = {"rendered": lambda c: c in rendered,
             "computed": lambda c: oracle.region_member(region, wsmc.Config(*c))}
    if q.golden is not None:
        if q.golden not in goldens:
            return ["no golden region %r" % q.golden]
        golden = check.TextRegion(goldens[q.golden], info)
        sides["golden"] = lambda c: c in golden
    problems = check.compare_regions(info.configs(info.enum_bound()), sides)

    for text_cfg, cfg, verdict in zip(q.members, cfgs, verdicts):
        point = check.parse_config_text(text_cfg, info)
        for name, side in sides.items():
            if side(point) != verdict:
                problems.append("member %r answered %s, %s says %s"
                                % (text_cfg, verdict, name, not verdict))
        expected = oracle_verdict(wsmc, oracle, model, q, cfg)
        if expected is not None and expected != verdict:
            problems.append("member %r answered %s, the bounded oracle says %s"
                            % (text_cfg, verdict, expected))

    if not info.channels:
        problems += finite_check(wsmc, oracle, model, q, info, region)
    return problems


def _region(wsmc, model, text):
    return wsmc.model.parse_region_text(text, model)


def oracle_verdict(wsmc, oracle, model, q, cfg):
    """The verdict the bounded explicit-state oracles prove, or None."""
    target = _region(wsmc, model, q.target)
    in_target = oracle.region_member(target, cfg)
    player = q.player
    other = {"A": "B", "B": "A"}.get(player)
    if q.prop == "prestar":
        return True if oracle.bounded_reach(model, cfg, target, ORACLE_DEPTH) == "reachable" else None
    if q.prop in ("release", "ctl"):
        cond = _region(wsmc, model, q.cond)
        if q.prop == "ctl":  # E(P U Q) with P = cond, Q = target
            return check.explicit_reach(
                oracle, model, cfg, lambda c: oracle.region_member(target, c),
                lambda c: oracle.region_member(cond, c), ORACLE_DEPTH)
        # release: all runs keep target (H) until cond (R); a finite path
        # through H & !R into !H & !R refutes it
        hold = lambda c: oracle.region_member(target, c)
        rel = lambda c: oracle.region_member(cond, c)
        if rel(cfg) and hold(cfg):
            return True
        bad = check.explicit_reach(oracle, model, cfg,
                                   lambda c: not hold(c) and not rel(c),
                                   lambda c: hold(c) and not rel(c), ORACLE_DEPTH)
        return False if bad else None
    if q.prop == "prob-reach-1":
        return True if in_target else None
    if q.prop == "prob-inv-pos":
        return False if not in_target else None
    reacher, tgt = player, target
    if q.prop in ("game-inv", "game-persist"):
        reacher, tgt = other, _region(wsmc, model, q.target_complement)
    if q.prop == "asym-reach-B":
        reacher = "B"
    verdict = oracle.bounded_game(model, cfg, tgt, reacher, ORACLE_DEPTH)
    if verdict == "unknown":
        return None
    reacher_wins = verdict == "win_%s" % reacher
    if q.prop == "game-reach":
        return reacher_wins
    if q.prop == "game-inv":
        return not reacher_wins
    if q.prop == "game-buchi":  # Buchi wins are reachability wins
        return False if not reacher_wins else None
    if q.prop == "game-persist":  # invariance wins are persistence wins
        return True if not reacher_wins else None
    if q.prop == "asym-reach-B":  # B's symmetric win holds when A steps perfectly
        return True if reacher_wins else None
    return None


def reference_term(terms, q: gen.Query):
    """The property as a textbook fixpoint over one-step operators, for
    zero-channel models (no losses, so no closures and no randomness)."""
    T, H = terms.OpApp("_T"), terms.OpApp("_H")
    pre = lambda x: terms.OpApp("pre", (x,))
    wpre = lambda x: terms.OpApp("wpre", (x,))
    U, I, X, Y = terms.Union, terms.Intersection, terms.Var("X"), terms.Var("Y")

    def cpre(player, x):
        mine = terms.OpApp("conf" + player)
        theirs = terms.OpApp("confB" if player == "A" else "confA")
        return U(I(mine, pre(x)), I(theirs, wpre(x)))

    player = "B" if q.prop == "asym-reach-B" else q.player
    if q.prop == "prestar":
        return terms.Mu("X", U(T, pre(X)))
    if q.prop == "release":
        return terms.Nu("X", I(T, U(H, wpre(X))))
    if q.prop == "ctl":
        return terms.Mu("X", U(T, I(H, pre(X))))
    if q.prop in ("game-reach", "asym-reach-B", "prob-reach-1"):
        return terms.Mu("X", U(T, cpre(player, X)))
    if q.prop in ("game-inv", "prob-inv-pos"):
        return terms.Nu("X", I(T, cpre(player, X)))
    if q.prop == "game-buchi":
        return terms.Nu("Y", terms.Mu("X", U(I(T, cpre(player, Y)), cpre(player, X))))
    if q.prop == "game-persist":
        return terms.Mu("Y", terms.Nu("X", I(U(T, cpre(player, Y)), cpre(player, X))))
    raise ValueError(q.prop)


def finite_check(wsmc, oracle, model, q, info, region) -> list:
    from wsmc import terms
    consts = {"_T": check.TextRegion(q.target, info).locations(),
              "_H": check.TextRegion(q.cond, info).locations() if q.cond else frozenset()}
    expected = oracle.finite_mc(model, reference_term(terms, q), consts=consts)
    got = frozenset(p.location for p in region.summands)
    if got != expected:
        return ["channel-free answer %s, explicit-state answer %s"
                % (sorted(got), sorted(expected))]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args(argv)
    verified = set(json.load(sys.stdin))
    result = run(args.workload, args.seed, args.trace, verified, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
