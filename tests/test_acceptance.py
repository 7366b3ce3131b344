"""Acceptance gate: one check per contract criterion, all exact.

Each test prints a single pass line; comparisons are symbolic equalities
with no tolerances.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from wsmc import automata, compilers, engine, oracle, terms
from wsmc.automata import Alphabet
from wsmc.engine import Limits, evaluate
from wsmc.model import GlcsModel, LOSSY, load_model
from wsmc.regions import Config
from wsmc.terms import (
    Down, Intersection, Kdown, Kup, Mu, Nu, OpApp, Union, Up, Var,
    check_guarded, unfold)

from conftest import (
    CLOSURE_ORACLES, FIXTURE_COMMANDS, fixture_argv, model_path, random_model,
    random_nfa, random_region_for)
import record_fixture_goldens
from record_fixture_goldens import GOLDENS, run_fixture
from test_compilers import all_compiled, ctl_explicit, ctl_tuple
from test_engine import closing_example

AB = Alphabet(("a", "b"))


def passed(number, label):
    print("criterion %d (%s): PASS" % (number, label))


def locations_of(model, region):
    return frozenset(p.location for p in model.space.normalize(region).summands)


def run_vs_finite_mc(model, prop, limits=None):
    region, _ = prop.run(limits or Limits())
    got = locations_of(model, region)
    consts = {name: frozenset(p.location for p in reg.summands)
              for name, reg in prop.algebra.constants.items()}
    want = oracle.finite_mc(model, prop.term, consts=consts)
    if prop.negate:
        want = frozenset(model.locations) - want
    return got, want


def test_criterion_1_closure_kernel_correctness():
    start = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        nfa = random_nfa(rng, AB, max_states=6)
        for fn, member in CLOSURE_ORACLES:
            assert oracle.language_slice(fn(nfa), 6) == \
                {w for w in oracle.enum_words(AB, 6) if member(nfa, w)}
        assert automata.equal(
            automata.complement(automata.up_kernel(nfa)),
            automata.down_closure(automata.complement(nfa)))
        assert automata.equal(
            automata.complement(automata.down_kernel(nfa)),
            automata.up_closure(automata.complement(nfa)))
    assert time.monotonic() - start < 60
    passed(1, "closure/kernel correctness")


def test_criterion_2_lossy_step_identities():
    start = time.monotonic()
    rng = random.Random(102)
    for _ in range(100):
        model = random_model(rng, max_locations=4, max_channels=2,
                             max_rules=6, with_guards=True)
        region = random_region_for(rng, model)
        assert model.space.equal(
            model.pre(region, LOSSY),
            model.pre(model.space.up_closure(region), LOSSY))
        assert model.space.equal(
            model.wpre(region, LOSSY),
            model.wpre(model.space.down_kernel(region), LOSSY))
    assert time.monotonic() - start < 120
    passed(2, "lossy-step closure/kernel identities")


def random_zero_channel_term(rng, algebra, model, depth, scope):
    leaves = ["const", "confA", "confB", "empty", "all"]
    if scope:
        leaves.extend(["var"] * 3)
    if depth <= 0:
        pick = rng.choice(leaves)
        if pick == "var":
            return Var(rng.choice(scope))
        if pick == "const":
            name = algebra.bind_constant(random_region_for(rng, model))
            return OpApp(name)
        return OpApp(pick)
    pick = rng.choice(["leaf", "union", "inter", "step", "closure",
                       "mu", "nu"])
    sub = lambda s=scope: random_zero_channel_term(rng, algebra, model,
                                                   depth - 1, s)
    if pick == "leaf":
        return random_zero_channel_term(rng, algebra, model, 0, scope)
    if pick == "union":
        return Union(sub(), sub())
    if pick == "inter":
        return Intersection(sub(), sub())
    if pick == "step":
        op = rng.choice(["pre", "prep", "wpre", "wprep", "post", "postp"])
        return OpApp(op, (sub(),))
    if pick == "closure":
        return rng.choice([Up, Down, Kup, Kdown])(sub())
    var = "V%d" % rng.randrange(1000)
    body = random_zero_channel_term(rng, algebra, model, depth - 1,
                                    scope + [var])
    return (Mu if pick == "mu" else Nu)(var, body)


def random_ctl(rng, depth):
    if depth <= 0:
        return rng.choice(["R0", "R1", "all", "empty"])
    pick = rng.choice(["leaf", "not", "and", "ex", "eu"])
    if pick == "leaf":
        return random_ctl(rng, 0)
    if pick == "not":
        return "!(%s)" % random_ctl(rng, depth - 1)
    if pick == "and":
        return "(%s) & (%s)" % (random_ctl(rng, depth - 1),
                                random_ctl(rng, depth - 1))
    if pick == "ex":
        return "EX (%s)" % random_ctl(rng, depth - 1)
    return "E((%s) U (%s))" % (random_ctl(rng, depth - 1),
                               random_ctl(rng, depth - 1))


def test_criterion_3_zero_channel_oracle_equivalence():
    rng = random.Random(103)
    for i in range(100):
        model = random_model(rng, max_channels=0, game=True,
                             with_guards=False)
        # arbitrary random closed terms, unguarded ones included: each
        # binder converges within the height of the location lattice
        algebra = model.algebra()
        term = random_zero_channel_term(rng, algebra, model, 4, [])
        limits = Limits(max_iter=len(model.locations) + 2)
        value, _ = evaluate(term, {}, algebra, limits)
        consts = {name: frozenset(p.location for p in reg.summands)
                  for name, reg in algebra.constants.items()}
        assert locations_of(model, value) == \
            oracle.finite_mc(model, term, consts=consts)
        # the compiled temporal, game, and probabilistic goals
        if i < 25:
            target = random_region_for(rng, model)
            safe = random_region_for(rng, model)
            for prop in all_compiled(model, target, safe):
                got, want = run_vs_finite_mc(model, prop)
                assert got == want, prop.name
            # the CTL fragment against explicit-state evaluation
            model.named_regions["R0"] = target
            model.named_regions["R1"] = safe
            for _ in range(3):
                text = random_ctl(rng, 3)
                got_region = compilers.eval_ctl(model, text)
                assert locations_of(model, got_region) == \
                    ctl_explicit(model, ctl_tuple(text)), text
    passed(3, "zero-channel explicit-state equivalence")


def test_criterion_4_guardedness_and_termination():
    budgets = []
    for name in ("abp.lcs", "token_game.lcs", "flags.lcs"):
        model = load_model(model_path(name))
        regions = list(model.named_regions.values())
        target, safe = regions[0], regions[-1]
        start = time.monotonic()
        for prop in all_compiled(model, target, safe):
            assert not check_guarded(prop.term), (name, prop.name)
            _, stats = prop.run(Limits())
            assert stats.iterations
            assert all(count >= 1 for counts in stats.iterations.values()
                       for count in counts)
        budgets.append((name, time.monotonic() - start))
    assert all(elapsed < 60 for _, elapsed in budgets), budgets
    passed(4, "guarded compilation and terminating evaluation")


def test_criterion_5_substitution_fixpoint():
    # compiler-produced binders over the bundled models
    for name in ("abp.lcs", "token_game.lcs", "flags.lcs"):
        model = load_model(model_path(name))
        regions = list(model.named_regions.values())
        target, safe = regions[0], regions[-1]
        for prop in all_compiled(model, target, safe):
            if prop.term.kind not in ("mu", "nu"):
                continue
            value, _ = evaluate(prop.term, {}, prop.algebra, Limits())
            again, _ = evaluate(prop.term.args[0], {prop.term.name: value},
                                prop.algebra, Limits())
            assert prop.algebra.equal(again, value), (name, prop.name)
    # the closing word-algebra example
    t, alg = closing_example("(a|b)*", "a b*")
    value, _ = evaluate(t, {}, alg)
    outer, _ = evaluate(t.args[0], {"X": value}, alg)
    assert alg.equal(outer, value)
    inner_t = t.args[0]
    inner_value, _ = evaluate(inner_t, {"X": value}, alg)
    inner_again, _ = evaluate(inner_t.args[0], {"X": value, "Y": inner_value}, alg)
    assert alg.equal(inner_again, inner_value)
    passed(5, "substitution fixpoint")


def test_criterion_6_pre_star_sound_vs_bounded_search():
    rng = random.Random(106)
    words = [w for w in oracle.enum_words(AB, 3)]
    for _ in range(10):
        model = random_model(rng, max_locations=3, max_channels=1,
                             max_rules=4, with_guards=True)
        target = random_region_for(rng, model)
        region, _ = compilers.compile_pre_star(model, target).run(Limits())
        for loc in model.locations:
            for word in words:
                sigma = Config(loc, (word,))
                if oracle.bounded_reach(model, sigma, target, 6) == "reachable":
                    assert model.space.member(sigma, region), (sigma,)
    passed(6, "reachability soundness against bounded search")


def test_criterion_7_unfolding_law():
    models = [load_model(model_path("token_game.lcs")),
              load_model(model_path("flags.lcs"))]
    rng = random.Random(107)
    for _ in range(3):
        models.append(random_model(rng, max_channels=1, game=True,
                                   with_guards=False))
    for model in models:
        target = (list(model.named_regions.values())[0]
                  if model.named_regions else random_region_for(rng, model))
        for player in ("A", "B"):
            prop = compilers.compile_game("reach", model, player, target)
            v1, _ = prop.run(Limits())
            unfolded = unfold(prop.term, prop.term.name)
            v2, _ = evaluate(unfolded, {}, prop.algebra, Limits())
            assert model.space.equal(v1, v2)
            # the unsimplified fixpoint equation holds for the result
            conf_p = model.space.location_region(model.player_locations(player))
            conf_o = model.space.location_region(
                model.player_locations("B" if player == "A" else "A"))
            rhs = model.space.union(
                target,
                model.space.union(
                    model.space.intersection(conf_p, model.pre(v1)),
                    model.space.intersection(conf_o, model.wpre(v1))))
            assert model.space.equal(v1, rhs)
    passed(7, "unfolding law and fixpoint equation")


def test_criterion_8_refusal_contract():
    env = dict(os.environ)
    for prop, phrase in (
            ("forall-eventually", "inevitability"),
            ("exists-recurrent", "repeated reachability"),
            ("asym-reach-A", "perfect-stepping player")):
        proc = subprocess.run(
            [sys.executable, "-m", "wsmc.cli", "check",
             model_path("token_game.lcs"), prop, "--target", "GOAL"],
            capture_output=True, env=env, text=True)
        assert proc.returncode == 2, prop
        assert ("refusing %s" % prop) in proc.stderr
        assert phrase in proc.stderr
        assert proc.stdout == ""  # no approximate answer is printed
    passed(8, "refusal contract for non-effective goals")


@pytest.mark.parametrize("command", FIXTURE_COMMANDS,
                         ids=lambda c: " ".join(c)[:50])
def test_criterion_9_fixture_determinism(command):
    outputs = []
    for seed in ("0", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "wsmc.cli"] + fixture_argv(command),
            capture_output=True, env=env)
        outputs.append((proc.returncode, proc.stdout))
    assert outputs[0] == outputs[1]


def test_criterion_9_summary():
    passed(9, "deterministic fixture outputs")


# -- byte-for-byte goldens, next to criterion 9 ---------------------------

def load_fixture_goldens():
    with open(GOLDENS, encoding="utf-8") as handle:
        return {tuple(entry["command"]): entry for entry in json.load(handle)}


def test_fixture_goldens_cover_fixture_commands():
    assert sorted(load_fixture_goldens()) == sorted(tuple(c) for c in FIXTURE_COMMANDS)


@pytest.mark.parametrize("command", FIXTURE_COMMANDS,
                         ids=lambda c: " ".join(c)[:50])
def test_fixture_outputs_match_goldens(command):
    golden = load_fixture_goldens()[tuple(command)]
    proc = run_fixture(command)
    assert proc.returncode == golden["exit"]
    assert proc.stdout == golden["stdout"].encode("utf-8")


def test_recording_fixture_goldens_keeps_the_recorded_entries(tmp_path, monkeypatch):
    with open(GOLDENS, "rb") as handle:
        recorded = handle.read()
    entries = json.loads(recorded)
    kept, missing = entries[0], entries[1]
    copy = tmp_path / "fixture_outputs.json"
    stale = dict(kept, stdout="stale\n")
    dropped = {"command": ["validate", "gone.lcs"], "exit": 2, "stdout": ""}
    copy.write_text(json.dumps([dropped, stale] + entries[2:]), encoding="utf-8")
    monkeypatch.setattr(record_fixture_goldens, "GOLDENS", str(copy))
    ran = []
    monkeypatch.setattr(record_fixture_goldens, "run_fixture",
                        lambda command: ran.append(command) or run_fixture(command))
    record_fixture_goldens.main()
    # only the command without an entry runs; the stale entry stays
    assert ran == [missing["command"]]
    assert json.loads(copy.read_bytes()) == [stale, missing] + entries[2:]
