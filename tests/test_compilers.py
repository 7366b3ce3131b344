import re

import pytest

from wsmc import compilers, oracle, terms
from wsmc.compilers import (
    CompileError, CtlError, NonEffectiveGoalError, compile_asym_game,
    compile_ctl, compile_forall_release, compile_game, compile_pre_star,
    compile_prob_game, eval_ctl, parse_ctl, refuse_noneffective)
from wsmc.engine import Limits, evaluate
from wsmc.model import GlcsModel, load_model, parse_model
from wsmc.terms import (
    Intersection, Mu, Not, OpApp, Union, Up, Var, check_guarded, check_parity)

from conftest import model_path, random_model, random_region_for


@pytest.fixture(scope="module")
def token_game():
    return load_model(model_path("token_game.lcs"))


@pytest.fixture(scope="module")
def abp():
    return load_model(model_path("abp.lcs"))


@pytest.fixture(scope="module")
def flags():
    return load_model(model_path("flags.lcs"))


def all_compiled(model, target, safe):
    """One compiled property per effective goal."""
    out = [compile_pre_star(model, target),
           compile_forall_release(model, safe, target)]
    if model.game_mode:
        for goal in ("reach", "invariant", "buchi", "persistence"):
            for player in ("A", "B"):
                out.append(compile_game(goal, model, player,
                                        target if goal in ("reach", "buchi")
                                        else safe))
        out.append(compile_asym_game("reach", model, "B", target))
        out.append(compile_asym_game("invariant", model, "A", safe))
        for goal in ("reach_eq1", "invariant_eq1", "reach_pos", "invariant_pos"):
            for player in ("A", "B"):
                out.append(compile_prob_game(
                    goal, model, player,
                    target if "reach" in goal else safe))
    return out


# CTL formulas over two region atoms, nesting untils under !, & and U
CTL_FORMULAS = ("E(%(a)s U %(b)s)", "!E(%(a)s U !%(b)s)",
                "E(E(%(a)s U %(b)s) U EX %(a)s) & !%(b)s",
                "E(!%(a)s U E(%(b)s U all)) & !E(empty U %(a)s)")


def test_every_compiled_term_is_guarded(token_game, abp):
    for model, target, safe in (
            (token_game, token_game.named_regions["GOAL"],
             token_game.named_regions["TOKENS"]),
            (abp, abp.named_regions["GOAL"], abp.named_regions["CLEAN0"])):
        for prop in all_compiled(model, target, safe):
            assert check_guarded(prop.term) == [], prop.name
        a, b = sorted(model.named_regions)[:2]
        for text in CTL_FORMULAS:
            term = compile_ctl(model, text % {"a": a, "b": b}).term
            assert check_guarded(term) == [], text
            check_parity(term)


def test_every_compiled_term_is_guarded_random_models(rng):
    for _ in range(10):
        model = random_model(rng, game=True, with_guards=False)
        target = random_region_for(rng, model)
        safe = random_region_for(rng, model)
        for prop in all_compiled(model, target, safe):
            assert check_guarded(prop.term) == [], prop.name


def test_refusals():
    for goal in ("forall-eventually", "exists-recurrent", "asym-reach-A"):
        with pytest.raises(NonEffectiveGoalError):
            refuse_noneffective(goal)
    with pytest.raises(CompileError):
        refuse_noneffective("something-else")


def test_asym_refusals(token_game):
    target = token_game.named_regions["GOAL"]
    with pytest.raises(NonEffectiveGoalError):
        compile_asym_game("reach", token_game, "A", target)
    with pytest.raises(NonEffectiveGoalError):
        compile_asym_game("invariant", token_game, "B", target)


def test_game_compilation_needs_game_model(abp):
    with pytest.raises(CompileError):
        compile_game("reach", abp, "A", abp.named_regions["GOAL"])


def test_game_compilation_needs_validated_model():
    from wsmc.model import parse_model
    broken = parse_model("""
    alphabet: a
    channels: c
    locations: p[A] q[A]
    rule p -> q : c!a
    rule q -> p : c!a
    """)
    with pytest.raises(CompileError, match="alternate"):
        compile_game("reach", broken, "A", broken.space.full())


def test_ctl_parsing():
    assert parse_ctl("EX all") == OpApp("pre", (OpApp("all"),))
    assert parse_ctl("E(GOAL U !SAFE)") == Mu("X0", Union(
        Not(OpApp("SAFE")),
        Intersection(OpApp("GOAL"), OpApp("pre", (Up(Var("X0")),)))))
    with pytest.raises(NonEffectiveGoalError):
        parse_ctl("AF GOAL")
    for bad in ("AG x", "EF x", "EG x", "E(x U", "E x"):
        with pytest.raises(CtlError):
            parse_ctl(bad)


CTL_PIN_MODEL = """
alphabet: a
channels: c
locations: p q
region X0 = (p; a*)
region GOAL = (q; ())
region SAFE = (p; ())
rule p -> q : c!a
rule q -> p : c?a
rule q -> q : nop
"""


def test_compiled_ctl_terms_are_pinned():
    """The compiled terms, binder names included, and which error a
    formula with both a syntax error and an unknown atom reports."""
    model = parse_model(CTL_PIN_MODEL)
    safe, goal, x0 = OpApp("SAFE"), OpApp("GOAL"), OpApp("X0")

    def pre(t):
        return OpApp("pre", (t,))

    want = {
        "E(SAFE U GOAL)":
            Mu("X0", Union(goal, Intersection(safe, pre(Up(Var("X0")))))),
        "!E(SAFE U !GOAL)":
            Not(Mu("X0", Union(Not(goal),
                               Intersection(safe, pre(Up(Var("X0"))))))),
        "E(E(SAFE U GOAL) U EX SAFE) & !GOAL":
            Intersection(Mu("X1", Union(pre(safe), Intersection(
                Mu("X0", Union(goal, Intersection(safe, pre(Up(Var("X0")))))),
                pre(Up(Var("X1")))))), Not(goal)),
        "E(!SAFE U E(GOAL U all)) & !E(empty U SAFE)":
            Intersection(
                Mu("X1", Union(
                    Mu("X0", Union(OpApp("all"), Intersection(
                        goal, pre(Up(Var("X0")))))),
                    Intersection(Not(safe), pre(Up(Var("X1")))))),
                Not(Mu("X2", Union(safe, Intersection(
                    OpApp("empty"), pre(Up(Var("X2")))))))),
        "EX E(GOAL U X0)":
            pre(Mu("X0", Union(x0, Intersection(goal, pre(Up(Var("X0"))))))),
    }
    assert set(want) == {text % {"a": "SAFE", "b": "GOAL"}
                         for text in CTL_FORMULAS} | {"EX E(GOAL U X0)"}
    for text, term in want.items():
        assert compile_ctl(model, text).term == term, text
    with pytest.raises(CtlError, match="^unknown region atom 'NOPE' at position 2$"):
        compile_ctl(model, "E(NOPE U ALSO)")
    with pytest.raises(CtlError, match=r"^expected '\)', found end of formula "
                       "at position 12$"):
        compile_ctl(model, "NOPE & (GOAL")


def test_ctl_unknown_atom(flags):
    # confA and pre are operators of the model's algebra, not regions
    for text, atom, pos in (("EX NOPE", "NOPE", 3), ("confA", "confA", 0),
                            ("!pre & all", "pre", 1)):
        with pytest.raises(CtlError, match="^unknown region atom %r at position %d$"
                           % (atom, pos)):
            eval_ctl(flags, text)


def test_ctl_ex_all_is_full_on_validated_model(flags, token_game):
    for model in (flags, token_game):
        assert model.validate() == []
        assert model.space.is_universal(eval_ctl(model, "EX all"))


def ctl_tuple(text):
    """A well-formed CTL formula as a tuple tree, ("atom", name),
    ("not", f), ("and", f, g), ("ex", f) or ("eu", f, g), read without
    parse_ctl so that ctl_explicit is a reference independent of it."""
    tokens = re.findall(r"\w+|[!&()]", text) + [None]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def conjunction():
        left = unary()
        while tokens[pos] == "&":
            take()
            left = ("and", left, unary())
        return left

    def unary():
        tok = take()
        if tok in ("!", "EX"):
            return ("not" if tok == "!" else "ex", unary())
        if tok == "E":
            assert take() == "("
            hold = conjunction()
            assert take() == "U"
            goal = conjunction()
            assert take() == ")"
            return ("eu", hold, goal)
        if tok == "(":
            inner = conjunction()
            assert take() == ")"
            return inner
        return ("atom", tok)

    formula = conjunction()
    assert tokens[pos] is None, text
    return formula


def ctl_explicit(model, formula):
    """Explicit-state CTL of a ctl_tuple tree on a zero-channel model, for
    cross-checking."""
    edges = [(r.source, r.target) for r in model.rules
             if r.guard is None or any(p.location == r.source
                                       for p in r.guard.summands)]
    locations = frozenset(model.locations)

    def pre(s):
        return frozenset(p for p, q in edges if q in s)

    kind = formula[0]
    if kind == "atom":
        name = formula[1]
        if name == "all":
            return locations
        if name == "empty":
            return frozenset()
        return frozenset(p.location for p in model.named_regions[name].summands)
    if kind == "not":
        return locations - ctl_explicit(model, formula[1])
    if kind == "and":
        return ctl_explicit(model, formula[1]) & ctl_explicit(model, formula[2])
    if kind == "ex":
        return pre(ctl_explicit(model, formula[1]))
    if kind == "eu":
        hold = ctl_explicit(model, formula[1])
        goal = ctl_explicit(model, formula[2])
        current = frozenset()
        while True:
            nxt = goal | (hold & pre(current))
            if nxt == current:
                return current
            current = nxt
    raise AssertionError(kind)


def test_ctl_matches_explicit_states(flags):
    for text in ("GOAL", "!GOAL", "EX GOAL", "EX EX GOAL",
                 "E(SAFE U GOAL)", "E(all U GOAL & !SAFE)",
                 "EX (SAFE & !GOAL)", "E(!GOAL U GOAL)"):
        got = eval_ctl(flags, text)
        locs = frozenset(p.location
                         for p in flags.space.normalize(got).summands)
        assert locs == ctl_explicit(flags, ctl_tuple(text)), text


CTL_OPERANDS = ("P", "!Q", "EX P", "P & !Q", "E(Q U P)")


def test_ctl_until_is_the_complement_of_release_on_channel_models(rng):
    """E(p U q) against the complement of A(!q R !p), the release dual."""
    for _ in range(12):
        model = random_model(rng, max_channels=2)
        space = model.space
        model.named_regions.update(P=random_region_for(rng, model),
                                   Q=random_region_for(rng, model))
        hold_text = rng.choice(CTL_OPERANDS)
        goal_text = rng.choice(CTL_OPERANDS)
        hold, goal = eval_ctl(model, hold_text), eval_ctl(model, goal_text)
        release, _ = compile_forall_release(
            model, space.complement(goal), space.complement(hold)).run()
        text = "E(%s U %s)" % (hold_text, goal_text)
        assert space.equal(eval_ctl(model, text),
                           space.complement(release)), text


def test_invariant_is_dual_of_reach(token_game):
    safe = token_game.named_regions["TOKENS"]
    inv_a, _ = compile_game("invariant", token_game, "A", safe).run(Limits())
    reach_b, _ = compile_game(
        "reach", token_game, "B",
        token_game.space.complement(safe)).run(Limits())
    assert token_game.space.equal(inv_a,
                                  token_game.space.complement(reach_b))


def test_reach_results_satisfy_unsimplified_fixpoint_equation(token_game):
    # W = V | (confA & pre(W)) | (confB & wpre(W))
    space = token_game.space
    target = token_game.named_regions["GOAL"]
    for player in ("A", "B"):
        w, _ = compile_game("reach", token_game, player, target).run(Limits())
        conf_p = space.location_region(token_game.player_locations(player))
        conf_o = space.location_region(
            token_game.player_locations("B" if player == "A" else "A"))
        rhs = space.union(
            target,
            space.union(space.intersection(conf_p, token_game.pre(w)),
                        space.intersection(conf_o, token_game.wpre(w))))
        assert space.equal(w, rhs)


def test_compiled_runs_match_finite_mc_spot_checks(flags):
    target = flags.named_regions["GOAL"]
    safe = flags.named_regions["SAFE"]
    for prop in all_compiled(flags, target, safe):
        region, _ = prop.run(Limits())
        locs = frozenset(p.location
                         for p in flags.space.normalize(region).summands)
        consts = {name: frozenset(p.location for p in reg.summands)
                  for name, reg in prop.algebra.constants.items()}
        want = oracle.finite_mc(flags, prop.term, consts=consts)
        if prop.negate:
            want = frozenset(flags.locations) - want
        assert locs == want, prop.name


# -- owners' steps against the textbook controllable predecessor ----------

# each compiled goal's term as written before the owners' steps: every
# step at every location, met with confP or confQ; V is the bound target
REACH = "mu X. V | (confP & pre(up(X))) | (confQ & %s(V | pre(up(X))))"
BUCHI = "nu Y. " + (REACH % "wpre").replace(
    "V", "(V & ((confP & pre(up(wpre(kdown(Y))))) | (confQ & wpre(kdown(Y)))))")
PROB_REACH = ("nu Y. mu X. V | (confP & prep(up(X) & kdown(Y)))"
              " | (confQ & wprep(up(X) & kdown(Y)))")
PROB_INVARIANT = "nu X. V & ((confP & prep(kdown(X))) | (confQ & wpre(kdown(X))))"
TEXTBOOK_TERMS = {
    "game-reach": REACH % "wpre", "game-inv": REACH % "wpre",
    "game-buchi": BUCHI, "game-persist": BUCHI,
    "asym-reach-B": REACH % "wprep", "asym-inv-A": REACH % "wprep",
    "prob-reach-1": PROB_REACH, "prob-inv-pos": PROB_REACH,
    "prob-inv-1": PROB_INVARIANT, "prob-reach-pos": PROB_INVARIANT,
}


def textbook_term(prop, player):
    """prop's term as the textbook term over prop's algebra: for player,
    or for the opponent when prop is a dual goal."""
    [constant] = prop.algebra.constants
    if prop.negate:
        player = "B" if player == "A" else "A"
    text = TEXTBOOK_TERMS[prop.name].replace("P", player)
    text = text.replace("Q", "B" if player == "A" else "A").replace("V", constant)
    return terms.parse_term(text, prop.algebra)


def test_owners_steps_give_the_textbook_approximants(rng):
    for _ in range(100):
        model = random_model(rng, max_locations=4, max_channels=2, max_rules=5,
                             game=True)
        assert model.validate() == []
        target = random_region_for(rng, model, 3)
        props = [(compile_game(goal, model, player, target), player)
                 for goal in compilers.GAME_GOALS for player in "AB"]
        props += [(compile_prob_game(goal, model, player, target), player)
                  for goal in compilers.PROB_GOALS for player in "AB"]
        props += [(compile_asym_game("reach", model, "B", target), "B"),
                  (compile_asym_game("invariant", model, "A", target), "A")]
        assert len(props) == 18
        for prop, player in props:
            value, stats = evaluate(prop.term, {}, prop.algebra)
            want, want_stats = evaluate(textbook_term(prop, player), {}, prop.algebra)
            assert value == want, prop.name
            assert stats.iterations == want_stats.iterations, prop.name


def test_owners_steps_are_the_steps_met_with_the_owners_locations(rng):
    steps = [step + p for step in ("pre", "wpre") for p in ("", "p")]
    for i in range(40):
        model = random_model(rng, max_locations=4, max_channels=2, max_rules=5,
                             game=i % 2 == 0)
        if i % 2:  # owners at random: models that fail validation
            model = GlcsModel(model.alphabet, model.channels, model.locations,
                              {q: rng.choice(("A", "B", None)) for q in model.locations},
                              model.rules)
        algebra = model.algebra()
        for _ in range(3):
            region = random_region_for(rng, model)
            for owner in "AB":
                [_, conf] = algebra.operators["conf" + owner]
                for step in steps:
                    [_, restricted], [_, full] = (algebra.operators[step + owner],
                                                  algebra.operators[step])
                    assert restricted(region) == model.space.intersection(
                        conf(), full(region)), (step + owner, model.owners)
