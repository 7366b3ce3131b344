import random

import pytest

from wsmc import automata, oracle, terms
from wsmc.automata import Alphabet, Nfa
from wsmc.compilers import (
    GAME_GOALS, PROB_GOALS, compile_asym_game, compile_game, compile_prob_game)
from wsmc.engine import (
    AlgebraBinding, EvalStats, EvaluationError, IterationCapError, Limits,
    UnguardedTermError, WordAlgebra, evaluate)
from wsmc.model import load_model
from wsmc.regexes import compile_regex
from wsmc.terms import (
    Down, Intersection, Kdown, Kup, Mu, Not, Nu, OpApp, Union, Up, Var,
    check_guarded, parse_term, unfold)

from conftest import model_path, random_model, random_region_for

AB = Alphabet(("a", "b"))


def word_algebra(**constants):
    compiled = {name: compile_regex(pat, AB) for name, pat in constants.items()}
    return WordAlgebra(AB, compiled)


def test_mu_reaches_up_closure():
    alg = word_algebra(V="a")
    t = parse_term("mu X. V | up(X)", alg)
    value, stats = evaluate(t, {}, alg)
    assert automata.equal(value, compile_regex(".* a .*", AB))
    assert stats.iterations["X"] == [3]
    assert stats.max_value_size > 0


def test_nu_down_kernel_shape():
    alg = word_algebra(V="a* | b")
    t = parse_term("nu X. V & kdown(X)", alg)
    value, _ = evaluate(t, {}, alg)
    # the result is the largest downward-closed subset of V
    assert automata.equal(value, automata.down_kernel(compile_regex("a* | b", AB)))


def test_unguarded_refused_without_cap():
    alg = word_algebra(V="a")
    t = parse_term("mu X. V | X", alg)
    with pytest.raises(UnguardedTermError):
        evaluate(t, {}, alg)
    value, _ = evaluate(t, {}, alg, Limits(max_iter=10))
    assert automata.equal(value, compile_regex("a", AB))


def test_iteration_cap_reports_partial_stats():
    alg = word_algebra(V="a")
    t = parse_term("mu X. V | concat(X, V)", alg)
    with pytest.raises(IterationCapError) as exc:
        evaluate(t, {}, alg, Limits(max_iter=4))
    assert exc.value.stats.iterations["X"] == [4]


def test_free_variables_need_environment():
    alg = word_algebra(V="a")
    t = Up(Var("Z"))
    with pytest.raises(EvaluationError):
        evaluate(t, {}, alg)
    value, _ = evaluate(t, {"Z": compile_regex("b", AB)}, alg)
    assert automata.equal(value, compile_regex(".* b .*", AB))


@pytest.mark.parametrize("name, args, message", [
    ("V", ("x",), "operator 'V' expects 0 arguments, got 1"),
    ("concat", ("x",), "operator 'concat' expects 2 arguments, got 1"),
    ("pre", ("x", "y"), "operator 'pre' expects 1 argument, got 2"),
    ("nope", (), "unknown operator 'nope'"),
])
def test_applying_an_operator_checks_its_arity(name, args, message):
    alg = word_algebra(V="a")
    alg.add_operator("pre", 1, lambda x: x)
    with pytest.raises(EvaluationError, match="^%s$" % message):
        alg.apply(name, args)


def fixpoint_substitution_holds(t, alg, env=None):
    """Substituting the evaluated value for the bound variable reproduces it."""
    value, _ = evaluate(t, env or {}, alg)
    inner = dict(env or {})
    inner[t.name] = value
    again, _ = evaluate(t.args[0], inner, alg)
    return alg.equal(again, value)


def test_fixpoint_substitution_simple_terms():
    alg = word_algebra(V="a b*", W="b")
    for text in ("mu X. V | up(X)",
                 "nu X. V & kdown(X)",
                 "mu X. kup(V | shuffle(X, W))"):
        t = parse_term(text, alg)
        assert fixpoint_substitution_holds(t, alg)


def closing_example(r1_pattern, r2_pattern):
    alg = word_algebra(R1=r1_pattern, R2=r2_pattern)
    body = Kup(OpApp("shuffle", (
        OpApp("R1"),
        Intersection(
            OpApp("star", (Var("X"),)),
            Down(Intersection(
                OpApp("lres", (Var("Y"), OpApp("reverse", (Var("X"),)))),
                OpApp("lres", (Var("X"), OpApp("R2")))))))))
    return Mu("X", Nu("Y", body)), alg


def test_closing_example_terminates_and_is_a_fixpoint():
    t, alg = closing_example("(a|b)*", "a b*")
    assert check_guarded(t) == []
    value, stats = evaluate(t, {}, alg)
    assert isinstance(value, Nfa)
    assert all(count >= 1 for counts in stats.iterations.values()
               for count in counts)
    # outer binder: substituting the result reproduces it
    assert fixpoint_substitution_holds(t, alg)
    # inner binder: with X fixed at the result, the nu value is a fixpoint too
    assert fixpoint_substitution_holds(t.args[0], alg, env={"X": value})


def test_unfolding_preserves_value():
    alg = word_algebra(V="a b | b")
    t = parse_term("mu X. V | up(X)", alg)
    v1, _ = evaluate(t, {}, alg)
    v2, _ = evaluate(unfold(t, t.name), {}, alg)
    assert automata.equal(v1, v2)
    t2, alg2 = closing_example("(a|b)*", "a b*")
    w1, _ = evaluate(t2, {}, alg2)
    w2, _ = evaluate(unfold(t2, "X"), {}, alg2)
    assert automata.equal(w1, w2)


def test_decide_query():
    alg = word_algebra(V="a")
    value, _ = evaluate(parse_term("mu X. V | up(X)", alg), {}, alg)
    assert value.accepts(("b", "a"))
    assert not automata.is_empty(value)
    assert not automata.is_universal(value)
    with pytest.raises(EvaluationError):
        evaluate(Up(Var("Z")), {}, alg)


class LocationSets:
    """Sets of locations of a channel-free model, with only the methods
    the engine calls; every closure and kernel is the identity."""

    def __init__(self, locations):
        self.locations = frozenset(locations)

    def empty(self): return frozenset()
    def full(self): return self.locations
    def union(self, a, b): return a | b
    def intersection(self, a, b): return a & b
    def complement(self, a): return self.locations - a
    def up_closure(self, a): return a
    def down_closure(self, a): return a
    def up_kernel(self, a): return a
    def down_kernel(self, a): return a
    def normalize(self, a): return a
    def subset(self, a, b): return a <= b
    def equal(self, a, b): return a == b


def location_set_algebra(model):
    """The binding of an unguarded, channel-free model over LocationSets."""
    space = LocationSets(model.locations)
    edges = [(rule.source, rule.target) for rule in model.rules]

    def pre(s):
        return frozenset(p for (p, q) in edges if q in s)

    def post(s):
        return frozenset(q for (p, q) in edges if p in s)

    def wpre(s):
        return space.complement(pre(space.complement(s)))

    algebra = AlgebraBinding(space)
    for names, fn in ((("pre", "prep"), pre), (("post", "postp"), post),
                      (("wpre", "wprep"), wpre)):
        for name in names:
            algebra.add_operator(name, 1, fn)
    for player in ("A", "B"):
        algebra.add_operator("conf" + player, 0,
                             lambda locs=frozenset(model.player_locations(player)): locs)
    for name, region in model.named_regions.items():
        algebra.add_operator(name, 0, lambda region=region: frozenset(
            p.location for p in region.summands))
    return algebra


def random_location_term(rng, depth, scope):
    """A closed term once every scope variable is bound; bound variables
    never sit under a complement."""
    if depth <= 0 or rng.random() < 0.2:
        leaves = ["R0", "R1", "confA", "empty", "all"] + ["var"] * (2 * len(scope))
        pick = rng.choice(leaves)
        return Var(rng.choice(scope)) if pick == "var" else OpApp(pick)
    pick = rng.choice(["union", "inter", "not", "step", "closure", "mu", "nu"])
    if pick == "union":
        return Union(random_location_term(rng, depth - 1, scope),
                     random_location_term(rng, depth - 1, scope))
    if pick == "inter":
        return Intersection(random_location_term(rng, depth - 1, scope),
                            random_location_term(rng, depth - 1, scope))
    if pick == "not":
        return Not(random_location_term(rng, depth - 1, []))
    if pick == "step":
        op = rng.choice(["pre", "prep", "wpre", "wprep", "post", "postp"])
        return OpApp(op, (random_location_term(rng, depth - 1, scope),))
    if pick == "closure":
        return rng.choice([Up, Down, Kup, Kdown])(
            random_location_term(rng, depth - 1, scope))
    var = "V%d" % len(scope)
    body = random_location_term(rng, depth - 1, scope + [var])
    return (Mu if pick == "mu" else Nu)(var, body)


GUARDED_LOCATION_TERMS = (
    "mu X. R0 | pre(up(X))",
    "nu X. R1 & wpre(kdown(X))",
    "nu X. R1 & (wpre(kdown(X)) | R0)",
    "nu Y. mu X. (R0 & pre(up(kdown(Y)))) | pre(up(X))",
    "mu X. R0 | (confA & pre(up(X))) | (confB & wpre(kup(X)))",
    "mu X. !R0 | (R1 & postp(up(X)))",
)


def test_engine_over_a_minimal_value_space_matches_finite_mc():
    rng = random.Random(509)
    checked = 0
    for _ in range(60):
        model = random_model(rng, max_channels=0, game=True, with_guards=False)
        model.named_regions["R0"] = random_region_for(rng, model)
        model.named_regions["R1"] = random_region_for(rng, model)
        algebra = location_set_algebra(model)
        for text in GUARDED_LOCATION_TERMS:
            t = parse_term(text, algebra)
            assert check_guarded(t) == []
            value, _ = evaluate(t, {}, algebra)
            assert value == oracle.finite_mc(model, t), text
            checked += 1
        for _ in range(5):
            t = random_location_term(rng, 4, [])
            # unguarded: each binder converges within the height of the
            # location lattice
            limits = Limits(max_iter=len(model.locations) + 2)
            value, _ = evaluate(t, {}, algebra, limits)
            assert value == oracle.finite_mc(model, t), terms.term_to_text(t)
            checked += 1
    assert checked == 60 * (len(GUARDED_LOCATION_TERMS) + 5)


SPACE_METHODS = {"union": "union", "intersection": "intersection",
                 "not": "complement", "up": "up_closure", "down": "down_closure",
                 "kup": "up_kernel", "kdown": "down_kernel"}


def naive_evaluate(t, algebra):
    """The engine's iteration without a subterm cache: every node is
    evaluated afresh, with the same space calls; returns (value, stats)."""
    stats, space = EvalStats(), algebra.space

    def ev(t, env):
        if t.kind == "var":
            return env[t.name]
        if t.kind in ("mu", "nu"):
            value = space.normalize(space.empty() if t.kind == "mu" else space.full())
            count = 0
            while True:
                nxt = ev(t.args[0], {**env, t.name: value})
                count += 1
                if algebra.equal(nxt, value):
                    stats.record(t.name, count)
                    return value
                value = nxt
        args = [ev(child, env) for child in t.args]
        value = (algebra.apply(t.name, args) if t.kind == "opapp"
                 else getattr(space, SPACE_METHODS[t.kind])(*args))
        value = space.normalize(value)
        stats.observe(algebra.size(value))
        return value

    return ev(t, {}), stats


def random_guarded_term(rng, depth, scope):
    """A guarded term once every (variable, is_mu) of scope is bound: each
    occurrence of a bound variable sits right under a guard of its
    binder and under no complement.  Some subterms are drawn twice, as
    separate but equal objects."""
    if depth <= 0 or rng.random() < 0.2:
        pick = rng.choice(["R0", "R1", "confA", "confB", "empty"] + ["var"] * len(scope))
        if pick != "var":
            return OpApp(pick)
        var, is_mu = rng.choice(scope)
        return rng.choice([Up, Kup] if is_mu else [Down, Kdown])(Var(var))
    pick = rng.choice(["union", "inter", "twice", "not", "step", "closure", "mu", "nu"])
    if pick in ("union", "inter"):
        return (Union if pick == "union" else Intersection)(
            random_guarded_term(rng, depth - 1, scope),
            random_guarded_term(rng, depth - 1, scope))
    if pick == "twice":
        seed = rng.random()
        left, right = (random_guarded_term(random.Random(seed), depth - 1, scope)
                       for _ in range(2))
        return rng.choice([Union, Intersection])(left, OpApp("pre", (right,)))
    if pick == "not":
        return Not(random_guarded_term(rng, depth - 1, []))
    if pick == "step":
        op = rng.choice(["pre", "prep", "wpre", "wprep", "post", "postp"])
        return OpApp(op, (random_guarded_term(rng, depth - 1, scope),))
    if pick == "closure":
        return rng.choice([Up, Down, Kup, Kdown])(
            random_guarded_term(rng, depth - 1, scope))
    var = "V%d" % len(scope)
    body = random_guarded_term(rng, depth - 1, scope + [(var, pick == "mu")])
    return (Mu if pick == "mu" else Nu)(var, body)


def binder_depth(t):
    depth = max([binder_depth(child) for child in t.args], default=0)
    return depth + (t.kind in ("mu", "nu"))


def test_cached_evaluation_equals_the_naive_one():
    rng = random.Random(1212)
    depths = []
    for _ in range(60):
        model = random_model(rng, max_locations=3, max_channels=2, max_rules=4,
                             game=True)
        model.named_regions["R0"] = random_region_for(rng, model)
        model.named_regions["R1"] = random_region_for(rng, model)
        algebra = model.algebra()
        for _ in range(4):
            is_mu = rng.random() < 0.5
            t = (Mu if is_mu else Nu)("V0", random_guarded_term(rng, 5, [("V0", is_mu)]))
            assert check_guarded(t) == []
            value, stats = evaluate(t, {}, algebra)
            expected, ref = naive_evaluate(t, algebra)
            text = terms.term_to_text(t)
            assert value == expected, text
            assert stats.iterations == ref.iterations, text
            assert stats.max_value_size == ref.max_value_size, text
            depths.append(binder_depth(t))
    assert sum(depth >= 2 for depth in depths) >= 60


def counting(algebra, name):
    """Count the applications of the algebra's operator name."""
    calls = []
    arity, fn = algebra.operators[name]
    algebra.add_operator(name, arity, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_shared_and_closed_subterms_are_evaluated_once():
    model = load_model(model_path("token_game.lcs"))
    target = model.named_regions["GOAL"]
    # mu X. V | preB(up X) | wpreA(V | preB(up X)): one preB per X
    # iteration serves both branches, and the closed V is evaluated once
    reach = compile_game("reach", model, "B", target)
    [constant] = reach.algebra.constants
    pre_calls, const_calls = counting(reach.algebra, "preB"), counting(reach.algebra, constant)
    _, stats = reach.run()
    assert len(pre_calls) == sum(stats.iterations["X"]) > 1
    assert len(const_calls) == 1
    # nu Y. mu X. V' | preB(up X) | wpreA(V' | preB(up X)), where
    # V' = V & (preB(up(wpreA(kdown Y))) | wpreA(kdown Y)): one wpreA per
    # X iteration and one per Y iteration, which both branches of V' use
    buchi = compile_game("buchi", model, "B", target)
    wpre_calls = counting(buchi.algebra, "wpreA")
    _, stats = buchi.run()
    assert len(wpre_calls) == sum(stats.iterations["X"]) + sum(stats.iterations["Y"])


def test_compiled_game_terms_step_only_through_the_owners_operators():
    model = load_model(model_path("token_game.lcs"))
    target = model.named_regions["GOAL"]
    unrestricted = ("pre", "prep", "wpre", "wprep", "confA", "confB")
    props = [compile_game(goal, model, player, target)
             for goal in GAME_GOALS for player in "AB"]
    props += [compile_prob_game(goal, model, player, target)
              for goal in PROB_GOALS for player in "AB"]
    props += [compile_asym_game("reach", model, "B", target),
              compile_asym_game("invariant", model, "A", target)]
    for prop in props:
        calls = [counting(prop.algebra, name) for name in unrestricted]
        prop.run()
        assert calls == [[]] * len(unrestricted), prop.name
