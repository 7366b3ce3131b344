import random

import pytest

from wsmc import automata, oracle, terms
from wsmc.automata import Alphabet, Nfa
from wsmc.engine import (
    AlgebraBinding, EvaluationError, IterationCapError, Limits,
    UnguardedTermError, WordAlgebra, evaluate)
from wsmc.regexes import compile_regex
from wsmc.terms import (
    Down, Intersection, Kdown, Kup, Mu, Not, Nu, OpApp, Union, Up, Var,
    is_guarded, parse_term, unfold)

from conftest import random_model, random_region_for

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
    t = parse_term("up(Z)", alg, free_ok=True)
    with pytest.raises(EvaluationError):
        evaluate(t, {}, alg)
    value, _ = evaluate(t, {"Z": compile_regex("b", AB)}, alg)
    assert automata.equal(value, compile_regex(".* b .*", AB))


def fixpoint_substitution_holds(t, alg, env=None):
    """Substituting the evaluated value for the bound variable reproduces it."""
    value, _ = evaluate(t, env or {}, alg)
    inner = dict(env or {})
    inner[t.var] = value
    again, _ = evaluate(t.body, inner, alg)
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
    assert is_guarded(t)
    value, stats = evaluate(t, {}, alg)
    assert isinstance(value, Nfa)
    assert all(count >= 1 for counts in stats.iterations.values()
               for count in counts)
    # outer binder: substituting the result reproduces it
    assert fixpoint_substitution_holds(t, alg)
    # inner binder: with X fixed at the result, the nu value is a fixpoint too
    assert fixpoint_substitution_holds(t.body, alg, env={"X": value})


def test_unfolding_preserves_value():
    alg = word_algebra(V="a b | b")
    t = parse_term("mu X. V | up(X)", alg)
    v1, _ = evaluate(t, {}, alg)
    v2, _ = evaluate(unfold(t, t.var), {}, alg)
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
        evaluate(parse_term("up(Z)", alg, free_ok=True), {}, alg)


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
            assert is_guarded(t)
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
