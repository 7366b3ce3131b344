import itertools

import pytest

from wsmc import compilers, oracle
from wsmc.automata import Alphabet, Nfa
from wsmc.model import GlcsModel, Rule, load_model, parse_model, parse_region_text
from wsmc.regexes import compile_regex
from wsmc.regions import Config
from wsmc.terms import parse_term

from conftest import model_path, random_model, random_nfa, random_region_for

AB = Alphabet(("a", "b"))


def w(text):
    return tuple(text)


def test_subword_basics():
    assert oracle.is_subword(w("ab"), w("aabb"))
    assert oracle.is_subword((), w("a"))
    assert not oracle.is_subword(w("ba"), w("ab"))
    assert oracle.subwords(w("ab")) == {(), w("a"), w("b"), w("ab")}


def test_enum_words_counts():
    assert len(oracle.enum_words(AB, 3)) == 1 + 2 + 4 + 8
    with pytest.raises(oracle.OracleError):
        oracle.enum_words(AB, 99)


def test_nfa_simulation_agrees_with_engine(rng):
    for _ in range(30):
        nfa = random_nfa(rng, AB)
        for word in oracle.enum_words(AB, 4):
            assert oracle.nfa_accepts(nfa, word) == nfa.accepts(word)


def test_closure_membership_definitions():
    # membership checks quantify over unbounded witnesses
    ends_a = compile_regex(".* a", AB)
    assert oracle.in_up_closure(ends_a, w("ab"))     # a is a subword of ab
    assert not oracle.in_up_closure(ends_a, w("b"))  # nothing of L below b
    assert not oracle.in_up_kernel(ends_a, w("ba"))  # the up-kernel is empty
    assert oracle.in_down_closure(ends_a, w("b"))
    single = Nfa.word(AB, w("ab"))
    assert oracle.in_up_closure(single, w("aabb"))
    assert not oracle.in_up_closure(single, w("ba"))
    assert oracle.in_down_kernel(Nfa.universal(AB), w("ab"))


def test_interleavings():
    assert oracle.shuffle({w("ab")}, {w("c")}, 3) == {w("cab"), w("acb"), w("abc")}
    assert oracle.shuffle({w("ab")}, {w("c"), ()}, 2) == {w("ab")}


def test_word_operations_by_hand():
    assert oracle.concat({(), w("a")}, {w("b"), w("bb")}, 2) == \
        {w("b"), w("bb"), w("ab")}  # abb is too long
    assert oracle.star({w("ab")}, 5) == {(), w("ab"), w("abab")}
    assert oracle.star(set(), 3) == {()}
    assert oracle.left_residual({w("a")}, {w("ab"), w("b"), w("aa")}) == \
        {w("b"), w("a")}
    assert oracle.right_residual({w("ab"), w("b"), w("aa")}, {w("b")}) == \
        {w("a"), ()}


def test_region_member():
    model = load_model(model_path("token_game.lcs"))
    region = parse_region_text("(a0; t*)", model)
    assert oracle.region_member(region, Config("a0", (("t", "t"),)))
    assert not oracle.region_member(region, Config("a0", (("n",),)))
    assert not oracle.region_member(region, Config("b0", ((),)))


def test_lossy_successors():
    model = load_model(model_path("token_game.lcs"))
    succ = oracle.lossy_successors(model, Config("a0", ((),)))
    assert succ == {Config("b0", (("t",),)), Config("b0", ((),)),
                    Config("b0", (("n",),))}


def test_bounded_reach():
    model = load_model(model_path("token_game.lcs"))
    goal = model.named_regions["GOAL"]
    assert oracle.bounded_reach(model, Config("a0", ((),)), goal, 6) == \
        "reachable"
    nowhere = parse_region_text("(win; t t t t .*)", model)
    assert oracle.bounded_reach(model, Config("a0", ((),)), nowhere, 3) == \
        "unknown"


def test_bounded_game_verdicts():
    model = load_model(model_path("token_game.lcs"))
    goal = model.named_regions["GOAL"]
    # B consumes the pending token and moves to win
    assert oracle.bounded_game(model, Config("b1", (("t",),)), goal, "B", 4) \
        == "win_B"
    # A cannot force win: B always has the nop escape at b1
    assert oracle.bounded_game(model, Config("a0", ((),)), goal, "A", 6) \
        in ("win_B", "unknown")


def test_bounded_game_stuck_opponent_loses():
    # B at q may only move with an a at the head of c, and c is empty
    model = parse_model("alphabet: a\nchannels: c\nlocations: p[A] q[B]\n"
                        "rule p -> q : nop\nrule q -> p : nop guard (q; a .*)")
    assert model.validate() == []
    goal = parse_region_text("(p; .*)", model)
    start = Config("q", ((),))
    region, _ = compilers.compile_game("reach", model, "A", goal).run()
    assert model.space.member(start, region)
    assert oracle.bounded_game(model, start, goal, "A", 0) == "unknown"
    for depth in range(1, 5):
        assert oracle.bounded_game(model, start, goal, "A", depth) == "win_A"


def _guard_exits(rng, model):
    """The model with the unguarded exit that random_model gives each
    location guarded at random, so that a configuration may have no move."""
    n = len(model.locations)
    exits = tuple(Rule(r.source, r.target, r.kind, guard=random_region_for(rng, model))
                  if rng.random() < 0.5 else r for r in model.rules[:n])
    return GlcsModel(model.alphabet, model.channels, model.locations,
                     model.owners, exits + model.rules[n:])


def test_bounded_game_agrees_with_the_compiled_attractor(rng):
    for trial in range(80):
        model = random_model(rng, max_channels=rng.randint(0, 2), game=True)
        if trial % 2:
            model = _guard_exits(rng, model)
        target = random_region_for(rng, model)
        short = [()] + [(sym,) for sym in model.alphabet.symbols]
        configs = [Config(loc, contents) for loc in model.locations
                   for contents in itertools.product(short, repeat=len(model.channels))]
        for player in "AB":
            region, _ = compilers.compile_game("reach", model, player, target).run()
            for config in configs:
                verdicts = [oracle.bounded_game(model, config, target, player, depth)
                            for depth in range(7)]
                settled = [v for v in verdicts if v != "unknown"]
                # unknown until the first verdict, which then never changes
                assert verdicts[len(verdicts) - len(settled):] == settled
                assert len(set(settled)) <= 1
                if settled:
                    assert model.space.member(config, region) == \
                        (settled[0] == "win_" + player)


def test_finite_mc_hand_example():
    model = load_model(model_path("flags.lcs"))
    term = parse_term("mu X. GOAL | pre(up(X))", model.algebra())
    assert oracle.finite_mc(model, term) == frozenset("pqrs")
    term = parse_term("nu X. SAFE & wpre(kdown(X))", model.algebra())
    # r is forced into s, which leaves SAFE; nothing survives forever
    assert oracle.finite_mc(model, term) == frozenset()


def test_finite_mc_needs_zero_channels():
    model = load_model(model_path("token_game.lcs"))
    with pytest.raises(oracle.OracleError):
        oracle.finite_mc(model, parse_term("all", model.algebra()))


def test_finite_mc_handles_unguarded_terms():
    model = load_model(model_path("flags.lcs"))
    term = parse_term("mu X. GOAL | pre(X)", model.algebra())
    assert oracle.finite_mc(model, term) == frozenset("pqrs")
