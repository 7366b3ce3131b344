import itertools
import json
import random

import pytest

from wsmc import automata, compilers, model as model_module, oracle, regexes
from wsmc.automata import Alphabet, Nfa
from wsmc.engine import evaluate
from wsmc.model import (
    LOSSY, PERFECT, GlcsModel, ModelError, Rule, SEND, RECV, INTERNAL,
    load_model, parse_config, parse_model, parse_region_text, region_to_text)
from wsmc.regexes import compile_regex
from wsmc.regions import Config, RegionError, RegionSpace
from wsmc.terms import check_guarded, parse_term

import record_abp_digests
from conftest import (
    BAD_RULES, config_region, model_path, random_model, random_nfa, random_region_for)

AB = Alphabet(("a", "b"))


def tiny_model(rules, locations=("p", "q"), channels=("c",), owners=None):
    owners = owners or {loc: None for loc in locations}
    return GlcsModel(AB, channels, tuple(locations), owners, tuple(rules))


def atom(model, loc, *patterns):
    langs = tuple(compile_regex(p, model.alphabet) for p in patterns)
    return model.space.atom(loc, langs)


# -- parsing ------------------------------------------------------------

def test_parse_model_roundtrip():
    text = """
    # demo
    alphabet: a b
    channels: c
    locations: p q
    region GOAL = (q; a*)
    rule p -> q : c!a
    rule q -> p : c?a guard GOAL
    rule q -> q : nop
    """
    model = parse_model(text)
    assert model.locations == ("p", "q")
    assert len(model.rules) == 3
    assert model.rules[1].guard is not None
    assert not model.game_mode


def test_declaration_lines_take_any_whitespace():
    canonical = parse_model("alphabet: a b\nchannels: c d\nlocations: p q[A]\n"
                            "region R = (p; a*; b)\nrule p -> q : c!a guard R\n"
                            "rule q -> p : nop\n")
    for text in ("alphabet : a b\nchannels : c d\nlocations : p q[A]\n"
                 "region\tR = (p; a*; b)\nrule\tp -> q : c!a guard R\n"
                 "rule q -> p : nop\n",
                 "alphabet\t:a b\nchannels\t:\tc d\n  locations \t: p\tq[A]\n"
                 "region  R=(p; a*; b)\nrule \t p -> q : c!a guard R\n"
                 "rule\tq -> p : nop\n"):
        model = parse_model(text)
        assert model.signature == canonical.signature
        assert model.owners == canonical.owners
        assert model.named_regions == canonical.named_regions
        assert model.rules == canonical.rules
    # a keyword is a whole word
    for line in ("ruler p -> q : nop", "regions R = (p; a*; b)", "alphabets: a"):
        with pytest.raises(ModelError, match="^m.lcs:4: unrecognized line$"):
            parse_model("alphabet: a b\nchannels: c d\nlocations: p q\n" + line,
                        name="m.lcs")


def test_parse_model_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="m.lcs:3"):
        parse_model("alphabet: a\nlocations: p\nnonsense here", name="m.lcs")
    with pytest.raises(ModelError, match="missing alphabet"):
        parse_model("locations: p")
    with pytest.raises(ModelError, match="owner"):
        parse_model("alphabet: a\nlocations: p[C]")


@pytest.mark.parametrize("lines, lineno, message", [
    (["channels: c c"], 2, "duplicate channel 'c'"),
    (["channels: c", "locations: q[A] p"], 4, "duplicate location 'p'"),
    (["channels: c", "region R = (p; a)", "region S = (p; ())",
      "region R = (p; ())"], 6, "duplicate region 'R' (first declared on line 4)"),
    (["alphabet: b"], 2, "duplicate alphabet declaration (first declared on line 1)"),
    (["channels: x", "channels: y z"], 4,
     "duplicate channels declaration (first declared on line 2)"),
])
def test_parse_model_rejects_duplicate_declarations(lines, lineno, message):
    text = "\n".join(["alphabet: a"] + lines[:1] + ["locations: p"] + lines[1:])
    with pytest.raises(ModelError) as info:
        parse_model(text, name="m.lcs")
    assert str(info.value) == "m.lcs:%d: %s" % (lineno, message)


@pytest.mark.parametrize("rule, message", BAD_RULES)
def test_parse_model_rule_errors_carry_line_numbers(rule, message):
    text = "alphabet: a\nchannels: c\nlocations: p\nrule %s\nrule p -> p : nop" % rule
    with pytest.raises(ModelError) as info:
        parse_model(text, name="m.lcs")
    assert str(info.value) == "m.lcs:4: %s" % message


def test_a_guard_needs_no_spaces_around_it():
    head = "alphabet: a\nchannels: c\nlocations: p q\n"
    spaced = parse_model(head + "rule p -> q : c!a guard (p; a)\n")
    tight = parse_model(head + "rule p -> q : c!a guard(p; a)\n")
    assert tight.rules == spaced.rules
    assert tight.rules[0].symbol == "a" and tight.rules[0].guard is not None


def spy_on_rule_checks(monkeypatch):
    checked = []
    check = GlcsModel._check_rule
    monkeypatch.setattr(GlcsModel, "_check_rule",
                        lambda self, rule: checked.append(rule) or check(self, rule))
    return checked


def test_parse_model_checks_each_rule_once(monkeypatch):
    # the reader checks each rule's names at their position, and
    # _check_rule does not check them again
    checked = spy_on_rule_checks(monkeypatch)
    model = load_model(model_path("abp.lcs"))
    assert checked == [] and len(model.rules) == 36


def test_api_model_checks_each_rule_once(monkeypatch):
    parsed = load_model(model_path("abp.lcs"))
    checked = spy_on_rule_checks(monkeypatch)
    model = GlcsModel(parsed.alphabet, parsed.channels, parsed.locations,
                      parsed.owners, parsed.rules, parsed.named_regions)
    assert checked == list(model.rules) == list(parsed.rules)
    for rule, message in [
            (Rule("p", "r", SEND, "c", "a"), "rule endpoint 'r' is not a location"),
            (Rule("p", "q", SEND, "d", "a"), "rule channel 'd' not declared"),
            (Rule("p", "q", RECV, "c", "x"), "rule symbol 'x' not in alphabet")]:
        with pytest.raises(ModelError) as info:
            tiny_model([rule])
        assert str(info.value) == message


@pytest.mark.parametrize("name", [
    "empty", "all", "pre", "wpre", "post", "prep", "wprep", "postp",
    "confA", "confB", "preA", "preB", "prepA", "prepB", "wpreA", "wpreB",
    "wprepA", "wprepB", "mu", "nu", "up", "down", "kup", "kdown", "AF", "EX", "U"])
def test_parse_model_rejects_reserved_region_names(name):
    text = "alphabet: a\nchannels: c\nlocations: p\nregion %s = (p; a)" % name
    with pytest.raises(ModelError) as info:
        parse_model(text, name="m.lcs")
    assert str(info.value) == "m.lcs:4: region name %r is reserved" % (name,)


# -- models built through the API obey the rules of the model syntax ------

@pytest.mark.parametrize("alphabet, channels, locations, owners, message", [
    (AB, ("c",), ("p", "p"), {"p": None}, "duplicate location 'p'"),
    (AB, ("c", "c"), ("p",), {"p": None}, "duplicate channel 'c'"),
    (Alphabet(("x*", "y")), ("c",), ("p",), {"p": None},
     "symbol name 'x*' must consist of letters, digits and '_'"),
    (AB, ("c",), ("p",), {"p": "C"}, "owner must be A or B, got 'C'"),
], ids=["locations", "channels", "symbol", "owner"])
def test_api_model_rejects_what_parse_model_rejects(alphabet, channels, locations,
                                                    owners, message):
    with pytest.raises(ModelError) as info:
        GlcsModel(alphabet, channels, locations, owners, ())
    assert str(info.value) == message


def test_api_region_named_after_an_operator_is_refused():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    goal = atom(model, "q", "a")
    model.named_regions["pre"] = goal
    with pytest.raises(ModelError, match="region name 'pre' is reserved"):
        compilers.compile_pre_star(model, goal)


def test_api_region_named_all_does_not_shadow_the_full_region():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    model.named_regions["all"] = model.space.empty()
    with pytest.raises(ModelError, match="region name 'all' is reserved"):
        compilers.eval_ctl(model, "all")


@pytest.mark.parametrize("text, message", [
    ("", "empty region expression (the empty region is written {}) at position 0"),
    ("  ", "empty region expression (the empty region is written {}) at position 2"),
    ("+", "empty region atom, found '+' at position 0"),
    ("(p; a) + + (q; ())", "empty region atom, found '+' at position 9"),
    ("(p; a) +", "empty region atom, found end of input at position 8"),
    ("+ G", "empty region atom, found '+' at position 0"),
])
def test_empty_region_expressions_and_atoms_are_refused(text, message):
    model = parse_model("alphabet: a\nchannels: c\nlocations: p q\n"
                        "region G = (p; a*)\n")
    with pytest.raises(ModelError) as info:
        parse_region_text(text, model)
    assert str(info.value) == message
    assert parse_region_text("{}", model) == model.space.empty()


@pytest.mark.parametrize("line, message", [
    ("region G = ", "empty region expression (the empty region is written {}) "
                    "at position 11"),
    ("region G = (p; a) +", "empty region atom, found end of input at position 19"),
    ("region G", "region needs 'name = expression'"),
    ("rule p -> p : nop guard (p; a) + + (p; ())",
     "empty region atom, found '+' at position 33"),
    ("region G = (p; a|)", "expected an expression, found ')' at position 17"),
])
def test_empty_regions_in_model_files_are_refused_at_their_line(line, message):
    text = "alphabet: a\nchannels: c\nlocations: p\n%s\n" % line
    with pytest.raises(ModelError) as info:
        parse_model(text, name="m.lcs")
    assert str(info.value) == "m.lcs:4: %s" % message


def test_parse_word_and_config():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    assert parse_config("p : ab a", model) == Config("p", (("a", "b", "a"),))
    sigma = parse_config("p : a b", model)
    assert sigma == Config("p", (("a", "b"),))
    with pytest.raises(ModelError):
        parse_config("nowhere : a", model)


@pytest.mark.parametrize("text, position", [
    ("a0 : t x", 7), ("a0 : tt n q", 10), ("a0:x", 3)])
def test_config_word_errors_point_into_the_configuration(text, position):
    game = load_model(model_path("token_game.lcs"))
    with pytest.raises(ModelError, match=" at position %d$" % position) as info:
        parse_config(text, game)
    assert text[position] == info.value.args[0].split("'")[1][0]


def test_config_word_errors_point_into_each_channel_word():
    model = tiny_model([], channels=("c", "d"))
    with pytest.raises(ModelError, match="^symbol 'x' not in alphabet at position 12$"):
        parse_config("p : a b, ba x", model)


def test_region_text_roundtrip():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    region = parse_region_text("(p; a b*) + (q; ~(a*))", model)
    text = region_to_text(region, model)
    assert model.space.equal(parse_region_text(text, model), region)
    assert region_to_text(model.space.empty(), model) == "{}"


# -- validation ---------------------------------------------------------

def test_validate_deadlock_risk():
    model = tiny_model([Rule("p", "q", SEND, "c", "a"),
                        Rule("q", "p", RECV, "c", "a")])
    report = model.validate()
    assert any("q" in line and "deadlock" in line for line in report)


def test_validate_alternation():
    model = tiny_model([Rule("p", "q", INTERNAL)],
                       owners={"p": "A", "q": "A"})
    assert any("alternate" in line for line in model.validate())
    ok = tiny_model([Rule("p", "q", INTERNAL), Rule("q", "p", INTERNAL)],
                    owners={"p": "A", "q": "B"})
    assert ok.validate() == []


def test_validate_self_loop_model():
    model = tiny_model([Rule("p", "p", INTERNAL)], locations=("p",))
    assert model.validate() == []


# -- per-rule predecessors ----------------------------------------------

def test_pre_perf_send_rule():
    rule = Rule("p", "q", SEND, "c", "a")
    model = tiny_model([rule])
    got = model.pre_perf_rule(rule, atom(model, "q", "a"))
    assert model.space.equal(got, atom(model, "p", "()"))
    assert model.space.is_empty(model.pre_perf_rule(rule, model.space.empty()))


def test_pre_perf_recv_rule():
    rule = Rule("q", "p", RECV, "c", "a")
    model = tiny_model([rule])
    got = model.pre_perf_rule(rule, atom(model, "p", "()"))
    assert model.space.equal(got, atom(model, "q", "a"))


def test_lossy_pre_examples():
    send = Rule("p", "q", SEND, "c", "a")
    model = tiny_model([send])
    got = model.pre(atom(model, "q", "a"), LOSSY)
    assert model.space.equal(got, atom(model, "p", ".*"))
    recv = Rule("q", "p", RECV, "c", "a")
    model2 = tiny_model([recv])
    got2 = model2.pre(atom(model2, "p", "()"), LOSSY)
    assert model2.space.equal(got2, atom(model2, "q", "a .*"))


def test_post_examples():
    rule = Rule("p", "q", SEND, "c", "a")
    model = tiny_model([rule])
    start = atom(model, "p", "()")
    assert model.space.equal(model.post(start, PERFECT), atom(model, "q", "a"))
    assert model.space.equal(model.post(start, LOSSY), atom(model, "q", "a?"))
    assert model.space.is_empty(model.post(model.space.empty(), LOSSY))


def test_step_configs():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    sigma = Config("p", ((),))
    assert oracle.perfect_successors(model, sigma) == [Config("q", (("a",),))]
    assert oracle.lossy_successors(model, sigma) == {
        Config("q", (("a",),)), Config("q", ((),))}
    blocked = tiny_model([Rule("p", "q", RECV, "c", "a")])
    assert oracle.perfect_successors(blocked, Config("p", ((),))) == []


def test_guard_blocks_step():
    guard_model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    guard = atom(guard_model, "p", "b .*")
    model = tiny_model([Rule("p", "q", SEND, "c", "a", guard)])
    assert oracle.perfect_successors(model, Config("p", ((),))) == []
    assert oracle.perfect_successors(model, Config("p", (("b",),))) == \
        [Config("q", (("b", "a"),))]


def test_guard_semantics_symbolic(rng):
    # guarded pre equals guard intersected with unguarded pre
    for _ in range(20):
        model = random_model(rng, with_guards=False)
        guard = random_region_for(rng, model)
        guarded_rules = tuple(
            Rule(r.source, r.target, r.kind, r.channel, r.symbol, guard)
            for r in model.rules)
        guarded = GlcsModel(model.alphabet, model.channels, model.locations,
                            model.owners, guarded_rules)
        region = random_region_for(rng, model)
        for mode in (PERFECT, LOSSY):
            want = model.space.intersection(guard, model.pre(region, mode))
            assert model.space.equal(guarded.pre(region, mode), want)


# -- semantic properties ------------------------------------------------

def enum_configs(model, max_len):
    ws = [()]
    for n in range(1, max_len + 1):
        ws.extend(itertools.product(model.alphabet.symbols, repeat=n))
    for loc in model.locations:
        for combo in itertools.product(ws, repeat=len(model.channels)):
            yield Config(loc, tuple(tuple(w) for w in combo))


def test_pre_post_galois_on_explicit_states(rng):
    check_galois_on_explicit_states(rng, n_channels=1, max_len=2, n_models=10)


def test_pre_post_galois_on_two_channels(rng):
    # the rules edit block 0 and block 1 of the encoding
    check_galois_on_explicit_states(rng, n_channels=2, max_len=1, n_models=6)


def check_galois_on_explicit_states(rng, n_channels, max_len, n_models):
    models = 0
    while models < n_models:
        model = random_model(rng, max_locations=3, max_channels=n_channels,
                             max_rules=4)
        if len(model.channels) != n_channels:
            continue
        models += 1
        sample = list(enum_configs(model, max_len))
        for mode in (PERFECT, LOSSY):
            for sigma in sample:
                successors = (set(oracle.perfect_successors(model, sigma))
                              if mode == PERFECT
                              else oracle.lossy_successors(model, sigma))
                post_sigma = model.post(config_region(model.space, sigma), mode)
                for rho in sample:
                    fwd = rho in successors
                    pre_rho = model.pre(config_region(model.space, rho), mode)
                    assert model.space.member(sigma, pre_rho) == fwd
                    assert model.space.member(rho, post_sigma) == fwd


def test_lossy_step_closure_identities(rng):
    for _ in range(30):
        model = random_model(rng)
        region = random_region_for(rng, model)
        assert model.space.equal(
            model.pre(region, LOSSY),
            model.pre(model.space.up_closure(region), LOSSY))
        assert model.space.equal(
            model.wpre(region, LOSSY),
            model.wpre(model.space.down_kernel(region), LOSSY))


def test_wpre_is_dual_and_total_on_full(rng):
    for _ in range(10):
        model = random_model(rng)
        region = random_region_for(rng, model)
        want = model.space.complement(
            model.pre(model.space.complement(region), LOSSY))
        assert model.space.equal(model.wpre(region, LOSSY), want)
        assert model.space.is_universal(model.wpre(model.space.full(), LOSSY))
        # enabled states with every successor in R have a successor in R
        lhs = model.space.intersection(model.wpre(region, LOSSY),
                                       model.pre(model.space.full(), LOSSY))
        assert model.space.subset(lhs, model.pre(region, LOSSY))


def test_step_operators_monotone(rng):
    for _ in range(10):
        model = random_model(rng)
        small = random_region_for(rng, model)
        big = model.space.union(small, random_region_for(rng, model))
        for mode in (PERFECT, LOSSY):
            assert model.space.subset(model.pre(small, mode),
                                      model.pre(big, mode))
            assert model.space.subset(model.post(small, mode),
                                      model.post(big, mode))
            assert model.space.subset(model.wpre(small, mode),
                                      model.wpre(big, mode))


def per_rule_union_fold(model, region, rule_step):
    result = model.space.empty()
    for rule in model.rules:
        result = model.space.union(result, rule_step(rule, region))
    return result


def test_batched_step_operators_equal_per_rule_fold(rng):
    guarded = 0
    for _ in range(40):
        model = random_model(rng)
        guarded += any(rule.guard is not None for rule in model.rules)
        space = model.space
        region = random_region_for(rng, model, n_summands=3)
        pre_fold = per_rule_union_fold(model, region, model.pre_perf_rule)
        lossy_pre_fold = per_rule_union_fold(model, space.up_closure(region),
                                             model.pre_perf_rule)
        post_fold = per_rule_union_fold(model, region, model.post_perf_rule)
        assert space.equal(model.pre(region, PERFECT), pre_fold)
        assert space.equal(model.pre(region, LOSSY), lossy_pre_fold)
        assert space.equal(model.post(region, PERFECT), post_fold)
        assert space.equal(model.post(region, LOSSY), space.down_closure(post_fold))
    assert guarded >= 10


def covering_model(rng, n_channels):
    """A random model whose rules repeat two (source, target) pairs with
    mixed operations, some guarded and some repeated, so that rules
    cover one another on upward-closed regions."""
    locations = ("p", "q", "r")
    channels = tuple("c%d" % i for i in range(n_channels))
    model = GlcsModel(AB, channels, locations, {loc: None for loc in locations}, ())
    pairs = [(rng.choice(locations), rng.choice(locations)) for _ in range(2)]
    ops = [(INTERNAL, None, None)] + [(kind, c, x) for kind in (SEND, RECV)
                                      for c in channels for x in AB.symbols]
    rules = []
    for _ in range(rng.randint(2, 8)):
        guard = random_region_for(rng, model) if rng.random() < 0.4 else None
        rules.append(Rule(*rng.choice(pairs), *rng.choice(ops), guard))
        if rng.random() < 0.3:  # the same operation again, guarded or not
            last = rules[-1]
            rules.append(Rule(last.source, last.target, last.kind, last.channel,
                              last.symbol, None if rng.random() < 0.5
                              else random_region_for(rng, model)))
    return GlcsModel(AB, channels, locations, model.owners, tuple(rules))


def check_lossy_steps_equal_the_all_rules_fold(model, region):
    """Lossy pre and wpre of region, on a copy of model with an empty
    step memo, give the encodings of the per-rule fold over every rule."""
    space = model.space
    copy = GlcsModel(model.alphabet, model.channels, model.locations,
                     model.owners, model.rules)

    def fold(r):
        return per_rule_union_fold(model, space.up_closure(r), model.pre_perf_rule)

    assert copy.pre(region, LOSSY) == fold(region)
    assert copy.wpre(region, LOSSY) == space.complement(fold(space.complement(region)))


@pytest.mark.parametrize("n_channels", [0, 1, 2, 3])
def test_lossy_steps_skip_covered_rules_and_equal_the_all_rules_fold(n_channels):
    rng = random.Random(5700 + n_channels)
    skipped = 0
    for _ in range(12):
        model = covering_model(rng, n_channels)
        skipped += len(model.rules) - len(model._lossy_rules)
        for _ in range(2):
            check_lossy_steps_equal_the_all_rules_fold(
                model, random_region_for(rng, model, 3))
    assert skipped >= 10


def abp_model(name):
    """A bundled model, or ABP-3 and the faithful ABP-3 of
    tests/record_abp_digests.py."""
    if name == "ABP-3":
        return parse_model(record_abp_digests.gen.abp_text(3), name)
    if name == "faithful ABP-3":
        return parse_model(record_abp_digests.faithful_abp_text(3), name)
    return load_model(model_path(name))


@pytest.mark.parametrize("name", ["abp.lcs", "token_game.lcs", "flags.lcs", "ABP-3",
                                  "faithful ABP-3"])
def test_lossy_steps_of_a_bundled_or_abp_model_equal_the_all_rules_fold(name):
    model = abp_model(name)
    space = model.space
    regions = [space.full(), *model.named_regions.values()]
    regions += [space.complement(r) for r in regions]
    regions += [space.up_closure(r) for r in regions]
    for region in regions:
        check_lossy_steps_equal_the_all_rules_fold(model, region)


def test_lossy_rules_skip_only_rules_another_rule_covers():
    guard = tiny_model([]).space.location_region(["p"])
    rules = [
        # p -> q: a guarded send covers nothing, a nop covers the receives
        Rule("p", "q", SEND, "c", "a", guard), Rule("p", "q", INTERNAL),
        Rule("p", "q", RECV, "c", "a"), Rule("p", "q", RECV, "c", "b", guard),
        # q -> p: a send covers a nop; duplicate unguarded rules are both
        # kept; a guarded send is covered by the same send only
        Rule("q", "p", INTERNAL), Rule("q", "p", SEND, "c", "b"),
        Rule("q", "p", SEND, "c", "b"), Rule("q", "p", SEND, "c", "a", guard),
        Rule("q", "p", SEND, "c", "b", guard),
        # q -> q: a guarded nop covers no receive
        Rule("q", "q", RECV, "c", "a"), Rule("q", "q", INTERNAL, guard=guard),
        # p -> p: a receive covers itself under a guard, but not another
        # receive; rules between other locations cover nothing here
        Rule("p", "p", RECV, "c", "a", guard), Rule("p", "p", RECV, "c", "a"),
        Rule("p", "p", RECV, "c", "b"),
    ]
    model = tiny_model(rules)
    assert model._lossy_rules == tuple(rules[i] for i in (0, 1, 5, 6, 7, 9, 10, 12, 13))
    space = model.space
    for region in (space.full(), atom(model, "q", "a*"), atom(model, "p", "()"),
                   space.union(atom(model, "p", "ab"), atom(model, "q", "b"))):
        check_lossy_steps_equal_the_all_rules_fold(model, region)


def test_perfect_steps_use_every_rule(monkeypatch):
    # on a region that is not upward closed, a receive adds to a nop
    model = tiny_model([Rule("p", "q", RECV, "c", "a"), Rule("p", "q", INTERNAL),
                        Rule("q", "p", INTERNAL), Rule("q", "p", SEND, "c", "b")])
    assert model._lossy_rules == model.rules[1:2] + model.rules[3:]
    empty_word = {loc: atom(model, loc, "()") for loc in model.locations}
    assert model.pre(empty_word["q"], PERFECT) == \
        model.space.union(empty_word["p"], atom(model, "p", "a"))
    assert model.pre(atom(model, "p", "b"), PERFECT) == \
        model.space.union(empty_word["q"], atom(model, "q", "b"))
    both = model.space.union(*empty_word.values())
    edits = {RECV: "prepend", SEND: "curtail", INTERNAL: None}
    for op, mode, rules in (("pre", PERFECT, model.rules), ("wpre", PERFECT, model.rules),
                            ("pre", LOSSY, model._lossy_rules),
                            ("wpre", LOSSY, model._lossy_rules)):
        copy = tiny_model(model.rules)  # with an empty step memo
        steps, edited = [], []
        through, edit = copy._step, copy.space.edited
        monkeypatch.setattr(copy, "_step",
                            lambda *args: steps.append(args[:3]) or through(*args))
        monkeypatch.setattr(copy.space, "edited",
                            lambda enc, *e: edited.append(e) or edit(enc, *e))
        getattr(copy, op)(both, mode)
        # the (target, edit, source) groups the step derives from the rules,
        # each edit of a target slice made once
        [(groups, guarded)] = [copy._steps[step] for step in steps]
        assert guarded == ()
        stepped = [(target, e, source) for target, by_edit in groups.items()
                   for e, sources in by_edit.items() for source in sources]
        assert sorted(stepped, key=repr) == sorted(
            ((r.target, (edits[r.kind], r.channel, r.symbol), r.source) for r in rules),
            key=repr)
        assert sorted(edited, key=repr) == sorted(
            (e for by_edit in groups.values() for e in by_edit), key=repr)


def test_bundled_safe_model_is_the_faithful_abp_3():
    with open(model_path("abp3_safe.lcs"), encoding="utf-8") as handle:
        assert handle.read() == record_abp_digests.faithful_abp_text(3)


def test_bundled_relay_model_is_relay_2():
    with open(model_path("relay2.lcs"), encoding="utf-8") as handle:
        assert handle.read() == record_abp_digests.gen.relay_text(2)


def test_faithful_abp_pre_star_of_bad_is_a_real_safety_answer():
    model = abp_model("faithful ABP-3")
    bad = model.named_regions["BAD"]
    region, stats = compilers.compile_pre_star(model, bad).run()
    assert stats.iterations == {"X": [6]}
    assert not model.space.is_universal(region)
    # a stale ack lets the sender run ahead of the receiver
    assert not model.space.member(parse_config("s0w0 : ,", model), region)
    stale = parse_config("s0w0 : , a0", model)
    assert model.space.member(stale, region)
    assert oracle.bounded_reach(model, stale, bad, 3) == "reachable"


def test_faithful_abp_nested_term_iterates_its_outer_binder():
    model = abp_model("faithful ABP-3")
    algebra = model.algebra()
    term = parse_term(record_abp_digests.NESTED_FAITHFUL, algebra)
    assert check_guarded(term) == []
    region, stats = evaluate(term, {}, algebra)
    assert stats.iterations == {"Y": [3], "X": [6, 6, 6]}
    pre_star, _ = compilers.compile_pre_star(model, model.named_regions["BAD"]).run()
    space = model.space
    assert not space.is_empty(region) and space.subset(region, pre_star)
    assert len(region.slices) == 6 and len(pre_star.slices) == 18


def test_recording_digests_keeps_the_other_sizes(tmp_path, monkeypatch):
    with open(record_abp_digests.FAITHFUL_DIGESTS, "rb") as handle:
        recorded = handle.read()
    digests = json.loads(recorded)
    assert set(digests) > {"3"}
    copy = tmp_path / "digests.json"
    copy.write_text(json.dumps({**digests, "3": "stale"}), encoding="utf-8")
    monkeypatch.setattr(record_abp_digests, "FAITHFUL_DIGESTS", str(copy))
    assert record_abp_digests.main(["--faithful", "3"]) == 0
    assert copy.read_bytes() == recorded


@pytest.mark.parametrize("max_channels", [0, 1, 2, 3])
def test_memoized_step_operators_equal_fresh_model(max_channels):
    rng = random.Random(5500 + max_channels)
    calls = [(op, mode) for op in ("pre", "wpre", "post") for mode in (LOSSY, PERFECT)]
    for _ in range(8):
        model = random_model(rng, max_channels=max_channels)
        regions = [random_region_for(rng, model, 3) for _ in range(3)]
        for r in regions:  # warm the region and step memos
            for op, mode in calls:
                getattr(model, op)(r, mode)
        for r in regions:
            for op, mode in calls:
                fresh = GlcsModel(model.alphabet, model.channels, model.locations,
                                  model.owners, model.rules)
                assert getattr(model, op)(r, mode) == getattr(fresh, op)(r, mode)
            assert model.pre_perf(r) is model.pre_perf(r)
        rules = model.rules[1:]  # new rules start a new step memo
        model._set_rules(rules)
        for r in regions:
            fresh = GlcsModel(model.alphabet, model.channels, model.locations,
                              model.owners, rules)
            for op, mode in calls:
                assert getattr(model, op)(r, mode) == getattr(fresh, op)(r, mode)


@pytest.mark.parametrize("max_channels", [0, 1, 2, 3])
def test_every_slice_encoding_is_its_own_canonical_form(max_channels):
    rng = random.Random(5600 + max_channels)
    steps = [(op, mode) for op in ("pre", "wpre", "post") for mode in (LOSSY, PERFECT)]
    ops = ("complement", "up_closure", "down_closure", "up_kernel", "down_kernel")
    for _ in range(8):
        model = random_model(rng, max_channels=max_channels)
        space = model.space
        r = random_region_for(rng, model, 3)
        results = [getattr(model, op)(r, mode) for op, mode in steps]
        results += [getattr(space, op)(r) for op in ops]
        # canonicalize returns any interned form as it is: minimize again
        for region in results:
            for _, enc in region.slices:
                assert automata.minimal_dfa(enc.alphabet, enc.table, enc.accepting) is enc
            for product in region.summands:
                for lang in product.channel_langs:
                    assert automata.minimal_dfa(
                        lang.alphabet, lang.table, lang.accepting) is lang


def test_unknown_step_mode_is_an_error():
    model = tiny_model([Rule("p", "q", INTERNAL)])
    for op in (model.pre, model.wpre, model.post):
        with pytest.raises(ModelError, match="unknown step mode"):
            op(model.space.full(), "sloppy")


def test_steps_refuse_a_region_of_another_signature():
    with open(model_path("abp.lcs"), encoding="utf-8") as handle:
        abp = parse_model(handle.read())
    with open(model_path("flags.lcs"), encoding="utf-8") as handle:
        flags = parse_model(handle.read())
    # no location name in common, and the same location names
    shared = parse_model("alphabet: x y\nchannels: c\nlocations: p q\n"
                         "rule p -> q : c!x\n")
    other = parse_model("alphabet: u v w\nchannels: d e\nlocations: p q\n")
    for model, foreign in ((abp, flags.space.full()), (shared, other.space.full())):
        rule = model.rules[0]
        steps = [model.pre_perf,
                 lambda r: model.pre_perf_rule(rule, r),
                 lambda r: model.post_perf_rule(rule, r)]
        steps += [lambda r, op=op, mode=mode: op(r, mode)
                  for op in (model.pre, model.wpre, model.post)
                  for mode in (LOSSY, PERFECT)]
        for step in steps:
            with pytest.raises(RegionError, match="region of another signature"):
                step(foreign)


def test_api_model_refuses_a_guard_of_another_signature():
    other = tiny_model([], locations=("p", "r"))
    guard = other.space.location_region(["p"])
    with pytest.raises(ModelError, match=r"^rule p -> q : c!a: guard of another "
                                         r"signature$"):
        tiny_model([Rule("p", "q", INTERNAL), Rule("p", "q", SEND, "c", "a", guard)])
    # a guard built in an equal signature is the model's own
    rule = Rule("p", "q", SEND, "c", "a", tiny_model([]).space.location_region(["p"]))
    assert tiny_model([rule]).rules == (rule,)


def test_a_pattern_repeated_across_regions_is_compiled_once(monkeypatch):
    model_module._channel_language.cache_clear()
    compiled = []
    real = regexes.compile_regex
    monkeypatch.setattr(regexes, "compile_regex",
                        lambda pattern, alphabet: compiled.append(pattern)
                        or real(pattern, alphabet))
    text = ("alphabet: a b\nchannels: c d\nlocations: p q\n"
            "region R = (p; a*; b) + (q; a*; b) + (q; b; a*)\n"
            "region S = (p; a*; ()) + R\n"
            "rule p -> q : c!a guard (q; b; b)\n"
            "rule q -> p : nop guard (p; a*; b)\n")
    first = parse_model(text)
    assert sorted(compiled) == ["()", "a*", "b"]
    second = parse_model(text)
    assert sorted(compiled) == ["()", "a*", "b"]
    assert second.named_regions == first.named_regions
    # the alphabet is part of the key
    parse_model(text.replace("alphabet: a b", "alphabet: a b x"))
    assert sorted(compiled) == ["()", "()", "a*", "a*", "b", "b"]


def test_parse_model_builds_one_region_space(monkeypatch):
    signatures = []
    init = RegionSpace.__init__

    def counting(self, signature):
        signatures.append(signature)
        init(self, signature)

    monkeypatch.setattr(RegionSpace, "__init__", counting)
    for name in ("abp.lcs", "token_game.lcs", "flags.lcs"):
        signatures.clear()
        with open(model_path(name), encoding="utf-8") as handle:
            parse_model(handle.read(), name)
        assert len(signatures) == 1


def test_steps_share_block_edits_and_repeat_without_minimizing(monkeypatch):
    # two sends of c!a read equal slices at p and q
    rules = [Rule("p", "q", SEND, "c", "a"), Rule("q", "p", SEND, "c", "a"),
             Rule("q", "p", RECV, "d", "b"), Rule("q", "q", INTERNAL)]
    model = tiny_model(rules, channels=("c", "d"))
    space = model.space
    rows = [("a*", "b"), ("a*b", "(ab)*"), ("b", "a|b")]
    at = {loc: space.union(*[atom(model, loc, *row) for row in rows])
          for loc in model.locations}
    assert ([p.channel_langs for p in at["p"].summands]
            == [q.channel_langs for q in at["q"].summands])
    for _ in range(2):  # the encodings are interned, both ways
        for r in at.values():
            assert space.complement(space.complement(r)) == r
    both = space.union(*at.values())
    edits = []
    real_edit = space._edit
    monkeypatch.setattr(space, "_edit",
                        lambda *args: edits.append(args[1]) or real_edit(*args))
    model.pre_perf(both)
    model.post(both, PERFECT)
    # one block edit per (kind, channel, symbol, slice)
    assert sorted(edits) == ["append", "behead", "curtail", "prepend"]
    calls = [(op, mode) for op in (model.pre, model.post, model.wpre)
             for mode in (LOSSY, PERFECT)]
    want = {call: call[0](both, call[1]) for call in calls}
    for op, mode in calls[:4]:
        assert op(at["p"], mode) == op(space.intersection(both, at["p"]), mode)
    minimized = []
    real_subsets = automata.subsets  # canonicalize's and the up closure's
    monkeypatch.setattr(automata, "subsets",
                        lambda *args: minimized.append(args) or real_subsets(*args))
    again = space.union(at["q"], at["p"])
    assert again == both and again is not both
    for op, mode in calls:
        assert op(again, mode) == want[op, mode]
    assert minimized == []


def test_operations_on_canonical_regions_build_no_nfa(monkeypatch):
    rng = random.Random(5800)
    for game in (False, True):
        for _ in range(6):
            model = random_model(rng, game=game)
            space = model.space
            atoms = [(rng.choice(model.locations), tuple(
                automata.canonicalize(random_nfa(rng, model.alphabet, 3))
                for _ in model.channels)) for _ in range(6)]
            # from now on, no subset construction of an NFA
            monkeypatch.setattr(automata, "_determinize",
                                lambda a: pytest.fail("an NFA is determinized"))
            atoms = [space.atom(loc, langs) for loc, langs in atoms]
            regions = [space.union(*atoms[:3]), space.union(*atoms[3:]), atoms[0],
                       space.empty(), space.full()]
            for a, b in itertools.product(regions, repeat=2):
                space.union(a, b), space.intersection(a, b), space.difference(a, b)
                space.subset(a, b)
            for r in regions:
                for op in ("complement", "up_closure", "down_closure", "up_kernel",
                           "down_kernel"):
                    getattr(space, op)(r)
                for mode in (LOSSY, PERFECT):
                    model.post(r, mode)
                    for owner in (None, "A", "B"):
                        model.pre(r, mode, owner), model.wpre(r, mode, owner)
                for rule in model.rules:
                    model.pre_perf_rule(rule, r), model.post_perf_rule(rule, r)
            monkeypatch.undo()


@pytest.mark.parametrize("name", ["abp.lcs", "abp4.lcs", "token_game.lcs", "flags.lcs"])
def test_step_memo_on_a_bundled_model_matches_a_freshly_parsed_copy(name):
    with open(model_path(name), encoding="utf-8") as handle:
        text = handle.read()
    model = parse_model(text, name)
    space = model.space
    regions = [space.full(), *model.named_regions.values()]
    regions += [space.complement(r) for r in regions]
    regions += [space.up_closure(r) for r in regions]
    for _ in range(2):
        for r in regions:
            fresh = parse_model(text, name)
            for mode in (LOSSY, PERFECT):
                assert model.pre(r, mode) == fresh.pre(r, mode)
                assert model.wpre(r, mode) == fresh.wpre(r, mode)
            assert model.pre_perf(r) == fresh.pre_perf(r)


def test_step_memo_keys_on_slices_and_checks_the_signature():
    model = tiny_model([Rule("p", "q", RECV, "c", "a"), Rule("q", "p", SEND, "c", "b")])
    first, second = atom(model, "q", "b*"), atom(model, "q", "a")
    assert model.pre_perf(first) == atom(model, "p", "ab*")
    # the same location, another slice
    assert model.pre_perf(second) == atom(model, "p", "aa")
    assert model.pre_perf(model.space.union(first, atom(model, "p", "b"))) == \
        model.space.union(atom(model, "p", "ab*"), atom(model, "q", "()"))
    # a foreign region is refused even where its slices are in the memo
    assert model.pre_perf(model.space.empty()) == model.space.empty()
    other = parse_model("alphabet: a b\nchannels: d\nlocations: p q\n")
    with pytest.raises(RegionError, match="region of another signature"):
        model.pre_perf(other.space.empty())
