import itertools
import random

import pytest

from wsmc import automata, compilers, oracle
from wsmc.automata import Alphabet, Nfa
from wsmc.model import (
    LOSSY, PERFECT, GlcsModel, ModelError, Rule, SEND, RECV, INTERNAL,
    parse_config, parse_model, parse_region_text, parse_word, region_to_text)
from wsmc.regexes import compile_regex
from wsmc.regions import Config, RegionError, RegionSpace

from conftest import model_path, random_model, random_region_for

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
])
def test_parse_model_rejects_duplicate_declarations(lines, lineno, message):
    text = "\n".join(["alphabet: a"] + lines[:1] + ["locations: p"] + lines[1:])
    with pytest.raises(ModelError) as info:
        parse_model(text, name="m.lcs")
    assert str(info.value) == "m.lcs:%d: %s" % (lineno, message)


@pytest.mark.parametrize("name", [
    "empty", "all", "pre", "wpre", "post", "prep", "wprep", "postp",
    "confA", "confB", "mu", "nu", "up", "down", "kup", "kdown"])
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


def test_parse_word_and_config():
    model = tiny_model([Rule("p", "q", SEND, "c", "a")])
    assert parse_word("ab a", AB) == ("a", "b", "a")
    sigma = parse_config("p : a b", model)
    assert sigma == Config("p", (("a", "b"),))
    with pytest.raises(ModelError):
        parse_config("nowhere : a", model)


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
                post_sigma = model.post(model.space.config_region(sigma), mode)
                for rho in sample:
                    fwd = rho in successors
                    pre_rho = model.pre(model.space.config_region(rho), mode)
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


@pytest.mark.parametrize("max_channels", [0, 1, 2, 3])
def test_memoized_step_operators_equal_fresh_model(max_channels):
    rng = random.Random(5500 + max_channels)
    calls = [(op, mode) for op in ("pre", "wpre", "post") for mode in (LOSSY, PERFECT)]
    for _ in range(8):
        model = random_model(rng, max_channels=max_channels)
        regions = [random_region_for(rng, model, 3) for _ in range(3)]
        for r in regions:  # warm the region memo
            for op, mode in calls:
                getattr(model, op)(r, mode)
        for r in regions:
            for op, mode in calls:
                fresh = GlcsModel(model.alphabet, model.channels, model.locations,
                                  model.owners, model.rules)
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
        for region in results:
            for _, enc in region.slices:
                assert automata.canonicalize(enc) is enc
            for product in region.summands:
                for lang in product.channel_langs:
                    assert automata.canonicalize(lang) is lang


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
        steps = [model.pre_perf, model.post_perf,
                 lambda r: model.pre_perf_rule(rule, r),
                 lambda r: model.post_perf_rule(rule, r)]
        steps += [lambda r, op=op, mode=mode: op(r, mode)
                  for op in (model.pre, model.wpre, model.post)
                  for mode in (LOSSY, PERFECT)]
        for step in steps:
            with pytest.raises(RegionError, match="region of another signature"):
                step(foreign)


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
    model.post_perf(both)
    # one block edit per (kind, channel, symbol, slice)
    assert sorted(edits) == ["append", "behead", "curtail", "prepend"]
    calls = [(op, mode) for op in (model.pre, model.post, model.wpre)
             for mode in (LOSSY, PERFECT)]
    want = {call: call[0](both, call[1]) for call in calls}
    for op, mode in calls[:4]:
        assert op(at["p"], mode) == op(space.intersection(both, at["p"]), mode)
    minimized = []
    real_minimize = automata.minimize
    monkeypatch.setattr(automata, "minimize",
                        lambda a: minimized.append(a) or real_minimize(a))
    again = space.union(at["q"], at["p"])
    assert again == both and again is not both
    for op, mode in calls:
        assert op(again, mode) == want[op, mode]
    assert minimized == []
