import random

import pytest

from wsmc import compilers, engine, parse_model, terms
from wsmc.terms import (
    Down, Intersection, Kdown, Kup, Mu, Not, Nu, OpApp, Term, TermError, Union,
    Up, Var, check_guarded, check_parity, free_vars, parse_term,
    rename_binders, substitute, term_to_text, unfold)

from conftest import random_model
from test_acceptance import random_zero_channel_term
from test_engine import random_guarded_term, random_location_term

ARITIES = {"empty": 0, "all": 0, "pre": 1, "wpre": 1, "V": 0, "concat": 2}


def parse(text):
    return parse_term(text, ARITIES)


def test_parse_precedence():
    t = parse("V | V & !V")
    assert t.kind == "union"
    assert t.args[1].kind == "intersection"
    assert t.args[1].args[1].kind == "not"


def test_parse_fixpoint_bodies_extend_maximally():
    t = parse("mu X. V | pre(up(X))")
    assert t.kind == "mu"
    assert t.args[0].kind == "union"
    t = parse("nu Y. V & wpre(kdown(Y))")
    assert t.kind == "nu"
    assert t.args[0].kind == "intersection"


def test_parse_operator_arity_checks():
    with pytest.raises(TermError):
        parse("pre(V, V)")
    with pytest.raises(TermError):
        parse("concat(V)")
    with pytest.raises(TermError):
        parse("unknown_op(V)")
    with pytest.raises(TermError):
        parse("X")  # an unknown identifier, not a free variable


def test_parse_rejects_keyword_binders():
    with pytest.raises(TermError):
        parse("mu up. V")


def test_roundtrip_text():
    for text in ("mu X. V | pre(up(X))",
                 "nu X. V & (wpre(kdown(X)) | empty)",
                 "mu X. nu Y. up(X) & down(Y)",
                 "!V | all"):
        t = parse(text)
        assert term_to_text(parse(term_to_text(t))) == term_to_text(t)


def roundtrip(t, binding):
    """Whether t's text parses back to t, up to the binder renaming that
    parsing applies."""
    back = parse_term(term_to_text(t), binding)
    return back == rename_binders(t, free_vars(t))


def alpha(t, env=None, count=None):
    """t with its binders renamed by position, to compare terms up to
    binder names."""
    env, count = env or {}, count if count is not None else [0]
    if t.kind == "var":
        return Var(env.get(t.name, t.name))
    if t.kind in terms.BINDERS:
        name, count[0] = "#%d" % count[0], count[0] + 1
        return Term(t.kind, name, (alpha(t.args[0], {**env, t.name: name}, count),))
    return Term(t.kind, t.name, tuple(alpha(c, env, count) for c in t.args))


@pytest.mark.parametrize("t, text", [
    (Mu("X", Union(OpApp("X"), Up(Var("X")))), "mu X_1. (X | up(X_1))"),
    (Mu("X", Union(OpApp("X"), Mu("X_1", Union(Var("X"), Up(Var("X_1")))))),
     "mu X_2. (X | (mu X_1. (X_2 | up(X_1))))"),
    (Nu("X", Intersection(OpApp("X_1"), Intersection(OpApp("X"), Down(Var("X"))))),
     "nu X_2. (X_1 & (X & down(X_2)))"),
    (Mu("X", Union(OpApp("X"), Up(Mu("X", Union(OpApp("X"), Up(Var("X"))))))),
     "mu X_1. (X | up(mu X_2. (X | up(X_2))))"),
    (Mu("X", Union(OpApp("V"), Up(Var("X")))), "mu X. (V | up(X))"),
])
def test_a_binder_named_like_an_operator_of_its_body_reads_back(t, text):
    assert term_to_text(t) == text
    back = parse_term(text, {"X": 0, "X_1": 0, "V": 0})
    assert alpha(back) == alpha(t)
    assert term_to_text(back) == text


def test_ctl_terms_read_back_on_a_model_with_a_region_named_like_a_binder():
    model = parse_model("alphabet: a\nchannels: c\nlocations: p q\n"
                        "region X0 = (p; a*)\nregion GOAL = (q; ())\n"
                        "rule p -> q : c!a\nrule q -> p : c?a\nrule q -> q : nop\n")
    for formula in ("E(X0 U GOAL)", "E(X0 U E(!X0 U GOAL)) & !X0", "EX E(GOAL U X0)"):
        prop = compilers.compile_ctl(model, formula)
        text = term_to_text(prop.term)
        back = parse_term(text, prop.algebra)
        assert alpha(back) == alpha(prop.term), text
        value, _ = engine.evaluate(back, {}, prop.algebra)
        assert value == prop.run()[0], text


@pytest.mark.parametrize("t, text", [
    (Union(Mu("X", Up(Var("X"))), OpApp("V")), "((mu X. up(X)) | V)"),
    (Intersection(Not(Nu("X", Down(Var("X")))), OpApp("V")),
     "((!nu X. down(X)) & V)"),
    (Union(OpApp("V"), Not(Not(Mu("X", Up(Var("X")))))), "(V | (!!mu X. up(X)))"),
    (Mu("X", Union(OpApp("V"), Up(Var("X")))), "mu X. (V | up(X))"),
])
def test_binder_operands_keep_their_scope_in_text(t, text):
    assert term_to_text(t) == text
    assert roundtrip(t, ARITIES)


LOCATION_ARITIES = {name: 0 for name in ("R0", "R1", "confA", "confB", "empty", "all")}
LOCATION_ARITIES.update((name, 1) for name in (
    "pre", "prep", "wpre", "wprep", "post", "postp"))


def test_random_terms_roundtrip_through_text():
    rng = random.Random(1414)
    for _ in range(100):
        assert roundtrip(random_location_term(rng, 5, []), LOCATION_ARITIES)
        is_mu = rng.random() < 0.5
        t = (Mu if is_mu else Nu)("V0", random_guarded_term(rng, 5, [("V0", is_mu)]))
        assert roundtrip(t, LOCATION_ARITIES)
    for _ in range(30):
        model = random_model(rng, max_channels=0, game=True, with_guards=False)
        algebra = model.algebra()
        t = random_zero_channel_term(rng, algebra, model, 4, [])
        assert roundtrip(t, algebra)


def test_free_and_bound_vars():
    t = parse("mu X. V | pre(up(X))")
    assert free_vars(t) == set()
    assert free_vars(Up(Var("Z"))) == {"Z"}


def reference_free_vars(t):
    """t's free variables, by a walk over its subterms."""
    if t.kind == "var":
        return {t.name}
    out = set().union(*map(reference_free_vars, t.args))
    return out - {t.name} if t.kind in terms.BINDERS else out


def subterms(t):
    yield t
    for child in t.args:
        yield from subterms(child)


def test_every_node_carries_its_free_variables_and_its_hash():
    rng = random.Random(3030)
    for _ in range(60):
        seed = rng.random()
        t, twin = (random_guarded_term(random.Random(seed), 5, [("V0", True), ("V1", False)])
                   for _ in range(2))
        assert t is not twin and t == twin and hash(t) == hash(twin)
        for node in subterms(t):
            assert node.free == tuple(sorted(reference_free_vars(node)))
            assert node.nested == any(n.kind in terms.BINDERS for n in subterms(node))


def test_a_deep_term_hashes_and_names_its_free_variables_without_recursion():
    t = Var("X")
    for _ in range(3000):
        t = Up(t)
    assert hash(t) == hash(Up(t.args[0]))
    assert free_vars(t) == {"X"}


def test_rename_binders_freshens_clashes():
    t = Mu("X", Union(Var("X"), Mu("X", Up(Var("X")))))
    fresh = rename_binders(t, set())
    left, right = fresh.args[0].args
    assert right.kind == "mu"
    assert right.name != fresh.name
    # outer variable occurrence still refers to the outer binder
    assert left == Var(fresh.name)


def test_substitute_capture_avoiding():
    body = Mu("Y", Union(Var("X"), Up(Var("Y"))))
    replaced = substitute(body, "X", Var("Y"))
    # the free Y being substituted in must not be captured by mu Y
    assert replaced.kind == "mu"
    assert replaced.name != "Y" or replaced.args[0].args[0] != Var("Y")


def test_unfold():
    t = Mu("X", Union(OpApp("V"), OpApp("pre", (Up(Var("X")),))))
    u = unfold(t, "X")
    assert u.kind == "mu"
    # the body now contains a nested copy of itself
    inner = u.args[0].args[1].args[0].args[0]
    assert inner.kind == "union"
    assert term_to_text(inner.args[0]) == term_to_text(OpApp("V"))
    with pytest.raises(TermError):
        unfold(t, "Z")


def test_parity_check():
    with pytest.raises(TermError):
        check_parity(Mu("X", Not(Var("X"))))
    check_parity(Mu("X", Not(Not(Var("X")))))
    check_parity(Mu("X", Not(OpApp("V"))))
    with pytest.raises(TermError):
        parse("mu X. !X")
    with pytest.raises(TermError, match="odd number of complements"):
        parse("mu X. V | !pre(up(X))")
    with pytest.raises(TermError, match="odd number of complements"):
        check_parity(Not(Mu("X", Not(Var("X")))))


@pytest.mark.parametrize("text", [
    "!mu X. V | pre(up(X))",
    "nu Y. !(mu X. !Y | pre(up(X)))",
])
def test_parity_counts_complements_from_the_binder(text):
    check_parity(parse(text))


def test_guardedness():
    assert check_guarded(parse("mu X. V | pre(up(X))")) == []
    assert check_guarded(parse("nu X. V & wpre(kdown(X))")) == []
    assert check_guarded(parse("mu X. kup(X)")) == []
    offenders = check_guarded(parse("mu X. V | pre(X)"))
    assert offenders and offenders[0][0].startswith("X")
    # mu needs the upward operators, not the downward ones
    assert check_guarded(parse("mu X. down(X)")) != []
    assert check_guarded(parse("nu X. up(X)")) != []
    # a guard anywhere on the path suffices
    assert check_guarded(parse("mu X. pre(pre(up(pre(X))))")) == []


@pytest.mark.parametrize("text, offenders", [
    ("mu X. V | pre(X)", [("X", "/union[1]/opapp[0]")]),
    ("nu Y. mu X. (V | pre(up(X) & Y))",
     [("Y", "/mu[0]/union[1]/opapp[0]/intersection[1]")]),
    ("mu X. !!X", [("X", "/not[0]/not[0]")]),
    ("nu X. V & (wpre(X) | up(X))",
     [("X", "/intersection[1]/union[0]/opapp[0]"),
      ("X", "/intersection[1]/union[1]/up[0]")]),
])
def test_offender_paths_name_the_node_kinds(text, offenders):
    assert check_guarded(parse(text)) == offenders


def test_guardedness_of_nested_binders():
    t = parse("nu Y. mu X. (V | pre(up(X) & kdown(Y)))")
    assert check_guarded(t) == []
    t = parse("nu Y. mu X. (V | pre(up(X) & Y))")
    assert [name for name, _ in check_guarded(t)] == ["Y"]


@pytest.mark.parametrize("text", ["", "   ", "\n\t"])
def test_empty_formula_is_named(text):
    with pytest.raises(terms.TermError) as info:
        terms.parse_term(text, {})
    assert str(info.value) == "empty formula at position %d" % len(text)


@pytest.mark.parametrize("text, message", [
    ("GOAL(", "expected a formula, found end of formula at position 5"),
    ("up", "expected '(', found end of formula at position 2"),
    ("mu X", "expected '.', found end of formula at position 4"),
    ("(GOAL", "expected ')', found end of formula at position 5"),
    ("GOAL | ", "expected a formula, found end of formula at position 7"),
    ("GOAL )", "unexpected ')' at position 5"),
    ("pre(,)", "expected a formula, found ',' at position 4"),
    ("GOAL @", "unexpected character '@' at position 5"),
    ("mu (X", "expected a variable after 'mu', found '(' at position 3"),
    ("nu", "expected a variable after 'nu', found end of formula at position 2"),
    ("mu up. GOAL", "'up' cannot be a variable name at position 3"),
    ("GOAL | FOO", "unknown identifier 'FOO' at position 7"),
    ("pre.kup", "operator 'pre' expects 1 argument at position 0"),
    ("GOAL | pre(GOAL, GOAL)", "operator 'pre' expects 1 argument, got 2 at position 7"),
    ("GOAL(GOAL)", "operator 'GOAL' expects 0 arguments, got 1 at position 0"),
    ("GOAL & f(GOAL)", "unknown operator 'f' at position 7"),
])
def test_errors_name_the_end_of_the_formula(text, message):
    with pytest.raises(TermError) as info:
        parse_term(text, {"GOAL": 0, "pre": 1})
    assert str(info.value) == message


def test_constructors_compare_and_hash_structurally():
    a = Mu("X", Union(OpApp("V"), OpApp("pre", [Up(Var("X"))])))
    b = Mu("X", Union(OpApp("V"), OpApp("pre", (Up(Var("X")),))))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, parse("mu X. V | pre(up(X))")}) == 1
    assert Up(Var("X")) != Down(Var("X"))
    assert Kup(Var("X")) != Up(Var("X")) and Kdown(Var("X")) != Down(Var("X"))
    assert Mu("X", Up(Var("X"))) != Nu("X", Up(Var("X")))
    assert Var("V") != OpApp("V")
    assert Union(OpApp("V"), OpApp("W")) != Intersection(OpApp("V"), OpApp("W"))


@pytest.mark.parametrize("kind, name, args, message", [
    ("lambda", None, (), "unknown term kind 'lambda'"),
    ("Union", None, (Var("X"), Var("Y")), "unknown term kind 'Union'"),
    ("union", None, (Var("X"),), "a union node takes 2 children, got 1"),
    ("not", None, (), "a not node takes 1 child, got 0"),
    ("var", "X", (Var("X"),), "a var node takes 0 children, got 1"),
    ("mu", "X", (Var("X"), Var("X")), "a mu node takes 1 child, got 2"),
])
def test_term_rejects_unknown_kinds_and_child_counts(kind, name, args, message):
    with pytest.raises(TermError, match="^%s$" % message):
        Term(kind, name, args)
    # any number of operator arguments
    assert len(Term("opapp", "f", (Var("X"),) * 3).args) == 3
