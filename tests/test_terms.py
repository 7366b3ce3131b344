import pytest

from wsmc import terms
from wsmc.terms import (
    Down, Intersection, Kdown, Kup, Mu, Not, Nu, OpApp, TermError, Union, Up,
    Var, check_guarded, check_parity, free_vars, is_guarded, parse_term,
    rename_binders, substitute, term_to_text, unfold)

ARITIES = {"empty": 0, "all": 0, "pre": 1, "wpre": 1, "V": 0, "concat": 2}


def parse(text, free_ok=False):
    return parse_term(text, ARITIES, free_ok=free_ok)


def test_parse_precedence():
    t = parse("V | V & !V")
    assert isinstance(t, Union)
    assert isinstance(t.right, Intersection)
    assert isinstance(t.right.right, Not)


def test_parse_fixpoint_bodies_extend_maximally():
    t = parse("mu X. V | pre(up(X))")
    assert isinstance(t, Mu)
    assert isinstance(t.body, Union)
    t = parse("nu Y. V & wpre(kdown(Y))")
    assert isinstance(t, Nu)
    assert isinstance(t.body, Intersection)


def test_parse_operator_arity_checks():
    with pytest.raises(TermError):
        parse("pre(V, V)")
    with pytest.raises(TermError):
        parse("concat(V)")
    with pytest.raises(TermError):
        parse("unknown_op(V)")
    with pytest.raises(TermError):
        parse("X")  # free variable, free_ok off
    assert parse("X", free_ok=True) == Var("X")


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


def test_free_and_bound_vars():
    t = parse("mu X. V | pre(up(X))")
    assert free_vars(t) == set()
    t = parse("up(Z)", free_ok=True)
    assert free_vars(t) == {"Z"}


def test_rename_binders_freshens_clashes():
    t = Mu("X", Union(Var("X"), Mu("X", Up(Var("X")))))
    fresh = rename_binders(t, set())
    assert isinstance(fresh.body.right, Mu)
    assert fresh.body.right.var != fresh.var
    # outer variable occurrence still refers to the outer binder
    assert fresh.body.left == Var(fresh.var)


def test_substitute_capture_avoiding():
    body = Mu("Y", Union(Var("X"), Up(Var("Y"))))
    replaced = substitute(body, "X", Var("Y"))
    # the free Y being substituted in must not be captured by mu Y
    assert isinstance(replaced, Mu)
    assert replaced.var != "Y" or replaced.body.left != Var("Y")


def test_unfold():
    t = Mu("X", Union(OpApp("V"), OpApp("pre", (Up(Var("X")),))))
    u = unfold(t, "X")
    assert isinstance(u, Mu)
    # the body now contains a nested copy of itself
    inner = u.body.right.args[0].child
    assert isinstance(inner, Union)
    assert term_to_text(inner.left) == term_to_text(OpApp("V"))
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
    assert is_guarded(parse("mu X. V | pre(up(X))"))
    assert is_guarded(parse("nu X. V & wpre(kdown(X))"))
    assert is_guarded(parse("mu X. kup(X)"))
    offenders = check_guarded(parse("mu X. V | pre(X)"))
    assert offenders and offenders[0][0].startswith("X")
    # mu needs the upward operators, not the downward ones
    assert not is_guarded(parse("mu X. down(X)"))
    assert not is_guarded(parse("nu X. up(X)"))
    # a guard anywhere on the path suffices
    assert is_guarded(parse("mu X. pre(pre(up(pre(X))))"))


def test_guardedness_of_nested_binders():
    t = parse("nu Y. mu X. (V | pre(up(X) & kdown(Y)))")
    assert is_guarded(t)
    t = parse("nu Y. mu X. (V | pre(up(X) & Y))")
    assert [name for name, _ in check_guarded(t)] == ["Y"]


@pytest.mark.parametrize("text", ["", "   ", "\n\t"])
def test_empty_formula_is_named(text):
    with pytest.raises(terms.TermError, match="^empty formula$"):
        terms.parse_term(text, {})
