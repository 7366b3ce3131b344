import pytest

from wsmc import automata, terms
from wsmc.automata import Alphabet, Nfa
from wsmc.engine import (
    EvaluationError, IterationCapError, Limits, UnguardedTermError,
    WordAlgebra, evaluate)
from wsmc.regexes import compile_regex
from wsmc.terms import (
    Down, Intersection, Kup, Mu, Nu, OpApp, Union, Up, Var, is_guarded,
    parse_term, unfold)

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
        evaluate(t, {}, alg, Limits(max_iter=4, require_guarded=False))
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
    assert alg.member(("b", "a"), value)
    assert not alg.is_empty(value)
    assert not alg.is_universal(value)
    with pytest.raises(EvaluationError):
        evaluate(parse_term("up(Z)", alg, free_ok=True), {}, alg)
