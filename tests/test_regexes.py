import random

import pytest

from wsmc import automata, oracle, regexes
from wsmc.automata import Alphabet
from wsmc.regexes import RegexError, compile_regex, nfa_to_regex

from conftest import random_nfa


def w(text):
    return tuple(text)


def test_basic_patterns(ab):
    assert compile_regex("a b", ab).accepts(w("ab"))
    assert compile_regex("ab", ab).accepts(w("ab"))  # juxtaposed idents split
    assert not compile_regex("a|b", ab).accepts(w("ab"))
    assert compile_regex("()", ab).accepts(())
    assert automata.is_empty(compile_regex("{}", ab))
    assert compile_regex(".", ab).accepts(w("b"))
    assert compile_regex("a?b", ab).accepts(w("b"))
    assert compile_regex("a+", ab).accepts(w("aa"))
    assert not compile_regex("a+", ab).accepts(())


def test_postfix_binds_to_last_symbol(ab):
    # "ab*" reads as a(b*), not (ab)*
    r = compile_regex("ab*", ab)
    assert r.accepts(w("a")) and r.accepts(w("abb"))
    assert not r.accepts(()) and not r.accepts(w("abab"))


def test_complement_operator(ab):
    r = compile_regex("~(a*)", ab)
    assert not r.accepts(w("aa"))
    assert r.accepts(w("ab"))


def test_multicharacter_symbols():
    al = Alphabet(("m0", "m1"))
    r = compile_regex("m0 m1*", al)
    assert r.accepts(("m0",)) and r.accepts(("m0", "m1", "m1"))
    assert not r.accepts(("m1",))
    # greedy splitting of a juxtaposed token
    assert compile_regex("m0m1", al).accepts(("m0", "m1"))


def test_errors(ab):
    for bad in ("a |", "(a", "c", "*", "~", "a)"):
        with pytest.raises(RegexError):
            compile_regex(bad, ab)


@pytest.mark.parametrize("pattern, expected", [
    ("a|", "an expression"), ("", "an expression"), ("  ", "an expression"),
    ("a (b|", "an expression"), ("~", "an expression"), ("(a", "')'"),
])
def test_errors_at_end_of_pattern_give_its_length(ab, pattern, expected):
    with pytest.raises(RegexError) as info:
        compile_regex(pattern, ab)
    assert str(info.value) == "expected %s, found end of input at position %d" % (
        expected, len(pattern))


@pytest.mark.parametrize("pattern, message, position", [
    ("a@", "unexpected character '@'", 1),
    ("a }", "unexpected character '}'", 2),
    ("a {", "expected '{}'", 2),
    ("a b)", "unexpected ')'", 3),
])
def test_errors_name_their_position(ab, pattern, message, position):
    with pytest.raises(RegexError) as info:
        compile_regex(pattern, ab)
    assert str(info.value) == "%s at position %d" % (message, position)


def test_roundtrip_random(ab, rng):
    for _ in range(40):
        a = random_nfa(rng, ab)
        back = compile_regex(nfa_to_regex(a), ab)
        assert automata.equal(a, back)


def test_roundtrip_multichar():
    al = Alphabet(("m0", "m1", "a0", "a1"))
    for pat in ("m0* a1", "(m0|a0)* a1?", "~(m0 .*)", "()", "{}"):
        a = compile_regex(pat, al)
        assert automata.equal(a, compile_regex(nfa_to_regex(a), al))


def test_rendered_regex_is_deterministic(ab, rng):
    for _ in range(10):
        a = random_nfa(rng, ab)
        assert nfa_to_regex(a) == nfa_to_regex(automata.canonical_nfa(a))


@pytest.mark.parametrize("symbols", [("a",), ("a", "b"), ("m0", "m1", "m2")])
def test_any_symbol_is_the_alternation_of_all_symbols(symbols):
    al = Alphabet(symbols)
    alternation = "(%s)" % "|".join(symbols)
    for pattern, spelled in ((".", alternation), (". .*", "%s %s*" % (alternation, alternation)),
                             ("~.", "~" + alternation)):
        assert (automata.canonicalize(compile_regex(pattern, al))
                is automata.canonicalize(compile_regex(spelled, al)))


def test_region_text_is_computed_once_per_canonical_form(ab):
    rng = random.Random(2200)
    for _ in range(60):
        raw = random_nfa(rng, ab)
        dfa = automata.canonicalize(raw)
        text = nfa_to_regex(raw)
        assert nfa_to_regex(dfa) == text
        assert nfa_to_regex(raw) is text  # a second call reads the memo
        assert regexes._text.__wrapped__(dfa) == text  # the uncached elimination
