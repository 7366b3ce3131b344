import itertools
import random

import pytest

from wsmc import automata, oracle
from wsmc.automata import Alphabet, AutomatonError, Nfa
from wsmc.regexes import compile_regex

from conftest import random_nfa


def lang(nfa, max_len=4):
    return oracle.language_slice(nfa, max_len)


def w(text):
    return tuple(text)


def test_constructors(ab):
    assert automata.is_empty(Nfa.empty(ab))
    assert automata.is_universal(Nfa.universal(ab))
    eps = Nfa.epsilon(ab)
    assert eps.accepts(()) and not eps.accepts(w("a"))
    word = Nfa.word(ab, w("ab"))
    assert word.accepts(w("ab")) and not word.accepts(w("ba"))
    fin = Nfa.finite(ab, [w("a"), w("bb")])
    assert lang(fin) == {w("a"), w("bb")}


def operands(a, b):
    """a and b, an NFA with two initial states (their union) and one with
    none."""
    no_initial = Nfa(b.alphabet, b.n_states, frozenset(), b.accepting, b.transitions)
    return a, b, automata.union(a, b), no_initial


def test_boolean_operations_match_oracle(ab, rng):
    for _ in range(40):
        a, b = random_nfa(rng, ab), random_nfa(rng, ab)
        sa, sb = lang(a), lang(b)
        assert lang(automata.union(a, b)) == sa | sb
        assert lang(automata.complement(a)) == oracle.brute_words(
            "complement", [sa], 4, ab)
        for x, y in itertools.product(operands(a, b), repeat=2):
            sx, sy = lang(x), lang(y)
            assert lang(automata.intersection(x, y)) == sx & sy
            assert lang(automata.difference(x, y)) == sx - sy


def test_rational_operations_match_oracle(ab, rng):
    for _ in range(30):
        a, b = random_nfa(rng, ab), random_nfa(rng, ab)
        assert lang(automata.concat(a, b)) == oracle.brute_words(
            "concat", [lang(a), lang(b)], 4, ab)
        assert lang(automata.star(a)) == oracle.brute_words(
            "star", [lang(a)], 4, ab)
        assert lang(automata.reverse(a)) == oracle.brute_words(
            "reverse", [lang(a)], 4, ab)
        assert lang(automata.shuffle(a, b)) == oracle.brute_words(
            "shuffle", [lang(a), lang(b)], 4, ab)


def test_shuffle_examples():
    abc = Alphabet(("a", "b", "c"))
    left = Nfa.word(abc, w("ab"))
    right = Nfa.word(abc, w("c"))
    assert lang(automata.shuffle(left, right)) == {w("cab"), w("acb"), w("abc")}
    two = Alphabet(("a", "b"))
    assert lang(automata.shuffle(Nfa.word(two, w("a")), Nfa.word(two, w("b")))) \
        == {w("ab"), w("ba")}


def test_residuals_match_oracle(ab, rng):
    # witnesses for short residual words stay short for small automata
    for _ in range(25):
        a, b = random_nfa(rng, ab, max_states=4), random_nfa(rng, ab, max_states=4)
        _, _, two, none = operands(a, b)
        for x, y in ((a, b), (two, a), (b, two), (none, b), (a, none)):
            sx, sy = oracle.language_slice(x, 8), oracle.language_slice(y, 8)
            want_l = {v for v in oracle.brute_words("left_residual", [sx, sy], 8, ab)
                      if len(v) <= 3}
            assert oracle.language_slice(automata.left_residual(x, y), 3) == want_l
            want_r = {u for u in oracle.brute_words("right_residual", [sx, sy], 8, ab)
                      if len(u) <= 3}
            assert oracle.language_slice(automata.right_residual(x, y), 3) == want_r


def test_right_residual_by_any_symbol(ab):
    # u.a always contains an a, so the residual of "contains a" by {a}
    # is every word
    contains_a = compile_regex(".* a .*", ab)
    just_a = Nfa.word(ab, w("a"))
    assert automata.is_universal(automata.right_residual(contains_a, just_a))


def test_up_closure_of_word(ab):
    up = automata.up_closure(Nfa.word(ab, w("ab")))
    assert automata.equal(up, compile_regex(".* a .* b .*", ab))


def test_up_kernel_examples(ab):
    ends_a = compile_regex(".* a", ab)
    assert automata.is_empty(automata.up_kernel(ends_a))
    closed = automata.up_closure(compile_regex("a b | b", ab))
    assert automata.equal(automata.up_kernel(closed), closed)


def test_kernel_duality(ab, rng):
    # complements exchange kernels and closures
    for _ in range(50):
        a = random_nfa(rng, ab)
        assert automata.equal(
            automata.complement(automata.up_kernel(a)),
            automata.down_closure(automata.complement(a)))
        assert automata.equal(
            automata.complement(automata.down_kernel(a)),
            automata.up_closure(automata.complement(a)))


def test_closure_characterization(ab, rng):
    for _ in range(40):
        a = random_nfa(rng, ab)
        closed = automata.equal(automata.up_closure(a), a)
        assert closed == automata.equal(automata.up_kernel(a), a)
        slice_closed = all(
            v in oracle.language_slice(a, 5)
            for u in oracle.language_slice(a, 3)
            for v in oracle.language_slice(automata.up_closure(a), 5)
            if oracle.is_subword(u, v)) if closed else True
        assert slice_closed


def test_subword_membership(ab, rng):
    words = [tuple(rng.choice("ab") for _ in range(n))
             for n in range(6) for _ in range(3)]
    for v in words:
        single = Nfa.word(ab, v)
        down = automata.down_closure(single)
        for u in oracle.subwords(v):
            assert down.accepts(u)
            assert automata.up_closure(Nfa.word(ab, u)).accepts(v)


def test_closures_match_search_oracle(ab, rng):
    for _ in range(40):
        a = random_nfa(rng, ab)
        for op, fn in (("up_closure", automata.up_closure),
                       ("down_closure", automata.down_closure),
                       ("up_kernel", automata.up_kernel),
                       ("down_kernel", automata.down_kernel)):
            assert oracle.language_slice(fn(a), 5) == \
                oracle.closure_slice(op, a, 5)


def test_canonicalization_identifies_languages(ab, rng):
    for _ in range(30):
        a = random_nfa(rng, ab)
        b = automata.union(a, a)  # same language, different shape
        assert automata.canonicalize(a) == automata.canonicalize(b)
        c = automata.canonical_nfa(a)
        assert automata.equal(a, c)
    da = automata.canonicalize(Nfa.word(ab, w("a")))
    db = automata.canonicalize(Nfa.word(ab, w("b")))
    assert da != db


def test_decision_dispatchers(ab):
    a = compile_regex("a*", ab)
    assert automata.is_empty(automata.difference(a, a))
    assert automata.subset(a, compile_regex(". | ()", ab)) is False
    assert automata.equal(a, compile_regex("() | a a*", ab))
    assert a.accepts(w("aa"))
    assert lang(automata.union(a, Nfa.empty(ab))) == lang(a)
    assert automata.equal(automata.reverse(a), a)
    assert automata.equal(automata.left_residual(Nfa.word(ab, w("a")),
                                                 compile_regex("a b*", ab)),
                          compile_regex("b*", ab))


# -- interning: the memo tables against the uncached construction ------------

def same_language_rewrites(a, ab):
    """Structurally different NFAs with the language of a."""
    return [automata.union(a, a),
            automata.reverse(automata.reverse(a)),
            automata.concat(a, Nfa.epsilon(ab)),
            automata.intersection(a, Nfa.universal(ab))]


def test_memoized_canonicalize_equals_uncached(ab, rng):
    for _ in range(60):
        a = random_nfa(rng, ab)
        dfa = automata.canonicalize(a)
        assert dfa is automata.minimize(a)
        assert automata.canonicalize(a) is dfa
        assert automata.canonicalize(dfa) is automata.minimize(dfa) is dfa
        assert automata.complement(automata.complement(a)) is dfa
        # a complete DFA from state 0 whose transitions are its table
        assert dfa.initial == {0} and len(dfa.table) == dfa.n_states
        assert dfa.transitions == tuple(
            (p, ab.symbols[i], q) for p, row in enumerate(dfa.table)
            for i, q in enumerate(row))


def test_canonical_nfa_is_identical_iff_languages_equal(ab, rng):
    equal_pairs = 0
    for _ in range(60):
        a = random_nfa(rng, ab)
        others = same_language_rewrites(a, ab) + [random_nfa(rng, ab)]
        for b in others:
            same = automata.minimize(a) == automata.minimize(b)
            assert (automata.canonical_nfa(a) is automata.canonical_nfa(b)) == same
            assert (automata.canonicalize(a) is automata.canonicalize(b)) == same
            if same:
                equal_pairs += 1
                assert lang(a, 5) == lang(b, 5)
    assert equal_pairs >= 4 * 60
    one = Alphabet(("a",))
    assert automata.canonical_nfa(Nfa.universal(one)).alphabet == one
    assert automata.canonical_nfa(Nfa.universal(ab)).alphabet == ab


def test_memoized_subset_matches_oracle_inclusion(ab, rng):
    # A shortest word of L(x) - L(y) visits each state pair of the product
    # of the canonical DFAs at most once, so with at most 9 pairs it has at
    # most 8 symbols and the slices of length 8 decide inclusion.
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        a, b = random_nfa(rng, ab, max_states=4), random_nfa(rng, ab, max_states=4)
        shapes = operands(a, b)
        for (x, sx), (y, sy) in itertools.permutations(
                zip(shapes, [lang(z, 8) for z in shapes]), 2):
            if automata.canonicalize(x).n_states * automata.canonicalize(y).n_states > 9:
                continue
            want = sx <= sy
            assert automata.subset(x, y) == want
            assert automata.subset(x, y) == want  # a second call agrees
            assert automata.subset(automata.canonical_nfa(x),
                                   automata.canonical_nfa(y)) == want
            outcomes[want] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 150


class CountingTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountingTuple.hashes += 1
        return tuple.__hash__(self)


def test_hash_is_structural_and_computed_once(ab, rng):
    for _ in range(30):
        a = random_nfa(rng, ab)
        copy = Nfa(a.alphabet, a.n_states, frozenset(a.initial), frozenset(a.accepting),
                   tuple(list(a.transitions)))
        assert copy == a and copy is not a
        assert hash(copy) == hash(a) == hash(
            (a.alphabet, a.n_states, a.initial, a.accepting, a.transitions))
        # one canonical object per language, whichever way it is reached
        canon = automata.minimize(a)
        assert canon is automata.minimize(copy) is automata.canonicalize(a) \
            is automata.canonical_nfa(a)

    nfa = Nfa(ab, 2, frozenset([0]), frozenset([1]), CountingTuple(((0, "a", 1),)))
    CountingTuple.hashes = 0
    for _ in range(5):
        hash(nfa)
        automata.canonicalize(nfa)
    assert CountingTuple.hashes == 1


@pytest.mark.parametrize("transitions", [((0, "c", 0),), ((0, "a", 1),),
                                         ((-1, None, 0),)])
def test_caller_built_nfa_is_checked(ab, transitions):
    with pytest.raises(AutomatonError):
        Nfa(ab, 1, frozenset([0]), frozenset([0]), transitions)


def test_derived_automata_are_not_checked_again(ab, rng, monkeypatch):
    checked = []
    real = Nfa.__post_init__
    monkeypatch.setattr(Nfa, "__post_init__", lambda a: checked.append(a) or real(a))
    x, y = random_nfa(rng, ab), random_nfa(rng, ab)
    del checked[:]
    for a in (automata.union(x, y), automata.intersection(x, y),
              automata.concat(x, y), automata.star(x), automata.up_closure(x),
              automata.complement(x), automata.left_residual(x, y)):
        assert a.alphabet == ab
    assert checked == []
