import itertools
import random

import pytest

from wsmc import automata, oracle
from wsmc.automata import Alphabet, AutomatonError, Nfa
from wsmc.regexes import compile_regex

from conftest import CLOSURE_ORACLES, closure_by_moves, random_nfa


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
        assert lang(automata.complement(a)) == set(oracle.enum_words(ab, 4)) - sa
        for x, y in itertools.product(operands(a, b), repeat=2):
            sx, sy = lang(x), lang(y)
            assert lang(automata.intersection(x, y)) == sx & sy
            assert lang(automata.difference(x, y)) == sx - sy


def test_product_walk_of_any_number_of_operands_matches_oracle(ab, rng):
    # the walk over k canonical DFAs accepts a word iff keep accepts the
    # tuple of the word's memberships in the k operands
    def odd(flags):
        return sum(flags) % 2 == 1
    for _ in range(60):
        langs = [random_nfa(rng, ab) for _ in range(rng.randint(1, 5))]
        langs += rng.sample(langs, rng.randint(0, len(langs)))  # duplicates
        rng.shuffle(langs)
        slices = [lang(a) for a in langs]
        union = automata.union_all(langs)
        assert union is automata.canonicalize(union)
        assert lang(union) == set().union(*slices)
        assert all(automata.subset(a, union) for a in langs)
        for keep in (all, odd):
            assert lang(automata._product(langs, keep)) == {
                u for u in oracle.enum_words(ab, 4)
                if keep([u in s for s in slices])}
    a = random_nfa(rng, ab)
    assert automata.union_all([a]) is automata.canonicalize(a)


def test_rational_operations_match_oracle(ab, rng):
    for _ in range(30):
        a, b = random_nfa(rng, ab), random_nfa(rng, ab)
        assert lang(automata.concat(a, b)) == oracle.concat(lang(a), lang(b), 4)
        assert lang(automata.star(a)) == oracle.star(lang(a), 4)
        assert lang(automata.reverse(a)) == {u[::-1] for u in lang(a)}
        assert lang(automata.shuffle(a, b)) == oracle.shuffle(lang(a), lang(b), 4)


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
            want_l = {v for v in oracle.left_residual(sx, sy) if len(v) <= 3}
            assert oracle.language_slice(automata.left_residual(x, y), 3) == want_l
            want_r = {u for u in oracle.right_residual(sx, sy) if len(u) <= 3}
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


def test_closures_insert_or_delete_only_the_given_symbols():
    abc, rng = Alphabet(("a", "b", "c")), random.Random(3100)
    choices = [(), ("a",), ("c",), ("a", "c"), ("b", "c"), None]
    changed = 0
    for _ in range(60):
        a = random_nfa(rng, abc)
        for symbols in choices:
            every = abc.symbols if symbols is None else symbols
            for up, closure in ((True, automata.up_closure),
                                (False, automata.down_closure)):
                closed = closure(a, symbols)
                assert closed is closure_by_moves(a, every, up)
                assert closed is automata.canonicalize(closed)
                changed += closed is not automata.canonicalize(a)
        # no symbols: the language as it is
        assert automata.up_closure(a, ()) is automata.down_closure(a, ()) \
            is automata.canonicalize(a)
    assert changed >= 200
    word = Nfa.word(abc, w("ab"))
    assert automata.up_closure(word, ()) is automata.canonicalize(word)
    assert automata.equal(automata.up_closure(word, ("c",)),
                          compile_regex("c* a c* b c*", abc))
    assert automata.equal(automata.down_closure(word, ("a",)),
                          compile_regex("a? b", abc))
    for closure in (automata.up_closure, automata.down_closure):
        with pytest.raises(AutomatonError, match="not in alphabet"):
            closure(word, ("a", "d"))


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
        for fn, member in CLOSURE_ORACLES:
            assert oracle.language_slice(fn(a), 5) == \
                {u for u in oracle.enum_words(ab, 5) if member(a, u)}


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


# -- minimization ----------------------------------------------------------------

def reverse_determinize(table, accepting):
    """The subset construction of the reverse of the complete DFA with
    initial state 0 and table[state][symbol index] -> state: the table
    and the accepting states of a complete DFA with initial state 0."""
    back = [[set() for _ in row] for row in table]
    for p, row in enumerate(table):
        for x, q in enumerate(row):
            back[q][x].add(p)
    start = frozenset(accepting)
    ids, order, out = {start: 0}, [start], []
    for states in order:
        row = []
        for x in range(len(table[0])):
            succ = frozenset(p for q in states for p in back[q][x])
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            row.append(ids[succ])
        out.append(row)
    return out, {i for i, states in enumerate(order) if 0 in states}


def brzozowski(table, accepting):
    """Reverse and determinize twice: the complete minimal DFA."""
    return reverse_determinize(*reverse_determinize(table, accepting))


def same_language(t1, acc1, t2, acc2):
    pairs, seen = [(0, 0)], {(0, 0)}
    for p, q in pairs:
        if (p in acc1) != (q in acc2):
            return False
        for pair in zip(t1[p], t2[q]):
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    return True


def random_dfa(rng, k, shape):
    """A random complete DFA over k symbols whose last states are
    unreachable; shape "all" accepts every state, "none" none."""
    reachable = rng.randint(1, 9)
    n = reachable + rng.randint(0, 3)
    table = [[rng.randrange(reachable if q < reachable else n) for _ in range(k)]
             for q in range(n)]
    accepting = {"all": set(range(n)), "none": set()}.get(
        shape, {q for q in range(n) if rng.random() < 0.4})
    return table, accepting


@pytest.mark.parametrize("shape", ["random", "all", "none"])
def test_minimal_dfa_matches_brzozowski(rng, shape):
    nontrivial = 0
    for k in (1, 2, 3):
        alphabet = Alphabet(tuple("abc"[:k]))
        for _ in range(150):
            table, accepting = random_dfa(rng, k, shape)
            dfa = automata.minimal_dfa(alphabet, table, accepting)
            want_table, want_accepting = brzozowski(table, accepting)
            assert dfa.n_states == len(want_table)
            assert same_language(dfa.table, dfa.accepting, want_table, want_accepting)
            assert same_language(dfa.table, dfa.accepting, table, accepting)
            nontrivial += dfa.n_states > 2
    assert shape != "random" or nontrivial >= 100


# -- interning: the one intern table against a test-local construction -------

def same_language_rewrites(a, ab):
    """Structurally different NFAs with the language of a."""
    return [automata.union(a, a),
            automata.reverse(automata.reverse(a)),
            automata.concat(a, Nfa.epsilon(ab)),
            automata.intersection(a, Nfa.universal(ab))]


def subset_dfa(nfa):
    """The subset construction of nfa, independent of automata: the table
    and the accepting states of a complete DFA with initial state 0."""
    def close(states):
        out, stack = set(states), list(states)
        while stack:
            p = stack.pop()
            for (q, x, r) in nfa.transitions:
                if q == p and x is None and r not in out:
                    out.add(r)
                    stack.append(r)
        return frozenset(out)

    start = close(nfa.initial)
    ids, order, table = {start: 0}, [start], []
    for states in order:
        row = []
        for sym in nfa.alphabet.symbols:
            succ = close({r for (q, x, r) in nfa.transitions if q in states and x == sym})
            if succ not in ids:
                ids[succ] = len(order)
                order.append(succ)
            row.append(ids[succ])
        table.append(row)
    return table, {i for i, states in enumerate(order) if states & nfa.accepting}


def count_determinize(monkeypatch):
    """The list of the NFAs that automata's subset construction runs on
    from now on."""
    runs = []
    real = automata._determinize
    monkeypatch.setattr(automata, "_determinize", lambda a: runs.append(a) or real(a))
    return runs


def test_canonicalize_is_the_minimal_dfa_of_the_subset_construction(ab, rng,
                                                                    monkeypatch):
    runs = count_determinize(monkeypatch)
    for _ in range(60):
        a = random_nfa(rng, ab)
        del runs[:]
        dfa = automata.canonicalize(a)
        assert dfa is automata.minimal_dfa(ab, *subset_dfa(a))
        assert dfa.n_states == len(brzozowski(*subset_dfa(a))[0])
        # no table is keyed on a raw NFA: each call determinizes it again,
        # and interning returns the same object
        assert automata.canonicalize(a) is dfa
        assert runs == [a, a]
        assert automata.minimal_dfa(ab, dfa.table, dfa.accepting) is dfa
        assert automata.complement(automata.complement(a)) is dfa
        # a complete DFA from state 0 whose transitions are its table
        assert dfa.initial == {0} and len(dfa.table) == dfa.n_states
        assert dfa.transitions == tuple(
            (p, ab.symbols[i], q) for p, row in enumerate(dfa.table)
            for i, q in enumerate(row))


def test_canonical_nfa_is_identical_iff_languages_equal(ab, rng):
    # "Same language" is decided without canonicalize: by a walk over the
    # product of the test-local subset DFAs.  A shortest word in the
    # symmetric difference visits each pair of that product at most once,
    # so where it has at most 9 pairs the slices up to length 8 decide
    # it too, and must agree.
    equal_pairs = sliced = 0
    for _ in range(60):
        a = random_nfa(rng, ab)
        others = same_language_rewrites(a, ab) + [random_nfa(rng, ab)]
        (ta, fa), slice_a = subset_dfa(a), lang(a, 8)
        for b in others:
            tb, fb = subset_dfa(b)
            same = same_language(ta, fa, tb, fb)
            if len(ta) * len(tb) <= 9:
                sliced += 1
                assert (slice_a == lang(b, 8)) == same
            assert (automata.canonical_nfa(a) is automata.canonical_nfa(b)) == same
            assert (automata.canonicalize(a) is automata.canonicalize(b)) == same
            if same:
                equal_pairs += 1
                assert lang(a, 5) == lang(b, 5)
    assert equal_pairs >= 4 * 60
    assert sliced >= 150
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


def test_canonicalize_of_an_interned_form_runs_no_subset_construction(ab, rng,
                                                                      monkeypatch):
    forms = [automata.canonicalize(random_nfa(rng, ab)) for _ in range(30)]
    forms += [automata.complement(a) for a in forms]
    runs = count_determinize(monkeypatch)
    for dfa in forms:
        assert automata.canonicalize(dfa) is automata.canonical_nfa(dfa) is dfa
        assert automata.union_all([dfa]) is dfa and automata.equal(dfa, dfa)
        assert automata.complement(automata.complement(dfa)) is dfa
    assert runs == []


class CountingTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountingTuple.hashes += 1
        return tuple.__hash__(self)


def test_nfa_equals_and_hashes_only_as_itself(ab, rng):
    for _ in range(30):
        a = random_nfa(rng, ab)
        copy = Nfa(a.alphabet, a.n_states, frozenset(a.initial), frozenset(a.accepting),
                   tuple(list(a.transitions)))
        assert copy != a and a == a
        assert hash(a) == object.__hash__(a) and len({a, copy}) == 2
        # yet one canonical object per language, whichever way it is reached
        canon = automata.canonicalize(a)
        assert canon is automata.canonicalize(copy) is automata.canonical_nfa(a)

    # no table keyed on a raw NFA: canonicalizing it hashes none of its fields
    nfa = Nfa(ab, 2, frozenset([0]), frozenset([1]), CountingTuple(((0, "a", 1),)))
    CountingTuple.hashes = 0
    for _ in range(5):
        hash(nfa)
        automata.canonicalize(nfa)
    assert CountingTuple.hashes == 0


@pytest.mark.parametrize("transitions", [((0, "c", 0),), ((0, "a", 1),),
                                         ((-1, None, 0),)])
def test_caller_built_nfa_is_checked(ab, transitions):
    with pytest.raises(AutomatonError):
        Nfa(ab, 1, frozenset([0]), frozenset([0]), transitions)


@pytest.mark.parametrize("initial, accepting, message", [
    ({3}, {0}, "initial state out of range"),
    ({0}, {7}, "accepting state out of range"),
    ({-1}, {0}, "initial state out of range")])
def test_caller_built_nfa_states_are_range_checked(ab, initial, accepting, message):
    with pytest.raises(AutomatonError, match=message):
        Nfa(ab, 2, frozenset(initial), frozenset(accepting), ())


def test_derived_automata_are_not_checked_again(ab, rng, monkeypatch):
    checked = []
    real = Nfa._validate
    monkeypatch.setattr(Nfa, "_validate", lambda a: checked.append(a) or real(a))
    x, y = random_nfa(rng, ab), random_nfa(rng, ab)
    del checked[:]
    for a in (automata.union(x, y), automata.intersection(x, y),
              automata.concat(x, y), automata.star(x), automata.up_closure(x),
              automata.complement(x), automata.left_residual(x, y)):
        assert a.alphabet == ab
    assert checked == []
