"""Finite-automaton engine over a fixed message alphabet.

This is the word-level region algebra: NFAs with epsilon transitions,
the usual boolean and rational operations, subword closures/kernels,
and a canonical form: one interned Nfa per language, its minimal DFA
with its table, held in one intern table; its transition triples are
built from the table on their first read.  canonicalize is the one
path to it from an NFA: the subset construction (subsets), then
minimal_dfa, the one minimizer.  The boolean operations, the residuals,
the closures and the decisions run on the operands' canonical forms:
one breadth-first walk over the state tuples of any number of them
(_tuples) serves union_all, intersection, difference and left_residual
(a product that is one of its operands returns it as it is), both
subword closures are one subset construction off the table (_closure),
and subset walks state pairs to the first witness.  Only the rational
constructions (union among them) build NFAs.  The region algebra
writes tables for minimal_dfa, or for renumbered where its table is
minimal already (see regions).

Both classes are plain classes with slots: an Alphabet is a value
(values.Value), an Nfa equals only itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import WsmcError
from .values import Value

Word = Tuple[str, ...]

EPSILON = None  # transition label for epsilon moves


class AutomatonError(WsmcError):
    pass


class Alphabet(Value):
    """Ordered finite set of message symbols; a value.

    The order is significant: canonical DFA state numbering follows it.
    """

    __slots__ = _fields = ("symbols",)

    def __init__(self, symbols: Tuple[str, ...]):
        if not symbols:
            raise AutomatonError("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise AutomatonError("alphabet symbols must be distinct")
        self.symbols = symbols

    def __contains__(self, sym: str) -> bool:
        return sym in self.symbols

    def index(self, sym: str) -> int:
        return self.symbols.index(sym)

    def extend(self, extra: str) -> "Alphabet":
        return Alphabet(self.symbols + (extra,))


class Nfa:
    """Nondeterministic finite automaton with epsilon transitions.

    States are dense indices 0..n_states-1.  Transitions are triples
    (src, symbol-or-None, dst); None is epsilon.  A canonical form (see
    canonicalize) also keeps its table[state][symbol index] -> state,
    and builds its triples from the table on their first read; other
    Nfas have table None.  An Nfa equals and hashes only as itself: the
    canonical form of a language is one object, so two automata have
    the same language iff their canonical forms are identical.  Nfa(...)
    checks its arguments (_validate); Nfa.derived does not.
    """

    __slots__ = ("alphabet", "n_states", "initial", "accepting", "transitions",
                 "table")

    def __init__(self, alphabet: Alphabet, n_states: int, initial: frozenset,
                 accepting: frozenset,
                 transitions: Tuple[Tuple[int, Optional[str], int], ...]):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.accepting = accepting
        self.transitions = transitions
        self.table: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._validate()

    def __getattr__(self, name):
        """Reached only for a slot never set: the transitions of a
        canonical form, read off its table once."""
        if name != "transitions" or self.table is None:
            raise AttributeError(name)
        symbols = self.alphabet.symbols
        self.transitions = tuple((p, symbols[i], q) for p, row in enumerate(self.table)
                                 for i, q in enumerate(row))
        return self.transitions

    def _validate(self):
        for (p, a, q) in self.transitions:
            if a is not EPSILON and a not in self.alphabet:
                raise AutomatonError("transition symbol %r not in alphabet" % (a,))
            if not (0 <= p < self.n_states and 0 <= q < self.n_states):
                raise AutomatonError("transition endpoint out of range")
        for kind, states in (("initial", self.initial), ("accepting", self.accepting)):
            if not all(0 <= q < self.n_states for q in states):
                raise AutomatonError("%s state out of range" % kind)

    @classmethod
    def derived(cls, alphabet: Alphabet, n_states: int, initial: frozenset,
                accepting: frozenset, transitions, table=None) -> "Nfa":
        """An Nfa built from automata that are already valid, so it is
        not checked again.  A canonical form passes its table and no
        transitions."""
        nfa = object.__new__(cls)
        nfa.alphabet = alphabet
        nfa.n_states = n_states
        nfa.initial = initial
        nfa.accepting = accepting
        if transitions is not None:
            nfa.transitions = transitions
        nfa.table = table
        return nfa

    # -- convenience constructors -------------------------------------

    @staticmethod
    def empty(alphabet: Alphabet) -> "Nfa":
        return Nfa(alphabet, 1, frozenset([0]), frozenset(), ())

    @staticmethod
    def epsilon(alphabet: Alphabet) -> "Nfa":
        return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), ())

    @staticmethod
    def universal(alphabet: Alphabet) -> "Nfa":
        trans = tuple((0, a, 0) for a in alphabet.symbols)
        return Nfa(alphabet, 1, frozenset([0]), frozenset([0]), trans)

    @staticmethod
    def symbol(alphabet: Alphabet, sym: str) -> "Nfa":
        if sym not in alphabet:
            raise AutomatonError("symbol %r not in alphabet" % (sym,))
        return Nfa(alphabet, 2, frozenset([0]), frozenset([1]), ((0, sym, 1),))

    @staticmethod
    def word(alphabet: Alphabet, w: Sequence[str]) -> "Nfa":
        trans = []
        for i, sym in enumerate(w):
            if sym not in alphabet:
                raise AutomatonError("symbol %r not in alphabet" % (sym,))
            trans.append((i, sym, i + 1))
        n = len(w) + 1
        return Nfa(alphabet, n, frozenset([0]), frozenset([n - 1]), tuple(trans))

    @staticmethod
    def finite(alphabet: Alphabet, words: Iterable[Sequence[str]]) -> "Nfa":
        result = Nfa.empty(alphabet)
        for w in words:
            result = union(result, Nfa.word(alphabet, w))
        return result

    # -- basic queries -------------------------------------------------

    def accepts(self, w: Sequence[str]) -> bool:
        """Run w on the canonical form, which a raw Nfa builds anew on
        each call; a symbol outside the alphabet rejects."""
        if not all(sym in self.alphabet for sym in w):
            return False
        dfa, state = canonicalize(self), 0
        for sym in w:
            state = dfa.table[state][self.alphabet.index(sym)]
        return state in dfa.accepting


def _check_same_alphabet(a: Nfa, b: Nfa):
    if a.alphabet != b.alphabet:
        raise AutomatonError("alphabet mismatch")


def _shift(nfa: Nfa, offset: int):
    return [(p + offset, a, q + offset) for (p, a, q) in nfa.transitions]


# -- boolean operations ------------------------------------------------

def union(a: Nfa, b: Nfa) -> Nfa:
    _check_same_alphabet(a, b)
    off = a.n_states
    trans = list(a.transitions) + _shift(b, off)
    return Nfa.derived(a.alphabet, a.n_states + b.n_states,
                       a.initial | frozenset(q + off for q in b.initial),
                       a.accepting | frozenset(q + off for q in b.accepting),
                       tuple(trans))


def intersection(a: Nfa, b: Nfa) -> Nfa:
    return _product((a, b), all)


def union_all(langs: Iterable[Nfa]) -> Nfa:
    """The canonical form of the union of any number of languages."""
    return _product(langs, any)


def complement(a: Nfa) -> Nfa:
    """Swapping the accepting states of a complete minimal DFA keeps it
    minimal and keeps its numbering: the result is canonical as it is."""
    dfa = canonicalize(a)
    rejecting = frozenset(range(dfa.n_states)) - dfa.accepting
    return _intern(dfa.alphabet, dfa.table, rejecting)


def difference(a: Nfa, b: Nfa) -> Nfa:
    return _product((a, b), lambda flags: flags[0] and not flags[1])


def _tuples(langs: Iterable[Nfa]):
    """The canonical forms of langs, the tuples of their states reachable
    from (0, ..., 0) in breadth-first order, and the transition table of
    their product over the indices of those tuples."""
    dfas = [canonicalize(a) for a in langs]
    for d in dfas[1:]:
        _check_same_alphabet(dfas[0], d)
    tables = [d.table for d in dfas]
    start = (0,) * len(dfas)
    ids = {start: 0}
    tuples, table = [start], []
    for states in tuples:
        row = []
        for succ in zip(*[t[q] for t, q in zip(tables, states)]):
            i = ids.get(succ)
            if i is None:
                i = ids[succ] = len(tuples)
                tuples.append(succ)
            row.append(i)
        table.append(row)
    return dfas, tuples, table


def _product(langs: Iterable[Nfa], keep) -> Nfa:
    """The canonical form of the product of langs accepting the state
    tuples for which keep(list of accept flags) holds: the product is
    complete and deterministic, so it needs no subset construction.  An
    operand whose flag is the kept one at every tuple is the answer."""
    dfas, tuples, table = _tuples(langs)
    accepting = [d.accepting for d in dfas]
    kept = [keep([q in acc for q, acc in zip(states, accepting)]) for states in tuples]
    for j, (dfa, acc) in enumerate(zip(dfas, accepting)):
        if all((states[j] in acc) == k for states, k in zip(tuples, kept)):
            return dfa
    return minimal_dfa(dfas[0].alphabet, table, [i for i, k in enumerate(kept) if k])


# -- rational operations -----------------------------------------------

def concat(a: Nfa, b: Nfa) -> Nfa:
    _check_same_alphabet(a, b)
    off = a.n_states
    trans = list(a.transitions) + _shift(b, off)
    for p in sorted(a.accepting):
        for q in sorted(b.initial):
            trans.append((p, EPSILON, q + off))
    return Nfa.derived(a.alphabet, a.n_states + b.n_states, a.initial,
                       frozenset(q + off for q in b.accepting), tuple(trans))


def star(a: Nfa) -> Nfa:
    hub = a.n_states
    trans = list(a.transitions)
    for q in sorted(a.initial):
        trans.append((hub, EPSILON, q))
    for q in sorted(a.accepting):
        trans.append((q, EPSILON, hub))
    return Nfa.derived(a.alphabet, a.n_states + 1, frozenset([hub]),
                       frozenset([hub]), tuple(trans))


def reverse(a: Nfa) -> Nfa:
    trans = tuple((q, x, p) for (p, x, q) in a.transitions)
    return Nfa.derived(a.alphabet, a.n_states, a.accepting, a.initial, trans)


def shuffle(a: Nfa, b: Nfa) -> Nfa:
    """All interleavings of one word of a with one word of b."""
    _check_same_alphabet(a, b)
    nb = b.n_states

    def pid(p, q):
        return p * nb + q

    trans = []
    for (p, x, p2) in a.transitions:
        for q in range(nb):
            trans.append((pid(p, q), x, pid(p2, q)))
    for (q, x, q2) in b.transitions:
        for p in range(a.n_states):
            trans.append((pid(p, q), x, pid(p, q2)))
    initial = frozenset(pid(p, q) for p in a.initial for q in b.initial)
    accepting = frozenset(pid(p, q) for p in a.accepting for q in b.accepting)
    return Nfa.derived(a.alphabet, a.n_states * nb, initial, accepting, tuple(trans))


def left_residual(a: Nfa, b: Nfa) -> Nfa:
    """{v | exists u in L(a), uv in L(b)}: b's canonical form started from
    the states it reaches on the words of a."""
    (da, db), pairs, _ = _tuples((a, b))
    return Nfa.derived(b.alphabet, db.n_states,
                       frozenset(q for p, q in pairs if p in da.accepting),
                       db.accepting, db.transitions)


def right_residual(a: Nfa, b: Nfa) -> Nfa:
    """{u | exists v in L(b), uv in L(a)}: the mirror of left_residual."""
    return reverse(left_residual(reverse(b), reverse(a)))


# -- subword closures and kernels --------------------------------------

def up_closure(a: Nfa, symbols: Optional[Sequence[str]] = None) -> Nfa:
    """Superwords, inserting only symbols (every symbol if None)."""
    return _closure(a, symbols, True)


def down_closure(a: Nfa, symbols: Optional[Sequence[str]] = None) -> Nfa:
    """Subwords, deleting only symbols (every symbol if None)."""
    return _closure(a, symbols, False)


def _closure(a: Nfa, symbols, up: bool) -> Nfa:
    """The canonical form of a subword closure of a: the subset
    construction straight off the table of a's canonical form, in which
    its dead state, whose language is empty, is in no subset."""
    dfa = canonicalize(a)
    table, dead = dfa.table, dead_state(dfa)
    if symbols is not None and not set(symbols) <= set(dfa.alphabet.symbols):
        raise AutomatonError("closure symbols %r not in alphabet" % (tuple(symbols),))
    closing = [symbols is None or x in symbols for x in dfa.alphabet.symbols]
    if up:  # a closing move also keeps its state
        moves = [[frozenset((t, p) if closing[x] else (t,)) - {dead}
                  for x, t in enumerate(row)] for p, row in enumerate(table)]
        start = frozenset([0]) - {dead}
    else:  # a state stands for every state its closing moves reach
        skips = [[t for x, t in enumerate(row) if closing[x]] for row in table]
        below = [frozenset(reachable([p], skips.__getitem__)) - {dead}
                 for p in range(dfa.n_states)]
        moves, start = [[below[t] for t in row] for row in table], below[0]
    return minimal_dfa(dfa.alphabet, *subsets(moves, start, dfa.accepting, len(closing)))


def up_kernel(a: Nfa) -> Nfa:
    """Largest upward-closed language inside L(a)."""
    return complement(down_closure(complement(a)))


def down_kernel(a: Nfa) -> Nfa:
    """Largest downward-closed language inside L(a)."""
    return complement(up_closure(complement(a)))


# -- decisions ---------------------------------------------------------

def is_empty(a: Nfa) -> bool:
    return not canonicalize(a).accepting


def is_universal(a: Nfa) -> bool:
    dfa = canonicalize(a)
    return len(dfa.accepting) == dfa.n_states


def equal(a: Nfa, b: Nfa) -> bool:
    """Identity of the canonical forms (a raw Nfa's is built per call)."""
    _check_same_alphabet(a, b)
    return canonicalize(a) is canonicalize(b)


def subset(a: Nfa, b: Nfa) -> bool:
    """No state pair of the canonical forms reachable from (0, 0) accepts
    in a and rejects in b: a walk that builds no product table, enters no
    pair at a's dead state and stops at the first such pair."""
    da, db = map(canonicalize, (a, b))
    _check_same_alphabet(da, db)
    dead, seen, stack = dead_state(da), {(0, 0)}, [(0, 0)]
    while stack:
        p, q = stack.pop()
        if p in da.accepting and q not in db.accepting:
            return False
        for pair in zip(da.table[p], db.table[q]):
            if pair[0] != dead and pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def dead_state(dfa: Nfa) -> Optional[int]:
    """The state of the canonical form dfa whose language is empty, if
    any: on a minimal DFA, the one rejecting state that only loops."""
    for p, row in enumerate(dfa.table):
        if row.count(p) == len(row) and p not in dfa.accepting:
            return p
    return None


# -- determinization, minimization, canonical form ---------------------

def _determinize(a: Nfa):
    """subsets of a's moves, each target set closed under epsilon moves."""
    index = {sym: i for i, sym in enumerate(a.alphabet.symbols)}
    eps = [[] for _ in range(a.n_states)]
    succ = [[[] for _ in index] for _ in range(a.n_states)]
    for (p, x, q) in a.transitions:
        (eps[p] if x is EPSILON else succ[p][index[x]]).append(q)

    def closed(states):
        return frozenset(reachable(states, eps.__getitem__))

    return subsets([[closed(targets) for targets in row] for row in succ],
                   closed(a.initial), a.accepting, len(index))


def reachable(starts, successors) -> set:
    """The states reachable from starts, where successors(state) gives
    the states one move away."""
    seen, stack = set(starts), list(starts)
    while stack:
        for t in successors(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def subsets(moves, start: frozenset, accepting, n_symbols: int):
    """Subset construction from start over moves[state][symbol index], a
    frozenset of states; returns (transition table, accepting set).  The
    result is complete (the empty subset is the dead state), its states
    in breadth-first order, and a subset of one state takes its row of
    moves as it is."""
    ids, order, table, accepting_subsets = {start: 0}, [start], [], set()
    for i, subset_state in enumerate(order):
        if subset_state & accepting:
            accepting_subsets.add(i)
        if len(subset_state) == 1:
            targets = moves[next(iter(subset_state))]
        else:
            members = [moves[q] for q in subset_state]
            targets = [frozenset().union(*[m[k] for m in members])
                       for k in range(n_symbols)]
        row = []
        for tgt in targets:
            if tgt not in ids:
                ids[tgt] = len(order)
                order.append(tgt)
            row.append(ids[tgt])
        table.append(tuple(row))
    return table, accepting_subsets


# The one intern table, per process and never evicted: the canonical
# form of every language built, keyed on (alphabet, table, accepting).
# No table is keyed on a raw Nfa.
_INTERNED: Dict[tuple, Nfa] = {}


def canonicalize(a: Nfa) -> Nfa:
    """The one interned Nfa of a's language: its complete minimal DFA,
    states numbered breadth-first from 0 in alphabet order.  An interned
    Nfa (it has a table) is its own; any other runs the subset
    construction and minimal_dfa on each call."""
    if a.table is not None:
        return a
    return minimal_dfa(a.alphabet, *_determinize(a))


canonical_nfa = canonicalize  # the name the package exports


def _intern(alphabet: Alphabet, table, accepting: frozenset) -> Nfa:
    key = (alphabet, table, accepting)
    nfa = _INTERNED.get(key)
    if nfa is None:
        nfa = _INTERNED[key] = Nfa.derived(alphabet, len(table), frozenset([0]),
                                           accepting, None, table)
    return nfa


def minimal_dfa(alphabet: Alphabet, table: Sequence[Sequence[int]],
                accepting, start: int = 0) -> Nfa:
    """The canonical form of the complete DFA with initial state start and
    table[state][symbol index] -> state: Moore refinement, breadth-first
    renumbering from start.  States start does not reach drop out."""
    # Moore partition refinement with deterministic block numbering:
    # a round only splits blocks, so one that adds no block is stable.
    block = [1 if q in accepting else 0 for q in range(len(table))]
    n_blocks = len(set(block))
    columns = list(zip(*table))
    while True:
        ids = {}
        successor_block = block.__getitem__
        block = [ids.setdefault(sig, len(ids)) for sig in zip(
            block, *[map(successor_block, column) for column in columns])]
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)

    # each block's row, read off its first state
    rows = {}
    for q, b in enumerate(block):
        if b not in rows:
            rows[b] = [block[t] for t in table[q]]
    return renumbered(alphabet, rows, {block[q] for q in accepting}, block[start])


def renumbered(alphabet: Alphabet, rows, accepting, start: int) -> Nfa:
    """The canonical form of a complete DFA that is minimal once the
    states start does not reach drop out: rows[state][symbol index] ->
    state, renumbered breadth-first from start in alphabet order."""
    renum, order = {start: 0}, [start]
    for q in order:
        for t in rows[q]:
            if t not in renum:
                renum[t] = len(order)
                order.append(t)
    return _intern(alphabet, tuple(tuple([renum[t] for t in rows[q]]) for q in order),
                   frozenset(renum[q] for q in accepting if q in renum))
