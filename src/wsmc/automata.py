"""Finite-automaton engine over a fixed message alphabet.

This is the word-level region algebra: NFAs with epsilon transitions,
the usual boolean and rational operations, subword closures/kernels,
and a canonical form: one interned Nfa per language, its minimal DFA
with its table, held in one intern table; its transition triples are
built from the table on their first read.  canonicalize is the one
path to it: an interned Nfa is its own, any other runs the subset
construction and minimal_dfa.  The boolean operations, the residuals
and the decisions run on the operands' canonical forms: one
breadth-first walk over the state tuples of any number of them
(_tuples) serves union_all, intersection, difference, subset and
left_residual, with no subset construction.  Only the rational
constructions (union among them) and the closures build NFAs; the
region algebra's atoms and block edits hand their tables to
minimal_dfa, the one minimizer, as the product walks do (see
regions.RegionSpace._join and _edit).

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
    their product over the indices of those tuples.  An operand that is
    a canonical form already (it has a table) is its own."""
    dfas = [a if a.table is not None else canonicalize(a) for a in langs]
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
    tuples for which keep(tuple of accept flags) holds: the product is
    complete and deterministic, so it needs no subset construction."""
    dfas, tuples, table = _tuples(langs)
    accepting = [d.accepting for d in dfas]
    return minimal_dfa(dfas[0].alphabet, table, [
        i for i, states in enumerate(tuples)
        if keep([q in acc for q, acc in zip(states, accepting)])])


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
    """Superwords under the scattered-subword order: a self-loop on every
    symbol, or on every one of symbols, at every state."""
    loops = tuple((q, sym, q) for q in range(a.n_states)
                  for sym in (a.alphabet.symbols if symbols is None else symbols))
    return Nfa.derived(a.alphabet, a.n_states, a.initial, a.accepting,
                       a.transitions + loops)


def down_closure(a: Nfa, symbols: Optional[Sequence[str]] = None) -> Nfa:
    """Subwords: an epsilon move beside every symbol move, or beside every
    move on one of symbols."""
    skips = tuple((p, EPSILON, q) for (p, x, q) in a.transitions
                  if x is not EPSILON and (symbols is None or x in symbols))
    return Nfa.derived(a.alphabet, a.n_states, a.initial, a.accepting,
                       a.transitions + skips)


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
    """No reachable product state accepts in a and rejects in b."""
    (da, db), pairs, _ = _tuples((a, b))
    return all(p not in da.accepting or q in db.accepting for p, q in pairs)


# -- determinization, minimization, canonical form ---------------------

def _determinize(a: Nfa):
    """Subset construction; returns (transition table, accepting set).

    The result is complete (the empty subset is the dead state) and its
    state order follows breadth-first discovery in alphabet order, which
    keeps everything downstream deterministic.  The epsilon closure of
    every single-state move is computed once, before the construction,
    so a subset of one state takes its row of moves as it is.
    """
    syms = a.alphabet.symbols
    index = {sym: i for i, sym in enumerate(syms)}
    eps = [[] for _ in range(a.n_states)]
    succ = [[[] for _ in syms] for _ in range(a.n_states)]
    for (p, x, q) in a.transitions:
        if x is EPSILON:
            eps[p].append(q)
        else:
            succ[p][index[x]].append(q)
    moves = [[frozenset(targets) for targets in row] for row in succ]
    start = frozenset(a.initial)
    if any(eps):
        closure = []
        for q in range(a.n_states):
            seen = {q}
            stack = [q]
            while stack:
                for r in eps[stack.pop()]:
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            closure.append(frozenset(seen))
        moves = [[frozenset().union(*[closure[r] for r in targets]) for targets in row]
                 for row in moves]
        start = frozenset().union(*[closure[q] for q in start])
    ids = {start: 0}
    order = [start]
    table = []
    accepting = set()
    for i, subset_state in enumerate(order):
        if subset_state & a.accepting:
            accepting.add(i)
        if len(subset_state) == 1:
            targets = moves[next(iter(subset_state))]
        else:
            members = [moves[q] for q in subset_state]
            targets = [frozenset().union(*[m[k] for m in members])
                       for k in range(len(syms))]
        row = []
        for tgt in targets:
            if tgt not in ids:
                ids[tgt] = len(order)
                order.append(tgt)
            row.append(ids[tgt])
        table.append(tuple(row))
    return table, accepting


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

    # BFS renumbering from the initial block in alphabet order, reading
    # each block's row off its first state.
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    renum = {block[start]: 0}
    order = [block[start]]
    for b in order:
        for t in table[rep[b]]:
            if block[t] not in renum:
                renum[block[t]] = len(order)
                order.append(block[t])
    final_table = tuple(tuple([renum[block[t]] for t in table[rep[b]]]) for b in order)
    final_accepting = frozenset(renum[block[q]] for q in accepting if block[q] in renum)
    return _intern(alphabet, final_table, final_accepting)
