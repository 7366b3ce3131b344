"""Text syntax for regular languages.

Grammar (whitespace insignificant):

    e ::= e "|" e          alternation
        | e e              concatenation
        | e "*" | e "+" | e "?"
        | "~" e            complement
        | "(" e ")"        grouping
        | "()"             the empty word
        | "{}"             the empty language
        | "."              any single symbol
        | IDENT            a symbol of the alphabet

The grammar reads terms.tokenize's tokens through terms.Cursor, the one
token cursor of formulas, CTL, model files, region text and
configurations, so its errors end with their position as theirs do.
An identifier that is not an alphabet symbol is split greedily into
symbols: "ab" over {a,b} means a.b.
"""

from __future__ import annotations

import functools

from . import automata, terms
from .automata import Alphabet, Nfa
from .errors import WsmcError


class RegexError(WsmcError):
    pass


_PUNCTUATION = frozenset({*"|*+?().~", "{}"})


class RegexParser(terms.Cursor):
    """Recursive descent for the regex grammar over alphabet, through the
    one token cursor; model's reader of region text extends it."""

    def __init__(self, text, punctuation, error_class, alphabet: Alphabet):
        super().__init__(text, punctuation, error_class)
        self.alphabet = alphabet

    def symbols(self, name: str, pos: int):
        """Greedy longest-match decomposition of the identifier name, at
        pos in the text, into alphabet symbols."""
        if name in self.alphabet:
            return [name]
        out, i = [], 0
        while i < len(name):
            best = max((sym for sym in self.alphabet.symbols if name.startswith(sym, i)),
                       key=len, default=None)
            if best is None:
                raise self.error("symbol %r not in alphabet" % name[i:], pos + i)
            out.append(best)
            i += len(best)
        return out

    def alternation(self) -> Nfa:
        e = self.concatenation()
        while self.accept("|"):
            e = automata.union(e, self.concatenation())
        return e

    _ATOM_STARTS = ("ident", "(", ".", "{}", "~")

    def concatenation(self) -> Nfa:
        e = self.postfix()
        while self.peek()[0] in self._ATOM_STARTS:
            e = automata.concat(e, self.postfix())
        return e

    def postfix(self) -> Nfa:
        # An identifier decomposes into symbols; postfix operators bind
        # to the last symbol, so "ab*" over {a,b} means a(b*).
        parts = self.atom()
        while self.peek()[0] in ("*", "+", "?"):
            kind, _, _ = self.peek()
            self.pos += 1
            e = parts[-1]
            if kind == "*":
                e = automata.star(e)
            elif kind == "+":
                e = automata.concat(e, automata.star(e))
            else:
                e = automata.union(e, Nfa.epsilon(self.alphabet))
            parts[-1] = e
        return functools.reduce(automata.concat, parts)

    def atom(self):
        """One syntactic atom, as a list of concatenation parts."""
        kind, value, pos = self.peek()
        if kind == "ident":
            self.pos += 1
            return [Nfa.symbol(self.alphabet, s) for s in self.symbols(value, pos)]
        if kind == "(":
            self.pos += 1
            if self.accept(")"):
                return [Nfa.epsilon(self.alphabet)]
            e = self.alternation()
            self.expect(")")
            return [e]
        if kind == ".":
            self.pos += 1
            return [Nfa.derived(self.alphabet, 2, frozenset([0]), frozenset([1]),
                                tuple((0, sym, 1) for sym in self.alphabet.symbols))]
        if kind == "{}":
            self.pos += 1
            return [Nfa.empty(self.alphabet)]
        if kind == "~":
            self.pos += 1
            return [automata.complement(functools.reduce(automata.concat, self.atom()))]
        raise self.found("expected an expression")


def compile_regex(pattern: str, alphabet: Alphabet) -> Nfa:
    """Compile regex text into an NFA accepting exactly the denoted language."""
    return RegexParser(pattern, _PUNCTUATION, RegexError, alphabet).read(
        RegexParser.alternation)


# -- regex regeneration from automata ----------------------------------
#
# Small regex AST with smart constructors; used to print canonical DFAs
# back in the input syntax via state elimination in fixed state order.

_EMPTY = ("empty",)
_EPS = ("eps",)


def _sym(s):
    return ("sym", s)


def _alt(a, b):
    if a == _EMPTY:
        return b
    if b == _EMPTY:
        return a
    items = []
    for e in (a, b):
        parts = e[1] if e[0] == "alt" else (e,)
        for p in parts:
            if p not in items:
                items.append(p)
    if len(items) == 1:
        return items[0]
    return ("alt", tuple(items))


def _cat(a, b):
    if a == _EMPTY or b == _EMPTY:
        return _EMPTY
    if a == _EPS:
        return b
    if b == _EPS:
        return a
    parts = []
    for e in (a, b):
        parts.extend(e[1] if e[0] == "cat" else (e,))
    return ("cat", tuple(parts))


def _star(a):
    if a in (_EMPTY, _EPS):
        return _EPS
    if a[0] == "star":
        return a
    return ("star", a)


def _render(e, spaced, prec=0):
    # precedence: alt=0, cat=1, star=2
    kind = e[0]
    if kind == "empty":
        return "{}"
    if kind == "eps":
        return "()"
    if kind == "sym":
        return e[1]
    if kind == "alt":
        body = "|".join(_render(x, spaced, 1) for x in e[1])
        return "(" + body + ")" if prec > 0 else body
    if kind == "cat":
        joiner = " " if spaced else ""
        body = joiner.join(_render(x, spaced, 2) for x in e[1])
        return "(" + body + ")" if prec > 1 else body
    if kind == "star":
        return _render(e[1], spaced, 3) + "*"
    raise RegexError("bad regex node %r" % (kind,))


def nfa_to_regex(a: Nfa) -> str:
    """Deterministic regex text for L(a), via state elimination.

    Works on the canonical form with the dead state trimmed, eliminating
    states in decreasing index order, so equal languages print equally.
    The text is computed once per canonical form (_text).
    """
    return _text(automata.canonicalize(a))


@functools.cache
def _text(dfa: Nfa) -> str:
    """The regex text of the canonical form dfa (see nfa_to_regex);
    keyed on the interned object, never on a raw Nfa."""
    if not dfa.accepting:
        return "{}"
    syms = dfa.alphabet.symbols
    # every state of a minimal DFA reaches an accepting one but the dead state
    live = set(range(dfa.n_states)) - {automata.dead_state(dfa)}
    nodes = sorted(live)
    init, final = "I", "F"
    edges = {}

    def add_edge(p, q, e):
        key = (p, q)
        edges[key] = _alt(edges.get(key, _EMPTY), e)

    add_edge(init, 0, _EPS)
    for p in nodes:
        for i, q in enumerate(dfa.table[p]):
            if q in live:
                add_edge(p, q, _sym(syms[i]))
        if p in dfa.accepting:
            add_edge(p, final, _EPS)
    for victim in reversed(nodes):
        loop = edges.pop((victim, victim), _EMPTY)
        loop_star = _star(loop)
        ins = [(p, e) for ((p, q), e) in edges.items() if q == victim]
        outs = [(q, e) for ((p, q), e) in edges.items() if p == victim]
        for (p, _) in ins:
            edges.pop((p, victim))
        for (q, _) in outs:
            edges.pop((victim, q))
        for (p, ein) in ins:
            for (q, eout) in outs:
                add_edge(p, q, _cat(ein, _cat(loop_star, eout)))
    result = edges.get((init, final), _EMPTY)
    spaced = any(len(s) > 1 for s in syms)
    return _render(result, spaced)
