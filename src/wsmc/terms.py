"""Fixpoint terms: abstract syntax, parsing, guardedness, unfolding.

Terms combine named monotonic operators, union/intersection/complement,
the four closure/kernel operators, and mu/nu binders.  Binder names are
freshened on construction so no two binders share a name and no name is
both bound and free.  Bound variables must sit under an even number of
complements; mu-bound variables must be upward-guarded and nu-bound ones
downward-guarded for the iterative evaluator to be guaranteed to stop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import WsmcError


class TermError(WsmcError):
    pass


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class OpApp(Term):
    op: str
    args: Tuple[Term, ...] = ()


@dataclass(frozen=True)
class Union(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Intersection(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Term):
    child: Term


@dataclass(frozen=True)
class Up(Term):
    child: Term


@dataclass(frozen=True)
class Down(Term):
    child: Term


@dataclass(frozen=True)
class Kup(Term):
    child: Term


@dataclass(frozen=True)
class Kdown(Term):
    child: Term


@dataclass(frozen=True)
class Mu(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class Nu(Term):
    var: str
    body: Term


_UNARY = {Up, Down, Kup, Kdown, Not}


def children(t: Term):
    if isinstance(t, Var):
        return ()
    if isinstance(t, OpApp):
        return t.args
    if isinstance(t, (Union, Intersection)):
        return (t.left, t.right)
    if type(t) in _UNARY:
        return (t.child,)
    if isinstance(t, (Mu, Nu)):
        return (t.body,)
    raise TermError("unknown term node %r" % (t,))


def label(t: Term):
    """The field of a node that is not a child: the variable, operator
    or binder name; None for the other nodes."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, OpApp):
        return t.op
    if isinstance(t, (Mu, Nu)):
        return t.var
    return None


def _rebuild(t: Term, kids):
    if isinstance(t, Var):
        return t
    if isinstance(t, OpApp):
        return OpApp(t.op, tuple(kids))
    if isinstance(t, (Union, Intersection)):
        return type(t)(kids[0], kids[1])
    if type(t) in _UNARY:
        return type(t)(kids[0])
    if isinstance(t, (Mu, Nu)):
        return type(t)(t.var, kids[0])
    raise TermError("unknown term node %r" % (t,))


def free_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Mu, Nu)):
        return free_vars(t.body) - {t.var}
    out = set()
    for c in children(t):
        out |= free_vars(c)
    return out


def bound_vars(t: Term) -> List[str]:
    out = []
    if isinstance(t, (Mu, Nu)):
        out.append(t.var)
    for c in children(t):
        out.extend(bound_vars(c))
    return out


def rename_binders(t: Term, taken: set) -> Term:
    """Freshen binder names so all binders are distinct and avoid `taken`."""

    def walk(node, mapping):
        if isinstance(node, Var):
            return Var(mapping.get(node.name, node.name))
        if isinstance(node, (Mu, Nu)):
            name = node.var
            fresh = name
            i = 0
            while fresh in taken:
                i += 1
                fresh = "%s_%d" % (name, i)
            taken.add(fresh)
            new_mapping = dict(mapping)
            new_mapping[name] = fresh
            return type(node)(fresh, walk(node.body, new_mapping))
        return _rebuild(node, [walk(c, mapping) for c in children(node)])

    return walk(t, {})


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution; binders in copies get freshened."""
    # rename binders of t that clash with free variables of the replacement
    clashes = free_vars(replacement) | free_vars(t) | {name}
    t = rename_binders(t, set(clashes))
    taken = set(bound_vars(t)) | free_vars(t) | free_vars(replacement)

    def walk(node):
        if isinstance(node, Var):
            if node.name == name:
                return rename_binders(replacement, taken)
            return node
        if isinstance(node, (Mu, Nu)) and node.var == name:
            return node
        return _rebuild(node, [walk(c) for c in children(node)])

    return walk(t)


def unfold(t: Term, binder: str) -> Term:
    """Unfold the named mu/nu subterm once: mu X.phi(X) -> mu X.phi(phi(X))."""
    found = [False]

    def walk(node):
        if isinstance(node, (Mu, Nu)) and node.var == binder:
            found[0] = True
            return type(node)(binder, substitute(node.body, binder, node.body))
        return _rebuild(node, [walk(c) for c in children(node)])

    out = walk(t)
    if not found[0]:
        raise TermError("no binder named %r" % (binder,))
    return out


# -- well-formedness checks --------------------------------------------

def check_parity(t: Term):
    """Every bound variable must occur under an even number of complements
    between its binder and the occurrence."""

    def walk(node, depth, bound):
        if isinstance(node, Var):
            if node.name in bound and (depth - bound[node.name]) % 2 != 0:
                raise TermError(
                    "bound variable %r occurs under an odd number of complements"
                    % (node.name,))
            return
        if isinstance(node, Not):
            walk(node.child, depth + 1, bound)
            return
        if isinstance(node, (Mu, Nu)):
            walk(node.body, depth, {**bound, node.var: depth})
            return
        for c in children(node):
            walk(c, depth, bound)

    walk(t, 0, {})


def check_guarded(t: Term) -> List[Tuple[str, str]]:
    """Report unguarded binders as (binder name, occurrence path) pairs.

    A mu-binder needs every free occurrence of its variable inside some
    up-closure or up-kernel subterm of the body; nu dually with the
    downward operators.  Empty report means the term is guarded.
    """
    offenders = []

    def walk(node):
        if isinstance(node, Mu):
            _scan(node.body, node.var, (Up, Kup), "")
        elif isinstance(node, Nu):
            _scan(node.body, node.var, (Down, Kdown), "")
        for c in children(node):
            walk(c)

    def _scan(node, name, guards, path):
        if isinstance(node, guards):
            return  # every occurrence below is guarded
        if isinstance(node, Var):
            if node.name == name:
                offenders.append((name, path or "."))
            return
        if isinstance(node, (Mu, Nu)) and node.var == name:
            return
        for i, c in enumerate(children(node)):
            _scan(c, name, guards, "%s/%s[%d]" % (path, type(node).__name__.lower(), i))

    walk(t)
    return offenders


def is_guarded(t: Term) -> bool:
    return not check_guarded(t)


# -- concrete syntax ---------------------------------------------------

KEYWORDS = {"mu", "nu", "up", "down", "kup", "kdown", "empty", "all"}


def tokenize(text: str, punctuation: str = "|&!().,", error=TermError):
    """(kind, value, position) per punctuation character (kind is the
    character) and per identifier of letters, digits and `_` ("ident")."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in punctuation:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise error("unexpected character %r at position %d" % (ch, i))
    return tokens


class _Parser:
    """Recursive descent for the formula grammar.

    Precedence, loosest first: mu/nu bodies extend maximally, then "|",
    then "&", then prefix "!" and the closure operators.
    """

    def __init__(self, tokens, binding, free_ok):
        self.tokens = tokens
        self.binding = binding  # maps operator name -> arity
        self.free_ok = free_ok
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return (None, None, -1)

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise TermError("expected %r, found %r at position %d"
                            % (kind, tok[1], tok[2]))
        self.pos += 1
        return tok

    def parse(self, scope):
        t = self.alternation(scope)
        tok = self.peek()
        if tok[0] is not None:
            raise TermError("unexpected %r at position %d" % (tok[1], tok[2]))
        return t

    def alternation(self, scope):
        t = self.conjunction(scope)
        while self.peek()[0] == "|":
            self.pos += 1
            t = Union(t, self.conjunction(scope))
        return t

    def conjunction(self, scope):
        t = self.unary(scope)
        while self.peek()[0] == "&":
            self.pos += 1
            t = Intersection(t, self.unary(scope))
        return t

    def unary(self, scope):
        kind, value, pos = self.peek()
        if kind == "!":
            self.pos += 1
            return Not(self.unary(scope))
        if kind == "ident" and value in ("mu", "nu"):
            self.pos += 1
            var = self.expect("ident")[1]
            if var in KEYWORDS:
                raise TermError("%r cannot be a variable name" % (var,))
            self.expect(".")
            body = self.alternation(scope | {var})
            return (Mu if value == "mu" else Nu)(var, body)
        return self.atom(scope)

    _CLOSURES = {"up": Up, "down": Down, "kup": Kup, "kdown": Kdown}

    def atom(self, scope):
        kind, value, pos = self.peek()
        if kind == "(":
            self.pos += 1
            t = self.alternation(scope)
            self.expect(")")
            return t
        if kind != "ident":
            raise TermError("expected a formula, found %r at position %d"
                            % (value, pos))
        self.pos += 1
        if value == "empty":
            return OpApp("empty")
        if value == "all":
            return OpApp("all")
        if value in self._CLOSURES:
            self.expect("(")
            t = self.alternation(scope)
            self.expect(")")
            return self._CLOSURES[value](t)
        if self.peek()[0] == "(":
            # operator application
            self.pos += 1
            args = []
            if self.peek()[0] != ")":
                args.append(self.alternation(scope))
                while self.peek()[0] == ",":
                    self.pos += 1
                    args.append(self.alternation(scope))
            self.expect(")")
            arity = self.binding.get(value)
            if arity is None:
                raise TermError("unknown operator %r" % (value,))
            if arity != len(args):
                raise TermError("operator %r expects %d arguments, got %d"
                                % (value, arity, len(args)))
            return OpApp(value, tuple(args))
        if value in scope:
            return Var(value)
        arity = self.binding.get(value)
        if arity == 0:
            return OpApp(value)
        if arity is not None:
            raise TermError("operator %r expects %d arguments" % (value, arity))
        if self.free_ok:
            return Var(value)
        raise TermError("unknown identifier %r" % (value,))


def parse_term(text: str, binding, free_ok: bool = False) -> Term:
    """Parse formula text against an operator arity table.

    `binding` maps operator names to arities (an AlgebraBinding works).
    With `free_ok`, unknown identifiers become free variables.
    """
    if not text.strip():
        raise TermError("empty formula")
    arities = binding.arities() if hasattr(binding, "arities") else dict(binding)
    t = _Parser(tokenize(text), arities, free_ok).parse(frozenset())
    t = rename_binders(t, set(free_vars(t)))
    check_parity(t)
    return t


def term_to_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, OpApp):
        if not t.args:
            return t.op
        return "%s(%s)" % (t.op, ", ".join(term_to_text(a) for a in t.args))
    if isinstance(t, Union):
        return "(%s | %s)" % (term_to_text(t.left), term_to_text(t.right))
    if isinstance(t, Intersection):
        return "(%s & %s)" % (term_to_text(t.left), term_to_text(t.right))
    if isinstance(t, Not):
        return "!%s" % term_to_text(t.child)
    if isinstance(t, Up):
        return "up(%s)" % term_to_text(t.child)
    if isinstance(t, Down):
        return "down(%s)" % term_to_text(t.child)
    if isinstance(t, Kup):
        return "kup(%s)" % term_to_text(t.child)
    if isinstance(t, Kdown):
        return "kdown(%s)" % term_to_text(t.child)
    if isinstance(t, Mu):
        return "mu %s. %s" % (t.var, term_to_text(t.body))
    if isinstance(t, Nu):
        return "nu %s. %s" % (t.var, term_to_text(t.body))
    raise TermError("unknown term node %r" % (t,))
