"""Fixpoint terms: abstract syntax, parsing, guardedness, unfolding.

A term is one node type, `Term(kind, name, args)`.  The kind is one of
"var", "opapp" (a named monotonic operator), "union", "intersection",
"not", the closures "up" and "down", the kernels "kup" and "kdown", and
the binders "mu" and "nu"; the name is the variable, operator or binder
name (None for the other kinds); the args are the children.  `Var`,
`OpApp`, `Union`, ... `Nu` build one node each.  A Term is a value (see
values.Value) that also carries three facts, set once from its children
when it is built: `free`, the sorted tuple of its free variables;
`nested`, whether it contains a mu or nu; and its hash, so that hashing
a term takes constant time and never recurses.  Equality and the checks
walk a term without recursion too; the other walks refuse one too deep
for the interpreter's stack with one TermError.  The one parser,
`Parser`, reads formulas and, with CTL's prefix rules
(compilers.parse_ctl), CTL.  It reads through `Cursor`, the one token
cursor, which also serves the regex grammar (regexes) and the reader of
model files, region text and configurations (model), so the errors of
every syntax give their position in the text alike.  Parsing freshens
binder names so no two binders share a name and no name is both bound
and free.
Bound variables must sit under an even number of complements; mu-bound
variables must be upward-guarded and nu-bound ones downward-guarded for
the iterative evaluator to be guaranteed to stop.
"""

from __future__ import annotations

import functools
import re
from typing import List, Optional, Tuple

from .errors import WsmcError
from .values import Value


class TermError(WsmcError):
    pass


def _refusing_deep(walk):
    """walk, which recurses, raising one TermError for a term too deep."""
    @functools.wraps(walk)
    def refusing(*args):
        try:
            return walk(*args)
        except RecursionError:
            raise TermError("term is nested too deeply") from None
    return refusing


# kind -> number of children; None for any number
_ARITY = {"var": 0, "opapp": None, "union": 2, "intersection": 2, "not": 1,
         "up": 1, "down": 1, "kup": 1, "kdown": 1, "mu": 1, "nu": 1}
BINDERS = ("mu", "nu")


class Term(Value):
    _fields = ("kind", "name", "args")
    __slots__ = _fields + ("free", "nested", "_hash")

    def __init__(self, kind: str, name: Optional[str] = None,
                 args: Tuple[Term, ...] = ()):
        if kind not in _ARITY:
            raise TermError("unknown term kind %r" % (kind,))
        arity = _ARITY[kind]
        if arity is not None and len(args) != arity:
            raise TermError("a %s node takes %s, got %d"
                            % (kind, count(arity, "child", "children"), len(args)))
        self.kind = kind
        self.name = name
        self.args = args
        free = {name} if kind == "var" else set().union(*(c.free for c in args))
        binder = kind in BINDERS
        self.free = tuple(sorted(free - {name} if binder else free))
        self.nested = binder or any(c.nested for c in args)
        self._hash = hash((kind, name, args))

    def __hash__(self):
        return self._hash

    __repr__ = _refusing_deep(Value.__repr__)

    def __eq__(self, other):
        """Value equality, walked without recursion."""
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if type(b) is not Term or a._hash != b._hash or (
                        a.kind, a.name, len(a.args)) != (b.kind, b.name, len(b.args)):
                    return False
                pairs += zip(a.args, b.args)
        return True


def count(n: int, noun: str, nouns: str) -> str:
    """n and the noun in the number n needs."""
    return "%d %s" % (n, noun if n == 1 else nouns)


def Var(name): return Term("var", name)
def OpApp(op, args=()): return Term("opapp", op, tuple(args))
def Union(left, right): return Term("union", None, (left, right))
def Intersection(left, right): return Term("intersection", None, (left, right))
def Not(child): return Term("not", None, (child,))
def Up(child): return Term("up", None, (child,))
def Down(child): return Term("down", None, (child,))
def Kup(child): return Term("kup", None, (child,))
def Kdown(child): return Term("kdown", None, (child,))
def Mu(var, body): return Term("mu", var, (body,))
def Nu(var, body): return Term("nu", var, (body,))


def free_vars(t: Term) -> set:
    return set(t.free)


def bound_vars(t: Term) -> List[str]:
    return [node.name for node in _subterms(t) if node.kind in BINDERS]


def _fresh(name: str, taken) -> str:
    """name, or the first of name_1, name_2, ... that is not taken."""
    fresh, i = name, 0
    while fresh in taken:
        i += 1
        fresh = "%s_%d" % (name, i)
    return fresh


@_refusing_deep
def rename_binders(t: Term, taken: set) -> Term:
    """Freshen binder names so all binders are distinct and avoid `taken`."""

    def walk(node, mapping):
        if node.kind == "var":
            return Var(mapping.get(node.name, node.name))
        if node.kind in BINDERS:
            fresh = _fresh(node.name, taken)
            taken.add(fresh)
            return Term(node.kind, fresh,
                        (walk(node.args[0], {**mapping, node.name: fresh}),))
        return Term(node.kind, node.name, tuple(walk(c, mapping) for c in node.args))

    return walk(t, {})


@_refusing_deep
def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution; binders in copies get freshened."""
    # rename binders of t that clash with free variables of the replacement
    clashes = free_vars(replacement) | free_vars(t) | {name}
    t = rename_binders(t, set(clashes))
    taken = set(bound_vars(t)) | free_vars(t) | free_vars(replacement)

    def walk(node):
        if node.kind == "var":
            if node.name == name:
                return rename_binders(replacement, taken)
            return node
        if node.kind in BINDERS and node.name == name:
            return node
        return Term(node.kind, node.name, tuple(map(walk, node.args)))

    return walk(t)


@_refusing_deep
def unfold(t: Term, binder: str) -> Term:
    """Unfold the named mu/nu subterm once: mu X.phi(X) -> mu X.phi(phi(X))."""
    if binder not in bound_vars(t):
        raise TermError("no binder named %r" % (binder,))

    def walk(node):
        if node.kind in BINDERS and node.name == binder:
            body = node.args[0]
            return Term(node.kind, node.name, (substitute(body, binder, body),))
        return Term(node.kind, node.name, tuple(map(walk, node.args)))

    return walk(t)


# -- well-formedness checks --------------------------------------------

def check_parity(t: Term):
    """Every bound variable must occur under an even number of complements
    between its binder and the occurrence."""
    todo = [(t, 0, {})]
    while todo:
        node, depth, bound = todo.pop()
        if node.kind == "var":
            if node.name in bound and (depth - bound[node.name]) % 2 != 0:
                raise TermError(
                    "bound variable %r occurs under an odd number of complements"
                    % (node.name,))
        elif node.kind == "not":
            depth += 1
        elif node.kind in BINDERS:
            bound = {**bound, node.name: depth}
        todo += [(c, depth, bound) for c in reversed(node.args)]


# binder kind -> the kinds that guard its variable
_GUARDS = {"mu": ("up", "kup"), "nu": ("down", "kdown")}


def check_guarded(t: Term) -> List[Tuple[str, str]]:
    """Report unguarded binders as (binder name, occurrence path) pairs.

    A mu-binder needs every free occurrence of its variable inside some
    up-closure or up-kernel subterm of the body; nu dually with the
    downward operators.  Empty report means the term is guarded.
    """
    offenders = []
    for binder in _subterms(t):
        if binder.kind in BINDERS:
            name, guards = binder.name, _GUARDS[binder.kind]
            todo = [(binder.args[0], "")]
            while todo:
                node, path = todo.pop()
                if node.kind == "var" and node.name == name:
                    offenders.append((name, path or "."))
                elif node.kind not in guards and not (
                        node.kind in BINDERS and node.name == name):
                    # below a guard every occurrence is guarded; below a
                    # binder of name, none is free
                    todo += reversed([(c, "%s/%s[%d]" % (path, node.kind, i))
                                      for i, c in enumerate(node.args)])
    return offenders


# -- concrete syntax ---------------------------------------------------

KEYWORDS = {"mu", "nu", "up", "down", "kup", "kdown", "empty", "all"}
# the words of a CTL formula (compilers.parse_ctl), which no atom may be,
# and its punctuation
CTL_KEYWORDS = {"E", "EX", "U", "A", "AF", "AG", "EF", "EG"}
CTL_PUNCTUATION = frozenset("!&()")


@functools.lru_cache(maxsize=None)
def _scanner(punctuation: frozenset):
    """Whitespace, then a token of punctuation (the longest first), an
    identifier or any other character."""
    tokens = "|".join(map(re.escape, sorted(punctuation, key=len, reverse=True)))
    return re.compile(r"(\s*)(?:(%s)|(\w+)|(\S))" % tokens)


def tokenize(text: str, punctuation: frozenset, error):
    """The tokens (kind, value, position) of text, then the end token
    (None, None, len(text)).  A token of punctuation, of one or two
    characters, is its own kind and value; an identifier of letters,
    digits and `_` has kind "ident".  Any other character raises
    error(message, position), which names the token it may begin."""
    tokens, pos = [], 0
    for space, punct, ident, other in _scanner(punctuation).findall(text):
        pos += len(space)
        if other:
            longer = [p for p in punctuation if p[0] == other]
            raise error("expected %r" % longer[0] if longer
                        else "unexpected character %r" % other, pos)
        tokens.append((punct, punct, pos) if punct else ("ident", ident, pos))
        pos += len(punct or ident)
    tokens.append((None, None, len(text)))
    return tokens


class Cursor:
    """The one token cursor, over one tokenize pass of text, that the
    formula grammar (Parser), CTL (compilers), the regex grammar (regexes)
    and the reader of model files, region text and configurations (model)
    read through.  Its errors, of error_class, end with "at position N",
    N counting in text."""

    END = "input"  # what the end token ends, in messages

    def __init__(self, text, punctuation, error_class):
        self.text = text
        self.error_class = error_class
        self.tokens = tokenize(text, punctuation, self.error)
        self.pos = 0

    def error(self, message, position):  # also tokenize's error callable
        return self.error_class("%s at position %d" % (message, position))

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, kind) -> bool:  # kind, or a keyword's value
        """Whether the next token is kind, which is then read."""
        taken = kind in self.tokens[self.pos][:2]
        self.pos += taken
        return taken

    def found(self, message):
        """The error at the next token: message, and the token found."""
        kind, value, pos = self.peek()
        what = "end of %s" % self.END if kind is None else repr(value)
        return self.error("%s, found %s" % (message, what), pos)

    def expect(self, kind, what=None):
        if not self.accept(kind):
            raise self.found("expected %s" % (what or repr(kind)))
        return self.tokens[self.pos - 1]

    def read(self, grammar, *args):
        """grammar(self, *args), once every token is read: the one entry
        of every syntax.  Input too deep for the stack is refused whole."""
        try:
            result = grammar(self, *args)
        except RecursionError:
            raise self.error_class("input is nested too deeply") from None
        kind, value, pos = self.peek()
        if kind is not None:
            raise self.error("unexpected %r" % (value,), pos)
        return result


class Parser(Cursor):
    """Recursive descent for the formula grammar, raising error_class.

    Precedence, loosest first: mu/nu bodies extend maximally, then "|",
    then "&", then prefix "!" and the closure operators.
    """

    END = "formula"

    def __init__(self, text, punctuation, error_class, binding):
        super().__init__(text, punctuation, error_class)
        if self.peek()[0] is None:
            raise self.error("empty formula", len(text))
        self.binding = binding  # maps operator name -> arity

    def parse(self):
        return self.read(Parser.alternation, frozenset())

    def alternation(self, scope):
        t = self.conjunction(scope)
        while self.accept("|"):
            t = Union(t, self.conjunction(scope))
        return t

    def conjunction(self, scope):
        t = self.unary(scope)
        while self.accept("&"):
            t = Intersection(t, self.unary(scope))
        return t

    def unary(self, scope):
        if self.accept("!"):
            return Not(self.unary(scope))
        kind, value, pos = self.peek()
        if kind == "ident" and value in BINDERS:
            self.pos += 1
            _, var, var_pos = self.expect("ident", "a variable after %r" % (value,))
            if var in KEYWORDS:
                raise self.error("%r cannot be a variable name" % (var,), var_pos)
            self.expect(".")
            return Term(value, var, (self.alternation(scope | {var}),))
        return self.atom(scope)

    def atom(self, scope):
        if self.accept("("):
            t = self.alternation(scope)
            self.expect(")")
            return t
        kind, value, pos = self.peek()
        if kind != "ident":
            raise self.found("expected a formula")
        self.pos += 1
        if value in ("empty", "all"):
            return OpApp(value)
        if value in ("up", "down", "kup", "kdown"):
            self.expect("(")
            t = self.alternation(scope)
            self.expect(")")
            return Term(value, None, (t,))
        if self.accept("("):  # operator application
            args = []
            if self.peek()[0] != ")":
                args.append(self.alternation(scope))
                while self.accept(","):
                    args.append(self.alternation(scope))
            self.expect(")")
            arity = self.binding.get(value)
            if arity is None:
                raise self.error("unknown operator %r" % (value,), pos)
            if arity != len(args):
                raise self.error("operator %r expects %s, got %d" % (
                    value, count(arity, "argument", "arguments"), len(args)), pos)
            return OpApp(value, args)
        if value in scope:
            return Var(value)
        arity = self.binding.get(value)
        if arity == 0:
            return OpApp(value)
        if arity is not None:
            raise self.error("operator %r expects %s" % (
                value, count(arity, "argument", "arguments")), pos)
        raise self.error("unknown identifier %r" % (value,), pos)


def parse_term(text: str, binding) -> Term:
    """Parse formula text against an operator arity table.

    `binding` maps operator names to arities (an AlgebraBinding works).
    """
    arities = binding.arities() if hasattr(binding, "arities") else dict(binding)
    t = Parser(text, frozenset("|&!().,"), TermError, arities).parse()
    t = rename_binders(t, set(free_vars(t)))
    check_parity(t)
    return t


def _operand_text(t: Term) -> str:
    """t's text as an operand of "|" or "&", where a binder's body, also
    under "!", would extend over the rest of the formula."""
    inner = t
    while inner.kind == "not":
        inner = inner.args[0]
    text = term_to_text(t)
    return "(%s)" % text if inner.kind in BINDERS else text


_INFIX = {"union": "|", "intersection": "&"}


def _subterms(t: Term):
    """t and its subterms in preorder, walked without recursion."""
    todo = [t]
    while todo:
        node = todo.pop()
        yield node
        todo += reversed(node.args)


@_refusing_deep
def term_to_text(t: Term) -> str:
    """The formula text of t.  A bound variable and a nullary operator
    print alike, and the parser reads a name in a binder's scope as its
    variable; so a binder whose body applies a nullary operator of its
    own name prints under a fresh name, and the text reads back as t up
    to binder names."""
    if t.kind in _INFIX:
        return "(%s %s %s)" % (_operand_text(t.args[0]), _INFIX[t.kind],
                               _operand_text(t.args[1]))
    if t.kind in BINDERS:
        body = t.args[0]
        nodes = list(_subterms(body))
        if OpApp(t.name) in nodes:
            fresh = _fresh(t.name, {node.name for node in nodes})
            t = Term(t.kind, fresh, (substitute(body, t.name, Var(fresh)),))
        return "%s %s. %s" % (t.kind, t.name, term_to_text(t.args[0]))
    args = [term_to_text(a) for a in t.args]
    if t.kind == "not":
        return "!" + args[0]
    if not args:  # a variable or a constant
        return t.name
    return "%s(%s)" % (t.name or t.kind, ", ".join(args))
