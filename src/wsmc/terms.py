"""Fixpoint terms: abstract syntax, parsing, guardedness, unfolding.

A term is one node type, `Term(kind, name, args)`.  The kind is one of
"var", "opapp" (a named monotonic operator), "union", "intersection",
"not", the closures "up" and "down", the kernels "kup" and "kdown", and
the binders "mu" and "nu"; the name is the variable, operator or binder
name (None for the other kinds); the args are the children.  `Var`,
`OpApp`, `Union`, ... `Nu` build one node each.  A Term is a value (see
values.Value).  Parsing freshens binder
names so no two binders share a name and no name is both bound and free.
Bound variables must sit under an even number of complements; mu-bound
variables must be upward-guarded and nu-bound ones downward-guarded for
the iterative evaluator to be guaranteed to stop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import WsmcError
from .values import Value


class TermError(WsmcError):
    pass


# kind -> number of children; None for any number
_ARITY = {"var": 0, "opapp": None, "union": 2, "intersection": 2, "not": 1,
         "up": 1, "down": 1, "kup": 1, "kdown": 1, "mu": 1, "nu": 1}
BINDERS = ("mu", "nu")


class Term(Value):
    __slots__ = _fields = ("kind", "name", "args")

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
    if t.kind == "var":
        return {t.name}
    out = set().union(*map(free_vars, t.args))
    return out - {t.name} if t.kind in BINDERS else out


def bound_vars(t: Term) -> List[str]:
    out = [t.name] if t.kind in BINDERS else []
    for c in t.args:
        out.extend(bound_vars(c))
    return out


def _fresh(name: str, taken) -> str:
    """name, or the first of name_1, name_2, ... that is not taken."""
    fresh, i = name, 0
    while fresh in taken:
        i += 1
        fresh = "%s_%d" % (name, i)
    return fresh


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


def unfold(t: Term, binder: str) -> Term:
    """Unfold the named mu/nu subterm once: mu X.phi(X) -> mu X.phi(phi(X))."""
    found = [False]

    def walk(node):
        if node.kind in BINDERS and node.name == binder:
            found[0] = True
            body = node.args[0]
            return Term(node.kind, node.name, (substitute(body, binder, body),))
        return Term(node.kind, node.name, tuple(map(walk, node.args)))

    out = walk(t)
    if not found[0]:
        raise TermError("no binder named %r" % (binder,))
    return out


# -- well-formedness checks --------------------------------------------

def check_parity(t: Term):
    """Every bound variable must occur under an even number of complements
    between its binder and the occurrence."""

    def walk(node, depth, bound):
        if node.kind == "var":
            if node.name in bound and (depth - bound[node.name]) % 2 != 0:
                raise TermError(
                    "bound variable %r occurs under an odd number of complements"
                    % (node.name,))
        elif node.kind == "not":
            depth += 1
        elif node.kind in BINDERS:
            bound = {**bound, node.name: depth}
        for c in node.args:
            walk(c, depth, bound)

    walk(t, 0, {})


# binder kind -> the kinds that guard its variable
_GUARDS = {"mu": ("up", "kup"), "nu": ("down", "kdown")}


def check_guarded(t: Term) -> List[Tuple[str, str]]:
    """Report unguarded binders as (binder name, occurrence path) pairs.

    A mu-binder needs every free occurrence of its variable inside some
    up-closure or up-kernel subterm of the body; nu dually with the
    downward operators.  Empty report means the term is guarded.
    """
    offenders = []

    def walk(node):
        if node.kind in BINDERS:
            _scan(node.args[0], node.name, _GUARDS[node.kind], "")
        for c in node.args:
            walk(c)

    def _scan(node, name, guards, path):
        if node.kind in guards:
            return  # every occurrence below is guarded
        if node.kind == "var":
            if node.name == name:
                offenders.append((name, path or "."))
            return
        if node.kind in BINDERS and node.name == name:
            return
        for i, c in enumerate(node.args):
            _scan(c, name, guards, "%s/%s[%d]" % (path, node.kind, i))

    walk(t)
    return offenders


# -- concrete syntax ---------------------------------------------------

KEYWORDS = {"mu", "nu", "up", "down", "kup", "kdown", "empty", "all"}
# the words of a CTL formula (compilers.parse_ctl), which no atom may be,
# and its punctuation
CTL_KEYWORDS = {"E", "EX", "U", "A", "AF", "AG", "EF", "EG"}
CTL_PUNCTUATION = frozenset("!&()")


def tokenize(text: str, punctuation, error):
    """The tokens (kind, value, position) of text, then the end token
    (None, None, len(text)).  A token of the collection punctuation, of
    one or two characters, is its own kind and value; an identifier of
    letters, digits and `_` has kind "ident".  Any other character raises
    error(message, position), which names the token it may begin."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        pair = text[i:i + 2]
        tok = pair if pair in punctuation else text[i]
        if tok.isspace():
            i += 1
        elif tok in punctuation:
            tokens.append((tok, tok, i))
            i += len(tok)
        elif tok.isalnum() or tok == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            longer = [p for p in punctuation if p[0] == tok]
            raise error("expected %r" % longer[0] if longer
                        else "unexpected character %r" % tok, i)
    tokens.append((None, None, n))
    return tokens


def error_at_position(cls):
    """The error callable of tokenize for formulas and CTL, whose
    messages end in "at position N"."""
    return lambda message, position: cls("%s at position %d" % (message, position))


def found(tok) -> str:
    """What an error message says about the unexpected token tok, which
    may be the end token."""
    what = "end of formula" if tok[0] is None else repr(tok[1])
    return "found %s at position %d" % (what, tok[2])


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
        self.error = error_at_position(TermError)

    def peek(self):
        return self.tokens[self.pos]

    def expect(self, kind, what=None):  # what names the kind in the error
        tok = self.peek()
        if tok[0] != kind:
            raise TermError("expected %s, %s" % (what or repr(kind), found(tok)))
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
        if kind == "ident" and value in BINDERS:
            self.pos += 1
            _, var, var_pos = self.expect("ident", "a variable after %r" % (value,))
            if var in KEYWORDS:
                raise self.error("%r cannot be a variable name" % (var,), var_pos)
            self.expect(".")
            return Term(value, var, (self.alternation(scope | {var}),))
        return self.atom(scope)

    def atom(self, scope):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "(":
            self.pos += 1
            t = self.alternation(scope)
            self.expect(")")
            return t
        if kind != "ident":
            raise TermError("expected a formula, %s" % found(tok))
        self.pos += 1
        if value in ("empty", "all"):
            return OpApp(value)
        if value in ("up", "down", "kup", "kdown"):
            self.expect("(")
            t = self.alternation(scope)
            self.expect(")")
            return Term(value, None, (t,))
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
        if self.free_ok:
            return Var(value)
        raise self.error("unknown identifier %r" % (value,), pos)


def parse_term(text: str, binding, free_ok: bool = False) -> Term:
    """Parse formula text against an operator arity table.

    `binding` maps operator names to arities (an AlgebraBinding works).
    With `free_ok`, unknown identifiers become free variables.
    """
    if not text.strip():
        raise TermError("empty formula")
    arities = binding.arities() if hasattr(binding, "arities") else dict(binding)
    tokens = tokenize(text, frozenset("|&!().,"), error_at_position(TermError))
    t = _Parser(tokens, arities, free_ok).parse(frozenset())
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
    yield t
    for c in t.args:
        yield from _subterms(c)


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
