"""Compilers from verification questions into guarded fixpoint terms.

Each compiler binds its target regions as nullary constants of the
model's algebra and builds the corresponding term; goals whose answer
set is known not to be effectively computable are refused outright.
Dual goals (invariants, persistence, positive-probability) evaluate the
opposing player's term and complement once at top level, which keeps
every binder guarded and every bound variable complement-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import terms
from .engine import Limits, evaluate
from .errors import WsmcError
from .model import ConfigAlgebra, GlcsModel
from .regions import Region
from .terms import Intersection, Kdown, Mu, Not, Nu, OpApp, Term, Union, Up, Var


class CompileError(WsmcError):
    pass


class NonEffectiveGoalError(CompileError):
    """The requested set exists but cannot be computed; never approximate."""


_REFUSALS = {
    "forall-eventually":
        "inevitability (every run reaches the target): the satisfying set "
        "is not effectively computable for lossy channel systems",
    "exists-recurrent":
        "existential repeated reachability: membership is undecidable for "
        "lossy channel systems",
    "asym-reach-A":
        "asymmetric reachability for the perfect-stepping player: the "
        "winning region is not effectively computable",
}


def refuse_noneffective(goal: str):
    if goal not in _REFUSALS:
        raise CompileError("unknown non-effective goal %r" % (goal,))
    raise NonEffectiveGoalError("refusing %s: %s" % (goal, _REFUSALS[goal]))


@dataclass
class CompiledProperty:
    """A guarded term plus the algebra it is bound to.

    When `negate` is set the winning/satisfying set is the complement of
    the term's value (the term itself stays guarded).
    """

    name: str
    term: Term
    algebra: ConfigAlgebra
    negate: bool = False

    def run(self, limits: Optional[Limits] = None):
        value, stats = evaluate(self.term, {}, self.algebra, limits)
        if self.negate:
            value = self.algebra.space.complement(value)
        return value, stats


def _other(player: str) -> str:
    if player not in ("A", "B"):
        raise CompileError("player must be A or B, got %r" % (player,))
    return "B" if player == "A" else "A"


def _conf(player: str) -> Term:
    return OpApp("confA" if player == "A" else "confB")


def _require_game(model: GlcsModel):
    if not model.game_mode:
        raise CompileError("game properties need an owner-partitioned model")
    report = model.validate()
    if report:
        raise CompileError("model fails validation: " + "; ".join(report))


# -- temporal properties ------------------------------------------------

def compile_pre_star(model: GlcsModel, target: Region,
                     algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """Configurations from which the target is reachable:
    mu X. V | pre(up(X))."""
    algebra = algebra or model.algebra()
    v = algebra.bind_constant(target)
    term = Mu("X", Union(OpApp(v), OpApp("pre", (Up(Var("X")),))))
    return CompiledProperty("prestar", term, algebra)


def compile_forall_release(model: GlcsModel, hold: Region, release: Region,
                           algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """All runs keep `hold` until `release` (possibly forever):
    nu X. V2 & (wpre(kdown(X)) | V1)."""
    algebra = algebra or model.algebra()
    v1 = algebra.bind_constant(release, "R")
    v2 = algebra.bind_constant(hold, "H")
    term = Nu("X", Intersection(
        OpApp(v2),
        Union(OpApp("wpre", (Kdown(Var("X")),)), OpApp(v1))))
    return CompiledProperty("release", term, algebra)


# -- the existential CTL fragment ---------------------------------------

class CtlError(CompileError):
    pass


def parse_ctl(text: str):
    """Formulas over region atoms with !, &, EX, and E(_ U _)."""
    tokens = _ctl_tokenize(text)
    formula, rest = _ctl_parse(tokens, 0)
    if rest != len(tokens):
        raise CtlError("unexpected %r" % (tokens[rest],))
    return formula


def _ctl_tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "!&()":
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise CtlError("unexpected character %r" % (ch,))
    return out


def _ctl_parse(tokens, i):
    left, i = _ctl_unary(tokens, i)
    while i < len(tokens) and tokens[i] == "&":
        right, i = _ctl_unary(tokens, i + 1)
        left = ("and", left, right)
    return left, i


def _ctl_unary(tokens, i):
    if i >= len(tokens):
        raise CtlError("formula ended unexpectedly")
    tok = tokens[i]
    if tok == "!":
        child, i = _ctl_unary(tokens, i + 1)
        return ("not", child), i
    if tok == "EX":
        child, i = _ctl_unary(tokens, i + 1)
        return ("ex", child), i
    if tok == "E":
        if i + 1 >= len(tokens) or tokens[i + 1] != "(":
            raise CtlError("expected '(' after E")
        left, i = _ctl_parse(tokens, i + 2)
        if i >= len(tokens) or tokens[i] != "U":
            raise CtlError("expected 'U' in E(_ U _)")
        right, i = _ctl_parse(tokens, i + 1)
        if i >= len(tokens) or tokens[i] != ")":
            raise CtlError("expected ')' closing E(_ U _)")
        return ("eu", left, right), i + 1
    if tok == "(":
        inner, i = _ctl_parse(tokens, i + 1)
        if i >= len(tokens) or tokens[i] != ")":
            raise CtlError("expected ')'")
        return inner, i + 1
    if tok in ("AF", "AG", "EF", "EG", "A", "U"):
        if tok == "AF":
            refuse_noneffective("forall-eventually")
        raise CtlError("%r is outside the supported fragment "
                       "(atoms, !, &, EX, E(_ U _))" % (tok,))
    return ("atom", tok), i + 1


def eval_ctl(model: GlcsModel, text: str,
             limits: Optional[Limits] = None) -> Region:
    """Bottom-up evaluation plan for the fragment.

    Until goes through the release dual: the complement is applied only
    to fully evaluated subresults, never under a binder.
    """
    formula = parse_ctl(text)
    return _ctl_eval(model, formula, limits)


def _ctl_eval(model, formula, limits):
    kind = formula[0]
    space = model.space
    if kind == "atom":
        name = formula[1]
        if name == "all":
            return space.full()
        if name == "empty":
            return space.empty()
        if name in model.named_regions:
            return model.named_regions[name]
        raise CtlError("unknown region atom %r" % (name,))
    if kind == "not":
        return space.complement(_ctl_eval(model, formula[1], limits))
    if kind == "and":
        return space.intersection(_ctl_eval(model, formula[1], limits),
                                  _ctl_eval(model, formula[2], limits))
    if kind == "ex":
        return model.pre(_ctl_eval(model, formula[1], limits))
    if kind == "eu":
        hold = _ctl_eval(model, formula[1], limits)
        goal = _ctl_eval(model, formula[2], limits)
        dual = compile_forall_release(model, space.complement(goal),
                                      space.complement(hold))
        value, _ = dual.run(limits)
        return space.complement(value)
    raise CtlError("bad formula node %r" % (kind,))


# -- turn-based games ---------------------------------------------------

def _reach_body(player: str, target: Term, var: str) -> Term:
    """mu-body of the alternation-simplified reachability term:
    V | (confP & pre(up X)) | (confQ & wpre(V | pre(up X)))."""
    advance = OpApp("pre", (Up(Var(var)),))
    return Union(
        Union(target, Intersection(_conf(player), advance)),
        Intersection(_conf(_other(player)),
                     OpApp("wpre", (Union(target, advance),))))


def compile_game_reach(model: GlcsModel, player: str, target: Region,
                       algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    _require_game(model)
    algebra = algebra or model.algebra()
    v = algebra.bind_constant(target)
    term = Mu("X", _reach_body(player, OpApp(v), "X"))
    return CompiledProperty("game-reach", term, algebra)


def compile_game_invariant(model: GlcsModel, player: str, target: Region,
                           algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """Staying in V forever is the complement of the opponent reaching
    the complement of V."""
    _require_game(model)
    algebra = algebra or model.algebra()
    dual = compile_game_reach(model, _other(player),
                              algebra.space.complement(target), algebra)
    return CompiledProperty("game-inv", dual.term, algebra, negate=True)


def _buchi_term(player: str, target: Term) -> Term:
    """nu Y. reach(player, V & (phiP(Y) | phiQ(Y))) where the phis keep
    the play inside configurations from which Y survives one round."""
    phi_p = Intersection(
        _conf(player),
        OpApp("pre", (Up(OpApp("wpre", (Kdown(Var("Y")),))),)))
    phi_q = Intersection(_conf(_other(player)),
                         OpApp("wpre", (Kdown(Var("Y")),)))
    goal = Intersection(target, Union(phi_p, phi_q))
    return Nu("Y", Mu("X", _reach_body(player, goal, "X")))


def compile_game_buchi(model: GlcsModel, player: str, target: Region,
                       algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    _require_game(model)
    algebra = algebra or model.algebra()
    v = algebra.bind_constant(target)
    return CompiledProperty("game-buchi", _buchi_term(player, OpApp(v)), algebra)


def compile_game_persistence(model: GlcsModel, player: str, target: Region,
                             algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """Eventually-forever-in-V is the complement of the opponent's
    repeated-reachability of the complement of V."""
    _require_game(model)
    algebra = algebra or model.algebra()
    dual = compile_game_buchi(model, _other(player),
                              algebra.space.complement(target), algebra)
    return CompiledProperty("game-persist", dual.term, algebra, negate=True)


def compile_game(goal: str, model: GlcsModel, player: str,
                 target: Region) -> CompiledProperty:
    table = {"reach": compile_game_reach,
             "invariant": compile_game_invariant,
             "buchi": compile_game_buchi,
             "persistence": compile_game_persistence}
    if goal not in table:
        raise CompileError("unknown game goal %r" % (goal,))
    return table[goal](model, player, target)


# -- asymmetric games (only player B controls losses) -------------------

def compile_asym_reach_b(model: GlcsModel, target: Region,
                         algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """mu X. V | (confB & pre(up X)) | (confA & wprep(V | pre(up X)))."""
    _require_game(model)
    algebra = algebra or model.algebra()
    v = algebra.bind_constant(target)
    advance = OpApp("pre", (Up(Var("X")),))
    term = Mu("X", Union(
        Union(OpApp(v), Intersection(_conf("B"), advance)),
        Intersection(_conf("A"), OpApp("wprep", (Union(OpApp(v), advance),)))))
    return CompiledProperty("asym-reach-B", term, algebra)


def compile_asym_invariant_a(model: GlcsModel, target: Region,
                             algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    _require_game(model)
    algebra = algebra or model.algebra()
    dual = compile_asym_reach_b(model, algebra.space.complement(target), algebra)
    return CompiledProperty("asym-inv-A", dual.term, algebra, negate=True)


def compile_asym_game(goal: str, model: GlcsModel, player: str,
                      target: Region) -> CompiledProperty:
    if goal == "reach":
        if player == "A":
            refuse_noneffective("asym-reach-A")
        return compile_asym_reach_b(model, target)
    if goal == "invariant":
        if player == "B":
            # dual of the refused goal, equally non-effective
            refuse_noneffective("asym-reach-A")
        return compile_asym_invariant_a(model, target)
    raise CompileError("unknown asymmetric goal %r" % (goal,))


# -- qualitative probabilistic games ------------------------------------

def _prob_reach_term(player: str, target: Term) -> Term:
    """nu Y. mu X. V | (confP & prep(up X & kdown Y))
                    | (confQ & wprep(up X & kdown Y))."""
    retry = Intersection(Up(Var("X")), Kdown(Var("Y")))
    body = Union(
        Union(target, Intersection(_conf(player), OpApp("prep", (retry,)))),
        Intersection(_conf(_other(player)), OpApp("wprep", (retry,))))
    return Nu("Y", Mu("X", body))


def _prob_invariant_term(player: str, target: Term) -> Term:
    """nu X. V & ((confP & prep(kdown X)) | (confQ & wpre(kdown X)))."""
    body = Intersection(target, Union(
        Intersection(_conf(player), OpApp("prep", (Kdown(Var("X")),))),
        Intersection(_conf(_other(player)), OpApp("wpre", (Kdown(Var("X")),)))))
    return Nu("X", body)


def compile_prob_game(goal: str, model: GlcsModel, player: str,
                      target: Region,
                      algebra: Optional[ConfigAlgebra] = None) -> CompiledProperty:
    """Almost-sure and positive-probability reachability/invariance.

    The >0 goals come from determinacy: they are complements of the
    opponent's almost-sure goal on the complemented target.
    """
    _require_game(model)
    algebra = algebra or model.algebra()
    if goal == "reach_eq1":
        v = algebra.bind_constant(target)
        return CompiledProperty("prob-reach-1", _prob_reach_term(player, OpApp(v)),
                                algebra)
    if goal == "invariant_eq1":
        v = algebra.bind_constant(target)
        return CompiledProperty("prob-inv-1", _prob_invariant_term(player, OpApp(v)),
                                algebra)
    if goal == "reach_pos":
        dual = compile_prob_game("invariant_eq1", model, _other(player),
                                 algebra.space.complement(target), algebra)
        return CompiledProperty("prob-reach-pos", dual.term, algebra, negate=True)
    if goal == "invariant_pos":
        dual = compile_prob_game("reach_eq1", model, _other(player),
                                 algebra.space.complement(target), algebra)
        return CompiledProperty("prob-inv-pos", dual.term, algebra, negate=True)
    raise CompileError("unknown probabilistic goal %r" % (goal,))
