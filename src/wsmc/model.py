"""Channel-system models with regular guards and their step operators.

A model is a finite set of locations (optionally owned by player A or
B), FIFO channels over a message alphabet, and transition rules that
send, receive, or do nothing, each optionally guarded by a region
evaluated on the pre-step configuration.  Message losses shrink channel
contents to arbitrary subwords after each perfect step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import automata, regexes, terms
from .automata import Alphabet, AutomatonError, Nfa, Word
from .engine import AlgebraBinding
from .errors import WsmcError
from .regions import Config, Product, Region, RegionSpace, Signature

SEND, RECV, INTERNAL = "send", "recv", "internal"
PERFECT, LOSSY = "perfect", "lossy"

# the built-in operators of a model's algebra: name -> (arity, function
# of the model and the arguments); pre/wpre/post step lossily, their
# "p" forms perfectly, and confA/confB are the owners' locations
STEP_OPERATORS = {
    "pre": (1, lambda m, r: m.pre(r, LOSSY)),
    "prep": (1, lambda m, r: m.pre(r, PERFECT)),
    "wpre": (1, lambda m, r: m.wpre(r, LOSSY)),
    "wprep": (1, lambda m, r: m.wpre(r, PERFECT)),
    "post": (1, lambda m, r: m.post(r, LOSSY)),
    "postp": (1, lambda m, r: m.post(r, PERFECT)),
    "confA": (0, lambda m: m.space.location_region(m.player_locations("A"))),
    "confB": (0, lambda m: m.space.location_region(m.player_locations("B"))),
}

# names a formula already gives a meaning to, so no region may take them
RESERVED_NAMES = terms.KEYWORDS | set(STEP_OPERATORS)


class ModelError(WsmcError):
    pass


@dataclass(frozen=True)
class Rule:
    source: str
    target: str
    kind: str  # send | recv | internal
    channel: Optional[str] = None
    symbol: Optional[str] = None
    guard: Optional[Region] = None

    def describe(self) -> str:
        if self.kind == SEND:
            op = "%s!%s" % (self.channel, self.symbol)
        elif self.kind == RECV:
            op = "%s?%s" % (self.channel, self.symbol)
        else:
            op = "nop"
        return "%s -> %s : %s" % (self.source, self.target, op)


class GlcsModel:
    def __init__(self, alphabet: Alphabet, channels: Tuple[str, ...],
                 locations: Tuple[str, ...], owners: Dict[str, Optional[str]],
                 rules: Tuple[Rule, ...],
                 named_regions: Optional[Dict[str, Region]] = None):
        self.signature = Signature(alphabet, channels, locations)
        self.space = RegionSpace(self.signature)
        self.owners = dict(owners)
        self.named_regions = dict(named_regions or {})
        self._set_rules(rules)

    def _set_rules(self, rules: Tuple[Rule, ...]):
        """Check and install the rules; this empties the step memo, which
        maps (operator, mode, normal region) to the operator's result."""
        for rule in rules:
            for loc in (rule.source, rule.target):
                if loc not in self.locations:
                    raise ModelError("rule endpoint %r is not a location" % (loc,))
            if rule.kind in (SEND, RECV):
                if rule.channel not in self.channels:
                    raise ModelError("rule channel %r not declared" % (rule.channel,))
                if rule.symbol not in self.alphabet:
                    raise ModelError("rule symbol %r not in alphabet" % (rule.symbol,))
        self.rules = tuple(rules)
        self._steps: Dict[Tuple[str, str, Region], Region] = {}

    @property
    def alphabet(self) -> Alphabet:
        return self.signature.alphabet

    @property
    def channels(self) -> Tuple[str, ...]:
        return self.signature.channels

    @property
    def locations(self) -> Tuple[str, ...]:
        return self.signature.locations

    @property
    def game_mode(self) -> bool:
        return any(owner is not None for owner in self.owners.values())

    def player_locations(self, player: str) -> Tuple[str, ...]:
        return tuple(q for q in self.locations if self.owners.get(q) == player)

    # -- structural validation ------------------------------------------

    def validate(self) -> List[str]:
        """Check the no-deadlock restriction and, in game mode, strict
        alternation of ownership along every rule."""
        report = []
        for loc in self.locations:
            outgoing = [r for r in self.rules if r.source == loc]
            if not any(r.kind != RECV for r in outgoing):
                report.append(
                    "location %s has no outgoing non-receiving rule (deadlock risk)"
                    % loc)
        if self.game_mode:
            unowned = [q for q in self.locations if self.owners.get(q) is None]
            for q in unowned:
                report.append("location %s has no owner in a game-mode model" % q)
            for r in self.rules:
                src, tgt = self.owners.get(r.source), self.owners.get(r.target)
                if src is not None and tgt is not None and src == tgt:
                    report.append("rule %s does not alternate players"
                                  % r.describe())
        return report

    # -- symbolic step operators ----------------------------------------

    def pre_perf_rule(self, rule: Rule, region: Region) -> Region:
        """Weakest perfect-step predecessor through one rule, not normalized."""
        out = []
        for p in region.summands:
            if p.location != rule.target:
                continue
            langs = list(p.channel_langs)
            if rule.kind != INTERNAL:
                i = self.channels.index(rule.channel)
                m = Nfa.symbol(self.alphabet, rule.symbol)
                if rule.kind == RECV:
                    langs[i] = automata.concat(m, langs[i])
                else:
                    langs[i] = automata.right_residual(langs[i], m)
            out.append(Product(rule.source, tuple(langs)))
        result = Region(tuple(out))
        if rule.guard is not None:
            result = self.space.meet(rule.guard, result)
        return result

    def pre_perf(self, region: Region) -> Region:
        """Union over all rules, normalized once."""
        summands = []
        for rule in self.rules:
            summands.extend(self.pre_perf_rule(rule, region).summands)
        return self.space.normalize(Region(tuple(summands)))

    def pre(self, region: Region, mode: str = LOSSY) -> Region:
        """Predecessors, memoized per (mode, normal form of region)."""
        region = self.space.normalize(region)
        key = ("pre", mode, region)
        if key not in self._steps:
            if mode == LOSSY:
                self._steps[key] = self.pre_perf(self.space.up_closure(region))
            elif mode == PERFECT:
                self._steps[key] = self.pre_perf(region)
            else:
                raise ModelError("unknown step mode %r" % (mode,))
        return self._steps[key]

    def wpre(self, region: Region, mode: str = LOSSY) -> Region:
        return self.space.complement(self.pre(self.space.complement(region), mode))

    def post_perf_rule(self, rule: Rule, region: Region) -> Region:
        """Strongest perfect-step successor through one rule, not normalized."""
        if rule.guard is not None:
            region = self.space.meet(rule.guard, region)
        out = []
        for p in region.summands:
            if p.location != rule.source:
                continue
            langs = list(p.channel_langs)
            if rule.kind != INTERNAL:
                i = self.channels.index(rule.channel)
                m = Nfa.symbol(self.alphabet, rule.symbol)
                if rule.kind == SEND:
                    langs[i] = automata.concat(langs[i], m)
                else:
                    langs[i] = automata.left_residual(m, langs[i])
            out.append(Product(rule.target, tuple(langs)))
        return Region(tuple(out))

    def post_perf(self, region: Region) -> Region:
        """Union over all rules, normalized once."""
        summands = []
        for rule in self.rules:
            summands.extend(self.post_perf_rule(rule, region).summands)
        return self.space.normalize(Region(tuple(summands)))

    def post(self, region: Region, mode: str = LOSSY) -> Region:
        """Successors, memoized per (mode, normal form of region)."""
        region = self.space.normalize(region)
        key = ("post", mode, region)
        if key not in self._steps:
            if mode == LOSSY:
                self._steps[key] = self.space.down_closure(self.post_perf(region))
            elif mode == PERFECT:
                self._steps[key] = self.post_perf(region)
            else:
                raise ModelError("unknown step mode %r" % (mode,))
        return self._steps[key]

    # -- the configuration algebra for the fixpoint engine ---------------

    def algebra(self) -> "ConfigAlgebra":
        return ConfigAlgebra(self)


class ConfigAlgebra(AlgebraBinding):
    """Region algebra of one model: the operator table over `model.space`.

    Operator names: those of STEP_OPERATORS, plus the model's named
    regions and any constants bound by a compiler.
    """

    def __init__(self, model: GlcsModel):
        super().__init__(model.space)
        self.model = model
        for name, (arity, fn) in STEP_OPERATORS.items():
            self.add_operator(name, arity, functools.partial(fn, model))
        for name, region in model.named_regions.items():
            self.add_operator(name, 0, lambda region=region: region)
        self._fresh = 0
        self.constants: Dict[str, Region] = {}

    def bind_constant(self, region: Region, hint: str = "V") -> str:
        name = "_%s%d" % (hint, self._fresh)
        self._fresh += 1
        self.add_operator(name, 0, lambda region=region: region)
        self.constants[name] = region
        return name

    def size(self, a):
        return sum(lang.n_states for p in a.summands for lang in p.channel_langs)


# -- text formats ------------------------------------------------------

def parse_word(text: str, alphabet: Alphabet) -> Word:
    """A channel word: whitespace-separated symbols, each token split
    greedily into alphabet symbols (so "ab" over {a,b} is the word ab)."""
    out = []
    for token in text.split():
        out.extend(regexes._split_symbols(token, alphabet, 0))
    return tuple(out)


def parse_config(text: str, model: GlcsModel) -> Config:
    """Config text: "location : word, word, ..." with one word per channel."""
    if ":" in text:
        loc, _, rest = text.partition(":")
        parts = rest.split(",")
    else:
        loc, parts = text, []
    loc = loc.strip()
    if loc not in model.locations:
        raise ModelError("unknown location %r" % (loc,))
    if len(model.channels) == 0 and all(not p.strip() for p in parts):
        parts = []
    while len(parts) < len(model.channels):
        parts.append("")
    if len(parts) != len(model.channels):
        raise ModelError("expected %d channel words, got %d"
                         % (len(model.channels), len(parts)))
    return Config(loc, tuple(parse_word(p, model.alphabet) for p in parts))


def parse_region_text(text: str, model: GlcsModel) -> Region:
    """Region expressions: "{}" or atoms "(loc; regex; ...)" joined by "+";
    a bare identifier references a named region of the model."""
    text = text.strip()
    if text == "{}":
        return model.space.empty()
    summands = []
    for atom in _split_region_atoms(text):
        summands.extend(_parse_region_atom(atom, model).summands)
    return model.space.normalize(Region(tuple(summands)))


def _split_region_atoms(text: str) -> List[str]:
    atoms = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ModelError("unbalanced parentheses in region expression")
        if ch == "+" and depth == 0:
            atoms.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ModelError("unbalanced parentheses in region expression")
    atoms.append("".join(current))
    return [a.strip() for a in atoms if a.strip()]


def _parse_region_atom(atom: str, model: GlcsModel) -> Region:
    if not atom.startswith("("):
        if atom in model.named_regions:
            return model.named_regions[atom]
        raise ModelError("unknown named region %r" % (atom,))
    if not atom.endswith(")"):
        raise ModelError("malformed region atom %r" % (atom,))
    fields = atom[1:-1].split(";")
    loc = fields[0].strip()
    if loc not in model.locations:
        raise ModelError("unknown location %r" % (loc,))
    patterns = [f.strip() for f in fields[1:]]
    if len(patterns) != len(model.channels):
        raise ModelError("region atom %r needs %d channel languages"
                         % (atom, len(model.channels)))
    langs = tuple(regexes.compile_regex(p, model.alphabet) for p in patterns)
    return model.space.atom(loc, langs)


def region_to_text(region: Region, model: GlcsModel) -> str:
    """Normalized sum-of-products with per-channel minimal-DFA regexes."""
    region = model.space.normalize(region)
    if not region.summands:
        return "{}"
    atoms = []
    for p in region.summands:
        fields = [p.location] + [regexes.nfa_to_regex(lang) for lang in p.channel_langs]
        atoms.append("(%s)" % "; ".join(fields))
    return " + ".join(atoms)


def parse_model(text: str, name: str = "<model>") -> GlcsModel:
    """Line-oriented model files; see the bundled models for examples."""
    alphabet = None
    channels: Tuple[str, ...] = ()
    locations: List[str] = []
    owners: Dict[str, Optional[str]] = {}
    pending_regions: List[Tuple[int, str, str]] = []
    pending_rules: List[Tuple[int, str]] = []
    saw_channels = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("alphabet:"):
                alphabet = Alphabet(tuple(line[len("alphabet:"):].split()))
            elif line.startswith("channels:"):
                channels = tuple(line[len("channels:"):].split())
                for i, chan in enumerate(channels):
                    if chan in channels[:i]:
                        raise ModelError("duplicate channel %r" % (chan,))
                saw_channels = True
            elif line.startswith("locations:"):
                for item in line[len("locations:"):].split():
                    loc, owner = item, None
                    if item.endswith("]") and "[" in item:
                        loc, _, owner = item[:-1].partition("[")
                        if owner not in ("A", "B"):
                            raise ModelError("owner must be A or B, got %r" % owner)
                    if loc in owners:
                        raise ModelError("duplicate location %r" % (loc,))
                    locations.append(loc)
                    owners[loc] = owner
            elif line.startswith("region "):
                name_part, _, expr = line[len("region "):].partition("=")
                rname = name_part.strip()
                if rname in RESERVED_NAMES:
                    raise ModelError("region name %r is reserved" % (rname,))
                for first, earlier, _ in pending_regions:
                    if earlier == rname:
                        raise ModelError("duplicate region %r (first declared on "
                                         "line %d)" % (rname, first))
                pending_regions.append((lineno, rname, expr.strip()))
            elif line.startswith("rule "):
                pending_rules.append((lineno, line[len("rule "):]))
            else:
                raise ModelError("unrecognized line")
        except (ModelError, AutomatonError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))

    if alphabet is None:
        raise ModelError("%s: missing alphabet declaration" % name)
    if not locations:
        raise ModelError("%s: missing locations declaration" % name)
    if not saw_channels:
        channels = ()

    model = GlcsModel(alphabet, channels, tuple(locations), owners, ())
    for lineno, rname, expr in pending_regions:
        try:
            model.named_regions[rname] = parse_region_text(expr, model)
        except (ModelError, regexes.RegexError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))
    rules = []
    for lineno, body in pending_rules:
        try:
            rules.append(_parse_rule(body, model))
        except (ModelError, regexes.RegexError) as exc:
            raise ModelError("%s:%d: %s" % (name, lineno, exc))
    # one model, so the regions normalized while parsing stay in its memo
    model._set_rules(tuple(rules))
    return model


def _parse_rule(body: str, model: GlcsModel) -> Rule:
    head, _, opspec = body.partition(":")
    src, arrow, tgt = head.partition("->")
    if not arrow:
        raise ModelError("rule needs 'src -> tgt : op'")
    src, tgt = src.strip(), tgt.strip()
    opspec = opspec.strip()
    guard = None
    if " guard " in opspec:
        opspec, _, guard_text = opspec.partition(" guard ")
        opspec = opspec.strip()
        guard = parse_region_text(guard_text.strip(), model)
    if opspec == "nop":
        return Rule(src, tgt, INTERNAL, guard=guard)
    for sep, kind in (("!", SEND), ("?", RECV)):
        if sep in opspec:
            chan, _, sym = opspec.partition(sep)
            return Rule(src, tgt, kind, chan.strip(), sym.strip(), guard)
    raise ModelError("unrecognized rule operation %r" % (opspec,))


def load_model(path: str) -> GlcsModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read(), name=path)
