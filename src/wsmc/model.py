"""Channel-system models with regular guards and their step operators.

A model is a finite set of locations (optionally owned by player A or
B), FIFO channels over a message alphabet, and transition rules that
send, receive, or do nothing, each optionally guarded by a region
evaluated on the pre-step configuration.  Message losses shrink channel
contents to arbitrary subwords after each perfect step.  A perfect step
through a rule is a block edit of a region's slice, which the region
space memoizes.  One loop (GlcsModel._step) unions the perfect steps of
a region in both directions: each target slice edited backward once per
group of unguarded rules with that target and edit (pre, wpre), or each
source slice forward (post; _grouped).  It is memoized per model on the
region's slices; new rules start new memos.  An owner's step, such as
preA = confA & pre, steps only through the rules from the owner's
locations, and its wpre complements only there.

A lossy pre steps only upward-closed slices L, where the steps of rules
between two locations nest: a receive gives a subset of L, a nop L, a
send a superset, and a guard only shrinks a step.  So the lossy pre
skips the rules an unguarded rule between the same locations covers
(_uncovered); perfect steps keep every rule.

A model file's lines, region text and configurations are read by
_Reader through terms.Cursor, the one token cursor of every syntax.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

from . import automata, regexes, terms
from .automata import Alphabet, Nfa, Word
from .engine import AlgebraBinding
from .errors import WsmcError
from .regions import Config, Region, RegionSpace, Signature
from .values import Value

SEND, RECV, INTERNAL = "send", "recv", "internal"
PERFECT, LOSSY = "perfect", "lossy"
PRE, POST = "pre", "post"  # the two directions of a step

# the built-in operators of a model's algebra: name -> (arity, function
# of the model and the arguments); pre/wpre/post step lossily, their
# "p" forms perfectly, confA/confB are the owners' locations, and an
# owner's step, such as wprepB = confB & wprep, steps from its locations
STEP_OPERATORS = {
    **{step + p + (owner or ""): (1, lambda m, r, step=step, mode=mode, owner=owner:
                                 getattr(m, step)(r, mode, owner))
       for step in ("pre", "wpre") for p, mode in (("", LOSSY), ("p", PERFECT))
       for owner in (None, "A", "B")},
    "post": (1, lambda m, r: m.post(r, LOSSY)),
    "postp": (1, lambda m, r: m.post(r, PERFECT)),
    "confA": (0, lambda m: m.space.location_region(m.player_locations("A"))),
    "confB": (0, lambda m: m.space.location_region(m.player_locations("B"))),
}

# names a formula already gives a meaning to, so no region may take them
RESERVED_NAMES = terms.KEYWORDS | terms.CTL_KEYWORDS | set(STEP_OPERATORS)


class ModelError(WsmcError):
    pass


class Rule(Value):
    __slots__ = _fields = ("source", "target", "kind", "channel", "symbol", "guard")

    def __init__(self, source: str, target: str, kind: str,
                 channel: Optional[str] = None, symbol: Optional[str] = None,
                 guard: Optional[Region] = None):
        self.source = source
        self.target = target
        self.kind = kind  # send | recv | internal
        self.channel = channel
        self.symbol = symbol
        self.guard = guard

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
        # the declaration rules of parse_model, so region text reads back
        _identifiers("symbol", alphabet.symbols)
        for owner in owners.values():
            _owner(owner)
        self.signature = Signature(alphabet, _identifiers("channel", channels),
                                   _identifiers("location", locations))
        self.space = RegionSpace(self.signature)
        self.owners = dict(owners)
        self.named_regions = dict(named_regions or {})
        self._set_rules(tuple(map(self._check_rule, rules)))

    def _set_rules(self, rules: Tuple[Rule, ...]):
        """Install rules that _check_rule, or the reader of parse_model, passed."""
        self.rules = rules
        self._lossy_rules = _uncovered(self.rules)
        self._steps = {(PRE, mode, owner): _grouped(PRE, tuple(  # from owner's locations
            rule for rule in mode_rules if owner in (None, self.owners.get(rule.source))))
            for mode, mode_rules in ((PERFECT, rules), (LOSSY, self._lossy_rules))
            for owner in (None, "A", "B")}
        self._steps[POST, PERFECT, None] = _grouped(POST, rules)
        self._memos = {(direction, owner): {} for direction, _, owner in self._steps}

    def _check_rule(self, rule: Rule) -> Rule:
        """rule, once its names and guard are checked against the model."""
        for loc in (rule.source, rule.target):
            if loc not in self.locations:
                raise ModelError("rule endpoint %r is not a location" % (loc,))
        if rule.kind in (SEND, RECV):
            if rule.channel not in self.channels:
                raise ModelError("rule channel %r not declared" % (rule.channel,))
            if rule.symbol not in self.alphabet:
                raise ModelError("rule symbol %r not in alphabet" % (rule.symbol,))
        if rule.guard is not None and rule.guard.signature != self.signature:
            raise ModelError("rule %s: guard of another signature" % rule.describe())
        return rule

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
        """Weakest perfect-step predecessor through one rule: the slice at
        the rule's target with the rule's channel block edited (a receive
        prepends its symbol, a send drops it from the end), met with the
        guard."""
        step = self.space.edit(region, rule.target, rule.source,
                               _EDITS[PRE].get(rule.kind), rule.channel, rule.symbol)
        return step if rule.guard is None else self.space.intersection(rule.guard, step)

    def pre_perf(self, region: Region) -> Region:
        """Union over the rules into the locations of region."""
        return self._step(PRE, PERFECT, None, region)

    def _step(self, direction: str, mode: str, owner: Optional[str],
              region: Region) -> Region:
        """The union of region's perfect-step predecessors (PRE) or
        successors (POST) through the mode's rules from owner's locations
        (all if owner is None; see _grouped).  Memoized per direction and
        owner on the region's slices, as nested binders and later queries
        step equal approximants again: a lossy pre steps only
        upward-closed regions, where its rules give the perfect step."""
        memo, key = self._memos[direction, owner], self.space.normalize(region).slices
        result = memo.get(key)
        if result is None:
            (groups, guarded), slices = self._steps[direction, mode, owner], []
            for anchor, enc in region.slices:
                for edit, ends in groups.get(anchor, {}).items():
                    stepped = self.space.edited(enc, *edit)
                    if stepped.accepting:
                        slices += [(end, stepped) for end in ends]
            through = self.pre_perf_rule if direction == PRE else self.post_perf_rule
            for rule in guarded:
                slices += through(rule, region).slices
            result = memo[key] = self.space.union_of(slices)
        return result

    def pre(self, region: Region, mode: str = LOSSY, owner: Optional[str] = None) -> Region:
        """Predecessors: the perfect ones of region or, when lossy, of its
        upward closure, to which covered rules add nothing.  Given an
        owner, only those at its locations: confA & pre for "A"."""
        _owner(owner)
        return self._step(PRE, mode, owner, self.space.up_closure(region)
                          if _lossy(mode) else region)

    def wpre(self, region: Region, mode: str = LOSSY, owner: Optional[str] = None) -> Region:
        """The complement of pre of the complement; given an owner, its
        locations without pre(complement, mode, owner)."""
        step = self.pre(self.space.complement(region), mode, owner)
        return self.space.complement(step) if owner is None else self.space.difference(
            self.space.location_region(self.player_locations(owner)), step)

    def post_perf_rule(self, rule: Rule, region: Region) -> Region:
        """Strongest perfect-step successor through one rule: the slice at
        the rule's source met with the guard, with the rule's channel
        block edited (a send appends its symbol, a receive drops it from
        the start)."""
        if rule.guard is not None:
            region = self.space.intersection(rule.guard, region)
        return self.space.edit(region, rule.source, rule.target,
                               _EDITS[POST].get(rule.kind), rule.channel, rule.symbol)

    def post(self, region: Region, mode: str = LOSSY) -> Region:
        """Successors: the perfect ones of region, closed downward when
        lossy."""
        lossy = _lossy(mode)
        step = self._step(POST, PERFECT, None, region)
        return self.space.down_closure(step) if lossy else step

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
            self.add_operator(_region_name(name), 0, lambda region=region: region)
        self._fresh = 0
        self.constants: Dict[str, Region] = {}

    def bind_constant(self, region: Region) -> str:
        name = "_V%d" % self._fresh
        self._fresh += 1
        self.add_operator(name, 0, lambda region=region: region)
        self.constants[name] = region
        return name

    def size(self, a):
        """States of the minimal encoding DFAs, summed over locations."""
        return sum(enc.n_states for _, enc in a.slices)


# -- text formats ------------------------------------------------------

_PUNCTUATION = frozenset({*"+();|*?.~:,!=[]", "{}", "->"})
# the keywords of a model file's declaration lines -> the kind of name each declares
_DECLARES = {"alphabet": "symbol", "channels": "channel", "locations": "location"}
# (a channel pattern's tokens, alphabet) -> its canonical form; models repeat
# their patterns across regions and guards
_PATTERNS: Dict[tuple, Nfa] = {}


class _Reader(regexes.RegexParser):
    """A model file's lines, region text and configurations, with
    ModelErrors at their position in text; a pattern is a regex, and a
    word is identifiers split into symbols:

        line   ::= "alphabet" ":" symbol+ | "channels" ":" channel*
                 | "locations" ":" (location ["[" ("A" | "B") "]"])*
                 | "region" name "=" region | "rule" rule
        region ::= "{}" | part ("+" part)*
        part   ::= NAME | "(" location (";" pattern)* ")"
        config ::= location [":" word ("," word)*]   (missing words are empty)
        rule   ::= location "->" location ":" (channel ("!" | "?") symbol | "nop")
                   ["guard" region]

    A line declares the names it lists; its reader reads a region or
    rule on once the file's declarations give its model (parse_model).
    """

    def __init__(self, text: str, where: str = ""):  # where: "file:line: "
        super().__init__(text, _PUNCTUATION, lambda msg: ModelError(where + msg), None)

    def read_in(self, model: GlcsModel, grammar):
        """grammar's reading of the rest of the text over model."""
        self.model, self.alphabet = model, model.alphabet
        return self.read(grammar)

    def name(self, names, message: str) -> str:
        """The next identifier, in names; any other token names ''."""
        kind, value, pos = self.peek()
        value = value if kind == "ident" else ""
        if value not in names:
            raise self.error(message % (value,), pos)
        self.pos += 1
        return value

    def line(self, lineno: int, declared: Dict[str, tuple]):
        """A model file's line into declared[keyword] = (the keyword's
        first line, entries): a declaration's names as {name: owner}, a
        region's reader as {name: (line, reader)}, or a rule's as
        {line: reader}."""
        _, keyword, pos = self.peek()
        if keyword not in declared:
            raise self.found("unrecognized line")
        self.pos += 1
        first, names = declared[keyword]
        if first and keyword in ("alphabet", "channels"):
            raise self.error("duplicate %s declaration (first declared on line %d)"
                             % (keyword, first), pos)
        declared[keyword] = (first or lineno, names)
        if keyword == "rule":
            names[lineno] = self
        elif keyword == "region":
            _, name, at = self.expect("ident", "a region name")
            if name in RESERVED_NAMES:
                raise self.error("region name %r is reserved" % (name,), at)
            if name in names:
                raise self.error("duplicate region %r (first declared on line %d)"
                                 % (name, names[name][0]), at)
            self.expect("=")
            names[name] = (lineno, self)
        else:
            self.expect(":")
            kind = _DECLARES[keyword]
            while self.peek()[0] is not None or keyword == "alphabet" and not names:
                _, name, at = self.expect("ident", "a %s name" % kind)
                if name in names:
                    raise self.error("duplicate %s %r" % (kind, name), at)
                names[name] = None
                if keyword == "locations" and self.accept("["):
                    names[name] = self.name(("A", "B"), "owner must be A or B, got %r")
                    self.expect("]")

    def region(self) -> Region:
        if self.peek()[0] is None:
            raise self.error("empty region expression (the empty region is "
                             "written {})", self.peek()[2])
        if self.accept("{}"):
            return self.model.space.empty()
        parts = [self.part()]
        while self.accept("+"):
            parts.append(self.part())
        return self.model.space.union(*parts)

    def part(self) -> Region:
        kind = self.peek()[0]
        if kind in ("+", None):
            raise self.found("empty region atom")
        if kind == "ident":
            regions = self.model.named_regions
            return regions[self.name(regions, "unknown named region %r")]
        self.expect("(", "a region atom")
        loc = self.name(self.model.locations, "unknown location %r")
        langs = []
        for _ in self.model.channels:  # a pattern each
            self.expect(";")
            langs.append(self.pattern())
        self.expect(")")
        return self.model.space.atom(loc, tuple(langs))

    def pattern(self) -> Nfa:
        """The canonical form of the regex up to the next ";" or ")"
        outside parentheses, read in place once per tokens and alphabet."""
        end, depth = self.pos, 0
        while self.tokens[end][0] is not None and (
                depth or self.tokens[end][0] not in (";", ")")):
            depth += {"(": 1, ")": -1}.get(self.tokens[end][0], 0)
            end += 1
        key = (tuple(token[:2] for token in self.tokens[self.pos:end]), self.alphabet)
        if key not in _PATTERNS:
            lang = self.alternation()
            if self.pos != end:
                raise self.found("expected ';' or ')'")
            _PATTERNS[key] = automata.canonicalize(lang)
        self.pos = end
        return _PATTERNS[key]

    def word(self) -> Word:
        out = []
        while self.peek()[0] == "ident":
            _, value, pos = self.expect("ident")
            out += self.symbols(value, pos)
        return tuple(out)

    def config(self) -> Config:
        loc = self.name(self.model.locations, "unknown location %r")
        words, seps = [], []  # each word and the ':' or ',' before it
        while self.accept(":" if not seps else ","):
            seps.append(self.tokens[self.pos - 1])
            words.append(self.word())
        n = len(self.model.channels)
        room = n or int(words[:1] == [()])  # without channels, ':' takes no word
        if len(words) > room:
            _, sep, pos = seps[room]
            raise self.error("expected %s, found %r" % (terms.count(
                n, "channel word", "channel words"), sep), pos)
        return Config(loc, tuple(words[:n]) + ((),) * (n - len(words)))

    def rule(self) -> Rule:
        endpoint = "rule endpoint %r is not a location"
        src = self.name(self.model.locations, endpoint)
        self.expect("->")
        tgt = self.name(self.model.locations, endpoint)
        self.expect(":")
        op = self.tokens[self.pos + (self.peek()[0] == "ident")][0]
        if op in ("!", "?"):
            chan = self.name(self.model.channels, "rule channel %r not declared")
            self.pos += 1
            sym = self.name(self.model.alphabet, "rule symbol %r not in alphabet")
            kind = SEND if op == "!" else RECV
        else:
            self.expect("nop", "'nop' or a channel operation")
            kind, chan, sym = INTERNAL, None, None
        guard = self.region() if self.accept("guard") else None
        return Rule(src, tgt, kind, chan, sym, guard)


def parse_config(text: str, model: GlcsModel) -> Config:
    """Config text: "location : word, word, ..." with one word per channel."""
    return _Reader(text).read_in(model, _Reader.config)


def parse_region_text(text: str, model: GlcsModel) -> Region:
    """Region expressions: "{}" or atoms "(loc; regex; ...)" joined by "+";
    a bare identifier references a named region of the model."""
    return _Reader(text).read_in(model, _Reader.region)


def region_to_text(region: Region, model: GlcsModel) -> str:
    """Sum of products (see Region.summands) with per-channel minimal-DFA
    regexes."""
    if not region.summands:
        return "{}"
    atoms = []
    for p in region.summands:
        fields = [p.location] + [regexes.nfa_to_regex(lang) for lang in p.channel_langs]
        atoms.append("(%s)" % "; ".join(fields))
    return " + ".join(atoms)


def _identifiers(kind: str, names) -> Tuple[str, ...]:
    """Declared names, none of them twice, each one token of the formula,
    region and regex syntaxes: letters, digits and `_`."""
    for i, name in enumerate(names):
        if not name or not all(ch.isalnum() or ch == "_" for ch in name):
            raise ModelError("%s name %r must consist of letters, digits and '_'"
                             % (kind, name))
        if name in names[:i]:
            raise ModelError("duplicate %s %r" % (kind, name))
    return tuple(names)


_RANK = {RECV: 0, INTERNAL: 1, SEND: 2}  # steps of an upward-closed slice by size
# the block edit of a rule's step backward (pre) and forward (post)
_EDITS = {PRE: {RECV: "prepend", SEND: "curtail"},
          POST: {RECV: "behead", SEND: "append"}}


def _uncovered(rules: Tuple[Rule, ...]) -> Tuple[Rule, ...]:
    """rules without those covered by an unguarded rule between the same
    locations: one of higher _RANK, or the same one without a guard."""
    top: Dict[Tuple[str, str], int] = {}
    unguarded = set()
    for rule in rules:
        if rule.guard is None:
            key = (rule.source, rule.target)
            top[key] = max(top.get(key, 0), _RANK[rule.kind])
            unguarded.add(rule)
    return tuple(rule for rule in rules
                 if top.get((rule.source, rule.target), 0) <= _RANK[rule.kind]
                 and (rule.guard is None
                      or Rule(rule.source, rule.target, rule.kind, rule.channel,
                              rule.symbol) not in unguarded))


def _grouped(direction: str, rules: Tuple[Rule, ...]):
    """The unguarded rules grouped as {anchor: {edit: ends}}, each end
    once and in rule order: a pre anchors on the target, a post on the
    source.  Then the guarded rules, which step one at a time through
    pre_perf_rule or post_perf_rule: perfbench's tracer counts the
    former's calls."""
    groups: Dict[str, dict] = {}
    for rule in rules:
        if rule.guard is None:
            anchor, end = ((rule.target, rule.source) if direction == PRE
                           else (rule.source, rule.target))
            edit = (_EDITS[direction].get(rule.kind), rule.channel, rule.symbol)
            groups.setdefault(anchor, {}).setdefault(edit, {})[end] = None
    return groups, tuple(rule for rule in rules if rule.guard is not None)


def _lossy(mode: str) -> bool:
    if mode not in (LOSSY, PERFECT):
        raise ModelError("unknown step mode %r" % (mode,))
    return mode == LOSSY


def _owner(owner: Optional[str]):
    if owner not in ("A", "B", None):
        raise ModelError("owner must be A or B, got %r" % owner)


def _region_name(name: str) -> str:
    """A region name: an identifier that a formula gives no other meaning."""
    if _identifiers("region", (name,))[0] in RESERVED_NAMES:
        raise ModelError("region name %r is reserved" % (name,))
    return name


def parse_model(text: str, name: str = "<model>") -> GlcsModel:
    """Line-oriented model files; see the bundled models for examples.
    One _Reader reads each line once: the declarations first, then, over
    the model they declare, the regions in file order and the rules."""
    declared = {keyword: (0, {}) for keyword in (*_DECLARES, "region", "rule")}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]  # its reader counts positions in the line
        if line.strip():
            _Reader(line, "%s:%d: " % (name, lineno)).line(lineno, declared)
    symbols, channels, owners, regions, rules = (names for _, names in declared.values())
    for keyword, names in (("alphabet", symbols), ("locations", owners)):
        if not names:
            raise ModelError("%s: missing %s declaration" % (name, keyword))
    model = GlcsModel(Alphabet(tuple(symbols)), tuple(channels), tuple(owners), owners, ())
    for rname, (_, reader) in regions.items():
        model.named_regions[rname] = reader.read_in(model, _Reader.region)
    # the reader checks each rule's names, and reads its guard in the model's
    # space, so the regions normalized while parsing stay in its memo
    model._set_rules(tuple(reader.read_in(model, _Reader.rule)
                           for reader in rules.values()))
    return model


def load_model(path: str) -> GlcsModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ModelError("%s: not UTF-8 text (byte %d)" % (path, exc.start)) from None
    return parse_model(text, name=path)
