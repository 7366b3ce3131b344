import functools
import itertools
import random

import pytest

from wsmc import automata, oracle
from wsmc.automata import Alphabet, Nfa
from wsmc.model import parse_model
from wsmc.regexes import compile_regex
from wsmc.regions import Config, Region, RegionError, RegionSpace, Signature

from conftest import config_region, random_model, random_nfa, random_region_for

AB = Alphabet(("a", "b"))
SIG = Signature(AB, ("c", "d"), ("p", "q"))


@pytest.fixture
def space():
    return RegionSpace(SIG)


def words(max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product("ab", repeat=n))
    return [tuple(w) for w in out]


def configs(max_len):
    ws = words(max_len)
    return [Config(loc, (u, v))
            for loc in SIG.locations for u in ws for v in ws]


def random_region(rng, space, n_summands=2):
    region = space.empty()
    for _ in range(rng.randint(0, n_summands)):
        loc = rng.choice(SIG.locations)
        langs = (random_nfa(rng, AB, 3), random_nfa(rng, AB, 3))
        region = space.union(region, space.atom(loc, langs))
    return region


def test_atom_membership(space):
    r = space.atom("p", (compile_regex("a*", AB), compile_regex("b", AB)))
    assert space.member(Config("p", ((), ("b",))), r)
    assert space.member(Config("p", (("a", "a"), ("b",))), r)
    assert not space.member(Config("q", ((), ("b",))), r)
    assert not space.member(Config("p", ((), ())), r)


def test_full_empty_universal(space):
    assert space.is_empty(space.empty())
    assert space.is_universal(space.full())
    assert not space.is_universal(space.location_region(["p"]))
    assert space.is_universal(space.union(
        space.location_region(["p"]), space.location_region(["q"])))


def test_config_region(space):
    sigma = Config("q", (("a",), ("b", "b")))
    r = config_region(space, sigma)
    assert space.member(sigma, r)
    assert not space.member(Config("q", (("a",), ("b",))), r)


def test_boolean_ops_pointwise(space, rng):
    sample = configs(2)
    for _ in range(15):
        x = random_region(rng, space)
        y = random_region(rng, space)
        union = space.union(x, y)
        inter = space.intersection(x, y)
        comp = space.complement(x)
        diff = space.difference(x, y)
        for sigma in sample:
            in_x, in_y = space.member(sigma, x), space.member(sigma, y)
            assert space.member(sigma, union) == (in_x or in_y)
            assert space.member(sigma, inter) == (in_x and in_y)
            assert space.member(sigma, comp) == (not in_x)
            assert space.member(sigma, diff) == (in_x and not in_y)


def test_membership_matches_independent_simulation(space, rng):
    sample = configs(2)
    for _ in range(10):
        x = random_region(rng, space)
        for sigma in sample:
            assert space.member(sigma, x) == oracle.region_member(x, sigma)


def test_componentwise_up_closure(space):
    r = space.atom("q", (Nfa.word(AB, ("a",)), Nfa.epsilon(AB)))
    up = space.up_closure(r)
    want = space.atom("q", (compile_regex(".* a .*", AB),
                            compile_regex(".*", AB)))
    assert space.equal(up, want)


def test_closure_soundness_exhaustive(space, rng):
    for _ in range(8):
        x = random_region(rng, space)
        up = space.up_closure(x)
        down = space.down_closure(x)
        for sigma in configs(2):
            if not space.member(sigma, x):
                continue
            for u in oracle.subwords(sigma.contents[0]):
                for v in oracle.subwords(sigma.contents[1]):
                    smaller = Config(sigma.location, (u, v))
                    assert space.member(smaller, down)
            bigger = Config(sigma.location,
                            (sigma.contents[0] + ("b",),
                             ("a",) + sigma.contents[1]))
            assert space.member(bigger, up)


def test_kernel_duality_regions(space, rng):
    for _ in range(15):
        x = random_region(rng, space)
        assert space.equal(space.complement(space.up_kernel(x)),
                           space.down_closure(space.complement(x)))
        assert space.equal(space.complement(space.down_kernel(x)),
                           space.up_closure(space.complement(x)))
        assert space.subset(space.up_kernel(x), x)
        assert space.subset(x, space.down_closure(x))


def test_unary_star_upward_closed():
    sig = Signature(Alphabet(("a",)), ("c",), ("q",))
    sp = RegionSpace(sig)
    x = sp.atom("q", (compile_regex("a*", sig.alphabet),))
    assert sp.equal(sp.up_closure(x), x)
    assert sp.equal(sp.up_kernel(x), x)


def test_up_kernel_region_example(space):
    sig = Signature(AB, ("c",), ("q",))
    sp = RegionSpace(sig)
    x = sp.atom("q", (compile_regex(".* a", AB),))
    assert sp.is_empty(sp.up_kernel(x))


def test_equality_across_presentations(space):
    one = space.union(space.atom("p", (compile_regex("a", AB),
                                       compile_regex(".*", AB))),
                      space.atom("p", (compile_regex("b", AB),
                                       compile_regex(".*", AB))))
    other = space.atom("p", (compile_regex("a|b", AB),
                             compile_regex(".*", AB)))
    assert space.equal(one, other)
    assert space.subset(one, other) and space.subset(other, one)
    assert not space.equal(one, space.complement(other))


def test_normalize_merges_and_absorbs(space):
    big = space.atom("p", (compile_regex(".*", AB), compile_regex(".*", AB)))
    small = space.atom("p", (compile_regex("a*", AB), compile_regex("b", AB)))
    merged = space.normalize(space.union(big, small))
    assert len(merged.summands) == 1
    assert space.equal(merged, big)
    split = space.union(
        space.atom("q", (compile_regex("a", AB), compile_regex("b*", AB))),
        space.atom("q", (compile_regex("b", AB), compile_regex("b*", AB))))
    norm = space.normalize(split)
    assert len(norm.summands) == 1
    assert space.equal(norm, split)


def test_normalize_preserves_language(space, rng):
    for _ in range(15):
        x = random_region(rng, space, n_summands=4)
        assert space.equal(space.normalize(x), x)


def test_normalize_is_canonical_on_equal_regions(space, rng):
    for _ in range(10):
        x = random_region(rng, space, n_summands=3)
        y = space.union(x, x)
        assert space.normalize(x) == space.normalize(y)


def test_equal_regions_have_one_normal_form(space):
    def region(*atoms):
        out = space.empty()
        for patterns in atoms:
            langs = tuple(compile_regex(p, AB) for p in patterns)
            out = space.union(out, space.atom("q", langs))
        return out
    one = region(("a", "a|b"), ("b", "a"))
    other = region(("a|b", "a"), ("a", "b"))
    assert space.normalize(one).summands == space.normalize(other).summands


def test_row_and_column_covers_normalize_identically(rng):
    # R x S + R x ~S + ~R x S, covered by rows and by columns; the other
    # channels carry one shared language T
    models = 0
    while models < 40:
        model = random_model(rng, max_channels=3)
        if len(model.channels) < 2:
            continue
        models += 1
        space = model.space
        sigma = Nfa.universal(model.alphabet)
        r, s = (random_nfa(rng, model.alphabet, 3) for _ in range(2))
        not_r, not_s = automata.complement(r), automata.complement(s)
        rest = tuple(random_nfa(rng, model.alphabet, 3)
                     for _ in model.channels[2:])
        loc = rng.choice(model.locations)

        def cover(*rows):
            out = space.empty()
            for row in rows:
                out = space.union(out, space.atom(loc, row + rest))
            return out
        by_rows = cover((r, sigma), (not_r, s))
        by_columns = cover((sigma, s), (r, not_s))
        x = random_region_for(rng, model)
        assert space.union(x, by_rows) == space.union(x, by_columns)
        assert space.equal(by_rows, by_columns)


@pytest.mark.parametrize("n_channels", [0, 1, 3])
def test_complement_is_pointwise_and_normal(rng, n_channels):
    sig = Signature(AB, tuple("c%d" % i for i in range(n_channels)), ("p", "q"))
    sp = RegionSpace(sig)
    ws = words(1)
    sample = [Config(loc, contents) for loc in sig.locations
              for contents in itertools.product(ws, repeat=n_channels)]
    for _ in range(15):
        x = sp.empty()
        for _ in range(rng.randint(0, 3)):
            langs = tuple(random_nfa(rng, AB, 3) for _ in range(n_channels))
            x = sp.union(x, sp.atom(rng.choice(sig.locations), langs))
        comp = sp.complement(x)
        assert comp == sp.normalize(comp) == RegionSpace(sig).normalize(comp)
        assert sp.complement(comp) == sp.normalize(x)
        for sigma in sample:
            assert sp.member(sigma, comp) != sp.member(sigma, x)


@pytest.mark.parametrize("max_channels", [0, 1, 2, 3])
def test_memoized_region_operations_equal_fresh_space(max_channels):
    rng = random.Random(4400 + max_channels)
    ops = ("complement", "up_kernel", "down_kernel", "up_closure", "down_closure")
    for _ in range(8):
        model = random_model(rng, max_channels=max_channels)
        space = model.space
        regions = [random_region_for(rng, model, 3) for _ in range(4)]
        for r in regions:  # warm the memo, complements included
            for op in ops:
                getattr(space, op)(getattr(space, op)(r))
            for other in regions:
                space.intersection(r, other)
        for r in regions:
            # an equal region that is a distinct object, with distinct slices
            rebuilt = Region(r.signature, tuple(list(r.slices)))
            assert rebuilt is not r and rebuilt == r and hash(rebuilt) == hash(r)
            for op in ops:
                fresh = RegionSpace(model.signature)
                assert getattr(space, op)(rebuilt) == getattr(fresh, op)(r)
            for other in regions:
                fresh = RegionSpace(model.signature)
                assert space.intersection(other, rebuilt) == fresh.intersection(r, other)
            assert space.complement(space.complement(r)) == space.normalize(r)
            fresh = RegionSpace(model.signature)
            assert fresh.complement(fresh.complement(r)) == fresh.normalize(r)
            for op in ("up_closure", "down_closure"):
                closed = getattr(space, op)(rebuilt)
                assert getattr(space, op)(closed) == closed
                fresh = RegionSpace(model.signature)
                assert getattr(fresh, op)(getattr(fresh, op)(r)) == closed


@pytest.mark.parametrize("max_channels", [0, 1, 2, 3])
def test_union_is_the_minimized_nfa_union_of_the_slices(max_channels):
    # 1 to 8 operands, drawn with repetition from regions that include
    # the empty and the full one
    rng = random.Random(5100 + max_channels)
    for _ in range(10):
        model = random_model(rng, max_channels=max_channels)
        space = model.space
        pool = [random_region_for(rng, model, 3) for _ in range(4)]
        pool += [space.complement(pool[0]), space.empty(), space.full()]
        for n_operands in range(1, 9):
            operands = [rng.choice(pool) for _ in range(n_operands)]
            encodings = {}
            for region in operands:
                for loc, enc in region.slices:
                    encodings.setdefault(loc, []).append(enc)
            union = dict(space.union(*operands).slices)
            assert union.keys() == encodings.keys()
            for loc, encs in encodings.items():
                assert union[loc] is automata.canonicalize(
                    functools.reduce(automata.union, encs))


def test_the_full_slice_absorbs_a_union_without_a_walk(space, rng, monkeypatch):
    at_p = space.location_region(["p"])
    walks = []
    union_all = automata.union_all
    monkeypatch.setattr(automata, "union_all",
                        lambda encs: walks.append(encs) or union_all(encs))
    for _ in range(10):
        others = [space.intersection(random_region(rng, space, 3), at_p)
                  for _ in range(3)]
        memo, walks[:] = dict(space._memo), []
        assert space.union(*others, at_p).slices == (("p", space._all),)
        assert space.union(space.full(), *others) == space.full()
        assert space._memo == memo and walks == []


def test_the_full_slice_meets_a_region_without_a_walk(space, rng, monkeypatch):
    at_p, walks = space.location_region(["p"]), []
    intersection = automata.intersection
    monkeypatch.setattr(automata, "intersection",
                        lambda x, y: walks.append((x, y)) or intersection(x, y))
    for _ in range(10):
        region = random_region(rng, space, 3)
        want = space._region({
            loc: automata.canonicalize(intersection(space._all, enc))
            for loc, enc in region.slices if loc == "p"})
        assert space.intersection(at_p, region) == want
        assert space.intersection(region, at_p) == want
        assert space.intersection(space.full(), region) == region
        assert space.intersection(region, space.full()) == region
    assert walks == []


def reference_join_nfa(space, langs):
    """An NFA of L1 # L2 # ... # Lc over the extended alphabet, built
    move by move: the reference that RegionSpace._join's tables are
    checked against."""
    trans, ends, n = [], [0], 1
    for i, lang in enumerate(langs):
        link = "#" if i else None
        trans.extend((p, link, q + n) for p in ends for q in lang.initial)
        trans.extend((p + n, x, q + n) for (p, x, q) in lang.transitions)
        ends = [q + n for q in lang.accepting]
        n += lang.n_states
    return Nfa(space._ext_alphabet, n, frozenset([0]), frozenset(ends), tuple(trans))


def test_a_repeated_atom_is_encoded_once(rng, monkeypatch):
    for channels in ((), ("c",), ("c", "d"), ("c", "d", "e")):
        space = RegionSpace(Signature(AB, channels, ("p", "q")))
        joins = []
        join = space._join
        monkeypatch.setattr(space, "_join", lambda langs: joins.append(langs) or join(langs))
        pool = [Nfa.empty(AB), compile_regex(".*", AB)]
        for k in range(10):
            # all empty, all .*, then random languages with those two among them
            langs = tuple(pool[k] if k < 2 else rng.choice(pool + [random_nfa(rng, AB, 3)])
                          for _ in channels)
            space.atom("p", langs)
            enc = automata.canonicalize(reference_join_nfa(space, langs))
            del joins[:]
            copies = tuple(Nfa(a.alphabet, a.n_states, a.initial, a.accepting, a.transitions)
                           for a in langs)
            for loc in space.signature.locations:
                assert space.atom(loc, copies).encodings == ({loc: enc} if enc.accepting
                                                             else {})
                assert space.atom(loc, langs) == space.atom(loc, copies)
            assert joins == []


def test_alphabet_with_the_separator_is_rejected():
    with pytest.raises(RegionError, match="'#' is the channel separator"):
        Signature(Alphabet(("a", "#")), ("c",), ("p",))


@pytest.mark.parametrize("op", ["up_closure", "down_closure"])
def test_closing_a_closed_region_minimizes_nothing(op, space, rng, monkeypatch):
    calls = []
    subsets = automata.subsets  # every closure's subset construction
    monkeypatch.setattr(automata, "subsets",
                        lambda *args: calls.append(args) or subsets(*args))
    for _ in range(10):
        closed = getattr(space, op)(random_region(rng, space, 3))
        del calls[:]
        assert getattr(space, op)(closed) == closed
        assert calls == []


def closure_by_moves(enc, op):
    """The closure of an encoding as the region algebra once built it on
    its own: a self-loop on every message symbol at every state (up), or
    an epsilon move beside every message move (down); # moves stay."""
    if op == "up_closure":
        extra = tuple((q, x, q) for q in range(enc.n_states)
                      for x in enc.alphabet.symbols if x != "#")
    else:
        extra = tuple((p, None, q) for (p, x, q) in enc.transitions if x != "#")
    return automata.canonicalize(Nfa(enc.alphabet, enc.n_states, enc.initial,
                                     enc.accepting, enc.transitions + extra))


@pytest.mark.parametrize("op", ["up_closure", "down_closure"])
def test_closures_equal_the_closure_by_moves_on_every_encoding(op):
    rng = random.Random(5300)
    for max_channels in (1, 2, 3):
        for _ in range(10):
            model = random_model(rng, max_channels=max_channels)
            region = random_region_for(rng, model, 3)
            closed = getattr(model.space, op)(region).encodings
            assert closed.keys() == region.encodings.keys()
            for loc, enc in region.slices:
                assert closed[loc] is closure_by_moves(enc, op)


# -- channel-block edits --------------------------------------------------

EDITS = ("prepend", "behead", "append", "curtail")


def reference_edit_nfa(space, enc, kind, channel, symbol):
    """The block edit of enc as an NFA, built move by move: the
    reference that RegionSpace._edit's tables are checked against."""
    table, symbols, n = enc.table, enc.alphabet.symbols, enc.n_states
    sep, m = len(symbols) - 1, enc.alphabet.index(symbol)
    i, START, END = space.signature.channels.index(channel), -1, -2
    block, stack = {START: -1, END: len(space.signature.channels), 0: 0}, [0]
    while stack:
        p = stack.pop()
        for x, t in enumerate(table[p]):
            if t not in block:
                block[t] = block[p] + (x == sep)
                stack.append(t)
    moves = [(p, x, t) for p in range(n) for x, t in enumerate(table[p][:sep])]
    seps = {p: row[sep] for p, row in enumerate(table)}
    seps.update((p, END) for p in enc.accepting)
    seps[START] = 0
    before = dict(seps)
    for p in [p for p in before if block[p] == i - (kind in ("prepend", "behead"))]:
        if kind == "prepend":
            moves.append((n, m, seps[p]))
            seps[p], n = n, n + 1
        elif kind == "behead":
            seps[p] = table[seps[p]][m]
        elif kind == "append":
            moves.append((p, m, n))
            seps[n], n = seps.pop(p), n + 1
        else:
            seps[p] = before[table[p][m]]
    trans = [(p, symbols[x], t) for (p, x, t) in moves]
    trans.extend((p, symbols[sep], t) for p, t in seps.items() if p >= 0 <= t)
    return Nfa(enc.alphabet, n, frozenset([seps[START]]),
               frozenset(p for p, t in seps.items() if t == END), tuple(trans))


def edit_configs(signature, max_len):
    ws = words(max_len)
    return [Config("p", contents)
            for contents in itertools.product(ws, repeat=len(signature.channels))]


def edit_regions(rng, space):
    """Random regions with a nonempty slice at p, and the atoms on which an
    edit moves the start state or makes it accepting."""
    c = len(space.signature.channels)
    regions = [space.atom("p", (compile_regex(pattern, AB),) * c)
               for pattern in ("()", "a", "b", "a*b", "(ab)*")]
    while len(regions) < 9:
        region = space.union(*[space.atom("p", tuple(random_nfa(rng, AB, 3)
                                                     for _ in range(c)))
                               for _ in range(rng.randint(1, 3))])
        if "p" in region.encodings:
            regions.append(region)
    return regions


@pytest.mark.parametrize("channels", [("c",), ("c", "d"), ("c", "d", "e")])
def test_block_edits_are_the_canonical_form_of_the_nfa_construction(channels):
    signature = Signature(AB, channels, ("p", "q"))
    space = RegionSpace(signature)
    max_len = 3 if len(channels) < 3 else 2
    short, long = edit_configs(signature, max_len), edit_configs(signature, max_len + 1)
    for region in edit_regions(random.Random(5800 + len(channels)), space):
        enc = region.encodings["p"]
        inside = {config for config in long if oracle.region_member(region, config)}
        for kind, channel, symbol in itertools.product(EDITS, channels, AB.symbols):
            got = space.edit(region, "p", "p", kind, channel, symbol)
            want = automata.canonicalize(
                reference_edit_nfa(space, enc, kind, channel, symbol))
            assert got.slices == ((("p", want),) if want.accepting else ())
            # the word-level step of the one rule p -> p the edit stands for
            op = "%s%s%s" % (channel, "?" if kind in ("prepend", "behead") else "!", symbol)
            rule_model = parse_model("alphabet: a b\nchannels: %s\nlocations: p q\n"
                                     "rule p -> p : %s\n" % (" ".join(channels), op))
            if kind in ("prepend", "curtail"):  # predecessors
                for config in short:
                    assert space.member(config, got) == any(
                        s in inside for s in oracle.perfect_successors(rule_model, config))
            else:  # successors
                image = {s for config in inside
                         for s in oracle.perfect_successors(rule_model, config)}
                for config in short:
                    assert space.member(config, got) == (config in image)


def test_edits_that_move_or_accept_at_the_start_state():
    space = RegionSpace(Signature(AB, ("c",), ("p", "q")))

    def at(loc, pattern):
        return space.atom(loc, (compile_regex(pattern, AB),))

    # prepending into channel 0 enters at a new start state
    assert space.edit(at("p", "b*"), "p", "q", "prepend", "c", "a") == at("q", "ab*")
    assert space.edit(at("p", "ab*"), "p", "q", "behead", "c", "a") == at("q", "b*")
    assert space.edit(at("p", "b*"), "p", "q", "behead", "c", "a") == space.empty()
    # dropping the last symbol of the only channel accepts at the start
    got = space.edit(at("p", "a"), "p", "q", "curtail", "c", "a")
    assert got == at("q", "()") and 0 in got.encodings["q"].accepting
    assert space.edit(at("p", "a|ba"), "p", "q", "curtail", "c", "a") == at("q", "()|b")
    assert space.edit(at("p", "()"), "p", "q", "append", "c", "b") == at("q", "b")


def test_no_atom_or_block_edit_runs_the_subset_construction(monkeypatch):
    space = RegionSpace(SIG)
    langs = tuple(automata.canonicalize(compile_regex(pattern, AB))
                  for pattern in ("a*b", "(ab)*"))
    runs = []
    real = automata._determinize
    monkeypatch.setattr(automata, "_determinize", lambda a: runs.append(a) or real(a))
    region = space.atom("p", langs)
    for kind, channel, symbol in itertools.product(EDITS, SIG.channels, AB.symbols):
        space.edit(region, "p", "q", kind, channel, symbol)
    assert runs == []


# -- differential checks against independent constructions ---------------

# patterns on which a prepend reuses a state, a curtail leaves the slice
# as it is, or an operand contains another
DIFFERENTIAL_PATTERNS = ("()", "(ab)*", "b(ab)*", "a*", ".*a.*", ".*")


def differential_pools(seed, spaces=6, size=7):
    """Seeded guard-free regions over one or two channels: per space,
    unions of one to three atoms at p, some of fixed patterns and some
    random, and the up closure of the first."""
    rng = random.Random(seed)
    for k in range(spaces):
        channels = ("c", "d")[:1 + k % 2]
        space = RegionSpace(Signature(AB, channels, ("p", "q")))

        def lang():
            if rng.random() < 0.5:
                return compile_regex(rng.choice(DIFFERENTIAL_PATTERNS), AB)
            return random_nfa(rng, AB, 3)

        pool = []
        while len(pool) < size:
            region = space.union(*[space.atom("p", tuple(lang() for _ in channels))
                                   for _ in range(rng.randint(1, 3))])
            if "p" in region.encodings:
                pool.append(region)
        pool.append(space.up_closure(pool[0]))
        yield rng, space, pool


def nfa_union(encodings):
    """The canonical form of the epsilon-NFA union of encodings."""
    return automata.canonicalize(functools.reduce(automata.union, encodings))


@pytest.mark.parametrize("kind", ["prepend", "curtail"])
def test_predecessor_edits_equal_the_union_of_edited_atoms(kind):
    for _, space, pool in differential_pools(5900):
        channels = space.signature.channels
        for region, i, symbol in itertools.product(pool, range(len(channels)),
                                                   AB.symbols):
            def step(lang):
                if kind == "prepend":
                    return automata.concat(Nfa.symbol(AB, symbol), lang)
                return automata.right_residual(lang, Nfa.word(AB, (symbol,)))

            atoms = [space.atom("q", row[:i] + (step(row[i]),) + row[i + 1:])
                     for row in (p.channel_langs for p in region.summands)]
            encodings = [a.encodings["q"] for a in atoms if a.slices]
            got = space.edit(region, "p", "q", kind, channels[i], symbol)
            assert got.slices == ((("q", nfa_union(encodings)),) if encodings else ())


def test_products_equal_the_canonical_nfa_union():
    for rng, space, pool in differential_pools(6000):
        encodings = [region.encodings["p"] for region in pool]
        encodings += [nfa_union(encodings[:2]), space._all]
        for n_operands in range(1, 5):
            operands = [rng.choice(encodings) for _ in range(n_operands)]
            assert automata.union_all(operands) is nfa_union(operands)
        for x, y in itertools.product(encodings, repeat=2):
            assert automata.intersection(x, y) is automata.complement(
                nfa_union([automata.complement(x), automata.complement(y)]))
            assert automata.difference(x, y) is automata.complement(
                nfa_union([automata.complement(x), y]))


def test_up_closures_and_inclusions_equal_their_nfa_constructions():
    for _, space, pool in differential_pools(6100):
        for region in pool:
            closed = space.up_closure(region).encodings
            assert closed.keys() == region.encodings.keys()
            for loc, enc in region.slices:
                assert closed[loc] is automata.canonicalize(
                    automata.up_closure(enc, AB.symbols))
        encodings = [region.encodings["p"] for region in pool]
        for x, y in itertools.product(encodings, repeat=2):
            assert automata.subset(x, y) == (nfa_union([x, y]) is y)
