"""Command-line frontend.

Exit codes are uniform across subcommands: 0 success/yes, 1 no or validation
violation, 2 any error (parse, typing, guardedness, input nested too deeply,
or a refused non-effective goal).  Output is deterministic: regions print in
normalized form and timing never reaches stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compilers, engine, oracle, terms
from .engine import Limits
from .errors import WsmcError
from .model import load_model, parse_config, parse_region_text, region_to_text


class CliError(WsmcError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as one CliError line."""

    def error(self, message):
        raise CliError(message)


def _iteration_cap(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer of at least 1, got %r" % (text,))
    return int(text)


def _build_parser():
    parser = _ArgumentParser(
        prog="wsmc",
        description="Symbolic verification of lossy channel systems via "
                    "guarded fixpoint evaluation over regular regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check model assumptions")
    p_validate.add_argument("model")

    p_eval = sub.add_parser("eval", help="evaluate a fixpoint formula")
    p_eval.add_argument("model")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula text")
    group.add_argument("-F", "--formula-file", help="file containing the formula")
    p_eval.add_argument("--max-iter", type=_iteration_cap, default=None,
                        help="allow unguarded terms up to this many iterations "
                             "per binder")
    p_eval.add_argument("--stats", action="store_true")
    p_eval.add_argument("--out", help="also write the region text to a file")
    p_eval.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="check a named property")
    p_check.add_argument("model")
    p_check.add_argument("property", choices=sorted(PROPERTIES))
    p_check.add_argument("--target", help="region expression")
    p_check.add_argument("--cond", help="second region expression where needed")
    p_check.add_argument("--player", choices=["A", "B"], default="A")
    p_check.add_argument("--formula", help="CTL formula (ctl property)")
    p_check.add_argument("--member", help='configuration "loc : w1, w2, ..."')
    p_check.add_argument("--max-iter", type=_iteration_cap, default=None)
    p_check.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force debug oracles")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_reach = oracle_sub.add_parser("reach", help="bounded explicit reachability")
    p_reach.add_argument("model")
    p_reach.add_argument("--from", dest="start", required=True)
    p_reach.add_argument("--target", required=True)
    p_reach.add_argument("--depth", type=int, default=6)
    p_game = oracle_sub.add_parser("game", help="bounded explicit game search")
    p_game.add_argument("model")
    p_game.add_argument("--from", dest="start", required=True)
    p_game.add_argument("--target", required=True)
    p_game.add_argument("--player", choices=["A", "B"], default="A")
    p_game.add_argument("--depth", type=int, default=8)
    return parser


def _require(value, what):
    if value is None:
        raise CliError("property needs %s" % what)
    return value


def _region_arg(text, model):
    return parse_region_text(_require(text, "--target/--cond"), model)


def _goal(compile_goal, goal, player=None):
    """compile_goal for the goal and --target, for the player or else for
    --player."""
    return lambda m, a: compile_goal(
        goal, m, player or a.player, _region_arg(a.target, m))


PROPERTIES = {
    "prestar": lambda m, a: compilers.compile_pre_star(
        m, _region_arg(a.target, m)),
    "release": lambda m, a: compilers.compile_forall_release(
        m, _region_arg(a.target, m), _region_arg(a.cond, m)),
    "ctl": lambda m, a: compilers.compile_ctl(
        m, _require(a.formula, "--formula")),
    "asym-reach-B": _goal(compilers.compile_asym_game, "reach", "B"),
    "asym-inv-A": _goal(compilers.compile_asym_game, "invariant", "A"),
    **{name: _goal(compilers.compile_game, goal)
       for goal, (name, _, _) in compilers.GAME_GOALS.items()},
    **{name: _goal(compilers.compile_prob_game, goal)
       for goal, (name, _, _) in compilers.PROB_GOALS.items()},
    **{goal: lambda m, a, goal=goal: compilers.refuse_noneffective(goal)
       for goal in compilers.REFUSALS},
}


def _region_sizes(region):
    parts = []
    for p in region.summands:
        sizes = ",".join(str(lang.n_states) for lang in p.channel_langs)
        parts.append("%s=%s" % (p.location, sizes or "-"))
    return " ".join(parts) if parts else "-"


def _stats_dict(stats):
    return {"iterations": stats.iterations,
            "max_value_size": stats.max_value_size}


def _emit_region(region, model, args, stats=None):
    text = region_to_text(region, model)
    if getattr(args, "json", False):
        payload = {"verdict": None, "region": text}
        if stats is not None and getattr(args, "stats", False):
            payload["stats"] = _stats_dict(stats)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
        print("sizes: %s" % _region_sizes(region))
        if stats is not None and getattr(args, "stats", False):
            for binder in sorted(stats.iterations):
                counts = ",".join(str(c) for c in stats.iterations[binder])
                print("iterations %s: %s" % (binder, counts))
            print("max value size: %d" % stats.max_value_size)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _emit_verdict(answer: bool, args):
    if getattr(args, "json", False):
        print(json.dumps({"verdict": "yes" if answer else "no", "region": None}))
    else:
        print("yes" if answer else "no")
    return 0 if answer else 1


def _cmd_validate(args):
    model = load_model(args.model)
    report = model.validate()
    if not report:
        print("ok")
        return 0
    for line in report:
        print(line)
    return 1


def _cmd_eval(args):
    model = load_model(args.model)
    algebra = model.algebra()
    if args.formula is not None:
        text = args.formula
    else:
        try:
            with open(args.formula_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise CliError("%s: not UTF-8 text (byte %d)"
                           % (args.formula_file, exc.start)) from None
    term = terms.parse_term(text, algebra)
    limits = Limits(max_iter=args.max_iter)
    value, stats = engine.evaluate(term, {}, algebra, limits)
    print("evaluation took %.3fs" % stats.wall_time, file=sys.stderr)
    _emit_region(value, model, args, stats)
    return 0


def _cmd_check(args):
    model = load_model(args.model)
    limits = Limits(max_iter=args.max_iter)
    region, stats = PROPERTIES[args.property](model, args).run(limits)
    if args.member is not None:
        config = parse_config(args.member, model)
        return _emit_verdict(model.space.member(config, region), args)
    _emit_region(region, model, args, stats)
    return 0


def _cmd_oracle(args):
    model = load_model(args.model)
    start = parse_config(args.start, model)
    target = parse_region_text(args.target, model)
    if args.oracle_command == "reach":
        print(oracle.bounded_reach(model, start, target, args.depth))
        return 0
    print(oracle.bounded_game(model, start, target, args.player, args.depth))
    return 0


def main(argv=None) -> int:
    handlers = {"validate": _cmd_validate, "eval": _cmd_eval,
                "check": _cmd_check, "oracle": _cmd_oracle}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (WsmcError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:  # from any parser, or evaluating a deep term
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
