"""Record or check the sha256 of the pre* region text of ABP-n.

    PYTHONPATH=src python tests/record_abp_digests.py
    PYTHONPATH=src python tests/record_abp_digests.py --check 3 4 5 6
    PYTHONPATH=src python tests/record_abp_digests.py --nested --check
    PYTHONPATH=src python tests/record_abp_digests.py --faithful --check
    PYTHONPATH=src python tests/record_abp_digests.py --nested --faithful --check

ABP-n is the alternating-bit protocol with n sequence numbers that
perfbench/gen.py generates (`abp_text`).  For each n, the script
computes pre* of its GOAL region and hashes the printed region text
(`region_to_text`).  Without --check it records the digests of the given
sizes (by default 3 to 7) in tests/goldens/abp_prestar_sha256.json,
keeping those of the other sizes recorded there.
Re-record only for an intended change of printed regions, and say in
CHANGES.md why they changed.  With --check it compares the given sizes
with that file and exits 1 on any mismatch.  The solve time of each
size goes to stderr with the iterations of each binder
(`EvalStats.iterations`); nothing gates on them.

With --nested the script does the same for the nested-binder term
NESTED (by default on ABP-3 to ABP-5), whose inner binder restarts on
every outer iteration, with its digests in
tests/goldens/abp_nested_sha256.json.

On ABP-n the pre* of GOAL is the whole configuration space, so those
digests only show that the result is still the full space.  With
--faithful the script does the same for the pre* of BAD on the faithful
ABP-n of `faithful_abp_text` (by default n = 3 to 8), which is not the
whole space, with its digests in tests/goldens/abp_faithful_sha256.json.
With both --nested and --faithful it does the same for the guarded
nested term NESTED_FAITHFUL on the faithful ABP-n (by default n = 3 to
6), whose outer binder iterates, with its digests in
tests/goldens/abp_faithful_nested_sha256.json.
"""

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

import gen  # noqa: E402
from wsmc import (Limits, evaluate, parse_model, parse_region_text,  # noqa: E402
                  parse_term, region_to_text)
from wsmc.compilers import compile_pre_star  # noqa: E402

DIGESTS = os.path.join(HERE, "goldens", "abp_prestar_sha256.json")
SIZES = (3, 4, 5, 6, 7)
NESTED = "nu Y. mu X. (GOAL & pre(up(Y))) | pre(up(X))"
NESTED_DIGESTS = os.path.join(HERE, "goldens", "abp_nested_sha256.json")
NESTED_SIZES = (3, 4, 5)
FAITHFUL_DIGESTS = os.path.join(HERE, "goldens", "abp_faithful_sha256.json")
FAITHFUL_SIZES = (3, 4, 5, 6, 7, 8)
# each outer step takes kdown(Y), a complement of a closure of a
# complement; Y iterates 3 times and X 6 times per outer step, and the
# answer lies strictly inside pre* of BAD
NESTED_FAITHFUL = "nu Y. kdown(Y) & (mu X. BAD | pre(up(X)))"
NESTED_FAITHFUL_DIGESTS = os.path.join(HERE, "goldens", "abp_faithful_nested_sha256.json")
NESTED_FAITHFUL_SIZES = (3, 4, 5, 6)


def faithful_abp_text(n: int) -> str:
    """Alternating-bit protocol with n sequence numbers whose receiver
    accepts only the expected message.

    The sender is that of gen.abp_text.  The receiver waiting in w<j>
    accepts only m<j>, into x<j>; on any other message it goes to
    x<j-1>, so it acknowledges a<j-1> again.  From x<j> it sends a<j>
    and waits in w<j+1>.  BAD holds where the number the receiver
    expects (j in w<j>, j+1 in x<j>) is neither the sender's number nor
    the next one; for n >= 3 the initial configuration s0w0 with empty
    channels cannot reach it.  2n^2 locations.
    """
    ms = ["m%d" % i for i in range(n)]
    acks = ["a%d" % i for i in range(n)]
    # (receiver state, the number it expects)
    recv_states = [(r + str(j), (j + (r == "x")) % n) for j in range(n) for r in "wx"]
    lines = ["# faithful ABP-%d" % n,
             "alphabet: %s" % " ".join(ms + acks),
             "channels: c d",
             "locations: %s" % " ".join("s%d%s" % (i, r) for i in range(n)
                                        for r, _ in recv_states)]
    for i in range(n):
        for r, _ in recv_states:
            lines.append("rule s%d%s -> s%d%s : c!m%d" % (i, r, i, r, i))
            lines.append("rule s%d%s -> s%d%s : d?a%d" % (i, r, (i + 1) % n, r, i))
            for j in range(n):
                if j != i:
                    lines.append("rule s%d%s -> s%d%s : d?a%d" % (i, r, i, r, j))
        for j in range(n):
            for k in range(n):
                lines.append("rule s%dw%d -> s%dx%d : c?m%d"
                             % (i, j, i, j if k == j else (j - 1) % n, k))
            lines.append("rule s%dx%d -> s%dw%d : d!a%d" % (i, j, i, (j + 1) % n, j))
    lines.append("region BAD = %s" % " + ".join(
        "(s%d%s; .*; .*)" % (i, r) for i in range(n) for r, e in recv_states
        if e not in (i, (i + 1) % n)))
    return "\n".join(lines) + "\n"


def _digest(region, model) -> str:
    return hashlib.sha256(region_to_text(region, model).encode("utf-8")).hexdigest()


def _prestar(text: str, name: str, target: str):
    model = parse_model(text, name)
    region, stats = compile_pre_star(model, parse_region_text(target, model)).run(Limits())
    return _digest(region, model), stats


def prestar_digest(n: int):
    return _prestar(gen.abp_text(n), "ABP-%d" % n, "GOAL")


def faithful_digest(n: int):
    return _prestar(faithful_abp_text(n), "faithful ABP-%d" % n, "BAD")


def nested_digest(n: int):
    model = parse_model(gen.abp_text(n), "ABP-%d" % n)
    algebra = model.algebra()
    # Y occurs under up, not under kdown, so NESTED is not guarded and the
    # engine evaluates it only under an iteration cap; it converges far
    # below this one
    region, stats = evaluate(parse_term(NESTED, algebra), {}, algebra,
                             Limits(max_iter=1000))
    return _digest(region, model), stats


def nested_faithful_digest(n: int):
    model = parse_model(faithful_abp_text(n), "faithful ABP-%d" % n)
    algebra = model.algebra()
    region, stats = evaluate(parse_term(NESTED_FAITHFUL, algebra), {}, algebra, Limits())
    return _digest(region, model), stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests instead of writing them")
    parser.add_argument("--nested", action="store_true",
                        help="a nested-binder term instead of pre*")
    parser.add_argument("--faithful", action="store_true",
                        help="the faithful ABP-n instead")
    parser.add_argument("sizes", nargs="*", type=int,
                        help="sequence numbers n of the ABP-n models "
                             "(default 3 to 7, 3 to 5 with --nested, "
                             "3 to 8 with --faithful, 3 to 6 with both)")
    args = parser.parse_args(argv)
    name, path, sizes, digest = {
        (False, False): ("pre*", DIGESTS, SIZES, prestar_digest),
        (True, False): ("nested", NESTED_DIGESTS, NESTED_SIZES, nested_digest),
        (False, True): ("faithful pre*", FAITHFUL_DIGESTS, FAITHFUL_SIZES,
                        faithful_digest),
        (True, True): ("faithful nested", NESTED_FAITHFUL_DIGESTS,
                       NESTED_FAITHFUL_SIZES, nested_faithful_digest),
    }[args.nested, args.faithful]
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    digests, mismatches = {}, 0
    for n in args.sizes or sizes:
        start = time.process_time()
        digests[str(n)], stats = digest(n)
        print("ABP-%d %s: %.2f s, iterations %s"
              % (n, name, time.process_time() - start, stats.iterations),
              file=sys.stderr)
        if args.check and recorded.get(str(n)) != digests[str(n)]:
            print("ABP-%d %s region text: sha256 %s, recorded %s"
                  % (n, name, digests[str(n)], recorded.get(str(n))))
            mismatches += 1
    if args.check:
        return 1 if mismatches else 0
    recorded.update(digests)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
