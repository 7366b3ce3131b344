"""Record or check the sha256 of the pre* region text of ABP-n.

    PYTHONPATH=src python tests/record_abp_digests.py
    PYTHONPATH=src python tests/record_abp_digests.py --check 3 4 5 6
    PYTHONPATH=src python tests/record_abp_digests.py --nested --check

ABP-n is the alternating-bit protocol with n sequence numbers that
perfbench/gen.py generates (`abp_text`).  For each n, the script
computes pre* of its GOAL region and hashes the printed region text
(`region_to_text`).  Without --check it writes the digests of the given
sizes (by default 3 to 7) to tests/goldens/abp_prestar_sha256.json.
Re-record only for an intended change of printed regions, and say in
CHANGES.md why they changed.  With --check it compares the given sizes
with that file and exits 1 on any mismatch.  The solve time of each
size goes to stderr; nothing gates on it.

With --nested the script does the same for the nested-binder term
NESTED (by default on ABP-3 to ABP-5), whose inner binder restarts on
every outer iteration, with its digests in
tests/goldens/abp_nested_sha256.json.
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


def _digest(region, model) -> str:
    return hashlib.sha256(region_to_text(region, model).encode("utf-8")).hexdigest()


def prestar_digest(n: int) -> str:
    model = parse_model(gen.abp_text(n), "ABP-%d" % n)
    region, _ = compile_pre_star(model, parse_region_text("GOAL", model)).run(Limits())
    return _digest(region, model)


def nested_digest(n: int) -> str:
    model = parse_model(gen.abp_text(n), "ABP-%d" % n)
    algebra = model.algebra()
    # Y occurs under up, not under kdown, so NESTED is not guarded and the
    # engine evaluates it only under an iteration cap; it converges far
    # below this one
    region, _ = evaluate(parse_term(NESTED, algebra), {}, algebra, Limits(max_iter=1000))
    return _digest(region, model)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests instead of writing them")
    parser.add_argument("--nested", action="store_true",
                        help="the nested-binder term NESTED instead of pre*")
    parser.add_argument("sizes", nargs="*", type=int,
                        help="sequence numbers n of the ABP-n models "
                             "(default 3 to 7, or 3 to 5 with --nested)")
    args = parser.parse_args(argv)
    name, path, sizes, digest = (
        ("nested", NESTED_DIGESTS, NESTED_SIZES, nested_digest) if args.nested
        else ("pre*", DIGESTS, SIZES, prestar_digest))
    recorded = {}
    if args.check:
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    digests, mismatches = {}, 0
    for n in args.sizes or sizes:
        start = time.process_time()
        digests[str(n)] = digest(n)
        print("ABP-%d %s: %.2f s" % (n, name, time.process_time() - start),
              file=sys.stderr)
        if args.check and recorded.get(str(n)) != digests[str(n)]:
            print("ABP-%d %s region text: sha256 %s, recorded %s"
                  % (n, name, digests[str(n)], recorded.get(str(n))))
            mismatches += 1
    if args.check:
        return 1 if mismatches else 0
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
