"""Record or check the sha256 of the pre* region text of ABP-n.

    PYTHONPATH=src python tests/record_abp_digests.py
    PYTHONPATH=src python tests/record_abp_digests.py --check 3 4 5 6

ABP-n is the alternating-bit protocol with n sequence numbers that
perfbench/gen.py generates (`abp_text`).  For each n, the script
computes pre* of its GOAL region and hashes the printed region text
(`region_to_text`).  Without --check it writes the digests of the given
sizes (by default 3 to 7) to tests/goldens/abp_prestar_sha256.json.
Re-record only for an intended change of printed regions, and say in
CHANGES.md why they changed.  With --check it compares the given sizes
with that file and exits 1 on any mismatch.  The solve time of each
size goes to stderr; nothing gates on it.
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
from wsmc import Limits, parse_model, parse_region_text, region_to_text  # noqa: E402
from wsmc.compilers import compile_pre_star  # noqa: E402

DIGESTS = os.path.join(HERE, "goldens", "abp_prestar_sha256.json")
SIZES = (3, 4, 5, 6, 7)


def prestar_digest(n: int) -> str:
    model = parse_model(gen.abp_text(n), "ABP-%d" % n)
    region, _ = compile_pre_star(model, parse_region_text("GOAL", model)).run(Limits())
    return hashlib.sha256(region_to_text(region, model).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the recorded digests instead of writing them")
    parser.add_argument("sizes", nargs="*", type=int, default=SIZES,
                        help="sequence numbers n of the ABP-n models (default 3 to 7)")
    args = parser.parse_args(argv)
    recorded = {}
    if args.check:
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
    digests, mismatches = {}, 0
    for n in args.sizes:
        start = time.process_time()
        digests[str(n)] = prestar_digest(n)
        print("ABP-%d pre*: %.2f s" % (n, time.process_time() - start), file=sys.stderr)
        if args.check and recorded.get(str(n)) != digests[str(n)]:
            print("ABP-%d pre* region text: sha256 %s, recorded %s"
                  % (n, digests[str(n)], recorded.get(str(n))))
            mismatches += 1
    if args.check:
        return 1 if mismatches else 0
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
