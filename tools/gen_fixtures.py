#!/usr/bin/env python3
"""Regenerate the b-file fixture prefixes shipped in src/kfree/data/oeis/.

The definitional sequences (squarefree lists/counts, 2^n +- 1, n! +- 1) are
computed directly; the window-maximum prefix comes from the exact search's
seeded sweep over x = 1..60, which the test suite independently pins against
flat enumeration for small indices and against sandwich bounds everywhere.

    python tools/gen_fixtures.py           # rewrite every fixture
    python tools/gen_fixtures.py --check   # write nothing; exit 1 naming each
                                           # shipped file that differs
"""

import argparse
import os
import sys
from math import factorial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfree.admissible import admissible_max_sweep
from kfree.oeis import BFile, emit_bfile
from kfree.sieve import count_power_free_upto, kfree_window

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "kfree", "data", "oeis")


def fixtures():
    """Each fixture's sequence id and its (index, value) pairs."""
    squarefree = kfree_window(1, 400).members()
    return {
        "A005117": [(i + 1, v) for i, v in enumerate(squarefree[:100])],
        "A013928": [(n, count_power_free_upto(n - 1)) for n in range(1, 201)],
        "A083544": [(result.x, result.value) for result in admissible_max_sweep(60)],
        "A000051": [(n, 2**n + 1) for n in range(0, 31)],
        "A000225": [(n, 2**n - 1) for n in range(0, 31)],
        "A038507": [(n, factorial(n) + 1) for n in range(0, 26)],
        "A033312": [(n, factorial(n) - 1) for n in range(1, 26)],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the shipped files, write nothing")
    args = parser.parse_args(argv)
    stale = []
    for sequence_id, pairs in fixtures().items():
        path = os.path.join(OUT, f"b{sequence_id.lstrip('A')}.txt")
        text = emit_bfile(BFile(sequence_id, dict(pairs)))
        if args.check:
            try:
                with open(path, "rb") as handle:
                    shipped = handle.read()
            except FileNotFoundError:
                shipped = None
            if shipped != text.encode("ascii"):
                stale.append(path)
                print(f"differs: {path}")
            continue
        os.makedirs(OUT, exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
        print(f"wrote {path} ({len(pairs)} entries)")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
