#!/usr/bin/env python3
"""Regenerate the b-file fixture prefixes shipped in src/kfree/data/oeis/.

The definitional sequences (squarefree lists/counts, 2^n +- 1, n! +- 1) are
computed directly; the window-maximum prefix comes from the exact search's
seeded sweep over x = 1..60, which the test suite independently pins against
flat enumeration for small indices and against sandwich bounds everywhere.
"""

import os
import sys
from math import factorial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kfree.admissible import admissible_max_sweep
from kfree.oeis import BFile, emit_bfile
from kfree.sieve import count_power_free_upto, kfree_window

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "kfree", "data", "oeis")


def write(sequence_id, pairs):
    path = os.path.join(OUT, f"b{sequence_id.lstrip('A')}.txt")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(emit_bfile(BFile(sequence_id, dict(pairs))))
    print(f"wrote {path} ({len(pairs)} entries)")


def main():
    os.makedirs(OUT, exist_ok=True)
    squarefree = kfree_window(1, 400).members()
    write("A005117", [(i + 1, v) for i, v in enumerate(squarefree[:100])])
    write("A013928", [(n, count_power_free_upto(n - 1)) for n in range(1, 201)])
    write("A083544", [(result.x, result.value) for result in admissible_max_sweep(60)])
    write("A000051", [(n, 2**n + 1) for n in range(0, 31)])
    write("A000225", [(n, 2**n - 1) for n in range(0, 31)])
    write("A038507", [(n, factorial(n) + 1) for n in range(0, 26)])
    write("A033312", [(n, factorial(n) - 1) for n in range(1, 26)])


if __name__ == "__main__":
    main()
