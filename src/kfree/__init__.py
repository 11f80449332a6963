"""Toolkit for k-free integers: sieving, avoidance certificates, translate
witnesses, explicit sequence constructions, exact window maxima with large
sieve upper bounds, and OEIS b-file cross-checking.

Each name is imported from the submodule that defines it, for example
``from kfree.sieve import count_power_free_upto``; this package re-exports
nothing, so ``import kfree`` loads no submodule, and each ``kfree``
subcommand loads only the modules it runs.
"""

__version__ = "0.1.0"
