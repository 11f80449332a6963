"""Spans around calls into kfree's public functions, from outside the package.

``Tracer.install`` replaces each listed function by a timing wrapper on its own
module and on every kfree module that imported it by name, so calls between
kfree modules (``sieve._table_for`` calling ``build_prime_table``, say) are
caught as well.  Spans (name, start, end, parent) stay in memory until the
pass ends; self time is a span's duration minus the time its child spans cover.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

# The public functions the per-layer metrics cover, by layer (kfree module).
TRACED = {
    "sieve": ("build_prime_table", "smallest_power_divisor", "nth_prime", "kfree_window", "count_power_free_upto"),
    "admissible": ("admissible_max_exact", "admissible_max_lower_shift", "admissible_max_upper_sieve"),
    "large_sieve": ("h_weights_upto", "h_sum", "optimize_q", "verify_sqsieve_inequality"),
    "properties": (
        "admissibility_certificate",
        "find_translate_witness",
        "check_squarefree_sums",
        "property_p_evidence",
        "check_q_prefix",
    ),
    "constructions": (
        "sample_counterexample",
        "greedy_squarefree_sums",
        "suff_witness_search",
        "dense_q_step",
        "overp_base_point",
    ),
    "oeis": ("crosscheck", "computed_value"),
    "cli": ("main",),
}

# Work counts taken from a traced function's result: (function, metric, value of result).
WORK = (
    ("sieve.build_prime_table", "limit_sum", lambda table: table.limit),
    ("sieve.kfree_window", "ints", lambda window: window.length),
    ("admissible.admissible_max_exact", "exact", lambda result: int(result.is_exact)),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.work = Counter()
        self.errors = Counter()  # exceptions leaving a traced function, by layer
        self._stack: list[int] = []
        self._paused = 0
        self._restore = []

    def install(self) -> None:
        kfree_modules = [m for name, m in sys.modules.items() if name == "kfree" or name.startswith("kfree.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"kfree.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for holder in kfree_modules:
                    if getattr(holder, name, None) is original:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1)

    def _wrap(self, name: str, layer: str, function):
        counts = [(metric, value) for traced, metric, value in WORK if traced == name]

        @wraps(function)
        def wrapper(*args, **kwargs):
            if self._paused:
                return function(*args, **kwargs)
            index = self._open()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except Exception as error:
                # count each exception once, in the innermost layer it leaves
                if not getattr(error, "_bench_counted", False):
                    self.errors[layer] += 1
                    error._bench_counted = True
                raise
            finally:
                self._close(index, name, start)
            for metric, value in counts:
                self.work[f"{name}.{metric}"] += value(result)
            return result

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
        return totals
