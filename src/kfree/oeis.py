"""OEIS b-file ingestion and cross-checking of computed quantities against
locally cached sequence data.

B-files are plain text, one ``index value`` pair per line, with ``#`` comment
lines.  Lookups never touch the network: files come from an explicit path,
the directory named by the KFREE_OEIS_CACHE environment variable, or the
fixture prefixes shipped with the package.  Offset conventions differ per
sequence (a classic off-by-one trap), so each supported id carries an
explicit rule in a checked-in manifest.
"""

import os
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate, compress, count, islice

from .admissible import admissible_max_exact, check_time_budget
from .errors import BudgetError
from .properties import named_sequence_term
from .sieve import kfree_window

CACHE_ENV = "KFREE_OEIS_CACHE"


class BFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class BFile:
    sequence_id: str
    entries: dict[int, int]
    source: str = ""

    @property
    def last_index(self) -> int:
        return max(self.entries)


def parse_oeis_bfile(text: str, sequence_id: str = "", source: str = "") -> BFile:
    """Parse ``index value`` lines; '#' comments and blank lines are skipped.

    Raises BFileError with the offending line number on malformed input,
    duplicate indices, or indices out of order.
    """
    entries: dict[int, int] = {}
    previous = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(f"expected 'index value', got {raw!r}", lineno)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(f"non-integer field in {raw!r}", lineno) from None
        if index in entries:
            raise BFileError(f"duplicate index {index}", lineno)
        if previous is not None and index <= previous:
            raise BFileError(f"index {index} not increasing", lineno)
        entries[index] = value
        previous = index
    return BFile(sequence_id, entries, source)


def emit_bfile(bfile: BFile) -> str:
    """Render back to b-file text (sorted indices, LF endings)."""
    lines = [f"{i} {bfile.entries[i]}" for i in sorted(bfile.entries)]
    return "\n".join(lines) + "\n"


def load_bfile(sequence_id: str, path: str | None = None) -> BFile:
    """Load a b-file from an explicit path, the cache directory, or the
    shipped fixtures, in that order."""
    filename = f"b{sequence_id.lstrip('A')}.txt"
    if path is not None:
        with open(path, encoding="ascii") as handle:
            return parse_oeis_bfile(handle.read(), sequence_id, path)
    cache = os.environ.get(CACHE_ENV)
    if cache:
        candidate = os.path.join(cache, filename)
        if os.path.exists(candidate):
            with open(candidate, encoding="ascii") as handle:
                return parse_oeis_bfile(handle.read(), sequence_id, candidate)
    packaged = resources.files("kfree") / "data" / "oeis" / filename
    if not packaged.is_file():
        raise FileNotFoundError(f"no local b-file for {sequence_id}")
    return parse_oeis_bfile(packaged.read_text(), sequence_id, f"packaged:{filename}")


# --- quantities and the offset manifest ---------------------------------------

SF_COUNT = "SF_COUNT"
SF_NTH = "SF_NTH"
A_OF_X = "A_OF_X"
NAMED_TERM = "NAMED_TERM"


@dataclass(frozen=True)
class ManifestRule:
    """How one OEIS id maps onto a computed quantity.

    ``index_start`` is the first index the artifact can reproduce (earlier
    b-file entries fall outside the quantity's domain and are skipped).
    """

    sequence_id: str
    quantity: str
    argument: str
    index_start: int
    note: str


def load_manifest(path: str | None = None) -> dict[str, ManifestRule]:
    if path is not None:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
    else:
        text = (resources.files("kfree") / "data" / "oeis_manifest.tsv").read_text()
    rules = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sequence_id, quantity, argument, index_start, note = line.split("\t")
        rules[sequence_id] = ManifestRule(
            sequence_id, quantity, argument, int(index_start), note
        )
    return rules


def _squarefree_values(quantity: str, indices) -> list[int]:
    """SF_NTH or SF_COUNT values at strictly ascending ``indices``, all read
    from one sieved window: [1, 2 * max index] for SF_NTH, [1, max index - 1]
    for SF_COUNT.

    The n-th squarefree number is the window's n-th member: at most
    sum_p floor(2n / p^2) <= 0.46 * 2n integers up to 2n are divisible by a
    prime square, so at least n members lie in the window.  The count below
    n is the number of flags before n.  A window past the byte cap raises
    ResourceError before any prime is requested, so SF_NTH stops near
    index 10^8 and SF_COUNT near 2 * 10^8.
    """
    if indices[0] < 1:
        raise ValueError("index must be >= 1")
    flags = kfree_window(1, 2 * indices[-1] if quantity == SF_NTH else indices[-1] - 1).flags
    # the value at n is entry n - 1 of ``running``
    running = compress(count(1), flags) if quantity == SF_NTH else accumulate(flags, initial=0)
    values, taken = [], 0
    for n in indices:
        values.append(next(islice(running, n - 1 - taken, None)))
        taken = n
    return values


def computed_value(rule: ManifestRule, index: int, time_budget: float | None = None):
    """The quantity ``rule`` names, at one b-file index.

    SF_NTH reads the window [1, 2 * index], SF_COUNT [1, index - 1], as
    crosscheck does for a whole b-file.  An A_OF_X search that cannot prove
    its value within ``time_budget`` raises BudgetError.
    """
    if rule.quantity in (SF_NTH, SF_COUNT):
        return _squarefree_values(rule.quantity, [index])[0]
    if rule.quantity == A_OF_X:
        result = admissible_max_exact(index, time_budget=time_budget)
        if not result.is_exact:
            # a lower bound checked against the file would overclaim a match
            raise BudgetError(f"A({index}) is only a lower bound within the {time_budget} s budget")
        return result.value
    if rule.quantity == NAMED_TERM:
        return named_sequence_term(rule.argument, index)
    raise ValueError(f"unknown quantity {rule.quantity!r}")


@dataclass(frozen=True)
class CrosscheckReport:
    sequence_id: str
    quantity: str
    checked: tuple[int, ...]
    mismatches: tuple[tuple[int, int, int], ...]  # (index, ingested, computed)
    skipped: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and bool(self.checked)

    def summary(self) -> str:
        if self.mismatches:
            status = f"{len(self.mismatches)} MISMATCH"
        else:
            status = "OK" if self.checked else "NOTHING CHECKED"
        return (
            f"{self.sequence_id} [{self.quantity}]: {len(self.checked)} checked, "
            f"{len(self.skipped)} outside domain, {status}"
        )


def crosscheck(
    bfile: BFile,
    rule: ManifestRule,
    index_range: tuple[int, int] | None = None,
    time_budget: float | None = None,
) -> CrosscheckReport:
    """Compare every ingested entry in range against the computed quantity.

    A budgeted search that cannot prove its value raises BudgetError rather
    than count a lower bound as checked.
    """
    check_time_budget(time_budget)
    if rule.sequence_id != bfile.sequence_id:
        raise ValueError(
            f"manifest rule is for {rule.sequence_id}, b-file is {bfile.sequence_id}"
        )
    if not bfile.entries:
        return CrosscheckReport(bfile.sequence_id, rule.quantity, (), (), ())
    lo = rule.index_start if index_range is None else max(rule.index_start, index_range[0])
    hi = bfile.last_index if index_range is None else min(bfile.last_index, index_range[1])
    indices = sorted(bfile.entries)
    skipped = [index for index in indices if index < rule.index_start]
    checked = [index for index in indices if lo <= index <= hi]
    if rule.quantity in (SF_NTH, SF_COUNT):
        values = _squarefree_values(rule.quantity, checked) if checked else []
    else:
        values = (computed_value(rule, index, time_budget) for index in checked)
    mismatches = [
        (index, bfile.entries[index], actual)
        for index, actual in zip(checked, values)
        if actual != bfile.entries[index]
    ]
    return CrosscheckReport(
        bfile.sequence_id,
        rule.quantity,
        tuple(checked),
        tuple(mismatches),
        tuple(skipped),
    )
