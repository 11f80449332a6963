"""Command-line surface.

Every subcommand writes deterministic, byte-identical output for identical
flags: all randomness sits behind an explicit --seed, reals are printed with
10 significant digits and '.' separators, rows end with LF.  Exit codes:
0 success, 1 computation failure or mismatch, 2 usage error.
"""

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import cache

from .admissible import (
    admissible_max_exact,
    admissible_max_lower_shift,
    admissible_max_sweep,
    admissible_max_upper_sieve,
)
from .constructions import (
    DenseQState,
    dense_q_step,
    greedy_squarefree_sums,
    overp_base_point,
    overp_sequence,
    property_p_sequence,
    resolve_growth,
    sample_counterexample,
    suff_witness_search,
)
from .errors import KfreeError
from .large_sieve import OmegaProfile, es_omega, optimize_q, sieve_bound, verify_sqsieve_inequality
from .oeis import crosscheck, load_bfile, load_manifest
from .properties import (
    NAMED_TAGS,
    NoWitness,
    check_q_prefix,
    check_squarefree_sums,
    named_sequence_certificate,
    named_sequence_prefix,
)
from .sieve import count_power_free_upto, density_main_term, primes_upto


def _real(value: float) -> str:
    return f"{value:.10g}"


@dataclass(frozen=True)
class FigureRow:
    x: int
    a_minus_main: float
    q_minus_main: float
    status: str


def figure_shift_data(x_max: int, k: int = 2, time_budget: float | None = None) -> list[FigureRow]:
    """Per x: window maximum and k-free count, each minus the density main
    term x/zeta(k); the status column records whether the maximum is exact."""
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    rows = []
    for result in admissible_max_sweep(x_max, k, time_budget):
        main = density_main_term(result.x, k)
        rows.append(
            FigureRow(result.x, result.value - main, count_power_free_upto(result.x, k) - main, result.status)
        )
    return rows


def render_figure_csv(rows) -> str:
    lines = ["x,a_minus_main,q_minus_main,status"]
    for row in rows:
        lines.append(
            f"{row.x},{_real(row.a_minus_main)},{_real(row.q_minus_main)},{row.status}"
        )
    return "\n".join(lines) + "\n"


def _profile(name: str, k: int) -> OmegaProfile:
    if name == "constant-one":
        return OmegaProfile.constant_one(k)
    if name == "es-sumfree":
        es_omega(2, k)  # the profile is derived for k = 2 only; raises otherwise
        return OmegaProfile.es_sumfree()
    raise ValueError(f"unknown profile {name!r}")


def _print_report(report, out) -> int:
    if isinstance(report, NoWitness):
        print(f"no witness ({report.candidates_examined} candidates examined)", file=out)
        return 1
    print(f"witness {report.witness} [{report.certification}]", file=out)
    for entry in report.trace:
        print(f"  {entry.element} -> {entry.shifted}", file=out)
    return 0


def _cmd_sieve_count(args, out) -> int:
    print(count_power_free_upto(args.x, args.k), file=out)
    return 0


def _cmd_admissible_max(args, out) -> int:
    rows = []
    if args.table:
        results = admissible_max_sweep(args.x, args.k, args.budget)
    else:
        results = [admissible_max_exact(args.x, args.k, args.budget)]
    for result in results:
        brackets = None
        if args.bounds:
            lower, _ = admissible_max_lower_shift(result.x, args.k, shifts=range(2000))
            brackets = (lower, admissible_max_upper_sieve(result.x, args.k))
        rows.append((result, brackets))
    if args.format == "json":
        payload = []
        for result, brackets in rows:
            entry = {
                "x": result.x,
                "value": result.value,
                "status": result.status,
                "witness": {str(p): c for p, c in sorted(result.witness.items())},
            }
            if brackets:
                entry["lower_shift"], entry["upper_sieve"] = brackets
            payload.append(entry)
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        header = "x,value,status,witness"
        if args.bounds:
            header += ",lower_shift,upper_sieve"
        print(header, file=out)
        for result, brackets in rows:
            witness = ";".join(f"{p}:{c}" for p, c in sorted(result.witness.items()))
            line = f"{result.x},{result.value},{result.status},{witness}"
            if brackets:
                line += f",{brackets[0]},{brackets[1]}"
            print(line, file=out)
    return 0


def _cmd_figure_shift(args, out) -> int:
    csv_text = render_figure_csv(figure_shift_data(args.xmax, args.k, args.budget))
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as handle:
            handle.write(csv_text)
    else:
        out.write(csv_text)
    return 0


def _cmd_verify_named(args, out) -> int:
    if args.mode == "terms":
        for term in named_sequence_prefix(args.tag, args.prefix):
            print(term, file=out)
        return 0
    if args.mode == "certificate":
        for p in primes_upto(args.prime_bound):
            print(f"p={p}: avoids {named_sequence_certificate(args.tag, p)}", file=out)
        return 0
    if args.mode == "sums":
        violation = check_squarefree_sums(named_sequence_prefix(args.tag, args.prefix))
        if violation is None:
            print("all pairwise sums squarefree", file=out)
            return 0
        print(
            f"violation: {violation.a} + {violation.a_prime} divisible by "
            f"{violation.prime}^2",
            file=out,
        )
        return 0
    if args.mode == "q-witness":
        if args.prefix < 1:
            raise ValueError("q-witness needs --prefix >= 1")
        prefix = named_sequence_prefix(args.tag, args.prefix)
        report = suff_witness_search(
            prefix, prefix[-1], theta=args.theta, interval=args.interval
        )
        return _print_report(report, out)
    if args.mode == "q-prefix":
        report = check_q_prefix(args.tag, args.prefix, strategy="PLAIN_SCAN")
        return _print_report(report, out)
    raise ValueError(f"unknown mode {args.mode!r}")


def _cmd_construct(args, out) -> int:
    if args.construction == "P":
        sequence = property_p_sequence(resolve_growth(args.growth), args.count)
        for term in sequence.terms:
            print(term, file=out)
        return 0
    if args.construction == "greedy-sums":
        result = greedy_squarefree_sums(args.count, not args.no_diagonal)
        for term in result.terms:
            print(term, file=out)
        return 0
    if args.construction == "dense-q":
        if args.steps < 0:
            raise ValueError("--steps must be nonnegative")
        state = DenseQState.start(args.n1)
        for _ in range(args.steps):
            state = dense_q_step(state, args.epsilon, args.x, seed=args.seed)
        print(json.dumps({"anchors": state.anchors}), file=out)
        return 0
    if args.construction == "sample-counter":
        sample = sample_counterexample(args.c, args.xmax, args.seed)
        print(json.dumps({"size": len(sample), "elements": list(sample)}), file=out)
        return 0
    if args.construction == "overp":
        if args.cap < 0:
            raise ValueError("--cap must be nonnegative")
        if args.depth is not None:
            result = overp_sequence(args.scale, args.depth, induced_cap=args.cap)
            print(
                json.dumps(
                    {
                        "thresholds": list(result.thresholds),
                        "anchor_bits": [n.bit_length() for n in result.anchors],
                        "induced": list(result.induced),
                        "certification": str(result.certification),
                    }
                ),
                file=out,
            )
        else:
            print(overp_base_point(args.p, max_candidates=args.candidates), file=out)
        return 0
    raise ValueError(f"unknown construction {args.construction!r}")


def _cmd_sieve_bound(args, out) -> int:
    profile = _profile(args.profile, args.k)
    if args.optimize:
        q_star, bound = optimize_q(args.n, profile, range(1, args.qmax + 1))
        print(f"Q*={q_star} bound={bound} ({_real(float(bound))})", file=out)
    else:
        bound = sieve_bound(args.n, args.q, profile)
        print(f"bound={bound} ({_real(float(bound))})", file=out)
    return 0


def _index_range(text: str) -> tuple[int, int]:
    """argparse type for ``lo:hi``; a malformed range is a usage error."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi with integer ends, got {text!r}") from None


def _cmd_crosscheck(args, out) -> int:
    rules = load_manifest(args.manifest)
    ids = args.ids or sorted(rules)
    if args.bfile and len(ids) != 1:
        raise ValueError("--bfile needs exactly one --id")
    failures = 0
    for sequence_id in ids:
        if sequence_id not in rules:
            print(f"{sequence_id}: no manifest rule", file=sys.stderr)
            return 1
        bfile = load_bfile(sequence_id, args.bfile if len(ids) == 1 else None)
        report = crosscheck(bfile, rules[sequence_id], args.range, args.budget)
        print(report.summary(), file=out)
        for index, expected, actual in report.mismatches:
            print(f"  index {index}: file has {expected}, computed {actual}", file=out)
        if not report.ok:
            failures += 1
    return 1 if failures else 0


def random_sqsieve_instance(rng):
    """One random per-prime Fourier instance: prime, removed classes, and
    unit coefficients supported off those classes."""
    p = rng.choice((2, 3, 5, 7))
    q = p * p
    omega = rng.randrange(1, q)
    removed = rng.sample(range(q), omega)
    keep = sorted(set(range(q)) - set(removed))
    coeffs = {}
    for _ in range(rng.randrange(1, 10)):
        n = rng.randrange(1, 400)
        n += (keep[rng.randrange(len(keep))] - n) % q
        angle = 2 * math.pi * rng.random()
        coeffs[n] = complex(math.cos(angle), math.sin(angle))
    return p, removed, coeffs


def _cmd_verify_appendix(args, out) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        p, removed, coeffs = random_sqsieve_instance(rng)
        check = verify_sqsieve_inequality(p, 2, removed, coeffs)
        if not (check.holds and check.plancherel_ok):
            failures += 1
            print(f"trial {trial}: FAILED (p={p}, omega={len(set(removed))})", file=out)
    print(f"{args.trials - failures}/{args.trials} randomized instances hold", file=out)
    return 1 if failures else 0


# Built once per process: parsing leaves the parser unchanged, and no action
# keeps a value between calls (--id appends to a fresh list each time).
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfree",
        description="k-free sieving, certificates, and window-maximum experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve-count", help="count k-free integers up to x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_sieve_count)

    p = sub.add_parser("admissible-max", help="exact window maximum with witness")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget", type=float, default=None, help="seconds before degrading to a lower bound")
    p.add_argument("--table", action="store_true", help="emit all x' <= x")
    p.add_argument("--bounds", action="store_true", help="append shift/sieve bracket columns")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_admissible_max)

    p = sub.add_parser("figure-shift", help="window maximum and k-free count minus the main term")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_figure_shift)

    p = sub.add_parser("verify-named", help="inspect the named test sequences A1-A4")
    p.add_argument("--tag", choices=NAMED_TAGS, required=True)
    p.add_argument("--prefix", type=int, default=10)
    p.add_argument(
        "--mode",
        choices=("terms", "certificate", "sums", "q-witness", "q-prefix"),
        default="terms",
    )
    p.add_argument("--prime-bound", type=int, default=13)
    p.add_argument("--theta", type=float, default=0.1)
    p.add_argument("--interval", choices=("HALF", "FORWARD"), default="HALF")
    p.set_defaults(func=_cmd_verify_named)

    p = sub.add_parser("construct", help="run one of the explicit constructions")
    csub = p.add_subparsers(dest="construction", required=True)

    c = csub.add_parser("P", help="slow-density sequence whose translates all die")
    c.add_argument("--growth", default="identity", help="identity, half, jlogj, or times<c>")
    c.add_argument("--count", type=int, default=50)
    c.set_defaults(func=_cmd_construct)

    c = csub.add_parser("greedy-sums", help="greedy pairwise-sum sequence")
    c.add_argument("--count", type=int, default=10)
    c.add_argument("--no-diagonal", action="store_true")
    c.set_defaults(func=_cmd_construct)

    c = csub.add_parser("dense-q", help="dense anchor iteration")
    c.add_argument("--n1", type=int, default=2)
    c.add_argument("--x", type=int, required=True)
    c.add_argument("--steps", type=int, default=1)
    c.add_argument("--epsilon", type=float, default=0.5)
    c.add_argument("--seed", type=int, default=None)
    c.set_defaults(func=_cmd_construct)

    c = csub.add_parser("sample-counter", help="seeded random k-free subset")
    c.add_argument("--c", type=float, default=5.0)
    c.add_argument("--xmax", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_construct)

    c = csub.add_parser("overp", help="primorial-power base points and anchor sequences")
    c.add_argument("--p", type=int, default=3, help="single base point at this threshold")
    c.add_argument("--candidates", type=int, default=10**6)
    c.add_argument("--scale", type=int, default=3)
    c.add_argument("--depth", type=int, default=None, help="build the doubly exponential sequence")
    c.add_argument("--cap", type=int, default=100)
    c.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sieve-bound", help="exact-rational large sieve bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--profile", choices=("constant-one", "es-sumfree"), default="constant-one")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--qmax", type=int, default=10)
    p.set_defaults(func=_cmd_sieve_bound)

    p = sub.add_parser("crosscheck", help="compare computed values against local b-files")
    p.add_argument("--id", dest="ids", action="append", default=None, metavar="A013928")
    p.add_argument("--bfile", default=None, help="explicit b-file path (single id only)")
    p.add_argument("--manifest", default=None)
    p.add_argument("--range", type=_index_range, default=None, help="lo:hi index range")
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("verify-appendix", help="randomized Fourier checks of the per-prime bound")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_appendix)

    return parser


def main(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except (KfreeError, ValueError, OSError, OverflowError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
