"""Command-line surface over the library.

Subcommands
-----------
compute         evaluate a functional on a distribution
coarsen         aggregate a distribution by a partition
verify          run a monotonicity campaign (exit 1 on any violation)
replay          rebuild one campaign case from its coordinates
classify        run the grid certificates for one functional
axioms          basic-axiom and composition residuals for one functional
counterexample  reproduce the built-in pathological functional's behavior
partitions      enumerate the partitions of {0..n-1}

Conventions: all data goes to stdout, all diagnostics to stderr.  Exit 0 on
success with every check passing, 1 on any verification violation, 2 on
usage or I/O errors, 3 on an internal error (an unexpected exception: its
traceback goes to stderr).  The seed defaults to 0 so identical invocations
emit identical bytes.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import argparse
import functools
import math
import sys
import traceback

import numpy as np

from . import verify as verify_mod
from .axioms import check_basic_axioms, check_product_composability
from .catalog import (
    EntropySpec,
    default_campaign_specs,
    evaluate,
    spec_from_json,
)
from .classify import check_concavity, check_outer_map_pairing, check_slope_condition
from .distributions import FiniteDistribution, coarse_grain
from .errors import GentropyError, _json_document, _json_value
from .partitions import Partition, bell_number, enumerate_partitions

_HE_CURVE_SAMPLES = 401
# the csv field of a partition with blocks of these sizes, a %s per element
_csv_blocks = functools.cache(lambda sizes: ";".join("|".join(["%s"] * k) for k in sizes))


def _read_source(value: str) -> str:
    """Inline JSON if it looks like JSON, else the contents of a file."""
    stripped = value.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    try:
        with open(value, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # not UTF-8, or a NUL in the path
        raise GentropyError(f"cannot read {value!r}: {exc}") from exc


def _parse_entropy(value: str) -> EntropySpec:
    return spec_from_json(_read_source(value))


def _parse_dist(value: str) -> FiniteDistribution:
    text = _read_source(value)
    stripped = text.strip()
    if stripped.startswith("["):
        return FiniteDistribution(_json_value(stripped, "distribution"))
    if stripped.startswith("{"):
        return FiniteDistribution.from_json(stripped)
    return FiniteDistribution.from_csv(text)


def _n_range(value: str) -> list[int]:
    """The dimensions of ``lo..hi`` or ``a,b,c``; a malformed or empty range is refused."""
    lo, dots, hi = value.partition("..")
    try:
        n_values = list(range(int(lo), int(hi) + 1) if dots else map(int, value.split(",")))
    except ValueError:
        n_values = []
    if not n_values:
        raise argparse.ArgumentTypeError(f"must name dimensions as lo..hi or a,b,c: {value!r}")
    return n_values


def _print_json(payload) -> None:
    """Print strict indent-2 JSON; a non-finite number is an error, not a token."""
    sys.stdout.writelines(_json_document(payload))


def _emit(report: verify_mod.VerificationReport, fmt: str) -> None:
    sys.stdout.write(verify_mod.emit_report(report, fmt).decode("utf-8"))


def _cmd_compute(args: argparse.Namespace) -> int:
    spec = _parse_entropy(args.entropy)
    dist = _parse_dist(args.dist)
    print(repr(evaluate(spec, dist)))
    return 0


def _cmd_coarsen(args: argparse.Namespace) -> int:
    dist = _parse_dist(args.dist)
    partition = Partition.from_json(_read_source(args.partition), dist.n)
    print(coarse_grain(dist, partition).to_json())
    return 0


def _campaign_specs(args: argparse.Namespace) -> list[EntropySpec]:
    if args.all:
        return default_campaign_specs(include_unstable=args.include_unstable)
    if args.entropy:
        return [_parse_entropy(value) for value in args.entropy]
    raise GentropyError(f"{args.command} needs --all or at least one --entropy")


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_mod.run_monotonicity_campaign(
        _campaign_specs(args),
        args.n,
        args.cases,
        args.seed,
        tolerance=args.tolerance,
        campaign_id="verify-all" if args.all else "verify",
    )
    _emit(report, args.format)
    return 0 if report.passed else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    entry = verify_mod.replay_case(
        _campaign_specs(args),
        args.spec_index,
        args.n_value,
        args.case,
        args.seed,
        tolerance=args.tolerance,
    )
    _print_json(entry.to_dict())
    return 0 if entry.passed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _parse_entropy(args.entropy)
    slope = check_slope_condition(spec, args.grid_density)
    concavity = check_concavity(spec, args.grid_density)
    # wrapped forms may certify through the sign pairing instead
    pairing = check_outer_map_pairing(spec, args.grid_density)
    results = [slope.to_dict(), concavity.to_dict(), pairing.to_dict()]
    _print_json(results)
    return 0 if (slope.passed or pairing.passed) else 1


def _cmd_axioms(args: argparse.Namespace) -> int:
    spec = _parse_entropy(args.entropy)
    residuals = [r.to_dict() for r in check_basic_axioms(spec, args.samples, args.seed)]
    product = check_product_composability(spec, args.samples, args.seed)
    if product is not None:
        residuals.append(product)
    payload = {
        "spec": spec.label(),
        "samples": args.samples,
        "seed": args.seed,
        "residuals": residuals,
    }
    _print_json(payload)

    failed = False
    for entry in residuals:
        budget = entry.get("budget") or 1e-10
        # an expected axiom that no sample could probe is not a pass
        if entry["cases_run"] == 0 or entry["max_abs_residual"] > budget:
            failed = True
    return 1 if failed else 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    report = verify_mod.counterexample_suite()
    _emit(report, args.format)
    if args.curve:
        xs = np.linspace(0.0, 1.0, _HE_CURVE_SAMPLES)
        phis = EntropySpec("counterexample_HE").functional.phi(xs)
        lines = ["x,phi"] + [f"{x!r},{v!r}" for x, v in zip(xs.tolist(), phis.tolist())]
        with open(args.curve, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote component curve samples to {args.curve}", file=sys.stderr)
    if not report.passed:
        # the suite itself failed to reproduce the documented behavior
        print("counterexample suite FAILED to reproduce pinned values", file=sys.stderr)
        return 1
    # Violations are present by design; flag them and exit 1 unless the
    # caller declared they expect them.
    print(
        "expected=true: the functional violates aggregation monotonicity by design",
        file=sys.stderr,
    )
    return 0 if args.expect_violation else 1


def _cmd_partitions(args: argparse.Namespace) -> int:
    """Write each partition as it is enumerated and keep none; both counts are Bell(n)."""
    n, parts = args.n_value, enumerate_partitions(args.n_value)
    parts, count, out = chain([next(parts)], parts), bell_number(n), sys.stdout
    # exact-size tuples: a tuple made from an iterator leaves CPython's tuple free lists full
    shape = lambda part: tuple([len(b) for b in part.blocks])
    if args.format == "csv":  # a template per tuple of block sizes, filled with the elements
        out.write("index,blocks\n")
        out.writelines("%d,%s\n" % (i, _csv_blocks(shape(part)) % sum(part.blocks, ()))
                       for i, part in enumerate(parts))
    elif args.format == "markdown":
        out.write(f"# Partitions of {{0..{n - 1}}} (count {count})\n")
        out.writelines(map("- %d: %r\n".__mod__, enumerate(parts)))
    else:  # json.dumps' own layout, each partition from the report writer's templates
        texts = (verify_mod._template(shape(part), 2) % sum(part.blocks, ()) for part in parts)
        payload = {"n": n, "count": count, "bell": count}
        out.writelines(_json_document(payload, "partitions", texts))
    return 0


def _bounded(kind: type, above, what: str):
    """An argparse type: ``kind(value)``, refused unless above ``above`` and finite."""
    def parse(value: str):
        out = kind(value)
        if not above < out < math.inf:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")
        return out
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: ..."
    return parse


_positive_int = _bounded(int, 0, "a positive integer")
_non_negative_int = _bounded(int, -1, "a non-negative integer")
_positive_float = _bounded(float, 0.0, "positive and finite")


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The spec selection, seed and tolerance that ``verify`` and ``replay`` share."""
    parser.add_argument("--all", action="store_true", help="whole shipped catalog")
    parser.add_argument(
        "--include-unstable",
        action="store_true",
        help="add the literal double-sum family excluded by default",
    )
    parser.add_argument(
        "--entropy", action="append", help="entropy spec JSON or path (repeatable)"
    )
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--tolerance", type=_positive_float, default=1e-9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentropy",
        description="Generalized entropies, coarse-graining, and monotonicity certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a functional on a distribution")
    p_compute.add_argument("--entropy", required=True, help="entropy spec JSON or path")
    p_compute.add_argument("--dist", required=True, help="distribution JSON/CSV or path")
    p_compute.set_defaults(func=_cmd_compute)

    p_coarsen = sub.add_parser("coarsen", help="aggregate a distribution by a partition")
    p_coarsen.add_argument("--dist", required=True, help="distribution JSON/CSV or path")
    p_coarsen.add_argument("--partition", required=True, help="partition JSON or path")
    p_coarsen.set_defaults(func=_cmd_coarsen)

    p_verify = sub.add_parser("verify", help="run a monotonicity campaign")
    _add_campaign_arguments(p_verify)
    p_verify.add_argument(
        "--n", type=_n_range, default="3..8", help="dimension range, e.g. 3..8 or 3,5,7"
    )
    p_verify.add_argument(
        "--cases", type=_positive_int, default=200, help="cases per (spec, n)"
    )
    p_verify.add_argument("--format", choices=("json", "markdown", "csv"), default="json")
    p_verify.set_defaults(func=_cmd_verify)

    p_replay = sub.add_parser(
        "replay", help="rebuild one campaign case from its coordinates"
    )
    _add_campaign_arguments(p_replay)
    p_replay.add_argument(
        "--spec-index", type=_non_negative_int, required=True,
        help="position of the spec in the selection",
    )
    p_replay.add_argument("--n", dest="n_value", type=int, required=True)
    p_replay.add_argument("--case", type=_non_negative_int, required=True)
    p_replay.set_defaults(func=_cmd_replay)

    p_classify = sub.add_parser("classify", help="grid certificates for one functional")
    p_classify.add_argument("--entropy", required=True)
    p_classify.add_argument("--grid-density", type=int, default=200)
    p_classify.set_defaults(func=_cmd_classify)

    p_axioms = sub.add_parser("axioms", help="axiom residuals for one functional")
    p_axioms.add_argument("--entropy", required=True)
    p_axioms.add_argument("--samples", type=_positive_int, default=1000)
    p_axioms.add_argument("--seed", type=_non_negative_int, default=0)
    p_axioms.set_defaults(func=_cmd_axioms)

    p_counter = sub.add_parser(
        "counterexample", help="reproduce the built-in pathological functional"
    )
    p_counter.add_argument("--format", choices=("json", "markdown", "csv"), default="markdown")
    p_counter.add_argument(
        "--expect-violation",
        action="store_true",
        help="exit 0 even though violations are present (they are, by design)",
    )
    p_counter.add_argument(
        "--curve", metavar="PATH", help="also write (x, component) CSV samples"
    )
    p_counter.set_defaults(func=_cmd_counterexample)

    p_partitions = sub.add_parser("partitions", help="enumerate partitions of {0..n-1}")
    p_partitions.add_argument("--n", dest="n_value", type=int, required=True)
    p_partitions.add_argument(
        "--format", choices=("json", "markdown", "csv"), default="json"
    )
    p_partitions.set_defaults(func=_cmd_partitions)

    return parser


_parser = functools.cache(build_parser)  # main parses with one parser per process


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GentropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault, not a verdict: exit 1 means violations
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
