"""Command-line interface.

Subcommands: ``classify`` (one number's class), ``trace`` (raw trajectory),
``census`` (class counts over [1, S]), ``series`` (cumulative fractions at
sample points), ``verify`` (fast-vs-direct cross-check). Census and series
render as a table, csv, or a single json document.

Exit codes: 0 success, 1 run failure (overflow, exhausted budget, checkpoint
problems, verification mismatches), 2 usage errors, 130 interrupted (Ctrl-C),
143 a ``census`` stopped by SIGTERM. An interrupted or terminated ``census``
prints the first n it did not count, and, with ``--checkpoint``, saves the
completed prefix there for ``--resume``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .census import (
    CensusAbortError,
    CensusConfig,
    CensusInterrupted,
    CensusResult,
    CheckpointError,
    ClassCounts,
    _signal_handlers,
    run_census,
    run_series,
)
from .classifier import build_residue_cache, classify_fast, verify_range
from .kernel import (
    DEFAULT_STEP_BUDGET,
    NAT_MAX,
    MapKind,
    NatOverflowError,
    NatRangeError,
    StepBudgetExceeded,
    basis_for,
    iterate,
)
from .oracle import classify_direct

_DECIMAL = re.compile(r"^[0-9]+$")


def _count_arg(text: str) -> int:
    # strict decimal: no signs, no whitespace, no separators
    if not _DECIMAL.match(text):
        raise argparse.ArgumentTypeError(
            f"expected an unsigned decimal integer, got {text!r}"
        )
    return int(text)


def _positive_arg(text: str) -> int:
    value = _count_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _nat_arg(text: str) -> int:
    value = _positive_arg(text)
    if value > NAT_MAX:
        raise argparse.ArgumentTypeError("value exceeds the 128-bit limit")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-census",
        description="Classify integers by their composite-map fixed point and "
        "census the classes exhaustively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class of a single number")
    p.add_argument("n", type=_nat_arg)
    p.add_argument("--map", choices=["cr3", "pdcr2"], default="cr3")
    p.add_argument("--path", choices=["fast", "direct"], default="fast")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("trace", help="print a trajectory")
    p.add_argument("n", type=_nat_arg)
    p.add_argument("--map", choices=["cr", "cr3", "pdcr", "pdcr2"], default="cr3")
    p.add_argument("--max-steps", type=_count_arg, default=DEFAULT_STEP_BUDGET)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("census", help="count class memberships over [1, S]")
    p.add_argument("S", type=_nat_arg)
    p.add_argument("--map", choices=["cr3", "pdcr2"], default="cr3")
    p.add_argument("--chunk-size", type=_positive_arg, default=CensusConfig.chunk_size)
    # accepted and ignored: the census runs serially, but existing scripts pass it
    p.add_argument("--workers", type=_positive_arg, help=argparse.SUPPRESS)
    p.add_argument("--cache-bound", type=_positive_arg, default=CensusConfig.cache_bound)
    p.add_argument("--checkpoint", metavar="FILE", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("series", help="cumulative fractions at sample points")
    p.add_argument("S_max", type=_nat_arg)
    p.add_argument("--points", type=_positive_arg, default=10)
    p.add_argument("--spacing", choices=["log", "linear"], default="log")
    p.add_argument("--map", choices=["cr3", "pdcr2"], default="cr3")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="cross-check fast vs direct classification")
    p.add_argument("V", type=_nat_arg)
    p.add_argument("--map", choices=["cr3", "pdcr2"], default="cr3")
    p.set_defaults(func=_cmd_verify)

    return parser


def _cmd_classify(args) -> int:
    map_kind = MapKind(args.map)
    if args.path == "direct":
        outcome = classify_direct(map_kind, args.n)
    else:
        # n descends into the two-entry cache the build starts from
        outcome = classify_fast(map_kind, args.n, build_residue_cache(basis_for(map_kind), 2))
    parts = [f"n={args.n}", f"map={map_kind.value}", f"label={outcome.label}"]
    if outcome.composite_steps is not None:
        parts.append(f"steps={outcome.composite_steps}")
    parts.append(f"path={outcome.path}")
    print(" ".join(parts))
    return 0


def _cmd_trace(args) -> int:
    trajectory = iterate(MapKind(args.map), args.n, max_steps=args.max_steps)
    print(" ".join(str(v) for v in trajectory.values))
    print(f"terminated: {trajectory.terminated.value} ({trajectory.steps} steps)")
    return 0


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised where it lands, so that a census stops as on Ctrl-C."""


def _terminate(signum, frame):
    raise _Terminated


def _cmd_census(args) -> int:
    if args.resume and args.checkpoint is None:
        print("error: --resume requires --checkpoint FILE", file=sys.stderr)
        return 2
    config = CensusConfig(chunk_size=args.chunk_size, cache_bound=args.cache_bound)
    with _signal_handlers(_terminate, "SIGTERM"):
        result = run_census(
            MapKind(args.map),
            args.S,
            config,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    print(_render_census(result, args.format), end="")
    return 0


def _cmd_series(args) -> int:
    if args.S_max < args.points:
        print(
            f"error: need S_max >= points, got S_max={args.S_max}, points={args.points}",
            file=sys.stderr,
        )
        return 2
    points = run_series(
        MapKind(args.map), args.S_max, points=args.points, spacing=args.spacing
    )
    print(_render_series(points, MapKind(args.map), args.spacing, args.format), end="")
    return 0


def _cmd_verify(args) -> int:
    map_kind = MapKind(args.map)
    # the cache a census of V builds: never past V + 1
    cache = build_residue_cache(basis_for(map_kind), min(CensusConfig.cache_bound, args.V + 1))
    mismatches = verify_range(map_kind, 1, args.V, cache)
    print(f"checked 1..{args.V} map={map_kind.value}: {len(mismatches)} mismatches")
    for n in mismatches:
        print(n)
    return 0 if not mismatches else 1


def _render_census(result: CensusResult, fmt: str) -> str:
    counts = result.counts
    s = counts.hi
    map_name = counts.map_kind.value
    decimals = counts.decimal_fractions()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["S", "map", "class", "count", "fraction"])
        for label, count in counts.counts.items():
            writer.writerow([s, map_name, int(label), count, decimals[label]])
        return buf.getvalue()
    if fmt == "json":
        fractions = counts.fractions
        doc = {
            "command": "census",
            "map": map_name,
            "S": s,
            "classes": [
                {
                    "class": int(label),
                    "count": count,
                    "fraction": decimals[label],
                    "exact": str(fractions[label]),
                }
                for label, count in counts.counts.items()
            ],
            "engine": {
                "chunk_size": result.engine.chunk_size,
                "cache_bound": result.engine.cache_bound,
                "max_steps": result.engine.max_steps,
                "elapsed_seconds": round(result.engine.elapsed_seconds, 3),
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = [f"census map={map_name} S={s}"]
    lines.append(f"  {'class':>5}  {'count':>12}  fraction")
    for label, count in counts.counts.items():
        lines.append(f"  {int(label):>5}  {count:>12}  {decimals[label]}")
    e = result.engine
    lines.append(
        f"  engine: chunk_size={e.chunk_size} "
        f"cache_bound={e.cache_bound} max_steps={e.max_steps} "
        f"elapsed={e.elapsed_seconds:.2f}s"
    )
    return "\n".join(lines) + "\n"


def _render_series(points: list[ClassCounts], map_kind: MapKind, spacing: str, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["S", "class", "fraction"])
        for point in points:
            decimals = point.decimal_fractions()
            for label in point.counts:
                writer.writerow([point.hi, int(label), decimals[label]])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "command": "series",
            "map": map_kind.value,
            "spacing": spacing,
            "points": [
                {
                    "S": point.hi,
                    "fractions": {
                        str(int(label)): text
                        for label, text in point.decimal_fractions().items()
                    },
                }
                for point in points
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    labels = list(points[0].counts) if points else []
    header = "  ".join(f"class {int(l)}" for l in labels)
    lines = [f"series map={map_kind.value} spacing={spacing}", f"  {'S':>12}  {header}"]
    for point in points:
        decimals = point.decimal_fractions()
        row = "  ".join(f"{decimals[l]:>7}" for l in labels)
        lines.append(f"  {point.hi:>12}  {row}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CensusAbortError,
        CheckpointError,
        NatOverflowError,
        NatRangeError,
        StepBudgetExceeded,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CensusInterrupted as e:
        if e.checkpoint_path is None:
            kept = "no checkpoint was given"
        else:
            kept = f"{e.checkpoint_path} holds [1, {e.next_n - 1}]; continue with --resume"
        word, code = _stop(e.__cause__)
        print(f"{word}: census stopped at next_n={e.next_n}; {kept}", file=sys.stderr)
        return code
    except KeyboardInterrupt as e:
        word, code = _stop(e)
        print(word, file=sys.stderr)
        return code


def _stop(signal_error):
    """How a run stopped by a signal reports: the word and the exit code."""
    if isinstance(signal_error, _Terminated):
        return "terminated", 143  # 128 + SIGTERM, as a shell reports it
    return "interrupted", 130


if __name__ == "__main__":
    sys.exit(main())
