"""Command-line surface: one subcommand per library capability.

Standard output carries exactly one canonical JSON document; diagnostics
go to standard error as ``error: <reason>``.  Exit codes: 0 on success,
1 when a precondition or invariant is violated (domain error), 2 when
input cannot be parsed, the invocation itself is malformed, or standard
output is closed by its reader before the document is written.

Flags taking structured values (``--chain``, ``--targets``, ``--dist``)
accept either a file path or inline JSON; an argument whose first
non-space character is ``[`` or ``{`` is read as inline JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from . import formats
from .errors import DomainError, ParseError
from .infosys import (
    approximation_pair,
    graded_approximations,
    granular_from_chain,
    indiscernibility_partition,
    sensitivity_profile,
)
from .intervals import MAX_SEED, fuse, graded_fusion, random_graded, sample
from .simulate import SimConfig, _draw_round


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_source(value: str) -> str:
    """A structured flag value: inline JSON if it looks like JSON, else a path."""
    if value.lstrip()[:1] in ("[", "{"):
        return value
    return _read_file(value)


def _split_names(value: str, what: str) -> list[str]:
    """A comma-separated name list; the empty string denotes the empty list."""
    if value == "":
        return []
    names = []
    for token in value.split(","):
        if not token or token != token.strip():
            raise ParseError(f"{what}: bad token {token!r}")
        names.append(token)
    return names


def _one_document(handler):
    """A handler that builds one document, as the chunks of text ``main``
    writes. The document is rendered after the handler has returned, so the
    handler's inputs are freed first."""

    def chunks(args: argparse.Namespace) -> list[str]:
        return [formats.dumps_canonical(handler(args))]

    return chunks


@_one_document
def _cmd_fuse(args: argparse.Namespace):
    intervals = formats.parse_intervals(_read_file(args.input), args.format)
    return formats.fusion_result_doc(fuse(intervals, args.faults))


def _cmd_graded(args: argparse.Namespace):
    # the parsed intervals are a temporary, freed before anything is rendered
    graded = graded_fusion(formats.parse_intervals(_read_file(args.input), args.format), args.fmin, args.fmax)
    return formats.graded_intervals_chunks(graded)


def _cmd_random(args: argparse.Namespace):
    if args.sample is not None:
        if args.sample < 1:
            raise DomainError("need at least one sample")
        if not 0 <= args.seed <= MAX_SEED - (args.sample - 1):
            raise DomainError(
                f"--seed through --seed + --sample - 1 must lie in 0..{MAX_SEED}"
                f" (got {args.seed}..{args.seed + args.sample - 1})"
            )
    # the parsed intervals are a temporary, freed before anything is rendered
    pushed = random_graded(
        formats.parse_intervals(_read_file(args.input), args.format),
        formats.parse_fault_distribution(_read_source(args.dist)),
    )
    draws = None if args.sample is None else (sample(pushed, s) for s in range(args.seed, args.seed + args.sample))
    return formats.interval_distribution_chunks(pushed, draws)  # drawn as written


@_one_document
def _cmd_partition(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    return formats.partition_doc(indiscernibility_partition(table, attrs))


def _cmd_granulate(args: argparse.Namespace):
    # the parsed table is a temporary, freed before anything is rendered; it is parsed before the chain
    granular = granular_from_chain(
        formats.parse_table(_read_file(args.table)),
        formats.parse_graded_family(_read_source(args.chain)),
    )
    # one level's blocks are held at a time, and nothing is written before the last level has rendered
    return list(formats.granular_set_chunks(granular))


@_one_document
def _cmd_approx(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    target = _split_names(args.target, "target list")
    pair = approximation_pair(table, attrs, target)
    return formats.approximation_pair_doc(pair, order=table.objects)


@_one_document
def _cmd_graded_approx(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    targets = formats.parse_graded_family(_read_source(args.targets))
    lowers, uppers = graded_approximations(table, attrs, targets)
    return {
        "lower": formats.graded_family_doc(lowers, order=table.objects),
        "upper": formats.graded_family_doc(uppers, order=table.objects),
    }


@_one_document
def _cmd_sensitivity(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    chain = formats.parse_graded_family(_read_source(args.chain))
    target = _split_names(args.target, "target list")
    return formats.sensitivity_profile_doc(sensitivity_profile(table, chain, target))


def _cmd_simulate(args: argparse.Namespace):
    if args.rounds < 1:
        raise DomainError("need at least one round")
    config = SimConfig(
        num_sensors=args.sensors,
        truth=args.truth,
        correct_halfwidth_max=args.halfwidth,
        num_faulty=args.faulty,
        fault_offset_min=args.offset,
        seed=args.seed,
    )
    # every round runs before the first write, so a late round's error leaves stdout empty
    return list(formats.simulation_chunks(config, (_draw_round(config, k) for k in range(args.rounds))))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsets",
        description="Graded sets, granular sets, interval fusion, and rough approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def interval_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="interval file (CSV 'lo,hi' or JSON)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fuse", help="fuse interval measurements under a fault budget")
    interval_input(p)
    p.add_argument("--faults", type=int, required=True)
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("graded", help="fused intervals over a range of fault budgets")
    interval_input(p)
    p.add_argument("--fmin", type=int, required=True)
    p.add_argument("--fmax", type=int, required=True)
    p.set_defaults(handler=_cmd_graded)

    p = sub.add_parser("random", help="push a fault-count pmf through fusion")
    interval_input(p)
    p.add_argument("--dist", required=True, help="JSON pmf over fault counts (path or inline)")
    p.add_argument("--sample", type=int, help="also draw this many results")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("partition", help="indiscernibility partition of a table")
    p.add_argument("--table", required=True, help="information table CSV")
    p.add_argument("--attrs", required=True, help="comma-separated attribute names")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("granulate", help="granular set from a nested attribute chain")
    p.add_argument("--table", required=True, help="information table CSV")
    p.add_argument("--chain", required=True, help="JSON attribute chain (path or inline)")
    p.set_defaults(handler=_cmd_granulate)

    p = sub.add_parser("approx", help="rough lower/upper approximation of a target set")
    p.add_argument("--table", required=True, help="information table CSV")
    p.add_argument("--attrs", required=True, help="comma-separated attribute names")
    p.add_argument("--target", required=True, help="comma-separated object ids")
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("graded-approx", help="approximate every level of a nested target chain")
    p.add_argument("--table", required=True, help="information table CSV")
    p.add_argument("--attrs", required=True, help="comma-separated attribute names")
    p.add_argument("--targets", required=True, help="JSON nested target sets (path or inline)")
    p.set_defaults(handler=_cmd_graded_approx)

    p = sub.add_parser("sensitivity", help="approximation quality along an attribute chain")
    p.add_argument("--table", required=True, help="information table CSV")
    p.add_argument("--chain", required=True, help="JSON attribute chain (path or inline)")
    p.add_argument("--target", required=True, help="comma-separated object ids")
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("simulate", help="seeded fault-injection rounds with containment report")
    p.add_argument("--sensors", type=int, required=True)
    p.add_argument("--faulty", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", type=float, default=0.0)
    p.add_argument("--halfwidth", type=float, default=1.0, help="max half-width of correct intervals")
    p.add_argument("--offset", type=float, default=2.5, help="min center displacement of faulty intervals")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device once its reader has gone,
    so the interpreter's final flush of what is still buffered cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        chunks = args.handler(args)
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except (ParseError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
