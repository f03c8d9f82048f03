"""Command-line surface: one subcommand per library capability.

Standard output carries exactly one canonical JSON document; diagnostics
go to standard error as ``error: <reason>``.  Exit codes: 0 on success,
1 when a precondition or invariant is violated (domain error) or memory
runs out, 2 when input cannot be parsed, the invocation itself is
malformed, or standard output cannot be written.  An error line that
standard error cannot take is dropped; the exit code still tells.

Each handler returns either a whole document, which ``main`` renders with
``formats.dumps_canonical`` once the handler has returned, so its inputs are
freed before anything renders, or an iterator of the chunks of a document
that streams.

Each flag is defined once, in ``_FLAGS``.  Flags taking structured values
(``--chain``, ``--targets``, ``--dist``) accept either a file path or inline
JSON; an argument whose first non-space character is ``[`` or ``{`` is read
as inline JSON.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

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
from .simulate import SimConfig, _check_round, _draw_rounds, _no_round_can_fail


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
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


def _cmd_fuse(args: argparse.Namespace):
    intervals = formats.parse_intervals(_read_file(args.input), args.format)
    return formats.fusion_result_doc(fuse(intervals, args.faults))


def _cmd_graded(args: argparse.Namespace):
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
    pushed = random_graded(
        formats.parse_intervals(_read_file(args.input), args.format),
        formats.parse_fault_distribution(_read_source(args.dist)),
    )
    draws = None if args.sample is None else (sample(pushed, s) for s in range(args.seed, args.seed + args.sample))
    return formats.interval_distribution_chunks(pushed, draws)  # drawn as written


def _cmd_partition(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    return formats.partition_doc(indiscernibility_partition(table, attrs))


def _cmd_granulate(args: argparse.Namespace):
    # the table is parsed before the chain
    granular = granular_from_chain(
        formats.parse_table(_read_file(args.table)),
        formats.parse_graded_family(_read_source(args.chain)),
    )
    # written a level at a time as each renders; the names are checked before the first chunk
    return formats.granular_set_chunks(granular)


def _cmd_approx(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    target = _split_names(args.target, "target list")
    pair = approximation_pair(table, attrs, target)
    return formats.approximation_pair_doc(pair, order=table.objects)


def _cmd_graded_approx(args: argparse.Namespace):
    table = formats.parse_table(_read_file(args.table))
    attrs = _split_names(args.attrs, "attribute list")
    targets = formats.parse_graded_family(_read_source(args.targets))
    lowers, uppers = graded_approximations(table, attrs, targets)
    return {
        "lower": formats.graded_family_doc(lowers, order=table.objects),
        "upper": formats.graded_family_doc(uppers, order=table.objects),
    }


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
    if not _no_round_can_fail(config):
        # a round may fail: every round is drawn and checked once before the first write, so that a
        # late round's error leaves stdout empty, and drawn again, unchecked, as it is written
        for k, drawn in enumerate(_draw_rounds(config, range(args.rounds))):
            _check_round(config, k, drawn)
    return formats.simulation_chunks(config, _draw_rounds(config, range(args.rounds)))


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer ignores a failed write; a help text that
        # stdout cannot take is an error like a document it cannot take.
        # argparse's help action passes no file.
        _write(sys.stdout, (self.format_help(),))


# each flag's add_argument keywords, shared by every subcommand that takes it
_FLAGS = {
    "input": {"required": True, "help": "interval file (CSV 'lo,hi' or JSON)"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "faults": {"type": int, "required": True},
    "fmin": {"type": int, "required": True},
    "fmax": {"type": int, "required": True},
    "dist": {"required": True, "help": "JSON pmf over fault counts (path or inline)"},
    "sample": {"type": int, "help": "also draw this many results"},
    "seed": {"type": int, "default": 0},
    "table": {"required": True, "help": "information table CSV"},
    "attrs": {"required": True, "help": "comma-separated attribute names"},
    "chain": {"required": True, "help": "JSON attribute chain (path or inline)"},
    "target": {"required": True, "help": "comma-separated object ids"},
    "targets": {"required": True, "help": "JSON nested target sets (path or inline)"},
    "sensors": {"type": int, "required": True},
    "faulty": {"type": int, "required": True},
    "rounds": {"type": int, "required": True},
    "truth": {"type": float, "default": 0.0},
    "halfwidth": {"type": float, "default": 1.0, "help": "max half-width of correct intervals"},
    "offset": {"type": float, "default": 2.5, "help": "min center displacement of faulty intervals"},
}

# each subcommand: name, handler, help text, and its flags in help order
_COMMANDS = (
    ("fuse", _cmd_fuse, "fuse interval measurements under a fault budget", "input format faults"),
    ("graded", _cmd_graded, "fused intervals over a range of fault budgets", "input format fmin fmax"),
    ("random", _cmd_random, "push a fault-count pmf through fusion", "input format dist sample seed"),
    ("partition", _cmd_partition, "indiscernibility partition of a table", "table attrs"),
    ("granulate", _cmd_granulate, "granular set from a nested attribute chain", "table chain"),
    ("approx", _cmd_approx, "rough lower/upper approximation of a target set", "table attrs target"),
    ("graded-approx", _cmd_graded_approx, "approximate every level of a nested target chain", "table attrs targets"),
    ("sensitivity", _cmd_sensitivity, "approximation quality along an attribute chain", "table chain target"),
    ("simulate", _cmd_simulate, "seeded fault-injection rounds with containment report",
     "sensors faulty rounds seed truth halfwidth offset"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsets",
        description="Graded sets, granular sets, interval fusion, and rough approximations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, summary, flags in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def _write(stream, chunks: Iterable[str]) -> None:
    """Write the chunks to `stream` and flush it.  A stream whose descriptor
    was closed at start is ``None`` and cannot be written.  If the stream
    cannot be written, its descriptor is pointed at the null device before the
    error propagates, so that what is still buffered cannot fail again at exit."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        stream.writelines(chunks)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # a --help text has been flushed, or a usage error written
            return exc.code if isinstance(exc.code, int) else 2
        out = args.handler(args)
        if not isinstance(out, Iterator):  # a whole document, rendered after its handler's inputs are freed
            out = (formats.dumps_canonical(out),)
        _write(sys.stdout, itertools.chain(out, "\n"))
        return 0
    except (ParseError, OSError) as exc:
        code, error = 2, exc
    except DomainError as exc:
        code, error = 1, exc
    except MemoryError:  # the request's storage is freed as the error unwinds, so the line can be written
        code, error = 1, "out of memory"
    try:
        _write(sys.stderr, (f"error: {error}\n",))
    except OSError:
        pass  # the exit code still tells
    return code
