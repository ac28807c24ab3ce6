"""Command-line harness: generate instances, run suites, merge reports.

Exit codes: 0 all checks passed, 1 check failures, 2 invalid
configuration, unparsable input or an unwritable --out path, 3 numerical
degeneracy past the retry budget.  The environment variable
MPJL_DEFAULT_SEED overrides the default seed when --seed is absent.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types
from collections import Counter
from operator import itemgetter

import numpy as np

from .errors import BadSpectrum, ConfigError, DegeneracyBudgetExceeded, MpjlError, ParseError
from .matcore import _rank_info, draw_rank_q, matrix_to_json, require_rank
from .reports import SuiteResult, _group, _read_row, dumps_canonical, render_text
from .suites import SUITE_NAMES, RunConfig, _checked_stack, _instances, run_suite, validate_config

_DEFAULTS = RunConfig()
DEFAULT_SEED = _DEFAULTS.seed


def _default_seed() -> int:
    raw = os.environ.get("MPJL_DEFAULT_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError as e:
        raise ConfigError(f"MPJL_DEFAULT_SEED must be an integer, got {raw!r}") from e


def _parse_spectrum(raw: str | None) -> tuple[float, ...] | None:
    if raw is None:
        return None
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError as e:
        raise ConfigError(f"--spectrum must be comma-separated floats, got {raw!r}") from e


# Each command's (help, positional, flags): the positional's name and add_argument keywords,
# then each flag's (type, default, choices, help).  _build makes argparse's parsers of it,
# and _read_plain reads plain argv with it.
_INSTANCE = {  # what the instance is and where it goes: the flags of gen and verify
    "n": (int, _DEFAULTS.n, None, "rows of the instance (default %(default)s)"),
    "m": (int, _DEFAULTS.m, None, "columns of the instance (default %(default)s)"),
    "q": (int, None, None, "rank (default min(n, m))"),
    "seed": (int, None, None, f"master seed (default MPJL_DEFAULT_SEED or {DEFAULT_SEED})"),
    "spectrum": (str, None, None, "explicit singular values, comma separated, e.g. 3,1"),
    "out": (str, None, None, "write output to PATH instead of stdout"),
}
_FORMATS = ("text", "json")
_COMMANDS = {
    "gen": ("generate a seeded rank-q instance (JSON)", None, _INSTANCE),
    "verify": ("run one verification suite", ("suite", {"choices": SUITE_NAMES}), {
        **_INSTANCE,
        "trials": (int, _DEFAULTS.trials, None, "number of seeded trials (default %(default)s)"),
        "tol": (float, None, None, "override the suite's primary comparison tolerance "
                                   "(exterior-chain and invariance have none)"),
        "format": (str, "text", _FORMATS, "output rendering (default text)"),
    }),
    "report": ("merge suite report files",
               ("paths", {"nargs": "*", "help": "report JSON files to merge"}),
               {"format": (str, "text", _FORMATS, None), "out": (str, None, None, None)}),
}


def build_parser():
    """argparse's parser of the flag table."""
    return _build()[0]


def _build():
    # (the top-level parser, each command's); argparse is imported only to build them.
    import argparse

    parser = argparse.ArgumentParser(
        prog="mpjl",
        description="Verification harness for pseudoinverse Jacobians and measure densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (summary, positional, flags) in _COMMANDS.items():
        p = commands[command] = sub.add_parser(command, help=summary)
        if positional is not None:
            p.add_argument(positional[0], **positional[1])
        for name, (kind, default, choices, text) in flags.items():
            p.add_argument(f"--{name}", type=kind, default=default, choices=choices, help=text)
    return parser, commands


def _read_plain(argv):
    """The attributes argparse parses from plain argv: a command, its positionals, then full
    flag names each followed by one value that does not start with "-" and that the table
    converts and admits.  None for any other argv (help, an abbreviation, --flag=value, a
    value that is missing, refused or starts with "-", an unknown flag): argparse reads it and
    prints help and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positional, flags = _COMMANDS[argv[0]]
    values = {"command": argv[0], **{name: spec[1] for name, spec in flags.items()}}
    rest = list(argv[1:])
    if positional is not None:
        name, keywords = positional
        if "nargs" in keywords:  # report's paths: every word before the first flag
            count = next((i for i, word in enumerate(rest) if word.startswith("-")), len(rest))
            values[name], rest = rest[:count], rest[count:]
        elif rest and rest[0] in keywords["choices"]:  # verify's suite
            values[name], rest = rest[0], rest[1:]
        else:
            return None
    if len(rest) % 2:
        return None
    for flag, raw in zip(rest[::2], rest[1::2]):
        name = flag[2:] if flag.startswith("--") else None
        if name not in flags or raw.startswith("-"):
            return None
        kind, _, choices, _ = flags[name]
        try:
            value = kind(raw)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return types.SimpleNamespace(**values)


def _emit(text: str, out_path: str | None) -> None:
    data = text.encode("utf-8", "backslashreplace")  # a lone surrogate as \udXXX
    if out_path is not None:
        try:
            fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)  # as open() does
            try:
                while data:  # os.write may take less than it is given
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        except OSError as e:
            raise ConfigError(f"cannot write {out_path}: {e.strerror or e}") from e
    elif hasattr(sys.stdout, "buffer"):  # UTF-8 in any locale, as a file is
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a stream of str alone, such as an io.StringIO
        sys.stdout.write(data.decode("utf-8"))


def _config_from_args(args, **verify_flags) -> RunConfig:
    return RunConfig(
        n=args.n,
        m=args.m,
        q=args.q,
        seed=args.seed if args.seed is not None else _default_seed(),
        spectrum=_parse_spectrum(args.spectrum),
        **verify_flags,
    )


def cmd_gen(args) -> int:
    cfg = validate_config(_config_from_args(args))

    def check(cfg, draws):  # trial 0 of the seed, retried as a stack of one
        return _instances(draws)[0]

    [x], _ = _checked_stack(draw_rank_q, check, cfg, range(1), "gen")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    info = _rank_info(s, x.shape)
    require_rank(info, q := cfg.rank)
    payload = {
        "matrix": matrix_to_json(x),
        "factors": {
            "left": matrix_to_json(u[:, :q]),
            "singular_values": s[:q].tolist(),
            "right": matrix_to_json(vt[:q].T),
        },
        "rank_info": {
            "rank": q,
            "tolerance_used": float(info.tolerance_used),
            "singular_values": s.tolist(),
        },
        "seed": cfg.seed,
    }
    _emit(dumps_canonical(payload), args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args, trials=args.trials, tol=args.tol)
    result = run_suite(args.suite, cfg)
    text = dumps_canonical(result) if args.format == "json" else render_text(result)
    _emit(text, args.out)
    return 0 if result.all_passed else 1


def _finite_number(literal: str) -> float:
    # Strict JSON: NaN, Infinity and literals that overflow to inf are refused.
    if not math.isfinite(value := float(literal)):
        raise ValueError(f"non-finite number {literal}")
    return value


# One decoder for every report file (``json.load`` builds one per call).
_DECODER = json.JSONDecoder(parse_float=_finite_number, parse_constant=_finite_number)


def _read_rows(path: str) -> list[tuple]:
    # The (sort key, row) of each report (reports._read_row), the file read as text mode would.
    try:
        fd = os.open(path, os.O_RDONLY)
        try:  # a regular file whole, in one read; a pipe, or a file that grew, to its end
            data = os.read(fd, (size := os.fstat(fd).st_size) + 1)
            if len(data) > size:
                data += b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
        except OSError as e:  # as open() raises it, naming the file
            raise OSError(e.errno, e.strerror, path) from None
        finally:
            os.close(fd)
        text = data.decode("utf-8")
        if "\r" in text:  # a file without one is scanned once, not twice
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads' refusal, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return list(map(_read_row, _DECODER.decode(text)["reports"]))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ParseError(f"cannot parse report file {path}: {e}") from e


def cmd_report(args) -> int:
    keyed = sorted([pair for path in args.paths for pair in _read_rows(path)], key=itemgetter(0))
    duplicates = [list(k) for k, n in Counter(map(itemgetter(0), keyed)).items() if n > 1]
    merged = SuiteResult(stacks=_group([row for _, row in keyed]))
    try:  # a value nested in a report file: no writer of mpjl makes one
        text = dumps_canonical(merged, duplicates) if args.format == "json" else (
            render_text(merged, show_wall_time=False)
            + "".join(f"warning: duplicate trials for {key}\n" for key in duplicates))
    except ValueError as e:
        raise ParseError(f"cannot merge report files: {e}") from e
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:  # argv the table leaves to argparse: one tree, built for this call
        parser, commands = _build()
        if argv and argv[0] in commands:  # one parse, by the command's parser
            args = commands[argv[0]].parse_args(argv[1:])
            args.command = argv[0]
        else:  # no command: the top-level parser prints help or the usage error
            args = parser.parse_args(argv)
    try:
        return {"gen": cmd_gen, "verify": cmd_verify, "report": cmd_report}[args.command](args)
    except MpjlError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (ConfigError, BadSpectrum, ParseError)):
            return 2
        return 3 if isinstance(e, DegeneracyBudgetExceeded) else 1


if __name__ == "__main__":
    sys.exit(main())
