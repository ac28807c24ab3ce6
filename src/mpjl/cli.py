"""Command-line harness: generate instances, run suites, merge reports.

Exit codes: 0 all checks passed, 1 check failures, 2 invalid
configuration, unparsable input or an unwritable --out path, 3 numerical
degeneracy past the retry budget.  The environment variable
MPJL_DEFAULT_SEED overrides the default seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys

from .errors import BadSpectrum, ConfigError, DegeneracyBudgetExceeded, MpjlError, ParseError
from .matcore import draw_rank_q, matrix_to_json, svd_thin
from .reports import SuiteResult, VerificationReport, dumps_canonical, render_text
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


def _add_instance(p: argparse.ArgumentParser) -> None:
    # The flags of both gen and verify: what the instance is and where it goes.
    p.add_argument("--n", type=int, default=_DEFAULTS.n,
                   help="rows of the instance (default %(default)s)")
    p.add_argument("--m", type=int, default=_DEFAULTS.m,
                   help="columns of the instance (default %(default)s)")
    p.add_argument("--q", type=int, default=None, help="rank (default min(n, m))")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default MPJL_DEFAULT_SEED or {DEFAULT_SEED})")
    p.add_argument("--spectrum", type=str, default=None,
                   help="explicit singular values, comma separated, e.g. 3,1")
    p.add_argument("--out", type=str, default=None, help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="mpjl",
        description="Verification harness for pseudoinverse Jacobians and measure densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a seeded rank-q instance (JSON)")
    _add_instance(p_gen)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_instance(p_verify)
    p_verify.add_argument("--trials", type=int, default=_DEFAULTS.trials,
                          help="number of seeded trials (default %(default)s)")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override the suite's primary comparison tolerance "
                               "(exterior-chain and invariance have none)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text",
                          help="output rendering (default text)")

    p_report = sub.add_parser("report", help="merge suite report files")
    p_report.add_argument("paths", nargs="*", help="report JSON files to merge")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.add_argument("--out", type=str, default=None)
    return parser, {"gen": p_gen, "verify": p_verify, "report": p_report}


@functools.cache
def _parsers():
    return _build()  # parsing keeps no state on a parser, so one tree serves every call


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
        x = _instances(draws)[0][0]
        return [(x, *svd_thin(x))]

    [(x, factors, info)], _ = _checked_stack(draw_rank_q, check, cfg, range(1), "gen")
    payload = {
        "matrix": matrix_to_json(x),
        "factors": {
            "left": matrix_to_json(factors.u),
            "singular_values": [float(v) for v in factors.s],
            "right": matrix_to_json(factors.v),
        },
        "rank_info": {
            "rank": int(info.rank),
            "tolerance_used": float(info.tolerance_used),
            "singular_values": [float(v) for v in info.singular_values],
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


def _load_reports(path: str) -> list[VerificationReport]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):  # json.loads' refusal, which the decoder lacks
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return [VerificationReport.from_json(r) for r in _DECODER.decode(text)["reports"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ParseError(f"cannot parse report file {path}: {e}") from e


def _trial_key(report) -> tuple:
    inputs = report.inputs
    return (report.check_name, inputs.get("seed", 0), inputs.get("trial", 0))


def cmd_report(args) -> int:
    reports = sorted([r for path in args.paths for r in _load_reports(path)], key=_trial_key)
    counts = collections.Counter(map(_trial_key, reports))  # in sorted order
    duplicates = [list(key) for key, count in counts.items() if count > 1]
    merged = SuiteResult(reports)  # grouped into stacks once, here
    text = dumps_canonical(merged, duplicates) if args.format == "json" else (
        render_text(merged, show_wall_time=False)
        + "".join(f"warning: duplicate trials for {key}\n" for key in duplicates))
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:  # one parse, by the named command's parser
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
