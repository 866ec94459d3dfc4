"""Command-line interface: build, analyze, classify, canonicalize, compare
and enumerate algebras, plus a deterministic verification suite.

Exit codes: 0 on success, 1 on verification failure (or an operation that
could not complete, such as `canon` on a raw tensor or output into a closed
pipe), 2 on bad usage and bad input, including every family label the library
rejects, built or loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import algebra as al
from . import classify as cl
from . import verify as vf
from .errors import CompalgError
from .numerics import DEFAULT_SEED, DEFAULT_TOL, TolerancePolicy


class BadInput(Exception):
    """A path that cannot be read or written, or JSON without the expected shape."""


def _tolerance_arg(text):
    try:
        t = float(text)
        return TolerancePolicy(t)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _int_arg(minimum, base=10):
    """An argparse type for integers of at least `minimum`; int(text, base)
    reads the text, and any other text gets a plain usage message."""
    def parse(text):
        try:
            value = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _load_algebra(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise BadInput(f"cannot read {path} ({err})") from None
    try:
        return al.from_json(obj)
    except (CompalgError, KeyError, TypeError, ValueError) as err:
        raise BadInput(f"{path} is not an algebra file ({err})") from None


def _dump(obj, path):
    """Write obj as indented JSON, or a string as it is, to path or stdout."""
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise BadInput(f"cannot write {path} ({err})") from None
    else:
        print(text)


def _cmd_build(args):
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise BadInput("--params must be a JSON object")
    try:
        if args.degrees:
            for key in ("alpha", "beta"):
                if key in params:
                    params[key] = float(params[key]) * np.pi / 180.0
        algebra = al.from_family(args.family, params)
    except (CompalgError, TypeError, ValueError) as err:
        raise BadInput(f"bad parameters for {args.family!r} ({err})") from None
    _dump(algebra.to_json(), args.output)
    return 0


def _cmd_analyze(args):
    algebra = _load_algebra(args.file)
    report = cl.analyze(algebra, args.tol)
    _dump(report.to_json(), args.output)
    return 0


def _cmd_classify(args):
    algebra = _load_algebra(args.file)
    report = cl.analyze(algebra, args.tol)
    out = report.to_json()
    try:
        form = cl.canonical(algebra, args.tol)
        out["canonical"] = form.to_json()
    except CompalgError as err:
        out["canonical"] = None
        out["canonical_error"] = str(err)
    _dump(out, args.output)
    return 0


def _cmd_canon(args):
    form = cl.canonical(_load_algebra(args.file), args.tol)
    _dump(form.to_json(), args.output)
    return 0


def _cmd_iso(args):
    a = _load_algebra(args.file_a)
    b = _load_algebra(args.file_b)
    verdict = cl.isomorphic(a, b, args.tol)
    if verdict.verdict == "yes":
        print("isomorphic")
        if args.witness_out and verdict.witness is not None:
            _dump(verdict.witness.to_json(), args.witness_out)
    elif verdict.verdict == "no":
        print(f"not isomorphic: {verdict.reason}")
    else:
        print(f"unknown: {verdict.reason}")
    return 0


def _csv_fields(value, name=""):
    """A form's JSON as scalar fields under joined names: point_alpha and
    point_a0 to point_b3 for a pair, point0_a0 to point1_beta for two brackets."""
    if isinstance(value, list):
        return {k: v for n, x in enumerate(value) for k, v in _csv_fields(x, f"{name}{n}").items()}
    if isinstance(value, dict):
        return {k: v for key, x in value.items()
                for k, v in _csv_fields(x, f"{name}_{key}" if name else key).items()}
    return {name: value}


def _cmd_enumerate(args):
    rows = [form.to_json() for form in cl.enumerate_block(args.block, args.grid, args.tol)]
    if args.format == "csv":
        rows = [_csv_fields(row) for row in rows]
        cols = sorted({key for row in rows for key in row})
        lines = [",".join(cols)] + [",".join(str(row.get(c, "")) for c in cols) for row in rows]
    else:
        lines = [json.dumps(row) for row in rows]
    _dump("\n".join(lines), args.output)
    return 0


def _cmd_verify(args):
    results = vf.verify_suite(seed=args.seed, fast=args.fast)
    failures = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
        failures += 0 if passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compalg",
        description="Construct, analyze, canonicalize and classify real division "
                    "composition algebras with non-abelian derivation algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=_tolerance_arg, default=DEFAULT_TOL,
                       help="override all tolerance thresholds with one value in (0, 1e-3)")

    p = sub.add_parser("build", help="construct a family algebra and write its JSON")
    p.add_argument("--family", required=True,
                   help="standard_isotope | quat4 | tau_family | t_family | "
                        "lambda_family | okubo | p35 | g_family")
    p.add_argument("--params", default=None, help="inline JSON object of parameters")
    p.add_argument("--degrees", action="store_true",
                   help="interpret alpha/beta parameters as degrees")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    for name, func, text in (
            ("analyze", _cmd_analyze, "invariant report for an algebra JSON file"),
            ("classify", _cmd_classify, "analyze plus canonical form when available"),
            ("canon", _cmd_canon, "canonical form of a provenance-carrying algebra")):
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("-o", "--output", default=None)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("iso", help="decide isomorphism of two algebra files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--witness-out", default=None,
                   help="write the witness matrix JSON when isomorphic")
    common(p)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("enumerate", help="stream canonical representatives of a block")
    p.add_argument("--block", required=True, choices=cl.BLOCK_KINDS)
    p.add_argument("--grid", type=_int_arg(1), default=3,
                   help="grid resolution for moduli (at least 1)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the deterministic verification suite")
    p.add_argument("--fast", action="store_true", help="reduced trial counts")
    p.add_argument("--seed", type=_int_arg(0, base=0), default=DEFAULT_SEED,
                   help="seed of the checks' random draws (default 0xC0FFEE)")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON ({err})", file=sys.stderr)
        return 2
    except BadInput as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CompalgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: the output cannot complete.  Point
        # stdout at devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
