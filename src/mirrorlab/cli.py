"""Command-line entry point and report emission.

One verification per invocation; reports are JSON (CSV/SVG for the table
and tiling emitters) with deterministic bytes for a given argv.
Rationals are emitted as "p/q" strings, floats with 17 significant digits.
Exit codes: 0 pass, 1 fail, 2 indeterminate, 64 usage error, 70 internal error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from _json import encode_basestring_ascii as _quote
from typing import BinaryIO

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE, as 64 is EX_USAGE

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


class UsageError(ValueError):
    """An argv outside a command's domain; its message names the flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors carry a dedicated exit code
        self.print_usage(sys.stderr)
        # one prefix for every usage error, a subcommand parser's ("mirrorlab trop") too
        print(f"mirrorlab: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def emit(report: dict) -> bytes:
    """The report as JSON in json.dumps(..., indent=2)'s layout, in one pass.

    A Fraction is written as the string "p/q" and a float as the string of
    its 17 significant digits; a tuple (a NamedTuple too) as a list.  Strings
    are quoted by the C routine that json.encoder uses, so the bytes are
    json's, and no command loads the json package.  Every report key is a
    str, and any other key raises TypeError, where json would coerce it.
    """
    fraction = getattr(sys.modules.get("fractions"), "Fraction", ())  # () if never loaded
    parts: list[str] = []
    write = parts.append

    def value(v, indent: str) -> None:
        if isinstance(v, str):
            write(_quote(v))
        elif isinstance(v, fraction):
            write(f'"{v}"')  # digits, "-" and "/": nothing to escape
        elif isinstance(v, float):
            write(f'"{v:.17g}"')  # digits, "-", "+", ".", "e", "nan" or "inf"
        elif isinstance(v, dict):
            if not v:
                write("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for k, item in v.items():
                if not isinstance(k, str):
                    raise TypeError(f"report keys must be str, not {type(k).__name__}")
                write(sep + _quote(k) + ": ")
                value(item, inner)
                sep = "," + inner
            write(indent + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                write("[]")
                return
            inner = indent + "  "
            sep = "[" + inner
            for item in v:
                write(sep)
                value(item, inner)
                sep = "," + inner
            write(indent + "]")
        elif v is None:
            write("null")
        elif v is True:
            write("true")
        elif v is False:
            write("false")
        elif isinstance(v, int):
            write(int.__repr__(v))
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    value(report, "\n")
    write("\n")
    return "".join(parts).encode()


def _checked(parse, ok, must: str):
    """An argparse type: parse(text) if ok accepts it; argparse names the flag on error."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ArithmeticError, ValueError):  # unparsable, 1/0, or too large for a float
            pass
        raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}")

    return convert


def _rational(text: str):
    from fractions import Fraction  # on use: metric-check's flags are ints and floats
    return Fraction(text)


def _fractions(text: str) -> list:
    return [_rational(p.strip()) for p in text.split(",")]


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _fractions(text))


_COUNT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, "an integer >= 1")
# kahler refuses over 2**32 samples per region before it allocates its draws
_SAMPLES = _checked(int, lambda v: 0 <= v <= 2**32, "an integer in [0, 2**32]")
_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "a float in (0, 1)")
_BOUND = _checked(_rational, lambda v: v >= 0, "a rational >= 0")
# leibniz truncates its lattice sums in floats
_FLOAT_BOUND = _checked(_rational, lambda v: v >= 0 and math.isfinite(v),
                        "a rational >= 0 that fits in a float")
_MOMENT = _checked(_fractions, lambda v: len(v) == 3, "3 comma-separated rationals")
_WINDOW = _checked(_float_tuple, lambda v: len(v) == 4,
                   "4 comma-separated rationals that fit in floats")
_X = _checked(_float_tuple, lambda v: len(v) == 2 and min(v) > 0,
              "2 comma-separated rationals, positive and finite as floats")
_C_BASE = _checked(lambda t: t if t == "auto" else float(t),
                   lambda v: v == "auto" or (math.isfinite(v) and v >= 0),
                   "auto or a finite float >= 0")


def _functor(args: argparse.Namespace) -> tuple[str, dict]:
    if not args.i < args.j < args.k:
        raise UsageError(f"--i, --j, --k must satisfy i < j < k, got {args.i}, {args.j}, {args.k}")
    from .fukaya import functor_check

    rep = functor_check(args.i, args.j, args.k, args.cutoff)
    return "pass" if rep.all_match else "fail", rep.to_json()


def _trop(args: argparse.Namespace) -> bytes:
    from . import tropical

    try:
        return tropical.svg_tiling(args.window).encode()
    except ValueError as exc:  # the window is too small to draw
        raise UsageError(f"--window: {exc}") from None


def _facets(args: argparse.Namespace) -> bytes:
    from . import tropical

    return tropical.facet_csv(args.radius).encode()


def _disc_series(args: argparse.Namespace) -> tuple[str, dict]:
    from fractions import Fraction
    from .lattice import MomentPoint
    from .tropical import trop_phi

    a = MomentPoint(*args.A)
    phi = trop_phi((a.xi1, a.xi2))
    if not a.eta > phi.value:
        inside = ",".join(map(str, a))
        raise UsageError(f"--A must lie strictly inside the moment body, got {inside!r}")
    from . import gw

    cutoff = args.cutoff
    series = gw.disc_series(a, cutoff)
    # The least disc area is the height eta - phi(xi) over the facets of the
    # maximizers of phi, one disc each: the series must open with that term.
    lead = (a.eta - phi.value, Fraction(len(phi.maximizers)))
    status = "pass" if series.terms[:1] == ((lead,) if lead[0] <= cutoff else ()) else "fail"
    body = {"A": list(a), "cutoff": cutoff, "tropical_lead": list(lead), "series": series.to_json()}
    return status, body


def _sphere_c(args: argparse.Namespace) -> tuple[str, dict]:
    from . import gw

    series = gw.sphere_count_C(args.max_order, args.window)
    body = {
        "max_order": args.max_order,
        "window": args.window,
        "series": series.to_json(),
        "note": "terms beyond the constant depend on the wall window",
    }
    return "pass" if series.coefficient(0) == 1 else "fail", body


def _check_level(args: argparse.Namespace) -> None:
    if args.j - args.i < 2:
        raise UsageError(f"--j must be at least --i + 2, got --i {args.i} --j {args.j}")


def _differential(args: argparse.Namespace) -> tuple[str, dict]:
    _check_level(args)
    from .series import differential_table  # the theta route alone: no gw, no tropical

    return "pass", differential_table(args.i, args.j, args.cutoff).to_json()


def _leibniz(args: argparse.Namespace) -> tuple[str, dict]:
    _check_level(args)
    from .series import leibniz_check  # the theta route alone: no gw, no tropical

    rep = leibniz_check(args.i, args.j, args.x, args.tau, args.cutoff)
    return rep.status, rep.to_json()


def _metric_check(args: argparse.Namespace) -> tuple[str, dict]:
    from . import kahler  # the domain of --l and --p is kahler's sampler windows

    T = kahler.DEFAULT_T if args.T is None else args.T
    l = kahler.DEFAULT_L if args.l is None else args.l
    p = kahler.DEFAULT_P if args.p is None else args.p
    # the smallest sampled norm r is about T^(l+2), and the Hessian of log r holds -1/r^2
    if l + 2 > math.log(sys.float_info.min) / (2 * math.log(T)):
        least = sys.float_info.min
        raise UsageError(f"--T {T!r} --l {l}: T^(2(l+2)) must be a normal float (>= {least:.2g})")
    empty = [k for k, (lo, hi) in kahler.sampler_windows(l, p).items() if lo >= hi]
    if empty:
        raise UsageError(f"--l {l} --p {p}: empty sampler windows {', '.join(empty)}")
    deep = 3 * kahler.MODERATE_LOG  # below it a fiber point can have three moderate logs
    if l <= deep:
        raise UsageError(f"--l must exceed {deep:g} (a deep fiber), got {l}")
    seed = kahler.DEFAULT_SEED if args.seed is None else args.seed
    body = kahler.metric_certificate(T, l, p, args.samples, seed, args.c_base)
    return body["status"], body


def _monodromy(args: argparse.Namespace) -> tuple[str, dict]:
    import random

    from . import tropical

    corner_rows = []
    ok = True
    for cls, xi in sorted(tropical.monodromy_corner_table().items()):
        got = tropical.monodromy_class(xi)
        corner_rows.append({"xi": [xi[0], xi[1]], "expected": list(cls), "got": list(got)})
        ok = ok and got == cls
    anti = []
    rng = random.Random(args.seed)
    while len(anti) < args.samples:
        # xi = (p1, p2)/1000; the class of the tile m holding xi is -m
        p1, p2 = rng.randrange(-4000, 4000), rng.randrange(-4000, 4000)
        plus = tropical.trop_scaled(p1, p2, 1000)[1]
        if len(plus) > 1:
            continue  # on the tropical curve, and so is -xi, as N(-n) = N(n); resample
        minus = tropical.trop_scaled(-p1, -p2, 1000)[1]
        anti.append(plus[0] == (-minus[0].n1, -minus[0].n2))
    ok = ok and all(anti)
    status = "fail" if not ok else "pass" if anti else "indeterminate"
    return status, {
        "corners": corner_rows,
        "seed": args.seed,
        "antisymmetry_samples": args.samples,
        "antisymmetry_all": all(anti) if anti else None,
    }


# Each flag's type parses and checks its own domain, so parsing alone refuses
# it, naming the flag.  Each command's handler, set by set_defaults, takes
# (args): it checks what relates two flags or needs a layer (a UsageError names
# the flags), fills its defaults and runs its layers, imported inside the
# handler so that a command loads only what it runs: metric-check alone loads
# kahler and numpy (on one OpenBLAS thread, set by main), and monodromy, trop
# and facets run on tropical alone.  It returns the report's (status, body),
# or the bytes of the SVG/CSV emitters.
def build_parser() -> _Parser:
    parser = _Parser(prog="mirrorlab", description=__doc__)
    parser.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("functor", _functor, "theta structure constants vs triangle counts")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cutoff", type=_BOUND, default="20")

    p = command("trop", _trop, "tropical tiling as SVG")
    p.add_argument("--window", type=_WINDOW, default="-3,-3,3,3")

    p = command("facets", _facets, "facet table as CSV")
    p.add_argument("--radius", type=_BOUND, default="1")

    p = command("disc-series", _disc_series, "disc areas at an interior basepoint")
    p.add_argument("--A", type=_MOMENT, required=True, help="xi1,xi2,eta as rationals")
    p.add_argument("--cutoff", type=_BOUND, default="15")

    p = command("sphere-c", _sphere_c, "sphere-correction series")
    p.add_argument("--max-order", type=_COUNT, default=4)
    p.add_argument("--window", type=_BOUND, default="9")

    p = command("differential", _differential, "multiplication-by-section table")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cutoff", type=_BOUND, default="15")

    p = command("leibniz", _leibniz, "numeric Leibniz identity check")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", type=_X, default="1,1")
    p.add_argument("--tau", type=_UNIT, default=0.1)
    p.add_argument("--cutoff", type=_FLOAT_BOUND, default="15")

    p = command("metric-check", _metric_check, "sampled positive-definiteness certificate")
    p.add_argument("--T", type=_UNIT)  # --T, --l, --p default to kahler.DEFAULT_T/L/P
    p.add_argument("--l", type=_POSITIVE)
    p.add_argument("--p", type=_POSITIVE)
    p.add_argument("--samples", type=_SAMPLES, default=500)
    p.add_argument("--seed", type=_COUNT, default=None)
    p.add_argument("--c-base", type=_C_BASE, default="auto")

    p = command("monodromy", _monodromy, "corner classes and antisymmetry")
    p.add_argument("--samples", type=_COUNT, default=50)
    p.add_argument("--seed", type=_COUNT, default=7)  # random.Random's seed for the draws
    return parser


def run(argv: list[str] | None, stdout: BinaryIO | None = None) -> tuple[bytes, int]:
    """Execute one command; returns (output bytes, exit code).

    The report is also written to --out when given, else to the binary
    stream stdout if one is passed.  A UsageError from the command means an
    argument outside its domain, which is a usage error; any other exception
    is a fault of the program and propagates.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except UsageError as exc:
        parser.error(str(exc))
    if isinstance(result, bytes):
        out, code = result, EXIT_PASS
    else:
        status, body = result
        out, code = emit({"command": args.command, "status": status, **body}), _STATUS_CODE[status]
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(out)
        except OSError as exc:
            parser.error(f"--out: {exc}")
    elif stdout is not None:
        stdout.write(out)
    return out, code


def main(argv: list[str] | None = None) -> int:
    # numpy's OpenBLAS starts a worker thread per core when it loads, but the
    # one LAPACK call, eigvalsh on batches of 3x3 matrices, runs a matrix at a
    # time, so the pool never works; starting it costs each metric-check
    # process 60-95 ms (2 vCPUs).  Set here, at the process entry, so that
    # callers of run keep their environment; an explicit value is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return run(argv, sys.stdout.buffer)[1]
    except Exception:  # a crash is no verdict; exit 1 would read as "fail"
        import traceback

        traceback.print_exc()
        return EXIT_SOFTWARE
    finally:
        # what is alive now lives until exit; frozen, it is skipped by the
        # collections of interpreter teardown (7-15 ms a process, 2 vCPUs)
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
