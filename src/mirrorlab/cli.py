"""Command-line entry point and report emission.

One verification per invocation; reports are JSON (CSV/SVG for the table
and tiling emitters) with deterministic bytes for a given argv.
Rationals are emitted as "p/q" strings, floats with 17 significant digits.
Exit codes: 0 pass, 1 fail, 2 indeterminate, 64 usage error, 70 internal
error, 74 a failed write of the report or the help to stdout.
"""

from __future__ import annotations

import gc
import io
import math
import os
import sys
from _json import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import BinaryIO, NoReturn

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # sysexits.h EX_SOFTWARE, as 64 is EX_USAGE
EXIT_IOERR = 74  # sysexits.h EX_IOERR

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


class UsageError(ValueError):
    """An argv outside a command's domain; its message names the flags."""


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
        t = type(v)  # exact types first: an isinstance test of the Fraction ABC is slow
        if t is str:
            write(_quote(v))
        elif t is dict:
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
        elif t is list or t is tuple:
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
        elif t is int:
            write(int.__repr__(v))
        elif t is float:
            write(f'"{v:.17g}"')  # digits, "-", "+", ".", "e", "nan" or "inf"
        elif t is bool:
            write("true" if v else "false")
        elif v is None:
            write("null")
        elif isinstance(v, fraction):
            write(f'"{v}"')  # digits, "-" and "/": nothing to escape
        else:  # a subclass, such as a NamedTuple of tuple, is written as its base
            base = next((b for b in (str, float, dict, list, tuple, int) if isinstance(v, b)), None)
            if base is None:
                raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
            value(base(v), indent)

    value(report, "\n")
    write("\n")
    return "".join(parts).encode()


def _checked(parse, ok, must: str):
    """A flag's type: convert(flag, text) is parse(text) if ok accepts it,
    else a UsageError that names the flag; convert.must is the domain."""

    def convert(flag: str, text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ArithmeticError, ValueError):  # unparsable, 1/0, or too large for a float
            pass
        raise UsageError(f"argument {flag}: must be {must}, got {text!r}")

    convert.must = must
    return convert


def _rational(text: str):
    from fractions import Fraction  # on use: metric-check's flags are ints and floats
    return Fraction(text)


def _fractions(text: str) -> list:
    return [_rational(p.strip()) for p in text.split(",")]


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _fractions(text))


_PATH = _checked(str, lambda v: True, "a path")
_INT = _checked(int, lambda v: True, "an integer")
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


def _functor(args: SimpleNamespace) -> tuple[str, dict]:
    if not args.i < args.j < args.k:
        raise UsageError(f"--i, --j, --k must satisfy i < j < k, got {args.i}, {args.j}, {args.k}")
    from .fukaya import functor_check

    rep = functor_check(args.i, args.j, args.k, args.cutoff)
    return "pass" if rep.all_match else "fail", rep.to_json()


def _trop(args: SimpleNamespace) -> bytes:
    from . import tropical

    try:
        return tropical.svg_tiling(args.window).encode()
    except ValueError as exc:  # the window is too small to draw
        raise UsageError(f"--window: {exc}") from None


def _facets(args: SimpleNamespace) -> bytes:
    from . import tropical

    return tropical.facet_csv(args.radius).encode()


def _disc_series(args: SimpleNamespace) -> tuple[str, dict]:
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


def _sphere_c(args: SimpleNamespace) -> tuple[str, dict]:
    from . import gw

    series = gw.sphere_count_C(args.max_order, args.window)
    body = {
        "max_order": args.max_order,
        "window": args.window,
        "series": series.to_json(),
        "note": "terms beyond the constant depend on the wall window",
    }
    return "pass" if series.coefficient(0) == 1 else "fail", body


def _check_level(args: SimpleNamespace) -> None:
    if args.j - args.i < 2:
        raise UsageError(f"--j must be at least --i + 2, got --i {args.i} --j {args.j}")


def _differential(args: SimpleNamespace) -> tuple[str, dict]:
    _check_level(args)
    from .series import differential_table  # the theta route alone: no gw, no tropical

    return "pass", differential_table(args.i, args.j, args.cutoff).to_json()


def _leibniz(args: SimpleNamespace) -> tuple[str, dict]:
    _check_level(args)
    from .series import leibniz_check  # the theta route alone: no gw, no tropical

    rep = leibniz_check(args.i, args.j, args.x, args.tau, args.cutoff)
    return rep.status, rep.to_json()


def _metric_check(args: SimpleNamespace) -> tuple[str, dict]:
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


def _monodromy(args: SimpleNamespace) -> tuple[str, dict]:
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


_REQUIRED = object()  # the default of a flag that must be given

# Each command: its handler, its help line and its flags, each with its type
# and its default: a text that the type parses, None for a default that the
# handler fills, or _REQUIRED.  A flag's type checks the flag's own domain, so
# parsing alone refuses it, naming the flag.  The handler takes the parsed
# flags as attributes (--max-order as max_order): it checks what relates two
# flags or needs a layer (a UsageError names the flags), fills its defaults
# and runs its layers, imported inside the handler so that a command loads
# only what it runs: metric-check alone loads kahler and numpy (on one
# OpenBLAS thread, set by main), and monodromy, trop and facets run on
# tropical alone.  It returns the report's (status, body), or the bytes of
# the SVG/CSV emitters.
COMMANDS = {
    "functor": (_functor, "theta structure constants vs triangle counts", {
        "--i": (_INT, _REQUIRED), "--j": (_INT, _REQUIRED), "--k": (_INT, _REQUIRED),
        "--cutoff": (_BOUND, "20"),
    }),
    "trop": (_trop, "tropical tiling as SVG", {"--window": (_WINDOW, "-3,-3,3,3")}),
    "facets": (_facets, "facet table as CSV", {"--radius": (_BOUND, "1")}),
    "disc-series": (_disc_series, "disc areas at an interior basepoint", {
        "--A": (_MOMENT, _REQUIRED), "--cutoff": (_BOUND, "15"),  # --A is xi1,xi2,eta
    }),
    "sphere-c": (_sphere_c, "sphere-correction series", {
        "--max-order": (_COUNT, "4"), "--window": (_BOUND, "9"),
    }),
    "differential": (_differential, "multiplication-by-section table", {
        "--i": (_INT, _REQUIRED), "--j": (_INT, _REQUIRED), "--cutoff": (_BOUND, "15"),
    }),
    "leibniz": (_leibniz, "numeric Leibniz identity check", {
        "--i": (_INT, _REQUIRED), "--j": (_INT, _REQUIRED), "--x": (_X, "1,1"),
        "--tau": (_UNIT, "0.1"), "--cutoff": (_FLOAT_BOUND, "15"),
    }),
    # --T, --l, --p and --seed default to kahler.DEFAULT_T, _L, _P and _SEED
    "metric-check": (_metric_check, "sampled positive-definiteness certificate", {
        "--T": (_UNIT, None), "--l": (_POSITIVE, None), "--p": (_POSITIVE, None),
        "--samples": (_SAMPLES, "500"), "--seed": (_COUNT, None), "--c-base": (_C_BASE, "auto"),
    }),
    # --seed seeds random.Random for the draws
    "monodromy": (_monodromy, "corner classes and antisymmetry", {
        "--samples": (_COUNT, "50"), "--seed": (_COUNT, "7"),
    }),
}


def _parse(argv: list[str]) -> SimpleNamespace:
    """The argv as the flags that the command's handler reads (--max-order
    as max_order), with command, out and help.

    --out comes before the command, the command's flags after it.  A flag's
    value follows it, as --flag VALUE or --flag=VALUE; it may begin with "-"
    but not with "--".  A flag given twice keeps its last value.  Parsing
    stops at -h or --help.  Raises UsageError, naming the flag.
    """
    command, flags, values = None, {"--out": (_PATH, None)}, {"--out": None}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(command=command, help=True)
        flag, eq, text = token.partition("=")
        if flag in flags:
            if not eq:
                text = next(tokens, None)
                if text is None or text.startswith("--"):
                    raise UsageError(f"argument {flag}: expected one value")
            values[flag] = flags[flag][0](flag, text)
        elif command is None and token in COMMANDS:
            command, flags = token, COMMANDS[token][2]
            values.update((name, default if default is None else convert(name, default))
                          for name, (convert, default) in flags.items() if default is not _REQUIRED)
        elif command is None and not token.startswith("-"):
            raise UsageError(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
        else:
            raise UsageError(f"unrecognized argument {flag}")
    if command is None:
        raise UsageError(f"a command is required (choose from {', '.join(COMMANDS)})")
    missing = [flag for flag in flags if flag not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, help=False,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _help(command: str | None) -> str:
    """The help of mirrorlab, or of one command, written from COMMANDS alone."""
    if command is None:
        usage, text = "COMMAND [--flag VALUE ...]", __doc__
        rows = [(name, line) for name, (_, line, _) in COMMANDS.items()]
        rows += [("-h, --help", "print this help, or after a command its flags"),
                 ("--out PATH", "write the report to PATH instead of stdout")]
    else:
        _, text, flags = COMMANDS[command]
        usage = f"{command} [--flag VALUE ...]"
        rows = [(flag, f"{convert.must}; " + ("required" if default is _REQUIRED else
                                              f"default {default or 'from kahler'}"))
                for flag, (convert, default) in flags.items()]
    width = 2 + max(len(name) for name, _ in rows)
    return "\n".join([f"usage: mirrorlab [--out PATH] {usage}", "", text.strip(), "",
                      *(f"  {name:<{width}}{line}" for name, line in rows), "",
                      "A flag's value follows it, as --flag VALUE or --flag=VALUE.", ""])


def _fail(code: int, message: str) -> NoReturn:
    print(f"mirrorlab: error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _write(stdout: BinaryIO, data: bytes) -> None:
    """Write the report or the help to stdout; a failed write exits 74."""
    try:
        stdout.write(data)
        stdout.flush()  # a full device fails here, not in the flush at exit
    except (OSError, ValueError) as exc:  # ValueError: the stream is closed
        # a buffered stream keeps what it could not write, and the flush at
        # interpreter exit would fail again and exit 120: point its fd at
        # devnull, so that flush succeeds and the exit code stays 74
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stdout.fileno())
            os.close(null)
        except (OSError, ValueError):  # no fd (io.UnsupportedOperation is both), or closed
            pass
        _fail(EXIT_IOERR, f"stdout: {exc}")


def run(argv: list[str] | None, stdout: BinaryIO | None = None) -> tuple[bytes, int]:
    """Execute one command; returns (output bytes, exit code).

    The report is also written to --out when given, else to the binary
    stream stdout if one is passed.  -h or --help writes the help to stdout,
    if passed, and raises SystemExit(0).  A usage error raises
    SystemExit(64), and a failed write to stdout SystemExit(74), each after
    one `mirrorlab: error:` line on stderr.  A UsageError from the command
    means an argument outside its domain, which is a usage error; any other
    exception is a fault of the program and propagates.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args.help:
            text = _help(args.command).encode()
            if stdout is not None:
                _write(stdout, text)
            raise SystemExit(EXIT_PASS)
        result = COMMANDS[args.command][0](args)
    except UsageError as exc:
        _fail(EXIT_USAGE, str(exc))
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
            _fail(EXIT_USAGE, f"--out: {exc}")
    elif stdout is not None:
        _write(stdout, out)
    return out, code


def main(argv: list[str] | None = None) -> int:
    # numpy's OpenBLAS starts a worker thread per core when it loads, but the
    # one LAPACK call, eigvalsh on batches of 3x3 matrices, runs a matrix at a
    # time, so the pool never works; starting it costs each metric-check
    # process 60-95 ms (2 vCPUs).  Set here, at the process entry, so that
    # callers of run keep their environment; an explicit value is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        if sys.stdout is None:  # fd 1 was closed at start-up
            stdout = io.BytesIO()
            stdout.close()  # so that a write of the report or the help fails: exit 74
        else:
            stdout = sys.stdout.buffer
        return run(argv, stdout)[1]
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
