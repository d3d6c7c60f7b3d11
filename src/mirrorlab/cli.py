"""Command-line entry point and report emission.

One verification per invocation; reports are JSON (CSV/SVG for the table
and tiling emitters) with deterministic bytes for a given argv.
Rationals are emitted as "p/q" strings, floats with 17 significant digits.
Exit codes: 0 pass, 1 fail, 2 indeterminate, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import BinaryIO

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64

_STATUS_CODE = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "indeterminate": EXIT_INDETERMINATE}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors carry a dedicated exit code
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _fmt(value):
    """Canonical JSON-safe rendering: Fractions as p/q, floats at 17 digits."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def emit(report: dict) -> bytes:
    return (json.dumps(_fmt(report), indent=2) + "\n").encode()


def _rationals(args: argparse.Namespace, flag: str, n: int) -> list[Fraction]:
    """The n comma-separated rationals of a list flag; an error names the flag."""
    text = getattr(args, flag[2:])
    try:
        values = [Fraction(p.strip()) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        values = []
    if len(values) != n:
        raise ValueError(f"{flag} must be {n} comma-separated rationals, got {text!r}")
    return values


def _floats(args: argparse.Namespace, flag: str, n: int) -> list[float]:
    """A list flag's rationals as the floats a command reads; each must fit in one."""
    try:
        return [float(v) for v in _rationals(args, flag, n)]
    except OverflowError:
        raise ValueError(f"{flag} must fit in floats, got {getattr(args, flag[2:])!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="mirrorlab", description=__doc__)
    parser.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functor", help="theta structure constants vs triangle counts")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cutoff", default="20")

    p = sub.add_parser("trop", help="tropical tiling as SVG")
    p.add_argument("--window", default="-3,-3,3,3")

    p = sub.add_parser("facets", help="facet table as CSV")
    p.add_argument("--radius", default="1")

    p = sub.add_parser("disc-series", help="disc areas at an interior basepoint")
    p.add_argument("--A", required=True, help="xi1,xi2,eta as rationals")
    p.add_argument("--cutoff", default="15")

    p = sub.add_parser("sphere-c", help="sphere-correction series")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--window", default="9")

    p = sub.add_parser("differential", help="multiplication-by-section table")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--cutoff", default="15")

    p = sub.add_parser("leibniz", help="numeric Leibniz identity check")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x", default="1,1")
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--cutoff", default="15")

    p = sub.add_parser("metric-check", help="sampled positive-definiteness certificate")
    p.add_argument("--T", type=float)  # --T, --l, --p default to kahler.DEFAULT_T/L/P
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c-base", default="auto")

    p = sub.add_parser("monodromy", help="corner classes and antisymmetry")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)  # random.Random's seed for the draws
    return parser


def _nonnegative(args: argparse.Namespace, flag: str) -> Fraction:
    """The value of a flag that must be a rational >= 0; an error names the flag."""
    text = getattr(args, flag[2:].replace("-", "_"))
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a rational, got {text!r}") from None
    if value < 0:
        raise ValueError(f"{flag} must be >= 0, got {text!r}")
    return value


def _functor(args: argparse.Namespace) -> tuple[str, dict]:
    if not args.i < args.j < args.k:
        raise ValueError(f"--i, --j, --k must satisfy i < j < k, got {args.i}, {args.j}, {args.k}")
    cutoff = _nonnegative(args, "--cutoff")
    from .fukaya import functor_check

    rep = functor_check(args.i, args.j, args.k, cutoff)
    return "pass" if rep.all_match else "fail", rep.to_json()


def _trop(args: argparse.Namespace) -> bytes:
    window = tuple(_floats(args, "--window", 4))
    from . import tropical

    try:
        return tropical.svg_tiling(window).encode()
    except ValueError as exc:  # the window is too small to draw
        raise ValueError(f"--window {args.window!r}: {exc}") from None


def _facets(args: argparse.Namespace) -> bytes:
    radius = _nonnegative(args, "--radius")
    from . import tropical

    return tropical.facet_csv(radius).encode()


def _disc_series(args: argparse.Namespace) -> tuple[str, dict]:
    from .lattice import MomentPoint
    from .tropical import trop_phi

    a = MomentPoint(*_rationals(args, "--A", 3))
    phi = trop_phi((a.xi1, a.xi2))
    if not a.eta > phi.value:
        raise ValueError(f"--A must lie strictly inside the moment body, got {args.A!r}")
    cutoff = _nonnegative(args, "--cutoff")
    from . import gw

    series = gw.disc_series(a, cutoff)
    # The least disc area is the height eta - phi(xi) over the facets of the
    # maximizers of phi, one disc each: the series must open with that term.
    lead = (a.eta - phi.value, Fraction(len(phi.maximizers)))
    status = "pass" if series.terms[:1] == ((lead,) if lead[0] <= cutoff else ()) else "fail"
    body = {"A": list(a), "cutoff": cutoff, "tropical_lead": list(lead), "series": series.to_json()}
    return status, body


def _sphere_c(args: argparse.Namespace) -> tuple[str, dict]:
    window = _nonnegative(args, "--window")
    _nonnegative(args, "--max-order")
    from . import gw

    series = gw.sphere_count_C(args.max_order, window)
    body = {
        "max_order": args.max_order,
        "window": window,
        "series": series.to_json(),
        "note": "terms beyond the constant depend on the wall window",
    }
    return "pass" if series.coefficient(0) == 1 else "fail", body


def _check_level(args: argparse.Namespace) -> None:
    if args.j - args.i < 2:
        raise ValueError(f"--j must be at least --i + 2, got --i {args.i} --j {args.j}")


def _differential(args: argparse.Namespace) -> tuple[str, dict]:
    _check_level(args)
    cutoff = _nonnegative(args, "--cutoff")
    from . import gw

    return "pass", gw.differential_table(args.i, args.j, cutoff).to_json()


def _leibniz(args: argparse.Namespace) -> tuple[str, dict]:
    x = tuple(_floats(args, "--x", 2))
    if min(x) <= 0:
        raise ValueError(f"--x coordinates must be positive floats, got {args.x!r}")
    if not 0.0 < args.tau < 1.0:
        raise ValueError(f"--tau must lie in (0, 1), got {args.tau!r}")
    _check_level(args)
    cutoff = _nonnegative(args, "--cutoff")
    try:
        float(cutoff)  # the lattice sums are truncated in floats
    except OverflowError:
        raise ValueError(f"--cutoff must fit in a float, got {args.cutoff!r}") from None
    from . import gw

    rep = gw.leibniz_check(args.i, args.j, x, args.tau, cutoff)
    return rep.status, rep.to_json()


def _metric_check(args: argparse.Namespace) -> tuple[str, dict]:
    from . import kahler  # the domain of --l and --p is kahler's sampler windows

    T = kahler.DEFAULT_T if args.T is None else args.T
    l = kahler.DEFAULT_L if args.l is None else args.l
    p = kahler.DEFAULT_P if args.p is None else args.p
    if not 0.0 < T < 1.0:
        raise ValueError(f"--T must lie in (0, 1), got {T!r}")
    for flag, value in (("--p", p), ("--l", l)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    # the smallest sampled norm r is about T^(l+2), and the Hessian of log r holds -1/r^2
    if l + 2 > math.log(sys.float_info.min) / (2 * math.log(T)):
        least = sys.float_info.min
        raise ValueError(f"--T {T!r} --l {l}: T^(2(l+2)) must be a normal float (>= {least:.2g})")
    empty = [k for k, (lo, hi) in kahler.sampler_windows(l, p).items() if lo >= hi]
    if empty:
        raise ValueError(f"--l {l} --p {p}: empty sampler windows {', '.join(empty)}")
    deep = 3 * kahler.MODERATE_LOG  # below it a fiber point can have three moderate logs
    if l <= deep:
        raise ValueError(f"--l must exceed {deep:g} (a deep fiber), got {l}")
    c_base = "auto"
    if args.c_base != "auto":
        try:
            c_base = float(args.c_base)
        except ValueError:
            c_base = math.nan
        if not (math.isfinite(c_base) and c_base >= 0):
            raise ValueError(f"--c-base must be auto or a finite float >= 0, got {args.c_base!r}")
    _nonnegative(args, "--samples")
    seed = kahler.DEFAULT_SEED if args.seed is None else int(_nonnegative(args, "--seed"))
    body = kahler.metric_certificate(T, l, p, args.samples, seed, c_base)
    return body["status"], body


def _monodromy(args: argparse.Namespace) -> tuple[str, dict]:
    _nonnegative(args, "--samples")
    import random

    from . import tropical

    seed = int(_nonnegative(args, "--seed"))
    corner_rows = []
    ok = True
    for cls, xi in sorted(tropical.monodromy_corner_table().items()):
        got = tropical.monodromy_class(xi)
        corner_rows.append({"xi": [xi[0], xi[1]], "expected": list(cls), "got": list(got)})
        ok = ok and got == cls
    anti = []
    rng = random.Random(seed)
    while len(anti) < args.samples:
        xi = (Fraction(rng.randrange(-4000, 4000), 1000), Fraction(rng.randrange(-4000, 4000), 1000))
        try:
            plus = tropical.monodromy_class(xi)
            minus = tropical.monodromy_class((-xi[0], -xi[1]))
        except ValueError:
            continue  # on the tropical curve; resample
        anti.append(plus == (-minus[0], -minus[1]))
    ok = ok and all(anti)
    fracs = tropical.transport_fractions(1.0, 1.0, 1.0)
    ok = ok and abs(sum(fracs) - 1.0) <= 1e-14
    status = "fail" if not ok else "pass" if anti else "indeterminate"
    return status, {
        "corners": corner_rows,
        "seed": seed,
        "antisymmetry_samples": args.samples,
        "antisymmetry_all": all(anti) if anti else None,
        "fractions_sum_error": abs(sum(fracs) - 1.0),
    }


# One handler per command, taking (args): it checks its arguments (a ValueError
# names the flag), fills its defaults and runs its layers, imported inside the
# handler so that a command loads only what it runs: metric-check alone loads
# kahler and numpy, and monodromy, trop and facets run on tropical alone.  It
# returns the report's (status, body), or the bytes of the SVG/CSV emitters.
_COMMANDS = {
    "functor": _functor,
    "trop": _trop,
    "facets": _facets,
    "disc-series": _disc_series,
    "sphere-c": _sphere_c,
    "differential": _differential,
    "leibniz": _leibniz,
    "metric-check": _metric_check,
    "monodromy": _monodromy,
}


def run(argv: list[str] | None, stdout: BinaryIO | None = None) -> tuple[bytes, int]:
    """Execute one command; returns (output bytes, exit code).

    The report is also written to --out when given, else to the binary
    stream stdout if one is passed.  A ValueError from the command means an
    argument outside its domain, which is a usage error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except ValueError as exc:
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
    return run(argv, sys.stdout.buffer)[1]


if __name__ == "__main__":
    raise SystemExit(main())
