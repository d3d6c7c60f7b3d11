"""Command-line entry point, configuration, and report emission.

One verification per invocation; reports are JSON (CSV/SVG for the table
and tiling emitters) with deterministic bytes for a given configuration.
Rationals are emitted as "p/q" strings, floats with 17 significant digits.
Exit codes: 0 pass, 1 fail, 2 indeterminate, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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


def _load_config(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="mirrorlab", description=__doc__)
    parser.add_argument("--config", help="key=value file overriding defaults")
    parser.add_argument("--out", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functor", help="theta structure constants vs triangle counts")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cutoff", default="20")

    p = sub.add_parser("trop", help="tropical tiling as SVG")
    p.add_argument("--window", default="-3,-3,3,3")
    p.add_argument("--format", default="svg", choices=("svg",))

    p = sub.add_parser("facets", help="facet table as CSV")
    p.add_argument("--radius", default="1")
    p.add_argument("--format", default="csv", choices=("csv",))

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
    p.add_argument("--c-order", type=int, default=3)

    p = sub.add_parser("metric-check", help="sampled positive-definiteness certificate")
    p.add_argument("--T", type=float)  # --T, --l, --p default to kahler.DEFAULT_T/L/P
    p.add_argument("--l", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--c-base", default="auto")

    p = sub.add_parser("monodromy", help="corner classes and antisymmetry")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _seed_from(args, config: dict[str, str]) -> int:
    """--seed, else MIRRORLAB_SEED, else the config's seed line, else kahler's default."""
    if args.seed is not None:
        return args.seed
    for source, text in (("MIRRORLAB_SEED", os.environ.get("MIRRORLAB_SEED")),
                         ("--config seed", config.get("seed"))):
        if text is not None:
            try:
                if int(text) >= 0:
                    return int(text)
            except ValueError:
                pass
            raise ValueError(f"{source} must be an integer >= 0, got {text!r}")
    from . import kahler

    return kahler.DEFAULT_SEED


def run(argv: list[str] | None, stdout: BinaryIO | None = None) -> tuple[bytes, int]:
    """Execute one command; returns (output bytes, exit code).

    The report is also written to --out when given, else to the binary
    stream stdout if one is passed.  A ValueError from the command means an
    argument outside its domain, which is a usage error.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "metric-check":  # kahler (and numpy) only for the commands that use it
        from . import kahler

        for name in ("T", "l", "p"):
            if getattr(args, name) is None:
                setattr(args, name, getattr(kahler, "DEFAULT_" + name.upper()))
    try:
        _check_domains(args)
        out, code = _dispatch(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(out)
    elif stdout is not None:
        stdout.write(out)
    return out, code


# The arguments that must be >= 0: cutoffs, windows, orders, sample counts and seeds.
_NONNEGATIVE = [(c, "--cutoff") for c in ("functor", "differential", "disc-series", "leibniz")]
_NONNEGATIVE += [("sphere-c", "--window"), ("facets", "--radius")]
_NONNEGATIVE += [("sphere-c", "--max-order"), ("leibniz", "--c-order")]
_NONNEGATIVE += [(c, f) for c in ("metric-check", "monodromy") for f in ("--samples", "--seed")]


def _check_domains(args: argparse.Namespace) -> None:
    """Raise ValueError, naming the flag, for an argument outside its domain."""
    if args.command == "metric-check":
        from . import kahler

        if not 0.0 < args.T < 1.0:
            raise ValueError(f"--T must lie in (0, 1), got {args.T!r}")
        for flag, value in (("--p", args.p), ("--l", args.l)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, got {value}")
        empty = [k for k, (lo, hi) in kahler.sampler_windows(args.l, args.p).items() if lo >= hi]
        if empty:
            raise ValueError(f"--l {args.l} --p {args.p}: empty sampler windows {', '.join(empty)}")
        deep = 3 * kahler.MODERATE_LOG  # below it a fiber point can have three moderate logs
        if args.l <= deep:
            raise ValueError(f"--l must exceed {deep:g} (a deep fiber), got {args.l}")
        if args.c_base != "auto":
            try:
                c_base = float(args.c_base)
            except ValueError:
                c_base = math.nan
            if not (math.isfinite(c_base) and c_base >= 0):
                raise ValueError(
                    f"--c-base must be auto or a finite float >= 0, got {args.c_base!r}"
                )
    if args.command == "leibniz":
        x = tuple(_floats(args, "--x", 2))
        if min(x) <= 0:
            raise ValueError(f"--x coordinates must be positive floats, got {args.x!r}")
        if not 0.0 < args.tau < 1.0:
            raise ValueError(f"--tau must lie in (0, 1), got {args.tau!r}")
        from . import gw

        try:
            gw.log_tau_point(x, args.tau)
        except ValueError:
            raise ValueError(
                f"--x {args.x!r} lies too far from 1: tau^q, q the quadratic weight of"
                f" log_tau x, overflows a float at --tau {args.tau!r}"
            ) from None
    if args.command == "disc-series":
        from .lattice import MomentPoint
        from .tropical import polytope_contains_strictly

        if not polytope_contains_strictly(MomentPoint(*_rationals(args, "--A", 3))):
            raise ValueError(f"--A must lie strictly inside the moment body, got {args.A!r}")
    if args.command == "trop":
        x0, y0, x1, y1 = _floats(args, "--window", 4)
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"--window must have positive extent, got {args.window!r}")
    if args.command == "functor" and not args.i < args.j < args.k:
        raise ValueError(f"--i, --j, --k must satisfy i < j < k, got {args.i}, {args.j}, {args.k}")
    if args.command in ("differential", "leibniz") and args.j - args.i < 2:
        raise ValueError(f"--j must be at least --i + 2, got --i {args.i} --j {args.j}")
    for command, flag in _NONNEGATIVE:
        text = getattr(args, flag[2:].replace("-", "_"), None)
        if command != args.command or text is None:  # a --seed left to its default
            continue
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} must be a rational, got {text!r}") from None
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {text!r}")


def _dispatch(args: argparse.Namespace) -> tuple[bytes, int]:
    try:
        config = _load_config(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        raise ValueError(f"--config: {exc}") from None

    if args.command == "trop":
        from . import tropical

        return tropical.svg_tiling(tuple(_floats(args, "--window", 4))).encode(), EXIT_PASS

    if args.command == "facets":
        from . import tropical

        return tropical.facet_csv(Fraction(args.radius)).encode(), EXIT_PASS

    if args.command == "functor":
        from .fukaya import functor_check

        rep = functor_check(args.i, args.j, args.k, Fraction(args.cutoff))
        body = rep.to_json()
        status = "pass" if rep.all_match else "fail"
    elif args.command == "disc-series":
        from . import gw
        from .lattice import MomentPoint

        a = MomentPoint(*_rationals(args, "--A", 3))
        series = gw.disc_series(a, Fraction(args.cutoff))
        body = {
            "A": [a.xi1, a.xi2, a.eta],
            "cutoff": Fraction(args.cutoff),
            "series": series.to_json(),
        }
        status = "pass"
    elif args.command == "sphere-c":
        from . import gw

        series = gw.sphere_count_C(args.max_order, Fraction(args.window))
        body = {
            "max_order": args.max_order,
            "window": Fraction(args.window),
            "series": series.to_json(),
            "note": "terms beyond the constant depend on the wall window",
        }
        status = "pass" if series.coefficient(0) == 1 else "fail"
    elif args.command == "differential":
        from . import gw

        table = gw.differential_table(args.i, args.j, Fraction(args.cutoff))
        body = table.to_json()
        status = "pass"
    elif args.command == "leibniz":
        from . import gw

        x = tuple(_floats(args, "--x", 2))
        rep = gw.leibniz_check(
            args.i, args.j, x, args.tau, Fraction(args.cutoff), args.c_order
        )
        body = rep.to_json()
        status = rep.status
    elif args.command == "metric-check":
        from . import kahler

        seed = _seed_from(args, config)
        c_base = (
            kahler.calibrate_c_base(args.T, args.l, args.p, seed=seed)
            if args.c_base == "auto"
            else float(args.c_base)
        )
        body = kahler.metric_certificate(
            args.T, args.l, args.p, args.samples, seed, c_base
        )
        status = body["status"]
    elif args.command == "monodromy":
        seed = _seed_from(args, config)
        body = _monodromy_report(args.samples, seed)
        status = body["status"]
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)

    report = {"command": args.command, "status": status}
    report.update(body)
    return emit(report), _STATUS_CODE[status]


def _monodromy_report(samples: int, seed: int) -> dict:
    import numpy as np

    from . import kahler

    corners = kahler.monodromy_corner_table()
    corner_rows = []
    ok = True
    for cls, xi in sorted(corners.items()):
        got = kahler.monodromy_class(xi)
        corner_rows.append({"xi": [xi[0], xi[1]], "expected": list(cls), "got": list(got)})
        ok = ok and got == cls
    anti = []
    rng = np.random.default_rng(seed)
    count = 0
    while count < samples:
        xi = (
            Fraction(int(rng.integers(-4000, 4000)), 1000),
            Fraction(int(rng.integers(-4000, 4000)), 1000),
        )
        try:
            plus = kahler.monodromy_class(xi)
            minus = kahler.monodromy_class((-xi[0], -xi[1]))
        except ValueError:
            continue  # on the tropical curve; resample
        anti.append(plus == (-minus[0], -minus[1]))
        count += 1
    ok = ok and all(anti)
    fracs = kahler.transport_fractions(kahler.FiberPoint(1.0, 1.0, 1.0))
    ok = ok and abs(sum(fracs) - 1.0) <= 1e-14
    return {
        "status": "fail" if not ok else "pass" if anti else "indeterminate",
        "corners": corner_rows,
        "antisymmetry_samples": samples,
        "antisymmetry_all": all(anti) if anti else None,
        "fractions_sum_error": abs(sum(fracs) - 1.0),
    }


def main(argv: list[str] | None = None) -> int:
    return run(argv, sys.stdout.buffer)[1]


if __name__ == "__main__":
    raise SystemExit(main())
