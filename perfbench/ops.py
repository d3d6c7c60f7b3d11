"""Workload argv generators and the correctness gate for their reports.

A workload is a fixed list of mirrorlab CLI invocations ("ops").  The seed
picks only inputs whose work per op is flat: the base slope i, the interior
basepoint A, leibniz x and tau, and the --seed of the fixed-c_base
metric-check and of monodromy.  It never picks the number or size of ops.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("theta-exact", "honeycomb", "metric-cert")

# (l', l'') gaps of the functor ops at cutoff 20; (2, 3) is the slow one.
FUNCTOR_GAPS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3))
SPHERE_C_TERMS = (1, 0, 3, -4, 27)  # coefficients of tau^0 .. tau^4
C_BASE_FIXED = "6.96898287454082e+41"  # 2**139 as the CLI prints it
# Calibration work depends on the sampled points (12-15 s across seeds),
# so the --c-base auto op keeps the CLI's default seed to stay flat.
CALIBRATION_SEED = "7"
GOLDEN = {
    ("trop", "--window=-3,-3,3,3"): "tests/data/tiling_window3.svg",
    ("facets", "--radius", "4"): "tests/data/facets_radius4.csv",
}
# A leibniz residual this small relative to the values it compares is
# float roundoff, which the tail bound does not allow for (a known defect).
ROUNDOFF = 1e-12
# (j - i, cutoff, tau range) of the leibniz ops.  The cutoff-20 op fails by
# that defect for every tau below about 0.1 and the cutoff-15 op for tau
# near 0.05, so the ranges make the outcome the same on every seed: the
# cutoff-20 op always shows the defect and the cutoff-15 op always passes.
LEIBNIZ = ((3, "15", (0.1, 0.2)), (4, "20", (0.05, 0.095)))


def workload_ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv lists of one workload, deterministic in (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theta-exact":
        i = rng.randint(-5, 5)
        ops = [
            ("functor", "--i", str(i), "--j", str(i + a), "--k", str(i + a + b), "--cutoff", "20")
            for a, b in FUNCTOR_GAPS
        ]
        ops.append(("differential", "--i", str(i), "--j", str(i + 4), "--cutoff", "15"))
        ops.append(("differential", "--i", str(i), "--j", str(i + 5), "--cutoff", "20"))
        return ops
    if workload == "honeycomb":
        ops = [
            ("sphere-c", "--max-order", "5", "--window", "9"),
            ("sphere-c", "--max-order", "4", "--window", "16"),
        ]
        for gap, cutoff, (low, high) in LEIBNIZ:
            i = rng.randint(-5, 5)
            x = f"{Fraction(rng.randint(2, 8), 4)},{Fraction(rng.randint(2, 8), 4)}"
            tau = repr(round(rng.uniform(low, high), 4))
            ops.append(("leibniz", "--i", str(i), "--j", str(i + gap), "--x", x,
                        "--tau", tau, "--cutoff", cutoff))
        ops.append(("monodromy", "--samples", "500", "--seed", str(rng.randrange(1, 10**6))))
        for _ in range(3):
            xi = (Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-8, 8), 4))
            eta = trop(xi)[0] + Fraction(rng.randint(1, 8), 8)
            # "--A=" keeps argparse from reading a leading "-" as a flag.
            ops.append(("disc-series", f"--A={xi[0]},{xi[1]},{eta}", "--cutoff", "15"))
        ops.extend(GOLDEN)
        return ops
    if workload == "metric-cert":
        return [
            ("metric-check", "--c-base", "auto", "--samples", "300", "--seed", CALIBRATION_SEED),
            ("metric-check", "--c-base", C_BASE_FIXED, "--samples", "500",
             "--seed", str(rng.randrange(1, 10**6))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def trop(xi: tuple[Fraction, Fraction]) -> tuple[Fraction, int]:
    """max over lattice n of <xi, n> - N(n), and how many n attain it.

    Brute force: n = 0 gives 0, and N(n) >= (3/4)|n|_inf^2, so every
    maximizer has |n|_inf <= (4/3)|xi|_1.
    """
    reach = math.ceil(Fraction(4, 3) * (abs(xi[0]) + abs(xi[1]))) + 1
    values = [
        xi[0] * n1 + xi[1] * n2 - (n1 * n1 + n1 * n2 + n2 * n2)
        for n1 in range(-reach, reach + 1)
        for n2 in range(-reach, reach + 1)
    ]
    top = max(values)
    return top, values.count(top)


def _opt(argv: tuple[str, ...], flag: str) -> str:
    """The value of --flag, given as "--flag value" or "--flag=value"."""
    for n, arg in enumerate(argv):
        if arg == flag:
            return argv[n + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


class Gate:
    """Checks each op's exit code and report against what the op must give."""

    def __init__(self, root: Path):
        self.golden = {argv: (root / rel).read_bytes() for argv, rel in GOLDEN.items()}
        self.first: dict[int, bytes] = {}

    def check(self, index: int, argv: tuple[str, ...], code: int, out: bytes) -> list[str]:
        """Problems with one op's result; empty when it is correct.

        index identifies the op within its workload; every repetition of the
        op must give the first repetition's bytes.
        """
        problems = []
        first = self.first.setdefault(index, out)
        if out != first:
            problems.append("report bytes differ from the first repetition")
        if code != 0:
            problems.append(f"exit {code}, expected 0 (pass)")
        if argv in self.golden:
            if out != self.golden[argv]:
                problems.append("output differs from the golden file")
            return problems
        try:
            rep = json.loads(out)
        except ValueError:
            return problems + ["report is not JSON"]
        if rep.get("status") != "pass":
            problems.append(f"status {rep.get('status')!r}, expected 'pass'")
        check = getattr(self, "_" + argv[0].replace("-", "_"))
        try:
            problems.extend(check(argv, rep))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems

    @staticmethod
    def known_defect(argv: tuple[str, ...], code: int, out: bytes) -> bool:
        """A leibniz fail whose every failing residual is float roundoff.

        The residual is compared against a truncation tail bound with no
        rounding allowance, so at small tau it can exceed the bound by
        roundoff alone.  Such a failure is counted, not treated as a wrong
        report.
        """
        if argv[0] != "leibniz" or code != 1:
            return False
        try:
            rep = json.loads(out)
            return rep["passed"] is False and all(
                float(it["residual"])
                <= ROUNDOFF * max(abs(float(it["lhs"])), abs(float(it["rhs"])))
                for it in rep["items"]
                if float(it["residual"]) > float(it["tail_bound"])
            )
        except (KeyError, TypeError, ValueError):
            return False

    def _functor(self, argv, rep):
        i, j, k = (int(_opt(argv, f)) for f in ("--i", "--j", "--k"))
        problems = []
        if rep["triple"] != [i, j, k] or rep["cutoff"] != _opt(argv, "--cutoff"):
            problems.append("triple or cutoff not echoed")
        if rep["all_match"] is not True:
            problems.append("all_match is not true")
        if len(rep["pairs"]) != (j - i) ** 2 * (k - j) ** 2:
            problems.append(f"{len(rep['pairs'])} pairs, expected {(j - i) ** 2 * (k - j) ** 2}")
        if not all(p["matches"] for p in rep["pairs"]):
            problems.append("a basis pair does not match")
        return problems

    def _differential(self, argv, rep):
        level = int(_opt(argv, "--j")) - int(_opt(argv, "--i"))
        if rep["level"] != level or len(rep["entries"]) != (level - 1) ** 2:
            return ["wrong level or number of input representatives"]
        if any(len(e["out"]) != level * level for e in rep["entries"]):
            return ["an input representative lacks output representatives"]
        return []

    def _sphere_c(self, argv, rep):
        coef = {Fraction(e): Fraction(c) for e, c in rep["series"]["terms"]}
        got = tuple(coef.get(Fraction(n), 0) for n in range(len(SPHERE_C_TERMS)))
        if got != SPHERE_C_TERMS:
            return [f"coefficients through tau^4 are {[str(c) for c in got]}"]
        return []

    def _leibniz(self, argv, rep):
        if rep["passed"] is not True:
            return ["passed is not true"]
        return []

    def _monodromy(self, argv, rep):
        problems = []
        if rep["antisymmetry_all"] is not True:
            problems.append("antisymmetry_all is not true")
        if rep["antisymmetry_samples"] != int(_opt(argv, "--samples")):
            problems.append("sample count not echoed")
        if any(row["expected"] != row["got"] for row in rep["corners"]):
            problems.append("a corner class is wrong")
        return problems

    def _disc_series(self, argv, rep):
        xi1, xi2, eta = (Fraction(v) for v in _opt(argv, "--A").split(","))
        top, attained = trop((xi1, xi2))
        terms = rep["series"]["terms"]
        lead = (Fraction(terms[0][0]), Fraction(terms[0][1])) if terms else None
        # The smallest disc area is the distance eta - trop(xi) to the
        # nearest facet, once per facet attaining it.
        if lead != (eta - top, attained):
            return [f"leading term {lead}, expected area {eta - top}"]
        if any(Fraction(e) > Fraction(_opt(argv, "--cutoff")) for e, _ in terms):
            return ["a term lies beyond the cutoff"]
        return []

    def _metric_check(self, argv, rep):
        problems = []
        samples = int(_opt(argv, "--samples"))
        for region, row in rep["regions"].items():
            if row["samples"] != samples or not float(row["min_eig"]) > 0:
                problems.append(f"region {region} is not certified on {samples} samples")
        if float(rep["c_base"]) != 2.0 ** 139:
            problems.append(f"c_base {rep['c_base']}, expected 2^139")
        return problems
