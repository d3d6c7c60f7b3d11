"""The report-digest manifest: the exit code and stdout sha256 of each argv.

tests/data/report_digests.tsv has one row per distinct `mirrorlab` argv,
under the first set that names it:

  pinned       reports past the golden files' levels (see PINNED)
  readme       the README's functor, differential and leibniz examples
  edge         leibniz argvs whose tail bound underflows to 0
  seed<N>      the ops of perfbench/ops' three workloads at seed N
  golden       the argvs of the golden report files in tests/data
  metric-edge  metric-check at an overflowing c_base, at no samples, and at
               the stress tier's sample count

Each argv runs through `mirrorlab.cli.run` in this process.  A deliberate
change of report bytes is a diff of the manifest, to be explained where
the change is recorded.  The tier-1 tests compare the pinned, readme, edge
and seed1-seed5 rows; --check compares every row.  The golden rows repeat
what the golden files pin, so a change of their bytes shows here as well.  From the repository root:

    PYTHONPATH=src python tests/report_digests.py          # rewrite the manifest
    PYTHONPATH=src python tests/report_digests.py --check  # compare every row
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import platform
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "report_digests.tsv"
# Past the goldens' level 3: the structure constants at levels 4 and 5 (the
# two differential ops of perfbench's theta-exact workload) and the slowest
# functor gap of that workload, (2, 3); the README's leibniz; monodromy at
# the sample count of the honeycomb workload, at two seeds; functor at
# gcd(l', l'') = 3 and 4, where the theta route relabels pairs by 9 and 16
# torsion translations; and the two metric-check ops of the metric-cert
# workload at seed 1.  The metric-check bytes depend on the host's libm (log,
# log1p, pow) and LAPACK's eigvalsh: a host that differs there is a finding.
PINNED = (
    "differential --i 0 --j 4 --cutoff 15",
    "differential --i 0 --j 5 --cutoff 20",
    "functor --i 0 --j 2 --k 5 --cutoff 20",
    "leibniz --i 0 --j 2 --x 1,1 --tau 0.1 --cutoff 15",
    "monodromy --samples 500",
    "monodromy --samples 500 --seed 905735",
    "functor --i 0 --j 3 --k 6 --cutoff 30",
    "functor --i 0 --j 4 --k 8 --cutoff 12",
    "metric-check --c-base auto --samples 300 --seed 7",
    "metric-check --c-base 6.96898287454082e+41 --samples 500 --seed 215045",
)
README = (
    "functor --i 0 --j 1 --k 2 --cutoff 20",
    "differential --i 0 --j 2 --cutoff 15",
    "leibniz --i 0 --j 2 --x 1,1 --tau 0.1 --cutoff 15",
)
EDGE = (
    "leibniz --i 0 --j 2 --x 0.5,1 --tau 1e-30",
    "leibniz --i 0 --j 2 --x 1e300,1 --tau 1e-300",
)
GOLDEN = (
    "disc-series --A 0,0,1/2 --cutoff 15",
    "sphere-c --max-order 4 --window 9",
    "differential --i 0 --j 2 --cutoff 6",
    "functor --i 0 --j 1 --k 2 --cutoff 6",
    "functor --i 0 --j 2 --k 4 --cutoff 8",
    "functor --i 0 --j 2 --k 5 --cutoff 8",
    "differential --i 0 --j 3 --cutoff 8",
    "trop --window=-3,-3,3,3",
    "facets --radius 4",
)
METRIC_EDGE = (
    "metric-check --seed 3 --samples 5 --c-base 1e308",
    "metric-check --samples 0",
    "metric-check --samples 2000 --c-base auto",
)
SEEDS = range(1, 21)
WORKLOADS = ("theta-exact", "honeycomb", "metric-cert")


def read_manifest(path: Path = MANIFEST) -> list[tuple[str, int, str, list[str]]]:
    """The rows (set, exit code, sha256, argv) in file order."""
    rows = [line.split("\t") for line in path.read_text().splitlines() if not line.startswith("#")]
    return [(name, int(code), digest, shlex.split(argv)) for name, code, digest, argv in rows]


def digest(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout sha256 of one argv, run in this process."""
    from mirrorlab import cli

    out, code = cli.run(argv)
    return code, hashlib.sha256(out).hexdigest()


def argv_sets() -> list[tuple[str, list[str]]]:
    """(set, argv) for every distinct argv, under the first set that names it."""
    sys.path.insert(0, str(ROOT))
    from perfbench.ops import workload_ops

    named = [("pinned", a) for a in PINNED] + [("readme", a) for a in README]
    named += [("edge", a) for a in EDGE]
    for seed in SEEDS:
        for workload in WORKLOADS:
            named += [(f"seed{seed}", shlex.join(op)) for op in workload_ops(workload, seed)]
    named += [("golden", a) for a in GOLDEN] + [("metric-edge", a) for a in METRIC_EDGE]
    first: dict[str, str] = {}
    for name, argv in named:
        first.setdefault(argv, name)
    return [(name, shlex.split(argv)) for argv, name in first.items()]


def write() -> None:
    host = (f"Python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
            f"{platform.system()} {platform.machine()} {' '.join(platform.libc_ver())}")
    lines = [
        "# exit code and stdout sha256 of `mirrorlab <argv>`; see tests/report_digests.py",
        f"# host: {host}",
        "# set\texit\tsha256\targv",
    ]
    for name, argv in argv_sets():
        code, sha = digest(argv)
        lines.append(f"{name}\t{code}\t{sha}\t{shlex.join(argv)}")
    MANIFEST.write_text("\n".join(lines) + "\n")


def check() -> int:
    """Recompute every row; print each that differs and return 1 if any does."""
    rows = read_manifest()
    bad = 0
    for name, code, sha, argv in rows:
        got = digest(argv)
        if got != (code, sha):
            bad += 1
            print(f"{name}\t{shlex.join(argv)}: exit {got[0]} sha256 {got[1]}, "
                  f"manifest exit {code} sha256 {sha}")
    print(f"{len(rows) - bad} of {len(rows)} rows match")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        raise SystemExit(check())
    if sys.argv[1:]:
        raise SystemExit(f"usage: {sys.argv[0]} [--check]")
    write()
