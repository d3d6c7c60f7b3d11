"""Mutation checks as data: every row of tests/data/mutants.tsv must be killed.

Each row of the manifest is one edit of the source (a mutant): a name, the
file (relative to the repository root), a text that occurs in that file
exactly once, its replacement, the pytest node ids that must fail under the
edit (space-separated), and the reason the row exists.  In the text and its
replacement, "\\n" stands for a newline, "\\t" for a tab and "\\\\" for a
backslash.

The runner copies the checkout, without .git and caches, to a temporary
directory and never writes to the working tree.  It first runs every named
test on the unedited copy, where each must be found and pass; otherwise it
stops there.  Then it applies one row at a time and runs that row's tests in
a fresh pytest process, with a fixed hypothesis seed.  A row is

  killed    when none of the tests it names passes (a test that the edit
            keeps from being collected counts as failed);
  survived  when a named test passes, which is a finding;
  timeout   when its tests run past ROW_TIMEOUT seconds (a row should name
            tests that fail fast);
  stale     when its text does not occur exactly once.

A row that is not killed is reported by name, never deleted.  The exit
status is 0 when every row is killed, else 1.  From the repository root:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "mutants.tsv"
ROW_TIMEOUT = 120  # seconds
_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", ".benchmarks",
    "*.egg-info", "build",
)


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    tests: tuple[str, ...]
    reason: str


def _unescape(field: str) -> str:
    return re.sub(r"\\(.)", lambda m: {"n": "\n", "t": "\t"}.get(m[1], m[1]), field)


def read_manifest(path: Path = MANIFEST) -> list[Mutant]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        name, file, text, replacement, tests, reason = line.split("\t")
        rows.append(Mutant(name, file, _unescape(text), _unescape(replacement),
                           tuple(tests.split()), reason))
    return rows


def run_tests(copy: Path, ids: list[str], timeout: float | None = None) -> dict[str, list[str]]:
    """The outcomes (PASSED, FAILED, ERROR, ...) of the tests collected under
    each named id, from a fresh pytest process; an empty list if none was.
    Raises subprocess.TimeoutExpired past `timeout` seconds."""
    # no bytecode is written, so a same-size edit within a second cannot reuse a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *ids],
        cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
    )
    outcomes: dict[str, list[str]] = {i: [] for i in ids}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        node = rest.split(" - ")[0]
        for i in ids:  # a parametrized test's id is its function's id plus [params]
            if node == i or node.startswith(i + "["):
                outcomes[i].append(word)
    return outcomes


def check(mutant: Mutant, copy: Path) -> tuple[str, str]:
    """("killed" | "survived" | "timeout" | "stale", detail) for one row, on the copy."""
    target = copy / mutant.path
    original = target.read_text(encoding="utf-8") if target.is_file() else ""
    found = original.count(mutant.text)
    if found != 1:
        return "stale", f"text occurs {found} times in {mutant.path}"
    target.write_text(original.replace(mutant.text, mutant.replacement), encoding="utf-8")
    try:
        outcomes = run_tests(copy, list(mutant.tests), ROW_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", f"named tests still running after {ROW_TIMEOUT} s"
    finally:
        target.write_text(original, encoding="utf-8")
    passing = [i for i, words in outcomes.items() if "PASSED" in words]
    if passing:
        return "survived", "passes: " + " ".join(passing)
    return "killed", ""


def main() -> int:
    started = time.monotonic()
    rows = read_manifest()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        named = sorted({t for row in rows for t in row.tests})
        failing = [i for i, words in run_tests(copy, named).items() if set(words) != {"PASSED"}]
        if failing:
            print("named tests that are not found or do not pass unedited: " + " ".join(failing))
            return 1
        verdicts = {}
        for row in rows:
            t0 = time.monotonic()
            verdict, detail = check(row, copy)
            verdicts[row.name] = verdict
            print(f"{verdict:8} {row.name} ({time.monotonic() - t0:.1f} s) {detail}".rstrip(),
                  flush=True)
    bad = sorted(name for name, v in verdicts.items() if v != "killed")
    print(f"{len(rows) - len(bad)} of {len(rows)} mutants killed in "
          f"{time.monotonic() - started:.0f} s" + (f"; not killed: {' '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
