"""Every function defined in `src/mirrorlab` runs under some command.

A fresh process sets `sys.setprofile`, imports mirrorlab and runs
`cli.run` in process on one argv per command shape.  Each def of the
package's files (function, method, property or nested function; lambdas
and comprehensions are not counted) must have run, or be kept for a
reason in HELD.  A HELD entry that runs, or names no def, fails the test
too, so the list cannot rot.  Every name that `perfbench/spans.py`
patches (read from its TRACED, not copied) must resolve, but a traced def
is held like any other.
"""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mirrorlab"
SPANS = ROOT / "perfbench" / "spans.py"

# One argv per command shape.  functor 0 2 4 has gcd(l', l'') = 2, where
# most triangle keys are empty; sphere-c at order 0 returns the constant
# series; --help prints the help and exits 0; the reversed slopes are a
# usage error, which exits 64.
ARGVS = (
    ["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"],
    ["functor", "--i", "0", "--j", "2", "--k", "4", "--cutoff", "4"],
    ["trop", "--window=-2,-2,2,2"],
    ["facets", "--radius", "1"],
    ["disc-series", "--A", "0,0,1/2", "--cutoff", "4"],
    ["sphere-c", "--max-order", "0"],
    ["sphere-c", "--max-order", "2", "--window", "4"],
    ["differential", "--i", "0", "--j", "2", "--cutoff", "6"],
    ["leibniz", "--i", "0", "--j", "2", "--cutoff", "6"],
    ["metric-check", "--samples", "3", "--c-base", "auto"],
    ["metric-check", "--samples", "3", "--c-base", str(2.0 ** 139)],
    ["monodromy", "--samples", "8"],
    ["--help"],
    ["functor", "--i", "2", "--j", "1", "--k", "3"],
)

# Defs that no command runs, each with the reason it stays.
_I = "ROADMAP I: the chart algebra and the gluing checks wait for a command"
HELD = {
    "gw.disc_area": "ROADMAP B(e): disc-series may check each term by its facet area",
    "tau.TauSeries.__str__": "runs only on a failing identity: functor's mismatch text",
    "kahler.metric": "span tracer's name and acceptance criterion 6, ROADMAP F(b)",
    "kahler.FiberPoint.profile": "called by kahler.metric, which spans.TRACED patches, and by I",
    "kahler.__getattr__": "span tracer's name, ROADMAP F(b)",
    "gw.__getattr__": "span tracer's name, ROADMAP F(b)",
    "tropical.transport_fractions": "acceptance criterion 7 checks it, ROADMAP B(d)",
    **{f"kahler.{name}": _I for name in (
        "FiberPoint.key", "FiberPoint.from_logs", "FiberPoint.rotated", "moment_coords",
        "_moment", "moment_shift_gamma_prime", "harmonic_difference_check", "hex_orbit",
        "harmonic_sixfold_check", "boundary_pair_catalog", "boundary_pair_catalog.sym",
        "boundary_pair_catalog.xfam", "boundary_pair_catalog.yfam",
    )},
    **{f"charts.{name}": _I for name in (
        "monomial_mul", "_cross", "_dot", "MonomialMap.apply", "MonomialMap.compose",
        "MonomialMap.inverse", "MonomialMap.__pow__", "gamma_chart_action",
        "Chart.coordinate_product", "chart",
    )},
}


def _defs() -> dict[tuple[str, int], str]:
    """(file path, first line, decorators included) -> "module.qualified.name" of every def."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first] = prefix + child.name
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def _resolve_traced() -> None:
    """Look up every name that spans.TRACED patches; a renamed one raises AttributeError."""
    spec = importlib.util.spec_from_file_location("_spans_for_guard", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, module, attr in spans.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)


# Sets the profile before mirrorlab loads, so that defs run at import count;
# takes ARGVS as a repr, runs each through cli.run and one through cli.main,
# and prints the exit codes and the (file, first line) of every call.
_PROBE = """
import ast, contextlib, io, sys
calls = set()
def profile(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from mirrorlab import cli
codes = []
stdout = io.TextIOWrapper(io.BytesIO())  # cli.main writes to sys.stdout.buffer
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
    for argv in ast.literal_eval(sys.argv[1]):
        try:
            codes.append(cli.run(argv)[1])
        except SystemExit as exc:
            codes.append(exc.code)
    codes.append(cli.main(["sphere-c", "--max-order", "1"]))
sys.setprofile(None)
print(repr([codes, sorted(calls)]))
"""


def _run_commands() -> tuple[list[int], set[tuple[str, int]]]:
    """Exit codes of ARGVS and of cli.main, and (file, first line) of every
    Python function they call, from a fresh process."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _PROBE, repr(ARGVS)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    codes, calls = ast.literal_eval(proc.stdout)
    return codes, {(str(pathlib.Path(f).resolve()), line) for f, line in calls}


def test_every_def_runs_under_a_command_or_is_held():
    defs = _defs()
    codes, ran = _run_commands()
    assert codes == [0] * (len(ARGVS) - 1) + [64, 0]  # only the usage error exits 64
    _resolve_traced()
    unheld = sorted(name for key, name in defs.items() if key not in ran and name not in HELD)
    assert not unheld, f"defined in src/mirrorlab but run by no command: {unheld}"
    runs = {name: key in ran for key, name in defs.items()}
    gone = [name for name in HELD if name not in runs]
    assert not gone, f"HELD names defs that are gone: {gone}"
    assert not [name for name in HELD if runs[name]], "HELD defs that run under a command"
