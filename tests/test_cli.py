import ast
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorlab import cli, kahler, series
from report_digests import digest as report_digest
from report_digests import read_manifest


def run(argv):
    return cli.run(argv)


def test_facet_csv_radius_one():
    out, code = run(["facets", "--radius", "1"])
    assert code == 0
    lines = out.decode().strip().splitlines()
    assert len(lines) == 8
    assert lines[0] == "m1,m2,nu1,nu2,nu3,alpha"


def test_functor_pass_and_exit_code():
    out, code = run(["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass"
    assert rep["triple"] == [0, 1, 2]


def test_byte_determinism():
    args = ["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"]
    assert run(args)[0] == run(args)[0]
    svg_args = ["trop", "--window=-3,-3,3,3"]
    assert run(svg_args)[0] == run(svg_args)[0]
    mc = ["metric-check", "--samples", "3", "--c-base", str(2.0 ** 139)]
    assert run(mc)[0] == run(mc)[0]


def test_json_rationals_are_strings():
    out, _ = run(["disc-series", "--A", "0,0,1/2", "--cutoff", "4"])
    rep = json.loads(out)
    assert rep["A"] == ["0", "0", "1/2"]
    assert rep["series"]["terms"][0] == ["1/2", "1"]
    # round-trips through parse -> emit unchanged
    assert cli.emit(rep) == cli.emit(json.loads(cli.emit(rep)))


def _fmt(value):
    """The emitter's former first pass, kept as the oracle's half: Fractions
    as p/q, floats at 17 digits, tuples as lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _json_emit(report):
    return (json.dumps(_fmt(report), indent=2) + "\n").encode()


class _Pair(NamedTuple):
    first: object
    second: object


# text with quotes, backslashes, control characters, DEL, non-BMP characters
# and lone surrogates, which json's quoting escapes
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x80", "\u2028", "\ud800", "\udfff",
                     "\U0001f600"]),
), max_size=8)
_SCALARS = st.one_of(
    _TEXT,
    st.floats(),  # nan, +-inf, -0.0 and subnormals among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
    st.fractions(),
    st.integers(),
    st.integers(-10**1000, 10**1000),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.builds(_Pair, inner, inner),
    st.dictionaries(_TEXT, inner, max_size=4),
), max_leaves=10)


@settings(max_examples=60)
@given(st.dictionaries(_TEXT, _VALUES, max_size=4))
@example({})
@example({
    "": [], "{}": {}, "()": (), 'q"\\\x00\x1f\x7f\u2028\ud800\U0001f600': _Pair(None, [True, False]),
    "printable": ['say "a\\b"', "/"],
    "floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 0.1, 1e300],
    "fractions": (Fraction(-1, 3), Fraction(7), Fraction(10**30, 7)),
    "ints": [0, -1, 10**400, -(10**400)],
})
def test_emit_matches_json_dumps(report):
    assert cli.emit(report) == _json_emit(report)


def test_emit_refuses_keys_that_are_not_str():
    # json would coerce these keys to strings; every report key is a str
    for report in ({1: "a"}, {"a": {None: 1}}, {"a": [{(0, 1): 1}]}, {"a": {1.5: 1}}):
        with pytest.raises(TypeError):
            cli.emit(report)


def test_sphere_c_reports_window():
    out, code = run(["sphere-c", "--max-order", "2", "--window", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["series"]["terms"][0] == ["0", "1"]
    assert "window" in rep and "note" in rep


def test_differential_and_leibniz():
    out, code = run(["differential", "--i", "0", "--j", "2", "--cutoff", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["level"] == 2
    out, code = run(
        ["leibniz", "--i", "0", "--j", "2", "--x", "1,1", "--tau", "0.1", "--cutoff", "8"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    # far from 1: neither side carries tau^kappa(log_tau x), so nothing overflows
    for x in ("1e30,1", "2e30,1", "2.5e30,1", "1e100,1", "1,1e-100"):
        out, code = run(["leibniz", "--i", "0", "--j", "2", "--x", x])
        rep = json.loads(out)
        assert code == 0 and rep["passed"] is True
        assert all(math.isfinite(float(it["lhs"])) for it in rep["items"])


def test_leibniz_vacuous_tail_is_indeterminate():
    # near tau = 1 the dropped tail dwarfs the values it would bound
    out, code = run(
        ["leibniz", "--i", "0", "--j", "2", "--tau", "0.999999999", "--cutoff", "15"]
    )
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "indeterminate"
    assert all(
        float(it["tail_bound"]) >= abs(float(it["lhs"])) + abs(float(it["rhs"]))
        for it in rep["items"]
    )


def test_leibniz_tail_below_twice_the_values_is_still_indeterminate():
    # the tail is 1.73 times |lhs| + |rhs|: it bounds no residual that the
    # values allow, so a passing residual checks nothing
    out, code = run(
        ["leibniz", "--i", "0", "--j", "2", "--x", "1,1", "--tau", "0.1", "--cutoff", "2"]
    )
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "indeterminate" and rep["passed"] is True
    (item,) = rep["items"]
    values = abs(float(item["lhs"])) + abs(float(item["rhs"]))
    assert values <= float(item["tail_bound"]) < 2 * values


def test_metric_check_failed_calibration_is_indeterminate():
    # at T = 0.5 no power of two certifies the calibration points
    out, code = run(["metric-check", "--T", "0.5", "--samples", "2"])
    rep = json.loads(out)
    assert code == 2 and rep["status"] == "indeterminate"
    assert rep["c_base"] is None
    assert all(r["min_eig"] is None for r in rep["regions"].values())
    assert rep["coverage"]["kind"] == "sampled"
    assert rep["coverage"]["windows"]["IIB"] == [
        format(v, ".17g") for v in kahler.sampler_windows(40, 17)["IIB"]
    ]


def test_metric_check_indeterminate_on_empty():
    out, code = run(["metric-check", "--samples", "0", "--c-base", "1024"])
    assert code == 2
    assert json.loads(out)["status"] == "indeterminate"


def test_monodromy_command():
    out, code = run(["monodromy", "--samples", "8"])
    assert code == 0
    rep = json.loads(out)
    assert {tuple(r["expected"]) for r in rep["corners"]} == {
        (0, 0), (0, 1), (1, 0), (1, 1)
    }
    assert all(r["expected"] == r["got"] for r in rep["corners"])
    assert rep["seed"] == 7
    # the seed picks the samples, and the report says which
    seeds = ("905735", "296801")
    reports = {run(["monodromy", "--samples", "8", "--seed", seed])[0] for seed in seeds}
    assert len(reports) == 2
    assert {json.loads(r)["seed"] for r in reports} == {905735, 296801}
    # no antisymmetry samples checks nothing
    out, code = run(["monodromy", "--samples", "0"])
    assert code == 2
    rep = json.loads(out)
    assert rep["status"] == "indeterminate"
    assert rep["antisymmetry_all"] is None


def test_monodromy_draws_reach_the_antisymmetry_check(monkeypatch):
    # a tile map off by one on the half-plane xi1 = p1/d > 1, where no corner
    # point lies: only the random draws can see it
    from mirrorlab import tropical

    trop_scaled = tropical.trop_scaled

    def skewed(p1, p2, d):
        value, maxim = trop_scaled(p1, p2, d)
        if p1 > d and len(maxim) == 1:
            (m,) = maxim
            return value, (m._replace(n1=m.n1 + 1),)
        return value, maxim

    monkeypatch.setattr(tropical, "trop_scaled", skewed)
    out, code = run(["monodromy", "--samples", "500"])
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "fail"
    assert rep["antisymmetry_all"] is False
    assert all(r["expected"] == r["got"] for r in rep["corners"])


def test_disc_series_leading_term_is_tropical(monkeypatch):
    # the series opens with tau^(eta - phi(xi)), once per maximizer of phi
    out, code = run(["disc-series", "--A=1,0,1/3", "--cutoff", "1"])
    rep = json.loads(out)
    assert code == 0 and rep["tropical_lead"] == ["1/3", "3"] == rep["series"]["terms"][0]
    # a least area beyond the cutoff leaves the series empty
    out, code = run(["disc-series", "--A", "0,0,5", "--cutoff", "2"])
    rep = json.loads(out)
    assert code == 0 and rep["tropical_lead"] == ["5", "1"] and rep["series"]["terms"] == []
    # a least area equal to the cutoff is inside it: the series opens with it
    out, code = run(["disc-series", "--A", "0,0,2", "--cutoff", "2"])
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "pass"
    assert rep["tropical_lead"] == ["2", "1"] == rep["series"]["terms"][0]
    # the norm-ball route losing the disc of the nearest facet fails the check
    from mirrorlab import gw

    ball = gw.enumerate_shifted_ball
    monkeypatch.setattr(
        gw, "enumerate_shifted_ball", lambda *a: {n: v for n, v in ball(*a).items() if n != (0, 0)}
    )
    out, code = run(["disc-series", "--A", "0,0,1/2", "--cutoff", "15"])
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "fail"
    assert rep["tropical_lead"] == ["1/2", "1"] and rep["series"]["terms"][0] == ["3/2", "6"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["functor", "--i", "0"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 64
    # arguments outside a command's domain, with the flag the message names
    for argv, flag in (
        (["functor", "--i", "0", "--j", "0", "--k", "1"], "--i"),
        (["functor", "--i", "0", "--j", "2", "--k", "2"], "--k"),
        (["leibniz", "--i", "0", "--j", "2", "--tau", "1.5"], "--tau"),
        (["leibniz", "--i", "0", "--j", "2", "--tau", "0"], "--tau"),
        (["leibniz", "--i", "0", "--j", "2", "--cutoff", "-1"], "--cutoff"),
        (["leibniz", "--i", "0", "--j", "2", "--cutoff", "1e400"], "--cutoff"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "-1"], "--cutoff"),
        (["differential", "--i", "0", "--j", "2", "--cutoff", "-0.5"], "--cutoff"),
        (["disc-series", "--A", "0,0,1/2", "--cutoff", "-1"], "--cutoff"),
        (["sphere-c", "--window", "-1"], "--window"),
        (["facets", "--radius", "-1"], "--radius"),
        (["metric-check", "--l", "40", "--p", "4"], "--p"),
        (["metric-check", "--l", "40", "--p", "16"], "--p"),
        (["metric-check", "--l", "1", "--p", "17"], "--l"),
        (["metric-check", "--l", "2", "--p", "20"], "--l"),
        (["leibniz", "--i", "0", "--j", "2", "--x", "0,1"], "--x"),
        (["differential", "--i", "0", "--j", "1"], "--j"),
        (["leibniz", "--i", "0", "--j", "1"], "--j"),
        # leibniz has no sphere-count factor, hence no --c-order
        (["leibniz", "--i", "0", "--j", "2", "--c-order", "3"], "--c-order"),
        (["disc-series", "--A", "0,0,-1"], "--A"),
        (["disc-series", "--A", "0,0"], "--A"),
        (["disc-series", "--A", "1/0,0,1"], "--A"),
        (["trop", "--window=3,3,-3,-3"], "--window"),
        (["trop", "--window=a,b,c,d"], "--window"),
        (["trop", "--window=-1e400,-3,3,3"], "--window"),
        # a window under 1/80 wide would be an SVG of zero width
        (["trop", "--window=0,0,0.001,0.001"], "--window"),
        (["leibniz", "--i", "0", "--j", "2", "--x", "1e400,1"], "--x"),
        (["leibniz", "--i", "0", "--j", "2", "--x", "1e-400,1"], "--x"),
        (["metric-check", "--seed", "-1"], "--seed"),
        (["monodromy", "--seed", "-5"], "--seed"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "1/0"], "--cutoff"),
        (["sphere-c", "--max-order", "-1"], "--max-order"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "abc"], "--cutoff"),
        (["metric-check", "--T", "1"], "--T"),
        (["metric-check", "--T", "1.5"], "--T"),
        (["metric-check", "--T", "0"], "--T"),
        (["metric-check", "--p", "0"], "--p"),
        (["metric-check", "--l", "0"], "--l"),
        (["metric-check", "--samples", "-1"], "--samples"),
        # kahler draws at most 2**32 samples per region
        (["metric-check", "--samples", "4294967297"], "--samples"),
        (["metric-check", "--c-base", "nan"], "--c-base"),
        (["metric-check", "--c-base", "inf"], "--c-base"),
        (["metric-check", "--c-base", "-1"], "--c-base"),
        (["monodromy", "--samples", "-2"], "--samples"),
        # errors that a subcommand's parser raises carry the same prefix
        (["monodromy", "--samples", "abc"], "--samples"),
        (["functor", "--i", "x"], "--i"),
        (["disc-series"], "--A"),
    ):
        _assert_usage_error(capsys, argv, flag)


def _assert_usage_error(capsys, argv, flag):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 64, argv
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("mirrorlab: error: "), argv
    assert "Traceback" not in "\n".join(err), argv
    if flag is not None:
        assert flag in err[-1], argv
    return err[-1]


def test_seed_comes_from_argv_only(monkeypatch, capsys):
    monkeypatch.delenv("MIRRORLAB_SEED", raising=False)
    argvs = (["metric-check", "--samples", "3", "--c-base", str(2.0 ** 139)],
             ["monodromy", "--samples", "4"])
    unset = [run(argv) for argv in argvs]
    for value in ("abc", "3"):
        monkeypatch.setenv("MIRRORLAB_SEED", value)
        assert [run(argv) for argv in argvs] == unset, value
    _assert_usage_error(capsys, ["--config", "x", "monodromy"], None)


def test_metric_check_float_domain(capsys):
    # the smallest sampled norm, about T^(l+2), must square to a normal float
    for argv in (["--T", "1e-10", "--samples", "3"], ["--l", "325", "--samples", "5"],
                 ["--l", "310", "--samples", "5", "--c-base", "1e300"]):
        assert "--l" in _assert_usage_error(capsys, ["metric-check", *argv], "--T")
    out, code = run(["metric-check", "--l", "151", "--samples", "5"])
    assert code == 2 and json.loads(out)["status"] == "indeterminate"


def test_metric_check_breakdown_is_not_a_usage_error():
    # a c_base whose metric overflows is a numerical breakdown, reported per
    # region; the rows that stay finite still decide "fail" here (at seed 3
    # g_yz breaks down on all 5 samples)
    out, code = run(["metric-check", "--seed", "3", "--samples", "5", "--c-base", "1e308"])
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "fail"
    broken = {k: r["breakdowns"] for k, r in rep["regions"].items() if "breakdowns" in r}
    assert broken and max(broken.values()) == 5
    assert all(rep["regions"][k]["min_eig"] is None for k, n in broken.items() if n == 5)


def test_out_flag_writes_file(tmp_path, capsysbinary):
    path = tmp_path / "facets.csv"
    out, code = run(["--out", str(path), "facets", "--radius", "0"])
    assert code == 0
    assert path.read_bytes() == out
    # main writes the report to stdout only when --out is not given
    assert cli.main(["--out", str(path), "facets", "--radius", "1"]) == 0
    assert capsysbinary.readouterr().out == b""
    assert cli.main(["facets", "--radius", "1"]) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


def test_crash_exits_70_not_fail(monkeypatch, capsysbinary):
    def broken(s1, s2, cutoff):
        raise AssertionError("inconsistent structure constant for representative (0, 0)")

    monkeypatch.setattr(series, "section_mul_decompose", broken)
    assert cli.main(["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"]) == 70
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"Traceback")
    assert b"AssertionError: inconsistent structure constant" in captured.err


def test_layer_invariant_exits_70_not_usage(monkeypatch, capsysbinary):
    # an empty wall reaches a degree map at two wall counts, and admitted_classes
    # raises its ValueError: a fault of the data, not of the argv
    from mirrorlab import gw

    window = gw.wall_curves_window
    empty = gw.WallCurve((gw.LatticeVector(0, 0), gw.LatticeVector(1, 0)), {})
    monkeypatch.setattr(gw, "wall_curves_window", lambda radius: window(radius) + [empty])
    argv = ["sphere-c", "--max-order", "3", "--window", "3"]
    with pytest.raises(ValueError, match="degree map reached with"):
        run(argv)
    assert cli.main(argv) == 70
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"Traceback")
    assert b"ValueError: degree map reached with" in captured.err
    assert b"mirrorlab: error:" not in captured.err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        _assert_usage_error(capsys, ["--out", str(path), "facets", "--radius", "0"], "--out")


def test_parse_forms_and_usage_errors(capsys):
    # --flag VALUE and --flag=VALUE agree, in any order; a value may begin
    # with "-"; a flag given twice keeps its last value
    functor = run(["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"])
    for argv in (
        ["functor", "--i=0", "--j", "1", "--k=2", "--cutoff=6"],
        ["functor", "--cutoff", "6", "--k", "2", "--j", "1", "--i", "0"],
        ["functor", "--i", "5", "--j", "1", "--k", "2", "--cutoff", "6", "--i", "0"],
    ):
        assert run(argv) == functor, argv
    out, code = run(["leibniz", "--i", "-4", "--j", "-2", "--cutoff", "6"])
    assert (out, code) == run(["leibniz", "--i=-4", "--j=-2", "--cutoff=6"])
    assert code == 0 and [json.loads(out)[k] for k in "ij"] == [-4, -2]
    out, code = run(["disc-series", "--A=-2,1,21/8", "--cutoff", "4"])
    assert (out, code) == run(["disc-series", "--A", "-2,1,21/8", "--cutoff", "4"])
    assert code == 0 and json.loads(out)["A"] == ["-2", "1", "21/8"]
    # usage errors name the flag: unknown, abbreviated, misplaced, missing a
    # value, or required and missing; a token that no flag takes
    for argv, flag in (
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--q", "1"], "--q"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--q=1"], "--q"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cut", "6"], "--cut"),
        (["--ou", "x", "facets"], "--ou"),
        (["facets", "--out", "x"], "--out"),
        (["functor", "--i", "0", "--j", "1", "--k"], "--k"),
        (["functor", "--i", "--j", "1", "--k", "2"], "--i"),
        (["functor", "--j", "1", "--k", "2"], "--i"),
        (["disc-series", "--cutoff", "4"], "--A"),
        (["facets", "1"], "argument 1"),
        ([], "command"),
    ):
        _assert_usage_error(capsys, argv, flag)
    # -h or --help, before or after the command, prints the help and exits 0,
    # whatever follows it
    top = _help_bytes(["--help"]).decode()
    assert _help_bytes(["-h", "functor", "--q"]).decode() == top
    assert all(f"  {name}  " in top for name in cli.COMMANDS)
    functor_help = _help_bytes(["functor", "--help"]).decode()
    assert _help_bytes(["functor", "--i", "0", "-h", "--q"]).decode() == functor_help
    rows = dict(line.split(None, 1) for line in functor_help.splitlines() if line.startswith("  --"))
    assert rows == {"--i": "an integer; required", "--j": "an integer; required",
                    "--k": "an integer; required", "--cutoff": "a rational >= 0; default 20"}
    assert not capsys.readouterr().out  # in process, the help goes to the stdout given


class _FullDevice(io.BytesIO):
    def write(self, data):
        raise OSError(28, "No space left on device")


def test_failed_write_to_stdout_exits_74(capsys):
    # run writes the report and the help to the stdout it is given by one
    # path: a full device or a closed stream is an I/O error, exit 74
    closed = io.BytesIO()
    closed.close()
    for argv in (["facets", "--radius", "1"], ["--help"], ["functor", "--help"]):
        for stdout in (_FullDevice(), closed):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                cli.run(argv, stdout)
            assert exc.value.code == 74, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("mirrorlab: error: stdout: "), argv


def test_readme_examples_exit_zero():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    argvs = [shlex.split(line, comments=True)[1:]
             for line in block.splitlines() if line.startswith("mirrorlab ")]
    assert len(argvs) == 9
    for argv in argvs:
        assert run(argv)[1] == 0, argv


def test_svg_golden_prefix():
    out, _ = run(["trop", "--window=-2,-2,2,2"])
    text = out.decode()
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert "<polygon" in text and "<circle" in text


def test_emitters_match_golden_files():
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    svg, _ = run(["trop", "--window=-3,-3,3,3"])
    assert svg == (data / "tiling_window3.svg").read_bytes()
    csv, _ = run(["facets", "--radius", "4"])
    assert csv == (data / "facets_radius4.csv").read_bytes()


# Reports whose sums run through the norm-ball enumerator, byte for byte.
GOLDEN_REPORTS = (
    (["disc-series", "--A", "0,0,1/2", "--cutoff", "15"], "disc_series_A0_0_half_cutoff15.json"),
    (["sphere-c", "--max-order", "4", "--window", "9"], "sphere_c_order4_window9.json"),
    (["differential", "--i", "0", "--j", "2", "--cutoff", "6"], "differential_0_2_cutoff6.json"),
    (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"], "functor_0_1_2_cutoff6.json"),
    # non-coprime gaps, where some output reps have an empty triangle coset
    (["functor", "--i", "0", "--j", "2", "--k", "4", "--cutoff", "8"], "functor_0_2_4_cutoff8.json"),
    (["functor", "--i", "0", "--j", "2", "--k", "5", "--cutoff", "8"], "functor_0_2_5_cutoff8.json"),
    # basis sections over den 1 and 2, decomposed over D = 6
    (["differential", "--i", "0", "--j", "3", "--cutoff", "8"], "differential_0_3_cutoff8.json"),
)


@pytest.mark.parametrize("argv, name", GOLDEN_REPORTS)
def test_reports_match_golden_files(argv, name):
    import pathlib

    out, code = run(argv)
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "data" / name).read_bytes()


# The rows of the report-digest manifest, tests/data/report_digests.tsv,
# that tier-1 compares; `tests/report_digests.py --check` compares them all.
MANIFEST = read_manifest()
# The pinned rows, one case each: past the goldens' levels.
REPORT_DIGESTS = [(argv, sha) for name, _, sha, argv in MANIFEST if name == "pinned"]
_TIER1_SETS = {"readme", "edge", *(f"seed{n}" for n in range(1, 6))}


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS)
def test_reports_match_digests(argv, digest):
    out, code = run(argv)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest


def test_manifest_rows_through_seed_5():
    rows = [row for row in MANIFEST if row[0] in _TIER1_SETS]
    assert {row[0] for row in rows} == _TIER1_SETS
    differ = [
        f"{name} {shlex.join(argv)}: exit {got[0]} sha256 {got[1]}"
        for name, code, sha, argv in rows
        if (got := report_digest(argv)) != (code, sha)
    ]
    assert not differ


def test_metric_check_fail_exit_code():
    # a vanishing base coefficient leaves the flat direction uncured
    out, code = run(["metric-check", "--samples", "2", "--c-base", "0"])
    assert code == 1
    assert json.loads(out)["status"] == "fail"


# Each command imports its own layers, seen from a fresh process per argv.
_STARTUP_ARGVS = (
    ["--help"],
    ["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"],
    ["differential", "--i", "0", "--j", "2", "--cutoff", "6"],
    ["sphere-c", "--max-order", "2", "--window", "4"],
    ["leibniz", "--i", "0", "--j", "2", "--cutoff", "6"],
    ["disc-series", "--A", "0,0,1/2", "--cutoff", "4"],
    ["trop", "--window=-2,-2,2,2"],
    ["facets", "--radius", "1"],
    ["metric-check", "--samples", "3", "--c-base", str(2.0 ** 139)],
    ["monodromy", "--samples", "8"],
)
_WATCHED = ("numpy", "numpy.random", "numpy.ma", "dataclasses", "json", "fractions", "decimal",
            "argparse", "gettext", "locale",
            "mirrorlab.kahler", "mirrorlab._ad", "mirrorlab.gw", "mirrorlab.series",
            "mirrorlab.fukaya", "mirrorlab.tropical", "mirrorlab.lattice", "mirrorlab.tau",
            "mirrorlab.charts")
# The probe imports nothing that loads json, so that a command's own imports
# show: it takes the argv as its arguments and prints a repr.
_STARTUP_PROBE = """
import contextlib, io, sys
from mirrorlab import cli
result = None  # --help exits
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    out, code = cli.run(sys.argv[2:])
    result = [out.decode(), code]
print(repr([result, [m for m in sys.argv[1].split() if m in sys.modules]]))
"""


def _child_env():
    """This process's environment, with this checkout's src on PYTHONPATH."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@functools.cache
def _startup_run(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, " ".join(_WATCHED), *argv],
        env=_child_env(), capture_output=True, text=True, check=True, timeout=300,
    )
    result, modules = ast.literal_eval(proc.stdout)
    return result, frozenset(modules), proc.stderr


def _startup(argv):
    """cli.run(argv) in a fresh process: its [stdout, exit code] (None if it
    exited), the watched modules it loaded, and its stderr.  Each argv runs
    once per test session."""
    return _startup_run(tuple(argv))


def test_only_the_metric_commands_load_numpy():
    loaded = {}
    for argv in _STARTUP_ARGVS:
        result, loaded[argv[0]], _ = _startup(argv)
        if result is not None:
            # a fresh process gives the same bytes and exit code as this one
            out, code = result
            assert (out.encode(), code) == run(argv), argv
            if argv[0] in ("metric-check", "monodromy"):
                assert code == 0 and json.loads(out)["status"] == "pass"
    metric_layer = {"numpy", "mirrorlab.kahler", "mirrorlab._ad"}
    assert loaded["metric-check"] >= metric_layer
    # kahler serves tropical's monodromy_class to the span tracer on demand
    assert "mirrorlab.tropical" not in loaded["metric-check"]
    assert [cmd for cmd, mods in loaded.items() if mods & metric_layer] == ["metric-check"]
    assert not any("dataclasses" in mods for mods in loaded.values())
    # metric-check draws its samples without numpy's generators, and groups
    # them without np.unique, which loads the masked arrays (1.5 MB of RSS)
    assert not any(mods & {"numpy.random", "numpy.ma"} for mods in loaded.values())
    for cmd in ("monodromy", "trop", "facets"):
        assert not loaded[cmd] & {"mirrorlab.gw", "mirrorlab.series"}, cmd
    # the disc and sphere counts are TauSeries, which tau holds without the
    # theta engine of series
    for cmd in ("sphere-c", "disc-series"):
        assert "mirrorlab.tau" in loaded[cmd] and "mirrorlab.series" not in loaded[cmd], cmd
    # no command runs the chart algebra (ROADMAP I)
    assert not any("mirrorlab.charts" in mods for mods in loaded.values())
    # metric-check's flags are ints and floats, and its report holds no
    # Fraction: cli loads fractions (and with it decimal) only on use
    assert not loaded["metric-check"] & {"fractions", "decimal"}


def test_no_command_loads_json_and_differential_only_the_theta_route():
    # cli writes its reports with json's quoting routine alone; the json
    # package compiles regexes on import, a few ms in every command's process
    loaded = {argv[0]: _startup(argv)[1] for argv in _STARTUP_ARGVS}
    assert not [cmd for cmd, mods in loaded.items() if "json" in mods]
    # cli parses argv from its own command table: argparse, and the gettext
    # and locale that its help strings load, cost every process about 3 ms
    assert not [cmd for cmd, mods in loaded.items() if mods & {"argparse", "gettext", "locale"}]
    # the differential is a slice of the theta products: lattice and series
    assert loaded["differential"] >= {"mirrorlab.lattice", "mirrorlab.series"}
    # leibniz checks the differential on the same route; both sides of its
    # identity are free of the sphere count C, so it searches no sphere
    # classes: it never loads gw
    for cmd in ("differential", "leibniz"):
        assert not loaded[cmd] & {"mirrorlab.gw", "mirrorlab.tropical"}, cmd
    # perfbench traces both under gw's name
    from mirrorlab import gw

    assert gw.differential_table is series.differential_table
    assert gw.leibniz_check is series.leibniz_check


_MAIN_PROBE = """
import gc, json, os, sys
from mirrorlab import cli
code = cli.main(json.loads(sys.argv[1]))
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
sys.stdout.buffer.write(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), threads,
                                    gc.get_freeze_count(), gc.isenabled()]).encode())
"""


def _main_in_fresh_process(argv, openblas_threads):
    """cli.main(argv) in a fresh process with OPENBLAS_NUM_THREADS set to
    openblas_threads, or unset if None: its stdout bytes, exit code, the
    variable after the run, its thread count (None without /proc), and,
    after the run, the GC's frozen object count and whether it is enabled."""
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, "-c", _MAIN_PROBE, json.dumps(argv)],
                          env=env, capture_output=True, check=True, timeout=300)
    out, _, meta = proc.stdout.rpartition(b"\n")
    code, variable, threads, frozen, gc_enabled = json.loads(meta)
    return out + b"\n", code, variable, threads, frozen, gc_enabled


def test_main_runs_openblas_on_one_thread():
    # main sets OPENBLAS_NUM_THREADS=1 before numpy loads, so OpenBLAS starts
    # no worker pool; a value set outside is kept, and does not move the bytes
    argv = next(a for a in _STARTUP_ARGVS if a[0] == "metric-check")
    out, code, variable, threads, frozen, gc_enabled = _main_in_fresh_process(argv, None)
    assert (out, code) == run(argv) and code == 0
    assert variable == "1"
    if threads is not None:
        assert threads == 1
    # as it returns, main moves what is alive to the GC's permanent
    # generation, which interpreter teardown's collections skip; it never
    # disables the GC, so a command's peak memory is what it was
    assert frozen > 0 and gc_enabled
    kept = _main_in_fresh_process(argv, "2")
    assert kept[:3] == (out, code, "2")


# The wrapper closes its fd 1 and execs the interpreter on its arguments, so
# that `python -m mirrorlab.cli` starts with no stdout at all.
_CLOSED_STDOUT = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"


def _module_entry(argv, closed_stdout=False, device=None, broken_pipe=False, unbuffered=None):
    """`python -m mirrorlab.cli argv` in a fresh process: its stdout bytes,
    exit code and stderr lines.  With closed_stdout it starts with fd 1
    closed; with device, its stdout is that file, such as /dev/full; with
    broken_pipe, a pipe whose read end is closed.  unbuffered sets
    PYTHONUNBUFFERED (True) or removes it (False), so that sys.stdout is
    buffered as in a plain shell; None keeps this process's setting."""
    wrapper = ["-c", _CLOSED_STDOUT] if closed_stdout else []
    command = [sys.executable, *wrapper, "-m", "mirrorlab.cli", *argv]
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered or (unbuffered is None and os.environ.get("PYTHONUNBUFFERED")):
        env["PYTHONUNBUFFERED"] = "1"
    if broken_pipe:
        read, sink = os.pipe()
        os.close(read)
    elif device is not None:
        sink = os.open(device, os.O_WRONLY)
    else:
        proc = subprocess.run(command, env=env, capture_output=True, timeout=300)
        return proc.stdout, proc.returncode, proc.stderr.decode().splitlines()
    try:
        proc = subprocess.run(command, env=env, stdout=sink, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(sink)
    return b"", proc.returncode, proc.stderr.decode().splitlines()


def _help_bytes(argv):
    """The help that cli.run(argv) writes to the stdout it is given, as it exits 0."""
    stdout = io.BytesIO()
    with pytest.raises(SystemExit) as exc:
        cli.run(argv, stdout)
    assert exc.value.code == 0, argv
    return stdout.getvalue()


def test_module_entry_gives_run_bytes_and_exit_codes(tmp_path, capsys):
    # the process entry (`python -m mirrorlab.cli`, which perfbench runs, and
    # the console script's cli.main) writes run's bytes and exits with run's
    # code: pass, fail, indeterminate, usage error and internal error
    for argv, code in (
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "6"], 0),
        # the tail bound underflows to 0 (ROADMAP A); no other argv exits 1 today
        (["leibniz", "--i", "0", "--j", "2", "--x", "0.5,1", "--tau", "1e-30"], 1),
        (["leibniz", "--i", "0", "--j", "2", "--x", "1,1", "--tau", "0.1", "--cutoff", "2"], 2),
    ):
        out, got, _ = _module_entry(argv)
        assert (out, got) == run(argv) and got == code, argv
    argv = ["monodromy", "--samples", "abc"]
    last = _assert_usage_error(capsys, argv, "--samples")
    out, got, err = _module_entry(argv)
    assert (out, got, err[-1]) == (b"", 64, last)
    # the help is fixed text, whatever the terminal's width
    help_text = _help_bytes(["--help"])
    assert _module_entry(["--help"])[:2] == (help_text, 0)
    path = tmp_path / "facets.csv"
    out, got, _ = _module_entry(["--out", str(path), "facets", "--radius", "1"])
    assert (out, got) == (b"", 0)
    assert path.read_bytes() == run(["facets", "--radius", "1"])[0]
    # a failed write of the report or the help to stdout is an I/O error,
    # exit 74 with one line: fd 1 closed (sys.stdout is None), a closed pipe
    # or a full device.  Buffered or not: a buffered stdout keeps the bytes
    # it could not write, and the flush at exit must not fail again (exit 120)
    sinks = [{"closed_stdout": True}, {"broken_pipe": True}]
    if os.path.exists("/dev/full"):
        sinks.append({"device": "/dev/full"})
    for argv in (["facets", "--radius", "1"], ["--help"]):
        for sink in sinks:
            for unbuffered in (False, True):
                out, got, err = _module_entry(argv, unbuffered=unbuffered, **sink)
                assert (out, got, len(err)) == (b"", 74, 1), (argv, sink, unbuffered, err)
                assert err[0].startswith("mirrorlab: error: stdout: "), (argv, sink, unbuffered)
    # with --out, stdout is not written, so a closed fd 1 does not matter
    out, got, _ = _module_entry(["--out", str(path), "facets", "--radius", "0"], closed_stdout=True)
    assert got == 0 and path.read_bytes() == run(["facets", "--radius", "0"])[0]


def test_flag_domain_errors_load_no_layer(capsys):
    # a flag outside its own domain is refused by the parser, before any
    # command imports its layers
    layers = {"numpy", "mirrorlab.kahler", "mirrorlab.gw", "mirrorlab.series", "mirrorlab.fukaya"}
    for argv, flag in (
        (["metric-check", "--T", "1.5"], "--T"),
        (["metric-check", "--c-base", "nan"], "--c-base"),
        (["leibniz", "--i", "0", "--j", "2", "--tau", "0"], "--tau"),
        (["functor", "--i", "0", "--j", "1", "--k", "2", "--cutoff", "-1"], "--cutoff"),
        (["metric-check", "--samples", "4294967297"], "--samples"),
    ):
        _assert_usage_error(capsys, argv, flag)
        result, modules, err = _startup(argv)
        assert not modules & layers, argv
        assert result is None, argv
        assert err.splitlines()[-1].startswith(f"mirrorlab: error: argument {flag}: "), argv
