#!/usr/bin/env python3
"""Benchmark of the mirrorlab CLI: end-to-end timings or a per-layer trace.

    python3 perfbench/run.py --workload theta-exact --seed 1 --seconds 36 --trace 0

With --trace 0 each op runs as `python -m mirrorlab.cli ...` in a fresh
process (PYTHONPATH=src), one at a time: a closed loop with one client.
Every op runs once, and then ops repeat while they fit in --seconds;
attempted and failed count each op once, however often it ran.  The host's speed drifts by up to half, so a
short pure-Python speed probe runs between processes, and each process's
times are scaled by the probes on either side of it to the nominal host
speed.  A time is the sum over the ops of each op's median scaled time;
the raw times are printed too.  With --trace 1 the same ops run
in-process through mirrorlab.cli.run, each once untraced and once with
the span wrappers of spans.py installed; the per-layer metrics come from
the traced runs.  End-to-end metrics are never taken from a traced run.

Every report goes through the correctness gate in ops.py.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import ops
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_LAUNCHES = 7
# The speed probe: samples per probe, and the CPU time of one sample at the
# nominal host speed, about its mean on a 2-vCPU 2.1 GHz VM at its faster.
PROBE_SAMPLES = 10
PROBE_NOMINAL_S = 0.005
# Start-ups are scaled instead by a bare `python -c "import numpy"` process,
# most of what a mirrorlab start-up does; this is its wall at the nominal speed.
STARTUP_NOMINAL_S = 0.15
RUN_LIMIT_S = 170.0  # every op must end by then; a run must exit within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("lattice.enumerate_shifted_ball.calls", "count", "lower"),
    ("lattice.enumerate_shifted_ball.self_s", "s", "lower"),
    ("lattice.points_returned", "count", "lower"),
    ("lattice.norm_form.calls", "count", "lower"),
    ("lattice.norm_form.self_s", "s", "lower"),
    ("lattice.min_norm_in_coset.self_s", "s", "lower"),
    ("fukaya.mu2_closed.calls", "count", "lower"),
    ("fukaya.mu2_closed.self_s", "s", "lower"),
    ("fukaya.functor_check.total_s", "s", "lower"),
    ("fukaya.mu2_keep_ratio", "ratio", "higher"),
    ("fukaya.mu2_points_kept", "count", "higher"),
    ("fukaya.mu2_points_enumerated", "count", "lower"),
    ("series.theta_section.self_s", "s", "lower"),
    ("series.section_mul.self_s", "s", "lower"),
    ("series.section_mul_decompose.self_s", "s", "lower"),
    ("series.product_keys", "count", "lower"),
    ("series.output_reps", "count", "higher"),
    ("series.keys_per_rep", "ratio", "lower"),
    ("series.TauSeries.mul.calls", "count", "lower"),
    ("series.TauSeries.from_terms.calls", "count", "lower"),
    ("series.TauSeries.from_terms.self_s", "s", "lower"),
    ("series.TauSeries.exp.self_s", "s", "lower"),
    ("series.shifted_theta_value.self_s", "s", "lower"),
    ("gw.admitted_classes.self_s", "s", "lower"),
    ("gw.admitted_classes.classes", "count", "higher"),
    ("gw.wall_curves_window.walls", "count", "lower"),
    ("gw.disc_series.self_s", "s", "lower"),
    ("gw.differential_table.total_s", "s", "lower"),
    ("gw.leibniz_check.total_s", "s", "lower"),
    ("gw.leibniz.tail_to_value_max", "ratio", "lower"),
    ("tropical.trop_phi.calls", "count", "lower"),
    ("tropical.trop_phi.self_s", "s", "lower"),
    ("tropical.facet.calls", "count", "lower"),
    ("tropical.svg_tiling.self_s", "s", "lower"),
    ("tropical.facet_csv.self_s", "s", "lower"),
    ("kahler.metric.calls", "count", "lower"),
    ("kahler.metric.self_s", "s", "lower"),
    ("kahler.calibrate_c_base.total_s", "s", "lower"),
    ("kahler.calibrate.metric_calls_per_point", "ratio", "lower"),
    ("kahler.calibrate.metric_calls", "count", "lower"),
    ("kahler.calibrate.points", "count", "higher"),
    ("kahler.metric_certificate.total_s", "s", "lower"),
    ("kahler.region_samples.self_s", "s", "lower"),
    ("kahler.formula_key.self_s", "s", "lower"),
    ("kahler.eigvalsh.calls", "count", "lower"),
    ("kahler.eigvalsh.self_s", "s", "lower"),
    ("kahler.monodromy_class.total_s", "s", "lower"),
    ("ad.hessian_matrix.calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tally:
    """Attempted and failed ops, and whether every failure is the known defect.

    An op counts once, and fails if any of its runs fails the gate, so a
    seed gives the same counts however many repeats fit in a run.
    """

    def __init__(self, root: Path):
        self.gate = ops.Gate(root)
        self.ran: set[int] = set()
        self.failing: set[int] = set()
        self.correct = True

    @property
    def attempted(self) -> int:
        return len(self.ran)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def record(self, index: int, argv: tuple[str, ...], code: int, out: bytes) -> None:
        self.ran.add(index)
        problems = self.gate.check(index, argv, code, out)
        if not problems:
            return
        self.failing.add(index)
        known = ops.Gate.known_defect(argv, code, out)
        self.correct = self.correct and known
        label = "known defect" if known else "WRONG"
        print(f"  failed ({label}): {' '.join(argv)}: {'; '.join(problems)}")


def _probe_task() -> None:
    """A fixed slice of the kind of work mirrorlab does: Fraction, int and dict arithmetic."""
    acc = Fraction(0)
    table = {}
    for n in range(1, 600):
        q = Fraction(n % 97 + 1, n % 89 + 2)
        acc = (acc + q * q) % 7
        table[n % 61, n % 53] = table.get((n % 61, n % 53), 0) + n * n


def speed_probe() -> float:
    """Mean CPU time of PROBE_SAMPLES runs of _probe_task: how fast the host runs Python now."""
    t0 = time.process_time()
    for _ in range(PROBE_SAMPLES):
        _probe_task()
    return (time.process_time() - t0) / PROBE_SAMPLES


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_end_to_end(workload: str, seed: int, seconds: int, started: float) -> tuple[Tally, dict]:
    argvs = ops.workload_ops(workload, seed)
    tally = Tally(ROOT)
    env = {k: v for k, v in os.environ.items() if k != "MIRRORLAB_SEED"}
    env["PYTHONPATH"] = "src"
    probes = [speed_probe()]

    def launch(argv) -> tuple[int, bytes, tuple[float, float], tuple[float, float]]:
        """Run one CLI process: exit code, stdout, and its (raw, normalised) wall and CPU time."""
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mirrorlab.cli", *argv], cwd=ROOT, env=env, capture_output=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
        )
        wall = time.perf_counter() - t0
        cpu = _children_cpu() - cpu0
        # The probes just before and just after the process tell how fast the
        # host ran it; the scale brings its times to the nominal host speed.
        probes.append(speed_probe())
        scale = PROBE_NOMINAL_S / statistics.mean(probes[-2:])
        return proc.returncode, proc.stdout, (wall, wall * scale), (cpu, cpu * scale)

    def startup_probe() -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, check=True,
                       timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        return time.perf_counter() - t0

    # The compute probe does not follow start-up speed, which moves with the
    # cost of loading files and libraries; a bare numpy import does.
    starts = [startup_probe()]
    setup = []
    for _ in range(SETUP_LAUNCHES + 1):
        code, _, (wall, _), _ = launch(["--help"])
        if code != 0:
            raise RuntimeError(f"`mirrorlab --help` exited {code}")
        starts.append(startup_probe())
        setup.append((wall, wall * STARTUP_NOMINAL_S / statistics.mean(starts[-2:])))
    del setup[0]  # the first start-up fills the bytecode and file caches

    walls = [[] for _ in argvs]
    cpus = [[] for _ in argvs]

    def run_op(index: int) -> None:
        argv = argvs[index]
        code, out, wall, cpu = launch(argv)
        if not walls[index]:
            digest = hashlib.sha256(out).hexdigest()
            print(f"  op {index}: {' '.join(argv)}  exit={code} wall={wall[0]:.4f}s sha256={digest}")
        tally.record(index, argv, code, out)
        walls[index].append(wall)
        cpus[index].append(cpu)

    measure_start = time.monotonic()
    for index in range(len(argvs)):
        run_op(index)
    # Then ops repeat, in order, while each repeat is expected (from its
    # last raw wall) to end within --seconds.
    repeated = True
    while repeated:
        repeated = False
        for index in range(len(argvs)):
            if time.monotonic() - measure_start + walls[index][-1][0] <= seconds:
                run_op(index)
                repeated = True

    def total(times: list[list[tuple[float, float]]], k: int) -> float:
        """Sum over the ops of each op's median time; k = 0 raw, 1 normalised."""
        return sum(statistics.median(t[k] for t in op) for op in times)

    metrics = {
        "setup_s": statistics.median(t[1] for t in setup),
        "norm_wall_s": total(walls, 1),
        "norm_cpu_s": total(cpus, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    print(f"  {sum(map(len, walls))} op runs in {time.monotonic() - measure_start:.1f} s; times are sums "
          f"over the {len(argvs)} ops of each op's median; setup_s is the median of "
          f"{SETUP_LAUNCHES} `mirrorlab --help` start-ups")
    print(f"  raw, before normalising: wall_s = {total(walls, 0)!r} s, cpu_s = {total(cpus, 0)!r} s, "
          f"setup_s = {statistics.median(t[0] for t in setup)!r} s")
    print(f"  speed probe: {len(probes)} probes, median {statistics.median(probes)!r} s, "
          f"range {min(probes)!r} to {max(probes)!r} s, nominal {PROBE_NOMINAL_S!r} s")
    print(f"  start-up probe: {len(starts)} probes, median {statistics.median(starts)!r} s, "
          f"nominal {STARTUP_NOMINAL_S!r} s")
    per_command = defaultdict(float)
    for argv, op in zip(argvs, walls):
        per_command[argv[0]] += statistics.median(t[1] for t in op)
    for command, wall in per_command.items():
        print(f"  {command.replace('-', '_')}_s = {wall!r} s (normalised)")
    return tally, metrics


def run_traced(workload: str, seed: int) -> tuple[Tally, dict]:
    argvs = ops.workload_ops(workload, seed)
    tally = Tally(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from mirrorlab import cli
    import_s = time.perf_counter() - t0

    def run_op(index: int) -> float:
        argv = argvs[index]
        t0 = time.perf_counter()
        try:
            out, code = cli.run(list(argv))
        except SystemExit as exc:
            out, code = b"", exc.code
        except Exception:  # counted as a failed op, as a crashed process would be
            traceback.print_exc()
            out, code = b"", 1
        wall = time.perf_counter() - t0
        tally.record(index, argv, code, out)
        return wall

    # Each op runs untraced and then traced, back to back, so that both
    # runs of an op see the same state of a machine whose speed drifts.
    tracer = spans.Tracer()
    untraced = traced = 0.0
    for index in range(len(argvs)):
        untraced += run_op(index)
        tracer.current_op = index
        tracer.install()
        try:
            traced += run_op(index)
        finally:
            tracer.remove()
    layer = spans.layer_metrics(tracer)
    layer["cli.import_s"] = import_s
    layer["trace.overhead_s"] = traced - untraced
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}.csv"
    tracer.write(span_file)
    print(f"  untraced {untraced!r} s, traced {traced!r} s, "
          f"{len(tracer.start)} spans in {span_file.relative_to(ROOT)}")
    return tally, {name: layer[name] for name, _, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run then kills and reaps the running op.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    missing = [p for p in ("src/mirrorlab/cli.py", *ops.GOLDEN.values()) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a mirrorlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        tally, values = run_traced(args.workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        tally, values = run_end_to_end(args.workload, args.seed, args.seconds, started)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    error_rate = tally.failed / tally.attempted
    print(f"  error_rate = {error_rate!r} ({tally.failed} failed / {tally.attempted} attempted)")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
