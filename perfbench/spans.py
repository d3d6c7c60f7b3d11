"""Span tracing of mirrorlab's layers from outside the program.

The traced benchmark run replaces each public function listed in TRACED,
in every mirrorlab module that holds a binding to it, by a wrapper that
records one span per call: the op it belongs to, the span that called it,
and its start and end on the perf_counter clock.  Counts are taken by the
same wrappers from the arguments and results they see, so every ratio is
measured where the work happens.  Spans stay in memory until the run ends.

The wrappers cost about a microsecond per call.  The jet arithmetic in
``_ad.D2`` runs ~10M operations per metric-check and is not wrapped; it
stays inside ``kahler.metric``'s self time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" attributes patch the class.
TRACED = (
    ("lattice.enumerate_shifted_ball", "mirrorlab.lattice", "enumerate_shifted_ball"),
    ("lattice.norm_form", "mirrorlab.lattice", "norm_form"),
    ("lattice.min_norm_in_coset", "mirrorlab.lattice", "min_norm_in_coset"),
    ("fukaya.mu2_closed", "mirrorlab.fukaya", "mu2_closed"),
    ("fukaya.functor_check", "mirrorlab.fukaya", "functor_check"),
    ("series.theta_section", "mirrorlab.series", "theta_section"),
    ("series.section_mul", "mirrorlab.series", "section_mul"),
    ("series.section_mul_decompose", "mirrorlab.series", "section_mul_decompose"),
    ("series.shifted_theta_value", "mirrorlab.series", "shifted_theta_value"),
    ("series.TauSeries.mul", "mirrorlab.series", "TauSeries.__mul__"),
    ("series.TauSeries.from_terms", "mirrorlab.series", "TauSeries.from_terms"),
    ("series.TauSeries.exp", "mirrorlab.series", "TauSeries.exp"),
    ("gw.admitted_classes", "mirrorlab.gw", "admitted_classes"),
    ("gw.wall_curves_window", "mirrorlab.gw", "wall_curves_window"),
    ("gw.disc_series", "mirrorlab.gw", "disc_series"),
    ("gw.differential_table", "mirrorlab.gw", "differential_table"),
    ("gw.leibniz_check", "mirrorlab.gw", "leibniz_check"),
    ("tropical.trop_phi", "mirrorlab.tropical", "trop_phi"),
    ("tropical.facet", "mirrorlab.tropical", "facet"),
    ("tropical.svg_tiling", "mirrorlab.tropical", "svg_tiling"),
    ("tropical.facet_csv", "mirrorlab.tropical", "facet_csv"),
    ("kahler.metric", "mirrorlab.kahler", "metric"),
    ("kahler.calibrate_c_base", "mirrorlab.kahler", "calibrate_c_base"),
    ("kahler.metric_certificate", "mirrorlab.kahler", "metric_certificate"),
    ("kahler.region_samples", "mirrorlab.kahler", "region_samples"),
    ("kahler.formula_key", "mirrorlab.kahler", "formula_key"),
    ("kahler.monodromy_class", "mirrorlab.kahler", "monodromy_class"),
    ("kahler.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("ad.hessian_matrix", "mirrorlab._ad", "hessian_matrix"),
    ("cli.emit", "mirrorlab.cli", "emit"),
)

PROGRAM_MODULES = (
    "mirrorlab", "mirrorlab.lattice", "mirrorlab.series", "mirrorlab.fukaya",
    "mirrorlab.tropical", "mirrorlab.gw", "mirrorlab._ad", "mirrorlab.kahler",
    "mirrorlab.cli",
)


COUNTED = {
    "lattice.enumerate_shifted_ball", "fukaya.mu2_closed", "series.section_mul",
    "series.section_mul_decompose", "gw.admitted_classes", "gw.wall_curves_window",
    "gw.leibniz_check", "kahler.region_samples", "kahler.metric",
}


def _count_result(tracer: "Tracer", name: str, parent: str | None, result) -> None:
    """Counters read off a traced call's result; parent is the caller's span name."""
    c = tracer.counts
    if name == "lattice.enumerate_shifted_ball":
        c["lattice.points_returned"] += len(result)
        if parent == "fukaya.mu2_closed":
            c["fukaya.mu2_points_enumerated"] += len(result)
    elif name == "fukaya.mu2_closed":
        c["fukaya.mu2_points_kept"] += int(
            sum(coef for ts in result.values() for _, coef in ts.terms)
        )
    elif name == "series.section_mul" and parent == "series.section_mul_decompose":
        c["series.product_keys"] += len(result.coeffs)
    elif name == "series.section_mul_decompose":
        c["series.output_reps"] += len(result)
    elif name == "gw.admitted_classes":
        c["gw.admitted_classes.classes"] += len(result)
    elif name == "gw.wall_curves_window":
        c["gw.wall_curves_window.walls"] += len(result)
    elif name == "gw.leibniz_check":
        worst = max(
            it["tail_bound"] / abs(float(it["lhs"])) for it in result.items
        )
        c["gw.leibniz.tail_to_value_max"] = max(c["gw.leibniz.tail_to_value_max"], worst)
    elif name == "kahler.region_samples" and parent == "kahler.calibrate_c_base":
        c["kahler.calibrate.points"] += len(result)
    elif name == "kahler.metric" and parent == "kahler.calibrate_c_base":
        c["kahler.calibrate.metric_calls"] += 1


class Tracer:
    """Records spans from wrapped functions; install() patches, remove() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.op = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, op, nm, par = self.names, self.op, self.name, self.parent
        start, end, stack, clock = self.start, self.end, self._stack, self.clock
        counted = name in COUNTED

        def traced(*args, **kwargs):
            sid = len(start)
            caller = stack[-1] if stack else -1
            op.append(self.current_op)
            nm.append(nid)
            par.append(caller)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if counted:
                _count_result(self, name, names[nm[caller]] if caller >= 0 else None, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every TRACED function wherever a program module binds it."""
        if not self._patches:
            self._patches = list(self._plan())
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def remove(self) -> None:
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [importlib.import_module(m) for m in PROGRAM_MODULES]
        for span_name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    yield cls, meth, raw, staticmethod(self.wrap(span_name, raw.__func__))
                else:
                    yield cls, meth, raw, self.wrap(span_name, raw)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(span_name, original)
            for mod in {owner, *modules}:
                for key, value in vars(mod).items():
                    if value is original:
                        yield mod, key, original, wrapped

    def write(self, path) -> None:
        """CSV of all spans; times in ns from the first span's start."""
        base = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            fh.write("span,op,name,parent,start_ns,duration_ns\n")
            for i in range(len(self.start)):
                t0 = self.start[i]
                fh.write(f"{i},{self.op[i]},{self.name[i]},{self.parent[i]},"
                         f"{round((t0 - base) * 1e9)},{round((self.end[i] - t0) * 1e9)}\n")


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span may not overlap in a single-threaded trace, but the
    union is taken anyway so that the definition holds for any input.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (t0, t1) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = t0
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-name calls, self and total seconds, plus the counters and ratios."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        calls[name] += 1
        self_s[name] += selfs[i]
        total_s[name] += tracer.end[i] - tracer.start[i]
    out: dict[str, float] = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total_s[name]
    c = tracer.counts
    for key in (
        "lattice.points_returned", "fukaya.mu2_points_enumerated",
        "fukaya.mu2_points_kept", "series.product_keys", "series.output_reps",
        "gw.admitted_classes.classes", "gw.wall_curves_window.walls",
        "gw.leibniz.tail_to_value_max", "kahler.calibrate.points",
        "kahler.calibrate.metric_calls",
    ):
        out[key] = c[key]
    out["fukaya.mu2_keep_ratio"] = _ratio(c["fukaya.mu2_points_kept"], c["fukaya.mu2_points_enumerated"])
    out["series.keys_per_rep"] = _ratio(c["series.product_keys"], c["series.output_reps"])
    out["kahler.calibrate.metric_calls_per_point"] = _ratio(
        c["kahler.calibrate.metric_calls"], c["kahler.calibrate.points"]
    )
    return out


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
