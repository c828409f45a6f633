"""In-process traced run of one workload: per-layer spans and counts.

The jobs run in this process through `orchardlab.cli.main`, in four
rounds: one untraced, two traced and one under the stdlib profiler.

- Traced rounds wrap, from here, the public functions of the eight
  modules.  Coarse calls (SPANS) record a span each: name, start, end
  and parent.  Element-level calls (COUNTED) would swamp a run with
  spans, so they only bump an exact counter.  The incidence work counts
  are taken inside the kernels, from the private helpers they call
  (LOCAL_COUNTED, BRUTE_KERNELS), so they count work done, not input
  sizes.  The two traced rounds must give identical counts.
- A layer's self time comes from the profiled round: the profiler's
  self time of the functions defined in the module's file, as a share
  of all self time, times the untraced round's wall time.  A share,
  because the profiler inflates small calls.
- `trace.overhead_s` is the traced minus the untraced wall time, and
  `trace.coverage` the share of the traced wall time inside spans just
  below the CLI command spans.

Nothing under src/ changes: every wrapper is installed by rebinding
module attributes and class attributes, and removed after the traced
rounds.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import importlib
import io
import os
import pstats
import signal
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List

import workloads

LAYERS = ("field", "projgeom", "groups", "incidence", "measures", "bsg", "constructions", "cli")

# module.function -> span name; `count_collinear_triples` is named by its kernel
SPANS = {
    "projgeom.load_point_set": "projgeom.load",
    "incidence.count_collinear_triples": "incidence.{kernel}",
    "incidence.line_concentration": "incidence.line_conc",
    "incidence.pencil_plane_concentration": "incidence.pencil",
    "incidence.stabilizer_census_affine": "incidence.census",
    "measures.convolve": "measures.convolve",
    "bsg.verify_decomposition": "bsg.verify",
    "constructions.build_example": "constructions.build",
    "constructions.verify_example": "constructions.verify",
    "constructions.classify_fixed_points": "constructions.classify",
    "cli.write_json": "cli.report",
}

# module.function or module.Class.method -> counter
COUNTED = {
    "field.FieldElem.__mul__": "field.mul_calls",
    "field.FieldElem.__rmul__": "field.mul_calls",
    "field.FieldElem.__add__": "field.addsub_calls",
    "field.FieldElem.__radd__": "field.addsub_calls",
    "field.FieldElem.__sub__": "field.addsub_calls",
    "field.FieldElem.__rsub__": "field.addsub_calls",
    "field.FieldElem.__neg__": "field.addsub_calls",
    "field.inv": "field.inv_calls",
    "field.FieldCtx.elem": "field.elem_calls",
    "field.FieldCtx.__eq__": "field.ctx_eq_calls",
    "projgeom.ProjPoint.__init__": "projgeom.point_ctor_calls",
    "projgeom.ProjLine.__init__": "projgeom.line_ctor_calls",
    "projgeom.matrix_rank": "projgeom.rank_calls",
    "groups.AffElem.__init__": "groups.affelem_ctor_calls",
    "groups.aff_compose": "groups.aff_compose_calls",
    "groups.aff_act": "groups.aff_act_calls",
    "groups.gamma_x": "groups.gamma_x_calls",
    "groups.PGLElem.__mul__": "groups.pgl_mul_calls",
}

# module.function -> counter, rebound in that module only:
# - pairs_keyed: a line key computed for a pair of points, by the prime
#   path's `_rref_key_int` or the generic path's `line_through` (in
#   incidence only; constructions and groups also call it);
# - census_pairs: one pair's scan of the group for a nontrivial stabilizer.
LOCAL_COUNTED = {
    "incidence._rref_key_int": "incidence.pairs_keyed",
    "incidence.line_through": "incidence.pairs_keyed",
    "incidence._pair_stabilizer_nontrivial": "incidence.census_pairs",
}

# brute triple kernels kernel(p_or_ctx, X1, X2, X3) -> (total, per_line),
# whose visits of X3 points are the triples they test (see Visits)
BRUTE_KERNELS = ("incidence._count_brute_int", "incidence._count_brute_generic")

# Every per-layer metric, in BENCHMARK.json order, with its unit.
PER_LAYER = [
    ("field.self_s", "s"), ("field.mul_calls", "count"), ("field.addsub_calls", "count"),
    ("field.inv_calls", "count"), ("field.elem_calls", "count"), ("field.ctx_eq_calls", "count"),
    ("projgeom.self_s", "s"), ("projgeom.load_s", "s"), ("projgeom.points_loaded", "count"),
    ("projgeom.point_ctor_calls", "count"), ("projgeom.line_ctor_calls", "count"),
    ("projgeom.rank_calls", "count"),
    ("groups.self_s", "s"), ("groups.affelem_ctor_calls", "count"),
    ("groups.aff_compose_calls", "count"), ("groups.aff_act_calls", "count"),
    ("groups.gamma_x_calls", "count"), ("groups.pgl_mul_calls", "count"),
    ("incidence.hash_s", "s"), ("incidence.brute_s", "s"), ("incidence.line_conc_s", "s"),
    ("incidence.pencil_s", "s"), ("incidence.census_s", "s"), ("incidence.pairs_keyed", "count"),
    ("incidence.triples_tested", "count"), ("incidence.triples_found", "count"),
    ("incidence.hit_ratio", "ratio"), ("incidence.lines_reported", "count"),
    ("incidence.census_pairs", "count"),
    ("measures.self_s", "s"), ("measures.convolve_s", "s"), ("measures.convolve_calls", "count"),
    ("measures.conv_terms", "count"), ("measures.support_out", "count"),
    ("measures.merge_ratio", "ratio"), ("measures.fraction_s", "s"),
    ("bsg.verify_s", "s"), ("bsg.instances", "count"), ("bsg.checks", "count"),
    ("bsg.hyp_met", "count"),
    ("constructions.build_s", "s"), ("constructions.verify_s", "s"),
    ("constructions.family_triples", "count"), ("constructions.classify_s", "s"),
    ("cli.self_s", "s"), ("cli.report_s", "s"), ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
]

# profiler self-time share of these files -> metric
SELF_METRICS = {
    "field": "field.self_s",
    "projgeom": "projgeom.self_s",
    "groups": "groups.self_s",
    "measures": "measures.self_s",
    "cli": "cli.self_s",
    "fractions": "measures.fraction_s",
}

COMMAND = "cli.command"


class Tracer:
    """Spans and counters of one traced round; the wrappers call into it."""

    def __init__(self):
        self.spans: List[list] = []     # [name, start, end, parent index or -1]
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def reset(self):
        # in place: the counting wrappers hold the Counter itself
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def spanned(self, fn, name_of, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if on_exit:
                on_exit(self, name, args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def visited(self, kernel):
        """A brute kernel whose X3 counts the triples it tests and whose
        total counts the triples it finds."""
        counts = self.counts

        @functools.wraps(kernel)
        def wrapper(p, X1, X2, X3):
            total, per_line = kernel(p, X1, X2, Visits(X3, counts))
            counts["incidence.triples_found"] += total
            return total, per_line
        return wrapper

    def inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self.stack)


class Visits(list):
    """The X3 of a brute kernel.  Each point its iterators hand out is one
    candidate triple (with the pair the kernel is on) and counts in
    `incidence.triples_tested`."""

    def __init__(self, items, counts: Counter):
        super().__init__(items)
        self.counts = counts

    def __iter__(self):
        n = 0
        try:
            for x in list.__iter__(self):
                n += 1
                yield x
        finally:
            self.counts["incidence.triples_tested"] += n


# -- counts taken at span boundaries ---------------------------------------------

KERNEL_SPANS = {"incidence.both", "incidence.hash", "incidence.brute"}


def _on_count(tracer, name, args, kwargs, result):
    if not tracer.inside(KERNEL_SPANS):    # the outermost call reports its lines
        tracer.counts["incidence.lines_reported"] += len(result.by_line)


def _on_load(tracer, name, args, kwargs, result):
    tracer.counts["projgeom.points_loaded"] += len(result[1])


def _on_convolve(tracer, name, args, kwargs, result):
    f, h = args[:2]
    c = tracer.counts
    c["measures.convolve_calls"] += 1
    c["measures.conv_terms"] += len(f.masses) * len(h.masses)
    c["measures.support_out"] += len(result.masses)


def _on_bsg(tracer, name, args, kwargs, result):
    c = tracer.counts
    c["bsg.instances"] += 1
    c["bsg.checks"] += len(result)
    c["bsg.hyp_met"] += any(x.name == "hyp_lin" and x.passed for x in result)


def _on_verify_example(tracer, name, args, kwargs, result):
    tracer.counts["constructions.family_triples"] += len(args[0].family)


ON_EXIT = {
    "incidence.count_collinear_triples": _on_count,
    "projgeom.load_point_set": _on_load,
    "measures.convolve": _on_convolve,
    "bsg.verify_decomposition": _on_bsg,
    "constructions.verify_example": _on_verify_example,
}


def _kernel_name(template):
    def name_of(args, kwargs):
        kernel = kwargs.get("kernel", args[3] if len(args) > 3 else "hash")
        return template.format(kernel=kernel)
    return name_of


class Patches:
    """Rebinds functions in every orchardlab module that imported them by
    name, and methods on their classes; restore() undoes it all."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.undo: List[tuple] = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, path: str, make, local: bool = False):
        """Wrap `module.function` (in every module that holds it, or in
        `module` alone if local) or `module.Class.method`."""
        parts = path.split(".")
        module = self.modules[parts[0]]
        if len(parts) == 3:
            cls = getattr(module, parts[1])
            self._set(cls, parts[2], make(cls.__dict__[parts[2]]))
            return
        original = getattr(module, parts[1])
        wrapper = make(original)
        for mod in [module] if local else self.modules.values():
            if mod.__dict__.get(parts[1]) is original:
                self._set(mod, parts[1], wrapper)

    def restore(self):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def install_tracer(tracer: Tracer, modules) -> Patches:
    patches = Patches(modules)
    for path, name in SPANS.items():
        name_of = _kernel_name(name) if "{" in name else (lambda a, k, n=name: n)
        patches.install(path, lambda fn, n=name_of, p=path: tracer.spanned(fn, n, ON_EXIT.get(p)))
    for attr in dir(modules["cli"]):
        if attr.startswith("cmd_"):
            patches.install(f"cli.{attr}",
                            lambda fn: tracer.spanned(fn, lambda a, k: COMMAND))
    for path, key in COUNTED.items():
        patches.install(path, lambda fn, k=key: tracer.counted(fn, k))
    for path, key in LOCAL_COUNTED.items():
        patches.install(path, lambda fn, k=key: tracer.counted(fn, k), local=True)
    for path in BRUTE_KERNELS:
        patches.install(path, tracer.visited)
    return patches


# -- running rounds in process ------------------------------------------------------

class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no handler in the
    program swallows it."""


def _timeout(signum, frame):
    raise JobTimeout


def run_round(wl, cli, work, judge, label, failures, profile=None, tracer=None) -> float:
    """Every job once through cli.main; returns the summed wall time.  A
    job that times out is recorded and ends the traced run (JobTimeout)."""
    wall = 0.0
    for job in wl.jobs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            previous = signal.signal(signal.SIGALRM, _timeout)
            signal.setitimer(signal.ITIMER_REAL, workloads.JOB_TIMEOUT_S)
            t0 = time.perf_counter()
            if profile:
                profile.enable()
            try:
                code = cli.main(list(job.args))
            except JobTimeout:
                code = None
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
            finally:
                if profile:
                    profile.disable()
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall += time.perf_counter() - t0
        problem = judge.run_problem(job, label, code, err.getvalue())
        if problem:
            failures.append({"run": label, "job": job.id, "problem": problem})
        if code is None:
            raise JobTimeout
        if tracer:
            tracer.counts["cli.report_bytes"] += sum(
                os.path.getsize(os.path.join(work, name)) for name in job.outputs
                if os.path.exists(os.path.join(work, name)))
    return wall


def self_shares(profile, pkg_dir: str) -> Dict[str, float]:
    by_file: Counter = Counter()
    for (filename, _, _), (_, _, tt, _, _) in pstats.Stats(profile).stats.items():
        base = os.path.splitext(os.path.basename(filename))[0]
        if filename.startswith(pkg_dir):
            by_file[base] += tt
        elif base == "fractions":
            by_file["fractions"] += tt
        else:
            by_file["other"] += tt
    total = sum(by_file.values()) or 1.0
    return {k: v / total for k, v in by_file.items()}


def span_summary(spans: List[list], wall: float) -> Dict[str, float]:
    # span `layer.x` sums into metric `layer.x_s` where there is one
    names = {name for name, _ in PER_LAYER}
    out: Counter = Counter()
    for name, start, end, _ in spans:
        if name + "_s" in names:
            out[name + "_s"] += end - start
    covered = sum(end - start for _, start, end, parent in spans
                  if parent >= 0 and spans[parent][0] == COMMAND)
    out["trace.coverage"] = covered / wall if wall else 0.0
    return out


def _rounds(wl, work: str, modules, judge, failures: List[dict]) -> dict:
    cli = modules["cli"]
    untraced = run_round(wl, cli, work, judge, "untraced", failures)
    tracer = Tracer()
    patches = install_tracer(tracer, modules)
    traced = []
    try:
        for label in ("traced-1", "traced-2"):
            tracer.reset()
            t0 = time.perf_counter()
            wall = run_round(wl, cli, work, judge, label, failures, tracer=tracer)
            spans = [[n, a - t0, b - t0, p] for n, a, b, p in tracer.spans]
            traced.append({"wall": wall, "spans": spans, "counts": dict(tracer.counts)})
    finally:
        patches.restore()
    profile = cProfile.Profile()
    run_round(wl, cli, work, judge, "profiled", failures, profile=profile)
    return {"untraced": untraced, "traced": traced, "profile": profile}


def traced_run(wl, work: str, src: str, judge) -> dict:
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"orchardlab.{name}") for name in LAYERS}
    pkg_dir = os.path.dirname(os.path.realpath(modules["cli"].__file__)) + os.sep
    failures: List[dict] = []
    values: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    units = dict(PER_LAYER)
    out = {"failures": failures, "attempted": 4 * len(wl.jobs), "spans": []}
    previous_dir = os.getcwd()
    os.chdir(work)
    try:
        r = _rounds(wl, work, modules, judge, failures)
    except JobTimeout:
        out["metrics"] = {name: {"value": 0, "unit": units[name]} for name in values}
        return out
    finally:
        os.chdir(previous_dir)
    failures += judge.output_failures()
    traced, untraced = r["traced"], r["untraced"]
    if traced[0]["counts"] != traced[1]["counts"]:
        diff = sorted(k for k in set(traced[0]["counts"]) | set(traced[1]["counts"])
                      if traced[0]["counts"].get(k) != traced[1]["counts"].get(k))
        failures.append({"run": "traced-2", "job": "*", "problem": f"counts differ: {diff}"})

    values.update(traced[0]["counts"])
    c = traced[0]["counts"]
    if c.get("incidence.triples_tested"):
        values["incidence.hit_ratio"] = c["incidence.triples_found"] / c["incidence.triples_tested"]
    if c.get("measures.conv_terms"):
        values["measures.merge_ratio"] = 1 - c["measures.support_out"] / c["measures.conv_terms"]
    summaries = [span_summary(t["spans"], t["wall"]) for t in traced]
    for key in set(summaries[0]) | set(summaries[1]):
        values[key] = (summaries[0].get(key, 0.0) + summaries[1].get(key, 0.0)) / 2
    shares = self_shares(r["profile"], pkg_dir)
    for module, key in SELF_METRICS.items():
        values[key] = shares.get(module, 0.0) * untraced
    values["trace.overhead_s"] = (traced[0]["wall"] + traced[1]["wall"]) / 2 - untraced
    out.update(
        metrics={name: {"value": values[name], "unit": units[name]} for name in values},
        untraced_wall_s=untraced,
        traced_wall_s=[t["wall"] for t in traced],
        profile_shares=shares,
        spans=traced[0]["spans"],
    )
    return out
