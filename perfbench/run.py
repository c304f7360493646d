"""cxlab benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resolve-ladder --seed 1 --seconds 38 --trace 0

Workloads: resolve-ladder, reduce-search, scenario-batch (see workloads.py
and NOTES.md).  Closed loop, one client, one process, no threads: a pass
runs the workload's operations one after another.  Every workload runs
PASSES passes, a fixed number, so a faster build takes its minima over as
many samples as a slower one; the ``--seconds`` budget only stops the
passes early on a host so slow that the next pass would overrun it (after
at least two).

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the fastest
of SETUP_SAMPLES fresh interpreters that each import cxlab and build the
workload's inputs.  An operation's latency takes each stretch of its work
from its fastest pass: every pass is cut at the same points (each cxlab
matrix product and each step a resolution yields, see ProductMarks), the
cuts are joined into chunks of at least CHUNK_S, and each chunk counts with
its fastest pass.  On a shared machine interference only ever adds time,
and it comes and goes in stretches from under a second to tens of
seconds, so the fastest of identical repeats spread over a run of half a
minute or more, taken over short stretches, is the steadiest estimate of
the work itself.
``wall_s`` is the sum of those latencies over one pass, ``op_p50_s`` and
``op_tail_s`` are their median and the highest percentile with at least ten
operations beyond it (the largest one when a pass has ten or fewer
operations).

``--trace 1`` alternates untraced passes with traced ones, which wrap every
public cxlab callable (tracer.py), and reports the per-layer metrics of the
fastest of TRACE_PAIRS traced passes, plus ``trace.overhead_ratio``.
Output checks run with the tracer paused, so the benchmark's own
verification calls are not counted.
The spans go to ``perfbench/out/<workload>.spans.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output was correct, 1 when some check failed, and 2 when the
benchmark could not run (for example without ``src/cxlab``).
"""
import os

# one process, no threads: pin every BLAS pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
PASSES = 10
MIN_PASSES = 2
TRACE_PAIRS = 2
CHUNK_S = 0.005
TAIL_BEYOND = 10

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


# -- measuring ------------------------------------------------------------


def timed(run, marks):
    """Run one operation; returns (output, its marks).

    marks is the array that ProductMarks appends to while it is installed.
    The operation's marks are its start, those appended while it runs, one
    after each part when it returns a generator (a resolution, after each
    step), and its end.
    """
    del marks[:]
    marks.append(perf_counter())
    out = run()
    if inspect.isgenerator(out):
        while True:
            try:
                next(out)
            except StopIteration as stop:
                out = stop.value
                break
            marks.append(perf_counter())
    marks.append(perf_counter())
    return out, array("d", marks)


class ProductMarks:
    """While installed, append the time of every cxlab matrix product to
    ``times``.  Each pass of an operation makes the same products in the
    same order, so the marks cut every pass at the same points of its work.
    Without ``Mat.__matmul__`` there is nothing to mark and an operation is
    cut only between the parts it yields."""

    def __init__(self):
        self.times = array("d")
        self._patched = None

    def install(self):
        try:
            from cxlab.exactla import Mat
            original = Mat.__matmul__
        except (ImportError, AttributeError):
            return
        times = self.times

        def matmul(a, b):
            times.append(perf_counter())
            return original(a, b)

        Mat.__matmul__ = matmul
        self._patched = (Mat, original)

    def uninstall(self):
        if self._patched:
            cls, original = self._patched
            cls.__matmul__ = original
            self._patched = None


class Measurement:
    """Latencies and outcomes of the passes of one phase of a run."""

    def __init__(self):
        self.op_marks = {}        # label -> marks of each pass
        self.pass_seconds = []
        self.pass_spans = []      # (first span, end span, counters) per traced pass
        self.attempted = 0
        self.failures = []

    def run_pass(self, operations, tracer=None, marks=None):
        lo = tracer.span_count() if tracer else 0
        if tracer:
            tracer.counters.clear()
        marks = array("d") if marks is None else marks
        started = perf_counter()
        for label, run, check in operations:
            if tracer:
                tracer.op += 1
            t0 = perf_counter()
            try:
                out, op_marks = timed(run, marks)
                if tracer:
                    with tracer.paused():
                        problems = check(out)
                else:
                    problems = check(out)
            except Exception:
                op_marks = array("d", (t0, perf_counter()))
                problems = [traceback.format_exc()]
            # outputs hold reference cycles (module <-> resolution): free them
            # now, untimed, so that one operation's garbage neither inflates
            # the next one's peak RSS nor lands a collection pause in its time
            out = None
            gc.collect()
            self.attempted += 1
            self.op_marks.setdefault(label, []).append(op_marks)
            if problems:
                self.failures.append((label, problems))
        self.pass_seconds.append(perf_counter() - started)
        if tracer:
            self.pass_spans.append((lo, tracer.span_count(), dict(tracer.counters)))

    def latency(self, label):
        """An operation's latency, each stretch of its work timed by its
        fastest pass.

        The passes with as many marks as most passes (the first pass can
        differ, while caches fill) are lined up mark by mark; the stretches
        between marks are joined into chunks of at least CHUNK_S, measured
        on the latest such pass, and each chunk counts with its fastest pass.
        """
        passes = self.op_marks[label]
        # on a tie the count of the later passes wins
        n = Counter(len(m) for m in reversed(passes)).most_common(1)[0][0]
        aligned = [m for m in passes if len(m) == n]
        ref = aligned[-1]
        total, lo = 0.0, 0
        for hi in range(1, n):
            if hi == n - 1 or ref[hi] - ref[lo] >= CHUNK_S:
                total += min(m[hi] - m[lo] for m in aligned)
                lo = hi
        return total

    def latencies(self):
        return sorted(self.latency(label) for label in self.op_marks)

    def wall_s(self):
        return sum(self.latencies())


def repeat(rounds, budget_s, one_round):
    """Call one_round() rounds times; it returns the seconds to count
    against the budget.  Stop early, after at least MIN_PASSES rounds, when
    the next round would overrun the budget."""
    spent = 0.0
    for done in range(1, rounds + 1):
        last = one_round()
        spent += last
        if done >= MIN_PASSES and spent + last > budget_s:
            return


def tail(values):
    """(value, percentile, samples) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    n = len(values)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return values[rank], 100.0 * (rank + 1) / n, n


def setup_sample(workload_name, seed):
    """Set-up seconds measured in a fresh interpreter, which is waited for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--measure-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- environment ----------------------------------------------------------


def environment(seeds):
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # the config layout differs between numpy versions
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text(encoding="utf-8").strip() if target.is_file() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seeds": seeds,
    }


# -- per-layer metrics ------------------------------------------------------


def trace_hooks(tracer):
    """Counters that need a call's arguments or result, keyed by span name."""
    c = tracer.counters
    state = {"search_depth": 0}

    def matmul(args, kwargs, call):
        a, b = args[0], args[1]
        c["matmul.madds"] += a.rows * a.cols * b.cols
        return call()

    def rref(args, kwargs, call):
        c["rref.cells"] += args[0].rows * args[0].cols
        return call()

    def module_init(args, kwargs, call):
        out = call()
        c["module_dim_sum"] += args[0].dim
        return out

    def extend(args, kwargs, call):
        res = args[0]
        before = res.computed_to
        t0 = perf_counter()
        out = call()
        added = res.computed_to - before
        c["steps"] += added
        if added == 1:
            c["step_last_s"] = perf_counter() - t0
        if res.frees:
            c["free_dim_max"] = max(c["free_dim_max"], res.frees[-1].dim)
        return out

    def resolve(args, kwargs, call):
        res = args[0]._resolution
        before = res.computed_to if res is not None else None
        out = call()
        c["resolve.hits"] += out.computed_to == before
        return out

    def search(args, kwargs, call):
        state["search_depth"] += 1
        try:
            return call()
        finally:
            state["search_depth"] -= 1

    def in_search(key):
        def hook(args, kwargs, call):
            c[key] += state["search_depth"] > 0
            return call()
        return hook

    def cli_run(args, kwargs, call):
        report = call()
        c["tasks"] += len(report.tasks)
        c["tasks_failed"] += sum(not t.ok for t in report.tasks)
        return report

    return {
        "exactla.Mat.__matmul__": matmul,
        "exactla.rref": rref,
        "gmod.Module.__init__": module_init,
        "resol.MinimalFreeResolution.extend": extend,
        "resol.resolve": resolve,
        "yoneda.find_reducing_element": search,
        "yoneda.ExtElement.class_residual": in_search("search.candidates"),
        "yoneda.pushout": in_search("search.pushouts"),
        "cxcli.run": cli_run,
    }


def layer_metrics(tracer, lo, hi, counters):
    calls, self_s = tracer.aggregate(lo, hi)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(layer + ".")), "count")

    def n(name):
        return (calls.get(name, 0), "count")

    def s(*names):
        return (sum(self_s.get(x, 0.0) for x in names), "s")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    m.update({
        "exactla.matmul.calls": n("exactla.Mat.__matmul__"),
        "exactla.matmul.madds": (counters.get("matmul.madds", 0), "count"),
        "exactla.matmul.self_s": s("exactla.Mat.__matmul__"),
        "exactla.rref.calls": n("exactla.rref"),
        "exactla.rref.cells": (counters.get("rref.cells", 0), "count"),
        "exactla.rref.self_s": s("exactla.rref"),
        "exactla.kernel.calls": n("exactla.kernel_basis"),
        "exactla.solve.calls": n("exactla.solve_matrix"),
        "gralg.build.calls": n("gralg.build_algebra"),
        "gralg.build.self_s": s("gralg.build_algebra"),
        "gralg.mul.calls": n("gralg.AlgebraElement.__mul__"),
        "gmod.modules_built": n("gmod.Module.__init__"),
        "gmod.module_dim_sum": (counters.get("module_dim_sum", 0), "count"),
        "gmod.init.self_s": s("gmod.Module.__init__"),
        "gmod.submodule.calls": n("gmod.submodule_from_span"),
        "gmod.quotient.calls": n("gmod.quotient_by_span"),
        "gmod.monomial_action.calls": n("gmod.Module.monomial_action"),
        "resol.steps": (counters.get("steps", 0), "count"),
        "resol.step_last_s": (counters.get("step_last_s", 0.0), "s"),
        "resol.free_dim_max": (counters.get("free_dim_max", 0), "count"),
        "resol.resolve.calls": n("resol.resolve"),
        "resol.resolve.hit_ratio": ratio(counters.get("resolve.hits", 0), calls.get("resol.resolve", 0)),
        "yoneda.ext_elements": n("yoneda.ExtElement.__init__"),
        "yoneda.class_residual.calls": n("yoneda.ExtElement.class_residual"),
        "yoneda.pushout.calls": n("yoneda.pushout"),
        "yoneda.search.eval_ratio": ratio(counters.get("search.pushouts", 0),
                                          counters.get("search.candidates", 0)),
        "yoneda.ext_table.calls": n("yoneda.ext_table"),
        "yoneda.tor_table.calls": n("yoneda.tor_table"),
        "cioper.operators.calls": n("cioper.eisenbud_operators"),
        "cioper.operators.self_s": s("cioper.eisenbud_operators"),
        "cioper.kchi.calls": n("cioper.build_kchi"),
        "cioper.chi_realized.calls": n("cioper.EisenbudOperatorSet.chi_realized"),
        "cxcli.parse.self_s": s("cxcli.parse_scenario"),
        "cxcli.report.self_s": s("cxcli.Report.to_json", "cxcli.Report.to_text"),
        "cxcli.tasks": (counters.get("tasks", 0), "count"),
        "cxcli.tasks_failed": (counters.get("tasks_failed", 0), "count"),
    })
    return m


# -- main -----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description="cxlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cxlab" / "__init__.py").is_file():
        print(f"cxlab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.measure_setup:
        t0 = perf_counter()
        workload.setup(args.seed, ROOT)
        print(repr(perf_counter() - t0))
        return 0

    try:
        workload.setup(args.seed, ROOT)
        operations = workload.operations()
    except Exception:
        traceback.print_exc()
        return 2
    env = environment([args.seed])
    print(f"cxlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    plain = Measurement()
    traced = Measurement()
    if args.trace == 0:
        # set-up samples are spread over the run, a share after each pass;
        # they are not counted against the passes' budget
        setup_samples = []
        marker = ProductMarks()
        per_pass = -(-SETUP_SAMPLES // PASSES)

        def one_pass():
            marker.install()
            try:
                plain.run_pass(operations, marks=marker.times)
            finally:
                marker.uninstall()
            spent = plain.pass_seconds[-1]
            while len(setup_samples) < min(SETUP_SAMPLES, per_pass * len(plain.pass_seconds)):
                setup_samples.append(setup_sample(args.workload, args.seed))
            return spent

        repeat(PASSES, args.seconds, one_pass)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(args.workload, args.seed))
        setup_s = min(setup_samples)
        lat = plain.latencies()
        p50 = statistics.median(lat)
        tail_s, tail_pct, tail_n = tail(lat)
        metrics = {
            "wall_s": sum(lat),
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"passes: {len(plain.pass_seconds)} of {PASSES} "
              f"({', '.join(f'{s:.3f}' for s in plain.pass_seconds)} s)")
        print(f"operations per pass: {len(lat)}; op_tail_s is p{tail_pct:.0f} of {tail_n} "
              f"(at least {TAIL_BEYOND} beyond it when there are more than {TAIL_BEYOND})")
        print(f"setup samples: {', '.join(f'{s:.4f}' for s in setup_samples)} s")
        if len(plain.op_marks) > 1:
            print("seconds per operation: " + ", ".join(
                f"{label} {plain.latency(label):.3f}" for label in plain.op_marks))
    else:
        # untraced and traced passes alternate, so that both see the same
        # host conditions and their ratio measures the tracing overhead
        tracer = Tracer()
        hooks = trace_hooks(tracer)
        for _ in range(TRACE_PAIRS):
            plain.run_pass(operations)
            tracer.install(hooks)
            try:
                traced.run_pass(operations, tracer)
            finally:
                tracer.uninstall()
        best = min(range(len(traced.pass_seconds)), key=traced.pass_seconds.__getitem__)
        lo, hi, counters = traced.pass_spans[best]
        metrics = layer_metrics(tracer, lo, hi, counters)
        metrics["trace.overhead_ratio"] = (traced.wall_s() / plain.wall_s(), "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{args.workload}.spans.tsv.gz"
        tracer.write(span_file, {"workload": args.workload, "seed": args.seed, "env": env,
                                 "reported_pass": best, "spans": tracer.span_count()})
        print(f"passes: {len(plain.pass_seconds)} untraced, {len(traced.pass_seconds)} traced; "
              f"{tracer.span_count()} spans written to {span_file.relative_to(ROOT)}")
        total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        print("layer self time, fastest traced pass:")
        for layer in LAYERS:
            sec = metrics[f"{layer}.self_s"][0]
            print(f"  {layer:8s} {sec:9.3f} s  {100 * sec / total if total else 0:5.1f}%  "
                  f"{metrics[f'{layer}.calls'][0]:>9d} calls")

    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    for label, problems in failures:
        print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)
    print(f"error_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
