"""cProfile the F_5 resolution of the resolve-ladder workload and split its time by layer.

Usage, from the root of a checkout:

    python3 perfbench/profile_ladder.py [--seed 1]

This is the cross-check for the outside-in tracer (tracer.py): cProfile sees
private helpers and raw numpy calls, the tracer does not.  Time spent in a
function outside cxlab (numpy, builtins) is charged to the cxlab layers that
called it, in proportion to the time each caller spent in it.  cProfile adds
a cost to every Python call, which inflates the layers that make many small
calls; compare shares, not seconds.
"""
import argparse
import cProfile
import pstats
import sys
from collections import Counter
from pathlib import Path

from run import timed  # pins the BLAS threads and puts src/ on the path
from tracer import LAYERS
from workloads import ResolveLadder

HERE = Path(__file__).resolve().parent

PKG = str(HERE.parent / "src" / "cxlab")


def layer_of(func):
    path = func[0]
    if path.startswith(PKG):
        name = Path(path).stem
        return name if name in LAYERS else None
    return None


def split_by_layer(stats):
    """Self seconds per layer, charging non-cxlab time to the calling layers."""
    raw = stats.stats
    memo = {}

    def shares(func, seen=()):
        # fraction of func's own time owed to each layer, through its callers
        if func in memo:
            return memo[func]
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        callers = raw[func][4]
        total = sum(v[2] for v in callers.values())
        out = Counter()
        for caller, (_, _, tt, _) in callers.items():
            if total <= 0 or caller in seen:
                continue
            for lay, frac in shares(caller, seen + (func,)).items():
                out[lay] += frac * tt / total
        if not out:
            out["outside cxlab"] = 1.0
        memo[func] = out
        return out

    per_layer = Counter()
    for func, (_, _, tt, _, _) in raw.items():
        for lay, frac in shares(func).items():
            per_layer[lay] += frac * tt
    return per_layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workload = ResolveLadder()
    workload.setup(args.seed, HERE.parent)
    # the F_5 rung; the big-prime rung has the same shapes
    label, run, check = workload.operations()[-1]
    profiler = cProfile.Profile()
    profiler.enable()
    out, _ = timed(run, [])
    profiler.disable()
    problems = check(out)
    if problems:
        print("output check failed: " + "; ".join(problems), file=sys.stderr)
        return 1
    stats = pstats.Stats(profiler)
    per_layer = split_by_layer(stats)
    total = sum(per_layer.values())
    print(f"cProfile, resolve-ladder {label}, seed {args.seed}: {total:.3f} s profiled")
    for layer, sec in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {sec:8.3f} s  {100 * sec / total:5.1f}%")
    print("top functions by own time:")
    stats.sort_stats("tottime").print_stats(8)
    return 0


if __name__ == "__main__":
    sys.exit(main())
