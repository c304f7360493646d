"""Pinned-output checks: two SHA-1s over reports a change must not alter.

    python tests/pinned_outputs.py

The 60 generated scenario reports (seeds 0-9 of perfbench/scengen.py), every
report's JSON concatenated in order, and the reduction search over (x^3,y^3),
(x^4,y^4), (x^2,y^3,z^4) and (x^3,y^3,z^2) at window 12.  The goldens and the
generated scenarios search only rings with an exponent 2 in two variables;
the second check pins codimension-3 searches and searches without a quadric,
and (x^3,y^3,z^2) pushes out candidates that pass the screen and lose on the
full window.  A change of any number in a report changes its hash.  Prints
each digest and exits non-zero when one differs from its pin.  The name does
not match test_*.py, so pytest does not collect it.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cxlab.cxcli import RunOptions, parse_scenario, run  # noqa: E402
from scengen import WINDOW, generate  # noqa: E402

PINNED = {
    "scenarios": "f8121250a27b62ce4f0177dc7880f4fd39bab8bb",
    "reduce": "3a1afbc9a8cb7ebdae91263387a4ccaa6aa2b891",
}


def scenarios_digest() -> str:
    digest = hashlib.sha1()
    for seed in range(10):
        for g in generate(seed):
            options = RunOptions(max_degree=WINDOW, seed=g.run_seed)
            digest.update(run(parse_scenario(g.text), options).to_json().encode())
    return digest.hexdigest()


def reduce_digest() -> str:
    digest = hashlib.sha1()
    for ring in ("[x,y] / (x^3, y^3)", "[x,y] / (x^4, y^4)", "[x,y,z] / (x^2, y^3, z^4)",
                 "[x,y,z] / (x^3, y^3, z^2)"):
        text = f"field p = 5\nring A = {ring}\nmodule k = k A\ntask reduce k maxdeg=4\n"
        digest.update(run(parse_scenario(text), RunOptions(max_degree=12)).to_json().encode())
    return digest.hexdigest()


def main() -> int:
    failed = False
    for name, compute in (("scenarios", scenarios_digest), ("reduce", reduce_digest)):
        got = compute()
        ok = got == PINNED[name]
        failed |= not ok
        print(f"{name}: {got} {'ok' if ok else 'expected ' + PINNED[name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
