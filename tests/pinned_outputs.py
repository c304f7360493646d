"""Pinned-output checks: five SHA-1s over outputs a change must not alter.

    python tests/pinned_outputs.py

The 60 generated scenario reports (seeds 0-9 of perfbench/scengen.py), every
report's JSON concatenated in order, and the reduction search over (x^3,y^3),
(x^4,y^4), (x^2,y^3,z^4) and (x^3,y^3,z^2) at window 12.  The goldens and the
generated scenarios search only rings with an exponent 2 in two variables;
the second check pins codimension-3 searches and searches without a quadric,
and (x^3,y^3,z^2) pushes out candidates that pass the screen and lose on the
full window.  The third pins rings that are not monomial, at p = 5, 7 and
2^31 - 1: Gasharov and Peeva's ring with its periodic module (reduce,
complexity, ext, tor and symmetry) and k over [x,y]/(x^2+3y^2, xy) (betti,
reduce and complexity).  The fourth pins the canonical bases, the
generator images of every differential, of resolutions over monomial
complete intersections at p = 2, 5 and 2^31 - 1 and of Gasharov's module.
The fifth is the report of the scenario example in README.md, read from
it and run with the default options: the only text outside the tests that
declares a `sum` module, and it also builds a syzygy, a kchi and a cut and
runs verify-complex.  A change of any number in a report changes its
hash.  Prints each digest and exits non-zero when one differs from its pin.
The name does not match test_*.py, so pytest does not collect it.
"""
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cxlab.cxcli import RunOptions, _Workspace, parse_scenario, run  # noqa: E402
from cxlab.resol import resolve  # noqa: E402
from oracles import diff_images  # noqa: E402
from scengen import WINDOW, generate  # noqa: E402

PINNED = {
    "scenarios": "f8121250a27b62ce4f0177dc7880f4fd39bab8bb",
    "reduce": "3a1afbc9a8cb7ebdae91263387a4ccaa6aa2b891",
    "nonmonomial": "491b01327b5cd52b69cf0d09f44b22fdde95ff17",
    "resolutions": "0eabe8a3f17c204e10a180211b7fd51d492f72bc",
    "readme": "0bcede919ddecf306235876df1d5c0c6de51ab3a",
}

GASHAROV = """ring G = [x1,x2,x3,x4,x5] / (x1^2, x2^2, x5^2, x3*x4, x3*x5, x4*x5, x1*x4+x2*x4, 2*x1*x3+x2*x3, x3^2-x2*x5+2*x1*x5, x4^2-x2*x5+x1*x5)
module M = coker G [[x1,2*x3+x4],[0,x2]] degrees [0,0]
module S = syzygy M i=1
task reduce M maxdeg=4
task complexity M
task ext M M maxdeg=8
task tor M S maxdeg=8
task symmetry M S
"""

QUADRIC = """ring B = [x,y] / (x^2+3*y^2, x*y)
module k = k B
task betti k maxdeg=12
task reduce k maxdeg=4
task complexity k
"""


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


def nonmonomial_digest() -> str:
    digest = hashlib.sha1()
    for p in (5, 7, 2**31 - 1):
        for body in (GASHAROV, QUADRIC):
            text = f"field p = {p}\n{body}"
            digest.update(run(parse_scenario(text), RunOptions(max_degree=12)).to_json().encode())
    return digest.hexdigest()


def resolutions_digest() -> str:
    digest = hashlib.sha1()
    runs = [(p, f"ring A = {ring}\nmodule k = k A\n", "k", n) for p in (2, 5, 2**31 - 1)
            for ring, n in (("[x,y,z] / (x^2, y^2, z^2)", 12), ("[a,b,c,d] / (a^2, b^2, c^2, d^2)", 8),
                            ("[x,y,z] / (x^3, y^3, z^2)", 10))]
    runs += [(p, GASHAROV, "M", 12) for p in (5, 2**31 - 1)]
    for p, body, name, n in runs:
        res = resolve(_Workspace(parse_scenario(f"field p = {p}\n{body}"), RunOptions()).mods[name], n)
        for i in range(n + 1):
            d = diff_images(res, i)
            digest.update(f"{d.shape}".encode())
            digest.update(d.a.tobytes())
    return digest.hexdigest()


def readme_digest() -> str:
    text = (ROOT / "README.md").read_text()
    example = text.split("## Scenario files", 1)[1].split("```\n", 2)[1]
    return hashlib.sha1(run(parse_scenario(example), RunOptions()).to_json().encode()).hexdigest()


def main() -> int:
    failed = False
    for name, compute in (("scenarios", scenarios_digest), ("reduce", reduce_digest),
                          ("nonmonomial", nonmonomial_digest), ("resolutions", resolutions_digest),
                          ("readme", readme_digest)):
        got = compute()
        ok = got == PINNED[name]
        failed |= not ok
        print(f"{name}: {got} {'ok' if ok else 'expected ' + PINNED[name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
