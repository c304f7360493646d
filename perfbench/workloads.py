"""The three benchmark workloads.

A workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``) and then exposes one *pass*: the fixed list of operations the
benchmark repeats ten times and times.  Each workload is sized so that a
pass takes 2 to 3 s on a quiet 2-vCPU host, so that ten passes fit the
38 s budget even when other tenants slow the host by half.  An operation
is one resolution, one search or one scenario, given as
``(label, run, check)``: ``run()`` does the timed work and returns its
output (or returns a generator that yields after each part of the work,
here each resolution step, and returns the output), and
``check(output)`` returns the problems found in it, an empty list when the
output is correct.

cxlab is imported inside ``setup`` so that the set-up time includes the
import of the package.
"""
from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path
from typing import Callable, List, Tuple

from scengen import WINDOW, generate

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
SHIPPED = ("quadric_ci.cx", "gasharov.cx")

Operation = Tuple[str, Callable[[], object], Callable[[object], List[str]]]

GASHAROV_VARS = ["x1", "x2", "x3", "x4", "x5"]
GASHAROV_RELATIONS = [
    "x1^2", "x2^2", "x5^2", "x3*x4", "x3*x5", "x4*x5",
    "x1*x4+x2*x4", "2*x1*x3+x2*x3",
    "x3^2-x2*x5+2*x1*x5", "x4^2-x2*x5+x1*x5",
]
GASHAROV_MATRIX = [["x1", "2*x3+x4"], ["0", "x2"]]


class ResolveLadder:
    """Resolve k over F_p[x,y,z]/(x^2,y^2,z^2) one step at a time, once over
    F_(2^31 - 1) to step 6 and once over F_5 to step 9.

    Both primes give the same matrix shapes.  At p = 5 the products and
    RREFs take the word-size path; at 2^31 - 1 every product goes through
    the overflow-safe chunked product, where a float64 product must not
    change the time.  The seed picks the variable names, the order of the
    relations and an internal degree shift of k; none of these changes the
    arithmetic, so every seed does the same work.
    """

    name = "resolve-ladder"
    # (prime, last step); F_5 last, so that the pass's last resolution step
    # is the largest one
    rungs = ((2 ** 31 - 1, 6), (5, 9))

    def setup(self, seed: int, root: Path):
        from cxlab.exactla import Field
        from cxlab.gralg import build_algebra, parse_polynomial

        rng = random.Random(seed)
        varnames = rng.sample(["x", "y", "z", "u", "v", "w", "a", "b", "c"], 3)
        rels = [f"{v}^2" for v in varnames]
        rng.shuffle(rels)
        self.shift = rng.randrange(-3, 4)
        self.algebras = []
        for p, top in self.rungs:
            field = Field(p)
            algebra = build_algebra(field, 3, [parse_polynomial(r, varnames, field) for r in rels],
                                    varnames=varnames)
            self.algebras.append((p, algebra, top))

    def operations(self) -> List[Operation]:
        return [(f"resolve-k-p{p}-to-{top}",
                 lambda A=A, top=top: self._resolve(A, top),
                 lambda res, top=top: self._check(res, top))
                for p, A, top in self.algebras]

    def _resolve(self, algebra, top):
        from cxlab.gmod import residue_field, shift
        from cxlab.resol import resolve

        module = shift(residue_field(algebra), self.shift)
        for n in range(top + 1):
            res = resolve(module, n)
            yield
        return res

    def _check(self, res, top) -> List[str]:
        problems = []
        for n, free in enumerate(res.frees):
            if free.rank != comb(n + 2, 2):
                problems.append(f"betti({n}) = {free.rank}, expected {comb(n + 2, 2)}")
            if set(free.gen_degrees) - {n + self.shift}:
                problems.append(f"F_{n} has generators outside degree {n + self.shift}")
        if len(res.frees) != top + 1:
            problems.append(f"resolution has {len(res.frees)} free modules, expected {top + 1}")
        return problems


class ReduceSearch:
    """find_reducing_element on the shipped Gasharov module, seed = workload seed."""

    name = "reduce-search"
    budget = 3
    max_search_degree = 8

    def setup(self, seed: int, root: Path):
        from cxlab.exactla import Field
        from cxlab.gralg import build_algebra, parse_polynomial

        self.seed = seed
        field = Field(5)
        self.field = field
        self.algebra = build_algebra(
            field, 5, [parse_polynomial(r, GASHAROV_VARS, field) for r in GASHAROV_RELATIONS],
            varnames=GASHAROV_VARS)
        self._fresh_module()  # the input module is part of set-up

    def _fresh_module(self):
        from cxlab.gmod import coker_presentation
        from cxlab.gralg import parse_polynomial

        A = self.algebra
        entries = [[A.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, self.field)) for s in row]
                   for row in GASHAROV_MATRIX]
        return coker_presentation(A, entries, [0, 0])

    def operations(self) -> List[Operation]:
        return [(f"search-seed-{self.seed}", self._search, self._check)]

    def _search(self):
        from cxlab.yoneda import find_reducing_element

        return find_reducing_element(self._fresh_module(), self.max_search_degree,
                                     seed=self.seed, budget=self.budget)

    @staticmethod
    def _check(found) -> List[str]:
        from cxlab.resol import resolve

        if found is None:
            return ["no reducing element found within the budget"]
        eta, push, est = found
        problems = []
        if eta.degree != 4:
            problems.append(f"reducing class in degree {eta.degree}, expected 4")
        if est.value != 0 or not est.stabilized:
            problems.append(f"pushout estimate {est.value} (stabilized={est.stabilized}), expected 0")
        if resolve(push.module, 2).betti(1) != 0:
            problems.append("pushout module is not free")
        return problems


class ScenarioBatch:
    """Seeded scenario texts plus the two shipped scenarios, through the CLI path."""

    name = "scenario-batch"

    def setup(self, seed: int, root: Path):
        import cxlab.cxcli  # noqa: F401  (the import is part of set-up)

        self.generated = generate(seed)
        self.shipped = []
        for name in SHIPPED:
            text = (root / "scenarios" / name).read_text(encoding="utf-8")
            golden = (GOLDEN_DIR / name.replace(".cx", ".json")).read_text(encoding="utf-8")
            self.shipped.append((name, text, golden))

    def operations(self) -> List[Operation]:
        from cxlab.cxcli import RunOptions

        ops = [(g.label, lambda t=g.text, o=RunOptions(max_degree=WINDOW, seed=g.run_seed): _execute(t, o),
                self._check_generated) for g in self.generated]
        ops += [(name, lambda t=text: _execute(t, RunOptions()),
                 lambda out, gold=golden: [] if out == gold else ["JSON differs from the golden copy"])
                for name, text, golden in self.shipped]
        return ops

    @staticmethod
    def _check_generated(out: str) -> List[str]:
        report = json.loads(out)
        problems = [f"task {t['task']!r} failed: {t['error'] or 'not ok'}"
                    for t in report["tasks"] if not t["ok"]]
        if not report["ok"] and not problems:
            problems.append("report not ok")
        checked = set()
        for t in report["tasks"]:
            res = t["result"]
            if not t["ok"] or t["task"] not in ("betti k", "complexity k", "tor k k"):
                continue
            checked.add(t["task"])
            if t["task"] == "betti k" and res["betti"] != list(range(1, len(res["betti"]) + 1)):
                problems.append(f"betti of k is {res['betti']}, expected n+1")
            elif t["task"] == "complexity k" and (res["value"] != 2 or not res["stabilized"]):
                problems.append(f"complexity k = {res['value']} (stabilized={res['stabilized']})")
            elif t["task"] == "tor k k" and res["dims"] != list(range(1, len(res["dims"]) + 1)):
                problems.append(f"Tor(k, k) is {res['dims']}, expected n+1")
        if not problems and len(checked) != 3:
            problems.append(f"invariant tasks missing from the report: got {sorted(checked)}")
        return problems


def _execute(text: str, options) -> str:
    """The user's CLI path: parse, run, serialize."""
    from cxlab.cxcli import parse_scenario, run

    return run(parse_scenario(text), options).to_json()


WORKLOADS = {w.name: w for w in (ResolveLadder, ReduceSearch, ScenarioBatch)}
