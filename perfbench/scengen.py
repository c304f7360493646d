"""Seeded scenario texts for the ``scenario-batch`` workload.

Every generated scenario is a two-variable monomial complete intersection
``F_p[u,v]/(u^a, v^b)`` with the residue field, both glued test modules,
an operator cut and a cyclic cokernel, followed by betti, complexity, ext,
tor, projdim-check, symmetry, vartest and testci tasks (plus reduce where
allowed, see below).  The seed picks the prime, the variable names, the
cokernel's coefficient and the search seed of ``reduce``.  The exponent
pairs, the cut operator and the cokernel's exponents follow a fixed grid,
because they set the size of the work: drawn at random, they moved the
batch's median scenario latency by about 15% from seed to seed.

Generator constraints (measured on the engine at the time this benchmark
was written; keep them when extending the generator):

* Only monomial complete intersections.  A non-CI ring that resolves ``k``
  has exponential Betti growth: a three-variable non-monomial ring with a
  ``complexity k`` task ran for more than two minutes.
* ``reduce`` only when one exponent is 2.  A scenario with exponents up to
  ``(x^3, y^4)``, a reduce task and max degree 20 took 11 s; reduce on
  ``(3, 3)`` took 13 s and on ``(4, 4)`` 44 s at max degree 12, while with
  an exponent 2 it takes under 0.1 s.  Without reduce, ``(4, 4)`` at max
  degree 14 takes 1.7 s.
* Primes below 2**16, so the overflow-safe large-prime product path stays
  isolated in the big-prime resolution of the ``resolve-ladder`` workload.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

# (3, 4), (4, 3) and (4, 4) are left out to keep a pass short, so that a
# run holds ten passes
EXPONENT_GRID = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))
RESOLUTION_DEGREE = 10   # maxdeg of the betti, ext and tor tasks
WINDOW = 12              # RunOptions.max_degree: complexity and check windows
PRIME_LIMIT = 2 ** 16
VARIABLE_NAMES = ("u", "v", "w", "s", "t", "x", "y", "z")


@dataclass(frozen=True)
class GeneratedScenario:
    label: str
    text: str
    run_seed: int


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def _random_prime(rng: random.Random) -> int:
    n = rng.randrange(3, PRIME_LIMIT)
    while not _is_prime(n):
        n = n + 1 if n + 1 < PRIME_LIMIT else 3
    return n


def generate(seed: int) -> List[GeneratedScenario]:
    rng = random.Random(seed)
    out = []
    for slot, (a, b) in enumerate(EXPONENT_GRID):
        p = _random_prime(rng)
        x, y = rng.sample(VARIABLE_NAMES, 2)
        j = 1 + slot % 2
        s, t = a - 1, b - 1
        c = rng.randrange(1, p)
        lines = [
            f"# generated: seed {seed}, exponents ({a}, {b})",
            f"field p = {p}",
            f"ring A = [{x},{y}] / ({x}^{a}, {y}^{b})",
            "module k = k A",
            "module T1 = kchi A j=1",
            "module T2 = kchi A j=2",
            f"module C = cut k j={j}",
            f"module M = coker A [[{x}^{s}, {c}*{y}^{t}]] degrees [0]",
            f"task betti k maxdeg={RESOLUTION_DEGREE}",
            "task complexity k",
            f"task ext k T{j} maxdeg={RESOLUTION_DEGREE}",
            f"task tor k k maxdeg={RESOLUTION_DEGREE}",
            "task complexity C",
            "task projdim-check M",
            "task symmetry k T1",
            "task vartest k tests=T1,T2 t=1",
            "task testci k t=1 q=1 n=2 tests=M,T1,T2",
        ]
        if 2 in (a, b):
            lines.append("task reduce k maxdeg=4")
        out.append(GeneratedScenario(
            label=f"gen-{a}x{b}",
            text="\n".join(lines) + "\n",
            run_seed=rng.randrange(1000),
        ))
    return out
