"""Scenario files, task runner, reports and the ``cxlab`` command line tool.

Scenario grammar (line oriented, ``#`` comments, ASCII names and integers;
MODULE_SLOTS and TASK_SLOTS give each builder's and task's arguments, which
one parser reads and one printer writes):

    field p = <prime>
    ring <name> = [<var>, ...] / (<poly>, ...)
    module <name> = coker <ring> [[<poly>, ...], ...] degrees [<d>, ...]
                  | k <ring> | kchi <ring> j=<j> | cut <module> j=<j>
                  | syzygy <module> i=<i> | sum <m1> <m2>
    task betti <module> maxdeg=<N> | complexity <module>
         | ext <M> <N> maxdeg=<N> | tor <M> <N> maxdeg=<N>
         | verify-complex <ring> matrices=[...] range=<a>..<b>
         | reduce <module> maxdeg=<t> | projdim-check <module>
         | symmetry <M> <N> | vartest <M> tests=<T1,...> t=<t>
         | testci <M> t=<t> q=<q> n=<n> tests=<T1,...>

Reports serialize to aligned text (with timings) and to a versioned JSON
schema; the JSON carries no wall-clock data, so rerunning a scenario with
the same seed reproduces it byte for byte.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .errors import InputError, ScenarioError
from .exactla import Field
from .gralg import Algebra, Polynomial, Token, TokenStream, build_algebra, parse_poly_tokens, tokenize_line
from .gmod import Module, coker_presentation, direct_sum, residue_field
from .resol import estimate_complexity, resolve, syzygy, verify_complex
from .yoneda import (
    ext_table,
    reduction_sequence,
    self_ext_pd_check,
    symmetry_check,
    tor_table,
)
from .cioper import MonomialCI, cut_by_chi, eisenbud_operators, testci_run, vartest_check

__all__ = ["parse_scenario", "print_scenario", "run", "RunOptions", "Report", "main"]

SCHEMA_VERSION = 1

# The syntax of every module builder and task: its argument slots in order.
# A ring, module or matrix slot is written bare, "degrees" as
# ``degrees [<d>, ...]`` and every other slot as ``<slot>=<value>``.
MODULE_SLOTS = {
    "coker": ("ring", "matrix", "degrees"),
    "k": ("ring",),
    "kchi": ("ring", "j"),
    "cut": ("module", "j"),
    "syzygy": ("module", "i"),
    "sum": ("module", "module2"),
}
TASK_SLOTS = {
    "betti": ("module", "maxdeg"),
    "complexity": ("module",),
    "ext": ("module", "module2", "maxdeg"),
    "tor": ("module", "module2", "maxdeg"),
    "verify-complex": ("ring", "matrices", "range"),
    "reduce": ("module", "maxdeg"),
    "projdim-check": ("module",),
    "symmetry": ("module", "module2"),
    "vartest": ("module", "tests", "t"),
    "testci": ("module", "t", "q", "n", "tests"),
}
TASK_KINDS = set(TASK_SLOTS)
_BARE_SLOTS = {"ring", "module", "module2", "matrix"}


# -- tokens -------------------------------------------------------------------


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens += tokenize_line(line, lineno)
        if tokens and tokens[-1].kind != "NEWLINE":
            tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    last_line = text.count("\n") + 1
    tokens.append(Token("EOF", "", last_line + 1, 1))
    return tokens


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class SrcLoc:
    line: int
    col: int


_NOLOC = SrcLoc(0, 0)


@dataclass
class FieldDecl:
    p: int
    loc: SrcLoc = dc_field(default=_NOLOC, compare=False)


@dataclass
class RingDecl:
    name: str
    varnames: Tuple[str, ...]
    relations: Tuple[Polynomial, ...]
    loc: SrcLoc = dc_field(default=_NOLOC, compare=False)


@dataclass
class ModuleDecl:
    name: str
    kind: str                       # a key of MODULE_SLOTS
    ring: str
    args: dict                      # slot: value, one for each of MODULE_SLOTS[kind]
    loc: SrcLoc = dc_field(default=_NOLOC, compare=False)


@dataclass
class TaskDecl:
    kind: str                       # a key of TASK_SLOTS
    args: dict                      # slot: value, one for each of TASK_SLOTS[kind]
    loc: SrcLoc = dc_field(default=_NOLOC, compare=False)

    def label(self) -> str:
        parts = [self.kind]
        for key in ("module", "module2", "ring"):
            if key in self.args:
                parts.append(str(self.args[key]))
        return " ".join(parts)


@dataclass
class Scenario:
    field_decl: FieldDecl
    decls: Tuple[object, ...]
    rings: Dict[str, RingDecl] = dc_field(default_factory=dict, compare=False)
    modules: Dict[str, ModuleDecl] = dc_field(default_factory=dict, compare=False)
    tasks: Tuple[TaskDecl, ...] = dc_field(default=(), compare=False)


# -- parser -------------------------------------------------------------------


class _Parser(TokenStream):
    def __init__(self, text: str):
        super().__init__(_tokenize(text))  # kinds IDENT, INT, SYM, NEWLINE, EOF
        self.fp: Optional[Field] = None
        self.rings: Dict[str, RingDecl] = {}
        self.modules: Dict[str, ModuleDecl] = {}

    # token helpers
    def fail(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ScenarioError(message, tok.line, tok.col)

    def expect_sym(self, sym: str) -> Token:
        if not self.at(sym):
            self.fail(f"expected '{sym}'")
        return self.take()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}")
        return self.take()

    def expect_int(self, what: str = "integer") -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected {what}")
        return int(self.take().value)

    def expect_keyword(self, word: str):
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            self.fail(f"expected '{word}'")
        return self.take()

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.take()

    def end_statement(self):
        tok = self.peek()
        if tok.kind == "EOF":
            return
        if tok.kind != "NEWLINE":
            self.fail("expected end of line")
        self.take()

    def comma_list(self, item: Callable[[], object], close: Optional[str] = None) -> list:
        """item(), then ', ' item() while a comma follows.  With close the
        list may be empty, which close as the next token shows; close itself
        is left to the caller."""
        if close is not None and self.at(close):
            return []
        items = [item()]
        while self.at(","):
            self.take()
            items.append(item())
        return items

    # grammar
    def parse(self) -> Scenario:
        self.skip_newlines()
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != "field":
            self.fail("expected 'field'")
        field_decl = self.parse_field()
        decls: List[object] = []
        tasks: List[TaskDecl] = []
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind == "EOF":
                break
            if tok.kind != "IDENT":
                self.fail("expected 'ring', 'module' or 'task'")
            if tok.value == "ring":
                decl = self.parse_ring()
            elif tok.value == "module":
                decl = self.parse_module()
            elif tok.value == "task":
                decl = self.parse_task()
                tasks.append(decl)
            elif tok.value == "field":
                self.fail("duplicate 'field' declaration")
            else:
                self.fail("expected 'ring', 'module' or 'task'")
            decls.append(decl)
        return Scenario(field_decl, tuple(decls), dict(self.rings), dict(self.modules), tuple(tasks))

    def parse_field(self) -> FieldDecl:
        tok = self.expect_keyword("field")
        self.expect_keyword("p")
        self.expect_sym("=")
        ptok = self.peek()
        p = self.expect_int("prime")
        try:
            self.fp = Field(p)
        except InputError as exc:
            raise ScenarioError(str(exc), ptok.line, ptok.col) from exc
        self.end_statement()
        return FieldDecl(p, SrcLoc(tok.line, tok.col))

    def parse_ring(self) -> RingDecl:
        tok = self.expect_keyword("ring")
        name_tok = self.expect_ident("ring name")
        name = name_tok.value
        if name in self.rings or name in self.modules:
            self.fail(f"name {name!r} already defined", name_tok)
        self.expect_sym("=")
        self.expect_sym("[")
        varnames = self.comma_list(lambda: self.expect_ident("variable name").value, "]")
        self.expect_sym("]")
        if len(set(varnames)) != len(varnames):
            self.fail("duplicate variable name", name_tok)
        self.expect_sym("/")
        self.expect_sym("(")

        def relation() -> Polynomial:
            ptok = self.peek()
            poly = parse_poly_tokens(self, varnames, self.fp)
            if poly.degree() is None or poly.degree() < 1:
                raise ScenarioError("relation must be homogeneous of degree >= 1", ptok.line, ptok.col)
            return poly

        relations = self.comma_list(relation, ")")
        self.expect_sym(")")
        self.end_statement()
        decl = RingDecl(name, tuple(varnames), tuple(relations), SrcLoc(tok.line, tok.col))
        self.rings[name] = decl
        return decl

    def parse_module(self) -> ModuleDecl:
        tok = self.expect_keyword("module")
        name_tok = self.expect_ident("module name")
        name = name_tok.value
        if name in self.rings or name in self.modules:
            self.fail(f"name {name!r} already defined", name_tok)
        self.expect_sym("=")
        kind_tok = self.expect_ident("module builder")
        if kind_tok.value not in MODULE_SLOTS:
            self.fail(f"expected one of: {', '.join(MODULE_SLOTS)}", kind_tok)
        args = self.parse_slots(MODULE_SLOTS[kind_tok.value])
        ring = args["ring"] if "ring" in args else self.modules[args["module"]].ring
        if len(args.get("degrees", ())) != len(args.get("matrix", ())):
            self.fail("degree count does not match matrix rows", name_tok)
        if "j" in args and not 1 <= args["j"] <= len(self.rings[ring].varnames):
            self.fail(f"j={args['j']} out of range for ring {ring!r}", name_tok)
        if "module2" in args and self.modules[args["module2"]].ring != ring:
            self.fail("sum of modules over different rings", name_tok)
        self.end_statement()
        decl = ModuleDecl(name, kind_tok.value, ring, args, SrcLoc(tok.line, tok.col))
        self.modules[name] = decl
        return decl

    def parse_task(self) -> TaskDecl:
        tok = self.expect_keyword("task")
        kind = self.parse_task_name()
        args = self.parse_slots(TASK_SLOTS[kind])
        self.end_statement()
        return TaskDecl(kind, args, SrcLoc(tok.line, tok.col))

    def parse_task_name(self) -> str:
        parts = [self.expect_ident("task name").value]
        while self.at("-"):
            self.take()
            parts.append(self.expect_ident("task name").value)
        name = "-".join(parts)
        if name not in TASK_KINDS:
            self.fail(f"unknown task {name!r}")
        return name

    def parse_slots(self, slots: Tuple[str, ...]) -> dict:
        """Read the argument slots in order (see MODULE_SLOTS)."""
        args: dict = {}
        for slot in slots:
            if slot == "degrees":
                self.expect_keyword("degrees")
            elif slot not in _BARE_SLOTS:
                self.expect_keyword(slot)
                self.expect_sym("=")
            if slot == "ring":
                args[slot] = self.ref_ring()
            elif slot in ("module", "module2"):
                args[slot] = self.ref_module()
            elif slot == "matrix":
                args[slot] = self.parse_matrix(self.rings[args["ring"]].varnames)
            elif slot == "matrices":
                args[slot] = self.parse_matrix_list(self.rings[args["ring"]].varnames)
            elif slot == "degrees":
                args[slot] = self.parse_int_list()
            elif slot == "tests":
                args[slot] = self.parse_module_list()
            elif slot == "range":
                args[slot] = self.parse_range(len(args["matrices"]))
            else:
                args[slot] = self.expect_int()
        return args

    def ref_ring(self) -> str:
        tok = self.expect_ident("ring name")
        if tok.value not in self.rings:
            self.fail(f"unknown ring {tok.value!r}", tok)
        return tok.value

    def ref_module(self) -> str:
        tok = self.expect_ident("module name")
        if tok.value not in self.modules:
            self.fail(f"unknown module {tok.value!r}", tok)
        return tok.value

    def parse_module_list(self) -> Tuple[str, ...]:
        return tuple(self.comma_list(self.ref_module))

    def parse_range(self, count: int) -> Tuple[int, int]:
        """``a..b``, one index for each of ``count`` matrices."""
        a = self.expect_int("range start")
        self.expect_sym("..")
        b = self.expect_int("range end")
        if b < a:
            self.fail("empty range")
        if b - a + 1 != count:
            self.fail(f"range {a}..{b} needs {b - a + 1} matrices, got {count}")
        return a, b

    def parse_int_list(self) -> Tuple[int, ...]:
        def signed() -> int:
            negative = self.at("-")
            if negative:
                self.take()
            v = self.expect_int()
            return -v if negative else v

        self.expect_sym("[")
        vals = self.comma_list(signed, "]")
        self.expect_sym("]")
        return tuple(vals)

    def parse_matrix(self, varnames: Tuple[str, ...]) -> tuple:
        def row() -> tuple:
            self.expect_sym("[")
            entries = self.comma_list(lambda: parse_poly_tokens(self, varnames, self.fp), "]")
            self.expect_sym("]")
            return tuple(entries)

        self.expect_sym("[")
        rows = self.comma_list(row)
        self.expect_sym("]")
        if len({len(r) for r in rows}) > 1:
            self.fail("ragged matrix")
        return tuple(rows)

    def parse_matrix_list(self, varnames: Tuple[str, ...]) -> tuple:
        self.expect_sym("[")
        mats = self.comma_list(lambda: self.parse_matrix(varnames))
        self.expect_sym("]")
        return tuple(mats)


def parse_scenario(text: str) -> Scenario:
    """Parse and semantically validate a scenario; errors carry line:col."""
    return _Parser(text).parse()


# -- canonical printer --------------------------------------------------------


def _matrix_text(matrix: tuple, varnames: Tuple[str, ...]) -> str:
    rows = []
    for row in matrix:
        rows.append("[" + ",".join(e.text(varnames) for e in row) + "]")
    return "[" + ",".join(rows) + "]"


def print_scenario(scenario: Scenario) -> str:
    """Canonical text form; reparsing yields an AST equal to the original."""
    out = [f"field p = {scenario.field_decl.p}"]
    for decl in scenario.decls:
        if isinstance(decl, RingDecl):
            rels = ", ".join(g.text(decl.varnames) for g in decl.relations)
            out.append(f"ring {decl.name} = [{','.join(decl.varnames)}] / ({rels})")
        elif isinstance(decl, ModuleDecl):
            out.append(f"module {decl.name} = {decl.kind} "
                       + _slots_text(scenario, MODULE_SLOTS[decl.kind], decl.args))
        else:
            out.append(f"task {decl.kind} " + _slots_text(scenario, TASK_SLOTS[decl.kind], decl.args))
    return "\n".join(out) + "\n"


def _slots_text(scenario: Scenario, slots: Tuple[str, ...], args: dict) -> str:
    """The argument slots as parse_slots reads them."""
    parts = []
    for slot in slots:
        value = args[slot]
        if slot in ("matrix", "matrices"):
            names = scenario.rings[args["ring"]].varnames
            value = (_matrix_text(value, names) if slot == "matrix"
                     else "[" + ",".join(_matrix_text(mx, names) for mx in value) + "]")
        elif slot == "degrees":
            value = f"[{','.join(map(str, value))}]"
        elif slot == "range":
            value = f"{value[0]}..{value[1]}"
        elif slot == "tests":
            value = ",".join(value)
        parts.append(f"{value}" if slot in _BARE_SLOTS
                     else f"degrees {value}" if slot == "degrees" else f"{slot}={value}")
    return " ".join(parts)


# -- runner -------------------------------------------------------------------


@dataclass
class RunOptions:
    max_degree: int = 20
    seed: int = 0


@dataclass
class TaskResult:
    label: str
    kind: str
    ok: bool
    result: Optional[dict]
    error: Optional[str]
    seconds: float

    def to_jsonable(self) -> dict:
        return {"task": self.label, "kind": self.kind, "ok": self.ok,
                "result": self.result, "error": self.error}


@dataclass
class Report:
    seed: int
    max_degree: int
    tasks: List[TaskResult]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tasks)

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA_VERSION,
            "engine": f"cxlab {__version__}",
            "seed": self.seed,
            "max_degree": self.max_degree,
            "ok": self.ok,
            "tasks": [t.to_jsonable() for t in self.tasks],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"cxlab {__version__}  (seed {self.seed}, max degree {self.max_degree})"]
        for t in self.tasks:
            status = "ok" if t.ok else "FAIL"
            lines.append(f"[{status}] {t.label}  ({t.seconds:.2f}s)")
            if t.error:
                lines.append(f"    error: {t.error}")
            elif t.result is not None:
                for key in sorted(t.result):
                    lines.append(f"    {key}: {_short(t.result[key])}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= 200 else text[:197] + "..."


class _Workspace:
    """Materialized rings and modules for one scenario run.

    Each ring has one residue field, each cut parent one operator set and
    each parent and j one cut, so ``kchi A j=<j>`` and ``cut k j=<j>`` are
    one module, and ``k``, ``kchi`` and ``cut`` share a resolution.

    ``cuts`` counts each module's operator cuts, by name: ``k`` has none,
    ``kchi`` one and ``cut`` one more than its parent; None where the count
    is unknown.
    """

    def __init__(self, scenario: Scenario, options: RunOptions):
        self.scenario = scenario
        self.options = options
        self.field = Field(scenario.field_decl.p)
        self.algebras: Dict[str, Algebra] = {}
        self.memo: dict = {}
        self.mods: Dict[str, Module] = {}
        self.cuts: Dict[str, Optional[int]] = {}
        for decl in scenario.decls:
            if isinstance(decl, RingDecl):
                self.algebras[decl.name] = build_algebra(
                    self.field, len(decl.varnames), list(decl.relations), varnames=decl.varnames
                )
            elif isinstance(decl, ModuleDecl):
                self.mods[decl.name] = self._build_module(decl)
                if decl.kind == "cut":
                    parent = self.cuts[decl.args["module"]]
                    self.cuts[decl.name] = None if parent is None else parent + 1
                else:
                    self.cuts[decl.name] = {"k": 0, "kchi": 1}.get(decl.kind)

    def _once(self, key: tuple, build: Callable[[], object]):
        """build(), made once per key; a parent module is keyed by its id."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def _build_module(self, decl: ModuleDecl) -> Module:
        A = self.algebras[decl.ring]
        a = decl.args
        if decl.kind == "coker":
            entries = [[A.nf_polynomial(p) for p in row] for row in a["matrix"]]
            return coker_presentation(A, entries, list(a["degrees"]))
        k = lambda: self._once(("k", decl.ring), lambda: residue_field(A))
        if decl.kind == "k":
            return k()
        if decl.kind in ("kchi", "cut"):
            # kchi is the cut of the ring's k
            parent = k() if decl.kind == "kchi" else self.mods[a["module"]]
            ci = self._once(("ci", decl.ring), lambda: MonomialCI.from_algebra(A))
            ops = self._once(("operators", id(parent)), lambda: eisenbud_operators(ci, parent, 4))
            return self._once(("cut", id(parent), a["j"]), lambda: cut_by_chi(ops, a["j"]).module)
        if decl.kind == "syzygy":
            return syzygy(self.mods[a["module"]], a["i"])
        if decl.kind == "sum":
            return direct_sum(self.mods[a["module"]], self.mods[a["module2"]])
        raise InputError(f"unknown module builder {decl.kind!r}")


def _betti_text(betti: List[int]) -> str:
    head = "n:    " + " ".join(f"{i:>4}" for i in range(len(betti)))
    vals = "beta: " + " ".join(f"{b:>4}" for b in betti)
    return head + "\n" + vals


def _run_task(ws: _Workspace, task: TaskDecl) -> dict:
    a = task.args
    opts = ws.options
    if task.kind == "betti":
        betti = resolve(ws.mods[a["module"]], a["maxdeg"]).betti_list(a["maxdeg"])
        return {"ok": True, "betti": betti, "table": _betti_text(betti)}
    if task.kind == "complexity":
        est = estimate_complexity(
            resolve(ws.mods[a["module"]], opts.max_degree).betti_list(opts.max_degree)
        )
        return {"ok": True, **est.to_jsonable()}
    if task.kind in ("ext", "tor"):
        fn = ext_table if task.kind == "ext" else tor_table
        table = fn(ws.mods[a["module"]], ws.mods[a["module2"]], a["maxdeg"])
        return {"ok": True, "dims": table}
    if task.kind == "verify-complex":
        A = ws.algebras[a["ring"]]
        mats = [[[A.nf_polynomial(p) for p in row] for row in mx] for mx in a["matrices"]]
        report = verify_complex(A, mats, start_index=a["range"][0])
        return {"ok": report.ok, **report.to_jsonable()}
    if task.kind == "reduce":
        seq, transcript = reduction_sequence(
            ws.mods[a["module"]], a["maxdeg"], seed=opts.seed, window=opts.max_degree
        )
        return {
            "ok": True,
            "found": seq is not None,
            "sequence": seq.to_jsonable() if seq else None,
            "transcript": transcript,
        }
    if task.kind == "projdim-check":
        v = self_ext_pd_check(ws.mods[a["module"]], opts.max_degree)
        return {"ok": v.ok, **v.to_jsonable()}
    if task.kind == "symmetry":
        v = symmetry_check(ws.mods[a["module"]], ws.mods[a["module2"]], opts.max_degree)
        return {"ok": v.ok, **v.to_jsonable()}
    if task.kind == "vartest":
        t = a["t"]
        tests = []
        for name in a["tests"]:
            if ws.cuts[name] != t:
                built = ("was not built from k by kchi or cut, so it has no cut size" if ws.cuts[name] is None
                         else f"was built with {ws.cuts[name]} coordinate cuts")
                raise InputError(f"test module {name!r} {built}, task declares t={t}")
            tests.append((ws.mods[name], t))
        v = vartest_check(ws.mods[a["module"]], tests, opts.max_degree)
        return {"ok": v.ok, **v.to_jsonable()}
    if task.kind == "testci":
        tests = [ws.mods[name] for name in a["tests"]]
        v = testci_run(ws.mods[a["module"]], a["t"], a["q"], a["n"], tests,
                       test_names=list(a["tests"]))
        return {"ok": v.ok, **v.to_jsonable()}
    raise InputError(f"unknown task kind {task.kind!r}")


def run(scenario: Scenario, options: Optional[RunOptions] = None) -> Report:
    """Execute every task in order; failures are isolated per task.

    Ring and module construction happens up front; a failure there (for
    example a non-Artinian quotient, or an operator cut over a ring that is
    not a monomial complete intersection) aborts the whole run with an
    InputError since no task could be trusted afterwards.
    """
    options = options or RunOptions()
    ws = _Workspace(scenario, options)
    results: List[TaskResult] = []
    for task in scenario.tasks:
        started = time.perf_counter()
        try:
            payload = _run_task(ws, task)
            ok = bool(payload.pop("ok"))
            results.append(TaskResult(task.label(), task.kind, ok, payload, None,
                                      time.perf_counter() - started))
        except Exception as exc:  # isolate per task
            results.append(TaskResult(task.label(), task.kind, False, None,
                                      f"{type(exc).__name__}: {exc}",
                                      time.perf_counter() - started))
    return Report(options.seed, options.max_degree, results)


# -- command line -------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="cxlab",
                                     description="homological complexity lab over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--max-degree", type=int, default=20)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--out", default=None)
    p_check = sub.add_parser("check", help="parse a scenario file without running it")
    p_check.add_argument("file")
    args = parser.parse_args(argv)

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"OK: {len(scenario.tasks)} tasks, {len(scenario.rings)} rings, "
              f"{len(scenario.modules)} modules")
        return 0

    options = RunOptions(max_degree=args.max_degree, seed=args.seed)
    try:
        report = run(scenario, options)
    except InputError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    output = report.to_json() if args.json else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
