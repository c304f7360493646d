"""Scenario files, task runner, reports and the ``cxlab`` command line tool.

Scenario grammar (one statement per line, ``#`` comments, ASCII names and
integers; MODULE_SLOTS and TASK_SLOTS give each builder's and task's
arguments, which one parser reads and one printer writes):

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


def _statement_lines(text: str) -> List[List[Token]]:
    """The tokens of each line that holds a statement, cut at '#' and closed
    by tokenize_line's END token.  Lines end only at a line feed, the
    character that the line numbers of errors count; a carriage return, a
    form feed, U+2028 and the other breaks of str.splitlines are whitespace
    within a line.  Every line is tokenized before any is parsed, so a bad
    character is reported before a grammar error on an earlier line."""
    lines = [tokenize_line(raw.split("#", 1)[0], n) for n, raw in enumerate(text.split("\n"), start=1)]
    return [tokens for tokens in lines if len(tokens) > 1]


# -- AST ----------------------------------------------------------------------


@dataclass
class FieldDecl:
    p: int


@dataclass
class RingDecl:
    name: str
    varnames: Tuple[str, ...]
    relations: Tuple[Polynomial, ...]


@dataclass
class ModuleDecl:
    name: str
    kind: str                       # a key of MODULE_SLOTS
    ring: str
    args: dict                      # slot: value, one for each of MODULE_SLOTS[kind]


@dataclass
class TaskDecl:
    kind: str                       # a key of TASK_SLOTS
    args: dict                      # slot: value, one for each of TASK_SLOTS[kind]

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
    """Parses one statement from each statement line: the stream holds that
    line's tokens while its statement is parsed."""

    def __init__(self, text: str):
        super().__init__([])
        self.lines = _statement_lines(text)
        self.last_line = text.count("\n") + 1
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

    def end_statement(self):
        if self.peek().kind != "END":
            self.fail("expected end of line")

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
        if not self.lines:
            raise ScenarioError("expected 'field'", self.last_line + 1, 1)
        parsers = {"ring": self.parse_ring, "module": self.parse_module, "task": self.parse_task}
        statements = []
        for tokens in self.lines:
            self.tokens, self.pos = tokens, 0
            tok = self.peek()
            word = tok.value if tok.kind == "IDENT" else None
            if not statements:
                statements.append(self.parse_field())  # "expected 'field'" at any other word
            elif word == "field":
                self.fail("duplicate 'field' declaration")
            elif word not in parsers:
                self.fail("expected 'ring', 'module' or 'task'")
            else:
                statements.append(parsers[word]())
            self.end_statement()
        tasks = tuple(decl for decl in statements if isinstance(decl, TaskDecl))
        return Scenario(statements[0], tuple(statements[1:]), dict(self.rings), dict(self.modules), tasks)

    def parse_field(self) -> FieldDecl:
        self.expect_keyword("field")
        self.expect_keyword("p")
        self.expect_sym("=")
        ptok = self.peek()
        p = self.expect_int("prime")
        try:
            self.fp = Field(p)
        except InputError as exc:
            raise ScenarioError(str(exc), ptok.line, ptok.col) from exc
        return FieldDecl(p)

    def parse_ring(self) -> RingDecl:
        self.expect_keyword("ring")
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
        decl = RingDecl(name, tuple(varnames), tuple(relations))
        self.rings[name] = decl
        return decl

    def parse_module(self) -> ModuleDecl:
        self.expect_keyword("module")
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
        decl = ModuleDecl(name, kind_tok.value, ring, args)
        self.modules[name] = decl
        return decl

    def parse_task(self) -> TaskDecl:
        self.expect_keyword("task")
        kind = self.parse_task_name()
        return TaskDecl(kind, self.parse_slots(TASK_SLOTS[kind], task=True))

    def parse_task_name(self) -> str:
        parts = [self.expect_ident("task name").value]
        while self.at("-"):
            self.take()
            parts.append(self.expect_ident("task name").value)
        name = "-".join(parts)
        if name not in TASK_KINDS:
            self.fail(f"unknown task {name!r}")
        return name

    def parse_slots(self, slots: Tuple[str, ...], task: bool = False) -> dict:
        """Read the argument slots in order (see MODULE_SLOTS).  In a task,
        every module named after its first (module2 and each of tests) must
        be over the first's ring."""
        args: dict = {}
        for slot in slots:
            if slot == "degrees":
                self.expect_keyword("degrees")
            elif slot not in _BARE_SLOTS:
                self.expect_keyword(slot)
                self.expect_sym("=")
            if slot == "ring":
                args[slot] = self.ref_ring()
            elif slot == "module":
                args[slot] = self.ref_module()
            elif slot == "module2":
                args[slot] = self.ref_module(args["module"] if task else None)
            elif slot == "matrix":
                args[slot] = self.parse_matrix(self.rings[args["ring"]].varnames)
            elif slot == "matrices":
                args[slot] = self.parse_matrix_list(self.rings[args["ring"]].varnames)
            elif slot == "degrees":
                args[slot] = self.parse_int_list()
            elif slot == "tests":
                args[slot] = tuple(self.comma_list(lambda: self.ref_module(args["module"])))
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

    def ref_module(self, beside: Optional[str] = None) -> str:
        """A module name; with beside, a module over the same ring as the
        module beside."""
        tok = self.expect_ident("module name")
        if tok.value not in self.modules:
            self.fail(f"unknown module {tok.value!r}", tok)
        if beside is not None:
            ring, want = self.modules[tok.value].ring, self.modules[beside].ring
            if ring != want:
                self.fail(f"module {tok.value!r} is over ring {ring!r}, module {beside!r} over {want!r}", tok)
        return tok.value

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
            tests.append(ws.mods[name])
        v = vartest_check(ws.mods[a["module"]], tests, t, opts.max_degree)
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
    except (OSError, UnicodeDecodeError) as exc:
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
