import json
import time

import pytest

from cxlab import cioper, cxcli
from cxlab.errors import ScenarioError
from cxlab.cxcli import RunOptions, main, parse_scenario, print_scenario, run
from cxlab.resol import MinimalFreeResolution
from conftest import SCENARIO_DIR

GASHAROV = (SCENARIO_DIR / "gasharov.cx").read_text()
QUADRIC = (SCENARIO_DIR / "quadric_ci.cx").read_text()
GOLDEN_DIR = SCENARIO_DIR.parent / "perfbench" / "golden"


def test_parse_gasharov_scenario():
    sc = parse_scenario(GASHAROV)
    assert len(sc.tasks) == 4
    assert [t.kind for t in sc.tasks] == ["verify-complex", "betti", "complexity", "symmetry"]
    assert set(sc.rings) == {"G"}
    assert set(sc.modules) == {"M", "S"}


def test_parse_empty_input():
    with pytest.raises(ScenarioError, match="expected 'field'"):
        parse_scenario("")
    with pytest.raises(ScenarioError, match="expected 'field'"):
        parse_scenario("# only a comment\n")


def test_parse_duplicate_module_name():
    text = "field p = 5\nring A = [x] / (x^2)\nmodule k = k A\nmodule k = k A\n"
    with pytest.raises(ScenarioError, match="already defined") as exc:
        parse_scenario(text)
    assert exc.value.line == 4


def test_parse_semantic_errors():
    with pytest.raises(ScenarioError, match="prime"):
        parse_scenario("field p = 6\n")
    with pytest.raises(ScenarioError, match="homogeneous"):
        parse_scenario("field p = 5\nring A = [x] / (x^2+x)\n")
    with pytest.raises(ScenarioError, match="unknown module"):
        parse_scenario("field p = 5\nring A = [x] / (x^2)\ntask betti B maxdeg=4\n")
    with pytest.raises(ScenarioError, match="unknown variable"):
        parse_scenario("field p = 5\nring A = [x] / (y^2)\n")
    with pytest.raises(ScenarioError, match="out of range"):
        parse_scenario("field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule T = kchi A j=3\n")


_RING = "field p = 5\nring A = [x,y] / (x^2,y^2)\n"
_K = _RING + "module k = k A\n"
# two modules over A and two over B, for tasks that name modules over two rings
_MIXED = _K + "module M = syzygy k i=1\nring B = [u] / (u^3)\nmodule kb = k B\nmodule S = syzygy kb i=1\n"


_PARSE_ERRORS = [
    ("ring A = [x] / (x^2)\n", "expected 'field'", 1, 1),
    # a scenario without a statement ends on the line after its last
    ("", "expected 'field'", 2, 1),
    ("# only a comment\n\n", "expected 'field'", 4, 1),
    ("field p = 5\nfield p = 7\n", "duplicate 'field' declaration", 2, 1),
    ("field p = 6\n", "field cardinality must be prime, got 6", 1, 11),
    ("field p = 5\nring A = [x,x] / (x^2)\n", "duplicate variable name", 2, 6),
    ("field p = 5\nring A = [x] / (x^2+x)\n", "relation must be homogeneous of degree >= 1", 2, 17),
    ("field p = 5\nring A = [x] / (y^2)\n", "unknown variable 'y'", 2, 17),
    (_RING + "module M = free A\n", "expected one of: coker, k, kchi, cut, syzygy, sum", 3, 12),
    (_RING + "module k = k B\n", "unknown ring 'B'", 3, 14),
    (_K + "module A = k A\n", "name 'A' already defined", 4, 8),
    (_RING + "module T = kchi A j=3\n", "j=3 out of range for ring 'A'", 3, 8),
    (_K + "module C = cut k j=0\n", "j=0 out of range for ring 'A'", 4, 8),
    (_K + "module S = syzygy k 2\n", "expected 'i'", 4, 21),
    (_RING + "module M = coker A [[x, y]] degrees [0, 1]\n", "degree count does not match matrix rows", 3, 8),
    (_RING + "module M = coker A [[x, y], [x]] degrees [0, 1]\n", "ragged matrix", 3, 34),
    (_RING + "module M = coker A [[x]] degs [0]\n", "expected 'degrees'", 3, 26),
    (_K + "ring B = [z] / (z^3)\nmodule l = k B\nmodule S = sum k l\n",
     "sum of modules over different rings", 6, 8),
    (_K + "task betti k\n", "expected 'maxdeg'", 4, 13),
    (_K + "task betti k maxdeg=x\n", "expected integer", 4, 21),
    (_K + "task frob k\n", "unknown task 'frob'", 4, 11),
    (_K + "task projdim check k\n", "unknown task 'projdim'", 4, 14),
    (_RING + "task verify-complex A matrices=[[[x]]] range=2..1\n", "empty range", 3, 50),
    (_RING + "task verify-complex A matrices=[[[x]],[[x]]] range=0..2\n",
     "range 0..2 needs 3 matrices, got 2", 3, 56),
    (_K + "task vartest k tests=k,T t=1\n", "unknown module 'T'", 4, 24),
    (_K + "task testci k t=1 q=1 n=2\n", "expected 'tests'", 4, 26),
    (_K + "task complexity k k\n", "expected end of line", 4, 19),
    (_K + "task complexity $k\n", "unexpected character '$'", 4, 17),
    (_MIXED + "task ext k kb maxdeg=3\n", "module 'kb' is over ring 'B', module 'k' over 'A'", 8, 12),
    (_MIXED + "task tor kb k maxdeg=3\n", "module 'k' is over ring 'A', module 'kb' over 'B'", 8, 13),
    (_MIXED + "task symmetry M S\n", "module 'S' is over ring 'B', module 'M' over 'A'", 8, 17),
    (_MIXED + "task vartest S tests=S,k t=1\n", "module 'k' is over ring 'A', module 'S' over 'B'", 8, 24),
    (_MIXED + "task testci M t=1 q=1 n=2 tests=M,kb\n", "module 'kb' is over ring 'B', module 'M' over 'A'", 8, 35),
    # only a line feed ends a line: a form feed or U+2028 is whitespace
    # within it, as an editor that shows one line reads it
    ("field p = 5\fring A = [x] / (y^2)\n", "expected end of line", 1, 13),
    ("field p = 5\nring A = [x] / (x^2)\u2028module k = k A\n", "expected end of line", 2, 22),
    # a literal longer than int() converts is refused where it is tokenized
    ("field p = " + "1" * 5000 + "\n", "integer literal longer than 4300 digits", 1, 11),
    ("field p = 5\nring A = [x] / (x^" + "9" * 5000 + ")\n", "integer literal longer than 4300 digits", 2, 19),
]


# a row is named by its message, and a message's repeats also by line:col
_PARSE_ERROR_IDS = [e[1] if [r[1] for r in _PARSE_ERRORS].index(e[1]) == i else f"{e[1]} at {e[2]}:{e[3]}"
                    for i, e in enumerate(_PARSE_ERRORS)]


@pytest.mark.parametrize("text, message, line, col", _PARSE_ERRORS, ids=_PARSE_ERROR_IDS)
def test_parse_error_message_and_location(text, message, line, col):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    # the grammar in the module docstring names every builder and task
    grammar = cxcli.__doc__.split("Reports serialize")[0]
    for kind in [*cxcli.MODULE_SLOTS, *cxcli.TASK_SLOTS]:
        assert f" {kind} <" in grammar, kind


@pytest.mark.parametrize("text, line, col", [
    ("field p = 5\nring A = [x] / (x^²)\n", 2, 19),
    ("field p = ٥\n", 1, 11),
    ("field p = 5\nring A = [é] / (é^2)\n", 2, 11),
])
def test_non_ascii_is_an_unexpected_character(text, line, col, tmp_path, capsys):
    with pytest.raises(ScenarioError, match="unexpected character") as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    f = tmp_path / "bad.cx"
    f.write_text(text, encoding="utf-8")
    assert main(["check", str(f)]) == 2
    assert f":{line}:{col}: unexpected character" in capsys.readouterr().err


def test_parse_error_points_at_unknown_variable():
    text = "field p = 5\nring A = [x, y] / (x^2, x*y + 2*z*x)\n"
    with pytest.raises(ScenarioError, match="unknown variable 'z'") as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.col) == (2, 33)


def test_bad_character_is_reported_before_an_earlier_grammar_error():
    # every line is tokenized before any statement is parsed
    text = "field p = 5\nring A = [x] / (y^2)\nmodule M = k A $"
    with pytest.raises(ScenarioError, match="unexpected character '\\$'") as exc:
        parse_scenario(text)
    assert (exc.value.line, exc.value.col) == (3, 16)


def test_crlf_scenario_parses_as_lf():
    # a line feed ends each line; a carriage return is whitespace, so a text
    # of carriage returns alone is one blank line
    for text in (GASHAROV, QUADRIC):
        assert parse_scenario(text.replace("\n", "\r\n")) == parse_scenario(text)
    with pytest.raises(ScenarioError, match="expected 'field'") as exc:
        parse_scenario("\r\r\r")
    assert (exc.value.line, exc.value.col) == (2, 1)


def test_parse_roundtrip_shipped_scenarios():
    for text in (GASHAROV, QUADRIC):
        sc = parse_scenario(text)
        printed = print_scenario(sc)
        assert parse_scenario(printed) == sc


def test_parse_roundtrip_every_builder_and_task():
    text = (
        "field p = 7\n"
        "ring A = [x,y] / (x^2, y^3)\n"
        "module k = k A\n"
        "module M = coker A [[x, 3*y^2], [0, x*y - 2*y^2]] degrees [-2, 1]\n"
        "module T1 = kchi A j=1\n"
        "module C = cut k j=2\n"
        "module S = syzygy M i=2\n"
        "module P = sum M T1\n"
        "task betti P maxdeg=4\n"
        "task complexity S\n"
        "task ext k C maxdeg=3\n"
        "task tor M k maxdeg=3\n"
        "task verify-complex A matrices=[[[x]],[[x]]] range=0..1\n"
        "task reduce M maxdeg=4\n"
        "task projdim-check C\n"
        "task symmetry k T1\n"
        "task vartest M tests=T1,C t=1\n"
        "task testci k t=1 q=1 n=2 tests=M,T1\n"
    )
    sc = parse_scenario(text)
    assert {d.kind for d in sc.modules.values()} == {"coker", "k", "kchi", "cut", "syzygy", "sum"}
    assert {t.kind for t in sc.tasks} == cxcli.TASK_KINDS
    printed = print_scenario(sc)
    assert parse_scenario(printed) == sc
    assert print_scenario(parse_scenario(printed)) == printed


def test_kchi_is_the_cut_of_the_shared_k(monkeypatch):
    text = (
        "field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule k = k A\n"
        "module T1 = kchi A j=1\nmodule T2 = kchi A j=2\n"
        "module C = cut k j=1\nmodule D = cut C j=2\n"
        "task vartest k tests=T1 t=1\n"
    )
    resolved, operated = [], []
    init = MinimalFreeResolution.__init__
    monkeypatch.setattr(MinimalFreeResolution, "__init__",
                        lambda self, module: (resolved.append(module), init(self, module))[1])
    operators = cxcli.eisenbud_operators
    monkeypatch.setattr(cxcli, "eisenbud_operators",
                        lambda ci, module, n: (operated.append(module), operators(ci, module, n))[1])
    pushed = []
    pushout = cioper.pushout
    monkeypatch.setattr(cioper, "pushout", lambda eta: (pushed.append(eta), pushout(eta))[1])
    sc = parse_scenario(text)
    ws = cxcli._Workspace(sc, RunOptions(max_degree=12))
    mods = ws.mods
    assert mods["T1"].degrees == mods["C"].degrees
    assert mods["T1"].actions == mods["C"].actions
    # one residue field, resolved once; one operator set per cut parent
    assert [m for m in resolved if m.provenance == "k"] == [mods["k"]]
    assert [id(m) for m in operated] == [id(mods["k"]), id(mods["C"])]
    # one cut per parent and j: kchi A j=1 is cut k j=1, and one pushout each for k.chi1, k.chi2, C.chi2
    assert mods["T1"] is mods["C"]
    assert len(pushed) == 3
    assert [ws.cuts[name] for name in ("k", "T1", "T2", "C", "D")] == [0, 1, 1, 1, 2]
    # vartest accepts T1 as a test module of cut size 1
    result = cxcli._run_task(ws, sc.tasks[0])
    assert result["ok"] and result["params"]["cut_size"] == 1


def test_verify_complex_range_mismatch():
    text = (
        "field p = 5\nring A = [x,y] / (x^2,y^2)\n"
        "task verify-complex A matrices=[[[x]],[[x]]] range=0..2\n"
    )
    with pytest.raises(ScenarioError, match="needs 3 matrices"):
        parse_scenario(text)


def test_run_gasharov(tmp_path):
    sc = parse_scenario(GASHAROV)
    report = run(sc, RunOptions(max_degree=20, seed=0))
    assert report.ok
    by_kind = {t.kind: t for t in report.tasks}
    assert by_kind["betti"].result["betti"] == [2] * 13
    assert by_kind["complexity"].result["value"] == 1
    assert by_kind["complexity"].result["stabilized"] is True
    assert by_kind["verify-complex"].result["exact_at"] == list(range(1, 13))
    assert by_kind["verify-complex"].result["minimal"] is True


def test_run_json_deterministic():
    sc = parse_scenario(QUADRIC)
    r1 = run(sc, RunOptions(seed=0)).to_json()
    r2 = run(parse_scenario(QUADRIC), RunOptions(seed=0)).to_json()
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["schema"] == 1
    assert payload["ok"] is True


def test_task_failure_isolated():
    text = (
        "field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule k = k A\n"
        "task verify-complex A matrices=[[[x]],[[y]]] range=0..1\n"
        "task betti k maxdeg=4\n"
    )
    report = run(parse_scenario(text))
    assert not report.tasks[0].ok          # x then y is not a complex
    assert report.tasks[1].ok              # later task still runs
    assert not report.ok


def test_vartest_provenance_enforced():
    text = (
        "field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule k = k A\n"
        "module T1 = kchi A j=1\n"
        "task vartest k tests=T1 t=2\n"
    )
    report = run(parse_scenario(text))
    assert not report.tasks[0].ok
    assert report.tasks[0].error == ("InputError: test module 'T1' was built with 1 coordinate cuts, "
                                     "task declares t=2")
    # a module built by coker or sum has no cut size at all
    for decl in ("module C = coker A [[x]] degrees [0]", "module C = sum k T1"):
        task = f"{decl}\ntask vartest k tests=C t=1"
        report = run(parse_scenario(text.replace("task vartest k tests=T1 t=2", task)))
        assert not report.tasks[0].ok
        assert report.tasks[0].error == ("InputError: test module 'C' was not built from k by kchi or cut, "
                                         "so it has no cut size, task declares t=1")


def test_short_window_fails_its_task_alone():
    # at max degree 3 the tail of vartest and symmetry and the positive
    # degrees of projdim-check do not fit: those tasks fail, the rest run
    text = (
        "field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule k = k A\n"
        "module T1 = kchi A j=1\n"
        "task vartest k tests=T1 t=1\n"
        "task symmetry k T1\n"
        "task betti k maxdeg=3\n"
    )
    report = run(parse_scenario(text), RunOptions(max_degree=3))
    assert [t.ok for t in report.tasks] == [False, False, True]
    for task in report.tasks[:2]:
        assert task.error == "InputError: max_degree 3 is shorter than the tail of 6 degrees"
    text = "field p = 5\nring A = [x,y] / (x^2,y^2)\nmodule k = k A\ntask projdim-check k\n"
    report = run(parse_scenario(text), RunOptions(max_degree=0))
    assert report.tasks[0].error == "InputError: max_degree 0 leaves no positive degree to check"


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cx"
    good.write_text("field p = 5\nring A = [x] / (x^2)\nmodule k = k A\ntask betti k maxdeg=4\n")
    assert main(["check", str(good)]) == 0
    assert main(["run", str(good)]) == 0
    bad_parse = tmp_path / "bad.cx"
    bad_parse.write_text("ring A = [x] / (x^2)\n")
    assert main(["check", str(bad_parse)]) == 2
    failing = tmp_path / "fail.cx"
    failing.write_text(
        "field p = 5\nring A = [x,y] / (x^2,y^2)\n"
        "task verify-complex A matrices=[[[x]],[[y]]] range=0..1\n"
    )
    assert main(["run", str(failing)]) == 1
    assert main(["run", "/nonexistent/file.cx"]) == 2
    capsys.readouterr()
    # a scenario that is not UTF-8 (a Latin-1 e-acute in a comment) cannot be read
    latin1 = tmp_path / "latin1.cx"
    latin1.write_bytes(good.read_bytes().replace(b"\n", b" # caf\xe9\n", 1))
    for command in ("check", "run"):
        assert main([command, str(latin1)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot read {latin1}: ")
        assert "Traceback" not in captured.err


def test_main_build_failure_exit_code(tmp_path, capsys):
    # a cut over a ring that is not a monomial complete intersection fails
    # at module construction, before any task runs
    bad = tmp_path / "bad_build.cx"
    bad.write_text(
        "field p = 5\nring B = [x,y] / (x^2,x*y,y^2)\nmodule k = k B\n"
        "module C = cut k j=1\ntask betti k maxdeg=4\n"
    )
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "complete intersection" in err


@pytest.mark.parametrize("ring, message", [
    ("[x0,x1,x2,x3] / (x0^2-x1^2)", "non-Artinian quotient: it is nonzero in degree 5"),
    ("[x0,x1,x2,x3,x4] / (x0^2)", "non-Artinian quotient: no relation is a pure power of x1"),
])
def test_main_refuses_non_artinian_ring(tmp_path, capsys, ring, message):
    # the ring is refused at once, with the InputError text and exit code 1
    bad = tmp_path / "non_artinian.cx"
    bad.write_text(f"field p = 5\nring A = {ring}\nmodule k = k A\ntask betti k maxdeg=2\n")
    started = time.perf_counter()
    assert main(["run", str(bad)]) == 1
    assert time.perf_counter() - started < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{bad}: {message}")
    assert "Traceback" not in captured.err


def test_main_json_output(tmp_path, capsys):
    good = tmp_path / "good.cx"
    good.write_text("field p = 5\nring A = [x] / (x^2)\nmodule k = k A\ntask betti k maxdeg=4\n")
    out = tmp_path / "report.json"
    assert main(["run", str(good), "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["tasks"][0]["result"]["betti"] == [1, 1, 1, 1, 1]
    capsys.readouterr()


def test_main_out_path_that_cannot_be_written(tmp_path, capsys):
    # an --out file in a missing directory is reported like an unreadable
    # input: one line on stderr, exit code 2, no traceback and nothing written
    good = tmp_path / "good.cx"
    good.write_text("field p = 5\nring A = [x] / (x^2)\nmodule k = k A\ntask betti k maxdeg=4\n")
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(good), "--json", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert not out.parent.exists()


@pytest.mark.parametrize("name", ["quadric_ci", "gasharov"])
def test_shipped_scenario_json_matches_golden(name):
    text = (SCENARIO_DIR / f"{name}.cx").read_text()
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert run(parse_scenario(text), RunOptions()).to_json() == golden
