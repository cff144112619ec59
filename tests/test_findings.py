"""The table of finding codes: every finding is built by ``sexpr.finding``
with a literal code of ``FINDINGS``, every code is emitted by some input,
every code a command prints is in the table, and the README lists it."""

import ast
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

import mypddl
from mypddl.cli import main
from mypddl.distance import augment_with_distances, extract_locations
from mypddl.model import parse_domain, parse_problem
from mypddl.sexpr import FINDINGS
from mypddl.typegraph import build_type_graph, render_diagram

from conftest import CORPUS, FIXTURES, benchmark_inputs

SOURCE = Path(mypddl.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
GRAMMAR_TESTS = Path(__file__).parent / "test_grammar.py"


def _name(func: ast.expr) -> str:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    return func.id if isinstance(func, ast.Name) \
        else func.attr if isinstance(func, ast.Attribute) else ""


def _literals(node: ast.expr):
    """The strings a code argument can be, or None if it is not made of
    string literals: a literal, or a conditional between two of them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.IfExp):
        body, orelse = _literals(node.body), _literals(node.orelse)
        return None if body is None or orelse is None else body + orelse
    return None


def _argument(call: ast.Call, index: int, name: str):
    if index < len(call.args):
        return call.args[index]
    return next((k.value for k in call.keywords if k.arg == name), None)


def _functions(tree: ast.Module):
    """Each function of a module, methods and nested ones too, with the
    calls in its own body (not in the functions nested in it)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls, todo = [], list(ast.iter_child_nodes(node))
            while todo:
                child = todo.pop()
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    continue
                if isinstance(child, ast.Call):
                    calls.append(child)
                todo.extend(ast.iter_child_nodes(child))
            yield node, calls


def _sites():
    """Every place in ``src/mypddl`` that names a finding's code, with its
    module and the code argument: each call of ``finding``, but those in a
    helper that passes one of its own parameters as the code
    (``model._Walk.warn``, ...), and each call of such a helper."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    helpers = {}  # (module, name) -> index of the code among the arguments
    forwards = set()  # the calls of ``finding`` in the helpers
    for module, tree in modules.items():
        for function, calls in _functions(tree):
            params = [a.arg for a in function.args.args if a.arg != "self"]
            for call in calls:
                code = _argument(call, 2, "code")
                if _name(call.func) == "finding" and \
                        isinstance(code, ast.Name) and code.id in params:
                    helpers[module, function.name] = params.index(code.id)
                    forwards.add(call)
    sites = []
    for module, tree in modules.items():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or call in forwards:
                continue
            name = _name(call.func)
            if (module, name) in helpers:
                index = helpers[module, name]
                sites.append((module, call, _argument(call, index, "code")))
            elif name == "finding":
                sites.append((module, call, _argument(call, 2, "code")))
    return modules, helpers, sites


def test_only_finding_builds_a_diagnostic():
    modules, _, _ = _sites()
    builders = []
    for module, tree in modules.items():
        for function, calls in _functions(tree):
            builders += [(module, function.name) for call in calls
                         if _name(call.func) == "ParseDiagnostic"]
    assert builders == [("sexpr.py", "finding")]


def test_every_code_is_a_literal_key_of_the_table():
    _, helpers, sites = _sites()
    assert set(name for _, name in helpers) >= {"warn"}
    named = set()
    for module, call, code in sites:
        where = f"{module}:{call.lineno}"
        codes = _literals(code) if code is not None else None
        assert codes is not None, f"{where}: the code is no string literal"
        assert set(codes) <= set(FINDINGS), where
        named.update(codes)
    # No site passes a severity: a finding takes its own from its code.
    for module, call, _ in sites:
        assert "severity" not in {k.arg for k in call.keywords}
        assert not any(isinstance(n, ast.Attribute) and n.attr in
                       ("ERROR", "WARNING") for n in ast.walk(call)), \
            f"{module}:{call.lineno}"
    # And the table holds no code that no site names.
    assert named == set(FINDINGS)


def test_finding_takes_no_severity():
    tree = ast.parse((SOURCE / "sexpr.py").read_text(encoding="utf-8"))
    finding = next(node for node in tree.body if isinstance(
        node, ast.FunctionDef) and node.name == "finding")
    assert [a.arg for a in finding.args.args] == ["span", "message", "code"]


# One minimal input per code, and the layer that reads it.
MINIMAL = {
    "stray-closer": ("domain", "(define (domain d)))"),
    "unclosed-list": ("domain", "(define (domain d)"),
    "missing-define": ("domain", "(domain d)"),
    "missing-domain-decl": ("domain", "(define (problem p))"),
    "missing-problem-decl": ("problem", "(define (domain d))"),
    "missing-goal": ("problem", "(define (problem p) (:domain d))"),
    "stray-atom": ("domain", "(define (domain d) x)"),
    "unknown-block": ("domain", "(define (domain d) (:typess a))"),
    "duplicate-block": ("domain", "(define (domain d) (:types a) (:types b))"),
    "missing-action-name": ("domain",
                            "(define (domain d) (:action :parameters ()))"),
    "unknown-action-key": ("domain",
                           "(define (domain d) (:action a :parameter ()))"),
    "bad-parameters": ("domain",
                       "(define (domain d) (:action a :parameters ?x))"),
    "bad-predicate": ("domain", "(define (domain d) (:predicates ()))"),
    "bad-function": ("domain", "(define (domain d) (:functions ((f))))"),
    "bad-typed-list-item": ("domain", "(define (domain d) (:types ?y))"),
    "dangling-dash": ("domain", "(define (domain d) (:types a -))"),
    "bad-type": ("domain", "(define (domain d) (:types a - ?y))"),
    "either-type": ("domain", "(define (domain d) (:types a - (either b c)))"),
    "type-cycle": ("domain", "(define (domain d) (:types a - b b - a))"),
    "multi-parent": ("domain", "(define (domain d) (:types a - b a - c))"),
    "undeclared-type": ("domain",
                        "(define (domain d) (:predicates (p ?x - t)))"),
    "orphan-type": ("domain", "(define (domain d) (:types a - b b - a))"),
    "no-renderer": ("diagram", "(define (domain d))"),
    "missing-init": ("locations", "(define (problem p) (:domain d))"),
    "no-locations": ("distance", "(define (problem p) (:init (at a)))"),
    "bad-location": ("locations", "(define (problem p) (:init (location a)))"),
    "bad-coordinate": ("locations",
                       "(define (problem p) (:init (location a x)))"),
    "duplicate-object": ("locations", "(define (problem p) "
                         "(:init (location a 1) (location a 2)))"),
    "mixed-dimensions": ("locations", "(define (problem p) "
                         "(:init (location a 1) (location b 1 2)))"),
}


def _findings(layer: str, text: str, tmp_path: Path) -> list:
    if layer == "domain":
        domain, diagnostics = parse_domain(text)
        return diagnostics + build_type_graph(domain)[1]
    if layer == "problem":
        return parse_problem(text)[1]
    if layer == "locations":
        return extract_locations(text)[1]
    if layer == "distance":
        return augment_with_distances(text)[1]
    path = tmp_path / "domain.pddl"
    path.write_text(text, encoding="utf-8")
    return render_diagram(path, tmp_path / "out", renderer=None)[1]


@pytest.mark.parametrize("code", sorted(FINDINGS))
def test_every_code_has_an_input_that_emits_it(code, tmp_path):
    diagnostics = _findings(*MINIMAL[code], tmp_path)
    assert code in {d.code for d in diagnostics}
    for diagnostic in diagnostics:
        assert diagnostic.severity is FINDINGS[diagnostic.code]


def test_the_minimal_inputs_are_of_codes_of_the_table():
    assert set(MINIMAL) == set(FINDINGS)


def _grammar_cases() -> list[str]:
    """The texts of ``tests/test_grammar.py`` that hold a define form."""
    tree = ast.parse(GRAMMAR_TESTS.read_text(encoding="utf-8"))
    return sorted({node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and "(define" in node.value})


def _inputs() -> dict:
    inputs = {path.name: path.read_bytes() for folder in (CORPUS, FIXTURES)
              for path in sorted(folder.glob("*.pddl"))}
    for workload in ("large-problem", "distance-grid", "broken-domain"):
        generated = benchmark_inputs(workload, 1)
        inputs[f"{workload}-domain"] = generated.domain.text
        inputs[f"{workload}-problem"] = generated.problem.text
    inputs.update((f"grammar-{i}", text.encode("utf-8"))
                  for i, text in enumerate(_grammar_cases()))
    return inputs


INPUTS = _inputs()
# A printed finding: ``file:line:col: severity: message [code]``.
PRINTED = re.compile(r": (error|warning): .* \[([^\]]*)\]$")


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_printed_code_is_in_the_table(name, tmp_path):
    path = tmp_path / "input.pddl"
    path.write_bytes(INPUTS[name])
    runner = CliRunner()
    printed = []
    for args in (["check", str(path)],
                 ["diagram", str(path), "--no-render", "--out",
                  str(tmp_path / "out")],
                 ["distance", str(path), "--out", str(tmp_path / "d.pddl")]):
        result = runner.invoke(main, args)
        assert not isinstance(result.exception, Exception), result.exception
        for line in result.stderr.splitlines():
            if line.startswith(str(path)):
                match = PRINTED.search(line)
                assert match, line
                printed.append(match.groups())
    result = runner.invoke(main, ["--json", "check", str(path)])
    for report in json.loads(result.stdout):
        printed += [(d["severity"], d["code"]) for d in report["diagnostics"]]
    for severity, code in printed:
        assert code in FINDINGS
        assert severity == FINDINGS[code].value, code


def test_the_readme_lists_the_table():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Finding codes\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)` \((error|warning)\): \S",
                        section, re.M)
    assert len(listed) == len(dict(listed))
    assert dict(listed) == {code: severity.value
                            for code, severity in FINDINGS.items()}
