"""Snippet expansion tests: parametric triggers, listing, user overrides."""

import pytest

from mypddl.model import parse_domain, parse_problem
from mypddl.sexpr import Severity, parse_sexpr
from mypddl.snippets import (
    SnippetDef,
    SnippetError,
    SnippetSet,
    expand,
    list_snippets,
    load_snippets,
    substitute_defaults,
)


@pytest.fixture(scope="module")
def builtin():
    return load_snippets()


def test_p2_binary_predicate(builtin):
    assert expand("p2", builtin) == "(pred-name ?x - object ?y - object)"


def test_p1_unary_predicate(builtin):
    assert expand("p1", builtin) == "(pred-name ?x - object)"


def test_variable_letters_past_three(builtin):
    assert expand("p5", builtin) == ("(pred-name ?x - object ?y - object "
                                     "?z - object ?x1 - object ?x2 - object)")


def test_f2_function_declaration(builtin):
    assert expand("f2", builtin) == \
        "(func-name ?x - object ?y - object) - number"


def test_t_declarations(builtin):
    assert expand("t1", builtin) == "type-name - object"
    assert expand("t2", builtin) == \
        "type-name1 - object\ntype-name2 - object"


def test_domain_skeleton_structure(builtin):
    body = expand("domain", builtin)
    for needed in (":requirements", ":types", ":predicates", ":action"):
        assert needed in body
    domain, diagnostics = parse_domain(body)
    assert domain.name == "domain-name"
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
    assert len(domain.actions) == 1


def test_problem_skeleton_parses(builtin):
    problem, diagnostics = parse_problem(expand("problem", builtin))
    assert problem.name == "problem-name"
    assert problem.goal is not None
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []


@pytest.mark.parametrize("trigger,wrapper", [
    ("domain", "{}"),
    ("problem", "{}"),
    ("action", "(define (domain d) {})"),
    ("durative-action", "(define (domain d) {})"),
    ("t1", "(define (domain d) (:types {}))"),
    ("t3", "(define (domain d) (:types {}))"),
    ("p1", "(define (domain d) (:predicates {}))"),
    ("p4", "(define (domain d) (:predicates {}))"),
    ("f2", "(define (domain d) (:functions {}))"),
])
def test_every_builtin_expansion_parses_in_context(builtin, trigger, wrapper):
    body = expand(trigger, builtin)
    _, diagnostics = parse_sexpr(wrapper.format(body))
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    assert errors == [], (trigger, body)


@pytest.mark.parametrize("trigger,wrapper", [
    ("domain", "{}"),
    ("problem", "{}"),
    ("action", "(define (domain d) {})"),
    ("durative-action", "(define (domain d) {})"),
    ("t2", "(define (domain d) (:types {}))"),
    ("p3", "(define (domain d) (:predicates {}))"),
    ("f2", "(define (domain d) (:functions {}))"),
])
def test_every_builtin_expansion_scopes_cleanly(builtin, trigger, wrapper):
    from mypddl.highlight import invalid_regions, tokenize

    text = wrapper.format(expand(trigger, builtin))
    assert invalid_regions(tokenize(text)) == [], (trigger, text)


def test_arity_bounds(builtin):
    with pytest.raises(SnippetError, match="arity"):
        expand("p0", builtin)
    with pytest.raises(SnippetError, match="arity"):
        expand("p27", builtin)


def test_unknown_trigger_lists_near_matches(builtin):
    with pytest.raises(SnippetError, match="did you mean"):
        expand("domian", builtin)


def test_parametric_base_needs_suffix(builtin):
    with pytest.raises(SnippetError, match="arity suffix"):
        expand("p", builtin)


def test_list_has_seven_base_rows(builtin):
    rows = list_snippets(builtin)
    assert len(rows) == 7
    assert [r[0] for r in rows] == [
        "domain", "problem", "t1, t2, ...", "p1, p2, ...", "f1, f2, ...",
        "action", "durative-action"]
    descriptions = dict(rows)
    assert descriptions["p1, p2, ..."] == "typed predicate declaration"


def test_user_snippet_is_added(builtin, tmp_path):
    (tmp_path / "goal.snippet").write_text(
        ";; snippet: goal block\n\n(:goal (${1:pred-name}))\n",
        encoding="utf-8")
    snippet_set = load_snippets(tmp_path)
    assert len(list_snippets(snippet_set)) == 8
    assert expand("goal", snippet_set) == "(:goal (pred-name))"
    assert snippet_set.warnings == []


def test_user_snippet_shadows_builtin_with_warning(tmp_path):
    (tmp_path / "action.snippet").write_text("(my action body)",
                                             encoding="utf-8")
    snippet_set = load_snippets(tmp_path)
    assert expand("action", snippet_set) == "(my action body)"
    assert any("shadows" in w for w in snippet_set.warnings)
    assert len(list_snippets(snippet_set)) == 7


def test_user_snippet_shadowing_a_parametric_one_is_listed_by_its_name(
        tmp_path):
    (tmp_path / "p.snippet").write_text(
        ";; snippet: my predicate\n\n(my-pred)\n", encoding="utf-8")
    (tmp_path / "zz.snippet").write_text("(zz)", encoding="utf-8")
    (tmp_path / "aa.snippet").write_text("(aa)", encoding="utf-8")
    snippet_set = load_snippets(tmp_path)
    rows = list_snippets(snippet_set)
    assert [r[0] for r in rows] == [
        "domain", "problem", "t1, t2, ...", "p", "f1, f2, ...",
        "action", "durative-action", "aa", "zz"]
    assert dict(rows)["p"] == "my predicate"
    assert expand("p", snippet_set) == "(my-pred)"


def test_substitute_defaults():
    assert substitute_defaults("(${1:a} ${2} ${1:a})") == "(a  a)"


def test_missing_snippet_dir_raises(tmp_path):
    with pytest.raises(SnippetError, match="not found"):
        load_snippets(tmp_path / "absent")


def test_a_parametric_snippet_of_unknown_base_raises():
    snippet_set = SnippetSet({"q": SnippetDef("q", "", "q", parametric=True)})
    with pytest.raises(SnippetError, match="unknown parametric snippet 'q'"):
        expand("q2", snippet_set)
