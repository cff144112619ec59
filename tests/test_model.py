"""Typed-AST layer tests: domains, problems, typed lists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.model import (
    parse_domain,
    parse_problem,
    parse_typed_list,
)
from mypddl.sexpr import Severity, parse_sexpr, serialize_node

from conftest import corpus_text


def _typed_list_from(text):
    forest, _ = parse_sexpr(text)
    return parse_typed_list(forest)


def test_store_domain():
    domain, _ = parse_domain(corpus_text("store.pddl"))
    assert domain.name == "store"
    assert len(domain.predicates) == 6
    assert [a.name for a in domain.actions] == ["sell"]
    assert domain.requirements == [":typing"]


def test_minimal_domain():
    domain, diagnostics = parse_domain("(define (domain d))")
    assert domain.name == "d"
    assert domain.predicates == []
    assert domain.actions == []
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []


def test_splisus_domain():
    domain, _ = parse_domain(corpus_text("splisus.pddl"))
    assert domain.name == "splisus"
    assert len(domain.predicates) == 5
    assert [a.name for a in domain.actions] == ["kill"]


def test_domain_without_define_is_an_error():
    domain, diagnostics = parse_domain("just some atoms")
    assert domain.name is None
    assert any(d.code == "missing-define" for d in diagnostics)


def test_predicate_signature_text_is_verbatim():
    domain, _ = parse_domain(corpus_text("store.pddl"))
    by_name = {p.name: p for p in domain.predicates}
    assert by_name["product-at"].signature_text == \
        "(product-at ?l1 - lola ?l2 - lila)"
    params = by_name["workplace"].parameters
    assert [(e.name, e.type_name) for e in params.entries] == \
        [("?l1", "lola"), ("?l2", "lala")]


def test_problem_with_location_init():
    text = ("(define (problem p) (:domain d)\n"
            "  (:init (location gary 4 2) (location pizza 2 3))\n"
            "  (:goal (and)))")
    problem, diagnostics = parse_problem(text)
    assert problem.name == "p"
    assert problem.domain_ref == "d"
    assert len(problem.init) == 2
    assert [d for d in diagnostics if d.code == "missing-goal"] == []


def test_problem_missing_goal_warns():
    problem, diagnostics = parse_problem("(define (problem p) (:domain d))")
    assert problem.init == []
    assert problem.goal is None
    warning = [d for d in diagnostics if d.code == "missing-goal"]
    assert len(warning) == 1
    assert warning[0].severity is Severity.WARNING


def test_problem_goal_tree(gary_problem):
    problem, _ = parse_problem(gary_problem.read_text(encoding="utf-8"))
    assert problem.goal is not None
    assert problem.goal.head().text == "exploited"


def test_typed_list_single_group():
    typed, diagnostics = _typed_list_from("truck airplane motorboat - vehicle")
    assert [(e.name, e.type_name) for e in typed.entries] == [
        ("truck", "vehicle"), ("airplane", "vehicle"), ("motorboat", "vehicle")]
    assert diagnostics == []


def test_typed_list_defaults_to_object():
    typed, _ = _typed_list_from("x")
    assert [(e.name, e.type_name) for e in typed.entries] == [("x", "object")]


def test_typed_list_multiple_groups():
    typed, _ = _typed_list_from("sipsi flipsi hupf - splis merle - hupf")
    assert [(e.name, e.type_name) for e in typed.entries] == [
        ("sipsi", "splis"), ("flipsi", "splis"), ("hupf", "splis"),
        ("merle", "hupf")]


def test_typed_list_dangling_dash():
    typed, diagnostics = _typed_list_from("a b -")
    assert [(e.name, e.type_name) for e in typed.entries] == [
        ("a", "object"), ("b", "object")]
    assert [d.code for d in diagnostics] == ["dangling-dash"]


def test_typed_list_either_flagged():
    typed, diagnostics = _typed_list_from("a - (either t u)")
    assert [d.code for d in diagnostics] == ["either-type"]
    assert typed.entries[0].name == "a"


def test_duplicate_types_blocks_warn_but_merge():
    domain, diagnostics = parse_domain(
        "(define (domain d) (:types a - object) (:types b - object))")
    assert [e.name for e in domain.types.entries] == ["a", "b"]
    assert any(d.code == "duplicate-block" for d in diagnostics)


def test_unknown_block_is_skipped_with_warning():
    domain, diagnostics = parse_domain(
        "(define (domain d) (:typing a - b))")
    assert domain.types.entries == []
    assert any(d.code == "unknown-block" for d in diagnostics)


_name = st.from_regex(r"[a-z][a-z0-9-]{0,6}", fullmatch=True)


@st.composite
def _typed_list_text(draw):
    groups = draw(st.lists(
        st.tuples(st.lists(_name, min_size=1, max_size=3), _name),
        min_size=0, max_size=3))
    trailing = draw(st.lists(_name, max_size=3))
    parts = []
    for names, type_name in groups:
        parts.extend(names)
        parts.extend(["-", type_name])
    parts.extend(trailing)
    return " ".join(parts)


@given(_typed_list_text())
@settings(max_examples=200)
def test_typed_list_reparse_is_idempotent(text):
    first, diagnostics = _typed_list_from(text)
    assert diagnostics == []
    rendered = " ".join(f"{e.name} - {e.type_name}" for e in first.entries)
    second, _ = _typed_list_from(rendered)
    assert [(e.name, e.type_name) for e in second.entries] == \
        [(e.name, e.type_name) for e in first.entries]


def test_a_misspelled_action_key_is_reported_once_with_its_value():
    domain, diagnostics = parse_domain(
        "(define (domain d) (:action a :parameter (?v - t) :effect (p ?v)))")
    assert [(d.code, d.message) for d in diagnostics] == [
        ("unknown-action-key", "unrecognized entry ':parameter' in action")]
    assert domain.actions[0].parameters.entries == []
    assert serialize_node(domain.actions[0].effect) == "(p ?v)"


def test_a_list_in_action_key_position_is_named_and_skipped_alone():
    domain, diagnostics = parse_domain(
        "(define (domain d) (:durative-action a (x y) :duration (= ?duration 1)))")
    assert [(d.code, d.message) for d in diagnostics] == [
        ("unknown-action-key", "unrecognized entry '(...)' in durative action")]
    assert serialize_node(domain.durative_actions[0].duration) == \
        "(= ?duration 1)"


def test_repeated_problem_blocks_are_reported():
    problem, diagnostics = parse_problem(
        "(define (problem p) (:domain d) (:objects a) (:goal (x))"
        " (:domain e) (:objects b) (:goal (y)) (:metric minimize 1))")
    assert [(d.code, d.message) for d in diagnostics] == [
        ("duplicate-block", "duplicate :domain block"),
        ("duplicate-block", "duplicate :objects block"),
        ("duplicate-block", "duplicate :goal block")]
    # The model itself is unchanged: later blocks replace or extend.
    assert problem.domain_ref == "e"
    assert problem.objects.names() == ["a", "b"]
    assert serialize_node(problem.goal) == "(y)"
