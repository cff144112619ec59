"""Typed-AST layer tests: domains, problems, typed lists."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.distance import extract_locations
from mypddl.model import (
    PddlDomain,
    TypedEntry,
    TypedList,
    parse_domain,
    parse_problem,
)
from mypddl.sexpr import (
    Severity,
    Span,
    excerpt,
    serialize_node,
)
from mypddl.typegraph import build_type_graph

from conftest import corpus_text


def _typed_list_from(text):
    """The :types of a domain that declares ``text``, and its findings."""
    domain, diagnostics = parse_domain(f"(define (domain d) (:types {text}))")
    return domain.types, diagnostics


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


def test_the_spans_of_a_typed_list_are_those_of_its_nodes():
    """A list with a comment in it keeps the spans of its nodes, after the
    comment too, at their offsets in the file."""
    text = "(define (domain d) (:types a ; c\n - (either t u) b -))"
    domain, diagnostics = parse_domain(text)
    at = text.index("a ; c")
    shift = lambda span: span and Span(span.start - at, span.end - at)
    assert [(e.name, e.type_name, shift(e.name_span), shift(e.type_span))
            for e in domain.types.entries] == [
        ("a", "(either t u)", Span(0, 1), Span(9, 21)),
        ("b", "object", Span(22, 23), None)]
    assert [(d.code, shift(d.span)) for d in diagnostics] == [
        ("either-type", Span(9, 21)), ("dangling-dash", Span(24, 25))]


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


# -- quoted source in messages --------------------------------------------

# Each message that quotes source, with ``{x}`` where a long atom goes;
# ``{t}`` is a long type name and ``{e}`` a deep (either ...).
_QUOTING_DOMAINS = [
    "(define (domain d) (:types a - {x}))",                     # bad-type
    "(define (domain d) (:types a - {e}))",                     # either-type
    "(define (domain d) (:types a - (f {x})))",                 # bad-type
    "(define (domain d) {x})",                                  # stray-atom
    "(define (domain d) (:predicates {x}))",                    # stray-atom
    "(define (domain d) ({x}))",                                # unknown-block
    "(define (domain d) (:action a :parameters {x}))",          # bad-parameters
    "(define (domain d) (:action a :parameters (?v {x})))",     # bad-typed-list-item
    "(define (domain d) (:functions (f) {x}))",                 # bad-function
    "(define (domain d) (:action a {x} (p)))",                  # unknown-action-key
    "(define (domain d) (:types {t} - a {t} - b))",             # multi-parent
    "(define (domain d) (:types c - {t}0 {t}1 {t}2 {t}3 {t}4 {t}5"
    " - c c - {t}9))",                                          # multi-parent
    "(define (domain d) (:predicates ({x} ?v - {t})))",         # undeclared-type
    "(define (domain d) (:types {t}a - {t}b {t}b - {t}a))",     # cycle, orphans
]
_QUOTING_PROBLEMS = [
    "(define (problem p) (:domain d) (:init {x}) (:goal (p)))",            # stray-atom
    "(define (problem p) (:domain d) (:init (location {x} {x})))",         # bad-coordinate
    "(define (problem p) (:domain d) (:init (location {x})))",             # bad-location
    "(define (problem p) (:domain d) (:init (location {x} 1)"
    " (location {x} 2)))",                                                  # duplicate-object
    "(define (problem p) (:domain d) (:init (location {x} 1)"
    " (location {x}2 1 2)))",                                               # mixed-dimensions
]


def _messages(x, t, depth):
    """The messages of the domain and problem templates above."""
    e = "(either " * depth + "b" + ")" * depth
    for template in _QUOTING_DOMAINS:
        domain, diagnostics = parse_domain(template.format(x=x, t=t, e=e))
        yield from (d.message for d in diagnostics)
        yield from (d.message for d in build_type_graph(domain)[1])
    for template in _QUOTING_PROBLEMS:
        text = template.format(x=x, t=t, e=e)
        yield from (d.message for d in parse_problem(text)[1])
        yield from (d.message for d in extract_locations(text)[1])


def _atom_text(alphabet):
    return st.text(alphabet, min_size=30, max_size=300).map(lambda s: "?" + s)


_NAME_TEXT = st.text("abcxyz019-_", min_size=30, max_size=300).map(
    lambda s: "t" + s)


@given(_atom_text("ab?-:.%\"\\\x01\x7féß"), _NAME_TEXT, st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_no_message_exceeds_200_bytes(x, t, depth):
    """Each quote is cut to 40 bytes, so that no message grows with its
    input; with quoted text of 1- and 2-byte characters, a message holding
    two quotes stays within 200 bytes."""
    for message in _messages(x, t, depth):
        assert len(message.encode("utf-8")) <= 200, message


@given(_atom_text("a中😀\U000e0001\U0010fffd\x00"), _NAME_TEXT)
@settings(max_examples=30, deadline=None)
def test_no_message_exceeds_200_characters(x, t):
    """The cut counts bytes of the quote as it is shown, escapes included,
    so a quote is at most 40 characters whatever the text."""
    for message in _messages(x, t, 3):
        assert len(message) <= 200, message


# Characters of 1, 2, 3 and 4 UTF-8 bytes, each of which a quote shows as
# itself.
_WIDE_TEXT = st.text("a\u00e9\u4e2d\U0001f600\U00010348", min_size=30,
                     max_size=300)


@given(_WIDE_TEXT)
@settings(max_examples=30, deadline=None)
def test_no_message_quoting_wide_characters_exceeds_200_bytes(x):
    """A quote is cut to 40 UTF-8 bytes, on a character boundary, so a
    message that quotes texts of characters of up to 4 bytes each stays
    within 200 bytes."""
    long_type = "t" * 100
    domain = parse_domain(
        f"(define (domain d) (:action a {x} (p))"
        f" (:predicates ({x} ?v - {long_type})))")
    problem = (f"(define (problem p) (:domain d) (:init (location {x} {x})"
               f" (location {x} 1) (location {x}b 1 2)))")
    parents = PddlDomain(types=TypedList([TypedEntry(x, "a"),
                                          TypedEntry(x, "b")]))
    messages = {d.code: d.message for d in [
        *domain[1], *build_type_graph(domain[0])[1],
        *extract_locations(problem)[1], *build_type_graph(parents)[1]]}
    codes = ["unknown-action-key", "undeclared-type", "bad-coordinate",
             "mixed-dimensions", "multi-parent"]
    for code in codes:
        assert len(messages[code].encode("utf-8")) <= 200, messages[code]
    assert "\ufffd" not in "".join(messages.values())


def test_a_quote_is_cut_between_characters():
    assert excerpt("\U0001f600" * 10) == "\U0001f600" * 10
    assert excerpt("\U0001f600" * 11) == "\U0001f600" * 9 + "..."
    assert excerpt("a" * 40) == "a" * 40
    assert excerpt("\u00e9" * 21) == "\u00e9" * 18 + "..."


def test_a_short_quote_is_whole_and_a_long_one_is_cut():
    short = "(define (domain d) (:types a - 1x))"
    assert [d.message for d in parse_domain(short)[1]] == [
        "'1x' in type position is not a type name"]
    long = f"(define (domain d) (:types a - 1{'x' * 50}))"
    assert [d.message for d in parse_domain(long)[1]] == [
        f"'1{'x' * 35}... in type position is not a type name"]


def test_typed_entries_of_the_fast_path_are_those_of_the_constructor():
    domain, _ = parse_domain("(define (domain d) (:types a b - t))")
    assert domain.types.entries == [
        TypedEntry("a", "t", Span(27, 28), Span(33, 34)),
        TypedEntry("b", "t", Span(29, 30), Span(33, 34))]
    entry = domain.types.entries[0]
    assert type(entry) is TypedEntry
    assert repr(entry) == ("TypedEntry(name='a', type_name='t', "
                           "name_span=Span(start=27, end=28), "
                           "type_span=Span(start=33, end=34))")
    assert pickle.loads(pickle.dumps(entry)) == entry
    assert entry._asdict()["type_name"] == "t"
