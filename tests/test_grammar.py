"""The PDDL block grammar is written down once, in the tables of
``mypddl.model``; these tests hold the typed model and the scope walk to it.

The tour fixtures (``tests/fixtures/tour_*.pddl``) between them use every
block, action and durative-action key, the ``at start``/``over all``
wrappers, misspelled keys with a hint, a timed initial literal, ``either``,
typed functions, ``:derived``, ``:metric``, ``:constraints``,
``preference``, stray atoms and repeated blocks. Their tokens, typed models
and diagnostics are pinned in ``tests/fixtures/tour_*.golden.json``.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main
from mypddl.highlight import (
    _MAX_GRAMMAR_DEPTH,
    Scope,
    _Walk,
    invalid_regions,
    tokenize,
)
from mypddl.model import (
    ACTION_KEYS,
    CONDITION_RULES,
    CONSTRAINT_RULES,
    DOMAIN_BLOCK_KEYS,
    EFFECT_RULES,
    INIT_RULES,
    NUMERIC_RULES,
    PREDICATE_KEYWORDS,
    PROBLEM_BLOCK_KEYS,
    TIMED_CONDITION_RULES,
    TIMED_EFFECT_RULES,
    parse_domain,
    parse_problem,
)
from mypddl.sexpr import Document, SExprNode, Span, serialize_node
from mypddl.typegraph import build_type_graph

from conftest import FIXTURES

# Diagnostics of the golden files that a model fix has since changed, as
# (code, message, source text at the span). Nothing else may differ.
REMOVED = {
    # A misspelled action key's value was read as a second, nameless key.
    "tour_domain": [
        ("unknown-action-key", "unrecognized entry '' in action",
         "(?c - cargo ?v - vehicle ?p - place)"),
        ("unknown-action-key", "unrecognized entry '' in action",
         "(and (at ?v ?p) (not (loaded ?c ?v)))"),
        ("unknown-action-key", "unrecognized entry '' in action",
         "(loaded ?c ?v)"),
        ("unknown-action-key", "unrecognized entry '' in action",
         "(stray list)"),
        ("unknown-action-key", "unrecognized entry '' in durative action",
         "(= ?duration 2)"),
        ("unknown-action-key", "unrecognized entry '' in durative action",
         "(over all (ready))"),
    ],
    "tour_problem": [],
}
ADDED = {
    # A list in key position is named as one.
    "tour_domain": [
        ("unknown-action-key", "unrecognized entry '(...)' in action",
         "(stray list)"),
    ],
    # Repeated problem blocks were silently replaced or merged.
    "tour_problem": [
        ("duplicate-block", "duplicate :objects block", "(:objects b3 - cargo)"),
        ("duplicate-block", "duplicate :goal block", "(:goal (loaded b2 v1))"),
        ("duplicate-block", "duplicate :domain block", "(:domain other)"),
    ],
}
PARSERS = {"tour_domain": parse_domain, "tour_problem": parse_problem}


def plain(value):
    """A model value as JSON data: nodes as their source text."""
    if isinstance(value, SExprNode):
        return serialize_node(value)
    if isinstance(value, Span):
        return list(value)
    # A model record names its fields in ``_fields`` (a NamedTuple) or in
    # ``__slots__`` (a ``Record``).
    fields = getattr(value, "_fields", None) or getattr(value, "__slots__", ())
    if fields:
        return {name: plain(getattr(value, name)) for name in fields}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def diagnostic_record(diagnostic, data: bytes) -> dict:
    start, end = diagnostic.span
    return {"code": diagnostic.code, "severity": diagnostic.severity.value,
            "message": diagnostic.message, "span": [start, end],
            "text": data[start:end].decode("utf-8")}


def tour_record(name: str) -> dict:
    """Tokens (whitespace left out), model and diagnostics of a tour file."""
    data = (FIXTURES / f"{name}.pddl").read_bytes()
    doc = Document(data)
    model, diagnostics = PARSERS[name](doc)
    return {
        "tokens": [[t.span.start, t.scope.value, t.text]
                   for t in tokenize(doc) if not t.text.isspace()],
        "model": plain(model),
        "diagnostics": [diagnostic_record(d, data) for d in diagnostics],
    }


def _key(record: dict) -> tuple:
    return record["code"], record["message"], record["text"]


@pytest.fixture(scope="module", params=sorted(PARSERS))
def tour(request):
    golden = json.loads((FIXTURES / f"{request.param}.golden.json")
                        .read_text(encoding="utf-8"))
    return request.param, golden, tour_record(request.param)


def test_tour_tokens_are_pinned(tour):
    _, golden, got = tour
    assert got["tokens"] == golden["tokens"]


def test_tour_model_is_pinned(tour):
    _, golden, got = tour
    assert got["model"] == golden["model"]


def test_tour_diagnostics_differ_only_by_the_model_fixes(tour):
    name, golden, got = tour
    removed, added = REMOVED[name], ADDED[name]
    assert [d for d in got["diagnostics"] if _key(d) not in added] == \
        [d for d in golden["diagnostics"] if _key(d) not in removed]
    assert sorted(_key(d) for d in golden["diagnostics"]
                  if _key(d) in removed) == sorted(removed)
    assert sorted(_key(d) for d in got["diagnostics"]
                  if _key(d) in added) == sorted(added)


# -- the tables agree with both layers -------------------------------------------

def _scope_of(text: str, needle: str) -> Scope:
    start = text.index(needle)
    [token] = [t for t in tokenize(text) if t.span.start == start]
    assert token.text == needle
    return token.scope


def _codes(diagnostics) -> set:
    return {d.code for d in diagnostics}


BLOCK_CASES = [("domain", key) for key in sorted(DOMAIN_BLOCK_KEYS)] + \
    [("problem", key) for key in sorted(PROBLEM_BLOCK_KEYS)]
ACTION_CASES = [(block, key) for block in sorted(ACTION_KEYS)
                for key in sorted(ACTION_KEYS[block])]


@pytest.mark.parametrize("kind,key", BLOCK_CASES)
def test_every_block_key_is_a_keyword_and_accepted(kind, key):
    text = f"(define ({kind} x) ({key}))"
    parse = parse_domain if kind == "domain" else parse_problem
    assert _scope_of(text, key) is Scope.KEYWORD
    assert "unknown-block" not in _codes(parse(text)[1])


@pytest.mark.parametrize("kind,key", BLOCK_CASES)
def test_a_misspelled_block_key_is_unscoped_and_reported(kind, key):
    typo = key[:-1]
    text = f"(define ({kind} x) ({typo}))"
    parse = parse_domain if kind == "domain" else parse_problem
    assert _scope_of(text, typo) is Scope.UNSCOPED
    assert ("unknown-block", Span(text.index(f"({typo}"), len(text) - 1)) \
        in [(d.code, d.span) for d in parse(text)[1]]


@pytest.mark.parametrize("block,key", ACTION_CASES)
def test_every_action_key_is_a_keyword_and_fills_its_attribute(block, key):
    text = f"(define (domain x) ({block} a {key} (?v)))"
    domain, diagnostics = parse_domain(text)
    assert _scope_of(text, key) is Scope.KEYWORD
    assert "unknown-action-key" not in _codes(diagnostics)
    [action] = domain.actions + domain.durative_actions
    attribute, _ = ACTION_KEYS[block][key]
    value = getattr(action, attribute)
    if attribute == "parameters":
        assert value.names() == ["?v"]
    else:
        assert serialize_node(value) == "(?v)"


@pytest.mark.parametrize("block,key", ACTION_CASES)
def test_a_misspelled_action_key_is_unscoped_and_reported(block, key):
    typo = key[:-1]
    text = f"(define (domain x) ({block} a {typo} (?v)))"
    assert _scope_of(text, typo) is Scope.UNSCOPED
    start = text.index(typo)
    assert [(d.code, d.span) for d in parse_domain(text)[1]] == \
        [("unknown-action-key", Span(start, start + len(typo)))]


FORMULA_RULES = [CONDITION_RULES, EFFECT_RULES, INIT_RULES,
                 TIMED_CONDITION_RULES, TIMED_EFFECT_RULES, CONSTRAINT_RULES,
                 NUMERIC_RULES]


def test_the_walk_dispatches_exactly_the_block_keys():
    assert set(_Walk.DOMAIN_BLOCKS) == DOMAIN_BLOCK_KEYS
    assert set(_Walk.PROBLEM_BLOCKS) == PROBLEM_BLOCK_KEYS
    assert set(_Walk.ACTION_VALUES) == {
        context for keys in ACTION_KEYS.values() for _, context in keys.values()}
    # Every formula keyword is looked up lowercased, and every context a
    # row names is a grammar method of the walk. A row of a keyword that
    # also names a predicate starts with a one-atom context, which guards it.
    for rules in FORMULA_RULES:
        for key, row in rules.items():
            assert key == key.lower()
            methods = [getattr(_Walk, context.replace("-", "_"), None)
                       for context in row]
            assert all(callable(method) for method in methods), (key, row)
            if key in PREDICATE_KEYWORDS:
                assert callable(getattr(methods[0], "accepts", None)), key


@pytest.mark.parametrize("block,key", ACTION_CASES)
def test_a_key_in_name_position_is_a_missing_name_in_both_layers(block, key):
    value = "(?v)" if key == ":parameters" else "(and)"
    text = f"(define (domain x) ({block} {key} {value}))"
    domain, diagnostics = parse_domain(text)
    [action] = domain.actions + domain.durative_actions
    attribute, _ = ACTION_KEYS[block][key]
    assert action.name is None
    assert [d.code for d in diagnostics] == ["missing-action-name"]
    if attribute == "parameters":
        assert action.parameters.names() == ["?v"]
    else:
        assert serialize_node(getattr(action, attribute)) == value
    start = text.index(key)
    assert invalid_regions(tokenize(text)) == [Span(start, start + len(key))]


def test_the_action_name_position_is_pinned_in_both_layers():
    text = "(define (domain d) (:action :parameters (?x) :effect (p ?x)))"
    domain, diagnostics = parse_domain(text)
    [action] = domain.actions
    assert (action.name, action.parameters.names(),
            serialize_node(action.effect)) == (None, ["?x"], "(p ?x)")
    assert [d.code for d in diagnostics] == ["missing-action-name"]
    tokens = [(t.text, t.scope) for t in tokenize(text)
              if not t.text.isspace()]
    assert tokens[7:] == [
        (":action", Scope.KEYWORD), (":parameters", Scope.UNSCOPED), ("(", Scope.PUNCTUATION),
        ("?x", Scope.VARIABLE), (")", Scope.PUNCTUATION),
        (":effect", Scope.KEYWORD), ("(", Scope.PUNCTUATION),
        ("p", Scope.NAME), ("?x", Scope.VARIABLE), (")", Scope.PUNCTUATION),
        (")", Scope.PUNCTUATION), (")", Scope.PUNCTUATION)]


def test_a_colon_atom_that_is_no_key_is_the_action_name_in_both_layers():
    text = "(define (domain d) (:action :go :parameters (?x) :effect (p ?x)))"
    domain, diagnostics = parse_domain(text)
    [action] = domain.actions
    assert (action.name, action.parameters.names()) == (":go", ["?x"])
    assert diagnostics == []
    assert _scope_of(text, ":go") is Scope.UNSCOPED
    assert _scope_of(text, ":parameters") is Scope.KEYWORD
    start = text.index(":go")
    assert invalid_regions(tokenize(text)) == [Span(start, start + 3)]


# -- PDDL3 constraints and #t ----------------------------------------------------

# Valid files that the walk once marked invalid, with nothing reported by
# the model: PDDL3 operators in :constraints and #t in a continuous effect.
VALID_PDDL3 = [
    "(define (domain d) (:predicates (p)) (:constraints (always (p))))",
    "(define (problem q) (:domain d) (:init (p)) (:goal (p))\n"
    "  (:constraints (within 5 (p))))",
    "(define (domain d) (:predicates (p)) (:functions (f))\n"
    "  (:durative-action a :parameters () :duration (= ?duration 1)\n"
    "    :condition (at start (p)) :effect (increase (f) (* #t 1))))",
]


@pytest.mark.parametrize("text", VALID_PDDL3)
def test_a_valid_pddl3_file_has_no_invalid_region_and_checks(text, tmp_path):
    assert invalid_regions(tokenize(text)) == []
    path = tmp_path / "valid.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 0, result.output
    assert "0 errors, 0 invalid regions" in result.output


@pytest.mark.parametrize("constraint", [
    "(sometime (p))", "(at-most-once (p))", "(sometime-before (p) (q))",
    "(sometime-after (p) (q))", "(always-within 5 (p) (q))",
    "(hold-during 2 5 (p))", "(hold-after 5 (p))", "(at end (p))",
    "(preference c (always (p)))", "(preference (at end (p)))",
    "(forall (?x) (sometime (p ?x)))", "(and (always (p)) (q))",
    "(AT END (and (p) (q)))",
])
def test_every_pddl3_operator_takes_its_values_in_constraints(constraint):
    text = f"(define (problem q) (:domain d) (:goal (p)) " \
        f"(:constraints {constraint}))"
    assert invalid_regions(tokenize(text)) == []
    assert _scope_of(text, constraint[1:].split()[0]) is Scope.KEYWORD


@pytest.mark.parametrize("where,bad", [
    ("(:goal (always (p)))", "(p)"),
    ("(:constraints (at start (p)))", "(p)"),
    ("(:constraints (within x (p)))", "x"),
    ("(:init (p #t))", "#t"),
])
def test_pddl3_operators_and_hash_t_stay_out_of_other_places(where, bad):
    text = f"(define (problem q) (:domain d) {where})"
    start = text.index(bad, text.index(where) + 1)
    assert invalid_regions(tokenize(text)) == [Span(start, start + len(bad))]


# -- formula arity ---------------------------------------------------------------

# Formulas with a value too many or too few, which the walk once read as
# valid, as the last context of every row repeated: each gets one invalid
# region, the value past the row's end or the list's ')', and check exits 1.
ARITY_REPRODUCERS = [
    ("(define (domain d) (:predicates (p) (q))\n"
     "  (:action a :parameters () :precondition (not (p) (q)) :effect (p)))",
     "(not (p) (q))", "(q)"),
    ("(define (domain d) (:predicates (p) (q)) (:constraints (always (p) (q))))",
     "(always (p) (q))", "(q)"),
    ("(define (domain d) (:predicates (p)) (:constraints (at-most-once)))",
     "(at-most-once)", ")"),
    # A preference takes one GD after its optional name.
    ("(define (problem q) (:domain d) (:goal (preference c)))",
     "(preference c)", ")"),
    ("(define (problem q) (:domain d) (:goal (preference n (p) (q))))",
     "(preference n (p) (q))", "(q)"),
]


def _arity_region(text: str, formula: str, bad: str) -> Span:
    """The span of ``bad``, the last of its kind in ``formula``."""
    start = text.index(formula) + formula.rindex(bad)
    return Span(start, start + len(bad))


@pytest.mark.parametrize("text,formula,bad", ARITY_REPRODUCERS)
def test_a_formula_with_a_value_too_many_or_too_few_fails_check(
        text, formula, bad, tmp_path):
    assert invalid_regions(tokenize(text)) == [_arity_region(text, formula,
                                                             bad)]
    path = tmp_path / "arity.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert "0 errors, 1 invalid regions" in result.output


_CONTEXTS = {
    "goal": "(define (problem q) (:domain d) (:goal {}))",
    "init": "(define (problem q) (:domain d) (:init {}) (:goal (p)))",
    "constraints": "(define (problem q) (:domain d) (:goal (p)) "
                   "(:constraints {}))",
    "effect": "(define (domain d) (:predicates (p) (q)) (:functions (f))\n"
              "  (:action a :parameters (?x) :precondition (p) :effect {}))",
}


@pytest.mark.parametrize("where,formula,bad", [
    ("goal", "(imply (p) (q) (p))", "(p)"), ("goal", "(imply (p))", ")"),
    ("goal", "(not)", ")"), ("goal", "(= 1 2 3)", "3"), ("goal", "(< 1)", ")"),
    ("goal", "(forall (?x) (p) (q))", "(q)"), ("goal", "(exists (?x))", ")"),
    ("constraints", "(sometime-before (p))", ")"),
    ("constraints", "(within 5 (p) (q))", "(q)"),
    ("constraints", "(always-within 5 (p))", ")"),
    ("constraints", "(always-within 5 (p) (q) (p))", "(p)"),
    ("constraints", "(hold-during 1 2 (p) (q))", "(q)"),
    ("constraints", "(at end (p) (q))", "(q)"),
    ("effect", "(when (p) (q) (p))", "(p)"), ("effect", "(assign (f) 1 2)", "2"),
    ("effect", "(increase (f))", ")"), ("effect", "(not (p) (q))", "(q)"),
    ("init", "(= (f) 1 2)", "2"), ("init", "(at 5 (p) (q))", "(q)"),
    ("init", "(not)", ")"),
    ("goal", "(preference)", ")"), ("goal", "(preference (p) (q))", "(q)"),
    ("constraints", "(preference c)", ")"),
    ("constraints", "(preference c (always (p)) (q))", "(q)"),
    ("constraints", "(preference (always (p)) (q))", "(q)"),
])
def test_each_formula_keyword_takes_its_fixed_number_of_values(where, formula,
                                                                bad):
    text = _CONTEXTS[where].format(formula)
    assert invalid_regions(tokenize(text)) == [_arity_region(text, formula,
                                                             bad)]


@pytest.mark.parametrize("where,formula", [
    ("goal", "(and)"), ("goal", "(or (p) (q) (p))"),
    ("goal", "(preference (p))"), ("goal", "(preference c (p))"),
    ("goal", "(= (+ 1 2 3) (- 1))"), ("goal", "(> (* 1 2 3) (/ 4 2))"),
    ("effect", "(and)"), ("constraints", "(and (always (p)) (sometime (q)))"),
])
def test_a_variadic_keyword_takes_any_number_of_values(where, formula):
    assert invalid_regions(tokenize(_CONTEXTS[where].format(formula))) == []


# -- block arity -----------------------------------------------------------------

# Blocks with a value too many or too few, which the walk once read as valid,
# as every block row's last context repeated: a block row is fixed unless
# its key repeats (:requirements, :predicates, :init), and :metric is an
# optimization followed by one fexp.
_DOMAIN = "(define (domain d) (:predicates (p ?x) (q) (r)) {})"
_GOAL = "(define (problem q) (:domain d) (:goal (p)) {})"
BLOCK_ARITY = [
    ("(define (problem q) (:domain d e) (:goal (p)))", ["e"]),
    ("(define (problem q) (:domain d) (:goal (q) (r)))", ["(r)"]),
    ("(define (problem q) (:domain d) (:goal))", [")"]),
    (_GOAL.format("(:metric (f))"), ["(f))"]),
    (_GOAL.format("(:metric minimize (f) (g))"), ["(g)"]),
    (_GOAL.format("(:metric least (f))"), ["least"]),
    (_DOMAIN.format("(:derived (p ?x))"), [")"]),
    (_DOMAIN.format("(:derived (p ?x) (q) (r))"), ["(r)"]),
    (_DOMAIN.format("(:constraints (always (q)) (always (r)))"),
     ["(always (r))"]),
    (_GOAL.format("(:constraints (a) (b))"), ["(b)"]),
]


@pytest.mark.parametrize("text,bad", BLOCK_ARITY)
def test_a_block_with_a_value_too_many_or_too_few_fails_check(text, bad,
                                                              tmp_path):
    regions = invalid_regions(tokenize(text))
    assert [text[start:end] for start, end in regions] == bad
    path = tmp_path / "block.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert f"0 errors, {len(bad)} invalid regions" in result.output


@pytest.mark.parametrize("text", [
    _GOAL.format("(:metric maximize (total-time))"),
    _GOAL.format("(:metric MINIMIZE (+ (f) 2))"),
    _GOAL.format("(:requirements) (:init)"),
    _GOAL.format("(:requirements :strips :typing) (:init (p) (q) (r))"),
    _DOMAIN.format("(:derived (p ?x) (q)) (:predicates)"),
])
def test_a_repeating_block_takes_any_number_of_values(text):
    assert invalid_regions(tokenize(text)) == []


# -- blocks with no keyword ------------------------------------------------------

@pytest.mark.parametrize("text,block", [
    ("(define (domain d) ((x) y))", "((x) y)"),
    ("(define (domain d) ())", "()"),
    ("(define (domain d) (:predicates (p)) ((:action a)))", "((:action a))"),
    ("(define (problem p) (:domain d) ((x) y) (:goal (g)))", "((x) y)"),
    ("(define (problem p) (:domain d) () (:goal (g)))", "()"),
])
def test_a_block_with_no_keyword_is_unscoped_whole_and_reported(
        text, block, tmp_path):
    start = text.index(block)
    assert invalid_regions(tokenize(text)) == [Span(start, start + len(block))]
    parse = parse_problem if "(problem" in text else parse_domain
    assert [d.code for d in parse(text)[1]] == ["unknown-block"]
    path = tmp_path / "block.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output


@pytest.mark.parametrize("text", ["((x) y)", "()", "(() (x))"])
def test_a_top_level_form_with_no_keyword_keeps_its_lexical_reading(text):
    assert invalid_regions(tokenize(text)) == []
    assert {t.scope for t in tokenize(text)} <= {Scope.PUNCTUATION,
                                                 Scope.NAME}


# -- timed conditions and effects -----------------------------------------------

def _durative(condition: str, effect: str = "(at end (p))") -> str:
    return ("(define (domain d) (:predicates (p))\n"
            "  (:durative-action a :parameters () :duration (= ?duration 1)\n"
            f"    :condition {condition} :effect {effect}))")


@pytest.mark.parametrize("timed", ["(at start (p))", "(at end (p))",
                                   "(over all (p))", "(AT START (p))"])
def test_each_time_specifier_pairs_with_its_wrapper(timed, tmp_path):
    # A timed effect is "at start" or "at end" only.
    effect = "(at end (p))" if timed.startswith("(over") else timed
    text = _durative(f"(and {timed} {timed})", f"(and {effect})")
    assert invalid_regions(tokenize(text)) == []
    path = tmp_path / "timed.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("timed", ["(over start (p))", "(at all (p))",
                                   "(over end (p))"])
@pytest.mark.parametrize("where", ["condition", "effect"])
def test_a_time_specifier_of_the_other_wrapper_is_invalid(timed, where,
                                                         tmp_path):
    text = _durative(timed) if where == "condition" \
        else _durative("(at start (p))", timed)
    start = text.index("(p)", text.index(timed))
    assert invalid_regions(tokenize(text)) == [Span(start, start + 3)]
    path = tmp_path / "timed.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert "0 errors, 1 invalid regions" in result.output


@pytest.mark.parametrize("effect", ["(over all (p))",
                                    "(and (at start (p)) (over all (p)))"])
def test_over_all_is_no_timed_effect(effect, tmp_path):
    # PDDL 2.1 times an effect at start or at end; "over all" is read as an
    # atomic formula, whose list argument is invalid.
    text = _durative("(at start (p))", effect)
    start = text.index("(p)", text.index("(over all"))
    assert invalid_regions(tokenize(text)) == [Span(start, start + 3)]
    path = tmp_path / "timed.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert "0 errors, 1 invalid regions" in result.output


# -- empty lists -----------------------------------------------------------------

_ACTION = ("(define (domain d) (:predicates (p))\n"
           "  (:action a :parameters () {}))")
_PROBLEM = "(define (problem q) (:domain d) {})"


@pytest.mark.parametrize("text", [
    _ACTION.format(":precondition (and () (p)) :effect (p)"),
    _ACTION.format(":precondition (p) :effect (and (p) ())"),
    _ACTION.format(":precondition (not ()) :effect (p)"),
    _PROBLEM.format("(:init () (p)) (:goal (p))"),
    _PROBLEM.format("(:init (p)) (:goal (and () (p)))"),
    _PROBLEM.format("(:init (p)) (:goal ())"),
], ids=["precondition", "effect", "not", "init", "goal-and", "goal"])
def test_an_empty_list_in_a_formula_place_is_unscoped(text, tmp_path):
    start = text.rindex("()")
    assert invalid_regions(tokenize(text)) == [Span(start, start + 2)]
    path = tmp_path / "empty.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 1, result.output
    assert "0 errors, 1 invalid regions" in result.output


@pytest.mark.parametrize("text", [
    _ACTION.format(":precondition () :effect ()"),
    _ACTION.format(":precondition (and) :effect (and)"),
    _durative("()", "()").replace("(= ?duration 1)", "()"),
])
def test_an_empty_list_as_a_whole_action_value_is_valid(text, tmp_path):
    # In the PDDL 3.1 BNF, () stands only for <emptyOr> and a
    # <duration-constraint>: a whole :precondition, :effect, :condition or
    # :duration value.
    assert invalid_regions(tokenize(text)) == []
    path = tmp_path / "empty.pddl"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["check", str(path)])
    assert result.exit_code == 0, result.output


# -- typed lists: one reader for both layers ------------------------------------

# Typed lists with a '-' that nothing follows, and whether the model reads
# that list (it does not read the body of an effect).
DANGLING_CASES = [
    ("(define (domain d) (:types a -))", True),
    ("(define (domain d) (:constants c -))", True),
    ("(define (domain d) (:predicates (p ?x -)))", True),
    ("(define (domain d) (:functions (f) -))", True),
    ("(define (domain d) (:functions (f ?x -)))", True),
    ("(define (domain d) (:action a :parameters (?x -) :effect (p ?x)))",
     True),
    ("(define (problem p) (:domain d) (:objects o -) (:goal (g)))", True),
    ("(define (domain d) (:action a :effect (forall (?x -) (p ?x))))",
     False),
]


@pytest.mark.parametrize("text,model_reads", DANGLING_CASES)
def test_a_dangling_dash_is_unscoped_and_an_error_in_both_layers(
        text, model_reads):
    start = text.rindex("-")
    dash = Span(start, start + 1)
    assert invalid_regions(tokenize(text)) == [dash]
    parse = parse_problem if "(problem" in text else parse_domain
    assert [(d.code, d.span, d.severity.value) for d in parse(text)[1]] == \
        ([("dangling-dash", dash, "error")] if model_reads else [])


@pytest.mark.parametrize("block,code", [(":predicates", "bad-predicate"),
                                        (":functions", "bad-function")])
@pytest.mark.parametrize("empty", ["()", "( \n )"])
def test_an_empty_declaration_is_unscoped_and_reported_in_both_layers(
        block, code, empty):
    text = f"(define (domain d) ({block} {empty}))"
    start = text.index(empty)
    whole = Span(start, start + len(empty))
    assert invalid_regions(tokenize(text)) == [whole]
    assert [(d.code, d.span) for d in parse_domain(text)[1]] == [(code, whole)]


def test_an_either_return_type_types_its_functions_in_both_layers():
    text = ("(define (domain d) (:types t u) "
            "(:functions (f ?x) (g) - (either t u) (h)))")
    domain, diagnostics = parse_domain(text)
    assert [(f.name, f.return_type) for f in domain.functions] == [
        ("f", "(either t u)"), ("g", "(either t u)"), ("h", "number")]
    start = text.index("(either")
    assert [(d.code, d.span) for d in diagnostics] == \
        [("either-type", Span(start, start + len("(either t u)")))]
    tokens = [(t.text, t.scope) for t in tokenize(text)
              if t.span.start >= text.index("- (either")
              and not t.text.isspace()]
    assert tokens[:6] == [
        ("-", Scope.PUNCTUATION), ("(", Scope.PUNCTUATION),
        ("either", Scope.KEYWORD), ("t", Scope.TYPE_NAME),
        ("u", Scope.TYPE_NAME), (")", Scope.PUNCTUATION)]
    assert invalid_regions(tokenize(text)) == []


def test_any_other_list_after_a_dash_in_functions_is_a_bad_type():
    text = "(define (domain d) (:functions (f) - (g)))"
    domain, diagnostics = parse_domain(text)
    assert [(f.name, f.return_type) for f in domain.functions] == \
        [("f", "(g)")]
    start = text.index("(g)")
    assert [(d.code, d.span) for d in diagnostics] == \
        [("bad-type", Span(start, start + 3))]
    assert invalid_regions(tokenize(text)) == [Span(start, start + 3)]


# Typed lists whose type, the last atom before ')', is no name.
BAD_ATOM_TYPES = [
    "(define (domain d) (:types a - ?y))",
    "(define (domain d) (:constants k - 12))",
    "(define (domain d) (:predicates (p ?x - ?z)))",
    "(define (domain d) (:functions (f) - 5))",
    "(define (domain d) (:action a :parameters (?x - ?t) :effect (p ?x)))",
    "(define (problem p) (:domain d) (:objects o - ?t) (:goal (g)))",
]


@pytest.mark.parametrize("text", BAD_ATOM_TYPES)
def test_an_atom_type_that_is_no_name_is_one_bad_type_in_both_layers(text):
    bad = text.split(" - ")[1].split(")")[0]
    start = text.index(f"- {bad})") + 2
    span = Span(start, start + len(bad))
    assert invalid_regions(tokenize(text)) == [span]
    parse = parse_problem if "(problem" in text else parse_domain
    assert [(d.code, d.message, d.span) for d in parse(text)[1]] == [
        ("bad-type", f"{bad!r} in type position is not a type name", span)]


# A comment in each place of a typed list, and the same list without it.
TYPED_LIST_COMMENTS = [
    ("(define (domain d) (:types a ; note\n b - t c))",
     "(define (domain d) (:types a b - t c))"),
    ("(define (domain d) (:types a b - ; note\n t c))",
     "(define (domain d) (:types a b - t c))"),
    ("(define (domain d) (:action a :parameters (?x ; note\n - t ?y)"
     " :effect (p ?x ?y)))",
     "(define (domain d) (:action a :parameters (?x - t ?y)"
     " :effect (p ?x ?y)))"),
]


def _typed_entries(domain):
    return [[(e.name, e.type_name) for e in typed.entries]
            for typed in (domain.types, *(a.parameters
                                           for a in domain.actions))]


@pytest.mark.parametrize("text,plain_text", TYPED_LIST_COMMENTS)
def test_a_comment_in_a_typed_list_is_a_comment_in_both_layers(text,
                                                               plain_text):
    tokens = tokenize(text)
    assert [t.scope for t in tokens if t.text.startswith(";")] == \
        [Scope.COMMENT]
    assert invalid_regions(tokens) == []
    domain, diagnostics = parse_domain(text)
    assert diagnostics == []
    assert _typed_entries(domain) == _typed_entries(parse_domain(plain_text)[0])


def test_an_atom_as_the_parameters_is_invalid_and_reads_as_none():
    text = "(define (domain d) (:action a :parameters ?x :effect (p)))"
    start = text.index("?x")
    assert invalid_regions(tokenize(text)) == [Span(start, start + 2)]
    domain, diagnostics = parse_domain(text)
    assert domain.actions[0].parameters.entries == []
    assert [(d.code, d.span) for d in diagnostics] == \
        [("bad-parameters", Span(start, start + 2))]


def test_an_atom_item_of_the_wrong_class_is_reported_and_left_out():
    text = ("(define (domain d) (:types ?y 12 a - t) (:constants c ?c)"
            " (:predicates (p ?x b)))")
    domain, diagnostics = parse_domain(text)
    assert [e.name for e in domain.types.entries] == ["a"]
    assert [e.name for e in domain.constants.entries] == ["c"]
    assert [e.name for e in domain.predicates[0].parameters.entries] == ["?x"]
    found = [d.span for d in diagnostics if d.code == "bad-typed-list-item"]
    assert [text[s.start:s.end] for s in found] == ["?y", "12", "?c", "b"]
    regions = invalid_regions(tokenize(text))
    assert all(any(r.start <= f.start and f.end <= r.end for r in regions)
               for f in found)
    graph, _ = build_type_graph(domain)
    assert graph.nodes == {"object", "a", "t"}
    problem, diagnostics = parse_problem(
        "(define (problem p) (:domain d) (:objects o 7 - t) (:goal (g)))")
    assert [e.name for e in problem.objects.entries] == ["o"]
    assert [d.code for d in diagnostics] == ["bad-typed-list-item"]


@pytest.mark.parametrize("text,item", [
    ("(define (domain d) (:action a :parameters (?x (y)) :effect (p)))",
     "variable"),
    ("(define (domain d) (:predicates (p ?x (q))))", "variable"),
    ("(define (domain d) (:types a (b)))", "name"),
    ("(define (problem p) (:domain d) (:objects o (b)) (:goal (g)))", "name"),
])
def test_a_list_item_names_the_class_its_typed_list_expects(text, item):
    parse = parse_problem if "(problem" in text else parse_domain
    _, diagnostics = parse(text)
    assert [d.message for d in diagnostics] == \
        [f"expression where a {item} was expected in typed list"]


@pytest.mark.parametrize("depth", [5, _MAX_GRAMMAR_DEPTH + 5])
@pytest.mark.parametrize("outer,inner", [
    ("(:foo {}))", "(x "),
    ("(:action a :precondition {}))", "(and "),
])
def test_a_variable_heading_a_list_is_unscoped_at_any_depth(
        depth, outer, inner):
    text = "(define (domain d) " + outer.format(
        inner * depth + "(?v a)" + ")" * depth)
    scopes = {t.text: t.scope for t in tokenize(text)}
    assert (scopes["?v"], scopes["a"]) == (Scope.UNSCOPED, Scope.NAME)
    assert [d.code for d in parse_domain(text)[1]] == \
        (["unknown-block"] if outer.startswith("(:foo") else [])


# Model diagnostics about a typed list that must each overlap an invalid
# region. ``either-type`` is left out: the walk scopes ``either``.
TYPED_LIST_CODES = {"dangling-dash", "bad-type", "bad-typed-list-item",
                    "bad-function"}
TYPED_LIST_PLACES = {
    ":types": "(define (domain d) (:types {}))",
    ":predicates": "(define (domain d) (:predicates (p {})))",
    ":functions": "(define (domain d) (:functions (f {}) {}))",
    ":parameters": "(define (domain d) (:action a :parameters ({}) "
                   ":effect (p)))",
}


@given(st.sampled_from(sorted(TYPED_LIST_PLACES)),
       st.lists(st.sampled_from(["a", "b2", "?x", "?y", "-", "(either a b)",
                                 "(s t)", "(s)", "()"]), max_size=8),
       st.booleans())
@settings(max_examples=400)
def test_every_typed_list_diagnostic_of_the_model_is_an_invalid_region(
        place, items, trailing_dash):
    body = " ".join(items + ["-"] * trailing_dash)
    text = TYPED_LIST_PLACES[place].replace("{}", body)
    _, diagnostics = parse_domain(text)
    regions = invalid_regions(tokenize(text))
    for diagnostic in diagnostics:
        if diagnostic.code in TYPED_LIST_CODES:
            assert any(diagnostic.span.overlaps(r) for r in regions), \
                (diagnostic, text)
