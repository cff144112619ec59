"""Valid domains and problems, built from the grammar tables of
``mypddl.model``: every block key, action key and typed list, every formula
keyword at its arity, the time specifiers and the PDDL3 operators. A valid
file has no invalid region, no error or warning from the model or the type
graph, and ``check`` exits 0 on it."""

import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main
from mypddl.highlight import invalid_regions, tokenize
from mypddl.model import (
    ACTION_KEYS,
    CONDITION_RULES,
    CONSTRAINT_RULES,
    DOMAIN_BLOCKS,
    EFFECT_RULES,
    INIT_RULES,
    NUMERIC_KEYWORDS,
    NUMERIC_RULES,
    OPTIONAL_NAME_KEYWORDS,
    PROBLEM_BLOCKS,
    REQUIREMENT_KEYS,
    TIMED_CONDITION_RULES,
    TIMED_EFFECT_RULES,
    VARIADIC_KEYWORDS,
    parse_domain,
    parse_problem,
)
from mypddl.sexpr import Severity
from mypddl.typegraph import build_type_graph

# The formula rows of each context.
RULES = {"condition": CONDITION_RULES, "effect": EFFECT_RULES,
         "init": INIT_RULES, "timed-condition": TIMED_CONDITION_RULES,
         "timed-effect": TIMED_EFFECT_RULES, "constraint": CONSTRAINT_RULES}
# The atoms each one-atom place of the grammar takes.
PLACES = {"name": ("n0", "end"), "number": ("0", "2.5", "-1e3"),
          "start-or-end": ("start", "END"), "all": ("all", "ALL"),
          "end": ("end",), "optimization": ("minimize", "maximize"),
          "requirement": tuple(sorted(REQUIREMENT_KEYS)),
          "ground-term": ("n0", "0", "2.5")}
TYPES = ("t0", "t1", "t2")
OBJECTS = ("n0", "n1", "start")
VARIABLES = ("?x", "?y", "?duration")
PREDICATES = ("p0", "p1")
FUNCTIONS = ("f0", "f1")


class Writer:
    """The text of valid files, each choice made by ``pick``, which takes a
    sequence and returns one of its items."""

    def __init__(self, pick):
        self.pick = pick

    def some(self, context, depth, ground=False, most=2):
        """One value of ``context``, then up to ``most`` more."""
        return " ".join(self.value(context, depth, ground)
                        for _ in range(1 + self.pick(range(most + 1))))

    def typed(self, items, types=(*TYPES, "object")):
        """A typed list: runs of items, each but perhaps the last typed."""
        parts = []
        for run in range(self.pick((1, 2))):
            parts += [self.pick(items) for _ in range(self.pick((1, 2)))]
            if run == 0 or self.pick((True, False)):
                parts += ["-", self.pick(types)]
        return " ".join(parts)

    def value(self, context, depth, ground=False):
        """A value of a context of the block or formula tables."""
        if context in PLACES:
            return self.pick(PLACES[context])
        if context == "parameters":
            return f"({self.typed(VARIABLES)})"
        if context in ("declaration", "predicate"):
            return f"({self.pick(PREDICATES)} {self.typed(VARIABLES)})"
        if context == "fexp":
            return self.fexp(depth, ground)
        if context == "fexp-t":
            return self.rate(depth, ground)
        if context == "function-term":
            return self.pick((self.pick(FUNCTIONS),
                              f"({self.pick(FUNCTIONS)}{self.terms(True)})"))
        return self.formula(context, depth, ground or context == "init")

    def terms(self, ground):
        terms = OBJECTS if ground else OBJECTS + VARIABLES
        return "".join(f" {self.pick(terms)}"
                       for _ in range(self.pick((0, 2))))

    def formula(self, context, depth, ground=False, key=None):
        """A formula of ``context``, headed by ``key`` if given, else by any
        keyword of the context, or atomic."""
        rules = RULES[context]
        if key is None and depth > 0:
            key = self.pick((None, *sorted(rules)))
        if key is None:
            return f"({self.pick(PREDICATES)}{self.terms(ground)})"
        row = rules[key]
        if key in OPTIONAL_NAME_KEYWORDS and self.pick((False, True)):
            row = row[1:]
        values = [self.value(c, depth - 1, ground) for c in row]
        if key in VARIADIC_KEYWORDS:
            values += [self.value(row[-1], depth - 1, ground)
                       for _ in range(self.pick((0, 1, 2)))]
        return f"({self.pick((key, key.upper()))} {' '.join(values)})"

    def fexp(self, depth, ground=False):
        """A numeric expression: a number, a term, a function applied to
        terms or a numeric operation."""
        atoms = PLACES["number"]
        choice = self.pick(("atom", "application", "operation")
                           if depth > 0 else ("atom", "application"))
        if choice == "atom":
            return self.pick(atoms if ground else atoms + VARIABLES)
        if choice == "application":
            return f"({self.pick(FUNCTIONS)}{self.terms(ground)})"
        key = self.pick(sorted(NUMERIC_RULES))
        operands = 1 + self.pick((0, 1))
        return f"({key} " + " ".join(self.fexp(depth - 1, ground)
                                     for _ in range(operands)) + ")"

    def rate(self, depth, ground=False):
        """The rate of a continuous effect: #t, #t times a numeric
        expression, or a numeric expression."""
        time = self.pick(sorted(NUMERIC_KEYWORDS))
        fexp = self.fexp(depth, ground)
        return self.pick((time, f"(* {fexp} {time})", f"(* {time} {fexp})",
                          fexp))

    def block(self, key, row, depth):
        """A block of a domain or a problem, by its table row."""
        if row == "typed-block":
            if key == ":types":
                # Each type once, under object or an earlier type.
                return "(:types " + " ".join(
                    f"{t} - {self.pick(('object', *TYPES[:i]))}"
                    for i, t in enumerate(TYPES)) + ")"
            return f"({key} {self.typed(OBJECTS)})"
        if row == "function-list":
            return ("(:functions (f0 " + self.typed(VARIABLES)
                    + ") - number (f1))")
        if row == "action-block":
            entries = " ".join(f"{entry} {self.value(context, depth)}"
                               for entry, (_, context)
                               in ACTION_KEYS[key].items())
            return f"({key} a{self.pick(range(3))} {entries})"
        values = [self.value(context, depth) for context in row]
        if key in VARIADIC_KEYWORDS:
            values[-1:] = [self.some(row[-1], depth)]
        return f"({key} {' '.join(values)})"

    def domain(self, depth=3):
        blocks = [self.block(key, row, depth)
                  for key, row in DOMAIN_BLOCKS.items()]
        return "(define (domain d)\n  " + "\n  ".join(blocks) + ")\n"

    def problem(self, depth=3):
        blocks = [self.block(key, row, depth)
                  for key, row in PROBLEM_BLOCKS.items()]
        return "(define (problem q)\n  " + "\n  ".join(blocks) + ")\n"


def assert_valid(domain: str, problem: str) -> None:
    for text, parse in ((domain, parse_domain), (problem, parse_problem)):
        assert invalid_regions(tokenize(text)) == [], text
        assert parse(text)[1] == [], text
    graph_diagnostics = build_type_graph(parse_domain(domain)[0])[1]
    assert [d for d in graph_diagnostics
            if d.severity in (Severity.ERROR, Severity.WARNING)] == [], domain
    with tempfile.TemporaryDirectory() as work:
        paths = [Path(work, "domain.pddl"), Path(work, "problem.pddl")]
        for path, text in zip(paths, (domain, problem)):
            path.write_text(text, encoding="utf-8")
        result = CliRunner().invoke(main, ["check", *map(str, paths)])
    assert result.exit_code == 0, result.output


@st.composite
def valid_files(draw):
    writer = Writer(lambda items: draw(st.sampled_from(items)))
    return writer.domain(), writer.problem()


@given(valid_files())
@settings(max_examples=40, deadline=None)
def test_a_valid_file_from_the_tables_checks_clean(files):
    assert_valid(*files)


# Where a formula of each context goes in a valid file.
PLACE_OF = {
    "condition": (":action a :parameters (?x) :precondition {} :effect (p0)",
                  None),
    "effect": (":action a :parameters (?x) :precondition (p0) :effect {}",
               None),
    "timed-condition": (":durative-action a :parameters (?x) :duration "
                        "(= ?duration 1) :condition {} :effect (at end (p0))",
                        None),
    "timed-effect": (":durative-action a :parameters (?x) :duration "
                     "(= ?duration 1) :condition (at start (p0)) :effect {}",
                     None),
    "init": (None, "(:init {})"),
    "constraint": (None, "(:constraints {})"),
}
KEYWORD_CASES = [(context, key) for context, rules in RULES.items()
                 for key in sorted(rules)]


@pytest.mark.parametrize("context,key", KEYWORD_CASES)
@pytest.mark.parametrize("choice", [0, -1], ids=["first", "last"])
def test_every_formula_keyword_at_its_arity_checks_clean(context, key,
                                                         choice):
    writer = Writer(lambda items: tuple(items)[choice])
    formula = writer.formula(context, 2, context == "init", key)
    action, block = PLACE_OF[context]
    domain = ("(define (domain d) (:predicates (p0) (p1))\n  ("
              + (action or ":action a :parameters () :effect (p0)").format(
                  formula) + "))\n")
    problem = ("(define (problem q) (:domain d) (:goal (p0))\n  "
               + (block or "(:init (p1))").format(formula) + ")\n")
    assert_valid(domain, problem)
