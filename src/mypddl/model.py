"""Typed PDDL 3.1 view over the lossless tree: the grammar's tables, the
model's records, and the functions that read a domain or a problem.

The scope walk (``highlight._Walk``) reads the grammar from the tables here
and fills the records as it goes, so the model and the tokens come from one
reader. Parsing is best-effort: unrecognized or malformed blocks produce
diagnostics instead of failures, because the toolkit has to keep working on
broken files. The records hold references back into the concrete-syntax
tree, so the original text is never copied or normalized.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence, TypeVar, Union

from .sexpr import (
    Document,
    NodeKind,
    ParseDiagnostic,
    Record,
    SExprNode,
    Severity,
    Span,
    as_document,
)

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
VARIABLE_RE = re.compile(r"\?[A-Za-z][A-Za-z0-9_-]*\Z")
NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")

# The PDDL 3.1 block grammar (Kovacs, 2011), written down once: each block
# of a domain and of a problem with the contexts the scope walk
# (``highlight._Walk``) reads the values of its body in, or the one handler
# that reads it whole and fills the model; and, for each kind of action,
# what each key's value fills in the model and its context. A model keeps a
# block of values as nodes. A new block or action key goes here.
DOMAIN_BLOCKS = {
    ":requirements": ("requirement",),
    **dict.fromkeys((":types", ":constants"), "typed-block"),
    ":predicates": ("predicate",),
    ":functions": "function-list",
    **dict.fromkeys((":action", ":durative-action"), "action-block"),
    ":derived": ("declaration", "condition"),
    ":constraints": ("constraint",),
}
PROBLEM_BLOCKS = {
    ":domain": ("name",),
    ":requirements": ("requirement",),
    ":objects": "typed-block",
    ":init": ("init",),
    ":goal": ("condition",),
    ":metric": ("optimization", "fexp"),
    ":constraints": ("constraint",),
}
DOMAIN_BLOCK_KEYS = frozenset(DOMAIN_BLOCKS)
PROBLEM_BLOCK_KEYS = frozenset(PROBLEM_BLOCKS)
# Blocks a domain may hold more than once; a repeat of any other is reported.
REPEATABLE_BLOCKS = frozenset({":action", ":durative-action", ":derived"})
ACTION_KEYS = {
    ":action": {
        ":parameters": ("parameters", "parameters"),
        ":precondition": ("precondition", "condition"),
        ":effect": ("effect", "effect"),
    },
    ":durative-action": {
        ":parameters": ("parameters", "parameters"),
        ":duration": ("duration", "condition"),
        ":condition": ("condition", "timed-condition"),
        ":effect": ("effect", "timed-effect"),
    },
}
# The formula grammar, written down the same way: for each context the walk
# reads formulas in, the keywords that head one there and the contexts of
# the values after the keyword, one value per context (PDDL 3.1's fixed
# arities). A keyword of ``VARIADIC_KEYWORDS`` repeats its row's last
# context instead. A list headed by any other name is an atomic formula.
# "at" and "over" also name predicates, as in (at ?x ?y), so a row of theirs
# holds only where the value after them is an atom that the row's first
# context takes. A preference's name is optional: without an atom after
# "preference", its row goes on from its second context, the one GD.
CONDITION_RULES = {
    **dict.fromkeys(("and", "or", "not"), ("condition",)),
    "imply": ("condition", "condition"),
    **dict.fromkeys(("forall", "exists"), ("parameters", "condition")),
    "preference": ("name", "condition"),
    **dict.fromkeys(("=", "<", ">", "<=", ">="), ("fexp", "fexp")),
}
EFFECT_RULES = {
    **dict.fromkeys(("and", "not"), ("effect",)),
    "when": ("condition", "effect"),
    "forall": ("parameters", "effect"),
    **dict.fromkeys(("assign", "increase", "decrease", "scale-up",
                     "scale-down"), ("fexp", "fexp")),
}
INIT_RULES = {"=": ("fexp", "fexp"), "not": ("init",),
              "at": ("number", "init")}
# PDDL 2.1 (Fox and Long, 2003): "at start|end" and "over all"; effects only "at".
TIMED_CONDITION_RULES = {
    **CONDITION_RULES, "and": ("timed-condition",),
    "at": ("start-or-end", "condition"), "over": ("all", "condition"),
}
TIMED_EFFECT_RULES = {
    **EFFECT_RULES, "and": ("timed-effect",), "at": ("start-or-end", "effect"),
}
# PDDL3 constraints (Gerevini and Long, 2005), in :constraints and in the
# preferences there: a condition, or a temporal operator over conditions.
CONSTRAINT_RULES = {
    **CONDITION_RULES, "and": ("constraint",),
    "forall": ("parameters", "constraint"),
    "preference": ("name", "constraint"),
    "at": ("end", "condition"),
    **dict.fromkeys(("always", "sometime", "at-most-once"), ("condition",)),
    **dict.fromkeys(("sometime-before", "sometime-after"),
                    ("condition", "condition")),
    **dict.fromkeys(("within", "hold-after"), ("number", "condition")),
    "always-within": ("number", "condition", "condition"),
    "hold-during": ("number", "number", "condition"),
}
NUMERIC_RULES = dict.fromkeys(("+", "-", "*", "/"), ("fexp",))
# The keywords that take any number of values: of formulas, where "-"
# takes one value or two, and of the blocks a value of which may repeat.
VARIADIC_KEYWORDS = frozenset({"and", "or", "+", "-", "*", "/",
                               ":requirements", ":predicates", ":init"})
# Atoms that are keywords in a numeric expression: #t, the time elapsed in a
# continuous effect (Fox and Long, 2003).
NUMERIC_KEYWORDS = frozenset({"#t"})
PREDICATE_KEYWORDS = frozenset({"at", "over"})
OPTIONAL_NAME_KEYWORDS = frozenset({"preference"})
REQUIREMENT_KEYS = frozenset({
    ":strips", ":typing", ":negative-preconditions",
    ":disjunctive-preconditions", ":equality", ":existential-preconditions",
    ":universal-preconditions", ":quantified-preconditions",
    ":conditional-effects", ":fluents", ":numeric-fluents", ":object-fluents",
    ":adl", ":durative-actions", ":duration-inequalities",
    ":continuous-effects", ":derived-predicates", ":timed-initial-literals",
    ":preferences", ":constraints", ":action-costs",
})

DEFAULT_TYPE = "object"


def is_name(text: str) -> bool:
    return bool(NAME_RE.match(text))


def is_variable(text: str) -> bool:
    return bool(VARIABLE_RE.match(text))


def is_number(text: str) -> bool:
    return bool(NUMBER_RE.match(text))


class TypedEntry(NamedTuple):
    name: str
    type_name: str = DEFAULT_TYPE
    name_span: Optional[Span] = None
    type_span: Optional[Span] = None


class TypedList(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: Optional[list[TypedEntry]] = None) -> None:
        self.entries = [] if entries is None else entries

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


class PredicateDecl(NamedTuple):
    name: str
    parameters: TypedList
    signature_text: str
    span: Optional[Span] = None


class FunctionDecl(NamedTuple):
    name: str
    parameters: TypedList
    return_type: str
    signature_text: str
    span: Optional[Span] = None


class ActionDecl(Record):
    __slots__ = ("name", "parameters", "precondition", "effect", "span")

    def __init__(self, name: Optional[str], parameters: TypedList,
                 precondition: Optional[SExprNode] = None,
                 effect: Optional[SExprNode] = None,
                 span: Optional[Span] = None) -> None:
        self.name, self.parameters = name, parameters
        self.precondition, self.effect, self.span = precondition, effect, span


class DurativeActionDecl(Record):
    __slots__ = ("name", "parameters", "duration", "condition", "effect",
                 "span")

    def __init__(self, name: Optional[str], parameters: TypedList,
                 duration: Optional[SExprNode] = None,
                 condition: Optional[SExprNode] = None,
                 effect: Optional[SExprNode] = None,
                 span: Optional[Span] = None) -> None:
        self.name, self.parameters, self.duration = name, parameters, duration
        self.condition, self.effect, self.span = condition, effect, span


class PddlDomain(Record):
    __slots__ = ("name", "requirements", "types", "constants", "predicates",
                 "functions", "actions", "durative_actions", "derived")

    def __init__(self, name: Optional[str] = None,
                 requirements: Optional[list[str]] = None,
                 types: Optional[TypedList] = None,
                 constants: Optional[TypedList] = None,
                 predicates: Optional[list[PredicateDecl]] = None,
                 functions: Optional[list[FunctionDecl]] = None,
                 actions: Optional[list[ActionDecl]] = None,
                 durative_actions: Optional[list[DurativeActionDecl]] = None,
                 derived: Optional[list[SExprNode]] = None) -> None:
        self.name = name
        self.requirements = [] if requirements is None else requirements
        self.types = TypedList() if types is None else types
        self.constants = TypedList() if constants is None else constants
        self.predicates = [] if predicates is None else predicates
        self.functions = [] if functions is None else functions
        self.actions = [] if actions is None else actions
        self.durative_actions = [] if durative_actions is None \
            else durative_actions
        self.derived = [] if derived is None else derived


class PddlProblem(Record):
    __slots__ = ("name", "domain_ref", "objects", "init", "goal", "metric")

    def __init__(self, name: Optional[str] = None,
                 domain_ref: Optional[str] = None,
                 objects: Optional[TypedList] = None,
                 init: Optional[list[SExprNode]] = None,
                 goal: Optional[SExprNode] = None,
                 metric: Optional[SExprNode] = None) -> None:
        self.name, self.domain_ref = name, domain_ref
        self.objects = TypedList() if objects is None else objects
        self.init = [] if init is None else init
        self.goal, self.metric = goal, metric


Model = TypeVar("Model", PddlDomain, PddlProblem)


def head_key(node: SExprNode) -> Optional[str]:
    """The lowercased text of a list's head atom, or None."""
    head = node.head() if node.kind is NodeKind.LIST else None
    return head.text.lower() if head is not None \
        and head.kind is NodeKind.ATOM else None


def is_define(node: SExprNode) -> bool:
    return head_key(node) == "define"


def parse_typed_list(nodes: Sequence[SExprNode]) -> tuple[TypedList, list[ParseDiagnostic]]:
    """Group ``a b - t c - u`` into typed entries, as the scope walk reads
    a typed list of names.

    Names after the last '-' group default to "object"; a dangling '-' gets
    a diagnostic and its preceding names fall back to the default as well.
    """
    from .highlight import _Walk  # which reads the tables of this module
    walk = _Walk(PddlDomain())
    entries = walk.typed_list(SExprNode(NodeKind.LIST, children=tuple(nodes)),
                              None)
    return TypedList(entries), walk.diagnostics


def _read(source: Union[str, Document], model: Model,
          ) -> tuple[Model, list[ParseDiagnostic]]:
    """``model`` as the scope walk fills it from the first define form of a
    document (or of text, parsed first), with the parse diagnostics
    followed by the model's own."""
    from .highlight import _Walk  # which reads the tables of this module
    doc = as_document(source)
    walk = _Walk(model)
    define = next(filter(is_define, doc.forest), None)
    if define is None:
        walk.diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.ERROR,
            f"no (define ({walk.kind} ...)) form found", "missing-define"))
    else:
        walk.define_form(define, define.head())
    return model, doc.diagnostics + walk.diagnostics


def parse_domain(source: Union[str, Document],
                 ) -> tuple[PddlDomain, list[ParseDiagnostic]]:
    """The typed domain of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    return _read(source, PddlDomain())


def parse_problem(source: Union[str, Document],
                  ) -> tuple[PddlProblem, list[ParseDiagnostic]]:
    """The typed problem of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    return _read(source, PddlProblem())
