"""Typed PDDL 3.1 view over the lossless tree.

Parsing is best-effort: unrecognized or malformed blocks produce diagnostics
instead of failures, because the toolkit has to keep working on broken files.
The resulting records hold references back into the concrete-syntax tree, so
the original text is never copied or normalized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .sexpr import (
    Document,
    NodeKind,
    ParseDiagnostic,
    SExprNode,
    Severity,
    Span,
    as_document,
    serialize_node,
)

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
VARIABLE_RE = re.compile(r"\?[A-Za-z][A-Za-z0-9_-]*\Z")
NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")

# The PDDL 3.1 block grammar (Kovacs, 2011), written down once: each block
# of a domain and of a problem with the contexts the scope walk
# (``highlight._Walk``) reads the values of its body in, or the one handler
# that reads it whole; and, for each kind of action, what each key's value
# fills in the model and its context. A new block or action key goes here.
DOMAIN_BLOCKS = {
    ":requirements": ("requirement",),
    **dict.fromkeys((":types", ":constants"), "typed-list"),
    ":predicates": ("declaration",),
    ":functions": "function-list",
    **dict.fromkeys((":action", ":durative-action"), "action-block"),
    ":derived": ("declaration", "condition"),
    ":constraints": ("constraint",),
}
PROBLEM_BLOCKS = {
    ":domain": ("name",),
    ":requirements": ("requirement",),
    ":objects": "typed-list",
    ":init": ("init",),
    ":goal": ("condition",),
    ":metric": ("metric",),
    ":constraints": ("constraint",),
}
DOMAIN_BLOCK_KEYS = frozenset(DOMAIN_BLOCKS)
PROBLEM_BLOCK_KEYS = frozenset(PROBLEM_BLOCKS)
# Blocks a domain may hold more than once; a repeat of any other is reported.
_REPEATABLE_BLOCKS = frozenset({":action", ":durative-action", ":derived"})
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
# context takes.
CONDITION_RULES = {
    **dict.fromkeys(("and", "or", "not"), ("condition",)),
    "imply": ("condition", "condition"),
    **dict.fromkeys(("forall", "exists"), ("parameters", "condition")),
    "preference": ("name-or-condition", "condition"),
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
    "preference": ("name-or-constraint", "constraint"),
    "at": ("end", "condition"),
    **dict.fromkeys(("always", "sometime", "at-most-once"), ("condition",)),
    **dict.fromkeys(("sometime-before", "sometime-after"),
                    ("condition", "condition")),
    **dict.fromkeys(("within", "hold-after"), ("number", "condition")),
    "always-within": ("number", "condition", "condition"),
    "hold-during": ("number", "number", "condition"),
}
NUMERIC_RULES = dict.fromkeys(("+", "-", "*", "/"), ("fexp",))
# The formula keywords that take any number of values: a preference's name
# is optional, and "-" takes one value or two.
VARIADIC_KEYWORDS = frozenset({"and", "or", "preference", "+", "-", "*", "/"})
# Atoms that are keywords in a numeric expression: #t, the time elapsed in a
# continuous effect (Fox and Long, 2003).
NUMERIC_KEYWORDS = frozenset({"#t"})
PREDICATE_KEYWORDS = frozenset({"at", "over"})
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

_is_trivia = attrgetter("is_trivia")


def is_name(text: str) -> bool:
    return bool(NAME_RE.match(text))


def is_variable(text: str) -> bool:
    return bool(VARIABLE_RE.match(text))


def is_number(text: str) -> bool:
    return bool(NUMBER_RE.match(text))


@dataclass(frozen=True)
class TypedEntry:
    name: str
    type_name: str = DEFAULT_TYPE
    name_span: Optional[Span] = None
    type_span: Optional[Span] = None


@dataclass
class TypedList:
    entries: list[TypedEntry] = field(default_factory=list)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]


@dataclass
class PredicateDecl:
    name: str
    parameters: TypedList
    signature_text: str
    span: Optional[Span] = None


@dataclass
class FunctionDecl:
    name: str
    parameters: TypedList
    return_type: str
    signature_text: str
    span: Optional[Span] = None


@dataclass
class ActionDecl:
    name: Optional[str]
    parameters: TypedList
    precondition: Optional[SExprNode] = None
    effect: Optional[SExprNode] = None
    span: Optional[Span] = None


@dataclass
class DurativeActionDecl:
    name: Optional[str]
    parameters: TypedList
    duration: Optional[SExprNode] = None
    condition: Optional[SExprNode] = None
    effect: Optional[SExprNode] = None
    span: Optional[Span] = None


@dataclass
class PddlDomain:
    name: Optional[str] = None
    requirements: list[str] = field(default_factory=list)
    types: TypedList = field(default_factory=TypedList)
    constants: TypedList = field(default_factory=TypedList)
    predicates: list[PredicateDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)
    actions: list[ActionDecl] = field(default_factory=list)
    durative_actions: list[DurativeActionDecl] = field(default_factory=list)
    derived: list[SExprNode] = field(default_factory=list)


@dataclass
class PddlProblem:
    name: Optional[str] = None
    domain_ref: Optional[str] = None
    objects: TypedList = field(default_factory=TypedList)
    init: list[SExprNode] = field(default_factory=list)
    goal: Optional[SExprNode] = None
    metric: Optional[SExprNode] = None


def typed_list_marks(nodes: Iterable[SExprNode],
                     head: Optional[SExprNode] = None,
                     ) -> dict[SExprNode, Optional[SExprNode]]:
    """The typed-list grammar, ``x+ - type`` repeated (Kovacs, 2011), read
    once for the model and the scope walk. Among the non-trivia ``nodes``
    other than ``head``, each '-' that starts a type is mapped to the node
    that is the type, or to None if nothing follows it, which makes that
    '-' misplaced. Every other value is an item."""
    marks: dict[SExprNode, Optional[SExprNode]] = {}
    values = filterfalse(_is_trivia, nodes)
    for node in values:
        if node.text == "-" and node is not head \
                and node.kind is NodeKind.ATOM:
            marks[node] = next(values, None)
    return marks


def _typed_runs(nodes: Sequence[SExprNode], kind: NodeKind,
                stray: tuple[str, str], diags: list[ParseDiagnostic],
                ) -> Iterator[tuple[list[SExprNode], Optional[str],
                                    Optional[Span]]]:
    """The items of a typed list, which are nodes of ``kind``, run by run,
    each run with the name and span of its type; the last run, which no
    type follows, with None for both. Lazily, so that diagnostics stay in
    file order: a value of another kind is reported, with the message
    format and code of ``stray``, as it is reached; a misplaced '-' or a
    compound type as its run ends."""
    marks = typed_list_marks(nodes)
    run: list[SExprNode] = []
    type_node = None
    for node in filterfalse(_is_trivia, nodes):
        if node is type_node:
            continue
        if node in marks:
            type_node = marks[node]
            if type_node is None:
                _warn(diags, node, "dangling '-' at end of typed list",
                      "dangling-dash", Severity.ERROR)
                continue
            type_name = type_node.text
            if type_node.kind is not NodeKind.ATOM:
                # "(either a b)" and friends: keep the raw text as the type
                # so nothing is lost, but flag it.
                type_name = serialize_node(type_node)
                _warn(diags, type_node,
                      f"compound type {type_name!r} in type position",
                      "either-type" if head_key(type_node) == "either"
                      else "bad-type")
            yield run, type_name, type_node.span
            run = []
        elif node.kind is kind:
            run.append(node)
        else:
            _warn(diags, node, stray[0].format(node.text), stray[1])
    yield run, None, None


def parse_typed_list(nodes: Sequence[SExprNode]) -> tuple[TypedList, list[ParseDiagnostic]]:
    """Group ``a b - t c - u`` into typed entries.

    Names after the last '-' group default to "object"; a dangling '-' gets
    a diagnostic and its preceding names fall back to the default as well.
    """
    diagnostics: list[ParseDiagnostic] = []
    entries: list[TypedEntry] = []
    for run, type_name, type_span in _typed_runs(
            nodes, NodeKind.ATOM,
            ("expression where a name was expected in typed list",
             "bad-typed-list-item"), diagnostics):
        for item in run:
            entries.append(TypedEntry(item.text, type_name or DEFAULT_TYPE,
                                      name_span=item.span,
                                      type_span=type_span))
    return TypedList(entries), diagnostics


def _warn(diags: list[ParseDiagnostic], node: SExprNode, message: str,
          code: str, severity: Severity = Severity.WARNING) -> None:
    span = node.span if node.span is not None else Span(0, 0)
    diags.append(ParseDiagnostic(span, severity, message, code))


def head_key(node: SExprNode) -> Optional[str]:
    """The lowercased text of a list's head atom, or None."""
    head = node.head() if node.kind is NodeKind.LIST else None
    return head.text.lower() if head is not None \
        and head.kind is NodeKind.ATOM else None


def is_define(node: SExprNode) -> bool:
    return head_key(node) == "define"


def find_define(forest: Sequence[SExprNode]) -> Optional[SExprNode]:
    """The first top-level ``(define ...)`` form, or None."""
    return next(filter(is_define, forest), None)


def define_kind(decl: Optional[SExprNode]) -> Optional[str]:
    """"domain" or "problem" if ``decl`` is a well-formed ``(domain NAME)``
    or ``(problem NAME)`` declaration, else None."""
    if decl is not None and decl.kind is NodeKind.LIST:
        values = decl.values()
        if len(values) == 2 and values[0].kind is NodeKind.ATOM \
                and values[1].kind is NodeKind.ATOM \
                and values[0].text.lower() in ("domain", "problem"):
            return values[0].text.lower()
    return None


def action_name(node: SExprNode, key: str) -> Optional[SExprNode]:
    """The name of an action block headed by ``key``: the atom after the
    head, unless it is one of ``ACTION_KEYS[key]``, which is never a name."""
    values = node.values()
    name = values[1] if len(values) > 1 else None
    return name if name is not None and name.kind is NodeKind.ATOM \
        and name.text.lower() not in ACTION_KEYS[key] else None


def _signature(node: SExprNode, what: str, diags: list[ParseDiagnostic],
               ) -> Optional[tuple[str, TypedList]]:
    """The name and typed parameters of a predicate or function declaration,
    ``(name typed-variables...)``, or None, reported, if it has no name."""
    values = node.values()
    if not values or values[0].kind is not NodeKind.ATOM:
        _warn(diags, node, f"malformed {what} declaration", f"bad-{what}")
        return None
    params, d = parse_typed_list(values[1:])
    diags.extend(d)
    return values[0].text, params


def _parse_action(node: SExprNode, key: str, diags: list[ParseDiagnostic],
                  ) -> Union[ActionDecl, DurativeActionDecl]:
    """An ``:action`` or ``:durative-action`` block, read by ``ACTION_KEYS``.

    An unknown key is reported and skipped together with its value; a list
    in key position is reported and skipped on its own.
    """
    what = key[1:].replace("-", " ")
    keys = ACTION_KEYS[key]
    decl = ActionDecl if key == ":action" else DurativeActionDecl
    name = action_name(node, key)
    action = decl(name=None if name is None else name.text,
                  parameters=TypedList(), span=node.span)
    rest = node.values()[1 if name is None else 2:]
    if name is None:
        _warn(diags, node, f"{what} has no name", "missing-action-name")
    i = 0
    while i < len(rest):
        entry, value = rest[i], rest[i + 1] if i + 1 < len(rest) else None
        if entry.kind is not NodeKind.ATOM:
            _warn(diags, entry, f"unrecognized entry '(...)' in {what}",
                  "unknown-action-key")
            i += 1
            continue
        i += 2
        attr, _ = keys.get(entry.text.lower(), (None, None))
        if attr is None:
            _warn(diags, entry, f"unrecognized entry {entry.text!r} in {what}",
                  "unknown-action-key")
        elif attr != "parameters":
            setattr(action, attr, value)
        elif value is not None and value.kind is NodeKind.LIST:
            action.parameters, d = parse_typed_list(value.children)
            diags.extend(d)
    return action


def _parse_functions(nodes: Sequence[SExprNode],
                     diags: list[ParseDiagnostic]) -> list[FunctionDecl]:
    """Function declarations, each run typed by ``- type`` or else
    "number"."""
    decls: list[FunctionDecl] = []
    for run, return_type, _ in _typed_runs(
            nodes, NodeKind.LIST,
            ("unexpected {!r} in (:functions ...)", "bad-function"), diags):
        for raw in run:
            if signature := _signature(raw, "function", diags):
                decls.append(FunctionDecl(*signature, return_type or "number",
                                          serialize_node(raw), span=raw.span))
    return decls


def _header(source: Union[str, Document], kind: str,
            ) -> tuple[Optional[SExprNode], Optional[str], list[SExprNode],
                       list[ParseDiagnostic]]:
    """The define form of a document, the NAME of its ``(kind NAME)``
    declaration, the blocks after it, and the parse diagnostics followed by
    any for a missing define form or declaration."""
    doc = as_document(source)
    diagnostics = list(doc.diagnostics)
    define = find_define(doc.forest)
    if define is None:
        diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.ERROR,
            f"no (define ({kind} ...)) form found", "missing-define"))
        return None, None, [], diagnostics
    blocks = define.values()[1:]
    if blocks and define_kind(blocks[0]) == kind:
        return define, blocks[0].values()[1].text, blocks[1:], diagnostics
    _warn(diagnostics, define, f"missing ({kind} NAME) declaration",
          f"missing-{kind}-decl", Severity.ERROR)
    return define, None, blocks, diagnostics


def _blocks(blocks: Sequence[SExprNode], level: str, keys: frozenset[str],
            diags: list[ParseDiagnostic],
            ) -> Iterator[tuple[str, SExprNode, list[SExprNode]]]:
    """Each known block as (key, block, body), lazily, so that diagnostics
    stay in file order: a stray atom, an unknown block or a repeat of a
    block that may appear once is reported as it is reached."""
    seen: set[str] = set()
    for block in blocks:
        if block.kind is not NodeKind.LIST:
            _warn(diags, block, f"stray {block.text!r} at {level} level",
                  "stray-atom")
            continue
        key = head_key(block)
        if key not in keys:
            _warn(diags, block,
                  f"unrecognized block {key or '(...)'!s} skipped", "unknown-block")
            continue
        if key in seen and key not in _REPEATABLE_BLOCKS:
            _warn(diags, block, f"duplicate {key} block", "duplicate-block")
        seen.add(key)
        yield key, block, block.values()[1:]


def parse_domain(source: Union[str, Document],
                 ) -> tuple[PddlDomain, list[ParseDiagnostic]]:
    """The typed domain of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    _, name, blocks, diagnostics = _header(source, "domain")
    domain = PddlDomain(name=name)
    for key, block, body in _blocks(blocks, "domain", DOMAIN_BLOCK_KEYS,
                                    diagnostics):
        if key == ":requirements":
            for req in body:
                if req.kind is NodeKind.ATOM:
                    domain.requirements.append(req.text)
        elif key in (":types", ":constants"):
            tl, d = parse_typed_list(body)
            getattr(domain, key[1:]).entries.extend(tl.entries)
            diagnostics.extend(d)
        elif key == ":predicates":
            for child in body:
                if child.kind is not NodeKind.LIST:
                    _warn(diagnostics, child,
                          f"stray {child.text!r} in (:predicates ...)",
                          "stray-atom")
                elif signature := _signature(child, "predicate", diagnostics):
                    domain.predicates.append(PredicateDecl(
                        *signature, serialize_node(child), span=child.span))
        elif key == ":functions":
            domain.functions.extend(_parse_functions(body, diagnostics))
        elif key == ":action":
            domain.actions.append(_parse_action(block, key, diagnostics))
        elif key == ":durative-action":
            domain.durative_actions.append(_parse_action(block, key, diagnostics))
        elif key == ":derived":
            domain.derived.append(block)
    return domain, diagnostics


def parse_problem(source: Union[str, Document],
                  ) -> tuple[PddlProblem, list[ParseDiagnostic]]:
    """The typed problem of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    define, name, blocks, diagnostics = _header(source, "problem")
    problem = PddlProblem(name=name)
    if define is None:
        return problem, diagnostics
    for key, block, body in _blocks(blocks, "problem", PROBLEM_BLOCK_KEYS,
                                    diagnostics):
        if key == ":domain":
            if body and body[0].kind is NodeKind.ATOM:
                problem.domain_ref = body[0].text
        elif key == ":objects":
            tl, d = parse_typed_list(body)
            problem.objects.entries.extend(tl.entries)
            diagnostics.extend(d)
        elif key == ":init":
            for child in body:
                if child.kind is NodeKind.LIST:
                    problem.init.append(child)
                else:
                    _warn(diagnostics, child,
                          f"stray {child.text!r} in (:init ...)", "stray-atom")
        elif key == ":goal":
            problem.goal = body[0] if body else None
        elif key == ":metric":
            problem.metric = block

    if problem.goal is None:
        _warn(diagnostics, define, "problem has no goal", "missing-goal")
    return problem, diagnostics
