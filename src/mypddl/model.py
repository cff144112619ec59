"""Typed PDDL 3.1 view over the lossless tree.

Parsing is best-effort: unrecognized or malformed blocks produce diagnostics
instead of failures, because the toolkit has to keep working on broken files.
The resulting records hold references back into the concrete-syntax tree, so
the original text is never copied or normalized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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

DOMAIN_BLOCK_KEYS = frozenset({
    ":requirements", ":types", ":constants", ":predicates", ":functions",
    ":action", ":durative-action", ":derived", ":constraints",
})
PROBLEM_BLOCK_KEYS = frozenset({
    ":domain", ":requirements", ":objects", ":init", ":goal", ":metric",
    ":constraints",
})
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


def parse_typed_list(nodes: Sequence[SExprNode]) -> tuple[TypedList, list[ParseDiagnostic]]:
    """Group ``a b - t c - u`` into typed entries.

    Names after the last '-' group default to "object"; a dangling '-' gets
    a diagnostic and its preceding names fall back to the default as well.
    """
    diagnostics: list[ParseDiagnostic] = []
    entries: list[TypedEntry] = []
    pending: list[SExprNode] = []

    def flush(type_name: str, type_span: Optional[Span]) -> None:
        for item in pending:
            entries.append(TypedEntry(item.text, type_name,
                                      name_span=item.span, type_span=type_span))
        pending.clear()

    values = [n for n in nodes if not n.is_trivia]
    i = 0
    while i < len(values):
        node = values[i]
        if node.kind is NodeKind.ATOM and node.text == "-":
            if i + 1 < len(values):
                tn = values[i + 1]
                if tn.kind is NodeKind.ATOM:
                    flush(tn.text, tn.span)
                else:
                    # "(either a b)" and friends: keep the raw text as the
                    # type so nothing is lost, but flag it.
                    head = tn.head()
                    code = "either-type" if head is not None \
                        and head.kind is NodeKind.ATOM \
                        and head.text.lower() == "either" else "bad-type"
                    if tn.span is not None:
                        diagnostics.append(ParseDiagnostic(
                            tn.span, Severity.WARNING,
                            f"compound type {serialize_node(tn)!r} in type position",
                            code))
                    flush(serialize_node(tn), tn.span)
                i += 2
            else:
                if node.span is not None:
                    diagnostics.append(ParseDiagnostic(
                        node.span, Severity.ERROR,
                        "dangling '-' at end of typed list", "dangling-dash"))
                flush(DEFAULT_TYPE, None)
                i += 1
        elif node.kind is NodeKind.ATOM:
            pending.append(node)
            i += 1
        else:
            if node.span is not None:
                diagnostics.append(ParseDiagnostic(
                    node.span, Severity.WARNING,
                    "expression where a name was expected in typed list",
                    "bad-typed-list-item"))
            i += 1
    flush(DEFAULT_TYPE, None)
    return TypedList(entries), diagnostics


def _warn(diags: list[ParseDiagnostic], node: SExprNode, message: str,
          code: str, severity: Severity = Severity.WARNING) -> None:
    span = node.span if node.span is not None else Span(0, 0)
    diags.append(ParseDiagnostic(span, severity, message, code))


def _find_define(forest: Sequence[SExprNode]) -> Optional[SExprNode]:
    for node in forest:
        if node.kind is NodeKind.LIST:
            head = node.head()
            if head is not None and head.kind is NodeKind.ATOM \
                    and head.text.lower() == "define":
                return node
    return None


def _parse_predicate_decl(node: SExprNode,
                          diags: list[ParseDiagnostic]) -> Optional[PredicateDecl]:
    values = node.values()
    if not values or values[0].kind is not NodeKind.ATOM:
        _warn(diags, node, "malformed predicate declaration", "bad-predicate")
        return None
    params, d = parse_typed_list(values[1:])
    diags.extend(d)
    return PredicateDecl(values[0].text, params, serialize_node(node),
                         span=node.span)


def _parse_action(node: SExprNode, diags: list[ParseDiagnostic]) -> ActionDecl:
    values = node.values()
    action = ActionDecl(name=None, parameters=TypedList(), span=node.span)
    rest = values[1:]
    if rest and rest[0].kind is NodeKind.ATOM and not rest[0].text.startswith(":"):
        action.name = rest[0].text
        rest = rest[1:]
    else:
        _warn(diags, node, "action has no name", "missing-action-name")
    i = 0
    while i < len(rest):
        key = rest[i]
        value = rest[i + 1] if i + 1 < len(rest) else None
        if key.kind is NodeKind.ATOM and key.text.lower() == ":parameters":
            if value is not None and value.kind is NodeKind.LIST:
                params, d = parse_typed_list(value.children)
                action.parameters = params
                diags.extend(d)
            i += 2
        elif key.kind is NodeKind.ATOM and key.text.lower() == ":precondition":
            action.precondition = value
            i += 2
        elif key.kind is NodeKind.ATOM and key.text.lower() == ":effect":
            action.effect = value
            i += 2
        else:
            _warn(diags, key, f"unrecognized entry {key.text!r} in action",
                  "unknown-action-key")
            i += 1
    return action


def _parse_durative_action(node: SExprNode,
                           diags: list[ParseDiagnostic]) -> DurativeActionDecl:
    values = node.values()
    action = DurativeActionDecl(name=None, parameters=TypedList(), span=node.span)
    rest = values[1:]
    if rest and rest[0].kind is NodeKind.ATOM and not rest[0].text.startswith(":"):
        action.name = rest[0].text
        rest = rest[1:]
    else:
        _warn(diags, node, "durative action has no name", "missing-action-name")
    keys = {":parameters": "parameters", ":duration": "duration",
            ":condition": "condition", ":effect": "effect"}
    i = 0
    while i < len(rest):
        key = rest[i]
        value = rest[i + 1] if i + 1 < len(rest) else None
        attr = keys.get(key.text.lower()) if key.kind is NodeKind.ATOM else None
        if attr == "parameters":
            if value is not None and value.kind is NodeKind.LIST:
                params, d = parse_typed_list(value.children)
                action.parameters = params
                diags.extend(d)
            i += 2
        elif attr is not None:
            setattr(action, attr, value)
            i += 2
        else:
            _warn(diags, key,
                  f"unrecognized entry {key.text!r} in durative action",
                  "unknown-action-key")
            i += 1
    return action


def _parse_functions(nodes: Sequence[SExprNode],
                     diags: list[ParseDiagnostic]) -> list[FunctionDecl]:
    decls: list[FunctionDecl] = []
    pending: list[SExprNode] = []
    values = [n for n in nodes if not n.is_trivia]
    i = 0

    def flush(return_type: str) -> None:
        for raw in pending:
            vals = raw.values()
            if not vals or vals[0].kind is not NodeKind.ATOM:
                _warn(diags, raw, "malformed function declaration", "bad-function")
                continue
            params, d = parse_typed_list(vals[1:])
            diags.extend(d)
            decls.append(FunctionDecl(vals[0].text, params, return_type,
                                      serialize_node(raw), span=raw.span))
        pending.clear()

    while i < len(values):
        node = values[i]
        if node.kind is NodeKind.LIST:
            pending.append(node)
            i += 1
        elif node.text == "-" and i + 1 < len(values) \
                and values[i + 1].kind is NodeKind.ATOM:
            flush(values[i + 1].text)
            i += 2
        else:
            _warn(diags, node, f"unexpected {node.text!r} in (:functions ...)",
                  "bad-function")
            i += 1
    flush("number")
    return decls


def parse_domain(source: Union[str, Document],
                 ) -> tuple[PddlDomain, list[ParseDiagnostic]]:
    """The typed domain of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    doc = as_document(source)
    forest, diagnostics = doc.forest, list(doc.diagnostics)
    domain = PddlDomain()
    define = _find_define(forest)
    if define is None:
        diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.ERROR,
            "no (define (domain ...)) form found", "missing-define"))
        return domain, diagnostics

    values = define.values()
    blocks = values[1:]
    if blocks and blocks[0].kind is NodeKind.LIST:
        decl = blocks[0].values()
        if len(decl) == 2 and decl[0].kind is NodeKind.ATOM \
                and decl[0].text.lower() == "domain" \
                and decl[1].kind is NodeKind.ATOM:
            domain.name = decl[1].text
            blocks = blocks[1:]
    if domain.name is None:
        _warn(diagnostics, define, "missing (domain NAME) declaration",
              "missing-domain-decl", Severity.ERROR)

    seen: set[str] = set()
    for block in blocks:
        if block.kind is not NodeKind.LIST:
            _warn(diagnostics, block,
                  f"stray {block.text!r} at domain level", "stray-atom")
            continue
        head = block.head()
        key = head.text.lower() if head is not None \
            and head.kind is NodeKind.ATOM else None
        if key not in DOMAIN_BLOCK_KEYS:
            _warn(diagnostics, block,
                  f"unrecognized block {key or '(...)'!s} skipped", "unknown-block")
            continue
        if key in seen and key not in (":action", ":durative-action", ":derived"):
            _warn(diagnostics, block, f"duplicate {key} block", "duplicate-block")
        seen.add(key)
        body = block.values()[1:]
        if key == ":requirements":
            for req in body:
                if req.kind is NodeKind.ATOM:
                    domain.requirements.append(req.text)
        elif key == ":types":
            tl, d = parse_typed_list(body)
            domain.types.entries.extend(tl.entries)
            diagnostics.extend(d)
        elif key == ":constants":
            tl, d = parse_typed_list(body)
            domain.constants.entries.extend(tl.entries)
            diagnostics.extend(d)
        elif key == ":predicates":
            for child in body:
                if child.kind is NodeKind.LIST:
                    decl = _parse_predicate_decl(child, diagnostics)
                    if decl is not None:
                        domain.predicates.append(decl)
                else:
                    _warn(diagnostics, child,
                          f"stray {child.text!r} in (:predicates ...)",
                          "stray-atom")
        elif key == ":functions":
            domain.functions.extend(_parse_functions(body, diagnostics))
        elif key == ":action":
            domain.actions.append(_parse_action(block, diagnostics))
        elif key == ":durative-action":
            domain.durative_actions.append(_parse_durative_action(block, diagnostics))
        elif key == ":derived":
            domain.derived.append(block)
    return domain, diagnostics


def parse_problem(source: Union[str, Document],
                  ) -> tuple[PddlProblem, list[ParseDiagnostic]]:
    """The typed problem of a document (or of text, parsed first), with the
    parse diagnostics followed by the model's own."""
    doc = as_document(source)
    forest, diagnostics = doc.forest, list(doc.diagnostics)
    problem = PddlProblem()
    define = _find_define(forest)
    if define is None:
        diagnostics.append(ParseDiagnostic(
            Span(0, 0), Severity.ERROR,
            "no (define (problem ...)) form found", "missing-define"))
        return problem, diagnostics

    values = define.values()
    blocks = values[1:]
    if blocks and blocks[0].kind is NodeKind.LIST:
        decl = blocks[0].values()
        if len(decl) == 2 and decl[0].kind is NodeKind.ATOM \
                and decl[0].text.lower() == "problem" \
                and decl[1].kind is NodeKind.ATOM:
            problem.name = decl[1].text
            blocks = blocks[1:]
    if problem.name is None:
        _warn(diagnostics, define, "missing (problem NAME) declaration",
              "missing-problem-decl", Severity.ERROR)

    for block in blocks:
        if block.kind is not NodeKind.LIST:
            _warn(diagnostics, block,
                  f"stray {block.text!r} at problem level", "stray-atom")
            continue
        head = block.head()
        key = head.text.lower() if head is not None \
            and head.kind is NodeKind.ATOM else None
        if key not in PROBLEM_BLOCK_KEYS:
            _warn(diagnostics, block,
                  f"unrecognized block {key or '(...)'!s} skipped", "unknown-block")
            continue
        body = block.values()[1:]
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
