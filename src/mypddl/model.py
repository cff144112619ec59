"""Typed PDDL 3.1 view over the lossless tree.

Parsing is best-effort: unrecognized or malformed blocks produce diagnostics
instead of failures, because the toolkit has to keep working on broken files.
The resulting records hold references back into the concrete-syntax tree, so
the original text is never copied or normalized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

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

# The PDDL 3.1 block grammar (Kovacs, 2011), written down once: the block
# keys of a domain and of a problem and, for each kind of action, what each
# key's value fills in the model and the context the scope walk
# (``highlight._Walk``) reads it in. A new block or action key goes here.
DOMAIN_BLOCK_KEYS = frozenset({
    ":requirements", ":types", ":constants", ":predicates", ":functions",
    ":action", ":durative-action", ":derived", ":constraints",
})
PROBLEM_BLOCK_KEYS = frozenset({
    ":domain", ":requirements", ":objects", ":init", ":goal", ":metric",
    ":constraints",
})
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
                    code = "either-type" if head_key(tn) == "either" \
                        else "bad-type"
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
