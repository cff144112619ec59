"""Typed PDDL 3.1 view over the lossless tree: the grammar's tables, the
scope walk that reads them, the model's records, and the functions that
read a domain or a problem.

The grammar is written down once, here. The scope walk (``_Walk``) reads it
from the tables in one of two modes: it records a token per piece of text,
which ``highlight`` renders, or it fills a model's records, so the model and
the tokens come from one reader. Parsing is best-effort: unrecognized or malformed blocks produce
diagnostics instead of failures, because the toolkit has to keep working on
broken files. The records hold references back into the concrete-syntax
tree, so the original text is never copied or normalized.
"""

from __future__ import annotations

import enum
import re
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

from .sexpr import (
    CLOSED,
    LEAD,
    TAIL,
    TEXT,
    Document,
    NodeKind,
    ParseDiagnostic,
    Record,
    SExprNode,
    Severity,
    Span,
    as_document,
    excerpt,
    serialize_node,
)

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
VARIABLE_RE = re.compile(r"\?[A-Za-z][A-Za-z0-9_-]*\Z")
NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")

# The PDDL 3.1 block grammar (Kovacs, 2011), written down once: each block
# of a domain and of a problem with the contexts the scope walk
# (``_Walk``, below) reads the values of its body in, or the one handler
# that reads it whole and fills the model; and, for each kind of action,
# what each key's value fills in the model and its context. A model keeps a
# block of values as nodes. A new block or action key goes here: a key's
# attribute is also a field of its action's record (``_action_fields``).
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
    _fresh = {"entries": list}

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


def _action_fields(block: str) -> tuple[str, ...]:
    """An action record's fields: the name, the attribute of each key of
    ``block`` in ``ACTION_KEYS``, in its order, and the span."""
    return ("name", *(attr for attr, _ in ACTION_KEYS[block].values()), "span")


class ActionDecl(Record):
    __slots__ = _action_fields(":action")
    _required = 2


class DurativeActionDecl(Record):
    __slots__ = _action_fields(":durative-action")
    _required = 2


class PddlDomain(Record):
    __slots__ = ("name", "requirements", "types", "constants", "predicates",
                 "functions", "actions", "durative_actions", "derived")
    _fresh = {"requirements": list, "types": TypedList,
              "constants": TypedList, "predicates": list, "functions": list,
              "actions": list, "durative_actions": list, "derived": list}


class PddlProblem(Record):
    __slots__ = ("name", "domain_ref", "objects", "init", "goal", "metric")
    _fresh = {"objects": TypedList, "init": list}


Model = TypeVar("Model", PddlDomain, PddlProblem)


# Bound once: an enum member read through its class costs a Python call.
_ATOM, _LIST = NodeKind.ATOM, NodeKind.LIST


def head_key(node: SExprNode) -> Optional[str]:
    """The lowercased text of a list's head atom, or None."""
    head = node.head() if node.kind is _LIST else None
    return head.text.lower() if head and head.kind is _ATOM else None


def is_define(node: SExprNode) -> bool:
    return head_key(node) == "define"


class Scope(enum.Enum):
    KEYWORD = "Keyword"
    VARIABLE = "Variable"
    NAME = "Name"
    TYPE_NAME = "TypeName"
    NUMBER = "Number"
    COMMENT = "Comment"
    REQUIREMENT = "Requirement"
    PUNCTUATION = "Punctuation"
    UNSCOPED = "Unscoped"

    # Members are singletons that compare by identity, so hashing by
    # identity keeps dict and set semantics; it runs in C, where
    # ``Enum.__hash__`` is a Python call per lookup.
    __hash__ = object.__hash__


# Misspelled action keys still hint at what their value was meant to be: the
# value is read as that of the hinted key, or in the hinted context where the
# action has no such key, which keeps the error local to the key.
_ACTION_KEY_HINTS = {
    "parameters": "parameters", "parameter": "parameters",
    "precondition": "condition", "preconditions": "condition",
    "effect": "effect", "effects": "effect",
    "condition": "condition", "conditions": "condition",
    "duration": "condition", "durations": "condition",
}


# Past this nesting depth the grammar walk stops recursing and falls back to
# flat lexical emission, so paren bombs cannot exhaust the Python stack.
_MAX_GRAMMAR_DEPTH = 100

_TRIVIA_SCOPES = {NodeKind.WHITESPACE: Scope.PUNCTUATION,
                  NodeKind.COMMENT: Scope.COMMENT}

# Marks, in ``flat_emit``'s stack, that the list popped next is complete.
_CLOSE = object()

# Bound once, as ``_ATOM`` and ``_LIST`` are.
_PUNCTUATION, _UNSCOPED = Scope.PUNCTUATION, Scope.UNSCOPED
_KEYWORD, _NAME, _VARIABLE = Scope.KEYWORD, Scope.NAME, Scope.VARIABLE


GrammarMethod = Callable[["_Walk", SExprNode], None]


def _atom(scope: Scope, accepts: Callable[[str], bool]) -> GrammarMethod:
    """The grammar method of a place for one atom, which is of ``scope`` if
    ``accepts`` takes its text, else Unscoped; a list there is Unscoped
    whole. ``accepts`` is kept on the method, for rows that it guards."""
    def value(self: _Walk, node: SExprNode) -> None:
        if node.kind is _ATOM:
            self.single(node, scope if accepts(node.text) else _UNSCOPED)
        else:
            self.flat_emit(node, _UNSCOPED)
    value.accepts = accepts  # type: ignore[attr-defined]
    return value


def _methods(namespace: dict, rules: dict) -> dict:
    """``rules`` with each context or handler name turned into the method of
    that name in ``namespace``, a '-' in it read as '_': a row of names, a
    tuple, becomes a tuple of methods and one name alone one method."""
    def method(name: str) -> Callable:
        return namespace[name.replace("-", "_")]
    return {key: method(row) if isinstance(row, str) else tuple(map(method, row))
            for key, row in rules.items()}


class _Walk:
    """One grammar walk over a forest, which records each token's text and
    scope in file order. A grammar method takes the walk and one node, as
    ``each`` sends it; a block or form handler also takes the list's head.

    Given a ``model``, a ``PddlDomain`` or a ``PddlProblem``, the walk fills
    it from a define form read as that kind, with the findings in
    ``diagnostics``; it records no tokens and keeps formulas as nodes."""

    def __init__(self, model: Union[PddlDomain, PddlProblem, None] = None,
                 ) -> None:
        self.texts: list[str] = []
        self.scopes: list[Scope] = []
        self.depth = 0
        # Scope of each distinct atom text in term position, before ``ground``.
        self.term_scopes: dict[str, Scope] = {}
        self.model = model
        self.diagnostics: list[ParseDiagnostic] = []
        # The kind of the define form read, and the keys of its blocks so far.
        self.kind = "problem" if isinstance(model, PddlProblem) else "domain"
        self.seen: set[str] = set()
        if model is not None:  # a model's walk emits no tokens
            self.open_paren = self.close_paren = self.single = lambda *_: None

    # -- emission ---------------------------------------------------------

    def open_paren(self, node: SExprNode, scope: Optional[Scope] = None) -> None:
        """The list's lead, then its '(' with ``scope``; by default
        Punctuation, or Unscoped if the list is never closed."""
        scope = scope or (_PUNCTUATION if node[CLOSED] else _UNSCOPED)
        if node[LEAD]:
            self.texts.append(node[LEAD])
            self.scopes.append(_PUNCTUATION)
        self.texts.append("(")
        self.scopes.append(scope)

    def close_paren(self, node: SExprNode, scope: Scope = _PUNCTUATION) -> None:
        if node[TAIL]:
            self.texts.append(node[TAIL])
            self.scopes.append(_PUNCTUATION)
        if node[CLOSED]:
            self.texts.append(")")
            self.scopes.append(scope)

    def single(self, node: SExprNode, scope: Scope) -> None:
        if node[LEAD]:
            self.texts.append(node[LEAD])
            self.scopes.append(_PUNCTUATION)
        self.texts.append(node[TEXT])
        self.scopes.append(scope)

    def atom_or_tree(self, node: SExprNode, scope: Scope) -> None:
        if node.kind is _ATOM:
            self.single(node, scope)
        else:
            self.flat_emit(node, _UNSCOPED)

    def flat_emit(self, node: SExprNode, scope: Optional[Scope] = None) -> None:
        """Emission of content we have no grammar for, iterative, so any
        depth fits: one forced ``scope`` for a misplaced expression, or
        else lexical scopes, under which a variable at the head of a list
        is Unscoped, as nothing in PDDL is headed by a variable."""
        todo: list = [node]
        heads: set[SExprNode] = set()
        while todo:
            item = todo.pop()
            if item is _CLOSE:
                self.close_paren(todo.pop(), scope or _PUNCTUATION)
            elif item.is_trivia:
                self.single(item, _TRIVIA_SCOPES[item.kind])
            elif item.kind is _ATOM:
                if scope is None and item not in heads:
                    self.lexical_atom(item)
                else:
                    self.single(item, scope or _UNSCOPED)
            else:
                self.open_paren(item, scope)
                todo += (item, _CLOSE)
                todo.extend(reversed(item.children))
                head = item.head()
                if head is not None and head.kind is _ATOM \
                        and is_variable(head.text):
                    heads.add(head)

    def each(self, node: SExprNode, head: Optional[SExprNode],
             head_scope: Scope, *values: GrammarMethod,
             fixed: bool = False) -> None:
        """One in-order pass over a list's children: comments emitted as
        they are, the head atom with ``head_scope``, and the k-th value
        after it through the k-th of ``values``, the last of which repeats;
        if ``fixed``, a value past the last is Unscoped whole and a missing
        one makes the list's ')' Unscoped. Parens are emitted here too;
        each value emits its own lead."""
        if self.depth >= _MAX_GRAMMAR_DEPTH:
            self.flat_emit(node)
            return
        self.depth += 1
        try:
            self.open_paren(node)
            value, rest = values[0], values[1:]
            for child in node.children:
                if child.is_trivia:
                    self.single(child, _TRIVIA_SCOPES[child.kind])
                elif child is head:
                    self.atom_or_tree(child, head_scope)
                elif value is None:
                    self.flat_emit(child, _UNSCOPED)
                else:
                    value(self, child)
                    if rest:
                        value, rest = rest[0], rest[1:]
                    elif fixed:
                        value = None
            self.close_paren(node, _UNSCOPED if fixed and value is not None
                             else _PUNCTUATION)
        finally:
            self.depth -= 1

    def warn(self, node: SExprNode, message: str, code: str,
             severity: Severity = Severity.WARNING) -> None:
        """Report a finding of the model at ``node``; none without one."""
        if self.model is not None:
            self.diagnostics.append(ParseDiagnostic(
                node.span or Span(0, 0), severity, message, code))

    def lexical_atom(self, node: SExprNode) -> None:
        text = node.text
        if text == "-":
            self.single(node, _PUNCTUATION)
        elif text.startswith(":") and is_name(text[1:]):
            self.single(node, _KEYWORD)
        else:
            self.single(node, self.term_scope(text))

    # -- formulas -----------------------------------------------------------

    def formula(self, node: SExprNode, rules: dict,
                ground: Optional[bool] = False) -> None:
        """A formula of the context whose rows are ``rules``: a list headed
        by a key of ``rules`` sends the values after it to the methods of
        the key's row, one each unless the key is variadic, or goes with its
        head to the row's handler; a list headed by any other name is an
        atomic formula, ``ground`` if in ``:init``. With ``ground`` None the
        node is a block or a top-level form, where no atomic formula stands.
        A list with no atom at its head, such as ``()``, is Unscoped whole."""
        if node.kind is not _LIST:
            self.single(node, _UNSCOPED)
            return
        head = node.head()
        if head is None or head.kind is not _ATOM:
            self.flat_emit(node, _UNSCOPED)
            return
        key = head.text.lower()
        rule = rules.get(key)
        if rule is not None and (key in PREDICATE_KEYWORDS
                                 or key in OPTIONAL_NAME_KEYWORDS):
            values = node.values()
            if len(values) < 2 or values[1].kind is not _ATOM \
                    or not rule[0].accepts(values[1].text):
                rule = rule[1:] if key in OPTIONAL_NAME_KEYWORDS else None
        if rule is None:
            if ground is not None and is_name(head.text):
                self.application(node, head, ground)
            else:
                self.each(node, head, _UNSCOPED, _Walk.flat_emit)
        elif type(rule) is tuple:
            self.each(node, head, _KEYWORD, *rule,
                      fixed=key not in VARIADIC_KEYWORDS)
        else:
            rule(self, node, head)

    def condition(self, node: SExprNode) -> None:
        self.formula(node, self.CONDITION)

    def effect(self, node: SExprNode) -> None:
        self.formula(node, self.EFFECT)

    def init(self, node: SExprNode) -> None:
        self.formula(node, self.INIT, True)

    def timed_condition(self, node: SExprNode) -> None:
        self.formula(node, self.TIMED_CONDITION)

    def timed_effect(self, node: SExprNode) -> None:
        self.formula(node, self.TIMED_EFFECT)

    def constraint(self, node: SExprNode) -> None:
        self.formula(node, self.CONSTRAINT)

    def application(self, node: SExprNode, head: SExprNode, ground: bool) -> None:
        """An atomic formula (name term...): the head atom is a Name and
        every argument a term. Every ``:init`` fact, goal, precondition and
        effect comes through here, so this is ``each`` with its value
        function inlined: each child is unpacked once and every token is
        appended in place. No argument re-enters the grammar walk (a
        misplaced list is emitted flat), so the depth is left as it is."""
        if self.depth >= _MAX_GRAMMAR_DEPTH:
            self.flat_emit(node)
            return
        texts, scopes, known = self.texts, self.scopes, self.term_scopes
        name, variable = _NAME, _VARIABLE
        self.open_paren(node)
        for child in node.children:
            kind, text, _, _, _, _, _, lead, _ = child
            if kind is not _ATOM:
                self.flat_emit(child, _UNSCOPED)
                continue
            if lead:
                texts.append(lead)
                scopes.append(_PUNCTUATION)
            if child is head:
                scope = name
            else:
                scope = known.get(text) or self.term_scope(text)
                if ground and scope is variable:
                    scope = _UNSCOPED
            texts.append(text)
            scopes.append(scope)
        self.close_paren(node)

    # -- terms, numeric expressions and one-atom places -----------------------

    def term_scope(self, text: str) -> Scope:
        """Scope of an atom in term position, before ``ground`` is applied;
        each distinct text is classified once per walk."""
        scope = self.term_scopes.get(text)
        if scope is None:
            # The three classes share no text; names, the most common,
            # are tried first.
            if is_name(text):
                scope = Scope.NAME
            elif is_variable(text):
                scope = Scope.VARIABLE
            elif is_number(text):
                scope = Scope.NUMBER
            else:
                scope = _UNSCOPED
            self.term_scopes[text] = scope
        return scope

    def fexp(self, node: SExprNode) -> None:
        """A numeric expression: a term or one of ``NUMERIC_KEYWORDS``, an
        operation of ``NUMERIC_RULES`` or a function applied to numeric
        expressions."""
        if node.kind is _ATOM:
            scope = self.term_scope(node.text)
            if scope is _UNSCOPED and node.text.lower() in NUMERIC_KEYWORDS:
                scope = _KEYWORD
            self.single(node, scope)
            return
        head = node.head()
        if head is not None and head.kind is _ATOM:
            rule = self.NUMERIC.get(head.text)
            if rule is not None:
                self.each(node, head, _KEYWORD, *rule)
                return
            if is_name(head.text):
                self.each(node, head, _NAME, _Walk.fexp)
                return
        self.flat_emit(node, _UNSCOPED)

    name = _atom(Scope.NAME, is_name)
    number = _atom(Scope.NUMBER, is_number)
    type_name = _atom(Scope.TYPE_NAME, is_name)
    requirement = _atom(Scope.REQUIREMENT,
                        lambda text: text.lower() in REQUIREMENT_KEYS)
    start_or_end = _atom(Scope.KEYWORD,
                         lambda text: text.lower() in ("start", "end"))
    all = _atom(Scope.KEYWORD, lambda text: text.lower() == "all")
    end = _atom(Scope.KEYWORD, lambda text: text.lower() == "end")
    optimization = _atom(Scope.KEYWORD,
                         lambda text: text.lower() in ("minimize", "maximize"))

    # -- typed lists --------------------------------------------------------

    def typed_list(self, node: SExprNode, head: Optional[SExprNode],
                   items: Optional[Scope] = Scope.NAME,
                   head_scope: Scope = Scope.KEYWORD) -> Optional[list]:
        """The typed-list grammar, (x+ - type)* (Kovacs, 2011), after
        ``head`` if there is one, which gets ``head_scope``: a '-' makes the
        value after it the type, and is Unscoped if none follows. An atom
        item is of scope ``items`` if it classifies as that, else Unscoped;
        with ``items`` None the items are declarations. For a model, its
        entries, each run of items as the type after it ends the run
        (``typed_run``), a value that is no item reported as it is reached."""
        texts, scopes, known = self.texts, self.scopes, self.term_scopes
        record = self.model is not None
        entries, run = [], []
        dash = None  # the last '-', while the value after it is due
        self.open_paren(node)
        for child in node.children:
            kind, text, _, start, end, _, trivia, lead, _ = child
            if child is head:
                self.atom_or_tree(child, head_scope)
            elif trivia:
                self.single(child, _TRIVIA_SCOPES[kind])
            elif dash is not None:
                dash = None
                # A run of names typed by an atom, by far the most common,
                # is made here, without a call and a list per run.
                if record and kind is _ATOM and items is not None:
                    if (known.get(text) or self.term_scope(text)) is not _NAME:
                        self.bad_type(child, text)
                    span = None if start is None else Span._make((start, end))
                    for _, name, _, at, to, _, _, _, _ in run:
                        at = None if at is None else Span._make((at, to))
                        # The entry's own constructor, at C speed.
                        entries.append(tuple.__new__(
                            TypedEntry, (name, text, at, span)))
                elif record:
                    entries += self.typed_run(run, items, child)
                elif kind is _LIST and head_key(child) == "either":
                    self.each(child, child.head(), _KEYWORD, _Walk.type_name)
                else:
                    self.type_name(child)
                run = []
            elif kind is _LIST:
                if items is not None:
                    self.flat_emit(child, _UNSCOPED)
                    self.warn(child, f"expression where a {items.name.lower()}"
                              " was expected in typed list",
                              "bad-typed-list-item")
                elif record:
                    run.append(child)
                else:
                    self.declaration(child)
            elif text == "-":
                self.single(child, _PUNCTUATION)
                dash, at = child, len(scopes) - 1
            elif items is None:
                self.single(child, _UNSCOPED)
                self.warn(child, f"unexpected {excerpt(repr(text))} in "
                          "(:functions ...)", "bad-function")
            elif record:
                if (known.get(text) or self.term_scope(text)) is items:
                    run.append(child)
                else:
                    self.warn(child, f"{excerpt(repr(text))} where a "
                              f"{items.name.lower()} was expected in typed "
                              "list", "bad-typed-list-item")
            else:
                if lead:
                    texts.append(lead)
                    scopes.append(_PUNCTUATION)
                scope = known.get(text) or self.term_scope(text)
                texts.append(text)
                scopes.append(scope if scope is items else _UNSCOPED)
        self.close_paren(node)
        if dash is not None:
            if not record:
                scopes[at] = _UNSCOPED
            self.warn(dash, "dangling '-' at end of typed list",
                      "dangling-dash", Severity.ERROR)
        if record and run:
            entries += self.typed_run(run, items)
        return entries if record else None

    def typed_run(self, run: list[SExprNode], items: Optional[Scope],
                  type_node: Optional[SExprNode] = None) -> list:
        """The model's entries of a typed list's ``run`` of items, typed by
        ``type_node`` or else by default: a ``TypedEntry`` per name, or a
        ``FunctionDecl`` per declaration, each read now. A compound type,
        such as (either a b), is kept as its text so nothing is lost; a
        type that is no name is reported."""
        type_name = type_span = None
        if type_node is not None:
            type_name, type_span = type_node.text, type_node.span
            if type_node.kind is not _ATOM:
                type_name = serialize_node(type_node)
                self.bad_type(type_node, type_name)
            elif self.term_scope(type_name) is not _NAME:
                self.bad_type(type_node, type_name)
        if items is not None:
            return [TypedEntry(item.text, type_name or DEFAULT_TYPE,
                               item.span, type_span) for item in run]
        return [FunctionDecl(*signature, type_name or "number",
                             serialize_node(raw), span=raw.span)
                for raw in run if (signature := self.declaration(
                    raw, "function"))]

    def bad_type(self, node: SExprNode, text: str) -> None:
        """Report the type ``node``, whose text is ``text``, as no type
        name: an (either ...) as ``either-type``, anything else as
        ``bad-type``."""
        if node.kind is _ATOM:
            self.warn(node, f"{excerpt(repr(text))} in type position is "
                      "not a type name", "bad-type")
        else:
            self.warn(node, f"compound type {excerpt(repr(text))} in type "
                      "position",
                      "either-type" if head_key(node) == "either"
                      else "bad-type")

    def typed_block(self, node: SExprNode, head: SExprNode) -> None:
        """(:types ...), (:constants ...) or (:objects ...): a typed list of
        names, which a model adds to its list of the block's name."""
        entries = self.typed_list(node, head)
        if entries is not None:
            getattr(self.model, head.text.lower()[1:]).entries += entries

    def function_list(self, node: SExprNode, head: SExprNode) -> None:
        """(:functions ...), typed declarations, which a model records."""
        functions = self.typed_list(node, head, None)
        if functions is not None:
            self.model.functions += functions

    def predicate(self, node: SExprNode) -> None:
        """A declaration in (:predicates ...), which a model records."""
        if node.kind is not _LIST and self.model is not None:
            self.warn(node, f"stray {excerpt(repr(node.text))} in "
                      "(:predicates ...)", "stray-atom")
        elif signature := self.declaration(node):
            self.model.predicates.append(PredicateDecl(
                *signature, serialize_node(node), span=node.span))

    def parameters(self, node: SExprNode) -> Optional[TypedList]:
        """Typed variables, a model's ``TypedList``."""
        if node.kind is not _LIST:
            self.single(node, _UNSCOPED)
            self.warn(node, f"{excerpt(repr(node.text))} where a list of "
                      "parameters was expected", "bad-parameters")
        elif (entries := self.typed_list(node, None, _VARIABLE)) is not None:
            return TypedList(entries)
        return None

    def declaration(self, node: SExprNode, what: str = "predicate",
                    ) -> Optional[tuple[str, TypedList]]:
        """A predicate or function declaration: (name typed-variables...);
        one with no name at all, such as ``()``, is Unscoped whole. For a
        model, its name and parameters; one whose head is no atom is
        reported and read no further."""
        head = node.head() if node.kind is _LIST else None
        if head is None or self.model is not None and head.kind is not _ATOM:
            self.atom_or_tree(node, _UNSCOPED)
            self.warn(node, f"malformed {what} declaration", f"bad-{what}")
            return None
        ok = head.kind is _ATOM and is_name(head.text)
        entries = self.typed_list(node, head, _VARIABLE,
                                  _NAME if ok else _UNSCOPED)
        return None if entries is None else (head.text, TypedList(entries))

    # -- blocks and whole files ---------------------------------------------

    def action_block(self, node: SExprNode, head: SExprNode) -> None:
        """(:action NAME key value...) or (:durative-action ...), keyed by
        ``ACTION_KEYS``. A key in the name's place stays Unscoped: the
        action has no name. A model gets the action, which has each key's
        value, or the last one's, and ``None`` for a key with none; a
        misplaced list or an unknown key, with its value, is reported."""
        block = head.text.lower()
        keys = ACTION_KEYS[block]
        values = node.values()
        name = values[1] if len(values) > 1 and values[1].kind is _ATOM \
            and values[1].text.lower() not in keys else None
        what = block[1:].replace("-", " ")
        key_scope = _UNSCOPED
        context: Optional[GrammarMethod] = None
        attr = action = None
        if self.model is not None:
            durative = block == ":durative-action"
            action = (DurativeActionDecl if durative else ActionDecl)(
                name and name.text, TypedList(), span=node.span)
            (self.model.durative_actions if durative
             else self.model.actions).append(action)
        if name is None:
            self.warn(node, f"{what} has no name", "missing-action-name")

        def value(self: _Walk, child: SExprNode) -> None:
            nonlocal context, key_scope, attr
            if child is name:
                self.name(child)
            elif context is not None:
                if action is None:
                    # () is a whole value's <emptyOr> (PDDL 3.1), read
                    # lexically.
                    empty = child.kind is _LIST and child.head() is None
                    (_Walk.flat_emit if empty else context)(self, child)
                elif attr == "parameters":
                    action.parameters = self.parameters(child) \
                        or action.parameters
                elif attr is not None:
                    setattr(action, attr, child)
                context = None
            elif child.kind is not _ATOM:
                self.flat_emit(child, _UNSCOPED)
                self.warn(child, f"unrecognized entry '(...)' in {what}",
                          "unknown-action-key")
            elif (key := child.text.lower()) in keys:
                self.single(child, key_scope)
                attr, context = keys[key][0], self.ACTION_VALUES[keys[key][1]]
                if action is not None and attr != "parameters":
                    setattr(action, attr, None)
            else:
                self.single(child, _UNSCOPED)
                attr = None
                self.warn(child, "unrecognized entry "
                          f"{excerpt(repr(child.text))} in {what}",
                          "unknown-action-key")
                # Read the value as that of the hinted key if this kind of
                # action has it, so a durative one gets the timed context.
                hint = _ACTION_KEY_HINTS.get(key.strip(":"))
                context = self.ACTION_VALUES.get(
                    keys[f":{hint}"][1] if f":{hint}" in keys else hint,
                    _Walk.flat_emit)
            key_scope = _KEYWORD

        self.each(node, head, _KEYWORD, value)

    def block(self, node: SExprNode) -> None:
        """A block of the define form's kind. A model reports a stray atom,
        an unknown block or a repeat of one that may appear once. It keeps
        the values of :init, :goal, :metric, :derived, :domain and a
        domain's :requirements unscoped, formulas as nodes and atoms as
        text, skips :constraints, and reads any other block by the walk."""
        model = self.model
        if model is None:
            self.formula(node, self.blocks, ground=None)
            return
        key = head_key(node)
        if node.kind is not _LIST:
            self.warn(node, f"stray {excerpt(repr(node.text))} at "
                      f"{self.kind} level", "stray-atom")
            return
        if key not in self.blocks:
            self.warn(node, f"unrecognized block {excerpt(key or '(...)')} "
                      "skipped", "unknown-block")
            return
        if key in self.seen and key not in REPEATABLE_BLOCKS:
            self.warn(node, f"duplicate {key} block", "duplicate-block")
        self.seen.add(key)
        values = node.values()[1:]
        if key == ":requirements" and self.kind == "domain":
            model.requirements += [v.text for v in values if v.kind is _ATOM]
        elif key == ":domain" and values and values[0].kind is _ATOM:
            model.domain_ref = values[0].text
        elif key == ":init":
            for value in values:
                if value.kind is _LIST:
                    model.init.append(value)
                else:
                    self.warn(value, f"stray {excerpt(repr(value.text))} "
                              "in (:init ...)", "stray-atom")
        elif key == ":goal":
            model.goal = values[0] if values else None
        elif key == ":metric":
            model.metric = node
        elif key == ":derived":
            model.derived.append(node)
        elif key != ":constraints":
            self.formula(node, self.blocks, ground=None)

    def unknown(self, node: SExprNode) -> None:
        """Content of no known form, read leniently."""
        self.formula(node, {}, ground=None)

    def header(self, node: SExprNode) -> None:
        """The (domain NAME) or (problem NAME) of a define form."""
        self.each(node, node.head(), _KEYWORD, _Walk.name)

    def define_form(self, node: SExprNode, head: SExprNode) -> None:
        """(define (domain NAME) block...) or (define (problem NAME) ...);
        with no such header, a domain's blocks after lenient content. A
        model reads the form as its own kind: every value after the head is
        a block unless it is a header of that kind, whose absence it
        reports, as it does a problem's missing goal."""
        values = node.values()
        header = values[1].values() if len(values) > 1 \
            and values[1].kind is _LIST else ()
        kind = header[0].text.lower() if len(header) == 2 \
            and header[0].kind is header[1].kind is _ATOM \
            and header[0].text.lower() in ("domain", "problem") else None
        first = _Walk.unknown if kind is None else _Walk.header
        if self.model is None:
            self.kind = kind or "domain"
        elif kind == self.kind:
            self.model.name = header[1].text
        else:
            self.warn(node, f"missing ({self.kind} NAME) declaration",
                      f"missing-{self.kind}-decl", Severity.ERROR)
            first = _Walk.block
        self.blocks = self.PROBLEM_BLOCKS if self.kind == "problem" \
            else self.DOMAIN_BLOCKS
        self.each(node, head, _KEYWORD, first, _Walk.block)
        if isinstance(self.model, PddlProblem) and self.model.goal is None:
            self.warn(node, "problem has no goal", "missing-goal")

    def run(self, forest: Sequence[SExprNode]) -> None:
        for node in forest:
            if node.is_trivia:
                self.single(node, _TRIVIA_SCOPES[node.kind])
            elif node.kind is _LIST and head_key(node) is None:
                self.flat_emit(node)  # no form: read lexically
            else:
                self.formula(node, self.FORMS, ground=None)

    # The rows of the formula and block tables of ``model``, the grammar
    # method of each context ``ACTION_KEYS`` gives a value, and the forms.
    CONDITION = _methods(locals(), CONDITION_RULES)
    EFFECT = _methods(locals(), EFFECT_RULES)
    INIT = _methods(locals(), INIT_RULES)
    TIMED_CONDITION = _methods(locals(), TIMED_CONDITION_RULES)
    TIMED_EFFECT = _methods(locals(), TIMED_EFFECT_RULES)
    CONSTRAINT = _methods(locals(), CONSTRAINT_RULES)
    NUMERIC = _methods(locals(), NUMERIC_RULES)
    DOMAIN_BLOCKS = _methods(locals(), DOMAIN_BLOCKS)
    PROBLEM_BLOCKS = _methods(locals(), PROBLEM_BLOCKS)
    ACTION_VALUES = _methods(locals(), {
        context: context
        for keys in ACTION_KEYS.values() for _, context in keys.values()})
    FORMS = {"define": define_form}


def parse_typed_list(nodes: Sequence[SExprNode]) -> tuple[TypedList, list[ParseDiagnostic]]:
    """Group ``a b - t c - u`` into typed entries, as the scope walk reads
    a typed list of names.

    Names after the last '-' group default to "object"; a dangling '-' gets
    a diagnostic and its preceding names fall back to the default as well.
    """
    walk = _Walk(PddlDomain())
    entries = walk.typed_list(SExprNode(NodeKind.LIST, children=tuple(nodes)),
                              None)
    return TypedList(entries), walk.diagnostics


def _read(source: Union[str, Document], model: Model,
          ) -> tuple[Model, list[ParseDiagnostic]]:
    """``model`` as the scope walk fills it from the first define form of a
    document (or of text, parsed first), with the parse diagnostics
    followed by the model's own."""
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
