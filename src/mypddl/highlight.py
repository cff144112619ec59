"""Context-aware scope assignment for PDDL source.

The contract is the inverse of a linter: correct constructs get a scope,
anything syntactically out of place gets no scope at all (``UNSCOPED``), and
the unscoped spots are what a reader (or `invalid_regions`) looks for. A
construct is only scoped when it appears in a context where it is legal, so
the walk below mirrors the PDDL 3.1 grammar rather than matching tokens in
isolation. Tokens always tile the whole file, whitespace included.
"""

from __future__ import annotations

import enum
import html
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .model import REQUIREMENT_KEYS, is_name, is_number, is_variable
from .sexpr import Document, NodeKind, SExprNode, Span, as_document, gc_paused


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


class Token(NamedTuple):
    span: Span
    scope: Scope
    text: str


_CONDITION_CONNECTIVES = frozenset({"and", "or", "not", "imply"})
_COMPARISONS = frozenset({"=", "<", ">", "<=", ">="})
_EFFECT_OPS = frozenset({"assign", "increase", "decrease", "scale-up",
                         "scale-down"})
_ARITHMETIC = frozenset({"+", "-", "*", "/"})

# Misspelled action keys still hint at what their value was meant to be;
# tokenizing the value in the hinted context keeps the error local to the key.
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


class _Walk:
    """One grammar walk over a parsed forest, in which every node has a
    span."""

    def __init__(self, forest: Sequence[SExprNode]) -> None:
        self.forest = forest
        self.tokens: list[Token] = []
        self.depth = 0
        # Scope of each distinct atom text seen in term position (before
        # ``ground`` is applied); lives as long as this walk.
        self.term_scopes: dict[str, Scope] = {}

    # -- emission ---------------------------------------------------------

    def trivia(self, node: SExprNode) -> bool:
        kind, text, _, span, _, trivia = node
        if trivia:
            self.tokens.append(tuple.__new__(
                Token, (span, _TRIVIA_SCOPES[kind], text)))
        return trivia

    def open_paren(self, node: SExprNode,
                   scope: Optional[Scope] = None) -> None:
        """The list's '(' with ``scope``; by default Punctuation, or
        Unscoped if the list is never closed."""
        _, _, _, (start, _), closed, _ = node
        if scope is None:
            scope = Scope.PUNCTUATION if closed else Scope.UNSCOPED
        new = tuple.__new__
        self.tokens.append(new(Token, (new(Span, (start, start + 1)),
                                       scope, "(")))

    def close_paren(self, node: SExprNode,
                    scope: Scope = Scope.PUNCTUATION) -> None:
        _, _, _, (_, end), closed, _ = node
        if closed:
            new = tuple.__new__
            self.tokens.append(new(Token, (new(Span, (end - 1, end)),
                                           scope, ")")))

    def single(self, node: SExprNode, scope: Scope) -> None:
        self.tokens.append(tuple.__new__(Token, (node.span, scope, node.text)))

    def atom_or_tree(self, node: SExprNode, scope: Scope) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, scope)
        else:
            self.unscoped_tree(node)

    def flat_emit(self, node: SExprNode, scope: Optional[Scope] = None) -> None:
        """Iterative fallback emission: lexical scopes (or one forced scope),
        no grammar recursion. Used beyond the depth limit."""
        todo: list = [node]
        while todo:
            item = todo.pop()
            if item is _CLOSE:
                self.close_paren(todo.pop(), scope or Scope.PUNCTUATION)
                continue
            if self.trivia(item):
                continue
            if item.kind is NodeKind.ATOM:
                if scope is None:
                    self.lexical_atom(item)
                else:
                    self.single(item, scope)
            else:
                self.open_paren(item, scope)
                todo += (item, _CLOSE)
                todo.extend(reversed(item.children))

    def unscoped_tree(self, node: SExprNode) -> None:
        """Mark a whole misplaced expression, trivia excepted."""
        if self.trivia(node):
            return
        if node.kind is NodeKind.ATOM:
            self.single(node, Scope.UNSCOPED)
            return
        self.flat_emit(node, scope=Scope.UNSCOPED)

    def each(self, node: SExprNode, head: Optional[SExprNode],
             head_scope: Optional[Scope],
             value_fn: Callable[[SExprNode, int], None]) -> None:
        """One in-order pass over a list's children: trivia emitted as-is,
        the head atom with ``head_scope``, the k-th following value through
        ``value_fn``. Parens are emitted here too."""
        if self.depth >= _MAX_GRAMMAR_DEPTH:
            self.flat_emit(node)
            return
        self.depth += 1
        try:
            self.open_paren(node)
            append = self.tokens.append
            seen_head = False
            k = 0
            for child in node.children:
                kind, text, _, span, _, trivia = child
                if trivia:
                    append(tuple.__new__(
                        Token, (span, _TRIVIA_SCOPES[kind], text)))
                elif not seen_head and child is head:
                    seen_head = True
                    if head_scope is None:
                        self.lenient(child)
                    else:
                        self.atom_or_tree(child, head_scope)
                else:
                    value_fn(child, k)
                    k += 1
            self.close_paren(node)
        finally:
            self.depth -= 1

    # -- fallback for content we have no grammar for ----------------------

    def lexical_atom(self, node: SExprNode) -> None:
        text = node.text
        if text == "-":
            self.single(node, Scope.PUNCTUATION)
        elif is_variable(text):
            self.single(node, Scope.VARIABLE)
        elif is_number(text):
            self.single(node, Scope.NUMBER)
        elif text.startswith(":") and is_name(text[1:]):
            self.single(node, Scope.KEYWORD)
        elif is_name(text):
            self.single(node, Scope.NAME)
        else:
            self.single(node, Scope.UNSCOPED)

    def lenient(self, node: SExprNode) -> None:
        if self.trivia(node):
            return
        if node.kind is NodeKind.ATOM:
            self.lexical_atom(node)
            return
        if self.depth >= _MAX_GRAMMAR_DEPTH:
            self.flat_emit(node)
            return
        self.depth += 1
        try:
            self.open_paren(node)
            first = True
            for child in node.children:
                if child.is_trivia:
                    self.trivia(child)
                    continue
                if first and child.kind is NodeKind.ATOM \
                        and is_variable(child.text):
                    # nothing in PDDL is headed by a variable
                    self.single(child, Scope.UNSCOPED)
                else:
                    self.lenient(child)
                first = False
            self.close_paren(node)
        finally:
            self.depth -= 1

    # -- typed lists --------------------------------------------------------

    def typed_list(self, children: Sequence[SExprNode], variables: bool) -> None:
        append = self.tokens.append
        new = tuple.__new__
        expect_type = False
        for child in children:
            kind, text, _, span, _, trivia = child
            if trivia:
                append(new(Token, (span, _TRIVIA_SCOPES[kind], text)))
            elif expect_type:
                self.type_position(child)
                expect_type = False
            elif kind is not NodeKind.ATOM:
                self.unscoped_tree(child)
            elif text == "-":
                append(new(Token, (span, Scope.PUNCTUATION, text)))
                expect_type = True
            elif variables:
                append(new(Token, (span, Scope.VARIABLE if is_variable(text)
                                   else Scope.UNSCOPED, text)))
            else:
                append(new(Token, (span, Scope.NAME if is_name(text)
                                   else Scope.UNSCOPED, text)))

    def type_position(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            ok = is_name(node.text)
            self.single(node, Scope.TYPE_NAME if ok else Scope.UNSCOPED)
            return
        head = node.head()
        if head is not None and head.kind is NodeKind.ATOM \
                and head.text.lower() == "either":
            def member(child: SExprNode, k: int) -> None:
                if child.kind is NodeKind.ATOM and is_name(child.text):
                    self.single(child, Scope.TYPE_NAME)
                else:
                    self.unscoped_tree(child)
            self.each(node, head, Scope.KEYWORD, member)
        else:
            self.unscoped_tree(node)

    def params_value(self, node: SExprNode) -> None:
        if node.kind is NodeKind.LIST:
            self.open_paren(node)
            self.typed_list(node.children, variables=True)
            self.close_paren(node)
        else:
            self.atom_or_tree(node, Scope.UNSCOPED)

    # -- terms and numeric expressions ---------------------------------------

    def term_scope(self, text: str) -> Scope:
        """Scope of an atom in term position, before ``ground`` is applied;
        each distinct text is classified once per walk."""
        scope = self.term_scopes.get(text)
        if scope is None:
            if is_variable(text):
                scope = Scope.VARIABLE
            elif is_number(text):
                scope = Scope.NUMBER
            elif is_name(text):
                scope = Scope.NAME
            else:
                scope = Scope.UNSCOPED
            self.term_scopes[text] = scope
        return scope

    def fexp(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, self.term_scope(node.text))
            return
        head = node.head()
        if head is not None and head.kind is NodeKind.ATOM:
            if head.text in _ARITHMETIC:
                self.each(node, head, Scope.KEYWORD,
                          lambda c, k: self.fexp(c))
                return
            if is_name(head.text):
                self.each(node, head, Scope.NAME, lambda c, k: self.fexp(c))
                return
        self.unscoped_tree(node)

    # -- conditions and effects ------------------------------------------------

    def condition(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, Scope.UNSCOPED)
            return
        head = node.head()
        if head is None:
            self.each(node, None, None, lambda c, k: None)
            return
        if head.kind is not NodeKind.ATOM:
            self.unscoped_tree(node)
            return
        key = head.text.lower()
        if key in _CONDITION_CONNECTIVES:
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.condition(c))
        elif key in ("forall", "exists"):
            self.quantified(node, head, self.condition)
        elif key == "preference":
            def value(child: SExprNode, k: int) -> None:
                if k == 0 and child.kind is NodeKind.ATOM:
                    ok = is_name(child.text)
                    self.single(child, Scope.NAME if ok else Scope.UNSCOPED)
                else:
                    self.condition(child)
            self.each(node, head, Scope.KEYWORD, value)
        elif key in _COMPARISONS:
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.fexp(c))
        elif is_name(head.text):
            self.application(node, head, ground=False)
        else:
            self.each(node, head, Scope.UNSCOPED, lambda c, k: self.lenient(c))

    def effect(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, Scope.UNSCOPED)
            return
        head = node.head()
        if head is None:
            self.each(node, None, None, lambda c, k: None)
            return
        if head.kind is not NodeKind.ATOM:
            self.unscoped_tree(node)
            return
        key = head.text.lower()
        if key in ("and", "not"):
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.effect(c))
        elif key == "when":
            def value(child: SExprNode, k: int) -> None:
                if k == 0:
                    self.condition(child)
                else:
                    self.effect(child)
            self.each(node, head, Scope.KEYWORD, value)
        elif key == "forall":
            self.quantified(node, head, self.effect)
        elif key in _EFFECT_OPS:
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.fexp(c))
        elif is_name(head.text):
            self.application(node, head, ground=False)
        else:
            self.each(node, head, Scope.UNSCOPED, lambda c, k: self.lenient(c))

    def init_fact(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, Scope.UNSCOPED)
            return
        head = node.head()
        if head is None:
            self.each(node, None, None, lambda c, k: None)
            return
        if head.kind is not NodeKind.ATOM:
            self.unscoped_tree(node)
            return
        key = head.text.lower()
        if key == "=":
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.fexp(c))
        elif key == "not":
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.init_fact(c))
        elif key == "at" and len(values := node.values()) > 1 \
                and values[1].kind is NodeKind.ATOM and is_number(values[1].text):
            # timed initial literal
            def value(child: SExprNode, k: int) -> None:
                if k == 0:
                    self.single(child, Scope.NUMBER)
                else:
                    self.init_fact(child)
            self.each(node, head, Scope.KEYWORD, value)
        elif is_name(head.text):
            self.application(node, head, ground=True)
        else:
            self.each(node, head, Scope.UNSCOPED, lambda c, k: self.lenient(c))

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
        append = self.tokens.append
        new = tuple.__new__
        punctuation, unscoped = Scope.PUNCTUATION, Scope.UNSCOPED
        scopes = self.term_scopes
        _, _, children, (start, end), closed, _ = node
        append(new(Token, (new(Span, (start, start + 1)),
                           punctuation if closed else unscoped, "(")))
        seen_head = False
        for child in children:
            kind, text, _, span, _, trivia = child
            if trivia:
                append(new(Token, (span, _TRIVIA_SCOPES[kind], text)))
            elif kind is not NodeKind.ATOM:
                self.unscoped_tree(child)
            elif not seen_head and child is head:
                seen_head = True
                append(new(Token, (span, Scope.NAME, text)))
            else:
                scope = scopes.get(text) or self.term_scope(text)
                if ground and scope is Scope.VARIABLE:
                    scope = unscoped
                append(new(Token, (span, scope, text)))
        if closed:
            append(new(Token, (new(Span, (end - 1, end)), punctuation, ")")))

    def quantified(self, node: SExprNode, head: SExprNode,
                   body_fn: Callable[[SExprNode], None]) -> None:
        def value(child: SExprNode, k: int) -> None:
            if k == 0:
                self.params_value(child)
            else:
                body_fn(child)
        self.each(node, head, Scope.KEYWORD, value)

    # -- domain blocks -----------------------------------------------------------

    def requirements_block(self, node: SExprNode, head: SExprNode) -> None:
        def value(child: SExprNode, k: int) -> None:
            if child.kind is NodeKind.ATOM \
                    and child.text.lower() in REQUIREMENT_KEYS:
                self.single(child, Scope.REQUIREMENT)
            else:
                self.unscoped_tree(child)
        self.each(node, head, Scope.KEYWORD, value)

    def typed_list_block(self, node: SExprNode, head: SExprNode) -> None:
        self.open_paren(node)
        tail: list[SExprNode] = []
        seen_head = False
        for child in node.children:
            if seen_head:
                tail.append(child)
            elif child is head:
                self.single(child, Scope.KEYWORD)
                seen_head = True
            else:
                self.trivia(child)
        self.typed_list(tail, variables=False)
        self.close_paren(node)

    def declaration(self, node: SExprNode) -> None:
        """A predicate or function declaration: (name typed-variables...)."""
        head = node.head()
        self.open_paren(node)
        tail: list[SExprNode] = []
        seen_head = False
        for child in node.children:
            if seen_head:
                tail.append(child)
            elif child is head and head is not None:
                if child.kind is NodeKind.ATOM:
                    ok = is_name(child.text)
                    self.single(child, Scope.NAME if ok else Scope.UNSCOPED)
                else:
                    self.unscoped_tree(child)
                seen_head = True
            else:
                self.trivia(child)
        self.typed_list(tail, variables=True)
        self.close_paren(node)

    def predicates_block(self, node: SExprNode, head: SExprNode) -> None:
        def value(child: SExprNode, k: int) -> None:
            if child.kind is NodeKind.LIST:
                self.declaration(child)
            else:
                self.single(child, Scope.UNSCOPED)
        self.each(node, head, Scope.KEYWORD, value)

    def functions_block(self, node: SExprNode, head: SExprNode) -> None:
        self.open_paren(node)
        seen_head = False
        expect_type = False
        for child in node.children:
            if not seen_head:
                if child is head:
                    self.single(child, Scope.KEYWORD)
                    seen_head = True
                else:
                    self.trivia(child)
                continue
            if self.trivia(child):
                continue
            if expect_type:
                self.type_position(child)
                expect_type = False
            elif child.kind is NodeKind.LIST:
                self.declaration(child)
            elif child.kind is NodeKind.ATOM and child.text == "-":
                self.single(child, Scope.PUNCTUATION)
                expect_type = True
            else:
                self.single(child, Scope.UNSCOPED)
        self.close_paren(node)

    def action_block(self, node: SExprNode, head: SExprNode,
                     durative: bool) -> None:
        if durative:
            known = {":parameters": "parameters", ":duration": "condition",
                     ":condition": "durative-condition",
                     ":effect": "durative-effect"}
        else:
            known = {":parameters": "parameters", ":precondition": "condition",
                     ":effect": "effect"}
        mode: Optional[str] = None

        def value(child: SExprNode, k: int) -> None:
            nonlocal mode
            if k == 0:
                # action name position
                ok = child.kind is NodeKind.ATOM and is_name(child.text)
                self.atom_or_tree(child, Scope.NAME if ok else Scope.UNSCOPED)
                return
            if mode is None:
                if child.kind is NodeKind.ATOM:
                    key = child.text.lower()
                    if key in known:
                        self.single(child, Scope.KEYWORD)
                        mode = known[key]
                    else:
                        self.single(child, Scope.UNSCOPED)
                        hint = _ACTION_KEY_HINTS.get(key.strip(":"))
                        if durative and hint in ("condition", "effect"):
                            hint = f"durative-{hint}"
                        mode = hint or "lenient"
                else:
                    self.unscoped_tree(child)
                return
            if mode == "parameters":
                self.params_value(child)
            elif mode == "condition":
                self.condition(child)
            elif mode == "effect":
                self.effect(child)
            elif mode == "durative-condition":
                self.timed(child, self.condition)
            elif mode == "durative-effect":
                self.timed(child, self.effect)
            else:
                self.lenient(child)
            mode = None

        self.each(node, head, Scope.KEYWORD, value)

    def timed(self, node: SExprNode, plain: Callable[[SExprNode], None]) -> None:
        """(and ...), (at start|end X) and (over all X) wrappers in
        durative-action conditions and effects."""
        if node.kind is NodeKind.LIST:
            values = node.values()
            head = values[0] if values else None
            if head is not None and head.kind is NodeKind.ATOM:
                key = head.text.lower()
                if key == "and":
                    self.each(node, head, Scope.KEYWORD,
                              lambda c, k: self.timed(c, plain))
                    return
                if key in ("at", "over") and len(values) >= 2 \
                        and values[1].kind is NodeKind.ATOM \
                        and values[1].text.lower() in ("start", "end", "all"):
                    def value(child: SExprNode, k: int) -> None:
                        if k == 0:
                            self.single(child, Scope.KEYWORD)
                        else:
                            plain(child)
                    self.each(node, head, Scope.KEYWORD, value)
                    return
        plain(node)

    def derived_block(self, node: SExprNode, head: SExprNode) -> None:
        def value(child: SExprNode, k: int) -> None:
            if k == 0:
                if child.kind is NodeKind.LIST:
                    self.declaration(child)
                else:
                    self.single(child, Scope.UNSCOPED)
            else:
                self.condition(child)
        self.each(node, head, Scope.KEYWORD, value)

    # -- problem blocks ------------------------------------------------------------

    def simple_ref_block(self, node: SExprNode, head: SExprNode) -> None:
        def value(child: SExprNode, k: int) -> None:
            ok = child.kind is NodeKind.ATOM and is_name(child.text)
            self.atom_or_tree(child, Scope.NAME if ok else Scope.UNSCOPED)
        self.each(node, head, Scope.KEYWORD, value)

    def metric_block(self, node: SExprNode, head: SExprNode) -> None:
        def value(child: SExprNode, k: int) -> None:
            if child.kind is NodeKind.ATOM:
                if child.text.lower() in ("minimize", "maximize"):
                    self.single(child, Scope.KEYWORD)
                else:
                    self.lexical_atom(child)
            else:
                self.fexp(child)
        self.each(node, head, Scope.KEYWORD, value)

    def unknown_block(self, node: SExprNode) -> None:
        head = node.head()
        if head is None:
            self.each(node, None, None, lambda c, k: None)
        elif head.kind is NodeKind.ATOM:
            self.each(node, head, Scope.UNSCOPED, lambda c, k: self.lenient(c))
        else:
            self.each(node, head, None, lambda c, k: self.lenient(c))

    def domain_block(self, node: SExprNode) -> None:
        if node.kind is not NodeKind.LIST:
            self.single(node, Scope.UNSCOPED)
            return
        head = node.head()
        key = head.text.lower() if head is not None \
            and head.kind is NodeKind.ATOM else None
        if key == ":requirements":
            self.requirements_block(node, head)
        elif key in (":types", ":constants"):
            self.typed_list_block(node, head)
        elif key == ":predicates":
            self.predicates_block(node, head)
        elif key == ":functions":
            self.functions_block(node, head)
        elif key == ":action":
            self.action_block(node, head, durative=False)
        elif key == ":durative-action":
            self.action_block(node, head, durative=True)
        elif key == ":derived":
            self.derived_block(node, head)
        elif key == ":constraints":
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.condition(c))
        else:
            self.unknown_block(node)

    def problem_block(self, node: SExprNode) -> None:
        if node.kind is not NodeKind.LIST:
            self.single(node, Scope.UNSCOPED)
            return
        head = node.head()
        key = head.text.lower() if head is not None \
            and head.kind is NodeKind.ATOM else None
        if key == ":domain":
            self.simple_ref_block(node, head)
        elif key == ":requirements":
            self.requirements_block(node, head)
        elif key == ":objects":
            self.typed_list_block(node, head)
        elif key == ":init":
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.init_fact(c))
        elif key in (":goal", ":constraints"):
            self.each(node, head, Scope.KEYWORD, lambda c, k: self.condition(c))
        elif key == ":metric":
            self.metric_block(node, head)
        else:
            self.unknown_block(node)

    # -- whole files --------------------------------------------------------------

    def define_form(self, node: SExprNode) -> None:
        values = node.values()
        head = values[0]
        decl = values[1] if len(values) > 1 else None
        mode = "domain"
        decl_ok = False
        if decl is not None and decl.kind is NodeKind.LIST:
            dv = decl.values()
            if len(dv) == 2 and dv[0].kind is NodeKind.ATOM \
                    and dv[0].text.lower() in ("domain", "problem") \
                    and dv[1].kind is NodeKind.ATOM:
                mode = dv[0].text.lower()
                decl_ok = True

        def value(child: SExprNode, k: int) -> None:
            if k == 0 and child is decl:
                if decl_ok:
                    dv = decl.values()

                    def name_pos(sub: SExprNode, j: int) -> None:
                        ok = sub.kind is NodeKind.ATOM and is_name(sub.text)
                        self.atom_or_tree(sub, Scope.NAME if ok else Scope.UNSCOPED)
                    self.each(decl, dv[0], Scope.KEYWORD, name_pos)
                elif decl.kind is NodeKind.ATOM:
                    self.single(decl, Scope.UNSCOPED)
                else:
                    self.unknown_block(decl)
            elif mode == "problem":
                self.problem_block(child)
            else:
                self.domain_block(child)

        self.each(node, head, Scope.KEYWORD, value)

    def run(self) -> list[Token]:
        for node in self.forest:
            if self.trivia(node):
                continue
            if node.kind is NodeKind.ATOM:
                self.single(node, Scope.UNSCOPED)
                continue
            head = node.head()
            if head is not None and head.kind is NodeKind.ATOM \
                    and head.text.lower() == "define":
                self.define_form(node)
            else:
                self.unknown_block(node)
        return self.tokens


def tokenize(source: Union[str, Document]) -> list[Token]:
    """Assign a scope to every byte of a document's forest; never fails.
    Given text, parse it first. The cyclic garbage collector is paused
    while the tokens are built."""
    forest = as_document(source).forest
    with gc_paused():
        return _Walk(forest).run()


def invalid_regions(tokens: Sequence[Token]) -> list[Span]:
    """Maximal runs of unscoped tokens, merged across pure whitespace."""
    scopes = list(map(itemgetter(1), tokens))
    unscoped, punctuation = Scope.UNSCOPED, Scope.PUNCTUATION
    regions: list[Span] = []
    i = 0
    while True:
        try:
            # Skip to the next unscoped token at C speed.
            i = scopes.index(unscoped, i)
        except ValueError:
            return regions
        start, end = tokens[i].span
        i += 1
        while i < len(scopes):
            scope = scopes[i]
            if scope is unscoped:
                end = tokens[i].span.end
            elif scope is not punctuation or not tokens[i].text.isspace():
                break
            i += 1
        regions.append(Span(start, end))


_SCOPE_JSON = {scope: encode_basestring(scope.value) for scope in Scope}


def emit_tokens_json(tokens: Sequence[Token], text: str) -> bytes:
    """Stable JSON rendering of the token stream, sorted by start offset.

    The bytes are those of ``json.dumps(records, ensure_ascii=False,
    indent=1)``, written out directly because ``indent`` makes ``json``
    fall back to its pure-Python encoder.
    """
    if not tokens:
        return b"[]"
    records = ",\n".join(
        f' {{\n  "start": {t.span.start},\n  "end": {t.span.end},\n'
        f'  "scope": {_SCOPE_JSON[t.scope]},\n'
        f'  "text": {encode_basestring(t.text)}\n }}'
        for t in tokens)
    return f"[\n{records}\n]".encode("utf-8")


_CSS = """\
body { background: #fdfdfd; color: #333; }
pre { font-family: monospace; font-size: 14px; }
.scope-keyword { color: #0033b3; font-weight: bold; }
.scope-variable { color: #871094; }
.scope-name { color: #00627a; }
.scope-typename { color: #9e880d; }
.scope-number { color: #1750eb; }
.scope-comment { color: #8c8c8c; font-style: italic; }
.scope-requirement { color: #9c27b0; }
.scope-punctuation { color: #777; }
.invalid-region { background: #ffffff; outline: 1px solid #e53935; }
"""


# The opening tag of each scope's span; unscoped text gets no span.
_SCOPE_OPEN = {scope: f'<span class="scope-{scope.value.lower()}">'
               for scope in Scope if scope is not Scope.UNSCOPED}


class _Fragments(dict):
    """(scope, text) -> the token's finished HTML, rendered on first use."""

    def __missing__(self, key: tuple[Scope, str]) -> str:
        scope, text = key
        if scope is Scope.UNSCOPED:
            value = html.escape(text)
        else:
            value = f"{_SCOPE_OPEN[scope]}{html.escape(text)}</span>"
        self[key] = value
        return value


def render_html(tokens: Sequence[Token], text: str, title: str = "PDDL") -> str:
    """Standalone HTML document; each invalid region gets one wrapper span so
    broken spots stay visually distinct from every scoped construct.

    Each distinct (scope, text) pair is escaped and rendered once per call.
    """
    fragments = map(_Fragments().__getitem__, map(itemgetter(1, 2), tokens))
    out = [f"<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
           f"<title>{html.escape(title)}</title>\n<style>\n{_CSS}</style>\n"
           f"</head>\n<body>\n<pre>"]
    regions = invalid_regions(tokens)
    if not regions:
        out += fragments
    else:
        opens = {r.start for r in regions}
        closes = {r.end for r in regions}
        for (start, end), fragment in zip(map(itemgetter(0), tokens),
                                          fragments):
            if start in opens:
                out.append('<span class="invalid-region">')
            out.append(fragment)
            if end in closes:
                out.append("</span>")
    out.append("</pre>\n</body>\n</html>\n")
    return "".join(out)
