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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import (
    ACTION_KEYS,
    REQUIREMENT_KEYS,
    action_name,
    define_kind,
    head_key,
    is_define,
    is_name,
    is_number,
    is_variable,
    typed_list_marks,
)
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
            self.flat_emit(node, Scope.UNSCOPED)

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
                self.close_paren(todo.pop(), scope or Scope.PUNCTUATION)
            elif self.trivia(item):
                continue
            elif item.kind is NodeKind.ATOM:
                if scope is None and item not in heads:
                    self.lexical_atom(item)
                else:
                    self.single(item, scope or Scope.UNSCOPED)
            else:
                self.open_paren(item, scope)
                todo += (item, _CLOSE)
                todo.extend(reversed(item.children))
                head = item.head()
                if head is not None and head.kind is NodeKind.ATOM \
                        and is_variable(head.text):
                    heads.add(head)

    def each(self, node: SExprNode, head: Optional[SExprNode],
             head_scope: Scope,
             value_fn: Callable[[SExprNode, int], None]) -> None:
        """One in-order pass over a list's children: trivia emitted as-is,
        the head atom with ``head_scope``, the k-th following value through
        ``value_fn(value, k)``. Parens are emitted here too. The grammar
        methods take ``k`` too, so that they serve as value functions."""
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
        elif text.startswith(":") and is_name(text[1:]):
            self.single(node, Scope.KEYWORD)
        else:
            self.single(node, self.term_scope(text))

    def lenient(self, node: SExprNode, k: int = 0) -> None:
        self.flat_emit(node)

    # -- typed lists --------------------------------------------------------

    def typed_list(self, node: SExprNode, head: Optional[SExprNode],
                   items: Optional[Scope],
                   head_scope: Scope = Scope.KEYWORD) -> None:
        """A typed list, (x+ - type)* after ``head`` if there is one, which
        gets ``head_scope``, read by ``typed_list_marks``: a '-' that starts
        a type is Punctuation and one with nothing after it Unscoped. An
        atom item is of scope ``items`` if it classifies as that, else
        Unscoped; with ``items`` None the items are declarations."""
        marks = typed_list_marks(node.children, head)
        append = self.tokens.append
        new = tuple.__new__
        scopes = self.term_scopes
        type_node = None
        self.open_paren(node)
        for child in node.children:
            kind, text, _, span, _, trivia = child
            if trivia:
                append(new(Token, (span, _TRIVIA_SCOPES[kind], text)))
            elif child is head:
                self.atom_or_tree(child, head_scope)
            elif child is type_node:
                self.type_position(child)
            elif text == "-":
                type_node = marks[child]
                append(new(Token, (span, Scope.UNSCOPED if type_node is None
                                   else Scope.PUNCTUATION, text)))
            elif kind is not NodeKind.ATOM:
                if items is None:
                    self.declaration(child)
                else:
                    self.flat_emit(child, Scope.UNSCOPED)
            else:
                scope = scopes.get(text) or self.term_scope(text)
                append(new(Token, (span, scope if scope is items
                                   else Scope.UNSCOPED, text)))
        self.close_paren(node)

    def type_position(self, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            ok = is_name(node.text)
            self.single(node, Scope.TYPE_NAME if ok else Scope.UNSCOPED)
        elif head_key(node) == "either":
            def member(child: SExprNode, k: int) -> None:
                if child.kind is NodeKind.ATOM and is_name(child.text):
                    self.single(child, Scope.TYPE_NAME)
                else:
                    self.flat_emit(child, Scope.UNSCOPED)
            self.each(node, node.head(), Scope.KEYWORD, member)
        else:
            self.flat_emit(node, Scope.UNSCOPED)

    def params_value(self, node: SExprNode) -> None:
        if node.kind is NodeKind.LIST:
            self.typed_list(node, None, Scope.VARIABLE)
        else:
            self.single(node, Scope.UNSCOPED)

    def name_value(self, node: SExprNode, k: int = 0) -> None:
        """A name position: a Name if the atom is one, else Unscoped."""
        ok = node.kind is NodeKind.ATOM and is_name(node.text)
        self.atom_or_tree(node, Scope.NAME if ok else Scope.UNSCOPED)

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

    def fexp(self, node: SExprNode, k: int = 0) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, self.term_scope(node.text))
            return
        head = node.head()
        if head is not None and head.kind is NodeKind.ATOM:
            if head.text in _ARITHMETIC:
                self.each(node, head, Scope.KEYWORD, self.fexp)
                return
            if is_name(head.text):
                self.each(node, head, Scope.NAME, self.fexp)
                return
        self.flat_emit(node, Scope.UNSCOPED)

    # -- conditions and effects ------------------------------------------------

    def formula_head(self, node: SExprNode) -> Optional[SExprNode]:
        """The head atom of a formula. Anything else (an atom, an empty list
        or a list headed by a list) is emitted here, and None returned."""
        if node.kind is NodeKind.ATOM:
            self.single(node, Scope.UNSCOPED)
            return None
        head = node.head()
        if head is None:
            self.flat_emit(node)
        elif head.kind is not NodeKind.ATOM:
            self.flat_emit(node, Scope.UNSCOPED)
        else:
            return head
        return None

    def atomic(self, node: SExprNode, head: SExprNode, ground: bool) -> None:
        """An atomic formula if its head is a name, else lenient content."""
        if is_name(head.text):
            self.application(node, head, ground)
        else:
            self.unknown_block(node)

    def condition(self, node: SExprNode, k: int = 0) -> None:
        head = self.formula_head(node)
        if head is None:
            return
        key = head.text.lower()
        if key in _CONDITION_CONNECTIVES:
            self.each(node, head, Scope.KEYWORD, self.condition)
        elif key in ("forall", "exists"):
            self.quantified(node, head, self.condition)
        elif key == "preference":
            def value(child: SExprNode, k: int) -> None:
                if k == 0 and child.kind is NodeKind.ATOM:
                    self.name_value(child)
                else:
                    self.condition(child)
            self.each(node, head, Scope.KEYWORD, value)
        elif key in _COMPARISONS:
            self.each(node, head, Scope.KEYWORD, self.fexp)
        else:
            self.atomic(node, head, ground=False)

    def effect(self, node: SExprNode, k: int = 0) -> None:
        head = self.formula_head(node)
        if head is None:
            return
        key = head.text.lower()
        if key in ("and", "not"):
            self.each(node, head, Scope.KEYWORD, self.effect)
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
            self.each(node, head, Scope.KEYWORD, self.fexp)
        else:
            self.atomic(node, head, ground=False)

    def init_fact(self, node: SExprNode, k: int = 0) -> None:
        head = self.formula_head(node)
        if head is None:
            return
        key = head.text.lower()
        if key == "=":
            self.each(node, head, Scope.KEYWORD, self.fexp)
        elif key == "not":
            self.each(node, head, Scope.KEYWORD, self.init_fact)
        elif key == "at" and len(values := node.values()) > 1 \
                and values[1].kind is NodeKind.ATOM and is_number(values[1].text):
            # timed initial literal
            def value(child: SExprNode, k: int) -> None:
                if k == 0:
                    self.single(child, Scope.NUMBER)
                else:
                    self.init_fact(child)
            self.each(node, head, Scope.KEYWORD, value)
        else:
            self.atomic(node, head, ground=True)

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
                self.flat_emit(child, Scope.UNSCOPED)
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
                self.flat_emit(child, Scope.UNSCOPED)
        self.each(node, head, Scope.KEYWORD, value)

    def typed_list_block(self, node: SExprNode, head: SExprNode) -> None:
        self.typed_list(node, head, Scope.NAME)

    def declaration(self, node: SExprNode, k: int = 0) -> None:
        """A predicate or function declaration: (name typed-variables...);
        one with no name at all, such as ``()``, is Unscoped whole."""
        head = node.head() if node.kind is NodeKind.LIST else None
        if head is None:
            self.atom_or_tree(node, Scope.UNSCOPED)
            return
        ok = head.kind is NodeKind.ATOM and is_name(head.text)
        self.typed_list(node, head, Scope.VARIABLE,
                        Scope.NAME if ok else Scope.UNSCOPED)

    def predicates_block(self, node: SExprNode, head: SExprNode) -> None:
        self.each(node, head, Scope.KEYWORD, self.declaration)

    def functions_block(self, node: SExprNode, head: SExprNode) -> None:
        self.typed_list(node, head, None)

    def action_block(self, node: SExprNode, head: SExprNode) -> None:
        """(:action NAME key value...) or (:durative-action ...), keyed by
        ``ACTION_KEYS``."""
        keys = ACTION_KEYS[head.text.lower()]
        name = action_name(node, head.text.lower())
        context: Optional[str] = None

        def value(child: SExprNode, k: int) -> None:
            nonlocal context
            if child is name:
                self.name_value(child)
            elif context is not None:
                self.ACTION_VALUES.get(context, _Walk.lenient)(self, child)
                context = None
            elif child.kind is not NodeKind.ATOM:
                self.flat_emit(child, Scope.UNSCOPED)
            elif (key := child.text.lower()) in keys:
                # A key in the name's place stays Unscoped: no name.
                self.single(child, Scope.KEYWORD if k else Scope.UNSCOPED)
                context = keys[key][1]
            else:
                self.single(child, Scope.UNSCOPED)
                # Read the value as that of the hinted key if this kind of
                # action has it, so a durative one gets the timed context.
                hint = _ACTION_KEY_HINTS.get(key.strip(":"))
                context = keys[f":{hint}"][1] if f":{hint}" in keys \
                    else hint or "lenient"

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
                self.declaration(child)
            else:
                self.condition(child)
        self.each(node, head, Scope.KEYWORD, value)

    def conditions_block(self, node: SExprNode, head: SExprNode) -> None:
        self.each(node, head, Scope.KEYWORD, self.condition)

    # -- problem blocks ------------------------------------------------------------

    def init_block(self, node: SExprNode, head: SExprNode) -> None:
        self.each(node, head, Scope.KEYWORD, self.init_fact)

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
        if head is not None and head.kind is NodeKind.ATOM:
            self.each(node, head, Scope.UNSCOPED, self.lenient)
        else:
            self.flat_emit(node)

    # -- whole files --------------------------------------------------------------

    def block(self, node: SExprNode, handlers: dict) -> None:
        """A block of a define form, through the handler of its key."""
        if node.kind is not NodeKind.LIST:
            self.single(node, Scope.UNSCOPED)
            return
        handler = handlers.get(head_key(node))
        if handler is None:
            self.unknown_block(node)
        else:
            handler(self, node, node.head())

    def define_form(self, node: SExprNode) -> None:
        values = node.values()
        decl = values[1] if len(values) > 1 else None
        kind = define_kind(decl)
        handlers = self.PROBLEM_BLOCKS if kind == "problem" \
            else self.DOMAIN_BLOCKS

        def value(child: SExprNode, k: int) -> None:
            if k > 0:
                self.block(child, handlers)
            elif kind is not None:
                self.each(child, child.head(), Scope.KEYWORD, self.name_value)
            elif child.kind is NodeKind.ATOM:
                self.single(child, Scope.UNSCOPED)
            else:
                self.unknown_block(child)

        self.each(node, values[0], Scope.KEYWORD, value)

    def run(self) -> list[Token]:
        for node in self.forest:
            if self.trivia(node):
                continue
            if node.kind is NodeKind.ATOM:
                self.single(node, Scope.UNSCOPED)
            elif is_define(node):
                self.define_form(node)
            else:
                self.unknown_block(node)
        return self.tokens

    # Handlers by block key (the keys of ``DOMAIN_BLOCK_KEYS`` and
    # ``PROBLEM_BLOCK_KEYS``), and by the context ``ACTION_KEYS`` gives an
    # action key's value.
    DOMAIN_BLOCKS = {
        ":requirements": requirements_block,
        ":types": typed_list_block,
        ":constants": typed_list_block,
        ":predicates": predicates_block,
        ":functions": functions_block,
        ":action": action_block,
        ":durative-action": action_block,
        ":derived": derived_block,
        ":constraints": conditions_block,
    }
    PROBLEM_BLOCKS = {
        ":domain": lambda self, node, head: self.each(
            node, head, Scope.KEYWORD, self.name_value),
        ":requirements": requirements_block,
        ":objects": typed_list_block,
        ":init": init_block,
        ":goal": conditions_block,
        ":metric": metric_block,
        ":constraints": conditions_block,
    }
    ACTION_VALUES = {
        "parameters": params_value,
        "condition": condition,
        "effect": effect,
        "timed-condition": lambda self, node: self.timed(node, self.condition),
        "timed-effect": lambda self, node: self.timed(node, self.effect),
    }


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
# Tokens per piece of ``iter_tokens_json``: enough to amortize the join,
# few enough that a piece is small next to a large file's output.
_JSON_RUN = 1024


def iter_tokens_json(tokens: Sequence[Token]) -> Iterator[bytes]:
    """Stable JSON rendering of the token stream, sorted by start offset,
    as UTF-8 pieces of ``_JSON_RUN`` tokens each, so that a writer never
    holds the whole output.

    The joined bytes are those of ``json.dumps(records, ensure_ascii=False,
    indent=1)``, written out directly because ``indent`` makes ``json``
    fall back to its pure-Python encoder.
    """
    if not tokens:
        yield b"[]"
        return
    opening = "[\n"
    for i in range(0, len(tokens), _JSON_RUN):
        yield (opening + ",\n".join(
            f' {{\n  "start": {t.span.start},\n  "end": {t.span.end},\n'
            f'  "scope": {_SCOPE_JSON[t.scope]},\n'
            f'  "text": {encode_basestring(t.text)}\n }}'
            for t in tokens[i:i + _JSON_RUN])).encode("utf-8")
        opening = ",\n"
    yield b"\n]"


def emit_tokens_json(tokens: Sequence[Token]) -> bytes:
    """The pieces of ``iter_tokens_json``, joined."""
    return b"".join(iter_tokens_json(tokens))


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


def render_html(tokens: Sequence[Token], *, title: str = "PDDL") -> str:
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
