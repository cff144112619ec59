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
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import (
    ACTION_KEYS,
    CONDITION_RULES,
    CONSTRAINT_RULES,
    DOMAIN_BLOCKS,
    EFFECT_RULES,
    INIT_RULES,
    NUMERIC_KEYWORDS,
    NUMERIC_RULES,
    PREDICATE_KEYWORDS,
    PROBLEM_BLOCKS,
    REQUIREMENT_KEYS,
    TIMED_CONDITION_RULES,
    TIMED_EFFECT_RULES,
    VARIADIC_KEYWORDS,
    action_name,
    define_kind,
    head_key,
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

# Bound once: an enum member read through its class costs a Python call.
_ATOM, _LIST = NodeKind.ATOM, NodeKind.LIST
_PUNCTUATION, _UNSCOPED = Scope.PUNCTUATION, Scope.UNSCOPED


GrammarMethod = Callable[["_Walk", SExprNode], None]


def _atom(scope: Scope, accepts: Callable[[str], bool]) -> GrammarMethod:
    """The grammar method of a place for one atom, which is of ``scope`` if
    ``accepts`` takes its text, else Unscoped; a list there is Unscoped
    whole. ``accepts`` is kept on the method, for rows that it guards."""
    def value(self: _Walk, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.single(node, scope if accepts(node.text) else Scope.UNSCOPED)
        else:
            self.flat_emit(node, Scope.UNSCOPED)
    value.accepts = accepts  # type: ignore[attr-defined]
    return value


def _name_or(then: GrammarMethod) -> GrammarMethod:
    """The grammar method of a place for an optional name, such as that of
    a preference: an atom there is the name, a list read by ``then``."""
    def value(self: _Walk, node: SExprNode) -> None:
        if node.kind is NodeKind.ATOM:
            self.name(node)
        else:
            then(self, node)
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
    ``each`` sends it; a block or form handler also takes the list's head."""

    def __init__(self) -> None:
        self.texts: list[str] = []
        self.scopes: list[Scope] = []
        self.depth = 0
        # Scope of each distinct atom text in term position, before ``ground``.
        self.term_scopes: dict[str, Scope] = {}

    # -- emission ---------------------------------------------------------

    def open_paren(self, node: SExprNode, scope: Optional[Scope] = None) -> None:
        """The list's lead, then its '(' with ``scope``; by default
        Punctuation, or Unscoped if the list is never closed."""
        scope = scope or (_PUNCTUATION if node[4] else _UNSCOPED)
        if node[6]:
            self.texts.append(node[6])
            self.scopes.append(_PUNCTUATION)
        self.texts.append("(")
        self.scopes.append(scope)

    def close_paren(self, node: SExprNode, scope: Scope = _PUNCTUATION) -> None:
        if node[7]:
            self.texts.append(node[7])
            self.scopes.append(_PUNCTUATION)
        if node[4]:
            self.texts.append(")")
            self.scopes.append(scope)

    def single(self, node: SExprNode, scope: Scope) -> None:
        if node[6]:
            self.texts.append(node[6])
            self.scopes.append(_PUNCTUATION)
        self.texts.append(node[1])
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

    def lexical_atom(self, node: SExprNode) -> None:
        text = node.text
        if text == "-":
            self.single(node, _PUNCTUATION)
        elif text.startswith(":") and is_name(text[1:]):
            self.single(node, Scope.KEYWORD)
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
        node is a block or a top-level form, where no atomic formula stands
        and a row's last method repeats. A list with no atom at its head,
        such as ``()``, is Unscoped whole."""
        if node.kind is not _LIST:
            self.single(node, _UNSCOPED)
            return
        head = node.head()
        if head is None or head.kind is not _ATOM:
            self.flat_emit(node, _UNSCOPED)
            return
        key = head.text.lower()
        rule = rules.get(key)
        if rule is not None and key in PREDICATE_KEYWORDS:
            values = node.values()
            if len(values) < 2 or values[1].kind is not _ATOM \
                    or not rule[0].accepts(values[1].text):
                rule = None
        if rule is None:
            if ground is not None and is_name(head.text):
                self.application(node, head, ground)
            else:
                self.each(node, head, _UNSCOPED, _Walk.flat_emit)
        elif type(rule) is tuple:
            self.each(node, head, Scope.KEYWORD, *rule, fixed=ground is not None
                      and key not in VARIADIC_KEYWORDS)
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
        name, variable = Scope.NAME, Scope.VARIABLE
        self.open_paren(node)
        for child in node.children:
            kind, text, _, _, _, _, lead, _ = child
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
            if is_variable(text):
                scope = Scope.VARIABLE
            elif is_number(text):
                scope = Scope.NUMBER
            elif is_name(text):
                scope = Scope.NAME
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
                scope = Scope.KEYWORD
            self.single(node, scope)
            return
        head = node.head()
        if head is not None and head.kind is _ATOM:
            rule = self.NUMERIC.get(head.text)
            if rule is not None:
                self.each(node, head, Scope.KEYWORD, *rule)
                return
            if is_name(head.text):
                self.each(node, head, Scope.NAME, _Walk.fexp)
                return
        self.flat_emit(node, _UNSCOPED)

    def metric(self, node: SExprNode) -> None:
        if node.kind is not _ATOM:
            self.fexp(node)
        elif node.text.lower() in ("minimize", "maximize"):
            self.single(node, Scope.KEYWORD)
        else:
            self.lexical_atom(node)

    name = _atom(Scope.NAME, is_name)
    number = _atom(Scope.NUMBER, is_number)
    type_name = _atom(Scope.TYPE_NAME, is_name)
    requirement = _atom(Scope.REQUIREMENT,
                        lambda text: text.lower() in REQUIREMENT_KEYS)
    start_or_end = _atom(Scope.KEYWORD,
                         lambda text: text.lower() in ("start", "end"))
    all = _atom(Scope.KEYWORD, lambda text: text.lower() == "all")
    end = _atom(Scope.KEYWORD, lambda text: text.lower() == "end")

    name_or_condition = _name_or(condition)
    name_or_constraint = _name_or(constraint)

    # -- typed lists --------------------------------------------------------

    def typed_list(self, node: SExprNode, head: Optional[SExprNode],
                   items: Optional[Scope] = Scope.NAME,
                   head_scope: Scope = Scope.KEYWORD) -> None:
        """A typed list, (x+ - type)* after ``head`` if there is one, which
        gets ``head_scope``, read by ``typed_list_marks``: a '-' that starts
        a type is Punctuation and one with nothing after it Unscoped. An
        atom item is of scope ``items`` if it classifies as that, else
        Unscoped; with ``items`` None the items are declarations."""
        marks = typed_list_marks(node.children, head)
        texts, scopes, known = self.texts, self.scopes, self.term_scopes
        type_node = None
        self.open_paren(node)
        for child in node.children:
            kind, text, _, _, _, _, lead, _ = child
            if child is head:
                self.atom_or_tree(child, head_scope)
            elif child is type_node:
                self.type_position(child)
            elif kind is not _ATOM:
                if items is None:
                    self.declaration(child)
                else:
                    self.flat_emit(child, _UNSCOPED)
            else:
                if lead:
                    texts.append(lead)
                    scopes.append(_PUNCTUATION)
                if text == "-":
                    type_node = marks[child]
                    scope = _UNSCOPED if type_node is None else _PUNCTUATION
                else:
                    scope = known.get(text) or self.term_scope(text)
                    if scope is not items:
                        scope = _UNSCOPED
                texts.append(text)
                scopes.append(scope)
        self.close_paren(node)

    def type_position(self, node: SExprNode) -> None:
        if node.kind is _LIST and head_key(node) == "either":
            self.each(node, node.head(), Scope.KEYWORD, _Walk.type_name)
        else:
            self.type_name(node)

    def function_list(self, node: SExprNode, head: SExprNode) -> None:
        """(:functions ...), a typed list of declarations."""
        self.typed_list(node, head, None)

    def parameters(self, node: SExprNode) -> None:
        if node.kind is _LIST:
            self.typed_list(node, None, Scope.VARIABLE)
        else:
            self.single(node, _UNSCOPED)

    def declaration(self, node: SExprNode) -> None:
        """A predicate or function declaration: (name typed-variables...);
        one with no name at all, such as ``()``, is Unscoped whole."""
        head = node.head() if node.kind is _LIST else None
        if head is None:
            self.atom_or_tree(node, _UNSCOPED)
            return
        ok = head.kind is _ATOM and is_name(head.text)
        self.typed_list(node, head, Scope.VARIABLE,
                        Scope.NAME if ok else _UNSCOPED)

    # -- blocks and whole files ---------------------------------------------

    def action_block(self, node: SExprNode, head: SExprNode) -> None:
        """(:action NAME key value...) or (:durative-action ...), keyed by
        ``ACTION_KEYS``. A key in the name's place stays Unscoped: the
        action has no name."""
        keys = ACTION_KEYS[head.text.lower()]
        name = action_name(node, head.text.lower())
        key_scope = _UNSCOPED
        context: Optional[GrammarMethod] = None

        def value(self: _Walk, child: SExprNode) -> None:
            nonlocal context, key_scope
            if child is name:
                self.name(child)
            elif context is not None:
                # () is a whole value's <emptyOr> (PDDL 3.1), read lexically.
                empty = child.kind is _LIST and child.head() is None
                (_Walk.flat_emit if empty else context)(self, child)
                context = None
            elif child.kind is not _ATOM:
                self.flat_emit(child, _UNSCOPED)
            elif (key := child.text.lower()) in keys:
                self.single(child, key_scope)
                context = self.ACTION_VALUES[keys[key][1]]
            else:
                self.single(child, _UNSCOPED)
                # Read the value as that of the hinted key if this kind of
                # action has it, so a durative one gets the timed context.
                hint = _ACTION_KEY_HINTS.get(key.strip(":"))
                context = self.ACTION_VALUES.get(
                    keys[f":{hint}"][1] if f":{hint}" in keys else hint,
                    _Walk.flat_emit)
            key_scope = Scope.KEYWORD

        self.each(node, head, Scope.KEYWORD, value)

    def domain_block(self, node: SExprNode) -> None:
        self.formula(node, self.DOMAIN_BLOCKS, ground=None)

    def problem_block(self, node: SExprNode) -> None:
        self.formula(node, self.PROBLEM_BLOCKS, ground=None)

    def unknown(self, node: SExprNode) -> None:
        """Content of no known form, read leniently."""
        self.formula(node, {}, ground=None)

    def header(self, node: SExprNode) -> None:
        """The (domain NAME) or (problem NAME) of a define form."""
        self.each(node, node.head(), Scope.KEYWORD, _Walk.name)

    def define_form(self, node: SExprNode, head: SExprNode) -> None:
        """(define (domain NAME) block...) or (define (problem NAME) ...);
        with no such header, a domain's blocks after lenient content."""
        values = node.values()
        kind = define_kind(values[1] if len(values) > 1 else None)
        self.each(node, head, Scope.KEYWORD,
                  _Walk.unknown if kind is None else _Walk.header,
                  _Walk.problem_block if kind == "problem"
                  else _Walk.domain_block)

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


_SCOPE_JSON = {scope: encode_basestring(scope.value) for scope in Scope}
# Tokens per piece of ``iter_json``: enough to amortize the join, few
# enough that a piece is small next to a large file's output.
_JSON_RUN = 1024

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


def scope_columns(source: Union[str, Document]) -> TokenColumns:
    """The walk of `tokenize` as columns; never fails. Given text, parse it
    first. The cyclic garbage collector is paused during the walk."""
    doc = as_document(source)
    walk = _Walk()
    with gc_paused():
        walk.run(doc.forest)
    return TokenColumns(walk.texts, walk.scopes, len(doc.data) == len(doc.text))


def tokenize(source: Union[str, Document]) -> list[Token]:
    """Assign a scope to every byte of a document's forest; never fails.
    Given text, parse it first. The tokens are those of `scope_columns`,
    built at C speed with the cyclic garbage collector paused."""
    with gc_paused():
        columns = scope_columns(source)
        spans = map(tuple.__new__, repeat(Span), zip(*columns.offsets()))
        return list(map(tuple.__new__, repeat(Token),
                        zip(spans, columns.scopes, columns.texts)))


class TokenColumns:
    """A token stream as columns: token k is ``texts[k]`` with scope
    ``scopes[k]``. A walk's tokens tile the file: token k spans ``[bounds[k],
    bounds[k + 1])``, the running sums of the texts' byte lengths (``len`` if
    ``ascii``), made on first use, which a valid file's regions never need."""

    __slots__ = ("texts", "scopes", "_ascii", "_offsets")

    def __init__(self, texts: Sequence[str], scopes: Sequence[Scope],
                 ascii: bool = False) -> None:
        self.texts, self.scopes, self._ascii = texts, scopes, ascii
        self._offsets: Optional[tuple[list[int], list[int]]] = None

    @classmethod
    def of(cls, tokens: Sequence[Token]) -> TokenColumns:
        """The columns of any token list, whose spans give the offsets."""
        columns = cls(list(map(itemgetter(2), tokens)),
                      list(map(itemgetter(1), tokens)))
        columns._offsets = ([span[0] for span, _, _ in tokens],
                            [span[1] for span, _, _ in tokens])
        return columns

    def offsets(self) -> tuple[list[int], list[int]]:
        """Each token's start and end offset, made on first use."""
        if self._offsets is None:
            texts = self.texts if self._ascii else map(str.encode, self.texts)
            bounds = list(accumulate(map(len, texts), initial=0))
            self._offsets = bounds, bounds[1:]
        return self._offsets

    def invalid_regions(self) -> list[Span]:
        """See `invalid_regions`."""
        scopes, texts = self.scopes, self.texts
        regions: list[Span] = []
        i = 0
        while True:
            try:
                # Skip to the next unscoped token at C speed.
                i = scopes.index(_UNSCOPED, i)
            except ValueError:
                return regions
            first = last = i
            i += 1
            while i < len(scopes):
                scope = scopes[i]
                if scope is _UNSCOPED:
                    last = i
                elif scope is not _PUNCTUATION or not texts[i].isspace():
                    break
                i += 1
            starts, ends = self.offsets()
            regions.append(Span(starts[first], ends[last]))

    def iter_json(self) -> Iterator[bytes]:
        """See `iter_tokens_json`."""
        return iter_tokens_json(zip(zip(*self.offsets()), self.scopes, self.texts))

    def render_html(self, *, title: str = "PDDL") -> str:
        """See `render_html`."""
        fragments = map(_Fragments().__getitem__, zip(self.scopes, self.texts))
        out = [f"<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
               f"<title>{html.escape(title)}</title>\n<style>\n{_CSS}</style>\n"
               f"</head>\n<body>\n<pre>"]
        regions = self.invalid_regions()
        if not regions:
            out += fragments
        else:
            opens, closes = map(set, zip(*regions))
            for start, end, fragment in zip(*self.offsets(), fragments):
                if start in opens:
                    out.append('<span class="invalid-region">')
                out.append(fragment)
                if end in closes:
                    out.append("</span>")
        out.append("</pre>\n</body>\n</html>\n")
        return "".join(out)


def invalid_regions(tokens: Sequence[Token]) -> list[Span]:
    """Maximal runs of unscoped tokens, merged across pure whitespace."""
    return TokenColumns.of(tokens).invalid_regions()


def iter_tokens_json(tokens: Iterable[Token]) -> Iterator[bytes]:
    """Stable JSON rendering of the token stream, in its order, as UTF-8
    pieces of ``_JSON_RUN`` tokens each, so that a writer never holds the
    whole output; any (span, scope, text) rows will do for tokens.

    The joined bytes are those of ``json.dumps(records, ensure_ascii=False,
    indent=1)``, written out directly because ``indent`` makes ``json``
    fall back to its pure-Python encoder.
    """
    rows = iter(tokens)
    opening = "[\n"
    while run := list(islice(rows, _JSON_RUN)):
        yield (opening + ",\n".join(
            f' {{\n  "start": {start},\n  "end": {end},\n'
            f'  "scope": {_SCOPE_JSON[scope]},\n'
            f'  "text": {encode_basestring(text)}\n }}'
            for (start, end), scope, text in run)).encode("utf-8")
        opening = ",\n"
    yield b"[]" if opening == "[\n" else b"\n]"


def emit_tokens_json(tokens: Sequence[Token]) -> bytes:
    """The pieces of ``iter_tokens_json``, joined."""
    return b"".join(iter_tokens_json(tokens))


def render_html(tokens: Sequence[Token], *, title: str = "PDDL") -> str:
    """Standalone HTML document; each invalid region gets one wrapper span so
    broken spots stay visually distinct from every scoped construct.

    Each distinct (scope, text) pair is escaped and rendered once per call.
    """
    return TokenColumns.of(tokens).render_html(title=title)
