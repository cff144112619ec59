"""Typed PDDL 3.1 view over a document's tape: the grammar's tables, the
scope walk that reads them, the model's records, and the functions that
read a domain or a problem.

The grammar is written down once, here. The scope walk (``_Walk``) reads it
from the tables over the lexemes of a `Tape`, in one of two modes: it gives
each lexeme a scope, for the tokens that ``highlight`` renders, or it fills
a model's records, so the model and the tokens come from one reader.
Parsing is best-effort: unrecognized or malformed blocks produce
diagnostics instead of failures, because the toolkit has to keep working on
broken files. The records keep formulas as nodes of the concrete-syntax
tree, built from the tape, so the original text is never copied or
normalized.
"""

from __future__ import annotations

import enum
import re
from itertools import accumulate, compress
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

from .sexpr import (
    Deferred,
    Document,
    NodeKind,
    ParseDiagnostic,
    Record,
    SExprNode,
    Span,
    Tape,
    as_document,
    excerpt,
    finding,
    gc_paused,
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
# In :init a function's value is set, not computed (PDDL 3.1): a function
# of ground terms, as in a fact, equals a number or a name.
INIT_RULES = {"=": ("function-term", "ground-term"), "not": ("init",),
              "at": ("number", "init")}
# PDDL 2.1 (Fox and Long, 2003): "at start|end" and "over all"; effects only "at".
TIMED_CONDITION_RULES = {
    **CONDITION_RULES, "and": ("timed-condition",),
    "at": ("start-or-end", "condition"), "over": ("all", "condition"),
}
# A continuous effect, an increase or a decrease directly in a durative
# action's effect, changes by a rate (``_Walk.fexp_t``).
TIMED_EFFECT_RULES = {
    **EFFECT_RULES, "and": ("timed-effect",), "at": ("start-or-end", "effect"),
    "when": ("timed-condition", "timed-effect"),
    "forall": ("parameters", "timed-effect"),
    **dict.fromkeys(("increase", "decrease"), ("fexp", "fexp-t")),
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
# Atoms that are keywords in the rate of a continuous effect: #t, the time
# elapsed (Fox and Long, 2003).
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


# A model's formulas, an action's parameters (``_parameters``) and its span
# are built from the tape on first read: a reader of declarations builds none.
class ActionDecl(Record):
    __slots__ = _action_fields(":action")
    _deferred = __slots__[1:]  # all but the name
    _required = 2


class DurativeActionDecl(Record):
    __slots__ = _action_fields(":durative-action")
    _deferred = __slots__[1:]
    _required = 2


class PddlDomain(Record):
    __slots__ = ("name", "requirements", "types", "constants", "predicates",
                 "functions", "actions", "durative_actions", "derived")
    _fresh = {"requirements": list, "types": TypedList,
              "constants": TypedList, "predicates": list, "functions": list,
              "actions": list, "durative_actions": list, "derived": list}
    _deferred = ("derived",)


class PddlProblem(Record):
    __slots__ = ("name", "domain_ref", "objects", "init", "goal", "metric")
    _fresh = {"objects": TypedList, "init": list}
    _deferred = ("init", "goal", "metric")


Model = TypeVar("Model", PddlDomain, PddlProblem)


# Bound once: an enum member read through its class costs a Python call.
_ATOM, _LIST = NodeKind.ATOM, NodeKind.LIST


def head_key(node: SExprNode) -> Optional[str]:
    """The lowercased text of a list's head atom, or None."""
    head = node.head() if node.kind is _LIST else None
    return head.text.lower() if head and head.kind is _ATOM else None


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

# Lexeme -1 is the end, whose value is the end too (``last[-1]``), so the
# values of the list at -1 run from lexeme 0 to the end: the whole text.
_TOP = -1

# Bound once, as ``_ATOM`` and ``_LIST`` are.
_PUNCTUATION, _UNSCOPED = Scope.PUNCTUATION, Scope.UNSCOPED
_KEYWORD, _NAME, _VARIABLE = Scope.KEYWORD, Scope.NAME, Scope.VARIABLE


class _TermScopes(dict):
    """Scope of an atom in term position, by its text, each distinct text
    classified on first use; ``ground`` makes a variable Unscoped. A
    parenthesis is Punctuation, so a list of atoms maps whole."""

    def __init__(self, ground: bool = False) -> None:
        super().__init__({"(": _PUNCTUATION, ")": _PUNCTUATION})
        self.ground = ground

    def __missing__(self, text: str) -> Scope:
        # The three classes share no text; names, the most common, first.
        if is_name(text):
            scope = _NAME
        elif is_variable(text):
            scope = _UNSCOPED if self.ground else _VARIABLE
        elif is_number(text):
            scope = Scope.NUMBER
        else:
            scope = _UNSCOPED
        self[text] = scope
        return scope


class _ItemClasses(dict):
    """Class of a lexeme by its text, each distinct text classified on
    first use: that of its lowercased text in ``keywords``, else 'n' a
    name, 'v' a variable, '-' the dash and 'x' anything else, a comment
    among them, and in a flat typed list a parenthesis too."""

    def __init__(self, keywords: Optional[dict[str, str]] = None) -> None:
        self.keywords = keywords or {}

    def __missing__(self, text: str) -> str:
        item = self.keywords.get(text.lower()) or (
            "n" if is_name(text) else "v" if is_variable(text)
            else "-" if text == "-" else "x")
        self[text] = item
        return item


# A valid flat typed list of variables or of names by its items' classes,
# a type 't' once matched, and each class's scope.
_FLAT_LISTS = {Scope.VARIABLE: re.compile(r"(?:v+-n)*v*"),
               Scope.NAME: re.compile(r"(?:n+-n)*n*")}
_FLAT_SCOPES = {"v": Scope.VARIABLE, "n": Scope.NAME,
                "-": Scope.PUNCTUATION, "t": Scope.TYPE_NAME}

# A plain :action by its lexemes' classes: its head 'A' and name, then each
# key (its place in ``ACTION_KEYS``) at most once and in order, with flat
# typed variables, or one literal or an (and ...) of literals, a literal
# being (p term*) or (not (p term*)) of names and variables: no comment,
# number, () or deeper list. '&' and '!' are the formula keys whose rows
# read their own context in conditions and effects alike, 'x' any other.
_ACTION_KEY_CLASSES = {key: str(place)
                       for place, key in enumerate(ACTION_KEYS[":action"])}
_ACTION_CLASSES = {"(": "(", ")": ")", ":action": "A", **_ACTION_KEY_CLASSES,
                   **{key: "&!"[key not in VARIADIC_KEYWORDS] if (
                       CONDITION_RULES.get(key), EFFECT_RULES.get(key)) == (
                       ("condition",), ("effect",)) else "x"
                      for key in CONDITION_RULES.keys() | EFFECT_RULES.keys()}}
_LITERAL = r"(?:\(n[nv]*\)|\(!\(n[nv]*\)\))"
_PLAIN_VALUES = {"parameters": rf"\((?=v){_FLAT_LISTS[_VARIABLE].pattern}\)",
                 **dict.fromkeys(("condition", "effect"),
                                 rf"(?:\(&{_LITERAL}*\)|{_LITERAL})")}
_PLAIN_ACTION = re.compile(r"\(An" + "".join(
    f"(?:{_ACTION_KEY_CLASSES[key]}{_PLAIN_VALUES[context]})?"
    for key, (_, context) in ACTION_KEYS[":action"].items()) + r"\)")
_ACTION_SCOPES = {**_FLAT_SCOPES, "(": _PUNCTUATION, ")": _PUNCTUATION,
                  **dict.fromkeys([*"A&!", *_ACTION_KEY_CLASSES.values()],
                                  _KEYWORD)}


GrammarMethod = Callable[["_Walk", int], None]


def _atom(scope: Scope, accepts: Callable[[str], bool]) -> GrammarMethod:
    """The grammar method of a place for one atom, which is of ``scope`` if
    ``accepts`` takes its text, else Unscoped; a list there is Unscoped
    whole. ``accepts`` is kept on the method, for rows that it guards."""
    def value(self: _Walk, k: int) -> None:
        piece = self.pieces[k]
        if piece != "(" and accepts(piece):
            self.scopes[k] = scope
    value.accepts = accepts  # type: ignore[attr-defined]
    return value


def _formula(rules: str, ground: bool = False) -> GrammarMethod:
    """The grammar method of a formula place, read by the rows of the
    walk's table named ``rules`` (``_Walk.formulas``), which are kept on
    the method with ``ground`` for ``each``."""
    def value(self: _Walk, k: int) -> None:
        self.formula(k, getattr(self, rules), ground)
    value.rules, value.ground = rules, ground  # type: ignore[attr-defined]
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
    """One grammar walk over a document's `Tape`, which gives each lexeme a
    scope, ``scopes[k]`` for lexeme k. Every lexeme starts Unscoped, which
    is what anything misplaced gets, so the walk skips it; a comment is a
    Comment wherever it stands, and every lead is Punctuation (`tokens`).
    A grammar method takes the walk and the lexeme of one value, as
    ``each`` sends it; a block or form handler also takes the list's head.

    Given a ``model``, a ``PddlDomain`` or a ``PddlProblem``, the walk fills
    it from a define form read as that kind, with the findings in
    ``diagnostics``; it keeps each formula as a `Deferred` call of
    `Tape.node`, an action's span as one of `Tape.span` (``record_action``)
    and its parameters as one of ``_parameters`` on ``recorder``, a silent
    walk for them all, not this one, which the model would hold in a cycle.
    ``inits``, ``derived`` and ``goal`` hold the lexemes of the :init and
    :derived blocks and of the goal read so far."""

    def __init__(self, tape: Tape,
                 model: Union[PddlDomain, PddlProblem, None] = None) -> None:
        self.tape = tape
        self.pieces, self.last, self.eof = tape.pieces, tape.last, tape.end
        self.scopes = [_UNSCOPED] * len(tape.pieces)
        self.depth = 0
        self.terms, self.ground_terms = _TermScopes(), _TermScopes(True)
        self.classes = _ItemClasses()
        self.action_classes = _ItemClasses(_ACTION_CLASSES)
        self.model = model
        self.diagnostics: list[ParseDiagnostic] = []
        # The kind of the define form read, and the keys of its blocks so far.
        self.kind = "problem" if isinstance(model, PddlProblem) else "domain"
        self.seen: set[str] = set()
        self.inits: list[int] = []
        self.derived: list[int] = []
        self.goal: Optional[int] = None
        self.recorder: Optional[_Walk] = None

    def tokens(self) -> tuple[list[str], list[Scope]]:
        """The token texts and scopes: each lead that is not empty, as
        Punctuation, then its lexeme; built at C speed."""
        texts, scopes = self.tape.texts, [_PUNCTUATION] * len(self.tape.texts)
        scopes[1::2] = self.scopes
        return list(filter(None, texts)), list(compress(scopes, texts))

    # -- the tape -------------------------------------------------------

    def first(self, j: int, k: int) -> Optional[int]:
        """The first value from lexeme j on in the list at k, or None: a
        forward skip over comments. The head of a list at k, or None for an
        atom, is ``first(k + 1, k)``."""
        pieces, close = self.pieces, self.last[k]
        while j < close and pieces[j][0] == ";":
            j += 1
        return j if j < close else None

    def head_key(self, k: int) -> Optional[str]:
        """The lowercased text of the head atom of the list at k, or None."""
        head = self.first(k + 1, k)
        return None if head is None or self.pieces[head] == "(" \
            else self.pieces[head].lower()

    def values(self, k: int) -> list[int]:
        """The lexeme of each value of the list at k: its children but
        comments."""
        pieces, last, values = self.pieces, self.last, []
        j, close = k + 1, last[k]
        while j < close:
            if pieces[j][0] != ";":
                values.append(j)
            j = last[j] + 1
        return values

    # -- emission ---------------------------------------------------------

    def parens(self, k: int, close: Scope = _PUNCTUATION) -> None:
        """The parentheses of the list at k: its '(' Punctuation and its
        ')' ``close``, or both Unscoped if it is never closed."""
        last = self.last[k]
        if last < self.eof:
            self.scopes[k] = _PUNCTUATION
            self.scopes[last] = close

    def lexical(self, k: int) -> None:
        """Lexical scopes for the value at k, content we have no grammar
        for; iterative, so any depth fits. A variable at the head of a list
        is Unscoped, as nothing in PDDL is headed by a variable."""
        pieces, last, scopes, terms = \
            self.pieces, self.last, self.scopes, self.terms
        end = self.eof
        first = False  # whether the next value heads a list
        for j in range(k, min(last[k] + 1, end)):
            piece = pieces[j]
            if piece == "(":
                if last[j] < end:
                    scopes[j] = _PUNCTUATION
                first = True
            elif piece == ")":
                scopes[j] = _PUNCTUATION
                first = False
            elif piece[0] != ";":
                if piece == "-":
                    scopes[j] = _PUNCTUATION
                elif piece[0] == ":" and is_name(piece[1:]):
                    scopes[j] = _KEYWORD
                elif not first or not is_variable(piece):
                    scopes[j] = terms[piece]
                first = False

    def each(self, k: int, head: Optional[int], head_scope: Scope,
             *values: GrammarMethod, fixed: bool = False) -> None:
        """One in-order pass over the values of the list at k: the head
        atom with ``head_scope``, and the i-th value after it through the
        i-th of ``values``, the last of which repeats; if ``fixed``, a value
        past the last is Unscoped whole and a missing one makes the list's
        ')' Unscoped."""
        if self.depth >= _MAX_GRAMMAR_DEPTH:
            self.lexical(k)
            return
        self.depth += 1
        try:
            pieces, last = self.pieces, self.last
            value, rest = values[0], values[1:]
            j, close = k + 1, last[k]
            if not fixed and hasattr(value, "rules"):
                # :init or (and ...), whose head ``formula`` found an atom.
                self.scopes[head] = head_scope
                self.formulas(head + 1, close, getattr(self, value.rules),
                              value.ground)
                j = close
            while j < close:
                if j == head:
                    if pieces[j] != "(":
                        self.scopes[j] = head_scope
                elif pieces[j][0] != ";" and value is not None:
                    value(self, j)
                    if rest:
                        value, rest = rest[0], rest[1:]
                    elif fixed:
                        value = None
                j = last[j] + 1
            self.parens(k, _UNSCOPED if fixed and value is not None
                        else _PUNCTUATION)
        finally:
            self.depth -= 1

    def warn(self, k: int, message: str, code: str,
             quoted: bool = False) -> None:
        """Report a finding of the model at the value at k; none without
        one. A ``quoted`` message is formatted only then: its ``{}`` is the
        value's source, quoted as ``excerpt(repr(...))``."""
        if self.model is not None:
            if quoted:
                message = message.format(excerpt(repr(self.tape.source(k))))
            self.diagnostics.append(finding(self.tape.span(k), message, code))

    # -- formulas -----------------------------------------------------------

    def formula(self, k: int, rules: dict,
                ground: Optional[bool] = False) -> None:
        """A formula of the context whose rows are ``rules``: a list headed
        by a key of ``rules`` sends the values after it to the methods of
        the key's row, one each unless the key is variadic, or goes with its
        head to the row's handler; a list headed by any other name is an
        atomic formula, ``ground`` if in ``:init``. With ``ground`` None the
        value is a block or a top-level form, where no atomic formula
        stands. A list with no atom at its head, such as ``()``, and an
        atom are Unscoped whole."""
        pieces = self.pieces
        if pieces[k] != "(":
            return
        head = self.first(k + 1, k)
        if head is None or pieces[head] == "(":
            return
        key = pieces[head].lower()
        rule = rules.get(key)
        if rule is not None and (key in PREDICATE_KEYWORDS
                                 or key in OPTIONAL_NAME_KEYWORDS):
            # The value after the head decides.
            after = self.first(head + 1, k)
            if after is None or pieces[after] == "(" \
                    or not rule[0].accepts(pieces[after]):
                rule = rule[1:] if key in OPTIONAL_NAME_KEYWORDS else None
        if rule is None:
            if ground is not None and is_name(pieces[head]):
                self.each(k, head, _NAME,
                          _Walk.ground_term if ground else _Walk.term)
            else:
                self.each(k, head, _UNSCOPED, _Walk.lexical)
        elif type(rule) is tuple:
            self.each(k, head, _KEYWORD, *rule,
                      fixed=key not in VARIADIC_KEYWORDS)
        else:
            rule(self, k, head)

    condition = _formula("CONDITION")
    effect = _formula("EFFECT")
    init = _formula("INIT", True)
    timed_condition = _formula("TIMED_CONDITION")
    timed_effect = _formula("TIMED_EFFECT")
    constraint = _formula("CONSTRAINT")

    def formulas(self, j: int, close: int, rules: dict, ground: bool) -> None:
        """The values from lexeme j to ``close``, each a formula read by
        ``formula``. An atomic formula of atoms, by far the most common, its
        negation (not (p atom*)), and in :init (= (f atom*) atom) too, whose
        'not' and '=' are Keywords, are scoped as ``formula`` would scope
        them: each run of these is scoped as terms by one map at C speed,
        and ``formula`` reads the values between runs, and every value
        within one level of the depth limit, or two for a negation."""
        pieces, last, scopes, eof = self.pieces, self.last, self.scopes, self.eof
        terms = self.ground_terms if ground else self.terms
        flat = self.depth < _MAX_GRAMMAR_DEPTH - 1
        literal = "not" in rules and self.depth < _MAX_GRAMMAR_DEPTH - 2
        keys = []  # the 'not' or '=' of each negation or (= (f atom*) atom)
        run = j
        while j < close:
            end = last[j]
            if pieces[j] == "(" and end < eof and flat and (
                    "(" not in pieces[j + 1:end]
                    and terms[pieces[j + 1]] is _NAME
                    and pieces[j + 1].lower() not in rules
                    or pieces[j + 2] == "(" and (
                        ground and pieces[j + 1] == "="
                        and last[j + 2] + 2 == end
                        and pieces[end - 1][0] != ";"
                        or literal and pieces[j + 1].lower() == "not"
                        and last[j + 2] + 1 == end
                        and pieces[j + 3].lower() not in rules)
                    and "(" not in pieces[j + 3:end]
                    and terms[pieces[j + 3]] is _NAME):
                if pieces[j + 2] == "(":
                    keys.append(j + 1)
            elif pieces[j][0] != ";":
                # Any other value ends the run.
                scopes[run:j] = map(terms.__getitem__, pieces[run:j])
                self.formula(j, rules, ground)
                run = end + 1
            j = end + 1
        scopes[run:close] = map(terms.__getitem__, pieces[run:close])
        for j in keys:
            scopes[j] = _KEYWORD

    # -- terms, numeric expressions and one-atom places -----------------------

    def fexp(self, k: int) -> None:
        """A numeric expression: a term, an operation of ``NUMERIC_RULES``
        or a function applied to numeric expressions."""
        piece = self.pieces[k]
        if piece != "(":
            self.scopes[k] = self.terms[piece]
            return
        head = self.first(k + 1, k)
        if head is not None and self.pieces[head] != "(":
            rule = self.NUMERIC.get(self.pieces[head])
            if rule is not None:
                self.each(k, head, _KEYWORD, *rule)
            elif is_name(self.pieces[head]):
                self.each(k, head, _NAME, _Walk.fexp)

    def fexp_t(self, k: int) -> None:
        """The rate of a continuous effect (Fox and Long, 2003): #t, one of
        ``NUMERIC_KEYWORDS`` and a Keyword only here, (* f-exp #t),
        (* #t f-exp) or any numeric expression."""
        pieces = self.pieces
        values = self.values(k) if pieces[k] == "(" else []
        times = [pieces[v].lower() in NUMERIC_KEYWORDS for v in values]
        if pieces[k].lower() in NUMERIC_KEYWORDS:
            self.scopes[k] = _KEYWORD
        elif len(values) == 3 and pieces[values[0]] == "*" and any(times):
            self.each(k, values[0], _KEYWORD, *(
                (_Walk.fexp, _Walk.fexp_t) if times[2]
                else (_Walk.fexp_t, _Walk.fexp)), fixed=True)
        else:
            self.fexp(k)

    def term(self, k: int) -> None:
        """A name, a variable or a number; a list is Unscoped whole."""
        if self.pieces[k] != "(":
            self.scopes[k] = self.terms[self.pieces[k]]

    def ground_term(self, k: int) -> None:
        """A term of :init, a name or a number; a list is Unscoped whole."""
        if self.pieces[k] != "(":
            self.scopes[k] = self.ground_terms[self.pieces[k]]

    def function_term(self, k: int) -> None:
        """A function in :init: its name, or its name applied to ground
        terms; a list with no name at its head is Unscoped whole."""
        head = self.first(k + 1, k)
        if self.pieces[k] != "(":
            self.name(k)
        elif head is not None and is_name(self.pieces[head]):
            self.each(k, head, _NAME, _Walk.ground_term)

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

    def typed_list(self, k: int, head: Optional[int],
                   items: Optional[Scope] = Scope.NAME,
                   head_scope: Scope = Scope.KEYWORD,
                   record: bool = True) -> Optional[list]:
        """The typed-list grammar, (x+ - type)* (Kovacs, 2011), in the list
        at k after ``head`` if there is one, which gets ``head_scope``: a
        '-' makes the value after it the type, and is Unscoped if none
        follows. An atom item is of scope ``items`` if it classifies as
        that, else Unscoped; with ``items`` None the items are declarations.
        A model gets each finding as its value is reached, and if
        ``record``, its entries, each run of items as the type after it ends
        the run (``typed_run``); a list that records none may be scoped in
        one pass (``flat_list``)."""
        pieces, last, scopes, terms = \
            self.pieces, self.last, self.scopes, self.terms
        record = record and self.model is not None
        if not record and self.flat_list(k, head, items, head_scope):
            return None
        entries, run = [], []
        dash = None  # the last '-', while the value after it is due
        j, close = k + 1, last[k]
        while j < close:
            piece = pieces[j]
            if j == head:
                if piece != "(":
                    scopes[j] = head_scope
            elif piece[0] == ";":
                pass
            elif dash is not None:
                dash = None
                if piece == "(" or terms[piece] is not _NAME:
                    self.bad_type(j)
                if record:
                    entries += self.typed_run(run, items, j)
                elif piece == "(" and self.head_key(j) == "either":
                    self.each(j, self.first(j + 1, j), _KEYWORD,
                              _Walk.type_name)
                else:
                    self.type_name(j)
                run = []
            elif piece == "(":
                if items is not None:
                    self.warn(j, f"expression where a {items.name.lower()}"
                              " was expected in typed list",
                              "bad-typed-list-item")
                elif record:
                    run.append(j)
                else:
                    self.declaration(j)
            elif piece == "-":
                scopes[j] = _PUNCTUATION
                dash = j
            elif items is None:
                self.warn(j, "unexpected {} in (:functions ...)",
                          "bad-function", quoted=True)
            elif terms[piece] is items:
                scopes[j] = items
                run.append(j)
            else:
                self.warn(j, "{} where a " + items.name.lower()
                          + " was expected in typed list",
                          "bad-typed-list-item", quoted=True)
            j = last[j] + 1
        self.parens(k)
        if dash is not None:
            scopes[dash] = _UNSCOPED
            self.warn(dash, "dangling '-' at end of typed list",
                      "dangling-dash")
        if record and run:
            entries += self.typed_run(run, items)
        return entries if record else None

    def typed_run(self, run: list[int], items: Optional[Scope],
                  type_at: Optional[int] = None) -> list:
        """The model's entries of a typed list's ``run`` of items, typed by
        the value at ``type_at`` or else by default: a ``TypedEntry`` per
        name, or a ``FunctionDecl`` per declaration, each read now. A
        compound type, such as (either a b), is kept as its text so nothing
        is lost."""
        if not run:
            return []
        tape, pieces = self.tape, self.pieces
        type_name = None if type_at is None else tape.source(type_at)
        if items is not None:
            # The spans of the atoms and of the type, summed on from the
            # first's offset, and the entry's own constructor, at C speed.
            first, type_name = 2 * run[0] + 1, type_name or DEFAULT_TYPE
            at = list(accumulate(map(tape.size, tape.texts[first:2 * (
                run[-1] if type_at is None else self.last[type_at]) + 2]),
                initial=tape.offset(first)))
            type_span = None if type_at is None else Span._make(
                (at[2 * type_at + 1 - first], at[-1]))
            return [tuple.__new__(TypedEntry, (
                pieces[item], type_name, Span._make(
                    at[2 * item + 1 - first:2 * item + 3 - first]), type_span))
                for item in run]
        return [FunctionDecl(*signature, type_name or "number",
                             tape.source(raw), span=tape.span(raw))
                for raw in run if (signature := self.declaration(
                    raw, "function"))]

    def flat_list(self, k: int, head: Optional[int], items: Optional[Scope],
                  head_scope: Scope) -> bool:
        """Whether the typed list at k is flat and valid, and if so, scope
        it as ``typed_list`` would, at C speed: its atoms' classes make one
        string that one pattern checks, and that maps to their scopes."""
        j, close = k + 1 if head is None else k + 2, self.last[k]
        pattern = _FLAT_LISTS.get(items)
        if pattern is None or head is not None and (
                head != k + 1 or self.pieces[head] == "("):
            return False
        classes = "".join(map(self.classes.__getitem__, self.pieces[j:close]))
        if pattern.fullmatch(classes) is None:
            return False
        if head is not None:
            self.scopes[head] = head_scope
        self.scopes[j:close] = map(_FLAT_SCOPES.__getitem__,
                                   classes.replace("-n", "-t"))
        self.parens(k)
        return True

    def bad_type(self, k: int) -> None:
        """Report the type at k as no type name: an (either ...) as
        ``either-type``, anything else as ``bad-type``."""
        if self.pieces[k] != "(":
            self.warn(k, "{} in type position is not a type name",
                      "bad-type", quoted=True)
        else:
            self.warn(k, "compound type {} in type position",
                      "either-type" if self.head_key(k) == "either"
                      else "bad-type", quoted=True)

    def typed_block(self, k: int, head: int) -> None:
        """(:types ...), (:constants ...) or (:objects ...): a typed list of
        names, which a model adds to its list of the block's name."""
        entries = self.typed_list(k, head)
        if entries is not None:
            getattr(self.model, self.pieces[head].lower()[1:]).entries \
                += entries

    def function_list(self, k: int, head: int) -> None:
        """(:functions ...), typed declarations, which a model records."""
        functions = self.typed_list(k, head, None)
        if functions is not None:
            self.model.functions += functions

    def predicate(self, k: int) -> None:
        """A declaration in (:predicates ...), which a model records."""
        if self.pieces[k] != "(" and self.model is not None:
            self.warn(k, "stray {} in (:predicates ...)", "stray-atom",
                      quoted=True)
        elif signature := self.declaration(k):
            self.model.predicates.append(PredicateDecl(
                *signature, self.tape.source(k), span=self.tape.span(k)))

    def parameters(self, k: int) -> Optional[Deferred]:
        """Typed variables; for a model, its ``TypedList`` as a `Deferred`
        call of ``_parameters`` on ``recorder``, the findings reported now."""
        if self.pieces[k] != "(":
            self.warn(k, "{} where a list of parameters was expected",
                      "bad-parameters", quoted=True)
            return None
        self.typed_list(k, None, _VARIABLE, record=False)
        if self.model is None:
            return None
        self.recorder = self.recorder or _Recorder(self.tape, PddlDomain())
        return Deferred(_parameters, self.recorder, k)

    def declaration(self, k: int, what: str = "predicate",
                    ) -> Optional[tuple[str, TypedList]]:
        """A predicate or function declaration: (name typed-variables...);
        one with no name at all, such as ``()``, is Unscoped whole. For a
        model, its name and parameters; one whose head is no atom is
        reported and read no further."""
        pieces = self.pieces
        head = self.first(k + 1, k)
        if head is None or self.model is not None and pieces[head] == "(":
            self.warn(k, f"malformed {what} declaration",
                      "bad-predicate" if what == "predicate"
                      else "bad-function")
            return None
        ok = pieces[head] != "(" and is_name(pieces[head])
        entries = self.typed_list(k, head, _VARIABLE,
                                  _NAME if ok else _UNSCOPED)
        return None if entries is None else (pieces[head], TypedList(entries))

    # -- blocks and whole files ---------------------------------------------

    def action_block(self, k: int, head: int) -> None:
        """(:action NAME key value...) or (:durative-action ...), keyed by
        ``ACTION_KEYS``. A key in the name's place stays Unscoped: the
        action has no name. A misplaced list stays Unscoped, and the value
        after an unknown key is read in the hinted context. A closed plain
        action (``_PLAIN_ACTION``) well inside the depth limit is scoped at
        C speed by its lexemes' classes, as ``flat_list`` scopes a list."""
        pieces, close = self.pieces, self.last[k]
        if close < self.eof and self.depth < _MAX_GRAMMAR_DEPTH - 5:
            classes = "".join(map(self.action_classes.__getitem__,
                                  pieces[k:close + 1]))
            if _PLAIN_ACTION.fullmatch(classes):
                self.scopes[k:close + 1] = map(_ACTION_SCOPES.__getitem__,
                                               classes.replace("-n", "-t"))
                return
        keys = ACTION_KEYS[pieces[head].lower()]
        name = self.first(head + 1, k)
        if name is not None and (pieces[name] == "("
                                 or pieces[name].lower() in keys):
            name = None
        key_scope = _UNSCOPED
        context: Optional[GrammarMethod] = None

        def value(self: _Walk, j: int) -> None:
            nonlocal context, key_scope
            piece = pieces[j]
            if j == name:
                self.name(j)
            elif context is not None:
                # () is a whole value's <emptyOr> (PDDL 3.1), read lexically.
                empty = piece == "(" and self.first(j + 1, j) is None
                (_Walk.lexical if empty else context)(self, j)
                context = None
            elif (key := piece.lower()) in keys:
                self.scopes[j] = key_scope
                context = self.ACTION_VALUES[keys[key][1]]
            elif piece != "(":
                # Read the value as that of the hinted key if this kind of
                # action has it, so a durative one gets the timed context.
                hint = _ACTION_KEY_HINTS.get(key.strip(":"))
                context = self.ACTION_VALUES.get(
                    keys[f":{hint}"][1] if f":{hint}" in keys else hint,
                    _Walk.lexical)
            key_scope = _KEYWORD

        self.each(k, head, _KEYWORD, value)

    def record_action(self, k: int) -> None:
        """The model's record of the action at k, in one pass over its
        values: each key's value (the last one's), None for a key with none,
        deferred, as is the span; a missing name, a misplaced list and an
        unknown key, whose value is skipped, are reported."""
        pieces, (head, *values) = self.pieces, self.values(k)
        block = pieces[head].lower()
        keys, what = ACTION_KEYS[block], block[1:].replace("-", " ")
        first = pieces[values[0]] if values else "("
        name = None if first == "(" or first.lower() in keys else first
        durative = block == ":durative-action"
        action = (DurativeActionDecl if durative else ActionDecl)(
            name, TypedList(), span=Deferred(self.tape.span, k))
        (self.model.durative_actions if durative
         else self.model.actions).append(action)
        if name is None:
            self.warn(k, f"{what} has no name", "missing-action-name")
        attr, due = None, False  # the last key's attribute, its value due
        for j in values[name is not None:]:
            piece = pieces[j]
            if due:
                if attr == "parameters":
                    if (parameters := self.parameters(j)) is not None:
                        action.parameters = parameters
                elif attr is not None:
                    setattr(action, attr, Deferred(self.tape.node, j))
                due = False
            elif (key := piece.lower()) in keys:
                attr, due = keys[key][0], True
                if attr != "parameters":
                    setattr(action, attr, None)
            else:  # a misplaced list, or an unknown key with its value
                attr, due = None, piece != "("
                shown = "'(...)'" if piece == "(" else excerpt(repr(piece))
                self.warn(j, f"unrecognized entry {shown} in {what}",
                          "unknown-action-key")

    def block(self, k: int) -> None:
        """A block of the define form's kind. A model reports a stray atom,
        an unknown block or a repeat of one that may appear once. It keeps
        the values of :init, :goal, :metric, :derived, :domain and a
        domain's :requirements unscoped, formulas as nodes and atoms as
        text, records actions, skips :constraints, and reads any other block
        by the walk."""
        model, pieces = self.model, self.pieces
        if model is None:
            self.formula(k, self.blocks, ground=None)
            return
        key = self.head_key(k)
        if pieces[k] != "(":
            self.warn(k, "stray {} at " + self.kind + " level",
                      "stray-atom", quoted=True)
            return
        if key not in self.blocks:
            self.warn(k, f"unrecognized block {excerpt(key or '(...)')} "
                      "skipped", "unknown-block")
            return
        if key in self.seen and key not in REPEATABLE_BLOCKS:
            self.warn(k, f"duplicate {key} block", "duplicate-block")
        self.seen.add(key)
        after = self.first(self.first(k + 1, k) + 1, k)
        if key == ":requirements" and self.kind == "domain":
            model.requirements += [pieces[v] for v in self.values(k)[1:]
                                   if pieces[v] != "("]
        elif key == ":domain" and after is not None and pieces[after] != "(":
            model.domain_ref = pieces[after]
        elif key == ":init":
            self.inits.append(k)
            model.init = Deferred(_facts, self.tape, self.inits[:])
            for v in self.values(k)[1:]:
                if pieces[v] != "(":
                    self.warn(v, "stray {} in (:init ...)", "stray-atom",
                              quoted=True)
        elif key == ":goal":
            self.goal = after
            model.goal = None if after is None \
                else Deferred(self.tape.node, after)
        elif key == ":metric":
            model.metric = Deferred(self.tape.node, k)
        elif key == ":derived":
            self.derived.append(k)
            model.derived = Deferred(list, map(self.tape.node, self.derived[:]))
        elif key in ACTION_KEYS:
            self.record_action(k)
        elif key != ":constraints":
            self.formula(k, self.blocks, ground=None)

    def unknown(self, k: int) -> None:
        """Content of no known form, read leniently."""
        self.formula(k, {}, ground=None)

    def header(self, k: int) -> None:
        """The (domain NAME) or (problem NAME) of a define form."""
        self.each(k, self.first(k + 1, k), _KEYWORD, _Walk.name)

    def define_form(self, k: int, head: int) -> None:
        """(define (domain NAME) block...) or (define (problem NAME) ...);
        with no such header, a domain's blocks after lenient content. A
        model reads the form as its own kind: every value after the head is
        a block unless it is a header of that kind, whose absence it
        reports, as it does a problem's missing goal."""
        pieces = self.pieces
        values = self.values(k)
        header = self.values(values[1]) if len(values) > 1 \
            and pieces[values[1]] == "(" else ()
        kind = pieces[header[0]].lower() if len(header) == 2 \
            and pieces[header[0]] != "(" and pieces[header[1]] != "(" \
            and pieces[header[0]].lower() in ("domain", "problem") else None
        first = _Walk.unknown if kind is None else _Walk.header
        if self.model is None:
            self.kind = kind or "domain"
        elif kind == self.kind:
            self.model.name = pieces[header[1]]
        else:
            self.warn(k, f"missing ({self.kind} NAME) declaration",
                      "missing-problem-decl" if self.kind == "problem"
                      else "missing-domain-decl")
            first = _Walk.block
        self.blocks = self.PROBLEM_BLOCKS if self.kind == "problem" \
            else self.DOMAIN_BLOCKS
        self.each(k, head, _KEYWORD, first, _Walk.block)
        if self.kind == "problem" and self.goal is None:
            self.warn(k, "problem has no goal", "missing-goal")

    def run(self) -> None:
        """Every top-level value: a byte order mark is Punctuation, a list
        with no atom at its head is read lexically, and a form by its
        kind; then every comment is a Comment."""
        for k in self.values(_TOP):
            if k == 0 and self.tape.text.startswith("\ufeff"):
                self.scopes[k] = _PUNCTUATION
            elif self.pieces[k] == "(" and self.head_key(k) is None:
                self.lexical(k)
            else:
                self.formula(k, self.FORMS, ground=None)
        for k in self.tape.comments():
            self.scopes[k] = Scope.COMMENT

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


class _Recorder(_Walk):
    """The walk of ``_parameters``, silent: the model's walk has warned."""

    def warn(self, k: int, message: str, code: str,
             quoted: bool = False) -> None:
        pass


def _parameters(walk: _Walk, k: int) -> TypedList:
    """The parameters of an action, the list at lexeme k, as the recording
    walk ``walk`` reads them; their findings went to the model read."""
    return TypedList(walk.typed_list(k, None, _VARIABLE))


def _facts(tape: Tape, blocks: Sequence[int]) -> list[SExprNode]:
    """The facts of the :init blocks at lexemes ``blocks``: the lists among
    their values, each block's nodes built at once."""
    return [fact for k in blocks for fact in tape.node(k).values()[1:]
            if fact.kind is _LIST]


def _read(source: Union[str, Document], model: Model,
          ) -> tuple[Model, list[ParseDiagnostic]]:
    """``model`` as the scope walk fills it from the first define form of a
    document (or of text, lexed first), with the parse diagnostics
    followed by the model's own."""
    doc = as_document(source)
    walk = _Walk(doc.tape, model)
    define = next((k for k in walk.values(_TOP)
                   if walk.head_key(k) == "define"), None)
    if define is None:
        walk.diagnostics.append(finding(None, f"no (define ({walk.kind} "
                                        "...)) form found", "missing-define"))
    else:
        with gc_paused():
            walk.define_form(define, walk.first(define + 1, define))
    return model, doc.diagnostics + walk.diagnostics


def parse_domain(source: Union[str, Document],
                 ) -> tuple[PddlDomain, list[ParseDiagnostic]]:
    """The typed domain of a document (or of text, lexed first), with the
    parse diagnostics followed by the model's own."""
    return _read(source, PddlDomain())


def parse_problem(source: Union[str, Document],
                  ) -> tuple[PddlProblem, list[ParseDiagnostic]]:
    """The typed problem of a document (or of text, lexed first), with the
    parse diagnostics followed by the model's own."""
    return _read(source, PddlProblem())
