"""Lossless s-expression reading and writing.

The reader keeps every byte of the input: atoms, comments and lists become
nodes with exact byte spans, each holding the whitespace before it as its
``lead`` (Roslyn's leading trivia), so that serializing a parsed forest
reproduces the source text byte for byte. This holds for broken input too --
unbalanced parentheses never abort the parse, they only produce diagnostics.
All offsets are byte offsets into the UTF-8 encoding of the source.

A `Document` is one file read as bytes and decoded strictly. Its `Tape`, the
lexemes with the bounds of each list, is built on first use, and the scope
walk and the model read it; its forest is built only when read, for callers
that want a tree.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import gc
import re
from collections import namedtuple
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union


class MyPddlError(Exception):
    """Base class for errors raised by this package."""


class Span(namedtuple("Span", "start end")):
    """Half-open byte range [start, end) into the source text: an immutable
    pair, so equal spans compare and hash alike. ``_make`` builds one from
    a pair known to be valid, unchecked and at C speed."""

    __slots__ = ()
    # namedtuple's own _make checks len(), which here is a span's length.
    _make = classmethod(tuple.__new__)

    def __new__(cls, start: int, end: int) -> "Span":
        if start > end or start < 0:
            raise ValueError(f"invalid span {start}..{end}")
        return tuple.__new__(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class ParseDiagnostic(NamedTuple):
    span: Span
    severity: Severity
    message: str
    code: str


# The code of every finding the toolkit makes, and its severity; the README's
# list of finding codes says what each means.
FINDINGS = {
    "stray-closer": Severity.ERROR,
    "unclosed-list": Severity.ERROR,
    "missing-define": Severity.ERROR,
    "missing-domain-decl": Severity.ERROR,
    "missing-problem-decl": Severity.ERROR,
    "missing-goal": Severity.WARNING,
    "stray-atom": Severity.WARNING,
    "unknown-block": Severity.WARNING,
    "duplicate-block": Severity.WARNING,
    "missing-action-name": Severity.WARNING,
    "unknown-action-key": Severity.WARNING,
    "bad-parameters": Severity.WARNING,
    "bad-predicate": Severity.WARNING,
    "bad-function": Severity.WARNING,
    "bad-typed-list-item": Severity.WARNING,
    "dangling-dash": Severity.ERROR,
    "bad-type": Severity.WARNING,
    "either-type": Severity.WARNING,
    "type-cycle": Severity.ERROR,
    "multi-parent": Severity.WARNING,
    "undeclared-type": Severity.WARNING,
    "orphan-type": Severity.WARNING,
    "no-renderer": Severity.WARNING,
    "missing-init": Severity.WARNING,
    "no-locations": Severity.WARNING,
    "bad-location": Severity.ERROR,
    "bad-coordinate": Severity.ERROR,
    "duplicate-object": Severity.ERROR,
    "mixed-dimensions": Severity.ERROR,
}


def finding(span: Optional[Span], message: str, code: str) -> ParseDiagnostic:
    """A finding of ``code`` at ``span``, None for one about no place in the
    file (at its start), with the severity that ``FINDINGS`` gives it."""
    return ParseDiagnostic(Span(0, 0) if span is None else span,
                           FINDINGS[code], message, code)


def excerpt(text: str) -> str:
    """``text`` as a message or a report line shows it: whole up to 40
    UTF-8 bytes, else the characters of its first 37 bytes and '...'. A
    message quotes source as ``excerpt(repr(text))``, so no input makes it
    long."""
    data = text.encode()
    if len(data) <= 40:
        return text
    return data[:37].decode(errors="ignore") + "..."


class Record:
    """Base of the records a caller may assign to: the fields are a
    subclass's ``__slots__``, and its constructor is built from them, as
    ``collections.namedtuple`` builds ``__new__``. The constructor takes the
    fields in order: the first ``_required`` have no default, the others
    default to None, and a field of ``_fresh`` that gets None gets a new
    value from its factory instead (a list, set, dict or record). A field
    of ``_deferred`` may hold a `Deferred`, made into its value when first
    read. Records of one class are equal when their fields are; none
    hashes, and each prints as ``Name(field=value, ...)``."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _fresh: dict[str, Callable[[], object]] = {}
    _deferred: tuple[str, ...] = ()
    _required = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields, fresh = cls.__slots__, cls._fresh
        params = [*fields[:cls._required],
                  *(f"{name}=None" for name in fields[cls._required:])]
        body = [f"self.{name} = _new_{name}() if {name} is None else {name}"
                if name in fresh else f"self.{name} = {name}"
                for name in fields]
        namespace = {f"_new_{name}": make for name, make in fresh.items()}
        exec(f"def __init__(self, {', '.join(params)}):\n    "
             + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        for name in cls._deferred:
            slot = vars(cls)[name]
            setattr(cls, name, property(partial(_made, slot), slot.__set__))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Deferred(partial):
    """A field's value not made yet: the call that makes it, made on the
    first read of the field (``Record._deferred``)."""

    __slots__ = ()


def _made(slot, record: Record) -> object:
    """The value of a field of ``_deferred`` whose slot is ``slot``."""
    value = slot.__get__(record)
    if type(value) is Deferred:
        value = value()
        slot.__set__(record, value)
    return value


class NodeKind(enum.Enum):
    ATOM = "atom"
    LIST = "list"
    COMMENT = "comment"
    WHITESPACE = "whitespace"

    # Members are singletons that compare by identity; hashing by identity
    # runs in C, where ``Enum.__hash__`` is a Python call.
    __hash__ = object.__hash__


class SExprNode(namedtuple("SExprNode", "kind text children start end "
                                        "closed is_trivia lead tail")):
    """One node of the lossless concrete-syntax tree.

    ``text`` is the verbatim source slice for atoms, comments and whitespace
    (only a leading byte order mark and what follows the last top-level
    node); lists carry their elements in ``children``. ``start`` and ``end``
    are byte offsets, None in a node built in code; ``span``, which the
    constructor, ``repr`` and pickles use, is built from them when read.
    ``lead`` is the whitespace before a node, outside its span; ``tail`` is
    that before a list's ')' or the end of input. ``closed`` is False for a
    list recovered at end of input, so serialization invents no missing
    parenthesis. ``is_trivia`` is derived from ``kind``.

    An immutable tuple that compares and hashes by identity, as two nodes
    with the same text and span are still two places in a tree. Hot loops
    unpack it or index it by the constants below."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, kind: NodeKind, text: str = "",
                children: tuple["SExprNode", ...] = (),
                span: Optional[Span] = None, closed: bool = True,
                lead: str = "", tail: str = "") -> "SExprNode":
        trivia = kind is NodeKind.COMMENT or kind is NodeKind.WHITESPACE
        start, end = (None, None) if span is None else span
        return tuple.__new__(cls, (kind, text, children, start, end, closed,
                                   trivia, lead, tail))

    span = property(lambda self: None if self[START] is None
                    else Span._make(self[START:END + 1]))

    # Immutable, so a copy is the node itself, and deepcopy holds at any depth.
    __copy__ = __deepcopy__ = lambda self, memo=None: self

    def __getnewargs__(self) -> tuple:
        return (*self[:START], self.span, self[CLOSED], *self[LEAD:])

    def __repr__(self) -> str:
        return ("SExprNode(kind=%r, text=%r, children=%r, span=%r, closed=%r, "
                "is_trivia=%r, lead=%r, tail=%r)"
                % (*self[:START], self.span, *self[CLOSED:]))

    def walk(self) -> Iterator["SExprNode"]:
        """Yield this node and all descendants in document order;
        iterative, so arbitrarily deep nesting cannot exhaust the stack."""
        stack: list[SExprNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def head(self) -> Optional["SExprNode"]:
        """First non-trivia child of a list, or None."""
        for child in self.children:
            if not child.is_trivia:
                return child
        return None

    def values(self) -> list["SExprNode"]:
        """Non-trivia children."""
        return [c for c in self.children if not c.is_trivia]


# The index of each field of ``SExprNode``, for loops that read it by index.
KIND, TEXT, CHILDREN, START, END, CLOSED, IS_TRIVIA, LEAD, TAIL = range(9)


SPACE = " \t\r\n\f\v"  # not \s: other spaces, such as U+00A0, are atom text
ATOM, COMMENT = f"[^{SPACE}();]", r";[^\n]*"
# A lexeme: its first character tells its kind. Whitespace and delimiters are
# ASCII, so token boundaries fall between whole UTF-8 sequences and a lead's
# length in characters is its length in bytes. Every character outside a
# lexeme is whitespace, so ``split`` gives the leads and the lexemes in turn,
# the trailing whitespace last.
_LEXEME = re.compile(rf"""(
      {COMMENT}                # comment, up to the end of the line
    | [()]                     # open or close
    | {ATOM}+                  # atom
)""", re.VERBOSE)
_COMMENT = re.compile(COMMENT)


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, then restore the
    state it had before. Trees and token lists hold no cycles, so reference
    counting alone frees them; without the pause every 700 allocations
    start a collection that rescans the growing structure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def lexemes(text: str, offset: int = 0) -> list[str]:
    """The leads and the lexemes of a text at byte ``offset`` in turn, the
    trailing whitespace last. A byte order mark at offset 0 is a lexeme of
    its own; U+FEFF anywhere else is atom text, so a slice of a file lexes
    as the file does."""
    if offset or not text.startswith("\ufeff"):
        return _LEXEME.split(text)
    return ["", "\ufeff", *_LEXEME.split(text[1:])]


def parse_sexpr(text: str, offset: int = 0,
                ) -> tuple[list[SExprNode], list[ParseDiagnostic]]:
    """Parse source text, or a slice of a file at byte ``offset``, into a
    lossless forest whose offsets count from the file's start. Never raises
    on malformed input: an unclosed list is closed at end of input and a
    stray ')' becomes an atom, each with an Error diagnostic. The cyclic
    garbage collector is paused while the forest is built."""
    with gc_paused():
        return _forest(lexemes(text, offset), offset, text.isascii())


def _forest(texts: list[str], offset: int, ascii_only: bool,
            ) -> tuple[list[SExprNode], list[ParseDiagnostic]]:
    """The forest and diagnostics of `parse_sexpr` from the `lexemes` of a
    text at byte ``offset``; ``ascii_only`` if the text is ASCII."""
    diagnostics: list[ParseDiagnostic] = []
    # Offset, lead and children so far of each open list; ``level`` is
    # the innermost, and the bottom entry of ``levels`` is the forest.
    opens: list[int] = []
    leads: list[str] = []
    levels: list[list[SExprNode]] = [[]]
    level = levels[0]
    atom, comment, lst = NodeKind.ATOM, NodeKind.COMMENT, NodeKind.LIST
    # Nodes are built at C speed, fields in ``SExprNode`` order.
    new = tuple.__new__
    i, trailing = offset, texts[-1]
    pairs = zip(texts[::2], texts[1::2])  # the trailing lead has no lexeme
    if not offset and texts[:2] == ["", "\ufeff"]:
        i = 3
        level.append(SExprNode(NodeKind.WHITESPACE, "\ufeff", (), Span(0, i)))
        next(pairs)
    for lead, piece in pairs:
        i += len(lead)
        j = i + (len(piece) if ascii_only else len(piece.encode("utf-8")))
        first = piece[0]
        if first == "(":
            opens.append(i)
            leads.append(lead)
            level = []
            levels.append(level)
        elif first == ")":
            if opens:
                node = new(SExprNode, (lst, "", tuple(level), opens.pop(),
                                       j, True, False, leads.pop(), lead))
                levels.pop()
                level = levels[-1]
                level.append(node)
            else:
                diagnostics.append(finding(Span(i, j), "unmatched ')'",
                                           "stray-closer"))
                level.append(new(SExprNode, (atom, ")", (), i, j, True,
                                             False, lead, "")))
        else:
            kind = comment if first == ";" else atom
            level.append(new(SExprNode, (kind, piece, (), i, j, True,
                                         kind is comment, lead, "")))
        i = j

    # Trailing whitespace is the innermost unclosed list's tail, or a node.
    end = i + len(trailing)
    if trailing and not opens:
        level.append(SExprNode(NodeKind.WHITESPACE, trailing, (),
                               Span(i, end)))
    # Close recovered lists innermost first, without inventing parentheses.
    while opens:
        start = opens.pop()
        diagnostics.append(finding(Span(start, start + 1),
                                   "'(' is never closed", "unclosed-list"))
        node = SExprNode(lst, "", tuple(levels.pop()), Span(start, end),
                         False, leads.pop(), trailing)
        trailing = ""
        levels[-1].append(node)
    return levels[0], diagnostics


def _utf8_len(text: str) -> int:
    return len(text.encode())


class Tape:
    """The lexemes of a text and where each list ends, which the scope walk
    and the model read instead of a tree, as simdjson's tape records where
    each bracket closes (Langdale and Lemire, 2019).

    Lexeme k is ``pieces[k]``, an atom, a comment, a parenthesis or a
    leading byte order mark, after the whitespace ``texts[2 * k]``: the
    strings of ``texts`` interleave leads and lexemes and tile the text. The
    last lexeme, ``end``, is the empty one after the trailing whitespace.
    The value at lexeme k runs to lexeme ``last[k]``: k itself, or for a '('
    its ')', or ``end`` if it is never closed. ``diagnostics`` are those of
    `parse_sexpr`. ``size`` is a string's bytes, summed on read (`offset`)."""

    STRIDE = 64  # the strings between two entries of the offset index
    __slots__ = ("text", "ascii", "size", "texts", "pieces", "last", "end",
                 "diagnostics", "_index")

    def __init__(self, text: str) -> None:
        with gc_paused():
            self.text, self.ascii = text, text.isascii()
            self.size = len if self.ascii else _utf8_len
            self._index: Optional[list[int]] = None
            self.texts = texts = lexemes(text)
            texts.append("")  # the end
            self.pieces = pieces = texts[1::2]
            self.end = end = len(pieces) - 1
            self.last = last = list(range(end + 1))
            opens: list[int] = []
            strays: list[int] = []
            for k, piece in enumerate(pieces):
                if piece == "(":
                    opens.append(k)
                elif piece == ")":
                    if opens:
                        last[opens.pop()] = k
                    else:
                        strays.append(k)
            for k in opens:
                last[k] = end
        self.diagnostics = [finding(self.span(k), "unmatched ')'",
                                    "stray-closer") for k in strays]
        for k in reversed(opens):
            at = self.offset(2 * k + 1)
            self.diagnostics.append(finding(
                Span(at, at + 1), "'(' is never closed", "unclosed-list"))

    def offset(self, i: int) -> int:
        """The byte offset of string i of ``texts`` (i = ``len(texts)``: the
        end): that of the indexed string at or before it, one a ``STRIDE``,
        indexed on first use, plus the bytes between, at most a stride's."""
        texts, base, stride = self.texts, i - i % self.STRIDE, self.STRIDE
        if self._index is None:
            self._index = list(accumulate(
                (self.size("".join(texts[j:j + stride]))
                 for j in range(0, len(texts), stride)), initial=0))
        return self._index[base // stride] + self.size("".join(texts[base:i]))

    def comments(self) -> list[int]:
        """The lexeme of each comment: every ';' outside a comment starts
        one, so a regex finds them and ``list.index`` their lexemes."""
        found = [-1]
        for comment in _COMMENT.findall(self.text):
            found.append(self.pieces.index(comment, found[-1] + 1))
        return found[1:]

    def span(self, k: int) -> Span:
        """The byte span of the value at lexeme k: it ends after the bytes
        of its own strings, or for a long value, at the offset of its end."""
        start, last = self.offset(2 * k + 1), self.last[k]
        return Span._make((start, start + self.size(self.source(k)) if last - k
                           < self.STRIDE // 2 else self.offset(2 * last + 2)))

    def source(self, k: int) -> str:
        """The text of the value at lexeme k, without its lead."""
        return "".join(self.texts[2 * k + 1:2 * self.last[k] + 2])

    def node(self, k: int) -> SExprNode:
        """The node of the value at lexeme k, as the text's forest holds
        it: `parse_sexpr`'s, built from the lexemes of its bytes."""
        texts = self.texts[2 * k:2 * self.last[k] + 2]
        if texts[-1]:
            texts.append("")  # a ')': no trailing whitespace
        else:
            texts.pop()  # the end, whose lead is the trailing whitespace
        return _forest(texts, self.offset(2 * k), self.ascii)[0][0]


class Document:
    """One source file, read and decoded once, and lexed at most once.

    Holds the raw bytes, the strictly decoded text, its `Tape` and the
    parse diagnostics, made on first use, the lossless forest, parsed only
    when read, and a line index that turns byte offsets into positions.
    ``path`` is the file the bytes came from, or None. Every layer that
    needs the file works from the same document, so no command reads or
    lexes a file twice.
    """

    __slots__ = ("path", "data", "text", "_tape", "_parsed", "_line_starts")

    def __init__(self, data: bytes, path: Optional[Path] = None,
                 text: Optional[str] = None) -> None:
        if text is None:
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MyPddlError(f"{path or '<text>'}: not valid UTF-8 at "
                                  f"byte {exc.start}") from None
        self.path = path
        self.data = data
        self.text = text
        self._tape: Optional[Tape] = None
        self._parsed: Optional[list[SExprNode]] = None
        self._line_starts: Optional[list[int]] = None

    @property
    def tape(self) -> Tape:
        if self._tape is None:
            self._tape = Tape(self.text)
        return self._tape

    @property
    def forest(self) -> list[SExprNode]:
        if self._parsed is None:
            self._parsed = parse_sexpr(self.text)[0]
        return self._parsed

    diagnostics = property(lambda self: self.tape.diagnostics)

    @classmethod
    def read(cls, path: Union[str, Path]) -> "Document":
        """Read a file as bytes; invalid UTF-8 raises a ``MyPddlError``
        naming the file and the first bad byte."""
        path = Path(path)
        return cls(path.read_bytes(), path)

    def line_col(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a byte offset; columns count bytes.
        The line index is built on first use and kept."""
        if self._line_starts is None:
            self._line_starts = line_starts(self.data)
        return _line_col(self._line_starts, offset)


def as_document(source: Union[str, Document]) -> Document:
    """``source`` itself if it is already a document, else its parse."""
    if isinstance(source, Document):
        return source
    return Document(source.encode("utf-8"), text=source)


def serialize(forest: Sequence[SExprNode]) -> str:
    """Reassemble source text, leads included; byte-exact for parsed forests.
    Iterative, so deeply nested input round-trips without exhausting the
    stack."""
    parts: list[str] = []
    todo: list[Union[SExprNode, str]] = list(reversed(forest))
    lst = NodeKind.LIST
    while todo:
        node = todo.pop()
        if type(node) is str:
            parts.append(node)
        elif node.kind is lst:
            parts += (node.lead, "(")
            todo.append(node.tail + ")" if node.closed else node.tail)
            todo.extend(reversed(node.children))
        else:
            parts += (node.lead, node.text)
    return "".join(parts)


def serialize_node(node: SExprNode) -> str:
    """The text of one node, without the whitespace before it."""
    return serialize([node])[len(node.lead):]


def find_blocks(forest: Sequence[SExprNode], keyword: str) -> list[SExprNode]:
    """All list nodes whose head atom equals ``keyword`` (case-insensitive),
    in document order, nested matches included; it visits lists alone."""
    wanted, lst, atom = keyword.lower(), NodeKind.LIST, NodeKind.ATOM
    found, todo = [], [node for node in reversed(forest) if node[KIND] is lst]
    while todo:
        node = todo.pop()
        if children := node[CHILDREN]:
            head = node.head() if children[0][IS_TRIVIA] else children[0]
            if head and head[KIND] is atom and head[TEXT].lower() == wanted:
                found.append(node)
            todo += [c for c in reversed(children) if c[KIND] is lst]
    return found


def line_starts(data: bytes) -> list[int]:
    """Byte offsets at which each line begins (line 1 starts at 0)."""
    starts = [0]
    i = data.find(b"\n")
    while i >= 0:
        starts.append(i + 1)
        i = data.find(b"\n", i + 1)
    return starts


def _line_col(starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect.bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def offset_to_line_col(data: bytes, offset: int) -> tuple[int, int]:
    """1-based (line, column); columns count bytes within the line."""
    return _line_col(line_starts(data), offset)
