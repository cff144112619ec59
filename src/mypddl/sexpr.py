"""Lossless s-expression reading and writing.

The reader keeps every byte of the input: atoms, comments and lists become
nodes with exact byte spans, each holding the whitespace before it as its
``lead`` (Roslyn's leading trivia), so that serializing a parsed forest
reproduces the source text byte for byte. This holds for broken input too --
unbalanced parentheses never abort the parse, they only produce diagnostics.
All offsets are byte offsets into the UTF-8 encoding of the source.

A `Document` is one file read as bytes, decoded strictly and parsed once;
every other layer works from its forest and its line index.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import gc
import re
from collections import namedtuple
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence, Union


class MyPddlError(Exception):
    """Base class for errors raised by this package."""


class Span(namedtuple("Span", "start end")):
    """Half-open byte range [start, end) into the source text.

    An immutable pair: equal spans compare and hash alike.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int) -> "Span":
        if start > end or start < 0:
            raise ValueError(f"invalid span {start}..{end}")
        return tuple.__new__(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


def _span(start: int, end: int) -> Span:
    """A span whose bounds the caller has already ensured are valid."""
    return tuple.__new__(Span, (start, end))


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class ParseDiagnostic(NamedTuple):
    span: Span
    severity: Severity
    message: str
    code: str


class Record:
    """Base of the records a caller may assign to: the fields are a
    subclass's ``__slots__``, in the order of its constructor, where None
    stands for a new list, set, dict or record. Records of one class are
    equal when their fields are; none hashes, and each prints as
    ``Name(field=value, ...)``."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

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


class NodeKind(enum.Enum):
    ATOM = "atom"
    LIST = "list"
    COMMENT = "comment"
    WHITESPACE = "whitespace"

    # Members are singletons that compare by identity; hashing by identity
    # runs in C, where ``Enum.__hash__`` is a Python call.
    __hash__ = object.__hash__


class SExprNode(namedtuple(
        "SExprNode", "kind text children span closed is_trivia lead tail")):
    """One node of the lossless concrete-syntax tree.

    ``text`` is the verbatim source slice for atoms, comments and whitespace
    (only a leading byte order mark and what follows the last top-level
    node); lists carry their elements in ``children``. ``lead`` is the
    whitespace before a node, outside its span; ``tail`` is that before a
    list's ')' or the end of input. ``closed`` is False for a list that was
    recovered at end of input, so serialization does not invent the missing
    parenthesis. Nodes built programmatically (for insertion) have ``span``
    set to None. ``is_trivia`` is derived from ``kind`` when it is made.

    An immutable tuple record that compares and hashes by identity, as two
    nodes with the same text and span are still two places in a tree. Hot
    loops unpack it rather than read its fields one by one.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, kind: NodeKind, text: str = "",
                children: tuple["SExprNode", ...] = (),
                span: Optional[Span] = None, closed: bool = True,
                lead: str = "", tail: str = "") -> "SExprNode":
        trivia = kind is NodeKind.COMMENT or kind is NodeKind.WHITESPACE
        return tuple.__new__(cls, (kind, text, children, span, closed, trivia,
                                   lead, tail))

    def __getnewargs__(self) -> tuple:
        return self[:5] + self[6:]

    def walk(self) -> Iterator["SExprNode"]:
        """Yield this node and all descendants in document order.

        Iterative, so arbitrarily deep nesting cannot exhaust the stack.
        """
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


SPACE = " \t\r\n\f\v"  # not \s: other spaces, such as U+00A0, are atom text
ATOM, COMMENT = f"[^{SPACE}();]", r";[^\n]*"
# Each match is (lead, lexeme); a lexeme's first character tells its kind.
# Whitespace and delimiters are ASCII, so token boundaries fall between whole
# UTF-8 sequences and a lead's length in characters is its length in bytes.
_LEXEME = re.compile(rf"""
    ([{SPACE}]*)
    ( \A\ufeff                # a byte order mark at offset 0
    | {COMMENT}                # comment, up to the end of the line
    | [()]                     # open or close
    | {ATOM}+                  # atom
    | \Z )                     # the end, after the trailing whitespace
""", re.VERBOSE)


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, then restore the
    state it had before.

    Trees and token lists hold no cycles, so reference counting alone frees
    them; without the pause every 700 allocations start a collection that
    rescans the growing structure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_sexpr(text: str, offset: int = 0,
                ) -> tuple[list[SExprNode], list[ParseDiagnostic]]:
    """Parse source text, or a slice of a file at byte ``offset``, into a
    lossless forest whose spans count from the file's start.

    Never raises on malformed input: an unclosed list is closed at end of
    input and a stray ')' becomes an atom, each with an Error diagnostic.
    The cyclic garbage collector is paused while the forest is built.
    """
    with gc_paused():
        diagnostics: list[ParseDiagnostic] = []
        # Offset, lead and children so far of each open list; ``level`` is
        # the innermost, and the bottom entry of ``levels`` is the forest.
        opens: list[int] = []
        leads: list[str] = []
        levels: list[list[SExprNode]] = [[]]
        level = levels[0]
        atom, comment, lst = NodeKind.ATOM, NodeKind.COMMENT, NodeKind.LIST
        # Nodes and spans are built at C speed, fields in ``SExprNode`` order.
        new = tuple.__new__
        # Byte offsets equal character offsets in ASCII text.
        ascii_only = text.isascii()
        # The last match is empty; one before it may hold trailing whitespace.
        pieces = _LEXEME.findall(text)[:-1]
        trailing = pieces.pop()[0] if pieces and not pieces[-1][1] else ""
        i = offset + 3 if pieces and pieces[0] == ("", "\ufeff") else offset
        if i > offset:
            level.append(SExprNode(NodeKind.WHITESPACE, text[0], (), _span(offset, i)))
            del pieces[0]
        for lead, piece in pieces:
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
                    node = new(SExprNode, (lst, "", tuple(level),
                                           new(Span, (opens.pop(), j)),
                                           True, False, leads.pop(), lead))
                    levels.pop()
                    level = levels[-1]
                    level.append(node)
                else:
                    diagnostics.append(ParseDiagnostic(
                        _span(i, j), Severity.ERROR, "unmatched ')'",
                        "stray-closer"))
                    level.append(new(SExprNode, (atom, ")", (),
                                                 new(Span, (i, j)), True,
                                                 False, lead, "")))
            else:
                kind = comment if first == ";" else atom
                level.append(new(SExprNode, (kind, piece, (), new(Span, (i, j)),
                                             True, kind is comment, lead, "")))
            i = j

        # Trailing whitespace is the innermost unclosed list's tail, or a node.
        end = i + len(trailing)
        if trailing and not opens:
            level.append(SExprNode(NodeKind.WHITESPACE, trailing, (),
                                   _span(i, end)))
        # Close recovered lists innermost first, without inventing parentheses.
        while opens:
            start = opens.pop()
            diagnostics.append(ParseDiagnostic(
                _span(start, start + 1), Severity.ERROR,
                "'(' is never closed", "unclosed-list"))
            node = SExprNode(lst, "", tuple(levels.pop()), _span(start, end),
                             False, leads.pop(), trailing)
            trailing = ""
            levels[-1].append(node)
        return levels[0], diagnostics


class Document:
    """One source file, read and decoded once, and parsed at most once.

    Holds the raw bytes, the strictly decoded text, the lossless forest and
    the parse diagnostics, both parsed on first use, and a line index that
    turns byte offsets into positions. ``path`` is the file the bytes came
    from, or None. Every layer that needs the file works from the same
    document, so no command reads or parses a file twice.
    """

    __slots__ = ("path", "data", "text", "_parsed", "_line_starts")

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
        self._parsed = None
        self._line_starts: Optional[list[int]] = None

    def _parse(self) -> tuple[list[SExprNode], list[ParseDiagnostic]]:
        if self._parsed is None:
            self._parsed = parse_sexpr(self.text)
        return self._parsed

    forest = property(lambda self: self._parse()[0])
    diagnostics = property(lambda self: self._parse()[1])

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
    while todo:
        node = todo.pop()
        if type(node) is str:
            parts.append(node)
        elif node.kind is NodeKind.LIST:
            parts += (node.lead, "(")
            todo.append(node.tail + ")" if node.closed else node.tail)
            todo.extend(reversed(node.children))
        else:
            parts += (node.lead, node.text)
    return "".join(parts)


def serialize_node(node: SExprNode) -> str:
    """The text of one node, without the whitespace before it."""
    return serialize([node])[len(node.lead):]


def iter_blocks(forest: Sequence[SExprNode],
                keyword: str) -> Iterator[SExprNode]:
    """Each list node whose head atom equals ``keyword`` (case-insensitive),
    in document order, nested matches included. Lazy, so a caller that
    needs only the first match visits no more lists than it."""
    wanted = keyword.lower()
    lst, atom = NodeKind.LIST, NodeKind.ATOM
    todo = [node for node in reversed(forest) if node[0] is lst]
    while todo:
        node = todo.pop()
        if children := node[2]:
            head = node.head() if children[0][5] else children[0]
            if head is not None and head[0] is atom and head[1].lower() == wanted:
                yield node
            todo += [child for child in reversed(children) if child[0] is lst]


def find_blocks(forest: Sequence[SExprNode], keyword: str) -> list[SExprNode]:
    """All list nodes whose head atom equals ``keyword`` (case-insensitive),
    in document order, nested matches included."""
    return list(iter_blocks(forest, keyword))


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
