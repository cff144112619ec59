"""Programmatic read/add access to PDDL code blocks.

`read_construct` pulls blocks out by keyword; `add_construct` appends new
constructs to the first matching block while leaving every other byte of the
file untouched, by a textual splice. Both find blocks with a structural
index, as simdjson does (Langdale and Lemire, 2019), and parse only those.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import re
import stat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

from .sexpr import (
    Document,
    MyPddlError,
    SExprNode,
    as_document,
    parse_sexpr,
    serialize_node,
)


class ConstructError(MyPddlError):
    pass


# Whitespace as ``sexpr._LEXEME`` has it (``\s`` also matches spaces that
# the reader takes for atom text), then whole comments: a comment that could
# end early would expose a head inside it, as in "(;x (:init".
_GAP = r"[ \t\r\n\f\v]*(?:;[^\n]*(?![^\n])[ \t\r\n\f\v]*)*"
_SKIP_GAP = re.compile(_GAP).match
# A run of whitespace, atoms and lists that hold no list and no comment.
_FLAT = re.compile(r"(?:[^();]+|\([^();]*\))*").match
_SPACE = " \t\r\n\f\v"
_ENTRY = re.compile(f"[^{_SPACE}]").search
_COMMENT = re.compile(r";[^\n]*").match


def _heads(text: str, keyword: str, pos: int = 0) -> Iterator[int]:
    """The offset of the '(' of each list from ``pos`` on whose head is
    ``keyword`` by ``.lower()``, as for ``iter_blocks``, in document order."""
    wanted = keyword.lower()
    # Ignoring case matches each character c as c.lower() does, except 'İ',
    # whose lower case is two characters; the match is then a whole atom.
    pattern = re.escape(wanted).replace("i\u0307", "(?:i\u0307|\u0130)")
    atom = "[^ \t\r\n\f\v();]"
    for match in re.compile(rf"\({_GAP}(?={pattern}(?!{atom}))({atom}+)",
                            re.IGNORECASE).finditer(text, pos):
        start = match.start()
        # A '(' after a ';' on its line is inside a comment.
        if match[1].lower() == wanted and \
                text.find(";", text.rfind("\n", 0, start) + 1, start) < 0:
            yield start


def _scan(text: str, start: int, bounds: Optional[list[int]] = None,
          ) -> tuple[Optional[int], Optional[tuple[int, int]]]:
    """The offset of the ')' of the list whose '(' is at ``start`` (None if
    unclosed), and the last stretch at depth one holding an entry, the head
    included: a run of whitespace, atoms and flat lists, one regex match,
    and any nested list's '(' after it. ``bounds`` gets each stretch."""
    depth, at, last = 1, start + 1, None
    while True:
        end = _FLAT(text, at).end()
        stop = end + text.startswith("(", end)
        if depth == 1 and stop > at:
            if bounds is not None:
                bounds += (at, stop)
            if stop > end or _ENTRY(text, at, stop):
                last = (at, stop)
        if end == len(text):
            return None, last
        if text[end] == ";":
            at = _COMMENT(text, end).end()
            continue
        depth += 1 if stop > end else -1
        if not depth:
            return end, last
        at = end + 1


def _parse_slices(text: str, slices: Iterable[tuple[int, int]],
                  ) -> list[SExprNode]:
    """The nodes of each ``text[start:end]``, parsed alone at its offset."""
    nodes, at, offset = [], 0, 0  # a character offset and its byte offset
    for start, end in slices:
        offset += len(text[at:start].encode("utf-8"))
        nodes += parse_sexpr(text[start:end], offset)[0]
        at = start
    return nodes


def read_construct(keyword: str, file: Path) -> list[SExprNode]:
    """All blocks headed by ``keyword`` in the file, in document order, each
    parsed alone with its lead, as the whole file's tree holds it."""
    text = Document.read(file).text

    def block(start: int) -> tuple[int, int]:
        lead = start
        while lead and text[lead - 1] in _SPACE:
            lead -= 1
        if text.find(";", text.rfind("\n", 0, lead) + 1, lead) >= 0:
            lead = text.index("\n", lead)  # a comment runs to its line's end
        close = _scan(text, start)[0]
        return lead, len(text) if close is None else close + 1
    return _parse_slices(text, map(block, _heads(text, keyword)))


def parse_constructs(text: str) -> list[SExprNode]:
    """Parse user-supplied construct text into nodes (trivia dropped).

    Malformed text is rejected outright: splicing unbalanced parentheses
    into a file must never be possible through this path.
    """
    doc = as_document(text)
    if doc.diagnostics:
        raise ConstructError(
            f"construct text is not well formed: {doc.diagnostics[0].message}")
    nodes = [n for n in doc.forest if not n.is_trivia]
    if not nodes:
        raise ConstructError(f"no construct found in {text!r}")
    return nodes


def _insertion_state(doc: Document, block: SExprNode | str,
                     bounds: Optional[list[int]] = None) -> tuple[int, str]:
    """Where to splice inside ``block``, a parsed list or the keyword of the
    first block the index finds (whose ``bounds`` ``_scan`` gets), and the
    line prefix: a line break of the kind (CRLF or LF) before the block's
    last entry and its column, or a single space if it has no entry."""
    if isinstance(block, str):
        text = doc.text
        start = next(_heads(text, block), None)
        if start is None:
            raise ConstructError("file contains no s-expressions"
                                 if re.fullmatch("\ufeff?" + _GAP, text) else
                                 f"no block headed by {block!r} found")
        # Nothing is parsed: the last entry is a list's '(' or else the last
        # atom of the stretch the scan found, and the head is none.
        close, stretch = _scan(text, start, bounds)
        end = len(text) if close is None else close
        insert_at = len(text[:end].encode("utf-8"))
        first, last = stretch
        last = first + len(text[first:last].rstrip(_SPACE)) - 1
        if text[last] == ")":
            last = text.rfind("(", first, last)
        elif text[last] != "(":
            last = max(first - 1, *(text.rfind(c, first, last)
                                    for c in _SPACE + ")")) + 1
        at = None if last == _SKIP_GAP(text, start + 1).end() else \
            insert_at - len(text[last:end].encode("utf-8"))
    else:
        assert block.span is not None
        insert_at = block.span.end - 1 if block.closed else block.span.end
        # The last entry, found from the end: a long block is not walked whole.
        last = next((c for c in reversed(block.children) if not c.is_trivia),
                    None)
        at = None if last is None or last is block.head() else last.span.start
    if at is None:
        return insert_at, " "
    line_start = doc.data.rfind(b"\n", 0, at) + 1
    crlf = doc.data[max(line_start - 2, 0):line_start] == b"\r\n"
    return insert_at, ("\r\n" if crlf else "\n") + " " * (at - line_start)


def _entries(doc: Document, keyword: str, head: str,
             ) -> tuple[Optional[list[SExprNode]], int, str]:
    """The lists headed by ``head`` among the entries of the first block
    headed by ``keyword`` (None with no such block), each run of them
    parsed as one slice, and where to splice inside it with the prefix."""
    bounds: list[int] = []
    try:
        insert_at, prefix = _insertion_state(doc, keyword, bounds)
    except ConstructError:
        return None, 0, ""
    text, runs = doc.text, []
    for at in _heads(text, head, bounds[0]):
        i = bisect.bisect_right(bounds, at)
        if i == len(bounds):
            break  # past the block
        if i % 2:  # an entry: a flat list, or a nested list's '('
            close = _scan(text, at)[0] if bounds[i] == at + 1 \
                else text.index(")", at)
            end = len(text) if close is None else close + 1
            if runs and _SKIP_GAP(text, runs[-1][1]).end() == at:
                runs[-1][1] = end
            else:
                runs.append([at, end])
    return _parse_slices(text, runs), insert_at, prefix


def splice(doc: Document, insert_at: int, prefix: str,
           constructs: Iterable[SExprNode | str]) -> Iterator[bytes]:
    """The bytes of ``doc`` in pieces: those before byte ``insert_at``, each
    construct after the line ``prefix``, then the rest. A construct is a
    node (serialized verbatim, without its lead) or an already-rendered
    string, and is only rendered when its piece is asked for."""
    data = doc.data
    yield data[:insert_at]
    for item in constructs:
        yield (prefix + (item if isinstance(item, str)
                         else serialize_node(item))).encode("utf-8")
    yield data[insert_at:]


def append_to_block(doc: Document, block: SExprNode | str,
                    constructs: Iterable[SExprNode | str]) -> str:
    """Splice constructs into ``block`` of ``doc``, a parsed list or a
    keyword; pure, no file I/O. Every byte outside the splice is kept, CR
    bytes included."""
    return b"".join(splice(doc, *_insertion_state(doc, block),
                           constructs)).decode("utf-8")


def insert_construct(source: Union[str, Document], keyword: str,
                     constructs: Sequence[SExprNode]) -> str:
    """Append constructs to the first block headed by ``keyword``."""
    return append_to_block(as_document(source), keyword, constructs)


def write_atomically(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 via a temp file in the same directory plus
    rename. Newlines are written as they are, never translated."""
    write_pieces_atomically(path, [text.encode("utf-8")])


# The flags of ``mkstemp``: create, fail if the name exists, and write bytes
# as they are (O_BINARY, on Windows).
_NEW_FILE_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
                   | getattr(os, "O_BINARY", 0))


def _create_beside(target: Path) -> tuple[int, str]:
    """A new file beside ``target``, open for writing, as ``mkstemp`` makes
    one but with the mode any new file gets: 0666 less the umask."""
    while True:
        name = f"{target}.{os.urandom(4).hex()}"
        try:
            return os.open(name, _NEW_FILE_FLAGS, 0o666), name
        except FileExistsError:
            pass


def write_pieces_atomically(path: Path, pieces: Iterable[bytes]) -> None:
    """Write the pieces one after another into a temp file in the same
    directory, then rename it over ``path``, or over the file a symlink
    ``path`` leads to. The file keeps its permission bits, and its owner
    and group where the caller may set them; a new one gets those of any
    new file. If a piece raises, the temp file is removed and ``path``
    keeps its bytes."""
    target = Path(os.path.realpath(path))
    try:
        old = target.stat() if target.exists() else None
        fd, tmp_name = _create_beside(target)
    except OSError as exc:
        raise ConstructError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        if old is not None:
            # Before the mode: a change of owner may clear set-id bits.
            with contextlib.suppress(PermissionError):
                os.chown(tmp_name, old.st_uid, old.st_gid)
            os.chmod(tmp_name, stat.S_IMODE(old.st_mode))
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def add_construct(file: Path, keyword: str,
                  constructs: Sequence[SExprNode]) -> str:
    """Append constructs to the first matching block and rewrite the file
    atomically. Returns the updated text."""
    doc = Document.read(file)
    updated = insert_construct(doc, keyword, constructs)
    if updated != doc.text:
        write_atomically(Path(file), updated)
    return updated
