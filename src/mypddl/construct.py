"""Programmatic read/add access to PDDL code blocks.

`read_construct` pulls blocks out by keyword; `add_construct` appends new
constructs to the first matching block while leaving every other byte of the
file untouched, by a textual splice. Both find blocks with a structural
index, as simdjson does (Langdale and Lemire, 2019), and parse only those.
"""

from __future__ import annotations

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
# A list holding no list and no comment, a paren, or a comment.
_STRUCTURE = re.compile(r"\([^();]*\)|[()]|;[^\n]*")


def _heads(text: str, keyword: str) -> Iterator[int]:
    """The offset of the '(' of each list headed by ``keyword``, compared by
    ``.lower()`` as ``sexpr.iter_blocks`` compares it, in document order."""
    wanted = keyword.lower()
    # Ignoring case matches each character c as c.lower() does, except 'İ',
    # whose lower case is two characters; the match is then a whole atom.
    pattern = re.escape(wanted).replace("i\u0307", "(?:i\u0307|\u0130)")
    atom = "[^ \t\r\n\f\v();]"
    for match in re.finditer(rf"\({_GAP}(?={pattern}(?!{atom}))({atom}+)",
                             text, re.IGNORECASE):
        start = match.start()
        # A '(' after a ';' on its line is inside a comment.
        if match[1].lower() == wanted and \
                text.find(";", text.rfind("\n", 0, start) + 1, start) < 0:
            yield start


def _scan(text: str, start: int) -> tuple[Optional[int], int]:
    """The offset of the ')' of the list whose '(' is at ``start`` (None if
    unclosed), and of its last '(' at depth one, or else of its head's lead."""
    depth, last = 1, start + 1
    for match in _STRUCTURE.finditer(text, start + 1):
        token = match[0]
        if token == ")":
            depth -= 1
            if not depth:
                return match.start(), last
        elif token[0] == "(":
            if depth == 1:
                last = match.start()
            depth += token == "("
    return None, last


def read_construct(keyword: str, file: Path) -> list[SExprNode]:
    """All blocks headed by ``keyword`` in the file, in document order, each
    parsed alone with its lead, as the whole file's tree holds it."""
    text = Document.read(file).text
    blocks: list[SExprNode] = []
    at = offset = 0  # a character offset and its byte offset
    for start in _heads(text, keyword):
        lead = start
        while lead and text[lead - 1] in " \t\r\n\f\v":
            lead -= 1
        if text.find(";", text.rfind("\n", 0, lead) + 1, lead) >= 0:
            lead = text.index("\n", lead)  # a comment runs to its line's end
        offset += len(text[at:lead].encode("utf-8"))
        at = lead
        close = _scan(text, start)[0]
        blocks += parse_sexpr(text[lead:len(text) if close is None
                                   else close + 1], offset)[0]
    return blocks


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


def _insertion_state(doc: Document, block: SExprNode | str) -> tuple[int, str]:
    """Where to splice inside ``block``, a parsed list or the keyword of the
    first block the index finds, and the line prefix: a line break of the
    kind (CRLF or LF) before the block's last entry and its column, or a
    single space if the block has no entry."""
    if isinstance(block, str):
        text = doc.text
        start = next(_heads(text, block), None)
        if start is None:
            raise ConstructError("file contains no s-expressions"
                                 if re.fullmatch("\ufeff?" + _GAP, text) else
                                 f"no block headed by {block!r} found")
        # Only the block's end is parsed, from its last list or its head.
        close, first = _scan(text, start)
        end = len(text) if close is None else close
        insert_at = len(text[:end].encode("utf-8"))
        entries = [n for n in parse_sexpr(text[first:end], len(
            text[:first].encode("utf-8")))[0] if not n.is_trivia]
        if first == start + 1:
            del entries[0]  # the head
        last = entries[-1] if entries else None
    else:
        assert block.span is not None
        insert_at = block.span.end - 1 if block.closed else block.span.end
        # The last entry, found from the end: a long block is not walked whole.
        last = next((c for c in reversed(block.children) if not c.is_trivia),
                    None)
        last = None if last is block.head() else last
    if last is None:
        return insert_at, " "
    at = last.span.start
    line_start = doc.data.rfind(b"\n", 0, at) + 1
    crlf = doc.data[max(line_start - 2, 0):line_start] == b"\r\n"
    return insert_at, ("\r\n" if crlf else "\n") + " " * (at - line_start)


def splice(doc: Document, block: SExprNode | str,
           constructs: Iterable[SExprNode | str]) -> Iterator[bytes]:
    """The bytes of ``doc`` with constructs spliced into ``block``, a parsed
    list or a keyword, in pieces: the bytes before the splice, each
    construct after its line prefix, then the bytes from the splice on.
    Each construct is either a node (serialized verbatim, without its lead)
    or an already-rendered string, and is only rendered when its piece is
    asked for."""
    data = doc.data
    insert_at, prefix = _insertion_state(doc, block)
    yield data[:insert_at]
    for item in constructs:
        yield (prefix + (item if isinstance(item, str)
                         else serialize_node(item))).encode("utf-8")
    yield data[insert_at:]


def append_to_block(doc: Document, block: SExprNode | str,
                    constructs: Iterable[SExprNode | str]) -> str:
    """Splice constructs into ``block`` of ``doc``; pure, no file I/O. Every
    byte outside the splice is kept, CR bytes included."""
    return b"".join(splice(doc, block, constructs)).decode("utf-8")


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
