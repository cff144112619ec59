"""Programmatic read/add access to PDDL code blocks.

`read_construct` pulls blocks out by keyword; `add_construct` appends new
constructs to the first matching block while leaving every other byte of the
file untouched. Appending is a textual splice guided by the lossless tree,
so even files our grammar does not fully understand survive unharmed.
"""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .sexpr import (
    Document,
    MyPddlError,
    SExprNode,
    as_document,
    find_blocks,
    iter_blocks,
    serialize_node,
)


class ConstructError(MyPddlError):
    pass


def read_construct(keyword: str, file: Path) -> list[SExprNode]:
    """All blocks headed by ``keyword`` in the file, in document order."""
    return find_blocks(Document.read(file).forest, keyword)


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


def _insertion_state(data: bytes, block: SExprNode) -> tuple[int, str]:
    """Where to splice inside ``block`` and the line prefix to use.

    New entries go on their own line, indented to the column of the block's
    last existing entry, after a line break of the kind (CRLF or LF) that
    precedes that entry; a block with no entries gets a single space
    instead.
    """
    assert block.span is not None
    insert_at = block.span.end - 1 if block.closed else block.span.end

    # The last entry, found from the end: a long block is not walked whole.
    last = next((c for c in reversed(block.children) if not c.is_trivia), None)
    if last is not None and last is not block.head():
        assert last.span is not None
        line_start = data.rfind(b"\n", 0, last.span.start) + 1
        column = last.span.start - line_start
        crlf = data[max(line_start - 2, 0):line_start] == b"\r\n"
        return insert_at, ("\r\n" if crlf else "\n") + " " * column
    return insert_at, " "


def splice(doc: Document, block: SExprNode,
           constructs: Iterable[SExprNode | str]) -> Iterator[bytes]:
    """The bytes of ``doc`` with constructs spliced into ``block``, in
    pieces: the bytes before the splice, each construct after its line
    prefix, then the bytes from the splice on. Each construct is either a
    node (serialized verbatim, without its lead) or an already-rendered
    string, and is only rendered when its piece is asked for."""
    data = doc.data
    insert_at, prefix = _insertion_state(data, block)
    yield data[:insert_at]
    for item in constructs:
        yield (prefix + (item if isinstance(item, str)
                         else serialize_node(item))).encode("utf-8")
    yield data[insert_at:]


def append_to_block(doc: Document, block: SExprNode,
                    constructs: Iterable[SExprNode | str]) -> str:
    """Splice constructs into ``block`` of ``doc``; pure, no file I/O. Every
    byte outside the splice is kept, CR bytes included."""
    return b"".join(splice(doc, block, constructs)).decode("utf-8")


def insert_construct(source: Union[str, Document], keyword: str,
                     constructs: Sequence[SExprNode]) -> str:
    """Append constructs to the first block headed by ``keyword``."""
    doc = as_document(source)
    if not [n for n in doc.forest if not n.is_trivia]:
        raise ConstructError("file contains no s-expressions")
    block = next(iter_blocks(doc.forest, keyword), None)
    if block is None:
        raise ConstructError(f"no block headed by {keyword!r} found")
    return append_to_block(doc, block, constructs)


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
