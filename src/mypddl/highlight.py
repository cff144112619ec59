"""Context-aware scope assignment for PDDL source, and its outputs.

The contract is the inverse of a linter: correct constructs get a scope,
anything syntactically out of place gets no scope at all (``UNSCOPED``), and
the unscoped spots are what a reader (or `invalid_regions`) looks for. A
construct is only scoped when it appears in a context where it is legal, so
the scope walk mirrors the PDDL 3.1 grammar rather than matching tokens in
isolation; it lives in ``model``, beside the grammar's tables. This module
runs it for tokens and renders them as JSON, HTML and invalid regions.
Tokens always tile the whole file, whitespace included.
"""

from __future__ import annotations

import html
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import _PUNCTUATION, _UNSCOPED, Scope, _Walk
from .sexpr import Document, Span, as_document, gc_paused


class Token(NamedTuple):
    span: Span
    scope: Scope
    text: str


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
